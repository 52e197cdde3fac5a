#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `serve` daemon from the
repository's workspace and the benchmark binary from `perfbench/` (its own
Cargo workspace), both in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the binary. The binary's last line of standard
output is the result object; this script checks that it carries exactly the
metrics BENCHMARK.json declares for the mode and passes it through. Workload
names, metrics and their reasons are in perfbench/NOTES.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(manifest, extra):
    """Builds with cargo and returns the path of the one binary built."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
           "--message-format", "json-render-diagnostics", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=840)
    if proc.returncode != 0:
        fail(f"build of {manifest} failed", proc.returncode or 1)
    exes = []
    for line in proc.stdout.decode().splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes.append(msg["executable"])
    if len(exes) != 1:
        fail(f"expected one binary from {manifest}, got {exes}")
    return exes[0]


def main():
    args = sys.argv[1:]
    workspace = os.path.join(ROOT, "Cargo.toml")
    serve_crate = os.path.join(ROOT, "crates", "serve", "Cargo.toml")
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(workspace) and os.path.isfile(serve_crate)):
        fail("the repository's sources are not here; run from a full checkout")
    if "--trace" not in args:
        fail("--trace <0|1> is required")
    trace = args[args.index("--trace") + 1] if args.index("--trace") + 1 < len(args) else ""
    with open(bench_json) as f:
        declared = json.load(f)
    expected = {m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]}

    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    serve_bin = build(workspace, ["-p", "dx100-serve", "--bin", "serve"])
    bench_bin = build(os.path.join(HERE, "Cargo.toml"), [])
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    try:
        proc = subprocess.run([bench_bin, *args, "--serve-bin", serve_bin, "--work-dir", work_dir],
                              cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.decode().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode or 1)
    result = json.loads(lines[-1])
    got = set(result["metrics"])
    if got != expected:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(expected - got)}, "
              f"undeclared {sorted(got - expected)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
