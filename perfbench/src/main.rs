//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep_baseline|sweep_dx100|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir>
//! ```
//!
//! With `--trace 0` it measures the workload and prints the end-to-end
//! metrics; with `--trace 1` it prints the per-layer metrics, measured by
//! timing calls into each crate's public functions and reading the counts
//! in its public reports. Either way the last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`, and the exit
//! code is non-zero when a correctness check failed. `run.py` builds this
//! binary and the `serve` daemon and passes their paths; NOTES.md gives
//! the reason for each workload and metric.

mod harness;
mod jobs;
mod serve_mix;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use dx100_common::json::Json;
use dx100_workloads::Mode;

/// Named metrics, in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, Json, String)>);

impl Metrics {
    /// A measured quantity.
    pub fn num(&mut self, name: &str, value: f64, unit: &str) {
        self.0
            .push((name.to_string(), Json::Num(value), unit.to_string()));
    }

    /// A count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.0
            .push((name.to_string(), value.into(), "count".to_string()));
    }
}

/// A run's result: operations attempted and failed, every failed check,
/// and the metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// An operation failed (an error, a panic, a failed check on its output,
    /// or a response other than 200).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }

    /// A check across operations failed.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Records a latency percentile, or a problem when the samples cannot
    /// support it.
    pub fn percentile(&mut self, name: &str, samples_ms: &[f64], p: f64) {
        match stats::percentile(samples_ms, p) {
            Ok(v) => self.metrics.num(name, v, "ms"),
            Err(e) => self.problem(format!("{name}: {e}")),
        }
    }
}

/// The parsed command line.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <sweep_baseline|sweep_dx100|serve_mix> \
     --seed <n> --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunArgs, String> {
    let mut vals: [Option<String>; 6] = Default::default();
    const FLAGS: [&str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--serve-bin",
        "--work-dir",
    ];
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let i = FLAGS
            .iter()
            .position(|f| *f == flag)
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        if vals[i].is_some() {
            return Err(format!("duplicate flag {flag}"));
        }
        vals[i] = Some(
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))?,
        );
    }
    let [workload, seed, seconds, trace, serve_bin, work_dir] =
        vals.map(|v| v.ok_or_else(|| "missing a required flag".to_string()));
    let workload = workload?;
    if !["sweep_baseline", "sweep_dx100", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = seed?;
    let seconds = seconds?;
    Ok(RunArgs {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("invalid --seed `{seed}`"))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s| *s > 0)
            .ok_or_else(|| format!("invalid --seconds `{seconds}`"))?,
        trace: match trace?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("invalid --trace `{other}` (want 0 or 1)")),
        },
        serve_bin: PathBuf::from(serve_bin?),
        work_dir: PathBuf::from(work_dir?),
    })
}

/// Whether a run starts another pass: always until it has `min`, then
/// only while one more pass of the mean length so far ends within
/// `seconds` of `started`.
pub fn another_pass(started: Instant, done: usize, min: usize, seconds: u64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    done < min || elapsed + elapsed / done as f64 <= seconds as f64
}

/// A `kB` field of `/proc/<pid>/status` (`pid` may be `self`).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, machine, seed] = &argv[..] {
        if cmd == "setup-probe" {
            if let Err(e) = sweep::setup_probe(machine, seed) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            return;
        }
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut out = match args.workload.as_str() {
        "sweep_baseline" => sweep::run(Mode::Baseline, &args),
        "sweep_dx100" => sweep::run(Mode::Dx100, &args),
        _ => serve_mix::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);

    for (name, value, unit) in &out.metrics.0 {
        eprintln!("{name:>34} = {value} {unit}");
    }
    let non_finite: Vec<String> = out
        .metrics
        .0
        .iter()
        .filter(|(_, v, _)| matches!(v, Json::Num(x) if !x.is_finite()))
        .map(|(name, _, _)| format!("{name} is not a finite number"))
        .collect();
    out.problems.extend(non_finite);
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let correct = out.problems.is_empty() && out.attempted > 0;
    let metrics = Json::Obj(
        out.metrics
            .0
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), unit.into()),
                ]);
                (name, entry)
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".to_string(), correct.into()),
        ("attempted".to_string(), out.attempted.into()),
        ("failed".to_string(), out.failed.into()),
        ("metrics".to_string(), metrics),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    const OK: [&str; 12] = [
        "--workload",
        "serve_mix",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
        "--serve-bin",
        "serve",
        "--work-dir",
        "w",
    ];

    #[test]
    fn strict_arguments() {
        let a = parse(&OK).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(parse(&OK[..10]).unwrap_err().contains("missing"));
        let mut bad = OK;
        bad[1] = "hit";
        assert!(parse(&bad).unwrap_err().contains("workload"));
        bad = OK;
        bad[7] = "yes";
        assert!(parse(&bad).unwrap_err().contains("--trace"));
        let mut dup = OK.to_vec();
        dup.extend(["--seed", "4"]);
        assert!(parse(&dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn reads_own_status() {
        assert!(proc_status_kb("self", "VmHWM").unwrap() > 0);
        assert_eq!(proc_status_kb("self", "NoSuchField"), None);
    }
}
