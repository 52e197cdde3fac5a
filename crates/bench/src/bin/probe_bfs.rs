//! Debug probe: BFS on the 8-core / 2-instance machine at tiny scale.
//!
//! Shares the strict figure-binary flag table: `--scale` replaces the old
//! positional scale argument (a `--scale` of 1.0 reproduces the old
//! default probe size), and `--profile` prints the run's cycle attribution.

use dx100_bench::{run_jobs, BenchArgs};
use dx100_sim::SystemConfig;
use dx100_workloads::Mode;

fn main() {
    let args = BenchArgs::parse();
    args.warn_unsupported("probe_bfs", false, true);
    let job = args.job(
        "bfs",
        args.scale * 0.0625,
        Mode::Dx100,
        SystemConfig::scaled(8, 2),
    );
    let (r, _) = run_jobs("probe_bfs", vec![job], args.threads).remove(0);
    println!(
        "bfs 8c/2x ok: {} cycles ({} skipped in {} spans)",
        r.stats.cycles, r.telemetry.skipped_cycles, r.telemetry.skip_events
    );
    args.print_run_profile("bfs 8c/2x", &r);
}
