//! Figure 14: scaling cores, memory channels, and DX100 instances
//! (4c/1x vs 8c/1x vs 8c/2x, each normalized to the same-core baseline).

use dx100_bench::jobspec::kernel_names;
use dx100_bench::{print_geomean, run_jobs, BenchArgs};
use dx100_sim::SystemConfig;
use dx100_workloads::Mode;

/// Machine shapes: label, cores, DX100 instances, dataset multiplier (the
/// paper doubles the dataset with the core count).
const SHAPES: [(&str, usize, usize, f64); 3] = [
    ("4 cores, 1 instance", 4, 1, 1.0),
    ("8 cores, 1 instance", 8, 1, 2.0),
    ("8 cores, 2 instances", 8, 2, 2.0),
];

fn main() {
    let args = BenchArgs::parse();
    args.warn_unsupported("fig14", false, true);
    let kernels = kernel_names();
    let mut jobs = Vec::new();
    for (_, cores, instances, data_mult) in SHAPES {
        let scale = args.scale * data_mult;
        for k in &kernels {
            for (mode, dx100s) in [(Mode::Baseline, 0), (Mode::Dx100, instances)] {
                jobs.push(args.job(k, scale, mode, SystemConfig::scaled(cores, dx100s)));
            }
        }
    }
    let results = run_jobs("fig14", jobs, args.threads);
    println!("Figure 14 — scalability (paper: 2.6x @4c/1x, 2.5x @8c/1x, 2.7x @8c/2x)\n");
    for ((label, ..), runs) in SHAPES.iter().zip(results.chunks(2 * kernels.len())) {
        let mut speeds = Vec::new();
        for (k, pair) in kernels.iter().zip(runs.chunks(2)) {
            let ((b, _), (d, _)) = (&pair[0], &pair[1]);
            args.print_run_profile(&format!("{label}: {k} baseline"), b);
            args.print_run_profile(&format!("{label}: {k} dx100"), d);
            speeds.push(d.stats.speedup_over(&b.stats));
        }
        print_geomean(label, &speeds);
    }
}
