//! Ablation study: switch off each of DX100's three bandwidth techniques
//! (reordering, coalescing, interleaving) and the direct-DRAM path, and
//! measure the all-miss gather plus two representative kernels.

use dx100_bench::{run_jobs, BenchArgs};
use dx100_sim::SystemConfig;
use dx100_workloads::micro::allmiss::{run_allmiss, Scenario};
use dx100_workloads::Mode;

/// The two kernels each variant runs, at half the `--scale` dataset.
const KERNELS: [&str; 2] = ["is", "gzz"];

fn variant(name: &str, f: impl Fn(&mut dx100_core::Dx100Config)) -> (String, SystemConfig) {
    let mut cfg = SystemConfig::paper_dx100();
    f(cfg.dx100.as_mut().unwrap());
    (name.to_string(), cfg)
}

fn main() {
    let args = BenchArgs::parse();
    args.warn_unsupported("ablation", false, true);
    let variants = vec![
        variant("full", |_| {}),
        variant("no-reorder", |d| d.reorder = false),
        variant("no-coalesce", |d| d.coalesce = false),
        variant("no-interleave", |d| d.interleave = false),
        variant("llc-inject", |d| d.direct_dram = false),
    ];
    let worst = Scenario {
        rbh: 0.0,
        chi: false,
        bgi: false,
    };
    let mut jobs = Vec::new();
    for (_, cfg) in &variants {
        for k in KERNELS {
            jobs.push(args.job(k, args.scale * 0.5, Mode::Dx100, cfg.clone()));
        }
    }
    let results = run_jobs("ablation", jobs, args.threads);
    println!("Ablations — DX100 cycles (lower is better) and BW utilization\n");
    println!(
        "{:<14} {:>12} {:>8} {:>12} {:>12}",
        "variant", "allmiss-cyc", "bw%", "is-cyc", "gzz-cyc"
    );
    for ((name, mut cfg), runs) in variants.into_iter().zip(results.chunks(KERNELS.len())) {
        cfg.obs.profile = args.profile;
        let am = run_allmiss(worst, true, &cfg);
        let mut cols = vec![
            format!("{:>12}", am.cycles),
            format!("{:>8.1}", am.bandwidth_utilization() * 100.0),
        ];
        for (k, (r, _)) in KERNELS.iter().zip(runs) {
            args.print_run_profile(&format!("{name}: {k}"), r);
            cols.push(format!("{:>12}", r.stats.cycles));
        }
        println!("{:<14} {}", name, cols.join(" "));
    }
}
