//! Figure 13: performance sensitivity to the DX100 tile size (1K → 32K).
//!
//! The paper attributes the gain to coalescing (1.4× fewer memory accesses
//! at 32K vs 1K) and +27% row-buffer hits, so each row also reports the
//! geomean indirect-access count (normalized to the 1K row) and the mean
//! DX100-machine row-buffer hit rate.

use dx100_bench::jobspec::kernel_names;
use dx100_bench::{run_jobs, BenchArgs};
use dx100_common::stats::geomean;
use dx100_sim::SystemConfig;
use dx100_workloads::Mode;

const TILES: [usize; 6] = [1024, 2048, 4096, 8192, 16384, 32768];

fn main() {
    let args = BenchArgs::parse();
    args.warn_unsupported("fig13", false, true);
    let kernels = kernel_names();
    // Baselines once per kernel, then every kernel at each tile size.
    let mut jobs = Vec::new();
    for k in &kernels {
        let cfg = SystemConfig::paper_baseline();
        jobs.push(args.job(k, args.scale, Mode::Baseline, cfg));
    }
    for tile in TILES {
        for k in &kernels {
            let cfg = SystemConfig::paper_dx100().with_tile_elems(tile);
            jobs.push(args.job(k, args.scale, Mode::Dx100, cfg));
        }
    }
    let results = run_jobs("fig13", jobs, args.threads);
    println!("Figure 13 — tile-size sweep (paper: 1.7x @1K → 2.9x @32K,");
    println!("            1.4x fewer accesses and +27% RBH at 32K vs 1K)\n");
    let (baselines, tiled) = results.split_at(kernels.len());
    for (k, (base, _)) in kernels.iter().zip(baselines) {
        args.print_run_profile(&format!("baseline {k}"), base);
    }
    let mut access_ref: Vec<f64> = Vec::new();
    for (tile, runs) in TILES.iter().zip(tiled.chunks(kernels.len())) {
        let mut speeds = Vec::new();
        let mut accesses = Vec::new();
        let mut rbh = Vec::new();
        for ((k, (dx, _)), (base, _)) in kernels.iter().zip(runs).zip(baselines) {
            args.print_run_profile(&format!("tile {tile} {k}"), dx);
            speeds.push(dx.stats.speedup_over(&base.stats));
            if let Some(d) = &dx.stats.dx100 {
                accesses.push(
                    (d.indirect_line_reads + d.indirect_line_writes + d.stream_line_requests).max(1)
                        as f64,
                );
            }
            rbh.push(dx.stats.row_buffer_hit_rate());
        }
        if access_ref.is_empty() {
            access_ref = accesses.clone();
        }
        let rel: Vec<f64> = accesses
            .iter()
            .zip(&access_ref)
            .map(|(a, r)| a / r)
            .collect();
        println!(
            "tile {tile:>5}: speedup {:>5.2}x   accesses vs 1K {:>5.2}x   dx100 RBH {:>5.1}%",
            geomean(&speeds),
            geomean(&rel),
            100.0 * rbh.iter().sum::<f64>() / rbh.len().max(1) as f64,
        );
    }
}
