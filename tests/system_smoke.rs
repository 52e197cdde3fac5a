//! Full-system smoke tests: every paper kernel, every machine mode, on the
//! assembled simulator at small scale — plus the scaled (Figure 14) and
//! tile-swept (Figure 13) configurations. Each DX100 run self-verifies
//! against its functional reference inside `KernelRun::run`.

use dx100::sim::SystemConfig;
use dx100::workloads::{all_kernels, Mode, Scale};

const TINY: Scale = Scale(1.0 / 128.0);

#[test]
fn all_kernels_all_modes_verify() {
    for kernel in all_kernels(TINY) {
        for (mode, cfg) in [
            (Mode::Baseline, SystemConfig::paper_baseline()),
            (Mode::Dmp, SystemConfig::paper_dmp()),
            (Mode::Dx100, SystemConfig::paper_dx100()),
        ] {
            let r = kernel.run(mode, &cfg, 99);
            assert!(
                r.stats.cycles > 0,
                "{} [{}]: empty ROI",
                kernel.name(),
                mode.label()
            );
        }
    }
}

#[test]
fn checksums_agree_across_modes() {
    for kernel in all_kernels(TINY) {
        let base = kernel.run(Mode::Baseline, &SystemConfig::paper_baseline(), 5);
        let dx = kernel.run(Mode::Dx100, &SystemConfig::paper_dx100(), 5);
        assert_eq!(
            base.checksum,
            dx.checksum,
            "{}: checksum divergence",
            kernel.name()
        );
    }
}

#[test]
fn dx100_reduces_instructions_on_every_kernel() {
    for kernel in all_kernels(Scale(1.0 / 64.0)) {
        // BFS is the paper's own exception (spin-wait synchronization).
        if kernel.name() == "bfs" {
            continue;
        }
        let base = kernel.run(Mode::Baseline, &SystemConfig::paper_baseline(), 3);
        let dx = kernel.run(Mode::Dx100, &SystemConfig::paper_dx100(), 3);
        assert!(
            dx.stats.instructions < base.stats.instructions,
            "{}: {} !< {}",
            kernel.name(),
            dx.stats.instructions,
            base.stats.instructions
        );
    }
}

#[test]
fn tile_size_sweep_stays_correct() {
    let kernel = &all_kernels(TINY)[0]; // IS
    for tile in [1024usize, 4096, 16384, 32768] {
        let cfg = SystemConfig::paper_dx100().with_tile_elems(tile);
        let r = kernel.run(Mode::Dx100, &cfg, 11);
        assert!(r.stats.cycles > 0, "tile {tile}");
    }
}

#[test]
fn scaled_eight_core_two_instance_machine_verifies() {
    // Figure 14's largest machine: 8 cores, 4 channels, 2 DX100 instances
    // with region coherence between them.
    // cg at Scale(0.04) has enough tiles that its last (verified) tile is
    // issued by a core attached to the second instance.
    let cfg = SystemConfig::scaled(8, 2);
    let cg = all_kernels(Scale(0.04))
        .into_iter()
        .filter(|k| k.name() == "cg");
    for kernel in all_kernels(TINY).into_iter().chain(cg) {
        let r = kernel.run(Mode::Dx100, &cfg, 21);
        assert!(r.stats.cycles > 0, "{} on 8c/2x", kernel.name());
    }
}

#[test]
fn eight_core_single_instance_machine_verifies() {
    let cfg = SystemConfig::scaled(8, 1);
    let kernels = all_kernels(TINY);
    // A representative subset keeps the suite fast.
    for kernel in kernels.iter().take(4) {
        let r = kernel.run(Mode::Dx100, &cfg, 22);
        assert!(r.stats.cycles > 0, "{} on 8c/1x", kernel.name());
    }
}

#[test]
fn ablated_machines_stay_correct() {
    let kernel = &all_kernels(TINY)[0]; // IS exercises RMW + gather + stream
    for f in [
        (|d: &mut dx100::core::Dx100Config| d.reorder = false) as fn(&mut _),
        |d| d.coalesce = false,
        |d| d.interleave = false,
        |d| d.direct_dram = false,
    ] {
        let mut cfg = SystemConfig::paper_dx100();
        f(cfg.dx100.as_mut().unwrap());
        let r = kernel.run(Mode::Dx100, &cfg, 31);
        assert!(r.stats.cycles > 0);
    }
}
