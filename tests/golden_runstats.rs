//! Golden pins on end-of-run statistics.
//!
//! The cycle-skip differential compares two runs of the *current* code, so
//! a change that alters behavior identically on both sides of the skip
//! switch (the Row Table, the request generator, a hot-path container)
//! slips through it. These pins were captured from the simulator before
//! such changes and must never move: each entry is an FNV-1a 64 hash of
//! the kernel checksum followed by the `Debug` form of its [`RunStats`]
//! (trace events and epoch samples included). `Debug` prints floats with
//! shortest-roundtrip formatting, so string equality is bit equality.
//!
//! A failure prints the full table of observed hashes. Update a pin only
//! for a change that is meant to alter simulated behavior, and say so in
//! the change's notes.

use dx100::common::hash::{hex16, Fnv64};
use dx100::core::Dx100Config;
use dx100::sim::SystemConfig;
use dx100::workloads::{all_kernels, Mode, Scale};

const TINY: Scale = Scale(1.0 / 128.0);
const SEED: u64 = 7;

/// `(kernel, machine, hash)` for every kernel on both machines.
const MACHINE_PINS: &[(&str, &str, &str)] = &[
    ("is", "baseline", "74d5f9bb41ddd363"),
    ("is", "dx100", "197361ac37eab733"),
    ("cg", "baseline", "e8732ad1b55263b6"),
    ("cg", "dx100", "428eccee1ed4e121"),
    ("bfs", "baseline", "d8e493cccbb262ad"),
    ("bfs", "dx100", "54047ee23838f34f"),
    ("bc", "baseline", "f4e36c0a52ae3ade"),
    ("bc", "dx100", "10bd7d53bc29d66d"),
    ("pr", "baseline", "249d723546a4cfca"),
    ("pr", "dx100", "9a40a43bebb9a720"),
    ("prh", "baseline", "d64a9bb630761091"),
    ("prh", "dx100", "400467a41aaed7bf"),
    ("pro", "baseline", "3adda1778b580935"),
    ("pro", "dx100", "ec698674321b60be"),
    ("gzz", "baseline", "fdefcc626919ee58"),
    ("gzz", "dx100", "585e09e5d4c1db2c"),
    ("gzzi", "baseline", "6bd2658755379b57"),
    ("gzzi", "dx100", "f8706ff5cc2602af"),
    ("gzp", "baseline", "471579d2d2b99130"),
    ("gzp", "dx100", "37ba248f0ff4ac11"),
    ("gzpi", "baseline", "a7483eb257cff9ce"),
    ("gzpi", "dx100", "4e8417ea65f1a306"),
    ("xrage", "baseline", "456d75c1351a70f1"),
    ("xrage", "dx100", "e9f144cb8f5c0523"),
];

/// `(kernel, ablation, hash)` for the non-default Row Table paths.
const ABLATION_PINS: &[(&str, &str, &str)] = &[
    ("is", "reorder", "85901277f596a71a"),
    ("is", "coalesce", "fcec63567b9a04c0"),
    ("is", "interleave", "fe3319d27283d8e0"),
    ("is", "direct_dram", "b1095569e955e72c"),
    ("gzz", "reorder", "ec36a52b0a94de38"),
    ("gzz", "coalesce", "c585c44714d0636d"),
    ("gzz", "interleave", "0a272902cbb0aa5f"),
    ("gzz", "direct_dram", "c32242fb1dc7edb6"),
];

/// Switches one Row Table feature off.
type Ablate = fn(&mut Dx100Config);

/// One Row Table feature switched off per entry.
const ABLATIONS: &[(&str, Ablate)] = &[
    ("reorder", |d| d.reorder = false),
    ("coalesce", |d| d.coalesce = false),
    ("interleave", |d| d.interleave = false),
    ("direct_dram", |d| d.direct_dram = false),
];

fn observed(mut cfg: SystemConfig, kernel: &dyn dx100::workloads::KernelRun, mode: Mode) -> String {
    cfg.obs.trace = true;
    cfg.obs.epoch_cycles = Some(5000);
    let r = kernel.run(mode, &cfg, SEED);
    let mut h = Fnv64::new();
    h.write(&r.checksum.to_le_bytes());
    h.write(format!("{:?}", r.stats).as_bytes());
    hex16(h.finish())
}

/// Compares observed against pinned hashes, printing every observed entry
/// so a deliberate re-pin is a copy-paste.
fn check(table: &str, pins: &[(&str, &str, &str)], got: &[(String, String, String)]) {
    let mut listing = String::new();
    for (k, v, h) in got {
        listing += &format!("    (\"{k}\", \"{v}\", \"{h}\"),\n");
    }
    let want: Vec<(String, String, String)> = pins
        .iter()
        .map(|&(k, v, h)| (k.to_string(), v.to_string(), h.to_string()))
        .collect();
    assert!(
        want == got,
        "{table} diverged from the golden pins; observed:\n{listing}"
    );
}

#[test]
fn all_kernels_both_machines_match_pins() {
    let mut got = Vec::new();
    for kernel in all_kernels(TINY) {
        for (mode, cfg) in [
            (Mode::Baseline, SystemConfig::paper_baseline()),
            (Mode::Dx100, SystemConfig::paper_dx100()),
        ] {
            let h = observed(cfg, kernel.as_ref(), mode);
            got.push((kernel.name().to_string(), mode.label().to_string(), h));
        }
    }
    check("MACHINE_PINS", MACHINE_PINS, &got);
}

#[test]
fn row_table_ablations_match_pins() {
    let mut got = Vec::new();
    for kernel in all_kernels(TINY) {
        if !matches!(kernel.name(), "is" | "gzz") {
            continue;
        }
        for &(name, ablate) in ABLATIONS {
            let mut cfg = SystemConfig::paper_dx100();
            ablate(cfg.dx100.as_mut().expect("DX100 machine"));
            let h = observed(cfg, kernel.as_ref(), Mode::Dx100);
            got.push((kernel.name().to_string(), name.to_string(), h));
        }
    }
    check("ABLATION_PINS", ABLATION_PINS, &got);
}
