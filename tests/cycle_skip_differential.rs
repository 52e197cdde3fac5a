//! Differential and property tests for event-driven cycle skipping.
//!
//! The skip layer in `System::step` must be *invisible*: with
//! `cycle_skip` on, every kernel must produce bit-identical statistics,
//! epoch samples, and trace events to a cycle-by-cycle run — only
//! wall-clock time may differ. These tests run every paper kernel both
//! ways and compare, check that skipping actually engages on an
//! idle-heavy run, and property-test the `next_event` contracts of the
//! two substrate schedulers ([`DelayQueue`] and the DRAM channel
//! controller) that the skip decision is built on.

use dx100::common::{DType, DelayQueue, LineAddr};
use dx100::cpu::CoreOp;
use dx100::dram::{DramConfig, DramSystem, MemRequest};
use dx100::sim::driver::NullDriver;
use dx100::sim::{Driver, DriverStatus, System, SystemConfig};
use dx100::workloads::{all_kernels, Mode, Scale};
use dx100_core::MemoryImage;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

/// Small enough that a full kernel sweep stays test-suite friendly.
const TINY: Scale = Scale(1.0 / 128.0);
const SEED: u64 = 7;

fn cfg_for(mode: Mode, skip: bool) -> SystemConfig {
    let mut cfg = match mode {
        Mode::Baseline => SystemConfig::paper_baseline(),
        Mode::Dmp => SystemConfig::paper_dmp(),
        Mode::Dx100 => SystemConfig::paper_dx100(),
    };
    cfg.cycle_skip = skip;
    // Enable every observer so the comparison covers trace events and
    // epoch samples, not just end-of-run counters.
    cfg.obs.trace = true;
    cfg.obs.epoch_cycles = Some(5000);
    cfg
}

/// Skip-on and skip-off runs must agree bit-for-bit: checksum, cycle
/// count, every counter, every epoch sample, every trace event. `RunStats`
/// has no `PartialEq`, but its `Debug` output prints floats with
/// shortest-roundtrip formatting, so Debug-string equality is bit equality.
#[test]
fn skip_on_off_bit_identical_all_kernels() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let on = kernel.run(mode, &cfg_for(mode, true), SEED);
            let off = kernel.run(mode, &cfg_for(mode, false), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(on.checksum, off.checksum, "checksum diverged: {label}");
            assert_eq!(
                format!("{:?}", on.stats),
                format!("{:?}", off.stats),
                "stats diverged with cycle skipping: {label}"
            );
        }
    }
}

/// The DMP prefetcher path (pending-injection forbid rule) gets its own
/// differential pass on the two most prefetch-sensitive kernels.
#[test]
fn skip_on_off_bit_identical_dmp() {
    for kernel in all_kernels(TINY) {
        if !matches!(kernel.name(), "is" | "pr") {
            continue;
        }
        let on = kernel.run(Mode::Dmp, &cfg_for(Mode::Dmp, true), SEED);
        let off = kernel.run(Mode::Dmp, &cfg_for(Mode::Dmp, false), SEED);
        assert_eq!(
            on.checksum,
            off.checksum,
            "checksum diverged: {}",
            kernel.name()
        );
        assert_eq!(
            format!("{:?}", on.stats),
            format!("{:?}", off.stats),
            "stats diverged with cycle skipping: {} [dmp]",
            kernel.name()
        );
    }
}

fn cfg_profiled(mode: Mode, skip: bool) -> SystemConfig {
    let mut cfg = cfg_for(mode, skip);
    cfg.obs.profile = true;
    cfg
}

/// With profiling on, the attribution itself must be bit-identical between
/// cycle-skip on and off: every elided span is batch-credited through the
/// same settle path that credits stats, and the counter-event series is
/// sampled only at never-elided cycles. Also re-checks the MECE sums in
/// release builds, where `collect_profile`'s debug_asserts are compiled
/// out.
#[test]
fn profile_bit_identical_skip_on_off() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let on = kernel.run(mode, &cfg_profiled(mode, true), SEED);
            let off = kernel.run(mode, &cfg_profiled(mode, false), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(
                on.telemetry.profile, off.telemetry.profile,
                "cycle attribution diverged with cycle skipping: {label}"
            );
            assert_eq!(
                on.telemetry.counters, off.telemetry.counters,
                "counter-event series diverged with cycle skipping: {label}"
            );
            let p = on.telemetry.profile.as_ref().expect("profile enabled");
            // MECE: all core-cycles land in exactly one bucket or `drained`.
            assert_eq!(
                p.cores.attributed() + p.core_drained,
                p.elapsed * p.num_cores as u64,
                "core attribution does not sum to elapsed core-cycles: {label}"
            );
            // Every DX100 instance attributes each elapsed cycle once.
            if let Some(e) = &p.engines {
                assert!(
                    e.attributed() > 0 && e.attributed() % p.elapsed == 0,
                    "engine attribution is not a whole number of instances: {label}"
                );
            }
            // Channels tick in lockstep; each attributes every tick once.
            for (i, ch) in p.dram.iter().enumerate() {
                assert_eq!(
                    ch.attributed(),
                    p.dram[0].attributed(),
                    "channel {i} attributed a different tick count: {label}"
                );
                assert_eq!(
                    ch.queue_depth.total(),
                    ch.attributed(),
                    "channel {i} queue-depth samples != ticks: {label}"
                );
            }
        }
    }
}

/// Turning the profiler on must not perturb the simulation: `RunStats`
/// (including traces and epoch samples, which `cfg_for` enables) and the
/// checksum stay byte-identical with `--profile` on vs off.
#[test]
fn run_stats_identical_profile_on_off() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let prof = kernel.run(mode, &cfg_profiled(mode, true), SEED);
            let bare = kernel.run(mode, &cfg_for(mode, true), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(prof.checksum, bare.checksum, "checksum diverged: {label}");
            assert_eq!(
                format!("{:?}", prof.stats),
                format!("{:?}", bare.stats),
                "stats/trace/epochs diverged with profiling on: {label}"
            );
        }
    }
}

/// A serial pointer-chase over a cold array: one core, each load dependent
/// on the previous one, so the machine spends most cycles waiting on DRAM.
fn sparse_chase() -> (MemoryImage, Vec<CoreOp>) {
    let mut image = MemoryImage::new();
    // 4 MB, exceeds L2.
    let ops = chase(&mut image, "A", 0x9e3779b97f4a7c15, 1 << 20, 64);
    (image, ops)
}

/// `n` loads over a fresh `len`-element array, each dependent on the
/// previous one, at pseudo-random indices drawn from `seed`.
fn chase(image: &mut MemoryImage, name: &str, seed: u64, len: u64, n: u64) -> Vec<CoreOp> {
    let a = image.alloc(name, DType::U32, len);
    let mut x = seed;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let load = CoreOp::load(a.addr_of((x >> 33) % len), 1);
            if i == 0 {
                load
            } else {
                load.with_dep(1)
            }
        })
        .collect()
}

/// Skipping must actually engage on an idle-heavy run (otherwise the whole
/// optimisation could silently regress to a no-op) while leaving the final
/// cycle count untouched.
#[test]
fn skip_engages_on_idle_heavy_run() {
    let run = |skip: bool| {
        let (image, ops) = sparse_chase();
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cycle_skip = skip;
        let mut sys = System::new(cfg, image);
        sys.push_ops(0, ops);
        let stats = sys.run(&mut NullDriver);
        (stats.cycles, sys.skip_stats())
    };
    let (cycles_on, (skipped, skip_events)) = run(true);
    let (cycles_off, (skipped_off, _)) = run(false);
    assert_eq!(
        cycles_on, cycles_off,
        "skipping changed the final cycle count"
    );
    assert_eq!(
        skipped_off, 0,
        "skip telemetry must stay zero with skipping off"
    );
    assert!(
        skipped > cycles_on / 2,
        "a serial miss chain should skip most cycles: {skipped} of {cycles_on}"
    );
    assert!(skip_events > 0);
}

/// Cores that set flags for each other: the one input to an idle core that
/// another core's tick produces. Core 3 releases core 0 (a waiter earlier
/// in tick order than its setter) and core 0 releases cores 1 and 2 (later
/// in tick order), with spinning and blocking waits. Cores gated while
/// waiting must be credited exactly as per-cycle ticks would be — stats,
/// trace order, epochs and attribution alike.
#[test]
fn core_set_flags_identical_skip_on_off() {
    let run = |skip: bool| {
        let mut image = MemoryImage::new();
        let chase0 = chase(&mut image, "A", 1, 1 << 18, 24);
        let chase2 = chase(&mut image, "B", 2, 1 << 18, 8);
        let chase3 = chase(&mut image, "C", 3, 1 << 18, 16);
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cycle_skip = skip;
        cfg.obs.trace = true;
        cfg.obs.profile = true;
        cfg.obs.epoch_cycles = Some(1000);
        let mut sys = System::new(cfg, image);
        let (fa, fb) = (sys.alloc_flag(), sys.alloc_flag());
        sys.push_wait(0, fa, true);
        sys.push_ops(0, chase0);
        sys.push_ops(0, [CoreOp::SetFlag { flag: fb }]);
        sys.push_wait(1, fb, false);
        sys.push_ops(1, (0..32).map(|_| CoreOp::alu()));
        sys.push_ops(2, chase2);
        sys.push_wait(2, fb, true);
        sys.push_ops(3, chase3);
        sys.push_ops(3, [CoreOp::SetFlag { flag: fa }]);
        let stats = sys.run(&mut NullDriver);
        (format!("{stats:?}"), sys.telemetry())
    };
    let (stats_on, tele_on) = run(true);
    let (stats_off, tele_off) = run(false);
    assert_eq!(stats_on, stats_off, "stats diverged with gating");
    assert_eq!(tele_on.profile, tele_off.profile, "attribution diverged");
    assert_eq!(
        tele_on.counters, tele_off.counters,
        "counter series diverged"
    );
    assert!(tele_on.skipped_cycles > 0, "the chases should elide cycles");
}

/// Final cycle and `RunStats` of `driver` run over `image` on the
/// (traced, epoch-sampled) baseline machine, after a first run with no
/// work has drained it: the cores have found their programs empty, so the
/// whole machine is quiescent when `driver` is first polled.
fn run_on_drained(skip: bool, image: MemoryImage, driver: &mut dyn Driver) -> (u64, String) {
    let mut sys = System::new(cfg_for(Mode::Baseline, skip), image);
    sys.run(&mut NullDriver);
    let stats = sys.run(driver);
    (sys.now(), format!("{stats:?}"))
}

/// The run loop may jump the clock across a quiescent span only while the
/// condition the driver waits on is false. On a drained machine a
/// `NullDriver` run ends one cycle in, as tick by tick; a jump that
/// ignored the rule would run on to the next epoch boundary or DRAM
/// refresh.
#[test]
fn null_driver_on_drained_machine_identical_skip_on_off() {
    let on = run_on_drained(true, MemoryImage::new(), &mut NullDriver);
    let off = run_on_drained(false, MemoryImage::new(), &mut NullDriver);
    assert_eq!(on, off, "final cycle or stats diverged with cycle skipping");
}

/// First poll: waits on cores that are already idle, so the next poll is
/// due one cycle later. That poll gives core 0 a miss chain and finishes.
struct WaitOnIdleCores {
    ops: Vec<CoreOp>,
    waited: bool,
}

impl Driver for WaitOnIdleCores {
    fn poll(&mut self, sys: &mut System) -> DriverStatus {
        if !std::mem::replace(&mut self.waited, true) {
            return DriverStatus::WaitCoresIdle;
        }
        sys.push_ops(0, std::mem::take(&mut self.ops));
        DriverStatus::Done
    }
}

/// A wait that already holds must not let the clock jump: a jump to the
/// next DRAM event would start the driver's work late and shift every
/// cycle after it.
#[test]
fn wait_on_idle_cores_identical_skip_on_off() {
    let run = |skip: bool| {
        let mut image = MemoryImage::new();
        let ops = chase(&mut image, "A", 5, 1 << 18, 16);
        let mut driver = WaitOnIdleCores { ops, waited: false };
        run_on_drained(skip, image, &mut driver)
    };
    assert_eq!(
        run(true),
        run(false),
        "final cycle or stats diverged with cycle skipping"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `DelayQueue::next_ready_at` is tight: it names exactly the earliest
    /// ready cycle (nothing pops strictly before it, something pops at it),
    /// and equal-cycle items drain in FIFO order.
    #[test]
    fn delay_queue_next_ready_at_is_tight(delays in proptest::collection::vec(0u64..100, 1..50)) {
        let mut q = DelayQueue::new();
        let mut remaining: Vec<(u64, usize)> =
            delays.iter().enumerate().map(|(i, d)| (*d, i)).collect();
        for &(d, i) in &remaining {
            q.push_at(d, i);
        }
        remaining.sort(); // pop order: (ready cycle, insertion sequence)
        for &(ready, idx) in &remaining {
            let t = q.next_ready_at();
            prop_assert_eq!(t, Some(ready), "next_ready_at must be the min ready cycle");
            if ready > 0 {
                prop_assert!(q.pop_ready(ready - 1).is_none(), "popped before ready");
            }
            prop_assert_eq!(q.pop_ready(ready), Some(idx), "FIFO order violated");
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.next_ready_at(), None);
    }

    /// The DRAM scheduler's quiescence contract, phrased exactly as the
    /// system skip layer uses it: whenever `next_event(now)` names a future
    /// tick `t`, (a) ticking each cycle of the gap one-by-one and (b)
    /// jumping over it with `credit_idle_ticks` must leave bit-identical
    /// statistics — read right at `t`, before the next real tick, as well
    /// as at the end, and including the cycle-attribution profile, whose
    /// elided spans are batch-credited — and produce the same response
    /// schedule for the rest of the run; and while approaching `t`,
    /// `next_event` never moves the event later (no missed wakeups). The
    /// profile must also stay MECE: every channel attributes exactly
    /// `ticks` ticks, no matter how the random request stream carves the
    /// run into spans.
    #[test]
    fn dram_gap_skip_equals_tick_by_tick(
        reqs in proptest::collection::vec((0u64..4096, any::<bool>()), 1usize..120),
        rate in 1usize..4,
    ) {
        // (response id, tick) schedule, (tick, stats) read where each gap
        // ends, final stats and profiles, driving with or without gap
        // skipping. Tick-by-tick, stats are read at the ticks in `gap_ends`
        // (where the skipping run's gaps ended).
        type Driven =
            Result<(Vec<(u64, u64)>, Vec<(u64, String)>, String, String, u64), TestCaseError>;
        let drive = |skip: bool, gap_ends: &[u64]| -> Driven {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
            dram.enable_profile();
            let mut pending: VecDeque<(u64, LineAddr, bool)> = reqs
                .iter()
                .enumerate()
                .map(|(i, (l, w))| (i as u64, LineAddr(*l), *w))
                .collect();
            let mut schedule = Vec::new();
            let mut gap_stats = Vec::new();
            let mut skipped = 0u64;
            let mut now = 0u64;
            while schedule.len() < reqs.len() {
                for _ in 0..rate {
                    let Some(&(id, line, w)) = pending.front() else { break };
                    let req = if w { MemRequest::write(id, line) } else { MemRequest::read(id, line) };
                    if dram.try_enqueue(req, now) {
                        pending.pop_front();
                    } else {
                        break;
                    }
                }
                // Only skip once arrivals stop, mirroring the system layer
                // (which never skips while external input is due).
                if skip && pending.is_empty() {
                    if let Some(t) = dram.next_event(now) {
                        if t > now {
                            // No missed wakeups while approaching `t`.
                            for probe in [now + 1, (now + t) / 2, t - 1] {
                                if probe > now && probe < t {
                                    let e = dram.next_event(probe);
                                    prop_assert!(
                                        e.is_some_and(|x| x <= t),
                                        "event receded: next_event({probe}) = {e:?} > {t}"
                                    );
                                }
                            }
                            dram.credit_idle_ticks(now, t - now);
                            skipped += t - now;
                            now = t;
                            gap_stats.push((now, format!("{:?}", dram.stats())));
                        }
                    }
                }
                if !skip && gap_ends.get(gap_stats.len()) == Some(&now) {
                    gap_stats.push((now, format!("{:?}", dram.stats())));
                }
                dram.tick(now);
                while let Some(resp) = dram.pop_response() {
                    schedule.push((resp.id, now));
                }
                now += 1;
                prop_assert!(now < 4_000_000, "drain timeout");
            }
            let ticks = dram.stats().ticks;
            let profiles = dram.channel_profiles();
            for (i, p) in profiles.iter().enumerate() {
                let p = p.expect("profile enabled");
                prop_assert_eq!(
                    p.attributed(), ticks,
                    "channel {} attribution is not MECE (skip={})", i, skip
                );
                prop_assert_eq!(
                    p.queue_depth.total(), ticks,
                    "channel {} queue-depth samples != ticks (skip={})", i, skip
                );
            }
            Ok((
                schedule,
                gap_stats,
                format!("{:?}", dram.stats()),
                format!("{:?}", profiles),
                skipped,
            ))
        };
        let (sched_skip, gaps_skip, stats_skip, prof_skip, skipped) = drive(true, &[])?;
        let gap_ends: Vec<u64> = gaps_skip.iter().map(|&(t, _)| t).collect();
        let (sched_tick, gaps_tick, stats_tick, prof_tick, _) = drive(false, &gap_ends)?;
        prop_assert_eq!(sched_skip, sched_tick, "response schedule diverged");
        prop_assert_eq!(gaps_skip, gaps_tick, "DRAM stats read right after a credited gap diverged");
        prop_assert_eq!(stats_skip, stats_tick, "DRAM stats diverged (skipped {} ticks)", skipped);
        prop_assert_eq!(prof_skip, prof_tick, "DRAM attribution diverged (skipped {} ticks)", skipped);
    }
}
