//! Shared workload machinery: phased drivers, tile-job pipelining, core-side
//! scratchpad produce/consume op generation, and verification helpers.

use dx100_common::flags::FlagId;
use dx100_common::CoreId;
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_cpu::CoreOp;
use dx100_sim::{Driver, DriverStatus, System};

/// A one-shot setup action.
pub type SetupFn = Box<dyn FnOnce(&mut System)>;

/// One step of a [`PhasedDriver`].
pub enum Phase {
    /// Run a one-shot action (install op streams, send instructions, ...).
    Setup(Option<SetupFn>),
    /// Wait until every core has drained its program.
    WaitCoresIdle,
    /// Begin the measured region of interest.
    RoiBegin,
    /// End the measured region of interest.
    RoiEnd,
}

impl Phase {
    /// Convenience constructor for [`Phase::Setup`].
    pub fn setup(f: impl FnOnce(&mut System) + 'static) -> Phase {
        Phase::Setup(Some(Box::new(f)))
    }
}

/// A driver that walks a fixed list of phases. This is the shape of every
/// workload's "software": setup, kick off work, wait, measure, repeat.
pub struct PhasedDriver {
    phases: Vec<Phase>,
    idx: usize,
}

impl PhasedDriver {
    /// Creates a driver over `phases`.
    pub fn new(phases: Vec<Phase>) -> Self {
        PhasedDriver { phases, idx: 0 }
    }
}

impl Driver for PhasedDriver {
    fn poll(&mut self, sys: &mut System) -> DriverStatus {
        while self.idx < self.phases.len() {
            match &mut self.phases[self.idx] {
                Phase::Setup(f) => {
                    if let Some(f) = f.take() {
                        f(sys);
                    }
                    self.idx += 1;
                }
                Phase::WaitCoresIdle => {
                    if sys.cores_idle() {
                        self.idx += 1;
                    } else {
                        return DriverStatus::WaitCoresIdle;
                    }
                }
                Phase::RoiBegin => {
                    sys.roi_begin();
                    self.idx += 1;
                }
                Phase::RoiEnd => {
                    sys.roi_end();
                    self.idx += 1;
                }
            }
        }
        DriverStatus::Done
    }
}

/// One tile-granular unit of DX100 work issued from a core.
#[derive(Debug, Clone, Default)]
pub struct TileJob {
    /// Issuing core.
    pub core: CoreId,
    /// Core-side ops to run before anything is sent (produce phase: e.g.
    /// computing a destination-index tile).
    pub pre_ops: Vec<CoreOp>,
    /// Host tile writes applied (functionally) after `pre_ops`' timing.
    pub tile_writes: Vec<(TileId, Vec<u64>)>,
    /// Register writes preceding the instructions.
    pub reg_writes: Vec<(RegId, u64)>,
    /// Instructions, issued in order; the last one carries the completion
    /// flag the core waits on.
    pub instrs: Vec<Instruction>,
    /// Core-side ops to run after the job completes (consume phase).
    pub post_ops: Vec<CoreOp>,
}

/// Installs per-core job sequences with double buffering: each core sends
/// job *k+1*'s instructions before waiting on job *k*, so the accelerator
/// always has a tile in flight. Jobs on one core must therefore alternate
/// between two disjoint tile groups.
///
/// Returns the completion flags, one per job, in input order.
pub fn install_jobs(sys: &mut System, jobs: &[TileJob]) -> Vec<FlagId> {
    let flags: Vec<FlagId> = jobs.iter().map(|_| sys.alloc_flag()).collect();
    let cores: Vec<CoreId> = {
        let mut c: Vec<CoreId> = jobs.iter().map(|j| j.core).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    for core in cores {
        let idxs: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.core == core)
            .map(|(i, _)| i)
            .collect();
        // Send job 0 immediately; then for each k: send k+1, wait k, post k.
        // Lookahead is skipped when the next job's *host tile writes* would
        // touch tiles the current job's instructions still use — those
        // writes bypass the controller's scoreboard, so ordering must come
        // from the core program (wait first, then send).
        if let Some(&first) = idxs.first() {
            send_job(sys, &jobs[first], flags[first]);
        }
        let mut sent = vec![false; idxs.len()];
        if !sent.is_empty() {
            sent[0] = true;
        }
        for w in 0..idxs.len() {
            let cur = idxs[w];
            if w + 1 < idxs.len() {
                let next = idxs[w + 1];
                if lookahead_safe(&jobs[cur], &jobs[next]) {
                    send_job(sys, &jobs[next], flags[next]);
                    sent[w + 1] = true;
                }
            }
            sys.push_wait(core, flags[cur], false);
            if w + 1 < idxs.len() && !sent[w + 1] {
                let next = idxs[w + 1];
                send_job(sys, &jobs[next], flags[next]);
                sent[w + 1] = true;
            }
            if !jobs[cur].post_ops.is_empty() {
                sys.push_ops(core, jobs[cur].post_ops.clone());
            }
        }
    }
    flags
}

/// Whether `next` may be sent before waiting on `cur`: its host tile
/// writes must not touch any tile `cur`'s instructions use.
fn lookahead_safe(cur: &TileJob, next: &TileJob) -> bool {
    if next.tile_writes.is_empty() {
        return true;
    }
    let used: Vec<TileId> = cur
        .instrs
        .iter()
        .flat_map(|i| {
            i.dest_tiles()
                .into_iter()
                .chain(i.source_tiles())
                .collect::<Vec<_>>()
        })
        .collect();
    next.tile_writes.iter().all(|(t, _)| !used.contains(t))
}

fn send_job(sys: &mut System, job: &TileJob, flag: FlagId) {
    if !job.pre_ops.is_empty() {
        sys.push_ops(job.core, job.pre_ops.clone());
    }
    for (t, data) in &job.tile_writes {
        sys.send_tile_write(job.core, *t, data.clone());
    }
    for (r, v) in &job.reg_writes {
        sys.send_reg_write(job.core, *r, *v);
    }
    for (k, instr) in job.instrs.iter().enumerate() {
        let f = (k == job.instrs.len() - 1).then_some(flag);
        sys.send_instruction(job.core, *instr, f);
    }
}

/// Core ops that consume a gathered tile from the scratchpad region:
/// one load per element (lines are cached and prefetched, so most hit)
/// plus `alu_per_elem` arithmetic µops per element.
pub fn consume_tile_ops(
    sys: &System,
    core: CoreId,
    tile: TileId,
    n: usize,
    alu_per_elem: usize,
    stream: u32,
) -> Vec<CoreOp> {
    let mut ops = Vec::with_capacity(n * (1 + alu_per_elem));
    for i in 0..n {
        ops.push(CoreOp::load(sys.spd_elem_addr(core, tile, i), stream));
        for _ in 0..alu_per_elem {
            ops.push(CoreOp::alu().with_dep(1));
        }
    }
    ops
}

/// Core ops that produce a tile into the scratchpad region (host-computed
/// values written tile-wise): `alu_per_elem` µops then a store per element.
/// The functional data must be written separately via
/// [`dx100_core::Dx100Engine::write_tile`].
pub fn produce_tile_ops(
    sys: &System,
    core: CoreId,
    tile: TileId,
    n: usize,
    alu_per_elem: usize,
    stream: u32,
) -> Vec<CoreOp> {
    let mut ops = Vec::with_capacity(n * (1 + alu_per_elem));
    for i in 0..n {
        for _ in 0..alu_per_elem {
            ops.push(CoreOp::alu());
        }
        ops.push(CoreOp::store(sys.spd_elem_addr(core, tile, i), stream));
    }
    ops
}

/// Splits `n` items into per-core contiguous chunks.
pub fn chunks(n: usize, cores: usize) -> Vec<(usize, usize)> {
    let per = n.div_ceil(cores);
    (0..cores)
        .map(|c| (c * per, ((c + 1) * per).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// FNV-1a checksum of a u64 slice (output verification).
pub fn checksum(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Quantizes an f64 for checksumming across reordered FP accumulation
/// (matches to ~6 significant digits).
pub fn quantize_f64(v: f64) -> u64 {
    if v == 0.0 {
        return 0;
    }
    let scaled = (v * 1e6).round();
    scaled.to_bits()
}

/// Asserts two f64 slices match within a relative tolerance.
///
/// # Panics
/// Panics with a diagnostic on mismatch.
pub fn assert_f64_close(got: &[f64], want: &[f64], rel: f64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        assert!(
            (g - w).abs() <= rel * scale,
            "element {i}: got {g}, want {w}"
        );
    }
}

/// Four-tile working set for job number `k`: eight rotating sets cover the
/// 32-tile scratchpad, so a core's consecutive jobs (k and k+4 under 4-core
/// round-robin) land on different sets and double-buffer cleanly. Reuse
/// across in-flight jobs is *safe* regardless — the controller's scoreboard
/// serializes conflicting destinations — it only costs parallelism.
pub fn tile_set4(k: usize) -> [TileId; 4] {
    let s = k % 8;
    std::array::from_fn(|i| TileId::new((s * 4 + i) as u8))
}

/// Eight-tile working set for job number `k` (four rotating sets), for
/// kernels whose per-tile pipeline needs more intermediate tiles (range
/// fusion, multi-level indirection).
pub fn tile_set8(k: usize) -> [TileId; 8] {
    let s = k % 4;
    std::array::from_fn(|i| TileId::new((s * 8 + i) as u8))
}

/// Submitting core for a `tile_set8` job: the 8-tile sets rotate mod 4,
/// so jobs `k` and `k + 4` share tiles. Host tile writes bypass the
/// engine's scoreboard, so tile reuse is only safe when ordered by one
/// core's program — map same-set jobs to the same core (at most 4
/// submitters even on 8-core machines; submission is never the
/// bottleneck).
pub fn set8_core(k: usize, cores: usize) -> CoreId {
    k % cores.min(4)
}

/// Registers a core may use without clashing with other cores (a private
/// bank of 8 for up to 8 cores — register writes are MMIO actions that
/// interleave across cores, so banks must never be shared).
pub fn core_regs(core: CoreId) -> [RegId; 8] {
    let base = (core % 8) * 8;
    std::array::from_fn(|k| RegId::new((base + k) as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set8_jobs_sharing_tiles_share_a_core() {
        // tile_set8 rotates mod 4: jobs k and k+4 share tiles, so they
        // must map to the same submitting core at every supported core
        // count (host tile writes bypass the engine scoreboard).
        for cores in [1, 2, 4, 8] {
            for k in 0..32 {
                assert_eq!(
                    set8_core(k, cores),
                    set8_core(k + 4, cores),
                    "jobs {k} and {} share tile_set8 but not a core",
                    k + 4
                );
                assert!(set8_core(k, cores) < cores);
            }
        }
    }

    #[test]
    fn core_regs_are_private_per_core() {
        for a in 0..8usize {
            for b in (a + 1)..8 {
                let (ra, rb) = (core_regs(a), core_regs(b));
                assert!(
                    ra.iter().all(|r| !rb.contains(r)),
                    "cores {a} and {b} share registers"
                );
            }
        }
    }

    #[test]
    fn chunks_cover_everything() {
        assert_eq!(chunks(10, 4), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(chunks(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(chunks(2, 4), vec![(0, 1), (1, 2)]);
        let total: usize = chunks(1001, 4).iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 1001);
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = checksum([1, 2, 3]);
        let b = checksum([1, 2, 3]);
        let c = checksum([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tile_sets_rotate_without_overlap() {
        // Consecutive jobs of one core (k, k+4) use disjoint 4-tile sets.
        for k in 0..8 {
            let a = tile_set4(k);
            let b = tile_set4(k + 4);
            for t in a {
                assert!(!b.contains(&t), "job {k}: tile {t} shared");
            }
        }
        // The eight sets cover all 32 tiles.
        let mut seen = std::collections::HashSet::new();
        for k in 0..8 {
            seen.extend(tile_set4(k).map(|t| t.index()));
        }
        assert_eq!(seen.len(), 32);
        assert_eq!(tile_set8(0)[7].index(), 7);
        assert_eq!(tile_set8(3)[0].index(), 24);
    }

    #[test]
    fn quantize_tolerates_tiny_fp_noise() {
        assert_eq!(quantize_f64(1.0000000001), quantize_f64(1.0));
        assert_ne!(quantize_f64(1.01), quantize_f64(1.0));
    }
}
