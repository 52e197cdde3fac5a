//! Layers driven alone through their public APIs under fixed synthetic
//! loads: the component tick harness and the dataset generators.
//!
//! Predictions recorded with the harness (NOTES.md has the table):
//! `core.tick_ns` moves `sweep_dx100` only; `cpu.tick_ns` and
//! `mem.tick_ns` mostly move `sweep_baseline`; `dram.tick_ns` moves both;
//! `sim.step_ns.idle` and `sim.step_ns.busy` bracket the stepping loop.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use dx100_common::flags::FlagBoard;
use dx100_common::{Cycle, DType, LineAddr, ReqId};
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_core::{Dx100Config, Dx100Engine, MemPorts, MemoryImage};
use dx100_cpu::{Core, CoreConfig, CoreOp, VecStream};
use dx100_dram::{DramConfig, DramSystem, MemRequest};
use dx100_mem::{Access, MemoryHierarchy, Requester};
use dx100_sim::driver::NullDriver;
use dx100_sim::{System, SystemConfig};
use dx100_workloads::datasets;
use dx100_workloads::micro::allhit::{run_allhit, MicroKind};
use dx100_workloads::Scale;

use crate::stats::median;
use crate::Metrics;

/// Repeats per harness measurement; the metric is their median.
const REPEATS: usize = 3;

/// A small deterministic generator for synthetic addresses.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Median over [`REPEATS`] of `f`'s (host ns, ticks) as ns per tick.
fn ns_per_tick(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let ticks = black_box(f());
            t0.elapsed().as_nanos() as f64 / ticks.max(1) as f64
        })
        .collect();
    median(&samples).expect("REPEATS > 0")
}

/// `DramSystem` with its request buffers kept full of random reads.
fn dram_ticks() -> u64 {
    const TICKS: u64 = 400_000;
    let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
    let mut rng = Lcg(1);
    let mut id: ReqId = 0;
    for now in 0..TICKS {
        while dram.try_enqueue(MemRequest::read(id, LineAddr(rng.next() % (1 << 24))), now) {
            id += 1;
        }
        dram.tick(now);
        while dram.pop_response().is_some() {}
    }
    TICKS
}

/// `MemoryHierarchy` with every core keeping 8 loads in flight, one in 8
/// to a random line of 1 GiB (an LLC miss, filled after 100 cycles), the
/// rest to 64 hot lines per core (L1 hits).
fn mem_ticks() -> u64 {
    const TICKS: Cycle = 100_000;
    const DRAM_LATENCY: Cycle = 100;
    let mut h = MemoryHierarchy::new(SystemConfig::paper_baseline().hierarchy);
    let cores = h.config().cores;
    let mut outstanding = vec![0usize; cores];
    let mut fills: VecDeque<(Cycle, LineAddr)> = VecDeque::new();
    let mut to_dram = Vec::new();
    let mut rng = Lcg(2);
    let mut id: ReqId = 0;
    for now in 0..TICKS {
        while fills.front().is_some_and(|(t, _)| *t <= now) {
            let (_, line) = fills.pop_front().expect("front checked");
            h.dram_fill(line, now, &mut to_dram);
        }
        for (core, n) in outstanding.iter_mut().enumerate() {
            if *n < 8 {
                let r = rng.next();
                let line = if r.is_multiple_of(8) {
                    LineAddr((1 << 24) + r % (1 << 24))
                } else {
                    LineAddr(core as u64 * 64 + r % 64)
                };
                h.core_access(
                    Access::load(id, line, core as u32, Requester::Core(core)),
                    now,
                );
                id += 1;
                *n += 1;
            }
        }
        h.tick(now, &mut to_dram);
        for b in to_dram.drain(..) {
            if !b.is_write {
                fills.push_back((now + DRAM_LATENCY, b.line));
            }
        }
        while let Some(resp) = h.pop_core_response() {
            outstanding[resp.core] -= 1;
        }
    }
    TICKS
}

/// One `Core` running loads and dependent ALU ops against a memory that
/// answers on the next cycle.
fn cpu_ticks() -> u64 {
    const OPS: u64 = 200_000;
    let mut rng = Lcg(3);
    let ops: Vec<CoreOp> = (0..OPS)
        .map(|i| match i % 4 {
            0 => CoreOp::load((rng.next() % (1 << 20)) * 8, 1),
            1 => CoreOp::alu().with_dep(1),
            2 => CoreOp::alu(),
            _ => CoreOp::store((rng.next() % (1 << 20)) * 8, 2),
        })
        .collect();
    let mut core = Core::new(0, CoreConfig::paper(), VecStream::new(ops));
    let mut flags = FlagBoard::new();
    let mut due: Vec<u64> = Vec::new();
    let mut issued: Vec<u64> = Vec::new();
    let mut now: Cycle = 0;
    while !(core.is_done() && due.is_empty()) {
        for seq in due.drain(..) {
            core.mem_complete(seq, now);
        }
        core.tick(now, &mut flags, &mut |iss| issued.push(iss.seq));
        std::mem::swap(&mut due, &mut issued);
        now += 1;
        assert!(now < OPS * 100, "core harness did not drain");
    }
    now
}

/// Memory ports answering every request after a fixed latency.
struct FixedPorts {
    latency: Cycle,
    completions: VecDeque<(Cycle, ReqId)>,
}

impl MemPorts for FixedPorts {
    fn snoop(&self, _line: LineAddr) -> bool {
        false
    }

    fn invalidate(&mut self, _line: LineAddr) -> bool {
        false
    }

    fn llc_request(&mut self, id: ReqId, _line: LineAddr, _is_write: bool, now: Cycle) {
        self.completions.push_back((now + self.latency, id));
    }

    fn dram_try_request(
        &mut self,
        id: ReqId,
        _line: LineAddr,
        _is_write: bool,
        now: Cycle,
    ) -> bool {
        self.completions.push_back((now + self.latency, id));
        true
    }
}

/// `Dx100Engine` gathering a full tile (stream-load 16K indices, then an
/// indirect load through them) four times against 100-cycle ports.
fn engine_ticks() -> u64 {
    const ROUNDS: usize = 4;
    let cfg = Dx100Config::paper();
    let n = cfg.tile_elems as u64;
    let mut mem = MemoryImage::new();
    let a = mem.alloc("A", DType::U32, 1 << 22);
    let b = mem.alloc("B", DType::U32, n);
    let mut rng = Lcg(4);
    for i in 0..n {
        mem.write_elem(b, i, rng.next() % (1 << 22));
    }
    let mut engine = Dx100Engine::new(cfg, &DramConfig::ddr4_3200_2ch());
    engine.preload_ptes(0, mem.high_water());
    let mut ports = FixedPorts {
        latency: 100,
        completions: VecDeque::new(),
    };
    let (r0, r1, r2) = (RegId::new(0), RegId::new(1), RegId::new(2));
    let (t0, t1) = (TileId::new(0), TileId::new(1));
    let mut now: Cycle = 0;
    for _ in 0..ROUNDS {
        engine.write_reg(r0, 0);
        engine.write_reg(r1, 1);
        engine.write_reg(r2, n);
        for instr in [
            Instruction::sld(DType::U32, b.base(), t0, r0, r1, r2),
            Instruction::ild(DType::U32, a.base(), t1, t0),
        ] {
            engine.push_instruction(instr, None).expect("valid gather");
        }
        loop {
            while ports.completions.front().is_some_and(|(t, _)| *t <= now) {
                let (_, id) = ports.completions.pop_front().expect("front checked");
                engine.mem_response(id);
            }
            engine.tick(now, &mut mem, &mut ports);
            now += 1;
            assert!(engine.error().is_none(), "engine halted");
            if engine.is_idle() {
                break;
            }
            assert!(now < 50_000_000, "engine harness did not drain");
        }
    }
    now
}

/// The `step_bench` pointer chase: one core, 256 dependent cache-missing
/// loads, so nearly every cycle waits on DRAM.
fn idle_step_cycles() -> u64 {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, 1 << 20);
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let ops: Vec<CoreOp> = (0..256)
        .map(|i| {
            let load = CoreOp::load(a.addr_of(rng.next() % (1 << 20)), 1);
            if i == 0 {
                load
            } else {
                load.with_dep(1)
            }
        })
        .collect();
    let mut sys = System::new(SystemConfig::paper_baseline(), image);
    sys.push_ops(0, ops);
    sys.run(&mut NullDriver).cycles
}

/// The `step_bench` all-hit gather with the DX100 engine streaming.
fn busy_step_cycles() -> u64 {
    run_allhit(MicroKind::GatherFull, true, &SystemConfig::paper_dx100(), 1).cycles
}

/// Host nanoseconds per tick of each component, and per simulated cycle of
/// `System::run` on an idle and a busy shape.
pub fn component_metrics(m: &mut Metrics) {
    m.num("dram.tick_ns", ns_per_tick(dram_ticks), "ns");
    m.num("mem.tick_ns", ns_per_tick(mem_ticks), "ns");
    m.num("cpu.tick_ns", ns_per_tick(cpu_ticks), "ns");
    m.num("core.tick_ns", ns_per_tick(engine_ticks), "ns");
    m.num("sim.step_ns.idle", ns_per_tick(idle_step_cycles), "ns");
    m.num("sim.step_ns.busy", ns_per_tick(busy_step_cycles), "ns");
}

/// Milliseconds the public `datasets` generators take to build one sweep's
/// datasets at `scale`: the calls the kernels make, at their sizes. `is`
/// and `pro` draw their keys inline and have no public generator.
pub fn dataset_metrics(scale: f64, seed: u64, m: &mut Metrics) {
    let s = Scale(scale);
    let build = || {
        let graph_bfs = datasets::uniform_graph(s.apply(1 << 18, 1 << 9), 15, seed);
        let graph_bc = datasets::uniform_graph(s.apply(1 << 17, 1 << 9), 15, seed);
        let graph_pr = datasets::uniform_graph(s.apply(1 << 17, 1 << 9), 15, seed);
        let matrix = datasets::sparse_matrix(s.apply(1 << 17, 1 << 8), 16, seed);
        let tuples = datasets::join_tuples(s.apply(1 << 20, 1 << 10), u64::MAX >> 1, seed);
        let ume = s.apply(1 << 19, 1 << 10);
        let mut maps = 0;
        for frac in [0.042, 0.08] {
            let dist = (ume as f64 * frac) as usize;
            // gzz/gzp: one map; gzzi/gzpi: a corner map (~n/2) and a point map.
            maps += datasets::ume_index_map(ume, dist, seed).len();
            maps += datasets::ume_index_map(ume / 2, dist, seed ^ 1).len();
            maps += datasets::ume_index_map(ume, dist, seed ^ 2).len();
        }
        let pattern =
            datasets::xrage_pattern(s.apply(1 << 20, 1 << 10), s.apply(1 << 22, 1 << 12), seed);
        black_box((
            graph_bfs.edges() + graph_bc.edges() + graph_pr.edges(),
            matrix.nnz(),
            tuples.len(),
            maps,
            pattern.len(),
        ));
    };
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            build();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.num(
        "workloads.dataset_ms",
        median(&samples).expect("REPEATS > 0"),
        "ms",
    );
}
