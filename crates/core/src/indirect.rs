//! The Indirect Access unit (paper Section 3.2): Row Table, Word Table,
//! and the request generator that reorders, coalesces, and interleaves
//! bulk indirect accesses.
//!
//! * **Row Table** — one slice per DRAM bank (channel × rank × bank-group ×
//!   bank). A slice holds up to 64 row entries; each row entry holds up to 8
//!   column (cache-line) entries. Filling a tile populates the table; the
//!   request generator then drains each row's columns consecutively, so the
//!   DRAM controller sees long runs of same-row accesses.
//! * **Word Table** — per column entry, the list of tile elements (words)
//!   that live in that line, in insertion (= iteration) order. One line
//!   request serves all of them: coalescing.
//! * **Request generator** — walks slices in channel-fastest order so
//!   consecutive requests alternate DRAM channels and bank groups.
//!
//! Operation follows the paper's three stages: *fill* (translate, snoop the
//! directory for the H bit, insert into the tables), *request* (issue one
//! line access per column entry, directly to DRAM unless the H bit routes it
//! to the LLC), and *response* (walk the word list; extract words for ILD,
//! merge and write back for IST/IRMW).

use std::collections::VecDeque;

use dx100_common::{value, Addr, AluOp, Cycle, DType, FastMap, LineAddr, ReqId};
use dx100_dram::{AddrMap, Organization};

use crate::config::Dx100Config;
use crate::controller::DispatchedInstr;
use crate::engine::{IdAlloc, UnitTag};
use crate::isa::{Instruction, TileId};
use crate::memimg::MemoryImage;
use crate::ports::MemPorts;
use crate::scratchpad::Scratchpad;
use crate::stats::Dx100Stats;
use crate::tlb::Tlb;

/// What an indirect job does with each word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndKind {
    Load { td: TileId },
    Store { ts2: TileId },
    Rmw { op: AluOp, ts2: TileId },
}

/// One word in the Word Table: tile iteration number and its byte address.
#[derive(Debug, Clone, Copy)]
struct Word {
    i: usize,
    addr: Addr,
}

/// A column entry: one cache line plus its linked word list.
#[derive(Clone, Debug)]
struct ColEntry {
    /// Unique id, assigned in creation order. Guards queue entries that
    /// name a column by slot against the slot being reused.
    id: u64,
    job: u64,
    line: LineAddr,
    /// Slice and row-entry slot holding this column.
    slice: u32,
    row_slot: u32,
    /// H bit: line was valid in the cache hierarchy at fill time.
    h: bool,
    sent: bool,
    sendable: bool,
    words: Vec<Word>,
}

/// A row entry: up to `cols_per_row_entry` columns of one DRAM row (its
/// row number is kept beside the slot in [`Slice::rows`]).
#[derive(Clone, Debug, Default)]
struct RowEntry {
    /// Column slots, in insertion order.
    cols: Vec<u32>,
    /// Columns here that are sendable and not yet sent.
    sendable: u32,
}

/// One Row Table slice (one DRAM bank).
#[derive(Clone, Debug, Default)]
struct Slice {
    /// `(DRAM row, row-entry slot)`, in allocation order (the issue
    /// priority order). The row numbers sit inline so the per-word row
    /// search scans one small array.
    rows: Vec<(u64, u32)>,
    /// The row currently being drained, so its columns issue consecutively.
    active_row: Option<u64>,
    /// Columns in this slice that are sendable and not yet sent, so the
    /// request generator passes an empty slice in O(1).
    sendable: usize,
    /// Column entries in this slice.
    cols: usize,
}

/// The Row Table's view of one line with open column entries.
#[derive(Clone, Copy, Debug)]
struct LineOwner {
    /// The job whose columns hold the line; other jobs wait for them.
    job: u64,
    /// Open column entries for the line.
    cols: usize,
    /// With coalescing on, the line's one valid, unsent column: the only
    /// column a further word for the line can coalesce into.
    unsent: Option<u32>,
}

#[derive(Clone, Debug)]
struct IndirectJob {
    d: DispatchedInstr,
    kind: IndKind,
    dtype: DType,
    base: Addr,
    ts1: TileId,
    tc: Option<TileId>,
    n: Option<usize>,
    next: usize,
    fill_done: bool,
    /// ILD: elements not yet produced/skipped.
    pending_elems: usize,
    /// Columns created and not yet fully processed.
    open_cols: usize,
    /// IST/IRMW: write requests issued and not yet acknowledged.
    writes_outstanding: usize,
    /// IST duplicate-index ordering: last applied iteration per address.
    last_applied: FastMap<Addr, usize>,
    /// This job's column entries per slice (the capacity-pressure test).
    cols_in_slice: Vec<u32>,
    /// Slots of this job's columns not yet marked sendable.
    unsendable: Vec<u32>,
}

impl IndirectJob {
    fn done(&self) -> bool {
        self.fill_done
            && self.open_cols == 0
            && self.writes_outstanding == 0
            && (!matches!(self.kind, IndKind::Load { .. }) || self.pending_elems == 0)
    }
}

/// The timed Indirect Access unit.
///
/// Row and column entries live in slot arrays (`row_slots`, `col_slots`)
/// so queues and in-flight requests name a column by slot instead of
/// searching for it; the order that decides issue priority is kept
/// separately, in [`Slice::rows`] and [`RowEntry::cols`]. Counters of
/// sendable-but-unsent columns (per row entry, per slice, per unit) let the
/// request generator and the quiescence probe skip empty slices without
/// walking their entries; [`IndirectUnit::check_index`] re-derives all of
/// them from the tables in debug builds.
#[derive(Clone, Debug)]
pub struct IndirectUnit {
    cfg: Dx100Config,
    org: Organization,
    map: AddrMap,
    jobs: VecDeque<IndirectJob>,
    slices: Vec<Slice>,
    /// Row-entry slots; free ones are listed in `free_rows`.
    row_slots: Vec<RowEntry>,
    free_rows: Vec<u32>,
    /// Column slots (`None` = free, listed in `free_cols`).
    col_slots: Vec<Option<ColEntry>>,
    free_cols: Vec<u32>,
    /// Slice visit order for interleaving (channel fastest, then bank group).
    slice_order: Vec<usize>,
    rr: usize,
    /// Insertion-order issue queue used when reordering is disabled:
    /// (column slot, column id).
    fifo: VecDeque<(u32, u64)>,
    next_col_id: u64,
    /// Read requests in flight: id → column slot.
    outstanding: FastMap<ReqId, u32>,
    /// Write requests in flight: id → job handle.
    outstanding_writes: FastMap<ReqId, u64>,
    /// Write-backs waiting for request-buffer space: (line, h, job).
    pending_writes: VecDeque<(LineAddr, bool, u64)>,
    /// Line responses waiting for the Word Modifier.
    resp_queue: VecDeque<ReqId>,
    fill_stall_until: Cycle,
    /// Lines with open (unprocessed) column entries, and the owning job:
    /// a second job touching the same line stalls until the first job's
    /// column completes, preserving cross-instruction program order on
    /// same-address accesses.
    line_owners: FastMap<LineAddr, LineOwner>,
    /// Running count of column entries across all slices, so the per-cycle
    /// queue-depth probes ([`IndirectUnit::buffered_columns`]) are O(1)
    /// instead of walking the whole Row Table.
    buffered_cols: usize,
    /// Sendable, unsent columns across all slices.
    sendable_cols: usize,
    /// Slices whose `active_row` is set.
    active_slices: usize,
}

impl IndirectUnit {
    /// Creates the unit for a given DRAM organization/mapping (the Row Table
    /// geometry mirrors the physical bank layout).
    pub fn new(cfg: Dx100Config, org: Organization, map: AddrMap) -> Self {
        let num_slices = org.channels * org.banks_per_channel();
        // Channel varies fastest, then bank group, then bank: consecutive
        // requests interleave channels and bank groups.
        let mut slice_order = Vec::with_capacity(num_slices);
        for rank in 0..org.ranks {
            for bank in 0..org.banks_per_group {
                for bg in 0..org.bank_groups {
                    for ch in 0..org.channels {
                        let within = org.bank_index(rank, bg, bank);
                        slice_order.push(ch * org.banks_per_channel() + within);
                    }
                }
            }
        }
        IndirectUnit {
            cfg,
            org,
            map,
            jobs: VecDeque::new(),
            slices: (0..num_slices).map(|_| Slice::default()).collect(),
            row_slots: Vec::new(),
            free_rows: Vec::new(),
            col_slots: Vec::new(),
            free_cols: Vec::new(),
            slice_order,
            rr: 0,
            fifo: VecDeque::new(),
            next_col_id: 0,
            outstanding: FastMap::default(),
            outstanding_writes: FastMap::default(),
            pending_writes: VecDeque::new(),
            resp_queue: VecDeque::new(),
            fill_stall_until: 0,
            line_owners: FastMap::default(),
            buffered_cols: 0,
            sendable_cols: 0,
            active_slices: 0,
        }
    }

    /// Accepts a dispatched ILD/IST/IRMW.
    pub fn enqueue(&mut self, d: DispatchedInstr) {
        let (kind, dtype, base, ts1, tc) = match d.instr {
            Instruction::Ild {
                dtype,
                base,
                td,
                ts1,
                tc,
            } => (IndKind::Load { td }, dtype, base, ts1, tc),
            Instruction::Ist {
                dtype,
                base,
                ts1,
                ts2,
                tc,
            } => (IndKind::Store { ts2 }, dtype, base, ts1, tc),
            Instruction::Irmw {
                dtype,
                op,
                base,
                ts1,
                ts2,
                tc,
            } => (IndKind::Rmw { op, ts2 }, dtype, base, ts1, tc),
            ref other => unreachable!("non-indirect instruction {other:?} in indirect unit"),
        };
        self.jobs.push_back(IndirectJob {
            d,
            kind,
            dtype,
            base,
            ts1,
            tc,
            n: None,
            next: 0,
            fill_done: false,
            pending_elems: 0,
            open_cols: 0,
            writes_outstanding: 0,
            last_applied: FastMap::default(),
            cols_in_slice: vec![0; self.slices.len()],
            unsendable: Vec::new(),
        });
    }

    /// Whether no job, column, or in-flight request remains.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
            && self.outstanding.is_empty()
            && self.outstanding_writes.is_empty()
            && self.pending_writes.is_empty()
            && self.resp_queue.is_empty()
    }

    /// Queues a completed line/write acknowledgement for the Word Modifier.
    pub fn push_response(&mut self, id: ReqId) {
        self.resp_queue.push_back(id);
    }

    /// Whether the next tick's `fill_step` / `request_step` / `response_step`
    /// / `poll_retired` sequence would be a pure no-op given frozen
    /// scratchpad, response, and DRAM state (the engine's quiescence check).
    ///
    /// Conservative: anything the tick might mutate — TLB lookup counters,
    /// Row-Table stall stats, request ids consumed on refused DRAM requests,
    /// a stale active-row rotation — classifies as active.
    pub fn quiescent(&self, now: Cycle, spd: &Scratchpad) -> bool {
        if !self.resp_queue.is_empty() || !self.pending_writes.is_empty() {
            return false;
        }
        // poll_retired pops completed head jobs.
        if self.jobs.front().is_some_and(|j| j.done()) {
            return false;
        }
        self.fill_quiescent(now, spd) && self.request_quiescent()
    }

    /// The unit's only self-timed wakeup: expiry of the TLB-miss backoff,
    /// when a job still has elements to fill behind it.
    pub fn next_time_event(&self, now: Cycle) -> Option<Cycle> {
        (now < self.fill_stall_until && self.jobs.iter().any(|j| !j.fill_done))
            .then_some(self.fill_stall_until)
    }

    /// Whether `fill_step` would return without mutating anything.
    fn fill_quiescent(&self, now: Cycle, spd: &Scratchpad) -> bool {
        if now < self.fill_stall_until {
            return true; // TLB-miss backoff window
        }
        let Some(job) = self.jobs.iter().find(|j| !j.fill_done) else {
            return true; // every job has filled
        };
        let Some(n) = job.n else {
            // Sizing waits only while the index tile length is unknown.
            return spd.tile(job.ts1).len().is_none();
        };
        if job.next >= n {
            return false; // would mark the job fill-done
        }
        let i = job.next;
        // Chained on unfinished index / condition / store-value elements:
        // these gates sit before the TLB lookup, so the tick stays pure.
        if !spd.tile(job.ts1).finished(i) {
            return true;
        }
        if job.tc.is_some_and(|c| !spd.tile(c).finished(i)) {
            return true;
        }
        let value_tile = match job.kind {
            IndKind::Store { ts2 } | IndKind::Rmw { ts2, .. } => Some(ts2),
            IndKind::Load { .. } => None,
        };
        if value_tile.is_some_and(|t| !spd.tile(t).finished(i)) {
            return true;
        }
        // All gates pass: the tick would at least touch the TLB (and may
        // count a Row-Table stall), so it is not a no-op.
        false
    }

    /// Whether `request_step` would return without mutating anything. The
    /// caller has established `pending_writes` is empty (a pending write
    /// consumes a request id every tick, even when DRAM refuses it).
    fn request_quiescent(&self) -> bool {
        if self.outstanding.len() >= self.cfg.indirect_max_inflight {
            return true; // in-flight cap: pure structural stall
        }
        if !self.cfg.reorder {
            // Insertion order: quiescent only while the head column exists
            // and is not yet sendable (a sent or stale head would be popped).
            return match self.fifo.front() {
                None => true,
                Some(&(slot, id)) => self.col(slot, id).is_some_and(|c| !c.sent && !c.sendable),
            };
        }
        // Reorder mode: `pick_in_slice` clears a stale active row (a
        // mutation), so quiescence needs every slice settled with nothing
        // sendable left unsent.
        self.active_slices == 0 && self.sendable_cols == 0
    }

    /// Requests still draining: in-flight reads/writes plus responses queued
    /// for the Word Modifier (drives the `drain` trace phase).
    pub fn pending_responses(&self) -> usize {
        self.outstanding.len() + self.outstanding_writes.len() + self.resp_queue.len()
    }

    /// Column entries buffered in the Row Table, across all slices (the
    /// DX100 queue-depth signal epoch samplers report). O(1): probed every
    /// cycle by the profiler.
    pub fn buffered_columns(&self) -> usize {
        debug_assert_eq!(
            self.buffered_cols,
            self.table_cols().count(),
            "buffered-column count drifted from the Row Table"
        );
        self.buffered_cols
    }

    /// Every column entry in the Row Table, slice by slice in table order.
    fn table_cols(&self) -> impl Iterator<Item = &ColEntry> + '_ {
        self.slices
            .iter()
            .flat_map(|s| s.rows.iter())
            .flat_map(|&(_, r)| self.row_slots[r as usize].cols.iter())
            .map(|&c| self.col_slots[c as usize].as_ref().expect("live column"))
    }

    /// Debug cross-check: every counter and slot index agrees with a full
    /// scan of the tables. Always returns `true`; a mismatch panics with
    /// the counter that drifted. Allocation-light, since debug builds run
    /// it on every engine tick.
    fn check_index(&self) -> bool {
        let open = |c: &ColEntry| c.sendable && !c.sent;
        let job_pos = |job: u64| {
            self.jobs
                .iter()
                .position(|j| j.d.handle == job)
                .expect("column of a live job")
        };
        let mut per_job: Vec<Vec<u32>> = vec![vec![0; self.slices.len()]; self.jobs.len()];
        let mut unsendable = vec![0usize; self.jobs.len()];
        let (mut active, mut sendable_cols, mut unsent_cols) = (0, 0, 0);
        for (s_idx, slice) in self.slices.iter().enumerate() {
            let (mut cols, mut sendable) = (0, 0);
            for &(_, r) in &slice.rows {
                let row = &self.row_slots[r as usize];
                let mut row_sendable = 0;
                for &c in &row.cols {
                    let col = self.col_slots[c as usize].as_ref().expect("live column");
                    assert_eq!(
                        (col.slice as usize, col.row_slot),
                        (s_idx, r),
                        "column slot index drifted"
                    );
                    row_sendable += open(col) as u32;
                    let j = job_pos(col.job);
                    per_job[j][s_idx] += 1;
                    unsendable[j] += !col.sendable as usize;
                    unsent_cols += !col.sent as usize;
                }
                assert_eq!(
                    row.sendable, row_sendable,
                    "row-entry sendable count drifted"
                );
                cols += row.cols.len();
                sendable += row_sendable as usize;
            }
            assert_eq!(slice.cols, cols, "slice column count drifted");
            assert_eq!(slice.sendable, sendable, "slice sendable count drifted");
            active += slice.active_row.is_some() as usize;
            sendable_cols += sendable;
        }
        assert_eq!(self.active_slices, active, "active-slice count drifted");
        assert_eq!(
            self.sendable_cols, sendable_cols,
            "sendable-column count drifted"
        );
        if self.cfg.coalesce {
            // Each indexed column is a distinct unsent column of its line
            // (distinct lines), so equal counts make the index exact.
            let mut indexed = 0;
            for (line, owner) in &self.line_owners {
                let Some(c) = owner.unsent else { continue };
                let col = self.col_slots[c as usize].as_ref().expect("live column");
                assert!(
                    col.line == *line && col.job == owner.job && !col.sent,
                    "coalescing column index drifted"
                );
                indexed += 1;
            }
            assert_eq!(indexed, unsent_cols, "coalescing column index drifted");
        }
        for (j, job) in self.jobs.iter().enumerate() {
            assert_eq!(
                job.cols_in_slice, per_job[j],
                "per-job slice column count drifted"
            );
            assert_eq!(
                job.unsendable.len(),
                unsendable[j],
                "unsendable-column list drifted"
            );
            for &c in &job.unsendable {
                let col = self.col_slots[c as usize].as_ref().expect("live column");
                assert!(
                    col.job == job.d.handle && !col.sendable,
                    "unsendable list drifted"
                );
            }
        }
        true
    }

    /// Diagnostic summary of internal occupancy.
    pub fn debug_state(&self) -> String {
        let cols = self.table_cols().count();
        let unsent = self.table_cols().filter(|c| !c.sent).count();
        let sendable = self.table_cols().filter(|c| c.sendable && !c.sent).count();
        format!(
            "jobs={} cols={} unsent={} sendable={} fifo={} outstanding={} owrites={} pwrites={} resps={} owners={}",
            self.jobs.len(), cols, unsent, sendable, self.fifo.len(),
            self.outstanding.len(), self.outstanding_writes.len(),
            self.pending_writes.len(), self.resp_queue.len(), self.line_owners.len()
        )
    }

    /// Fill stage: translate, snoop, insert into the Row/Word tables.
    pub fn fill_step(
        &mut self,
        now: Cycle,
        spd: &mut Scratchpad,
        ports: &mut dyn MemPorts,
        tlb: &mut Tlb,
        stats: &mut Dx100Stats,
    ) {
        if now < self.fill_stall_until {
            return;
        }
        // The first job that has not finished filling.
        let Some(job_idx) = self.jobs.iter().position(|j| !j.fill_done) else {
            return;
        };
        // Only begin a new job's fill once the previous job finished filling
        // (jobs fill strictly in order; draining overlaps).
        if job_idx > 0 && !self.jobs[job_idx - 1].fill_done {
            return;
        }
        for _ in 0..self.cfg.fill_rate {
            let job = &mut self.jobs[job_idx];
            if job.n.is_none() {
                let Some(n) = spd.tile(job.ts1).len() else {
                    return;
                };
                job.n = Some(n);
                if let IndKind::Load { td } = job.kind {
                    assert!(n <= spd.capacity(), "ILD source exceeds tile capacity");
                    spd.set_len(td, n);
                }
                job.pending_elems = n;
            }
            let n = job.n.unwrap();
            if job.next >= n {
                job.fill_done = true;
                self.mark_job_sendable(job_idx);
                return;
            }
            let i = job.next;
            // Gate on source finish bits: index, condition, store value.
            if !spd.tile(job.ts1).finished(i) {
                return;
            }
            if job.tc.is_some_and(|c| !spd.tile(c).finished(i)) {
                return;
            }
            let value_tile = match job.kind {
                IndKind::Store { ts2 } | IndKind::Rmw { ts2, .. } => Some(ts2),
                IndKind::Load { .. } => None,
            };
            if value_tile.is_some_and(|t| !spd.tile(t).finished(i)) {
                return;
            }
            if job.tc.is_some_and(|c| spd.tile(c).get(i) == 0) {
                stats.condition_skips += 1;
                if let IndKind::Load { td } = job.kind {
                    spd.skip(td, i);
                    job.pending_elems -= 1;
                }
                job.next += 1;
                continue;
            }
            let idx = spd.tile(job.ts1).get(i);
            let addr = job.base + idx * job.dtype.size_bytes();
            if !tlb.lookup(addr) {
                stats.tlb_misses += 1;
                self.fill_stall_until = now + self.cfg.tlb_miss_latency;
                return;
            }
            stats.tlb_hits += 1;
            let line = LineAddr::containing(addr);
            let coord = self.map.decode(line, &self.org);
            let slice_idx =
                coord.channel * self.org.banks_per_channel() + coord.bank_index(&self.org);
            if !self.insert_word(
                slice_idx,
                coord.row,
                line,
                Word { i, addr },
                job_idx,
                ports,
                stats,
            ) {
                // Slice at capacity (or the line is pinned by an earlier
                // instruction). If any *other* job's columns still occupy
                // the slice, they are already sendable and draining — just
                // stall until space frees, preserving this tile's carefully
                // reordered issue. Only when the slice is full of the
                // current tile's own columns do we start draining it early
                // (the paper's capacity-pressure rule).
                let own_pressure = self.jobs[job_idx].cols_in_slice[slice_idx] as usize
                    == self.slices[slice_idx].cols;
                if own_pressure {
                    // "...or the Row Table reaches capacity": the capacity
                    // trigger drains the *whole table*, so the request
                    // generator sees an even, fully interleavable supply
                    // rather than just the slice the fill happened to jam.
                    self.mark_job_sendable(job_idx);
                }
                stats.rowtable_stall_cycles += 1;
                return;
            }
            self.jobs[job_idx].next += 1;
        }
    }

    /// Inserts one word for the job at `job_idx`; returns false when the
    /// slice is full or the line is pinned by an earlier instruction's
    /// outstanding column.
    #[allow(clippy::too_many_arguments)]
    fn insert_word(
        &mut self,
        slice_idx: usize,
        row: u64,
        line: LineAddr,
        word: Word,
        job_idx: usize,
        ports: &mut dyn MemPorts,
        stats: &mut Dx100Stats,
    ) -> bool {
        let job = self.jobs[job_idx].d.handle;
        // Cross-instruction same-line ordering: wait for the earlier job's
        // column to complete before touching the line.
        if let Some(owner) = self.line_owners.get(&line) {
            if owner.job != job {
                return false;
            }
            // Coalesce into the line's valid, unsent column, if any.
            if let Some(c) = owner.unsent {
                self.col_slots[c as usize]
                    .as_mut()
                    .expect("live column")
                    .words
                    .push(word);
                stats.words_coalesced += 1;
                return true;
            }
        }
        // The first entry for this row with space for a new column.
        let cols_cap = self.cfg.cols_per_row_entry;
        let space = self.slices[slice_idx]
            .rows
            .iter()
            .find(|&&(r_val, r)| r_val == row && self.row_slots[r as usize].cols.len() < cols_cap)
            .map(|&(_, r)| r);
        // Need a new column entry. The snoop happens (and is counted) even
        // when the slice then turns out to be full.
        let h = if self.cfg.direct_dram {
            let hit = ports.snoop(line);
            if hit {
                stats.snoop_hits += 1;
            } else {
                stats.snoop_misses += 1;
            }
            hit
        } else {
            true // LLC-injection mode: everything goes through the cache
        };
        let row_slot = match space {
            Some(r) => r,
            None if self.slices[slice_idx].rows.len() >= self.cfg.rows_per_slice => return false,
            None => {
                let r = alloc_slot(
                    &mut self.row_slots,
                    &mut self.free_rows,
                    RowEntry::default(),
                );
                debug_assert!({
                    let entry = &self.row_slots[r as usize];
                    entry.cols.is_empty() && entry.sendable == 0
                });
                self.slices[slice_idx].rows.push((row, r));
                r
            }
        };
        let col_id = self.next_col_id;
        self.next_col_id += 1;
        let sendable = !self.cfg.reorder;
        let col = ColEntry {
            id: col_id,
            job,
            line,
            slice: slice_idx as u32,
            row_slot,
            h,
            sent: false,
            sendable,
            words: vec![word],
        };
        let c = alloc_slot(&mut self.col_slots, &mut self.free_cols, Some(col));
        self.row_slots[row_slot as usize].cols.push(c);
        let slice = &mut self.slices[slice_idx];
        slice.cols += 1;
        self.buffered_cols += 1;
        let job_entry = &mut self.jobs[job_idx];
        job_entry.cols_in_slice[slice_idx] += 1;
        job_entry.open_cols += 1;
        if sendable {
            self.row_slots[row_slot as usize].sendable += 1;
            slice.sendable += 1;
            self.sendable_cols += 1;
            self.fifo.push_back((c, col_id));
        } else {
            job_entry.unsendable.push(c);
        }
        let owner = self.line_owners.entry(line).or_insert(LineOwner {
            job,
            cols: 0,
            unsent: None,
        });
        owner.cols += 1;
        if self.cfg.coalesce {
            debug_assert!(owner.unsent.is_none(), "two unsent columns for one line");
            owner.unsent = Some(c);
        }
        true
    }

    /// Marks every column of the job at `job_idx` sendable (tile fill
    /// complete, or capacity pressure).
    fn mark_job_sendable(&mut self, job_idx: usize) {
        for c in self.jobs[job_idx].unsendable.drain(..) {
            let col = self.col_slots[c as usize].as_mut().expect("live column");
            debug_assert!(!col.sendable && !col.sent);
            col.sendable = true;
            self.row_slots[col.row_slot as usize].sendable += 1;
            self.slices[col.slice as usize].sendable += 1;
            self.sendable_cols += 1;
        }
    }

    /// Request stage: drain pending writes, then issue column reads in
    /// interleaved row order.
    pub fn request_step(
        &mut self,
        now: Cycle,
        ports: &mut dyn MemPorts,
        ids: &mut IdAlloc,
        stats: &mut Dx100Stats,
        requests_per_cycle: usize,
    ) {
        debug_assert!(self.check_index());
        let mut budget = requests_per_cycle;
        // Writes first: they hold job retirement.
        while budget > 0 {
            let Some(&(line, h, job)) = self.pending_writes.front() else {
                break;
            };
            let id = ids.alloc(UnitTag::IndirectWrite);
            let accepted = if h {
                ports.llc_request(id, line, true, now);
                true
            } else {
                ports.dram_try_request(id, line, true, now)
            };
            if !accepted {
                ids.cancel(id);
                stats.reqbuf_stall_cycles += 1;
                return;
            }
            self.pending_writes.pop_front();
            self.outstanding_writes.insert(id, job);
            stats.indirect_line_writes += 1;
            budget -= 1;
        }
        if self.outstanding.len() >= self.cfg.indirect_max_inflight {
            return;
        }
        while budget > 0 {
            let Some(c) = self.pick_column() else {
                break;
            };
            let col = self.col_slots[c as usize].as_mut().expect("picked column");
            let id = ids.alloc(UnitTag::IndirectRead);
            let accepted = if col.h {
                ports.llc_request(id, col.line, false, now);
                true
            } else {
                ports.dram_try_request(id, col.line, false, now)
            };
            if !accepted {
                ids.cancel(id);
                stats.reqbuf_stall_cycles += 1;
                if !self.cfg.reorder {
                    // Insertion-order mode popped the candidate; put it
                    // back and retry next cycle (order must hold).
                    self.fifo.push_front((c, col.id));
                    return;
                }
                // Rewind the rotation so this column retries next cycle in
                // order; the buffer drains at DRAM speed regardless.
                self.rr = (self.rr + self.slice_order.len() - 1) % self.slice_order.len();
                return;
            }
            col.sent = true;
            if self.cfg.coalesce {
                let owner = self
                    .line_owners
                    .get_mut(&col.line)
                    .expect("owner of open line");
                debug_assert_eq!(owner.unsent, Some(c));
                owner.unsent = None;
            }
            self.row_slots[col.row_slot as usize].sendable -= 1;
            self.slices[col.slice as usize].sendable -= 1;
            self.sendable_cols -= 1;
            self.outstanding.insert(id, c);
            stats.indirect_line_reads += 1;
            budget -= 1;
            if self.outstanding.len() >= self.cfg.indirect_max_inflight {
                return;
            }
        }
    }

    /// Chooses the next column to issue, honoring the reorder/interleave
    /// configuration. Returns the column's slot.
    fn pick_column(&mut self) -> Option<u32> {
        if !self.cfg.reorder {
            // Strict insertion order.
            while let Some(&(c, id)) = self.fifo.front() {
                match self.col(c, id) {
                    Some(col) if !col.sent && !col.sendable => return None, // not yet
                    Some(col) if !col.sent => {
                        self.fifo.pop_front();
                        return Some(c);
                    }
                    _ => {
                        self.fifo.pop_front(); // stale or already sent
                    }
                }
            }
            return None;
        }
        if self.sendable_cols == 0 {
            // Every slice would be visited and found empty, which clears
            // each active row along the way.
            if self.active_slices > 0 {
                for slice in &mut self.slices {
                    slice.active_row = None;
                }
                self.active_slices = 0;
            }
            return None;
        }
        let num = self.slice_order.len();
        for step in 0..num {
            let pos = (self.rr + step) % num;
            let slice_idx = self.slice_order[pos];
            if let Some(c) = self.pick_in_slice(slice_idx) {
                if self.cfg.interleave {
                    // Advance past this slice so the next request goes to a
                    // different channel / bank group.
                    self.rr = (pos + 1) % num;
                } else {
                    // Stay on this slice until it drains completely.
                    self.rr = pos;
                }
                return Some(c);
            }
        }
        None
    }

    /// Finds the next sendable column in a slice, staying on the active row
    /// until it is fully issued (row-buffer locality).
    fn pick_in_slice(&mut self, slice_idx: usize) -> Option<u32> {
        let slice = &mut self.slices[slice_idx];
        if slice.sendable == 0 {
            // Nothing to issue: the scan below would clear the active row
            // and find no other.
            if slice.active_row.take().is_some() {
                self.active_slices -= 1;
            }
            return None;
        }
        if let Some(active) = slice.active_row {
            if let Some(c) = find_unsent(slice, active, &self.row_slots, &self.col_slots) {
                return Some(c);
            }
            slice.active_row = None;
            self.active_slices -= 1;
        }
        // Pick the first row with any sendable, unsent column.
        let row_val = slice
            .rows
            .iter()
            .find(|&&(_, r)| self.row_slots[r as usize].sendable > 0)
            .map(|&(row, _)| row)?;
        slice.active_row = Some(row_val);
        self.active_slices += 1;
        find_unsent(slice, row_val, &self.row_slots, &self.col_slots)
    }

    /// The live column in slot `c`, if it still carries id `id`.
    fn col(&self, c: u32, id: u64) -> Option<&ColEntry> {
        self.col_slots[c as usize]
            .as_ref()
            .filter(|col| col.id == id)
    }

    /// Response stage (Word Modifier): walk the word list, produce/merge,
    /// and schedule write-backs.
    pub fn response_step(&mut self, spd: &mut Scratchpad, mem: &mut MemoryImage) -> Vec<u64> {
        let mut retired = Vec::new();
        for _ in 0..self.cfg.responses_per_cycle {
            let Some(id) = self.resp_queue.pop_front() else {
                break;
            };
            if let Some(job_handle) = self.outstanding_writes.remove(&id) {
                if let Some(job) = self.jobs.iter_mut().find(|j| j.d.handle == job_handle) {
                    job.writes_outstanding -= 1;
                    if job.done() {
                        retired.push(job_handle);
                    }
                }
                continue;
            }
            let Some(c) = self.outstanding.remove(&id) else {
                debug_assert!(false, "unknown indirect response {id}");
                continue;
            };
            let col = self.remove_col(c);
            let job = self
                .jobs
                .iter_mut()
                .find(|j| j.d.handle == col.job)
                .expect("job for column");
            job.cols_in_slice[col.slice as usize] -= 1;
            match job.kind {
                IndKind::Load { td } => {
                    for w in &col.words {
                        spd.produce(td, w.i, mem.read(job.dtype, w.addr));
                    }
                    job.pending_elems -= col.words.len();
                    job.open_cols -= 1;
                }
                IndKind::Store { ts2 } => {
                    for w in &col.words {
                        // Duplicate indices: only ever move forward in
                        // iteration order so last-writer-wins is preserved
                        // even if two columns for one line complete out of
                        // order.
                        let apply = job.last_applied.get(&w.addr).is_none_or(|&last| w.i > last);
                        if apply {
                            let v = value::truncate(job.dtype, spd.tile(ts2).get(w.i));
                            mem.write(job.dtype, w.addr, v);
                            job.last_applied.insert(w.addr, w.i);
                        }
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
                IndKind::Rmw { op, ts2 } => {
                    for w in &col.words {
                        let old = mem.read(job.dtype, w.addr);
                        let new = value::alu(op, job.dtype, old, spd.tile(ts2).get(w.i));
                        mem.write(job.dtype, w.addr, new);
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
            }
            if job.done() {
                retired.push(job.d.handle);
            }
        }
        // Drop retired jobs from the queue.
        for h in &retired {
            if let Some(pos) = self.jobs.iter().position(|j| j.d.handle == *h) {
                self.jobs.remove(pos);
            }
        }
        retired
    }

    /// Checks whether a load job with no remaining work can retire even
    /// without a final response (e.g. fully condition-gated tiles).
    pub fn poll_retired(&mut self) -> Vec<u64> {
        let mut retired = Vec::new();
        while let Some(job) = self.jobs.front() {
            if job.done() {
                retired.push(job.d.handle);
                self.jobs.pop_front();
            } else {
                break;
            }
        }
        retired
    }

    /// Removes the (sent) column in slot `c` from the Row Table, freeing
    /// its row entry when it was the last column there.
    fn remove_col(&mut self, c: u32) -> ColEntry {
        let col = self.col_slots[c as usize]
            .take()
            .expect("column for response");
        debug_assert!(col.sent, "only issued columns get responses");
        self.free_cols.push(c);
        let slice = &mut self.slices[col.slice as usize];
        let row = &mut self.row_slots[col.row_slot as usize];
        let pos = row
            .cols
            .iter()
            .position(|&x| x == c)
            .expect("column in its row");
        row.cols.remove(pos);
        if row.cols.is_empty() {
            let pos = slice.rows.iter().position(|&(_, r)| r == col.row_slot);
            slice.rows.remove(pos.expect("row entry in its slice"));
            self.free_rows.push(col.row_slot);
        }
        slice.cols -= 1;
        self.buffered_cols -= 1;
        if let Some(owner) = self.line_owners.get_mut(&col.line) {
            owner.cols -= 1;
            if owner.cols == 0 {
                self.line_owners.remove(&col.line);
            }
        }
        col
    }
}

/// Takes a free slot (or grows the array) and stores `v` there.
fn alloc_slot<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, v: T) -> u32 {
    match free.pop() {
        Some(i) => {
            slots[i as usize] = v;
            i
        }
        None => {
            slots.push(v);
            (slots.len() - 1) as u32
        }
    }
}

/// The first sendable, unsent column slot in `row` of `slice`.
fn find_unsent(
    slice: &Slice,
    row: u64,
    row_slots: &[RowEntry],
    col_slots: &[Option<ColEntry>],
) -> Option<u32> {
    slice
        .rows
        .iter()
        .filter(|&&(r_val, _)| r_val == row)
        .map(|&(_, r)| &row_slots[r as usize])
        .filter(|r| r.sendable > 0)
        .flat_map(|r| r.cols.iter().copied())
        .find(|&c| {
            let col = col_slots[c as usize].as_ref().expect("live column");
            col.sendable && !col.sent
        })
}
