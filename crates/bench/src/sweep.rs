//! Figure sweeps: every kernel-running binary builds its [`Job`] list up
//! front and runs it as one in-order batch on the worker pool
//! ([`run_jobs`]). Row-based figures go through [`run_figure`], which also
//! emits a `<generator>_sim_walltime.json`.

use std::sync::Arc;
use std::time::Instant;

use dx100_common::json::{obj, Json};
use dx100_common::pool::WorkerPool;
use dx100_sim::report::SCHEMA_VERSION;
use dx100_workloads::{Mode, WorkloadResult};

use crate::jobspec::{kernel_names, Job};
use crate::{machine_config, report_json, trace_json, BenchArgs, KernelRow, Progress};

/// Runs `jobs` on `threads` workers, reporting progress under the sweep
/// name `what`, and returns every result with its host seconds, in job
/// order — so anything printed from the results is identical at any
/// thread count. Each job builds its entire driver state (dataset,
/// `System`, observability sinks) on its worker and is timed with its own
/// [`Instant`] span, so per-job seconds stay accurate under concurrency.
/// A job panic (a failed output verification) aborts the batch once the
/// other jobs have finished.
pub fn run_jobs(what: &str, jobs: Vec<Job>, threads: usize) -> Vec<(WorkloadResult, f64)> {
    let progress = Arc::new(Progress::new(jobs.len()));
    progress.header(what, threads.clamp(1, jobs.len().max(1)));
    let tasks: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let progress = Arc::clone(&progress);
            move || {
                let label = format!("{}/{}", job.kernel, job.mode.label());
                progress.start(&label);
                let t = Instant::now();
                let r = job.run();
                let secs = t.elapsed().as_secs_f64();
                progress.finish(&label, secs);
                (r, secs)
            }
        })
        .collect();
    WorkerPool::run_ordered(tasks, threads)
}

/// Wall-clock seconds spent simulating one kernel × machine.
#[derive(Debug, Clone)]
pub struct WalltimeEntry {
    /// Kernel name.
    pub kernel: &'static str,
    /// Machine configuration label (`baseline` / `dx100` / `dmp`).
    pub config: &'static str,
    /// Simulation seconds.
    pub seconds: f64,
    /// Cycles elided by event-driven skipping.
    pub skipped_cycles: u64,
    /// Quiescent spans entered by the skip layer.
    pub skip_events: u64,
}

/// A figure sweep's measurements: rows for the figure and timing for the
/// walltime report.
pub struct FigureRun {
    /// One row per kernel.
    pub rows: Vec<KernelRow>,
    /// Per kernel × machine simulation seconds.
    pub walltime: Vec<WalltimeEntry>,
    /// End-to-end sweep seconds.
    pub total_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    scale: f64,
}

/// Runs the figure's (kernel × machine) job matrix per `args` on
/// `args.threads` workers, returning the figure rows plus one walltime
/// entry per job.
///
/// Jobs are enumerated kernel-major with machines in baseline / dx100 /
/// dmp order and run by [`run_jobs`], so rows, and everything derived from
/// them, are bit-identical at any thread count. Machines come from
/// [`machine_config`], the same constructor the job/serve path resolves
/// specs through.
pub fn run_figure(args: &BenchArgs, with_dmp: bool) -> FigureRun {
    let start = Instant::now();
    let kernels = kernel_names();
    let machines: &[Mode] = if with_dmp {
        &[Mode::Baseline, Mode::Dx100, Mode::Dmp]
    } else {
        &[Mode::Baseline, Mode::Dx100]
    };
    let mut jobs = Vec::with_capacity(kernels.len() * machines.len());
    for kernel in &kernels {
        for &mode in machines {
            let mut cfg = machine_config(mode);
            cfg.obs = args.observability();
            jobs.push(args.job(kernel, args.scale, mode, cfg));
        }
    }
    let threads = args.threads.clamp(1, jobs.len().max(1));
    let mut results = run_jobs("full sweep", jobs, threads).into_iter();
    let mut rows = Vec::with_capacity(kernels.len());
    let mut walltime = Vec::with_capacity(results.len());
    for kernel in kernels {
        let mut take = |mode: Mode| {
            let (r, secs) = results.next().expect("one result per enumerated job");
            walltime.push(WalltimeEntry {
                kernel,
                config: mode.label(),
                seconds: secs,
                skipped_cycles: r.telemetry.skipped_cycles,
                skip_events: r.telemetry.skip_events,
            });
            r
        };
        rows.push(KernelRow {
            name: kernel,
            baseline: take(Mode::Baseline),
            dx100: take(Mode::Dx100),
            dmp: with_dmp.then(|| take(Mode::Dmp)),
        });
    }
    FigureRun {
        rows,
        walltime,
        total_seconds: start.elapsed().as_secs_f64(),
        threads,
        scale: args.scale,
    }
}

impl FigureRun {
    /// The walltime report (`<generator>_sim_walltime.json` contents):
    /// the worker-thread count used, per-job seconds (one entry per
    /// kernel × machine, each timed on its own worker), and the end-to-end
    /// sweep total.
    pub fn walltime_json(&self, generator: &str) -> Json {
        obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("generator", generator.into()),
            ("scale", self.scale.into()),
            ("threads", self.threads.into()),
            ("jobs", self.walltime.len().into()),
            (
                "entries",
                Json::Arr(
                    self.walltime
                        .iter()
                        .map(|e| {
                            obj([
                                ("kernel", e.kernel.into()),
                                ("config", e.config.into()),
                                ("seconds", e.seconds.into()),
                                ("skipped_cycles", e.skipped_cycles.into()),
                                ("skip_events", e.skip_events.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_seconds", self.total_seconds.into()),
        ])
    }

    /// Writes the figure's artifacts: the `--json` report and `--trace`
    /// file when requested, and `<generator>_sim_walltime.json` always.
    /// Under `--profile`, first prints the per-run bottleneck summaries.
    pub fn emit(&self, args: &BenchArgs, generator: &str) {
        args.print_profile(&self.rows);
        if let Some(path) = &args.json {
            let report = report_json(generator, self.scale, &self.rows);
            crate::write_or_die(path, &(report.to_string() + "\n"));
            eprintln!("wrote report to {}", path.display());
        }
        if let Some(path) = &args.trace {
            crate::write_or_die(path, &trace_json(&self.rows));
            eprintln!("wrote trace to {} (open in Perfetto)", path.display());
        }
        let wt = std::path::PathBuf::from(format!("{generator}_sim_walltime.json"));
        crate::write_or_die(&wt, &(self.walltime_json(generator).to_string() + "\n"));
        eprintln!(
            "wrote walltime report to {} ({:.1}s total)",
            wt.display(),
            self.total_seconds
        );
    }
}
