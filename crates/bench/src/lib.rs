//! The figure/table harness: runs the paper's workloads on the simulated
//! machines and prints each figure's rows.
//!
//! Every binary in `src/bin/` regenerates one figure or table:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig08a` | All-hit microbenchmark speedups |
//! | `fig08bc` | All-miss gather speedup + bandwidth vs index order |
//! | `fig09` | Speedup across the 12 workloads |
//! | `fig10` | Bandwidth utilization, row-buffer hit rate, occupancy |
//! | `fig11` | Instruction and MPKI reduction |
//! | `fig12` | DX100 vs the DMP indirect prefetcher |
//! | `fig13` | Tile-size sensitivity |
//! | `fig14` | Core/instance scaling |
//! | `main_results` | Figures 9–11 from one set of runs |
//! | `table4` | Area and power model |
//! | `ablation` | Reorder/coalesce/interleave/LLC-injection ablations |
//!
//! Use `--scale <f>` to trade fidelity for runtime (default 1.0 ≈ seconds
//! per run; the paper's full sizes would take hours, like the original gem5
//! artifact's 84).
//!
//! Observability flags (shared by all figure binaries):
//!
//! * `--json <path>` — write a machine-readable run report.
//! * `--trace <path>` — write a Chrome trace (load in Perfetto / `about:tracing`).
//! * `--epoch <cycles>` — sample epoch time-series metrics every N cycles
//!   (included in the `--json` report).
//! * `--profile` — cycle-attribution profiling: every timed component
//!   classifies each of its cycles (stall taxonomy, utilization,
//!   occupancy histograms), the per-run JSON gains a versioned `profile`
//!   section, and a per-kernel bottleneck summary prints after the table.
//!   Never changes simulated results: `RunStats` are bit-identical with
//!   the flag on or off.
//!
//! Sweep-execution flags (every binary that runs kernels):
//!
//! * `--threads <n>` — worker threads for the figure's job list
//!   (default: available cores). Each binary builds its kernel runs as a
//!   list of [`Job`]s up front and runs them as one in-order batch on the
//!   worker pool ([`run_jobs`]). Every output — tables, `--profile`
//!   summaries, `--json` reports, epoch series, `--trace` files — is
//!   bit-identical at any thread count; only wall-clock time and stderr
//!   progress order change.
//! * `--seed <n>` — dataset seed (default 1); runs are bit-reproducible
//!   for a given seed regardless of thread count.

pub mod jobspec;
pub mod progress;
pub mod sweep;

pub use jobspec::{machine_config, Job, JobCli, JobSpec};
pub use progress::Progress;
pub use sweep::{run_figure, run_jobs, FigureRun, WalltimeEntry};

use std::path::{Path, PathBuf};

use dx100_common::json::{obj, Json};
use dx100_common::trace::chrome_trace_json;
use dx100_sim::report::{run_stats_json, SCHEMA_VERSION};
use dx100_sim::{ObservabilityConfig, RunStats, SystemConfig};
use dx100_workloads::{Mode, WorkloadResult};

/// Measurements for one kernel across the machines of interest.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Baseline run.
    pub baseline: WorkloadResult,
    /// DX100 run.
    pub dx100: WorkloadResult,
    /// DMP run (only when requested).
    pub dmp: Option<WorkloadResult>,
}

impl KernelRow {
    /// DX100 speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.dx100.stats.speedup_over(&self.baseline.stats)
    }

    /// DX100 speedup over DMP.
    pub fn speedup_vs_dmp(&self) -> Option<f64> {
        self.dmp
            .as_ref()
            .map(|d| self.dx100.stats.speedup_over(&d.stats))
    }

    /// The row's runs with their machine labels, in baseline / dx100 /
    /// dmp order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&'static str, &WorkloadResult)> {
        [
            ("baseline", Some(&self.baseline)),
            ("dx100", Some(&self.dx100)),
            ("dmp", self.dmp.as_ref()),
        ]
        .into_iter()
        .filter_map(|(mode, w)| Some((mode, w?)))
    }
}

/// Command-line arguments shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Problem-size scale factor (`--scale`, default 1.0).
    pub scale: f64,
    /// Write a machine-readable run report here (`--json`).
    pub json: Option<PathBuf>,
    /// Write a Chrome trace here (`--trace`).
    pub trace: Option<PathBuf>,
    /// Sample epoch metrics every N cycles (`--epoch`).
    pub epoch: Option<u64>,
    /// Cycle-attribution profiling (`--profile`): stall taxonomy +
    /// utilization counters per component, a `profile` section per run in
    /// the `--json` report, and a printed bottleneck summary.
    pub profile: bool,
    /// Worker threads for the figure's job list (`--threads`), with
    /// bit-identical output at any value.
    pub threads: usize,
    /// Dataset seed (`--seed`).
    pub seed: u64,
}

/// Default worker-thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            json: None,
            trace: None,
            epoch: None,
            profile: false,
            threads: default_threads(),
            seed: 1,
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments; prints the problem and exits non-zero
    /// on anything malformed (a typo'd `--scale` silently running the
    /// full-size workload for hours is worse than an error).
    pub fn parse() -> BenchArgs {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--scale <factor>] [--json <path>] [--trace <path>] [--epoch <cycles>] \
                     [--profile] [--threads <n>] [--seed <n>]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Fallible parser over an explicit argument list (testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
            match arg.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    out.scale = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("invalid --scale value `{v}`"))?;
                }
                "--json" => out.json = Some(PathBuf::from(value("--json")?)),
                "--trace" => out.trace = Some(PathBuf::from(value("--trace")?)),
                "--profile" => out.profile = true,
                "--threads" => {
                    let v = value("--threads")?;
                    out.threads = v
                        .parse::<usize>()
                        .ok()
                        .filter(|t| *t > 0)
                        .ok_or_else(|| format!("invalid --threads value `{v}`"))?;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = v
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --seed value `{v}`"))?;
                }
                "--epoch" => {
                    let v = value("--epoch")?;
                    out.epoch = Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|e| *e > 0)
                            .ok_or_else(|| format!("invalid --epoch value `{v}`"))?,
                    );
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// The simulator observability configuration these flags request.
    pub fn observability(&self) -> ObservabilityConfig {
        ObservabilityConfig {
            trace: self.trace.is_some(),
            epoch_cycles: self.epoch,
            profile: self.profile,
            ..ObservabilityConfig::default()
        }
    }

    /// A job running `kernel` at `scale` in `mode` on `cfg`, with this
    /// command line's seed and `--profile` switch.
    pub fn job(&self, kernel: &str, scale: f64, mode: Mode, mut cfg: SystemConfig) -> Job {
        cfg.obs.profile = self.profile;
        Job {
            kernel: kernel.to_string(),
            scale,
            mode,
            seed: self.seed,
            cfg,
        }
    }

    /// Prints each kernel's bottleneck summary (no-op without `--profile`).
    /// Call after the figure's table so the report reads top-down.
    pub fn print_profile(&self, rows: &[KernelRow]) {
        for r in rows {
            for (mode, w) in r.runs() {
                self.print_run_profile(&format!("{}/{mode}", r.name), w);
            }
        }
    }

    /// Prints one run's bottleneck summary under `label`. No-op without
    /// `--profile` or when the run carries no attribution.
    pub fn print_run_profile(&self, label: &str, w: &WorkloadResult) {
        if !self.profile {
            return;
        }
        if let Some(p) = w.telemetry.profile.as_ref() {
            println!("-- {label}");
            print!("{}", p.bottleneck_summary());
        }
    }

    /// Warns when artifact flags were passed to a binary whose output has
    /// no per-kernel run shape to report. `supports_json` suppresses the
    /// warning for `--json` (the binary writes its own report);
    /// `supports_profile` suppresses it for `--profile` (the binary prints
    /// per-run bottleneck summaries itself).
    pub fn warn_unsupported(&self, generator: &str, supports_json: bool, supports_profile: bool) {
        if self.json.is_some() && !supports_json {
            eprintln!("note: {generator} does not emit --json reports; flag ignored");
        }
        if self.trace.is_some() {
            eprintln!("note: {generator} does not emit --trace files; flag ignored");
        }
        if self.epoch.is_some() {
            eprintln!("note: {generator} does not report --epoch samples; flag ignored");
        }
        if self.profile && !supports_profile {
            eprintln!("note: {generator} does not profile its runs; flag ignored");
        }
    }

    /// Writes a JSON report produced by the binary itself (for figures
    /// whose rows are not kernel × machine runs).
    pub fn emit_custom_report(&self, report: &Json) {
        if let Some(path) = &self.json {
            write_or_die(path, &(report.to_string() + "\n"));
            eprintln!("wrote report to {}", path.display());
        }
    }
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The machine-readable report for a set of kernel rows: per-kernel
/// speedups plus the full [`run_stats_json`] of every run (including epoch
/// time-series when epoch sampling was on).
pub fn report_json(generator: &str, scale: f64, rows: &[KernelRow]) -> Json {
    let speeds: Vec<f64> = rows.iter().map(KernelRow::speedup).collect();
    obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("generator", generator.into()),
        ("scale", scale.into()),
        (
            "geomean_speedup",
            dx100_common::stats::geomean(&speeds).into(),
        ),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ])
}

/// One run's JSON: [`run_stats_json`] plus the run's telemetry (skip
/// counters always; the versioned `profile` section when `--profile`
/// was on, `null` otherwise). Figure reports and job reports share it.
pub(crate) fn run_json(w: &WorkloadResult) -> Json {
    let mut j = run_stats_json(&w.stats);
    if let Json::Obj(fields) = &mut j {
        fields.push(("telemetry".to_string(), w.telemetry.to_json()));
    }
    j
}

fn row_json(r: &KernelRow) -> Json {
    obj([
        ("name", r.name.into()),
        ("speedup", r.speedup().into()),
        (
            "speedup_vs_dmp",
            match r.speedup_vs_dmp() {
                Some(s) => s.into(),
                None => Json::Null,
            },
        ),
        (
            "checksums_match",
            (r.baseline.checksum == r.dx100.checksum).into(),
        ),
        (
            "runs",
            obj([
                ("baseline", run_json(&r.baseline)),
                ("dx100", run_json(&r.dx100)),
                (
                    "dmp",
                    match &r.dmp {
                        Some(d) => run_json(d),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
    ])
}

/// Chrome-trace JSON for every traced run in `rows` (one trace "process"
/// per kernel × machine).
pub fn trace_json(rows: &[KernelRow]) -> String {
    let mut runs = Vec::new();
    for r in rows {
        for (mode, w) in r.runs() {
            if let Some(buf) = &w.stats.trace {
                runs.push((format!("{}/{mode}", r.name), buf));
            }
            // Profile counter curves live outside `RunStats.trace` (so the
            // trace stays byte-identical with `--profile` on or off); merge
            // them into the viewer file as their own process.
            if let Some(buf) = w.telemetry.counters.as_ref().filter(|b| !b.is_empty()) {
                runs.push((format!("{}/{mode}/profile", r.name), buf));
            }
        }
    }
    chrome_trace_json(&runs)
}

/// Prints a measurement table row-per-kernel; the name column is sized to
/// the longest kernel name.
pub fn print_table(header: &[&str], rows: &[(String, Vec<f64>)]) {
    let width = rows
        .iter()
        .map(|(name, _)| name.len())
        .chain(["kernel".len()])
        .max()
        .unwrap_or(6);
    print!("{:<width$}", "kernel");
    for h in header {
        print!(" {h:>12}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:<width$}");
        for v in vals {
            print!(" {v:>12.3}");
        }
        println!();
    }
}

/// Geometric-mean summary line.
pub fn print_geomean(label: &str, values: &[f64]) {
    println!(
        "{label}: geomean {:.2}x over {} kernels",
        dx100_common::stats::geomean(values),
        values.len()
    );
}

/// Prints the Figure 9 table: DX100 speedup per kernel and the geomean.
pub fn print_fig09(rows: &[KernelRow]) {
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| (r.name.to_string(), vec![r.speedup()]))
        .collect();
    let speeds: Vec<f64> = rows.iter().map(KernelRow::speedup).collect();
    println!("\nFigure 9 — DX100 speedup over baseline (paper: geomean 2.6x)");
    print_table(&["speedup"], &table);
    print_geomean("fig09", &speeds);
}

/// Prints the Figure 10 table: bandwidth utilization, row-buffer hit rate
/// and request-buffer occupancy, baseline vs DX100, with geomean gains.
pub fn print_fig10(rows: &[KernelRow]) {
    println!("\nFigure 10 — memory-system metrics (paper: 3.9x BW, 2.7x RBH, 12.1x occupancy)");
    println!(
        "{:<8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "bw-b%", "bw-dx%", "rbh-b%", "rbh-dx%", "occ-b", "occ-dx"
    );
    let (mut bwg, mut rbhg, mut occg) = (vec![], vec![], vec![]);
    for r in rows {
        let (b, d) = (&r.baseline.stats, &r.dx100.stats);
        println!(
            "{:<8} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>8.3} {:>8.3}",
            r.name,
            b.bandwidth_utilization() * 100.0,
            d.bandwidth_utilization() * 100.0,
            b.row_buffer_hit_rate() * 100.0,
            d.row_buffer_hit_rate() * 100.0,
            b.request_buffer_occupancy(),
            d.request_buffer_occupancy(),
        );
        if b.bandwidth_utilization() > 0.0 {
            bwg.push(d.bandwidth_utilization() / b.bandwidth_utilization());
        }
        if b.row_buffer_hit_rate() > 0.0 {
            rbhg.push(d.row_buffer_hit_rate() / b.row_buffer_hit_rate());
        }
        if b.request_buffer_occupancy() > 0.0 {
            occg.push(d.request_buffer_occupancy() / b.request_buffer_occupancy());
        }
    }
    print_geomean("fig10a bandwidth gain", &bwg);
    print_geomean("fig10b row-buffer-hit gain", &rbhg);
    print_geomean("fig10c occupancy gain", &occg);
}

/// Prints the Figure 11 table: dynamic instruction and cache MPKI
/// reduction per kernel, with geomeans.
pub fn print_fig11(rows: &[KernelRow]) {
    println!("\nFigure 11 — core-side effects (paper: 3.6x instruction cut, 6.1x MPKI cut)");
    println!(
        "{:<8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "kernel", "instr-b", "instr-dx", "i-cut", "mpki-b", "mpki-dx", "m-cut"
    );
    let (mut icut, mut mcut) = (vec![], vec![]);
    for r in rows {
        let (b, d) = (&r.baseline.stats, &r.dx100.stats);
        let ic = b.instructions as f64 / d.instructions.max(1) as f64;
        let (mb, md) = (b.total_mpki(), d.total_mpki());
        let mc = if md > 0.0 { mb / md } else { f64::NAN };
        println!(
            "{:<8} {:>12} {:>12} {:>7.2}x {:>10.2} {:>10.2} {:>7.2}x",
            r.name, b.instructions, d.instructions, ic, mb, md, mc
        );
        icut.push(ic);
        if mc.is_finite() && mc > 0.0 {
            mcut.push(mc);
        }
    }
    print_geomean("fig11a instruction reduction", &icut);
    print_geomean("fig11b MPKI reduction", &mcut);
}

/// Formats the headline stats of one run (debug helper).
pub fn summarize(name: &str, s: &RunStats) -> String {
    format!(
        "{name}: {} cycles, {} instrs, bw {:.1}% ({:.1} GB/s), rbh {:.1}%, occ {:.2}, llc-mpki {:.2}",
        s.cycles,
        s.instructions,
        s.bandwidth_utilization() * 100.0,
        s.bandwidth_gbps(),
        s.row_buffer_hit_rate() * 100.0,
        s.request_buffer_occupancy(),
        s.llc_mpki()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let args = parse(&[
            "--scale",
            "0.05",
            "--json",
            "r.json",
            "--trace",
            "t.json",
            "--epoch",
            "5000",
            "--profile",
            "--threads",
            "4",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.json.as_deref(), Some(Path::new("r.json")));
        assert_eq!(args.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(args.epoch, Some(5000));
        assert!(args.profile);
        assert_eq!(args.threads, 4);
        assert_eq!(args.seed, 7);
        let obs = args.observability();
        assert!(obs.trace);
        assert_eq!(obs.epoch_cycles, Some(5000));
        assert!(obs.profile);
    }

    #[test]
    fn defaults_without_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, BenchArgs::default());
        assert!(!args.observability().trace);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["--scale", "fast"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--epoch", "0"]).is_err());
        assert!(parse(&["--epoch", "soon"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--seed", "-3"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--sample"]).is_err());
    }

    #[test]
    fn report_has_stable_shape() {
        let report = report_json("figXX", 0.1, &[]);
        let parsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            parsed.get("generator").and_then(Json::as_str),
            Some("figXX")
        );
        assert!(parsed.get("rows").and_then(Json::as_arr).is_some());
    }
}
