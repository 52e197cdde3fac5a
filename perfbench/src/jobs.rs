//! Jobs as the benchmark drives them: spec generation from the workload
//! seed, the public `JobSpec` path (untraced), the same job split at the
//! crate boundaries (traced), and the checks on every report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dx100_bench::jobspec::{find_kernel, kernel_names};
use dx100_bench::JobSpec;
use dx100_common::json::{obj, Json};
use dx100_sim::report::{run_stats_json, SCHEMA_VERSION};
use dx100_workloads::{Mode, Scale};

use crate::stats::median;
use crate::{proc_status_kb, Metrics};

/// SplitMix64: derives every job seed from the workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th job seed of a workload seed (32 bits, so specs stay short).
pub fn job_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i)) >> 32
}

/// A job spec as the JSON document a client sends.
pub fn spec_document(kernel: &str, machine: Mode, scale: f64, seed: u64) -> String {
    obj([
        ("kernel", kernel.into()),
        ("machine", machine.label().into()),
        ("scale", scale.into()),
        ("seed", seed.into()),
    ])
    .to_string()
}

/// One job per kernel, in sweep order.
pub fn sweep_documents(machine: Mode, scale: f64, seed: u64) -> Vec<String> {
    kernel_names()
        .into_iter()
        .map(|k| spec_document(k, machine, scale, seed))
        .collect()
}

/// Parses documents into validated specs: the set-up a sweep does before
/// its first job.
pub fn parse_specs(docs: &[String]) -> Result<Vec<JobSpec>, String> {
    docs.iter()
        .map(|d| JobSpec::from_json(&Json::parse(d)?))
        .collect()
}

/// Runs `f`, turning a panic into an error so one job cannot take the
/// benchmark down.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        }
    }
}

/// The simulated figures the benchmark reads from a report's `run` block.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFacts {
    pub cycles: u64,
    pub instructions: u64,
    pub llc_mpki: f64,
    pub row_hit_rate: f64,
    pub bw_util: f64,
    pub skipped_cycles: u64,
    pub skip_events: u64,
}

fn field<'a>(v: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    path.iter().try_fold(v, |cur, k| {
        cur.get(k)
            .ok_or_else(|| format!("report has no `{}`", path.join(".")))
    })
}

fn uint(v: &Json, path: &[&str]) -> Result<u64, String> {
    match field(v, path)? {
        Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Ok(*i as u64),
        _ => Err(format!(
            "`{}` is not a non-negative integer",
            path.join(".")
        )),
    }
}

fn num(v: &Json, path: &[&str]) -> Result<f64, String> {
    field(v, path)?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("`{}` is not a finite number", path.join(".")))
}

impl RunFacts {
    /// Reads a `run` block (the `run_stats_json` object plus `telemetry`).
    pub fn from_run_block(run: &Json) -> Result<RunFacts, String> {
        let facts = RunFacts {
            cycles: uint(run, &["cycles"])?,
            instructions: uint(run, &["instructions"])?,
            llc_mpki: num(run, &["caches", "llc_mpki"])?,
            row_hit_rate: num(run, &["dram", "row_buffer_hit_rate"])?,
            bw_util: num(run, &["dram", "bandwidth_utilization"])?,
            skipped_cycles: uint(run, &["telemetry", "skipped_cycles"])?,
            skip_events: uint(run, &["telemetry", "skip_events"])?,
        };
        if facts.cycles == 0 || facts.instructions == 0 {
            return Err("run simulated no cycles or no instructions".to_string());
        }
        Ok(facts)
    }
}

/// Checks a job report's schema and that it answers `spec`; returns its
/// figures and checksum.
pub fn check_job_report(report: &Json, spec: &JobSpec) -> Result<(RunFacts, u64), String> {
    if uint(report, &["schema_version"])? != SCHEMA_VERSION {
        return Err("unexpected schema_version".to_string());
    }
    if field(report, &["kind"])?.as_str() != Some("job") {
        return Err("report kind is not `job`".to_string());
    }
    if field(report, &["mode"])?.as_str() != Some("full") {
        return Err("report mode is not `full`".to_string());
    }
    if field(report, &["spec"])? != &spec.to_json() {
        return Err(format!(
            "report answers {} instead of {}",
            field(report, &["spec"])?,
            spec.to_json()
        ));
    }
    let checksum = uint(report, &["checksum"])?;
    let facts = RunFacts::from_run_block(field(report, &["run"])?)?;
    Ok((facts, checksum))
}

/// The simulated statistics of a `run` block: everything but `telemetry`,
/// serialized. Every run of one spec must produce the same string.
pub fn simulated_block(run: &Json) -> Result<String, String> {
    match run {
        Json::Obj(fields) => Ok(Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "telemetry")
                .cloned()
                .collect(),
        )
        .to_string()),
        _ => Err("`run` is not an object".to_string()),
    }
}

/// One job through `JobSpec::run`, as the `job` CLI and the daemon run it.
#[derive(Debug, Clone)]
pub struct JobSample {
    pub kernel: String,
    pub host_s: f64,
    pub facts: RunFacts,
    pub checksum: u64,
    pub simulated: String,
    /// This process's peak resident memory during the job, in kB.
    pub peak_kb: u64,
}

/// Runs and checks one job; panics and failed checks are errors.
pub fn run_job(spec: &JobSpec) -> Result<JobSample, String> {
    guarded(|| {
        // Reset the peak-RSS counter so `VmHWM` afterwards is this job's.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let t0 = Instant::now();
        let report = spec.run(1)?;
        let host_s = t0.elapsed().as_secs_f64();
        let peak_kb = proc_status_kb("self", "VmHWM").unwrap_or(0);
        let (facts, checksum) = check_job_report(&report, spec)?;
        Ok(JobSample {
            kernel: spec.kernel.clone(),
            host_s,
            facts,
            checksum,
            simulated: simulated_block(field(&report, &["run"])?)?,
            peak_kb,
        })
    })
}

/// One job split at the crate boundaries: `KernelRun::run` (workloads and
/// everything below it) and the report (`run_stats_json` plus
/// serialization, in bench and sim).
#[derive(Debug, Clone)]
pub struct TracedJob {
    pub kernel: String,
    pub kernel_run_s: f64,
    pub report_s: f64,
    pub report_bytes: usize,
    pub facts: RunFacts,
    pub checksum: u64,
    pub simulated: String,
}

impl TracedJob {
    /// Host seconds of the whole job.
    pub fn host_s(&self) -> f64 {
        self.kernel_run_s + self.report_s
    }
}

/// Runs one job through the public pieces `JobSpec::run` is made of, with a
/// span around each.
pub fn traced_job(spec: &JobSpec) -> Result<TracedJob, String> {
    guarded(|| {
        spec.validate()?;
        let kernel = find_kernel(&spec.kernel, Scale(spec.scale))?;
        let cfg = spec.resolved_config();
        let t0 = Instant::now();
        let w = kernel.run(spec.machine, &cfg, spec.seed);
        let t1 = Instant::now();
        let mut run = run_stats_json(&w.stats);
        if let Json::Obj(fields) = &mut run {
            fields.push(("telemetry".to_string(), w.telemetry.to_json()));
        }
        let text = run.to_string();
        let report_s = t1.elapsed().as_secs_f64();
        Ok(TracedJob {
            kernel: spec.kernel.clone(),
            kernel_run_s: (t1 - t0).as_secs_f64(),
            report_s,
            report_bytes: text.len(),
            facts: RunFacts::from_run_block(&run)?,
            checksum: w.checksum,
            simulated: simulated_block(&run)?,
        })
    })
}

/// Per-layer metrics of a set of traced jobs: `sim`, `workloads`, `bench`
/// and the simulated counts of `cpu`, `mem` and `dram`.
pub fn job_layer_metrics(jobs: &[TracedJob], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&TracedJob) -> f64| jobs.iter().map(f).sum::<f64>();
    let cycles = sum(&|j| j.facts.cycles as f64);
    let skipped = sum(&|j| j.facts.skipped_cycles as f64);
    let skip_events = sum(&|j| j.facts.skip_events as f64);
    let instructions = sum(&|j| j.facts.instructions as f64);
    m.count("sim.cycles", cycles as u64);
    m.num("sim.skip_share", skipped / cycles, "ratio");
    m.num(
        "sim.skip_span_mean",
        skipped / skip_events.max(1.0),
        "cycles",
    );
    for kernel in kernel_names() {
        let (ns, cyc) = jobs
            .iter()
            .filter(|j| j.kernel == kernel)
            .fold((0.0, 0.0), |(ns, cyc), j| {
                (ns + j.kernel_run_s * 1e9, cyc + j.facts.cycles as f64)
            });
        if cyc > 0.0 {
            m.num(&format!("sim.ns_per_cycle.{kernel}"), ns / cyc, "ns");
        }
    }
    m.num("workloads.kernel_run_s", sum(&|j| j.kernel_run_s), "s");
    let report_ms: Vec<f64> = jobs.iter().map(|j| j.report_s * 1e3).collect();
    let report_bytes: Vec<f64> = jobs.iter().map(|j| j.report_bytes as f64).collect();
    m.num("bench.report_ms", median(&report_ms).unwrap_or(0.0), "ms");
    m.num(
        "bench.report_bytes",
        median(&report_bytes).unwrap_or(0.0),
        "bytes",
    );
    m.count("cpu.instructions", instructions as u64);
    m.num(
        "mem.llc_mpki",
        sum(&|j| j.facts.llc_mpki * j.facts.instructions as f64) / instructions,
        "1/kinst",
    );
    let n = jobs.len().max(1) as f64;
    m.num(
        "dram.row_hit_rate",
        sum(&|j| j.facts.row_hit_rate) / n,
        "ratio",
    );
    m.num("dram.bw_util", sum(&|j| j.facts.bw_util) / n, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kernel: &str, machine: Mode) -> JobSpec {
        JobSpec {
            scale: 1e-9,
            ..JobSpec::new(kernel, machine)
        }
    }

    #[test]
    fn documents_round_trip_and_follow_the_seed() {
        let a = sweep_documents(Mode::Dx100, 0.1, job_seed(7, 0));
        assert_eq!(a.len(), 12);
        assert_eq!(a, sweep_documents(Mode::Dx100, 0.1, job_seed(7, 0)));
        assert_ne!(a, sweep_documents(Mode::Dx100, 0.1, job_seed(8, 0)));
        let specs = parse_specs(&a).unwrap();
        assert_eq!(specs[0].kernel, "is");
        assert_eq!(specs[0].scale, 0.1);
        assert!(parse_specs(&["{\"kernel\":\"nope\",\"machine\":\"dx100\"}".into()]).is_err());
    }

    #[test]
    fn job_reports_pass_the_checks_and_repeat() {
        let spec = tiny("pr", Mode::Dx100);
        let a = run_job(&spec).unwrap();
        let b = run_job(&spec).unwrap();
        assert_eq!(a.simulated, b.simulated);
        assert!(a.facts.cycles > 0);
        // The traced split reproduces the simulated statistics.
        let t = traced_job(&spec).unwrap();
        assert_eq!(t.simulated, a.simulated);
        assert_eq!(t.checksum, a.checksum);
        assert_eq!(t.facts, a.facts);
    }

    #[test]
    fn report_checks_reject_wrong_answers() {
        let spec = tiny("is", Mode::Baseline);
        let report = spec.run(1).unwrap();
        assert!(check_job_report(&report, &spec).is_ok());
        // A report for another spec.
        let other = JobSpec {
            seed: 2,
            ..spec.clone()
        };
        assert!(check_job_report(&report, &other)
            .unwrap_err()
            .contains("answers"));
        // A report missing a field the benchmark reads.
        let Json::Obj(mut fields) = report.clone() else {
            panic!("report is an object")
        };
        fields.retain(|(k, _)| k != "checksum");
        assert!(check_job_report(&Json::Obj(fields), &spec).is_err());
    }

    #[test]
    fn simulated_block_ignores_only_telemetry() {
        let a = Json::parse(r#"{"cycles":5,"telemetry":{"skipped_cycles":1}}"#).unwrap();
        let b = Json::parse(r#"{"cycles":5,"telemetry":{"skipped_cycles":2}}"#).unwrap();
        let c = Json::parse(r#"{"cycles":6,"telemetry":{"skipped_cycles":1}}"#).unwrap();
        assert_eq!(simulated_block(&a), simulated_block(&b));
        assert_ne!(simulated_block(&a), simulated_block(&c));
    }

    #[test]
    fn a_panicking_job_is_an_error_not_a_crash() {
        let r: Result<(), String> = guarded(|| panic!("verification failed"));
        assert_eq!(r.unwrap_err(), "panicked: verification failed");
        let r: Result<(), String> = guarded(|| panic!("{}", String::from("owned")));
        assert_eq!(r.unwrap_err(), "panicked: owned");
    }
}
