//! `sweep_baseline` and `sweep_dx100`: the 12 kernels on one machine,
//! closed loop, one job at a time on one thread, in-process through
//! `JobSpec::run`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use dx100_bench::{jobspec, JobSpec};
use dx100_workloads::Mode;

use crate::jobs::{self, run_job, traced_job, JobSample};
use crate::stats::{geomean, median};
use crate::{another_pass, harness, serve_mix, Outcome, RunArgs};

/// Dataset scale of the sweeps: most datasets fit the 8–10 MB LLC.
pub const SCALE: f64 = 0.1;
/// Passes per run at least: the second repeats the first, so the run can
/// check that the simulated statistics repeat, and the passes together
/// give 24 job latencies, enough for a median with ten beyond it. A run
/// adds passes while they fit in `--seconds`.
const MIN_PASSES: usize = 2;

/// Runs one sweep workload.
pub fn run(machine: Mode, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let docs = jobs::sweep_documents(machine, SCALE, jobs::job_seed(args.seed, 0));

    let specs = match jobs::parse_specs(&docs) {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("sweep specs do not parse: {e}"));
            return out;
        }
    };

    if args.trace {
        traced(&specs, args, &mut out);
        return out;
    }

    let started = Instant::now();
    let mut passes: Vec<Vec<Option<JobSample>>> = Vec::new();
    let mut setup_s = Vec::new();
    while another_pass(started, passes.len(), MIN_PASSES, args.seconds) {
        let t0 = Instant::now();
        let mut pass = Vec::with_capacity(specs.len());
        for spec in &specs {
            // A set-up sample before every job spreads them over the run.
            match setup_time(machine, args.seed) {
                Ok(t) => setup_s.push(t),
                Err(e) => out.problem(e),
            }
            pass.push(take(run_job(spec), spec, &mut out));
        }
        passes.push(pass);
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("{}: pass {} took {secs:.3} s", args.workload, passes.len());
    }
    check_repeats(&passes, &mut out);

    let ok: Vec<&JobSample> = passes.iter().flatten().flatten().collect();
    let lat_ms: Vec<f64> = ok.iter().map(|j| j.host_s * 1e3).collect();
    let mut per_kernel: BTreeMap<&str, Vec<&JobSample>> = BTreeMap::new();
    for j in &ok {
        per_kernel.entry(&j.kernel).or_default().push(j);
    }
    // Each job's medians over the passes filter one slow pass of a job.
    let job_median = |f: fn(&JobSample) -> f64| -> Vec<f64> {
        per_kernel
            .values()
            .map(|js| median(&js.iter().map(|j| f(j)).collect::<Vec<_>>()).unwrap_or(f64::NAN))
            .collect()
    };
    let job_s = job_median(|j| j.host_s);
    let job_cycles = job_median(|j| j.facts.cycles as f64);
    let job_peak_kb = job_median(|j| j.peak_kb as f64);
    let mcyc_per_s: Vec<f64> = job_cycles
        .iter()
        .zip(&job_s)
        .map(|(c, s)| c / s / 1e6)
        .collect();

    let m = &mut out.metrics;
    m.num("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    let sweep_s: f64 = job_s.iter().sum();
    m.num("sweep_s", sweep_s, "s");
    m.num(
        "jobs_per_s",
        ok.len() as f64 / passes.len() as f64 / sweep_s,
        "1/s",
    );
    m.num(
        "sim_mcyc_per_s",
        geomean(&mcyc_per_s).unwrap_or(0.0),
        "Mcyc/s",
    );
    m.num(
        "rss_mb",
        job_peak_kb.iter().copied().fold(0.0, f64::max) / 1024.0,
        "MB",
    );
    out.percentile("miss_ms_p50", &lat_ms, 50.0);
    out.percentile("op_ms_p50", &lat_ms, 50.0);
    out
}

/// The sweep's set-up as a user meets it: from starting a process to the
/// moment it would start the first job, having turned the generated
/// documents into validated specs (see [`setup_probe`]).
fn setup_time(machine: Mode, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .args(["setup-probe", machine.label(), &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
    let mut ready = [0u8; 1];
    let read = child.stdout.take().expect("piped").read_exact(&mut ready);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match (read, status.success()) {
        (Ok(()), true) if ready == *b"r" => Ok(elapsed),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

/// The child side of [`setup_time`]: builds the sweep's specs, then
/// reports ready and exits.
pub fn setup_probe(machine: &str, seed: &str) -> Result<(), String> {
    let machine = jobspec::machine_from_label(machine)?;
    let seed: u64 = seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?;
    let docs = jobs::sweep_documents(machine, SCALE, jobs::job_seed(seed, 0));
    std::hint::black_box(jobs::parse_specs(&docs)?);
    let mut stdout = std::io::stdout();
    stdout
        .write_all(b"r")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())
}

/// Counts a job as attempted, and as failed unless it produced a checked
/// report.
fn take<T>(r: Result<T, String>, spec: &JobSpec, out: &mut Outcome) -> Option<T> {
    out.attempted += 1;
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            out.fail(format!("{}/{}: {e}", spec.kernel, spec.machine.label()));
            None
        }
    }
}

/// Every pass of one seed must simulate exactly what the first did.
fn check_repeats(passes: &[Vec<Option<JobSample>>], out: &mut Outcome) {
    let Some(first) = passes.first() else {
        return;
    };
    for later in &passes[1..] {
        for (a, b) in first.iter().zip(later) {
            if let (Some(a), Some(b)) = (a, b) {
                if a.simulated != b.simulated || a.checksum != b.checksum {
                    out.problem(format!(
                        "{}: simulated statistics differ between passes",
                        a.kernel
                    ));
                }
            }
        }
    }
}

/// The traced run: every job once through `JobSpec::run` and once split
/// at the crate boundaries (alternating which goes first, so drift in the
/// host does not read as overhead), whose simulated statistics must match;
/// then the component harness, the dataset generators, and the serve
/// probes over this machine's kernels at the serve scale.
fn traced(specs: &[JobSpec], args: &RunArgs, out: &mut Outcome) {
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut traced = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (plain, split) = if i % 2 == 0 {
            let plain = take(run_job(spec), spec, out);
            (plain, take(traced_job(spec), spec, out))
        } else {
            let split = take(traced_job(spec), spec, out);
            (take(run_job(spec), spec, out), split)
        };
        let (Some(p), Some(t)) = (plain, split) else {
            continue;
        };
        if p.simulated != t.simulated || p.checksum != t.checksum {
            out.problem(format!(
                "{}: tracing changed the simulated statistics",
                p.kernel
            ));
        }
        plain_s += p.host_s;
        traced_s += t.host_s();
        traced.push(t);
    }
    jobs::job_layer_metrics(&traced, &mut out.metrics);
    out.metrics.num(
        "trace.overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        "%",
    );
    harness::dataset_metrics(SCALE, jobs::job_seed(args.seed, 0), &mut out.metrics);
    harness::component_metrics(&mut out.metrics);
    serve_mix::probe_for_sweep(specs[0].machine, args, out);
}
