//! `serve_mix`: the `serve` daemon under a mixed hit/miss load.
//!
//! The daemon runs as a subprocess with a fresh cache directory and
//! `--max-jobs 1`. One load generator (this process) drives 2 closed-loop
//! clients on 2 threads; each request is one connection. Every spec is
//! first requested once (a miss: a simulation plus a cache write), then
//! re-requested about 10 times after it finished (hits: cache reads). A
//! few new specs are sent by both clients at once to exercise coalescing.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dx100_bench::jobspec::kernel_names;
use dx100_bench::JobSpec;
use dx100_common::json::Json;
use dx100_serve::http::request;
use dx100_serve::ResultCache;
use dx100_workloads::Mode;

use crate::jobs::{self, check_job_report, job_seed, splitmix64, traced_job, TracedJob};
use crate::stats::{geomean, median, percentile};
use crate::{another_pass, harness, proc_status_kb, Outcome, RunArgs};

/// Dataset scale of served jobs.
pub const SCALE: f64 = 0.02;
/// Job seeds per (kernel, machine): 12 × 2 × 5 = 120 distinct specs.
const SEEDS: u64 = 5;
/// Hits sent after each miss.
const HITS_PER_MISS: usize = 10;
/// New specs sent by both clients at once.
const COALESCE_ROUNDS: usize = 4;
/// Daemon start-ups per run besides the ones that carry load; `setup_s`
/// is the median over all of them.
const EXTRA_SPAWNS: usize = 15;
/// Hits sent back to back after the traced load, to measure what the
/// daemon keeps per request.
const HIT_BURST: usize = 1000;
/// Result-cache cap passed to the daemon and the in-process probes.
const CACHE_CAP_MB: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Miss,
    Hit,
    Coalesce,
    Health,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    kind: Kind,
    spec: usize,
}

/// What the two clients send: spec documents and each client's steps.
pub struct Plan {
    /// Specs `0..misses` are first requested by one client; the rest are
    /// the coalesced ones.
    misses: usize,
    docs: Vec<String>,
    specs: Vec<JobSpec>,
    clients: [Vec<Step>; 2],
}

impl Plan {
    /// The `serve_mix` load: 120 specs, 10 hits per miss, 4 coalesced specs.
    pub fn mix(seed: u64) -> Result<Plan, String> {
        let mut main = Vec::new();
        for s in 0..SEEDS {
            for machine in [Mode::Baseline, Mode::Dx100] {
                for kernel in kernel_names() {
                    main.push(jobs::spec_document(
                        kernel,
                        machine,
                        SCALE,
                        job_seed(seed, s),
                    ));
                }
            }
        }
        let coalesce = (0..COALESCE_ROUNDS as u64)
            .map(|r| {
                let kernel = kernel_names()[(splitmix64(seed ^ r) % 12) as usize];
                let machine = [Mode::Baseline, Mode::Dx100][r as usize % 2];
                jobs::spec_document(kernel, machine, SCALE, job_seed(seed, 100 + r))
            })
            .collect();
        Plan::build(main, coalesce, seed)
    }

    /// A small load of one machine's 12 kernels with one coalesced spec,
    /// for the serve probes of a sweep's traced run.
    pub fn mini(machine: Mode, seed: u64) -> Result<Plan, String> {
        let main = jobs::sweep_documents(machine, SCALE, job_seed(seed, 0));
        let coalesce = vec![jobs::spec_document(
            "bfs",
            machine,
            SCALE,
            job_seed(seed, 100),
        )];
        Plan::build(main, coalesce, seed)
    }

    fn build(main: Vec<String>, coalesce: Vec<String>, seed: u64) -> Result<Plan, String> {
        let mut rng = seed;
        let mut next = move || {
            rng = splitmix64(rng);
            rng
        };
        // Shuffle the first requests, then deal them to the clients.
        let mut order: Vec<usize> = (0..main.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let per_client = main.len().div_ceil(2);
        let rounds = coalesce.len();
        let mut clients: [Vec<Step>; 2] = [Vec::new(), Vec::new()];
        for (c, steps) in clients.iter_mut().enumerate() {
            let mine: Vec<usize> = order.iter().copied().skip(c).step_by(2).collect();
            let mut done: Vec<usize> = Vec::new();
            let mut round = 0;
            for (k, &spec) in mine.iter().enumerate() {
                steps.push(Step {
                    kind: Kind::Miss,
                    spec,
                });
                done.push(spec);
                for _ in 0..HITS_PER_MISS {
                    let spec = done[(next() % done.len() as u64) as usize];
                    steps.push(Step {
                        kind: Kind::Hit,
                        spec,
                    });
                }
                // Both clients reach coalescing round r after the same
                // number of their own misses.
                while round < rounds && k + 1 >= (round + 1) * per_client / (rounds + 1) {
                    let spec = main.len() + round;
                    steps.push(Step {
                        kind: Kind::Coalesce,
                        spec,
                    });
                    round += 1;
                }
            }
            while round < rounds {
                steps.push(Step {
                    kind: Kind::Coalesce,
                    spec: main.len() + round,
                });
                round += 1;
            }
        }
        let misses = main.len();
        let docs: Vec<String> = main.into_iter().chain(coalesce).collect();
        let specs = jobs::parse_specs(&docs)?;
        Ok(Plan {
            misses,
            docs,
            specs,
            clients,
        })
    }
}

/// A `serve` subprocess; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on a free local port and waits for its first
    /// healthy answer; returns it with the start-up time.
    fn spawn(serve_bin: &Path, cache_dir: &Path) -> Result<(Daemon, f64), String> {
        let mut last = String::new();
        // A port freed here can be taken before the daemon binds it; retry.
        for _ in 0..3 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let t0 = Instant::now();
            let child = Command::new(serve_bin)
                .args(["--addr", &addr, "--max-jobs", "1"])
                .args(["--cache-cap-mb", &CACHE_CAP_MB.to_string()])
                .arg("--cache-dir")
                .arg(cache_dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", serve_bin.display()))?;
            let mut d = Daemon { child, addr };
            loop {
                if let Ok(r) = request(&d.addr, "GET", "/v1/health", None) {
                    if r.status == 200 {
                        return Ok((d, t0.elapsed().as_secs_f64()));
                    }
                }
                if let Ok(Some(status)) = d.child.try_wait() {
                    last = format!("serve exited with {status} before answering");
                    break;
                }
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err("serve did not answer /v1/health within 30 s".to_string());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Err(last)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn health(&self) -> Result<Json, String> {
        let r = request(&self.addr, "GET", "/v1/health", None).map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/v1/health answered {}", r.status));
        }
        Json::parse(r.body.trim_end())
    }

    /// Graceful drain through `/v1/shutdown`, then reap.
    fn shutdown(mut self) -> Result<(), String> {
        request(&self.addr, "POST", "/v1/shutdown", None).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(60) {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("serve exited with {s}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("serve did not exit within 60 s of /v1/shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request as a client saw it.
struct Record {
    kind: Kind,
    spec: usize,
    latency_s: f64,
    response: Result<(u16, String), String>,
}

/// Sends one request and times it from connect until the body is read.
fn send(addr: &str, plan: &Plan, kind: Kind, spec: usize) -> Record {
    let t0 = Instant::now();
    let response = match kind {
        Kind::Health => request(addr, "GET", "/v1/health", None),
        _ => request(addr, "POST", "/v1/jobs", Some(&plan.docs[spec])),
    };
    Record {
        kind,
        spec,
        latency_s: t0.elapsed().as_secs_f64(),
        response: response
            .map(|r| (r.status, r.body))
            .map_err(|e| e.to_string()),
    }
}

/// Drives the plan's two clients; `health_after_miss` adds a
/// `/v1/health` round trip after every miss (the traced load).
fn drive(addr: &str, plan: &Plan, health_after_miss: bool) -> (Vec<Vec<Record>>, f64) {
    let barrier = Barrier::new(2);
    let t0 = Instant::now();
    let records = std::thread::scope(|s| {
        let clients: Vec<_> = plan
            .clients
            .iter()
            .map(|steps| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(steps.len());
                    for step in steps {
                        if step.kind == Kind::Coalesce {
                            barrier.wait();
                        }
                        out.push(send(addr, plan, step.kind, step.spec));
                        if health_after_miss && step.kind == Kind::Miss {
                            out.push(send(addr, plan, Kind::Health, step.spec));
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (records, t0.elapsed().as_secs_f64())
}

/// What one load showed, after its checks.
#[derive(Default)]
struct LoadStats {
    wall_s: f64,
    completed: usize,
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    all_ms: Vec<f64>,
    health_ms: Vec<f64>,
    miss_mcyc_per_s: Vec<f64>,
    /// Spec index → (miss latency s, report body as cached).
    miss_bodies: BTreeMap<usize, (f64, String)>,
    coalesced: u64,
    jobs_simulated: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Daemon resident-memory growth over a burst of hits, per 1,000.
    hit_rss_growth_kb: f64,
    hwm_kb: u64,
}

/// Checks every response and collects the load's figures.
fn check_load(plan: &Plan, records: &[Vec<Record>], out: &mut Outcome) -> LoadStats {
    let mut st = LoadStats::default();
    let mut checksums: BTreeMap<(String, u64), BTreeMap<&str, u64>> = BTreeMap::new();
    let mut coalesce_ids: BTreeMap<usize, Vec<Option<i128>>> = BTreeMap::new();
    for client in records {
        for rec in client {
            let ms = rec.latency_s * 1e3;
            if rec.kind == Kind::Health {
                match &rec.response {
                    Ok((200, _)) => st.health_ms.push(ms),
                    other => out.problem(format!(
                        "/v1/health failed under load: {:?}",
                        other.as_ref().map(|r| r.0)
                    )),
                }
                continue;
            }
            out.attempted += 1;
            let spec = &plan.specs[rec.spec];
            let label = format!(
                "{}/{} seed {}",
                spec.kernel,
                spec.machine.label(),
                spec.seed
            );
            let envelope = match &rec.response {
                Ok((200, body)) => match Json::parse(body.trim_end()) {
                    Ok(v) => v,
                    Err(e) => {
                        out.fail(format!("{label}: unparsable response: {e}"));
                        continue;
                    }
                },
                Ok((status, body)) => {
                    out.fail(format!("{label}: status {status}: {}", body.trim_end()));
                    continue;
                }
                Err(e) => {
                    out.fail(format!("{label}: request failed: {e}"));
                    continue;
                }
            };
            let Some(report) = envelope.get("report") else {
                out.fail(format!("{label}: response has no report"));
                continue;
            };
            let (facts, checksum) = match check_job_report(report, spec) {
                Ok(f) => f,
                Err(e) => {
                    out.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            let cached = envelope.get("cached") == Some(&Json::Bool(true));
            let body = report.to_string() + "\n";
            st.completed += 1;
            st.all_ms.push(ms);
            match rec.kind {
                Kind::Miss => {
                    st.miss_ms.push(ms);
                    st.miss_mcyc_per_s
                        .push(facts.cycles as f64 / rec.latency_s / 1e6);
                    if cached {
                        out.problem(format!("{label}: first request answered from the cache"));
                    }
                    st.miss_bodies.insert(rec.spec, (rec.latency_s, body));
                    checksums
                        .entry((spec.kernel.clone(), spec.seed))
                        .or_default()
                        .insert(spec.machine.label(), checksum);
                }
                Kind::Hit => {
                    st.hit_ms.push(ms);
                    if !cached {
                        out.problem(format!("{label}: re-request was not a cache hit"));
                    }
                    match st.miss_bodies.get(&rec.spec) {
                        Some((_, miss)) if *miss == body => {}
                        _ => out.problem(format!("{label}: hit body differs from the miss body")),
                    }
                }
                Kind::Coalesce => {
                    let id = match envelope.get("job_id") {
                        Some(Json::Int(i)) => Some(*i),
                        _ => None,
                    };
                    coalesce_ids.entry(rec.spec).or_default().push(id);
                    match st.miss_bodies.get(&rec.spec) {
                        Some((_, other)) if *other != body => out.problem(format!(
                            "{label}: concurrent requests got different reports"
                        )),
                        Some(_) => {}
                        None => {
                            st.miss_bodies.insert(rec.spec, (rec.latency_s, body));
                        }
                    }
                }
                Kind::Health => unreachable!("handled above"),
            }
        }
    }
    st.coalesced = coalesce_ids
        .values()
        .filter(|ids| ids.len() == 2 && ids[0].is_some() && ids[0] == ids[1])
        .count() as u64;
    // A kernel's output does not depend on the machine that computed it.
    for ((kernel, seed), by_machine) in &checksums {
        if by_machine.len() == 2 && by_machine.values().min() != by_machine.values().max() {
            out.problem(format!(
                "{kernel} seed {seed}: checksums differ between machines"
            ));
        }
    }
    st
}

/// One load against a fresh daemon and cache directory.
fn load_pass(
    plan: &Plan,
    args: &RunArgs,
    dir: &Path,
    traced: bool,
    out: &mut Outcome,
) -> Option<(LoadStats, f64)> {
    let (daemon, setup_s) = match Daemon::spawn(&args.serve_bin, dir) {
        Ok(d) => d,
        Err(e) => {
            out.problem(e);
            return None;
        }
    };
    let pid = daemon.pid();
    let (mut records, wall_s) = drive(&daemon.addr, plan, traced);
    let mut hit_rss_growth_kb = 0.0;
    if traced {
        // Hits simulate nothing, so what they add to the daemon's memory
        // is what it keeps per request.
        let before = proc_status_kb(&pid, "VmRSS").unwrap_or(0) as f64;
        let burst: Vec<Record> = (0..HIT_BURST)
            .map(|i| send(&daemon.addr, plan, Kind::Hit, i % plan.misses))
            .collect();
        let after = proc_status_kb(&pid, "VmRSS").unwrap_or(0) as f64;
        hit_rss_growth_kb = (after - before) / HIT_BURST as f64 * 1e3;
        records.push(burst);
    }
    let mut st = check_load(plan, &records, out);
    st.wall_s = wall_s;
    st.hit_rss_growth_kb = hit_rss_growth_kb;
    st.hwm_kb = proc_status_kb(&pid, "VmHWM").unwrap_or(0);
    match daemon.health() {
        Ok(h) => {
            let n = |path: &[&str]| {
                path.iter()
                    .try_fold(&h, |v, k| v.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(-1.0) as u64
            };
            st.jobs_simulated = n(&["jobs_simulated"]);
            st.cache_hits = n(&["cache", "hits"]);
            st.cache_misses = n(&["cache", "misses"]);
            if st.jobs_simulated != plan.docs.len() as u64 {
                out.problem(format!(
                    "daemon simulated {} jobs for {} distinct specs",
                    st.jobs_simulated,
                    plan.docs.len()
                ));
            }
        }
        Err(e) => out.problem(e),
    }
    if let Err(e) = daemon.shutdown() {
        out.problem(e);
    }
    Some((st, setup_s))
}

fn fresh_dir(args: &RunArgs, name: &str) -> PathBuf {
    let dir = args.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `serve_mix`.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let plan = match Plan::mix(args.seed) {
        Ok(p) => p,
        Err(e) => {
            out.problem(format!("serve_mix specs do not parse: {e}"));
            return out;
        }
    };
    if args.trace {
        let Some((solo, overhead_pct)) = serve_probes(&plan, args, &mut out) else {
            return out;
        };
        jobs::job_layer_metrics(&solo, &mut out.metrics);
        out.metrics.num("trace.overhead_pct", overhead_pct, "%");
        harness::dataset_metrics(SCALE, job_seed(args.seed, 0), &mut out.metrics);
        harness::component_metrics(&mut out.metrics);
        return out;
    }

    let mut setup_s = Vec::new();
    for i in 0..EXTRA_SPAWNS {
        match Daemon::spawn(&args.serve_bin, &fresh_dir(args, &format!("spawn-{i}"))) {
            Ok((d, s)) => {
                setup_s.push(s);
                if let Err(e) = d.shutdown() {
                    out.problem(e);
                }
            }
            Err(e) => out.problem(e),
        }
    }
    let started = Instant::now();
    let mut passes = Vec::new();
    while another_pass(started, passes.len(), 1, args.seconds) {
        let dir = fresh_dir(args, &format!("pass-{}", passes.len()));
        let Some((st, s)) = load_pass(&plan, args, &dir, false, &mut out) else {
            return out;
        };
        setup_s.push(s);
        passes.push(st);
    }

    let pooled = |f: fn(&LoadStats) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let per_pass = |f: fn(&LoadStats) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let m = &mut out.metrics;
    m.num("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    m.num("sweep_s", per_pass(|p| p.wall_s), "s");
    m.num(
        "jobs_per_s",
        per_pass(|p| p.completed as f64 / p.wall_s),
        "1/s",
    );
    m.num(
        "sim_mcyc_per_s",
        geomean(&pooled(|p| &p.miss_mcyc_per_s)).unwrap_or(0.0),
        "Mcyc/s",
    );
    m.num("rss_mb", per_pass(|p| p.hwm_kb as f64) / 1024.0, "MB");
    out.percentile("miss_ms_p50", &pooled(|p| &p.miss_ms), 50.0);
    out.percentile("op_ms_p50", &pooled(|p| &p.all_ms), 50.0);
    // Tails with enough samples beyond them, for the log.
    for (name, xs, p) in [
        ("hit_ms_p99", pooled(|p| &p.hit_ms), 99.0),
        ("miss_ms_p90", pooled(|p| &p.miss_ms), 90.0),
        ("hit_ms_p50", pooled(|p| &p.hit_ms), 50.0),
    ] {
        match percentile(&xs, p) {
            Ok(v) => eprintln!("serve_mix: {name} = {v:.4} ms over {} samples", xs.len()),
            Err(e) => eprintln!("serve_mix: {name} not reported: {e}"),
        }
    }
    out
}

/// The serve probes of a sweep's traced run, over a small load of that
/// machine's kernels.
pub fn probe_for_sweep(machine: Mode, args: &RunArgs, out: &mut Outcome) {
    match Plan::mini(machine, args.seed) {
        Ok(plan) => {
            serve_probes(&plan, args, out);
        }
        Err(e) => out.problem(format!("serve probe specs do not parse: {e}")),
    }
}

/// The traced serve run: an untraced load, a traced load (a health round
/// trip after every miss), the cache read and write paths in-process,
/// queue wait against solo runs of every spec, and daemon memory growth.
/// Returns the solo runs, split at the crate boundaries, and how far the
/// traced load was slower than the untraced one, in percent.
fn serve_probes(plan: &Plan, args: &RunArgs, out: &mut Outcome) -> Option<(Vec<TracedJob>, f64)> {
    let (plain, _) = load_pass(plan, args, &fresh_dir(args, "plain"), false, out)?;
    let dir = fresh_dir(args, "traced");
    let (st, _) = load_pass(plan, args, &dir, true, out)?;

    // The cache as the daemon left it, opened in-process.
    let open = |dir: PathBuf, out: &mut Outcome| {
        ResultCache::open(&dir, CACHE_CAP_MB << 20)
            .map_err(|e| out.problem(format!("cannot open the cache at {}: {e}", dir.display())))
            .ok()
    };
    let cache = open(dir, out)?;
    let keys: Vec<String> = plan.specs.iter().map(JobSpec::cache_key).collect();
    let mut get_ms = Vec::new();
    for _ in 0..5 {
        for key in &keys {
            let t0 = Instant::now();
            if cache.get(key).is_none() {
                out.problem(format!("cache has no entry {key}"));
            }
            get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    // The same bodies written into a scratch cache (each put scans the
    // directory for eviction).
    let scratch = open(fresh_dir(args, "scratch-cache"), out)?;
    let mut put_ms = Vec::new();
    for (spec, (_, body)) in &st.miss_bodies {
        let t0 = Instant::now();
        if let Err(e) = scratch.put(&keys[*spec], body) {
            out.problem(format!("scratch cache put failed: {e}"));
        }
        put_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Solo runs: queue wait is a miss's latency minus its solo run time.
    let mut solo = Vec::new();
    let mut wait_ms = Vec::new();
    for (i, spec) in plan.specs.iter().enumerate() {
        out.attempted += 1;
        match traced_job(spec) {
            Ok(t) => {
                if let Some((lat, body)) = st.miss_bodies.get(&i) {
                    let served = Json::parse(body.trim_end())
                        .ok()
                        .and_then(|r| r.get("run").map(jobs::simulated_block));
                    if served != Some(Ok(t.simulated.clone())) {
                        out.problem(format!(
                            "{}: served statistics differ from a solo run",
                            spec.kernel
                        ));
                    }
                    if i < plan.misses {
                        wait_ms.push((lat - t.host_s()) * 1e3);
                    }
                }
                solo.push(t);
            }
            Err(e) => out.fail(format!(
                "{}/{} solo: {e}",
                spec.kernel,
                spec.machine.label()
            )),
        }
    }

    let m = &mut out.metrics;
    m.num(
        "serve.health_ms",
        median(&st.health_ms).unwrap_or(0.0),
        "ms",
    );
    m.num("serve.cache_get_ms", median(&get_ms).unwrap_or(0.0), "ms");
    m.num("serve.cache_put_ms", median(&put_ms).unwrap_or(0.0), "ms");
    m.num("serve.queue_wait_ms", median(&wait_ms).unwrap_or(0.0), "ms");
    m.num("serve.rss_growth_kb_per_1k_req", st.hit_rss_growth_kb, "kB");
    m.count("serve.hits", st.cache_hits);
    m.count("serve.misses", st.cache_misses);
    m.count("serve.jobs_simulated", st.jobs_simulated);
    m.count("serve.coalesced", st.coalesced);
    Some((solo, (st.wall_s / plain.wall_s - 1.0) * 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_the_promised_shape() {
        let plan = Plan::mix(3).unwrap();
        assert_eq!(plan.docs.len(), 120 + COALESCE_ROUNDS);
        let steps: Vec<Step> = plan.clients.iter().flatten().copied().collect();
        let count = |k: Kind| steps.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(Kind::Miss), 120);
        assert_eq!(count(Kind::Hit), 1200);
        assert_eq!(count(Kind::Coalesce), 2 * COALESCE_ROUNDS);
        // Every spec is missed exactly once, by one client.
        let mut missed: Vec<usize> = steps
            .iter()
            .filter(|s| s.kind == Kind::Miss)
            .map(|s| s.spec)
            .collect();
        missed.sort();
        assert_eq!(missed, (0..120).collect::<Vec<_>>());
        // Both clients send the coalesced specs in the same order.
        let co = |c: &Vec<Step>| -> Vec<usize> {
            c.iter()
                .filter(|s| s.kind == Kind::Coalesce)
                .map(|s| s.spec)
                .collect()
        };
        assert_eq!(co(&plan.clients[0]), co(&plan.clients[1]));
        // Same seed, same plan; another seed, other specs.
        assert_eq!(Plan::mix(3).unwrap().docs, plan.docs);
        assert_ne!(Plan::mix(4).unwrap().docs, plan.docs);
    }

    #[test]
    fn hits_only_re_request_finished_specs() {
        let plan = Plan::mix(11).unwrap();
        for client in &plan.clients {
            let mut done = std::collections::BTreeSet::new();
            for s in client {
                match s.kind {
                    Kind::Miss => {
                        done.insert(s.spec);
                    }
                    Kind::Hit => assert!(done.contains(&s.spec), "hit before its miss"),
                    _ => {}
                }
            }
        }
    }

    /// A response envelope carrying a report that answers `spec`: a real
    /// tiny report with its `spec` block swapped in.
    fn envelope(spec: &JobSpec, job_id: u64, cached: bool, cycles_delta: i128) -> String {
        let tiny = JobSpec {
            scale: 1e-9,
            ..JobSpec::new("pr", Mode::Dx100)
        };
        let Json::Obj(mut report) = tiny.run(1).unwrap() else {
            panic!("object")
        };
        for (k, v) in report.iter_mut() {
            if k == "spec" {
                *v = spec.to_json();
            }
            if k == "run" {
                if let Json::Obj(run) = v {
                    for (rk, rv) in run.iter_mut() {
                        if let (true, Json::Int(c)) = (rk == "cycles", &mut *rv) {
                            *c += cycles_delta;
                        }
                    }
                }
            }
        }
        Json::Obj(vec![
            ("job_id".to_string(), job_id.into()),
            ("cached".to_string(), cached.into()),
            ("report".to_string(), Json::Obj(report)),
        ])
        .to_string()
    }

    fn rec(kind: Kind, spec: usize, body: String) -> Record {
        Record {
            kind,
            spec,
            latency_s: 0.001,
            response: Ok((200, body)),
        }
    }

    #[test]
    fn the_checks_catch_wrong_answers() {
        let plan = Plan::mini(Mode::Dx100, 5).unwrap();
        let co = plan.misses;
        let good = vec![
            rec(Kind::Miss, 0, envelope(&plan.specs[0], 1, false, 0)),
            rec(Kind::Hit, 0, envelope(&plan.specs[0], 2, true, 0)),
            rec(Kind::Coalesce, co, envelope(&plan.specs[co], 3, false, 0)),
        ];
        let partner = vec![rec(
            Kind::Coalesce,
            co,
            envelope(&plan.specs[co], 3, false, 0),
        )];
        let mut out = Outcome::default();
        let st = check_load(&plan, &[good, partner], &mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!((out.attempted, out.failed, st.coalesced), (4, 0, 1));

        let bad = vec![
            // A hit whose bytes differ from the miss.
            rec(Kind::Miss, 1, envelope(&plan.specs[1], 4, false, 0)),
            rec(Kind::Hit, 1, envelope(&plan.specs[1], 5, true, 1)),
            // A re-request that simulated again.
            rec(Kind::Hit, 1, envelope(&plan.specs[1], 6, false, 0)),
            // A report for another spec, a non-200, a transport error.
            rec(Kind::Miss, 2, envelope(&plan.specs[3], 7, false, 0)),
            Record {
                kind: Kind::Hit,
                spec: 1,
                latency_s: 0.001,
                response: Ok((500, "{}".into())),
            },
            Record {
                kind: Kind::Hit,
                spec: 1,
                latency_s: 0.001,
                response: Err("reset".into()),
            },
        ];
        let mut out = Outcome::default();
        check_load(&plan, &[bad], &mut out);
        assert_eq!((out.attempted, out.failed), (6, 3));
        let all = out.problems.join("\n");
        assert!(all.contains("hit body differs"), "{all}");
        assert!(all.contains("not a cache hit"), "{all}");
        assert!(all.contains("answers"), "{all}");
    }
}
