//! The shared job specification: one (kernel × machine × scale × mode
//! flags) description that the CLI (`job` binary, figure sweeps) and the
//! `dx100-serve` daemon both resolve into *the same* `SystemConfig` and
//! driver — the guarantee that a served result is byte-identical to the
//! local run of the same job.
//!
//! A [`JobSpec`] holds exactly the knobs that determine the report bytes:
//! kernel, machine, scale, seed, and the mode flags (`cycle_skip`,
//! `profile`, `epoch`). Execution-only knobs — such as whether the HTTP
//! client waits — are *not* part of the spec: they are invisible in the
//! output, so including them would only fragment the result cache.
//! [`JobSpec::cache_key`] hashes the canonical JSON form
//! ([`JobSpec::to_json`], fixed field order) with FNV-1a 64
//! (`dx100_common::hash`), and [`JobSpec::run`] produces the versioned
//! report the cache stores verbatim.
//!
//! A spec resolves to a [`Job`]: a kernel on a built machine. `Job` is the
//! one way anything in the harness runs a kernel — the figure sweeps build
//! lists of them (with their own machine variants: tile sizes, core
//! counts, ablated engines) and run them on the worker pool.

use std::path::PathBuf;

use dx100_common::hash::{fnv1a_64, hex16};
use dx100_common::json::{obj, Json};
use dx100_sim::report::SCHEMA_VERSION;
use dx100_sim::{ObservabilityConfig, SystemConfig};
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale, WorkloadResult};

/// Builds the machine configuration for `mode` — the single place the
/// paper's three machines are constructed for measurement, shared by the
/// figure sweeps, the `job` CLI, and the serve daemon.
pub fn machine_config(mode: Mode) -> SystemConfig {
    match mode {
        Mode::Baseline => SystemConfig::paper_baseline(),
        Mode::Dx100 => SystemConfig::paper_dx100(),
        Mode::Dmp => SystemConfig::paper_dmp(),
    }
}

/// Parses a machine label (`baseline` / `dmp` / `dx100`).
pub fn machine_from_label(label: &str) -> Result<Mode, String> {
    Mode::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| format!("unknown machine `{label}` (want baseline, dmp, or dx100)"))
}

/// The 12 kernel names, in sweep order.
pub fn kernel_names() -> Vec<&'static str> {
    // Constructors only record sizes; building the set to list names is
    // cheap (datasets are generated inside `run`).
    all_kernels(Scale(1.0)).iter().map(|k| k.name()).collect()
}

/// Instantiates the named kernel at `scale`.
pub fn find_kernel(name: &str, scale: Scale) -> Result<Box<dyn KernelRun + Send + Sync>, String> {
    all_kernels(scale)
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown kernel `{name}` (want one of {})",
                kernel_names().join(", ")
            )
        })
}

/// One kernel run on one built machine: the unit of work of every figure
/// sweep, the `job` CLI and the daemon. Owned and `Send + 'static`, so a
/// batch of jobs runs on the worker pool.
#[derive(Debug)]
pub struct Job {
    /// Kernel name (one of [`kernel_names`]).
    pub kernel: String,
    /// Dataset scale factor.
    pub scale: f64,
    /// Which implementation of the kernel runs (baseline / dmp / dx100).
    pub mode: Mode,
    /// Dataset seed.
    pub seed: u64,
    /// The machine.
    pub cfg: SystemConfig,
}

impl Job {
    /// Builds the dataset, simulates the kernel, and verifies its output.
    ///
    /// # Panics
    /// Panics on an unknown kernel name ([`JobSpec::job`] validates), and
    /// when the kernel's output fails verification.
    pub fn run(&self) -> WorkloadResult {
        find_kernel(&self.kernel, Scale(self.scale))
            .unwrap_or_else(|e| panic!("{e}"))
            .run(self.mode, &self.cfg, self.seed)
    }
}

/// A fully resolved simulation job. See the module docs for what is (and
/// deliberately is not) part of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Kernel name (one of [`kernel_names`]).
    pub kernel: String,
    /// Machine to run it on.
    pub machine: Mode,
    /// Dataset scale factor (> 0; 1.0 is the repo's default size).
    pub scale: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Event-driven cycle skipping (bit-identical stats either way, but
    /// the skip telemetry differs, so it is part of the spec).
    pub cycle_skip: bool,
    /// Cycle-attribution profiling (adds the `profile` report section).
    pub profile: bool,
    /// Epoch time-series sampling every N cycles.
    pub epoch: Option<u64>,
}

impl JobSpec {
    /// A job with the default mode flags (cycle skip on, profiling and
    /// epoch sampling off).
    pub fn new(kernel: impl Into<String>, machine: Mode) -> Self {
        JobSpec {
            kernel: kernel.into(),
            machine,
            scale: 1.0,
            seed: 1,
            cycle_skip: true,
            profile: false,
            epoch: None,
        }
    }

    /// Validates the resolvable parts of the spec (kernel name, scale,
    /// epoch) without running anything.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("invalid scale {}", self.scale));
        }
        if self.epoch == Some(0) {
            return Err("epoch must be positive".to_string());
        }
        if !kernel_names().contains(&self.kernel.as_str()) {
            return Err(format!(
                "unknown kernel `{}` (want one of {})",
                self.kernel,
                kernel_names().join(", ")
            ));
        }
        Ok(())
    }

    /// The canonical JSON form: fixed field order, every field present.
    /// This is the content-hash input *and* the `spec` block of the
    /// report, so its serialization is part of the cache format.
    pub fn to_json(&self) -> Json {
        obj([
            ("kernel", self.kernel.as_str().into()),
            ("machine", self.machine.label().into()),
            ("scale", self.scale.into()),
            ("seed", self.seed.into()),
            ("cycle_skip", self.cycle_skip.into()),
            ("profile", self.profile.into()),
            ("epoch", self.epoch.into()),
        ])
    }

    /// Parses a spec from JSON. Strict: `kernel` and `machine` are
    /// required, every other field is optional with the [`JobSpec::new`]
    /// defaults, and unknown fields are errors (a typo'd flag silently
    /// meaning "default" would poison the cache key space).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => return Err("job spec must be a JSON object".to_string()),
        };
        const KNOWN: [&str; 7] = [
            "kernel",
            "machine",
            "scale",
            "seed",
            "cycle_skip",
            "profile",
            "epoch",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown job spec field `{k}`"));
            }
        }
        let str_field = |key: &str| -> Result<&str, String> {
            v.get(key)
                .ok_or_else(|| format!("job spec missing `{key}`"))?
                .as_str()
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let bool_field = |key: &str, default: bool| -> Result<bool, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("`{key}` must be a boolean")),
            }
        };
        let mut spec = JobSpec::new(
            str_field("kernel")?,
            machine_from_label(str_field("machine")?)?,
        );
        if let Some(s) = v.get("scale") {
            spec.scale = s.as_f64().ok_or("`scale` must be a number")?;
        }
        if let Some(s) = v.get("seed") {
            match s {
                Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => spec.seed = *i as u64,
                _ => return Err("`seed` must be a non-negative integer".to_string()),
            }
        }
        spec.cycle_skip = bool_field("cycle_skip", spec.cycle_skip)?;
        spec.profile = bool_field("profile", spec.profile)?;
        spec.epoch = match v.get("epoch") {
            None | Some(Json::Null) => None,
            Some(Json::Int(i)) if *i > 0 => Some(*i as u64),
            Some(_) => return Err("`epoch` must be a positive integer or null".to_string()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// FNV-1a 64 over the canonical serialization.
    pub fn content_hash(&self) -> u64 {
        fnv1a_64(self.to_json().to_string().as_bytes())
    }

    /// The content hash as the fixed-width hex cache key.
    pub fn cache_key(&self) -> String {
        hex16(self.content_hash())
    }

    /// The `SystemConfig` this spec resolves to: the machine for
    /// [`Self::machine`] with the spec's mode flags applied. Traces are
    /// never recorded for jobs (a trace buffer in a cached report would
    /// dwarf the stats it annotates); `--trace` stays a figure-binary
    /// affair.
    pub fn resolved_config(&self) -> SystemConfig {
        let mut cfg = machine_config(self.machine);
        cfg.cycle_skip = self.cycle_skip;
        cfg.obs = ObservabilityConfig {
            epoch_cycles: self.epoch,
            profile: self.profile,
            ..ObservabilityConfig::default()
        };
        cfg
    }

    /// The validated [`Job`] this spec resolves to.
    pub fn job(&self) -> Result<Job, String> {
        self.validate()?;
        Ok(Job {
            kernel: self.kernel.clone(),
            scale: self.scale,
            mode: self.machine,
            seed: self.seed,
            cfg: self.resolved_config(),
        })
    }

    /// Runs the job and produces its versioned report — the exact bytes
    /// (after serialization) the serve cache stores and replays. Every job
    /// is one full-fidelity run; `_threads` is unused and kept so existing
    /// callers compile unchanged.
    pub fn run(&self, _threads: usize) -> Result<Json, String> {
        let w = self.job()?.run();
        Ok(obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "job".into()),
            ("spec", self.to_json()),
            ("mode", "full".into()),
            ("checksum", w.checksum.into()),
            ("run", crate::run_json(&w)),
        ]))
    }
}

/// Parsed `job` binary command line: the spec plus the report destination.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCli {
    /// The job to run.
    pub spec: JobSpec,
    /// Report destination (`-`/absent = stdout).
    pub json: Option<PathBuf>,
}

impl JobCli {
    /// Usage string for the `job` binary's error paths.
    pub const USAGE: &'static str = "usage: job --kernel <name> --machine <baseline|dmp|dx100> \
         [--scale <f>] [--seed <n>] [--no-cycle-skip] [--profile] \
         [--epoch <cycles>] [--json <path>]";

    /// Fallible parser over an explicit argument list (testable). Same
    /// strictness as the spec's JSON parser: unknown or duplicate flags
    /// and missing/invalid values are errors.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<JobCli, String> {
        let mut kernel: Option<String> = None;
        let mut machine: Option<Mode> = None;
        let mut out = JobCli {
            spec: JobSpec::new("", Mode::Baseline),
            json: None,
        };
        let mut seen: Vec<&'static str> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let flag: &'static str = match arg.as_str() {
                "--kernel" => "--kernel",
                "--machine" => "--machine",
                "--scale" => "--scale",
                "--seed" => "--seed",
                "--no-cycle-skip" => "--no-cycle-skip",
                "--profile" => "--profile",
                "--epoch" => "--epoch",
                "--json" => "--json",
                other => return Err(format!("unknown argument `{other}`")),
            };
            if seen.contains(&flag) {
                return Err(format!("duplicate flag {flag}"));
            }
            seen.push(flag);
            let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag {
                "--kernel" => kernel = Some(value()?),
                "--machine" => machine = Some(machine_from_label(&value()?)?),
                "--scale" => {
                    let v = value()?;
                    out.spec.scale = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("invalid --scale value `{v}`"))?;
                }
                "--seed" => {
                    let v = value()?;
                    out.spec.seed = v
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --seed value `{v}`"))?;
                }
                "--no-cycle-skip" => out.spec.cycle_skip = false,
                "--profile" => out.spec.profile = true,
                "--epoch" => {
                    let v = value()?;
                    out.spec.epoch = Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|e| *e > 0)
                            .ok_or_else(|| format!("invalid --epoch value `{v}`"))?,
                    );
                }
                "--json" => {
                    let v = value()?;
                    if v != "-" {
                        out.json = Some(PathBuf::from(v));
                    }
                }
                _ => unreachable!(),
            }
        }
        out.spec.kernel = kernel.ok_or("--kernel is required")?;
        out.spec.machine = machine.ok_or("--machine is required")?;
        out.spec.validate()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kernel: &str, machine: Mode) -> JobSpec {
        JobSpec {
            scale: 1e-9,
            ..JobSpec::new(kernel, machine)
        }
    }

    #[test]
    fn canonical_json_round_trips_and_hash_is_stable() {
        let s = JobSpec {
            profile: true,
            epoch: Some(5000),
            seed: 7,
            ..spec("is", Mode::Dx100)
        };
        let j = s.to_json();
        assert_eq!(JobSpec::from_json(&j).unwrap(), s);
        // The canonical string (and so the key) is insensitive to how the
        // spec JSON was spelled: defaults made explicit, fields reordered.
        let reordered = Json::parse(
            r#"{"seed":7,"machine":"dx100","epoch":5000,"profile":true,
                "kernel":"is","scale":0.000000001}"#,
        )
        .unwrap();
        let s2 = JobSpec::from_json(&reordered).unwrap();
        assert_eq!(s2.cache_key(), s.cache_key());
        assert_eq!(s2.to_json().to_string(), s.to_json().to_string());
    }

    #[test]
    fn defaults_are_applied_and_hash_distinguishes_flags() {
        let minimal =
            JobSpec::from_json(&Json::parse(r#"{"kernel":"pr","machine":"baseline"}"#).unwrap())
                .unwrap();
        assert_eq!(minimal.scale, 1.0);
        assert_eq!(minimal.seed, 1);
        assert!(minimal.cycle_skip);
        assert!(!minimal.profile);
        let mut other = minimal.clone();
        other.profile = true;
        assert_ne!(minimal.cache_key(), other.cache_key());
        let mut skipless = minimal.clone();
        skipless.cycle_skip = false;
        assert_ne!(minimal.cache_key(), skipless.cache_key());
    }

    #[test]
    fn from_json_rejects_bad_specs() {
        for (doc, want) in [
            (r#"{"machine":"dx100"}"#, "missing `kernel`"),
            (r#"{"kernel":"is"}"#, "missing `machine`"),
            (r#"{"kernel":"nope","machine":"dx100"}"#, "unknown kernel"),
            (r#"{"kernel":"is","machine":"gpu"}"#, "unknown machine"),
            (r#"{"kernel":"is","machine":"dx100","scale":0}"#, "scale"),
            (r#"{"kernel":"is","machine":"dx100","epoch":0}"#, "epoch"),
            (r#"{"kernel":"is","machine":"dx100","seed":-1}"#, "seed"),
            (
                r#"{"kernel":"is","machine":"dx100","threads":4}"#,
                "unknown job spec field",
            ),
            (
                r#"{"kernel":"is","machine":"dx100","wait":true}"#,
                "unknown job spec field",
            ),
            (
                r#"{"kernel":"is","machine":"dx100","sample":true}"#,
                "unknown job spec field",
            ),
            (r#"[1,2]"#, "object"),
        ] {
            let err = JobSpec::from_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn machine_config_matches_paper_machines() {
        // The extraction point: everything measuring the paper machines
        // must agree with these shapes.
        assert!(machine_config(Mode::Baseline).dx100.is_none());
        assert_eq!(
            machine_config(Mode::Dx100).hierarchy.llc.size_bytes,
            8 * 1024 * 1024
        );
        assert!(machine_config(Mode::Dmp).dmp.is_some());
        assert_eq!(kernel_names().len(), 12);
        assert!(find_kernel("is", Scale(1e-9)).is_ok());
        assert!(find_kernel("bogus", Scale(1e-9)).is_err());
    }

    #[test]
    fn cli_and_json_paths_build_identical_specs() {
        let cli = JobCli::try_parse(
            [
                "--kernel",
                "is",
                "--machine",
                "dx100",
                "--scale",
                "0.000000001",
                "--seed",
                "3",
                "--profile",
                "--epoch",
                "5000",
            ]
            .map(String::from),
        )
        .unwrap();
        let json = JobSpec::from_json(
            &Json::parse(
                r#"{"kernel":"is","machine":"dx100","scale":1e-9,"seed":3,
                    "profile":true,"epoch":5000}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(cli.spec, json);
        assert_eq!(cli.spec.cache_key(), json.cache_key());
    }

    #[test]
    fn cli_rejects_malformed_input() {
        let parse = |args: &[&str]| JobCli::try_parse(args.iter().map(|s| s.to_string()));
        assert!(parse(&[]).unwrap_err().contains("--kernel"));
        assert!(parse(&["--kernel", "is"])
            .unwrap_err()
            .contains("--machine"));
        assert!(
            parse(&["--kernel", "is", "--machine", "dx100", "--kernel", "is"])
                .unwrap_err()
                .contains("duplicate")
        );
        assert!(parse(&["--kernel", "is", "--machine", "dx100", "--scale", "0"]).is_err());
        assert!(parse(&["--kernel", "is", "--machine", "dx100", "--frob"]).is_err());
        assert!(parse(&["--kernel", "is", "--machine", "dx100", "--sample"]).is_err());
        assert!(parse(&["--kernel", "is", "--machine", "dx100", "--threads", "2"]).is_err());
    }

    #[test]
    fn job_reports_are_deterministic() {
        let s = spec("is", Mode::Dx100);
        let a = s.run(1).unwrap().to_string();
        let b = s.run(1).unwrap().to_string();
        assert_eq!(a, b, "repeat runs must be byte-identical");
    }

    #[test]
    fn full_job_report_has_the_run_schema() {
        let report = spec("pr", Mode::Baseline).run(1).unwrap();
        let parsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("job"));
        assert_eq!(parsed.get("mode").and_then(Json::as_str), Some("full"));
        let run = parsed.get("run").unwrap();
        for key in ["cycles", "instructions", "dram", "caches", "telemetry"] {
            assert!(run.get(key).is_some(), "run missing {key}");
        }
        let spec_block = parsed.get("spec").unwrap();
        assert_eq!(spec_block.get("kernel").and_then(Json::as_str), Some("pr"));
    }
}
