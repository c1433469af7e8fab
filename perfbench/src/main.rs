//! The repository benchmark.
//!
//! ```text
//! perfbench --workload select|ingest|table1|all --seed N --seconds S --trace 0|1
//!           --daemon-bin PATH --work-dir DIR [--scale ci|tiny]
//! ```
//!
//! `perfbench/run.sh` builds the daemon and this binary from source and
//! passes `--daemon-bin` and `--work-dir`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones untraced, per-layer ones with `--trace 1`).
//! Every line before it is the human-readable report.

mod host;
mod ingest;
mod report;
mod select;
mod spans;
mod table1;
mod wire;

use intune_core::Benchmark;
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::TwoLevelOptions;
use report::{result_line, Metric, Outcome};
use std::path::PathBuf;

/// Worker threads of every learning engine. One: on a 2-vCPU host a
/// second learning thread shares a core with everything else on the box,
/// which makes learn times depend on scheduling.
pub const LEARN_THREADS: usize = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run (`all` runs the three in turn).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// The run's nominal length; the fixed amount of work is sized from it.
    pub seconds: u64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// The `intune_daemon` binary to spawn.
    pub daemon_bin: PathBuf,
    /// Scratch directory for artifacts, logs and span files.
    pub work_dir: PathBuf,
    /// `tiny` shrinks inputs and work for the benchmark's own tests.
    pub tiny: bool,
    /// Flip one byte of one expected `select` reply, so the reply check
    /// must count a failure (the negative control of the tests).
    pub corrupt_expected: bool,
}

impl Opts {
    fn parse() -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            daemon_bin: PathBuf::new(),
            work_dir: PathBuf::new(),
            tiny: false,
            corrupt_expected: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--corrupt-expected" {
                opts.corrupt_expected = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got {value}"))
            };
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = number()?,
                "--seconds" => opts.seconds = number()?.max(1),
                "--trace" => opts.trace = number()? != 0,
                "--daemon-bin" => opts.daemon_bin = PathBuf::from(value),
                "--work-dir" => opts.work_dir = PathBuf::from(value),
                "--scale" => match value.as_str() {
                    "ci" => opts.tiny = false,
                    "tiny" => opts.tiny = true,
                    other => return Err(format!("unknown scale {other}")),
                },
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !["select", "ingest", "table1", "all"].contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be select, ingest, table1 or all, got `{}`",
                opts.workload
            ));
        }
        if opts.work_dir.as_os_str().is_empty() {
            return Err("--work-dir is required".to_string());
        }
        if opts.workload != "table1" && !opts.daemon_bin.is_file() {
            return Err(format!(
                "--daemon-bin `{}` is not a file",
                opts.daemon_bin.display()
            ));
        }
        Ok(opts)
    }

    /// The suite of corpus `j`: every workload's inputs come from the
    /// run's seed, and a workload that needs more inputs than one corpus
    /// holds draws corpora 1, 2, ... next to corpus 0.
    pub fn suite_for(&self, j: usize) -> SuiteConfig {
        SuiteConfig {
            seed: self.seed.wrapping_mul(1000).wrapping_add(j as u64),
            ..self.suite_scale()
        }
    }

    /// The learning options `visit_case` hands `case` at the suite's
    /// default seed: the run's seed drives the inputs, never the
    /// learner's own randomness, so runs differ only in what they learn
    /// from.
    pub fn learn_opts(&self, case: TestCase) -> TwoLevelOptions {
        struct OptionsOnly;
        impl CaseVisitor for OptionsOnly {
            type Output = TwoLevelOptions;
            fn visit<B: Benchmark + Sync>(
                &mut self,
                _case: TestCase,
                _benchmark: &B,
                _train: &[B::Input],
                _test: &[B::Input],
                opts: &TwoLevelOptions,
                _engine: &Engine,
            ) -> intune_core::Result<TwoLevelOptions> {
                Ok(opts.clone())
            }
        }
        let tiny = SuiteConfig {
            train: 2,
            test: 2,
            ..self.suite_scale()
        };
        visit_case(case, &tiny, &Engine::serial(), &mut OptionsOnly)
            .expect("learning options of a suite case")
    }

    /// Corpus 0 of the run's seed.
    pub fn suite(&self) -> SuiteConfig {
        self.suite_for(0)
    }

    fn suite_scale(&self) -> SuiteConfig {
        if self.tiny {
            SuiteConfig {
                train: 24,
                test: 16,
                clusters: 4,
                ea_population: 8,
                ea_generations: 4,
                folds: 2,
                sort_n: (64, 256),
                cluster_n: (60, 120),
                pack_n: (40, 120),
                svd_n: (8, 12),
                pde2_sizes: vec![7],
                pde3_sizes: vec![3],
                ..SuiteConfig::ci()
            }
        } else {
            SuiteConfig::ci()
        }
    }

    /// Scales a per-second amount of work to the run's length.
    pub fn per_run(&self, per_second: u64, tiny: u64) -> u64 {
        if self.tiny {
            tiny
        } else {
            per_second * self.seconds
        }
    }

    /// A fresh directory for one workload's files.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self
            .work_dir
            .join(format!("{name}-{}-{}", self.seed, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }

    /// Writes the traced run's spans next to the other run outputs.
    pub fn write_spans(&self, tracer: &spans::Tracer) {
        let path = self
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run_one(opts: &Opts, workload: &str) -> Outcome {
    let opts = Opts {
        workload: workload.to_string(),
        ..opts.clone()
    };
    println!("== workload {workload} (seed {})", opts.seed);
    let sampler = host::Sampler::start();
    let mut outcome = match workload {
        "select" => select::run(&opts),
        "ingest" => ingest::run(&opts),
        _ => table1::run(&opts),
    };
    let speed = sampler.stop();
    let measured = std::mem::take(&mut outcome.end_to_end);
    outcome.end_to_end = report::at_nominal(&measured, &speed);
    outcome
        .per_layer
        .push(Metric::new("host.ref_ms", speed.reference_s * 1e3, "ms"));
    for c in &outcome.checks {
        println!(
            "check {:<40} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    print_metrics("end-to-end as measured (untraced):", &measured);
    println!(
        "host: reference kernel {:.3} ms (mean of {} runs; nominal {} ms)",
        speed.reference_s * 1e3,
        speed.samples,
        host::NOMINAL_REFERENCE_S * 1e3
    );
    print_metrics(
        "end-to-end at nominal host speed (reported):",
        &outcome.end_to_end,
    );
    if opts.trace {
        println!("untraced vs traced:");
        for (name, untraced, traced, unit) in &outcome.overhead {
            println!(
                "  {:<28} {:>16.6} {:>16.6} {} ({:+.1}%)",
                name,
                untraced,
                traced,
                unit,
                100.0 * (traced / untraced - 1.0)
            );
        }
        print_metrics("per-layer (traced):", &outcome.per_layer);
    }
    outcome
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--reference-sampler") {
        host::run_sampler();
        return;
    }
    let opts = Opts::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&opts.work_dir).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(2);
    });
    let info = host::HostInfo::collect();
    println!(
        "host: nproc {} of {} online | profile {} | {} | learning threads {LEARN_THREADS}",
        info.nproc, info.online, info.profile, info.rustc
    );
    let workloads: Vec<&str> = match opts.workload.as_str() {
        "all" => vec!["select", "ingest", "table1"],
        one => vec![one],
    };
    let outcomes: Vec<Outcome> = workloads.iter().map(|w| run_one(&opts, w)).collect();
    // Steal is the first thing to check when a run is an outlier.
    for (w, o) in workloads.iter().zip(&outcomes) {
        if let Some(steal) = o.per_layer.iter().find(|m| m.name == "host.steal_pct") {
            println!("host: {w} steal {:.2}%", steal.value);
        }
    }
    let merged = Outcome {
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        checks: outcomes.iter().flat_map(|o| o.checks.clone()).collect(),
        ..Outcome::default()
    };
    // One workload prints its metrics under their declared names; `all`
    // prefixes each with its workload.
    let prefixed = workloads.len() > 1;
    let metrics: Vec<Metric> = workloads
        .iter()
        .zip(&outcomes)
        .flat_map(|(w, o)| {
            o.declared(opts.trace).into_iter().map(move |m| Metric {
                name: if prefixed {
                    format!("{w}.{}", m.name)
                } else {
                    m.name.clone()
                },
                ..m
            })
        })
        .collect();
    println!("{}", result_line(&merged, &metrics));
}
