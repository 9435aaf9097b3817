//! The repository benchmark: one command per workload that measures the
//! compiler, the batch service and the oracles, checks every output
//! against a reference the compiler did not produce, and prints one
//! JSON result line.
//!
//! ```text
//! python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//! python3 perfbench/run.py --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! workload's compiles call by call and prints the per-layer rows.
//! `--smoke` runs every workload at its smallest size, traced and
//! untraced, with every output check on. See `perfbench/README.md`.

mod alloc;
mod batch;
mod checks;
mod cold;
mod compiles;
mod gauge;
mod inputs;
mod ladder;
mod layers;
mod oracle;
mod stages;
mod stats;

use std::time::{Duration, Instant};

use velus::{ArtifactKind, ServiceArtifact, StagedPipeline, TestIo, VelusError};

use crate::inputs::Program;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 12] = [
    "setup_s",
    "compile_ms_p50",
    "compile_ms_p99",
    "ns_per_src_byte",
    "c_bytes_per_src_byte",
    "step_wcet_cycles",
    "peak_rss_mb",
    "cold_prog_per_s",
    "warm_prog_per_s",
    "request_ms_p50",
    "request_ms_p99",
    "seeds_per_s",
];

/// Where runs leave their scratch files and Chrome traces, inside the
/// checkout's build directory.
pub fn work_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_build/perfbench")
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Smallest inputs, fewest repetitions.
    pub smoke: bool,
}

impl Ctx {
    /// How many times set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            9
        }
    }

    /// A share of the run's measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        self.budget.mul_f64(fraction)
    }
}

/// Outcomes and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted operation or output check; a wrong outcome
    /// is counted as failed and described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: wrong outcome: {}", what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `setup` `reps` times and returns the last result with the
/// median duration in seconds at full host speed (see [`gauge`]).
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut gauge = gauge::Gauge::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        last = Some(setup()?);
        let secs = start.elapsed().as_secs_f64();
        times.push(secs / gauge.bracket());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times),
    ))
}

/// The compile a user's `velus compile FILE --emit KINDS` runs: the
/// staged pipeline, then every requested artifact.
pub fn compile(
    p: &Program,
    kinds: &[ArtifactKind],
) -> Result<Vec<(ArtifactKind, ServiceArtifact)>, VelusError> {
    let mut observe = |_, _| {};
    let mut staged = StagedPipeline::from_source(&p.source, p.root.as_deref(), &mut observe)?;
    velus::artifacts::produce(&mut staged, kinds, TestIo::Volatile, &p.source)
}

/// The text `velus compile` writes for a set of artifacts: each one
/// rendered, with a header per artifact when there are several.
pub fn render(artifacts: &[(ArtifactKind, ServiceArtifact)]) -> String {
    let mut out = String::new();
    for (kind, artifact) in artifacts {
        if artifacts.len() > 1 {
            out.push_str(&format!("== {kind} ==\n"));
        }
        out.push_str(&artifact.render());
    }
    out
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match arg(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("missing {flag}")),
    }
}

pub const WORKLOADS: [&str; 4] = [
    "cold_compile",
    "scaling_ladder",
    "batch_mix",
    "oracle_campaign",
];

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = match name {
        "cold_compile" => cold::run(ctx)?,
        "scaling_ladder" => ladder::run(ctx)?,
        "batch_mix" => batch::run(ctx)?,
        "oracle_campaign" => oracle::run(ctx)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    if !ctx.trace {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        // Emit in the canonical order; every workload must produce each.
        let mut ordered = Vec::with_capacity(END_TO_END.len());
        for metric in END_TO_END {
            let Some(pos) = report.metrics.iter().position(|m| m.0 == metric) else {
                return Err(format!("{name}: metric {metric} not measured"));
            };
            ordered.push(report.metrics.swap_remove(pos));
        }
        report.metrics = ordered;
    }
    if let Some((metric, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name}: metric {metric} measured {value}"));
    }
    Ok(report)
}

/// Whether a metric is a count: the same inputs must give the same
/// value on every run.
fn is_count(name: &str) -> bool {
    matches!(
        name,
        "c_bytes_per_src_byte"
            | "step_wcet_cycles"
            | "lustre.tokens"
            | "nlustre.equations"
            | "obc.stmts"
            | "obc.stmts_fused"
            | "clight.stmts"
            | "clight.c_bytes"
            | "clight.indent_share"
            | "server.failed_recompiles"
    ) || name.ends_with(".allocs")
        || name.ends_with(".bytes")
}

/// Every workload at its smallest size, untraced and traced, each run
/// twice with one seed: every output check, plus the determinism
/// self-check that both runs agree on every count metric.
fn smoke() -> Result<Report, String> {
    let mut total = Report::default();
    for name in WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx {
                seed: 1,
                budget: Duration::from_millis(300),
                trace,
                smoke: true,
            };
            let first = run_workload(name, &ctx)?;
            let second = run_workload(name, &ctx)?;
            for ((metric, a, _), (_, b, _)) in first.metrics.iter().zip(&second.metrics) {
                if is_count(metric) {
                    total.check(a == b, || {
                        format!("{name}: count {metric} differs between runs: {a} vs {b}")
                    });
                }
            }
            eprintln!(
                "smoke {name} trace={}: attempted {} failed {} ({} metrics)",
                u8::from(trace),
                first.attempted + second.attempted,
                first.failed + second.failed,
                first.metrics.len()
            );
            total.attempted += first.attempted + second.attempted;
            total.failed += first.failed + second.failed;
        }
    }
    println!("{}", total.json());
    Ok(total)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke().map(|r| r.failed == 0);
    }
    let workload: String = parse(&args, "--workload", None)?;
    let ctx = Ctx {
        seed: parse(&args, "--seed", None)?,
        budget: Duration::from_secs_f64(parse(&args, "--seconds", Some(10.0))?),
        trace: parse::<u8>(&args, "--trace", Some(0))? == 1,
        smoke: false,
    };
    let report = run_workload(&workload, &ctx)?;
    // A wrong outcome is reported in the result line, not by the exit code.
    println!("{}", report.json());
    Ok(true)
}

fn main() {
    match main_inner() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
