//! `chaos` — open-loop overload bench of the service's fault-tolerance
//! layer.
//!
//! Wraps the real pipeline in `velus_testkit::chaos::ChaosCompiler`
//! (seeded panics, cancellable delays) over a corpus in which every
//! eighth program has a type error, measures the service's fault-free
//! capacity, then drives an **open-loop** arrival process at 2× that
//! capacity — arrivals are not gated on completions, so the admission
//! queue genuinely overloads. The corpus is sent in two such waves, the
//! second once the first has resolved, and the run checks the
//! robustness invariants:
//!
//! * zero worker deaths (panics are contained per request);
//! * zero lost requests: every submission resolves, and
//!   `ok + failed + shed == submitted`;
//! * every shed / timed-out request carries its stable `E08xx` code;
//! * the negative cache holds: the compiler sees each failing or
//!   panicking input at most once per content, so the second wave
//!   replays the first wave's failures without compiling them;
//! * the final drain leaves nothing outstanding.
//!
//! Reports shed rate and p50/p99/p999 latency of the admitted requests,
//! then drains the service.
//!
//! ```text
//! cargo run --release -p velus-bench --bin chaos -- \
//!     [--seeds N] [--workers W] [--queue-cap Q] [--chaos-seed S] [--json]
//! ```
//!
//! With `--json`, stdout is exactly one JSON object (CI pipes it
//! through `jsoncheck`); the human-readable report moves to stderr.
//! Any violated invariant exits nonzero.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use velus::service::{service, ServiceConfig};
use velus::{CompileRequest, PipelineCompiler};
use velus_bench::{parse_bool_flag, parse_flag};
use velus_obs::Histogram;
use velus_server::{CompileService, ServiceError, Submission};
use velus_testkit::chaos::{ChaosCompiler, ChaosConfig};

type ChaosService = CompileService<ChaosCompiler<PipelineCompiler>>;

/// Distinct tiny programs: a unique constant per request keeps every
/// content digest (cache key and chaos fault roll) distinct. Every
/// eighth program compares an `int` with a `bool` and fails to compile.
fn corpus(n: usize) -> Vec<CompileRequest> {
    (0..n)
        .map(|k| {
            let broken = k % 8 == 7;
            let bound = if broken {
                "true".to_owned()
            } else {
                (1000 + k).to_string()
            };
            let source = format!(
                "node main(x: int) returns (y: int)\n\
                 var acc: int;\n\
                 let\n\
                   acc = ({k} fby acc) + x;\n\
                   y = if acc > {bound} then 0 else acc;\n\
                 tel\n"
            );
            let name = if broken { "broken" } else { "chaos" };
            CompileRequest::new(format!("{name}{k:03}"), source)
        })
        .collect()
}

/// Fault-free capacity: cold-compile the well-typed part of the corpus
/// on a plain service and take its throughput.
fn measure_capacity(reqs: &[CompileRequest], workers: usize) -> f64 {
    let svc = service(ServiceConfig {
        workers,
        ..Default::default()
    });
    let clean: Vec<CompileRequest> = reqs
        .iter()
        .filter(|r| r.name.starts_with("chaos"))
        .cloned()
        .collect();
    let batch = svc.compile_batch(clean);
    assert_eq!(
        batch.err_count(),
        0,
        "calibration corpus must compile cleanly"
    );
    batch.throughput()
}

struct Outcome {
    ok: usize,
    shed: usize,
    draining: usize,
    deadline: usize,
    panicked: usize,
    compile_failed: usize,
    lost: usize,
    uncoded: usize,
    latencies: Histogram,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            ok: 0,
            shed: 0,
            draining: 0,
            deadline: 0,
            panicked: 0,
            compile_failed: 0,
            lost: 0,
            uncoded: 0,
            latencies: Histogram::new(),
        }
    }

    /// Waits for every submission and tallies its outcome.
    fn classify(&mut self, submissions: Vec<Submission<ChaosCompiler<PipelineCompiler>>>) {
        for sub in submissions {
            let report = sub.wait();
            let Err(err) = &report.result else {
                self.ok += 1;
                self.latencies.record(report.latency.as_nanos() as u64);
                continue;
            };
            let code = err.failure_report().primary_code();
            let expected = match err {
                ServiceError::Overloaded { .. } => {
                    self.shed += 1;
                    Some("E0801")
                }
                ServiceError::Draining => {
                    self.draining += 1;
                    Some("E0805")
                }
                ServiceError::DeadlineExceeded => {
                    self.deadline += 1;
                    Some("E0802")
                }
                ServiceError::Panic(_) => {
                    self.panicked += 1;
                    continue;
                }
                ServiceError::Compile { .. } | ServiceError::MissingArtifact(_) => {
                    self.compile_failed += 1;
                    if code.is_none() {
                        self.uncoded += 1;
                    }
                    continue;
                }
                ServiceError::Lost => {
                    self.lost += 1;
                    continue;
                }
            };
            if code != expected {
                self.uncoded += 1;
            }
        }
    }
}

/// One open-loop wave: submits every request on schedule regardless of
/// completions, then waits for all of them. Returns how many were
/// admitted.
fn wave(
    svc: &ChaosService,
    reqs: &[CompileRequest],
    interarrival: Duration,
    out: &mut Outcome,
) -> usize {
    let started = Instant::now();
    let mut submissions = Vec::with_capacity(reqs.len());
    let mut admitted = 0usize;
    for (k, req) in reqs.iter().enumerate() {
        let due = started + interarrival * (k as u32);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sub = svc.submit(req.clone());
        admitted += usize::from(sub.admitted());
        submissions.push(sub);
    }
    out.classify(submissions);
    admitted
}

fn main() -> ExitCode {
    let seeds = parse_flag("--seeds", 40);
    let workers = parse_flag("--workers", 4);
    let queue_cap = parse_flag("--queue-cap", workers * 4);
    let chaos_seed = parse_flag("--chaos-seed", 1) as u64;
    let json = parse_bool_flag("--json");
    macro_rules! note {
        ($($arg:tt)*) => {
            if json { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }

    let reqs = corpus(seeds);
    let capacity = measure_capacity(&reqs, workers);
    let target = 2.0 * capacity;
    let interarrival = Duration::from_secs_f64(1.0 / target.max(1.0));
    note!("chaos bench: {seeds} requests x 2 waves, {workers} workers, queue cap {queue_cap}");
    note!("fault-free capacity {capacity:.1} prog/s -> open-loop target {target:.1} prog/s");

    let compiler = ChaosCompiler::new(
        PipelineCompiler,
        ChaosConfig {
            seed: chaos_seed,
            panic_per_mille: 100,
            ..Default::default()
        },
    );
    let svc: ChaosService = CompileService::new(
        compiler,
        ServiceConfig {
            workers,
            queue_cap: Some(queue_cap),
            ..Default::default()
        },
    );

    // Two waves of the same corpus: the second finds the first wave's
    // artifacts and failures in the cache (except for shed requests,
    // which never ran). No request of a wave overlaps its repeat, so a
    // failing input compiles at most once.
    let started = Instant::now();
    let mut out = Outcome::new();
    let admitted = (0..2)
        .map(|_| wave(&svc, &reqs, interarrival, &mut out))
        .sum::<usize>();
    let drain = svc.drain(Duration::from_secs(30));
    let wall = started.elapsed();
    let chaos = svc.compiler().chaos_stats();
    let stats = svc.stats();
    let dead = svc.dead_workers();

    let submitted = 2 * seeds;
    let shed_total = out.shed + out.draining;
    let failed = out.deadline + out.panicked + out.compile_failed + out.lost;
    let accounted = out.ok + shed_total + failed;
    let shed_rate = shed_total as f64 / submitted as f64;
    let p = |pct: f64| Duration::from_nanos(out.latencies.percentile(pct));

    note!(
        "\nsubmitted {submitted}  admitted {admitted}  ok {}  shed {shed_total} ({:.0}%)  \
         panicked {}  deadline {}  compile-failed {}  lost {}",
        out.ok,
        shed_rate * 100.0,
        out.panicked,
        out.deadline,
        out.compile_failed,
        out.lost
    );
    note!(
        "injected: panics {} delays {}; failing inputs {} (recompiled {})",
        chaos.injected_panics,
        chaos.injected_delays,
        chaos.failing_inputs,
        chaos.repeat_failures
    );
    note!(
        "latency (admitted, successful): p50 {:.2?}  p99 {:.2?}  p999 {:.2?}",
        p(50.0),
        p(99.0),
        p(99.9)
    );
    note!("{drain}  wall {wall:.2?}  dead workers {dead}");
    note!(
        "service counters: shed {}  cache hits {}  drains {}",
        stats.shed,
        stats.cache_hits,
        stats.drains
    );

    // The invariants the robustness layer guarantees under overload.
    let mut violations: Vec<String> = Vec::new();
    if dead != 0 {
        violations.push(format!("{dead} worker(s) died"));
    }
    if out.lost != 0 {
        violations.push(format!("{} request(s) lost", out.lost));
    }
    if accounted != submitted {
        violations.push(format!(
            "accounting hole: ok {} + shed {shed_total} + failed {failed} != submitted {submitted}",
            out.ok
        ));
    }
    if out.uncoded != 0 {
        violations.push(format!(
            "{} rejection(s) missing their stable E08xx code",
            out.uncoded
        ));
    }
    if chaos.repeat_failures != 0 {
        violations.push(format!(
            "{} failing input(s) reached the compiler again instead of replaying from the cache",
            chaos.repeat_failures
        ));
    }
    if drain.outstanding != 0 {
        violations.push(format!(
            "{} request(s) still outstanding after drain",
            drain.outstanding
        ));
    }

    if json {
        println!(
            concat!(
                "{{\"submitted\": {}, \"admitted\": {}, \"ok\": {}, \"shed\": {}, ",
                "\"panicked\": {}, \"deadline_exceeded\": {}, ",
                "\"compile_failed\": {}, \"lost\": {}, \"dead_workers\": {}, ",
                "\"shed_rate\": {:.4}, \"injected_panics\": {}, \"injected_delays\": {}, ",
                "\"failing_inputs\": {}, \"repeat_failures\": {}, ",
                "\"capacity_prog_per_s\": {:.2}, \"target_prog_per_s\": {:.2}, ",
                "\"p50_secs\": {:.6}, \"p99_secs\": {:.6}, \"p999_secs\": {:.6}, ",
                "\"drain_cancelled\": {}, \"drain_secs\": {:.6}, \"violations\": {}}}"
            ),
            submitted,
            admitted,
            out.ok,
            shed_total,
            out.panicked,
            out.deadline,
            out.compile_failed,
            out.lost,
            dead,
            shed_rate,
            chaos.injected_panics,
            chaos.injected_delays,
            chaos.failing_inputs,
            chaos.repeat_failures,
            capacity,
            target,
            p(50.0).as_secs_f64(),
            p(99.0).as_secs_f64(),
            p(99.9).as_secs_f64(),
            drain.cancelled,
            drain.duration.as_secs_f64(),
            violations.len()
        );
    }

    if violations.is_empty() {
        note!("\nall robustness invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        ExitCode::FAILURE
    }
}
