//! `batch_mix`: `velus::service` with 2 workers and the default
//! configuration otherwise. Each round empties the artifact cache and
//! sends one cold pass, then warm passes, of a seeded mix in which every
//! request appears twice: industrial24 asking for C, the paper
//! benchmarks asking for C and WCET, the lint fixtures asking for lint
//! findings, and the compile-error fixtures, each of which must fail
//! with its golden codes. The only workload that exercises admission,
//! the worker pool, the artifact cache and the failure path; warm passes
//! skip the pipeline.

use std::path::Path;
use std::time::Instant;

use rand::prelude::*;
use velus::service::{service, BatchReport, RequestReport, ServiceConfig};
use velus::VelusService;
use velus::{ArtifactKind, CompileOptions, CompileRequest, PipelineCompiler, ServiceArtifact};
use velus_obs::trace::EventKind;
use velus_obs::{Recorder, RecorderConfig};

use crate::checks::{compile_all, oracle_rate};
use crate::compiles::{Job, OutputTally, WCET};
use crate::gauge::Gauge;
use crate::inputs::{fixtures, industrial24, paper_benchmarks, rng, snapshot, Program};
use crate::layers::{profile, Layers};
use crate::{compile, stats, timed_setup, work_dir, Ctx, Report};

const WORKERS: usize = 2;
/// Warm passes per round, after the cold one.
const WARM_PASSES: usize = 2;

/// What a request of the mix must produce.
#[derive(Debug, Clone)]
enum Expect {
    /// C (and WCET, when asked for); byte-equal to the snapshot if any.
    C(Option<String>),
    /// Lint findings with exactly these codes.
    Lint(Vec<String>),
    /// A compile failure with exactly these codes.
    Fail(Vec<String>),
}

#[derive(Debug, Clone)]
struct Entry {
    program: Program,
    kinds: Vec<ArtifactKind>,
    expect: Expect,
}

impl Entry {
    fn request(&self) -> CompileRequest {
        let p = &self.program;
        let req = CompileRequest::new(p.name.clone(), p.source.clone())
            .with_options(CompileOptions::for_kinds(self.kinds.clone()));
        match &p.root {
            Some(root) => req.with_root(root.clone()),
            None => req,
        }
    }

    /// Whether the service's answer is the expected outcome.
    fn check(&self, item: &RequestReport<PipelineCompiler>) -> Result<(), String> {
        let sorted = |mut codes: Vec<String>| {
            codes.sort();
            codes
        };
        match (&self.expect, &item.result) {
            (Expect::C(snapshot), Ok(artifacts)) => {
                let c = artifacts.iter().find_map(|a| a.artifact.c_code());
                if c.is_none() {
                    return Err("no C artifact".to_owned());
                }
                if snapshot.as_deref().is_some_and(|s| Some(s) != c) {
                    return Err("C differs from tests/snapshots".to_owned());
                }
                if artifacts.len() != self.kinds.len() {
                    return Err(format!(
                        "{} artifacts for {} kinds",
                        artifacts.len(),
                        self.kinds.len()
                    ));
                }
                Ok(())
            }
            (Expect::Lint(codes), Ok(artifacts)) => {
                let found = artifacts.iter().find_map(|a| match &*a.artifact {
                    ServiceArtifact::Lint(l) => Some(sorted(
                        l.findings.iter().map(|f| f.code.to_owned()).collect(),
                    )),
                    _ => None,
                });
                match found {
                    Some(found) if found == *codes => Ok(()),
                    other => Err(format!("lint codes {other:?}, golden {codes:?}")),
                }
            }
            (Expect::Fail(codes), Err(e)) => {
                let found = sorted(
                    e.failure_report()
                        .diagnostics
                        .iter()
                        .map(|d| d.code.to_owned())
                        .collect(),
                );
                if found == *codes {
                    Ok(())
                } else {
                    Err(format!("failure codes {found:?}, golden {codes:?}"))
                }
            }
            (_, Ok(_)) => Err("compiled, but must fail".to_owned()),
            (_, Err(e)) => Err(format!("failed: {e}")),
        }
    }
}

/// The distinct requests of the mix.
fn distinct(repo: &Path) -> Result<Vec<Entry>, String> {
    let mut distinct: Vec<Entry> = industrial24()
        .into_iter()
        .map(|program| Entry {
            program,
            kinds: vec![ArtifactKind::CCode],
            expect: Expect::C(None),
        })
        .collect();
    for program in paper_benchmarks(repo)? {
        let expect = Expect::C(Some(snapshot(repo, &program.name)?));
        distinct.push(Entry {
            program,
            kinds: vec![ArtifactKind::CCode, WCET],
            expect,
        });
    }
    for f in fixtures(repo, true)? {
        distinct.push(Entry {
            program: f.program,
            kinds: vec![ArtifactKind::Lint],
            expect: Expect::Lint(f.codes),
        });
    }
    for f in fixtures(repo, false)? {
        distinct.push(Entry {
            program: f.program,
            kinds: vec![ArtifactKind::CCode],
            expect: Expect::Fail(f.codes),
        });
    }
    Ok(distinct)
}

/// One round's mix, as indices into the distinct requests: every
/// request once in a seeded order, then all of them again in the same
/// order, so each second copy is sent long after its first copy
/// finished. Each round draws a fresh order, so which requests share
/// the two workers varies within a run rather than between seeds.
fn mix(len: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.shuffle(rng);
    order.iter().chain(&order).copied().collect()
}

/// One round's passes, each with the host's slowdown while it ran (see
/// [`Gauge`]).
struct Round {
    cold: BatchReport<PipelineCompiler>,
    cold_slowdown: f64,
    warm: Vec<(BatchReport<PipelineCompiler>, f64)>,
    stats: velus::service::StatsSnapshot,
}

/// One round on `svc`: empty its artifact cache, then one cold pass and
/// the warm passes, each checked request by request.
fn round(
    svc: &VelusService,
    distinct: &[Entry],
    order: &[usize],
    gauge: &mut Gauge,
    report: &mut Report,
) -> Round {
    let mixed: Vec<&Entry> = order.iter().map(|&i| &distinct[i]).collect();
    let requests: Vec<CompileRequest> = mixed.iter().map(|e| e.request()).collect();
    svc.clear_cache();
    gauge.bracket();
    let cold = svc.compile_batch(requests.clone());
    let cold_slowdown = gauge.bracket();
    let warm: Vec<_> = (0..WARM_PASSES)
        .map(|_| {
            let pass = svc.compile_batch(requests.clone());
            (pass, gauge.bracket())
        })
        .collect();
    let stats = svc.stats();
    for (k, entry) in mixed.iter().enumerate() {
        let outcome = entry.check(&cold.items[k]);
        report.check(outcome.is_ok(), || {
            format!("{} (cold): {}", entry.program.name, outcome.unwrap_err())
        });
        for (pass, _) in &warm {
            let item = &pass.items[k];
            let outcome =
                entry
                    .check(item)
                    .and_then(|()| match (&item.result, &cold.items[k].result) {
                        (Ok(w), Ok(c))
                            if w.len() != c.len()
                                || w.iter()
                                    .zip(c)
                                    .any(|(w, c)| w.artifact.render() != c.artifact.render()) =>
                        {
                            Err("warm artifacts differ from cold ones".to_owned())
                        }
                        _ => Ok(()),
                    });
            report.check(outcome.is_ok(), || {
                format!("{} (warm): {}", entry.program.name, outcome.unwrap_err())
            });
        }
    }
    Round {
        cold,
        cold_slowdown,
        warm,
        stats,
    }
}

fn shut_down(svc: VelusService, report: &mut Report) {
    if let Err(e) = svc.shutdown() {
        report.check(false, || format!("service shutdown: {e:?}"));
    }
}

fn config(recorder: Option<Recorder>) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        recorder,
        ..ServiceConfig::default()
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repo = Path::new(".");
    let (distinct, setup_s) = timed_setup(ctx.setup_reps(), || {
        let distinct = distinct(repo)?;
        // Fill the identifier interner before the first cold pass.
        for e in &distinct {
            let _ = compile(&e.program, &e.kinds);
        }
        Ok(distinct)
    })?;
    let mut rng = rng(ctx.seed, 2);
    let mut report = Report::default();
    if ctx.trace {
        let mut layers = Layers::new();
        let jobs: Vec<Job> = distinct
            .iter()
            .map(|e| (e.program.clone(), e.kinds.clone()))
            .collect();
        profile(
            &jobs,
            ctx.share(0.7),
            &work_dir().join("trace-batch_mix.json"),
            &mut layers,
            &mut report,
        );
        server_layers(
            &distinct,
            &mix(distinct.len(), &mut rng),
            &mut layers,
            &mut report,
        );
        layers.into_report(&mut report);
        return Ok(report);
    }
    report.metric("setup_s", setup_s, "s");
    // Cold-pass latencies per (copy, request) across rounds, and
    // per-pass rates.
    let d = distinct.len();
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); 2 * d];
    let mut compiled_cold = vec![false; d];
    let (mut cold_rates, mut warm_rates) = (Vec::new(), Vec::new());
    let mut tally = OutputTally::default();
    let svc = service(config(None));
    let mut gauge = Gauge::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < ctx.share(0.75) {
        let order = mix(d, &mut rng);
        let r = round(&svc, &distinct, &order, &mut gauge, &mut report);
        for (k, (item, &i)) in r.cold.items.iter().zip(&order).enumerate() {
            let copy = k / d;
            latency[copy * d + i].push(item.latency.as_secs_f64() * 1e3 / r.cold_slowdown);
            if rounds == 0 && copy == 0 {
                compiled_cold[i] = item.result.is_ok() && !item.cache_hit;
                if let Ok(artifacts) = &item.result {
                    let pairs: Vec<_> = artifacts
                        .iter()
                        .map(|a| (a.kind, (*a.artifact).clone()))
                        .collect();
                    tally.add(&distinct[i].program, &pairs);
                }
            }
        }
        cold_rates.push(r.cold.throughput() * r.cold_slowdown);
        warm_rates.extend(r.warm.iter().map(|(w, slowdown)| w.throughput() * slowdown));
        rounds += 1;
    }
    shut_down(svc, &mut report);
    let request_ms: Vec<f64> = latency.iter().map(|v| stats::median(v)).collect();
    let compiled: Vec<usize> = (0..d).filter(|&i| compiled_cold[i]).collect();
    let compile_ms: Vec<f64> = compiled.iter().map(|&i| request_ms[i]).collect();
    let compiled_bytes: usize = compiled
        .iter()
        .map(|&i| distinct[i].program.source.len())
        .sum();
    report.metric("compile_ms_p50", stats::percentile(&compile_ms, 50.0), "ms");
    report.metric("compile_ms_p99", stats::percentile(&compile_ms, 99.0), "ms");
    report.metric(
        "ns_per_src_byte",
        compile_ms.iter().sum::<f64>() * 1e6 / compiled_bytes as f64,
        "ns/B",
    );
    tally.metrics(&mut report);
    report.metric("cold_prog_per_s", stats::median(&cold_rates), "1/s");
    report.metric("warm_prog_per_s", stats::median(&warm_rates), "1/s");
    report.metric("request_ms_p50", stats::percentile(&request_ms, 50.0), "ms");
    report.metric("request_ms_p99", stats::percentile(&request_ms, 99.0), "ms");
    let compiling: Vec<Program> = distinct
        .iter()
        .filter(|e| !matches!(e.expect, Expect::Fail(_)))
        .map(|e| e.program.clone())
        .collect();
    let compiled = compile_all(&compiling, &mut report);
    let rate = oracle_rate(&compiled, ctx.share(0.25), &mut report);
    report.metric("seeds_per_s", rate, "1/s");
    Ok(report)
}

/// The service rows, from one traced round: queue wait from the
/// recorder's `queue-wait` intervals, hit and miss latency from the
/// request reports, the rest from the service statistics.
fn server_layers(distinct: &[Entry], order: &[usize], layers: &mut Layers, report: &mut Report) {
    let recorder = Recorder::new(RecorderConfig::default());
    let svc = service(config(Some(recorder.clone())));
    let r = round(&svc, distinct, order, &mut Gauge::new(), report);
    shut_down(svc, report);
    let waits: Vec<f64> = recorder
        .drain()
        .events
        .iter()
        .filter(|e| e.name == "queue-wait")
        .filter_map(|e| match e.kind {
            EventKind::Complete { dur_ns } => Some(dur_ns as f64 / 1e6),
            _ => None,
        })
        .collect();
    layers.set("server.queue_wait_ms_p99", stats::percentile(&waits, 99.0));
    let items = || {
        r.cold
            .items
            .iter()
            .chain(r.warm.iter().flat_map(|(w, _)| &w.items))
    };
    let mean_us = |hit: bool| {
        let v: Vec<f64> = items()
            .filter(|i| i.result.is_ok() && i.cache_hit == hit)
            .map(|i| i.latency.as_secs_f64() * 1e6)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    layers.set("server.miss_us", mean_us(false));
    layers.set("server.hit_us", mean_us(true));
    layers.set("server.cache_hit_ratio", r.stats.hit_ratio());
    let failed_warm = r
        .warm
        .iter()
        .flat_map(|(w, _)| &w.items)
        .filter(|i| i.result.is_err())
        .count();
    layers.set("server.failed_recompiles", failed_warm as f64);
    layers.set("server.retries", r.stats.retries_attempted as f64);
    layers.set("server.shed", r.stats.shed as f64);
}
