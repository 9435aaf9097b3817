//! Throughput scaling of the batch compilation service.
//!
//! Compiles a deterministic corpus of generated programs (the
//! `velus-testkit` industrial generator at several shapes, a third of
//! them sub-clocked/fusion-heavy) through `velus::service` with
//! 1, 2, 4, … workers, and reports cold-batch throughput, warm-batch
//! (cache-served) throughput, and the service's per-stage latency
//! statistics. A second dimension compares **artifact sets**: the same
//! corpus requested as C only, WCET only, and C+WCET in one request —
//! the mixed batch shares the pipeline prefix, so it costs roughly one
//! compilation, not two.
//!
//! ```text
//! cargo run --release -p velus-bench --bin service \
//!     [--programs N] [--max-workers N] [--json PATH]
//! ```
//!
//! `--json PATH` additionally writes the worker sweep as a JSON array
//! (one object per worker count) so runs can be recorded and diffed
//! across commits (see `BENCH_service.json` at the repository root).

use velus::service::{service, ServiceConfig};
use velus::{ArtifactKind, CompileOptions, CompileRequest, WcetModelKind};
use velus_bench::{parse_flag, parse_string_flag};
use velus_obs::Histogram;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

/// Tail latency of a batch: per-request latencies folded through the
/// service's own mergeable histogram, so the bench reports the same
/// p99 the service statistics would.
fn batch_p99(report: &velus::service::BatchReport<velus::PipelineCompiler>) -> std::time::Duration {
    let mut hist = Histogram::new();
    for item in &report.items {
        hist.record(item.latency.as_nanos() as u64);
    }
    std::time::Duration::from_nanos(hist.percentile(99.0))
}

/// A deterministic corpus: distinct shapes so requests differ in cost,
/// as real batches do.
fn corpus(programs: usize) -> Vec<CompileRequest> {
    (0..programs)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: 8 + (k % 7) * 3,
                eqs_per_node: 6 + (k % 5) * 2,
                fan_in: 1 + k % 2,
                // A third of the corpus is sub-clocked (fusion-heavy).
                subclock_depth: k % 3,
            };
            let source = industrial_source(&cfg);
            let root = format!("blk{}", cfg.nodes - 1);
            CompileRequest::new(format!("gen{k:02}"), source).with_root(root)
        })
        .collect()
}

fn main() {
    let programs = parse_flag("--programs", 24);
    let max_workers = parse_flag("--max-workers", 8);
    let requests = corpus(programs);
    println!("service bench: {programs} generated programs, scaling 1..={max_workers} workers\n");
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>12} {:>14}",
        "workers", "cold", "cold prog/s", "cold p99", "warm", "warm prog/s"
    );

    // Powers of two up to the cap, always ending exactly at the cap so
    // the requested maximum is measured even when it is not a power of
    // two (e.g. --max-workers 6 -> 1, 2, 4, 6).
    let mut worker_counts = vec![1usize];
    while worker_counts.last().copied().unwrap_or(1) * 2 <= max_workers {
        worker_counts.push(worker_counts.last().unwrap() * 2);
    }
    if worker_counts.last().copied() != Some(max_workers.max(1)) {
        worker_counts.push(max_workers.max(1));
    }

    let mut baseline = None;
    let mut last_stats = None;
    let mut json_rows: Vec<String> = Vec::new();
    for &workers in &worker_counts {
        let svc = service(ServiceConfig {
            workers,
            ..Default::default()
        });
        let cold = svc.compile_batch(requests.clone());
        assert_eq!(
            cold.err_count(),
            0,
            "generated programs must compile; first error: {:?}",
            cold.items.iter().find_map(|i| i
                .result
                .as_ref()
                .err()
                .map(|e| (i.name.clone(), e.to_string())))
        );
        let warm = svc.compile_batch(requests.clone());
        assert_eq!(warm.hit_count(), programs, "warm pass must be fully cached");
        let speedup = match baseline {
            None => {
                baseline = Some(cold.wall);
                "1.00x".to_owned()
            }
            Some(base) => format!(
                "{:.2}x",
                base.as_secs_f64() / cold.wall.as_secs_f64().max(f64::EPSILON)
            ),
        };
        let cold_p99 = batch_p99(&cold);
        println!(
            "{:<8} {:>12} {:>14.1} {:>12} {:>12} {:>14.1}   speedup {speedup}",
            workers,
            format!("{:.2?}", cold.wall),
            cold.throughput(),
            format!("{:.2?}", cold_p99),
            format!("{:.2?}", warm.wall),
            warm.throughput()
        );
        json_rows.push(format!(
            concat!(
                "  {{\"workers\": {}, \"programs\": {}, ",
                "\"cold_secs\": {:.6}, \"cold_prog_per_s\": {:.1}, ",
                "\"cold_p99_secs\": {:.6}, ",
                "\"warm_secs\": {:.6}, \"warm_prog_per_s\": {:.1}}}"
            ),
            workers,
            programs,
            cold.wall.as_secs_f64(),
            cold.throughput(),
            cold_p99.as_secs_f64(),
            warm.wall.as_secs_f64(),
            warm.throughput()
        ));
        last_stats = Some((workers, svc.stats()));
    }
    if let Some(path) = parse_string_flag("--json") {
        let body = format!("[\n{}\n]\n", json_rows.join(",\n"));
        std::fs::write(&path, body).expect("write --json file");
        println!("\nwrote sweep to {path}");
    }
    if let Some((workers, stats)) = last_stats {
        println!("\nservice statistics ({workers} workers):\n{stats}");
    }

    artifact_dimension(&requests, max_workers.max(1));
}

/// The artifact-set dimension: the same corpus requested as single-kind
/// and multi-kind batches, at a fixed worker count. Each batch runs on
/// a fresh service (cold cache), then once warm. The interesting
/// comparison is `c,wcet` against `c` — the mixed batch runs the
/// shared pipeline prefix once per program, so its cold cost is close
/// to a single-artifact batch, nowhere near the sum of two.
fn artifact_dimension(base: &[CompileRequest], workers: usize) {
    const WCET: ArtifactKind = ArtifactKind::Wcet {
        model: WcetModelKind::CompCert,
    };
    let sets: [(&str, Vec<ArtifactKind>); 3] = [
        ("c", vec![ArtifactKind::CCode]),
        ("wcet", vec![WCET]),
        ("c,wcet", vec![ArtifactKind::CCode, WCET]),
    ];
    println!("\nartifact-set dimension ({workers} workers, fresh cache per set):");
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>14}",
        "emit", "cold", "cold prog/s", "warm", "warm prog/s"
    );
    for (label, kinds) in sets {
        let requests: Vec<CompileRequest> = base
            .iter()
            .map(|r| {
                r.clone()
                    .with_options(CompileOptions::for_kinds(kinds.clone()))
            })
            .collect();
        let svc = service(ServiceConfig {
            workers,
            ..Default::default()
        });
        let cold = svc.compile_batch(requests.clone());
        assert_eq!(cold.err_count(), 0, "artifact-set batch must compile");
        let warm = svc.compile_batch(requests);
        assert_eq!(warm.hit_count(), warm.items.len());
        println!(
            "{:<10} {:>12} {:>14.1} {:>12} {:>14.1}",
            label,
            format!("{:.2?}", cold.wall),
            cold.throughput(),
            format!("{:.2?}", warm.wall),
            warm.throughput()
        );
    }
}
