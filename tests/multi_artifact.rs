//! Multi-artifact serving through the shared per-kind cache: WCET-only
//! requests never materialize C, mixed requests run the pipeline's
//! shared prefix exactly once, and every kind round-trips warm.

use std::sync::Arc;

use velus::service::{service, ServiceConfig};
use velus::{ArtifactKind, CompileOptions, CompileRequest, IrStageKind, Stage, WcetModelKind};

const WCET_CC: ArtifactKind = ArtifactKind::Wcet {
    model: WcetModelKind::CompCert,
};

fn benchmark_request(name: &str, kinds: Vec<ArtifactKind>) -> CompileRequest {
    let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
    CompileRequest::new(name, source)
        .with_root(name)
        .with_options(CompileOptions::for_kinds(kinds))
}

fn stage_count(stats: &velus::service::StatsSnapshot, stage: Stage) -> u64 {
    stats
        .stages
        .iter()
        .find(|s| s.stage == stage)
        .map_or(0, |s| s.count)
}

#[test]
fn wcet_only_entries_round_trip_without_materializing_c() {
    let svc = service(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let req = benchmark_request("tracker", vec![WCET_CC]);
    let cold = svc.compile_one(req.clone());
    let cold_artifact = Arc::clone(cold.artifact(&WCET_CC).expect("wcet artifact"));
    // The artifact holds a report, never the C text…
    assert!(cold_artifact.c_code().is_none());
    assert!(cold_artifact.render().contains("cycles (cc)"));
    // …and the emission stage never ran for it.
    let stats = svc.stats();
    assert_eq!(stage_count(&stats, Stage::Emit), 0);
    assert_eq!(stage_count(&stats, Stage::Generate), 1);

    // The warm request is a pure cache round-trip: the identical Arc.
    let warm = svc.compile_one(req);
    assert!(warm.cache_hit);
    assert!(Arc::ptr_eq(
        warm.artifact(&WCET_CC).unwrap(),
        &cold_artifact
    ));
    // Still no emission anywhere in the service's life.
    assert_eq!(stage_count(&svc.stats(), Stage::Emit), 0);
    // Exactly one cache entry exists — no hidden C entry was created.
    assert_eq!(svc.cache_len(), 1);
}

#[test]
fn mixed_batches_compile_the_front_half_exactly_once_per_source() {
    let svc = service(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let names = ["tracker", "count", "cruise", "watchdog3"];
    let reqs: Vec<CompileRequest> = names
        .iter()
        .map(|n| benchmark_request(n, vec![ArtifactKind::CCode, WCET_CC]))
        .collect();

    let cold = svc.compile_batch(reqs.clone());
    assert_eq!(cold.ok_count(), names.len());
    let stats = svc.stats();
    // 8 kind-requests, but each source's front half ran exactly once.
    assert_eq!(stage_count(&stats, Stage::Frontend), names.len() as u64);
    assert_eq!(stage_count(&stats, Stage::Emit), names.len() as u64);
    let kind_row = |stats: &velus::service::StatsSnapshot, name: &str| {
        stats
            .kinds
            .iter()
            .find(|k| k.kind == name)
            .copied()
            .unwrap()
    };
    assert_eq!(kind_row(&stats, "c").requests, names.len() as u64);
    assert_eq!(kind_row(&stats, "wcet").requests, names.len() as u64);

    // Warm re-run: every request (and every kind) is a hit; no stage
    // ran again.
    let warm = svc.compile_batch(reqs);
    assert_eq!(warm.hit_count(), names.len());
    let stats = svc.stats();
    assert_eq!(stage_count(&stats, Stage::Frontend), names.len() as u64);
    assert_eq!(kind_row(&stats, "wcet").hits, names.len() as u64);

    // Both artifacts of a request agree on the program: the WCET report
    // names the same root whose step the C defines.
    for item in &warm.items {
        let c = item.artifact(&ArtifactKind::CCode).unwrap();
        let w = item.artifact(&WCET_CC).unwrap();
        assert!(c
            .c_code()
            .unwrap()
            .contains(&format!("{}__step", item.name)));
        assert!(w.render().starts_with(&item.name), "{}", w.render());
    }
}

#[test]
fn widening_the_kind_set_reuses_the_cached_kinds() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let c_only = svc.compile_one(benchmark_request("count", vec![ArtifactKind::CCode]));
    let c_artifact = Arc::clone(c_only.artifact(&ArtifactKind::CCode).unwrap());

    // Asking for C + WCET later recompiles only for the WCET report and
    // serves the *same* C allocation from the cache.
    let both = svc.compile_one(benchmark_request(
        "count",
        vec![ArtifactKind::CCode, WCET_CC],
    ));
    assert!(!both.cache_hit, "the new kind forces a pipeline run");
    assert!(Arc::ptr_eq(
        both.artifact(&ArtifactKind::CCode).unwrap(),
        &c_artifact
    ));
    // The second run emitted nothing: C was already cached, so the
    // emission stage count stays at the first request's 1.
    assert_eq!(stage_count(&svc.stats(), Stage::Emit), 1);
    assert_eq!(svc.cache_len(), 2);
}

#[test]
fn dump_and_baseline_artifacts_serve_and_cache() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let kinds = vec![
        ArtifactKind::IrDump {
            stage: IrStageKind::SnLustre,
        },
        ArtifactKind::BaselineDiff,
    ];
    let report = svc.compile_one(benchmark_request("tracker", kinds.clone()));
    let artifacts = report.result.as_ref().unwrap();
    // The dump renders exactly what `velus dump --ir snlustre` prints.
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker")).unwrap();
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    assert_eq!(
        artifacts[0].artifact.render(),
        format!("{}", compiled.snlustre)
    );
    // The baseline diff has the three scheme rows.
    let diff = artifacts[1].artifact.render();
    for scheme in ["velus", "heptagon", "lustre-v6"] {
        assert!(diff.contains(scheme), "{diff}");
    }
    // Warm: both kinds hit.
    let warm = svc.compile_one(benchmark_request("tracker", kinds));
    assert!(warm.cache_hit);
}
