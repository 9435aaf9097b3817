//! The traced run: per-layer rows of a workload's compiles.
//!
//! Each pass compiles every job three ways, in an order that cycles
//! through all six permutations:
//! the untraced end-to-end compile (`velus compile`'s path), the
//! call-by-call replay with no trace scope, and the same replay inside
//! a trace scope (one trace ID per compile, one span per row). The
//! traced replay gives the rows; the end-to-end compile minus the rows
//! gives `core.glue`; the two replays give the tracing overhead. Spans
//! stay in memory and the first pass's are written at exit as Chrome
//! trace JSON.

use std::path::Path;
use std::time::{Duration, Instant};

use velus_lustre::FrontendScratch;
use velus_obs::{Recorder, RecorderConfig};
use velus_ops::ClightOps;

use crate::alloc::counters;
use crate::compiles::Job;
use crate::stages::{replay, Replay, GLUE, REVALIDATION, STAGES};
use crate::{compile, stats, Report};

/// The orders in which a pass runs a job's three variants (0: the
/// end-to-end compile, 1: the replay without a trace scope, 2: the
/// traced replay): every permutation, so each variant runs first, and
/// right after each other variant, equally often.
const ORDERS: [[u8; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The largest share by which the replayed rows may miss the untraced
/// end-to-end compile time before a notice is printed.
pub const ROWS_TOLERANCE: f64 = 0.25;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for stage in STAGES {
        out.push((format!("{stage}.self_us"), "us"));
        out.push((format!("{stage}.allocs"), "count"));
        out.push((format!("{stage}.bytes"), "B"));
    }
    for (name, unit) in [
        ("lustre.tokens", "count"),
        ("nlustre.equations", "count"),
        ("obc.stmts", "count"),
        ("obc.stmts_fused", "count"),
        ("clight.stmts", "count"),
        ("clight.c_bytes", "B"),
        ("clight.indent_share", "share"),
        ("core.revalidate_share", "share"),
        ("server.queue_wait_ms_p99", "ms"),
        ("server.miss_us", "us"),
        ("server.hit_us", "us"),
        ("server.cache_hit_ratio", "share"),
        ("server.failed_recompiles", "count"),
        ("server.retries", "count"),
        ("server.shed", "count"),
        ("validate.dataflow.self_us", "us"),
        ("validate.msem.self_us", "us"),
        ("validate.obc_sem.self_us", "us"),
        ("validate.clight_interp.self_us", "us"),
        ("testkit.gen.self_us", "us"),
        ("testkit.useful_seed_ratio", "share"),
        ("ladder.if_nest.scaling_exp", "exponent"),
        ("ladder.eq_chain.scaling_exp", "exponent"),
        ("ladder.call_chain.scaling_exp", "exponent"),
        ("obs.trace_overhead_pct", "%"),
    ] {
        out.push((name.to_owned(), unit));
    }
    out
}

/// The per-layer metrics of one traced run. Layers a workload does not
/// exercise read 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(String, f64, &'static str)>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: per_layer_names()
                .into_iter()
                .map(|(n, u)| (n, 0.0, u))
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    pub fn into_report(self, report: &mut Report) {
        for (name, value, unit) in self.values {
            report.metric(&name, value, unit);
        }
    }
}

/// Profiles `jobs` for whole passes until `budget` is spent (at least
/// one), filling the stage rows, IR sizes, re-validation share and
/// tracing overhead. The first pass's spans go to `chrome_path`.
/// Returns each job's median untraced compile time, in ns.
pub fn profile(
    jobs: &[Job],
    budget: Duration,
    chrome_path: &Path,
    layers: &mut Layers,
    report: &mut Report,
) -> Vec<f64> {
    let recorder = Recorder::new(RecorderConfig::default());
    let mut scratch = FrontendScratch::<ClightOps>::new();
    let n = jobs.len() as f64;
    let mut row_ns: Vec<[f64; STAGES.len()]> = Vec::new();
    let mut e2e_pass_ns: Vec<f64> = Vec::new();
    let mut job_ns: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut first: Option<(Replay, i64, i64)> = None;
    // Size the replay's scratch pools, as set-up did for the compiler's.
    for (p, kinds) in jobs {
        replay(&mut scratch, p, kinds);
    }
    let start = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || start.elapsed() < budget {
        let mut e2e_total = 0f64;
        let mut pass_sum = Replay::default();
        let (mut e2e_allocs, mut e2e_bytes) = (0i64, 0i64);
        for (j, (p, kinds)) in jobs.iter().enumerate() {
            let (mut e2e_c, mut replay_c, mut e2e_ok, mut replay_ok) = (None, None, false, false);
            for variant in ORDERS[(pass + j) % ORDERS.len()] {
                match variant {
                    0 => {
                        let (a0, b0) = counters();
                        let t = Instant::now();
                        let result = compile(p, kinds);
                        let ns = t.elapsed().as_nanos() as f64;
                        let (a1, b1) = counters();
                        e2e_total += ns;
                        job_ns[j].push(ns);
                        e2e_allocs += (a1 - a0) as i64;
                        e2e_bytes += (b1 - b0) as i64;
                        if pass == 0 {
                            e2e_ok = result.is_ok();
                            e2e_c = result.ok().and_then(|a| {
                                a.iter().find_map(|(_, x)| x.c_code().map(str::to_owned))
                            });
                        }
                    }
                    1 => {
                        let t = Instant::now();
                        let r = replay(&mut scratch, p, kinds);
                        untraced_ns += t.elapsed().as_nanos() as u64;
                        drop(r);
                    }
                    _ => {
                        let t = Instant::now();
                        let r = {
                            let _scope = recorder.scope(&p.name);
                            replay(&mut scratch, p, kinds)
                        };
                        traced_ns += t.elapsed().as_nanos() as u64;
                        pass_sum.accumulate(&r);
                        if pass == 0 {
                            replay_ok = r.error.is_none();
                            replay_c = r.c_code;
                        }
                    }
                }
            }
            if pass == 0 {
                report.check(e2e_ok == replay_ok && e2e_c == replay_c, || {
                    format!(
                        "{}: the call-by-call replay disagrees with the compile it replays",
                        p.name
                    )
                });
            }
        }
        let mut rows = pass_sum.ns.map(|ns| ns as f64);
        rows[GLUE] = e2e_total - rows.iter().sum::<f64>();
        row_ns.push(rows);
        e2e_pass_ns.push(e2e_total);
        let events = recorder.drain();
        if pass == 0 {
            if let Some(dir) = chrome_path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(chrome_path, events.chrome_json()) {
                eprintln!("perfbench: cannot write {}: {e}", chrome_path.display());
            }
            first = Some((pass_sum, e2e_allocs, e2e_bytes));
        }
        pass += 1;
    }

    let (sum, e2e_allocs, e2e_bytes) = first.expect("one pass ran");
    for (k, stage) in STAGES.iter().enumerate() {
        let per_pass: Vec<f64> = row_ns.iter().map(|r| r[k] / n / 1e3).collect();
        layers.set(&format!("{stage}.self_us"), stats::median(&per_pass));
        let (allocs, bytes) = if k == GLUE {
            let rows_allocs: u64 = sum.allocs.iter().sum();
            let rows_bytes: u64 = sum.bytes.iter().sum();
            (
                (e2e_allocs - rows_allocs as i64) as f64,
                (e2e_bytes - rows_bytes as i64) as f64,
            )
        } else {
            (sum.allocs[k] as f64, sum.bytes[k] as f64)
        };
        layers.set(&format!("{stage}.allocs"), allocs / n);
        layers.set(&format!("{stage}.bytes"), bytes / n);
    }
    let s = sum.sizes;
    layers.set("lustre.tokens", s.tokens as f64 / n);
    layers.set("nlustre.equations", s.equations as f64 / n);
    layers.set("obc.stmts", s.obc_stmts as f64 / n);
    layers.set("obc.stmts_fused", s.obc_stmts_fused as f64 / n);
    layers.set("clight.stmts", s.clight_stmts as f64 / n);
    layers.set("clight.c_bytes", s.c_bytes as f64 / n);
    if s.c_bytes > 0 {
        layers.set(
            "clight.indent_share",
            s.indent_bytes as f64 / s.c_bytes as f64,
        );
    }
    let e2e: f64 = e2e_pass_ns.iter().sum();
    let revalidation: f64 = row_ns
        .iter()
        .map(|r| REVALIDATION.iter().map(|&k| r[k]).sum::<f64>())
        .sum();
    layers.set("core.revalidate_share", revalidation / e2e);
    layers.set(
        "obs.trace_overhead_pct",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0,
    );
    let rows_share: f64 = row_ns
        .iter()
        .map(|r| r.iter().sum::<f64>() - r[GLUE])
        .sum::<f64>()
        / e2e;
    let verdict = if (rows_share - 1.0).abs() <= ROWS_TOLERANCE {
        "within"
    } else {
        "OUTSIDE"
    };
    eprintln!(
        "perfbench: replayed rows sum to {:.1}% of the untraced compile time ({verdict} the ±{:.0}% tolerance); core.glue holds the rest",
        rows_share * 100.0,
        ROWS_TOLERANCE * 100.0
    );
    job_ns.iter().map(|v| stats::median(v)).collect()
}
