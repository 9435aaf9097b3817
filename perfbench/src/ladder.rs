//! `scaling_ladder`: three single-file shapes on a geometric ladder of
//! sizes, each compiled with `--emit c,lint`. The printer does almost
//! all the work on `if_nest` and the lint pass on `eq_chain`;
//! `call_chain` is the linear control. The only workload where output
//! and memory outgrow the input.

use std::time::{Duration, Instant};

use velus::{ArtifactKind, StagedPipeline};
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CVal, ClightOps};

use crate::checks::{rate, PREFIX};
use crate::compiles::{CompileLoop, Job, OutputTally};
use crate::gauge::Gauge;
use crate::inputs::{ladder, Rung, Shape};
use crate::layers::{profile, Layers};
use crate::{compile, stats, timed_setup, work_dir, Ctx, Report};

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (rungs, setup_s) = timed_setup(ctx.setup_reps(), || {
        let rungs = ladder(ctx.seed, ctx.smoke);
        // Warm the process on the smallest rung of each shape.
        for shape in Shape::ALL {
            if let Some(r) = rungs
                .iter()
                .filter(|r| r.shape == shape)
                .min_by_key(|r| r.n)
            {
                let _ = compile(&r.program, &[ArtifactKind::CCode, ArtifactKind::Lint]);
            }
        }
        Ok(rungs)
    })?;
    let jobs: Vec<Job> = rungs
        .iter()
        .map(|r| {
            (
                r.program.clone(),
                vec![ArtifactKind::CCode, ArtifactKind::Lint],
            )
        })
        .collect();
    let mut report = Report::default();
    if ctx.trace {
        let mut layers = Layers::new();
        let job_ns = profile(
            &jobs,
            ctx.budget,
            &work_dir().join("trace-scaling_ladder.json"),
            &mut layers,
            &mut report,
        );
        set_exponents(&rungs, &job_ns, &mut layers);
        layers.into_report(&mut report);
        return Ok(report);
    }
    report.metric("setup_s", setup_s, "s");
    let mut tally = OutputTally::default();
    let compiles = CompileLoop::run(
        &jobs,
        ctx.share(0.75),
        &mut report,
        |i, artifacts, report| {
            tally.add(&jobs[i].0, artifacts);
            report.check(
                artifacts.iter().any(|(k, _)| *k == ArtifactKind::Lint),
                || format!("{}: no lint artifact", jobs[i].0.name),
            );
        },
    );
    compiles.metrics(&mut report);
    tally.add_wcet(rungs.iter().map(|r| &r.program), &mut report);
    tally.metrics(&mut report);
    let rate = closed_form_rate(&rungs, ctx.share(0.25), &mut report);
    report.metric("seeds_per_s", rate, "1/s");
    Ok(report)
}

/// Sets `ladder.<shape>.scaling_exp` from each rung's compile time.
fn set_exponents(rungs: &[Rung], job_ns: &[f64], layers: &mut Layers) {
    for shape in Shape::ALL {
        let points: Vec<(f64, f64)> = rungs
            .iter()
            .zip(job_ns)
            .filter(|(r, _)| r.shape == shape)
            .map(|(r, ns)| (r.n as f64, *ns))
            .collect();
        layers.set(
            &format!("ladder.{}.scaling_exp", shape.name()),
            stats::loglog_slope(&points),
        );
    }
}

/// The scaling exponents, for the traced run of another workload:
/// each rung compiled with `--emit c,lint`, pass after pass (3 passes,
/// 1 in smoke mode), and its fastest compile taken.
pub fn scaling_rows(ctx: &Ctx, layers: &mut Layers, report: &mut Report) {
    let rungs = ladder(ctx.seed, ctx.smoke);
    let kinds = [ArtifactKind::CCode, ArtifactKind::Lint];
    let mut job_ns = vec![f64::INFINITY; rungs.len()];
    for _ in 0..if ctx.smoke { 1 } else { 3 } {
        for (r, ns) in rungs.iter().zip(&mut job_ns) {
            let t = Instant::now();
            let ok = compile(&r.program, &kinds).is_ok();
            *ns = ns.min(t.elapsed().as_nanos() as f64);
            report.check(ok, || format!("{} failed to compile", r.program.name));
        }
    }
    set_exponents(&rungs, &job_ns, layers);
}

/// The input of instant `i` for a rung of size `n`: sweeps below, into
/// and past the `if_nest` branch range.
fn input(i: usize, n: usize) -> i64 {
    (i * 7 % (n + 3)) as i64 - 1
}

/// Checks each rung's dataflow semantics against its closed form over
/// [`PREFIX`] instants, in whole passes until `budget` is spent (at
/// least one); returns rungs checked per second of semantics time
/// (see [`rate`]).
fn closed_form_rate(rungs: &[Rung], budget: Duration, report: &mut Report) -> f64 {
    let mut scheduled = Vec::new();
    for r in rungs {
        let mut observe = |_, _| {};
        let snl =
            StagedPipeline::from_source(&r.program.source, r.program.root.as_deref(), &mut observe)
                .and_then(|mut s| Ok((s.snlustre()?.clone(), s.root())));
        report.check(snl.is_ok(), || {
            format!("{} failed to schedule", r.program.name)
        });
        if let Ok(snl) = snl {
            scheduled.push((r, snl));
        }
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); scheduled.len()];
    let start = Instant::now();
    let mut pass = 0;
    let mut gauge = Gauge::new();
    while pass == 0 || start.elapsed() < budget {
        for ((r, (snl, root)), t) in scheduled.iter().zip(&mut times) {
            let inputs: StreamSet<ClightOps> = vec![(0..PREFIX)
                .map(|i| SVal::Pres(CVal::int(input(i, r.n) as i32)))
                .collect()];
            let t0 = Instant::now();
            let outs = velus_nlustre::dataflow::run_node(snl, *root, &inputs, PREFIX);
            let secs = t0.elapsed().as_secs_f64();
            t.push(secs / gauge.bracket());
            let expected: Vec<SVal<ClightOps>> = (0..PREFIX)
                .map(|i| SVal::Pres(CVal::int(r.expected(input(i, r.n)) as i32)))
                .collect();
            let ok = matches!(&outs, Ok(o) if o.len() == 1 && o[0] == expected);
            report.check(ok, || {
                format!(
                    "{}: dataflow output {outs:?} is not the closed form",
                    r.program.name
                )
            });
        }
        pass += 1;
    }
    rate(&times)
}
