//! `cold_compile`: the 14 paper benchmarks and industrial24, each
//! compiled cold to C one at a time in seeded order, as `velus compile
//! FILE` does. What a user's single compile costs: the front end and the
//! re-validated mid-end dominate; the printer is light.

use std::collections::HashMap;
use std::path::Path;

use rand::prelude::*;
use velus::ArtifactKind;

use crate::checks::{cc_sample, compile_all, oracle_rate};
use crate::compiles::{CompileLoop, Job, OutputTally};
use crate::inputs::{industrial24, paper_benchmarks, rng, snapshot};
use crate::layers::{profile, Layers};
use crate::{compile, timed_setup, work_dir, Ctx, Report};

/// Programs of the corpus whose stdio C is built with `cc` per run.
const CC_SAMPLE: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repo = Path::new(".");
    let ((jobs, snapshots), setup_s) = timed_setup(ctx.setup_reps(), || {
        let paper = paper_benchmarks(repo)?;
        let snapshots: HashMap<String, String> = paper
            .iter()
            .map(|p| Ok((p.name.clone(), snapshot(repo, &p.name)?)))
            .collect::<Result<_, String>>()?;
        let mut jobs: Vec<Job> = paper
            .into_iter()
            .chain(industrial24())
            .map(|p| (p, vec![ArtifactKind::CCode]))
            .collect();
        jobs.shuffle(&mut rng(ctx.seed, 1));
        // Fill the identifier interner and the front-end scratch pools.
        for (p, kinds) in &jobs {
            let _ = compile(p, kinds);
        }
        Ok((jobs, snapshots))
    })?;
    let mut report = Report::default();
    if ctx.trace {
        let mut layers = Layers::new();
        profile(
            &jobs,
            ctx.budget,
            &work_dir().join("trace-cold_compile.json"),
            &mut layers,
            &mut report,
        );
        // scaling_ladder is not among BENCHMARK.json's workloads (its
        // timings are too noisy on a shared host), so its exponents are
        // measured here too.
        crate::ladder::scaling_rows(ctx, &mut layers, &mut report);
        layers.into_report(&mut report);
        return Ok(report);
    }
    report.metric("setup_s", setup_s, "s");
    let mut tally = OutputTally::default();
    let compiles = CompileLoop::run(
        &jobs,
        ctx.share(0.7),
        &mut report,
        |i, artifacts, report| {
            let p = &jobs[i].0;
            tally.add(p, artifacts);
            if let Some(expected) = snapshots.get(&p.name) {
                let c = artifacts.iter().find_map(|(_, a)| a.c_code());
                report.check(c == Some(expected.as_str()), || {
                    format!("{}: C differs from tests/snapshots/{}.c", p.name, p.name)
                });
            }
        },
    );
    compiles.metrics(&mut report);
    tally.add_wcet(jobs.iter().map(|(p, _)| p), &mut report);
    tally.metrics(&mut report);
    let programs: Vec<_> = jobs.iter().map(|(p, _)| p.clone()).collect();
    let compiled = compile_all(&programs, &mut report);
    let rate = oracle_rate(&compiled, ctx.share(0.3), &mut report);
    report.metric("seeds_per_s", rate, "1/s");
    cc_sample(
        &programs,
        ctx.seed,
        CC_SAMPLE,
        &work_dir().join("cc"),
        &mut report,
    );
    Ok(report)
}
