//! `oracle_campaign`: a fixed, seeded range of the differential campaign
//! (`velus_testkit::campaign`) on one thread: generate a program,
//! maybe mutate it, compile it, and run every oracle of the semantic
//! chain. Nothing else measures the semantics layers (dataflow, memory
//! semantics, Obc, the Clight interpreter) or the generator. One thread,
//! not two: with two, the seeds' times and the peak memory (one
//! allocator arena per thread) moved by 8–13% between runs.

use std::time::{Duration, Instant};

use rand::prelude::*;
use velus::ArtifactKind;
use velus_clight::generate::{main_fn_name, vol_in_name};
use velus_clight::interp::Machine;
use velus_common::Ident;
use velus_nlustre::msem::MSem;
use velus_ops::CVal;
use velus_testkit::campaign::{run_seed, CampaignConfig, SeedOutcome};
use velus_testkit::gen::{gen_inputs, gen_program};
use velus_testkit::render::lustre_source;

use crate::checks::rate;
use crate::compiles::{CompileLoop, Job, OutputTally};
use crate::gauge::Gauge;
use crate::inputs::Program;
use crate::layers::{profile, Layers};
use crate::{compile, timed_setup, work_dir, Ctx, Report};

/// The campaign seeds of the range: `0..200` (`0..10` in smoke mode),
/// in an order drawn from `--seed`. The range itself is fixed so that
/// the count metrics (C size, WCET) do not depend on which programs a
/// seed happens to draw.
fn range(ctx: &Ctx) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..if ctx.smoke { 10 } else { 200 }).collect();
    seeds.shuffle(&mut crate::inputs::rng(ctx.seed, 4));
    seeds
}

/// The unmutated program campaign seed `s` generates, exactly as
/// `run_seed` draws it.
fn generated(cfg: &CampaignConfig, s: u64) -> (Program, StdRng) {
    let profile = &cfg.profiles[(s % cfg.profiles.len() as u64) as usize];
    let mut rng = StdRng::seed_from_u64(s);
    let prog = gen_program(&mut rng, &profile.gen);
    let root = prog
        .nodes
        .last()
        .expect("generated programs are non-empty")
        .name;
    let program = Program {
        name: format!("seed{s}"),
        source: lustre_source(&prog),
        root: Some(root.to_string()),
    };
    (program, rng)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let ((cfg, programs), setup_s) = timed_setup(ctx.setup_reps(), || {
        let cfg = CampaignConfig::default();
        let programs: Vec<Program> = range(ctx)
            .into_iter()
            .map(|s| generated(&cfg, s).0)
            .collect();
        for p in &programs {
            let _ = compile(p, &[ArtifactKind::CCode]);
        }
        Ok((cfg, programs))
    })?;
    let jobs: Vec<Job> = programs
        .iter()
        .map(|p| (p.clone(), vec![ArtifactKind::CCode]))
        .collect();
    let mut report = Report::default();
    if ctx.trace {
        let mut layers = Layers::new();
        profile(
            &jobs,
            ctx.share(0.5),
            &work_dir().join("trace-oracle_campaign.json"),
            &mut layers,
            &mut report,
        );
        semantics_layers(ctx, &cfg, &mut layers, &mut report);
        layers.into_report(&mut report);
        return Ok(report);
    }
    report.metric("setup_s", setup_s, "s");
    let rate = campaign(ctx, &cfg, ctx.share(0.6), &mut report);
    report.metric("seeds_per_s", rate, "1/s");
    let mut tally = OutputTally::default();
    let compiles = CompileLoop::run(&jobs, ctx.share(0.4), &mut report, |i, artifacts, _| {
        tally.add(&jobs[i].0, artifacts);
    });
    compiles.metrics(&mut report);
    tally.add_wcet(&programs, &mut report);
    tally.metrics(&mut report);
    Ok(report)
}

/// Runs the range's campaign seeds in whole passes until `budget` is
/// spent (at least one) and returns seeds per second: the range's size
/// over the sum of the seeds' median times at full host speed. A failing seed — a
/// divergence, a panic, or a rig failure — is a wrong outcome; a
/// rejected mutant or a vacuous program is not.
fn campaign(ctx: &Ctx, cfg: &CampaignConfig, budget: Duration, report: &mut Report) -> f64 {
    let seeds = range(ctx);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let start = Instant::now();
    let mut passes = 0;
    let mut gauge = Gauge::new();
    while passes == 0 || start.elapsed() < budget {
        for (&seed, t) in seeds.iter().zip(&mut times) {
            let result = run_seed(seed, cfg);
            t.push(result.nanos as f64 / 1e9 / gauge.bracket());
            let outcome = &result.outcome;
            report.check(!matches!(outcome, SeedOutcome::Failure(_)), || {
                format!("campaign seed {seed}: {outcome:?}")
            });
        }
        passes += 1;
    }
    rate(&times)
}

/// The semantics rows: for each unmutated program of the range, the
/// generator (program, source, inputs), then each semantics the oracle
/// chain runs, timed call by call; and the share of seeds whose oracles
/// all agreed, over one campaign pass of the range.
fn semantics_layers(ctx: &Ctx, cfg: &CampaignConfig, layers: &mut Layers, report: &mut Report) {
    let mut ns = [0f64; 5];
    let seeds = range(ctx);
    let n = seeds.len();
    for &s in &seeds {
        let steps = cfg.profiles[(s % cfg.profiles.len() as u64) as usize].steps;
        let t = Instant::now();
        let (p, mut rng) = generated(cfg, s);
        let root = Ident::new(p.root.as_deref().expect("generated programs have a root"));
        let compiled = velus::compile(&p.source, Some(&root.to_string()));
        let Ok(c) = compiled else {
            report.check(false, || {
                format!("{}: a generated program failed to compile", p.name)
            });
            continue;
        };
        let node = c.snlustre.node(root).expect("the root exists");
        let inputs = gen_inputs(&mut rng, node, steps);
        ns[0] += t.elapsed().as_nanos() as f64;
        let mut timed = |row: usize, f: &mut dyn FnMut() -> bool| {
            let t = Instant::now();
            let ok = f();
            ns[row] += t.elapsed().as_nanos() as f64;
            ok
        };
        let present = timed(1, &mut || {
            velus_nlustre::dataflow::run_node(&c.nlustre, root, &inputs, steps).is_ok()
                && velus_nlustre::dataflow::run_node(&c.snlustre, root, &inputs, steps).is_ok()
        });
        if !present {
            continue; // No dataflow semantics on these inputs: vacuous.
        }
        timed(2, &mut || {
            MSem::new(&c.snlustre, root)
                .map(MSem::recording)
                .and_then(|mut m| m.run(&inputs, steps))
                .is_ok()
        });
        let per_instant: Vec<Option<Vec<CVal>>> = (0..steps)
            .map(|i| inputs.iter().map(|s| s[i].value().copied()).collect())
            .collect();
        timed(3, &mut || {
            velus_obc::sem::run_class(&c.obc, root, &per_instant).is_ok()
                && velus_obc::sem::run_class(&c.obc_fused, root, &per_instant).is_ok()
        });
        timed(4, &mut || {
            let Ok(mut machine) = Machine::new(&c.clight) else {
                return false;
            };
            if node.inputs.is_empty() {
                machine.push_inputs(
                    vol_in_name(Ident::new("tick")),
                    (0..steps).map(|_| CVal::bool(true)),
                );
            }
            for (k, d) in node.inputs.iter().enumerate() {
                machine.push_inputs(
                    vol_in_name(d.name),
                    inputs[k].iter().filter_map(|v| v.value().copied()),
                );
            }
            machine.run_main(main_fn_name()).is_ok()
        });
    }
    let per_seed = |total: f64| total / n as f64 / 1e3;
    layers.set("testkit.gen.self_us", per_seed(ns[0]));
    layers.set("validate.dataflow.self_us", per_seed(ns[1]));
    layers.set("validate.msem.self_us", per_seed(ns[2]));
    layers.set("validate.obc_sem.self_us", per_seed(ns[3]));
    layers.set("validate.clight_interp.self_us", per_seed(ns[4]));
    let mut agreed = 0;
    for &s in &seeds {
        let outcome = run_seed(s, cfg).outcome;
        agreed += usize::from(matches!(outcome, SeedOutcome::Agreed));
        report.check(!matches!(outcome, SeedOutcome::Failure(_)), || {
            format!("campaign seed {s}: {outcome:?}")
        });
    }
    layers.set("testkit.useful_seed_ratio", agreed as f64 / n as f64);
}
