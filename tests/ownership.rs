//! The ownership-passing pipeline: scheduling and fusion consume their
//! input IR, fusion rewrites each method body in place, and an IR is
//! copied aside only for a requested consumer. None of that may change
//! what the compiler produces:
//!
//! * in-place fusion equals the paper's `zip` applied to a copy, on the
//!   paper corpus and on generated programs, and keeps `Fusible`;
//! * `artifacts::produce` returns the same artifacts whatever the order
//!   of the requested kinds, and the same as one kind per compile;
//! * `into_compiled` still returns all five IRs, each equal to what its
//!   pass makes from an untouched copy of its input.

use rand::prelude::*;

use velus::passes::{
    CheckPass, ElaboratePass, FrontendInput, FusePass, GenerateInput, GeneratePass, PassManager,
    SchedulePass, TranslatePass,
};
use velus::{ArtifactKind, IrStageKind, StagedPipeline, TestIo, WcetModelKind};
use velus_bench::suite::{load, BENCHMARKS};
use velus_common::SpanMap;
use velus_obc::ast::{ObcProgram, Stmt};
use velus_obc::fusion::{fuse_program, fusible};
use velus_ops::ClightOps;
use velus_testkit::campaign::default_profiles;
use velus_testkit::gen::gen_program;

type S = Stmt<ClightOps>;

/// Fig. 8's `zip` as the paper writes it: every merged branch and every
/// sequence is a freshly boxed statement.
fn zip_reference(s: S, t: S) -> S {
    match (s, t) {
        (Stmt::If(e1, t1, f1), Stmt::If(e2, t2, f2)) if e1 == e2 => Stmt::If(
            e1,
            Box::new(zip_reference(*t1, *t2)),
            Box::new(zip_reference(*f1, *f2)),
        ),
        (Stmt::Seq(s1, s2), t) => Stmt::Seq(s1, Box::new(zip_reference(*s2, t))),
        (s, Stmt::Seq(t1, t2)) => zip_reference(zip_reference(s, *t1), *t2),
        (s, Stmt::Skip) => s,
        (Stmt::Skip, t) => t,
        (s, t) => Stmt::Seq(Box::new(s), Box::new(t)),
    }
}

/// Fuses a copy of every method body with [`zip_reference`], leaving
/// the input untouched.
fn fuse_reference(obc: &ObcProgram<ClightOps>) -> ObcProgram<ClightOps> {
    let mut fused = obc.clone();
    for method in fused.classes.iter_mut().flat_map(|c| &mut c.methods) {
        method.body = match std::mem::take(&mut method.body) {
            Stmt::Seq(a, b) => zip_reference(*a, *b),
            s => s,
        };
    }
    fused
}

/// The paper corpus and `generated` programs from the campaign's stock
/// profiles (rotating over them), each as `(name, source, root)`.
fn corpus(generated: u64) -> Vec<(String, String, Option<String>)> {
    let mut out: Vec<_> = BENCHMARKS
        .iter()
        .map(|name| (name.to_string(), load(name), Some(name.to_string())))
        .collect();
    let profiles = default_profiles();
    for seed in 0..generated {
        let profile = &profiles[seed as usize % profiles.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = gen_program(&mut rng, &profile.gen);
        let root = prog.nodes.last().expect("non-empty").name.to_string();
        let source = velus_testkit::render::lustre_source(&prog);
        out.push((format!("seed {seed}"), source, Some(root)));
    }
    out
}

#[test]
fn in_place_fusion_equals_fusing_a_copy() {
    for (name, source, root) in corpus(200) {
        let compiled =
            velus::compile(&source, root.as_deref()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = fuse_reference(&compiled.obc);
        // A borrow is copied first; a moved program is rewritten in place.
        assert_eq!(fuse_program(&compiled.obc), expected, "{name}");
        let fused = fuse_program(compiled.obc);
        assert_eq!(fused, expected, "{name}");
        assert_eq!(fused, compiled.obc_fused, "{name}");
        for class in &fused.classes {
            for m in &class.methods {
                assert!(fusible(&m.body), "{name}: {}.{}", class.name, m.name);
            }
        }
    }
}

/// The IRs each pass makes from an untouched copy of its input.
fn reference_irs(source: &str, root: Option<&str>) -> velus::Compiled {
    let mut observe = |_: velus::Stage, _: std::time::Duration| {};
    let mut pm = PassManager::new(&mut observe);
    let elaborated = pm
        .run(
            &ElaboratePass,
            FrontendInput { source, root },
            &SpanMap::new(),
        )
        .expect("elaborates");
    let spans = elaborated.spans;
    let root = elaborated.root;
    let nlustre = pm
        .run(&CheckPass, elaborated.nlustre, &spans)
        .expect("checks");
    let snlustre = pm
        .run(&SchedulePass, nlustre.clone(), &spans)
        .expect("schedules");
    let obc = pm
        .run(&TranslatePass, &snlustre, &spans)
        .expect("translates");
    let obc_fused = pm.run(&FusePass, obc.clone(), &spans).expect("fuses");
    let clight = pm
        .run(
            &GeneratePass,
            GenerateInput {
                obc_fused: &obc_fused,
                root,
            },
            &spans,
        )
        .expect("generates");
    velus::Compiled {
        nlustre,
        snlustre,
        obc,
        obc_fused,
        clight,
        root,
        warnings: elaborated.warnings,
        spans,
    }
}

#[test]
fn into_compiled_returns_all_five_irs_unchanged() {
    for (name, source, root) in corpus(40) {
        let got =
            velus::compile(&source, root.as_deref()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = reference_irs(&source, root.as_deref());
        assert_eq!(got.root, want.root, "{name}");
        assert!(got.nlustre == want.nlustre, "{name}: nlustre");
        assert!(got.snlustre == want.snlustre, "{name}: snlustre");
        assert!(got.obc == want.obc, "{name}: obc");
        assert!(got.obc_fused == want.obc_fused, "{name}: obc_fused");
        assert!(got.clight == want.clight, "{name}: clight");
        assert_eq!(
            got.warnings.render_json(&source),
            want.warnings.render_json(&source),
            "{name}"
        );
    }
}

/// The nine kinds whose retention needs differ: C, every IR dump, lint,
/// report, baseline comparison and WCET.
const KINDS: [ArtifactKind; 9] = [
    ArtifactKind::CCode,
    ArtifactKind::IrDump {
        stage: IrStageKind::NLustre,
    },
    ArtifactKind::IrDump {
        stage: IrStageKind::SnLustre,
    },
    ArtifactKind::IrDump {
        stage: IrStageKind::Obc,
    },
    ArtifactKind::IrDump {
        stage: IrStageKind::ObcFused,
    },
    ArtifactKind::Lint,
    ArtifactKind::Report,
    ArtifactKind::BaselineDiff,
    ArtifactKind::Wcet {
        model: WcetModelKind::CompCert,
    },
];

/// `(kind, rendering, estimated bytes)` of every artifact one compile
/// of `source` produces for `kinds`, in the order returned.
fn produce(source: &str, kinds: &[ArtifactKind]) -> Vec<(ArtifactKind, String, usize)> {
    let mut observe = |_: velus::Stage, _: std::time::Duration| {};
    let mut staged = StagedPipeline::from_source(source, Some("tracker"), &mut observe)
        .expect("tracker compiles");
    velus::artifacts::produce(&mut staged, kinds, TestIo::Volatile, source)
        .expect("every kind is produced")
        .into_iter()
        .map(|(kind, a)| (kind, a.render(), a.estimated_bytes()))
        .collect()
}

#[test]
fn produce_is_order_independent_and_matches_one_kind_per_compile() {
    let source = load("tracker");
    let single: Vec<_> = KINDS
        .iter()
        .map(|k| produce(&source, &[*k]).pop().expect("one artifact"))
        .collect();
    let expect = |order: &[usize]| {
        let got = produce(
            &source,
            &order.iter().map(|&i| KINDS[i]).collect::<Vec<_>>(),
        );
        let want: Vec<_> = order.iter().map(|&i| single[i].clone()).collect();
        assert!(
            got == want,
            "order {order:?} differs from one kind per compile"
        );
    };
    // Every ordered pair: each "x before y" on its own, which is where a
    // missing retention would show (a consumer after the pass that
    // consumed its IR).
    for i in 0..KINDS.len() {
        for j in 0..KINDS.len() {
            if i != j {
                expect(&[i, j]);
            }
        }
    }
    // Every rotation of the full list, both ways round, and seeded
    // shuffles of it.
    let forward: Vec<usize> = (0..KINDS.len()).collect();
    for r in 0..KINDS.len() {
        let mut order = forward.clone();
        order.rotate_left(r);
        expect(&order);
        order.reverse();
        expect(&order);
    }
    let mut rng = StdRng::seed_from_u64(0x0dd5);
    for _ in 0..200 {
        let mut order = forward.clone();
        order.shuffle(&mut rng);
        expect(&order);
    }
}

#[test]
fn passes_consume_their_input_unless_it_is_retained() {
    let source = load("count");
    let consumed = |retain: bool| {
        let mut observe = |_: velus::Stage, _: std::time::Duration| {};
        let mut staged =
            StagedPipeline::from_source(&source, Some("count"), &mut observe).expect("compiles");
        if retain {
            staged.retain(IrStageKind::NLustre);
            staged.retain(IrStageKind::Obc);
        }
        staged.obc_fused().expect("fuses");
        let nlustre =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| staged.nlustre().clone()));
        let obc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            staged.obc().expect("translated").clone()
        }));
        (nlustre.ok(), obc.ok())
    };
    let (nlustre, obc) = consumed(false);
    assert!(
        nlustre.is_none() && obc.is_none(),
        "consumed without a copy"
    );
    let want = velus::compile(&source, Some("count")).expect("compiles");
    let (nlustre, obc) = consumed(true);
    assert!(nlustre == Some(want.nlustre), "retained N-Lustre");
    assert!(obc == Some(want.obc), "retained Obc");
}
