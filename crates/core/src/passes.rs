//! The staged pass framework: the paper's compiler as a composition of
//! named, typed passes.
//!
//! The paper presents the compiler as a chain of proved passes
//! (elaborate → schedule → translate → fuse → generate); this module
//! makes that composition first-class instead of a hand-rolled driver
//! body. Each pass is a [`Pass`] implementation with
//!
//! * a **typed input and output** (the IRs flow through the type system,
//!   so passes cannot be composed out of order),
//! * a **re-validation hook** ([`Pass::revalidate`]) — the paper proves
//!   each pass's postcondition once; this reproduction re-checks it
//!   after every run, and the hook is where that check lives,
//! * **observation built in**: the [`PassManager`] wraps every run and
//!   reports start/end/fail events to a [`PassSink`] (borrowed as a
//!   [`StageObserver`]), which is what the compilation service's
//!   per-stage statistics *and* its per-pass trace spans are built
//!   from — one hook, two consumers.
//!
//! [`StagedPipeline`] composes the passes **on demand**: each IR is
//! computed (and re-validated) the first time something asks for it, so
//! a request that only needs the front half of the pipeline — a WCET
//! report, an N-Lustre dump — never pays for the back half. Like the
//! paper's chain of functions, a pass **consumes its input**: scheduling
//! takes the N-Lustre and fusion the Obc by value and rewrite them in
//! place. An IR a later consumer still needs is copied aside only when
//! that consumer was requested ([`StagedPipeline::retain`]); the IRs
//! that the next pass only reads (SN-Lustre, fused Obc, Clight) stay
//! resident without a copy. `compile`/`compile_timed` in
//! [`crate::pipeline`] are thin wrappers that retain and force every
//! stage.

use std::time::Instant;

use velus_clight::printer::TestIo;
use velus_common::{codes, DiagStage, Diagnostic, Diagnostics, Ident, PreMarks, Span, SpanMap};
use velus_nlustre::ast::Program;
use velus_nlustre::{clockcheck, typecheck};
use velus_obc::ast::ObcProgram;
use velus_obc::fusion::{fuse_program, fusible};
use velus_ops::ClightOps;
use velus_server::{CancelReason, CancelToken, IrStageKind, Stage};

use crate::VelusError;

/// The event sink of the pass framework: stage timing *and* tracing
/// observe pass execution through this one hook.
///
/// [`PassManager`] calls [`pass_start`](PassSink::pass_start) before a
/// pass body runs, then exactly one of [`pass_end`](PassSink::pass_end)
/// (success, with the wall-clock duration covering the pass body *and*
/// its re-validation hook — validation is part of the pass, not an
/// optional extra) or [`pass_fail`](PassSink::pass_fail) (so a tracing
/// sink can close the pass's span without recording a timing sample;
/// failed passes have never contributed to the stage statistics).
///
/// Every `FnMut(Stage, Duration)` closure is a `PassSink` that only
/// listens to `pass_end` — the historical timing-observer shape — so
/// `&mut closure` still coerces to a [`StageObserver`].
pub trait PassSink {
    /// The named pass is about to run.
    fn pass_start(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }

    /// The pass and its re-validation succeeded, taking `dur`.
    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        let _ = (stage, dur);
    }

    /// The pass (or its re-validation) failed.
    fn pass_fail(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }
}

impl<F: FnMut(Stage, std::time::Duration)> PassSink for F {
    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        self(stage, dur)
    }
}

/// A borrowed pass-event sink, threaded through the pipeline
/// constructors. Plain timing closures coerce here unchanged; richer
/// sinks (the service's tracing + stats sink) implement [`PassSink`]
/// directly.
pub type StageObserver<'a> = &'a mut dyn PassSink;

/// The diagnostic stage a statistics [`Stage`] maps to, for the stage
/// tag the pass manager stamps on every failure.
pub fn diag_stage(stage: Stage) -> DiagStage {
    match stage {
        Stage::Frontend => DiagStage::Elaborate,
        Stage::Check => DiagStage::Check,
        Stage::Schedule => DiagStage::Schedule,
        Stage::Translate => DiagStage::Translate,
        Stage::Fuse => DiagStage::Fuse,
        Stage::Generate => DiagStage::Generate,
        Stage::Emit => DiagStage::Emit,
        Stage::Analysis => DiagStage::Analysis,
    }
}

/// One named, typed compiler pass.
///
/// A pass that rewrites its input takes it by value (scheduling,
/// fusion); the lifetime parameter lets a pass that builds a new IR
/// borrow its input instead (e.g. translation reads the scheduled
/// program without consuming it).
pub trait Pass<'a> {
    /// What the pass consumes.
    type Input: 'a;
    /// What the pass produces.
    type Output;

    /// The statistics stage this pass reports under.
    const STAGE: Stage;
    /// A short stable name (used in diagnostics and docs).
    const NAME: &'static str;

    /// Runs the transformation.
    ///
    /// # Errors
    ///
    /// Any failure of the pass itself (the untrusted half).
    fn run(&self, input: Self::Input) -> Result<Self::Output, VelusError>;

    /// Re-checks the pass's postcondition on its output (the validated
    /// half — the paper's proof obligation, executed). The default is a
    /// no-op for passes whose output needs no separate check.
    ///
    /// # Errors
    ///
    /// A violated postcondition, reported as a validation failure.
    fn revalidate(&self, output: &Self::Output) -> Result<(), VelusError> {
        let _ = output;
        Ok(())
    }
}

/// The coded form of a cancelled compilation: the serving layer's
/// deadline (`E0802`) or drain (`E0805`) condition, stamped as a driver
/// diagnostic so it flows through the same structured failure path as
/// any compile error.
fn cancelled(reason: CancelReason) -> VelusError {
    let (code, msg) = match reason {
        CancelReason::Deadline => (codes::E0802, "request deadline exceeded during compilation"),
        CancelReason::Shutdown => (codes::E0805, "compilation cancelled: service draining"),
    };
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(code, msg, Span::DUMMY).at_stage(DiagStage::Driver),
    ))
}

/// Runs passes, re-validating and timing each one, and — when built
/// with [`PassManager::with_cancel`] — honoring cooperative
/// cancellation at every pass boundary: a request whose deadline
/// expired (or whose service is draining) stops before the next pass
/// instead of running the pipeline to completion for nobody.
pub struct PassManager<'o> {
    observe: StageObserver<'o>,
    cancel: Option<&'o CancelToken>,
}

impl<'o> PassManager<'o> {
    /// A manager reporting stage durations to `observe`.
    pub fn new(observe: StageObserver<'o>) -> PassManager<'o> {
        PassManager {
            observe,
            cancel: None,
        }
    }

    /// A manager that additionally checks `cancel` before each pass.
    pub fn with_cancel(observe: StageObserver<'o>, cancel: &'o CancelToken) -> PassManager<'o> {
        PassManager {
            observe,
            cancel: Some(cancel),
        }
    }

    /// Runs one pass: transformation, then re-validation, timing both.
    ///
    /// Failures leave this method **structured**: the layer error is
    /// converted to coded diagnostics ([`VelusError::Diag`]), its
    /// node/equation context resolved to source spans through `spans`,
    /// and every diagnostic that does not already know a finer stage is
    /// tagged with this pass's stage.
    ///
    /// # Errors
    ///
    /// The pass's own failure, its postcondition check, or the coded
    /// cancellation condition (`E0802`/`E0805`) when the manager's
    /// token fired — checked *before* the pass starts, so no observer
    /// events are emitted for a pass that never ran.
    pub fn run<'a, P: Pass<'a>>(
        &mut self,
        pass: &P,
        input: P::Input,
        spans: &SpanMap,
    ) -> Result<P::Output, VelusError> {
        if let Some(reason) = self.cancel.and_then(|t| t.state()) {
            return Err(cancelled(reason));
        }
        self.observe.pass_start(P::STAGE, P::NAME);
        let start = Instant::now();
        let result = pass.run(input).and_then(|output| {
            pass.revalidate(&output)?;
            Ok(output)
        });
        match result {
            Ok(output) => {
                self.observe.pass_end(P::STAGE, start.elapsed());
                Ok(output)
            }
            Err(e) => {
                self.observe.pass_fail(P::STAGE, P::NAME);
                Err(e.into_structured(spans, diag_stage(P::STAGE)))
            }
        }
    }
}

/// The pass names in pipeline order (documentation and test aid).
pub const PASS_ORDER: [&str; 7] = [
    ElaboratePass::NAME,
    CheckPass::NAME,
    SchedulePass::NAME,
    TranslatePass::NAME,
    FusePass::NAME,
    GeneratePass::NAME,
    EmitPass::NAME,
];

/// Input of the front end: source text plus the optional root override.
#[derive(Debug, Clone, Copy)]
pub struct FrontendInput<'a> {
    /// The Lustre source text.
    pub source: &'a str,
    /// The requested root node name, if any.
    pub root: Option<&'a str>,
}

/// Output of the front end: the elaborated program, the resolved root,
/// the front-end warnings, and the source spans of every node and
/// equation (what lets later stages report real positions).
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// Elaborated, normalized, unscheduled N-Lustre.
    pub nlustre: Program<ClightOps>,
    /// The resolved root node.
    pub root: Ident,
    /// Front-end warnings (e.g. the initialization lint).
    pub warnings: Diagnostics,
    /// Node/equation source spans recorded by the elaborator.
    pub spans: SpanMap,
    /// The memory variables normalization introduced for surface `pre`s
    /// (the initialization analysis's input).
    pub pre_marks: PreMarks,
}

/// Picks the default root node: a node never instantiated by another
/// (the program's sink); ties broken towards the last one declared.
fn default_root(prog: &Program<ClightOps>) -> Option<Ident> {
    let called: velus_common::IdentSet = prog
        .nodes
        .iter()
        .flat_map(|node| &node.eqs)
        .filter_map(|eq| match eq {
            velus_nlustre::ast::Equation::Call { node: f, .. } => Some(*f),
            _ => None,
        })
        .collect();
    prog.nodes
        .iter()
        .rev()
        .map(|n| n.name)
        .find(|n| !called.contains(n))
        .or_else(|| prog.nodes.last().map(|n| n.name))
}

/// Parse, elaborate, and normalize to N-Lustre; resolve the root.
pub struct ElaboratePass;

thread_local! {
    /// Per-thread front-end scratch (token buffer + both expression
    /// arenas), recycled across compiles so a long-running service or
    /// bench loop stops allocating front-end working memory once the
    /// pools fit the largest program seen.
    static FRONTEND_SCRATCH: std::cell::RefCell<velus_lustre::FrontendScratch<ClightOps>> =
        std::cell::RefCell::new(velus_lustre::FrontendScratch::new());
}

impl<'a> Pass<'a> for ElaboratePass {
    type Input = FrontendInput<'a>;
    type Output = Elaborated;

    const STAGE: Stage = Stage::Frontend;
    const NAME: &'static str = "elaborate";

    fn run(&self, input: FrontendInput<'a>) -> Result<Elaborated, VelusError> {
        // Fall back to one-shot scratch if the thread-local is already
        // borrowed (a compile re-entered from inside a compile).
        let front = FRONTEND_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => velus_lustre::frontend_with::<ClightOps>(input.source, &mut scratch),
            Err(_) => velus_lustre::frontend::<ClightOps>(input.source),
        })?;
        let (nlustre, warnings, spans, pre_marks) =
            (front.program, front.warnings, front.spans, front.pre_marks);
        let root = match input.root {
            Some(r) => {
                let root = Ident::new(r);
                if nlustre.node(root).is_none() {
                    return Err(unknown_root(root));
                }
                root
            }
            None => default_root(&nlustre).ok_or_else(|| {
                VelusError::Diag(Diagnostics::from(
                    Diagnostic::error(codes::E0903, "program has no nodes", Span::DUMMY)
                        .at_stage(DiagStage::Driver),
                ))
            })?,
        };
        Ok(Elaborated {
            nlustre,
            root,
            warnings,
            spans,
            pre_marks,
        })
    }
}

/// The coded form of "no node named `root`".
fn unknown_root(root: Ident) -> VelusError {
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(codes::E0902, format!("no node named {root}"), Span::DUMMY)
            .at_stage(DiagStage::Driver),
    ))
}

/// Re-check the elaborator's postconditions (typing and clocking) on an
/// already-elaborated program. The transformation is the identity; the
/// checks *are* the pass.
pub struct CheckPass;

impl Pass<'_> for CheckPass {
    type Input = Program<ClightOps>;
    type Output = Program<ClightOps>;

    const STAGE: Stage = Stage::Check;
    const NAME: &'static str = "check";

    fn run(&self, input: Program<ClightOps>) -> Result<Program<ClightOps>, VelusError> {
        Ok(input)
    }

    fn revalidate(&self, output: &Program<ClightOps>) -> Result<(), VelusError> {
        typecheck::check_program(output)?;
        clockcheck::check_program_clocks(output)?;
        Ok(())
    }
}

/// Schedule the equations (untrusted heuristic); re-validation runs the
/// paper's schedule checker plus the typing/clocking preservation
/// checks.
pub struct SchedulePass;

impl Pass<'_> for SchedulePass {
    type Input = Program<ClightOps>;
    type Output = Program<ClightOps>;

    const STAGE: Stage = Stage::Schedule;
    const NAME: &'static str = "schedule";

    fn run(&self, mut input: Program<ClightOps>) -> Result<Program<ClightOps>, VelusError> {
        velus_nlustre::schedule::schedule_program(&mut input)?;
        Ok(input)
    }

    fn revalidate(&self, output: &Program<ClightOps>) -> Result<(), VelusError> {
        for node in &output.nodes {
            velus_nlustre::deps::check_schedule(node)?;
        }
        typecheck::check_program(output)?;
        clockcheck::check_program_clocks(output)?;
        Ok(())
    }
}

/// Checks that every method of every class is `Fusible` — the paper's
/// invariant that translation establishes and fusion preserves.
fn check_fusible(prog: &ObcProgram<ClightOps>, stage: &str) -> Result<(), VelusError> {
    for class in &prog.classes {
        for m in &class.methods {
            if !fusible(&m.body) {
                return Err(VelusError::Validation(format!(
                    "{stage} method {}.{} is not Fusible",
                    class.name, m.name
                )));
            }
        }
    }
    Ok(())
}

/// Translate scheduled SN-Lustre to Obc; re-validation re-checks Obc
/// typing and the `Fusible` postcondition.
pub struct TranslatePass;

impl<'a> Pass<'a> for TranslatePass {
    type Input = &'a Program<ClightOps>;
    type Output = ObcProgram<ClightOps>;

    const STAGE: Stage = Stage::Translate;
    const NAME: &'static str = "translate";

    fn run(&self, input: &'a Program<ClightOps>) -> Result<ObcProgram<ClightOps>, VelusError> {
        Ok(velus_obc::translate::translate_program(input)?)
    }

    fn revalidate(&self, output: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
        velus_obc::typecheck::check_program(output)?;
        check_fusible(output, "translated")
    }
}

/// The fusion optimization, rewriting the translated Obc in place;
/// re-validation checks preservation of typing and `Fusible`.
pub struct FusePass;

impl Pass<'_> for FusePass {
    type Input = ObcProgram<ClightOps>;
    type Output = ObcProgram<ClightOps>;

    const STAGE: Stage = Stage::Fuse;
    const NAME: &'static str = "fuse";

    fn run(&self, input: ObcProgram<ClightOps>) -> Result<ObcProgram<ClightOps>, VelusError> {
        Ok(fuse_program(input))
    }

    fn revalidate(&self, output: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
        velus_obc::typecheck::check_program(output)?;
        check_fusible(output, "fused")
    }
}

/// Input of Clight generation: the fused Obc plus the root class.
#[derive(Debug, Clone, Copy)]
pub struct GenerateInput<'a> {
    /// The fused Obc program.
    pub obc_fused: &'a ObcProgram<ClightOps>,
    /// The root class to build the simulation `main` for.
    pub root: Ident,
}

/// Generate Clight (with the simulation `main` for the root).
pub struct GeneratePass;

impl<'a> Pass<'a> for GeneratePass {
    type Input = GenerateInput<'a>;
    type Output = velus_clight::ast::Program;

    const STAGE: Stage = Stage::Generate;
    const NAME: &'static str = "generate";

    fn run(&self, input: GenerateInput<'a>) -> Result<velus_clight::ast::Program, VelusError> {
        Ok(velus_clight::generate::generate(
            input.obc_fused,
            input.root,
        )?)
    }
}

/// Input of emission: the Clight program plus the I/O rendering mode.
#[derive(Debug, Clone, Copy)]
pub struct EmitInput<'a> {
    /// The generated Clight.
    pub clight: &'a velus_clight::ast::Program,
    /// How the I/O boundary is rendered.
    pub io: TestIo,
}

/// Print the Clight as a compilable C translation unit.
pub struct EmitPass;

impl<'a> Pass<'a> for EmitPass {
    type Input = EmitInput<'a>;
    type Output = String;

    const STAGE: Stage = Stage::Emit;
    const NAME: &'static str = "emit";

    fn run(&self, input: EmitInput<'a>) -> Result<String, VelusError> {
        Ok(velus_clight::printer::print_program(input.clight, input.io))
    }
}

/// Input of the lint pass: the scheduled program plus everything the
/// analyses resolve findings through.
#[derive(Debug, Clone, Copy)]
pub struct LintInput<'a> {
    /// The scheduled program to analyze.
    pub program: &'a Program<ClightOps>,
    /// The root node (reachability/activity start from it).
    pub root: Ident,
    /// Where normalization put each surface `pre`'s memory.
    pub pre_marks: &'a PreMarks,
    /// Node/equation spans the findings anchor to.
    pub spans: &'a SpanMap,
}

/// The static-analysis lint pass (`velus-analysis`): initialization,
/// value ranges, liveness, dead clocks. Off the main compilation chain
/// — it runs only when a lint artifact (or `velus lint`) asks for it,
/// and its findings never fail the compilation.
pub struct LintPass;

impl<'a> Pass<'a> for LintPass {
    type Input = LintInput<'a>;
    type Output = Diagnostics;

    const STAGE: Stage = Stage::Analysis;
    const NAME: &'static str = "lint";

    fn run(&self, input: LintInput<'a>) -> Result<Diagnostics, VelusError> {
        Ok(velus_analysis::lint_program(
            input.program,
            input.root,
            input.pre_marks,
            input.spans,
        ))
    }
}

/// The pipeline composed on demand: each stage runs (and re-validates)
/// the first time it is requested.
///
/// This is the engine behind both the classic whole-pipeline API
/// ([`crate::compile`] forces every stage) and the multi-artifact
/// service (a WCET-only request forces stages up to Clight generation
/// and never runs emission; an N-Lustre dump stops after the checks).
///
/// Scheduling consumes the N-Lustre and fusion consumes the unfused
/// Obc. A caller that still wants either after its consuming pass says
/// so first with [`StagedPipeline::retain`]; only then is a copy made.
/// SN-Lustre, the fused Obc and the Clight are only read by the passes
/// after them, so they stay available once computed.
pub struct StagedPipeline<'o> {
    pm: PassManager<'o>,
    root: Ident,
    warnings: Diagnostics,
    spans: SpanMap,
    pre_marks: PreMarks,
    /// Live until scheduling consumes it; afterwards only if retained.
    nlustre: Option<Program<ClightOps>>,
    snlustre: Option<Program<ClightOps>>,
    /// Live until fusion consumes it; afterwards only if retained.
    obc: Option<ObcProgram<ClightOps>>,
    obc_fused: Option<ObcProgram<ClightOps>>,
    clight: Option<velus_clight::ast::Program>,
    lint: Option<Diagnostics>,
    retain_nlustre: bool,
    retain_obc: bool,
}

impl<'o> StagedPipeline<'o> {
    /// Elaborates `source` and prepares the staged pipeline (the
    /// `Frontend` and `Check` stages run here).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics, an unknown root, or a failed postcondition
    /// re-check.
    pub fn from_source(
        source: &str,
        root: Option<&str>,
        observe: StageObserver<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        Self::from_source_with(source, root, observe, None)
    }

    /// [`StagedPipeline::from_source`] with an optional cancellation
    /// token, checked at every pass boundary for the pipeline's whole
    /// life (later on-demand stages included).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics, an unknown root, a failed postcondition
    /// re-check, or the coded cancellation condition.
    pub fn from_source_with(
        source: &str,
        root: Option<&str>,
        observe: StageObserver<'o>,
        cancel: Option<&'o CancelToken>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        let mut pm = match cancel {
            Some(token) => PassManager::with_cancel(observe, token),
            None => PassManager::new(observe),
        };
        let elaborated = pm.run(
            &ElaboratePass,
            FrontendInput { source, root },
            &SpanMap::new(),
        )?;
        Self::from_elaborated(elaborated, pm)
    }

    /// Starts from an already-elaborated program (used by benchmarks and
    /// generated workloads that skip the parser). The `Check` stage runs
    /// here.
    ///
    /// # Errors
    ///
    /// An unknown root or failed elaborator postconditions.
    pub fn from_program(
        nlustre: Program<ClightOps>,
        root: Ident,
        warnings: Diagnostics,
        observe: StageObserver<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        if nlustre.node(root).is_none() {
            return Err(unknown_root(root));
        }
        Self::from_elaborated(
            Elaborated {
                nlustre,
                root,
                warnings,
                spans: SpanMap::new(),
                pre_marks: PreMarks::new(),
            },
            PassManager::new(observe),
        )
    }

    fn from_elaborated(
        elaborated: Elaborated,
        mut pm: PassManager<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        let nlustre = pm.run(&CheckPass, elaborated.nlustre, &elaborated.spans)?;
        Ok(StagedPipeline {
            pm,
            root: elaborated.root,
            warnings: elaborated.warnings,
            spans: elaborated.spans,
            pre_marks: elaborated.pre_marks,
            nlustre: Some(nlustre),
            snlustre: None,
            obc: None,
            obc_fused: None,
            clight: None,
            lint: None,
            retain_nlustre: false,
            retain_obc: false,
        })
    }

    /// Keeps a copy of `ir` past the pass that consumes it, for a
    /// consumer that asks for it later: the N-Lustre past scheduling,
    /// the unfused Obc past fusion. Call it before forcing that pass;
    /// the other IRs are never consumed, so retaining them is a no-op.
    pub fn retain(&mut self, ir: IrStageKind) {
        match ir {
            IrStageKind::NLustre => self.retain_nlustre = true,
            IrStageKind::Obc => self.retain_obc = true,
            IrStageKind::SnLustre | IrStageKind::ObcFused => {}
        }
    }

    /// The resolved root node.
    pub fn root(&self) -> Ident {
        self.root
    }

    /// The node/equation source spans recorded by the elaborator (empty
    /// when the pipeline started from an already-elaborated program).
    pub fn spans(&self) -> &SpanMap {
        &self.spans
    }

    /// The front-end warnings.
    pub fn warnings(&self) -> &Diagnostics {
        &self.warnings
    }

    /// The elaborated, unscheduled N-Lustre.
    ///
    /// # Panics
    ///
    /// If scheduling already consumed it and it was not retained.
    pub fn nlustre(&self) -> &Program<ClightOps> {
        self.nlustre
            .as_ref()
            .expect("scheduling consumed the N-Lustre: retain(IrStageKind::NLustre) first")
    }

    /// The scheduled SN-Lustre, scheduling on first demand. Scheduling
    /// consumes the N-Lustre unless it is retained.
    ///
    /// # Errors
    ///
    /// Scheduling failures or a failed schedule re-check.
    ///
    /// # Panics
    ///
    /// If called again after scheduling failed (its input is gone).
    pub fn snlustre(&mut self) -> Result<&Program<ClightOps>, VelusError> {
        if self.snlustre.is_none() {
            let nlustre = if self.retain_nlustre {
                self.nlustre.clone()
            } else {
                self.nlustre.take()
            };
            let nlustre = nlustre.expect("scheduling already failed");
            let scheduled = self.pm.run(&SchedulePass, nlustre, &self.spans)?;
            self.snlustre = Some(scheduled);
        }
        Ok(self.snlustre.as_ref().expect("just scheduled"))
    }

    /// The translated (unfused) Obc, translating on first demand.
    ///
    /// # Errors
    ///
    /// Translation failures or failed typing/`Fusible` re-checks.
    ///
    /// # Panics
    ///
    /// If fusion already consumed it and it was not retained.
    pub fn obc(&mut self) -> Result<&ObcProgram<ClightOps>, VelusError> {
        if self.obc.is_none() {
            assert!(
                self.obc_fused.is_none(),
                "fusion consumed the Obc: retain(IrStageKind::Obc) first"
            );
            self.snlustre()?;
            let obc = self.pm.run(
                &TranslatePass,
                self.snlustre.as_ref().expect("scheduled"),
                &self.spans,
            )?;
            self.obc = Some(obc);
        }
        Ok(self.obc.as_ref().expect("just translated"))
    }

    /// The fused Obc, fusing on first demand. Fusion consumes the
    /// unfused Obc unless it is retained.
    ///
    /// # Errors
    ///
    /// Failed preservation re-checks.
    ///
    /// # Panics
    ///
    /// If called again after fusion failed (its input is gone).
    pub fn obc_fused(&mut self) -> Result<&ObcProgram<ClightOps>, VelusError> {
        if self.obc_fused.is_none() {
            self.obc()?;
            let obc = if self.retain_obc {
                self.obc.clone()
            } else {
                self.obc.take()
            };
            let obc = obc.expect("fusion already failed");
            let fused = self.pm.run(&FusePass, obc, &self.spans)?;
            self.obc_fused = Some(fused);
        }
        Ok(self.obc_fused.as_ref().expect("just fused"))
    }

    /// The generated Clight, generating on first demand.
    ///
    /// # Errors
    ///
    /// Generation failures.
    pub fn clight(&mut self) -> Result<&velus_clight::ast::Program, VelusError> {
        if self.clight.is_none() {
            self.obc_fused()?;
            let clight = self.pm.run(
                &GeneratePass,
                GenerateInput {
                    obc_fused: self.obc_fused.as_ref().expect("fused"),
                    root: self.root,
                },
                &self.spans,
            )?;
            self.clight = Some(clight);
        }
        Ok(self.clight.as_ref().expect("just generated"))
    }

    /// The full static-analysis lint findings, analyzing on first
    /// demand (forcing scheduling first — the analyses run over the
    /// scheduled program). Findings never fail the compilation: a
    /// guaranteed trap is an `E`-severity *finding*, surfaced through
    /// the lint artifact and `velus lint`, not a compile error.
    ///
    /// # Errors
    ///
    /// Scheduling failures (the lint pass itself is total).
    pub fn lint(&mut self) -> Result<&Diagnostics, VelusError> {
        if self.lint.is_none() {
            self.snlustre()?;
            let findings = self.pm.run(
                &LintPass,
                LintInput {
                    program: self.snlustre.as_ref().expect("scheduled"),
                    root: self.root,
                    pre_marks: &self.pre_marks,
                    spans: &self.spans,
                },
                &self.spans,
            )?;
            self.lint = Some(findings);
        }
        Ok(self.lint.as_ref().expect("just linted"))
    }

    /// The lint findings, if [`StagedPipeline::lint`] already ran
    /// (`None` otherwise — this never forces the analysis).
    pub fn lint_cached(&self) -> Option<&Diagnostics> {
        self.lint.as_ref()
    }

    /// Prints the C translation unit (forcing generation first). The
    /// `Emit` stage is timed per call — only requests that actually need
    /// C pay for (and report) it.
    ///
    /// # Errors
    ///
    /// Any failure of the forced stages.
    pub fn emit(&mut self, io: TestIo) -> Result<String, VelusError> {
        self.clight()?;
        self.pm.run(
            &EmitPass,
            EmitInput {
                clight: self.clight.as_ref().expect("generated"),
                io,
            },
            &self.spans,
        )
    }

    /// Retains and forces every stage and returns the classic
    /// whole-pipeline result, every IR included (the oracles' bundle,
    /// so the N-Lustre and the unfused Obc are copied aside).
    ///
    /// # Errors
    ///
    /// Any stage failure.
    ///
    /// # Panics
    ///
    /// If scheduling or fusion already ran without retaining its input.
    pub fn into_compiled(mut self) -> Result<crate::pipeline::Compiled, VelusError> {
        self.retain(IrStageKind::NLustre);
        self.retain(IrStageKind::Obc);
        self.clight()?;
        Ok(crate::pipeline::Compiled {
            nlustre: self.nlustre.expect("retained"),
            snlustre: self.snlustre.expect("forced"),
            obc: self.obc.expect("retained"),
            obc_fused: self.obc_fused.expect("forced"),
            clight: self.clight.expect("forced"),
            root: self.root,
            warnings: self.warnings,
            spans: self.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    #[test]
    fn staged_pipeline_is_lazy_and_memoizing() {
        let mut stages: Vec<Stage> = Vec::new();
        let mut observe = |stage: Stage, _dur: std::time::Duration| stages.push(stage);
        let mut staged = StagedPipeline::from_source(COUNTER, None, &mut observe).unwrap();
        let _ = staged.snlustre().unwrap();
        let _ = staged.snlustre().unwrap(); // memoized: no second report
        let _ = staged.obc_fused().unwrap(); // forces translate then fuse
        drop(staged);
        assert_eq!(
            stages,
            vec![
                Stage::Frontend,
                Stage::Check,
                Stage::Schedule,
                Stage::Translate,
                Stage::Fuse,
            ]
        );
    }

    #[test]
    fn pass_names_are_stable() {
        assert_eq!(
            PASS_ORDER,
            [
                "elaborate",
                "check",
                "schedule",
                "translate",
                "fuse",
                "generate",
                "emit"
            ]
        );
    }

    #[test]
    fn a_cancelled_token_stops_the_pipeline_at_a_pass_boundary() {
        // A live token compiles normally…
        let token = CancelToken::unbounded();
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged =
            StagedPipeline::from_source_with(COUNTER, None, &mut observe, Some(&token)).unwrap();
        let _ = staged.snlustre().unwrap();
        // …until it fires: the next demanded stage refuses to run and
        // surfaces the drain code, with no observer events for the
        // never-started pass.
        token.cancel();
        let mut events = 0usize;
        // Rebuild with a counting observer on the already-fired token:
        // even the first pass refuses.
        let mut count = |_: Stage, _: std::time::Duration| events += 1;
        let err = StagedPipeline::from_source_with(COUNTER, None, &mut count, Some(&token))
            .err()
            .expect("cancelled before elaboration");
        let diags = velus_common::ToDiagnostics::to_diagnostics(&err, &SpanMap::new());
        assert_eq!(diags.iter().next().unwrap().code, codes::E0805);
        assert_eq!(events, 0, "no stage ran, none was observed");
        // An expired deadline reports E0802 instead.
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let err = StagedPipeline::from_source_with(COUNTER, None, &mut observe, Some(&expired))
            .err()
            .expect("deadline already expired");
        let diags = velus_common::ToDiagnostics::to_diagnostics(&err, &SpanMap::new());
        assert_eq!(diags.iter().next().unwrap().code, codes::E0802);
    }

    #[test]
    fn revalidation_rejects_a_corrupted_schedule() {
        // A program whose equations are deliberately mis-ordered fails
        // the schedule *checker* even though each pass alone succeeds:
        // run the checker directly on an unscheduled two-equation node
        // with a forward dependency.
        let src = "
            node f(x: int) returns (y: int)
            var a: int;
            let
              y = a + 1;
              a = x + 1;
            tel
        ";
        let (prog, _) = velus_lustre::compile_to_nlustre::<ClightOps>(src).unwrap();
        // The schedule checker on the *unscheduled* program must reject
        // the order above (y reads a before a is defined).
        let ok = prog
            .nodes
            .iter()
            .try_for_each(velus_nlustre::deps::check_schedule);
        assert!(ok.is_err(), "mis-ordered equations must fail the checker");
        // And the SchedulePass both fixes and re-validates it.
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut pm = PassManager::new(&mut observe);
        let scheduled = pm.run(&SchedulePass, prog, &SpanMap::new()).unwrap();
        scheduled
            .nodes
            .iter()
            .try_for_each(velus_nlustre::deps::check_schedule)
            .unwrap();
    }
}
