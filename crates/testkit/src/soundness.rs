//! The lint soundness oracle: static trap verdicts vs. real executions.
//!
//! The range analysis (`velus-analysis`) makes falsifiable claims about
//! every compiled program:
//!
//! * `E0110` / `E0111` — a **guaranteed** trap: a division that
//!   provably executes on every step of the root and whose divisor is
//!   always zero (or which is always `i32::MIN / -1`). The very first
//!   step of the generated Clight must trap.
//! * `W0102` — a **possible** trap: the analysis can neither prove nor
//!   refute it; execution may go either way.
//! * none of the above — a **clean** program: the analysis proved
//!   every division, modulo and narrowing cast safe, so no execution
//!   may ever trap.
//!
//! One seed = one experiment: generate a program under a trap-allowing
//! profile ([`GenConfig::trap_divisors`] plus lint bait), render it to
//! surface Lustre, compile it — collecting the lint verdicts over the
//! scheduled program exactly as `velus lint` does — then drive the
//! generated Clight step by step under
//! [`Machine`] and compare what
//! *happened* against what was *claimed*. A mismatch means the abstract
//! interpretation under-approximated reality (or the backend
//! miscompiled) and is reported as a [`Violation`] carrying the `.lus`
//! source as a reproducer.
//!
//! `tests/lints.rs` runs a bounded pass; `velus-bench --bin lintsound`
//! scales the same harness to thousands of seeds in CI.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::SeedableRng;

use velus::{Compiled, IrStageKind, StagedPipeline, VelusError};
use velus_clight::generate::{method_fn_name, out_struct_name};
use velus_clight::interp::{Machine, RVal};
use velus_clight::ClightError;
use velus_common::{Diagnostics, SpanMap};
use velus_nlustre::streams::{SVal, StreamSet};
use velus_obc::ast::{reset_name, step_name};
use velus_ops::ClightOps;

use crate::campaign::panic_message;
use crate::gen::{gen_inputs, gen_program, GenConfig};
use crate::render::lustre_source;

/// Tunables of the soundness campaign.
#[derive(Debug, Clone)]
pub struct SoundnessConfig {
    /// The generator shape. Must allow traps ([`GenConfig::trap_divisors`])
    /// for the guaranteed-trap claims to ever be exercised.
    pub gen: GenConfig,
    /// Instants executed per seed.
    pub steps: usize,
}

impl Default for SoundnessConfig {
    fn default() -> SoundnessConfig {
        SoundnessConfig {
            gen: GenConfig {
                trap_divisors: true,
                lint_bait_pct: 40,
                ..GenConfig::default()
            },
            steps: 10,
        }
    }
}

/// The strongest trap claim the lint findings make about a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapClaim {
    /// `E0110`/`E0111` present: the first step must trap.
    Guaranteed,
    /// `W0102` present (and no guarantee): execution may trap or not.
    Possible,
    /// No trap-related finding: no execution may trap.
    Clean,
}

impl TrapClaim {
    /// The stable token used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TrapClaim::Guaranteed => "guaranteed-trap",
            TrapClaim::Possible => "possible-trap",
            TrapClaim::Clean => "clean",
        }
    }
}

/// A seed whose execution contradicted the analysis's claim.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The seed (0 for handcrafted sources checked directly).
    pub seed: u64,
    /// The claim that was broken.
    pub claim: TrapClaim,
    /// What actually happened.
    pub detail: String,
    /// The surface Lustre source, as a reproducer.
    pub source: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {}: claim `{}` broken: {}",
            self.seed,
            self.claim.name(),
            self.detail
        )
    }
}

/// The classified result of one seed.
#[derive(Debug, Clone)]
pub enum SeedOutcome {
    /// The compiler rejected the generated source with a coded
    /// diagnostic; there is no claim to check.
    Rejected {
        /// The first diagnostic code.
        code: String,
    },
    /// Execution matched the claim.
    Consistent {
        /// The claim that held.
        claim: TrapClaim,
        /// The step at which execution trapped, if it did.
        trapped: Option<usize>,
    },
    /// Execution contradicted the claim — the unsoundness this oracle
    /// hunts.
    Violated(Violation),
}

/// Aggregate results of a seed range.
#[derive(Debug, Clone, Default)]
pub struct SoundnessReport {
    /// Seeds examined (including rejected ones).
    pub checked: usize,
    /// Seeds the compiler rejected.
    pub rejected: usize,
    /// Accepted seeds claimed `guaranteed-trap`.
    pub guaranteed: usize,
    /// Accepted seeds claimed `possible-trap`.
    pub possible: usize,
    /// Accepted seeds claimed `clean`.
    pub clean: usize,
    /// Accepted seeds whose execution actually trapped.
    pub trapped_runs: usize,
    /// Every broken claim, with reproducers.
    pub violations: Vec<Violation>,
}

impl SoundnessReport {
    /// Whether every claim survived execution.
    pub fn sound(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for SoundnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lint soundness: {} seeds · {} rejected · claims {} guaranteed / {} possible / {} clean · {} trapped runs · {} violations",
            self.checked,
            self.rejected,
            self.guaranteed,
            self.possible,
            self.clean,
            self.trapped_runs,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// The strongest trap claim in a finding set.
fn claim_of(findings: &Diagnostics) -> TrapClaim {
    let has = |id: &str| findings.iter().any(|d| d.code.id == id);
    if has("E0110") || has("E0111") {
        TrapClaim::Guaranteed
    } else if has("W0102") {
        TrapClaim::Possible
    } else {
        TrapClaim::Clean
    }
}

/// Drives the compiled root step by step for `steps` instants.
///
/// Returns `Ok(None)` for a trap-free run, `Ok(Some(i))` when step `i`
/// trapped (an undefined operation, the only legitimate runtime
/// failure), and `Err` for any *other* execution error — which a
/// well-formed generated program must never produce.
fn drive(
    c: &Compiled,
    inputs: &StreamSet<ClightOps>,
    steps: usize,
) -> Result<Option<usize>, String> {
    let root = c.root;
    let node = c
        .snlustre
        .node(root)
        .ok_or_else(|| format!("root {root} missing from the scheduled program"))?;
    let n_outputs = node.outputs.len();
    let err = |e: ClightError| e.to_string();

    let mut machine = Machine::new(&c.clight).map_err(err)?;
    let selfb = machine.alloc_struct(root).map_err(err)?;
    machine
        .call(method_fn_name(root, reset_name()), &[RVal::Ptr(selfb, 0)])
        .map_err(err)?;
    let outb = if n_outputs >= 2 {
        Some(
            machine
                .alloc_struct(out_struct_name(root, step_name()))
                .map_err(err)?,
        )
    } else {
        None
    };

    for i in 0..steps {
        let mut args = vec![RVal::Ptr(selfb, 0)];
        if let Some(b) = outb {
            args.push(RVal::Ptr(b, 0));
        }
        for stream in inputs {
            match stream.get(i) {
                Some(SVal::Pres(v)) => args.push(RVal::Scalar(*v)),
                other => return Err(format!("input not present at step {i}: {other:?}")),
            }
        }
        match machine.call(method_fn_name(root, step_name()), &args) {
            Ok(_) => {}
            Err(ClightError::UndefinedOperation(_)) => return Ok(Some(i)),
            Err(e) => return Err(format!("non-trap execution error at step {i}: {e}")),
        }
    }
    Ok(None)
}

/// Compiles `source`, lints it, executes it on `inputs`, and holds the
/// execution against the lint claims. All inputs must be present at
/// every one of the `steps` instants.
pub fn check_source(
    seed: u64,
    source: &str,
    root: Option<&str>,
    inputs: &StreamSet<ClightOps>,
    steps: usize,
) -> SeedOutcome {
    let violated = |claim: TrapClaim, detail: String| {
        SeedOutcome::Violated(Violation {
            seed,
            claim,
            detail,
            source: source.to_owned(),
        })
    };

    // Compile, collecting the lint verdicts over the scheduled program
    // (the same findings `velus lint` reports).
    type Linted = Result<(Diagnostics, Compiled), VelusError>;
    let compiled = catch_unwind(AssertUnwindSafe(|| -> Linted {
        let mut observe = |_: velus::Stage, _: std::time::Duration| {};
        let mut staged = StagedPipeline::from_source(source, root, &mut observe)?;
        // `into_compiled` below wants the IRs scheduling and fusion
        // consume; keep them before `lint` forces scheduling.
        staged.retain(IrStageKind::NLustre);
        staged.retain(IrStageKind::Obc);
        let findings = staged.lint()?.clone();
        Ok((findings, staged.into_compiled()?))
    }));
    let (findings, compiled) = match compiled {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => {
            let code = e
                .diagnostics(&SpanMap::new())
                .iter()
                .next()
                .map_or("E0000", |d| d.code.id)
                .to_owned();
            return SeedOutcome::Rejected { code };
        }
        Err(p) => {
            return violated(
                TrapClaim::Clean,
                format!("compilation panicked: {}", panic_message(p)),
            )
        }
    };
    let claim = claim_of(&findings);

    let run = catch_unwind(AssertUnwindSafe(|| drive(&compiled, inputs, steps)));
    let trapped = match run {
        Ok(Ok(trapped)) => trapped,
        Ok(Err(detail)) => return violated(claim, detail),
        Err(p) => return violated(claim, format!("execution panicked: {}", panic_message(p))),
    };

    match (claim, trapped) {
        // A guaranteed trap executes on every step, so step 0 must
        // already trap; surviving it (or any prefix) breaks the claim.
        (TrapClaim::Guaranteed, Some(0)) => SeedOutcome::Consistent { claim, trapped },
        (TrapClaim::Guaranteed, Some(i)) => violated(
            claim,
            format!(
                "E0110/E0111 claimed a trap on every step, but step 0 ran and step {i} trapped"
            ),
        ),
        (TrapClaim::Guaranteed, None) => violated(
            claim,
            format!("E0110/E0111 claimed a guaranteed trap, but {steps} steps ran clean"),
        ),
        // A clean program may never trap.
        (TrapClaim::Clean, Some(i)) => violated(
            claim,
            format!("no trap-related finding, but execution trapped at step {i}"),
        ),
        // Possible traps are consistent either way; clean runs clean.
        _ => SeedOutcome::Consistent { claim, trapped },
    }
}

/// Generates and checks one seed under `cfg`.
pub fn check_seed(seed: u64, cfg: &SoundnessConfig) -> SeedOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = gen_program(&mut rng, &cfg.gen);
    let root = prog.nodes.last().expect("generator emits nodes").name;
    let node = prog.node(root).expect("root exists").clone();
    let source = lustre_source(&prog);
    let inputs = gen_inputs(&mut rng, &node, cfg.steps);
    let root_s = root.to_string();
    check_source(seed, &source, Some(&root_s), &inputs, cfg.steps)
}

/// Runs the oracle over the seed block `[from, from + count)`.
pub fn run_soundness(cfg: &SoundnessConfig, from: u64, count: u64) -> SoundnessReport {
    let mut rep = SoundnessReport::default();
    for seed in from..from.saturating_add(count) {
        rep.checked += 1;
        match check_seed(seed, cfg) {
            SeedOutcome::Rejected { .. } => rep.rejected += 1,
            SeedOutcome::Consistent { claim, trapped } => {
                match claim {
                    TrapClaim::Guaranteed => rep.guaranteed += 1,
                    TrapClaim::Possible => rep.possible += 1,
                    TrapClaim::Clean => rep.clean += 1,
                }
                if trapped.is_some() {
                    rep.trapped_runs += 1;
                }
            }
            SeedOutcome::Violated(v) => rep.violations.push(v),
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_ops::CVal;

    fn present(vals: &[i64]) -> Vec<SVal<ClightOps>> {
        vals.iter()
            .map(|v| SVal::Pres(CVal::int(*v as i32)))
            .collect()
    }

    #[test]
    fn a_guaranteed_trap_traps_on_the_first_step() {
        let src = "node f(x: int) returns (y: int) let y = x / 0; tel";
        let inputs = vec![present(&[1, 2, 3])];
        match check_source(0, src, Some("f"), &inputs, 3) {
            SeedOutcome::Consistent {
                claim: TrapClaim::Guaranteed,
                trapped: Some(0),
            } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn a_clean_program_runs_clean() {
        let src = "node f(x: int) returns (y: int) let y = x / 4; tel";
        let inputs = vec![present(&[-9, 0, 17])];
        match check_source(0, src, Some("f"), &inputs, 3) {
            SeedOutcome::Consistent {
                claim: TrapClaim::Clean,
                trapped: None,
            } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn a_possible_trap_is_consistent_whether_or_not_it_fires() {
        let src = "node f(x, d: int) returns (y: int) let y = x / d; tel";
        let safe = vec![present(&[8, 9]), present(&[2, 3])];
        match check_source(0, src, Some("f"), &safe, 2) {
            SeedOutcome::Consistent {
                claim: TrapClaim::Possible,
                trapped: None,
            } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        let trapping = vec![present(&[8, 9]), present(&[2, 0])];
        match check_source(0, src, Some("f"), &trapping, 2) {
            SeedOutcome::Consistent {
                claim: TrapClaim::Possible,
                trapped: Some(1),
            } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn the_overflow_trap_is_guaranteed_and_fires() {
        let src = "node f(x: int) returns (y: int) let y = -2147483648 / -1; tel";
        let inputs = vec![present(&[0, 0])];
        match check_source(0, src, Some("f"), &inputs, 2) {
            SeedOutcome::Consistent {
                claim: TrapClaim::Guaranteed,
                trapped: Some(0),
            } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn the_campaign_is_sound_on_a_seed_block() {
        let cfg = SoundnessConfig::default();
        let rep = run_soundness(&cfg, 0, 60);
        assert!(rep.sound(), "{rep}");
        assert_eq!(rep.checked, 60);
        // The trap-allowing profile must actually exercise the
        // interesting claims: some guaranteed traps, some clean
        // programs, and some runs that really trapped.
        assert!(rep.guaranteed > 0, "{rep}");
        assert!(rep.clean + rep.possible > 0, "{rep}");
        assert!(rep.trapped_runs > 0, "{rep}");
    }
}
