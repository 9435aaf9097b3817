//! The per-layer view: one compile replayed call by call through each
//! crate's public functions, in the order `StagedPipeline` runs them,
//! with a span, a timer and the allocation counters around every call.
//!
//! The rows are measured from outside the program: the spans are
//! recorded by this benchmark around the calls, not inside the crates.
//! `core.glue` is not replayed; it is the remainder of the untraced
//! end-to-end compile once every other row is taken out.

use std::time::Instant;

use velus::{ArtifactKind, TestIo};
use velus_clight::ast::Stmt;
use velus_common::{Ident, IdentSet};
use velus_lustre::FrontendScratch;
use velus_nlustre::ast::{Equation, Program as NProgram};
use velus_obc::ast::ObcProgram;
use velus_obs::trace;
use velus_ops::ClightOps;

use crate::alloc::counters;
use crate::inputs::Program;

/// The stage rows, in pipeline order; `core.glue` (the remainder) last.
pub const STAGES: [&str; 16] = [
    "lustre.lex",
    "lustre.parse",
    "lustre.elab",
    "lustre.normalize",
    "lustre.init_check",
    "nlustre.check",
    "nlustre.schedule",
    "nlustre.schedule_validate",
    "obc.translate",
    "obc.translate_validate",
    "obc.fuse",
    "obc.fuse_validate",
    "clight.generate",
    "clight.print",
    "analysis.lint",
    "core.glue",
];
pub const GLUE: usize = 15;
const NROWS: usize = STAGES.len();

/// Rows that re-check a pass's postcondition (the validated half).
pub const REVALIDATION: [usize; 4] = [5, 7, 9, 11];

/// IR and output sizes of one compile.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sizes {
    pub tokens: u64,
    pub equations: u64,
    pub obc_stmts: u64,
    pub obc_stmts_fused: u64,
    pub clight_stmts: u64,
    pub c_bytes: u64,
    pub indent_bytes: u64,
}

impl std::ops::AddAssign<Sizes> for Sizes {
    fn add_assign(&mut self, o: Sizes) {
        self.tokens += o.tokens;
        self.equations += o.equations;
        self.obc_stmts += o.obc_stmts;
        self.obc_stmts_fused += o.obc_stmts_fused;
        self.clight_stmts += o.clight_stmts;
        self.c_bytes += o.c_bytes;
        self.indent_bytes += o.indent_bytes;
    }
}

/// What one replay measured, row by row.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub ns: [u64; NROWS],
    pub allocs: [u64; NROWS],
    pub bytes: [u64; NROWS],
    pub sizes: Sizes,
    /// The C text, when the request asked for it.
    pub c_code: Option<String>,
    /// The first failing stage's error, rendered.
    pub error: Option<String>,
}

impl Replay {
    /// Adds `other`'s rows and sizes to this total.
    pub fn accumulate(&mut self, other: &Replay) {
        for k in 0..NROWS {
            self.ns[k] += other.ns[k];
            self.allocs[k] += other.allocs[k];
            self.bytes[k] += other.bytes[k];
        }
        self.sizes += other.sizes;
    }
}

struct Rows<'r> {
    out: &'r mut Replay,
}

impl Rows<'_> {
    fn run<T>(&mut self, row: usize, f: impl FnOnce() -> T) -> T {
        let token = trace::enter(STAGES[row]);
        let (a0, b0) = counters();
        let start = Instant::now();
        let value = f();
        self.out.ns[row] += start.elapsed().as_nanos() as u64;
        let (a1, b1) = counters();
        trace::exit(token);
        self.out.allocs[row] += a1 - a0;
        self.out.bytes[row] += b1 - b0;
        value
    }
}

/// The pipeline's default root: a node no other node calls, the last
/// one declared on ties.
fn default_root(prog: &NProgram<ClightOps>) -> Option<Ident> {
    let called: IdentSet = prog
        .nodes
        .iter()
        .flat_map(|node| &node.eqs)
        .filter_map(|eq| match eq {
            Equation::Call { node: f, .. } => Some(*f),
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

fn obc_stmts(prog: &ObcProgram<ClightOps>) -> u64 {
    prog.classes
        .iter()
        .flat_map(|c| &c.methods)
        .map(|m| m.body.size() as u64)
        .sum()
}

fn clight_stmts(prog: &velus_clight::ast::Program) -> u64 {
    let mut count = 0;
    let mut stack: Vec<&Stmt> = prog.functions.iter().map(|f| &f.body).collect();
    while let Some(s) = stack.pop() {
        count += 1;
        match s {
            Stmt::Seq(a, b) | Stmt::If(_, a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Stmt::Loop(a) => stack.push(a),
            _ => {}
        }
    }
    count
}

/// Bytes of leading indentation in `c`.
pub fn indent_bytes(c: &str) -> u64 {
    c.lines()
        .map(|l| (l.len() - l.trim_start_matches(' ').len()) as u64)
        .sum()
}

fn check_fusible(prog: &ObcProgram<ClightOps>) -> Result<(), String> {
    let all = prog
        .classes
        .iter()
        .flat_map(|c| &c.methods)
        .all(|m| velus_obc::fusion::fusible(&m.body));
    if all {
        Ok(())
    } else {
        Err("a method is not Fusible".to_owned())
    }
}

/// Replays one compile of `p` for the artifact `kinds`, recording every
/// row into a fresh [`Replay`]. Spans land in the calling thread's
/// trace scope, if one is open.
pub fn replay(
    scratch: &mut FrontendScratch<ClightOps>,
    p: &Program,
    kinds: &[ArtifactKind],
) -> Replay {
    let mut out = Replay::default();
    if let Err(e) = replay_into(&mut Rows { out: &mut out }, scratch, p, kinds) {
        out.error = Some(e);
    }
    out
}

fn replay_into(
    rows: &mut Rows<'_>,
    scratch: &mut FrontendScratch<ClightOps>,
    p: &Program,
    kinds: &[ArtifactKind],
) -> Result<(), String> {
    use velus_lustre::{elab, lexer, normalize, parser};
    use velus_nlustre::{clockcheck, deps, schedule, typecheck};

    let src = p.source.as_str();
    scratch.clear();
    rows.run(0, || lexer::lex_into(src, &mut scratch.tokens))
        .map_err(|e| e.to_string())?;
    rows.out.sizes.tokens = scratch.tokens.len() as u64;
    let uprog = rows
        .run(1, || parser::parse(&scratch.tokens, src, &mut scratch.ua))
        .map_err(|e| e.to_string())?;
    let (typed, mut warnings) = rows
        .run(2, || {
            elab::elaborate::<ClightOps>(&uprog, &scratch.ua, &mut scratch.ta)
        })
        .map_err(|e| e.to_string())?;
    let (prog, spans, marks) = rows
        .run(3, || normalize::normalize::<ClightOps>(typed, &scratch.ta))
        .map_err(|e| e.to_string())?;
    rows.run(4, || {
        velus_analysis::init::check_initialization(&prog, &marks, &mut warnings)
    });
    let root = match &p.root {
        Some(r) => Ident::new(r),
        None => default_root(&prog).ok_or("program has no nodes")?,
    };
    if prog.node(root).is_none() {
        return Err(format!("no node named {root}"));
    }
    rows.run(5, || {
        typecheck::check_program(&prog)?;
        clockcheck::check_program_clocks(&prog)
    })
    .map_err(|e| e.to_string())?;
    let mut snl = prog.clone();
    rows.run(6, || schedule::schedule_program(&mut snl))
        .map_err(|e| e.to_string())?;
    rows.run(7, || {
        snl.nodes.iter().try_for_each(deps::check_schedule)?;
        typecheck::check_program(&snl)?;
        clockcheck::check_program_clocks(&snl)
    })
    .map_err(|e| e.to_string())?;
    rows.out.sizes.equations = snl.equation_count() as u64;

    let c = kinds.contains(&ArtifactKind::CCode);
    let wcet = kinds
        .iter()
        .find(|k| matches!(k, ArtifactKind::Wcet { .. }));
    if c || wcet.is_some() {
        let obc = rows
            .run(8, || velus_obc::translate::translate_program(&snl))
            .map_err(|e| e.to_string())?;
        rows.run(9, || {
            velus_obc::typecheck::check_program(&obc).map_err(|e| e.to_string())?;
            check_fusible(&obc)
        })?;
        let fused = rows.run(10, || velus_obc::fusion::fuse_program(&obc));
        rows.run(11, || {
            velus_obc::typecheck::check_program(&fused).map_err(|e| e.to_string())?;
            check_fusible(&fused)
        })?;
        rows.out.sizes.obc_stmts = obc_stmts(&obc);
        rows.out.sizes.obc_stmts_fused = obc_stmts(&fused);
        let clight = rows
            .run(12, || velus_clight::generate::generate(&fused, root))
            .map_err(|e| e.to_string())?;
        rows.out.sizes.clight_stmts = clight_stmts(&clight);
        if c {
            let text = rows.run(13, || {
                velus_clight::printer::print_program(&clight, TestIo::Volatile)
            });
            rows.out.sizes.c_bytes = text.len() as u64;
            rows.out.sizes.indent_bytes = indent_bytes(&text);
            rows.out.c_code = Some(text);
        }
        if let Some(ArtifactKind::Wcet { model }) = wcet {
            // No row of its own: the WCET analysis is part of `core.glue`.
            velus_wcet::wcet_step(&clight, root, velus::artifacts::cost_model(*model))
                .map_err(|e| e.to_string())?;
        }
    }
    if kinds.contains(&ArtifactKind::Lint) {
        rows.run(14, || {
            velus_analysis::lint_program(&snl, root, &marks, &spans)
        });
    }
    Ok(())
}
