//! The fusion optimization (paper §3.3, Fig. 8).
//!
//! Translation produces one nesting of conditionals per equation, so the
//! step code tests the same clock guards over and over. `fuse` merges
//! adjacent conditionals with (syntactically) equal guards — effective
//! because scheduling places similarly clocked equations together.
//!
//! The first `zip` rule does **not** preserve semantics in general: if the
//! first branch writes a variable read by the shared guard, merging
//! changes the second test. Soundness holds under the [`fusible`]
//! predicate — no `if` writes the free variables of its own guard in
//! either branch — which the paper proves of all translated code via a
//! "subtle technical argument about well-formed clocks"; here it is an
//! executable check (asserted by the validation harness) and a property
//! test.

use std::mem::take;

use velus_ops::Ops;

use crate::ast::{ObcExpr, ObcProgram, Stmt};

/// The `zip` function of Fig. 8: iteratively integrates statements of the
/// second argument into the first, merging equal-guard conditionals.
pub fn zip<O: Ops>(s: Stmt<O>, t: Stmt<O>) -> Stmt<O> {
    zip_in(s, t, &mut Vec::new())
}

/// [`zip`] rewriting in place: the first argument keeps its `Box`es, and
/// the boxes the second argument gives up go to `spare`, from which the
/// new sequences draw before allocating. Fusion only shrinks a
/// statement, so it rarely allocates at all.
fn zip_in<O: Ops>(s: Stmt<O>, t: Stmt<O>, spare: &mut Vec<Box<Stmt<O>>>) -> Stmt<O> {
    match (s, t) {
        (Stmt::If(e1, mut t1, mut f1), Stmt::If(e2, t2, f2)) if e1 == e2 => {
            *t1 = zip_in(take(&mut *t1), unbox(t2, spare), spare);
            *f1 = zip_in(take(&mut *f1), unbox(f2, spare), spare);
            Stmt::If(e1, t1, f1)
        }
        (Stmt::Seq(s1, mut s2), t) => {
            *s2 = zip_in(take(&mut *s2), t, spare);
            Stmt::Seq(s1, s2)
        }
        (s, Stmt::Seq(t1, t2)) => {
            let (t1, t2) = (unbox(t1, spare), unbox(t2, spare));
            let s = zip_in(s, t1, spare);
            zip_in(s, t2, spare)
        }
        (s, Stmt::Skip) => s,
        (Stmt::Skip, t) => t,
        (s, t) => Stmt::Seq(rebox(s, spare), rebox(t, spare)),
    }
}

/// Moves a statement out of its box and keeps the box for reuse.
fn unbox<O: Ops>(mut b: Box<Stmt<O>>, spare: &mut Vec<Box<Stmt<O>>>) -> Stmt<O> {
    let s = take(&mut *b);
    spare.push(b);
    s
}

/// Boxes a statement, in a spare box when there is one.
fn rebox<O: Ops>(s: Stmt<O>, spare: &mut Vec<Box<Stmt<O>>>) -> Box<Stmt<O>> {
    match spare.pop() {
        Some(mut b) => {
            *b = s;
            b
        }
        None => Box::new(s),
    }
}

/// The `fuse` function: splits a sequential composition in two and zips.
pub fn fuse<O: Ops>(s: Stmt<O>) -> Stmt<O> {
    fuse_in(s, &mut Vec::new())
}

fn fuse_in<O: Ops>(s: Stmt<O>, spare: &mut Vec<Box<Stmt<O>>>) -> Stmt<O> {
    match s {
        Stmt::Seq(s1, s2) => {
            let (s1, s2) = (unbox(s1, spare), unbox(s2, spare));
            zip_in(s1, s2, spare)
        }
        s => s,
    }
}

/// Appends the free variables of a guard, locals and state cells alike
/// (the `MayWrite` check treats `x` and `state(x)` uniformly, as in the
/// paper), to the scratch buffer.
fn guard_vars_into<O: Ops>(e: &ObcExpr<O>, out: &mut Vec<velus_common::Ident>) {
    e.free_vars_into(out);
    e.state_vars_into(out);
}

/// The `Fusible` predicate: conditionals never write the free variables of
/// their own guards.
pub fn fusible<O: Ops>(s: &Stmt<O>) -> bool {
    // One scratch buffer serves every guard of the statement tree; the
    // predicate runs after translation *and* after fusion on every
    // method, so its allocations used to show up in cold compiles.
    let mut scratch = Vec::new();
    fusible_rec(s, &mut scratch)
}

fn fusible_rec<O: Ops>(s: &Stmt<O>, scratch: &mut Vec<velus_common::Ident>) -> bool {
    match s {
        Stmt::Skip | Stmt::Assign(..) | Stmt::AssignSt(..) | Stmt::Call { .. } => true,
        Stmt::Seq(a, b) => fusible_rec(a, scratch) && fusible_rec(b, scratch),
        Stmt::If(e, t, f) => {
            if !fusible_rec(t, scratch) || !fusible_rec(f, scratch) {
                return false;
            }
            scratch.clear();
            guard_vars_into(e, scratch);
            scratch.iter().all(|&x| !t.may_write(x) && !f.may_write(x))
        }
    }
}

/// Fuses a whole program, rewriting every method body in place. A
/// caller that still needs the unfused program passes a borrow, which
/// is copied first.
pub fn fuse_program<O: Ops>(prog: impl Into<ObcProgram<O>>) -> ObcProgram<O> {
    let mut prog = prog.into();
    let mut spare = Vec::new();
    for method in prog.classes.iter_mut().flat_map(|c| &mut c.methods) {
        method.body = fuse_in(take(&mut method.body), &mut spare);
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{eval_expr, exec_stmt, VEnv};
    use velus_common::Ident;
    use velus_nlustre::memory::Memory;
    use velus_ops::{CConst, CTy, CVal, ClightOps};

    type S = Stmt<ClightOps>;
    type E = ObcExpr<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn guard(x: &str) -> E {
        ObcExpr::Var(id(x), CTy::Bool)
    }

    fn assign(x: &str, v: i32) -> S {
        Stmt::Assign(id(x), ObcExpr::Const(CConst::int(v)))
    }

    fn iff(x: &str, t: S, f: S) -> S {
        Stmt::If(guard(x), Box::new(t), Box::new(f))
    }

    #[test]
    fn adjacent_equal_guards_merge() {
        // if x { a := 1 }; if x { b := 2 }  ==>  if x { a := 1; b := 2 }
        let s = S::seq(
            iff("x", assign("a", 1), Stmt::Skip),
            iff("x", assign("b", 2), Stmt::Skip),
        );
        let fused = fuse(s);
        match &fused {
            Stmt::If(_, t, f) => {
                assert_eq!(t.size(), 2);
                assert_eq!(**f, Stmt::Skip);
            }
            other => panic!("expected a single if, got {other}"),
        }
    }

    #[test]
    fn tracker_shape_from_the_paper() {
        // The §3.3 example: two ifs on x and a trailing state update fuse
        // into one if plus the update.
        let s = S::seq_all(vec![
            iff("x", assign("c", 1), Stmt::Skip),
            iff(
                "x",
                assign("t", 2),
                Stmt::Assign(id("t"), ObcExpr::State(id("pt"), CTy::I32)),
            ),
            Stmt::AssignSt(id("pt"), ObcExpr::Var(id("t"), CTy::I32)),
        ]);
        let fused = fuse(s);
        // One if remains, followed by the state update.
        let text = fused.to_string();
        assert_eq!(text.matches("if x {").count(), 1, "{text}");
        assert!(text.contains("state(pt) := t;"), "{text}");
    }

    #[test]
    fn different_guards_do_not_merge() {
        let s = S::seq(
            iff("x", assign("a", 1), Stmt::Skip),
            iff("y", assign("b", 2), Stmt::Skip),
        );
        let fused = fuse(s.clone());
        assert_eq!(fused.to_string().matches("if ").count(), 2);
    }

    #[test]
    fn fusible_rejects_guard_writers() {
        // The paper's footnote 8: (if x then x := false else x := true); if x …
        let s = iff(
            "x",
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(false))),
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(true))),
        );
        assert!(!fusible(&s));
        let ok = iff("x", assign("a", 1), Stmt::Skip);
        assert!(fusible(&ok));
    }

    /// Runs a statement from a fixed initial environment and returns the
    /// final (mem, env).
    fn run(s: &S, x: bool) -> (Memory<CVal>, VEnv<ClightOps>) {
        let prog = ObcProgram::default();
        let mut mem: Memory<CVal> = Memory::new();
        mem.set_value(id("pt"), CVal::int(9));
        let mut env: VEnv<ClightOps> = VEnv::<ClightOps>::default();
        env.insert(id("x"), CVal::bool(x));
        exec_stmt(&prog, &mut mem, &mut env, s).unwrap();
        (mem, env)
    }

    #[test]
    fn fuse_preserves_semantics_on_fusible_code() {
        let s = S::seq_all(vec![
            iff("x", assign("c", 1), Stmt::Skip),
            iff(
                "x",
                assign("t", 2),
                Stmt::Assign(id("t"), ObcExpr::State(id("pt"), CTy::I32)),
            ),
            Stmt::AssignSt(id("pt"), ObcExpr::Var(id("t"), CTy::I32)),
        ]);
        assert!(fusible(&s));
        let fused = fuse(s.clone());
        assert!(fusible(&fused));
        for x in [true, false] {
            let (m1, e1) = run(&s, x);
            let (m2, e2) = run(&fused, x);
            assert_eq!(m1, m2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn footnote8_shows_zip_unsound_without_fusible() {
        // (if x { x := false } else { x := true }); if x { a := 1 } else { a := 2 }
        let s1 = iff(
            "x",
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(false))),
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(true))),
        );
        let s2 = iff("x", assign("a", 1), assign("a", 2));
        let whole = S::seq(s1, s2);
        assert!(!fusible(&whole));
        let fused = fuse(whole.clone());
        // Semantics differ when x starts true: original sets a := 2
        // (x was flipped), fused sets a := 1.
        let (_, e1) = run(&whole, true);
        let (_, e2) = run(&fused, true);
        assert_ne!(e1.get(&id("a")), e2.get(&id("a")));
    }

    #[test]
    fn zip_eliminates_skips() {
        let a = assign("a", 1);
        assert_eq!(zip::<ClightOps>(Stmt::Skip, a.clone()), a);
        assert_eq!(zip::<ClightOps>(a.clone(), Stmt::Skip), a);
    }

    #[test]
    fn eval_guard_sanity() {
        // Keep eval_expr in the public API exercised from this module.
        let mem: Memory<CVal> = Memory::new();
        let mut env: VEnv<ClightOps> = VEnv::<ClightOps>::default();
        env.insert(id("x"), CVal::bool(true));
        assert_eq!(
            eval_expr::<ClightOps>(&mem, &env, &guard("x")).unwrap(),
            CVal::TRUE
        );
    }
}
