//! Generation of Clight from Obc (§4, Fig. 9).
//!
//! For every class: a struct with a field per memory and per instance.
//! For every method: a function taking `self` (a pointer to the instance
//! struct) and, when the method has two or more outputs, `out` (a pointer
//! to a per-method output struct — Clight has no multiple return values).
//! The zero- and one-output cases are optimized to `void` and a plain
//! return value, as in the paper.
//!
//! Within a function: method locals and single outputs become
//! *temporaries* (`register` in Fig. 9); state accesses become
//! `(*self).x`; output writes become `(*out).x`; a call to a method with
//! multiple outputs goes through an addressable local `out$i$m` whose
//! fields are copied into place afterwards — "a sequence of assignments
//! is added after each call".
//!
//! A `main` in the paper's test mode is generated for the chosen root
//! class: volatile loads of the inputs, one `step`, volatile stores of
//! the outputs, in an infinite loop.

use std::collections::HashMap;

use velus_common::{BuildIdentHasher, Ident, IdentSet};
use velus_obc::ast::{reset_name, step_name, Class, Method, ObcExpr, ObcProgram, Stmt as OStmt};
use velus_ops::{CTy, ClightOps};

use crate::ast::{Expr, Function, Program, Stmt};
use crate::ctypes::{CType, Composite};
use crate::ClightError;

/// The function name for `class.method` (e.g. `tracker$step`).
pub fn method_fn_name(class: Ident, method: Ident) -> Ident {
    Ident::new(&format!("{class}${method}"))
}

/// The struct name holding the outputs of `class.method` (only exists
/// when the method has two or more outputs).
pub fn out_struct_name(class: Ident, method: Ident) -> Ident {
    Ident::new(&format!("{class}${method}"))
}

/// The volatile global carrying the root input `x`.
pub fn vol_in_name(x: Ident) -> Ident {
    Ident::new(&format!("in${x}"))
}

/// The volatile global carrying the root output `x`.
pub fn vol_out_name(x: Ident) -> Ident {
    Ident::new(&format!("out${x}"))
}

/// The name of the generated simulation entry point.
///
/// Cached: looked up on every emission and by the validation harness.
pub fn main_fn_name() -> Ident {
    static MAIN: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *MAIN.get_or_init(|| Ident::new("main"))
}

/// The cached `self` parameter name (referenced once per state access
/// during generation — interning it each time took the interner lock).
fn self_ident() -> Ident {
    static SELF: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *SELF.get_or_init(|| Ident::new("self"))
}

/// The cached `out` parameter name (see [`self_ident`]).
fn out_ident() -> Ident {
    static OUT: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *OUT.get_or_init(|| Ident::new("out"))
}

/// The `class$method` names of a program ([`method_fn_name`]), built
/// once per [`generate`] call. Each serves as its method's function name
/// and, for a method with two or more outputs, as its output struct's
/// ([`out_struct_name`] is the same string).
type FnNames = HashMap<(Ident, Ident), Ident, BuildIdentHasher>;

fn fn_names(prog: &ObcProgram<ClightOps>) -> FnNames {
    prog.classes
        .iter()
        .flat_map(|c| {
            c.methods
                .iter()
                .map(move |m| ((c.name, m.name), method_fn_name(c.name, m.name)))
        })
        .collect()
}

struct MCtx<'a> {
    names: &'a FnNames,
    class: &'a Class<ClightOps>,
    multi_out: bool,
    out_struct: Ident,
    outputs: IdentSet,
    /// Addressable locals added for multi-output callee results.
    extra_vars: Vec<(Ident, CType)>,
    /// Temporaries added for single-output callee results.
    extra_temps: Vec<(Ident, CType)>,
    fresh: u32,
}

impl MCtx<'_> {
    fn self_expr(&self) -> Expr {
        Expr::Temp(self_ident(), CType::ptr_to_struct(self.class.name))
    }

    fn out_expr(&self) -> Expr {
        Expr::Temp(out_ident(), CType::ptr_to_struct(self.out_struct))
    }

    fn gen_expr(&self, e: &ObcExpr<ClightOps>) -> Expr {
        match e {
            ObcExpr::Const(c) => Expr::Const(c.val(), c.ty()),
            ObcExpr::State(x, ty) => Expr::DerefField(
                Box::new(self.self_expr()),
                self.class.name,
                *x,
                CType::Scalar(*ty),
            ),
            ObcExpr::Var(x, ty) => {
                if self.multi_out && self.outputs.contains(x) {
                    Expr::DerefField(
                        Box::new(self.out_expr()),
                        self.out_struct,
                        *x,
                        CType::Scalar(*ty),
                    )
                } else {
                    Expr::Temp(*x, CType::Scalar(*ty))
                }
            }
            ObcExpr::Unop(op, e1, ty) => Expr::Unop(*op, Box::new(self.gen_expr(e1)), *ty),
            ObcExpr::Binop(op, e1, e2, ty) => Expr::Binop(
                *op,
                Box::new(self.gen_expr(e1)),
                Box::new(self.gen_expr(e2)),
                *ty,
            ),
        }
    }

    /// A write to the Obc variable `x` of type `ty`.
    fn gen_write(&self, x: Ident, ty: CTy, rhs: Expr) -> Stmt {
        if self.multi_out && self.outputs.contains(&x) {
            Stmt::Assign(
                Expr::DerefField(
                    Box::new(self.out_expr()),
                    self.out_struct,
                    x,
                    CType::Scalar(ty),
                ),
                rhs,
            )
        } else {
            Stmt::Set(x, rhs)
        }
    }

    fn gen_stmt(
        &mut self,
        prog: &ObcProgram<ClightOps>,
        s: &OStmt<ClightOps>,
    ) -> Result<Stmt, ClightError> {
        Ok(match s {
            OStmt::Skip => Stmt::Skip,
            OStmt::Seq(a, b) => Stmt::seq(self.gen_stmt(prog, a)?, self.gen_stmt(prog, b)?),
            OStmt::Assign(x, e) => {
                let ty = e.ty();
                let rhs = self.gen_expr(e);
                self.gen_write(*x, ty, rhs)
            }
            OStmt::AssignSt(x, e) => Stmt::Assign(
                Expr::DerefField(
                    Box::new(self.self_expr()),
                    self.class.name,
                    *x,
                    CType::Scalar(e.ty()),
                ),
                self.gen_expr(e),
            ),
            OStmt::If(c, t, f) => Stmt::If(
                self.gen_expr(c),
                Box::new(self.gen_stmt(prog, t)?),
                Box::new(self.gen_stmt(prog, f)?),
            ),
            OStmt::Call {
                results,
                class: k,
                instance: i,
                method: m,
                args,
            } => {
                let callee = prog
                    .class(*k)
                    .ok_or_else(|| ClightError::Malformed(format!("call to unknown class {k}")))?;
                let cm: &Method<ClightOps> = callee
                    .method(*m)
                    .ok_or_else(|| ClightError::Malformed(format!("unknown method {k}.{m}")))?;
                let fname = self.names[&(*k, *m)];
                let self_arg = Expr::AddrOf(Box::new(Expr::DerefField(
                    Box::new(self.self_expr()),
                    self.class.name,
                    *i,
                    CType::Struct(*k),
                )));
                let mut cargs = vec![self_arg];
                match cm.outputs.len() {
                    0 => {
                        cargs.extend(args.iter().map(|a| self.gen_expr(a)));
                        Stmt::Call(None, fname, cargs)
                    }
                    1 => {
                        cargs.extend(args.iter().map(|a| self.gen_expr(a)));
                        let (_, oty) = &cm.outputs[0];
                        self.fresh += 1;
                        let aux = Ident::new(&format!("res${i}${}", self.fresh));
                        self.extra_temps.push((aux, CType::Scalar(*oty)));
                        let call = Stmt::Call(Some(aux), fname, cargs);
                        let copy =
                            self.gen_write(results[0], *oty, Expr::Temp(aux, CType::Scalar(*oty)));
                        Stmt::seq(call, copy)
                    }
                    _ => {
                        let ostruct = fname;
                        self.fresh += 1;
                        let ovar = Ident::new(&format!("out${i}${m}"));
                        if !self.extra_vars.iter().any(|(v, _)| *v == ovar) {
                            self.extra_vars.push((ovar, CType::Struct(ostruct)));
                        }
                        cargs.push(Expr::AddrOf(Box::new(Expr::Var(
                            ovar,
                            CType::Struct(ostruct),
                        ))));
                        cargs.extend(args.iter().map(|a| self.gen_expr(a)));
                        let call = Stmt::Call(None, fname, cargs);
                        let copies = cm.outputs.iter().zip(results).map(|((o, oty), r)| {
                            self.gen_write(
                                *r,
                                *oty,
                                Expr::Field(
                                    Box::new(Expr::Var(ovar, CType::Struct(ostruct))),
                                    ostruct,
                                    *o,
                                    CType::Scalar(*oty),
                                ),
                            )
                        });
                        let copies: Vec<Stmt> = copies.collect();
                        Stmt::seq(call, Stmt::seq_all(copies))
                    }
                }
            }
        })
    }
}

fn gen_method(
    prog: &ObcProgram<ClightOps>,
    names: &FnNames,
    class: &Class<ClightOps>,
    m: &Method<ClightOps>,
) -> Result<Function, ClightError> {
    let multi_out = m.outputs.len() >= 2;
    let name = names[&(class.name, m.name)];
    let mut ctx = MCtx {
        names,
        class,
        multi_out,
        out_struct: name,
        outputs: m.outputs.iter().map(|(x, _)| *x).collect(),
        extra_vars: Vec::new(),
        extra_temps: Vec::new(),
        fresh: 0,
    };
    let mut body = ctx.gen_stmt(prog, &m.body)?;

    let mut params = vec![(self_ident(), CType::ptr_to_struct(class.name))];
    if multi_out {
        params.push((out_ident(), CType::ptr_to_struct(name)));
    }
    params.extend(m.inputs.iter().map(|(x, t)| (*x, CType::Scalar(*t))));

    let mut temps: Vec<(Ident, CType)> = m
        .locals
        .iter()
        .map(|(x, t)| (*x, CType::Scalar(*t)))
        .collect();
    temps.extend(ctx.extra_temps.clone());

    let ret = if m.outputs.len() == 1 {
        let (o, oty) = &m.outputs[0];
        temps.push((*o, CType::Scalar(*oty)));
        body = Stmt::seq(
            body,
            Stmt::Return(Some(Expr::Temp(*o, CType::Scalar(*oty)))),
        );
        CType::Scalar(*oty)
    } else {
        CType::Void
    };

    Ok(Function {
        name,
        params,
        vars: ctx.extra_vars,
        temps,
        ret,
        body,
    })
}

fn gen_composites(class: &Class<ClightOps>, names: &FnNames) -> Vec<Composite> {
    let mut out = Vec::new();
    for m in &class.methods {
        if m.outputs.len() >= 2 {
            out.push(Composite {
                name: names[&(class.name, m.name)],
                fields: m
                    .outputs
                    .iter()
                    .map(|(x, t)| (*x, CType::Scalar(*t)))
                    .collect(),
            });
        }
    }
    out.push(Composite {
        name: class.name,
        fields: class
            .memories
            .iter()
            .map(|(x, t)| (*x, CType::Scalar(*t)))
            .chain(class.instances.iter().map(|(i, k)| (*i, CType::Struct(*k))))
            .collect(),
    });
    out
}

/// The generated `main` plus its volatile input and output declarations.
type GeneratedMain = (Function, Vec<(Ident, CTy)>, Vec<(Ident, CTy)>);

/// Generates the simulation `main` for the root class: `reset` once, then
/// an infinite loop of volatile input loads, one `step`, and volatile
/// output stores.
fn gen_main(root: &Class<ClightOps>, names: &FnNames) -> Result<GeneratedMain, ClightError> {
    let step = root
        .method(step_name())
        .ok_or_else(|| ClightError::Malformed(format!("class {} has no step", root.name)))?;
    let self_var = self_ident();
    let self_expr = Expr::Var(self_var, CType::Struct(root.name));
    let mut vols_in: Vec<(Ident, CTy)> = Vec::new();
    let mut vols_out: Vec<(Ident, CTy)> = Vec::new();
    let mut temps: Vec<(Ident, CType)> = Vec::new();
    let mut vars: Vec<(Ident, CType)> = vec![(self_var, CType::Struct(root.name))];
    let mut loop_body: Vec<Stmt> = Vec::new();

    // Volatile input loads. A node without inputs gets a pacing tick so
    // the simulated loop still consumes one volatile input per instant.
    if step.inputs.is_empty() {
        let tick = Ident::new("tick");
        vols_in.push((vol_in_name(tick), CTy::Bool));
        temps.push((tick, CType::Scalar(CTy::Bool)));
        loop_body.push(Stmt::VolLoad(tick, vol_in_name(tick), CTy::Bool));
    }
    for (x, ty) in &step.inputs {
        vols_in.push((vol_in_name(*x), *ty));
        temps.push((*x, CType::Scalar(*ty)));
        loop_body.push(Stmt::VolLoad(*x, vol_in_name(*x), *ty));
    }

    // The step call.
    let fname = names[&(root.name, step_name())];
    let mut args = vec![Expr::AddrOf(Box::new(self_expr.clone()))];
    match step.outputs.len() {
        0 => {
            args.extend(
                step.inputs
                    .iter()
                    .map(|(x, t)| Expr::Temp(*x, CType::Scalar(*t))),
            );
            loop_body.push(Stmt::Call(None, fname, args));
        }
        1 => {
            args.extend(
                step.inputs
                    .iter()
                    .map(|(x, t)| Expr::Temp(*x, CType::Scalar(*t))),
            );
            let (o, oty) = &step.outputs[0];
            let res = Ident::new("res");
            temps.push((res, CType::Scalar(*oty)));
            loop_body.push(Stmt::Call(Some(res), fname, args));
            vols_out.push((vol_out_name(*o), *oty));
            loop_body.push(Stmt::VolStore(
                vol_out_name(*o),
                Expr::Temp(res, CType::Scalar(*oty)),
            ));
        }
        _ => {
            let ostruct = fname;
            let ovar = out_ident();
            vars.push((ovar, CType::Struct(ostruct)));
            args.push(Expr::AddrOf(Box::new(Expr::Var(
                ovar,
                CType::Struct(ostruct),
            ))));
            args.extend(
                step.inputs
                    .iter()
                    .map(|(x, t)| Expr::Temp(*x, CType::Scalar(*t))),
            );
            loop_body.push(Stmt::Call(None, fname, args));
            for (o, oty) in &step.outputs {
                vols_out.push((vol_out_name(*o), *oty));
                loop_body.push(Stmt::VolStore(
                    vol_out_name(*o),
                    Expr::Field(
                        Box::new(Expr::Var(ovar, CType::Struct(ostruct))),
                        ostruct,
                        *o,
                        CType::Scalar(*oty),
                    ),
                ));
            }
        }
    }

    let body = Stmt::seq(
        Stmt::Call(
            None,
            // A root class without `reset` still gets the call.
            names
                .get(&(root.name, reset_name()))
                .copied()
                .unwrap_or_else(|| method_fn_name(root.name, reset_name())),
            vec![Expr::AddrOf(Box::new(self_expr))],
        ),
        Stmt::Loop(Box::new(Stmt::seq_all(loop_body))),
    );
    Ok((
        Function {
            name: main_fn_name(),
            params: vec![],
            vars,
            temps,
            ret: CType::Void,
            body,
        },
        vols_in,
        vols_out,
    ))
}

/// Generates a Clight program from an Obc program, with a simulation
/// `main` for the class `root`.
///
/// # Errors
///
/// [`ClightError::Malformed`] on dangling class/method references (which
/// the Obc type checker rules out).
pub fn generate(obc: &ObcProgram<ClightOps>, root: Ident) -> Result<Program, ClightError> {
    let names = fn_names(obc);
    let mut composites = Vec::new();
    let mut functions = Vec::new();
    for class in &obc.classes {
        composites.extend(gen_composites(class, &names));
        for m in &class.methods {
            functions.push(gen_method(obc, &names, class, m)?);
        }
    }
    let root_class = obc
        .class(root)
        .ok_or_else(|| ClightError::Malformed(format!("unknown root class {root}")))?;
    let (main, vols_in, vols_out) = gen_main(root_class, &names)?;
    functions.push(main);
    Ok(Program {
        composites,
        functions,
        volatiles_in: vols_in,
        volatiles_out: vols_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Event, Machine, RVal};
    use velus_obc::ast::{Class, Method, ObcExpr, ObcProgram, Stmt as OStmt};
    use velus_ops::{CBinOp, CConst, CVal};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    /// class acc { memory c: int;
    ///   (y: int) step(x: int) { y := state(c) + x; state(c) := y }
    ///   () reset() { state(c) := 0 } }
    fn acc_class() -> ObcProgram<ClightOps> {
        ObcProgram {
            classes: vec![Class {
                name: id("acc"),
                memories: vec![(id("c"), CTy::I32)],
                instances: vec![],
                methods: vec![
                    Method {
                        name: step_name(),
                        inputs: vec![(id("x"), CTy::I32)],
                        outputs: vec![(id("y"), CTy::I32)],
                        locals: vec![],
                        body: OStmt::seq(
                            OStmt::Assign(
                                id("y"),
                                ObcExpr::Binop(
                                    CBinOp::Add,
                                    Box::new(ObcExpr::State(id("c"), CTy::I32)),
                                    Box::new(ObcExpr::Var(id("x"), CTy::I32)),
                                    CTy::I32,
                                ),
                            ),
                            OStmt::AssignSt(id("c"), ObcExpr::Var(id("y"), CTy::I32)),
                        ),
                    },
                    Method {
                        name: reset_name(),
                        inputs: vec![],
                        outputs: vec![],
                        locals: vec![],
                        body: OStmt::AssignSt(id("c"), ObcExpr::Const(CConst::int(0))),
                    },
                ],
            }],
        }
    }

    #[test]
    fn generated_main_produces_the_expected_trace() {
        let obc = acc_class();
        let prog = generate(&obc, id("acc")).unwrap();
        let mut m = Machine::new(&prog).unwrap();
        m.push_inputs(
            vol_in_name(id("x")),
            [CVal::int(1), CVal::int(2), CVal::int(3)],
        );
        let trace = m.run_main(main_fn_name()).unwrap();
        let outs: Vec<CVal> = trace
            .iter()
            .filter_map(|e| match e {
                Event::Store(_, v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(outs, vec![CVal::int(1), CVal::int(3), CVal::int(6)]);
    }

    #[test]
    fn single_output_step_returns_by_value() {
        let obc = acc_class();
        let prog = generate(&obc, id("acc")).unwrap();
        let f = prog
            .function(method_fn_name(id("acc"), step_name()))
            .unwrap();
        assert_eq!(f.ret, CType::Scalar(CTy::I32));
        assert_eq!(f.params.len(), 2); // self + x, no out pointer
    }

    #[test]
    fn driving_step_directly() {
        let obc = acc_class();
        let prog = generate(&obc, id("acc")).unwrap();
        let mut m = Machine::new(&prog).unwrap();
        let b = m.alloc_struct(id("acc")).unwrap();
        m.call(method_fn_name(id("acc"), reset_name()), &[RVal::Ptr(b, 0)])
            .unwrap();
        let r = m
            .call(
                method_fn_name(id("acc"), step_name()),
                &[RVal::Ptr(b, 0), RVal::Scalar(CVal::int(5))],
            )
            .unwrap();
        assert_eq!(r, Some(RVal::Scalar(CVal::int(5))));
    }
}
