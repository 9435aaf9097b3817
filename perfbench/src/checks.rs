//! Output checks against references the compiler did not produce, and
//! the oracle-chain throughput shared by the compile workloads.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::prelude::*;
use velus::{Compiled, TestIo, VelusError};
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CTy, CVal, ClightOps};

use crate::gauge::Gauge;
use crate::inputs::{rng, Program};
use crate::{stats, Report};

/// Instants of input every semantic check runs.
pub const PREFIX: usize = 16;

/// Compiles each program with `velus::compile` (the whole chain, kept
/// for the oracles); a failure is a wrong outcome.
pub fn compile_all(programs: &[Program], report: &mut Report) -> Vec<Compiled> {
    programs
        .iter()
        .filter_map(|p| {
            let c = velus::compile(&p.source, p.root.as_deref());
            report.check(c.is_ok(), || {
                format!("{} failed to compile for the oracles", p.name)
            });
            c.ok()
        })
        .collect()
}

/// Runs the full differential oracle chain (`velus::run_oracles`) on
/// each program over [`PREFIX`] instants of its default inputs, in
/// whole passes until `budget` is spent (at least one), and returns the
/// programs checked per second of oracle time (see [`rate`]). A program with no
/// dataflow semantics on those inputs is vacuous, not wrong.
pub fn oracle_rate(compiled: &[Compiled], budget: Duration, report: &mut Report) -> f64 {
    let inputs: Vec<StreamSet<ClightOps>> = compiled
        .iter()
        .map(|c| velus::validate::default_inputs(c, PREFIX))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); compiled.len()];
    let start = Instant::now();
    let mut pass = 0;
    let mut gauge = Gauge::new();
    while pass == 0 || start.elapsed() < budget {
        for ((c, ins), t) in compiled.iter().zip(&inputs).zip(&mut times) {
            let t0 = Instant::now();
            let outcome = velus::run_oracles(c, ins, PREFIX);
            let secs = t0.elapsed().as_secs_f64();
            t.push(secs / gauge.bracket());
            let ok = match &outcome {
                Ok(rep) => rep.divergence.is_none(),
                Err(VelusError::Sem(_)) => true,
                Err(_) => false,
            };
            report.check(ok, || {
                format!("{}: the oracle chain disagrees: {outcome:?}", c.root)
            });
        }
        pass += 1;
    }
    rate(&times)
}

/// Programs per second from per-program samples of seconds at full host
/// speed: the count over the sum of per-program medians.
pub fn rate(times: &[Vec<f64>]) -> f64 {
    times.len() as f64 / times.iter().map(|t| stats::median(t)).sum::<f64>()
}

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn is_integral(ty: CTy) -> bool {
    !matches!(ty, CTy::F32 | CTy::F64)
}

/// How `printf` in the stdio harness renders a value of type `ty`.
fn c_text(v: &CVal, ty: CTy) -> String {
    match (v, ty) {
        (CVal::Int(x), CTy::U32) => (*x as u32).to_string(),
        (CVal::Int(x), _) => x.to_string(),
        (CVal::Long(x), CTy::U64) => (*x as u64).to_string(),
        (CVal::Long(x), _) => x.to_string(),
        (other, _) => other.to_string(),
    }
}

/// Compiles a seeded sample of `count` programs to stdio-mode C, builds
/// each with the system `cc -O2`, runs it on [`PREFIX`] instants of
/// input, and checks that its printed outputs equal the dataflow
/// semantics (`velus_nlustre::dataflow`) of the same program. Programs
/// with float interfaces, or without dataflow semantics on the inputs,
/// are not sampled. Skipped, with a notice, when no `cc` is installed.
pub fn cc_sample(programs: &[Program], seed: u64, count: usize, work: &Path, report: &mut Report) {
    if !have_cc() {
        eprintln!("perfbench: notice: no `cc` installed; the compiled-C check is skipped");
        return;
    }
    let mut eligible: Vec<(
        &Program,
        Compiled,
        StreamSet<ClightOps>,
        StreamSet<ClightOps>,
    )> = Vec::new();
    for p in programs {
        let Ok(c) = velus::compile(&p.source, p.root.as_deref()) else {
            continue;
        };
        let node = c.snlustre.node(c.root).expect("the root exists");
        if !node
            .inputs
            .iter()
            .chain(&node.outputs)
            .all(|d| is_integral(d.ty))
        {
            continue;
        }
        let inputs = velus::validate::default_inputs(&c, PREFIX);
        let Ok(outs) = velus_nlustre::dataflow::run_node(&c.snlustre, c.root, &inputs, PREFIX)
        else {
            continue;
        };
        if outs.iter().all(|s| s.iter().all(SVal::is_present)) {
            eligible.push((p, c, inputs, outs));
        }
    }
    eligible.shuffle(&mut rng(seed, 5));
    if let Err(e) = std::fs::create_dir_all(work) {
        report.check(false, || format!("cannot create {}: {e}", work.display()));
        return;
    }
    for (p, c, inputs, outs) in eligible.iter().take(count) {
        let node = c.snlustre.node(c.root).expect("the root exists");
        let mut stdin = String::new();
        for i in 0..PREFIX {
            let row: Vec<String> = node
                .inputs
                .iter()
                .zip(inputs)
                .map(|(d, s)| c_text(s[i].value().expect("default inputs are present"), d.ty))
                .collect();
            // A root without inputs reads one tick per instant.
            stdin.push_str(&if row.is_empty() {
                "1".to_owned()
            } else {
                row.join(" ")
            });
            stdin.push('\n');
        }
        let expected: Vec<String> = (0..PREFIX)
            .flat_map(|i| {
                node.outputs
                    .iter()
                    .zip(outs)
                    .map(move |(d, s)| c_text(s[i].value().expect("checked present"), d.ty))
            })
            .collect();
        let got = run_c(&velus::emit_c(c, TestIo::Stdio), &p.name, &stdin, work);
        report.check(got.as_ref() == Ok(&expected), || {
            format!(
                "{}: cc-built C printed {got:?}, the dataflow semantics {expected:?}",
                p.name
            )
        });
    }
}

fn run_c(c_code: &str, name: &str, stdin: &str, work: &Path) -> Result<Vec<String>, String> {
    let c_path = work.join(format!("{name}.c"));
    let bin = work.join(name);
    std::fs::write(&c_path, c_code).map_err(|e| e.to_string())?;
    // The compiler's temporary files stay in the work directory too.
    let tmp = std::fs::canonicalize(work).map_err(|e| e.to_string())?;
    let out = Command::new("cc")
        .args(["-std=c99", "-O2", "-o"])
        .arg(&bin)
        .arg(&c_path)
        .env("TMPDIR", tmp)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "cc failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut child = Command::new(&bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let fed = child
        .stdin
        .take()
        .expect("piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    fed.map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&c_path);
    let _ = std::fs::remove_file(&bin);
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split('=').nth(1))
        .map(|v| v.trim().to_owned())
        .collect())
}
