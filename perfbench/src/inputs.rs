//! The benchmark's inputs: the paper benchmarks, the industrial24
//! corpus, the diagnostic fixtures with their goldens, and the
//! scaling-ladder shapes. Everything a workload draws at random comes
//! from a generator seeded with `--seed`.

use std::fmt::Write as _;
use std::path::Path;

use rand::prelude::*;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

/// One source program and the root node it is compiled for.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub root: Option<String>,
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `*.lus` files of `dir` whose stem satisfies `keep`, sorted by name.
fn lus_files(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<(String, String)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if path.extension().is_some_and(|x| x == "lus") && keep(stem) {
            out.push((stem.to_owned(), read(&path)?));
        }
    }
    out.sort();
    Ok(out)
}

/// The 14 paper benchmarks; each root node is named after its file.
pub fn paper_benchmarks(repo: &Path) -> Result<Vec<Program>, String> {
    let files = lus_files(&repo.join("benchmarks"), |_| true)?;
    if files.len() != 14 {
        return Err(format!(
            "expected 14 paper benchmarks, found {}",
            files.len()
        ));
    }
    Ok(files
        .into_iter()
        .map(|(name, source)| Program {
            root: Some(name.clone()),
            name,
            source,
        })
        .collect())
}

/// The retained C of a paper benchmark (`tests/snapshots/NAME.c`).
pub fn snapshot(repo: &Path, name: &str) -> Result<String, String> {
    read(&repo.join("tests/snapshots").join(format!("{name}.c")))
}

/// Industrial24: the 24 generated programs of the service bench, a
/// third of them sub-clocked.
pub fn industrial24() -> Vec<Program> {
    (0..24)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: 8 + (k % 7) * 3,
                eqs_per_node: 6 + (k % 5) * 2,
                fan_in: 1 + k % 2,
                subclock_depth: k % 3,
            };
            Program {
                name: format!("gen{k:02}"),
                source: industrial_source(&cfg),
                root: Some(format!("blk{}", cfg.nodes - 1)),
            }
        })
        .collect()
}

/// A diagnostic fixture of `tests/errors/` with the codes its golden
/// JSON rendering records.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub program: Program,
    pub codes: Vec<String>,
}

/// The `"code":"…"` values of a golden JSON rendering, sorted.
pub fn golden_codes(json: &str) -> Vec<String> {
    let mut codes: Vec<String> = json
        .split("\"code\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next().map(str::to_owned))
        .collect();
    codes.sort();
    codes
}

/// The fixtures of `tests/errors/`: `lint` selects the `lint_*` ones
/// (which compile and carry findings) or the compile-error ones.
pub fn fixtures(repo: &Path, lint: bool) -> Result<Vec<Fixture>, String> {
    let dir = repo.join("tests/errors");
    lus_files(&dir, |stem| stem.starts_with("lint_") == lint)?
        .into_iter()
        .map(|(name, source)| {
            let golden = read(&dir.join("golden").join(format!("{name}.json")))?;
            Ok(Fixture {
                codes: golden_codes(&golden),
                program: Program {
                    name,
                    source,
                    root: None,
                },
            })
        })
        .collect()
}

/// A scaling-ladder shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One equation `y = if x = 0 then a0 else if x = 1 then a1 … else 0`.
    IfNest,
    /// One node whose equations form one chain `v_i = v_{i-1} + c`.
    EqChain,
    /// A chain of nodes, each calling the previous one and adding `c`.
    CallChain,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::IfNest, Shape::EqChain, Shape::CallChain];

    pub fn name(self) -> &'static str {
        match self {
            Shape::IfNest => "if_nest",
            Shape::EqChain => "eq_chain",
            Shape::CallChain => "call_chain",
        }
    }

    /// The geometric ladder of sizes. The top `if_nest` and `eq_chain`
    /// rungs are where the printer and the lint pass turn superlinear.
    pub fn sizes(self) -> [usize; 4] {
        match self {
            Shape::IfNest => [500, 1000, 2000, 4000],
            Shape::EqChain => [750, 1500, 3000, 6000],
            Shape::CallChain => [125, 250, 500, 1000],
        }
    }
}

/// One rung: its program and the closed form of its output, the
/// reference its dataflow semantics is checked against.
#[derive(Debug, Clone)]
pub struct Rung {
    pub shape: Shape,
    pub n: usize,
    pub program: Program,
    /// `if_nest`: the branch values; otherwise the per-step increment.
    consts: Vec<i64>,
}

impl Rung {
    pub fn new(shape: Shape, n: usize, rng: &mut StdRng) -> Rung {
        let consts: Vec<i64> = match shape {
            Shape::IfNest => (0..n).map(|_| rng.gen_range(1..1000)).collect(),
            _ => vec![rng.gen_range(1..10)],
        };
        let mut s = String::new();
        let root = match shape {
            Shape::IfNest => {
                s.push_str("node if_nest(x: int) returns (y: int)\nlet\n  y = ");
                for (k, a) in consts.iter().enumerate() {
                    let _ = write!(s, "if x = {k} then {a} else ");
                }
                s.push_str("0;\ntel\n");
                "if_nest".to_owned()
            }
            Shape::EqChain => {
                s.push_str("node eq_chain(x: int) returns (y: int)\nvar v0");
                for k in 1..n {
                    let _ = write!(s, ", v{k}");
                }
                s.push_str(": int;\nlet\n  v0 = x;\n");
                for k in 1..n {
                    let _ = writeln!(s, "  v{k} = v{} + {};", k - 1, consts[0]);
                }
                let _ = write!(s, "  y = v{};\ntel\n", n - 1);
                "eq_chain".to_owned()
            }
            Shape::CallChain => {
                let c = consts[0];
                let _ = write!(
                    s,
                    "node f0(x: int) returns (y: int)\nlet\n  y = x + {c};\ntel\n"
                );
                for k in 1..n {
                    let _ = write!(
                        s,
                        "node f{k}(x: int) returns (y: int)\nlet\n  y = f{}(x) + {c};\ntel\n",
                        k - 1
                    );
                }
                format!("f{}", n - 1)
            }
        };
        Rung {
            shape,
            n,
            program: Program {
                name: format!("{}_{n}", shape.name()),
                source: s,
                root: Some(root),
            },
            consts,
        }
    }

    /// The output the rung must produce for input `x`.
    pub fn expected(&self, x: i64) -> i64 {
        match self.shape {
            Shape::IfNest => usize::try_from(x)
                .ok()
                .and_then(|k| self.consts.get(k).copied())
                .unwrap_or(0),
            Shape::EqChain => x + self.consts[0] * (self.n as i64 - 1),
            Shape::CallChain => x + self.consts[0] * self.n as i64,
        }
    }
}

/// The ladder, shape by shape and smallest rung first, with seeded
/// constants. The order is fixed: after a rung that freed tens of MiB
/// the next one pays for fresh pages, so a seeded order would move the
/// timings. `smoke` keeps the smallest rung of each shape.
pub fn ladder(seed: u64, smoke: bool) -> Vec<Rung> {
    let mut rng = rng(seed, 3);
    Shape::ALL
        .iter()
        .flat_map(|&shape| {
            let sizes = shape.sizes();
            let keep = if smoke { 1 } else { sizes.len() };
            sizes.into_iter().take(keep).map(move |n| (shape, n))
        })
        .map(|(shape, n)| Rung::new(shape, n, &mut rng))
        .collect()
}
