//! The lexer's word cache is invisible in its output.
//!
//! A word (identifier or keyword) lexed on its own meets a fresh cache
//! and so takes the per-occurrence path: keyword table, then the global
//! interner. On the paper benchmarks, industrial24 and 200 generated
//! programs, every word token of a whole-source lex must equal that
//! token. (The lexer's unit tests compare whole token streams and
//! diagnostics against the per-occurrence scanner on the benchmarks, the
//! error fixtures and adversarial sources.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use velus_lustre::lexer::lex;
use velus_testkit::gen::{gen_program, GenConfig};
use velus_testkit::industrial::{industrial_source, IndustrialConfig};
use velus_testkit::render::lustre_source;

fn assert_per_occurrence(label: &str, src: &str) {
    let tokens = lex(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut words = 0;
    for t in &tokens {
        let text = &src[t.span.start as usize..t.span.end as usize];
        if !text.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
            continue;
        }
        let alone = lex(text).unwrap_or_else(|e| panic!("{label}: `{text}`: {e}"));
        assert_eq!(alone.len(), 2, "{label}: `{text}` is one word");
        assert_eq!(
            t.tok, alone[0].tok,
            "{label}: `{text}` at byte {}",
            t.span.start
        );
        words += 1;
    }
    assert!(words > 0, "{label}: no words");
}

#[test]
fn benchmarks_lex_as_per_occurrence() {
    let mut files: Vec<_> = std::fs::read_dir(velus_repro::repo_root().join("benchmarks"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 14);
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        assert_per_occurrence(&path.display().to_string(), &src);
    }
}

#[test]
fn industrial24_lexes_as_per_occurrence() {
    // The service bench's corpus: 24 shapes, a third sub-clocked.
    for k in 0..24usize {
        let cfg = IndustrialConfig {
            nodes: 8 + (k % 7) * 3,
            eqs_per_node: 6 + (k % 5) * 2,
            fan_in: 1 + k % 2,
            subclock_depth: k % 3,
        };
        assert_per_occurrence(&format!("industrial{k}"), &industrial_source(&cfg));
    }
}

#[test]
fn generated_programs_lex_as_per_occurrence() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = if seed % 2 == 0 {
            GenConfig::default()
        } else {
            GenConfig {
                nodes: 4,
                eqs_per_node: 6,
                subclock_pct: 25,
                ..GenConfig::default()
            }
        };
        let prog = gen_program(&mut rng, &cfg);
        assert_per_occurrence(&format!("gen{seed}"), &lustre_source(&prog));
    }
}
