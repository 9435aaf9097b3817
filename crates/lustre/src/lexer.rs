//! The Lustre lexer.
//!
//! Hand-written (the paper generates one with ocamllex). Supports `--`
//! line comments and `(* … *)` block comments, decimal integer and float
//! literals, and the keyword/operator set of the surface language.
//!
//! # The word cache
//!
//! A source names few distinct words many times over: the programs of
//! the cold-compile benchmark average 48 distinct identifiers and
//! keywords among ~1,400 occurrences. Each call of [`lex_into`]
//! therefore keeps a direct-mapped cache from words to their tokens
//! (`WordCache`): a fixed array of slots on the stack, indexed by a
//! hash the identifier scan computes as it reads the word. A hit reuses
//! the slot's token, keyword or interned identifier alike; a miss
//! classifies the word (keyword table, then the global interner, whose
//! lock is the expensive part) and overwrites the slot. So a
//! compile interns each distinct word about once, and lexing allocates
//! nothing but its output.
//!
//! The cache never grows and needs no secret hash key: two words that
//! share a slot evict each other, and each of their occurrences then
//! costs what a lexer without the cache pays — one keyword match and
//! one interner call. Lexing stays linear on adversarial input (`velus
//! batch` compiles untrusted sources); a collision only forfeits the
//! saving.

use std::fmt;

use velus_common::{codes, DiagStage, Diagnostic, Diagnostics, Ident, Span};

/// A lexical token.
///
/// Identifiers are interned at lexing time, which makes `Tok` `Copy`:
/// the parser clones tokens freely (peeks, error paths) and a compile
/// of an already-seen source interns nothing new.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok {
    /// An identifier (interned).
    Ident(Ident),
    /// An integer literal (kept wide; typed during elaboration).
    Int(i128),
    /// A floating-point literal.
    Float(f64),
    // Keywords.
    /// `node`
    Node,
    /// `function` (accepted as a synonym of `node`)
    Function,
    /// `returns`
    Returns,
    /// `var`
    Var,
    /// `let`
    Let,
    /// `tel`
    Tel,
    /// `const`
    Const,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `when`
    When,
    /// `whenot` (alias for `when not`)
    Whenot,
    /// `merge`
    Merge,
    /// `fby`
    Fby,
    /// `pre`
    Pre,
    /// `not`
    Not,
    /// `and`
    And,
    /// `or`
    Or,
    /// `xor`
    Xor,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `true`
    True,
    /// `false`
    False,
    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `->`
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Node => f.write_str("node"),
            Tok::Function => f.write_str("function"),
            Tok::Returns => f.write_str("returns"),
            Tok::Var => f.write_str("var"),
            Tok::Let => f.write_str("let"),
            Tok::Tel => f.write_str("tel"),
            Tok::Const => f.write_str("const"),
            Tok::If => f.write_str("if"),
            Tok::Then => f.write_str("then"),
            Tok::Else => f.write_str("else"),
            Tok::When => f.write_str("when"),
            Tok::Whenot => f.write_str("whenot"),
            Tok::Merge => f.write_str("merge"),
            Tok::Fby => f.write_str("fby"),
            Tok::Pre => f.write_str("pre"),
            Tok::Not => f.write_str("not"),
            Tok::And => f.write_str("and"),
            Tok::Or => f.write_str("or"),
            Tok::Xor => f.write_str("xor"),
            Tok::Div => f.write_str("div"),
            Tok::Mod => f.write_str("mod"),
            Tok::True => f.write_str("true"),
            Tok::False => f.write_str("false"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Colon => f.write_str(":"),
            Tok::Eq => f.write_str("="),
            Tok::Neq => f.write_str("<>"),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::Slash => f.write_str("/"),
            Tok::Arrow => f.write_str("->"),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Its position.
    pub span: Span,
}

/// The token of the word `text` (an identifier or a keyword), computed
/// afresh: the miss path of the [`WordCache`].
fn word_token(text: &str) -> Tok {
    keyword(text).unwrap_or_else(|| Tok::Ident(Ident::new(text)))
}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "node" => Tok::Node,
        "function" => Tok::Function,
        "returns" => Tok::Returns,
        "var" => Tok::Var,
        "let" => Tok::Let,
        "tel" => Tok::Tel,
        "const" => Tok::Const,
        "if" => Tok::If,
        "then" => Tok::Then,
        "else" => Tok::Else,
        "when" => Tok::When,
        "whenot" => Tok::Whenot,
        "merge" => Tok::Merge,
        "fby" => Tok::Fby,
        "pre" => Tok::Pre,
        "not" => Tok::Not,
        "and" => Tok::And,
        "or" => Tok::Or,
        "xor" => Tok::Xor,
        "div" => Tok::Div,
        "mod" => Tok::Mod,
        "true" => Tok::True,
        "false" => Tok::False,
        _ => return None,
    })
}

/// Log2 of the number of [`WordCache`] slots.
const WORD_SLOT_BITS: u32 = 8;
/// Number of [`WordCache`] slots: several times the distinct words of a
/// typical program, and small enough (12 KiB) to live on the stack.
const WORD_SLOTS: usize = 1 << WORD_SLOT_BITS;

/// One step of the polynomial word hash `Σ byte·31^k`; the identifier
/// scan folds every byte of a word in. Generated and hand-written names
/// alike come in families that differ in their last characters (`x1`,
/// `x2`, …), which this hash maps to consecutive values — exactly what
/// the Fibonacci spread in [`WordCache::slot`] scatters best.
#[inline]
fn word_hash_step(hash: u32, byte: u8) -> u32 {
    hash.wrapping_mul(31).wrapping_add(u32::from(byte))
}

/// A direct-mapped cache from words to their tokens, local to one
/// [`lex_into`] call (see the module docs). Slots hold a word of the
/// source and its token; an empty slot holds `""`, which no word equals.
struct WordCache<'a> {
    slots: [(&'a str, Tok); WORD_SLOTS],
}

impl<'a> WordCache<'a> {
    fn new() -> WordCache<'a> {
        WordCache {
            slots: [("", Tok::Eof); WORD_SLOTS],
        }
    }

    /// The slot of a word with hash `hash`: the top bits of the hash
    /// times 2³²/φ (Fibonacci hashing), which spreads runs of
    /// consecutive hashes evenly over the slots.
    #[inline]
    fn slot(hash: u32) -> usize {
        (hash.wrapping_mul(0x9e37_79b1) >> (32 - WORD_SLOT_BITS)) as usize
    }

    /// The token of `text`, whose hash is `hash`: the slot's if it holds
    /// `text`, else computed and written over the slot.
    #[inline]
    fn token(&mut self, text: &'a str, hash: u32) -> Tok {
        let slot = &mut self.slots[WordCache::slot(hash)];
        if slot.0 == text {
            return slot.1;
        }
        let tok = word_token(text);
        *slot = (text, tok);
        tok
    }
}

/// Whether `c` can begin a token (or whitespace) — used to delimit runs
/// of unexpected characters so each run costs one diagnostic, not one
/// per probed character.
#[inline]
fn starts_token(c: u8) -> bool {
    c.is_ascii_whitespace()
        || c.is_ascii_alphanumeric()
        || matches!(
            c,
            b'_' | b'('
                | b')'
                | b','
                | b';'
                | b':'
                | b'='
                | b'<'
                | b'>'
                | b'+'
                | b'-'
                | b'*'
                | b'/'
        )
}

/// Tokenizes `source`.
///
/// # Errors
///
/// Unterminated comments, malformed numbers and unexpected characters.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostics> {
    let mut out = Vec::new();
    lex_into(source, &mut out)?;
    Ok(out)
}

/// Tokenizes `source` into a caller-owned buffer (cleared first), so a
/// caller compiling repeatedly reuses one allocation. The buffer is
/// pre-sized from the source length on first use.
///
/// # Errors
///
/// Same as [`lex`]; `out` still holds the tokens lexed before the error
/// (error recovery continues to the end of the input).
pub fn lex_into(source: &str, out: &mut Vec<Token>) -> Result<(), Diagnostics> {
    let mut words = WordCache::new();
    scan(source, out, |text, hash| words.token(text, hash))
}

/// The lexer proper. `word` maps each identifier-shaped word, with its
/// [`word_hash_step`] hash, to its token.
#[inline]
fn scan<'a>(
    source: &'a str,
    out: &mut Vec<Token>,
    mut word: impl FnMut(&'a str, u32) -> Tok,
) -> Result<(), Diagnostics> {
    let bytes = source.as_bytes();
    out.clear();
    // Lustre averages roughly one token per four bytes; one up-front
    // reservation replaces the doubling regrowths of a cold Vec and is
    // a no-op for a recycled buffer that is already big enough.
    out.reserve(source.len() / 4 + 8);
    let mut i = 0usize;
    let n = bytes.len();
    let mut errs = Diagnostics::new();

    while i < n {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == b'-' && i + 1 < n && bytes[i + 1] == b'-' {
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (* ... *), nestable.
        if c == b'(' && i + 1 < n && bytes[i + 1] == b'*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == b'(' && i + 1 < n && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b')' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            if depth > 0 {
                errs.push(
                    Diagnostic::error(
                        codes::E0102,
                        "unterminated comment",
                        Span::new(start as u32, n as u32),
                    )
                    .at_stage(DiagStage::Lex),
                );
            }
            continue;
        }
        let start = i as u32;
        // Identifier or keyword.
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut hash = u32::from(c);
            let mut j = i + 1;
            while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                hash = word_hash_step(hash, bytes[j]);
                j += 1;
            }
            let tok = word(&source[i..j], hash);
            out.push(Token {
                tok,
                span: Span::new(start, j as u32),
            });
            i = j;
            continue;
        }
        // Number (integer or float).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let mut is_float = false;
            if j < n && bytes[j] == b'.' && j + 1 < n && bytes[j + 1].is_ascii_digit() {
                is_float = true;
                j += 1;
                while j < n && bytes[j].is_ascii_digit() {
                    j += 1;
                }
            }
            if j < n && (bytes[j] == b'e' || bytes[j] == b'E') {
                let mut k = j + 1;
                if k < n && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                if k < n && bytes[k].is_ascii_digit() {
                    is_float = true;
                    j = k + 1;
                    while j < n && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
            }
            let text = &source[i..j];
            let span = Span::new(start, j as u32);
            if is_float {
                match text.parse::<f64>() {
                    Ok(x) => out.push(Token {
                        tok: Tok::Float(x),
                        span,
                    }),
                    Err(_) => errs.push(
                        Diagnostic::error(
                            codes::E0105,
                            format!("malformed float literal `{text}`"),
                            span,
                        )
                        .at_stage(DiagStage::Lex),
                    ),
                }
            } else {
                match text.parse::<i128>() {
                    Ok(x) => out.push(Token {
                        tok: Tok::Int(x),
                        span,
                    }),
                    Err(_) => errs.push(
                        Diagnostic::error(
                            codes::E0105,
                            format!("malformed integer literal `{text}`"),
                            span,
                        )
                        .at_stage(DiagStage::Lex),
                    ),
                }
            }
            i = j;
            continue;
        }
        // Operators and punctuation. Matched as *bytes*: slicing the
        // source string two bytes ahead would panic mid-character on
        // non-ASCII input, which must lex to a diagnostic, not a panic
        // (found by the fault-injection property test).
        let two: &[u8] = if i + 1 < n { &bytes[i..i + 2] } else { b"" };
        let (tok, len) = match two {
            b"->" => (Tok::Arrow, 2),
            b"<>" => (Tok::Neq, 2),
            b"<=" => (Tok::Le, 2),
            b">=" => (Tok::Ge, 2),
            _ => match c {
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b',' => (Tok::Comma, 1),
                b';' => (Tok::Semi, 1),
                b':' => (Tok::Colon, 1),
                b'=' => (Tok::Eq, 1),
                b'<' => (Tok::Lt, 1),
                b'>' => (Tok::Gt, 1),
                b'+' => (Tok::Plus, 1),
                b'-' => (Tok::Minus, 1),
                b'*' => (Tok::Star, 1),
                b'/' => (Tok::Slash, 1),
                _ => {
                    // Coalesce the whole run of unexpected characters
                    // into one diagnostic, stepping over complete UTF-8
                    // sequences so both the span and the next lexer
                    // state sit on character boundaries. The message is
                    // formatted once per run, not once per probed
                    // character.
                    let ch = source[i..].chars().next().expect("in bounds");
                    let mut j = i + ch.len_utf8();
                    while j < n && !starts_token(bytes[j]) {
                        let ch2 = source[j..].chars().next().expect("on boundary");
                        j += ch2.len_utf8();
                    }
                    let run = &source[i..j];
                    let msg = if j == i + ch.len_utf8() {
                        format!("unexpected character `{ch}`")
                    } else {
                        format!("unexpected characters `{run}`")
                    };
                    errs.push(
                        Diagnostic::error(codes::E0101, msg, Span::new(start, j as u32))
                            .at_stage(DiagStage::Lex),
                    );
                    i = j;
                    continue;
                }
            },
        };
        out.push(Token {
            tok,
            span: Span::new(start, start + len as u32),
        });
        i += len;
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span::new(n as u32, n as u32),
    });
    errs.into_result(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("node counter tel"),
            vec![
                Tok::Node,
                Tok::Ident(Ident::new("counter")),
                Tok::Tel,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("3.5"), vec![Tok::Float(3.5), Tok::Eof]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
        // A bare dot is not part of the language.
        assert!(lex("1 .").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a -> b <> c <= d"),
            vec![
                Tok::Ident(Ident::new("a")),
                Tok::Arrow,
                Tok::Ident(Ident::new("b")),
                Tok::Neq,
                Tok::Ident(Ident::new("c")),
                Tok::Le,
                Tok::Ident(Ident::new("d")),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments() {
        assert_eq!(toks("a -- to end of line\nb"), toks("a b"));
        assert_eq!(toks("a (* nested (* ok *) still *) b"), toks("a b"));
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("a (* whoops").is_err());
    }

    #[test]
    fn minus_minus_needs_spacing() {
        // `a - -1` is subtraction of a negated literal, not a comment.
        assert_eq!(
            toks("a - - 1"),
            vec![
                Tok::Ident(Ident::new("a")),
                Tok::Minus,
                Tok::Minus,
                Tok::Int(1),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_point_into_the_source() {
        let ts = lex("ab cd").unwrap();
        assert_eq!(ts[1].span, Span::new(3, 5));
    }

    #[test]
    fn unexpected_character_runs_coalesce() {
        // A run of stray characters yields one diagnostic covering the
        // whole run, not one per character.
        let errs = lex("a @#$ b").unwrap_err();
        assert_eq!(errs.iter().count(), 1);
        assert!(errs.iter().next().unwrap().message.contains("@#$"));
        // A single stray character keeps the singular message.
        let errs = lex("a ? b").unwrap_err();
        let msg = &errs.iter().next().unwrap().message;
        assert!(msg.contains("unexpected character `?`"), "{msg}");
    }

    /// The per-occurrence reference: the same scanner with every word
    /// classified afresh, as the lexer did before the word cache.
    fn reference_lex(src: &str) -> (Vec<Token>, Result<(), Diagnostics>) {
        let mut out = Vec::new();
        let result = scan(src, &mut out, |text, _| word_token(text));
        (out, result)
    }

    /// Lexing through the word cache yields exactly the reference's
    /// tokens and diagnostics.
    fn assert_matches_reference(label: &str, src: &str) {
        let (want_tokens, want) = reference_lex(src);
        let mut got_tokens = Vec::new();
        let got = lex_into(src, &mut got_tokens);
        assert_eq!(got_tokens, want_tokens, "{label}: token stream");
        assert_eq!(got, want, "{label}: diagnostics");
    }

    fn word_hash(text: &str) -> u32 {
        text.bytes().fold(0, word_hash_step)
    }

    /// `count` distinct identifiers `q…` (no keyword starts with `q`)
    /// whose words all fall into cache slot `slot`.
    fn colliding_words(slot: usize, count: usize) -> Vec<String> {
        const DIGITS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let mut out = Vec::with_capacity(count);
        let mut buf = [0u8; 8];
        let mut k = 0u64;
        while out.len() < count {
            // `q` followed by `k` in base 37, written into `buf`.
            let mut len = 1;
            buf[0] = b'q';
            let mut rest = k;
            loop {
                buf[len] = DIGITS[(rest % 37) as usize];
                len += 1;
                rest /= 37;
                if rest == 0 {
                    break;
                }
            }
            let word = std::str::from_utf8(&buf[..len]).expect("ascii");
            if WordCache::slot(word_hash(word)) == slot {
                out.push(word.to_owned());
            }
            k += 1;
        }
        out
    }

    /// The `.lus` files of a repository directory.
    fn repo_sources(dir: &str) -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(dir);
        let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("corpus directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "lus"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("readable source");
                (p.display().to_string(), src)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn word_cache_matches_reference_on_the_corpora() {
        let benchmarks = repo_sources("benchmarks");
        assert_eq!(benchmarks.len(), 14);
        let fixtures = repo_sources("tests/errors");
        assert!(fixtures.len() >= 17);
        for (label, src) in benchmarks.iter().chain(&fixtures) {
            assert_matches_reference(label, src);
        }
        // Lexical errors mid-source keep the cache and the reference in
        // step too (the fixtures hold one unterminated comment).
        assert_matches_reference("errors", "node f é x (* y when x\n@@ whenot tel");
    }

    #[test]
    fn word_cache_survives_ten_thousand_words_in_one_slot() {
        let words = colliding_words(0, 10_000);
        // Each word once, then every word again with a keyword after
        // every second word: each identifier evicts its predecessor.
        let mut src = words.join(" ");
        src.push('\n');
        for pair in words.chunks(2) {
            src.push_str(&pair.join(" "));
            src.push_str(" node ");
        }
        assert_matches_reference("one slot", &src);
        let toks = toks(&src);
        for (word, tok) in words.iter().zip(&toks) {
            assert_eq!(*tok, Tok::Ident(Ident::new(word)));
        }
    }

    #[test]
    fn word_cache_tells_keywords_from_look_alikes() {
        let look_alikes = [
            "nodes",
            "node_",
            "_node",
            "when",
            "whenot",
            "whenott",
            "whe",
            "wheno",
            "tel_",
            "tel",
            "_if",
            "if",
            "iff",
            "i",
            "returns",
            "return",
            "returnss",
            "function",
            "functions",
            "true",
            "True",
            "truefalse",
            "false_",
            "xor",
            "xo",
            "xorx",
            "div",
            "mod",
            "modulo",
            "pre",
            "prefix",
            "fby",
            "fby_",
            "not",
            "note",
            "and",
            "andor",
            "merge",
            "merged",
            "const",
            "constant",
            "var",
            "vars",
            "let",
            "lets",
            "then",
            "else",
            "elsewhere",
        ];
        // Look-alikes side by side, repeated so the second round hits.
        let line = look_alikes.join(" ");
        assert_matches_reference("look-alikes", &format!("{line}\n{line}\n{line}"));
        // Each keyword against identifiers forced into its own slot.
        let mut src = String::new();
        for kw in [
            "node", "when", "whenot", "tel", "if", "returns", "function", "false",
        ] {
            for w in colliding_words(WordCache::slot(word_hash(kw)), 3) {
                src.push_str(&format!("{kw} {w} {kw} {w}{kw} {kw}{w} "));
            }
        }
        assert_matches_reference("keyword slots", &src);
        assert_eq!(
            toks("whenot whenott")[..2],
            [Tok::Whenot, Tok::Ident(Ident::new("whenott"))]
        );
    }

    #[test]
    fn word_cache_handles_words_longer_than_any_keyword() {
        let long = "functionfunctionfunction_".repeat(40);
        let longer = "x".repeat(10_000);
        let src = format!("{long} function {longer} {long} functio {longer} function_ {long}");
        assert_matches_reference("long words", &src);
        assert_eq!(toks(&src)[0], Tok::Ident(Ident::new(&long)));
    }

    #[test]
    fn a_miss_overwrites_its_slot_and_a_hit_reuses_it() {
        let [a, b]: [String; 2] = colliding_words(7, 2).try_into().expect("two words");
        let mut cache = WordCache::new();
        assert_eq!(cache.slots[7].0, "");
        assert_eq!(cache.token(&a, word_hash(&a)), Tok::Ident(Ident::new(&a)));
        assert_eq!(cache.slots[7], (a.as_str(), Tok::Ident(Ident::new(&a))));
        // A colliding word evicts the first, and the first comes back.
        assert_eq!(cache.token(&b, word_hash(&b)), Tok::Ident(Ident::new(&b)));
        assert_eq!(cache.slots[7].0, b);
        assert_eq!(cache.token(&a, word_hash(&a)), Tok::Ident(Ident::new(&a)));
        assert_eq!(cache.slots[7].0, a);
        // A hit answers from the slot: a planted token comes back as is.
        cache.slots[7].1 = Tok::Let;
        assert_eq!(cache.token(&a, word_hash(&a)), Tok::Let);
        // Keywords are cached like identifiers.
        let slot = WordCache::slot(word_hash("node"));
        assert_eq!(cache.token("node", word_hash("node")), Tok::Node);
        assert_eq!(cache.slots[slot], ("node", Tok::Node));
    }

    #[test]
    fn lex_into_reuses_the_buffer() {
        let mut buf = Vec::new();
        lex_into("node f(x: int) returns (y: int) let y = x; tel", &mut buf).unwrap();
        let cap = buf.capacity();
        lex_into("node g(a: bool) returns (b: bool) let b = a; tel", &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "recycled buffer must not regrow");
    }
}
