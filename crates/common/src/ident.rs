//! Interned identifiers.
//!
//! Identifiers occur everywhere in the compiler — in every AST, in every
//! environment, as keys of every map. Interning makes them `Copy`,
//! comparable and hashable in O(1), which keeps the IRs compact and the
//! interpreters fast. Interned strings are leaked; a compiler's identifier
//! population is bounded by its input, so this is the standard trade-off.
//!
//! # Concurrency
//!
//! The interner is one process-wide table shared by every thread of the
//! batch compilation service:
//!
//! * **One lock for writers.** The name→index map sits behind a single
//!   mutex. A compile takes it about a hundred times: the lexer
//!   remembers the token of every word it has seen in a small
//!   per-compile cache, so it interns each *distinct* word of its source
//!   once, not each occurrence, and Clight generation likewise builds
//!   each derived `class$method` name once per compile. At that rate two
//!   workers barely meet on the lock.
//! * **Lock-free reads.** [`Ident::as_str`] never takes the lock. An
//!   [`Ident`] is an index into an append-only symbol table built from
//!   [`OnceLock`] cells (a fixed spine of geometrically growing
//!   buckets), so a read is a handful of atomic loads — it cannot block
//!   behind a writer, and it cannot deadlock against a thread that is
//!   interning.
//!
//! # The empty name
//!
//! `Ident::new("")` never reaches the map. The empty name is published
//! at index 0 when the table is created and returned from a constant. A
//! map lookup of `""` would compare two empty strings, both at the
//! dangling address of an empty slice, and on some hosts `memcmp` takes
//! a fault-suppression assist there that costs several times a whole
//! intern of a real name.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Entries in the first symbol-table bucket; bucket `b` holds
/// `FIRST_BUCKET << b` entries, so the spine below covers the full
/// `u32` index space with [`NUM_BUCKETS`] buckets.
const FIRST_BUCKET: usize = 1 << 10;
const NUM_BUCKETS: usize = (u32::BITS - 10 + 1) as usize;

/// An interned identifier.
///
/// Two `Ident`s are equal iff they were created from equal strings.
/// `Ord` follows the underlying string order so that sorted dumps are
/// deterministic and human-readable.
///
/// # Examples
///
/// ```
/// use velus_common::Ident;
///
/// let x = Ident::new("x");
/// assert_eq!(x.to_string(), "x");
/// assert!(Ident::new("a") < Ident::new("b"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ident(u32);

/// The append-only symbol table: a fixed spine of lazily allocated
/// buckets whose sizes double, each slot written exactly once.
///
/// `OnceLock` gives the required publication for free: `set` is a
/// release store, `get` an acquire load, so a reader that obtained an
/// index (by any means — the index only exists because some `intern`
/// call returned it) observes the fully written string. Reads are
/// lock-free: two `OnceLock::get`s and a slice index.
struct SymbolTable {
    buckets: [OnceLock<Box<[OnceLock<&'static str>]>>; NUM_BUCKETS],
}

/// Splits a flat index into its (bucket, offset) coordinates. Bucket
/// `b` covers indices `[FIRST_BUCKET·(2^b − 1), FIRST_BUCKET·(2^{b+1} − 1))`.
fn locate(index: usize) -> (usize, usize) {
    let n = index / FIRST_BUCKET + 1;
    let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let start = FIRST_BUCKET * ((1 << bucket) - 1);
    (bucket, index - start)
}

impl SymbolTable {
    fn new() -> SymbolTable {
        SymbolTable {
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Reads slot `index`. Lock-free; panics if the slot was never
    /// published (impossible for an index taken from a real `Ident`).
    fn get(&self, index: usize) -> &'static str {
        let (bucket, offset) = locate(index);
        let slots = self.buckets[bucket].get().expect("symbol bucket exists");
        slots[offset].get().expect("symbol slot published")
    }

    /// Publishes `name` at slot `index`. Called with the intern lock
    /// held, so slots are filled in order and exactly once.
    fn publish(&self, index: usize, name: &'static str) {
        let (bucket, offset) = locate(index);
        let slots = self.buckets[bucket].get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(name)
            .expect("symbol slot written exactly once");
    }
}

/// The interner: the name→index map behind one mutex (writers only)
/// and the index→name table readable without any lock.
struct Interner {
    map: Mutex<HashMap<&'static str, u32>>,
    symbols: SymbolTable,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        // The empty name takes index 0 before any other name can, so
        // `Ident::EMPTY` is valid from the start.
        let symbols = SymbolTable::new();
        symbols.publish(0, "");
        Interner {
            map: Mutex::new(HashMap::from([("", 0)])),
            symbols,
        }
    })
}

impl Ident {
    /// The empty name, pre-interned (see the module docs).
    const EMPTY: Ident = Ident(0);

    /// Interns `name` and returns its identifier.
    pub fn new(name: &str) -> Ident {
        if name.is_empty() {
            return Ident::EMPTY;
        }
        let interner = interner();
        let mut map = interner.map.lock().expect("identifier interner poisoned");
        if let Some(&index) = map.get(name) {
            return Ident(index);
        }
        let index = u32::try_from(map.len()).expect("interner overflow");
        let stored: &'static str = Box::leak(name.to_owned().into_boxed_str());
        interner.symbols.publish(index as usize, stored);
        map.insert(stored, index);
        Ident(index)
    }

    /// Returns the identifier's string contents.
    ///
    /// Lock-free: resolves through the append-only symbol table with
    /// atomic loads only, so it never blocks behind (or deadlocks
    /// against) a thread that is interning.
    pub fn as_str(self) -> &'static str {
        interner().symbols.get(self.0 as usize)
    }

    /// Builds the derived identifier `self` + `suffix`.
    ///
    /// Used by compilation passes that manufacture names from source names,
    /// e.g. `tracker` ↦ `tracker$step`.
    pub fn suffixed(self, suffix: &str) -> Ident {
        Ident::new(&format!("{}{}", self.as_str(), suffix))
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ident({})", self.as_str())
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Ident) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Ident) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Ident {
        Ident::new(s)
    }
}

/// A generator of fresh identifiers that cannot collide with source names.
///
/// Freshness is obtained by embedding a `$` (which the Lustre lexer rejects
/// in source identifiers) and a monotone counter.
///
/// # Examples
///
/// ```
/// use velus_common::FreshGen;
///
/// let mut gen = FreshGen::new("norm");
/// let a = gen.fresh("v");
/// let b = gen.fresh("v");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("v$norm"));
/// ```
#[derive(Debug, Clone)]
pub struct FreshGen {
    tag: String,
    next: u32,
}

impl FreshGen {
    /// Creates a generator whose names embed the pass tag `tag`.
    pub fn new(tag: &str) -> FreshGen {
        FreshGen {
            tag: tag.to_owned(),
            next: 0,
        }
    }

    /// Returns a fresh identifier with the given human-readable `prefix`.
    pub fn fresh(&mut self, prefix: &str) -> Ident {
        let n = self.next;
        self.next += 1;
        Ident::new(&format!("{prefix}${}{n}", self.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Ident::new("foo"), Ident::new("foo"));
        assert_ne!(Ident::new("foo"), Ident::new("bar"));
    }

    #[test]
    fn as_str_round_trips() {
        for name in ["a", "tracker", "state$0", "日本語"] {
            assert_eq!(Ident::new(name).as_str(), name);
        }
    }

    #[test]
    fn empty_name_round_trips_and_is_stable() {
        let e = Ident::new("");
        assert_eq!(e.as_str(), "");
        assert_eq!(Ident::new(""), e);
        assert_eq!(Ident::from(""), e);
        assert_eq!(e, Ident::EMPTY);
        // Names interned after the empty name get fresh indices.
        let names: Vec<String> = (0..256).map(|k| format!("empty_probe_{k}")).collect();
        for name in &names {
            let id = Ident::new(name);
            assert_ne!(id, e);
            assert_eq!(id.as_str(), name.as_str());
        }
        assert_eq!(Ident::new("").as_str(), "");
        assert!(e < Ident::new("a"));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let i = Ident::new("n");
        assert_eq!(format!("{i}"), "n");
        assert_eq!(format!("{i:?}"), "Ident(n)");
    }

    #[test]
    fn order_follows_strings() {
        let mut v = vec![Ident::new("z"), Ident::new("a"), Ident::new("m")];
        v.sort();
        let names: Vec<_> = v.into_iter().map(|i| i.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn fresh_names_are_distinct_and_tagged() {
        let mut g = FreshGen::new("t");
        let names: Vec<_> = (0..100).map(|_| g.fresh("x")).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| n.as_str().contains('$')));
    }

    #[test]
    fn suffixed_builds_derived_names() {
        assert_eq!(Ident::new("f").suffixed("$step").as_str(), "f$step");
    }

    #[test]
    fn locate_covers_the_index_space_contiguously() {
        let mut expected_start = 0usize;
        for bucket in 0..NUM_BUCKETS {
            let size = FIRST_BUCKET << bucket;
            assert_eq!(locate(expected_start), (bucket, 0));
            assert_eq!(locate(expected_start + size - 1), (bucket, size - 1));
            expected_start += size;
        }
        // The spine reaches past the largest index an `Ident` can hold.
        assert!(expected_start > u32::MAX as usize);
    }

    #[test]
    fn many_idents_round_trip_and_stay_distinct() {
        // Enough names to fill past the first symbol-table bucket; every
        // round-trip must still be exact and idempotent.
        let names: Vec<String> = (0..2048).map(|k| format!("table_probe_{k}")).collect();
        let idents: Vec<Ident> = names.iter().map(|n| Ident::new(n)).collect();
        for (name, id) in names.iter().zip(&idents) {
            assert_eq!(id.as_str(), name.as_str());
            assert_eq!(Ident::new(name), *id);
        }
        let mut dedup = idents.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), idents.len());
    }
}
