//! The content-addressed artifact cache.
//!
//! Keys are a 128-bit FNV-1a digest of the request's *content* — source
//! text, root selection, I/O mode, and the **artifact kind** being
//! cached. Equal content therefore maps to the same artifact regardless
//! of the request's label, and a warm hit returns the identical `Arc`
//! so emitted code is bit-for-bit the artifact produced by the cold
//! compilation. Each kind of a multi-kind request is a separate entry:
//! a WCET request neither recomputes nor re-caches the C artifact, and
//! each entry is weighed by its own kind's resident size.
//!
//! Compilation is a pure function of the key, so a **failed** compile is
//! cached too: its [`CachedFailure`] sits under the same per-kind keys
//! an artifact would, and a failing input compiles at most once while
//! its entries stay cached. A failure is served again only to requests
//! asking for every kind it failed for — a request for fewer kinds may
//! still compile (the missing kind may be the one that failed), and when
//! it does, its artifact replaces the failure entry.
//!
//! FNV-1a is fast but not collision-resistant, so every entry keeps the
//! content it was stored under and a lookup **verifies the content on
//! hit**: a digest collision degrades to a miss (and a recompile), never
//! to serving another program's artifact.
//!
//! # Eviction
//!
//! The table is one map behind one lock. Capacity is bounded: each entry
//! is weighed (stored source bytes plus an artifact weigher supplied by
//! the service) and the cache enforces optional entry/byte caps with
//! **LRU eviction** — every lookup and insert stamps the entry with the
//! next tick of the cache's recency clock, a `BTreeMap` orders entries
//! by tick, and eviction pops its first (least recent) entry. Evictions
//! are counted and surfaced through [`CacheCounters`]/`ServiceStats`.
//! An evicted entry simply recompiles (and re-verifies) on its next
//! request.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::{ArtifactKind, CompileRequest, IoMode, ServiceError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new(offset: u64) -> Fnv {
        Fnv(offset)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A 128-bit content digest identifying a compilation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Digests a request's content (source, root, I/O mode) together
    /// with the artifact `kind` being cached. The `name` label is
    /// deliberately excluded: two files with equal content share one
    /// cache entry per kind. The kind *set* of the request is likewise
    /// excluded — each kind keys its own entry, so a later request that
    /// shares only some kinds still hits those.
    pub fn of_request(req: &CompileRequest, kind: &ArtifactKind) -> CacheKey {
        // Two independent FNV streams (different offset bases, one with a
        // domain tag) give a 128-bit key; fields are length-prefixed so
        // concatenations cannot collide.
        let mut a = Fnv::new(FNV_OFFSET);
        let mut b = Fnv::new(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        b.write(b"velus-cache-v2");
        for fnv in [&mut a, &mut b] {
            let mut field = |bytes: &[u8]| {
                fnv.write(&(bytes.len() as u64).to_le_bytes());
                fnv.write(bytes);
            };
            field(req.source.as_bytes());
            field(req.root.as_deref().unwrap_or("").as_bytes());
            let tag = kind.key_tag();
            field(&[
                req.root.is_some() as u8,
                (req.options.io as u8),
                tag[0],
                tag[1],
            ]);
        }
        CacheKey { hi: a.0, lo: b.0 }
    }

    /// A short hex rendering for logs.
    pub fn short(&self) -> String {
        format!("{:08x}", self.hi >> 32)
    }
}

/// Capacity of an [`ArtifactCache`]. The default is unbounded.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {
    /// Cap on the number of cached entries. `None` means unbounded.
    pub max_entries: Option<usize>,
    /// Cap on the total cached bytes (stored source plus the weigher's
    /// estimate of the artifact). `None` is unbounded.
    pub max_bytes: Option<usize>,
}

/// Point-in-time occupancy and eviction counters of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Artifacts currently held.
    pub entries: u64,
    /// Weighed bytes currently held.
    pub bytes: u64,
    /// Entries evicted to honor a capacity cap since construction
    /// (monotone; `clear` does not count).
    pub evictions: u64,
}

/// The content an entry was stored under, kept for hit verification.
/// Only the key-relevant request fields are retained: source, root, I/O
/// mode, and the artifact kind (the request's full kind set is *not*
/// part of a per-kind entry's identity).
struct StoredContent {
    source: String,
    root: Option<String>,
    io: IoMode,
    kind: ArtifactKind,
}

impl StoredContent {
    fn of_request(req: &CompileRequest, kind: ArtifactKind) -> StoredContent {
        StoredContent {
            source: req.source.clone(),
            root: req.root.clone(),
            io: req.options.io,
            kind,
        }
    }

    fn matches(&self, req: &CompileRequest, kind: &ArtifactKind) -> bool {
        self.source == req.source
            && self.root == req.root
            && self.io == req.options.io
            && self.kind == *kind
    }

    fn bytes(&self) -> usize {
        self.source.len() + self.root.as_deref().map_or(0, str::len)
    }
}

/// A failed compilation as the cache keeps it.
#[derive(Debug)]
pub struct CachedFailure {
    /// The kinds the failed compilation was asked for. The failure is
    /// replayed only to requests asking for all of them.
    pub kinds: Vec<ArtifactKind>,
    /// What the request failed with (a compile error or a contained
    /// panic), replayed verbatim.
    pub error: ServiceError,
}

/// What a cache entry holds: the artifact of a successful compile or
/// the failure of an unsuccessful one.
#[derive(Debug)]
pub enum Cached<A> {
    /// The shared artifact.
    Artifact(Arc<A>),
    /// The shared failure (one failure is stored under every kind it
    /// failed for).
    Failure(Arc<CachedFailure>),
}

impl<A> Clone for Cached<A> {
    fn clone(&self) -> Cached<A> {
        match self {
            Cached::Artifact(a) => Cached::Artifact(Arc::clone(a)),
            Cached::Failure(f) => Cached::Failure(Arc::clone(f)),
        }
    }
}

struct Entry<A> {
    stored: StoredContent,
    value: Cached<A>,
    weight: usize,
    tick: u64,
}

/// Everything the cache lock guards: the key→entry map, the recency
/// order of its entries (tick → key; ticks are unique, so the
/// `BTreeMap`'s first entry is the least recent one) and the counters.
struct Table<A> {
    map: HashMap<CacheKey, Entry<A>>,
    recency: BTreeMap<u64, CacheKey>,
    /// The recency clock; every lookup and insert takes a fresh tick.
    tick: u64,
    bytes: usize,
    evictions: u64,
}

impl<A> Table<A> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Removes `key`'s entry, which must be present.
    fn remove(&mut self, key: &CacheKey) {
        let entry = self.map.remove(key).expect("entry present");
        self.recency.remove(&entry.tick);
        self.bytes -= entry.weight;
    }
}

/// How an artifact's resident size is estimated for the byte cap.
type Weigher<A> = Box<dyn Fn(&A) -> usize + Send + Sync>;

/// A thread-safe, capacity-bounded memo table from request content to
/// shared artifacts. (Hit/miss accounting lives in the service's
/// `StatsCollector`, not here — one set of counters, one source of
/// truth; the cache only counts what it alone can observe: occupancy
/// and evictions.)
pub struct ArtifactCache<A> {
    table: Mutex<Table<A>>,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    weigher: Weigher<A>,
}

impl<A> Default for ArtifactCache<A> {
    fn default() -> ArtifactCache<A> {
        ArtifactCache::new()
    }
}

impl<A> ArtifactCache<A> {
    /// An empty, unbounded cache with a zero-weight artifact weigher.
    pub fn new() -> ArtifactCache<A> {
        ArtifactCache::with_config(CacheConfig::default(), Box::new(|_| 0))
    }

    /// An empty cache with the given caps and artifact weigher.
    pub fn with_config(config: CacheConfig, weigher: Weigher<A>) -> ArtifactCache<A> {
        ArtifactCache {
            table: Mutex::new(Table {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                evictions: 0,
            }),
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            weigher,
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, Table<A>> {
        self.table.lock().expect("cache lock")
    }

    /// Looks up the entry of one `kind` for a request's content — an
    /// artifact or a cached failure — and refreshes its recency. The
    /// stored content is compared on digest match, so a hash collision
    /// is a miss, never another program's entry.
    pub fn lookup(
        &self,
        key: &CacheKey,
        req: &CompileRequest,
        kind: &ArtifactKind,
    ) -> Option<Cached<A>> {
        let mut guard = self.table();
        let table = &mut *guard;
        let tick = table.next_tick();
        let entry = table
            .map
            .get_mut(key)
            .filter(|entry| entry.stored.matches(req, kind))?;
        let old = std::mem::replace(&mut entry.tick, tick);
        let value = entry.value.clone();
        table.recency.remove(&old);
        table.recency.insert(tick, *key);
        Some(value)
    }

    /// The cached artifact of one `kind` for a request's content, if any
    /// (a cached failure reads as `None`).
    pub fn get(&self, key: &CacheKey, req: &CompileRequest, kind: &ArtifactKind) -> Option<Arc<A>> {
        match self.lookup(key, req, kind)? {
            Cached::Artifact(artifact) => Some(artifact),
            Cached::Failure(_) => None,
        }
    }

    /// Inserts an artifact, returns the shared handle, and evicts least
    /// recently used entries until the configured caps hold again. If
    /// another worker raced the same content, the *first* insertion wins
    /// and is returned — artifacts are deterministic functions of the
    /// content, so either copy is equivalent; keeping the first
    /// maximizes sharing. An artifact replaces a cached failure.
    pub fn insert(
        &self,
        key: CacheKey,
        req: &CompileRequest,
        kind: ArtifactKind,
        artifact: A,
    ) -> Arc<A> {
        match self.put(key, req, kind, Cached::Artifact(Arc::new(artifact))) {
            Cached::Artifact(shared) => shared,
            Cached::Failure(_) => unreachable!("an artifact always replaces a failure"),
        }
    }

    /// Caches a failed compilation under one `kind`'s key. An artifact
    /// already cached there is kept; an older failure is replaced.
    pub fn insert_failure(
        &self,
        key: CacheKey,
        req: &CompileRequest,
        kind: ArtifactKind,
        failure: Arc<CachedFailure>,
    ) {
        self.put(key, req, kind, Cached::Failure(failure));
    }

    /// Stores `value` unless an artifact for the same content is already
    /// there, evicts down to the caps, and returns what the entry now
    /// holds.
    fn put(
        &self,
        key: CacheKey,
        req: &CompileRequest,
        kind: ArtifactKind,
        value: Cached<A>,
    ) -> Cached<A> {
        // Weigh the artifact before taking the lock. A failure weighs
        // only its stored content.
        let stored = StoredContent::of_request(req, kind);
        let weight = stored.bytes()
            + match &value {
                Cached::Artifact(artifact) => (self.weigher)(artifact),
                Cached::Failure(_) => 0,
            };
        let mut table = self.table();
        match table.map.get(&key) {
            Some(entry) if entry.stored.matches(req, &kind) => {
                if let Cached::Artifact(_) = entry.value {
                    return entry.value.clone();
                }
                // A failure makes way for the new value.
                table.remove(&key);
            }
            // Digest collision with different content: keep the
            // incumbent (its requests still verify) and serve this
            // value uncached.
            Some(_) => return value,
            None => {}
        }
        // An entry that alone exceeds the byte cap can never be
        // retained; admitting it would purge every other (useful)
        // entry on the way to evicting it. Serve it uncached instead
        // and leave the cache untouched.
        if self.max_bytes.is_some_and(|cap| weight > cap) {
            return value;
        }
        let tick = table.next_tick();
        table.map.insert(
            key,
            Entry {
                stored,
                value: value.clone(),
                weight,
                tick,
            },
        );
        table.recency.insert(tick, key);
        table.bytes += weight;
        // Evict least recently used entries until both caps hold.
        while self.max_entries.is_some_and(|cap| table.map.len() > cap)
            || self.max_bytes.is_some_and(|cap| table.bytes > cap)
        {
            let (_, victim) = table.recency.pop_first().expect("over a cap, so not empty");
            let entry = table.map.remove(&victim).expect("recency and map agree");
            table.bytes -= entry.weight;
            table.evictions += 1;
        }
        value
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.table().map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy and eviction counters, read under the lock, so they
    /// agree with each other.
    pub fn counters(&self) -> CacheCounters {
        let table = self.table();
        CacheCounters {
            entries: table.map.len() as u64,
            bytes: table.bytes as u64,
            evictions: table.evictions,
        }
    }

    /// Drops every entry (not counted as evictions).
    pub fn clear(&self) {
        let mut table = self.table();
        table.map.clear();
        table.recency.clear();
        table.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, IoMode, IrStageKind, WcetModelKind};

    const C: ArtifactKind = ArtifactKind::CCode;

    fn req(source: &str) -> CompileRequest {
        CompileRequest::new("r", source)
    }

    fn key(r: &CompileRequest) -> CacheKey {
        CacheKey::of_request(r, &C)
    }

    fn bounded(max_entries: usize) -> ArtifactCache<String> {
        ArtifactCache::with_config(
            CacheConfig {
                max_entries: Some(max_entries),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        )
    }

    #[test]
    fn key_depends_on_content_not_name() {
        let a = key(&CompileRequest::new("a", "node f() ..."));
        let b = key(&CompileRequest::new("b", "node f() ..."));
        assert_eq!(a, b);
    }

    #[test]
    fn key_distinguishes_source_root_options_and_kind() {
        let base = req("src");
        let k = key(&base);
        assert_ne!(k, key(&req("src2")));
        assert_ne!(k, key(&base.clone().with_root("main")));
        assert_ne!(
            k,
            key(&base
                .clone()
                .with_options(CompileOptions::default().with_io(IoMode::Stdio)))
        );
        // Explicit empty root differs from no root (length prefixing).
        assert_ne!(k, key(&base.clone().with_root("")));
        // Every other kind keys a distinct entry for the same content.
        for kind in [
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert,
            },
            ArtifactKind::Wcet {
                model: WcetModelKind::GccInline,
            },
            ArtifactKind::BaselineDiff,
            ArtifactKind::IrDump {
                stage: IrStageKind::ObcFused,
            },
        ] {
            assert_ne!(k, CacheKey::of_request(&base, &kind), "{kind}");
        }
    }

    #[test]
    fn kind_set_of_the_request_does_not_change_the_key() {
        // Two requests for the same content with different kind *sets*
        // share the per-kind entries of the kinds they have in common.
        let one = req("src");
        let many = req("src").with_options(CompileOptions::for_kinds(vec![
            ArtifactKind::CCode,
            ArtifactKind::BaselineDiff,
        ]));
        assert_eq!(key(&one), key(&many));
        let cache: ArtifactCache<String> = ArtifactCache::new();
        cache.insert(key(&one), &one, C, "shared".to_owned());
        assert_eq!(
            cache.get(&key(&many), &many, &C).as_deref(),
            Some(&"shared".to_owned())
        );
    }

    #[test]
    fn get_round_trips_and_verifies_content() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let r = req("x");
        let k = key(&r);
        assert!(cache.get(&k, &r, &C).is_none());
        cache.insert(k, &r, C, "artifact".to_owned());
        assert_eq!(
            cache.get(&k, &r, &C).as_deref(),
            Some(&"artifact".to_owned())
        );
        assert_eq!(cache.len(), 1);
        // A *forged* lookup with the right digest but different content
        // is a miss, not a wrong artifact.
        let other = req("y");
        assert!(cache.get(&k, &other, &C).is_none());
        // So is a forged lookup for a different kind.
        assert!(cache.get(&k, &r, &ArtifactKind::BaselineDiff).is_none());
    }

    #[test]
    fn failures_are_cached_and_make_way_for_artifacts() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let r = req("x");
        let k = key(&r);
        let failure = Arc::new(CachedFailure {
            kinds: vec![C],
            error: ServiceError::Panic("boom".to_owned()),
        });
        cache.insert_failure(k, &r, C, Arc::clone(&failure));
        assert!(matches!(cache.lookup(&k, &r, &C), Some(Cached::Failure(_))));
        assert!(cache.get(&k, &r, &C).is_none(), "a failure is no artifact");
        assert_eq!(cache.len(), 1);
        // An artifact replaces the failure…
        assert_eq!(*cache.insert(k, &r, C, "artifact".to_owned()), "artifact");
        assert_eq!(cache.len(), 1);
        // …and a later failure never replaces the artifact.
        cache.insert_failure(k, &r, C, failure);
        assert_eq!(
            cache.get(&k, &r, &C).as_deref(),
            Some(&"artifact".to_owned())
        );
        assert_eq!((cache.len(), cache.counters().evictions), (1, 0));
    }

    #[test]
    fn racing_insert_keeps_the_first_artifact() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let r = req("x");
        let k = key(&r);
        let first = cache.insert(k, &r, C, "one".to_owned());
        let second = cache.insert(k, &r, C, "two".to_owned());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, "one");
    }

    #[test]
    fn entry_cap_evicts_the_least_recently_used() {
        let cache = bounded(2);
        let (ra, rb, rc) = (req("aa"), req("bb"), req("cc"));
        let (ka, kb, kc) = (key(&ra), key(&rb), key(&rc));
        cache.insert(ka, &ra, C, "A".into());
        cache.insert(kb, &rb, C, "B".into());
        // Touch A so B becomes the LRU, then overflow with C.
        assert!(cache.get(&ka, &ra, &C).is_some());
        cache.insert(kc, &rc, C, "C".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        assert!(
            cache.get(&kb, &rb, &C).is_none(),
            "the LRU entry was evicted"
        );
        assert!(cache.get(&ka, &ra, &C).is_some());
        assert!(cache.get(&kc, &rc, &C).is_some());
    }

    #[test]
    fn byte_cap_counts_source_and_artifact_weight() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_bytes: Some(16),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        );
        let ra = req("aaaa"); // 4 source bytes + 4 artifact bytes
        cache.insert(key(&ra), &ra, C, "AAAA".into());
        assert_eq!(cache.counters().bytes, 8);
        let rb = req("bbbb");
        cache.insert(key(&rb), &rb, C, "BBBB".into());
        assert_eq!((cache.len(), cache.counters().bytes), (2, 16));
        // A third entry pushes past 16 weighed bytes: the oldest goes.
        let rc = req("cccc");
        cache.insert(key(&rc), &rc, C, "CCCC".into());
        assert!(cache.counters().bytes <= 16);
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(&key(&ra), &ra, &C).is_none());
    }

    #[test]
    fn an_oversized_entry_is_served_uncached_without_purging_others() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_bytes: Some(10),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        );
        // A resident entry that fits (2 source + 1 artifact = 3 bytes).
        let small = req("ok");
        cache.insert(key(&small), &small, C, "K".into());
        assert_eq!(cache.len(), 1);
        // An entry that could never fit is served but not admitted — and
        // the resident entry survives (no purge on the way to nothing).
        let r = req("way too large to ever fit");
        let shared = cache.insert(key(&r), &r, C, "artifact".into());
        assert_eq!(*shared, "artifact");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evictions, 0);
        assert!(cache.get(&key(&small), &small, &C).is_some());
    }

    #[test]
    fn clear_resets_occupancy_but_not_eviction_counters() {
        let cache = bounded(1);
        for s in ["p", "q", "r"] {
            let r = req(s);
            cache.insert(key(&r), &r, C, s.to_uppercase());
        }
        let evicted = cache.counters().evictions;
        assert_eq!(evicted, 2);
        cache.clear();
        let counters = cache.counters();
        assert_eq!((counters.entries, counters.bytes), (0, 0));
        assert_eq!(counters.evictions, evicted);
    }

    #[test]
    fn the_default_cache_with_an_entry_cap_keeps_the_newest() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_entries: Some(8),
                ..CacheConfig::default()
            },
            Box::new(|_| 0),
        );
        for k in 0..32 {
            let r = req(&format!("src{k}"));
            cache.insert(key(&r), &r, C, format!("A{k}"));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.counters().evictions, 24);
        // The 8 most recent survive.
        for k in 24..32 {
            let r = req(&format!("src{k}"));
            assert!(cache.get(&key(&r), &r, &C).is_some(), "{k}");
        }
    }

    #[test]
    fn racing_threads_keep_the_counters_exact_and_the_caps() {
        const MAX_ENTRIES: usize = 6;
        const MAX_BYTES: usize = 120;
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_entries: Some(MAX_ENTRIES),
                max_bytes: Some(MAX_BYTES),
            },
            Box::new(String::len),
        );
        let failure = Arc::new(CachedFailure {
            kinds: vec![C],
            error: ServiceError::Panic("boom".to_owned()),
        });
        // Four workers and the observer below start together.
        let start = std::sync::Barrier::new(5);
        let mut last_evictions = 0;
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (cache, failure, start) = (&cache, &failure, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500usize {
                        // 24 contents of 6 to 29 bytes, artifacts of 1 to
                        // 12 bytes: every thread touches every content.
                        let k = (i * 7 + t * 5) % 24;
                        let r = req(&format!("{k:0>width$}", width = 6 + k));
                        match i % 3 {
                            0 => drop(cache.get(&key(&r), &r, &C)),
                            1 => drop(cache.insert(key(&r), &r, C, "x".repeat(1 + k / 2))),
                            _ => cache.insert_failure(key(&r), &r, C, Arc::clone(failure)),
                        }
                    }
                });
            }
            // The eviction count never goes backwards while the workers
            // race.
            start.wait();
            for _ in 0..200 {
                let evictions = cache.counters().evictions;
                assert!(evictions >= last_evictions, "evictions went backwards");
                last_evictions = evictions;
            }
        });
        let counters = cache.counters();
        assert!(counters.evictions >= last_evictions);
        assert!(counters.evictions > 0, "the caps were exercised");
        assert_eq!(counters.entries as usize, cache.len());
        assert!(cache.len() <= MAX_ENTRIES);
        // `bytes` is exactly the weight of what is live.
        let table = cache.table();
        let recount: usize = table
            .map
            .values()
            .map(|entry| {
                entry.stored.bytes()
                    + match &entry.value {
                        Cached::Artifact(artifact) => artifact.len(),
                        Cached::Failure(_) => 0,
                    }
            })
            .sum();
        assert_eq!(counters.bytes as usize, recount);
        assert!(recount <= MAX_BYTES);
        assert_eq!(table.recency.len(), table.map.len());
    }
}
