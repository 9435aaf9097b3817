//! Concurrency tests of the identifier interner: idempotence
//! under racing interns of overlapping name sets, and the regression
//! guarantee that the lock-free `as_str` read path cannot block behind
//! (or deadlock against) concurrent interning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use velus_common::Ident;

/// N threads intern overlapping name sets simultaneously; every thread
/// must observe the same `Ident` for the same name (idempotence under
/// racing inserts), and every ident must round-trip through `as_str`.
#[test]
fn racing_interns_of_overlapping_sets_agree() {
    const THREADS: usize = 8;
    const NAMES: usize = 600;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Each thread walks the shared name set from a different
                // offset so the racing inserts collide on fresh names.
                (0..NAMES)
                    .map(|k| {
                        let name = format!("stress_{}", (k + t * 97) % NAMES);
                        (name.clone(), Ident::new(&name))
                    })
                    .collect::<Vec<(String, Ident)>>()
            })
        })
        .collect();

    let mut seen: HashMap<String, Ident> = HashMap::new();
    for handle in handles {
        for (name, id) in handle.join().expect("stress thread") {
            assert_eq!(id.as_str(), name, "round-trip failed");
            match seen.get(&name) {
                Some(prev) => assert_eq!(*prev, id, "interning of {name} not idempotent"),
                None => {
                    seen.insert(name, id);
                }
            }
        }
    }
    assert_eq!(seen.len(), NAMES);
}

/// `as_str` must make progress while another thread continuously
/// interns fresh names. The read path is lock-free, so the readers
/// finish even though the writer holds the intern lock essentially all
/// the time.
#[test]
fn as_str_is_not_blocked_by_concurrent_interning() {
    const READERS: usize = 4;
    let idents: Vec<Ident> = (0..64).map(|k| Ident::new(&format!("warm_{k}"))).collect();
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: intern fresh names as fast as possible for the whole test.
    let writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                Ident::new(&format!("churn_{k}"));
                k += 1;
            }
            k
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let idents = idents.clone();
            thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_millis(200);
                let mut reads = 0u64;
                while Instant::now() < deadline {
                    for (k, id) in idents.iter().enumerate() {
                        assert_eq!(id.as_str(), format!("warm_{k}"));
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    for reader in readers {
        let reads = reader.join().expect("reader thread finishes: no deadlock");
        assert!(reads > 0);
    }
    stop.store(true, Ordering::Relaxed);
    let interned = writer.join().expect("writer thread");
    assert!(interned > 0, "the writer must actually have been interning");
}
