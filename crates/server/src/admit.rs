//! Admission control: a bounded queue and the drain gate.
//!
//! The service admits a request before queueing it and releases the
//! admission when the request completes. A **count cap**
//! (`ServiceConfig::queue_cap`) bounds outstanding admitted requests
//! (queued + running): excess work is rejected with `E0801` immediately
//! instead of queueing unboundedly, and a draining service rejects with
//! `E0805`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitReject {
    /// Queue cap exceeded (`E0801`).
    Overloaded {
        /// Outstanding admitted requests at rejection time.
        queued: u64,
    },
    /// Admission is closed by a drain (`E0805`).
    Draining,
}

/// The admission gate: outstanding-work accounting plus the drain flag.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    /// Maximum outstanding admitted requests; `None` = unbounded.
    queue_cap: Option<usize>,
    /// Admitted, not yet completed requests.
    outstanding: AtomicU64,
    draining: AtomicBool,
}

impl Admission {
    pub(crate) fn new(queue_cap: Option<usize>) -> Admission {
        Admission {
            queue_cap,
            ..Admission::default()
        }
    }

    /// Tries to admit one request. On success the caller owns one
    /// admission and must [`release`](Admission::release) it.
    pub(crate) fn try_admit(&self) -> Result<(), AdmitReject> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(AdmitReject::Draining);
        }
        // Optimistically reserve, then check; over-cap reservations
        // roll back. Two racing admits can both reserve the last slot
        // and one rolls back — the cap is honored, never overshot
        // silently by more than the race window.
        let queued = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        if self.queue_cap.is_some_and(|cap| queued > cap as u64) {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
            return Err(AdmitReject::Overloaded { queued: queued - 1 });
        }
        Ok(())
    }

    /// Releases one admission obtained from [`try_admit`](Admission::try_admit).
    pub(crate) fn release(&self) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }

    /// Outstanding admitted requests.
    pub(crate) fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Closes admission (drain). Idempotent; never reopened.
    pub(crate) fn close(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether admission is closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_admission_admits_everything() {
        let a = Admission::new(None);
        for _ in 0..10_000 {
            a.try_admit().unwrap();
        }
        assert_eq!(a.outstanding(), 10_000);
    }

    #[test]
    fn queue_cap_sheds_and_release_reopens() {
        let a = Admission::new(Some(2));
        a.try_admit().unwrap();
        a.try_admit().unwrap();
        assert_eq!(a.try_admit(), Err(AdmitReject::Overloaded { queued: 2 }));
        assert_eq!(a.outstanding(), 2, "rejection rolls its reservation back");
        a.release();
        a.try_admit().unwrap();
        assert_eq!(a.outstanding(), 2);
    }

    #[test]
    fn draining_closes_admission() {
        let a = Admission::new(None);
        a.try_admit().unwrap();
        a.close();
        assert!(a.is_closed());
        assert_eq!(a.try_admit(), Err(AdmitReject::Draining));
        assert_eq!(a.outstanding(), 1, "in-flight work is unaffected");
    }
}
