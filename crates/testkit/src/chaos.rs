//! Deterministic fault injection for the compilation service: a
//! [`ChaosCompiler`] wraps any [`Compiler`] and injects seeded panics and
//! delays, keyed on the request *content* so a given `(seed, source)`
//! pair always misbehaves the same way.
//!
//! The fault classes map onto the serving layer's fault-tolerance
//! mechanisms, so the chaos bench (`velus-bench --bin chaos`) can drive
//! each of them on purpose:
//!
//! * **sticky panics** — the same input panics on every compile,
//!   exercising per-request containment and the failure cache;
//! * **delays** — a fixed sleep in ~1 ms slices that watches the
//!   request's [`CancelToken`], exercising deadlines and drain
//!   cancellation inside "compilation".
//!
//! The wrapper also counts how often each failing input reaches the
//! compiler ([`ChaosStats::repeat_failures`]): the service caches
//! failures, so a failing input must compile at most once per content.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use velus_common::codes;
use velus_server::{
    ArtifactKind, CacheKey, CancelToken, CompileOutput, CompileRequest, Compiler, FailureReport,
};

/// Fault rates (per mille of requests) and shapes. Rates are applied in
/// order — panic, delay — over one deterministic roll per input, so
/// `panic_per_mille + delay_per_mille` must stay ≤ 1000 (the remainder
/// compiles cleanly).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed mixed into every per-input roll: different seeds assign
    /// faults to different inputs.
    pub seed: u64,
    /// Fraction of inputs (per mille) that panic on every compile.
    pub panic_per_mille: u32,
    /// Fraction of inputs (per mille) delayed before compiling.
    pub delay_per_mille: u32,
    /// How long a delayed input sleeps before compiling.
    pub delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            panic_per_mille: 20,
            delay_per_mille: 100,
            delay: Duration::from_millis(5),
        }
    }
}

/// What the injector did so far (all counters monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Panics injected (one per compile of a panic-class input).
    pub injected_panics: u64,
    /// Delays injected (one per compile of a delay-class input).
    pub injected_delays: u64,
    /// Distinct `(content, kind)` keys whose compile failed or panicked.
    pub failing_inputs: u64,
    /// Compiles of a `(content, kind)` key that had already failed or
    /// panicked before: 0 while the service's failure cache holds.
    /// Cancellations (`E0802`/`E0805`) are not failures of the input and
    /// are not counted.
    pub repeat_failures: u64,
}

/// FNV-1a over the request source, mixed with the seed — the same
/// content always rolls the same fault for a given seed, regardless of
/// the request's name.
fn content_digest(source: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in source.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// xorshift64* finalizer: decorrelates the digest bits before the roll.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Panic,
    Delay,
    None,
}

/// A [`Compiler`] decorator injecting deterministic, seeded faults.
/// Everything else — artifacts, failure reports — delegates to the
/// wrapped compiler.
pub struct ChaosCompiler<C> {
    inner: C,
    config: ChaosConfig,
    /// Every `(content, kind)` key whose compile failed or panicked.
    failed: Mutex<HashSet<CacheKey>>,
    injected_panics: AtomicU64,
    injected_delays: AtomicU64,
    repeat_failures: AtomicU64,
}

impl<C> ChaosCompiler<C> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: C, config: ChaosConfig) -> ChaosCompiler<C> {
        assert!(
            config.panic_per_mille + config.delay_per_mille <= 1000,
            "fault rates exceed 100%"
        );
        ChaosCompiler {
            inner,
            config,
            failed: Mutex::new(HashSet::new()),
            injected_panics: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            repeat_failures: AtomicU64::new(0),
        }
    }

    /// The injection counters so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        ChaosStats {
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            failing_inputs: self.failed.lock().expect("chaos lock").len() as u64,
            repeat_failures: self.repeat_failures.load(Ordering::Relaxed),
        }
    }

    fn fault_for(&self, digest: u64) -> Fault {
        let roll = (mix(digest) % 1000) as u32;
        if roll < self.config.panic_per_mille {
            Fault::Panic
        } else if roll < self.config.panic_per_mille + self.config.delay_per_mille {
            Fault::Delay
        } else {
            Fault::None
        }
    }

    /// Records a failed (or panicking) compile of `req` for `kinds`,
    /// counting the keys that had failed before.
    fn record_failure(&self, req: &CompileRequest, kinds: &[ArtifactKind]) {
        let mut failed = self.failed.lock().expect("chaos lock");
        for kind in kinds {
            if !failed.insert(CacheKey::of_request(req, kind)) {
                self.repeat_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<C: Compiler> Compiler for ChaosCompiler<C> {
    type Artifact = C::Artifact;

    fn compile(
        &self,
        req: &CompileRequest,
        kinds: &[ArtifactKind],
        cancel: &CancelToken,
    ) -> Result<CompileOutput<C::Artifact>, FailureReport> {
        match self.fault_for(content_digest(&req.source, self.config.seed)) {
            Fault::Panic => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                self.record_failure(req, kinds);
                panic!("chaos: injected panic");
            }
            Fault::Delay => {
                self.injected_delays.fetch_add(1, Ordering::Relaxed);
                // Sleep in short slices, watching the token like a
                // cooperative pipeline would; once cancelled, stop
                // sleeping and let the inner compiler's own pass-boundary
                // check surface the coded condition.
                let mut left = self.config.delay;
                while !left.is_zero() && cancel.state().is_none() {
                    let slice = left.min(Duration::from_millis(1));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
            }
            Fault::None => {}
        }
        let out = self.inner.compile(req, kinds, cancel);
        if let Err(report) = &out {
            let cancelled = report
                .codes()
                .iter()
                .any(|c| *c == codes::E0802.id || *c == codes::E0805.id);
            if !cancelled {
                self.record_failure(req, kinds);
            }
        }
        out
    }

    fn artifact_bytes(artifact: &C::Artifact) -> usize {
        C::artifact_bytes(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uppercases the source; fails on sources starting with `bad`.
    struct Upper;

    impl Compiler for Upper {
        type Artifact = String;

        fn compile(
            &self,
            req: &CompileRequest,
            kinds: &[ArtifactKind],
            _cancel: &CancelToken,
        ) -> Result<CompileOutput<String>, FailureReport> {
            if req.source.starts_with("bad") {
                return Err(FailureReport::from_message("bad source".to_owned()));
            }
            Ok(CompileOutput::new(
                kinds
                    .iter()
                    .map(|k| (*k, req.source.to_uppercase()))
                    .collect(),
                Vec::new(),
            ))
        }
    }

    fn first_source_with(chaos: &ChaosCompiler<Upper>, fault: Fault) -> String {
        (0..100_000)
            .map(|i| format!("src-{i}"))
            .find(|s| chaos.fault_for(content_digest(s, chaos.config.seed)) == fault)
            .expect("fault class must be reachable at these rates")
    }

    fn compile(chaos: &ChaosCompiler<Upper>, source: &str) -> Result<String, FailureReport> {
        chaos
            .compile(
                &CompileRequest::new("r", source),
                &[ArtifactKind::CCode],
                &CancelToken::unbounded(),
            )
            .map(|out| out.artifacts[0].1.clone())
    }

    #[test]
    fn faults_are_deterministic_per_seed_and_content() {
        let a = ChaosCompiler::new(Upper, ChaosConfig::default());
        let b = ChaosCompiler::new(Upper, ChaosConfig::default());
        for i in 0..200 {
            let s = format!("prog {i}");
            assert_eq!(
                a.fault_for(content_digest(&s, 0)),
                b.fault_for(content_digest(&s, 0))
            );
        }
        // A different seed shuffles the assignment (at these rates some
        // input must differ within 200 tries).
        let c = ChaosCompiler::new(
            Upper,
            ChaosConfig {
                seed: 1,
                ..ChaosConfig::default()
            },
        );
        assert!(
            (0..200).any(|i| {
                let s = format!("prog {i}");
                a.fault_for(content_digest(&s, 0)) != c.fault_for(content_digest(&s, 1))
            }),
            "seed must influence fault assignment"
        );
    }

    #[test]
    fn panic_faults_are_sticky_and_repeats_are_counted() {
        let chaos = ChaosCompiler::new(Upper, ChaosConfig::default());
        let src = first_source_with(&chaos, Fault::Panic);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = compile(&chaos, &src);
            }));
            assert!(caught.is_err(), "panic-class inputs panic on every compile");
        }
        let stats = chaos.chaos_stats();
        assert_eq!(
            (
                stats.injected_panics,
                stats.failing_inputs,
                stats.repeat_failures
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn inner_failures_count_but_cancellations_do_not() {
        let chaos = ChaosCompiler::new(
            Upper,
            ChaosConfig {
                panic_per_mille: 0,
                delay_per_mille: 0,
                ..ChaosConfig::default()
            },
        );
        assert!(compile(&chaos, "bad one").is_err());
        assert!(compile(&chaos, "bad two").is_err());
        assert_eq!(chaos.chaos_stats().repeat_failures, 0);
        assert!(compile(&chaos, "bad one").is_err());
        let stats = chaos.chaos_stats();
        assert_eq!((stats.failing_inputs, stats.repeat_failures), (2, 1));
    }

    #[test]
    fn delays_abort_early_when_the_token_fires() {
        let chaos = ChaosCompiler::new(
            Upper,
            ChaosConfig {
                delay: Duration::from_secs(60),
                ..ChaosConfig::default()
            },
        );
        let src = first_source_with(&chaos, Fault::Delay);
        let req = CompileRequest::new("d", src);
        let token = CancelToken::unbounded();
        token.cancel();
        let started = std::time::Instant::now();
        // The 60 s delay collapses because the token is already fired;
        // the inner compiler (which ignores the token) then succeeds.
        let out = chaos.compile(&req, &[ArtifactKind::CCode], &token);
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(out.is_ok());
        assert_eq!(chaos.chaos_stats().injected_delays, 1);
    }

    #[test]
    fn clean_inputs_pass_through_untouched() {
        let chaos = ChaosCompiler::new(Upper, ChaosConfig::default());
        let src = first_source_with(&chaos, Fault::None);
        assert_eq!(compile(&chaos, &src).unwrap(), src.to_uppercase());
        assert_eq!(chaos.chaos_stats(), ChaosStats::default());
    }
}
