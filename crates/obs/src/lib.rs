//! The observability substrate of the Vélus serving stack.
//!
//! Three building blocks, usable by any crate in the workspace, that
//! depend only on `std` and the leaf crate `velus-common` (for the
//! shared JSON string escaper):
//!
//! * [`hist`] — **mergeable log-linear histograms**: exact counts over
//!   the full run, bounded memory, lock-free recording from any number
//!   of threads into one [`hist::AtomicHistogram`], percentiles
//!   (p50…p999) within a ~3% relative error.
//! * [`trace`] — **structured tracing**: per-request trace IDs, an
//!   enter/exit span model with parent links recorded into bounded
//!   per-worker ring buffers, a thread-local request scope so deep
//!   layers record spans without any API threading, a **flight
//!   recorder** retaining the complete span trees of the slowest (and
//!   over-threshold) requests, and Chrome trace-event JSON emission
//!   (loadable in Perfetto / `chrome://tracing`).
//! * [`prom`] — **Prometheus text exposition**: a hand-rolled writer
//!   for counters/gauges/summaries plus a minimal format checker used
//!   by CI to gate emitted metrics dumps.
//!
//! The serving layer (`velus-server`) builds its statistics on [`hist`]
//! and opens a [`trace::RequestScope`] per request; the pass framework
//! (`velus` core) records one span per pipeline pass through the
//! thread-local scope. When no scope is active every tracing call is a
//! single thread-local read — cheap enough to leave compiled in.

#![warn(missing_docs)]

pub mod hist;
pub mod prom;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram};
pub use prom::PromWriter;
pub use trace::{FlightRecord, Recorder, RecorderConfig, TraceData, TraceEvent};
