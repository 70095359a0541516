//! # rp-sim — deterministic discrete-event simulation core
//!
//! The substrate every other crate in this workspace builds on:
//!
//! * [`engine::Engine`] — an event loop over virtual time. Events are
//!   `FnOnce(&mut Engine)` closures; ties are broken by schedule order, so
//!   a run is bit-reproducible given the same seed.
//! * [`time::SimTime`] / [`time::SimDuration`] — integer-microsecond
//!   virtual time.
//! * [`link::FairLink`] — a max–min fair-shared bandwidth resource used to
//!   model Lustre, local disks, NICs and the cluster fabric.
//! * [`rng::SimRng`] — seeded randomness with the handful of distributions
//!   latency models need.
//! * [`fault::FaultPlan`] / [`fault::FaultInjector`] — deterministic fault
//!   schedules (crashes, slowdowns, kills, link degradation, staging
//!   errors) driven through the engine.
//! * [`trace::Trace`] (instant events + duration spans), the
//!   [`metrics::MetricsRegistry`], the [`profile`] phase profiler and
//!   [`report::RunReport`] — the observability layer used by tests,
//!   examples and the experiment harness. Disabled observability costs
//!   nothing: recording is a pure no-op, so runs are bit-identical with
//!   it on or off.
//!
//! Components live in `Rc<RefCell<_>>` handles captured by event closures;
//! all model *state* stays on one thread (determinism). Threads enter only
//! through [`par`], whose data-parallel kernels (RDD partitions, K-Means
//! assignment) return results in input order.

pub mod critpath;
pub mod engine;
pub mod fault;
pub mod intern;
pub mod json;
pub mod link;
pub mod metrics;
pub mod par;
pub mod profile;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use critpath::{critical_path, critical_path_run, CritPhaseRow, CriticalPath, PathSegment};
pub use engine::{Engine, EventId};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use intern::{Symbol, SymbolTable};
pub use link::{FairLink, FlowId};
pub use metrics::{metric_key, MetricsRegistry, MetricsSnapshot};
pub use profile::{
    aggregate_roots, mean_breakdown, pilot_utilization, profile_roots, profile_span, Phase,
    PhaseBreakdown, Profiler,
};
pub use report::RunReport;
pub use rng::SimRng;
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{
    escape_json, validate_chrome_json, validate_chrome_reader, ChromeTraceStats, Message, OpenSpan,
    Span, SpanId, SpanIndex, Trace, TraceEvent,
};

/// Convenience: megabytes → bytes (storage models are specified in MB/s).
pub const MB: f64 = 1024.0 * 1024.0;
/// Convenience: gigabytes → bytes.
pub const GB: f64 = 1024.0 * MB;
