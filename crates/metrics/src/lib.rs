//! # bv-metrics — live runtime metrics for the serving stack
//!
//! `bv-telemetry` answers "what did the *simulated machine* do, epoch by
//! epoch" — deterministic, instruction-sampled, written once per run.
//! This crate answers the other operational question: "what is the
//! *service* doing right now?" A long-running `bvsim serve` daemon needs
//! queue depths, crash counters, and latency histograms that can be read
//! while sweeps are in flight, which means wall-clock sampling, atomic
//! cells shared across worker threads, and a scrape path that never
//! blocks the workers.
//!
//! * [`Registry`] — named + labeled metric families. Registration locks
//!   a map; recording through the returned handles is lock-free.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — cloneable atomic handles.
//!   Histograms reuse [`bv_telemetry::Log2Histogram`] bucketing, so the
//!   same 65-bucket shape (and the same percentile math) serves both the
//!   deterministic telemetry files and the live plane.
//! * [`Snapshot`] — a point-in-time copy with family lookups and
//!   counter-delta iteration for rate displays (`bvsim top`).
//! * [`render_exposition`] — Prometheus text exposition (0.0.4) of a
//!   snapshot, served by the daemon's `GET /metrics` endpoint.
//!
//! A [`Registry::disabled`] registry hands out inert handles so the
//! metrics-off daemon path keeps identical call sites at (measured, see
//! `BENCH.json` row `serve+metrics`) negligible cost — the crate-local
//! equivalent of `bv-sim`'s `NoInstrument` and `bv-events`'
//! `NoEventSink`.
//!
//! Like the rest of the workspace this crate is dependency-free beyond
//! its sibling crates: atomics from `std`, no background threads, no
//! global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
mod registry;

pub use expo::render_exposition;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricKey, Registry, Snapshot};
