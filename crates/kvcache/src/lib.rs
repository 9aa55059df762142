//! # bv-kvcache — a software-managed compressed key-value cache tier
//!
//! The paper's Base-Victim architecture is a hardware answer to a
//! question that exists at every level of the memory hierarchy: *how do
//! you spend compression's space savings without letting compression
//! change your replacement decisions for the worse?* This crate carries
//! the answer up the stack to a server-style software cache tier (the
//! memcached / ZipCache setting): variable-sized values, a byte budget
//! instead of sets and ways, and `GET`/`PUT` request traffic instead of
//! a memory trace.
//!
//! Three organizations share one slab-backed [`LruMap`]:
//!
//! * [`UncompressedKv`] — the baseline: plain LRU charged at logical
//!   bytes.
//! * [`CompressedKv`] — naive always-compress: LRU charged at
//!   BDI-compressed bytes. Holds more, but its decisions diverge from
//!   the baseline, so adversarial mixtures can make it *lose* — the
//!   software analogue of the two-tag pollution problem.
//! * [`BaseVictimKv`] — decisions charged at logical bytes (an exact
//!   mirror of the uncompressed tier), values stored compressed, and
//!   the slack runs an opportunistic victim area. Structurally
//!   guaranteed to never hit less than the uncompressed tier.
//!
//! The guarantee is not just argued — [`lockstep`] replays a
//! [`BaseVictimKv`] and an [`UncompressedKv`] side by side and compares
//! the full recency-ordered baseline key list after **every** request,
//! pinpointing the first divergence if one ever appears.
//!
//! Values are never materialized: [`compress_value`] synthesizes each
//! 64-byte chunk from the key under the profile's
//! [`DataProfile`](bv_trace::DataProfile) mixture and runs the real BDI
//! kernel over it, so compression ratios are honest kernel output.
//! Tiers fetch a value on every miss and put, but a key's size is pure
//! in the key, so [`run_kv`] and [`run_lockstep`] answer those fetches
//! from a per-replay table: the kernel runs at most once per distinct
//! key per replay.
//! Request traffic comes from
//! [`bv_trace::request`] (Zipfian popularity,
//! diurnal phases, multi-client interleave); [`run_kv`] replays it, and
//! the sampled/traced variants feed the standard `bvsim-telemetry-v1`
//! and `bvsim-events-v1` sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lockstep;
mod lru;
mod org;
mod sim;
mod value;

pub use lockstep::{run_lockstep, KvDivergence, LockstepConfig, LockstepReport};
pub use lru::LruMap;
pub use org::{
    BaseVictimKv, CompressedKv, KvCache, KvCacheWith, KvOccupancy, KvOrgKind, KvOutcome, KvStats,
    UncompressedKv, KV_EVENT_BUCKETS,
};
pub use sim::{
    run_kv, run_kv_sampled, run_kv_traced, KvConfig, KvRunResult, KvTelemetry,
    DEFAULT_EPOCH_REQUESTS,
};
pub use value::{compress_value, ValueMeta};
