//! `densemem-serve`: a long-running experiment service.
//!
//! The batch harness (`exp`, `run_all_experiments`) re-derives every
//! report from scratch each invocation. This crate turns the suite into
//! a daemon: jobs arrive over a newline-delimited JSON protocol
//! ([`proto`]), are scheduled on a priority [worker pool]
//! (densemem_stats::par::WorkerPool), and are answered from a two-tier
//! content-addressed cache ([`cache`]) keyed by everything a report is a
//! function of — experiment id, scale, seed, the model-calibration
//! fingerprint, and the crate version
//! ([`densemem::experiments::registry::cache_key`]). The determinism
//! contract (bit-identical results for any thread count) is what makes
//! caching sound: a warm answer *is* the recomputed answer.
//!
//! Layers, transport-independent first:
//!
//! * [`proto`] — frame grammar, verbs and typed error codes; frames
//!   are read and written with [`densemem_stats::json`].
//! * [`cache`] — in-memory LRU of rendered result-frame tails over
//!   hash-verified on-disk entries; corruption is detected, deleted, and
//!   recomputed, never served.
//! * [`engine`] — job lifecycle with a bounded job table, single-flight
//!   dedup of identical in-flight requests, per-verb counters and
//!   latency histograms, and fleet routing: in sharded mode a
//!   consistent-hash ring ([`densemem_stats::ring::HashRing`]) over the
//!   cache key decides which shard owns a computation, non-owned keys
//!   are forwarded one hop to the owner (peer cache-fill), and an
//!   unreachable owner degrades to a local compute — never a client
//!   error.
//! * [`server`] / [`client`] — the TCP transport (a `poll(2)` readiness
//!   event loop holding every connection in one thread) and its
//!   counterpart (tolerant dialing: connect timeout plus one bounded
//!   retry).
//!
//! The `serve` binary wires these together; `tools/check.sh` smoke-tests
//! the daemon end-to-end against the golden snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod fleet;
pub mod proto;
pub mod server;

pub use cache::{DiskRead, DiskStore, MemLru};
pub use client::{ConnectOpts, TcpClient};
pub use engine::{
    CacheTier, Engine, EngineConfig, FleetConfig, Step, TransportGauges, JOB_RETENTION,
};
pub use fleet::LocalFleet;
pub use proto::{ErrorCode, ProtoError, Request, ScaleArg, Verb, PROTO_VERSION};
pub use server::Server;
