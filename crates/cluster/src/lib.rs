//! # cbsp-cluster — sharded multi-worker serving
//!
//! One `cbsp-serve` daemon is bounded by one process's caches: its
//! result cache, trace cache, and admission queue are all
//! per-process. This crate scales the daemon *horizontally* without
//! changing a byte of the protocol: a lightweight **router** owns a
//! fleet of ordinary `cbsp-serve` workers — each with its own
//! artifact-store shard and caches — and proxies NDJSON frames to
//! them unmodified.
//!
//! ## Routing
//!
//! Every digest-keyed request resolves (via [`cbsp_serve::route`]) to
//! its map-stage content digest — the same digest the daemon's own
//! single-flight deduplication and result cache key on. The router
//! places that digest with rendezvous hashing over the
//! [`ShardMap`], so all requests about one
//! `(benchmark, scale, interval)` triple land on the same shard and
//! each shard's request stream is indistinguishable from a
//! single-process run. Responses are relayed byte-for-byte; the
//! integration tests assert a 1-, 2-, and 4-worker cluster answer
//! identically to one daemon.
//!
//! ## Resilience
//!
//! A health loop probes every worker's `GET /healthz`; after a
//! configurable run of consecutive failures the worker is marked
//! unhealthy and — when the router spawned it — restarted with
//! bounded exponential backoff, reusing its warm store directory. An
//! in-flight request that hits a dead or draining worker fails over
//! down the digest's rendezvous preference order; an `overloaded`
//! worker is retried once after honoring its `retry_after_ms` hint.
//! The shard map is versioned and persisted in the router's store, so
//! topology survives restarts and external tools can audit it.
//!
//! ## Metrics
//!
//! The router counts into one [`cbsp_trace::Recorder`] of its own:
//! per-worker routed, retry, failover and restart counts, and
//! fleet-only request, unavailable, health-check and error counts.
//! `GET /metrics` reports each per-worker count in its shard's section
//! and their sum in the `cluster` section, so the two always agree.
//!
//! ## Example
//!
//! ```no_run
//! use cbsp_cluster::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::start(ClusterConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     workers: 2,
//!     ..ClusterConfig::default()
//! })
//! .expect("cluster starts");
//! println!("routing on {}", cluster.addr());
//! cluster.shutdown();
//! cluster.wait().expect("clean drain");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod router;
pub mod shard_map;
mod worker;

pub use router::{Cluster, ClusterConfig};
pub use shard_map::{ShardEntry, ShardMap, ShardMapError, SHARD_MAP_SCHEMA};
