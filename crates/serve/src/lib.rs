//! # cbsp-serve — the batching simulation-point query daemon
//!
//! The pipeline's cost profile begs for a resident process: a cold CLI
//! invocation pays process start, store open, and (on first touch)
//! full stage execution, while the artifacts themselves are
//! content-addressed and immutable — perfect to keep warm. This crate
//! serves the cross-binary pipeline from long-lived state: one
//! [`ArtifactStore`](cbsp_store::ArtifactStore) handle, one in-memory
//! trace cache, one `cbsp-trace` recorder, shared by every request.
//!
//! Built entirely on `std` networking — the workspace vendors its
//! dependencies and takes no async runtime.
//!
//! ## Wire surface
//!
//! * **NDJSON over TCP** — one JSON request per line, one response per
//!   line ([`protocol`], spec in `docs/PROTOCOL.md`). Methods:
//!   `ping`, `pipeline.run`, `simpoints.get`, `estimate.cpi`,
//!   `store.stats`, `trace.snapshot`, `server.shutdown`.
//! * **HTTP/1.1 adapter** — `GET /healthz` and `GET /metrics` on the
//!   same port, for probes and scrapers that don't speak the NDJSON
//!   protocol.
//!
//! ## Admission pipeline
//!
//! Requests pass through a bounded queue with typed backpressure
//! (`overloaded`), single-flight deduplication keyed on the store's
//! content digests (two concurrent identical queries execute once),
//! micro-batching of compatible `pipeline.run` requests into one
//! `cbsp-par` fan-out, and per-request deadlines enforced at stage
//! boundaries. A graceful drain (`server.shutdown`) finishes admitted
//! work before [`Server::wait`] returns.
//!
//! ## Example
//!
//! ```no_run
//! use cbsp_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeConfig::default()
//! })
//! .expect("server starts");
//! println!("listening on {}", server.addr());
//! server.wait().expect("clean drain"); // returns after server.shutdown
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
mod engine;
mod metrics;
pub mod protocol;
pub mod route;
mod server;

pub use engine::RESULT_CACHE_CAP;
pub use server::{ServeConfig, Server};
