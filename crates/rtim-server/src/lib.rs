//! # rtim-server
//!
//! A long-running TCP front-end for continuous Stream Influence
//! Maximization: clients stream social actions in over a small framed
//! binary protocol and ask for the current seed set at any time, while the
//! engine keeps sliding its window — the serving workload the paper's
//! *real-time* premise implies.
//!
//! The server is deliberately `std::net`-only (no async runtime).  Its
//! front-end is a **readiness-driven event loop** ([`event_loop`]): a
//! small pool of loop threads multiplexes every connection through
//! non-blocking sockets and a hand-rolled `poll(2)` binding ([`poll`]), so
//! thousands of connections cost thousands of sockets, not thousands of
//! threads — and clients may **pipeline** correlated requests (protocol
//! v2) instead of stalling on a round trip each.
//!
//! The [`rtim_core::EngineHandle`] bounded-queue pipeline sits behind the
//! sockets: loop threads **parse and enqueue**; a single engine thread
//! owns the [`rtim_core::SimEngine`] and drains batches in arrival order,
//! which preserves the one-writer invariant that keeps interner minting
//! and pool sharding bit-identical to an offline replay of the same
//! arrival order.  A full queue parks the request and lets TCP flow
//! control stall the sender (Polynesia-style isolation of the ingest path
//! from the analytical path).
//!
//! See `docs/SERVER.md` for the full protocol specification (framing
//! layout, correlation ids and pipelining ordering guarantees, id-space
//! semantics, backpressure, the determinism invariant).
//!
//! Observability: [`ServerConfig::with_metrics`] enables a Prometheus
//! `/metrics` HTTP sidecar serving sliding-window latency percentiles,
//! queue/backpressure counters and durability gauges; see
//! `docs/METRICS.md`.
//!
//! ## Quick start
//!
//! ```
//! use rtim_core::{FrameworkKind, SimConfig};
//! use rtim_server::{RtimClient, RtimServer, ServerConfig};
//! use rtim_stream::Action;
//!
//! // Bind on an ephemeral loopback port.
//! let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Sic);
//! let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
//!
//! let mut client = RtimClient::connect(server.local_addr()).unwrap();
//! client
//!     .ingest_blocking(&[Action::root(1u64, 1u32), Action::reply(2u64, 2u32, 1u64)])
//!     .unwrap();
//! let solution = client.query().unwrap();
//! assert!(solution.value >= 2.0);
//! client.shutdown().unwrap(); // graceful drain
//! let report = server.wait();
//! assert_eq!(report.stats.actions, 2);
//! ```
//!
//! ## Pipelined ingest
//!
//! ```
//! use rtim_core::{FrameworkKind, SimConfig};
//! use rtim_server::{RtimClient, RtimServer, ServerConfig};
//! use rtim_stream::Action;
//!
//! let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Sic);
//! let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
//! let mut client = RtimClient::connect(server.local_addr()).unwrap();
//!
//! let mut pipe = client.pipelined(16); // up to 16 unacked INGESTs
//! pipe.ingest(&[Action::root(1u64, 1u32)]).unwrap();
//! pipe.ingest(&[Action::reply(2u64, 2u32, 1u64)]).unwrap();
//! assert_eq!(pipe.drain().unwrap(), 2); // collect every ACK
//! drop(pipe);
//! let report = server.shutdown();
//! assert_eq!(report.stats.actions, 2);
//! ```

// `poll.rs` is the one `unsafe` island (the ~50-line poll(2)/pipe(2) FFI
// shim, reviewed in isolation); everything else stays forbidden in
// practice via this crate-level deny.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod event_loop;
mod metrics_http;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{ClientError, IngestReply, PipelinedIngest, RtimClient};
pub use protocol::{Frame, FrameError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{RtimServer, ServerConfig, ServerReport};
