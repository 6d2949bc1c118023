//! `gpa-serve` — the advisor as a long-lived service.
//!
//! The paper's workflow is iterative: profile → blame → advise → edit →
//! re-profile. Run through a CLI, every iteration rebuilds the same
//! modules, CFGs and program structures from scratch. This crate keeps
//! one [`Session`] alive behind a TCP daemon speaking a newline-delimited
//! JSON protocol, so those artifacts are computed once and every repeat
//! request is answered from a content-addressed report store.
//!
//! ```no_run
//! use gpa_pipeline::Session;
//! use gpa_serve::{serve, ServeClient, ServerConfig};
//! use std::sync::Arc;
//!
//! let handle = serve(Arc::new(Session::full()), ServerConfig::ephemeral())?;
//! let mut client = ServeClient::connect(handle.local_addr())?;
//! let response = client.analyze("rodinia/hotspot", 0)?;
//! assert!(response.ok);
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The daemon drives every connection from a few nonblocking epoll
//! reactor threads (per-connection state machines — see
//! `docs/serving.md`), and with `--peers` several daemons shard the report store over a
//! consistent-hash [`Ring`], forwarding requests to their owning shard
//! and replicating each computed body to its key's next ring member.
//!
//! The wire protocol (ops, schemas, error shapes) is documented in
//! `docs/protocol.md`.
//!
//! [`Session`]: gpa_pipeline::Session

pub mod client;
mod cluster;
mod conn;
mod dispatch;
mod event_loop;
pub mod faults;
pub mod metrics;
mod peer;
pub mod protocol;
pub mod reactor;
pub mod ring;
pub mod server;
mod status;
pub mod store;

pub use client::{Response, ServeClient};
pub use faults::{FaultAction, FaultPlan, PeerOp};
pub use metrics::{Metrics, ReactorStats};
pub use protocol::{
    Op, PeerMeta, Request, WireOptions, DEFAULT_ADDR, DEFAULT_SCHEMA, MAX_REPEAT, SCHEMA_VERSIONS,
};
pub use ring::{Ring, Roster};
pub use server::{serve, serve_on, ServerConfig, ServerHandle, MAX_REACTORS};
pub use store::{ReportStore, StoreStats};
