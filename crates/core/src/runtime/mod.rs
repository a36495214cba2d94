//! The process-per-site socket runtime.
//!
//! The simulator answers "what would CluDistream's protocol cost on a
//! modelled network"; this module answers "does the implementation
//! actually run distributed" — real `std::net` TCP sockets, one process
//! (or thread) per site, a rendezvous handshake, heartbeats, and
//! timeout-based eviction. The synopsis bytes on the wire are identical
//! to the simulator's: the data plane reuses [`crate::protocol::Frame`]
//! unchanged inside length-prefixed frames, and only the control plane
//! ([`control::Control`], tags ≥ [`control::CONTROL_TAG_MIN`]) is new.
//!
//! - [`control`] — handshake/liveness frame codec.
//! - `link` (crate-internal) — the connection plumbing every role shares:
//!   the acceptor, per-connection reader threads feeding one event
//!   channel, and the upward link of a site or an aggregator.
//! - `liveness` (crate-internal) — the coordinator's pure round/eviction
//!   state machine.
//! - [`tcp`] — the coordinator serve loop, the site loop, and the
//!   in-process [`TcpTransport`].
//! - [`aggregator`] — the intermediate fan-in role ([`run_aggregator`]):
//!   serves a child range like the coordinator, speaks upward like a
//!   site, forwarding one pre-merged update per flush interval.
//!
//! See `docs/OPERATIONS.md` for the operator's manual (launching,
//! tuning, troubleshooting) and DESIGN.md's "Transport abstraction"
//! section for the semantics contract.

pub mod aggregator;
pub mod control;
pub(crate) mod link;
pub(crate) mod liveness;
pub mod tcp;

pub use aggregator::{run_aggregator, AggregatorReport, AggregatorRun, AggregatorRunBuilder};
pub use control::{Control, HealthAlert, RejectCode, CONTROL_TAG_MIN, PROTOCOL_VERSION};
pub use tcp::{
    run_site, serve, CoordReport, CoordinatorRun, CoordinatorRunBuilder, SiteReport, SiteRun,
    SiteRunBuilder, SocketConfig, TcpTransport,
};
