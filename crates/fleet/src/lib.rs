//! `lkas-fleet`: a multi-tenant simulation service.
//!
//! The paper's characterization and robustness campaigns are batch
//! binaries — one process, one grid, exit. This crate turns them into
//! a long-running *service*: a daemon ([`serve`]) that accepts
//! simulation jobs over a std-only wire protocol (line-delimited JSON
//! over TCP, [`proto`]), schedules them through a bounded priority
//! [`queue`] with admission control, executes them on a [`worker`]
//! pool, memoizes results in a fingerprint-keyed [`cache`] so
//! identical `(config-hash, job-key)` submissions never re-simulate,
//! and persists each tenant's learned [`KnobStore`](lkas::KnobStore)
//! across restarts ([`store`]).
//!
//! The crate is domain-agnostic: the daemon runs anything implementing
//! [`JobRunner`]. The `lkas-bench` crate supplies the lane-keeping
//! runner plus the `fleetd`/`fleetctl` binaries; see DESIGN.md §14 for
//! the architecture.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;
pub mod worker;

pub use cache::{CacheKey, ResultsCache};
pub use client::{ClientError, FleetClient};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorKind, Event,
    FrameRead, JobState, JobStatus, Request, RequestOp, Response, StatusInfo, SubmitRequest,
    WireError, DEFAULT_MAX_LINE_BYTES, PROTO_SCHEMA,
};
pub use queue::{Admission, JobQueue};
pub use server::{serve, FleetConfig, JobContext, JobKey, JobRunner};
pub use store::{store_file_name, TenantStores};
pub use worker::WorkerPool;
