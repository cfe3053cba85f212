//! The synthesis serving layer: a multi-tenant schedule server, a
//! JSON-lines protocol, and catalog-wide scenario sweeps.
//!
//! Everything below the portfolio racer is a library; this crate turns it
//! into a *service*:
//!
//! * [`ScheduleServer`] — a bounded job queue drained by a worker thread
//!   pool (std threads; no async runtime — the deployment target is
//!   offline). Each job synthesizes a schedule for one catalog code under
//!   one error model, racing the [`asynd_portfolio::Portfolio`] engine
//!   over a shared per-tenant evaluator.
//! * [`TenantMap`] — one [`asynd_circuit::Evaluator`] per
//!   `(code, error model, shots)` tenant. Jobs of the same tenant share
//!   the memoisation cache; the tenant's evaluation-seed salt is derived
//!   from the tenant key, so cached estimates are a pure function of the
//!   schedule no matter which job or worker computed them first.
//! * [`protocol`] — the request/response wire format: v1 JSON lines,
//!   spoken over stdin/stdout ([`serve_lines`]) and TCP, and framed v2,
//!   spoken over TCP ([`serve_tcp`], `asynd serve --tcp`, which detects
//!   the protocol per connection). Both v1 transports drive one sans-IO
//!   session core, so they answer alike.
//! * [`sweep`] — the catalog-wide scenario runner behind `asynd sweep`:
//!   every registered code family × an error-rate grid, fanned out over
//!   rayon, emitting a machine-readable `BENCH_sweep.json`.
//! * Registry integration — started with
//!   [`ScheduleServer::start_with_registry`], the server consults a
//!   persistent [`asynd_registry::Registry`] before synthesis (jobs
//!   warm-start from their tenant's best stored artifact), stores
//!   winners after, and answers the `lookup` protocol op from it without
//!   spending any evaluation budget. Sweeps share the same tenant
//!   namespace via [`sweep::SweepOptions::registry`].
//!
//! # Determinism contract
//!
//! A job's result — the winning schedule (by canonical key), its estimate,
//! and the budget accounting — is a pure function of the job request and
//! its tenant key. The server guarantees **bit-identical results for any
//! worker-thread count**: per-tenant evaluation seeds are derived from
//! schedule keys (so cache racing is value-neutral, see
//! [`asynd_portfolio`]), strategy RNG streams are derived from the job
//! seed, and responses are emitted in submission order. Wall-clock and
//! cache-counter members of a response are observability data outside the
//! contract.
//!
//! # Example
//!
//! ```no_run
//! use asynd_server::{protocol, ScheduleServer, ServerConfig};
//!
//! let server = ScheduleServer::start(ServerConfig::default());
//! let request = protocol::JobRequest {
//!     id: "job-1".into(),
//!     code: protocol::CodeRef { family: "rotated-surface".into(), index: 0 },
//!     noise: protocol::NoiseSpec::Brisbane,
//!     strategy: protocol::StrategyChoice::Portfolio,
//!     budget: 128,
//!     shots: 400,
//!     seed: 7,
//!     warm_seed: None,
//! };
//! let handle = server.submit(request).unwrap();
//! println!("{}", handle.wait().to_json());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod fleet;
pub mod loadgen;
pub mod protocol;
mod queue;
pub mod reactor;
mod server;
mod session;
pub mod sweep;
mod tenants;

pub use client::{Client, ClientError, ClientOptions, WireProtocol};
pub use queue::{ShardedQueue, WakeupStats};
pub use reactor::{serve_tcp_with, ReactorOptions};
pub use server::{serve_lines, serve_tcp, JobHandle, ScheduleServer, ServerConfig};
pub use tenants::{tenant_salt, Tenant, TenantMap};

use std::fmt;

use asynd_core::SchedulerError;

/// Errors of the serving layer.
#[derive(Debug)]
pub enum ServerError {
    /// A request line or report document violated the wire format.
    Protocol {
        /// What was malformed.
        reason: String,
    },
    /// A structurally valid request the server refuses to run (unknown
    /// family, out-of-range index, oversized budget, shutting down).
    Rejected {
        /// Why the job was refused.
        reason: String,
    },
    /// Synthesis itself failed.
    Scheduler(SchedulerError),
    /// An I/O failure (socket or report file).
    Io(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            ServerError::Rejected { reason } => write!(f, "job rejected: {reason}"),
            ServerError::Scheduler(e) => write!(f, "synthesis failed: {e}"),
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Scheduler(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedulerError> for ServerError {
    fn from(e: SchedulerError) -> Self {
        ServerError::Scheduler(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// The serving layer's shared state (connection tables, worker pools,
/// metrics) stays structurally valid even if a holder panicked: every
/// mutation is a single insert/remove/increment, never a multi-step
/// invariant. Propagating poison would turn one worker's panic into a
/// reactor-wide crash, which is strictly worse for availability.
pub(crate) fn lock_unpoisoned<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// FNV-1a over a byte string (the serving layer's deterministic
/// key-to-seed derivation; decorrelated from schedule fingerprints by the
/// domain constant mixed in by callers).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
