//! # sav-store — durable binding store (WAL + snapshots + crash recovery)
//!
//! The paper's central claim is that the controller's global binding table
//! replaces manually maintained ingress ACLs. That makes the table *the*
//! security state of the network — and an in-memory table means every
//! controller restart silently unfilters every edge port until DHCP churn
//! rebuilds it. This crate closes that gap with a hand-rolled, dependency-
//! free durable log:
//!
//! * [`WalOp`] / [`BindingRecord`] — the logical mutations (`upsert`,
//!   `remove`, `expire`, `migrate`) and their compact little-endian codec.
//! * [`wal`] — length-prefixed, CRC32-checksummed frames; recovery truncates
//!   at the first torn or corrupt frame, so a crash mid-append costs at most
//!   the uncommitted record.
//! * [`snapshot`] — periodic compaction into an atomic-rename snapshot so
//!   the log never grows without bound.
//! * [`BindingStore`] — the façade: `open` runs recovery (snapshot + WAL
//!   tail replay) and reports what it found; `append` writes each binding
//!   mutation and a [`WalCommit`] handle group-commits everything staged
//!   with one fsync (policy configurable); compaction triggers
//!   automatically on size thresholds.
//!
//! Everything is `std`-only: the CRC table, the framing, and the atomic
//! snapshot dance are implemented here rather than pulled from crates.io,
//! matching the workspace's zero-heavyweight-deps rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use crc32::crc32;
pub use record::{BindingRecord, RecordSource, WalOp};
pub use store::{apply, BindingStore, FsyncPolicy, RecoveryReport, StoreConfig, WalCommit, WalTap};
pub use wal::{read_from, scan_bytes, TailError, WalScan, WalTail};
