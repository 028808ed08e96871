//! Sharded, WAL-backed cluster storage (the scale-out tier of the
//! paper's update process).
//!
//! The paper's pipeline ingests 40 snapshots totalling 506.7 M rows
//! into cluster-aggregated storage (Section 2, Tables 1–2). A single
//! in-memory [`nc_core::cluster::ClusterStore`] fed by a
//! single-threaded importer does not reach that scale, so this crate
//! splits the store into N shards keyed by `hash(NCID) % N`:
//!
//! * **Parallel ingest** ([`ingest`]): one worker per shard walks the
//!   snapshot's rows and applies those that route to it (one thread
//!   does it all when there are fewer cores than shards). Each worker
//!   owns its shard exclusively — no locks and no hand-off on the hot
//!   path — and runs the two halves of
//!   [`nc_core::cluster::ClusterStore::import_row_ref`]
//!   (`decide`, `apply`) and the quarantine-mode semantics of
//!   `nc_core::tsv`, so every per-row outcome is identical to the
//!   sequential importer's.
//! * **Write-ahead logging** ([`wal`]): between the two halves each
//!   shard appends what the row will do — the row itself when it is
//!   kept, a short record of the decision when it is dropped — to an
//!   append-only log using the CRC-32 line framing of
//!   [`nc_docstore::persist`], so applying snapshot k+1 appends deltas
//!   instead of rewriting the store. Segments rotate at a size bound,
//!   a manifest records completed snapshots (the commit point), and
//!   recovery salvages the intact prefix of a torn tail with exact
//!   loss reporting.
//! * **Deterministic merged iteration** ([`store`]):
//!   [`store::ShardedStore::cluster_ids`] yields clusters in global
//!   founding order — the same order the unsharded store yields — so
//!   scoring, customize and carving stay bit-identical under any shard
//!   count (asserted by the properties in `tests/determinism.rs`).
//! * **Publish** ([`engine`]): the shards' clusters are copied out of
//!   their stores and merged by founding sequence number into the next
//!   [`nc_core::snapshot::StoreSnapshot`], ready for a serving layer
//!   (`nc-serve`'s snapshot registry) to publish.
//! * **Fault injection and rollback** ([`engine`], [`wal`]): every
//!   durability-critical syscall goes through an injected
//!   [`nc_vfs::Vfs`], so the syscall sweeps in `tests/syscall_sweep.rs`
//!   can crash the engine at *every* write/fsync/rename index and
//!   assert recovery lands on a committed state. Mid-ingest write
//!   failures roll the engine back to the last manifest commit with a
//!   typed [`engine::RecoveryReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub(crate) mod ingest;
pub mod store;
pub mod wal;

pub use engine::{RecoveryReport, ShardEngine, ShardEngineConfig};
pub use store::{shard_of, ShardedDocId, ShardedStore};
pub use wal::{
    shard_log_dir, tail_group, ManifestState, ShardManifest, TailCursor, TailGroup, WalRecovery,
};
