//! # hc-restore
//!
//! Functional state restoration (§3, §4): saving a session's state through
//! the `hc-storage` manager and rebuilding its `KvCache` with real math,
//! for any layer-wise partition scheme (hidden / KV-offload / recompute
//! layers), in two layers:
//!
//! * [`engine`] — the **functional** layer: the one save path, the
//!   sequential reference restore and the per-layer restore steps. This is
//!   where the correctness claims are tested end to end.
//! * [`reactor`] — the **executor**: one restore state machine per session
//!   and one event-driven driver that advances one or thousands of them on
//!   the calling thread plus a fixed pool of compute workers, all IO
//!   flowing through the storage manager's per-device reactor queues —
//!   in-flight restores bounded by memory and iodepth, not threads.
//!
//! The timed, virtual-time estimates of every restoration method the paper
//! compares (the evaluation figures) live in the simulator crate,
//! `hc_simhw::sim`, which sits on top of this one.

pub mod engine;
pub mod reactor;
