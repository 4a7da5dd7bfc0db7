//! # hc-sched
//!
//! The bubble-free restoration scheduler (§4.1 of the paper).
//!
//! Restoring state with HCache overlaps two resource streams — hidden-state
//! transmission (IO) and KV recomputation (GPU GEMMs). Their per-layer
//! durations rarely match, so a pure-HCache pipeline has bubbles on the
//! faster stream. The scheduler removes them by managing some layers with a
//! *resource-complementary* method:
//!
//! * compute-bound platform (`C_H > IO_H`) → offload the KV cache of `L_O`
//!   layers (IO-only, fills transmission slack),
//! * IO-bound platform (`C_H ≤ IO_H`) → token-recompute `L_O` layers
//!   (compute-only, fills GPU slack).
//!
//! [`cost`] holds the one per-layer cost type ([`cost::LayerCosts`]) the
//! solver reads, with the §3.2 closed forms that price it; [`partition`]
//! implements the closed-form `L_H`/`L_O` solution of §4.1.2 plus a
//! brute-force reference. Only layer-wise partitioning is implemented: the
//! token-wise variants the paper rejects in §6.3.2 (Figure 13) are not
//! modelled. The explicit two-stream timeline (Figures 5 and 8d) is part of
//! the virtual-time simulator, `hc_simhw::pipeline`, which sits on top of
//! this crate.

pub mod cost;
pub mod partition;
