//! `tlbbench` — the repository benchmark for the MIX TLB translation
//! simulator.
//!
//! One binary generates a workload from a seed, replays it
//! single-threaded through every design it names, checks every physical
//! address against the page table, and prints end-to-end metrics; a
//! traced run (`--trace 1`) wraps every TLB level in a timing device and
//! prints per-layer metrics instead. See `README.md` next to this crate
//! for the workloads, the metrics and how each layer metric maps onto an
//! end-to-end one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod timed;
pub mod workloads;
