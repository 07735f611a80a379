//! The repository's benchmark: four closed, run-to-completion workloads
//! measured from outside every layer, through public functions only.
//! See `README.md` beside this crate for the workloads, the metric
//! glossary and the measuring protocol.
//!
//! `unsafe` is denied crate-wide with two audited exceptions: the
//! counting allocator in [`alloc`] and the CPU-time call in [`clock`].

#![deny(unsafe_code)]

pub mod alloc;
pub mod checks;
pub mod clock;
pub mod compare;
pub mod harness;
pub mod json;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
