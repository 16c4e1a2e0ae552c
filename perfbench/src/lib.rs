//! The repository benchmark: seeded workloads driven through the
//! public APIs of `rsm-core`, `rsm-runtime` and `rsm-serve`, with
//! bench-side wrappers that time every layer from outside in the traced
//! run. `README.md` in this directory lists the workloads and metrics.

pub mod machine;
pub mod problems;
pub mod source;
pub mod stats;
pub mod trace;
pub mod transport;
