//! Shared, `std`-only parts of the logmine benchmark: corpus generators,
//! the output checker, statistics, a small JSON reader/writer and the
//! harness-side span trace. Nothing here may import a `logparse_*` crate:
//! the `e2e` binary links this library and must stay decoupled from the
//! program it measures.

pub mod check;
pub mod gen;
pub mod json;
pub mod stats;
pub mod trace;
