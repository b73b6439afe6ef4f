//! Host-clock serving benchmark for the IO-Lite reproduction.
//!
//! The benchmark drives the real serving path from outside: it builds
//! the kernel and an `EventLoopServer`, calls `tick()` in its own
//! closed loop, and times everything on the host clock. `run` is the
//! untraced end-to-end run; `trace` is the separate traced run that
//! yields per-layer figures. See `NOTES.md` beside this crate for the
//! workloads, the metric table, and the findings.

// The repository's clippy.toml bans the wall clock to keep the kernel's
// pure core deterministic; a host-clock benchmark reads it by design.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod calib;
pub mod driver;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
