//! `densemem-testkit`: the conformance harness behind the repo's
//! tier-1 gate.
//!
//! Three pillars, each a module:
//!
//! * [`golden`] — golden-report snapshots. Every experiment's
//!   `--quick`-scale JSON report is checked in under `tests/golden/`;
//!   a normalizing comparator (volatile run metadata stripped, artifact
//!   paths reduced to basenames) diffs reports field by field and
//!   `UPDATE_GOLDEN=1` regenerates them. The `golden-diff` binary gives
//!   `tools/check.sh` the same comparator.
//! * [`oracle`] — differential oracles. Analytic and Monte Carlo
//!   implementations of the same physics (flash BER, DRAM retention,
//!   SECDED capability vs codec) run at matched parameters and must
//!   agree within declared tolerances.
//! * [`fault`] — deterministic fault injection. A seeded [`fault::FaultPlan`]
//!   plans bit flips, flash upsets, trace mutations, and observer-chain
//!   perturbations; the injection hooks live in the production crates
//!   behind `cfg(any(test, feature = "fault-inject"))`.
//!
//! Reports are read with `densemem_stats::json`, the workspace's one
//! strict JSON reader — the external consumer's view of an artifact.
//! [`servefault`] adds transport-level damage (truncated frames, mid-job
//! disconnects, flipped cache bytes) for exercising the serving daemon's
//! degradation paths.
//!
//! The crate is a dev-dependency of the workspace root; depending on it
//! turns on the `fault-inject` features of `densemem-dram`,
//! `densemem-ctrl`, and `densemem-flash` via feature unification, which
//! is how the root `tests/conformance_*.rs` suites reach the gated
//! hooks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod golden;
pub mod oracle;
pub mod servefault;
