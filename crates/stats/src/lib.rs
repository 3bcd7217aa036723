//! Statistical utilities shared by every `densemem` subsystem.
//!
//! This crate keeps the rest of the workspace dependency-light: it provides
//! deterministic RNG plumbing, the handful of continuous/discrete
//! distributions the physical models need (implemented locally rather than
//! pulling in `rand_distr`), histogram and summary-statistics types, the
//! plain-text table/series renderers used by the experiment harnesses, and
//! the one JSON reader/writer every report, trace and frame goes through.
//!
//! # Examples
//!
//! ```
//! use densemem_stats::{rng::seeded, dist::LogNormal, summary::Summary};
//!
//! let mut rng = seeded(42);
//! let retention = LogNormal::from_median_sigma(10.0, 0.8);
//! let samples: Vec<f64> = (0..1000).map(|_| retention.sample(&mut rng)).collect();
//! let s = Summary::from_iter(samples.iter().copied());
//! assert!(s.mean() > 0.0);
//! ```

pub mod dist;
pub mod hash;
pub mod hist;
pub mod json;
pub mod kernels;
pub mod par;
#[cfg(unix)]
pub mod readiness;
pub mod ring;
pub mod rng;
pub mod series;
pub mod summary;
pub mod table;

pub use dist::{Bernoulli, Exponential, LogNormal, Normal, Poisson};
pub use hash::{fnv1a64, Fnv1a};
pub use hist::{Histogram, LogHistogram};
pub use kernels::{apply_stuck, count_flips, for_each_flip, set_bits};
pub use par::{par_map, par_map_seeded, ParConfig, Stopwatch, WorkerPool};
pub use ring::HashRing;
pub use rng::{seeded, substream};
pub use series::Series;
pub use summary::Summary;
pub use table::{Cell, Table};
