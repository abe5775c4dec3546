//! # rtim-submodular
//!
//! Monotone submodular maximization building blocks for Stream Influence
//! Maximization:
//!
//! * [`weights`] — element-weight functions turning coverage into the
//!   monotone submodular influence functions of the paper (`f(I(·))`):
//!   plain cardinality ([`UnitWeight`]) and weighted coverage
//!   ([`MapWeight`], used e.g. by conformity-aware SIM, Appendix A).
//! * [`coverage`] — incremental weighted-coverage state (`f(S)`, marginal
//!   gains) shared by all algorithms.
//! * [`greedy`] — the classic greedy of Nemhauser et al. (1 − 1/e), its lazy
//!   (CELF) variant, and a brute-force optimum for small test instances.
//! * [`oracle`] — the [`SsoOracle`] trait: streaming submodular optimization
//!   over an append-only set-stream, the abstraction a checkpoint wraps.
//! * [`sieve`] — **SieveStreaming** (Badanidiyuru et al. 2014), `1/2 − β`.
//! * [`threshold_stream`] — **ThresholdStream** (Kumar et al. 2015), `1/2 − β`.
//! * [`swap`] — swap-based streaming max-k-coverage (Saha & Getoor 2009 /
//!   Ausiello et al. 2012), `1/4`.
//!
//! These oracles implement the set-stream model of §4.2: elements arrive one
//! by one, each element is a *set of covered users* keyed by the candidate
//! seed user, and the same key may re-arrive later with a grown set (which
//! is how the Set-Stream Mapping feeds updated influence sets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod greedy;
mod grid;
pub mod oracle;
pub mod sieve;
mod singles;
pub mod state;
pub mod swap;
pub mod threshold_stream;
pub mod weights;

pub use coverage::{reference::HashCoverageState, CoverageState};
pub use greedy::{brute_force_best, greedy_max_coverage, lazy_greedy_max_coverage, GreedyResult};
pub use oracle::{OracleConfig, OracleCounters, OracleKind, SsoOracle};
pub use sieve::SieveStreaming;
pub use state::OracleState;
pub use swap::SwapStreaming;
pub use threshold_stream::ThresholdStream;
pub use weights::{DenseWeights, ElementWeight, MapWeight, UnitWeight};
