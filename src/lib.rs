//! # rtim — Real-Time Influence Maximization on Dynamic Social Streams
//!
//! A from-scratch Rust implementation of the VLDB 2017 paper
//! *"Real-Time Influence Maximization on Dynamic Social Streams"*
//! (Wang, Fan, Li, Tan): the **Stream Influence Maximization (SIM)** query
//! over sliding windows of social actions, answered continuously by the
//! **Influential Checkpoints (IC)** and **Sparse Influential Checkpoints
//! (SIC)** frameworks, together with every substrate the paper's evaluation
//! depends on (streaming submodular oracles, influence graphs under the
//! Weighted Cascade model, the Greedy/IMM/UBI baselines, and synthetic
//! social-stream generators).
//!
//! This crate is a thin facade re-exporting the workspace crates:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`stream`] | actions, sliding windows, propagation index, influence sets |
//! | [`submodular`] | coverage objectives, greedy/CELF, SieveStreaming, ThresholdStream, swap oracle |
//! | [`graph`] | influence graphs, WC model, Monte-Carlo spread, RR sets, R-MAT |
//! | [`core`] | SSM, checkpoints, IC, SIC, the SIM engine, Appendix-A extensions |
//! | [`baselines`] | Greedy, IMM, UBI |
//! | [`datagen`] | Reddit-like / Twitter-like / SYN-O / SYN-N stream generators |
//! | [`server`] | TCP ingest/query front-end over the bounded-queue engine pipeline |
//!
//! ## Quick start
//!
//! ```
//! use rtim::prelude::*;
//!
//! // A tiny synthetic stream (deterministic for the given seed).
//! let stream = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
//!     .with_users(200)
//!     .with_actions(1_000)
//!     .generate();
//!
//! // Track the 5 most influential users over a window of the last 300
//! // actions, sliding 50 actions at a time, with the SIC framework.
//! let config = SimConfig::new(5, 0.1, 300, 50);
//! let mut engine = SimEngine::new_sic(config);
//! for slide in stream.batches(config.slide) {
//!     engine.process_slide(slide);
//! }
//! let answer = engine.query();
//! assert!(answer.seeds.len() <= 5);
//! assert!(answer.value > 0.0);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `rtim-bench` crate for the harness that regenerates every table and
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtim_baselines as baselines;
pub use rtim_core as core;
pub use rtim_datagen as datagen;
pub use rtim_graph as graph;
pub use rtim_server as server;
pub use rtim_stream as stream;
pub use rtim_submodular as submodular;

/// Commonly used types, importable with `use rtim::prelude::*;`.
pub mod prelude {
    pub use rtim_baselines::{GreedySim, Imm, Ubi, UbiConfig};
    pub use rtim_core::{
        EngineHandle, EngineStats, FrameworkKind, HandleOptions, IcFramework, RunReport,
        SicFramework, SimConfig, SimEngine, SlideReport, Solution,
    };
    pub use rtim_datagen::{DatasetConfig, DatasetKind, Scale};
    pub use rtim_graph::{build_window_graph, monte_carlo_spread, InfluenceGraph};
    pub use rtim_server::{PipelinedIngest, RtimClient, RtimServer, ServerConfig};
    pub use rtim_stream::{Action, ActionId, SlidingWindow, SocialStream, UserId};
    pub use rtim_submodular::{OracleKind, UnitWeight};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_compose() {
        let stream = DatasetConfig::new(DatasetKind::SynO, Scale::Small)
            .with_users(100)
            .with_actions(500)
            .generate();
        let config = SimConfig::new(3, 0.2, 200, 25);
        let mut engine = SimEngine::new_ic(config);
        for slide in stream.batches(config.slide) {
            engine.process_slide(slide);
        }
        assert!(engine.query().value > 0.0);
    }
}
