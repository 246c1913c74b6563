//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§IV, §VII, §VIII) from the reproduction's models.
//!
//! Each `figN` function returns structured rows so the integration tests
//! can assert the paper's *shape* targets (who wins, by roughly what
//! factor, where crossovers fall — see DESIGN.md §4), and `render_figN`
//! turns them into the text the `figures` binary prints, which
//! `tests/figures_output.rs` pins byte for byte.

pub mod figures;

pub use figures::*;
