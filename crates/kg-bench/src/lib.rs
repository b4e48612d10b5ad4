//! # kg-bench — experiment harness for the ICDE 2022 reproduction
//!
//! One function per table / figure of the paper's evaluation (§VII). Each
//! experiment builds (or reuses) the three dataset profiles, runs the
//! competing methods over the generated workload and prints rows in the same
//! layout as the paper. Absolute numbers differ from the authors' testbed —
//! the *shape* of the comparison (who wins, by roughly what factor, where the
//! trends go) is what the harness reproduces; see `EXPERIMENTS.md`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p kg-bench --release --bin run_experiments -- all
//! ```
//!
//! or a single experiment with its id (`table5` … `table13`, `fig5a` …
//! `fig6f`).
//!
//! Result tables render both as aligned text and as JSON:
//!
//! ```
//! use kg_bench::report::fmt_num;
//! use kg_bench::Table;
//!
//! let mut table = Table::new("table6", "Relative error", &["Method", "Simple"]);
//! table.push_row(vec!["Ours".into(), fmt_num(0.84)]);
//! assert!(table.to_string().contains("Relative error"));
//! assert_eq!(table.to_json()["id"].as_str(), Some("table6"));
//! ```

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{BenchContext, Method};
pub use report::Table;
