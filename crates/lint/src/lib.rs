//! **greednet-lint** — the workspace's own static analyzer.
//!
//! PR 2 and PR 3 made *bitwise determinism at any thread count* a
//! headline guarantee: the paper's closed-form allocations are validated
//! against simulated replications, so any nondeterminism silently
//! corrupts the paper-vs-measured tables. This crate turns that (and two
//! sibling guarantees: panic-freedom on library paths, unsafe-freedom
//! everywhere) from reviewer vigilance into machine-checked invariants.
//!
//! The analyzer is **dependency-free**: the build container has no
//! crates.io access, so it hand-rolls a small Rust lexer
//! ([`lexer`]) instead of using `syn`. Most rules ([`rules`]) only need
//! comment/string-stripped tokens with line numbers, which the lexer
//! guarantees; on top of the token stream an item parser ([`parse`])
//! recovers each file's `fn` items and `use` declarations, a
//! deliberately over-approximate intra-workspace call graph ([`graph`])
//! drives the panic-reachability rule GN06, and a type layer ([`types`])
//! recovers `struct`/`enum` shapes for the type-aware rules
//! ([`typerules`]): unit-escape (GN13), cache-key completeness (GN14),
//! and probe isolation (GN15).
//!
//! The per-file pass is sharded across the deterministic pool
//! (`greednet_runtime::parallel_map_indexed`) with an in-task-order
//! merge, so reports are byte-identical at any `--threads` count
//! (pinned by `tests/workspace_clean.rs` at 1, 4 and 8 threads).
//!
//! Rules are individually suppressible at a site with
//!
//! ```text
//! // greednet-lint: allow(GN01, reason = "keys are sorted before iteration")
//! ```
//!
//! on (or immediately above) the offending line; the reason is
//! mandatory and surfaced in reports. See `LINTS.md` at the workspace
//! root for each rule's rationale.
//!
//! Run it as `cargo run -p greednet-lint` (human table) or with
//! `-- --json` (machine report; CI uploads it as an artifact). The
//! binary exits 0 on a clean workspace, 1 on findings, 2 on usage or
//! I/O errors.

#![forbid(unsafe_code)]

pub mod expr;
pub mod graph;
pub mod hot;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod typerules;
pub mod types;
pub mod workspace;

pub use graph::SourceFile;
pub use report::Analysis;
pub use rules::{check_file, FileContext, FileKind, Finding};
pub use workspace::{analyze, analyze_with, find_root, AnalyzeOptions};
