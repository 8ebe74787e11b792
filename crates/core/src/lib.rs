//! # kr-core
//!
//! The paper's primary contribution: algorithms for enumerating all maximal
//! **(k,r)-cores** and finding the **maximum (k,r)-core** of an attributed
//! graph (Zhang et al., VLDB 2017).
//!
//! A (k,r)-core is a connected subgraph in which every vertex has at least
//! `k` neighbors inside the subgraph *and* every vertex pair is similar
//! w.r.t. a threshold `r`. Both problems are NP-hard; this crate implements
//! the full algorithm family evaluated in the paper:
//!
//! | paper name | here | ingredients |
//! |------------|------|-------------|
//! | NaiveEnum (Alg 1+2) | [`AlgoConfig::naive_enum`] | exhaustive set enumeration |
//! | BasicEnum | [`AlgoConfig::basic_enum`] | Thm 2 + Thm 3 pruning, best order |
//! | AdvEnum (Alg 3)   | [`AlgoConfig::adv_enum`] | + Thm 4 retention, Thm 5 early termination, Thm 6 maximal check |
//! | BasicMax  | [`AlgoConfig::basic_max`] | `|M|+|C|` bound, best order |
//! | AdvMax (Alg 5) | [`AlgoConfig::adv_max`] | + (k,k')-core bound (Alg 6, Thm 7) |
//! | Clique+ (Sec 3) | [`cliquebased::clique_based_maximal`] | maximal cliques of the similarity graph |
//!
//! Entry points: [`enumerate_maximal`] and [`find_maximum`] over a
//! [`ProblemInstance`].

pub mod bounds;
pub mod cliquebased;
pub mod component;
pub mod config;
pub mod decomp;
pub mod early_term;
pub mod enumerate;
#[cfg(test)]
mod layout_tests;
pub mod maximal;
pub mod maximum;
pub mod order;
pub mod problem;
pub mod result;
pub mod search;
#[cfg(test)]
mod testing;
pub mod verify;
pub(crate) mod walk;

pub use cliquebased::{clique_based_maximal, clique_based_maximal_budgeted};
pub use component::LocalComponent;
pub use config::{
    AlgoConfig, BoundKind, BranchPolicy, CancelFlag, CheckOrder, CoreHook, SearchOrder,
};
pub use decomp::{
    build_index_for, read_indexed_snapshot_bytes, read_indexed_snapshot_file,
    write_indexed_snapshot_file, CandidateSet, DecompositionIndex,
};
pub use enumerate::{enumerate_maximal, enumerate_maximal_prepared, EnumResult};
pub use maximum::{find_maximum, find_maximum_prepared, MaxResult};
pub use problem::ProblemInstance;
pub use result::KrCore;
pub use verify::{is_kr_core, verify_maximal_family};
