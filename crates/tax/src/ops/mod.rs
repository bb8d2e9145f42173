//! The TAX operators.
//!
//! In TAX every operator takes a collection of data trees and produces
//! one, so expressions compose (Sec. 2). Here the collections are rows
//! that stand for those trees — stored nodes, a selection's match rows,
//! groups as columns, one-level output rows ([`Batch`](crate::Batch)) —
//! and no operator takes a tree: each takes the rows the paper's plans
//! feed it and refuses any other input with a typed
//! [`Error::Unsupported`](crate::Error::Unsupported). Output writes each
//! row as the tree it stands for ([`output`](crate::output)). The
//! operators implemented here are the ones the paper's plans build:
//!
//! | module | operator | paper section |
//! |---|---|---|
//! | [`mod@select`] | selection with adornment list `SL` | Sec. 2 |
//! | [`mod@project`] | projection with projection list `PL` | Sec. 2 |
//! | [`mod@dupelim`] | duplicate elimination on a bound node's content | Sec. 4.1 |
//! | [`mod@join`] | left outer join (Fig. 8's pairs, as groups) and the RETURN stitch | Sec. 4.1 |
//! | [`mod@groupby`] | grouping with basis + ordering list | Sec. 3 |
//! | [`mod@aggregate`] | aggregation over groups with update specification | Sec. 4.3 |
//! | [`mod@rollup`] | fused grouped aggregation (no group materialization) | Sec. 3 + 4.3 |
//! | [`mod@cube`] | grouping lattice: all basis-prefix levels in one scan | XOLAP [Hachicha & Darmont] |
//! | [`mod@rename`] | root renaming (final tag of RETURN) | Sec. 4.1 |
//!
//! Keyed operators take their keys from one witness extraction (the
//! private `witness` module): flat key / cell columns of content symbols,
//! from stored rows by one columnar match — or, for the naive plan's
//! outer rows, off the selection's table. [`keyenc`] hashes and indexes
//! those keys.

pub mod aggregate;
pub mod cube;
pub mod dupelim;
pub mod groupby;
pub mod join;
pub mod keyenc;
pub mod project;
pub mod rename;
pub mod rollup;
pub mod select;
mod witness;

pub use aggregate::{aggregate, AggFunc, UpdateSpec};
pub use cube::cube;
pub use dupelim::dup_elim;
pub use groupby::{groupby, BasisItem, Direction, GroupOrder};
pub use join::left_outer_join_db;
pub use project::ProjectItem;
pub use rename::rename_root;
pub use rollup::{rollup, RollupShape};
