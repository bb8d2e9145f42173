//! The TAX operators.
//!
//! Every operator takes a collection of data trees (and the store behind
//! their references) and produces a collection of data trees, so
//! expressions compose (Sec. 2). The operators implemented here are the
//! ones the paper defines or uses:
//!
//! | module | operator | paper section |
//! |---|---|---|
//! | [`mod@select`] | selection with adornment list `SL` | Sec. 2 |
//! | [`mod@project`] | projection with projection list `PL` | Sec. 2 |
//! | [`mod@dupelim`] | duplicate elimination on a bound node's content | Sec. 4.1 |
//! | [`mod@join`] | left / full outer join ("join-plan" trees, stitching) | Sec. 4.1 |
//! | [`mod@groupby`] | grouping with basis + ordering list | Sec. 3 |
//! | [`mod@aggregate`] | aggregation with update specification | Sec. 4.3 |
//! | [`mod@rollup`] | fused grouped aggregation (no group materialization) | Sec. 3 + 4.3 |
//! | [`mod@cube`] | grouping lattice: all basis-prefix levels in one scan | XOLAP [Hachicha & Darmont] |
//! | [`mod@rename`] | root renaming (final tag of RETURN) | Sec. 4.1 |
//! | [`mod@reorder`] | collection reordering by bound contents | TAX [8] |
//! | [`mod@setops`] | union / intersection / difference | TAX [8] |

//!
//! The three grouping sinks (`groupby`, `rollup`, `cube`) share one
//! witness extraction (the private `witness` module): flat key / cell
//! columns filled from a batch of stored rows by one columnar match, or
//! from trees by one match per tree.

pub mod aggregate;
pub mod cube;
pub mod dupelim;
pub mod groupby;
pub mod join;
pub mod keyenc;
pub mod project;
pub mod rename;
pub mod reorder;
pub mod rollup;
pub mod select;
pub mod setops;
mod witness;

pub use aggregate::{aggregate, AggFunc, UpdateSpec};
pub use cube::cube;
pub use dupelim::dup_elim;
pub use groupby::{groupby, groupby_replicated, groupby_with, BasisItem, Direction, GroupOrder};
pub use join::{full_outer_join, left_outer_join_db};
pub use project::{project, ProjectItem};
pub use rename::rename_root;
pub use reorder::reorder;
pub use rollup::{rollup, RollupShape};
pub use select::{select, select_db};
pub use setops::{difference, intersection, union};
