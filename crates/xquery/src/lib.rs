//! An XQuery FLWR subset, its "naive" translation into TAX algebra, and
//! the grouping rewrite — Sec. 4 of *Grouping in XML* (EDBT 2002).
//!
//! The paper's central observation is that XQuery has no grouping
//! construct: queries that *are* groupings get written as nested FLWR
//! expressions (or `LET`-bound path expressions), and a naive parser
//! translates them into selections plus a **left outer join** against the
//! database. A second pass — the rewrite of Sec. 4.1 — *detects* the
//! grouping (Phase 1) and replaces the join pipeline with the `GROUPBY`
//! operator (Phase 2), which the experiments show is substantially
//! faster.
//!
//! This crate provides:
//!
//! * [`parser`] / [`ast`] — a recursive-descent parser for the FLWR
//!   subset the paper uses: single `FOR` over
//!   `distinct-values(document(…)//path)`, optional `LET` with a
//!   predicate path, `WHERE` equality comparisons, `ORDER BY` on the
//!   nested FOR, and a `RETURN` element constructor containing variable
//!   references, aggregates (`count`/`sum`/`min`/`max`/`avg`), or one
//!   nested FLWR;
//! * [`plan`] — the logical TAX plan: selections, projections, duplicate
//!   elimination, the left-outer-join "join plan", grouping, aggregation,
//!   renaming, and the final stitch/construct step;
//! * [`mod@translate`] — the naive parse (Sec. 4.1, "Naive Parsing"),
//!   producing the join-based plan of Figs. 4, 7, 8;
//! * [`opt`] — the optimizer, [`opt::optimize`]: the grouping rewrite of
//!   Sec. 4.1 and nothing else (Phase 1 detection via the pattern-tree
//!   subset test, Phase 2 the `GROUPBY` plan of Figs. 5, 9, 10, or one
//!   `Rollup` for a grouped aggregate), applied once at the plan root,
//!   with a firing trace.
//!
//! # Example
//!
//! ```
//! use xquery::{opt, parse_query, translate};
//!
//! let q = r#"
//!     FOR $a IN distinct-values(document("bib.xml")//author)
//!     RETURN <authorpubs>
//!       {$a}
//!       { FOR $b IN document("bib.xml")//article
//!         WHERE $a = $b/author
//!         RETURN $b/title }
//!     </authorpubs>
//! "#;
//! let ast = parse_query(q).unwrap();
//! let naive = translate(&ast).unwrap();
//! let (optimized, trace) = opt::optimize(naive);
//! assert!(
//!     trace.fired("groupby-rewrite"),
//!     "Query 1 must be recognized as a grouping query"
//! );
//! # let _ = optimized;
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod plan;
pub mod translate;

pub use ast::Flwr;
pub use error::{QueryError, Result};
pub use parser::parse_query;
pub use plan::Plan;
pub use translate::translate;
