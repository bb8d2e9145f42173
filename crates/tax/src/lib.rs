//! TAX — a Tree Algebra for XML — with the grouping operator of
//! *Grouping in XML* (Paparizos et al., EDBT 2002).
//!
//! TAX is a bulk algebra: every operator takes collections of data trees
//! and produces a collection of data trees, so the algebra is closed and
//! composable (Sec. 2 of the paper). Heterogeneity — missing and repeated
//! sub-elements — is tamed by *pattern trees*: a pattern binds one
//! variable per pattern node, and the *witness trees* produced by a match
//! are perfectly homogeneous, so downstream operators can address bound
//! nodes by label. The operators here read those collections as rows of
//! node identifiers (Sec. 5.3), and output writes each row as the tree
//! it stands for.
//!
//! # Crate layout
//!
//! * [`value`] — content values and the numeric-aware comparisons used by
//!   predicates and ordering lists;
//! * [`batch`] — what flows between operators: a [`Batch`] of rows that
//!   is a list of stored nodes, of a scan's matches, of groups, or of
//!   one-level rows. A cell of a row is a constructed element or a
//!   *reference* to a stored node, optionally `deep` (the whole stored
//!   subtree);
//! * [`output`] — output population: a batch's rows written as XML
//!   text or DOM elements; data values are fetched only here;
//! * [`pattern`] — pattern trees: nodes with predicates, `pc`
//!   (parent-child) and `ad` (ancestor-descendant) edges, plus the
//!   *subset* test used by the rewrite rules of Sec. 4.1;
//! * [`matching`] — pattern-tree matching. Against the stored database it
//!   uses the tag index and sort-merge/stack structural joins (Sec. 5.2,
//!   citing Al-Khalifa et al. ICDE'02) and touches **no data pages**
//!   unless a predicate needs content; a naive full-scan matcher is kept
//!   as the ablation baseline and oracle;
//! * [`exec`] — what the executor wraps around the kernels: panic
//!   containment and a grouping sink's statistics. A query runs on the
//!   calling thread, one serial kernel per operator;
//! * [`ops`] — the operators: selection (with adornment list), projection
//!   (with projection list), duplicate elimination, the left outer join
//!   and the RETURN stitch, **groupby** (pattern + grouping basis +
//!   ordering list, Sec. 3), aggregation (pattern + function + update
//!   specification, Sec. 4.3), and rename.
//!
//! # Example: the paper's Figure 1–3 pipeline
//!
//! ```
//! use xmlstore::{DocumentStore, StoreOptions};
//! use tax::batch::{Batch, Matches};
//! use tax::pattern::{Axis, PatternTree, Pred};
//! use tax::ops::groupby::{groupby, BasisItem, GroupOrder, Direction};
//! use tax::ops::project::ProjectItem;
//! use tax::output::write_xml_lines;
//!
//! let xml = "<bib>\
//!   <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
//!   <article><title>Overview of Transaction Mng</title>\
//!     <author>Silberschatz</author><author>Garcia-Molina</author></article>\
//! </bib>";
//! let store = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
//!
//! // Figure 1: article with a title containing "Transaction" and an author.
//! let mut p = PatternTree::with_root(Pred::tag("article"));
//! let t = p.add_child(p.root(), Axis::Child, Pred::tag("title").and(Pred::content_contains("Transaction")));
//! let a = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
//!
//! // Figure 2: the witness trees (one per article/author pair).
//! let witnesses = Batch::Matches(Matches::select(&store, &p, &[]).unwrap());
//! let mut text = String::new();
//! write_xml_lines(&store, &witnesses, &mut text).unwrap();
//! assert_eq!(text.lines().nth(2), Some(
//!     "<article><title>Overview of Transaction Mng</title><author>Garcia-Molina</author></article>"
//! ));
//!
//! // The articles, whole: a scan whose projection keeps the deep root.
//! let scan = PatternTree::with_root(Pred::tag("article"));
//! let articles = Matches::select(&store, &scan, &[scan.root()])
//!     .unwrap()
//!     .project(&[ProjectItem::deep(scan.root())])
//!     .unwrap();
//!
//! // Figure 3: group by author content, order by descending title.
//! let (grouped, _stages) = groupby(
//!     &store,
//!     &articles,
//!     &p,
//!     &[BasisItem::content(a)],
//!     &[GroupOrder { label: t, direction: Direction::Descending }],
//! ).unwrap();
//! assert_eq!(grouped.len(), 2); // Silberschatz, Garcia-Molina
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod exec;
pub mod matching;
pub mod ops;
pub mod output;
pub mod pattern;
pub mod value;

pub use batch::Batch;
pub use error::{Error, Result};
pub use exec::ExecOptions;
pub use pattern::{Axis, PatternNodeId, PatternTree, Pred};
pub use value::{compare_values, CmpOp};

/// Reserved output tags of the grouping operator (Sec. 3).
pub mod tags {
    /// Root of each group tree.
    pub const GROUP_ROOT: &str = "TAX_group_root";
    /// Left child: the grouping-basis values.
    pub const GROUPING_BASIS: &str = "TAX_grouping_basis";
    /// Right child: the ordered group members.
    pub const GROUP_SUBROOT: &str = "TAX_group_subroot";
}
