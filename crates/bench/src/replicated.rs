//! Experiment X4's baseline: grouping by eager replication, the strawman
//! Sec. 5.3 warns about. Each witness copies its whole source tree into
//! an owned element before groups form and members sort, where
//! `tax::ops::groupby` keeps node identifiers and reads data only for
//! its keys.

use std::cmp::Ordering;
use std::collections::HashMap;
use tax::matching::for_each_match;
use tax::ops::groupby::{BasisItem, Direction, GroupOrder};
use tax::pattern::PatternTree;
use tax::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use tax::value::compare_opt_values;
use xmlparse::{Element, XmlNode};
use xmlstore::{DocumentStore, NodeEntry, Sym, NO_SYM};

/// A group under formation: its basis children, the last row that
/// joined it, and its members with their ordering values.
struct Group {
    basis: Element,
    last_row: usize,
    members: Vec<(Vec<Option<String>>, Element)>,
}

/// Group the stored `rows` as `tax::ops::groupby` does — by the content
/// of each `basis` node of `pattern`, groups in first-arrival order, a
/// row once a group, members ordered by `ordering` and then by arrival
/// — replicating each member into an owned copy of its row's subtree as
/// its witness arrives. Returns the group trees.
pub fn groupby_replicated(
    store: &DocumentStore,
    rows: &[NodeEntry],
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> tax::Result<Vec<Element>> {
    let mut witnesses = Vec::new();
    for_each_match(store, pattern, rows, false, |row, m| {
        witnesses.push((row as usize, m.to_vec()))
    })?;
    let (cols, dict) = (store.columns(), store.dict());
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (row, binding) in witnesses {
        let nodes = basis.iter().map(|item| binding[item.label].id.0 as usize);
        let key: Vec<u32> = nodes.clone().map(|n| cols.content[n]).collect();
        let g = *index.entry(key).or_insert_with_key(|key| {
            let mut children = Element::new(GROUPING_BASIS);
            for (n, &value) in nodes.zip(key) {
                let mut child = Element::new(&*dict.resolve(Sym(cols.tag[n])));
                if value != NO_SYM {
                    child
                        .children
                        .push(XmlNode::Text(dict.resolve(Sym(value)).to_string()));
                }
                children.children.push(XmlNode::Element(child));
            }
            groups.push(Group {
                basis: children,
                last_row: usize::MAX,
                members: Vec::new(),
            });
            groups.len() - 1
        });
        // Witnesses of one row that share a key replicate it once.
        if groups[g].last_row == row {
            continue;
        }
        groups[g].last_row = row;
        let sort_key = ordering
            .iter()
            .map(|o| store.content(binding[o.label].id))
            .collect::<Result<Vec<_>, _>>()?;
        // Eager replication: the expensive step.
        let member = store.materialize(rows[row].id)?;
        groups[g].members.push((sort_key, member));
    }
    let group_tree = |mut group: Group| {
        // A stable sort: members the ordering list ties stay in arrival
        // order.
        group.members.sort_by(|a, b| compare(&a.0, &b.0, ordering));
        let mut subroot = Element::new(GROUP_SUBROOT);
        let members = group.members.into_iter().map(|(_, m)| XmlNode::Element(m));
        subroot.children.extend(members);
        Element::new(GROUP_ROOT)
            .with_child(group.basis)
            .with_child(subroot)
    };
    Ok(groups.into_iter().map(group_tree).collect())
}

/// Two members' ordering values compared by the ordering list.
fn compare(a: &[Option<String>], b: &[Option<String>], ordering: &[GroupOrder]) -> Ordering {
    let by = |(o, (x, y)): (&GroupOrder, (&Option<String>, &Option<String>))| {
        let ord = compare_opt_values(x.as_deref(), y.as_deref());
        match o.direction {
            Direction::Ascending => ord,
            Direction::Descending => ord.reverse(),
        }
    };
    let mut each = ordering.iter().zip(a.iter().zip(b)).map(by);
    each.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
}
