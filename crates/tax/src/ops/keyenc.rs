//! Grouping keys — the encoding shared by the grouping sinks (groupby,
//! rollup, cube).
//!
//! A key is a fixed-width sequence of dictionary symbols: one `u32`
//! word per basis item, [`ABSENT`] when the value is missing (e.g. an
//! element with no content). Fixed width makes the encoding
//! self-delimiting, so key equality is a flat word compare — no
//! per-value length prefixes or presence tags.
//!
//! A key finds its group through a `GroupIndex`.

use std::collections::HashMap;

/// The key word standing for a missing value.
pub use xmlstore::NO_SYM as ABSENT;

/// Slots a slot table may spend per key; sparser symbols keep the map.
const SLOTS_PER_KEY: usize = 4;

/// Key → group id, ids in first-arrival order: a grouping sink's index,
/// one per level. A key of at most one word is a symbol, so
/// over a dense range it indexes a slot table: slot `w + 1` holds 1 + the
/// group id of word `w` (0: none yet), and [`ABSENT`] wraps to slot 0,
/// the empty key's. Wider keys and sparse symbols keep the std map, whose
/// keyed hash guards it against adversarial keys.
pub(crate) enum GroupIndex<'k> {
    Slots(Vec<u32>),
    Map(HashMap<&'k [u32], usize>),
}

/// The slot of a key of at most one word.
fn slot(key: &[u32]) -> usize {
    debug_assert!(key.len() <= 1, "a slot table indexes one-word keys");
    key.first().map_or(0, |&w| w.wrapping_add(1) as usize)
}

impl<'k> GroupIndex<'k> {
    /// The index for `keys`, those [`group`](Self::group) will be asked
    /// for. A slot table is sized from their largest word, not from the
    /// dictionary, which concurrent interns may grow.
    pub fn new(mut keys: impl ExactSizeIterator<Item = &'k [u32]>) -> Self {
        let n = keys.len();
        // `None` as soon as a key is wider than one word.
        let size = keys.try_fold(1, |size, key| {
            (key.len() <= 1).then(|| size.max(slot(key) + 1))
        });
        match size {
            Some(size) if size <= SLOTS_PER_KEY * n + 1 => GroupIndex::Slots(vec![0; size]),
            _ => GroupIndex::Map(HashMap::new()),
        }
    }

    /// The group id of `key`; `next` when this call creates the group.
    pub fn group(&mut self, key: &'k [u32], next: usize) -> usize {
        match self {
            GroupIndex::Slots(slots) => {
                let id = &mut slots[slot(key)];
                if *id == 0 {
                    *id = next as u32 + 1;
                }
                *id as usize - 1
            }
            GroupIndex::Map(map) => *map.entry(key).or_insert(next),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_is_a_distinct_key_word() {
        // No interned symbol is the absent word.
        let dict = xmlstore::Dictionary::default();
        assert_ne!(dict.intern("").0, ABSENT);
        assert_ne!(dict.intern("x").0, ABSENT);
    }

    /// The grouping sinks' use of an index over a witness stream of
    /// `(row, key)` pairs, rows non-decreasing: each witness's group id,
    /// and per group its first witness and member rows (a row once).
    fn group_with<'k>(
        mut index: GroupIndex<'k>,
        stream: &'k [(u32, Vec<u32>)],
    ) -> (Vec<usize>, Vec<(usize, Vec<u32>)>) {
        let mut ids = Vec::new();
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        for (w, (row, key)) in stream.iter().enumerate() {
            let id = index.group(key, groups.len());
            if id == groups.len() {
                groups.push((w, Vec::new()));
            }
            let members = &mut groups[id].1;
            if members.last() != Some(row) {
                members.push(*row);
            }
            ids.push(id);
        }
        (ids, groups)
    }

    /// [`group_with`] over an ordered map: the reference.
    fn reference(stream: &[(u32, Vec<u32>)]) -> (Vec<usize>, Vec<(usize, Vec<u32>)>) {
        let mut index: std::collections::BTreeMap<&[u32], usize> = Default::default();
        let mut ids = Vec::new();
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        for (w, (row, key)) in stream.iter().enumerate() {
            let id = *index.entry(key).or_insert_with(|| {
                groups.push((w, Vec::new()));
                groups.len() - 1
            });
            if groups[id].1.last() != Some(row) {
                groups[id].1.push(*row);
            }
            ids.push(id);
        }
        (ids, groups)
    }

    #[test]
    fn slot_table_map_and_reference_group_alike() {
        use smallrand::prop::check;
        use xmlstore::{DocumentStore, StoreOptions};
        let store = DocumentStore::from_xml(
            "<bib><article><author>Jack</author><year>1999</year></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        // Content symbols of constructed trees lie above what the store
        // loaded: the dictionary grows while queries run.
        let loaded = store.dict().len() as u32;
        let constructed: Vec<u32> = (0..40)
            .map(|i| store.dict().intern(&format!("constructed {i}")).0)
            .collect();
        assert!(constructed.iter().all(|&s| s >= loaded));
        check("slot_table_map_and_reference_group_alike", 300, |g| {
            let width = g.usize_in(0, 3);
            let space = g.usize_in(0, 2);
            let rows = g.usize_in(0, 60) as u32;
            let mut stream = Vec::new();
            for row in 0..rows {
                for _ in 0..g.usize_in(0, 3) {
                    let key = (0..width)
                        .map(|_| match space {
                            _ if g.ratio(1, 6) => ABSENT,
                            // Dense: a few small symbols, many repeats.
                            0 => g.usize_in(0, 8) as u32,
                            // Sparse: far apart, past any slot budget.
                            1 => g.usize_in(0, 8) as u32 * 100_003,
                            _ => *g.pick(&constructed),
                        })
                        .collect::<Vec<u32>>();
                    stream.push((row, key));
                }
            }
            let want = reference(&stream);
            assert_eq!(group_with(GroupIndex::Map(HashMap::new()), &stream), want);
            let chosen = GroupIndex::new(stream.iter().map(|(_, k)| &k[..]));
            let top = stream
                .iter()
                .flat_map(|(_, k)| k)
                .filter(|&&w| w != ABSENT)
                .max();
            let size = top.map_or(0, |&t| t as usize + 1);
            // No key at all: nothing to tell the width by, nothing to index.
            let dense = stream.is_empty() || width <= 1 && size <= SLOTS_PER_KEY * stream.len();
            let slots = matches!(chosen, GroupIndex::Slots(_));
            assert_eq!(slots, dense, "width {width}, size {size}");
            assert_eq!(group_with(chosen, &stream), want);
            if width <= 1 {
                let table = GroupIndex::Slots(vec![0; size + 1]);
                assert_eq!(group_with(table, &stream), want);
            }
        });
    }
}
