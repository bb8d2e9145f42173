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
/// one per level, filled as keys arrive. A key of at most one word is a
/// symbol, so it indexes a slot table: slot `w + 1` holds 1 + the group
/// id of word `w` (0: none yet), and [`ABSENT`] wraps to slot 0, the
/// empty key's. The table grows with the largest word seen, up to
/// [`SLOTS_PER_KEY`] slots for each key the sink expects; a sparser word
/// moves the groups to the std map, which wider keys use from the start
/// and whose keyed hash guards it against adversarial keys.
pub(crate) enum GroupIndex {
    Slots { slots: Vec<u32>, budget: usize },
    Map(HashMap<Box<[u32]>, usize>),
}

/// The slot of a key of at most one word.
fn slot(key: &[u32]) -> usize {
    debug_assert!(key.len() <= 1, "a slot table indexes one-word keys");
    key.first().map_or(0, |&w| w.wrapping_add(1) as usize)
}

impl GroupIndex {
    /// The index for keys of `width` words, about `keys` of them.
    pub fn new(width: usize, keys: usize) -> Self {
        match width {
            0 | 1 => GroupIndex::Slots {
                slots: Vec::new(),
                budget: SLOTS_PER_KEY * keys + 1,
            },
            _ => GroupIndex::Map(HashMap::new()),
        }
    }

    /// The group id of `key`; `next` when this call creates the group.
    #[inline]
    pub fn group(&mut self, key: &[u32], next: usize) -> usize {
        if let GroupIndex::Slots { slots, budget } = self {
            let at = slot(key);
            if at < *budget {
                if at >= slots.len() {
                    slots.resize((2 * slots.len()).clamp(at + 1, *budget), 0);
                }
                let id = &mut slots[at];
                if *id == 0 {
                    *id = next as u32 + 1;
                }
                return *id as usize - 1;
            }
            // Slot `s` holds word `s - 1`, slot 0 the absent word.
            let ids = slots.iter().enumerate().filter(|&(_, &id)| id != 0);
            let keyed =
                ids.map(|(at, &id)| (Box::from([(at as u32).wrapping_sub(1)]), id as usize - 1));
            *self = GroupIndex::Map(keyed.collect());
        }
        let GroupIndex::Map(map) = self else {
            unreachable!("a slot table answers above")
        };
        if let Some(&id) = map.get(key) {
            return id;
        }
        map.insert(key.into(), next);
        next
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
    fn group_with(
        index: &mut GroupIndex,
        stream: &[(u32, Vec<u32>)],
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
            let mut map = GroupIndex::Map(HashMap::new());
            assert_eq!(group_with(&mut map, &stream), want);
            let mut chosen = GroupIndex::new(width, stream.len());
            assert_eq!(group_with(&mut chosen, &stream), want);
            let top = stream
                .iter()
                .flat_map(|(_, k)| k)
                .filter(|&&w| w != ABSENT)
                .max();
            let size = top.map_or(0, |&t| t as usize + 1);
            // The table keeps the keys only while their words are dense.
            let dense = width <= 1 && size <= SLOTS_PER_KEY * stream.len();
            let slots = matches!(chosen, GroupIndex::Slots { .. });
            assert_eq!(slots, dense, "width {width}, size {size}");
            if width <= 1 {
                let (slots, budget) = (vec![0; size + 1], size + 1);
                let mut table = GroupIndex::Slots { slots, budget };
                assert_eq!(group_with(&mut table, &stream), want);
            }
        });
    }
}
