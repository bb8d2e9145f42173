//! Key encoding and hashing — the one FNV-1a module shared by the
//! grouping sinks (groupby / rollup / cube, symbol keys) and the
//! value-join sinks (join operator, executor stitch — optional-string
//! keys); [`crate::exec::shard_map`] turns the hashes into shards.
//!
//! A grouping [`Key`] is a fixed-width sequence of dictionary symbols:
//! one `u32` word per basis item, [`ABSENT`] when the value is missing
//! (e.g. an absent attribute). Fixed width makes the encoding
//! self-delimiting, so a key hashes in a single FNV-1a pass over the
//! little-endian bytes of its words, and key equality is a flat word
//! compare — no per-value length prefixes or presence tags.
//!
//! Optional-string join keys keep the older self-delimiting byte
//! encoding: a one-byte presence tag keeps an absent value distinct from
//! an empty string.

use crate::exec::{fnv1a, FNV_SEED};
use xmlstore::Sym;

/// The key word standing for a missing value.
pub use xmlstore::NO_SYM as ABSENT;

/// A grouping key: one symbol word per basis item, [`ABSENT`] when the
/// value is missing.
pub type Key = Vec<u32>;

/// The key word for an optional symbol.
#[inline]
pub fn component(s: Option<Sym>) -> u32 {
    s.map_or(ABSENT, |s| s.0)
}

/// FNV-1a over a symbol key: one pass over the words' LE bytes.
#[inline]
pub fn hash_syms(key: &[u32]) -> u64 {
    let mut h = FNV_SEED;
    for w in key {
        h = fnv1a(h, &w.to_le_bytes());
    }
    h
}

/// Fold one optional string into an FNV-1a state. The presence tag keeps
/// `None` distinct from `Some("")`, and the encoding self-delimiting
/// across multi-value keys.
#[inline]
pub fn fold_opt_str(h: u64, value: Option<&str>) -> u64 {
    match value {
        None => fnv1a(h, &[0]),
        Some(v) => fnv1a(fnv1a(h, &[1]), v.as_bytes()),
    }
}

/// FNV-1a of a single optional string value (the join-key hash).
#[inline]
pub fn hash_opt_str(value: Option<&str>) -> u64 {
    fold_opt_str(FNV_SEED, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_keys_hash_by_value_not_identity() {
        assert_eq!(hash_syms(&[1, 2, 3]), hash_syms(&[1, 2, 3]));
        assert_ne!(hash_syms(&[1, 2, 3]), hash_syms(&[1, 2, 4]));
        // Fixed width keeps adjacent words from bleeding into each other.
        assert_ne!(hash_syms(&[0x0101, 0x01]), hash_syms(&[0x01, 0x0101]));
    }

    #[test]
    fn absent_is_a_distinct_key_word() {
        assert_ne!(hash_syms(&[ABSENT]), hash_syms(&[0]));
        assert_eq!(component(None), ABSENT);
        assert_eq!(component(Some(Sym(7))), 7);
    }

    #[test]
    fn opt_str_encoding_is_self_delimiting() {
        // None vs Some("") differ by the presence tag.
        assert_ne!(hash_opt_str(None), hash_opt_str(Some("")));
        // Folding two values cannot collide with one concatenated value.
        let two = fold_opt_str(fold_opt_str(FNV_SEED, Some("ab")), Some("c"));
        let one = fold_opt_str(FNV_SEED, Some("abc"));
        assert_ne!(two, one);
    }
}
