//! The store dictionary: one interning namespace for tag names *and*
//! content values.
//!
//! The paper's Sec. 5.3 "identifier processing" has operators circulate
//! node labels instead of data; the dictionary takes that to its logical
//! end for the values themselves. Every string the store knows — element
//! tags, `@name` attribute tags, `#text`, attribute values, element
//! content — is interned once into a [`Sym`] (a dense `u32`), so the
//! layers above compare, hash, and route grouping keys on fixed-width
//! integers and resolve back to text only at serialization.
//!
//! Interning is concurrent: queries intern constructed tags and computed
//! values through `&self` (a read-lock fast path for already-known
//! strings, a write lock only for genuinely new ones), so a shared
//! `&DocumentStore` works across threads. Symbols are append-only and
//! never reused; `resolve` hands back an `Arc<str>` clone of the interned
//! string, which keeps the lock scope to the lookup itself.
//!
//! Persistence: the table is append-only, so the log carries it the
//! same way — a checkpoint record holds the full name table in symbol
//! order, and every commit record holds the suffix interned since the
//! last durable record ([`Dictionary::names_from`]). Crash recovery
//! replays checkpoint + suffixes and re-interns the identical
//! `name → Sym` assignment that the crashed process used — the numeric
//! tags and content symbols on the pages stay valid across reopen.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// An interned string handle: index into the dictionary's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// The sentinel used by columnar content arrays for "no content". Never
/// handed out by [`Dictionary::intern`].
pub const NO_SYM: u32 = u32::MAX;

#[derive(Debug)]
struct DictInner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Order watermark: symbols `1..ordered_upto` were assigned in
    /// strictly increasing lexicographic name order, so comparing those
    /// symbols as integers *is* comparing their strings. `Sym(0)` is
    /// excluded (the synthetic `doc_root` tag is always interned first,
    /// regardless of order). The watermark only ever freezes: the first
    /// out-of-order intern leaves it where it was, and later symbols are
    /// not order-comparable.
    ordered_upto: u32,
}

impl Default for DictInner {
    fn default() -> Self {
        DictInner {
            names: Vec::new(),
            ids: HashMap::new(),
            // The first ordered symbol would be Sym(1).
            ordered_upto: 1,
        }
    }
}

impl DictInner {
    /// Extend the order watermark if the just-assigned `id` continues the
    /// strictly-increasing run over `names[1..]`.
    fn advance_watermark(&mut self, id: u32) {
        if id == self.ordered_upto
            && (id == 1 || self.names[id as usize] > self.names[(id - 1) as usize])
        {
            self.ordered_upto = id + 1;
        }
    }
}

/// A concurrent two-way mapping between strings and [`Sym`]s.
#[derive(Debug, Default)]
pub struct Dictionary {
    inner: RwLock<DictInner>,
}

fn read(d: &Dictionary) -> std::sync::RwLockReadGuard<'_, DictInner> {
    // Poisoning only means a reader panicked; the map is append-only and
    // updated atomically under the write lock, so it is always coherent.
    d.inner.read().unwrap_or_else(|e| e.into_inner())
}

fn write(d: &Dictionary) -> std::sync::RwLockWriteGuard<'_, DictInner> {
    d.inner.write().unwrap_or_else(|e| e.into_inner())
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Rebuild a dictionary from a metadata snapshot: `names[i]` becomes
    /// `Sym(i)`, reproducing the exact assignment of the session that
    /// wrote the snapshot.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Self {
        let d = Dictionary::new();
        {
            let mut inner = write(&d);
            for name in names {
                let name: Arc<str> = Arc::from(name.as_ref());
                let id = inner.names.len() as u32;
                inner.names.push(Arc::clone(&name));
                inner.ids.insert(name, id);
                inner.advance_watermark(id);
            }
        }
        d
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(&id) = read(self).ids.get(name) {
            return Sym(id);
        }
        let mut inner = write(self);
        // Re-check: another thread may have interned it between locks.
        if let Some(&id) = inner.ids.get(name) {
            return Sym(id);
        }
        let id = inner.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&name));
        inner.ids.insert(name, id);
        inner.advance_watermark(id);
        Sym(id)
    }

    /// Exclusive upper bound of the order-comparable symbol range:
    /// symbols `1..ordered_upto()` compare as integers exactly as their
    /// strings compare lexicographically. `Sym(0)` and symbols at or
    /// above the watermark are never order-comparable.
    pub fn ordered_upto(&self) -> u32 {
        let inner = read(self);
        inner.ordered_upto.min(inner.names.len() as u32)
    }

    /// Whether `sym` lies in the order-comparable range.
    pub fn is_ordered(&self, sym: Sym) -> bool {
        sym.0 >= 1 && sym.0 < self.ordered_upto()
    }

    /// The symbol bounds of string `v` within the ordered range, as
    /// `(lb, ub)`: `lb` is the first ordered symbol whose name is
    /// `>= v`, `ub` the first whose name is `> v` (so `lb..ub` is the
    /// symbol range equal to `v`, empty when `v` is not interned in the
    /// ordered prefix). `v` itself need not be interned.
    pub fn ordered_bounds(&self, v: &str) -> (u32, u32) {
        let inner = read(self);
        let upto = inner.ordered_upto.min(inner.names.len() as u32) as usize;
        let ordered = &inner.names[1.min(upto)..upto];
        let lb = 1 + ordered.partition_point(|n| &**n < v) as u32;
        let ub = 1 + ordered.partition_point(|n| &**n <= v) as u32;
        (lb, ub)
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Sym> {
        read(self).ids.get(name).map(|&id| Sym(id))
    }

    /// The string for `sym`. Panics on a symbol not produced by this
    /// dictionary (a logic error, not an I/O condition).
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&read(self).names[sym.0 as usize])
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        read(self).names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        read(self).names.is_empty()
    }

    /// The names of symbols `from..len()` in symbol order: what a log
    /// record must carry when symbols below `from` are already durable
    /// (`names_from(0)` is the whole table). Handles on the interned
    /// strings, not copies — the read lock is held for refcount bumps
    /// only, so interning queries do not stall behind a commit.
    pub fn names_from(&self, from: usize) -> Vec<Arc<str>> {
        read(self).names.get(from..).unwrap_or_default().to_vec()
    }
}

impl Clone for Dictionary {
    fn clone(&self) -> Self {
        let inner = read(self);
        Dictionary::from_names(&inner.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let d = Dictionary::new();
        let a = d.intern("article");
        let b = d.intern("author");
        let a2 = d.intern("article");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let d = Dictionary::new();
        let id = d.intern("title");
        assert_eq!(&*d.resolve(id), "title");
        assert_eq!(d.get("title"), Some(id));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn names_restore_the_assignment() {
        let d = Dictionary::new();
        let a = d.intern("a");
        let v = d.intern("some value");
        let snap = d.names_from(0);
        let d2 = Dictionary::from_names(&snap);
        assert_eq!(d2.get("a"), Some(a));
        assert_eq!(d2.get("some value"), Some(v));
        assert_eq!(d2.len(), d.len());
        // Re-interning after restore continues the sequence.
        assert_eq!(d2.intern("fresh").0, snap.len() as u32);
        // A suffix is what was interned since; past the end is empty.
        assert_eq!(d.names_from(1), snap[1..]);
        assert!(d.names_from(2).is_empty() && d.names_from(9).is_empty());
    }

    #[test]
    fn tags_and_values_share_one_namespace() {
        let d = Dictionary::new();
        let tag = d.intern("year");
        let attr = d.intern("@year");
        let value = d.intern("1999");
        assert_ne!(tag, attr);
        assert_ne!(tag, value);
        // A value equal to a tag name harmlessly shares the symbol.
        assert_eq!(d.intern("year"), tag);
    }

    #[test]
    fn order_watermark_tracks_sorted_prefix() {
        let d = Dictionary::new();
        assert_eq!(d.ordered_upto(), 0); // empty: nothing comparable
        d.intern("doc_root"); // Sym(0), excluded from the order
        let apple = d.intern("apple");
        let pear = d.intern("pear");
        let zoo = d.intern("zoo");
        assert_eq!(d.ordered_upto(), 4);
        assert!(d.is_ordered(apple) && d.is_ordered(pear) && d.is_ordered(zoo));
        assert!(!d.is_ordered(Sym(0)));
        // Symbol order == string order inside the watermark.
        assert!(apple.0 < pear.0 && pear.0 < zoo.0);
        // Bounds for present and absent strings.
        assert_eq!(d.ordered_bounds("pear"), (pear.0, pear.0 + 1));
        assert_eq!(d.ordered_bounds("banana"), (pear.0, pear.0));
        assert_eq!(d.ordered_bounds("a"), (apple.0, apple.0));
        assert_eq!(d.ordered_bounds("zzz"), (zoo.0 + 1, zoo.0 + 1));
        // First out-of-order intern freezes the watermark for good.
        let late = d.intern("middle");
        assert_eq!(d.ordered_upto(), 4);
        assert!(!d.is_ordered(late));
        d.intern("zzzz");
        assert_eq!(d.ordered_upto(), 4);
        // The name-table round-trip reconstructs the same watermark.
        let d2 = Dictionary::from_names(&d.names_from(0));
        assert_eq!(d2.ordered_upto(), 4);
        assert_eq!(d2.ordered_bounds("pear"), (pear.0, pear.0 + 1));
    }

    #[test]
    fn concurrent_intern_agrees() {
        let d = std::sync::Arc::new(Dictionary::new());
        let names: Vec<String> = (0..64).map(|i| format!("tag{}", i % 16)).collect();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = std::sync::Arc::clone(&d);
            let names = names.clone();
            handles.push(std::thread::spawn(move || {
                names.iter().map(|n| d.intern(n)).collect::<Vec<_>>()
            }));
        }
        let first = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>();
        assert!(first.iter().all(|syms| syms == &first[0]));
        assert_eq!(d.len(), 16);
    }
}
