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
//! Persistence: the table is append-only, so the store pages it the
//! same way — each commit packs the suffix no page holds yet
//! ([`Dictionary::names_from`]) onto a run of name pages, and the log
//! carries the runs and the names' lengths. Reopening reads the runs in
//! symbol order and rebuilds the identical `name → Sym` assignment that
//! the crashed process used — the numeric tags and content symbols on
//! the node pages stay valid across reopen.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// An interned string handle: index into the dictionary's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// The sentinel used by columnar content arrays for "no content". Never
/// handed out by [`Dictionary::intern`].
pub const NO_SYM: u32 = u32::MAX;

#[derive(Debug, Default)]
struct DictInner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
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
    /// wrote the snapshot. The dictionary keeps the names it is handed.
    pub fn from_names(names: Vec<Arc<str>>) -> Self {
        let ids = names.iter().zip(0..).map(|(n, i)| (Arc::clone(n), i));
        let ids = ids.collect();
        Dictionary {
            inner: RwLock::new(DictInner { names, ids }),
        }
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
        Sym(id)
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

    /// The names of symbols `from..len()` in symbol order: what a commit
    /// must page when symbols below `from` are already durable
    /// (`names_from(0)` is the whole table). Handles on the interned
    /// strings, not copies — the read lock is held for refcount bumps
    /// only, so interning queries do not stall behind a commit.
    pub fn names_from(&self, from: usize) -> Vec<Arc<str>> {
        read(self).names.get(from..).unwrap_or_default().to_vec()
    }
}

impl Clone for Dictionary {
    fn clone(&self) -> Self {
        Dictionary::from_names(read(self).names.clone())
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
        let d2 = Dictionary::from_names(snap.clone());
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
    fn a_restored_dictionary_keeps_the_names_it_is_handed() {
        let names: Vec<Arc<str>> = ["doc_root", "a", "some value"].map(Arc::from).to_vec();
        let d = Dictionary::from_names(names.clone());
        for (i, name) in names.iter().enumerate() {
            assert!(Arc::ptr_eq(&d.resolve(Sym(i as u32)), name), "{name}");
        }
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
