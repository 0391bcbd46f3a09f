//! String interner for labels and attribute keys.
//!
//! Graph elements reference labels by
//! [`LabelId`](crate::LabelId)/[`AttrKeyId`](crate::AttrKeyId); all
//! string comparisons on hot paths thus reduce to `u32` equality. The
//! interner is append-only: ids are dense, stable, and never recycled, so
//! they can be used directly as indexes into side tables (label and
//! value indexes).

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// An append-only string ↔ dense-id bijection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Interner {
    strings: Vec<String>,
    #[serde(skip)]
    lookup: FxHashMap<String, u32>,
}

impl Interner {
    /// New, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its dense id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.lookup.insert(s.to_owned(), id);
        id
    }

    /// Look up the id of `s` without interning.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Resolve an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Resolve, returning `None` for unknown ids.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }

    /// Rebuild the reverse lookup after deserialization (serde skips it).
    pub fn rebuild_lookup(&mut self) {
        self.lookup = self
            .strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("Person");
        let b = it.intern("City");
        let a2 = it.intern("Person");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.resolve(a), "Person");
        assert_eq!(it.resolve(b), "City");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut it = Interner::new();
        for (i, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(it.intern(s), i as u32);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut it = Interner::new();
        assert_eq!(it.get("x"), None);
        let id = it.intern("x");
        assert_eq!(it.get("x"), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn serde_round_trip_rebuilds_lookup() {
        let mut it = Interner::new();
        it.intern("alpha");
        it.intern("beta");
        let json = serde_json::to_string(&it).unwrap();
        let mut back: Interner = serde_json::from_str(&json).unwrap();
        back.rebuild_lookup();
        assert_eq!(back.get("beta"), Some(1));
        assert_eq!(back.intern("alpha"), 0);
        assert_eq!(back.intern("gamma"), 2);
    }

    #[test]
    fn try_resolve_handles_unknown() {
        let it = Interner::new();
        assert_eq!(it.try_resolve(0), None);
    }
}
