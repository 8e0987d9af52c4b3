//! Property maps attached to nodes and relationships.

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// An ordered `⟨property, value⟩` map. `NULL` is never stored: assigning
/// `NULL` to a property removes it, following Cypher `SET` semantics.
///
/// Kept as a vector sorted by key: items carry a handful of properties, so
/// a lookup is a short binary search, and a record pays for the entries it
/// has rather than for a B-tree leaf sized for eleven.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PropertyMap {
    /// Sorted by key; keys are unique.
    entries: Vec<(String, Value)>,
}

impl PropertyMap {
    pub const fn new() -> Self {
        PropertyMap {
            entries: Vec::new(),
        }
    }

    /// The position of `key`, or where it would be inserted.
    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Get a property value (`None` when absent; callers usually map this to
    /// `Value::Null`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Insert/overwrite a property, returning the previous value. Inserting
    /// `NULL` removes the key instead.
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        if value.is_null() {
            return self.remove(&key);
        }
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove a property, returning its old value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.position(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.position(key).is_ok()
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_> {
        self.into_iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Convert into a `Value::Map` (used to materialize `OLD` transition
    /// variables for deleted items, paper §4.2 "Transition Variables").
    pub fn to_value(&self) -> Value {
        Value::Map(self.entries.iter().cloned().collect())
    }
}

impl FromIterator<(String, Value)> for PropertyMap {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut pm = PropertyMap::new();
        for (k, v) in iter {
            pm.set(k, v);
        }
        pm
    }
}

/// Borrowing iterator over a [`PropertyMap`], in key order.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (String, Value)>,
    fn(&'a (String, Value)) -> (&'a String, &'a Value),
>;

impl<'a> IntoIterator for &'a PropertyMap {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut pm = PropertyMap::new();
        assert_eq!(pm.set("a", Value::Int(1)), None);
        assert_eq!(pm.get("a"), Some(&Value::Int(1)));
        assert_eq!(pm.set("a", Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(pm.remove("a"), Some(Value::Int(2)));
        assert!(pm.is_empty());
    }

    #[test]
    fn setting_null_removes() {
        let mut pm = PropertyMap::new();
        pm.set("a", Value::Int(1));
        assert_eq!(pm.set("a", Value::Null), Some(Value::Int(1)));
        assert!(!pm.contains("a"));
        // setting NULL on an absent key is a no-op
        assert_eq!(pm.set("b", Value::Null), None);
        assert!(pm.is_empty());
    }

    #[test]
    fn to_value_materializes_map() {
        let pm: PropertyMap = [("x".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(
            pm.to_value(),
            Value::map([("x".to_string(), Value::Int(1))])
        );
    }

    #[test]
    fn from_iter_drops_nulls() {
        let pm: PropertyMap = [
            ("x".to_string(), Value::Int(1)),
            ("y".to_string(), Value::Null),
        ]
        .into_iter()
        .collect();
        assert_eq!(pm.len(), 1);
    }
}
