//! Binding rows: the unit of data flowing through a clause pipeline.
//!
//! **Layout.** A [`Row`] is one `Vec<(Name, Value)>` kept sorted by name
//! (byte order, which for UTF-8 is `str` order — the order the
//! `BTreeMap<String, Value>` it replaced iterated in, so `RETURN *` column
//! order and [`QueryOutput::bindings`] are unchanged). Lookups binary-search
//! the vector; rows hold a handful of names, so an insert is a short
//! `memmove`.
//!
//! **The one-allocation invariant.** Every `MATCH` step copies a binding
//! row — once per candidate, per hop — so a copy must cost one heap
//! allocation whatever the row holds: cloning a row allocates its vector
//! and nothing else (nothing at all for the empty row), scalar values
//! (`Node`, `Rel`, `Int`, …) copy in place, and
//! [`Row::clone_with_room`] sizes the copy for the names about to be bound
//! so the following [`Row::set`]s never reallocate. (A `Str`/`List`/`Map`
//! *value* still clones its own buffer; that is the value's cost, not the
//! row's.)
//!
//! **Why names are inline or shared.** A `String` per name would put one
//! allocation per bound variable back into every copy. A name of up to
//! 22 bytes (`INLINE_NAME`) — every transition variable and nearly every
//! user variable — is stored in the entry itself and copies with it; a
//! longer one is an `Arc<str>` whose copy is a reference-count increment.
//! Either way a name is 24 bytes and copying it never allocates.

use pg_graph::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Query parameters (`$name`).
pub type Params = BTreeMap<String, Value>;

/// Longest variable name (in bytes) a row entry stores inline.
const INLINE_NAME: usize = 22;

/// A variable name that copies without allocating (see the module docs).
#[derive(Clone)]
enum Name {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Shared(Arc<str>),
}

impl Name {
    fn new(name: &str) -> Name {
        if name.len() > INLINE_NAME {
            return Name::Shared(Arc::from(name));
        }
        let mut bytes = [0; INLINE_NAME];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Name::Inline {
            len: name.len() as u8,
            bytes,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Name::Shared(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline names are copied from a str")
            }
            Name::Shared(s) => s,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A binding row: variable name → value, sorted by name for deterministic
/// output. One heap allocation per copy (see the module docs).
#[derive(Debug, Default, PartialEq)]
pub struct Row {
    vars: Vec<(Name, Value)>,
}

impl Clone for Row {
    fn clone(&self) -> Row {
        self.clone_with_room(0)
    }
}

impl Row {
    pub fn new() -> Row {
        Row::default()
    }

    /// An empty row with room for `names` bindings.
    pub fn with_capacity(names: usize) -> Row {
        Row {
            vars: Vec::with_capacity(names),
        }
    }

    /// A copy with room to [`Row::set`] `room` more names without
    /// reallocating: exactly one allocation (none when the copy is empty
    /// and `room` is 0).
    pub fn clone_with_room(&self, room: usize) -> Row {
        let mut vars = Vec::with_capacity(self.vars.len() + room);
        vars.extend(self.vars.iter().cloned());
        Row { vars }
    }

    /// The slot of `name`: `Ok` where it is bound, `Err` where it would
    /// be inserted.
    fn slot(&self, name: &[u8]) -> Result<usize, usize> {
        self.vars.binary_search_by(|(n, _)| n.as_bytes().cmp(name))
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.slot(name.as_bytes()).ok().map(|i| &self.vars[i].1)
    }

    /// Bind `name` to `value`, replacing an earlier binding.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) {
        let name = name.as_ref();
        match self.slot(name.as_bytes()) {
            Ok(i) => self.vars[i].1 = value,
            Err(i) => self.vars.insert(i, (Name::new(name), value)),
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.slot(name.as_bytes()).is_ok()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.vars.iter().map(|(n, _)| n.as_str())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.vars.iter().map(|(n, v)| (n.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Whether `other` binds exactly the names this row binds.
    pub fn same_names(&self, other: &Row) -> bool {
        self.vars.len() == other.vars.len()
            && self.vars.iter().zip(&other.vars).all(|(a, b)| a.0 == b.0)
    }

    /// Bind every name of `other` this row does not bind yet to `other`'s
    /// value — one merge of the two sorted vectors. A row that already
    /// binds them all is left untouched.
    pub fn merge_missing(&mut self, other: &Row) {
        if other
            .vars
            .iter()
            .all(|(n, _)| self.slot(n.as_bytes()).is_ok())
        {
            return;
        }
        let mut merged = Vec::with_capacity(self.vars.len() + other.vars.len());
        let mut mine = std::mem::take(&mut self.vars).into_iter().peekable();
        for theirs in &other.vars {
            while let Some(m) = mine.next_if(|m| m.0.as_bytes() < theirs.0.as_bytes()) {
                merged.push(m);
            }
            if mine.peek().is_none_or(|m| m.0 != theirs.0) {
                merged.push(theirs.clone());
            }
        }
        merged.extend(mine);
        self.vars = merged;
    }

    /// Build a row from `(name, value)` pairs; the last of a duplicated
    /// name wins.
    pub fn from_pairs<N: AsRef<str>>(pairs: impl IntoIterator<Item = (N, Value)>) -> Row {
        let pairs = pairs.into_iter();
        let mut row = Row::with_capacity(pairs.size_hint().0);
        for (name, value) in pairs {
            row.set(name, value);
        }
        row
    }
}

/// The result of executing a query: the `RETURN` projection (if any) plus
/// the final binding rows (used by the trigger engine to seed trigger
/// statements with the bindings surviving the condition).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutput {
    /// Column names of the `RETURN` clause (empty when the query does not
    /// return anything).
    pub columns: Vec<String>,
    /// Returned rows, aligned with `columns`.
    pub rows: Vec<Vec<Value>>,
    /// The binding rows after the last clause.
    pub bindings: Vec<Row>,
}

impl QueryOutput {
    /// First returned value of the first row, if any. Convenience accessor
    /// for single-value queries in tests and examples.
    pub fn single(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_basics() {
        let mut r = Row::new();
        assert!(r.is_empty());
        r.set("a", Value::Int(1));
        r.set("a", Value::Int(2));
        assert_eq!(r.get("a"), Some(&Value::Int(2)));
        assert_eq!(r.len(), 1);
        assert!(r.contains("a"));
        assert!(!r.contains("b"));
    }

    #[test]
    fn names_are_24_bytes_inline_or_shared() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        let short = "n".repeat(INLINE_NAME);
        let long = "n".repeat(INLINE_NAME + 1);
        assert!(matches!(Name::new(&short), Name::Inline { .. }));
        assert!(matches!(Name::new(&long), Name::Shared(_)));
        assert_eq!(Name::new(&short).as_str(), short);
        assert_eq!(Name::new(&long).as_str(), long);
    }

    #[test]
    fn rows_ordered_by_name() {
        let r = Row::from_pairs([
            ("z".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
        ]);
        let names: Vec<_> = r.names().collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn output_single() {
        let out = QueryOutput {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(42)]],
            bindings: vec![],
        };
        assert_eq!(out.single(), Some(&Value::Int(42)));
        assert_eq!(QueryOutput::default().single(), None);
    }
}
