//! `Row` against the map it replaced.
//!
//! Every caller of a binding row relies on the contract the old
//! `BTreeMap<String, Value>` gave for free: names iterate in `str` order,
//! a later binding of a name replaces the earlier one, equality is
//! equality of the name → value map. This property test drives a `Row`
//! and such a map through the same random operations and compares them
//! after every step. The name pool straddles the inline/shared boundary
//! (22 bytes), holds prefixes of one another, and holds names whose byte
//! order differs from a case-insensitive or per-`char` reading.

use pg_cypher::Row;
use pg_graph::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 12] = [
    "a",
    "ab",
    "a_",
    "Z",
    "NEW",
    "NEWNODES",
    "é",
    "日本",
    "exactly_twenty_two_byt",
    "exactly_twenty_three_by",
    "removedVertexProperties_and_then_some",
    "removedVertexProperties_and_then_some_more",
];

type Model = BTreeMap<String, Value>;
type Pairs = Vec<(usize, i64)>;

#[derive(Debug, Clone)]
enum Op {
    Set(usize, i64),
    Get(usize),
    FromPairs(Pairs),
    MergeMissing(Pairs),
    CloneWithRoom(usize),
}

fn pairs() -> impl Strategy<Value = Pairs> {
    proptest::collection::vec((0..NAMES.len(), -3i64..3), 0..8)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len(), -3i64..3).prop_map(|(n, v)| Op::Set(n, v)),
        (0..NAMES.len(), -3i64..3).prop_map(|(n, v)| Op::Set(n, v)),
        (0..NAMES.len()).prop_map(Op::Get),
        pairs().prop_map(Op::FromPairs),
        pairs().prop_map(Op::MergeMissing),
        (0usize..3).prop_map(Op::CloneWithRoom),
    ]
}

fn named(pairs: &Pairs) -> impl Iterator<Item = (String, Value)> + '_ {
    pairs
        .iter()
        .map(|&(n, v)| (NAMES[n].to_string(), Value::Int(v)))
}

fn assert_same(row: &Row, model: &Model) {
    assert_eq!(row.len(), model.len());
    assert_eq!(row.is_empty(), model.is_empty());
    let names: Vec<&str> = row.names().collect();
    let want: Vec<&str> = model.keys().map(String::as_str).collect();
    assert_eq!(names, want, "name order");
    let entries: Vec<(&str, &Value)> = row.iter().collect();
    let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(entries, want);
    for name in NAMES {
        assert_eq!(row.get(name), model.get(name), "get {name}");
        assert_eq!(row.contains(name), model.contains_key(name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn row_behaves_like_the_map_it_replaced(ops in proptest::collection::vec(op(), 1..40)) {
        let (mut row, mut model) = (Row::new(), Model::new());
        for op in &ops {
            let (before_row, before_model) = (row.clone(), model.clone());
            match op {
                Op::Set(n, v) => {
                    row.set(NAMES[*n], Value::Int(*v));
                    model.insert(NAMES[*n].to_string(), Value::Int(*v));
                }
                Op::Get(n) => assert_eq!(row.get(NAMES[*n]), model.get(NAMES[*n])),
                Op::FromPairs(pairs) => {
                    // `collect` keeps the last of a duplicated name, too
                    row = Row::from_pairs(named(pairs));
                    model = named(pairs).collect();
                }
                Op::MergeMissing(pairs) => {
                    row.merge_missing(&Row::from_pairs(named(pairs)));
                    for (k, v) in named(pairs).collect::<Model>() {
                        model.entry(k).or_insert(v);
                    }
                }
                Op::CloneWithRoom(room) => row = row.clone_with_room(*room),
            }
            assert_same(&row, &model);
            assert_eq!(row == before_row, model == before_model, "== after {op:?}");
            assert_eq!(row.same_names(&before_row), model.keys().eq(before_model.keys()));
        }
    }
}
