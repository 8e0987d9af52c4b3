//! Behaviour of the text → `Prepared` cache: what it shares, what it
//! refuses to keep, and that it stays bounded.

use pg_cypher::{StatementCache, STATEMENT_CACHE_CAPACITY};
use std::sync::Arc;

#[test]
fn the_same_text_is_prepared_once() {
    let mut cache = StatementCache::new();
    let a = cache
        .get_or_prepare("MATCH (p:P {k: $k}) RETURN p")
        .unwrap();
    let b = cache
        .get_or_prepare("MATCH (p:P {k: $k}) RETURN p")
        .unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(cache.len(), 1);
}

#[test]
fn a_text_that_fails_to_parse_is_not_cached() {
    let mut cache = StatementCache::new();
    let first = cache.get_or_prepare("MATCH (p:P RETURN p").unwrap_err();
    assert!(cache.is_empty());
    let second = cache.get_or_prepare("MATCH (p:P RETURN p").unwrap_err();
    assert_eq!(first, second);
    assert!(cache.is_empty());
}

#[test]
fn all_distinct_texts_never_outgrow_the_capacity() {
    // The `wire_covid_mixed` shape: literals inlined, nothing repeats.
    let mut cache = StatementCache::new();
    let mut high_water = 0;
    for i in 0..10_000 {
        let text = format!("CREATE (:Patient {{ssn: 'P{i}', admitted: {i}}})");
        cache.get_or_prepare(&text).unwrap();
        high_water = high_water.max(cache.len());
    }
    assert_eq!(high_water, STATEMENT_CACHE_CAPACITY);
    assert!(
        !cache.is_empty(),
        "clearing makes room, then the insert lands"
    );
}

#[test]
fn a_hot_text_survives_until_the_next_clearing_and_is_reprepared_after() {
    let mut cache = StatementCache::new();
    let hot = "MATCH (p:P {k: $k}) RETURN p";
    let before = cache.get_or_prepare(hot).unwrap();
    for i in 1..STATEMENT_CACHE_CAPACITY {
        cache.get_or_prepare(&format!("RETURN {i}")).unwrap();
    }
    assert!(Arc::ptr_eq(&before, &cache.get_or_prepare(hot).unwrap()));
    // The insert that finds the cache full clears it.
    cache.get_or_prepare("RETURN 0").unwrap();
    assert_eq!(cache.len(), 1);
    let after = cache.get_or_prepare(hot).unwrap();
    assert!(!Arc::ptr_eq(&before, &after));
    assert_eq!(before, after, "a re-preparation is the same statement");
}

#[test]
fn whitespace_is_part_of_the_key() {
    let mut cache = StatementCache::new();
    let a = cache.get_or_prepare("MATCH (n) RETURN n").unwrap();
    let b = cache.get_or_prepare("MATCH (n)  RETURN n").unwrap();
    let c = cache.get_or_prepare(" MATCH (n) RETURN n").unwrap();
    assert!(!Arc::ptr_eq(&a, &b) && !Arc::ptr_eq(&a, &c));
    assert_eq!(cache.len(), 3);
    assert_eq!(a, b, "different keys, equal statements");
}
