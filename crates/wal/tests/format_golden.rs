//! On-disk format pin: `snapshot.pgs` bytes are a contract with every
//! durable directory already written. Index definitions travel as four
//! lists — single-key and multi-key, for nodes and for relationships —
//! whatever the in-memory index representation is, so a fixed graph must
//! keep encoding to exactly the bytes recorded here, and those bytes must
//! keep recovering.

use pg_graph::{Graph, IndexDef, PropertyMap, Value};
use pg_wal::encode_snapshot;
use pg_wal::snapshot::decode_snapshot;

/// `encode_snapshot(&fixture(), 7)` as written by the two-core store that
/// preceded the unified index (PR 11).
const GOLDEN_HEX: &str = "5047534e4150303109020000000000008977ed290700000000000000040000000000000002000000000000000100000008000000486f73706974616c040000006e616d6501000000090000005472656174656441740500000073696e6365010000000700000050617469656e74020000000600000073746174757308000000736576657269747901000000090000005472656174656441740200000004000000776172640500000073696e6365040000000000000000000000000000000100000008000000486f73706974616c02000000040000006e616d650405000000536163636f090000006f63637570616e637903666666666666ee3f0100000000000000010000000700000050617469656e74020000000800000073657665726974790207000000000000000600000073746174757304030000004943550200000000000000010000000700000050617469656e7401000000060000007374617475730404000000776172640300000000000000020000000700000050617469656e740300000056697001000000080000007365766572697479020000000000002000020000000000000000000000000000000900000054726561746564417401000000000000000000000000000000020000000500000073696e636505384a00000000000004000000776172640203000000000000000100000000000000090000005472656174656441740200000000000000000000000000000000000000";

fn props(entries: &[(&str, Value)]) -> PropertyMap {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Six records (four nodes, two relationships) and one definition of each
/// DDL shape. One patient lacks an indexed column and one holds a ±2⁵³
/// lossy numeric, so the multi-key node index has a missing-marker entry
/// and an exclusion — neither may show up on disk.
fn fixture() -> Graph {
    let mut g = Graph::new();
    let sacco = g
        .create_node(
            ["Hospital"],
            props(&[
                ("name", Value::str("Sacco")),
                ("occupancy", Value::Float(0.95)),
            ]),
        )
        .unwrap();
    let icu = g
        .create_node(
            ["Patient"],
            props(&[("status", Value::str("ICU")), ("severity", Value::Int(7))]),
        )
        .unwrap();
    let ward = g
        .create_node(["Patient"], props(&[("status", Value::str("ward"))]))
        .unwrap();
    g.create_node(
        ["Patient", "Vip"],
        props(&[("severity", Value::Int(1 << 53))]),
    )
    .unwrap();
    g.create_rel(
        icu,
        sacco,
        "TreatedAt",
        props(&[("since", Value::Date(19_000)), ("ward", Value::Int(3))]),
    )
    .unwrap();
    g.create_rel(ward, sacco, "TreatedAt", PropertyMap::new())
        .unwrap();
    g.create_index("Hospital", "name");
    g.define_index(&IndexDef::rel("TreatedAt", &["since"]));
    g.create_composite_index("Patient", &["status".to_string(), "severity".to_string()]);
    g.define_index(&IndexDef::rel("TreatedAt", &["ward", "since"]));
    g
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn snapshot_bytes_are_unchanged() {
    assert_eq!(hex(&encode_snapshot(&fixture(), 7)), GOLDEN_HEX);
}

#[test]
fn parent_format_snapshot_still_recovers() {
    let loaded = decode_snapshot(&unhex(GOLDEN_HEX)).expect("golden snapshot decodes");
    assert_eq!((loaded.seq, loaded.nodes, loaded.rels), (7, 4, 2));
    let (g, want) = (loaded.graph, fixture());
    // every definition comes back with the scope and width it was
    // written with
    assert_eq!(g.indexes(), want.indexes());
    assert_eq!(
        g.indexes(),
        [
            IndexDef::node("Hospital", &["name"]),
            IndexDef::node("Patient", &["status", "severity"]),
            IndexDef::rel("TreatedAt", &["since"]),
            IndexDef::rel("TreatedAt", &["ward", "since"]),
        ]
    );
    // records and watermarks survive, and the rebuilt indexes answer
    assert!(g.nodes().eq(want.nodes()) && g.rels().eq(want.rels()));
    assert_eq!(g.id_watermarks(), want.id_watermarks());
    assert_eq!(
        g.nodes_with_prop("Hospital", "name", &Value::str("Sacco")),
        want.nodes_with_prop("Hospital", "name", &Value::str("Sacco")),
    );
    assert_eq!(
        g.rels_with_prop("TreatedAt", "since", &Value::Date(19_000))
            .map(|r| r.len()),
        Some(1)
    );
    // a recovered store re-encodes to the very same bytes
    assert_eq!(hex(&encode_snapshot(&g, 7)), GOLDEN_HEX);
}
