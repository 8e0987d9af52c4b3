//! Graph validation against a [`GraphType`], including PG-Key uniqueness.

use crate::types::{CompiledGraphType, GraphType, KeyColumn, PropType};
use pg_graph::{
    CompositeTrailing, Graph, GraphView, IndexProbe, IndexScope, NodeId, NodeRecord, ProbeMode,
    RelId, RelRecord, Value,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// STRICT graph: node labels match no declared type.
    UntypedNode { node: NodeId, labels: Vec<String> },
    /// Node labels match more than one declared type (ambiguous in STRICT).
    AmbiguousNode { node: NodeId, types: Vec<String> },
    /// A required property is missing.
    MissingProp {
        node: NodeId,
        type_name: String,
        prop: String,
    },
    /// A property value has the wrong type.
    WrongPropType {
        node: NodeId,
        prop: String,
        expected: PropType,
        got: &'static str,
    },
    /// A closed type carries an undeclared property.
    UndeclaredProp {
        node: NodeId,
        type_name: String,
        prop: String,
    },
    /// Two nodes of the same type share a key (PG-Keys).
    DuplicateKey {
        type_name: String,
        key: Vec<String>,
        nodes: (NodeId, NodeId),
    },
    /// Relationship label matches no declared edge type.
    UntypedRel { rel: RelId, rel_type: String },
    /// Relationship endpoints don't conform to the edge type's signature.
    BadEndpoints { rel: RelId, edge_type: String },
    /// Edge property issues.
    RelMissingProp {
        rel: RelId,
        edge_type: String,
        prop: String,
    },
    RelWrongPropType {
        rel: RelId,
        prop: String,
        expected: PropType,
        got: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UntypedNode { node, labels } => {
                write!(
                    f,
                    "node {node} with labels {labels:?} matches no declared type"
                )
            }
            Violation::AmbiguousNode { node, types } => {
                write!(f, "node {node} matches multiple types {types:?}")
            }
            Violation::MissingProp {
                node,
                type_name,
                prop,
            } => {
                write!(
                    f,
                    "node {node} ({type_name}) misses required property '{prop}'"
                )
            }
            Violation::WrongPropType {
                node,
                prop,
                expected,
                got,
            } => {
                write!(
                    f,
                    "node {node} property '{prop}': expected {expected}, got {got}"
                )
            }
            Violation::UndeclaredProp {
                node,
                type_name,
                prop,
            } => {
                write!(
                    f,
                    "node {node} ({type_name}, closed) has undeclared property '{prop}'"
                )
            }
            Violation::DuplicateKey {
                type_name,
                key,
                nodes,
            } => {
                write!(
                    f,
                    "duplicate key {key:?} on {type_name}: {} and {}",
                    nodes.0, nodes.1
                )
            }
            Violation::UntypedRel { rel, rel_type } => {
                write!(
                    f,
                    "relationship {rel} of type '{rel_type}' matches no edge type"
                )
            }
            Violation::BadEndpoints { rel, edge_type } => {
                write!(
                    f,
                    "relationship {rel} violates the endpoint signature of {edge_type}"
                )
            }
            Violation::RelMissingProp {
                rel,
                edge_type,
                prop,
            } => {
                write!(
                    f,
                    "relationship {rel} ({edge_type}) misses required property '{prop}'"
                )
            }
            Violation::RelWrongPropType {
                rel,
                prop,
                expected,
                got,
            } => {
                write!(
                    f,
                    "relationship {rel} property '{prop}': expected {expected}, got {got}"
                )
            }
        }
    }
}

/// The per-item rules, each written once over the compiled graph type:
/// [`validate_graph`] applies them to every item, the trigger engine's
/// commit-time schema guard to the items a transaction touched.
impl CompiledGraphType {
    /// The node types whose **full** label set equals `labels` (0, 1 or
    /// more; a node is typed when there is exactly one).
    fn types_of(&self, labels: &BTreeSet<String>) -> &[usize] {
        self.by_labels.get(labels).map_or(&[], Vec::as_slice)
    }

    /// The unique node type of a label set, if any.
    fn type_of(&self, labels: &BTreeSet<String>) -> Option<usize> {
        match self.types_of(labels) {
            [t] => Some(*t),
            _ => None,
        }
    }

    /// Check one node: typing, then — when it has exactly one type —
    /// required, mistyped and (on a closed type) undeclared properties.
    pub fn check_node(&self, node: &NodeRecord, out: &mut Vec<Violation>) {
        let t = match self.types_of(&node.labels) {
            [] => {
                if self.strict {
                    out.push(Violation::UntypedNode {
                        node: node.id,
                        labels: node.labels.iter().cloned().collect(),
                    });
                }
                return;
            }
            [t] => &self.node_types[*t],
            many => {
                out.push(Violation::AmbiguousNode {
                    node: node.id,
                    types: many
                        .iter()
                        .map(|t| self.node_types[*t].name.clone())
                        .collect(),
                });
                return;
            }
        };
        for p in &t.props {
            match node.props.get(&p.name) {
                None if p.required => out.push(Violation::MissingProp {
                    node: node.id,
                    type_name: t.name.clone(),
                    prop: p.name.clone(),
                }),
                Some(v) if !p.prop_type.accepts(v) => out.push(Violation::WrongPropType {
                    node: node.id,
                    prop: p.name.clone(),
                    expected: p.prop_type.clone(),
                    got: v.type_name(),
                }),
                _ => {}
            }
        }
        if !t.open {
            let declared = |k: &String| t.props.binary_search_by(|p| p.name.cmp(k)).is_ok();
            for k in node.props.keys().filter(|k| !declared(k)) {
                out.push(Violation::UndeclaredProp {
                    node: node.id,
                    type_name: t.name.clone(),
                    prop: k.clone(),
                });
            }
        }
    }

    /// Check one relationship: its label names an edge type, some edge
    /// type of that label accepts its endpoints (endpoint subtyping
    /// allowed: the endpoint's type may inherit from the declared one),
    /// and its properties conform to the first such edge type. Endpoint
    /// types are resolved from the endpoints' current labels.
    pub fn check_rel(&self, graph: &Graph, rel: &RelRecord, out: &mut Vec<Violation>) {
        let candidates = match self.edges_by_label.get(&rel.rel_type) {
            Some(edges) => edges,
            None => {
                if self.strict {
                    out.push(Violation::UntypedRel {
                        rel: rel.id,
                        rel_type: rel.rel_type.clone(),
                    });
                }
                return;
            }
        };
        let endpoint = |id: NodeId| graph.node(id).and_then(|n| self.type_of(&n.labels));
        let (src, dst) = (endpoint(rel.src), endpoint(rel.dst));
        let accepts = |actual: Option<usize>, declared: Option<usize>| match (actual, declared) {
            (Some(a), Some(d)) => self.node_types[a].conforms_to[d],
            _ => false,
        };
        let matching = candidates
            .iter()
            .find(|e| accepts(src, e.src) && accepts(dst, e.dst));
        let Some(e) = matching else {
            out.push(Violation::BadEndpoints {
                rel: rel.id,
                edge_type: candidates[0].name.clone(),
            });
            return;
        };
        for p in &e.props {
            match rel.props.get(&p.name) {
                None if p.required => out.push(Violation::RelMissingProp {
                    rel: rel.id,
                    edge_type: e.name.clone(),
                    prop: p.name.clone(),
                }),
                Some(v) if !p.prop_type.accepts(v) => out.push(Violation::RelWrongPropType {
                    rel: rel.id,
                    prop: p.name.clone(),
                    expected: p.prop_type.clone(),
                    got: v.type_name(),
                }),
                _ => {}
            }
        }
    }

    /// The PG-Key of a node: its (unique, keyed) type and the image of its
    /// key-column values, absent ones as `NULL`. Two nodes hold the same
    /// key when both parts are equal — key spaces are per resolved type,
    /// and values are equal when they are the same value of the same type
    /// (`1`, `1.0` and `'1'` are three keys).
    fn key_of(&self, node: &NodeRecord) -> Option<(usize, Vec<String>)> {
        let t = self.type_of(&node.labels)?;
        let keys = &self.node_types[t].keys;
        let image =
            |k: &KeyColumn| format!("{:?}", node.props.get(&k.name).unwrap_or(&Value::Null));
        (!keys.is_empty()).then(|| (t, keys.iter().map(image).collect()))
    }

    /// Of the nodes holding one key, `first` is the lowest id and every
    /// other one a duplicate of it.
    fn duplicate_key(&self, t: usize, first: NodeId, duplicate: NodeId) -> Violation {
        let t = &self.node_types[t];
        Violation::DuplicateKey {
            type_name: t.name.clone(),
            key: t.keys.iter().map(|k| k.name.clone()).collect(),
            nodes: (first, duplicate),
        }
    }

    /// Whether `column` is part of the PG-Key of `node`'s type.
    pub fn is_key_column(&self, node: &NodeRecord, column: &str) -> bool {
        let t = self.type_of(&node.labels);
        t.is_some_and(|t| self.node_types[t].keys.iter().any(|k| k.name == column))
    }

    /// Check one node's key: the [`Violation::DuplicateKey`]s of
    /// [`validate_graph`] that involve `node`, each paired with the
    /// duplicate it is reported at.
    ///
    /// The other holders of the key are found by an equality probe on a
    /// key column's `KEY` index (see [`GraphType::index_defs`]), filtered
    /// by resolved type and the remaining columns. A column whose value
    /// equals nothing under Cypher equality (absent, `NaN`) or whose index
    /// does not answer (dropped, unkeyable value) is skipped; with no
    /// column left, the extent of one of the type's labels is scanned.
    pub fn check_key(&self, graph: &Graph, node: &NodeRecord) -> Vec<(NodeId, Violation)> {
        let Some((t, key)) = self.key_of(node) else {
            return Vec::new();
        };
        let nt = &self.node_types[t];
        let probed = nt.keys.iter().find_map(|k| {
            let value = node.props.get(&k.name).filter(|v| v.eq3(v) == Some(true))?;
            let probe = IndexProbe {
                columns: std::slice::from_ref(&k.name),
                eq: std::slice::from_ref(value),
                trailing: CompositeTrailing::None,
            };
            let scope = IndexScope::Label(k.index_label.as_deref()?);
            graph.probe(scope, probe, ProbeMode::Ids)
        });
        let candidates: Vec<NodeId> = match (probed, nt.labels.first()) {
            (Some(hits), _) => hits.into_ids(),
            (None, Some(label)) => graph.nodes_with_label(label),
            (None, None) => graph.all_node_ids(),
        };
        let same_key = |id: &NodeId| {
            let peer = graph.node(*id).and_then(|n| self.key_of(n));
            peer.is_some_and(|(peer_type, peer_key)| peer_type == t && peer_key == key)
        };
        let mut holders: Vec<NodeId> = candidates.into_iter().filter(same_key).collect();
        holders.sort_unstable();
        let Some((&first, duplicates)) = holders.split_first() else {
            return Vec::new();
        };
        duplicates
            .iter()
            .filter(|&&d| first == node.id || d == node.id)
            .map(|&d| (d, self.duplicate_key(t, first, d)))
            .collect()
    }
}

/// Validate an entire graph against a graph type: the per-item rules of
/// [`CompiledGraphType`] applied to every node (ascending id), then every
/// relationship (ascending id). Returns all violations (empty =
/// conformant).
pub fn validate_graph(graph: &Graph, gt: &GraphType) -> Vec<Violation> {
    let compiled = CompiledGraphType::new(gt);
    let mut out = Vec::new();
    // key uniqueness: (type, key image) -> first node holding it
    let mut first_with: BTreeMap<(usize, Vec<String>), NodeId> = BTreeMap::new();
    for id in graph.all_node_ids() {
        let node = graph.node(id).expect("listed node exists");
        compiled.check_node(node, &mut out);
        if let Some((t, key)) = compiled.key_of(node) {
            match first_with.entry((t, key)) {
                Entry::Occupied(first) => out.push(compiled.duplicate_key(t, *first.get(), id)),
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
            }
        }
    }
    for id in graph.all_rel_ids() {
        let rel = graph.rel(id).expect("listed rel exists");
        compiled.check_rel(graph, rel, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::parse_graph_type;
    use pg_graph::PropertyMap;

    fn schema() -> GraphType {
        parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PatientType: Patient {ssn STRING KEY, name STRING}),
               (HospitalizedPatientType: PatientType & HospitalizedPatient {prognosis STRING}),
               (HospitalType: Hospital {name STRING, icuBeds INT32}),
               (AlertType: Alert OPEN {desc STRING}),
               (:HospitalizedPatientType)-[TreatedAtType: TreatedAt]->(:HospitalType),
               (:HospitalType)-[ConnType: ConnectedTo {distance INT32}]->(:HospitalType)
             }",
        )
        .unwrap()
    }

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn valid_patient(g: &mut Graph, ssn: &str) -> NodeId {
        g.create_node(
            ["Patient"],
            props(&[("ssn", Value::str(ssn)), ("name", Value::str("P"))]),
        )
        .unwrap()
    }

    #[test]
    fn conformant_graph_passes() {
        let gt = schema();
        let mut g = Graph::new();
        valid_patient(&mut g, "a");
        let hp = g
            .create_node(
                ["Patient", "HospitalizedPatient"],
                props(&[
                    ("ssn", Value::str("b")),
                    ("name", Value::str("Q")),
                    ("prognosis", Value::str("severe")),
                ]),
            )
            .unwrap();
        let h = g
            .create_node(
                ["Hospital"],
                props(&[("name", Value::str("Sacco")), ("icuBeds", Value::Int(50))]),
            )
            .unwrap();
        g.create_rel(hp, h, "TreatedAt", PropertyMap::new())
            .unwrap();
        assert_eq!(validate_graph(&g, &gt), vec![]);
    }

    #[test]
    fn strict_rejects_untyped_nodes() {
        let gt = schema();
        let mut g = Graph::new();
        g.create_node(["Stranger"], PropertyMap::new()).unwrap();
        let v = validate_graph(&g, &gt);
        assert!(matches!(v[0], Violation::UntypedNode { .. }));
    }

    #[test]
    fn missing_and_wrong_props_flagged() {
        let gt = schema();
        let mut g = Graph::new();
        g.create_node(["Patient"], props(&[("ssn", Value::Int(1))]))
            .unwrap();
        let v = validate_graph(&g, &gt);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MissingProp { prop, .. } if prop == "name")));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WrongPropType { prop, .. } if prop == "ssn")));
    }

    #[test]
    fn closed_type_rejects_extra_props_open_allows() {
        let gt = schema();
        let mut g = Graph::new();
        g.create_node(
            ["Patient"],
            props(&[
                ("ssn", Value::str("a")),
                ("name", Value::str("x")),
                ("surprise", Value::Int(1)),
            ]),
        )
        .unwrap();
        let v = validate_graph(&g, &gt);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::UndeclaredProp { prop, .. } if prop == "surprise")));

        // Alert is OPEN: arbitrary properties allowed (paper §6.2).
        let mut g = Graph::new();
        g.create_node(
            ["Alert"],
            props(&[
                ("desc", Value::str("New critical mutation")),
                ("mutation", Value::str("D614G")),
                ("lineage", Value::str("B.1.1.7")),
            ]),
        )
        .unwrap();
        assert_eq!(validate_graph(&g, &gt), vec![]);
    }

    #[test]
    fn pg_key_uniqueness_enforced() {
        let gt = schema();
        let mut g = Graph::new();
        valid_patient(&mut g, "dup");
        valid_patient(&mut g, "dup");
        let v = validate_graph(&g, &gt);
        assert!(matches!(v[0], Violation::DuplicateKey { .. }));
        // keys inherited: Patient + HospitalizedPatient share the ssn space?
        // No — keys are per-type; subtypes have their own extent.
    }

    #[test]
    fn keys_compare_values_not_their_printed_form() {
        let gt =
            parse_graph_type("CREATE GRAPH TYPE G STRICT { (TagType: Tag {id ANY KEY}) }").unwrap();
        let mut g = Graph::new();
        for id in [Value::Int(1), Value::str("1"), Value::Float(1.0)] {
            g.create_node(["Tag"], props(&[("id", id)])).unwrap();
        }
        assert_eq!(validate_graph(&g, &gt), vec![]);
        let twin = g.create_node(["Tag"], props(&[("id", Value::str("1"))]));
        let v = validate_graph(&g, &gt);
        assert!(
            matches!(v.as_slice(), [Violation::DuplicateKey { nodes, .. }]
                if *nodes == (NodeId(1), twin.unwrap())),
            "{v:?}"
        );
    }

    #[test]
    fn edge_endpoint_signature_enforced() {
        let gt = schema();
        let mut g = Graph::new();
        let p = valid_patient(&mut g, "a");
        let h = g
            .create_node(
                ["Hospital"],
                props(&[("name", Value::str("H")), ("icuBeds", Value::Int(1))]),
            )
            .unwrap();
        // TreatedAt requires HospitalizedPatientType source; a plain Patient
        // is a supertype, not a subtype → violation.
        g.create_rel(p, h, "TreatedAt", PropertyMap::new()).unwrap();
        let v = validate_graph(&g, &gt);
        assert!(matches!(v[0], Violation::BadEndpoints { .. }));
    }

    #[test]
    fn unknown_rel_label_in_strict() {
        let gt = schema();
        let mut g = Graph::new();
        let a = valid_patient(&mut g, "a");
        let b = valid_patient(&mut g, "b");
        g.create_rel(a, b, "Mystery", PropertyMap::new()).unwrap();
        let v = validate_graph(&g, &gt);
        assert!(matches!(v[0], Violation::UntypedRel { .. }));
    }

    #[test]
    fn edge_props_validated() {
        let gt = schema();
        let mut g = Graph::new();
        let h1 = g
            .create_node(
                ["Hospital"],
                props(&[("name", Value::str("A")), ("icuBeds", Value::Int(1))]),
            )
            .unwrap();
        let h2 = g
            .create_node(
                ["Hospital"],
                props(&[("name", Value::str("B")), ("icuBeds", Value::Int(1))]),
            )
            .unwrap();
        g.create_rel(
            h1,
            h2,
            "ConnectedTo",
            props(&[("distance", Value::str("far"))]),
        )
        .unwrap();
        let v = validate_graph(&g, &gt);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::RelWrongPropType { .. })));
        g.create_rel(h1, h2, "ConnectedTo", PropertyMap::new())
            .unwrap();
        let v = validate_graph(&g, &gt);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::RelMissingProp { .. })));
    }

    #[test]
    fn subtype_endpoints_accepted() {
        // ICU patients (subtype) can still be TreatedAt a hospital if the
        // schema declares the supertype as endpoint.
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PatientType: Patient {ssn STRING}),
               (HospitalizedPatientType: PatientType & HospitalizedPatient {}),
               (HospitalType: Hospital {}),
               (:PatientType)-[TreatedAtType: TreatedAt]->(:HospitalType)
             }",
        )
        .unwrap();
        let mut g = Graph::new();
        let hp = g
            .create_node(
                ["Patient", "HospitalizedPatient"],
                props(&[("ssn", Value::str("x"))]),
            )
            .unwrap();
        let h = g.create_node(["Hospital"], PropertyMap::new()).unwrap();
        g.create_rel(hp, h, "TreatedAt", PropertyMap::new())
            .unwrap();
        assert_eq!(validate_graph(&g, &gt), vec![]);
    }
}
