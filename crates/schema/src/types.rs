//! Graph-type definitions: node types, edge types, property types, keys.

use pg_graph::{IndexDef, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A property type (the subset used by the paper's Figure 4 schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropType {
    String,
    Int32,
    Int64,
    Float,
    Bool,
    Date,
    DateTime,
    /// `ARRAY[t]`, e.g. the paper's `comorbidity: ARRAY[string]`.
    Array(Box<PropType>),
    /// Any storable value.
    Any,
}

impl PropType {
    /// Whether `v` conforms to this type.
    pub fn accepts(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true, // absence handled by `required`
            (PropType::String, Value::Str(_)) => true,
            (PropType::Int32, Value::Int(i)) => *i >= i32::MIN as i64 && *i <= i32::MAX as i64,
            (PropType::Int64, Value::Int(_)) => true,
            (PropType::Float, Value::Float(_) | Value::Int(_)) => true,
            (PropType::Bool, Value::Bool(_)) => true,
            (PropType::Date, Value::Date(_)) => true,
            (PropType::DateTime, Value::DateTime(_)) => true,
            (PropType::Array(inner), Value::List(items)) => items.iter().all(|i| inner.accepts(i)),
            (PropType::Any, _) => true,
            _ => false,
        }
    }

    /// Parse a type name (`STRING`, `INT32`, `ARRAY[string]`, …).
    pub fn parse(name: &str) -> Option<PropType> {
        let up = name.trim().to_ascii_uppercase();
        Some(match up.as_str() {
            "STRING" | "STR" => PropType::String,
            "INT32" | "INT" | "INTEGER" => PropType::Int32,
            "INT64" | "LONG" => PropType::Int64,
            "FLOAT" | "DOUBLE" => PropType::Float,
            "BOOL" | "BOOLEAN" => PropType::Bool,
            "DATE" => PropType::Date,
            "DATETIME" | "TIMESTAMP" => PropType::DateTime,
            "ANY" => PropType::Any,
            _ => {
                if let Some(rest) = up.strip_prefix("ARRAY[") {
                    let inner = rest.strip_suffix(']')?;
                    return Some(PropType::Array(Box::new(PropType::parse(inner)?)));
                }
                return None;
            }
        })
    }
}

impl fmt::Display for PropType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropType::String => write!(f, "STRING"),
            PropType::Int32 => write!(f, "INT32"),
            PropType::Int64 => write!(f, "INT64"),
            PropType::Float => write!(f, "FLOAT"),
            PropType::Bool => write!(f, "BOOL"),
            PropType::Date => write!(f, "DATE"),
            PropType::DateTime => write!(f, "DATETIME"),
            PropType::Array(t) => write!(f, "ARRAY[{t}]"),
            PropType::Any => write!(f, "ANY"),
        }
    }
}

/// One property declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct PropDef {
    pub name: String,
    pub prop_type: PropType,
    /// `OPTIONAL` properties may be absent.
    pub required: bool,
    /// `KEY` properties form the type's PG-Key (unique, mandatory).
    pub key: bool,
    /// `INDEX` properties request a property index on `(label, name)`
    /// for every own label of the declaring type. `KEY` implies an index
    /// (key-based access is the point of a key).
    pub indexed: bool,
}

/// A node type: a set of labels (own + inherited), property declarations,
/// and openness.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTypeDef {
    /// Type name (e.g. `PatientType`).
    pub name: String,
    /// Declared supertypes (type names), e.g. `HospitalizedPatientType`
    /// inherits from `PatientType`.
    pub supertypes: Vec<String>,
    /// Own labels (excluding inherited).
    pub labels: Vec<String>,
    /// Own property declarations (excluding inherited).
    pub props: Vec<PropDef>,
    /// Composite `INDEX (k1, k2, …)` declarations: each requests one
    /// composite index over the listed property columns for every own
    /// label of the type.
    pub composite_indexes: Vec<Vec<String>>,
    /// `OPEN` types tolerate undeclared extra properties (the paper's Alert
    /// nodes, §6.2: "a new, OPEN type (allowing for the inclusion of
    /// arbitrary properties)").
    pub open: bool,
}

/// An edge type: a label plus source/destination node-type names.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTypeDef {
    pub name: String,
    pub label: String,
    pub src_type: String,
    pub dst_type: String,
    pub props: Vec<PropDef>,
    /// Composite `INDEX (k1, k2, …)` declarations over edge properties.
    pub composite_indexes: Vec<Vec<String>>,
}

/// Errors building or resolving a graph type.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    DuplicateType(String),
    UnknownSupertype { t: String, supertype: String },
    UnknownEndpointType { edge: String, endpoint: String },
    CyclicInheritance(String),
    Parse(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateType(t) => write!(f, "duplicate type '{t}'"),
            SchemaError::UnknownSupertype { t, supertype } => {
                write!(f, "type '{t}' inherits from unknown type '{supertype}'")
            }
            SchemaError::UnknownEndpointType { edge, endpoint } => {
                write!(
                    f,
                    "edge type '{edge}' references unknown node type '{endpoint}'"
                )
            }
            SchemaError::CyclicInheritance(t) => write!(f, "cyclic inheritance through '{t}'"),
            SchemaError::Parse(msg) => write!(f, "schema parse error: {msg}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A complete graph type (the content of `CREATE GRAPH TYPE … { … }`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphType {
    pub name: String,
    /// STRICT graph types require every node to conform to exactly one
    /// declared type; non-strict (LOOSE) graphs tolerate untyped nodes.
    pub strict: bool,
    pub node_types: Vec<NodeTypeDef>,
    pub edge_types: Vec<EdgeTypeDef>,
}

impl GraphType {
    /// Look up a node type by name.
    pub fn node_type(&self, name: &str) -> Option<&NodeTypeDef> {
        self.node_types.iter().find(|t| t.name == name)
    }

    /// Look up an edge type by name.
    pub fn edge_type(&self, name: &str) -> Option<&EdgeTypeDef> {
        self.edge_types.iter().find(|t| t.name == name)
    }

    /// Validate internal consistency (types resolve, no inheritance cycles).
    pub fn check(&self) -> Result<(), SchemaError> {
        let mut seen = BTreeSet::new();
        for t in &self.node_types {
            if !seen.insert(&t.name) {
                return Err(SchemaError::DuplicateType(t.name.clone()));
            }
            for s in &t.supertypes {
                if self.node_type(s).is_none() {
                    return Err(SchemaError::UnknownSupertype {
                        t: t.name.clone(),
                        supertype: s.clone(),
                    });
                }
            }
        }
        for t in &self.node_types {
            // cycle detection via DFS
            let mut stack = vec![&t.name];
            let mut visited = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if !visited.insert(n.clone()) {
                    return Err(SchemaError::CyclicInheritance(t.name.clone()));
                }
                if let Some(def) = self.node_type(n) {
                    for s in &def.supertypes {
                        stack.push(s);
                    }
                }
            }
        }
        for e in &self.edge_types {
            for endpoint in [&e.src_type, &e.dst_type] {
                if self.node_type(endpoint).is_none() {
                    return Err(SchemaError::UnknownEndpointType {
                        edge: e.name.clone(),
                        endpoint: endpoint.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The full label set of a node type including inherited labels. Nodes
    /// of a subtype carry all supertype labels (this is how the paper models
    /// type-hierarchy matching: "Note the use of two labels to denote
    /// matching along type hierarchies", §6.2.2).
    pub fn full_labels(&self, type_name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![type_name.to_string()];
        let mut visited = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !visited.insert(n.clone()) {
                continue;
            }
            if let Some(def) = self.node_type(&n) {
                out.extend(def.labels.iter().cloned());
                stack.extend(def.supertypes.iter().cloned());
            }
        }
        out
    }

    /// Every index definition the graph type declares, sorted: each own
    /// label of a node type — and each edge type's label — paired with
    /// each of its `INDEX` (or `KEY`, which implies an index) properties
    /// and each of its `INDEX (k1, k2, …)` column lists. The trigger
    /// engine creates them when the graph type is attached to a session.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        let columns = |props: &[PropDef], composite: &[Vec<String>]| -> Vec<Vec<String>> {
            let single = props.iter().filter(|p| p.indexed || p.key);
            let single = single.map(|p| vec![p.name.clone()]);
            single.chain(composite.iter().cloned()).collect()
        };
        let mut out: Vec<IndexDef> = Vec::new();
        for t in &self.node_types {
            for cols in columns(&t.props, &t.composite_indexes) {
                out.extend(t.labels.iter().map(|l| IndexDef::node(l, &cols)));
            }
        }
        for e in &self.edge_types {
            let cols = columns(&e.props, &e.composite_indexes);
            out.extend(cols.into_iter().map(|cols| IndexDef::rel(&e.label, &cols)));
        }
        out.sort();
        out.dedup();
        out
    }

    /// The effective property declarations of a node type by name, each
    /// with the type that declares it: own declarations shadow inherited
    /// declarations of the same property name.
    fn declared_props(&self, type_name: &str) -> BTreeMap<&str, (&NodeTypeDef, &PropDef)> {
        // collect supertype props first so own decls overwrite
        fn collect<'a>(
            gt: &'a GraphType,
            name: &str,
            by_name: &mut BTreeMap<&'a str, (&'a NodeTypeDef, &'a PropDef)>,
            depth: usize,
        ) {
            if depth > 64 {
                return; // cycle guard; `check` reports cycles properly
            }
            if let Some(def) = gt.node_type(name) {
                for s in &def.supertypes {
                    collect(gt, s, by_name, depth + 1);
                }
                for p in &def.props {
                    by_name.insert(&p.name, (def, p));
                }
            }
        }
        let mut by_name = BTreeMap::new();
        collect(self, type_name, &mut by_name, 0);
        by_name
    }

    /// The full property declarations of a node type including inherited
    /// ones (own declarations shadow inherited declarations of the same
    /// property name), in property-name order.
    pub fn full_props(&self, type_name: &str) -> Vec<PropDef> {
        let declared = self.declared_props(type_name);
        declared.into_values().map(|(_, p)| p.clone()).collect()
    }

    /// Whether a node type is open (own flag; openness is not inherited).
    pub fn is_open(&self, type_name: &str) -> bool {
        self.node_type(type_name).map(|t| t.open).unwrap_or(false)
    }

    /// Key properties of a type (including inherited), paper's PG-Keys.
    pub fn key_props(&self, type_name: &str) -> Vec<String> {
        self.full_props(type_name)
            .into_iter()
            .filter(|p| p.key)
            .map(|p| p.name)
            .collect()
    }
}

/// One column of a node type's PG-Key.
#[derive(Debug, Clone)]
pub(crate) struct KeyColumn {
    pub(crate) name: String,
    /// First own label of the type declaring the column — the `KEY` index
    /// of [`GraphType::index_defs`] is on `(that label, name)`. `None` when
    /// the declaring type has no own label, hence no index.
    pub(crate) index_label: Option<String>,
}

/// A node type with everything inherited folded in.
#[derive(Debug, Clone)]
pub(crate) struct CompiledNodeType {
    pub(crate) name: String,
    /// Full label set (own + inherited): exactly the labels a node of
    /// this type carries.
    pub(crate) labels: BTreeSet<String>,
    /// Effective property declarations, in property-name order.
    pub(crate) props: Vec<PropDef>,
    pub(crate) open: bool,
    /// The PG-Key columns, in property-name order; empty = unkeyed.
    pub(crate) keys: Vec<KeyColumn>,
    /// `conforms_to[t]`: this type is node type `t` or inherits from it
    /// (transitively) — the endpoint-subtyping test of edge signatures.
    pub(crate) conforms_to: Vec<bool>,
}

/// An edge type with its endpoint types resolved to node-type indices
/// (`None` = names no declared node type; accepts no endpoint).
#[derive(Debug, Clone)]
pub(crate) struct CompiledEdgeType {
    pub(crate) name: String,
    pub(crate) src: Option<usize>,
    pub(crate) dst: Option<usize>,
    pub(crate) props: Vec<PropDef>,
}

/// A [`GraphType`] resolved once for validation: every question the rules
/// of [`crate::validate`] ask per item — which type has this label set,
/// what does it inherit, does it conform to that endpoint type, which edge
/// types carry this label — is a lookup here instead of a walk of the
/// inheritance hierarchy. Building it is O(types²); it is immutable and
/// answers for the graph type it was compiled from.
#[derive(Debug, Clone)]
pub struct CompiledGraphType {
    pub(crate) strict: bool,
    pub(crate) node_types: Vec<CompiledNodeType>,
    /// Full label set → the node types with exactly that set (one, unless
    /// the graph type declares two types a node cannot tell apart).
    pub(crate) by_labels: BTreeMap<BTreeSet<String>, Vec<usize>>,
    /// Relationship label → the edge types carrying it, in declaration
    /// order.
    pub(crate) edges_by_label: BTreeMap<String, Vec<CompiledEdgeType>>,
}

impl CompiledGraphType {
    /// Resolve `gt`. Total on unchecked graph types too (see
    /// [`GraphType::check`]): a dangling type name resolves to nothing.
    pub fn new(gt: &GraphType) -> Self {
        // `GraphType::node_type` answers with the first type of a name.
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, t) in gt.node_types.iter().enumerate() {
            index.entry(&t.name).or_insert(i);
        }
        let mut by_labels: BTreeMap<BTreeSet<String>, Vec<usize>> = BTreeMap::new();
        let mut node_types = Vec::with_capacity(gt.node_types.len());
        for (i, t) in gt.node_types.iter().enumerate() {
            let labels = gt.full_labels(&t.name);
            by_labels.entry(labels.clone()).or_default().push(i);
            let declared = gt.declared_props(&t.name);
            let key_columns = declared.values().filter(|(_, p)| p.key);
            let keys = key_columns.map(|(declarer, p)| KeyColumn {
                name: p.name.clone(),
                index_label: declarer.labels.first().cloned(),
            });
            let mut conforms_to = vec![false; gt.node_types.len()];
            let mut stack = vec![i];
            while let Some(n) = stack.pop() {
                if !std::mem::replace(&mut conforms_to[n], true) {
                    let supertypes = gt.node_types[n].supertypes.iter();
                    stack.extend(supertypes.filter_map(|s| index.get(s.as_str())));
                }
            }
            node_types.push(CompiledNodeType {
                name: t.name.clone(),
                labels,
                keys: keys.collect(),
                props: declared.into_values().map(|(_, p)| p.clone()).collect(),
                open: t.open,
                conforms_to,
            });
        }
        let mut edges_by_label: BTreeMap<String, Vec<CompiledEdgeType>> = BTreeMap::new();
        for e in &gt.edge_types {
            let edge = CompiledEdgeType {
                name: e.name.clone(),
                src: index.get(e.src_type.as_str()).copied(),
                dst: index.get(e.dst_type.as_str()).copied(),
                props: e.props.clone(),
            };
            edges_by_label
                .entry(e.label.clone())
                .or_default()
                .push(edge);
        }
        CompiledGraphType {
            strict: gt.strict,
            node_types,
            by_labels,
            edges_by_label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prop(name: &str, t: PropType) -> PropDef {
        PropDef {
            name: name.into(),
            prop_type: t,
            required: true,
            key: false,
            indexed: false,
        }
    }

    fn patient_hierarchy() -> GraphType {
        GraphType {
            name: "G".into(),
            strict: true,
            node_types: vec![
                NodeTypeDef {
                    name: "PatientType".into(),
                    supertypes: vec![],
                    labels: vec!["Patient".into()],
                    props: vec![
                        PropDef {
                            name: "ssn".into(),
                            prop_type: PropType::String,
                            required: true,
                            key: true,
                            indexed: false,
                        },
                        prop("name", PropType::String),
                    ],
                    composite_indexes: vec![],
                    open: false,
                },
                NodeTypeDef {
                    name: "HospitalizedPatientType".into(),
                    supertypes: vec!["PatientType".into()],
                    labels: vec!["HospitalizedPatient".into()],
                    props: vec![prop("prognosis", PropType::String)],
                    composite_indexes: vec![],
                    open: false,
                },
                NodeTypeDef {
                    name: "IcuPatientType".into(),
                    supertypes: vec!["HospitalizedPatientType".into()],
                    labels: vec!["IcuPatient".into()],
                    props: vec![prop("admittedToICU", PropType::Bool)],
                    composite_indexes: vec![],
                    open: false,
                },
            ],
            edge_types: vec![],
        }
    }

    #[test]
    fn prop_type_accepts() {
        assert!(PropType::String.accepts(&Value::str("x")));
        assert!(!PropType::String.accepts(&Value::Int(1)));
        assert!(PropType::Int32.accepts(&Value::Int(5)));
        assert!(!PropType::Int32.accepts(&Value::Int(i64::MAX)));
        assert!(PropType::Int64.accepts(&Value::Int(i64::MAX)));
        assert!(PropType::Float.accepts(&Value::Int(1)));
        assert!(PropType::Array(Box::new(PropType::String))
            .accepts(&Value::list([Value::str("diabetes")])));
        assert!(!PropType::Array(Box::new(PropType::String)).accepts(&Value::list([Value::Int(1)])));
        assert!(PropType::Any.accepts(&Value::Bool(true)));
    }

    #[test]
    fn prop_type_parse() {
        assert_eq!(PropType::parse("STRING"), Some(PropType::String));
        assert_eq!(PropType::parse("int32"), Some(PropType::Int32));
        assert_eq!(
            PropType::parse("ARRAY[string]"),
            Some(PropType::Array(Box::new(PropType::String)))
        );
        assert_eq!(PropType::parse("nope"), None);
    }

    #[test]
    fn inheritance_accumulates_labels_and_props() {
        let gt = patient_hierarchy();
        gt.check().unwrap();
        let labels = gt.full_labels("IcuPatientType");
        assert!(labels.contains("Patient"));
        assert!(labels.contains("HospitalizedPatient"));
        assert!(labels.contains("IcuPatient"));
        let props = gt.full_props("IcuPatientType");
        let names: Vec<_> = props.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"ssn"));
        assert!(names.contains(&"prognosis"));
        assert!(names.contains(&"admittedToICU"));
        assert_eq!(gt.key_props("IcuPatientType"), vec!["ssn"]);
    }

    #[test]
    fn check_rejects_unknown_supertype_and_duplicates() {
        let mut gt = patient_hierarchy();
        gt.node_types[1].supertypes = vec!["Ghost".into()];
        assert!(matches!(
            gt.check(),
            Err(SchemaError::UnknownSupertype { .. })
        ));

        let mut gt = patient_hierarchy();
        gt.node_types.push(gt.node_types[0].clone());
        assert!(matches!(gt.check(), Err(SchemaError::DuplicateType(_))));
    }

    #[test]
    fn check_rejects_cycles() {
        let mut gt = patient_hierarchy();
        gt.node_types[0].supertypes = vec!["IcuPatientType".into()];
        assert!(matches!(gt.check(), Err(SchemaError::CyclicInheritance(_))));
    }

    #[test]
    fn check_rejects_unknown_edge_endpoint() {
        let mut gt = patient_hierarchy();
        gt.edge_types.push(EdgeTypeDef {
            name: "E".into(),
            label: "Rel".into(),
            src_type: "PatientType".into(),
            dst_type: "Nope".into(),
            props: vec![],
            composite_indexes: vec![],
        });
        assert!(matches!(
            gt.check(),
            Err(SchemaError::UnknownEndpointType { .. })
        ));
    }
}
