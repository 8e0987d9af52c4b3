//! Parser for the PG-Schema-style DDL (`CREATE GRAPH TYPE …`).
//!
//! Grammar (a faithful subset of the PG-Schema proposal used by the paper's
//! Figure 5):
//!
//! ```text
//! graph_type ::= CREATE GRAPH TYPE <name> [STRICT | LOOSE] { element (, element)* }
//! element    ::= node_type | edge_type
//! node_type  ::= ( <TypeName> : spec (& spec)* [OPEN] [props] )
//! spec       ::= <TypeName>            -- inherit from another node type
//!              | <Label>               -- own label (distinguished by case
//!                                      -- of reference: a spec naming a
//!                                      -- declared type inherits, else it
//!                                      -- is a label)
//! edge_type  ::= (: <SrcType>) - [ <TypeName> : <Label> [props] ] -> (: <DstType>)
//! props      ::= { entry (, entry)* }
//! entry      ::= prop | composite
//! prop       ::= [OPTIONAL] <name> <type> [KEY] [INDEX]
//! composite  ::= INDEX ( <name> (, <name>)+ )   -- multi-key index decl
//! ```

use crate::types::{EdgeTypeDef, GraphType, NodeTypeDef, PropDef, PropType, SchemaError};

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Amp,
    Minus,
    Arrow,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn next_tok(&mut self) -> Result<Tok, SchemaError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && (bytes[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Tok::Eof);
        }
        let c = bytes[self.pos] as char;
        self.pos += 1;
        Ok(match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            ',' => Tok::Comma,
            ':' => Tok::Colon,
            '&' => Tok::Amp,
            '-' => {
                if bytes.get(self.pos) == Some(&b'>') {
                    self.pos += 1;
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            '<' => {
                // `<:` inheritance operator (alternative spelling)
                if bytes.get(self.pos) == Some(&b':') {
                    self.pos += 1;
                    Tok::Amp // treated like '&' followed by a supertype name
                } else {
                    return Err(SchemaError::Parse(format!(
                        "unexpected '<' at {}",
                        self.pos
                    )));
                }
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = self.pos - 1;
                while self.pos < bytes.len()
                    && ((bytes[self.pos] as char).is_ascii_alphanumeric()
                        || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                // `ARRAY[inner]` lexes as a single word so PropType::parse
                // sees the full spelling.
                if self.src[start..self.pos].eq_ignore_ascii_case("array")
                    && bytes.get(self.pos) == Some(&b'[')
                {
                    while self.pos < bytes.len() && bytes[self.pos] != b']' {
                        self.pos += 1;
                    }
                    if self.pos < bytes.len() {
                        self.pos += 1; // consume ']'
                    }
                }
                Tok::Word(self.src[start..self.pos].to_string())
            }
            other => return Err(SchemaError::Parse(format!("unexpected '{other}'"))),
        })
    }
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        self.toks.get(self.pos).unwrap_or(&Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), SchemaError> {
        if self.peek() == &t {
            self.pos += 1;
            Ok(())
        } else {
            Err(SchemaError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_word(&mut self) -> Result<String, SchemaError> {
        match self.bump() {
            Tok::Word(w) => Ok(w),
            other => Err(SchemaError::Parse(format!(
                "expected a name, found {other:?}"
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Tok::Word(w) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }
}

/// Parse a `CREATE GRAPH TYPE` document into a [`GraphType`] (also runs
/// [`GraphType::check`]).
pub fn parse_graph_type(src: &str) -> Result<GraphType, SchemaError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lx.next_tok()?;
        let eof = t == Tok::Eof;
        toks.push(t);
        if eof {
            break;
        }
    }
    let mut p = Parser { toks, pos: 0 };

    for kw in ["CREATE", "GRAPH", "TYPE"] {
        if !p.eat_keyword(kw) {
            return Err(SchemaError::Parse(format!("expected {kw}")));
        }
    }
    let name = p.expect_word()?;
    let strict = if p.eat_keyword("STRICT") {
        true
    } else {
        // LOOSE is the default; consume the keyword if present
        p.eat_keyword("LOOSE");
        false
    };
    p.expect(Tok::LBrace)?;

    let mut gt = GraphType {
        name,
        strict,
        node_types: Vec::new(),
        edge_types: Vec::new(),
    };
    // First pass collects raw elements; node-type references inside specs
    // are resolved by name against the declared node-type set afterwards.
    struct RawNode {
        name: String,
        specs: Vec<String>,
        open: bool,
        props: Vec<PropDef>,
        composite_indexes: Vec<Vec<String>>,
    }
    let mut raw_nodes: Vec<RawNode> = Vec::new();

    while p.peek() != &Tok::RBrace {
        p.expect(Tok::LParen)?;
        if p.eat(&Tok::Colon) {
            // Edge type: (:SrcType)-[Name: Label {props}]->(:DstType)
            let src_type = p.expect_word()?;
            p.expect(Tok::RParen)?;
            p.expect(Tok::Minus)?;
            p.expect(Tok::LBracket)?;
            let ename = p.expect_word()?;
            p.expect(Tok::Colon)?;
            let label = p.expect_word()?;
            let (props, composite_indexes) = if p.peek() == &Tok::LBrace {
                parse_props(&mut p)?
            } else {
                (Vec::new(), Vec::new())
            };
            p.expect(Tok::RBracket)?;
            p.expect(Tok::Arrow)?;
            p.expect(Tok::LParen)?;
            p.expect(Tok::Colon)?;
            let dst_type = p.expect_word()?;
            p.expect(Tok::RParen)?;
            gt.edge_types.push(EdgeTypeDef {
                name: ename,
                label,
                src_type,
                dst_type,
                props,
                composite_indexes,
            });
        } else {
            // Node type: (Name: spec (& spec)* [OPEN] [{props}])
            let tname = p.expect_word()?;
            p.expect(Tok::Colon)?;
            let mut specs = vec![p.expect_word()?];
            while p.eat(&Tok::Amp) {
                specs.push(p.expect_word()?);
            }
            let mut open = false;
            // OPEN may appear before or instead of the property block.
            if p.eat_keyword("OPEN") {
                open = true;
            }
            let (props, composite_indexes) = if p.peek() == &Tok::LBrace {
                parse_props(&mut p)?
            } else {
                (Vec::new(), Vec::new())
            };
            if p.eat_keyword("OPEN") {
                open = true;
            }
            p.expect(Tok::RParen)?;
            raw_nodes.push(RawNode {
                name: tname,
                specs,
                open,
                props,
                composite_indexes,
            });
        }
        if !p.eat(&Tok::Comma) {
            break;
        }
    }
    p.expect(Tok::RBrace)?;

    // Resolve specs: a spec naming a declared node type is inheritance,
    // anything else is an own label.
    let declared: Vec<String> = raw_nodes.iter().map(|r| r.name.clone()).collect();
    for r in raw_nodes {
        let mut supertypes = Vec::new();
        let mut labels = Vec::new();
        for s in r.specs {
            if declared.contains(&s) {
                supertypes.push(s);
            } else {
                labels.push(s);
            }
        }
        gt.node_types.push(NodeTypeDef {
            name: r.name,
            supertypes,
            labels,
            props: r.props,
            composite_indexes: r.composite_indexes,
            open: r.open,
        });
    }

    gt.check()?;
    Ok(gt)
}

fn parse_props(p: &mut Parser) -> Result<(Vec<PropDef>, Vec<Vec<String>>), SchemaError> {
    p.expect(Tok::LBrace)?;
    let mut out = Vec::new();
    let mut composites: Vec<Vec<String>> = Vec::new();
    if p.peek() != &Tok::RBrace {
        loop {
            // `INDEX (k1, k2, …)` declares a composite (multi-key) index
            // over previously (or later) declared properties.
            if matches!(p.peek(), Tok::Word(w) if w.eq_ignore_ascii_case("INDEX"))
                && p.toks.get(p.pos + 1) == Some(&Tok::LParen)
            {
                p.bump(); // INDEX
                p.expect(Tok::LParen)?;
                let mut cols = vec![p.expect_word()?];
                while p.eat(&Tok::Comma) {
                    cols.push(p.expect_word()?);
                }
                p.expect(Tok::RParen)?;
                if cols.len() < 2 {
                    return Err(SchemaError::Parse(
                        "a composite INDEX needs at least two columns".into(),
                    ));
                }
                composites.push(cols);
            } else {
                let required = !p.eat_keyword("OPTIONAL");
                let name = p.expect_word()?;
                // tolerate `name: TYPE` and `name TYPE`
                p.eat(&Tok::Colon);
                let tword = p.expect_word()?;
                let prop_type = PropType::parse(&tword).ok_or_else(|| {
                    SchemaError::Parse(format!("unknown property type '{tword}'"))
                })?;
                let key = p.eat_keyword("KEY");
                let indexed = p.eat_keyword("INDEX");
                out.push(PropDef {
                    name,
                    prop_type,
                    required,
                    key,
                    indexed,
                });
            }
            if !p.eat(&Tok::Comma) {
                break;
            }
        }
    }
    p.expect(Tok::RBrace)?;
    Ok((out, composites))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::IndexDef;

    #[test]
    fn parse_minimal_graph_type() {
        let gt = parse_graph_type("CREATE GRAPH TYPE G STRICT { (AType: A {x STRING}) }").unwrap();
        assert_eq!(gt.name, "G");
        assert!(gt.strict);
        assert_eq!(gt.node_types.len(), 1);
        assert_eq!(gt.node_types[0].labels, vec!["A"]);
    }

    #[test]
    fn parse_inheritance_and_edges() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PatientType: Patient {ssn STRING KEY, name STRING, OPTIONAL vaccinated INT32}),
               (HospitalizedPatientType: PatientType & HospitalizedPatient {id INT32, prognosis STRING}),
               (HospitalType: Hospital {name STRING, icuBeds INT32}),
               (:HospitalizedPatientType)-[TreatedAtType: TreatedAt]->(:HospitalType)
             }",
        )
        .unwrap();
        let hp = gt.node_type("HospitalizedPatientType").unwrap();
        assert_eq!(hp.supertypes, vec!["PatientType"]);
        assert_eq!(hp.labels, vec!["HospitalizedPatient"]);
        let full = gt.full_labels("HospitalizedPatientType");
        assert!(full.contains("Patient") && full.contains("HospitalizedPatient"));
        assert_eq!(gt.key_props("HospitalizedPatientType"), vec!["ssn"]);
        assert_eq!(gt.edge_types.len(), 1);
        assert_eq!(gt.edge_types[0].label, "TreatedAt");
        assert_eq!(gt.edge_types[0].src_type, "HospitalizedPatientType");
    }

    #[test]
    fn parse_index_qualifier_and_index_defs() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PatientType: Patient {ssn STRING KEY, name STRING INDEX, age INT32}),
               (HospitalType: Hospital {name STRING INDEX})
             }",
        )
        .unwrap();
        let p = gt.node_type("PatientType").unwrap();
        assert!(p.props.iter().any(|d| d.name == "name" && d.indexed));
        assert!(p.props.iter().any(|d| d.name == "age" && !d.indexed));
        // KEY implies an index; explicit INDEX adds one.
        assert_eq!(
            gt.index_defs(),
            [
                IndexDef::node("Hospital", &["name"]),
                IndexDef::node("Patient", &["name"]),
                IndexDef::node("Patient", &["ssn"]),
            ]
        );
    }

    #[test]
    fn parse_edge_index_qualifier_and_index_defs() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (HospitalType: Hospital {name STRING}),
               (:HospitalType)-[CT: ConnectedTo {distance INT32 INDEX, note STRING}]->(:HospitalType),
               (:HospitalType)-[RF: RefersTo {code STRING KEY}]->(:HospitalType)
             }",
        )
        .unwrap();
        assert_eq!(
            gt.index_defs(),
            [
                IndexDef::rel("ConnectedTo", &["distance"]),
                IndexDef::rel("RefersTo", &["code"]),
            ]
        );
    }

    #[test]
    fn parse_composite_index_declarations() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PatientType: Patient {status STRING, severity INT32,
                                      INDEX(status, severity)}),
               (HospitalType: Hospital {name STRING}),
               (:HospitalType)-[CT: ConnectedTo {kind STRING, distance INT32,
                                                 INDEX(kind, distance)}]->(:HospitalType)
             }",
        )
        .unwrap();
        // and the plain per-prop declarations add no single-key index
        assert_eq!(
            gt.index_defs(),
            [
                IndexDef::node("Patient", &["status", "severity"]),
                IndexDef::rel("ConnectedTo", &["kind", "distance"]),
            ]
        );
        // one-column composite declarations are rejected
        assert!(
            parse_graph_type("CREATE GRAPH TYPE G STRICT { (AType: A {x STRING, INDEX(x)}) }")
                .is_err()
        );
    }

    #[test]
    fn parse_open_type_and_arrays() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G LOOSE {
               (AlertType: Alert OPEN {time DATETIME, desc STRING}),
               (PatientType: Patient {comorbidity ARRAY[string]})
             }",
        )
        .unwrap();
        assert!(!gt.strict);
        assert!(gt.node_type("AlertType").unwrap().open);
        assert_eq!(
            gt.node_type("PatientType").unwrap().props[0].prop_type,
            PropType::Array(Box::new(PropType::String))
        );
    }

    #[test]
    fn parse_edge_with_props() {
        let gt = parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (HospitalType: Hospital {name STRING}),
               (:HospitalType)-[ConnType: ConnectedTo {distance INT32}]->(:HospitalType)
             }",
        )
        .unwrap();
        assert_eq!(gt.edge_types[0].props[0].name, "distance");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_graph_type("CREATE GRAPH G {}").is_err());
        assert!(parse_graph_type("CREATE GRAPH TYPE G STRICT { (A) }").is_err());
        assert!(
            parse_graph_type("CREATE GRAPH TYPE G STRICT { (AType: A {x NOTATYPE}) }").is_err()
        );
        // unknown endpoint type caught by check()
        assert!(matches!(
            parse_graph_type(
                "CREATE GRAPH TYPE G STRICT { (AType: A), (:AType)-[E: R]->(:Ghost) }"
            ),
            Err(SchemaError::UnknownEndpointType { .. })
        ));
    }
}
