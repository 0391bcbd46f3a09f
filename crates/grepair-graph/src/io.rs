//! Portable serialization of graphs.
//!
//! [`GraphDoc`] is a self-contained, string-labelled document model: node
//! ids in a doc are arbitrary `u32` handles local to the doc, so docs
//! survive round trips through graphs whose internal slot allocation
//! differs (e.g. after deletions). JSON is the interchange format; a
//! line-oriented plain-text format is provided for quick fixtures.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::value::Value;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A node in document form.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct NodeDoc {
    /// Doc-local handle referenced by [`EdgeDoc`].
    pub id: u32,
    /// Node label (type).
    pub label: String,
    /// Attributes; `BTreeMap` for stable output ordering.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub attrs: BTreeMap<String, Value>,
}

/// An edge in document form.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct EdgeDoc {
    /// Doc-local source handle.
    pub src: u32,
    /// Doc-local target handle.
    pub dst: u32,
    /// Relation label.
    pub label: String,
}

/// Self-contained portable graph document.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct GraphDoc {
    /// Nodes, in stable id order.
    pub nodes: Vec<NodeDoc>,
    /// Edges.
    pub edges: Vec<EdgeDoc>,
}

impl GraphDoc {
    /// Export a graph. Doc handles are assigned densely in node-id order.
    pub fn from_graph(g: &Graph) -> Self {
        let mut handle: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut nodes = Vec::with_capacity(g.num_nodes());
        for (i, n) in g.nodes().enumerate() {
            handle.insert(n, i as u32);
            let attrs = g
                .attrs(n)
                .iter()
                .map(|(k, v)| (g.attr_key_name(*k).to_owned(), v.clone()))
                .collect();
            nodes.push(NodeDoc {
                id: i as u32,
                label: g.label_name(g.node_label(n).unwrap()).to_owned(),
                attrs,
            });
        }
        let mut edges: Vec<EdgeDoc> = g
            .edges()
            .map(|e| {
                let er = g.edge(e).unwrap();
                EdgeDoc {
                    src: handle[&er.src],
                    dst: handle[&er.dst],
                    label: g.label_name(er.label).to_owned(),
                }
            })
            .collect();
        edges.sort_by(|a, b| (a.src, a.dst, &a.label).cmp(&(b.src, b.dst, &b.label)));
        GraphDoc { nodes, edges }
    }

    /// Materialise the document as a fresh graph.
    ///
    /// Returns the graph and the doc-handle → [`NodeId`] mapping.
    pub fn into_graph(&self) -> Result<(Graph, FxHashMap<u32, NodeId>)> {
        let mut g = Graph::new();
        let mut map: FxHashMap<u32, NodeId> = FxHashMap::default();
        map.reserve(self.nodes.len());
        // Names come in runs — a label over a stretch of nodes or edges,
        // and the same sorted key at the same position of consecutive
        // nodes — so each is interned once per run, not per occurrence.
        let mut last_label = None;
        let mut last_keys = Vec::new();
        for nd in &self.nodes {
            let label = same_name(&mut last_label, &nd.label, |l| g.label(l));
            if last_keys.len() < nd.attrs.len() {
                last_keys.resize(nd.attrs.len(), None);
            }
            let attrs = nd
                .attrs
                .iter()
                .zip(&mut last_keys)
                .map(|((k, v), last)| (same_name(last, k, |k| g.attr_key(k)), v.clone()))
                .collect();
            let id = g.add_node_with_attrs(label, attrs);
            if map.insert(nd.id, id).is_some() {
                return Err(GraphError::Parse(format!("duplicate node id {}", nd.id)));
            }
        }
        let mut last_label = None;
        for ed in &self.edges {
            let src = *map
                .get(&ed.src)
                .ok_or_else(|| GraphError::Parse(format!("unknown edge src {}", ed.src)))?;
            let dst = *map
                .get(&ed.dst)
                .ok_or_else(|| GraphError::Parse(format!("unknown edge dst {}", ed.dst)))?;
            let label = same_name(&mut last_label, &ed.label, |l| g.label(l));
            g.add_edge(src, dst, label)?;
        }
        Ok((g, map))
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("GraphDoc is always serializable")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| GraphError::Parse(e.to_string()))
    }

    /// Serialize to the plain-text fixture format:
    ///
    /// ```text
    /// node 0 Person name="Ann" age=30
    /// node 1 City
    /// edge 0 livesIn 1
    /// ```
    ///
    /// Labels and attribute keys containing whitespace, quotes, `=`, `#`
    /// or control characters are double-quoted with the same escape set
    /// as string values (`\"`, `\\`, `\n`, `\t`, `\r`, `\u{…}` for other
    /// control characters), so every document round-trips through
    /// [`GraphDoc::from_text`] losslessly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&format!("node {} {}", n.id, fmt_token(&n.label)));
            for (k, v) in &n.attrs {
                out.push_str(&format!(" {}={}", fmt_token(k), text_value(v)));
            }
            out.push('\n');
        }
        for e in &self.edges {
            out.push_str(&format!(
                "edge {} {} {}\n",
                e.src,
                fmt_token(&e.label),
                e.dst
            ));
        }
        out
    }

    /// Parse the plain-text fixture format (see [`GraphDoc::to_text`]).
    ///
    /// Malformed lines — unterminated strings, bad escapes, missing
    /// `key=value` structure, a key repeated on one node, anything after
    /// an edge's `dst` — are rejected with a line-numbered
    /// [`GraphError::Parse`]; nothing mis-parses silently.
    pub fn from_text(s: &str) -> Result<Self> {
        let mut doc = GraphDoc::default();
        // Reused across lines; literal parts borrow from `s`.
        let mut parts = Vec::new();
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| GraphError::Parse(format!("line {}: {msg}", lineno + 1));
            tokenize_line(line, &mut parts).map_err(&err)?;
            let mut toks = parts
                .split_mut(|p| matches!(p, Part::End))
                .filter(|t| !t.is_empty());
            let number = |tok: Option<&mut [Part<'_>]>, what: &str| {
                tok.and_then(|t| as_plain(t)?.parse::<u32>().ok())
                    .ok_or_else(|| err(format!("expected {what}")))
            };
            match toks.next().and_then(|t| as_plain(t)).unwrap_or_default() {
                "node" => {
                    let id = number(toks.next(), "node id")?;
                    let label = toks
                        .next()
                        .and_then(into_string)
                        .ok_or_else(|| err("expected node label".into()))?;
                    let mut attrs = BTreeMap::new();
                    for tok in toks {
                        let (k, v) = key_value(tok).map_err(&err)?;
                        match attrs.entry(k) {
                            Entry::Vacant(e) => e.insert(v),
                            Entry::Occupied(e) => {
                                return Err(err(format!("duplicate attribute key {:?}", e.key())))
                            }
                        };
                    }
                    doc.nodes.push(NodeDoc { id, label, attrs });
                }
                "edge" => {
                    let src = number(toks.next(), "edge src")?;
                    let label = toks
                        .next()
                        .and_then(into_string)
                        .ok_or_else(|| err("expected edge label".into()))?;
                    let dst = number(toks.next(), "edge dst")?;
                    if toks.next().is_some() {
                        return Err(err("unexpected token after edge dst".into()));
                    }
                    doc.edges.push(EdgeDoc { src, dst, label });
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }
        Ok(doc)
    }
}

/// `last`'s id if it was resolved for this same name, else `intern(name)`
/// remembered in `last`.
fn same_name<'d, T: Copy>(
    last: &mut Option<(&'d str, T)>,
    name: &'d str,
    intern: impl FnOnce(&str) -> T,
) -> T {
    match *last {
        Some((prev, id)) if prev == name => id,
        _ => last.insert((name, intern(name))).1,
    }
}

/// One segment of a fixture token: literal text (borrowed from the
/// line), or a double-quoted (already unescaped) string.
/// `name="Ann Lee"` is one token of two parts: `Lit("name=")` +
/// `Quoted("Ann Lee")`. Keeping the quoting structure (instead of
/// flattening to a string) is what lets the parser tell a quoted key or
/// value apart from embedded quote characters.
#[derive(Debug)]
enum Part<'a> {
    Lit(&'a str),
    Quoted(String),
    /// Token boundary; never part of a token.
    End,
}

/// The token as unquoted literal text, if that is all it is.
fn as_plain<'a>(tok: &[Part<'a>]) -> Option<&'a str> {
    match tok {
        [Part::Lit(s)] => Some(s),
        _ => None,
    }
}

/// The token as a single string (either one literal or one quoted
/// segment) — the shape labels must have.
fn into_string(tok: &mut [Part<'_>]) -> Option<String> {
    match tok {
        [Part::Lit(s)] => Some((*s).to_owned()),
        [Part::Quoted(s)] => Some(std::mem::take(s)),
        _ => None,
    }
}

/// Split an attribute token into key and typed value. Accepted shapes:
/// `key=value`, `key="…"`, `"…"=value`, `"…"="…"`; anything else is an
/// error.
fn key_value<'a>(tok: &mut [Part<'a>]) -> Result<(String, Value), String> {
    let (key, rest, tail): (_, &'a str, _) = match tok {
        [Part::Lit(lit), tail @ ..] => match lit.split_once('=') {
            Some((k, v)) => (k.to_owned(), v, tail),
            None => return Err(format!("expected key=value, got {lit:?}")),
        },
        [Part::Quoted(k), Part::Lit(lit), tail @ ..] if lit.starts_with('=') => {
            (std::mem::take(k), &lit[1..], tail)
        }
        [Part::Quoted(k), ..] => return Err(format!("expected '=' after quoted key {k:?}")),
        _ => return Err("empty attribute token".into()),
    };
    if key.is_empty() {
        return Err("empty attribute key".into());
    }
    let value = match (rest.is_empty(), tail) {
        // key=literal — typed parse.
        (false, []) => parse_text_value(rest),
        // key="…" — exactly one quoted segment, always a string.
        (true, [Part::Quoted(s)]) => Value::Str(std::mem::take(s)),
        (true, [Part::Quoted(_), ..]) => {
            return Err(format!("trailing garbage after value of {key:?}"))
        }
        _ => {
            return Err(format!(
                "malformed value for {key:?}: expected a literal or one quoted string"
            ))
        }
    };
    Ok((key, value))
}

/// Split a fixture line into `parts`, with a [`Part::End`] after each
/// blank, unescaping double-quoted segments. Escapes: `\"`, `\\`, `\n`,
/// `\t`, `\r`, `\0`, `\u{HEX}`. Literals are sliced only next to the
/// ASCII delimiters `char_indices` reports, so never inside a multi-byte
/// character.
fn tokenize_line<'a>(line: &'a str, parts: &mut Vec<Part<'a>>) -> Result<(), String> {
    parts.clear();
    let push_lit = |parts: &mut Vec<Part<'a>>, lit: &'a str| {
        if !lit.is_empty() {
            parts.push(Part::Lit(lit));
        }
    };
    let mut lit_start = 0;
    let mut chars = line.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            ' ' | '\t' => {
                push_lit(parts, &line[lit_start..i]);
                parts.push(Part::End);
                lit_start = i + 1;
            }
            '"' => {
                push_lit(parts, &line[lit_start..i]);
                // Unescaped text is copied a run at a time.
                let (mut q, mut run) = (String::new(), i + 1);
                loop {
                    match chars.next() {
                        Some((j, '"')) => {
                            q.push_str(&line[run..j]);
                            lit_start = j + 1;
                            break;
                        }
                        Some((j, '\\')) => {
                            q.push_str(&line[run..j]);
                            q.push(unescape_char(&mut chars)?);
                            run = chars.offset();
                        }
                        Some(_) => {}
                        None => return Err("unterminated string".into()),
                    }
                }
                parts.push(Part::Quoted(q));
            }
            _ => {}
        }
    }
    push_lit(parts, &line[lit_start..]);
    Ok(())
}

fn unescape_char(chars: &mut std::str::CharIndices<'_>) -> Result<char, String> {
    let mut next = || chars.next().map(|(_, c)| c);
    match next() {
        Some('"') => Ok('"'),
        Some('\\') => Ok('\\'),
        Some('n') => Ok('\n'),
        Some('t') => Ok('\t'),
        Some('r') => Ok('\r'),
        Some('0') => Ok('\0'),
        Some('u') => {
            if next() != Some('{') {
                return Err("bad \\u escape: expected '{'".into());
            }
            let mut hex = String::new();
            loop {
                match next() {
                    Some('}') => break,
                    Some(h) if h.is_ascii_hexdigit() && hex.len() < 6 => hex.push(h),
                    other => return Err(format!("bad \\u escape near {other:?}")),
                }
            }
            u32::from_str_radix(&hex, 16)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| format!("bad \\u escape value {hex:?}"))
        }
        other => Err(format!("bad escape {other:?}")),
    }
}

/// Quote and escape a string for the fixture format.
fn quote_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            c if c.is_control() => out.push_str(&format!("\\u{{{:x}}}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a label or attribute key: bare when unambiguous, quoted when it
/// contains anything the tokenizer or `key=value` split would mangle.
fn fmt_token(s: &str) -> String {
    let needs_quoting = s.is_empty()
        || s.starts_with('#')
        || s.chars()
            .any(|c| c.is_whitespace() || c.is_control() || matches!(c, '"' | '\\' | '='));
    if needs_quoting {
        quote_string(s)
    } else {
        s.to_owned()
    }
}

fn text_value(v: &Value) -> String {
    match v {
        Value::Str(s) => quote_string(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
    }
}

fn parse_text_value(tok: &str) -> Value {
    if tok == "true" {
        return Value::Bool(true);
    }
    if tok == "false" {
        return Value::Bool(false);
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = tok.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Str(tok.to_owned())
}

impl Graph {
    /// Export to a portable document.
    pub fn to_doc(&self) -> GraphDoc {
        GraphDoc::from_graph(self)
    }

    /// Build from a portable document, dropping the handle map.
    pub fn from_doc(doc: &GraphDoc) -> Result<Self> {
        doc.into_graph().map(|(g, _)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let p = g.label("Person");
        let c = g.label("City");
        let lives = g.label("livesIn");
        let name = g.attr_key("name");
        let a = g.add_node_with_attrs(p, vec![(name, Value::from("Ann"))]);
        let b = g.add_node(c);
        g.add_edge(a, b, lives).unwrap();
        g
    }

    #[test]
    fn json_round_trip() {
        let g = sample();
        let doc = g.to_doc();
        let json = doc.to_json();
        let doc2 = GraphDoc::from_json(&json).unwrap();
        assert_eq!(doc, doc2);
        let g2 = Graph::from_doc(&doc2).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.to_doc(), doc);
    }

    #[test]
    fn round_trip_after_deletions_renumbers() {
        let mut g = sample();
        let extra = g.add_node_named("Org");
        g.remove_node(extra).unwrap();
        let doc = g.to_doc();
        assert_eq!(doc.nodes.len(), 2);
        let g2 = Graph::from_doc(&doc).unwrap();
        assert_eq!(g2.num_nodes(), 2);
        assert_eq!(g2.to_doc(), doc);
    }

    #[test]
    fn text_round_trip() {
        let g = sample();
        let doc = g.to_doc();
        let text = doc.to_text();
        let doc2 = GraphDoc::from_text(&text).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn text_parses_comments_and_types() {
        let text = "# fixture\nnode 0 P x=1 y=2.5 z=true w=\"hi\"\nnode 1 Q\nedge 0 r 1\n";
        let doc = GraphDoc::from_text(text).unwrap();
        assert_eq!(doc.nodes.len(), 2);
        assert_eq!(doc.edges.len(), 1);
        let attrs = &doc.nodes[0].attrs;
        assert_eq!(attrs["x"], Value::Int(1));
        assert_eq!(attrs["y"], Value::Float(2.5));
        assert_eq!(attrs["z"], Value::Bool(true));
        assert_eq!(attrs["w"], Value::from("hi"));
    }

    #[test]
    fn text_round_trip_with_spaces_and_escapes() {
        let mut g = Graph::new();
        let n = g.add_node_named("Person");
        let k = g.attr_key("name");
        g.set_attr(n, k, Value::from("Ann \"The Graph\" Lee"))
            .unwrap();
        let k2 = g.attr_key("bio");
        g.set_attr(n, k2, Value::from("line1\nline2")).unwrap();
        let doc = g.to_doc();
        let text = doc.to_text();
        let doc2 = GraphDoc::from_text(&text).unwrap();
        assert_eq!(doc2, doc, "{text}");
    }

    #[test]
    fn labels_and_keys_with_whitespace_round_trip() {
        let mut g = Graph::new();
        let n = g.add_node_named("VIP Person");
        let m = g.add_node_named("City\nState");
        let k = g.attr_key("full name");
        g.set_attr(n, k, Value::from("Ann Lee")).unwrap();
        let k2 = g.attr_key("a=b");
        g.set_attr(n, k2, Value::Int(7)).unwrap();
        g.add_edge_named(n, m, "lives in").unwrap();
        let doc = g.to_doc();
        let text = doc.to_text();
        let doc2 = GraphDoc::from_text(&text).unwrap();
        assert_eq!(doc2, doc, "{text}");
    }

    #[test]
    fn control_chars_and_unicode_escapes_round_trip() {
        let mut g = Graph::new();
        let n = g.add_node_named("P");
        let k = g.attr_key("bio");
        g.set_attr(n, k, Value::from("tab\t cr\r nul\0 bell\u{7} text"))
            .unwrap();
        let doc = g.to_doc();
        let text = doc.to_text();
        let doc2 = GraphDoc::from_text(&text).unwrap();
        assert_eq!(doc2, doc, "{text}");
    }

    #[test]
    fn quoted_label_parses_back() {
        let text = "node 0 \"My Label\" \"weird key\"=\"a b\"\nnode 1 Q\nedge 0 \"rel x\" 1\n";
        let doc = GraphDoc::from_text(text).unwrap();
        assert_eq!(doc.nodes[0].label, "My Label");
        assert_eq!(doc.nodes[0].attrs["weird key"], Value::from("a b"));
        assert_eq!(doc.edges[0].label, "rel x");
    }

    #[test]
    fn malformed_text_is_rejected_not_misparsed() {
        // A label with a space that is NOT quoted: the trailing word is
        // not a key=value pair, so the line errors instead of silently
        // dropping or merging tokens.
        let e = GraphDoc::from_text("node 0 My Label\n").unwrap_err();
        assert!(e.to_string().contains("key=value"), "{e}");
        // Unterminated string.
        let e = GraphDoc::from_text("node 0 P x=\"oops\n").unwrap_err();
        assert!(e.to_string().contains("unterminated"), "{e}");
        // Bad escape.
        let e = GraphDoc::from_text("node 0 P x=\"\\q\"\n").unwrap_err();
        assert!(e.to_string().contains("bad escape"), "{e}");
        // Garbage after a quoted value.
        let e = GraphDoc::from_text("node 0 P x=\"a\"b\n").unwrap_err();
        assert!(e.to_string().contains("x"), "{e}");
        // Empty key.
        let e = GraphDoc::from_text("node 0 P =1\n").unwrap_err();
        assert!(e.to_string().contains("key"), "{e}");
        // Quoted key without '='.
        let e = GraphDoc::from_text("node 0 P \"k\" 1\n").unwrap_err();
        assert!(e.to_string().contains("'='"), "{e}");
    }

    #[test]
    fn duplicate_attribute_keys_are_rejected() {
        for line in [
            "node 0 P x=1 x=2",
            "node 0 P \"x\"=1 x=2",
            "node 0 P x=\"a\" \"x\"=\"b\"",
        ] {
            let e = GraphDoc::from_text(&format!("node 1 Q\n{line}\n")).unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("line 2") && msg.contains("duplicate attribute key \"x\""),
                "{msg}"
            );
        }
    }

    #[test]
    fn trailing_tokens_on_edge_lines_are_rejected() {
        for line in ["edge 0 r 1 junk more", "edge 0 r 1 x=1", "edge 0 r 1 \"q\""] {
            let e = GraphDoc::from_text(&format!("node 0 P\nnode 1 Q\n{line}\n")).unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("line 3") && msg.contains("after edge dst"),
                "{msg}"
            );
        }
        // Trailing blanks are not a token.
        assert_eq!(
            GraphDoc::from_text("edge 0 r 1 \t \n").unwrap().edges.len(),
            1
        );
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        let bad = "node 0 P\nedge 0 r 9\n";
        let doc = GraphDoc::from_text(bad).unwrap();
        let err = doc.into_graph().unwrap_err();
        assert!(err.to_string().contains("unknown edge dst"));

        let bad2 = "frob 1 2\n";
        assert!(GraphDoc::from_text(bad2).is_err());
    }

    #[test]
    fn duplicate_node_ids_rejected() {
        let doc = GraphDoc {
            nodes: vec![
                NodeDoc {
                    id: 0,
                    label: "P".into(),
                    attrs: BTreeMap::new(),
                },
                NodeDoc {
                    id: 0,
                    label: "Q".into(),
                    attrs: BTreeMap::new(),
                },
            ],
            edges: vec![],
        };
        assert!(doc.into_graph().is_err());
    }
}
