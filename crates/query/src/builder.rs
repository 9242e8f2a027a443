//! An ergonomic builder for tree queries with *named* attributes.
//!
//! Algorithms work with interned [`Attr`] ids; applications usually think
//! in attribute names. [`QueryBuilder`] interns names on first use,
//! validates on [`QueryBuilder::build`] (an `Err`, never a panic, since
//! names usually come from user input), and keeps the name table around
//! for rendering results and DOT diagrams.

use crate::tree::{Edge, TreeQuery};
use mpcjoin_relation::Attr;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Builder for [`TreeQuery`] over named attributes.
///
/// ```
/// use mpcjoin_query::QueryBuilder;
///
/// // ∑_part Supplies(supplier, part) ⋈ Stocks(warehouse, part)
/// let (q, names) = QueryBuilder::new()
///     .relation("supplier", "part")
///     .relation("warehouse", "part")
///     .output(["supplier", "warehouse"])
///     .build()
///     .expect("a tree");
/// assert_eq!(q.edges().len(), 2);
/// assert_eq!(names.attr("part").map(|a| q.is_output(a)), Some(false));
///
/// // A cycle is an error, not a panic.
/// let cyclic = QueryBuilder::new()
///     .relation("a", "b")
///     .relation("b", "a")
///     .output(["a"])
///     .build();
/// assert!(cyclic.unwrap_err().contains("parallel edges"));
/// ```
#[derive(Default)]
pub struct QueryBuilder {
    names: Vec<String>,
    index: HashMap<String, Attr>,
    edges: Vec<Edge>,
    output: Vec<Attr>,
}

/// The name table produced by a [`QueryBuilder`]: a bijection between
/// attribute names and [`Attr`] ids.
#[derive(Clone, Debug)]
pub struct AttrNames {
    names: Vec<String>,
    index: HashMap<String, Attr>,
}

impl AttrNames {
    /// The [`Attr`] for `name`, if interned.
    pub fn attr(&self, name: &str) -> Option<Attr> {
        self.index.get(name).copied()
    }

    /// The name of `attr`; panics on an id this table never issued.
    pub fn name(&self, attr: Attr) -> &str {
        &self.names[attr.0 as usize]
    }

    /// Number of interned attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no attribute has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl QueryBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> Attr {
        if let Some(&a) = self.index.get(name) {
            return a;
        }
        let a = Attr(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), a);
        a
    }

    /// Add a binary relation over the named attributes.
    pub fn relation(mut self, x: &str, y: &str) -> Self {
        let (ax, ay) = (self.intern(x), self.intern(y));
        self.edges.push(Edge::pair(ax, ay));
        self
    }

    /// Add a unary relation over the named attribute.
    pub fn unary_relation(mut self, x: &str) -> Self {
        let ax = self.intern(x);
        self.edges.push(Edge::unary(ax));
        self
    }

    /// Declare the output attributes (replacing any previous set).
    pub fn output<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.output = names.into_iter().map(|n| self.intern(n)).collect();
        self
    }

    /// Validate and build the query plus its name table; errs with the
    /// message of [`TreeQuery::try_new`] on a malformed query.
    pub fn build(self) -> Result<(TreeQuery, AttrNames), String> {
        let q = TreeQuery::try_new(self.edges, self.output)?;
        let names = AttrNames {
            names: self.names,
            index: self.index,
        };
        Ok((q, names))
    }
}

/// Render a query as a Graphviz DOT graph: attributes are nodes (outputs
/// doubled-circled), relations are edges. `names` is optional — without
/// it, nodes show raw `x<i>` ids.
pub fn to_dot(q: &TreeQuery, names: Option<&AttrNames>) -> String {
    let label = |a: Attr| -> String {
        match names {
            Some(n) if (a.0 as usize) < n.len() => n.name(a).to_string(),
            _ => format!("{a}"),
        }
    };
    let mut out = String::from("graph query {\n  node [shape=circle];\n");
    for a in q.attrs() {
        let shape = if q.is_output(a) {
            " [shape=doublecircle]"
        } else {
            ""
        };
        let _ = writeln!(out, "  \"{}\"{shape};", label(a));
    }
    for (i, e) in q.edges().iter().enumerate() {
        match e.attrs() {
            [x, y] => {
                let _ = writeln!(
                    out,
                    "  \"{}\" -- \"{}\" [label=\"R{}\"];",
                    label(*x),
                    label(*y),
                    i
                );
            }
            [x] => {
                let _ = writeln!(out, "  \"u{i}\" [shape=point];");
                let _ = writeln!(out, "  \"{}\" -- \"u{i}\" [label=\"R{}\"];", label(*x), i);
            }
            _ => unreachable!("edges have arity 1 or 2"),
        }
    }
    out.push_str("}\n");
    out
}

/// Render a generic operator DAG as Graphviz DOT: `nodes[i]` is a label
/// plus the indices of its input nodes. This is the rendering backend the
/// compiler's logical plan IR draws with (one box per operator, annotated
/// with its predicted bound); [`to_dot`] stays the hypergraph view.
pub fn dot_dag(title: &str, nodes: &[(String, Vec<usize>)]) -> String {
    let ident: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let mut out = format!("digraph {ident} {{\n  node [shape=box];\n");
    for (i, (label, _)) in nodes.iter().enumerate() {
        let escaped = label.replace('"', "\\\"");
        let _ = writeln!(out, "  n{i} [label=\"{escaped}\"];");
    }
    for (i, (_, inputs)) in nodes.iter().enumerate() {
        for &j in inputs {
            let _ = writeln!(out, "  n{j} -> n{i};");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Shape};

    #[test]
    fn dag_rendering_links_inputs_to_consumers() {
        let nodes = vec![
            ("scan R0".to_string(), vec![]),
            ("scan R1".to_string(), vec![]),
            ("exchange by \"b\"".to_string(), vec![0, 1]),
        ];
        let dot = dot_dag("plan MatMul", &nodes);
        assert!(dot.starts_with("digraph plan_MatMul {"), "{dot}");
        assert!(dot.contains("n0 [label=\"scan R0\"]"), "{dot}");
        assert!(dot.contains("n0 -> n2;"), "{dot}");
        assert!(dot.contains("n1 -> n2;"), "{dot}");
        assert!(dot.contains("\\\"b\\\""), "quotes escaped: {dot}");
    }

    #[test]
    fn builds_matmul_by_name() {
        let (q, names) = QueryBuilder::new()
            .relation("a", "b")
            .relation("b", "c")
            .output(["a", "c"])
            .build()
            .unwrap();
        assert!(matches!(classify(&q), Shape::MatMul { .. }));
        assert_eq!(names.name(names.attr("b").unwrap()), "b");
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn interning_is_stable() {
        let (q, names) = QueryBuilder::new()
            .relation("x", "y")
            .relation("y", "z")
            .relation("z", "w")
            .output(["x", "w"])
            .build()
            .unwrap();
        assert_eq!(q.edges().len(), 3);
        // "y" interned once despite two mentions.
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn dot_renders_outputs_and_edges() {
        let (q, names) = QueryBuilder::new()
            .relation("src", "mid")
            .relation("mid", "dst")
            .output(["src", "dst"])
            .build()
            .unwrap();
        let dot = to_dot(&q, Some(&names));
        assert!(dot.contains("\"src\" [shape=doublecircle]"));
        assert!(dot.contains("\"src\" -- \"mid\" [label=\"R0\"]"));
        assert!(dot.contains("\"mid\";"));
        assert!(dot.starts_with("graph query {"));
    }

    #[test]
    fn builder_validates() {
        let err = QueryBuilder::new()
            .relation("a", "b")
            .relation("b", "c")
            .relation("c", "a")
            .output(["a"])
            .build()
            .unwrap_err();
        assert!(err.contains("spanning tree"), "{err}");
    }
}
