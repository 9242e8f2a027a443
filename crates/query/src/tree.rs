//! Tree join-aggregate queries: the hypergraph `Q = (V, E)` of §1.1.

use mpcjoin_relation::Attr;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// One hyperedge: a relation over one or two attributes.
///
/// The paper restricts input queries to binary edges forming a tree;
/// unary edges are admitted here as well because §7's *reduce* step has to
/// handle them ("remove `R_e` if `e` contains a single attribute").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    attrs: Vec<Attr>,
}

impl Edge {
    /// A binary edge `R(a, b)`.
    pub fn binary(a: Attr, b: Attr) -> Self {
        assert_ne!(a, b, "self-loop edge R({a}, {a}) is not a tree edge");
        Self::pair(a, b)
    }

    /// A binary edge over user input: a self-loop is left for
    /// [`TreeQuery::try_new`] to reject instead of panicking here.
    pub(crate) fn pair(a: Attr, b: Attr) -> Self {
        Edge { attrs: vec![a, b] }
    }

    /// A unary edge `R(a)`.
    pub fn unary(a: Attr) -> Self {
        Edge { attrs: vec![a] }
    }

    /// The attributes of this edge (length 1 or 2).
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Whether this edge is binary.
    pub fn is_binary(&self) -> bool {
        self.attrs.len() == 2
    }

    /// Whether `a` is an endpoint.
    pub fn contains(&self, a: Attr) -> bool {
        self.attrs.contains(&a)
    }

    /// For a binary edge, the endpoint other than `a`.
    pub fn other(&self, a: Attr) -> Attr {
        debug_assert!(self.is_binary() && self.contains(a));
        if self.attrs[0] == a {
            self.attrs[1]
        } else {
            self.attrs[0]
        }
    }
}

/// An acyclic join-aggregate query whose hypergraph is a tree of binary
/// (plus possibly unary) edges, with a designated set `y` of output
/// attributes.
///
/// Relations are addressed by their edge index into [`TreeQuery::edges`];
/// instances pair each index with an annotated relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeQuery {
    edges: Vec<Edge>,
    output: BTreeSet<Attr>,
}

impl TreeQuery {
    /// Build and validate a tree query; panics with the message
    /// [`TreeQuery::try_new`] would return. For queries the program
    /// itself constructs, where a malformed one is a programming error.
    pub fn new(edges: Vec<Edge>, output: impl IntoIterator<Item = Attr>) -> Self {
        Self::try_new(edges, output).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Build and validate a tree query from user input.
    ///
    /// Errs (with a description) if the binary edges do not form a tree
    /// over the attribute set, if an edge is duplicated or a self-loop,
    /// if a unary edge mentions an attribute no binary edge touches (and
    /// the query has more than one edge), or if `output` mentions unknown
    /// attributes.
    pub fn try_new(
        edges: Vec<Edge>,
        output: impl IntoIterator<Item = Attr>,
    ) -> Result<Self, String> {
        if edges.is_empty() {
            return Err("a query needs at least one relation".into());
        }
        let output: BTreeSet<Attr> = output.into_iter().collect();

        // No self-loops, no duplicate edges (a duplicate binary edge is a
        // 2-cycle).
        let mut seen: HashSet<Vec<Attr>> = HashSet::new();
        for e in &edges {
            if let [a, b] = e.attrs() {
                if a == b {
                    return Err(format!("self-loop edge R({a}, {a}) is not a tree edge"));
                }
            }
            let mut key = e.attrs().to_vec();
            key.sort();
            if !seen.insert(key) {
                return Err(format!(
                    "duplicate relation over {:?}; a tree has no parallel edges",
                    e.attrs()
                ));
            }
        }

        let q = TreeQuery { edges, output };
        let attrs = q.attrs();
        if let Some(a) = q.output.iter().find(|a| !attrs.contains(a)) {
            return Err(format!("output attribute {a} not in any relation"));
        }

        // Binary edges must form a tree spanning every attribute (except
        // the trivial single-unary-edge query).
        let binary: Vec<&Edge> = q.edges.iter().filter(|e| e.is_binary()).collect();
        if binary.is_empty() {
            if q.edges.len() != 1 {
                return Err("multiple unary relations do not form a connected tree".into());
            }
            return Ok(q);
        }
        if binary.len() + 1 != attrs.len() {
            return Err(format!(
                "binary edges must form a spanning tree: {} edges over {} attributes",
                binary.len(),
                attrs.len()
            ));
        }
        // Connectivity check by BFS over binary edges.
        let adj = q.adjacency();
        let start = *attrs.iter().next().expect("non-empty");
        let mut visited = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &ei in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                let e = &q.edges[ei];
                if !e.is_binary() {
                    continue;
                }
                let u = e.other(v);
                if visited.insert(u) {
                    queue.push_back(u);
                }
            }
        }
        if visited.len() != attrs.len() {
            return Err("query hypergraph is disconnected".into());
        }
        Ok(q)
    }

    /// The relations (edges), in index order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The output attributes `y`.
    pub fn output(&self) -> &BTreeSet<Attr> {
        &self.output
    }

    /// All attributes `V`, sorted.
    pub fn attrs(&self) -> BTreeSet<Attr> {
        self.edges
            .iter()
            .flat_map(|e| e.attrs().iter().copied())
            .collect()
    }

    /// The non-output attributes `ȳ`.
    pub fn non_output(&self) -> BTreeSet<Attr> {
        self.attrs()
            .into_iter()
            .filter(|a| !self.output.contains(a))
            .collect()
    }

    /// Whether `a` is an output attribute.
    pub fn is_output(&self, a: Attr) -> bool {
        self.output.contains(&a)
    }

    /// `attr → indices of incident edges` (unary edges included).
    pub fn adjacency(&self) -> HashMap<Attr, Vec<usize>> {
        let mut adj: HashMap<Attr, Vec<usize>> = HashMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            for &a in e.attrs() {
                adj.entry(a).or_default().push(i);
            }
        }
        adj
    }

    /// Number of incident edges per attribute.
    pub fn degree(&self, a: Attr) -> usize {
        self.edges.iter().filter(|e| e.contains(a)).count()
    }

    /// Leaf attributes: incident to exactly one edge.
    pub fn leaves(&self) -> Vec<Attr> {
        self.attrs()
            .into_iter()
            .filter(|&a| self.degree(a) == 1)
            .collect()
    }

    /// The unique path of edge indices between attributes `from` and `to`
    /// along binary edges (empty if `from == to`).
    pub fn path(&self, from: Attr, to: Attr) -> Vec<usize> {
        let adj = self.adjacency();
        // BFS parent pointers.
        let mut parent: HashMap<Attr, (Attr, usize)> = HashMap::new();
        let mut visited = HashSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            if v == to {
                break;
            }
            for &ei in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                let e = &self.edges[ei];
                if !e.is_binary() {
                    continue;
                }
                let u = e.other(v);
                if visited.insert(u) {
                    parent.insert(u, (v, ei));
                    queue.push_back(u);
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (prev, ei) = *parent
                .get(&cur)
                .unwrap_or_else(|| panic!("no path from {from} to {to}"));
            path.push(ei);
            cur = prev;
        }
        path.reverse();
        path
    }

    /// Attributes in the connected component of `start` when edges
    /// `cut_edges` are removed (traversal over binary edges).
    pub fn component_without(&self, start: Attr, cut_edges: &HashSet<usize>) -> BTreeSet<Attr> {
        let adj = self.adjacency();
        let mut visited = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &ei in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                if cut_edges.contains(&ei) {
                    continue;
                }
                let e = &self.edges[ei];
                if !e.is_binary() {
                    continue;
                }
                let u = e.other(v);
                if visited.insert(u) {
                    queue.push_back(u);
                }
            }
        }
        visited
    }

    /// A new query with the same edges but a different output set.
    pub fn with_output(&self, output: impl IntoIterator<Item = Attr>) -> TreeQuery {
        TreeQuery::new(self.edges.clone(), output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);
    const D: Attr = Attr(3);

    fn matmul_query() -> TreeQuery {
        TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C])
    }

    #[test]
    fn matmul_structure() {
        let q = matmul_query();
        assert_eq!(q.attrs(), BTreeSet::from([A, B, C]));
        assert_eq!(q.non_output(), BTreeSet::from([B]));
        assert_eq!(q.leaves(), vec![A, C]);
        assert_eq!(q.degree(B), 2);
    }

    #[test]
    fn path_between_leaves() {
        let q = TreeQuery::new(
            vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
            [A, D],
        );
        assert_eq!(q.path(A, D), vec![0, 1, 2]);
        assert_eq!(q.path(D, A), vec![2, 1, 0]);
        assert!(q.path(A, A).is_empty());
    }

    #[test]
    fn component_without_cut() {
        let q = TreeQuery::new(
            vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
            [A, D],
        );
        let comp = q.component_without(A, &HashSet::from([1]));
        assert_eq!(comp, BTreeSet::from([A, B]));
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn rejects_forest() {
        let _ = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(C, D)], [A, D]);
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn rejects_cycle() {
        let _ = TreeQuery::new(
            vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, A)],
            [A],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate relation")]
    fn rejects_parallel_edges() {
        let _ = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, A)], [A]);
    }

    #[test]
    #[should_panic(expected = "not in any relation")]
    fn rejects_unknown_output() {
        let _ = TreeQuery::new(vec![Edge::binary(A, B)], [D]);
    }

    #[test]
    fn try_new_reports_what_new_panics_on() {
        for (edges, output, expected) in [
            (vec![], vec![A], "at least one relation"),
            (vec![Edge::pair(A, A)], vec![A], "self-loop"),
            (
                vec![Edge::unary(A), Edge::unary(B)],
                vec![A],
                "unary relations",
            ),
            (
                vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, A)],
                vec![A],
                "spanning tree",
            ),
        ] {
            let err = TreeQuery::try_new(edges, output).unwrap_err();
            assert!(err.contains(expected), "{err}");
        }
        assert_eq!(
            TreeQuery::try_new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]),
            Ok(matmul_query())
        );
    }

    #[test]
    fn unary_edges_allowed() {
        let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::unary(A)], [B]);
        assert_eq!(q.degree(A), 2);
        assert_eq!(q.leaves(), vec![B]);
    }

    #[test]
    fn single_unary_relation() {
        let q = TreeQuery::new(vec![Edge::unary(A)], [A]);
        assert_eq!(q.attrs(), BTreeSet::from([A]));
    }
}
