//! A small datalog-style surface syntax for tree join-aggregate queries.
//!
//! ```text
//! Q(a, c) :- R(a, b), S(b, c).
//! ```
//!
//! The head lists the output attributes; each body atom is a relation
//! over one or two named attributes. Whitespace is free; the trailing
//! period is optional; identifiers are `[A-Za-z_][A-Za-z0-9_]*`. Query
//! *semantics* (which aggregation, which semiring) is orthogonal — the
//! syntax only fixes the hypergraph and the output set, per §1.1.

use crate::builder::{AttrNames, QueryBuilder};
use crate::tree::TreeQuery;
use std::fmt;

/// A parsed query: the hypergraph, the attribute name table, and the
/// relation names in body order (used to bind input files to edges).
#[derive(Debug)]
pub struct ParsedQuery {
    /// The validated tree query.
    pub query: TreeQuery,
    /// Attribute name ↔ id table.
    pub names: AttrNames,
    /// The body atoms' relation names, in edge order.
    pub relation_names: Vec<String>,
}

/// A syntax or structure error. Carries a human-oriented message plus —
/// when the problem can be pinned to a location — the byte offset into
/// the query text and the offending token.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    offset: Option<usize>,
    token: Option<String>,
}

impl ParseError {
    fn new(message: impl Into<String>, offset: Option<usize>, token: Option<String>) -> Self {
        ParseError {
            message: message.into(),
            offset,
            token,
        }
    }

    /// The error message (without the position suffix `Display` adds).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset of the problem within the text given to
    /// [`parse_query`], when it can be located.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// The offending token, when one can be isolated.
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query syntax error: {}", self.message)?;
        if let Some(o) = self.offset {
            write!(f, " at byte {o}")?;
        }
        if let Some(t) = &self.token {
            write!(f, " near `{t}`")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError::new(msg, None, None))
}

/// Byte offset of `part` — a subslice of `text` — within `text`.
fn offset_in(text: &str, part: &str) -> usize {
    (part.as_ptr() as usize).saturating_sub(text.as_ptr() as usize)
}

/// Parse `Head(outputs…) :- Atom(attrs…), …` into a validated query.
///
/// Structural validation (tree shape, known outputs) is delegated to
/// [`TreeQuery::try_new`], whose message becomes the [`ParseError`]'s.
///
/// ```
/// use mpcjoin_query::{classify, parse_query, Shape};
///
/// let parsed = parse_query("Q(a, c) :- R(a, b), S(b, c).").unwrap();
/// assert!(matches!(classify(&parsed.query), Shape::MatMul { .. }));
/// assert_eq!(parsed.relation_names, ["R", "S"]);
///
/// // Cyclic hypergraphs are rejected with a message, not a panic.
/// assert!(parse_query("Q(a) :- R(a,b), S(b,c), T(c,a)").is_err());
/// ```
pub fn parse_query(text: &str) -> Result<ParsedQuery, ParseError> {
    let full = text;
    let text = text.trim().trim_end_matches('.');
    let Some((head, body)) = text.split_once(":-") else {
        return err("expected `Head(...) :- Body`");
    };

    let (head_name, outputs) = parse_atom(head, full)?;
    if head_name.is_empty() {
        return err("missing head relation name");
    }
    if outputs.iter().any(String::is_empty) {
        return err("empty attribute name in head");
    }

    let mut builder = QueryBuilder::new();
    let mut relation_names = Vec::new();
    for atom in split_atoms(body, full)? {
        let (name, attrs) = parse_atom(atom, full)?;
        if name.is_empty() {
            return Err(ParseError::new(
                format!("missing relation name in `{}`", atom.trim()),
                Some(offset_in(full, atom)),
                Some(atom.trim().to_string()),
            ));
        }
        match attrs.as_slice() {
            [x] => builder = builder.unary_relation(x),
            [x, y] => builder = builder.relation(x, y),
            other => {
                return Err(ParseError::new(
                    format!(
                        "relation {name} has arity {}; tree queries use arity 1 or 2",
                        other.len()
                    ),
                    Some(offset_in(full, atom)),
                    Some(name),
                ))
            }
        }
        relation_names.push(name);
    }
    if relation_names.is_empty() {
        return err("query body has no relations");
    }

    let (query, names) = builder
        .output(outputs.iter().map(String::as_str))
        .build()
        .map_err(|msg| ParseError::new(msg, None, None))?;
    Ok(ParsedQuery {
        query,
        names,
        relation_names,
    })
}

/// Split a body on top-level commas: `R(a, b), S(b, c)` → two atoms.
/// Returned atoms are subslices of the input, so their position in the
/// original query text is recoverable via [`offset_in`].
fn split_atoms<'a>(body: &'a str, full: &str) -> Result<Vec<&'a str>, ParseError> {
    let mut atoms = Vec::new();
    let mut open_stack = Vec::new();
    let mut start = 0usize;
    for (i, ch) in body.char_indices() {
        match ch {
            '(' => open_stack.push(i),
            ')' if open_stack.pop().is_none() => {
                return Err(ParseError::new(
                    "unbalanced `)`",
                    Some(offset_in(full, body) + i),
                    Some(")".to_string()),
                ));
            }
            ',' if open_stack.is_empty() => {
                atoms.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if let Some(&open) = open_stack.first() {
        return Err(ParseError::new(
            "unbalanced `(`",
            Some(offset_in(full, body) + open),
            Some("(".to_string()),
        ));
    }
    let last = &body[start..];
    if !last.trim().is_empty() {
        atoms.push(last);
    }
    Ok(atoms)
}

/// Parse `Name(attr, attr, …)` into the name and attribute list.
///
/// `atom` must be a subslice of `full` (the original query text) so
/// errors can report their byte offset within it.
fn parse_atom(atom: &str, full: &str) -> Result<(String, Vec<String>), ParseError> {
    let atom = atom.trim();
    let at = |part: &str| Some(offset_in(full, part));
    let Some(open) = atom.find('(') else {
        return Err(ParseError::new(
            format!("expected `Name(...)`, got `{atom}`"),
            at(atom),
            Some(atom.to_string()),
        ));
    };
    let Some(stripped) = atom.strip_suffix(')') else {
        return Err(ParseError::new(
            format!("missing `)` in `{atom}`"),
            at(atom),
            Some(atom.to_string()),
        ));
    };
    let name = atom[..open].trim();
    if !is_identifier(name) && !name.is_empty() {
        return Err(ParseError::new(
            format!("invalid relation name `{name}`"),
            at(name),
            Some(name.to_string()),
        ));
    }
    let args: Vec<&str> = stripped[open + 1..]
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    for &a in &args {
        if !is_identifier(a) {
            return Err(ParseError::new(
                format!("invalid attribute name `{a}`"),
                at(a),
                Some(a.to_string()),
            ));
        }
    }
    Ok((
        name.to_string(),
        args.iter().map(|a| a.to_string()).collect(),
    ))
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Shape};

    #[test]
    fn parses_matrix_multiplication() {
        let parsed = parse_query("Q(a, c) :- R(a, b), S(b, c).").expect("valid");
        assert!(matches!(classify(&parsed.query), Shape::MatMul { .. }));
        assert_eq!(parsed.relation_names, vec!["R", "S"]);
        assert_eq!(parsed.names.len(), 3);
    }

    #[test]
    fn parses_star_and_unary() {
        let parsed =
            parse_query("Out(x, y, z) :- A(x, hub), B(y, hub), C(z, hub), F(hub)").expect("valid");
        assert_eq!(parsed.query.edges().len(), 4);
        assert_eq!(parsed.relation_names, vec!["A", "B", "C", "F"]);
    }

    #[test]
    fn whitespace_and_newlines_are_free() {
        let parsed = parse_query(
            "Q( src , dst )\n  :-  Hop1(src, m1),\n      Hop2(m1, m2),\n      Hop3(m2, dst)",
        )
        .expect("valid");
        assert!(matches!(classify(&parsed.query), Shape::Line { .. }));
    }

    #[test]
    fn rejects_missing_turnstile() {
        assert!(parse_query("Q(a, c)").is_err());
    }

    #[test]
    fn rejects_cyclic_queries() {
        let e = parse_query("Q(a) :- R(a, b), S(b, c), T(c, a)").unwrap_err();
        assert!(e.to_string().contains("spanning tree"), "{e}");
    }

    #[test]
    fn rejects_parallel_edges_and_self_loops() {
        let e = parse_query("Q(a) :- R(a, b), S(a, b)").unwrap_err();
        assert!(e.to_string().contains("parallel edges"), "{e}");
        let e = parse_query("Q(a) :- R(a, a)").unwrap_err();
        assert!(e.to_string().contains("self-loop"), "{e}");
    }

    #[test]
    fn rejects_high_arity() {
        let e = parse_query("Q(a) :- R(a, b, c)").unwrap_err();
        assert!(e.to_string().contains("arity 3"), "{e}");
    }

    #[test]
    fn rejects_bad_identifiers() {
        assert!(parse_query("Q(a) :- R(a, 1b)").is_err());
        assert!(parse_query("Q(a) :- R(a, b c)").is_err());
    }

    #[test]
    fn rejects_unknown_output() {
        let e = parse_query("Q(zzz) :- R(a, b)").unwrap_err();
        assert!(e.to_string().contains("not in any relation"), "{e}");
    }

    #[test]
    fn unbalanced_parens_reported() {
        assert!(parse_query("Q(a :- R(a, b)").is_err());
        assert!(parse_query("Q(a) :- R(a, b)) , S(b,c)").is_err());
    }

    #[test]
    fn errors_carry_byte_offsets_and_tokens() {
        let text = "Q(a, c) :- R(a, 1b)";
        let e = parse_query(text).unwrap_err();
        assert_eq!(e.token(), Some("1b"));
        assert_eq!(e.offset(), Some(16));
        assert_eq!(&text[16..18], "1b");
        assert!(e.to_string().contains("at byte 16"), "{e}");
        assert!(e.to_string().contains("near `1b`"), "{e}");

        let text = "Q(a) :- R(a, b)) , S(b,c)";
        let e = parse_query(text).unwrap_err();
        assert_eq!(e.token(), Some(")"));
        assert_eq!(e.offset(), Some(15));
        assert_eq!(&text[15..16], ")");

        // The first unclosed `(` is reported, not the last.
        let text = "Q(a) :- R(a b(";
        let e = parse_query(text).unwrap_err();
        assert_eq!(e.token(), Some("("));
        assert_eq!(e.offset(), Some(9));
        assert_eq!(&text[9..10], "(");

        let text = "Q(a) :- 9R(a, b)";
        let e = parse_query(text).unwrap_err();
        assert_eq!(e.token(), Some("9R"));
        assert_eq!(e.offset(), Some(8));

        // Structural errors (no single offending token) have no position.
        let e = parse_query("Q(zzz) :- R(a, b)").unwrap_err();
        assert_eq!(e.offset(), None);
        assert_eq!(e.token(), None);
    }

    /// Deterministic xorshift generator for the fuzz test — no seed from
    /// the environment, so failures reproduce exactly.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Mutation fuzzing: take valid queries, splice in random edits, and
    /// check the parser always returns (Ok or Err) instead of panicking,
    /// and that reported offsets stay inside the input.
    #[test]
    fn fuzzed_inputs_never_panic_and_offsets_stay_in_bounds() {
        let seeds = [
            "Q(a, c) :- R(a, b), S(b, c).",
            "Out(x, y, z) :- A(x, hub), B(y, hub), C(z, hub), F(hub)",
            "Q(src, dst) :- Hop1(src, m1), Hop2(m1, m2), Hop3(m2, dst)",
        ];
        let alphabet: Vec<char> = "(),:-. _abQR019\u{e9}".chars().collect();
        let mut rng = Lcg(0x9e3779b97f4a7c15);
        for round in 0..400 {
            let base = seeds[round % seeds.len()];
            let mut chars: Vec<char> = base.chars().collect();
            for _ in 0..1 + rng.below(4) {
                let pos = rng.below(chars.len().max(1));
                match rng.below(3) {
                    0 if !chars.is_empty() => {
                        chars.remove(pos.min(chars.len() - 1));
                    }
                    1 => chars.insert(pos, alphabet[rng.below(alphabet.len())]),
                    _ if !chars.is_empty() => {
                        let idx = pos.min(chars.len() - 1);
                        chars[idx] = alphabet[rng.below(alphabet.len())];
                    }
                    _ => {}
                }
            }
            let mutated: String = chars.into_iter().collect();
            if let Err(e) = parse_query(&mutated) {
                if let Some(off) = e.offset() {
                    assert!(
                        off < mutated.len().max(1),
                        "offset {off} out of bounds: {e}"
                    );
                }
            }
        }
    }
}
