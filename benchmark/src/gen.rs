//! Seeded input generators owned by the benchmark.
//!
//! Everything here is plain data — query text, integer rows, wire frame
//! strings — and depends on nothing from the repository (in particular
//! not on `crates/workload`), so a change to the program under test can
//! never move the benchmark's inputs. `--seed` drives every instance
//! and every request through [`SplitMix64`]; the same seed gives the
//! same bytes, and [`Digest`] folds them into the `input_digest` each
//! workload prints so drift is visible.
//!
//! The *structure* of every instance (block counts, degrees, domain
//! sizes) is frozen in [`crate::sizes`]; the seed only relabels values,
//! shuffles row order, and draws weights. That keeps the amount of work
//! per pass the same for every seed, so timings from different seeds
//! are comparable, while no two seeds hand the program the same bytes.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea & Flood): one 64-bit word of state, every
/// seed valid, good enough for shuffles and draws.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for sub-generator `tag` (so adding a draw
    /// to one instance never shifts the inputs of another).
    pub fn fork(&self, tag: u64) -> Self {
        let mut s = SplitMix64(self.0 ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(s.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high; the bias is below 2⁻³² for the
    /// domain sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A random bijection on `0..n`.
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut p: Vec<u64> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// FNV-1a over the generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn instance(&mut self, inst: &Instance) {
        self.bytes(inst.query.as_bytes());
        self.bytes(inst.ring.wire_name().as_bytes());
        self.word(inst.servers as u64);
        for (name, rows) in &inst.relations {
            self.bytes(name.as_bytes());
            for row in rows {
                for &v in row {
                    self.word(v);
                }
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The semirings the workloads use, by their wire names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ring {
    Count,
    MinPlus,
    Bool,
}

impl Ring {
    pub fn wire_name(self) -> &'static str {
        match self {
            Ring::Count => "count",
            Ring::MinPlus => "minplus",
            Ring::Bool => "bool",
        }
    }
}

/// One generated query instance: what an engine caller or a wire client
/// hands the program. Rows are the atom's attribute values in atom
/// order, plus a trailing weight for `minplus` (the wire convention).
#[derive(Clone, Debug)]
pub struct Instance {
    /// Short label for reports (`blocks-s2`, `funnel`, …).
    pub label: String,
    /// Datalog text, e.g. `Q(a, c) :- R0(a, b), R1(b, c)`.
    pub query: String,
    pub ring: Ring,
    /// Simulated cluster width `p`.
    pub servers: usize,
    /// `(relation name, rows)` in body-atom order.
    pub relations: Vec<(String, Vec<Vec<u64>>)>,
}

impl Instance {
    /// The `mpcjoin-wire-v1` query frame for this instance, split
    /// around the request id so a replayed request costs the generator
    /// one copy, not one serialization.
    pub fn query_frame(&self, limit: Option<usize>, register: bool) -> Frame {
        let mut tail = self.frame_tail(limit);
        if register {
            tail.push_str(",\"register\":true");
        }
        tail.push_str(",\"relations\":");
        push_row_map(&mut tail, &self.relations);
        tail.push('}');
        Frame {
            head: frame_head("query"),
            tail,
        }
    }

    /// An `update` frame against the view a registering
    /// [`Instance::query_frame`] created.
    pub fn update_frame(&self, limit: Option<usize>, edit: &Edit) -> Frame {
        let mut tail = self.frame_tail(limit);
        tail.push_str(",\"inserts\":");
        push_row_map(&mut tail, &edit.inserts);
        tail.push_str(",\"deletes\":");
        push_row_map(&mut tail, &edit.deletes);
        tail.push('}');
        Frame {
            head: frame_head("update"),
            tail,
        }
    }

    fn frame_tail(&self, limit: Option<usize>) -> String {
        let mut f = format!(
            ",\"query\":\"{}\",\"semiring\":\"{}\",\"servers\":{}",
            self.query,
            self.ring.wire_name(),
            self.servers
        );
        if let Some(n) = limit {
            let _ = write!(f, ",\"limit\":{n}");
        }
        f
    }
}

fn frame_head(kind: &str) -> String {
    format!("{{\"schema\":\"mpcjoin-wire-v1\",\"type\":\"{kind}\",\"id\":")
}

/// A request frame minus its id: `head`, the id, `tail`.
#[derive(Clone, Debug)]
pub struct Frame {
    head: String,
    tail: String,
}

impl Frame {
    /// The frame line for request `id`, newline included, so a client
    /// sends it with one write.
    pub fn line(&self, id: u64) -> String {
        format!("{}{id}{}\n", self.head, self.tail)
    }
}

fn push_row_map(f: &mut String, rels: &[(String, Vec<Vec<u64>>)]) {
    f.push('{');
    for (i, (name, rows)) in rels.iter().enumerate() {
        if i > 0 {
            f.push(',');
        }
        let _ = write!(f, "\"{name}\":[");
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                f.push(',');
            }
            f.push('[');
            for (k, v) in row.iter().enumerate() {
                if k > 0 {
                    f.push(',');
                }
                let _ = write!(f, "{v}");
            }
            f.push(']');
        }
        f.push(']');
    }
    f.push('}');
}

const MM_QUERY: &str = "Q(a, c) :- R0(a, b), R1(b, c)";
const LINE3_QUERY: &str = "Q(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3)";
const STAR3_QUERY: &str = "Q(a0, a1, a2) :- R0(a0, b), R1(a1, b), R2(a2, b)";
/// The paper's Figure-3 twig: two star-like parts rooted at `b1`, `b2`
/// joined through the skeleton path `m1 – m2`, which carries the
/// hanging output leaves `a2`, `a3`.
const TWIG_QUERY: &str = "Q(a0, a1, a2, a3, a4, a5) :- R0(b1, a0), R1(b1, a1), R2(b1, m1), \
                          R3(m1, a2), R4(m1, m2), R5(m2, a3), R6(m2, b2), R7(b2, a4), R8(b2, a5)";

fn named(rels: Vec<Vec<Vec<u64>>>) -> Vec<(String, Vec<Vec<u64>>)> {
    rels.into_iter()
        .enumerate()
        .map(|(i, rows)| (format!("R{i}"), rows))
        .collect()
}

/// Relabel column `col` of every row through `perm`.
fn relabel(rows: &mut [Vec<u64>], col: usize, perm: &[u64]) {
    for row in rows {
        row[col] = perm[row[col] as usize];
    }
}

/// Block-structured sparse × sparse product: `k` complete bipartite
/// blocks `A_i × B_i`, `B_i × C_i` with `|A_i| = |C_i| = side` and
/// `|B_i| = thickness`, so `N = 2·k·side·thickness` and
/// `OUT = k·side²` exactly. `side` moves the instance along the OUT axis
/// of Theorem 1: small `side` takes the §3.2 output-sensitive path,
/// large `side` the §3.1 worst-case-optimal one.
pub fn mm_blocks(
    rng: &mut SplitMix64,
    servers: usize,
    k: u64,
    side: u64,
    thickness: u64,
) -> Instance {
    let (mut r0, mut r1) = (Vec::new(), Vec::new());
    for blk in 0..k {
        for i in 0..side {
            for j in 0..thickness {
                r0.push(vec![blk * side + i, blk * thickness + j]);
                r1.push(vec![blk * thickness + j, blk * side + i]);
            }
        }
    }
    let (pa, pb, pc) = (
        rng.permutation(k * side),
        rng.permutation(k * thickness),
        rng.permutation(k * side),
    );
    relabel(&mut r0, 0, &pa);
    relabel(&mut r0, 1, &pb);
    relabel(&mut r1, 0, &pb);
    relabel(&mut r1, 1, &pc);
    rng.shuffle(&mut r0);
    rng.shuffle(&mut r1);
    Instance {
        label: format!("blocks-s{side}"),
        query: MM_QUERY.into(),
        ring: Ring::Count,
        servers,
        relations: named(vec![r0, r1]),
    }
}

/// The 3-hop *funnel* line (`minplus`): per group one `x0` value fans
/// out to `k` private `x1` values, a complete `k × k` block leads to the
/// group's `x2` values, which all fan in to the same `m` `x3` values.
/// `OUT = groups·m`; the `k²` witnesses per group collapse early.
pub fn funnel_line(rng: &mut SplitMix64, servers: usize, groups: u64, k: u64, m: u64) -> Instance {
    let (mut r0, mut r1, mut r2) = (Vec::new(), Vec::new(), Vec::new());
    for g in 0..groups {
        for i in 0..k {
            r0.push(vec![g, g * k + i]);
            for j in 0..k {
                r1.push(vec![g * k + i, g * k + j]);
            }
            for j in 0..m {
                r2.push(vec![g * k + i, g * m + j]);
            }
        }
    }
    let perms = [
        rng.permutation(groups),
        rng.permutation(groups * k),
        rng.permutation(groups * k),
        rng.permutation(groups * m),
    ];
    let mut rels = vec![r0, r1, r2];
    for (h, rows) in rels.iter_mut().enumerate() {
        relabel(rows, 0, &perms[h]);
        relabel(rows, 1, &perms[h + 1]);
        for row in rows.iter_mut() {
            row.push(rng.below(16));
        }
        rng.shuffle(rows);
    }
    Instance {
        label: "funnel".into(),
        query: LINE3_QUERY.into(),
        ring: Ring::MinPlus,
        servers,
        relations: named(rels),
    }
}

/// Complete bipartite rows between two relabelled domains.
fn biclique(rng: &mut SplitMix64, left: &[u64], right: &[u64]) -> Vec<Vec<u64>> {
    let mut rows = Vec::with_capacity(left.len() * right.len());
    for &x in left {
        for &y in right {
            rows.push(vec![x, y]);
        }
    }
    rng.shuffle(&mut rows);
    rows
}

/// A domain of `n` distinct labels drawn from a space 16× larger, so
/// labels of different seeds rarely coincide.
fn labels(rng: &mut SplitMix64, n: u64) -> Vec<u64> {
    let mut p = rng.permutation(n * 16);
    p.truncate(n as usize);
    p
}

/// The 3-arm *overlapping* star: every one of `centers` `b`-values
/// connects to the same `d` endpoints per arm, so the join has
/// `centers·d³` witnesses but only `OUT = d³` outputs.
pub fn overlapping_star(
    rng: &mut SplitMix64,
    ring: Ring,
    servers: usize,
    centers: u64,
    d: u64,
) -> Instance {
    let center = labels(rng, centers);
    let rels = (0..3)
        .map(|_| {
            let ends = labels(rng, d);
            biclique(rng, &ends, &center)
        })
        .collect();
    Instance {
        label: "star".into(),
        query: STAR3_QUERY.into(),
        ring,
        servers,
        relations: named(rels),
    }
}

/// The Figure-3 twig with *overlapping witnesses* (`count`): non-output
/// attributes range over `centers` values, output attributes over `d`,
/// every relation is complete between its endpoints' domains, so all
/// witness paths collapse onto the same `d⁶` outputs.
pub fn overlapping_twig(rng: &mut SplitMix64, servers: usize, centers: u64, d: u64) -> Instance {
    // Attribute → domain, in the order the attributes appear in TWIG_QUERY.
    let inner = |rng: &mut SplitMix64| labels(rng, centers);
    let (b1, m1, m2, b2) = (inner(rng), inner(rng), inner(rng), inner(rng));
    let outs: Vec<Vec<u64>> = (0..6).map(|_| labels(rng, d)).collect();
    let rels = vec![
        biclique(rng, &b1, &outs[0]),
        biclique(rng, &b1, &outs[1]),
        biclique(rng, &b1, &m1),
        biclique(rng, &m1, &outs[2]),
        biclique(rng, &m1, &m2),
        biclique(rng, &m2, &outs[3]),
        biclique(rng, &m2, &b2),
        biclique(rng, &b2, &outs[4]),
        biclique(rng, &b2, &outs[5]),
    ];
    Instance {
        label: "twig".into(),
        query: TWIG_QUERY.into(),
        ring: Ring::Count,
        servers,
        relations: named(rels),
    }
}

/// `n` distinct uniform pairs over `dom_x × dom_y`, in seeded order.
fn uniform_pairs(rng: &mut SplitMix64, n: usize, dom_x: u64, dom_y: u64) -> Vec<Vec<u64>> {
    assert!(n as u64 <= dom_x * dom_y, "relation denser than its domain");
    let mut seen = BTreeSet::new();
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let pair = (rng.below(dom_x), rng.below(dom_y));
        if seen.insert(pair) {
            rows.push(vec![pair.0, pair.1]);
        }
    }
    rows
}

/// Uniform random sparse product (`count`): `n` nonzeros per matrix.
pub fn uniform_mm(
    rng: &mut SplitMix64,
    servers: usize,
    n: usize,
    dom_outer: u64,
    dom_b: u64,
) -> Instance {
    let r0 = uniform_pairs(rng, n, dom_outer, dom_b);
    let r1 = uniform_pairs(rng, n, dom_b, dom_outer);
    Instance {
        label: "mm".into(),
        query: MM_QUERY.into(),
        ring: Ring::Count,
        servers,
        relations: named(vec![r0, r1]),
    }
}

/// One `update` frame's row edits, per relation name.
#[derive(Clone, Debug, Default)]
pub struct Edit {
    pub inserts: Vec<(String, Vec<Vec<u64>>)>,
    pub deletes: Vec<(String, Vec<Vec<u64>>)>,
}

/// Client-side mirror of a registered view's row lists: draws the next
/// seeded [`Edit`] (fresh inserts, exact-row deletes of rows that exist)
/// and applies it, so the mirrored instance always equals the server's.
pub struct Mirror {
    pub instance: Instance,
    present: Vec<BTreeSet<(u64, u64)>>,
    dom: (u64, u64),
    rng: SplitMix64,
}

impl Mirror {
    /// `dom` is the `(outer, b)` domain pair the instance's
    /// [`uniform_mm`] call used.
    pub fn new(instance: Instance, dom: (u64, u64), rng: SplitMix64) -> Mirror {
        let present = instance
            .relations
            .iter()
            .map(|(_, rows)| rows.iter().map(|r| (r[0], r[1])).collect())
            .collect();
        Mirror {
            instance,
            present,
            dom,
            rng,
        }
    }

    /// Draw and apply the next edit: `inserts` new rows and `deletes`
    /// existing rows, split evenly over the two relations.
    pub fn next_edit(&mut self, inserts: usize, deletes: usize) -> Edit {
        let mut edit = Edit::default();
        for (i, (name, rows)) in self.instance.relations.iter_mut().enumerate() {
            let (dx, dy) = if i == 0 {
                (self.dom.0, self.dom.1)
            } else {
                (self.dom.1, self.dom.0)
            };
            let mut gone = Vec::new();
            for _ in 0..deletes / 2 {
                let row = rows.swap_remove(self.rng.below(rows.len() as u64) as usize);
                self.present[i].remove(&(row[0], row[1]));
                gone.push(row);
            }
            let mut fresh = Vec::new();
            while fresh.len() < inserts / 2 {
                let pair = (self.rng.below(dx), self.rng.below(dy));
                if self.present[i].insert(pair) {
                    fresh.push(vec![pair.0, pair.1]);
                }
            }
            rows.extend(fresh.iter().cloned());
            edit.inserts.push((name.clone(), fresh));
            edit.deletes.push((name.clone(), gone));
        }
        edit
    }
}
