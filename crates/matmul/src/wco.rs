//! The worst-case optimal matrix multiplication algorithm of §3.1
//! (Lemma 1): load `O((N1+N2)/p + √(N1N2/p))` in `O(1)` rounds.
//!
//! With target load `L = √(N1N2/p)`, values of `A` (resp. `C`) are *heavy*
//! when their degree reaches `L`. The query splits into four disjoint
//! subqueries by heaviness:
//!
//! * **heavy–heavy** — each pair `(a, c)` gets `⌈(deg(a)+deg(c))/L⌉`
//!   servers; tuples hash-partition by `b` inside the group, partial
//!   products are aggregated globally (the pair count is at most `p`);
//! * **heavy–light / light–heavy** — each heavy value gets a server group
//!   holding its row/column plus all light tuples of the other side,
//!   hash-partitioned by `b`;
//! * **light–light** — parallel-packing groups light values into
//!   degree-`O(L)` bundles on both sides; the bundles form a
//!   `⌈N1/L⌉ × ⌈N2/L⌉` grid, each cell joining one `A`-bundle against one
//!   `C`-bundle entirely locally. Keeping these results local — *locality*,
//!   in the paper's words — is what lets the worst case avoid any
//!   `OUT`-dependent shuffle.
//!
//! The four cover disjoint `(a, c)` ranges, so their union needs no final
//! cross-subquery aggregation.

use crate::problem::MatMulAttrs;
use mpcjoin_mpc::hash::stable_hash;
use mpcjoin_mpc::primitives::reduce::reduce_by_key;
use mpcjoin_mpc::primitives::scan::parallel_packing;
use mpcjoin_mpc::primitives::search::lookup_exact;
use mpcjoin_mpc::{Cluster, DistRelation, Distributed};
use mpcjoin_relation::{Row, Value};
use mpcjoin_semiring::Semiring;
use std::collections::{HashMap, HashSet};

/// Kind tags for the four subqueries.
const HH: u8 = 0;
const HL: u8 = 1;
const LH: u8 = 2;
const LL: u8 = 3;

/// Compute `∑_B R1 ⋈ R2` with the §3.1 algorithm.
pub fn wco_matmul<S: Semiring>(
    cluster: &mut Cluster,
    r1: &DistRelation<S>,
    r2: &DistRelation<S>,
) -> DistRelation<S> {
    let m = MatMulAttrs::infer(r1, r2);
    let p = cluster.p();
    let n1 = r1.total_len() as u64;
    let n2 = r2.total_len() as u64;
    if n1 == 0 || n2 == 0 {
        return DistRelation::empty(cluster, m.out_schema());
    }
    let load = (((n1 * n2) as f64 / p as f64).sqrt().ceil() as u64).max(1);

    // --- Step 1: degree statistics and heavy lists. ---
    let deg_a = r1.degrees(cluster, m.a);
    let deg_c = r2.degrees(cluster, m.c);
    let heavy_a = broadcast_heavy(cluster, &deg_a, load);
    let heavy_c = broadcast_heavy(cluster, &deg_c, load);
    let heavy_a_set: HashSet<Value> = heavy_a.iter().map(|(v, _)| *v).collect();
    let heavy_c_set: HashSet<Value> = heavy_c.iter().map(|(v, _)| *v).collect();
    let n1_light = n1 - heavy_a.iter().map(|(_, d)| *d).sum::<u64>();
    let n2_light = n2 - heavy_c.iter().map(|(_, d)| *d).sum::<u64>();

    // Light-value bundles on both sides (Step 4 prep).
    let ha = heavy_a_set.clone();
    let light_a = deg_a.par_map_local(cluster, |_, items| {
        items
            .into_iter()
            .filter(|(v, _)| !ha.contains(v))
            .collect::<Vec<_>>()
    });
    let hc = heavy_c_set.clone();
    let light_c = deg_c.par_map_local(cluster, |_, items| {
        items
            .into_iter()
            .filter(|(v, _)| !hc.contains(v))
            .collect::<Vec<_>>()
    });
    let pack_a = parallel_packing(cluster, light_a, |(_, d)| *d, load);
    let pack_c = parallel_packing(cluster, light_c, |(_, d)| *d, load);
    let (k_groups, l_groups) = (pack_a.groups, pack_c.groups);

    // --- Server allocation (deterministic driver arithmetic). ---
    let mut next = 0usize;
    let mut hh_groups: HashMap<(Value, Value), (usize, usize)> = HashMap::new();
    for &(a, da) in &heavy_a {
        for &(c, dc) in &heavy_c {
            let size = ((da + dc).div_ceil(load) as usize).max(1);
            hh_groups.insert((a, c), (next, size));
            next += size;
        }
    }
    let mut hl_groups: HashMap<Value, (usize, usize)> = HashMap::new();
    for &(a, da) in &heavy_a {
        let size = ((da + n2_light).div_ceil(load) as usize).max(1);
        hl_groups.insert(a, (next, size));
        next += size;
    }
    let mut lh_groups: HashMap<Value, (usize, usize)> = HashMap::new();
    for &(c, dc) in &heavy_c {
        let size = ((dc + n1_light).div_ceil(load) as usize).max(1);
        lh_groups.insert(c, (next, size));
        next += size;
    }
    let ll_base = next;

    // --- Attach light bundle ids to tuples (side-disambiguated keys). ---
    let mut catalog_parts: Vec<Vec<(Row, u64)>> = vec![Vec::new(); p];
    for (i, local) in pack_a.assigned.into_parts().into_iter().enumerate() {
        catalog_parts[i].extend(local.into_iter().map(|((v, _), g)| (vec![1u64, v], g)));
    }
    for (i, local) in pack_c.assigned.into_parts().into_iter().enumerate() {
        catalog_parts[i].extend(local.into_iter().map(|((v, _), g)| (vec![2u64, v], g)));
    }
    let catalog = Distributed::from_parts(catalog_parts);

    let pos_a = r1.schema().positions_of(&[m.a])[0];
    let pos_b1 = r1.schema().positions_of(&[m.b])[0];
    let pos_b2 = r2.schema().positions_of(&[m.b])[0];
    let pos_c = r2.schema().positions_of(&[m.c])[0];

    let mut tagged_parts: Vec<Vec<(u8, Row, S)>> = vec![Vec::new(); p];
    for (i, local) in r1.data().iter() {
        tagged_parts[i].extend(local.iter().map(|(r, s)| (1u8, r.clone(), s.clone())));
    }
    for (i, local) in r2.data().iter() {
        tagged_parts[i].extend(local.iter().map(|(r, s)| (2u8, r.clone(), s.clone())));
    }
    let with_gid = lookup_exact(
        cluster,
        Distributed::from_parts(tagged_parts),
        move |(side, row, _): &(u8, Row, S)| {
            if *side == 1 {
                vec![1u64, row[pos_a]]
            } else {
                vec![2u64, row[pos_c]]
            }
        },
        catalog,
    );

    // --- Route every tuple to its subquery servers. ---
    // Items carry (kind, task key, side, b, out-value, annotation); the
    // out-value is `a` for side 1 and `c` for side 2.
    type Item<S> = (u8, (Value, Value), u8, Value, Value, S);
    let outboxes: Vec<Vec<(usize, Item<S>)>> = with_gid
        .into_parts()
        .into_iter()
        .map(|local| {
            let mut out = Vec::new();
            for ((side, row, s), gid) in local {
                let (own, b) = if side == 1 {
                    (row[pos_a], row[pos_b1])
                } else {
                    (row[pos_c], row[pos_b2])
                };
                let hb = stable_hash(&b) as usize;
                let is_heavy = if side == 1 {
                    heavy_a_set.contains(&own)
                } else {
                    heavy_c_set.contains(&own)
                };
                if is_heavy {
                    // Heavy-heavy pairs with every heavy partner.
                    let partners: &Vec<(Value, u64)> = if side == 1 { &heavy_c } else { &heavy_a };
                    for &(other, _) in partners {
                        let key = if side == 1 {
                            (own, other)
                        } else {
                            (other, own)
                        };
                        let (base, size) = hh_groups[&key];
                        out.push(((base + hb % size) % p, (HH, key, side, b, own, s.clone())));
                    }
                    // Its own heavy-light (resp. light-heavy) group.
                    let (kind, (base, size)) = if side == 1 {
                        (HL, hl_groups[&own])
                    } else {
                        (LH, lh_groups[&own])
                    };
                    out.push(((base + hb % size) % p, (kind, (own, 0), side, b, own, s)));
                } else {
                    // Light: join every heavy partner's group…
                    let partner_groups: &HashMap<Value, (usize, usize)> =
                        if side == 1 { &lh_groups } else { &hl_groups };
                    let kind = if side == 1 { LH } else { HL };
                    for (&other, &(base, size)) in partner_groups {
                        out.push((
                            (base + hb % size) % p,
                            (kind, (other, 0), side, b, own, s.clone()),
                        ));
                    }
                    // …and its light-light grid row/column. Every light
                    // value has a bundle id, unless the run was stopped
                    // and the lookup's exchanges delivered nothing.
                    let Some(g) = gid else { continue };
                    if side == 1 {
                        for j in 0..l_groups {
                            out.push((
                                (ll_base + (g * l_groups + j) as usize) % p,
                                (LL, (g, j), side, b, own, s.clone()),
                            ));
                        }
                    } else {
                        for i in 0..k_groups {
                            out.push((
                                (ll_base + (i * l_groups + g) as usize) % p,
                                (LL, (i, g), side, b, own, s.clone()),
                            ));
                        }
                    }
                }
            }
            out
        })
        .collect();
    let at_servers = {
        // The Theorem-1 routing round: every light-light grid cell gets
        // one A-bundle plus one C-bundle (≤ 2L each after packing), so a
        // cell server receives up to 4L units here — the constant behind
        // the auditor's default slack.
        let _op = cluster.op("wco:route");
        cluster.exchange(outboxes)
    };

    // --- Local joins. Light-light results are final; the hash-partitioned
    // kinds produce (a, c)-keyed partials for one global aggregation. ---
    let computed = at_servers.par_map_local(cluster, |_, items| {
        // (kind, task, b) → per-side values.
        let mut sides: HashMap<(u8, (Value, Value), Value), (Vec<(Value, S)>, Vec<(Value, S)>)> =
            HashMap::new();
        for (kind, task, side, b, own, s) in items {
            let entry = sides.entry((kind, task, b)).or_default();
            if side == 1 {
                entry.0.push((own, s));
            } else {
                entry.1.push((own, s));
            }
        }
        let mut partials: HashMap<(Value, Value), S> = HashMap::new();
        let mut finals: HashMap<(Value, Value), S> = HashMap::new();
        for ((kind, _task, _b), (lefts, rights)) in sides {
            let sink = if kind == LL {
                &mut finals
            } else {
                &mut partials
            };
            for (a_val, ls) in &lefts {
                for (c_val, rs) in &rights {
                    let annot = ls.mul(rs);
                    match sink.get_mut(&(*a_val, *c_val)) {
                        Some(acc) => acc.add_assign(&annot),
                        None => {
                            sink.insert((*a_val, *c_val), annot);
                        }
                    }
                }
            }
        }
        let mut out: Vec<(bool, (Value, Value), S)> = partials
            .into_iter()
            .map(|(k, s)| (false, k, s))
            .chain(finals.into_iter().map(|(k, s)| (true, k, s)))
            .collect();
        out.sort_by_key(|x| (x.0, x.1));
        out
    });

    // Separate final (light-light) results from partials needing a reduce.
    let mut final_parts: Vec<Vec<(Row, S)>> = vec![Vec::new(); p];
    let mut partial_parts: Vec<Vec<((Value, Value), S)>> = vec![Vec::new(); p];
    for (i, local) in computed.into_parts().into_iter().enumerate() {
        for (is_final, (a, c), s) in local {
            if is_final {
                final_parts[i].push((vec![a, c], s));
            } else {
                partial_parts[i].push(((a, c), s));
            }
        }
    }
    let reduced = reduce_by_key(
        cluster,
        Distributed::from_parts(partial_parts),
        |acc: &mut S, v| acc.add_assign(&v),
    );
    for (i, local) in reduced.into_parts().into_iter().enumerate() {
        final_parts[i].extend(
            local
                .into_iter()
                .filter(|(_, s)| !s.is_zero())
                .map(|((a, c), s)| (vec![a, c], s)),
        );
    }

    DistRelation::from_distributed(m.out_schema(), Distributed::from_parts(final_parts))
}

/// Filter a degree table to entries with `deg ≥ load` and make the list
/// known everywhere (one broadcast round); returns a sorted copy for the
/// driver's deterministic group assignment.
fn broadcast_heavy(
    cluster: &mut Cluster,
    degrees: &Distributed<(Value, u64)>,
    load: u64,
) -> Vec<(Value, u64)> {
    let filtered = degrees.clone().par_map_local(cluster, |_, items| {
        items
            .into_iter()
            .filter(|(_, d)| *d >= load)
            .collect::<Vec<_>>()
    });
    let _op = cluster.op("wco:heavy-stats");
    let everywhere = cluster.broadcast(&filtered);
    let mut list = everywhere.local(0).clone();
    list.sort_unstable();
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin_relation::{Attr, Relation};
    use mpcjoin_semiring::Count;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);

    fn check(r1: &Relation<Count>, r2: &Relation<Count>, p: usize) -> Cluster {
        let mut cluster = Cluster::new(p);
        let d1 = DistRelation::scatter(&cluster, r1);
        let d2 = DistRelation::scatter(&cluster, r2);
        let got = wco_matmul(&mut cluster, &d1, &d2);
        let expect = r1.join_aggregate(r2, &[A, C]);
        assert!(
            got.gather().semantically_eq(&expect),
            "wco_matmul diverged from local evaluation"
        );
        cluster
    }

    #[test]
    fn all_light_random() {
        let r1 = Relation::binary_ones(A, B, (0..200u64).map(|i| (i % 50, i % 23)));
        let r2 = Relation::binary_ones(B, C, (0..200u64).map(|i| (i % 23, i % 40)));
        check(&r1, &r2, 8);
    }

    #[test]
    fn dense_single_b_worst_case() {
        // |dom(B)| = 1: OUT = N1·N2 elementary products, the Lemma-1
        // worst case. Load must stay near √(N1N2/p).
        let n = 128u64;
        let r1 = Relation::binary_ones(A, B, (0..n).map(|i| (i, 0)));
        let r2 = Relation::binary_ones(B, C, (0..n).map(|i| (0, i)));
        let cluster = check(&r1, &r2, 16);
        let bound = ((n * n) as f64 / 16.0).sqrt() as u64;
        assert!(
            cluster.report().load <= 8 * bound + 128,
            "load {} far above √(N1N2/p) = {}",
            cluster.report().load,
            bound
        );
    }

    #[test]
    fn heavy_rows_and_columns_mix() {
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        // Heavy a = 1000 joins many b's; heavy c = 2000 likewise.
        for i in 0..80u64 {
            p1.push((1000, i));
            p2.push((i, 2000));
        }
        // Light fringe.
        for i in 0..60u64 {
            p1.push((i, i % 13));
            p2.push((i % 13, 500 + i));
        }
        check(
            &Relation::binary_ones(A, B, p1),
            &Relation::binary_ones(B, C, p2),
            8,
        );
    }

    #[test]
    fn identity_like_sparse() {
        let r1 = Relation::binary_ones(A, B, (0..64u64).map(|i| (i, i)));
        let r2 = Relation::binary_ones(B, C, (0..64u64).map(|i| (i, i)));
        let cluster = check(&r1, &r2, 8);
        // Sparse diagonal: OUT = 64, load stays linear-ish.
        assert!(cluster.report().load <= 200);
    }

    #[test]
    fn annotations_multiply_and_add() {
        let r1 = Relation::from_entries(
            mpcjoin_relation::Schema::binary(A, B),
            vec![
                (vec![1, 10], Count(2)),
                (vec![1, 11], Count(3)),
                (vec![2, 10], Count(5)),
            ],
        );
        let r2 = Relation::from_entries(
            mpcjoin_relation::Schema::binary(B, C),
            vec![(vec![10, 7], Count(7)), (vec![11, 7], Count(11))],
        );
        check(&r1, &r2, 4);
    }

    #[test]
    fn rounds_constant_in_n() {
        let mut rounds = Vec::new();
        for n in [128u64, 512, 2048] {
            let r1 = Relation::binary_ones(A, B, (0..n).map(|i| (i % (n / 4), i % 31)));
            let r2 = Relation::binary_ones(B, C, (0..n).map(|i| (i % 31, i % (n / 4))));
            let c = check(&r1, &r2, 8);
            rounds.push(c.report().rounds);
        }
        assert!(rounds.windows(2).all(|w| w[0] == w[1]), "{rounds:?}");
    }
}
