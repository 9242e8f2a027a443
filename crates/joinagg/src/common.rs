//! Shared machinery for the §4–§7 algorithms: distributed dictionary
//! encoding of "combined attributes".
//!
//! Several reductions treat a set of attributes as one attribute (§6 step
//! (2.2): "Regarding `A^small` as a 'combined' attribute"; §7 step 2:
//! "replace `T_B` with a new edge `(B, V_B ∩ y)`"). Concretely this needs
//! a bijection between value *combinations* and fresh single values, built
//! distributedly: distinct combinations are ranked by a sort + prefix-sum
//! pass (2 + 3 rounds, linear load), giving exact, collision-free codes,
//! plus a decode table to expand final results back into their columns.

use mpcjoin_mpc::primitives::reduce::reduce_by_key;
use mpcjoin_mpc::primitives::scan::prefix_sums;
use mpcjoin_mpc::primitives::search::lookup_exact;
use mpcjoin_mpc::{Cluster, DistRelation, Distributed};
use mpcjoin_relation::{Attr, Row, Schema, Value};
use mpcjoin_semiring::Semiring;

/// A relation with some columns fused into one code column, plus the
/// decode table.
pub struct Combined<S: Semiring> {
    /// The rewritten relation; the fused columns are replaced by a single
    /// `code_attr` column (placed first, remaining columns after it).
    pub relation: DistRelation<S>,
    /// `code → original combination`, distributed. Keys are unique.
    pub decode: Distributed<(Value, Row)>,
}

/// Fuse the columns `cols` of `rel` into a fresh attribute `code_attr`.
pub fn combine_columns<S: Semiring>(
    cluster: &mut Cluster,
    rel: &DistRelation<S>,
    cols: &[Attr],
    code_attr: Attr,
) -> Combined<S> {
    assert!(!cols.is_empty());
    let pos = rel.schema().positions_of(cols);
    let kept: Vec<Attr> = rel
        .schema()
        .attrs()
        .iter()
        .copied()
        .filter(|a| !cols.contains(a))
        .collect();
    let kept_pos = rel.schema().positions_of(&kept);

    // Rank distinct combinations: dedupe, sort, exclusive prefix count.
    let combos = rel.distinct(cluster, cols);
    let sorted = mpcjoin_mpc::primitives::sort::sort_by_key(
        cluster,
        combos.map(|(row, ())| row),
        |row: &Row| row.clone(),
    );
    let ranked = prefix_sums(cluster, sorted, |_| 1);
    let decode: Distributed<(Value, Row)> = ranked.clone().map(|(row, code)| (code, row));
    let catalog: Distributed<(Row, Value)> = ranked.map(|(row, code)| (row, code));

    // Attach codes and rewrite rows as (code, kept columns…).
    let with_code = lookup_exact(
        cluster,
        rel.data().clone(),
        move |(row, _): &(Row, S)| pos.iter().map(|&i| row[i]).collect::<Row>(),
        catalog,
    );
    let data = with_code.map_local(|_, items| {
        items
            .into_iter()
            .filter_map(|((row, s), code)| {
                // Every combination was ranked, unless the run was stopped
                // and its later exchanges delivered nothing: a row with no
                // code then has nothing to become.
                let mut new_row = Vec::with_capacity(1 + kept_pos.len());
                new_row.push(code?);
                new_row.extend(kept_pos.iter().map(|&i| row[i]));
                Some((new_row, s))
            })
            .collect::<Vec<_>>()
    });
    let mut schema_attrs = vec![code_attr];
    schema_attrs.extend(kept.iter().copied());
    Combined {
        relation: DistRelation::from_distributed(Schema::new(schema_attrs), data),
        decode,
    }
}

/// Expand a code column back into its original columns: each row's value
/// at `code_attr` is replaced by the decoded combination (spliced in at
/// the code column's position). `target` names the decoded columns.
pub fn expand_column<S: Semiring>(
    cluster: &mut Cluster,
    rel: &DistRelation<S>,
    code_attr: Attr,
    target: &[Attr],
    decode: Distributed<(Value, Row)>,
) -> DistRelation<S> {
    let code_pos = rel.schema().positions_of(&[code_attr])[0];
    let catalog = decode.map(|(code, row)| (code, row));
    let with_combo = lookup_exact(
        cluster,
        rel.data().clone(),
        move |(row, _): &(Row, S)| row[code_pos],
        catalog,
    );
    let data = with_combo.map_local(|_, items| {
        items
            .into_iter()
            .filter_map(|((row, s), combo)| {
                // Every code decodes, unless the run was stopped (see
                // `combine_columns`).
                let combo = combo?;
                let mut new_row = Vec::with_capacity(row.len() - 1 + combo.len());
                new_row.extend_from_slice(&row[..code_pos]);
                new_row.extend_from_slice(&combo);
                new_row.extend_from_slice(&row[code_pos + 1..]);
                Some((new_row, s))
            })
            .collect::<Vec<_>>()
    });
    let mut attrs: Vec<Attr> = Vec::new();
    attrs.extend_from_slice(&rel.schema().attrs()[..code_pos]);
    attrs.extend_from_slice(target);
    attrs.extend_from_slice(&rel.schema().attrs()[code_pos + 1..]);
    DistRelation::from_distributed(Schema::new(attrs), data)
}

/// ⊕-combine several distributed result fragments over the same schema
/// into one coalesced relation (one reduce round).
pub fn union_aggregate<S: Semiring>(
    cluster: &mut Cluster,
    schema: Schema,
    fragments: Vec<DistRelation<S>>,
) -> DistRelation<S> {
    let p = cluster.p();
    let mut parts: Vec<Vec<(Row, S)>> = vec![Vec::new(); p];
    for frag in fragments {
        let frag = if frag.schema() == &schema {
            frag
        } else {
            // Reorder columns to the target schema.
            let pos = frag.schema().positions_of(schema.attrs());
            let data = frag
                .data()
                .clone()
                .map(move |(row, s)| (pos.iter().map(|&i| row[i]).collect(), s));
            DistRelation::from_distributed(schema.clone(), data)
        };
        for (i, local) in frag.into_data().into_parts().into_iter().enumerate() {
            parts[i].extend(local);
        }
    }
    let reduced = reduce_by_key(cluster, Distributed::from_parts(parts), |acc: &mut S, v| {
        acc.add_assign(&v)
    });
    let data = reduced.map_local(|_, items| {
        items
            .into_iter()
            .filter(|(_, s)| !s.is_zero())
            .collect::<Vec<_>>()
    });
    DistRelation::from_distributed(schema, data)
}

/// A fresh attribute id above everything `q`-related: used for combined
/// columns.
pub fn fresh_attr(used: impl IntoIterator<Item = Attr>) -> Attr {
    Attr(used.into_iter().map(|a| a.0).max().map_or(0, |m| m + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin_relation::Relation;
    use mpcjoin_semiring::Count;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);
    const CODE: Attr = Attr(9);

    #[test]
    fn combine_then_expand_roundtrips() {
        let mut cluster = Cluster::new(4);
        let rel = Relation::<Count>::from_entries(
            Schema::new(vec![A, B, C]),
            (0..40u64)
                .map(|i| (vec![i % 5, i % 3, i], Count(1 + i)))
                .collect(),
        );
        let d = DistRelation::scatter(&cluster, &rel);
        let combined = combine_columns(&mut cluster, &d, &[A, B], CODE);
        assert_eq!(combined.relation.schema().attrs(), &[CODE, C]);
        // Codes are dense 0..#distinct.
        let n_combos = rel.project_aggregate(&[A, B]).len();
        let mut codes: Vec<u64> = combined
            .decode
            .clone()
            .collect_all()
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..n_combos as u64).collect::<Vec<_>>());

        let expanded = expand_column(
            &mut cluster,
            &combined.relation,
            CODE,
            &[A, B],
            combined.decode,
        );
        assert_eq!(expanded.schema().attrs(), &[A, B, C]);
        assert!(expanded.gather().semantically_eq(&rel));
    }

    #[test]
    fn union_aggregate_merges_fragments() {
        let mut cluster = Cluster::new(4);
        let schema = Schema::binary(A, B);
        let f1 = DistRelation::scatter(
            &cluster,
            &Relation::<Count>::from_entries(
                schema.clone(),
                vec![(vec![1, 2], Count(3)), (vec![4, 5], Count(1))],
            ),
        );
        // Fragment with swapped column order: must be reordered.
        let f2 = DistRelation::scatter(
            &cluster,
            &Relation::<Count>::from_entries(Schema::binary(B, A), vec![(vec![2, 1], Count(4))]),
        );
        let merged = union_aggregate(&mut cluster, schema, vec![f1, f2]);
        assert_eq!(
            merged.gather().canonical(),
            vec![(vec![1, 2], Count(7)), (vec![4, 5], Count(1))]
        );
    }

    #[test]
    fn fresh_attr_is_above_all() {
        assert_eq!(fresh_attr([A, C, B]), Attr(3));
        assert_eq!(fresh_attr([]), Attr(0));
    }
}
