//! Distributed annotated relations: [`crate::Distributed`] data with a
//! [`Schema`], plus the relational operations the paper's algorithms build
//! from (§2.1 primitives lifted to relations).

use crate::cluster::{Cluster, Distributed};
use crate::error::MpcError;
use crate::primitives::reduce::reduce_by_key;
use crate::primitives::search::lookup_exact;
use crate::primitives::sort::sort_by_key;
use mpcjoin_relation::{Attr, Relation, Row, Schema, Value};
use mpcjoin_semiring::Semiring;

/// An annotated relation partitioned across the servers of a [`Cluster`].
#[derive(Clone, Debug)]
pub struct DistRelation<S: Semiring> {
    schema: Schema,
    data: Distributed<(Row, S)>,
}

impl<S: Semiring> DistRelation<S> {
    /// Place a relation on the cluster in the model's initial state:
    /// round-robin, `⌈N/p⌉` entries per server, uncosted (§1.3).
    pub fn scatter(cluster: &Cluster, rel: &Relation<S>) -> Self {
        DistRelation {
            schema: rel.schema().clone(),
            data: cluster.scatter_initial(rel.entries().to_vec()),
        }
    }

    /// Wrap already-distributed entries.
    pub fn from_distributed(schema: Schema, data: Distributed<(Row, S)>) -> Self {
        DistRelation { schema, data }
    }

    /// An empty distributed relation.
    pub fn empty(cluster: &Cluster, schema: Schema) -> Self {
        DistRelation {
            schema,
            data: Distributed::empty(cluster.p()),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying distributed entries.
    pub fn data(&self) -> &Distributed<(Row, S)> {
        &self.data
    }

    /// Consume into the underlying distributed entries.
    pub fn into_data(self) -> Distributed<(Row, S)> {
        self.data
    }

    /// Total entries across servers.
    pub fn total_len(&self) -> usize {
        self.data.total_len()
    }

    /// Whether no server holds any entry.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Collect to a local [`Relation`] — **inspection only**, uncosted;
    /// used by experiments and tests to read off results.
    pub fn gather(&self) -> Relation<S> {
        Relation::from_entries(self.schema.clone(), self.data.clone().collect_all())
    }

    /// Positions of `attrs` in this relation's schema, or
    /// [`MpcError::MissingAttr`] for the first attribute not present.
    /// Algorithm internals that project onto attributes they constructed
    /// use the panicking [`Schema::positions_of`] instead (a miss there is
    /// a bug, not an input error).
    pub fn positions_of(&self, attrs: &[Attr]) -> Result<Vec<usize>, MpcError> {
        self.schema
            .try_positions_of(attrs)
            .map_err(|attr| MpcError::MissingAttr {
                attr,
                schema: self.schema.to_string(),
            })
    }

    /// Project each entry onto `attrs` and ⊕-combine duplicates via
    /// reduce-by-key: the distributed `∑_{ȳ}` (1 round, linear load in the
    /// input plus output).
    pub fn project_aggregate(&self, cluster: &mut Cluster, attrs: &[Attr]) -> DistRelation<S> {
        let _op = cluster.op("project-aggregate");
        let pos = self.schema.positions_of(attrs);
        let pairs = self.data.clone().map(|(row, s)| (project(&row, &pos), s));
        let reduced = reduce_by_key(cluster, pairs, |acc: &mut S, v| acc.add_assign(&v));
        let data = reduced.par_map_local(cluster, |_, items| {
            items
                .into_iter()
                .filter(|(_, s)| !s.is_zero())
                .collect::<Vec<_>>()
        });
        DistRelation {
            schema: Schema::new(attrs.to_vec()),
            data,
        }
    }

    /// ⊕-combine entries with identical rows (distributed coalesce).
    pub fn coalesce(&self, cluster: &mut Cluster) -> DistRelation<S> {
        let attrs = self.schema.attrs().to_vec();
        self.project_aggregate(cluster, &attrs)
    }

    /// Distinct projections onto `attrs` (annotations ignored).
    pub fn distinct(&self, cluster: &mut Cluster, attrs: &[Attr]) -> Distributed<(Row, ())> {
        let _op = cluster.op("distinct");
        let pos = self.schema.positions_of(attrs);
        let keys = self.data.clone().map(|(row, _)| (project(&row, &pos), ()));
        reduce_by_key(cluster, keys, |_, _| {})
    }

    /// Degree of every value of `attr`: `value → |σ_{attr=v} R|`.
    pub fn degrees(&self, cluster: &mut Cluster, attr: Attr) -> Distributed<(Value, u64)> {
        let _op = cluster.op("degrees");
        let pos = self.schema.positions_of(&[attr])[0];
        let keys = self.data.clone().map(move |(row, _)| (row[pos], 1u64));
        reduce_by_key(cluster, keys, |acc, v| *acc += v)
    }

    /// Semijoin `self ⋉ other` on their common attributes, via
    /// distinct-keys + multi-search (skew-proof; §2.1 "a semijoin can be
    /// computed by a multi-search"). Output is redistributed by the
    /// internal sort. Annotations untouched.
    pub fn semijoin(&self, cluster: &mut Cluster, other: &DistRelation<S>) -> DistRelation<S> {
        let common = self.schema.common(&other.schema);
        assert!(
            !common.is_empty(),
            "distributed semijoin requires shared attributes"
        );
        let _op = cluster.op("semijoin");
        let keys = other.distinct(cluster, &common);
        let pos = self.schema.positions_of(&common);
        let probed = lookup_exact(
            cluster,
            self.data.clone(),
            move |(row, _): &(Row, S)| project(row, &pos),
            keys,
        );
        let data = probed.par_map_local(cluster, |_, items| {
            items
                .into_iter()
                .filter_map(|(entry, hit)| hit.map(|()| entry))
                .collect::<Vec<_>>()
        });
        DistRelation {
            schema: self.schema.clone(),
            data,
        }
    }

    /// Attach a per-key statistic to every entry: entry with key
    /// `π_{attrs}(row)` receives `stats[key]` (or `None`). Skew-proof
    /// (multi-search underneath).
    pub fn attach_stat<U: Clone + Send + 'static>(
        &self,
        cluster: &mut Cluster,
        attrs: &[Attr],
        stats: Distributed<(Row, U)>,
    ) -> Distributed<((Row, S), Option<U>)> {
        let _op = cluster.op("attach-stat");
        let pos = self.schema.positions_of(attrs);
        lookup_exact(
            cluster,
            self.data.clone(),
            move |(row, _): &(Row, S)| project(row, &pos),
            stats,
        )
    }

    /// Sort entries by their projection onto `attrs`; equal keys land on
    /// the same or consecutive servers (3 rounds, linear load).
    pub fn sort_by_attrs(&self, cluster: &mut Cluster, attrs: &[Attr]) -> DistRelation<S> {
        let pos = self.schema.positions_of(attrs);
        let data = sort_by_key(cluster, self.data.clone(), |(row, _): &(Row, S)| {
            project(row, &pos)
        });
        DistRelation {
            schema: self.schema.clone(),
            data,
        }
    }

    /// One costed round that re-spreads entries round-robin — used after
    /// heavy filtering so later steps see balanced `N/p` inputs.
    pub fn rebalance(&self, cluster: &mut Cluster) -> DistRelation<S> {
        let _op = cluster.op("rebalance");
        let p = cluster.p();
        let mut next = 0usize;
        let outboxes: Vec<Vec<(usize, (Row, S))>> = self
            .data
            .iter()
            .map(|(_, local)| {
                local
                    .iter()
                    .map(|entry| {
                        let dest = next % p;
                        next += 1;
                        (dest, entry.clone())
                    })
                    .collect()
            })
            .collect();
        let data = cluster.exchange(outboxes);
        DistRelation {
            schema: self.schema.clone(),
            data,
        }
    }

    /// Broadcast the whole relation to every server (cost `total_len` per
    /// server; the paper's move for `N_1 = 1`-style tiny sides).
    pub fn broadcast(&self, cluster: &mut Cluster) -> DistRelation<S> {
        DistRelation {
            schema: self.schema.clone(),
            data: cluster.broadcast(&self.data),
        }
    }
}

/// Project `row` onto the positions `pos`.
pub fn project(row: &[Value], pos: &[usize]) -> Row {
    pos.iter().map(|&i| row[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin_semiring::Count;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);

    fn rel(pairs: &[(u64, u64, u64)]) -> Relation<Count> {
        Relation::from_entries(
            Schema::binary(A, B),
            pairs
                .iter()
                .map(|&(a, b, w)| (vec![a, b], Count(w)))
                .collect(),
        )
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let c = Cluster::new(4);
        let r = rel(&[(1, 2, 3), (4, 5, 6), (7, 8, 9)]);
        let d = DistRelation::scatter(&c, &r);
        assert!(d.gather().semantically_eq(&r));
        assert_eq!(c.report().total_units, 0);
    }

    #[test]
    fn project_aggregate_matches_local() {
        let mut c = Cluster::new(4);
        let r = rel(&[(1, 2, 3), (1, 3, 4), (2, 2, 5)]);
        let d = DistRelation::scatter(&c, &r);
        let agg = d.project_aggregate(&mut c, &[A]);
        assert!(agg.gather().semantically_eq(&r.project_aggregate(&[A])));
    }

    #[test]
    fn semijoin_matches_local() {
        let mut c = Cluster::new(4);
        let r1 = rel(&[(1, 10, 1), (2, 11, 1), (3, 12, 1)]);
        let r2 = Relation::from_entries(
            Schema::binary(B, C),
            vec![(vec![10, 0], Count(1)), (vec![12, 0], Count(1))],
        );
        let d1 = DistRelation::scatter(&c, &r1);
        let d2 = DistRelation::scatter(&c, &r2);
        let sj = d1.semijoin(&mut c, &d2);
        assert!(sj.gather().semantically_eq(&r1.semijoin(&r2)));
    }

    #[test]
    fn degrees_match_local() {
        let mut c = Cluster::new(4);
        let r = rel(&[(1, 2, 1), (1, 3, 1), (2, 2, 1)]);
        let d = DistRelation::scatter(&c, &r);
        let mut degs = d.degrees(&mut c, A).collect_all();
        degs.sort();
        assert_eq!(degs, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn attach_stat_joins_stats() {
        let mut c = Cluster::new(4);
        let r = rel(&[(1, 2, 1), (2, 3, 1)]);
        let d = DistRelation::scatter(&c, &r);
        let stats = c.scatter_initial(vec![(vec![1u64], 100u64)]);
        let attached = d.attach_stat(&mut c, &[A], stats);
        let mut got: Vec<(u64, Option<u64>)> = attached
            .collect_all()
            .into_iter()
            .map(|((row, _), stat)| (row[0], stat))
            .collect();
        got.sort();
        assert_eq!(got, vec![(1, Some(100)), (2, None)]);
    }

    #[test]
    fn sort_groups_equal_keys_contiguously() {
        let mut c = Cluster::new(4);
        let r = rel(&[(3, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 1)]);
        let d = DistRelation::scatter(&c, &r);
        let sorted = d.sort_by_attrs(&mut c, &[A]);
        let keys: Vec<u64> = sorted
            .data()
            .clone()
            .collect_all()
            .into_iter()
            .map(|(row, _)| row[0])
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn positions_of_reports_missing_attr() {
        let c = Cluster::new(2);
        let d = DistRelation::scatter(&c, &rel(&[(1, 2, 3)]));
        assert_eq!(d.positions_of(&[B, A]), Ok(vec![1, 0]));
        let err = d.positions_of(&[A, C]).unwrap_err();
        assert_eq!(
            err,
            MpcError::MissingAttr {
                attr: C,
                schema: "(x0, x1)".to_string(),
            }
        );
    }

    #[test]
    fn rebalance_levels_storage() {
        let mut c = Cluster::new(4);
        let r = rel(&[(1, 1, 1); 8]);
        // Adversarial placement: everything on server 0.
        let data = c.place_initial(r.entries().iter().map(|e| (0usize, e.clone())).collect());
        let d = DistRelation::from_distributed(r.schema().clone(), data);
        let balanced = d.rebalance(&mut c);
        assert_eq!(balanced.data().max_local_len(), 2);
    }
}
