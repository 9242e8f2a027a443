//! Planner coverage: every [`PlanKind`] is reachable and correct,
//! including through the named-attribute builder API.

use mpcjoin::prelude::*;
use mpcjoin::query::QueryBuilder;
use mpcjoin::{execute_sequential, PlanKind, QueryEngine};

#[test]
fn star_like_plan_selected_and_correct() {
    // Center with one two-hop arm and two one-hop arms.
    let b = Attr(9);
    let mid = Attr(10);
    let q = TreeQuery::new(
        vec![
            Edge::binary(b, Attr(0)),
            Edge::binary(b, mid),
            Edge::binary(mid, Attr(1)),
            Edge::binary(b, Attr(2)),
        ],
        [Attr(0), Attr(1), Attr(2)],
    );
    let rels = vec![
        Relation::<Count>::binary_ones(b, Attr(0), (0..24u64).map(|i| (i % 4, i % 7))),
        Relation::<Count>::binary_ones(b, mid, (0..24u64).map(|i| (i % 4, i % 5))),
        Relation::<Count>::binary_ones(mid, Attr(1), (0..24u64).map(|i| (i % 5, i % 6))),
        Relation::<Count>::binary_ones(b, Attr(2), (0..24u64).map(|i| (i % 4, i % 3))),
    ];
    let result = QueryEngine::new(8).run(&q, &rels).unwrap();
    assert_eq!(result.plan, PlanKind::StarLike);
    assert!(result
        .output
        .semantically_eq(&execute_sequential(&q, &rels)));
}

#[test]
fn tree_plan_for_internal_outputs() {
    let q = TreeQuery::new(
        vec![
            Edge::binary(Attr(0), Attr(1)),
            Edge::binary(Attr(1), Attr(2)),
            Edge::binary(Attr(2), Attr(3)),
            Edge::binary(Attr(3), Attr(4)),
        ],
        [Attr(0), Attr(2), Attr(4)],
    );
    let rels: Vec<Relation<Count>> = (0..4)
        .map(|j| {
            Relation::binary_ones(
                Attr(j),
                Attr(j + 1),
                (0..20u64).map(move |i| ((i * (j as u64 + 2)) % 6, (i * 3) % 6)),
            )
        })
        .collect();
    let result = QueryEngine::new(8).run(&q, &rels).unwrap();
    assert_eq!(result.plan, PlanKind::Tree);
    assert!(result
        .output
        .semantically_eq(&execute_sequential(&q, &rels)));
}

#[test]
fn builder_to_execution_pipeline() {
    // A social query by name: mutual-communities of user pairs.
    let (q, names) = QueryBuilder::new()
        .relation("user", "community")
        .relation("community", "topic")
        .output(["user", "topic"])
        .build()
        .expect("a tree query");
    let user = names.attr("user").expect("interned");
    let community = names.attr("community").expect("interned");
    let topic = names.attr("topic").expect("interned");
    let rels = vec![
        Relation::<BoolRing>::binary_ones(user, community, (0..40u64).map(|i| (i % 10, i % 4))),
        Relation::<BoolRing>::binary_ones(community, topic, (0..40u64).map(|i| (i % 4, i % 9))),
    ];
    let result = QueryEngine::new(8).run(&q, &rels).unwrap();
    assert_eq!(result.plan, PlanKind::MatMul);
    assert!(result
        .output
        .semantically_eq(&execute_sequential(&q, &rels)));
    // DOT rendering names the attributes.
    let dot = mpcjoin::query::to_dot(&q, Some(&names));
    assert!(dot.contains("\"user\" [shape=doublecircle]"));
    assert!(dot.contains("\"community\";"));
}

#[test]
fn single_server_cluster_end_to_end() {
    // p = 1: everything is local; algorithms must still be correct.
    let q = TreeQuery::new(
        vec![
            Edge::binary(Attr(0), Attr(1)),
            Edge::binary(Attr(1), Attr(2)),
        ],
        [Attr(0), Attr(2)],
    );
    let rels = vec![
        Relation::<Count>::binary_ones(Attr(0), Attr(1), (0..30u64).map(|i| (i % 6, i % 5))),
        Relation::<Count>::binary_ones(Attr(1), Attr(2), (0..30u64).map(|i| (i % 5, i % 7))),
    ];
    let result = QueryEngine::new(1).run(&q, &rels).unwrap();
    assert!(result
        .output
        .semantically_eq(&execute_sequential(&q, &rels)));
}

#[test]
fn empty_relations_everywhere() {
    let q = TreeQuery::new(
        vec![
            Edge::binary(Attr(0), Attr(1)),
            Edge::binary(Attr(1), Attr(2)),
        ],
        [Attr(0), Attr(2)],
    );
    let rels = vec![
        Relation::<Count>::empty(Schema::binary(Attr(0), Attr(1))),
        Relation::<Count>::empty(Schema::binary(Attr(1), Attr(2))),
    ];
    let result = QueryEngine::new(4).run(&q, &rels).unwrap();
    assert!(result.output.is_empty());
}

#[test]
fn unary_filter_relation_folds_in() {
    // A weighted unary "dimension" relation on A acts as a filter +
    // per-key weight; the §7 reduce step folds it into R(A,B).
    let (a, b, c) = (Attr(0), Attr(1), Attr(2));
    let q = TreeQuery::new(
        vec![Edge::binary(a, b), Edge::binary(b, c), Edge::unary(a)],
        [a, c],
    );
    let filter = Relation::<Count>::from_entries(
        Schema::unary(a),
        vec![(vec![1], Count(10)), (vec![3], Count(1))],
    );
    let rels = vec![
        Relation::<Count>::binary_ones(a, b, [(1, 5), (2, 5), (3, 6)]),
        Relation::<Count>::binary_ones(b, c, [(5, 7), (6, 8)]),
        filter,
    ];
    let result = QueryEngine::new(4).run(&q, &rels).unwrap();
    let oracle = execute_sequential(&q, &rels);
    assert!(result.output.semantically_eq(&oracle));
    // a=2 is filtered out; a=1 carries weight 10.
    assert_eq!(
        oracle.canonical(),
        vec![(vec![1, 7], Count(10)), (vec![3, 8], Count(1))]
    );
}

#[test]
fn plan_loads_are_deterministic() {
    // Two identical runs must report identical costs (the simulator is
    // fully deterministic).
    let q = TreeQuery::new(
        vec![
            Edge::binary(Attr(0), Attr(1)),
            Edge::binary(Attr(1), Attr(2)),
        ],
        [Attr(0), Attr(2)],
    );
    let rels = vec![
        Relation::<Count>::binary_ones(Attr(0), Attr(1), (0..200u64).map(|i| (i % 40, i % 13))),
        Relation::<Count>::binary_ones(Attr(1), Attr(2), (0..200u64).map(|i| (i % 13, i % 31))),
    ];
    let r1 = QueryEngine::new(8).run(&q, &rels).unwrap();
    let r2 = QueryEngine::new(8).run(&q, &rels).unwrap();
    assert_eq!(r1.cost, r2.cost);
    assert!(r1.output.semantically_eq(&r2.output));
}
