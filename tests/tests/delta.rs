//! Incremental evaluation end to end: `MaterializedView` +
//! `QueryEngine::apply_delta` across the full (plan, semiring,
//! threading) matrix.
//!
//! The governing invariant is *bit-identity*: after any seeded stream of
//! delta batches, a patched view's output — entries, order, annotations
//! — equals a from-scratch evaluation of the query over the updated
//! instance, and `apply_delta`'s returned result carries exactly that
//! output. On the incremental classes the delta-path ledger must also
//! stay strictly below the full-recompute ledger (the subsystem's MPC
//! cost story); threading (serial vs 3 worker threads) must change
//! neither outputs nor ledgers.

use mpcjoin::mpc::hash::seeded_hash;
use mpcjoin::mpc::DetRng;
use mpcjoin::prelude::*;
use mpcjoin::workload;

const P: usize = 8;

/// One query shape per plan kind: the shape the plan was built for
/// (the view tags the plan; classification is per-plan by design).
fn shape_for(plan: PlanKind, seed: u64) -> (TreeQuery, Vec<Relation<Count>>) {
    let mut rng = DetRng::seed_from_u64(seeded_hash(seed, &format!("{plan:?}")));
    let (a, b, c) = (Attr(0), Attr(1), Attr(2));
    match plan {
        PlanKind::FreeConnexYannakakis => {
            let inst = workload::matrix::uniform::<Count>(&mut rng, (a, b, c), 40, 40, (10, 7, 10));
            let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, b, c]);
            (q, vec![inst.r1, inst.r2])
        }
        PlanKind::MatMul => {
            let inst = workload::matrix::uniform::<Count>(&mut rng, (a, b, c), 40, 40, (10, 7, 10));
            let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
            (q, vec![inst.r1, inst.r2])
        }
        PlanKind::Line => {
            let inst = workload::chain::uniform::<Count>(&mut rng, 3, 30, 9);
            (inst.query, inst.rels)
        }
        PlanKind::Tree | PlanKind::CanonicalEdgeCover => {
            let inst = workload::chain::uniform::<Count>(&mut rng, 4, 24, 8);
            (inst.query, inst.rels)
        }
        PlanKind::Star | PlanKind::StarLike => {
            let inst = workload::star::uniform::<Count>(&mut rng, 3, 24, 7, 5);
            (inst.query, inst.rels)
        }
    }
}

/// Recast a `Count` instance into `S` with seeded small weights, so the
/// same shapes drive every semiring.
fn recast<S: Semiring>(
    inst: &[Relation<Count>],
    rng: &mut DetRng,
    weight: impl Fn(i64) -> S,
) -> Vec<Relation<S>> {
    inst.iter()
        .map(|r| {
            Relation::from_entries(
                r.schema().clone(),
                r.entries()
                    .iter()
                    .map(|(row, _)| (row.clone(), weight((rng.next_u64() % 9) as i64)))
                    .collect(),
            )
        })
        .collect()
}

/// A seeded batch over `inst`: `inserts` fresh unit rows per edge, and
/// (when `deletes` is set) one existing entry withdrawn per edge.
fn seeded_batch<S: Semiring>(
    rng: &mut DetRng,
    q: &TreeQuery,
    inst: &[Relation<S>],
    inserts: usize,
    deletes: bool,
) -> DeltaBatch<S> {
    let mut batch = DeltaBatch::new(inst.len());
    for (k, rel) in inst.iter().enumerate() {
        let arity = q.edges()[k].attrs().len();
        for _ in 0..inserts {
            let row: Vec<u64> = (0..arity).map(|_| rng.next_u64() % 10).collect();
            batch.insert(k, row, S::one());
        }
        if deletes && !rel.entries().is_empty() {
            let (row, annot) = &rel.entries()[(rng.next_u64() as usize) % rel.entries().len()];
            batch.delete(k, row.clone(), annot.clone());
        }
    }
    batch
}

/// Drive one (plan, semiring, engine) combo through a seeded stream of
/// batches, checking after every batch that the patched view, a fresh
/// view over the updated instance, and `apply_delta`'s returned result
/// all agree — and that incremental batches ledger below a recompute.
fn drive<S: Semiring>(
    plan: PlanKind,
    engine: &QueryEngine,
    q: &TreeQuery,
    inst: Vec<Relation<S>>,
    seed: u64,
) {
    let label = format!("{plan:?}/{}", std::any::type_name::<S>());
    let mut view = MaterializedView::new(q, &inst, plan).expect("view builds");
    let mut current = inst;
    let mut rng = DetRng::seed_from_u64(seeded_hash(seed, &label));
    for (round, with_deletes) in [false, true, false].into_iter().enumerate() {
        let batch = seeded_batch(&mut rng, q, &current, 2, with_deletes);
        let expect_class = if !with_deletes {
            Maintainability::InsertOnly
        } else if S::HAS_SUBTRACTION {
            Maintainability::RingDelta
        } else {
            Maintainability::RerunFallback
        };
        let outcome = engine
            .apply_delta(&mut view, &batch)
            .expect("delta applies");
        assert_eq!(
            outcome.report.class, expect_class,
            "{label} round {round}: classification"
        );
        assert!(
            outcome.result.audit.within,
            "{label} round {round}: audit blown: {:?}",
            outcome.result.audit
        );

        current = batch.apply_to(&current);
        let fresh = MaterializedView::new(q, &current, plan).expect("fresh view builds");
        assert_eq!(
            view.output().entries(),
            fresh.output().entries(),
            "{label} round {round}: patched view vs fresh build"
        );
        assert_eq!(
            outcome.result.output.canonical(),
            fresh.output().entries(),
            "{label} round {round}: returned result vs fresh build"
        );

        if expect_class.is_incremental() {
            let full = engine.run(q, &current).expect("recompute runs");
            assert!(
                outcome.result.cost.load < full.cost.load,
                "{label} round {round}: delta load {} not below recompute load {}",
                outcome.result.cost.load,
                full.cost.load
            );
        }
    }
    // One final engine-level recompute seals the stream end to end. The
    // engine's output arrives in exchange order; compare in canonical form.
    let full = engine.run(q, &current).expect("final recompute runs");
    assert_eq!(
        view.output().entries(),
        full.output.canonical(),
        "{label}: final view vs engine recompute"
    );
}

/// The full matrix: every plan kind × four semirings × serial and
/// 3-thread local execution.
#[test]
fn every_plan_semiring_thread_combo_stays_bit_identical() {
    for plan in PlanKind::ALL {
        let (q, count_inst) = shape_for(plan, 0xD17A);
        for threads in [None, Some(3)] {
            let engine = match threads {
                None => QueryEngine::new(P),
                Some(n) => QueryEngine::new(P).threads(n),
            };
            let mut wrng = DetRng::seed_from_u64(seeded_hash(0xD17A, &format!("w{plan:?}")));
            drive::<Count>(plan, &engine, &q, count_inst.clone(), 1);
            drive::<SumInt>(plan, &engine, &q, recast(&count_inst, &mut wrng, SumInt), 2);
            drive::<BoolRing>(
                plan,
                &engine,
                &q,
                recast(&count_inst, &mut wrng, |_| BoolRing(true)),
                3,
            );
            drive::<TropicalMin>(
                plan,
                &engine,
                &q,
                recast(&count_inst, &mut wrng, TropicalMin::finite),
                4,
            );
        }
    }
}

/// Threading is invisible: serial and 3-thread engines produce the same
/// outputs *and the same ledgers* for the same batch, with tracing on
/// or off.
#[test]
fn threading_trace_and_metrics_leave_outputs_and_ledgers_unchanged() {
    let (q, inst) = shape_for(PlanKind::MatMul, 0xAB);
    let mut rng = DetRng::seed_from_u64(7);
    let batch = seeded_batch(&mut rng, &q, &inst, 3, true);
    let mut baseline = None;
    for engine in [
        QueryEngine::new(P),
        QueryEngine::new(P).threads(3),
        QueryEngine::new(P).threads(3).trace(true),
    ] {
        let mut view = MaterializedView::new(&q, &inst, PlanKind::MatMul).unwrap();
        let outcome = engine.apply_delta(&mut view, &batch).unwrap();
        let sample = (
            view.output().entries().to_vec(),
            outcome.result.cost.load,
            outcome.report.to_json().to_string_sanitized(),
        );
        match &baseline {
            None => baseline = Some(sample),
            Some(b) => assert_eq!(b, &sample, "threading/observability changed the outcome"),
        }
    }
}

/// Deleting every tuple of one relation annihilates the join: the view
/// empties, and a fresh build over the emptied instance agrees.
#[test]
fn delete_to_empty_annihilates_the_output() {
    let (q, inst) = shape_for(PlanKind::MatMul, 0xE0);
    let mut view = MaterializedView::new(&q, &inst, PlanKind::MatMul).unwrap();
    let mut batch: DeltaBatch<Count> = DeltaBatch::new(inst.len());
    for (row, annot) in inst[0].entries() {
        batch.delete(0, row.clone(), *annot);
    }
    let engine = QueryEngine::new(P);
    let outcome = engine.apply_delta(&mut view, &batch).unwrap();
    assert_eq!(outcome.report.class, Maintainability::RingDelta);
    assert!(
        view.output().entries().is_empty(),
        "empty relation must annihilate the join"
    );
    assert!(view.base()[0].entries().is_empty());
    let updated = batch.apply_to(&inst);
    let fresh = MaterializedView::new(&q, &updated, PlanKind::MatMul).unwrap();
    assert_eq!(view.output().entries(), fresh.output().entries());
}

/// A batch whose inserts and deletes cancel exactly (or that only
/// touches rows joining to nothing) produces an empty delta output and
/// leaves the view's output untouched — and still ledgers delta-sized.
#[test]
fn zero_output_deltas_cost_delta_sized_and_change_nothing() {
    let (q, inst) = shape_for(PlanKind::MatMul, 0x00D);
    let mut view = MaterializedView::new(&q, &inst, PlanKind::MatMul).unwrap();
    let before = view.output().entries().to_vec();
    let engine = QueryEngine::new(P);

    // Insert + delete the same fresh row: the signed delta telescopes to
    // zero on that edge.
    let mut cancel: DeltaBatch<Count> = DeltaBatch::new(inst.len());
    cancel.insert(0, vec![97, 98], Count(2));
    cancel.delete(0, vec![97, 98], Count(2));
    let outcome = engine.apply_delta(&mut view, &cancel).unwrap();
    assert_eq!(
        outcome.report.delta_in, 0,
        "cancelled ops canonicalize away"
    );
    assert_eq!(outcome.report.delta_out, 0);
    assert_eq!(view.output().entries(), before.as_slice());

    // A dangling insert (joins to nothing) moves delta_in but not the
    // output.
    let mut dangling: DeltaBatch<Count> = DeltaBatch::new(inst.len());
    dangling.insert(0, vec![55, 56], Count(1));
    let outcome = engine.apply_delta(&mut view, &dangling).unwrap();
    assert_eq!(outcome.report.delta_in, 1);
    assert_eq!(outcome.report.delta_out, 0);
    assert_eq!(view.output().entries(), before.as_slice());
    let full = engine.run(&q, view.base()).unwrap();
    assert!(
        outcome.result.cost.load < full.cost.load,
        "a no-op delta must still cost delta-sized, not instance-sized"
    );
}

/// The rerun fallback is deterministic: two identical views absorbing
/// the same delete-bearing batch over an idempotent semiring produce
/// bit-identical outputs, reports, and ledgers — and agree with a cold
/// build.
#[test]
fn fallback_reruns_are_deterministic_and_bit_identical() {
    let (q, count_inst) = shape_for(PlanKind::Star, 0xFA11);
    let mut wrng = DetRng::seed_from_u64(3);
    let inst = recast(&count_inst, &mut wrng, |_| BoolRing(true));
    let mut rng = DetRng::seed_from_u64(11);
    let batch = seeded_batch(&mut rng, &q, &inst, 2, true);
    let engine = QueryEngine::new(P);

    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let mut view = MaterializedView::new(&q, &inst, PlanKind::Star).unwrap();
        let outcome = engine.apply_delta(&mut view, &batch).unwrap();
        assert_eq!(outcome.report.class, Maintainability::RerunFallback);
        assert_eq!(outcome.report.delta_in, 0, "fallback routes no deltas");
        outcomes.push((
            view.output().entries().to_vec(),
            outcome.result.cost.load,
            outcome.report.to_json().to_string_sanitized(),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "fallback must be deterministic");
    let updated = batch.apply_to(&inst);
    let fresh = MaterializedView::new(&q, &updated, PlanKind::Star).unwrap();
    assert_eq!(outcomes[0].0, fresh.output().entries());
}

/// A batch that does not fit the query (wrong arity, unknown edge) is
/// rejected before any state changes.
#[test]
fn invalid_batches_leave_the_view_untouched() {
    let (q, inst) = shape_for(PlanKind::MatMul, 0xBAD);
    let mut view = MaterializedView::new(&q, &inst, PlanKind::MatMul).unwrap();
    let before = view.output().entries().to_vec();
    let engine = QueryEngine::new(P);

    let mut wrong_arity: DeltaBatch<Count> = DeltaBatch::new(inst.len());
    wrong_arity.insert(0, vec![1, 2, 3], Count(1));
    assert!(engine.apply_delta(&mut view, &wrong_arity).is_err());

    let mut wrong_edge: DeltaBatch<Count> = DeltaBatch::new(inst.len() + 2);
    wrong_edge.insert(inst.len() + 1, vec![1, 2], Count(1));
    assert!(engine.apply_delta(&mut view, &wrong_edge).is_err());

    assert_eq!(
        view.output().entries(),
        before.as_slice(),
        "rejected batches must not touch the view"
    );
}
