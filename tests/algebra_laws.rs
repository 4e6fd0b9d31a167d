//! The algebraic properties the paper asserts in §5, property-tested on
//! random *historical* relations (full temporal generality, not just the
//! snapshot reduction).

mod common;

use common::{other_relation_strategy, relation_strategy, semantically_equal};
use hrdm_core::prelude::*;
use hrdm_query::{parse_query, run_query, QueryResult};
use hrdm_storage::{Database, PartitionPolicy};
use proptest::prelude::*;

/// A detached database holding `relations` in one partition each.
fn database<const N: usize>(relations: [(&str, Relation); N]) -> Database {
    Database::with_relations(PartitionPolicy::Unpartitioned, relations).unwrap()
}

fn pred_v(op: Comparator, c: i64) -> Predicate {
    Predicate::attr_op_value("V", op, c)
}

fn pred_w(op: Comparator, c: i64) -> Predicate {
    Predicate::attr_op_value("W", op, c)
}

fn lifespan_lit() -> impl Strategy<Value = Lifespan> {
    common::lifespan_strategy()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(48))]

    // ---- §5: "the commutativity of select" -------------------------------

    #[test]
    fn select_when_commutes(r in relation_strategy(), c1 in 0i64..4, c2 in 0i64..4) {
        let p = pred_v(Comparator::Eq, c1);
        let q = pred_w(Comparator::Le, c2);
        let pq = select_when(&select_when(&r, &p).unwrap(), &q).unwrap();
        let qp = select_when(&select_when(&r, &q).unwrap(), &p).unwrap();
        prop_assert_eq!(pq, qp);
    }

    #[test]
    fn select_if_commutes(r in relation_strategy(), c1 in 0i64..4, c2 in 0i64..4) {
        let p = pred_v(Comparator::Ge, c1);
        let q = pred_w(Comparator::Ne, c2);
        let pq = select_if(
            &select_if(&r, &p, Quantifier::Exists, None).unwrap(),
            &q,
            Quantifier::Exists,
            None,
        )
        .unwrap();
        let qp = select_if(
            &select_if(&r, &q, Quantifier::Exists, None).unwrap(),
            &p,
            Quantifier::Exists,
            None,
        )
        .unwrap();
        prop_assert_eq!(pq, qp);
    }

    // ---- §5: select-when fusion (σW_p ∘ σW_q = σW_{p∧q}) -----------------

    #[test]
    fn select_when_fuses_to_conjunction(r in relation_strategy(), c1 in 0i64..4, c2 in 0i64..4) {
        let p = pred_v(Comparator::Eq, c1);
        let q = pred_w(Comparator::Gt, c2);
        let nested = select_when(&select_when(&r, &p).unwrap(), &q).unwrap();
        let fused = select_when(&r, &p.clone().and(q.clone())).unwrap();
        prop_assert_eq!(nested, fused);
    }

    // ---- §5: "the distribution of select over the binary set-theoretic
    // operators" -----------------------------------------------------------

    #[test]
    fn select_if_distributes_over_union(
        r1 in relation_strategy(),
        r2 in relation_strategy(),
        c in 0i64..4,
    ) {
        let p = pred_v(Comparator::Eq, c);
        let lhs = select_if(&union(&r1, &r2).unwrap(), &p, Quantifier::Exists, None).unwrap();
        let rhs = union(
            &select_if(&r1, &p, Quantifier::Exists, None).unwrap(),
            &select_if(&r2, &p, Quantifier::Exists, None).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn select_if_distributes_over_difference(
        r1 in relation_strategy(),
        r2 in relation_strategy(),
        c in 0i64..4,
    ) {
        // σ(r1 − r2) = σ(r1) − r2 for whole-tuple selection.
        let p = pred_v(Comparator::Le, c);
        let lhs =
            select_if(&difference(&r1, &r2).unwrap(), &p, Quantifier::Exists, None).unwrap();
        let rhs = difference(
            &select_if(&r1, &p, Quantifier::Exists, None).unwrap(),
            &r2,
        )
        .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    // ---- §5: "the distribution of TIMESLICE over the binary set-theoretic
    // operators" (safe for ∪ under set semantics) --------------------------

    #[test]
    fn timeslice_distributes_over_union(
        r1 in relation_strategy(),
        r2 in relation_strategy(),
        l in lifespan_lit(),
    ) {
        let lhs = timeslice(&union(&r1, &r2).unwrap(), &l);
        let rhs = union(&timeslice(&r1, &l), &timeslice(&r2, &l)).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    // ---- §5: "commutativity of TIMESLICE with both flavors of SELECT" ----

    #[test]
    fn timeslice_commutes_with_select_when(
        r in relation_strategy(),
        l in lifespan_lit(),
        c in 0i64..4,
    ) {
        let p = pred_v(Comparator::Eq, c);
        let lhs = timeslice(&select_when(&r, &p).unwrap(), &l);
        let rhs = select_when(&timeslice(&r, &l), &p).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn timeslice_of_select_if_bounded(
        r in relation_strategy(),
        l in lifespan_lit(),
        c in 0i64..4,
    ) {
        // σIF(τ_L(r), p, ∃, None) = τ_L(σIF(r, p, ∃, Some(L))): bounding the
        // quantifier replays the slice.
        let p = pred_v(Comparator::Eq, c);
        let lhs = select_if(&timeslice(&r, &l), &p, Quantifier::Exists, None).unwrap();
        let rhs = timeslice(
            &select_if(&r, &p, Quantifier::Exists, Some(&l)).unwrap(),
            &l,
        );
        prop_assert_eq!(lhs, rhs);
    }

    // ---- TIME-SLICE composition -------------------------------------------

    #[test]
    fn timeslice_composes_by_intersection(
        r in relation_strategy(),
        l1 in lifespan_lit(),
        l2 in lifespan_lit(),
    ) {
        let nested = timeslice(&timeslice(&r, &l1), &l2);
        let direct = timeslice(&r, &l1.intersect(&l2));
        prop_assert_eq!(&nested, &direct);
        // And commutes.
        let flipped = timeslice(&timeslice(&r, &l2), &l1);
        prop_assert_eq!(nested, flipped);
    }

    // ---- §5: "the commutativity of the natural join" ----------------------

    #[test]
    fn natural_join_commutes_semantically(
        r1 in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let ab = natural_join(&r1, &r2).unwrap();
        let ba = natural_join(&r2, &r1).unwrap();
        prop_assert!(semantically_equal(&ab, &ba));
    }

    // ---- §4.6: the equijoin is the θ-join at equality ---------------------

    #[test]
    fn equijoin_is_theta_eq(r1 in relation_strategy(), r2 in other_relation_strategy()) {
        let a = equijoin(&r1, &r2, &"V".into(), &"X".into()).unwrap();
        let b = theta_join(&r1, &r2, &"V".into(), Comparator::Eq, &"X".into()).unwrap();
        prop_assert_eq!(a, b);
    }

    // ---- §5: joins are null-free, products are not necessarily ------------

    #[test]
    fn joins_are_null_free(r1 in relation_strategy(), r2 in other_relation_strategy()) {
        // The paper's §5 claim assumes model-level totality (every value
        // total over its vls); partiality already present in an operand is
        // not a join-introduced null, so totalize first.
        let r1 = common::totalize(&r1);
        let r2 = common::totalize(&r2);
        let j = theta_join(&r1, &r2, &"V".into(), Comparator::Le, &"X".into()).unwrap();
        prop_assert_eq!(null_volume(&j), 0);
        let n = natural_join(&r1, &r2).unwrap();
        prop_assert_eq!(null_volume(&n), 0);
    }

    // ---- §5: "the JOIN operations … [are] equivalent to the appropriate
    // SELECT-WHEN of the Cartesian product, and thus no nulls result" ------

    #[test]
    fn theta_join_is_select_when_of_product(
        r1 in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let direct = theta_join(&r1, &r2, &"V".into(), Comparator::Le, &"X".into()).unwrap();
        let via_product = select_when(
            &cartesian_product(&r1, &r2).unwrap(),
            &Predicate::cmp(Operand::attr("V"), Comparator::Le, Operand::attr("X")),
        )
        .unwrap();
        prop_assert_eq!(direct, via_product);
    }

    // ---- §5: the union-flavored join is "essentially equivalent to a
    // SELECT-IF of the Cartesian product" ----------------------------------

    #[test]
    fn union_join_is_select_if_of_product(
        r1 in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let direct =
            theta_join_union(&r1, &r2, &"V".into(), Comparator::Le, &"X".into()).unwrap();
        let via_product = select_if(
            &cartesian_product(&r1, &r2).unwrap(),
            &Predicate::cmp(Operand::attr("V"), Comparator::Le, Operand::attr("X")),
            Quantifier::Exists,
            None,
        )
        .unwrap();
        prop_assert_eq!(direct, via_product);
    }

    // ---- Object-based set ops respect keys --------------------------------

    #[test]
    fn union_o_of_key_disjoint_relations_is_plain_union(r in relation_strategy()) {
        // Shift keys of a copy so the two relations share no objects.
        let scheme = r.scheme().clone();
        let shifted: Vec<Tuple> = r
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut b = Tuple::builder(t.lifespan().clone())
                    .constant("K", 1000 + i as i64);
                for (attr, tv) in t.entries() {
                    if attr.name() != "K" {
                        b = b.value(attr.clone(), tv.clone());
                    }
                }
                b.finish(&scheme).unwrap()
            })
            .collect();
        let r2 = Relation::with_tuples(scheme, shifted).unwrap();
        let uo = union_o(&r, &r2).unwrap();
        let u = union(&r, &r2).unwrap();
        prop_assert_eq!(uo, u);
    }

    #[test]
    fn object_difference_with_self_is_empty(r in relation_strategy()) {
        prop_assert!(difference_o(&r, &r).unwrap().is_empty());
        // And object intersection with self gives back every non-empty tuple.
        let io = intersection_o(&r, &r).unwrap();
        prop_assert_eq!(io.len(), r.iter().filter(|t| t.bears_information()).count());
    }

    // ---- WHEN homomorphisms ------------------------------------------------

    #[test]
    fn when_of_union_is_union_of_whens(r1 in relation_strategy(), r2 in relation_strategy()) {
        let lhs = when(&union(&r1, &r2).unwrap());
        let rhs = when(&r1).union(&when(&r2));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn when_of_timeslice_is_within_the_slice(r in relation_strategy(), l in lifespan_lit()) {
        let sliced = when(&timeslice(&r, &l));
        prop_assert!(l.contains_lifespan(&sliced));
        prop_assert_eq!(&sliced, &when(&r).intersect(&l));
    }

    /// The same law through the engine, where the two sides take different
    /// routes: `WHEN (r1 UNION r2)` drains a blocking UNION whose output
    /// holds key-sharing tuples (`r1` and `r2` draw their keys from the
    /// same small range — the plain union keeps both versions of an
    /// object), `WHEN (r1) | WHEN (r2)` unions two scans' lifespans.
    #[test]
    fn when_of_union_is_union_of_whens_through_the_executor(
        r1 in relation_strategy(),
        r2 in relation_strategy(),
    ) {
        let expected = when(&r1).union(&when(&r2));
        let src = database([("r1", r1), ("r2", r2)]);
        for text in ["WHEN (r1 UNION r2)", "WHEN (r1) | WHEN (r2)"] {
            match run_query(&parse_query(text).unwrap(), &src).unwrap() {
                QueryResult::Lifespan(l) => prop_assert_eq!(&l, &expected, "{}", text),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    // ---- COUNT -------------------------------------------------------------

    /// `COUNT` is *undefined* — not 0 — at a chronon where nothing is alive:
    /// the count is a function on `LS(r)`. Where some tuple is alive it is
    /// the number of tuples bearing a value, which may well be 0.
    #[test]
    fn count_is_undefined_where_nothing_is_alive(r in relation_strategy(), l in lifespan_lit()) {
        let src = database([("r", r.clone())]);
        let window: Vec<String> = l
            .intervals()
            .iter()
            .map(|iv| format!("{}..{}", iv.lo(), iv.hi()))
            .collect();
        let text = format!("COUNT V (TIMESLICE [{}] (r))", window.join(", "));
        let count = match run_query(&parse_query(&text).unwrap(), &src).unwrap() {
            QueryResult::Function(f) => f,
            other => panic!("unexpected {other:?}"),
        };
        let v = Attribute::new("V");
        for s in common::UNIVERSE.0 - 1..=common::UNIVERSE.1 + 1 {
            let s = Chronon::new(s);
            let alive = l.contains(s) && r.iter().any(|t| t.lifespan().contains(s));
            let bearing = r.iter().filter(|t| l.contains(s) && t.at(&v, s).is_some()).count();
            let expected = alive.then_some(Value::Int(bearing as i64));
            prop_assert_eq!(count.at(s), expected.as_ref(), "at {} of {}", s, text);
        }
    }

    // ---- PROJECT laws -------------------------------------------------------

    #[test]
    fn project_is_idempotent_and_fuses(r in relation_strategy()) {
        let x = [Attribute::new("K"), Attribute::new("V")];
        let y = [Attribute::new("V")];
        let once = project(&r, &x).unwrap();
        prop_assert_eq!(&project(&once, &x).unwrap(), &once);
        let nested = project(&once, &y).unwrap();
        let direct = project(&r, &y).unwrap();
        prop_assert_eq!(nested, direct);
    }
}
