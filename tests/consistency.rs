//! The §5 consistent-extension theorem, machine-checked.
//!
//! "Each component C of the relational model has a corresponding component
//! Cᴴ in the historical relational model with the property that the
//! definitions of C and Cᴴ become equivalent in the absence of a temporal
//! dimension." The paper leaves the proof "to a subsequent paper"; here it
//! is checked operator by operator: random classical relations are lifted
//! into HRDM with `T = {now}`, each HRDM operator runs against its
//! independently-implemented classical counterpart (`hrdm-baseline`), and
//! the results are compared through the snapshot projection.

mod common;

use hrdm_baseline::snapshot::{SnapshotRelation, SnapshotScheme};
use hrdm_baseline::snapshot_of_hrdm;
use hrdm_core::consistency::{is_snapshot_relation, lift_snapshot};
use hrdm_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NOW: Chronon = Chronon::new(7);

fn snap_scheme() -> Scheme {
    let now = Lifespan::point(NOW);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, now.clone())
        .attr("V", HistoricalDomain::int(), now.clone())
        .attr("W", HistoricalDomain::int(), now)
        .build()
        .unwrap()
}

fn snap_scheme2() -> Scheme {
    let now = Lifespan::point(NOW);
    Scheme::builder()
        .key_attr("K2", ValueKind::Int, now.clone())
        .attr("X", HistoricalDomain::int(), now)
        .build()
        .unwrap()
}

/// Strategy: random classical rows (distinct keys) for `snap_scheme`.
fn rows_strategy() -> impl Strategy<Value = Vec<BTreeMap<Attribute, Value>>> {
    prop::collection::vec((0i64..5, 0i64..5), 0..6).prop_map(|vals| {
        vals.into_iter()
            .enumerate()
            .map(|(k, (v, w))| {
                BTreeMap::from([
                    (Attribute::new("K"), Value::Int(k as i64)),
                    (Attribute::new("V"), Value::Int(v)),
                    (Attribute::new("W"), Value::Int(w)),
                ])
            })
            .collect()
    })
}

fn rows2_strategy() -> impl Strategy<Value = Vec<BTreeMap<Attribute, Value>>> {
    prop::collection::vec(0i64..5, 0..4).prop_map(|vals| {
        vals.into_iter()
            .enumerate()
            .map(|(k, x)| {
                BTreeMap::from([
                    (Attribute::new("K2"), Value::Int(k as i64)),
                    (Attribute::new("X"), Value::Int(x)),
                ])
            })
            .collect()
    })
}

/// The classical twin of a lifted relation, built independently.
fn classical(scheme: &Scheme, rows: &[BTreeMap<Attribute, Value>]) -> SnapshotRelation {
    let attrs = scheme
        .attrs()
        .iter()
        .map(|d| (d.name().clone(), d.domain().kind()))
        .collect();
    let s = SnapshotScheme::new(attrs, scheme.key().to_vec()).unwrap();
    let positional: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| {
            scheme
                .attr_names()
                .map(|a| row.get(a).cloned().expect("classical rows are total"))
                .collect()
        })
        .collect();
    SnapshotRelation::with_rows(s, positional).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(64))]

    #[test]
    fn select_reduces_to_classical(rows in rows_strategy(), c in 0i64..5) {
        let hist = lift_snapshot(&snap_scheme(), &rows, NOW).unwrap();
        let classic = classical(&snap_scheme(), &rows);

        // SELECT-IF (∃), SELECT-IF (∀), and SELECT-WHEN all reduce to σ.
        let pred = Predicate::eq_value("V", c);
        let via_exists = select_if(&hist, &pred, Quantifier::Exists, None).unwrap();
        let via_forall = select_if(&hist, &pred, Quantifier::Forall, None).unwrap();
        let via_when = select_when(&hist, &pred).unwrap();
        let classical_sel = classic
            .select_value(&"V".into(), Comparator::Eq, &Value::Int(c))
            .unwrap();

        prop_assert_eq!(&via_exists, &via_forall);
        prop_assert_eq!(&via_exists, &via_when);
        prop_assert_eq!(
            snapshot_of_hrdm(&via_exists, NOW).unwrap(),
            classical_sel
        );
        prop_assert!(is_snapshot_relation(&via_exists, NOW));
    }

    #[test]
    fn project_reduces_to_classical(rows in rows_strategy()) {
        let hist = lift_snapshot(&snap_scheme(), &rows, NOW).unwrap();
        let classic = classical(&snap_scheme(), &rows);
        let x = [Attribute::new("K"), Attribute::new("V")];
        let h = project(&hist, &x).unwrap();
        let c = classic.project(&x).unwrap();
        prop_assert_eq!(snapshot_of_hrdm(&h, NOW).unwrap(), c);
    }

    #[test]
    fn set_ops_reduce_to_classical(rows1 in rows_strategy(), rows2 in rows_strategy()) {
        let h1 = lift_snapshot(&snap_scheme(), &rows1, NOW).unwrap();
        let h2 = lift_snapshot(&snap_scheme(), &rows2, NOW).unwrap();
        let c1 = classical(&snap_scheme(), &rows1);
        let c2 = classical(&snap_scheme(), &rows2);

        prop_assert_eq!(
            snapshot_of_hrdm(&union(&h1, &h2).unwrap(), NOW).unwrap(),
            c1.union(&c2).unwrap()
        );
        prop_assert_eq!(
            snapshot_of_hrdm(&intersection(&h1, &h2).unwrap(), NOW).unwrap(),
            c1.intersection(&c2).unwrap()
        );
        prop_assert_eq!(
            snapshot_of_hrdm(&difference(&h1, &h2).unwrap(), NOW).unwrap(),
            c1.difference(&c2).unwrap()
        );
    }

    #[test]
    fn product_reduces_to_classical(rows1 in rows_strategy(), rows2 in rows2_strategy()) {
        let h1 = lift_snapshot(&snap_scheme(), &rows1, NOW).unwrap();
        let h2 = lift_snapshot(&snap_scheme2(), &rows2, NOW).unwrap();
        let c1 = classical(&snap_scheme(), &rows1);
        let c2 = classical(&snap_scheme2(), &rows2);
        prop_assert_eq!(
            snapshot_of_hrdm(&cartesian_product(&h1, &h2).unwrap(), NOW).unwrap(),
            c1.product(&c2).unwrap()
        );
    }

    #[test]
    fn theta_join_reduces_to_classical(rows1 in rows_strategy(), rows2 in rows2_strategy()) {
        let h1 = lift_snapshot(&snap_scheme(), &rows1, NOW).unwrap();
        let h2 = lift_snapshot(&snap_scheme2(), &rows2, NOW).unwrap();
        let c1 = classical(&snap_scheme(), &rows1);
        let c2 = classical(&snap_scheme2(), &rows2);
        for op in [Comparator::Eq, Comparator::Lt, Comparator::Ge] {
            let h = theta_join(&h1, &h2, &"V".into(), op, &"X".into()).unwrap();
            let c = c1.theta_join(&c2, &"V".into(), op, &"X".into()).unwrap();
            prop_assert_eq!(snapshot_of_hrdm(&h, NOW).unwrap(), c);
        }
    }

    #[test]
    fn timeslice_is_identity_at_now_and_when_is_now_or_never(rows in rows_strategy()) {
        // Paper §5: "TIME-SLICE can be viewed as the identity function
        // defined only for time now, and WHEN maps a relation either to now
        // or to the empty set".
        let hist = lift_snapshot(&snap_scheme(), &rows, NOW).unwrap();
        prop_assert_eq!(&timeslice(&hist, &Lifespan::point(NOW)), &hist);
        let w = when(&hist);
        if rows.is_empty() {
            prop_assert_eq!(w, Lifespan::empty()); // "never"
        } else {
            prop_assert_eq!(w, Lifespan::point(NOW)); // "always"
        }
    }

    #[test]
    fn every_operator_preserves_snapshot_shape(rows in rows_strategy(), c in 0i64..5) {
        let hist = lift_snapshot(&snap_scheme(), &rows, NOW).unwrap();
        let pred = Predicate::attr_op_value("V", Comparator::Le, c);
        for result in [
            select_if(&hist, &pred, Quantifier::Exists, None).unwrap(),
            select_when(&hist, &pred).unwrap(),
            project(&hist, &["K".into(), "W".into()]).unwrap(),
            timeslice(&hist, &Lifespan::point(NOW)),
            union(&hist, &hist).unwrap(),
            intersection(&hist, &hist).unwrap(),
            difference(&hist, &hist).unwrap(),
        ] {
            prop_assert!(is_snapshot_relation(&result, NOW));
        }
    }
}

#[test]
fn natural_join_reduces_to_classical_fixed_case() {
    // grade(V, G): classical natural join on the shared V column.
    let now = Lifespan::point(NOW);
    let grade_scheme = Scheme::builder()
        .attr("V", HistoricalDomain::int(), now.clone())
        .attr("G", HistoricalDomain::int(), now)
        .build()
        .unwrap();
    let grade_rows: Vec<BTreeMap<Attribute, Value>> = (0..3)
        .map(|v| {
            BTreeMap::from([
                (Attribute::new("V"), Value::Int(v)),
                (Attribute::new("G"), Value::Int(v * 10)),
            ])
        })
        .collect();
    let emp_rows: Vec<BTreeMap<Attribute, Value>> = (0..4)
        .map(|k| {
            BTreeMap::from([
                (Attribute::new("K"), Value::Int(k)),
                (Attribute::new("V"), Value::Int(k % 3)),
                (Attribute::new("W"), Value::Int(0)),
            ])
        })
        .collect();

    let h1 = lift_snapshot(&snap_scheme(), &emp_rows, NOW).unwrap();
    let h2 = lift_snapshot(&grade_scheme, &grade_rows, NOW).unwrap();
    let hj = natural_join(&h1, &h2).unwrap();

    let c1 = classical(&snap_scheme(), &emp_rows);
    let c2 = classical(&grade_scheme, &grade_rows);
    let cj = c1.natural_join(&c2).unwrap();

    assert_eq!(snapshot_of_hrdm(&hj, NOW).unwrap(), cj);
    assert_eq!(hj.len(), 4);
}
