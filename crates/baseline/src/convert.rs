//! Information-preserving conversions between HRDM and the baselines.
//!
//! The paper's §1 comparison is about *where the temporal dimension is
//! attached*, not about what can be represented: the same history can be
//! stored attribute-timestamped (HRDM), tuple-timestamped (1NF versions), or
//! as a cube of snapshots. These conversions realize that equivalence, so the
//! storage comparison of paper Fig. 10 (the `figures` binary) and the
//! `model_agreement` tests look at the same information under the three
//! layouts.

use crate::cube::CubeRelation;
use crate::snapshot::{SnapshotRelation, SnapshotScheme};
use crate::tuple_ts::{TsRelation, TsScheme, TsTuple};
use hrdm_core::{Attribute, Relation, Result, Scheme, TemporalValue, Tuple, Value};
use hrdm_time::{Chronon, Interval, Lifespan};
use std::collections::BTreeMap;

/// The classical snapshot of an HRDM relation at `t`, as a baseline
/// [`SnapshotRelation`]. Tuples alive at `t` with some attribute undefined
/// there have no classical (null-free) counterpart and are skipped.
pub fn snapshot_of_hrdm(r: &Relation, t: Chronon) -> Result<SnapshotRelation> {
    let attrs: Vec<(Attribute, hrdm_core::ValueKind)> = r
        .scheme()
        .attrs()
        .iter()
        .map(|d| (d.name().clone(), d.domain().kind()))
        .collect();
    let scheme = SnapshotScheme::new(attrs, r.scheme().key().to_vec())?;
    let mut out = SnapshotRelation::new(scheme);
    'tuples: for tuple in r.iter() {
        if !tuple.lifespan().contains(t) {
            continue;
        }
        let mut row = Vec::with_capacity(r.scheme().arity());
        for def in r.scheme().attrs() {
            match tuple.at(def.name(), t) {
                Some(v) => row.push(v.clone()),
                None => continue 'tuples,
            }
        }
        out.insert(row)?;
    }
    Ok(out)
}

/// Expands an HRDM relation into tuple-timestamped 1NF versions: one flat
/// version per maximal interval on which **all** attributes of a tuple are
/// simultaneously constant and defined.
///
/// This is precisely the blow-up the paper attributes to tuple-level
/// timestamping: an object whose attributes change `k` times independently
/// becomes `O(k)` versions. Times at which some attribute is undefined have
/// no 1NF row and are not covered.
pub fn hrdm_to_ts(r: &Relation) -> Result<TsRelation> {
    let attrs: Vec<(Attribute, hrdm_core::ValueKind)> = r
        .scheme()
        .attrs()
        .iter()
        .map(|d| (d.name().clone(), d.domain().kind()))
        .collect();
    let names: Vec<Attribute> = attrs.iter().map(|(a, _)| a.clone()).collect();
    let scheme = TsScheme::new(attrs, r.scheme().key().to_vec())?;
    let mut out = TsRelation::new(scheme);

    for tuple in r.iter() {
        // The fully-defined region: intersection of all attribute domains.
        let mut defined = tuple.lifespan().clone();
        for name in &names {
            let dom = tuple
                .value(name)
                .map(|tv| tv.domain())
                .unwrap_or_else(Lifespan::empty);
            defined = defined.intersect(&dom);
        }
        for run in defined.intervals() {
            // Change points: the run start plus every segment start within.
            let mut points = vec![run.lo()];
            for name in &names {
                if let Some(tv) = tuple.value(name) {
                    for (iv, _) in tv.segments() {
                        if iv.lo() > run.lo() && iv.lo() <= run.hi() {
                            points.push(iv.lo());
                        }
                    }
                }
            }
            points.sort_unstable();
            points.dedup();
            for (i, &lo) in points.iter().enumerate() {
                let hi = match points.get(i + 1) {
                    Some(next) => next.saturating_pred(),
                    None => run.hi(),
                };
                let span = Interval::new(lo, hi).expect("change points are ordered");
                let values: Vec<Value> = names
                    .iter()
                    .map(|name| {
                        tuple
                            .at(name, lo)
                            .cloned()
                            .expect("defined region by construction")
                    })
                    .collect();
                out.insert(TsTuple { values, span })?;
            }
        }
    }
    Ok(out)
}

/// Reassembles an HRDM relation from tuple-timestamped versions, grouping by
/// key and fusing the flat versions back into temporal functions. The
/// round trip `ts_to_hrdm(hrdm_to_ts(r))` restores `r` whenever `r`'s tuples
/// are total over their lifespans (the information both models share).
pub fn ts_to_hrdm(ts: &TsRelation, scheme: &Scheme) -> Result<Relation> {
    let names: Vec<Attribute> = scheme.attr_names().cloned().collect();
    let key_idxs: Vec<usize> = ts
        .scheme()
        .key()
        .iter()
        .map(|k| ts.scheme().index_of(k))
        .collect::<Result<_>>()?;

    let mut groups: BTreeMap<Vec<Value>, Vec<&TsTuple>> = BTreeMap::new();
    for t in ts.tuples() {
        let key: Vec<Value> = key_idxs.iter().map(|&i| t.values[i].clone()).collect();
        groups.entry(key).or_default().push(t);
    }

    let mut tuples = Vec::with_capacity(groups.len());
    for (_, versions) in groups {
        let lifespan = Lifespan::from_intervals(versions.iter().map(|v| v.span));
        let mut builder = Tuple::builder(lifespan);
        for (i, name) in names.iter().enumerate() {
            let idx = ts.scheme().index_of(name)?;
            let tv = TemporalValue::from_segments(
                versions.iter().map(|v| (v.span, v.values[idx].clone())),
            )?;
            let _ = i;
            builder = builder.value(name.clone(), tv);
        }
        tuples.push(builder.finish(scheme)?);
    }
    Relation::with_tuples(scheme.clone(), tuples)
}

/// Materializes an HRDM relation as a cube: one snapshot per chronon of the
/// relation's lifespan hull (or `universe` when given). Storage is
/// `O(|T| × instance)` — the paper's motivation for leaving this model
/// behind.
pub fn hrdm_to_cube(r: &Relation, universe: Option<Interval>) -> Result<CubeRelation> {
    let attrs: Vec<(Attribute, hrdm_core::ValueKind)> = r
        .scheme()
        .attrs()
        .iter()
        .map(|d| (d.name().clone(), d.domain().kind()))
        .collect();
    let universe = match universe.or_else(|| r.lifespan().hull()) {
        Some(u) => u,
        None => Interval::of(0, 0), // empty relation: degenerate universe
    };
    let mut cube = CubeRelation::new(attrs, r.scheme().key().to_vec(), universe)?;
    let names: Vec<Attribute> = r.scheme().attr_names().cloned().collect();
    for tuple in r.iter() {
        for t in tuple.lifespan().iter() {
            if !universe.contains(t) {
                continue;
            }
            let row = names.iter().map(|n| tuple.at(n, t).cloned()).collect();
            cube.assert_row(t, row)?;
        }
    }
    Ok(cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{HistoricalDomain, ValueKind};

    fn scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "SALARY",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .attr(
                "DEPT",
                HistoricalDomain::string(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap()
    }

    fn john() -> Tuple {
        // Salary changes at 10, dept at 20; gap (fired) on [30,39]; rehired 40.
        let life = Lifespan::of(&[(0, 29), (40, 49)]);
        Tuple::builder(life)
            .constant("NAME", "John")
            .value(
                "SALARY",
                TemporalValue::of(&[
                    (0, 9, Value::Int(25)),
                    (10, 29, Value::Int(30)),
                    (40, 49, Value::Int(35)),
                ]),
            )
            .value(
                "DEPT",
                TemporalValue::of(&[
                    (0, 19, Value::str("Toys")),
                    (20, 29, Value::str("Shoes")),
                    (40, 49, Value::str("Shoes")),
                ]),
            )
            .finish(&scheme())
            .unwrap()
    }

    fn rel() -> Relation {
        Relation::with_tuples(scheme(), vec![john()]).unwrap()
    }

    #[test]
    fn hrdm_to_ts_expands_at_every_change() {
        let ts = hrdm_to_ts(&rel()).unwrap();
        // Versions: [0,9](25,Toys) [10,19](30,Toys) [20,29](30,Shoes) [40,49](35,Shoes).
        assert_eq!(ts.version_count(), 4);
        // One HRDM tuple holds the same history in 1+3+3 = 7 segments but a
        // single object; the TS layout needs 4 versions × 3 attrs = 12 cells.
        assert_eq!(ts.cells(), 12);
    }

    #[test]
    fn ts_round_trip_restores_hrdm() {
        let r = rel();
        let ts = hrdm_to_ts(&r).unwrap();
        let back = ts_to_hrdm(&ts, r.scheme()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn snapshot_of_hrdm_matches_model_snapshot() {
        let r = rel();
        let snap = snapshot_of_hrdm(&r, Chronon::new(15)).unwrap();
        assert_eq!(snap.len(), 1);
        let row = snap.rows().iter().next().unwrap();
        assert_eq!(row[0], Value::str("John"));
        assert_eq!(row[1], Value::Int(30));
        assert_eq!(row[2], Value::str("Toys"));
        // During the firing gap: empty snapshot.
        assert!(snapshot_of_hrdm(&r, Chronon::new(35)).unwrap().is_empty());
    }

    #[test]
    fn cube_holds_one_snapshot_per_chronon() {
        let r = rel();
        let cube = hrdm_to_cube(&r, None).unwrap();
        assert_eq!(cube.universe(), Interval::of(0, 49));
        // 40 living chronons × 3 attrs.
        assert_eq!(cube.cells(), 120);
        assert!(cube.exists(&[Value::str("John")], Chronon::new(5)).unwrap());
        assert!(!cube
            .exists(&[Value::str("John")], Chronon::new(35))
            .unwrap());
    }

    #[test]
    fn storage_shape_matches_paper_argument() {
        // The §1/§2 shape: cube ≫ tuple-timestamped > attribute-timestamped
        // for slowly-changing histories.
        let r = rel();
        let hrdm_cells = r.segment_cells();
        let ts_cells = hrdm_to_ts(&r).unwrap().cells();
        let cube_cells = hrdm_to_cube(&r, None).unwrap().cells();
        assert!(hrdm_cells < ts_cells, "{hrdm_cells} vs {ts_cells}");
        assert!(ts_cells < cube_cells, "{ts_cells} vs {cube_cells}");
    }

    #[test]
    fn all_three_models_answer_the_same_snapshot_query() {
        let r = rel();
        let t = Chronon::new(22);
        let snap = snapshot_of_hrdm(&r, t).unwrap();
        let ts = hrdm_to_ts(&r).unwrap();
        let cube = hrdm_to_cube(&r, None).unwrap();

        let ts_rows: Vec<Vec<Value>> = ts
            .timeslice(t)
            .into_iter()
            .map(|v| v.values.clone())
            .collect();
        let cube_rows: Vec<Vec<Value>> = cube
            .timeslice(t)
            .iter()
            .map(|row| row.iter().map(|v| v.clone().unwrap()).collect())
            .collect();
        let snap_rows: Vec<Vec<Value>> = snap.rows().iter().cloned().collect();
        assert_eq!(snap_rows, ts_rows);
        assert_eq!(snap_rows, cube_rows);
    }
}
