//! PROJECT — reduction along the attribute dimension (paper §4.2).

use crate::attribute::Attribute;
use crate::errors::Result;
use crate::relation::Relation;
use crate::tuple::Projection;

/// `π_X(r)` — "removes from r all but a specified set of attributes … It
/// does not change the values of any of the remaining attributes, or the
/// combinations of attribute values in the tuples" (paper §4.2).
///
/// Tuple lifespans are untouched; the result is a *set* (duplicate projected
/// tuples collapse). The derived scheme keeps the key only when every key
/// attribute survives the projection.
pub fn project(r: &Relation, x: &[Attribute]) -> Result<Relation> {
    let scheme = r.scheme().project(x)?;
    let projection = Projection::new(x);
    Ok(Relation::from_parts_unchecked(
        scheme,
        r.iter().map(|t| projection.apply(t)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{HistoricalDomain, ValueKind};
    use crate::scheme::Scheme;
    use crate::temporal::TemporalValue;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use hrdm_time::Lifespan;

    fn scheme() -> Scheme {
        Scheme::builder()
            .key_attr("K", ValueKind::Str, Lifespan::interval(0, 100))
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .attr("W", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .build()
            .unwrap()
    }

    fn tup(k: &str, spans: &[(i64, i64)], v: i64, w: i64) -> Tuple {
        let life = Lifespan::of(spans);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(v)))
            .value("W", TemporalValue::constant(&life, Value::Int(w)))
            .finish(&scheme())
            .unwrap()
    }

    #[test]
    fn projection_drops_attributes_keeps_lifespan() {
        let r = Relation::with_tuples(scheme(), vec![tup("a", &[(0, 5), (10, 12)], 1, 7)]).unwrap();
        let p = project(&r, &["K".into(), "V".into()]).unwrap();
        assert_eq!(p.scheme().arity(), 2);
        let t = &p.tuples()[0];
        assert_eq!(t.lifespan(), &Lifespan::of(&[(0, 5), (10, 12)]));
        assert!(t.value(&"W".into()).is_none());
        assert!(t.value(&"V".into()).is_some());
    }

    #[test]
    fn projection_collapses_duplicates() {
        // Two distinct objects with identical non-key histories collapse
        // once the key is projected away.
        let r = Relation::with_tuples(
            scheme(),
            vec![tup("a", &[(0, 5)], 1, 7), tup("b", &[(0, 5)], 1, 7)],
        )
        .unwrap();
        let p = project(&r, &["V".into(), "W".into()]).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.scheme().key().is_empty());
    }

    #[test]
    fn projection_onto_key_keeps_key() {
        let r = Relation::with_tuples(scheme(), vec![tup("a", &[(0, 5)], 1, 7)]).unwrap();
        let p = project(&r, &["K".into()]).unwrap();
        assert_eq!(p.scheme().key(), &[Attribute::new("K")]);
        assert!(p.check_key_constraint().is_ok());
    }

    #[test]
    fn projection_errors_on_unknown_attribute() {
        let r = Relation::new(scheme());
        assert!(project(&r, &["NOPE".into()]).is_err());
    }

    #[test]
    fn projection_is_idempotent() {
        let r = Relation::with_tuples(
            scheme(),
            vec![tup("a", &[(0, 5)], 1, 7), tup("b", &[(6, 9)], 2, 8)],
        )
        .unwrap();
        let x = ["K".into(), "V".into()];
        let once = project(&r, &x).unwrap();
        let twice = project(&once, &x).unwrap();
        assert_eq!(once, twice);
    }
}
