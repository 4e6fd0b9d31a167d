//! Restriction views: a tuple seen through a clip, `t|_clip`, without the
//! restricted tuple being built.
//!
//! TIME-SLICE and SELECT-WHEN restrict a tuple's functions (paper
//! §4.3–4.4). A streamed result row only needs that restriction when it is
//! written out, so the executor carries the stored tuple plus the lifespan
//! it is clipped to ([`ClippedTuple`]), and an encoder writes the clipped
//! segments straight from the stored ones ([`TupleView`],
//! [`crate::TemporalValue::clipped`]). An operator that needs restricted
//! values builds them with [`ClippedTuple::into_tuple`].

use crate::tuple::Tuple;
use hrdm_time::Lifespan;

/// An owned restriction view `t|_clip`: a stored tuple and the lifespan it
/// is clipped to, `None` when the view is the whole tuple.
///
/// The clip is kept normalized: it lies within `t.l` and is never all of
/// it. So [`ClippedTuple::lifespan`] is the restriction's lifespan, and
/// writing `t`'s segments clipped to it gives exactly the restricted
/// tuple's.
#[derive(Clone, Debug)]
pub struct ClippedTuple {
    tuple: Tuple,
    clip: Option<Lifespan>,
}

impl ClippedTuple {
    /// The view of `tuple` restricted to `clip` ([`Tuple::restrict`]).
    pub fn new(tuple: Tuple, clip: Lifespan) -> ClippedTuple {
        let life = tuple.lifespan();
        let clip = if clip.contains_lifespan(life) {
            None
        } else if life.contains_lifespan(&clip) {
            Some(clip)
        } else {
            Some(life.intersect(&clip))
        };
        ClippedTuple { tuple, clip }
    }

    /// The stored tuple, unclipped.
    pub fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    /// The clip, `None` when the view is the whole tuple.
    pub fn clip(&self) -> Option<&Lifespan> {
        self.clip.as_ref()
    }

    /// The lifespan of the restriction: the clip, or `t.l` when unclipped.
    pub fn lifespan(&self) -> &Lifespan {
        self.clip.as_ref().unwrap_or(self.tuple.lifespan())
    }

    /// The restricted tuple itself — built here, where an operator needs
    /// restricted values; an unclipped view hands its tuple on as is.
    pub fn into_tuple(self) -> Tuple {
        match self.clip {
            None => self.tuple,
            Some(clip) => self.tuple.restrict(&clip),
        }
    }
}

impl From<Tuple> for ClippedTuple {
    fn from(tuple: Tuple) -> ClippedTuple {
        ClippedTuple { tuple, clip: None }
    }
}

/// A borrowed restriction view, what an encoder takes: a `&ClippedTuple`,
/// or a plain `&Tuple` as the unclipped view.
#[derive(Clone, Copy, Debug)]
pub struct TupleView<'a> {
    tuple: &'a Tuple,
    clip: Option<&'a Lifespan>,
}

impl<'a> TupleView<'a> {
    /// The stored tuple, unclipped.
    pub fn tuple(&self) -> &'a Tuple {
        self.tuple
    }

    /// The clip (within `t.l`, never all of it), `None` when the view is
    /// the whole tuple.
    pub fn clip(&self) -> Option<&'a Lifespan> {
        self.clip
    }

    /// The lifespan of the restriction.
    pub fn lifespan(&self) -> &'a Lifespan {
        self.clip.unwrap_or(self.tuple.lifespan())
    }
}

impl<'a> From<&'a Tuple> for TupleView<'a> {
    fn from(tuple: &'a Tuple) -> TupleView<'a> {
        TupleView { tuple, clip: None }
    }
}

impl<'a> From<&'a ClippedTuple> for TupleView<'a> {
    fn from(row: &'a ClippedTuple) -> TupleView<'a> {
        TupleView {
            tuple: &row.tuple,
            clip: row.clip.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn tup(runs: &[(i64, i64)]) -> Tuple {
        let life = Lifespan::of(runs);
        Tuple::from_parts(
            life.clone(),
            [(
                Attribute::new("V"),
                TemporalValue::constant(&life, Value::Int(1)),
            )]
            .into(),
        )
    }

    #[test]
    fn clips_are_normalized_into_the_lifespan() {
        let t = tup(&[(0, 9), (20, 29)]);
        // Covering the lifespan: the whole tuple.
        let whole = ClippedTuple::new(t.clone(), Lifespan::interval(-5, 40));
        assert!(whole.clip().is_none());
        assert_eq!(whole.lifespan(), t.lifespan());
        // Reaching past it: cut down to the part inside.
        let part = ClippedTuple::new(t.clone(), Lifespan::interval(5, 25));
        assert_eq!(part.clip(), Some(&Lifespan::of(&[(5, 9), (20, 25)])));
        assert_eq!(TupleView::from(&part).lifespan(), part.lifespan());
        assert_eq!(part.into_tuple(), t.restrict(&Lifespan::interval(5, 25)));
    }

    #[test]
    fn an_unclipped_view_hands_its_tuple_on() {
        let t = tup(&[(0, 9)]);
        let view = TupleView::from(&t);
        assert!(view.clip().is_none());
        assert_eq!(view.lifespan(), t.lifespan());
        assert_eq!(ClippedTuple::from(t.clone()).into_tuple(), t);
    }
}
