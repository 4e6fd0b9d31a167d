//! Selection predicates `A θ a` and their evaluation over historical tuples.
//!
//! The paper's selection criterion is "a simple predicate over the attributes
//! of the tuple … `A θ a` would select only those tuples whose value for
//! attribute A stood in relationship θ to the value a. (The value a could
//! represent another attribute value or a constant.)" (§4.3). We implement
//! exactly that, plus the obvious boolean closure (`AND` / `OR` / `NOT`) as a
//! conservative extension.
//!
//! # Three-valued semantics
//!
//! Attribute values are *partial* functions; at times where a referenced
//! attribute is undefined the paper says the attribute "does not exist", so a
//! comparison there is neither true nor false — it is undefined. Predicates
//! therefore evaluate to `Option<bool>` per time point (Kleene's strong
//! three-valued logic for the connectives), and set-level operators consume
//! the *certainly-true* region ([`Predicate::when_true`]).

use crate::attribute::Attribute;
use crate::errors::{HrdmError, Result};
use crate::scheme::Scheme;
use crate::tuple::Tuple;
use crate::value::Value;
use hrdm_time::{Chronon, Lifespan};
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator θ.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Comparator {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl Comparator {
    /// Does an ordering outcome satisfy this comparator?
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            Comparator::Eq => ord == Ordering::Equal,
            Comparator::Ne => ord != Ordering::Equal,
            Comparator::Lt => ord == Ordering::Less,
            Comparator::Le => ord != Ordering::Greater,
            Comparator::Gt => ord == Ordering::Greater,
            Comparator::Ge => ord != Ordering::Less,
        }
    }

    /// The comparator with operands swapped (`a θ b ⇔ b θ' a`).
    pub fn flipped(self) -> Comparator {
        match self {
            Comparator::Eq => Comparator::Eq,
            Comparator::Ne => Comparator::Ne,
            Comparator::Lt => Comparator::Gt,
            Comparator::Le => Comparator::Ge,
            Comparator::Gt => Comparator::Lt,
            Comparator::Ge => Comparator::Le,
        }
    }

    /// The logical negation (`¬(a θ b) ⇔ a θ' b`, when both sides defined).
    pub fn negated(self) -> Comparator {
        match self {
            Comparator::Eq => Comparator::Ne,
            Comparator::Ne => Comparator::Eq,
            Comparator::Lt => Comparator::Ge,
            Comparator::Le => Comparator::Gt,
            Comparator::Gt => Comparator::Le,
            Comparator::Ge => Comparator::Lt,
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparator::Eq => "=",
            Comparator::Ne => "!=",
            Comparator::Lt => "<",
            Comparator::Le => "<=",
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One side of a comparison: an attribute reference or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// The (time-varying) value of an attribute.
    Attr(Attribute),
    /// A constant value.
    Const(Value),
}

impl Operand {
    /// Convenience: an attribute operand.
    pub fn attr(name: impl Into<Attribute>) -> Operand {
        Operand::Attr(name.into())
    }

    /// Convenience: a constant operand.
    pub fn val(v: impl Into<Value>) -> Operand {
        Operand::Const(v.into())
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(Value::Str(s)) => write!(f, "\"{s}\""),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A selection predicate: an atomic comparison `x θ y`, or a boolean
/// combination of predicates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Predicate {
    /// Always true (selects whole tuples; the identity of `AND`).
    True,
    /// An atomic comparison.
    Cmp {
        /// Left operand.
        left: Operand,
        /// The comparison operator θ.
        op: Comparator,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction (Kleene strong ∧).
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction (Kleene strong ∨).
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (undefined stays undefined).
    Not(Box<Predicate>),
}

impl Predicate {
    /// `left θ right`.
    pub fn cmp(left: Operand, op: Comparator, right: Operand) -> Predicate {
        Predicate::Cmp { left, op, right }
    }

    /// `A θ const` — the paper's canonical form.
    pub fn attr_op_value(
        attr: impl Into<Attribute>,
        op: Comparator,
        v: impl Into<Value>,
    ) -> Predicate {
        Predicate::cmp(Operand::attr(attr), op, Operand::val(v))
    }

    /// `A = const`.
    pub fn eq_value(attr: impl Into<Attribute>, v: impl Into<Value>) -> Predicate {
        Predicate::attr_op_value(attr, Comparator::Eq, v)
    }

    /// `p ∧ q`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `p ∨ q`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `¬p`.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// The attributes the predicate references.
    pub fn attributes(&self) -> Vec<Attribute> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<Attribute>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { left, right, .. } => {
                if let Operand::Attr(a) = left {
                    out.push(a.clone());
                }
                if let Operand::Attr(a) = right {
                    out.push(a.clone());
                }
            }
            Predicate::And(p, q) | Predicate::Or(p, q) => {
                p.collect_attrs(out);
                q.collect_attrs(out);
            }
            Predicate::Not(p) => p.collect_attrs(out),
        }
    }

    /// Type-checks the predicate against a scheme: referenced attributes must
    /// exist and compared kinds must be comparable.
    pub fn typecheck(&self, scheme: &Scheme) -> Result<()> {
        match self {
            Predicate::True => Ok(()),
            Predicate::Cmp { left, op: _, right } => {
                let lk = match left {
                    Operand::Attr(a) => scheme.dom(a)?.kind(),
                    Operand::Const(v) => v.kind(),
                };
                let rk = match right {
                    Operand::Attr(a) => scheme.dom(a)?.kind(),
                    Operand::Const(v) => v.kind(),
                };
                if lk.comparable_with(rk) {
                    Ok(())
                } else {
                    Err(HrdmError::IncomparableValues {
                        left: lk,
                        right: rk,
                    })
                }
            }
            Predicate::And(p, q) | Predicate::Or(p, q) => {
                p.typecheck(scheme)?;
                q.typecheck(scheme)
            }
            Predicate::Not(p) => p.typecheck(scheme),
        }
    }

    /// Point evaluation: the truth value of the predicate over tuple `t` at
    /// time `s`. `None` means *undefined* — some referenced attribute bears
    /// no value at `s`.
    pub fn eval_at(&self, t: &Tuple, s: Chronon) -> Result<Option<bool>> {
        match self {
            Predicate::True => Ok(Some(true)),
            Predicate::Cmp { left, op, right } => {
                let lv = match left {
                    Operand::Attr(a) => t.at(a, s),
                    Operand::Const(v) => Some(v),
                };
                let rv = match right {
                    Operand::Attr(a) => t.at(a, s),
                    Operand::Const(v) => Some(v),
                };
                match (lv, rv) {
                    (Some(l), Some(r)) => Ok(Some(op.test(l.try_cmp(r)?))),
                    _ => Ok(None),
                }
            }
            Predicate::And(p, q) => {
                let (a, b) = (p.eval_at(t, s)?, q.eval_at(t, s)?);
                Ok(match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
            }
            Predicate::Or(p, q) => {
                let (a, b) = (p.eval_at(t, s)?, q.eval_at(t, s)?);
                Ok(match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Predicate::Not(p) => Ok(p.eval_at(t, s)?.map(|b| !b)),
        }
    }

    /// The set of times (within the tuple's lifespan) where the predicate is
    /// *certainly true*. Computed segment-wise, never per chronon.
    pub fn when_true(&self, t: &Tuple) -> Result<Lifespan> {
        self.when(t, true)
    }

    /// The set of times where the predicate is *certainly false*.
    pub fn when_false(&self, t: &Tuple) -> Result<Lifespan> {
        self.when(t, false)
    }

    /// The span, within `t.l`, on which the predicate certainly has the
    /// truth value `holds`. Only the asked-for span is computed: a
    /// comparison is certainly false exactly where its negated comparator
    /// is certainly true (both sides defined either way), so a selection
    /// that discards a tuple allocates nothing for it.
    fn when(&self, t: &Tuple, holds: bool) -> Result<Lifespan> {
        match self {
            Predicate::True if holds => Ok(t.lifespan().clone()),
            Predicate::True => Ok(Lifespan::empty()),
            Predicate::Cmp { left, op, right } => {
                let op = if holds { *op } else { op.negated() };
                cmp_span(t, left, op, right)
            }
            // ∧ holds where both do and fails where either does; ∨ dually.
            Predicate::And(p, q) | Predicate::Or(p, q) => {
                let (a, b) = (p.when(t, holds)?, q.when(t, holds)?);
                if matches!(self, Predicate::And(..)) == holds {
                    Ok(a.intersect(&b))
                } else {
                    Ok(a.union(&b))
                }
            }
            Predicate::Not(p) => p.when(t, !holds),
        }
    }
}

/// The span on which one atomic comparison certainly holds, segment-wise.
fn cmp_span(t: &Tuple, left: &Operand, op: Comparator, right: &Operand) -> Result<Lifespan> {
    match (left, right) {
        (Operand::Const(l), Operand::Const(r)) => Ok(if op.test(l.try_cmp(r)?) {
            t.lifespan().clone()
        } else {
            Lifespan::empty()
        }),
        (Operand::Attr(a), Operand::Const(c)) => attr_const_span(t, a, op, c),
        (Operand::Const(c), Operand::Attr(a)) => attr_const_span(t, a, op.flipped(), c),
        (Operand::Attr(a), Operand::Attr(b)) => match (t.value(a), t.value(b)) {
            (Some(f), Some(g)) => f.when_compare(g, |ord| op.test(ord)),
            _ => Ok(Lifespan::empty()),
        },
    }
}

fn attr_const_span(t: &Tuple, attr: &Attribute, op: Comparator, c: &Value) -> Result<Lifespan> {
    let mut span = Vec::new();
    for (iv, v) in t.value(attr).map_or(&[][..], |f| f.segments()) {
        if op.test(v.try_cmp(c)?) {
            span.push(*iv);
        }
    }
    Ok(Lifespan::from_intervals(span))
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::And(p, q) => write!(f, "({p} and {q})"),
            Predicate::Or(p, q) => write!(f, "({p} or {q})"),
            Predicate::Not(p) => write!(f, "(not {p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{HistoricalDomain, ValueKind};
    use crate::temporal::TemporalValue;

    fn ls(lo: i64, hi: i64) -> Lifespan {
        Lifespan::interval(lo, hi)
    }

    fn scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, ls(0, 100))
            .attr("SALARY", HistoricalDomain::int(), ls(0, 100))
            .attr("BUDGET", HistoricalDomain::int(), ls(0, 100))
            .build()
            .unwrap()
    }

    fn john() -> Tuple {
        Tuple::builder(ls(0, 30))
            .constant("NAME", "John")
            .value(
                "SALARY",
                TemporalValue::of(&[
                    (0, 9, Value::Int(25_000)),
                    (10, 19, Value::Int(30_000)),
                    (25, 30, Value::Int(28_000)), // gap [20,24]: salary unknown
                ]),
            )
            .value("BUDGET", TemporalValue::of(&[(0, 30, Value::Int(29_000))]))
            .finish(&scheme())
            .unwrap()
    }

    #[test]
    fn comparator_tests() {
        assert!(Comparator::Eq.test(Ordering::Equal));
        assert!(!Comparator::Eq.test(Ordering::Less));
        assert!(Comparator::Le.test(Ordering::Equal));
        assert!(Comparator::Ne.test(Ordering::Greater));
        assert!(Comparator::Ge.test(Ordering::Greater));
        assert!(Comparator::Lt.test(Ordering::Less));
    }

    #[test]
    fn comparator_flip_and_negate() {
        for op in [
            Comparator::Eq,
            Comparator::Ne,
            Comparator::Lt,
            Comparator::Le,
            Comparator::Gt,
            Comparator::Ge,
        ] {
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.test(ord), op.flipped().test(ord.reverse()));
                assert_eq!(op.test(ord), !op.negated().test(ord));
            }
        }
    }

    #[test]
    fn point_eval_attr_const() {
        // The paper's running example: Salary = 30K.
        let p = Predicate::eq_value("SALARY", 30_000i64);
        let t = john();
        assert_eq!(p.eval_at(&t, Chronon::new(15)).unwrap(), Some(true));
        assert_eq!(p.eval_at(&t, Chronon::new(5)).unwrap(), Some(false));
        assert_eq!(p.eval_at(&t, Chronon::new(22)).unwrap(), None); // undefined gap
        assert_eq!(p.eval_at(&t, Chronon::new(99)).unwrap(), None); // outside t.l
    }

    #[test]
    fn when_true_is_select_when_core() {
        // "just those times when John earned 30K" (paper §4.3).
        let p = Predicate::eq_value("SALARY", 30_000i64);
        assert_eq!(p.when_true(&john()).unwrap(), ls(10, 19));
    }

    #[test]
    fn when_false_excludes_undefined() {
        let p = Predicate::eq_value("SALARY", 30_000i64);
        let wf = p.when_false(&john()).unwrap();
        assert_eq!(wf, Lifespan::of(&[(0, 9), (25, 30)]));
        // [20,24] is neither true nor false.
        assert!(!wf.contains(Chronon::new(22)));
    }

    #[test]
    fn attr_attr_comparison_segmentwise() {
        // SALARY > BUDGET exactly when salary is 30000 > 29000.
        let p = Predicate::cmp(
            Operand::attr("SALARY"),
            Comparator::Gt,
            Operand::attr("BUDGET"),
        );
        assert_eq!(p.when_true(&john()).unwrap(), ls(10, 19));
        let wf = p.when_false(&john()).unwrap();
        assert_eq!(wf, Lifespan::of(&[(0, 9), (25, 30)]));
    }

    #[test]
    fn const_attr_flips() {
        let p = Predicate::cmp(
            Operand::val(26_000i64),
            Comparator::Lt,
            Operand::attr("SALARY"),
        );
        assert_eq!(
            p.when_true(&john()).unwrap(),
            Lifespan::of(&[(10, 19), (25, 30)])
        );
    }

    #[test]
    fn kleene_connectives() {
        let t = john();
        let hi = Predicate::attr_op_value("SALARY", Comparator::Ge, 28_000i64);
        let lo = Predicate::attr_op_value("SALARY", Comparator::Le, 29_000i64);
        let band = hi.clone().and(lo.clone());
        assert_eq!(band.when_true(&t).unwrap(), ls(25, 30));

        let either = hi.clone().or(lo);
        assert_eq!(
            either.when_true(&t).unwrap(),
            Lifespan::of(&[(0, 19), (25, 30)])
        );

        let not_hi = hi.negate();
        assert_eq!(not_hi.when_true(&t).unwrap(), ls(0, 9));
        // Undefined gap stays undefined under negation.
        assert!(!not_hi.when_true(&t).unwrap().contains(Chronon::new(22)));
        assert_eq!(not_hi.eval_at(&t, Chronon::new(22)).unwrap(), None);
    }

    #[test]
    fn kleene_false_dominates_undefined() {
        let t = john();
        // SALARY = 1 is false on defined spans; undefined on [20,24].
        let f = Predicate::eq_value("SALARY", 1i64);
        // false AND undefined = false (strong Kleene).
        let conj = f.clone().and(Predicate::eq_value("SALARY", 30_000i64));
        assert_eq!(conj.eval_at(&t, Chronon::new(5)).unwrap(), Some(false));
        // true OR undefined = true.
        let disj = Predicate::True.or(f);
        assert_eq!(disj.eval_at(&t, Chronon::new(22)).unwrap(), Some(true));
    }

    #[test]
    fn pointwise_agrees_with_spanwise() {
        // Exhaustive consistency check between eval_at and truth spans.
        let t = john();
        let preds = [
            Predicate::eq_value("SALARY", 30_000i64),
            Predicate::attr_op_value("SALARY", Comparator::Gt, 26_000i64),
            Predicate::cmp(
                Operand::attr("SALARY"),
                Comparator::Le,
                Operand::attr("BUDGET"),
            ),
            Predicate::eq_value("SALARY", 30_000i64).and(Predicate::eq_value("NAME", "John")),
            Predicate::eq_value("SALARY", 25_000i64).negate(),
            Predicate::eq_value("SALARY", 28_000i64).or(Predicate::attr_op_value(
                "BUDGET",
                Comparator::Lt,
                0i64,
            )),
            Predicate::attr_op_value("SALARY", Comparator::Ge, 28_000i64)
                .and(Predicate::eq_value("NAME", "John").negate())
                .negate(),
        ];
        for p in &preds {
            let wt = p.when_true(&t).unwrap();
            let wf = p.when_false(&t).unwrap();
            for s in 0..=35i64 {
                let s = Chronon::new(s);
                match p.eval_at(&t, s).unwrap() {
                    Some(true) => assert!(wt.contains(s), "{p} at {s}"),
                    Some(false) => assert!(wf.contains(s), "{p} at {s}"),
                    None => {
                        assert!(!wt.contains(s) && !wf.contains(s), "{p} at {s}")
                    }
                }
            }
        }
    }

    #[test]
    fn typecheck_catches_unknown_and_incomparable() {
        let s = scheme();
        assert!(Predicate::eq_value("SALARY", 1i64).typecheck(&s).is_ok());
        assert!(Predicate::eq_value("NOPE", 1i64).typecheck(&s).is_err());
        assert!(Predicate::eq_value("SALARY", "text").typecheck(&s).is_err());
        assert!(Predicate::cmp(
            Operand::attr("NAME"),
            Comparator::Eq,
            Operand::attr("SALARY")
        )
        .typecheck(&s)
        .is_err());
    }

    #[test]
    fn const_const_cases() {
        let t = john();
        let p = Predicate::cmp(Operand::val(1i64), Comparator::Lt, Operand::val(2i64));
        assert_eq!(p.when_true(&t).unwrap(), t.lifespan().clone());
        let q = Predicate::cmp(Operand::val(2i64), Comparator::Lt, Operand::val(1i64));
        assert_eq!(q.when_true(&t).unwrap(), Lifespan::empty());
        assert_eq!(q.when_false(&t).unwrap(), t.lifespan().clone());
    }

    #[test]
    fn attributes_collected() {
        let p = Predicate::eq_value("A", 1i64).and(Predicate::cmp(
            Operand::attr("B"),
            Comparator::Lt,
            Operand::attr("C"),
        ));
        let names: Vec<String> = p
            .attributes()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn display_forms() {
        let p = Predicate::eq_value("SALARY", 30_000i64)
            .and(Predicate::eq_value("NAME", "John").negate());
        assert_eq!(p.to_string(), "(SALARY = 30000 and (not NAME = \"John\"))");
    }
}
