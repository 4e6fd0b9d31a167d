//! Fixture: a serve path that answers a query through the reference
//! evaluator, hiding the deprecation behind an allow. The call in the
//! test module must NOT be flagged, nor the look-alike names.

#[allow(deprecated)]
pub fn answer(q: &Query, src: &Source) -> Answer {
    crate::eval::evaluate(q, src)
}

pub fn window(l: &LifespanExpr, src: &Source) -> Lifespan {
    eval_lifespan(l, src)
}

pub fn look_alikes(c: &Cache) -> Answer {
    c.re_evaluate(eval_expr_cached(c))
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_oracle_is_fine_in_tests() {
        let _ = crate::eval::eval_expr(&e(), &src());
    }
}
