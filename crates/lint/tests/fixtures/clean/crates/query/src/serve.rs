//! Fixture: the serve path runs the planned executor; the reference
//! evaluator appears only in the test module (as the oracle) and behind
//! the one waived re-export.

// lint: oracle-only-ok(fixture: the door through which integration tests reach the oracle)
pub use eval::evaluate;

pub fn answer(q: &Query, src: &Source) -> Answer {
    run(build(&plan_query(q, src), src))
}

#[cfg(test)]
mod tests {
    #[test]
    fn planned_matches_the_oracle() {
        assert_eq!(super::answer(&q(), &src()), crate::eval::evaluate(&q(), &src()));
    }
}
