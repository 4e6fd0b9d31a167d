//! Enrollment: temporal referential integrity and the query language.
//!
//! The paper's §1 integrity example: "a student can only take a course at
//! time t if both the student and the course exist in the database at time
//! t." We build students/courses/enrollments, audit the temporal foreign
//! key, then query the database through the textual algebra — including a
//! TIME-JOIN on a time-valued attribute.
//!
//! ```sh
//! cargo run --example enrollment
//! ```

use hrdm::prelude::*;
use hrdm::query::{
    explain_optimized, optimize, parse_expr, run_query, run_query_on_snapshot, Query, QueryResult,
};
use hrdm::storage::{Database, PartitionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let era = Lifespan::interval(0, 100);

    // courses(CODE*) — DB taught on [0,30], re-offered on [60,90].
    let course_scheme = Scheme::builder()
        .key_attr("CODE", ValueKind::Str, era.clone())
        .build()?;
    let db_course = Tuple::builder(Lifespan::of(&[(0, 30), (60, 90)]))
        .constant("CODE", "DB")
        .finish(&course_scheme)?;
    let ai_course = Tuple::builder(Lifespan::interval(10, 50))
        .constant("CODE", "AI")
        .finish(&course_scheme)?;
    let courses = Relation::with_tuples(course_scheme, vec![db_course, ai_course])?;

    // enrollments(STUDENT*, COURSE, GRADED) — GRADED is *time-valued*: at
    // each time, the chronon the student's last grade was posted.
    let enr_scheme = Scheme::builder()
        .key_attr("STUDENT", ValueKind::Str, era.clone())
        .attr("COURSE", HistoricalDomain::string(), era.clone())
        .attr("GRADED", HistoricalDomain::time(), era.clone())
        .build()?;
    let ann = Tuple::builder(Lifespan::interval(5, 45))
        .constant("STUDENT", "Ann")
        .value(
            "COURSE",
            TemporalValue::of(&[(5, 25, Value::str("DB")), (26, 45, Value::str("AI"))]),
        )
        .value(
            "GRADED",
            TemporalValue::of(&[(5, 25, Value::time(20)), (26, 45, Value::time(40))]),
        )
        .finish(&enr_scheme)?;
    let bob = Tuple::builder(Lifespan::interval(20, 40))
        .constant("STUDENT", "Bob")
        .value(
            "COURSE",
            TemporalValue::of(&[(20, 40, Value::str("DB"))]), // DB ends at 30!
        )
        .value("GRADED", TemporalValue::of(&[(20, 40, Value::time(35))]))
        .finish(&enr_scheme)?;
    let enrollments = Relation::with_tuples(enr_scheme, vec![ann, bob])?;

    // ---- Temporal referential integrity ----------------------------------
    let fk = TemporalForeignKey::new(["COURSE"]);
    let violations = check_referential(&enrollments, &fk, &courses)?;
    println!("referential audit found {} violation(s):", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    // Bob is enrolled in DB over [31,40] although DB isn't taught then.

    // ---- The query language ----------------------------------------------
    // The same parse → optimize → plan → evaluate pipeline the `hrdmq`
    // shell and the `hrdmd` server run, against a detached database.
    let source = Database::with_relations(
        PartitionPolicy::Unpartitioned,
        [("enrollments", enrollments), ("courses", courses)],
    )?;

    // When was anyone taking the DB course?
    if let QueryResult::Lifespan(l) = run_query_on_snapshot(
        "WHEN (SELECT-WHEN (COURSE = \"DB\") (enrollments))",
        &source,
    )? {
        println!("someone took DB during {l}");
    }

    // TIME-JOIN: pair each enrollment with the courses alive at its
    // grading chronons.
    if let QueryResult::Relation(r) =
        run_query_on_snapshot("enrollments TIMEJOIN@GRADED courses", &source)?
    {
        println!("TIMEJOIN@GRADED produced {} tuples:", r.len());
        for t in r.iter() {
            println!("  lifespan {}", t.lifespan());
        }
    }

    // ---- The optimizer at work -------------------------------------------
    let e = parse_expr(
        "TIMESLICE [0..25] (SELECT-WHEN (COURSE = \"DB\") (PROJECT [STUDENT, COURSE] (enrollments)))",
    )?;
    let (optimized, trace) = optimize(&e);
    println!("{}", explain_optimized(&e, &optimized, &trace));

    // However the query is written, it runs optimized — and agrees:
    let a = run_query(&Query::Relation(e), &source)?;
    let b = run_query(&Query::Relation(optimized), &source)?;
    assert_eq!(a, b);
    if let QueryResult::Relation(r) = b {
        println!(
            "optimized plan returns the identical relation ({} tuples)",
            r.len()
        );
    }

    Ok(())
}
