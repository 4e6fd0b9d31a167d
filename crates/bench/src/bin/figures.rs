//! Regenerates every figure of the paper from live model objects.
//!
//! The paper has no empirical tables; its eleven figures are conceptual
//! diagrams of the model. Each section below *builds the situation the
//! figure depicts* using the real implementation and renders the figure
//! from the data structures — so the diagrams are derived, not drawn.
//!
//! ```sh
//! cargo run -p hrdm-bench --bin figures
//! ```

use hrdm_baseline::hrdm_to_cube;
use hrdm_core::prelude::*;
use hrdm_interp::{Interpolation, Represented};
use hrdm_storage::{Catalog, Database};

const ERA: i64 = 40;

fn era() -> Lifespan {
    Lifespan::interval(0, ERA)
}

fn bar(ls: &Lifespan, width: i64) -> String {
    (0..=width)
        .map(|t| {
            if ls.contains(Chronon::new(t)) {
                'X'
            } else {
                '.'
            }
        })
        .collect()
}

fn heading(n: u32, caption: &str) {
    println!();
    println!("======================================================================");
    println!("Figure {n}: {caption}");
    println!("======================================================================");
}

fn emp_scheme() -> Scheme {
    Scheme::builder()
        .key_attr("NAME", ValueKind::Str, era())
        .attr("SALARY", HistoricalDomain::int(), era())
        .attr("DEPT", HistoricalDomain::string(), era())
        .build()
        .expect("well-formed scheme")
}

fn emp(name: &str, spans: &[(i64, i64)], salary: i64) -> Tuple {
    let life = Lifespan::of(spans);
    Tuple::builder(life.clone())
        .constant("NAME", name)
        .value("SALARY", TemporalValue::constant(&life, Value::Int(salary)))
        .value("DEPT", TemporalValue::constant(&life, Value::str("Toys")))
        .finish(&emp_scheme())
        .expect("valid tuple")
}

fn main() {
    figure_1();
    figure_2();
    figure_3();
    figure_4();
    figure_5();
    figure_6();
    figure_7();
    figure_8();
    figure_9();
    figure_10();
    figure_11();
    figure_12();
}

/// Fig. 1: the relational database instance hierarchy.
fn figure_1() {
    heading(
        1,
        "Relational database instance (database / relations / tuples)",
    );
    let mut db = Database::new();
    db.create_relation("emp", emp_scheme()).unwrap();
    db.insert("emp", emp("John", &[(0, 20)], 25_000)).unwrap();
    db.insert("emp", emp("Mary", &[(5, 30)], 30_000)).unwrap();
    let dept_scheme = Scheme::builder()
        .key_attr("DNAME", ValueKind::Str, era())
        .build()
        .unwrap();
    db.create_relation("dept", dept_scheme.clone()).unwrap();
    db.insert(
        "dept",
        Tuple::builder(era())
            .constant("DNAME", "Toys")
            .finish(&dept_scheme)
            .unwrap(),
    )
    .unwrap();

    println!("database");
    for name in db.relation_names() {
        let r = db.relation(name).unwrap();
        println!("├── relation `{name}`");
        for (i, t) in r.iter().enumerate() {
            println!("│     tuple{}: l = {}", i + 1, t.lifespan());
        }
    }
}

/// Fig. 2: one lifespan associated with the entire database.
fn figure_2() {
    heading(2, "One lifespan associated with entire database");
    let shared = Lifespan::interval(5, 30);
    println!("all relations share lifespan {shared}:");
    for rel in ["rel1", "rel2", "rel3"] {
        println!("  {rel:>5} |{}|", bar(&shared, ERA));
    }
    println!("        (time 0..{ERA}; every relation and tuple is temporally homogeneous)");
}

/// Fig. 3: different lifespans per relation (Gadia-style homogeneity).
fn figure_3() {
    heading(3, "Different lifespans associated with each relation");
    let spans = [
        ("rel1", Lifespan::interval(0, 15)),
        ("rel2", Lifespan::interval(10, 30)),
        ("rel3", Lifespan::of(&[(5, 12), (25, 40)])),
    ];
    for (name, ls) in &spans {
        println!("  {name:>5} |{}|  LS = {ls}", bar(ls, ERA));
    }
    println!("        (tuples inside one relation all share its lifespan)");
}

/// Fig. 4: lifespans per tuple within one relation.
fn figure_4() {
    heading(4, "Lifespans associated with each tuple in a relation");
    let r = Relation::with_tuples(
        emp_scheme(),
        vec![
            emp("t1", &[(0, 10)], 1),
            emp("t2", &[(8, 25)], 2),
            emp("t3", &[(3, 6), (18, 33)], 3), // reincarnated
        ],
    )
    .unwrap();
    println!("          A1 A2 A3  (attributes)");
    for t in r.iter() {
        let name = t
            .at(&"NAME".into(), t.lifespan().first().unwrap())
            .unwrap()
            .to_string();
        println!(
            "  {name:>5}  |{}|  t.l = {}",
            bar(t.lifespan(), ERA),
            t.lifespan()
        );
    }
    println!("  LS(r) = {}", r.lifespan());
}

/// Fig. 5: the relational database schema hierarchy.
fn figure_5() {
    heading(
        5,
        "Relational database schema (schema / relation schemas / attributes)",
    );
    let mut cat = Catalog::new();
    cat.create_relation("emp", emp_scheme()).unwrap();
    cat.create_relation(
        "dept",
        Scheme::builder()
            .key_attr("DNAME", ValueKind::Str, era())
            .attr("BUDGET", HistoricalDomain::int(), era())
            .build()
            .unwrap(),
    )
    .unwrap();
    println!("DATABASE SCHEMA");
    for name in cat.relations() {
        println!("├── REL.SCHEMA `{name}`");
        for def in cat.scheme(name).unwrap().attrs() {
            println!("│     ATTR {} : {}", def.name(), def.domain());
        }
    }
}

/// Fig. 6: the lifespan of attribute DAILY-TRADING-VOLUME.
fn figure_6() {
    heading(
        6,
        "Lifespan of attribute DAILY-TRADING-VOLUME (schema evolution)",
    );
    let mut cat = Catalog::new();
    cat.create_relation(
        "stocks",
        Scheme::builder()
            .key_attr("TICKER", ValueKind::Str, era())
            .build()
            .unwrap(),
    )
    .unwrap();
    let vol = Attribute::new("DAILY_TRADING_VOLUME");
    // Recorded over [t1,t2] = [5,15]; dropped (too expensive); re-added at
    // t3 = 28 through NOW (= 40).
    cat.add_attribute(
        "stocks",
        vol.clone(),
        HistoricalDomain::int(),
        Chronon::new(5),
        Chronon::new(ERA),
    )
    .unwrap();
    cat.drop_attribute("stocks", &vol, Chronon::new(16))
        .unwrap();
    cat.re_add_attribute("stocks", &vol, Chronon::new(28), Chronon::new(ERA))
        .unwrap();
    let als = cat.scheme("stocks").unwrap().als(&vol).unwrap().clone();
    println!("  ALS = {als}");
    println!("  |{}|", bar(&als, ERA));
    println!("   t1=5      t2=15       t3=28        NOW={ERA}");
    println!("  evolution log:");
    for ev in cat.log() {
        println!("    {ev}");
    }
}

/// Fig. 7: tuple lifespan × attribute lifespan interaction.
fn figure_7() {
    heading(
        7,
        "Tuple lifespan and attribute lifespan interaction (vls = X ∩ Y)",
    );
    let x = Lifespan::interval(20, 35); // ALS(An) = X
    let scheme = Scheme::builder()
        .key_attr("NAME", ValueKind::Str, era())
        .attr("An", HistoricalDomain::int(), x.clone())
        .build()
        .unwrap();
    let y = Lifespan::interval(10, 28); // tuple_m lifespan = Y
    let tuple_m = Tuple::builder(y.clone())
        .constant("NAME", "m")
        .value(
            "An",
            TemporalValue::constant(&y.intersect(&x), Value::Int(7)),
        )
        .finish(&scheme)
        .unwrap();
    let vls = tuple_m.vls(&scheme, &"An".into()).unwrap();
    println!("  ALS(An) = X  |{}|  {x}", bar(&x, ERA));
    println!("  t.l     = Y  |{}|  {y}", bar(&y, ERA));
    println!("  vls     = X∩Y|{}|  {vls}", bar(&vls, ERA));
    println!(
        "  value defined at 25? {}; at 15 (in Y only)? {}; at 32 (in X only)? {}",
        tuple_m.at(&"An".into(), Chronon::new(25)).is_some(),
        tuple_m.at(&"An".into(), Chronon::new(15)).is_some(),
        tuple_m.at(&"An".into(), Chronon::new(32)).is_some(),
    );
}

/// Fig. 8: lifespans associated with tuples *and* attributes —
/// heterogeneous tuples.
fn figure_8() {
    heading(8, "Lifespans associated with both tuples and attributes");
    let als_salary = Lifespan::of(&[(0, 18), (30, 40)]); // attribute dropped then re-added
    let scheme = Scheme::builder()
        .key_attr("NAME", ValueKind::Str, era())
        .attr("SALARY", HistoricalDomain::int(), als_salary.clone())
        .attr("DEPT", HistoricalDomain::string(), era())
        .build()
        .unwrap();
    let mk = |name: &str, spans: &[(i64, i64)]| {
        let life = Lifespan::of(spans);
        let s_vls = life.intersect(&als_salary);
        Tuple::builder(life.clone())
            .constant("NAME", name)
            .value("SALARY", TemporalValue::constant(&s_vls, Value::Int(9)))
            .value("DEPT", TemporalValue::constant(&life, Value::str("Toys")))
            .finish(&scheme)
            .unwrap()
    };
    let t = mk("t", &[(2, 24)]);
    let t2 = mk("u", &[(12, 38)]);
    println!("  ALS(SALARY)    |{}|", bar(&als_salary, ERA));
    for tup in [&t, &t2] {
        let name = tup
            .at(&"NAME".into(), tup.lifespan().first().unwrap())
            .unwrap();
        println!("  tuple {name:<3} t.l  |{}|", bar(tup.lifespan(), ERA));
        let sal = tup.value(&"SALARY".into()).unwrap().domain();
        println!(
            "        SALARY   |{}|  (heterogeneous: value only on t.l ∩ ALS)",
            bar(&sal, ERA)
        );
    }
}

/// Fig. 9: the three levels of HRDM.
fn figure_9() {
    heading(9, "Representation / model / physical levels");
    // Representation level: 3 samples + step interpolation.
    let repr = Represented::of(
        &[
            (0, Value::Int(100)),
            (12, Value::Int(140)),
            (30, Value::Int(90)),
        ],
        Interpolation::Step,
    );
    println!("  REPRESENTATION  {repr} (sparse)");
    // Model level: the total function over vls.
    let model = repr.materialize(&era()).unwrap();
    println!(
        "  MODEL           total function over {} chronons in {} segments: {}",
        model.domain().cardinality(),
        model.segment_count(),
        model
    );
    // Physical level: encoded bytes on a slotted page.
    let mut enc = hrdm_storage::Encoder::new();
    enc.put_temporal_value(&model);
    let bytes = enc.finish();
    let mut page = hrdm_storage::Page::new();
    let slot = page.insert(&bytes).unwrap();
    page.seal();
    println!(
        "  PHYSICAL        {} bytes in slot {slot} of an {}-byte page (checksum ok: {})",
        bytes.len(),
        hrdm_storage::PAGE_SIZE,
        page.verify()
    );
}

/// Fig. 10: the three dimensions of the historical data model.
fn figure_10() {
    heading(
        10,
        "Three dimensions: attributes × tuples × TIME (the cube)",
    );
    let r = Relation::with_tuples(
        emp_scheme(),
        vec![
            emp("John", &[(0, 3)], 25_000),
            emp("Mary", &[(2, 5)], 30_000),
        ],
    )
    .unwrap();
    let cube = hrdm_to_cube(&r, None).unwrap();
    println!("  one 2-D slice (attributes × tuples) per time point:");
    for t in 0..=5i64 {
        let slice = cube.timeslice(Chronon::new(t));
        let rows: Vec<String> = slice
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.as_ref().map(|v| v.to_string()).unwrap_or("⊥".into()))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        println!("   t={t}: [{}]", rows.join(" | "));
    }
    println!(
        "  cube storage: {} cells for {} model-level segments — the paper's argument in one line",
        cube.cells(),
        r.segment_cells()
    );
}

/// Fig. 11: r1 ∪ r2 (counter-intuitive) vs r1 + r2 (object merge).
fn figure_11() {
    heading(11, "Union vs object-based union (r1 ∪ r2 vs r1 + r2)");
    let scheme = emp_scheme();
    let r1 = Relation::with_tuples(scheme.clone(), vec![emp("a", &[(0, 9)], 1)]).unwrap();
    let r2 = Relation::with_tuples(scheme, vec![emp("a", &[(15, 24)], 2)]).unwrap();

    let plain = union(&r1, &r2).unwrap();
    println!("  r1: object `a` on {}", r1.tuples()[0].lifespan());
    println!("  r2: object `a` on {}", r2.tuples()[0].lifespan());
    println!("  r1 ∪ r2  — {} tuples (same object twice):", plain.len());
    for t in plain.iter() {
        println!("     |{}|", bar(t.lifespan(), ERA));
    }
    println!(
        "     key constraint audit: {}",
        plain
            .check_key_constraint()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "ok".into())
    );

    let merged = union_o(&r1, &r2).unwrap();
    println!("  r1 + r2  — {} tuple (merged object):", merged.len());
    for t in merged.iter() {
        println!("     |{}|", bar(t.lifespan(), ERA));
    }
    println!(
        "     key constraint audit: {}",
        merged
            .check_key_constraint()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "ok".into())
    );
}

/// Beyond the paper: the access methods — the key index and the
/// chronon-range partition map — and the planner's access-path selection:
/// Fig. 9's "file structures and access methods" box made concrete.
fn figure_12() {
    heading(12, "Access paths: lifespan/key IndexScan vs SeqScan");
    let mut db = Database::new();
    db.create_relation("emp", emp_scheme()).unwrap();
    db.insert("emp", emp("John", &[(0, 20)], 25_000)).unwrap();
    db.insert("emp", emp("Mary", &[(5, 30)], 30_000)).unwrap();
    db.insert("emp", emp("Igor", &[(25, 40)], 27_000)).unwrap();

    let parts = db.partitions("emp").unwrap();
    println!(
        "  emp: {} tuples in {} partition(s) ({}), {} distinct keys",
        parts.tuple_count(),
        parts.partition_count(),
        parts.policy(),
        db.key_index("emp").map_or(0, |k| k.distinct_keys()),
    );
    for (caption, query) in [
        ("an indexable TIME-SLICE", "TIMESLICE [0..10] (emp)"),
        (
            "a key-equality SELECT-WHEN",
            "SELECT-WHEN (NAME = \"Mary\") (emp)",
        ),
        (
            "a non-key SELECT-WHEN (no index applies)",
            "SELECT-WHEN (SALARY = 25000) (emp)",
        ),
    ] {
        let e = hrdm_query::parse_expr(query).unwrap();
        let (optimized, _) = hrdm_query::optimize(&e);
        let plan = hrdm_query::plan(&optimized, &db);
        println!("  {caption}: {query}");
        let opts = hrdm_query::ExecOptions::default();
        for line in hrdm_query::explain_stream_plan(&plan, &db, &opts).lines() {
            println!("    {line}");
        }
    }
}
