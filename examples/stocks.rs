//! Stocks: schema evolution via attribute lifespans (paper Fig. 6) and the
//! representation level (paper Fig. 9).
//!
//! DAILY-TRADING-VOLUME is recorded over `[0, 199]`, dropped ("too expensive
//! to collect"), and re-added from 500 on when a cheap source appears — all
//! expressed as edits to one attribute lifespan, with history retained.
//! Prices are stored sparsely at the representation level and completed by
//! interpolation.
//!
//! ```sh
//! cargo run --example stocks
//! ```

use hrdm::prelude::*;
use hrdm::storage::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let era = Lifespan::interval(0, 1000);
    let scheme = Scheme::builder()
        .key_attr("TICKER", ValueKind::Str, era.clone())
        .attr("PRICE", HistoricalDomain::int(), era.clone())
        .build()?;

    let mut db = Database::new();
    db.create_relation("stocks", scheme)?;

    // ---- Fig. 6: evolve the schema ---------------------------------------
    let vol = Attribute::new("DAILY_TRADING_VOLUME");
    db.add_attribute(
        "stocks",
        vol.clone(),
        HistoricalDomain::int(),
        Chronon::new(0),
        Chronon::new(1000),
    )?;
    db.drop_attribute("stocks", &vol, Chronon::new(200))?;
    db.re_add_attribute("stocks", &vol, Chronon::new(500), Chronon::new(1000))?;

    let als = db.catalog().scheme("stocks").unwrap().als(&vol)?.clone();
    println!("ALS(DAILY_TRADING_VOLUME) after Fig. 6 evolution: {als}");
    println!("evolution log:");
    for ev in db.catalog().log() {
        println!("  {ev}");
    }

    // ---- The representation level (Fig. 9) -------------------------------
    // Closing prices sampled sparsely; step interpolation completes them.
    let samples = Represented::of(
        &[
            (0, Value::Int(100)),
            (50, Value::Int(110)),
            (300, Value::Int(90)),
            (700, Value::Int(130)),
        ],
        Interpolation::Step,
    );
    let price = samples.materialize(&Lifespan::interval(0, 1000))?;
    println!(
        "4 stored samples materialize to a total function over {} chronons ({} segments)",
        price.domain().cardinality(),
        price.segment_count()
    );

    // Insert the ACME tuple with that price history and a volume series
    // confined (by validation!) to the evolved attribute lifespan.
    let evolved = db.catalog().scheme("stocks").unwrap().clone();
    let acme_life = Lifespan::interval(0, 1000);
    let volume = TemporalValue::of(&[
        (0, 199, Value::Int(1_000_000)),    // while recorded
        (500, 1000, Value::Int(2_500_000)), // after re-adding
    ]);
    let acme = Tuple::builder(acme_life.clone())
        .constant("TICKER", "ACME")
        .value("PRICE", price)
        .value("DAILY_TRADING_VOLUME", volume)
        .finish(&evolved)?;
    db.put_relation("stocks", Relation::with_tuples(evolved, vec![acme])?)?;

    // Values inside the dropped window are simply undefined:
    let stocks = db.relation("stocks").unwrap();
    let acme = stocks.find_by_key(&[Value::str("ACME")]).unwrap();
    println!(
        "volume at t=100: {:?}, at t=300 (dropped era): {:?}, at t=600: {:?}",
        acme.at(&vol, Chronon::new(100)),
        acme.at(&vol, Chronon::new(300)),
        acme.at(&vol, Chronon::new(600)),
    );

    // ---- Persistence: the physical level ---------------------------------
    let dir = std::env::temp_dir().join(format!("hrdm-stocks-{}", std::process::id()));
    db.save(&dir)?;
    let reloaded = Database::load(&dir)?;
    assert_eq!(
        reloaded.relation("stocks").unwrap(),
        db.relation("stocks").unwrap()
    );
    println!("database round-tripped through {dir:?}");
    std::fs::remove_dir_all(&dir).ok();

    // Linear interpolation view of the same samples — a different
    // interpolation function, same stored data (paper §3's point: the model
    // level doesn't care how the value "is obtained").
    let linear = Represented::of(
        &[(0, Value::Int(100)), (10, Value::Int(120))],
        Interpolation::Linear,
    )
    .materialize(&Lifespan::interval(0, 10))?;
    println!(
        "linear price between samples: t=5 -> {:?}",
        linear.at(Chronon::new(5))
    );

    Ok(())
}
