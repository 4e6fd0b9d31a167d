//! The HRDM benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run --workload <name> --seed <n> --seconds <s> --trace <0|1>   one contract run
//! benchmark/run [--seed N] [--trace] [--smoke] [--repeat K]                 the whole set
//! benchmark/run --dump-inputs [--seed N] [--smoke]                          input hashes
//! ```

mod contract;
mod data;
mod json;
mod layers;
mod ops;
mod replay;
mod rng;
mod spans;
mod stats;
mod wire;
mod workloads;

use contract::{Better, END_TO_END, WORKLOADS};
use data::{SliceCounter, TupleSpec};
use ops::PointMix;
use rng::Fnv;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, Outcome, Scale, PAGED_HOT_FROM};

const USAGE: &str = "\
usage: benchmark/run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                     [--smoke] [--repeat K] [--dump-inputs]
workloads: point_serve analytic_stream ingest_mixed paged_window";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    dump_inputs: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        dump_inputs: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--repeat" => args.repeat = value("a count")?.parse().map_err(|_| "bad --repeat")?,
            "--smoke" => args.smoke = true,
            "--dump-inputs" => args.dump_inputs = true,
            // `--trace` alone is the full set's flag; the contract passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

fn env_path(name: &str) -> Result<PathBuf, String> {
    std::env::var_os(name).map(PathBuf::from).ok_or(format!(
        "{name} is not set: start the benchmark through benchmark/run"
    ))
}

/// Prints one run's numbers: every metric by name with unit, sample
/// count, direction and bound, then the workload's own detail.
fn print_outcome(workload: &str, traced: bool, outcome: &Outcome) {
    let kind = if traced {
        "per-layer (traced run)"
    } else {
        "end-to-end (tracing off)"
    };
    println!("== {workload}: {kind}");
    for note in &outcome.notes {
        println!("   {note}");
    }
    for m in &outcome.metrics {
        match contract::end_to_end(&m.name) {
            Some(def) => println!(
                "   {:<28} {:>16.4} {:<7} n={:<8} {} is better, bound {:.0} %",
                m.name,
                m.value,
                m.unit,
                m.samples,
                def.better.word(),
                def.bound * 100.0
            ),
            None => println!(
                "   {:<36} {:>16.4} {:<7} n={}",
                m.name, m.value, m.unit, m.samples
            ),
        }
    }
    for m in &outcome.detail {
        println!(
            "   . {:<34} {:>16.4} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "   ops_attempted {}  ops_failed {}  lost_acknowledged_writes {}{}",
        outcome.attempted,
        outcome.failed,
        outcome.lost_acks,
        if outcome.invalid {
            "  INVALID: the load generator fell behind"
        } else {
            ""
        }
    );
}

fn contract_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed + outcome.lost_acks,
        metrics.join(", ")
    )
}

fn run_one(ctx: &Ctx, workload: &str, traced: bool) -> io::Result<Outcome> {
    let outcome = if traced {
        layers::traced_run(ctx, workload)?
    } else {
        match workload {
            "point_serve" => workloads::point_serve(ctx)?,
            "analytic_stream" => workloads::analytic_stream(ctx)?,
            "ingest_mixed" => workloads::ingest_mixed(ctx)?,
            _ => workloads::paged_window(ctx)?,
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(io::Error::other(format!(
            "metric `{}` is not finite",
            bad.name
        )));
    }
    // Data directories are scratch; only trace.jsonl outlives a run.
    for entry in std::fs::read_dir(&ctx.out)? {
        let path = entry?.path();
        if path.is_dir() {
            std::fs::remove_dir_all(path)?;
        }
    }
    Ok(outcome)
}

/// FNV hashes of each workload's data set and of a fixed-length prefix of
/// its op stream, for the determinism check.
fn dump_inputs(ctx: &Ctx) {
    let hash_ops = |ops: &mut dyn Iterator<Item = ops::ReadOp>| {
        let mut h = Fnv::default();
        for op in ops {
            op.hash_into(&mut h);
        }
        h.0
    };
    let served = ctx.served_data();
    let specs: Vec<TupleSpec> = served.specs().collect();
    let counter = SliceCounter::build(specs.iter().cloned());
    println!("seed {}", ctx.seed);
    println!("data served            {:016x}", served.hash());
    let mut mix = PointMix::new(served, &counter, 0);
    println!(
        "ops  point_serve       {:016x}",
        hash_ops(&mut (0..10_000).map(|_| mix.next_op()))
    );
    println!(
        "ops  analytic_stream   {:016x}",
        hash_ops(
            &mut ops::analytic_ops(served, &specs, &counter, ctx.scale.analytic_variants)
                .into_iter()
        )
    );
    let ingest = ctx.ingest_data(10_000);
    println!("data ingest_mixed      {:016x}", ingest.hash());
    let ingest_counter = SliceCounter::build(ingest.specs());
    let mut reads = PointMix::new(ingest, &ingest_counter, 20);
    println!(
        "ops  ingest_mixed      {:016x}",
        hash_ops(&mut (0..10_000).map(|_| reads.next_op()))
    );
    let paged = ctx.paged_data();
    println!("data paged_window      {:016x}", paged.hash());
    let paged_counter = SliceCounter::build(paged.specs());
    let mut windows = PointMix::new(paged, &paged_counter, 0).with_hot_from(PAGED_HOT_FROM);
    println!(
        "ops  paged_window      {:016x}",
        hash_ops(&mut (0..10_000).map(|_| windows.slice()))
    );
}

/// Relative amount by which `b` is worse than `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One contract run of `workload` in a process of its own, as the driver
/// makes it: a resident-set peak is a whole process's, and `paged_window`
/// reports this one's. Passes the run's report through and returns whether
/// it was correct and its metrics.
fn run_in_child(
    ctx: &Ctx,
    smoke: bool,
    workload: &str,
    traced: bool,
) -> io::Result<(bool, HashMap<String, f64>)> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| io::Error::other(format!("`{workload}` printed no result")))?;
    // The first line is the child's banner; this process printed its own.
    println!("{}", report.split_once('\n').map_or("", |(_, rest)| rest));
    let doc = json::Json::parse(result).map_err(io::Error::other)?;
    let correct = doc.get("correct") == Some(&json::Json::Bool(true));
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| io::Error::other("result line without `metrics`"))?;
    let values = metrics
        .keys()
        .into_iter()
        .filter_map(|name| {
            let value = metrics.get(name)?.get("value")?.as_f64()?;
            Some((name.to_string(), value))
        })
        .collect();
    Ok((correct && output.status.success(), values))
}

/// The whole set: every workload with tracing off, then (with `--trace`)
/// traced, each run in a process of its own. `--repeat K` runs K sets on the same build, set `i` with seed
/// `seed + i` as the contract's driver does, and compares each end-to-end
/// metric of each workload with set 1 beside its bound; from four sets on
/// it also prints the quartile spread the driver computes.
fn run_set(ctx: &Ctx, args: &Args) -> io::Result<bool> {
    let mut ok = true;
    let mut sets: Vec<Vec<HashMap<String, f64>>> = Vec::new();
    for round in 0..args.repeat {
        let ctx = Ctx {
            seed: ctx.seed + round as u64,
            ..ctx.clone()
        };
        if args.repeat > 1 {
            println!(
                "#### set {} of {} (seed {})",
                round + 1,
                args.repeat,
                ctx.seed
            );
        }
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let (correct, metrics) = run_in_child(&ctx, args.smoke, workload, false)?;
            ok &= correct;
            set.push(metrics);
        }
        sets.push(set);
    }
    if args.trace {
        let _ = std::fs::remove_file(ctx.out.join("trace.jsonl"));
        for workload in WORKLOADS {
            ok &= run_in_child(ctx, args.smoke, workload, true)?.0;
        }
        println!("spans written to {}", ctx.out.join("trace.jsonl").display());
    }
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for def in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set[w].get(def.name).copied())
                .collect();
            for (round, &b) in values.iter().enumerate().skip(1) {
                let worse = worse_by(def.better, values[0], b);
                ok &= worse <= def.bound;
                println!(
                    "   {workload:<16} {:<26} set {} vs set 1: {:>+7.2} % worse, bound {:>2.0} %: {}",
                    def.name,
                    round + 1,
                    worse * 100.0,
                    def.bound * 100.0,
                    if worse > def.bound { "EXCEEDS" } else { "within" }
                );
            }
            if values.len() >= 4 {
                println!(
                    "   {workload:<16} {:<26} quartile spread over {} sets: {:.2} % of the median (bound {:.0} %)",
                    def.name,
                    values.len(),
                    stats::quartile_spread(&values) * 100.0,
                    def.bound * 100.0
                );
            }
        }
    }
    Ok(ok)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("__build") {
        workloads::build_child(&argv[1..]).map_err(|e| e.to_string())?;
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    contract::check_declarations(&env_path("HRDM_BENCH_ROOT")?)?;
    let out = env_path("HRDM_BENCH_OUT")?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        out,
        hrdmd: env_path("HRDM_BENCH_HRDMD")?,
        scale: if args.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 20.0 }),
    };
    if args.dump_inputs {
        dump_inputs(&ctx);
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "hrdm-benchmark: seed {}, {} s per workload, {} scale, {} client connections, {} cores",
        ctx.seed,
        ctx.seconds,
        if args.smoke { "smoke" } else { "full" },
        workloads::CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match &args.workload {
        Some(workload) => {
            let outcome = run_one(&ctx, workload, args.trace).map_err(|e| e.to_string())?;
            print_outcome(workload, args.trace, &outcome);
            println!("{}", contract_json(&outcome));
            // A lost acknowledged write is never a passing run.
            Ok(if outcome.lost_acks == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        None => {
            let ok = run_set(&ctx, &args).map_err(|e| e.to_string())?;
            println!("{}", if ok { "PASS" } else { "FAIL" });
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hrdm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "paged_window",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("paged_window"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(10.0), true));
        assert!(
            !args(&["--workload", "point_serve", "--trace", "0"])
                .unwrap()
                .trace
        );
        assert!(args(&["--trace", "--smoke"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            metrics: vec![workloads::Metric::new("setup_s", 0.8127, "s", 3)],
            ..Outcome::default()
        };
        let line = contract_json(&outcome);
        let doc = json::Json::parse(&line).unwrap();
        assert_eq!(
            doc.keys(),
            vec!["attempted", "correct", "failed", "metrics"]
        );
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
