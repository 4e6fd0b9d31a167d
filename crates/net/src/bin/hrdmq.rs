//! `hrdmq` — a small interactive shell for HRDM databases, local or remote.
//!
//! ```sh
//! cargo run -p hrdm-net --bin hrdmq -- /path/to/db-dir
//! ```
//!
//! Reads one query per line (the textual algebra of `hrdm-query`), prints
//! relations or lifespans. A directory argument **attaches** durably: every
//! write is WAL-logged before it is acknowledged, and reopening the
//! directory recovers it. The shell runs on the concurrent engine: each
//! query evaluates against an immutable [`hrdm_storage::DbSnapshot`], and
//! writes go through the group-commit writer. Writes use
//! `name := <query>`, which materializes a query result as a relation.
//!
//! With `\connect <addr>` the same shell becomes a **network client** of an
//! `hrdmd` server: queries, materializations, `\explain`, `\checkpoint`,
//! and `\stats` all travel the wire protocol instead — same pipeline,
//! same plans (the server answers from the identical snapshot machinery).
//!
//! Meta-commands:
//!
//! * `\d` — list relations (schemes locally; names + counts remotely),
//! * `\log` — show the schema-evolution log (local only),
//! * `\explain <query>` — show the optimized plan and rewrite trace,
//! * `EXPLAIN ANALYZE <query>` — run the query and show the plan
//!   annotated with measured per-operator times and row counts,
//! * `\metrics` — dump the metrics registry in Prometheus text
//!   exposition format (the server's, with its slow-query log, when
//!   connected; the process-wide engine registry locally),
//! * `\events [n]` — dump the flight recorder (the server's over the
//!   `Events` frame when connected; the in-process recorder locally),
//!   newest `n` events in sequence order (default 32, 0 = all),
//! * `\top` — one-shot live view: rolling 60s QPS and p50/p99, active
//!   sessions, commit batch sizes, pool hit ratio, and the top
//!   relations by rows streamed (server-side; a reduced local view
//!   shows what the in-process engine recorded),
//! * `\open <dir>` — attach to a local database directory (disconnects),
//! * `\connect <addr>` — talk to an `hrdmd` server (e.g. `127.0.0.1:7171`),
//! * `\disconnect` — back to the local database,
//! * `\checkpoint` — fold the WAL into fresh heap files (atomic commit),
//! * `\stats` — group-commit counters locally; the server's full counter
//!   set (connections, frames, planning/execution time) when connected,
//! * `\q` — quit.

use hrdm_net::{Client, NetError};
use hrdm_query::{
    explain_analyze_query_text, explain_query_text, run_query_on_snapshot, strip_explain_analyze,
    PipelineError, QueryResult,
};
use hrdm_storage::ConcurrentDatabase;
use std::io::{self, BufRead, Write};

/// Where the shell sends its queries: the in-process engine, or an
/// `hrdmd` server over TCP. The local database is kept while connected,
/// so `\disconnect` returns to it untouched.
struct Shell {
    local: ConcurrentDatabase,
    remote: Option<(String, Client)>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let db = match args.get(1) {
        Some(dir) => match ConcurrentDatabase::open(std::path::Path::new(dir)) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("failed to open database at {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            eprintln!("usage: hrdmq <database-dir>   (no dir given: starting detached)");
            ConcurrentDatabase::new()
        }
    };
    let mut shell = Shell {
        local: db,
        remote: None,
    };

    {
        let snap = shell.local.snapshot();
        let names: Vec<&str> = snap.relation_names().collect();
        println!("hrdmq — {} relation(s): {}", names.len(), names.join(", "));
    }
    match shell
        .local
        .with_database(|d| d.attached_dir().map(|p| p.display().to_string()))
    {
        Some(dir) => println!("attached to {dir} (durable; \\checkpoint to compact)"),
        None => println!("detached (in-memory; \\open <dir> to attach durably)"),
    }
    println!(
        "type a query, `name := query` to materialize, \\d for schemas, \
         \\connect <addr> for a server, \\q to quit"
    );

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("hrdm> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\q" {
            break;
        }
        if !dispatch(&mut shell, line) {
            continue;
        }
    }
}

/// Handles one input line. The return value is unused today (every path
/// continues the loop) but keeps dispatch testable as a unit.
fn dispatch(shell: &mut Shell, line: &str) -> bool {
    if line == "\\d" {
        list_relations(shell);
        return true;
    }
    if line == "\\log" {
        match &shell.remote {
            Some(_) => println!("(\\log is local-only; \\disconnect first)"),
            None => {
                let snap = shell.local.snapshot();
                for ev in snap.catalog().log() {
                    println!("{ev}");
                }
            }
        }
        return true;
    }
    if line == "\\stats" {
        stats(shell);
        return true;
    }
    if line == "\\metrics" {
        metrics(shell);
        return true;
    }
    if line == "\\top" {
        top(shell);
        return true;
    }
    if line == "\\events" || line.starts_with("\\events ") {
        let limit = match line.strip_prefix("\\events").unwrap_or("").trim() {
            "" => 32,
            n => match n.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    println!("usage: \\events [n]   (0 = everything retained)");
                    return true;
                }
            },
        };
        events(shell, limit);
        return true;
    }
    if line == "\\checkpoint" {
        checkpoint(shell);
        return true;
    }
    if let Some(addr) = line.strip_prefix("\\connect ") {
        let addr = addr.trim();
        match Client::connect_as(addr, "hrdmq") {
            Ok(client) => {
                println!("connected to {addr} ({})", client.server_name());
                shell.remote = Some((addr.to_string(), client));
            }
            Err(e) => println!("connect error for {addr}: {e}"),
        }
        return true;
    }
    if line == "\\disconnect" {
        match shell.remote.take() {
            Some((addr, _)) => println!("disconnected from {addr}"),
            None => println!("(not connected)"),
        }
        return true;
    }
    if let Some(dir) = line.strip_prefix("\\open ") {
        let dir = dir.trim();
        match ConcurrentDatabase::open(std::path::Path::new(dir)) {
            Ok(opened) => {
                if let Some((addr, _)) = shell.remote.take() {
                    println!("disconnected from {addr}");
                }
                shell.local = opened;
                let n = shell.local.snapshot().relation_names().count();
                println!("attached to {dir} — {n} relation(s)");
            }
            // The error itself names the offending file where it can;
            // always lead with the directory the user asked for.
            Err(e) => println!("open error for {dir}: {e}"),
        }
        return true;
    }
    if let Some(rest) = line.strip_prefix("\\explain ") {
        explain(shell, rest);
        return true;
    }
    // `EXPLAIN ANALYZE <query>` runs the query and prints the plan
    // annotated with measured times; remotely the server strips the
    // prefix itself, so the full line travels as a Prepare.
    if strip_explain_analyze(line).is_some() {
        explain_analyze(shell, line);
        return true;
    }

    // `name := <query>`: materialize a query result as a relation,
    // through the durable group-commit write path (local or remote).
    if let Some((name, query_text)) = split_assignment(line) {
        materialize(shell, name, query_text);
        return true;
    }

    run_query(shell, line);
    true
}

/// Runs `f` against the connected client, transparently reconnecting
/// **once** when the connection has gone away — the server's idle
/// timeout closes sessions that sit quiet (an interactive user thinking
/// is exactly that), and the shell should survive it. `None` means "not
/// connected" (never connected, or the reconnect failed and the shell
/// fell back to disconnected — already reported to the user).
fn remote_call<T>(
    shell: &mut Shell,
    f: impl Fn(&mut Client) -> Result<T, NetError>,
) -> Option<Result<T, NetError>> {
    let (addr, mut client) = shell.remote.take()?;
    match f(&mut client) {
        Err(NetError::Io(_)) => match Client::connect_as(addr.as_str(), "hrdmq") {
            Ok(mut fresh) => {
                println!("(connection lost; reconnected to {addr})");
                let result = f(&mut fresh);
                shell.remote = Some((addr, fresh));
                Some(result)
            }
            Err(e) => {
                println!("connection to {addr} lost and reconnect failed ({e}); disconnected");
                None
            }
        },
        other => {
            shell.remote = Some((addr, client));
            Some(other)
        }
    }
}

fn list_relations(shell: &mut Shell) {
    if shell.remote.is_some() {
        match remote_call(shell, |c| c.stats()) {
            Some(Ok(stats)) => {
                for (name, count) in &stats.relations {
                    println!("{name}: {count} tuple(s)");
                }
            }
            Some(Err(e)) => println!("error: {e}"),
            None => {}
        }
        return;
    }
    let snap = shell.local.snapshot();
    for name in snap.relation_names() {
        let r = snap.relation(name).expect("listed relations exist");
        println!("{name}: {} — {} tuple(s)", r.scheme(), r.len());
    }
}

fn stats(shell: &mut Shell) {
    match &mut shell.remote {
        Some((addr, _)) => {
            let addr = addr.clone();
            match remote_call(shell, |c| c.stats()) {
                Some(Ok(stats)) => {
                    println!("server {addr}:");
                    println!("{stats}");
                }
                Some(Err(e)) => println!("error: {e}"),
                None => {}
            }
        }
        None => {
            let stats = shell.local.stats();
            let snap = shell.local.snapshot();
            println!(
                "group commit: {} batch(es), {} op(s), mean batch {:.2}, max batch {}, last batch {}",
                stats.batches,
                stats.ops,
                stats.mean_batch(),
                stats.max_batch,
                stats.last_batch
            );
            match snap.epoch() {
                Some(e) => println!("snapshot: version {}, epoch {e}", snap.version()),
                None => println!("snapshot: version {} (detached)", snap.version()),
            }
        }
    }
}

fn checkpoint(shell: &mut Shell) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.checkpoint()) {
            Some(Ok(())) => println!("checkpointed (server-side)"),
            Some(Err(e)) => println!("checkpoint error: {e}"),
            None => {}
        },
        None => match shell.local.checkpoint() {
            Ok(()) => println!(
                "checkpointed (epoch {})",
                shell
                    .local
                    .snapshot()
                    .epoch()
                    .expect("attached after checkpoint")
            ),
            Err(e) => println!("checkpoint error: {e}"),
        },
    }
}

fn metrics(shell: &mut Shell) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.metrics()) {
            Some(Ok(text)) => print!("{text}"),
            Some(Err(e)) => println!("error: {e}"),
            None => {}
        },
        // Locally there is no server instance: the process-wide
        // registry (WAL, checkpoint, group commit, query operators) is
        // the whole story.
        None => print!("{}", hrdm_obs::global().render_prometheus()),
    }
}

/// Renders a nanosecond figure the way an operator reads latencies.
fn fmt_ns(ns: u64) -> String {
    if ns == 0 {
        "-".to_string()
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn top(shell: &mut Shell) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.stats()) {
            Some(Ok(s)) => {
                println!(
                    "uptime {}s — rolling 60s: {:.3} qps, p50 {}, p99 {}",
                    s.uptime_secs,
                    s.qps_milli_60s as f64 / 1e3,
                    fmt_ns(s.p50_60s_ns),
                    fmt_ns(s.p99_60s_ns),
                );
                println!(
                    "sessions: {} active ({} accepted); commit batch: last {}, max {}",
                    s.connections_active,
                    s.connections_accepted,
                    s.commit_last_batch,
                    s.commit_max_batch,
                );
                match s.pool_hit_permille_60s {
                    u64::MAX => println!("pool: no traffic in the window"),
                    p => println!("pool: {:.1}% hit rate (60s)", p as f64 / 10.0),
                }
                if s.top_streamed.is_empty() {
                    println!("top relations: (none streamed yet)");
                } else {
                    println!("top relations by rows streamed:");
                    for (name, rows) in &s.top_streamed {
                        println!("  {name}: {rows}");
                    }
                }
            }
            Some(Err(e)) => println!("error: {e}"),
            None => {}
        },
        // No server: no request windows exist, but the in-process engine
        // still feeds the pool windows and the scan leaderboard.
        None => {
            match hrdm_obs::window::pool_windows().hit_ratio() {
                Some(r) => println!("pool: {:.1}% hit rate (60s)", r * 100.0),
                None => println!("pool: no traffic in the window"),
            }
            let top = hrdm_obs::window::top_relations().top(8);
            if top.is_empty() {
                println!("top relations: (none streamed yet)");
            } else {
                println!("top relations by rows streamed:");
                for (name, rows) in &top {
                    println!("  {name}: {rows}");
                }
            }
            println!("(connect to a server for QPS, latency, and session figures)");
        }
    }
}

fn events(shell: &mut Shell, limit: u64) {
    let rendered: Vec<String> = match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.events(limit)) {
            Some(Ok(events)) => events.iter().map(hrdm_net::WireEvent::render).collect(),
            Some(Err(e)) => {
                println!("error: {e}");
                return;
            }
            None => return,
        },
        None => hrdm_obs::recorder()
            .snapshot(limit.min(u64::from(u32::MAX)) as usize)
            .iter()
            .map(|e| hrdm_net::WireEvent::from_record(e).render())
            .collect(),
    };
    if rendered.is_empty() {
        println!("(flight recorder is empty)");
        return;
    }
    for line in rendered {
        println!("{line}");
    }
}

fn explain_analyze(shell: &mut Shell, line: &str) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.explain(line)) {
            Some(Ok(text)) => print!("{text}"),
            Some(Err(e)) => println!("{e}"),
            None => {}
        },
        None => {
            let query = strip_explain_analyze(line).expect("dispatch matched the prefix");
            match explain_analyze_query_text(query, &*shell.local.snapshot()) {
                Ok(text) => print!("{text}"),
                Err(PipelineError::Parse(e)) => println!("parse error: {e}"),
                Err(e) => println!("{e}"),
            }
        }
    }
}

fn explain(shell: &mut Shell, text: &str) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.explain(text)) {
            Some(Ok(plan)) => println!("{plan}"),
            Some(Err(e)) => println!("{e}"),
            None => {}
        },
        None => match explain_query_text(text, &*shell.local.snapshot()) {
            Ok(plan) => println!("{plan}"),
            Err(PipelineError::Parse(e)) => println!("parse error: {e}"),
            Err(e) => println!("{e}"),
        },
    }
}

fn materialize(shell: &mut Shell, name: &str, query_text: &str) {
    match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.materialize(name, query_text)) {
            Some(Ok(rows)) => println!("{name} := {rows} tuple(s)"),
            Some(Err(e)) => println!("{e}"),
            None => {}
        },
        None => match run_query_on_snapshot(query_text, &*shell.local.snapshot()) {
            Err(e) => println!("{e}"),
            Ok(QueryResult::Relation(r)) => {
                let tuples = r.len();
                // Create-or-replace as one atomic group-commit group —
                // the identical path the server's Materialize op takes.
                match shell.local.materialize(name, r) {
                    Ok(()) => println!("{name} := {tuples} tuple(s)"),
                    Err(e) => println!("error: {e}"),
                }
            }
            Ok(_) => println!("(only relation-sorted queries can be materialized)"),
        },
    }
}

fn run_query(shell: &mut Shell, line: &str) {
    // Relation-sorted queries go through the rewrite optimizer and the
    // index-aware access-path planner, evaluated against one immutable
    // snapshot — remotely, the server runs the identical pipeline.
    let result = match &shell.remote {
        Some(_) => match remote_call(shell, |c| c.query(line)) {
            Some(r) => r.map_err(|e| e.to_string()),
            None => return, // connection lost and reconnect failed; reported
        },
        None => run_query_on_snapshot(line, &*shell.local.snapshot()).map_err(|e| e.to_string()),
    };
    match result {
        Ok(QueryResult::Relation(r)) => {
            print!("{r}");
            println!("({} tuple(s))", r.len());
        }
        Ok(QueryResult::Lifespan(l)) => println!("{l}"),
        Ok(QueryResult::Function(f)) => println!("{f}"),
        Err(msg) => println!("{msg}"),
    }
}

/// Splits `name := query` into its halves; `None` when the line is not an
/// assignment. The name must look like an identifier so queries containing
/// `:=` in string literals are not misparsed.
fn split_assignment(line: &str) -> Option<(&str, &str)> {
    let (lhs, rhs) = line.split_once(":=")?;
    let name = lhs.trim();
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-');
    if ok {
        Some((name, rhs.trim()))
    } else {
        None
    }
}
