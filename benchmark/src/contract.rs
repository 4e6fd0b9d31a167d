//! The metric and workload definitions, in one place: what `BENCHMARK.json`
//! must list, and the checks the builder's contract puts on that file.

use crate::json::Json;

pub const WORKLOADS: [&str; 4] = [
    "point_serve",
    "analytic_stream",
    "ingest_mixed",
    "paged_window",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of these.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_user_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn path_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-/".contains(&b))
}

fn exact_keys(obj: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let mut want: Vec<&str> = keys.to_vec();
    want.sort_unstable();
    if obj.keys() == want {
        Ok(())
    } else {
        Err(format!(
            "{what} must have exactly the keys {want:?}, has {:?}",
            obj.keys()
        ))
    }
}

fn str_field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: `{key}` must be a string"))
}

/// Names of the `(end_to_end, per_layer, workloads)` a valid
/// `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    pub end_to_end: Vec<String>,
    pub per_layer: Vec<String>,
    pub workloads: Vec<String>,
}

/// Checks `BENCHMARK.json` against the builder's contract: the exact key
/// set, name/unit/path alphabets, counts, bounds and uniqueness.
pub fn validate_benchmark_json(text: &str) -> Result<Declared, String> {
    if text.len() > 64 * 1024 {
        return Err("file is larger than 64 KiB".into());
    }
    let doc = Json::parse(text)?;
    exact_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;

    let arr = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`{key}` must be an array"))
    };
    let paths = arr("paths")?;
    if !(1..=16).contains(&paths.len()) {
        return Err("`paths` must hold 1 to 16 directories".into());
    }
    let mut path_names = Vec::new();
    for p in paths {
        let p = p.as_str().ok_or("`paths` entries must be strings")?;
        if !path_ok(p) {
            return Err(format!("bad path `{p}`"));
        }
        path_names.push(p.trim_end_matches('/').to_string());
    }
    let command = arr("command")?;
    if command.is_empty() || command.len() > 32 {
        return Err("`command` must hold 1 to 32 strings".into());
    }
    for (i, c) in command.iter().enumerate() {
        let c = c.as_str().ok_or("`command` entries must be strings")?;
        if c.len() > 200 || c.starts_with('/') || c.split('/').any(|part| part == "..") {
            return Err(format!("bad command word `{c}`"));
        }
        // Words after the program that look like paths must stay inside `paths`.
        if i > 0 && c.contains('/') && !path_names.iter().any(|p| c.starts_with(&format!("{p}/"))) {
            return Err(format!("command word `{c}` names a file outside `paths`"));
        }
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("`run_seconds` must be a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err("`run_seconds` must be a whole number from 1 to 60".into());
    }

    let mut names: Vec<String> = Vec::new();
    let mut take_name = |n: &str| {
        if !name_ok(n) {
            return Err(format!("bad name `{n}`"));
        }
        if names.iter().any(|seen| seen == n) {
            return Err(format!("name `{n}` is used twice"));
        }
        names.push(n.to_string());
        Ok(())
    };

    let workloads = arr("workloads")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err("`workloads` must hold 2 to 8 entries".into());
    }
    let mut declared = Declared {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        workloads: Vec::new(),
    };
    for w in workloads {
        exact_keys(w, &["name", "why"], "a workload")?;
        let name = str_field(w, "name", "workload")?;
        take_name(name)?;
        let why = str_field(w, "why", name)?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload `{name}`: `why` must be one line of at most 200 characters"
            ));
        }
        declared.workloads.push(name.to_string());
    }

    let e2e = arr("end_to_end")?;
    if !(1..=16).contains(&e2e.len()) {
        return Err("`end_to_end` must hold 1 to 16 metrics".into());
    }
    for m in e2e {
        exact_keys(
            m,
            &["name", "unit", "better", "bound"],
            "an end-to-end metric",
        )?;
        let name = str_field(m, "name", "metric")?;
        take_name(name)?;
        if !unit_ok(str_field(m, "unit", name)?) {
            return Err(format!("metric `{name}`: bad unit"));
        }
        if !matches!(str_field(m, "better", name)?, "lower" | "higher") {
            return Err(format!("metric `{name}`: `better` must be lower or higher"));
        }
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric `{name}`: `bound` must be a number"))?;
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!(
                "metric `{name}`: bound {bound} is outside (0, 0.25]"
            ));
        }
        declared.end_to_end.push(name.to_string());
    }
    match e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
    {
        Some(m)
            if str_field(m, "unit", "setup_s")? == "s"
                && str_field(m, "better", "setup_s")? == "lower" => {}
        _ => {
            return Err("one end-to-end metric must be `setup_s`, unit `s`, better `lower`".into())
        }
    }

    let per_layer = arr("per_layer")?;
    if !(1..=128).contains(&per_layer.len()) {
        return Err("`per_layer` must hold 1 to 128 metrics".into());
    }
    for m in per_layer {
        exact_keys(m, &["name", "unit", "better"], "a per-layer metric")?;
        let name = str_field(m, "name", "metric")?;
        take_name(name)?;
        if !unit_ok(str_field(m, "unit", name)?) {
            return Err(format!("metric `{name}`: bad unit"));
        }
        if !matches!(str_field(m, "better", name)?, "lower" | "higher") {
            return Err(format!("metric `{name}`: `better` must be lower or higher"));
        }
        declared.per_layer.push(name.to_string());
    }
    Ok(declared)
}

/// Checks `benchmark/metrics.json` (the prediction table) against what
/// `BENCHMARK.json` declares: every per-layer metric has an entry, and
/// every `moves` entry names an existing end-to-end metric and workload.
pub fn validate_predictions(text: &str, declared: &Declared) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .ok_or("metrics.json: `per_layer` must be an array")?;
    let mut seen = Vec::new();
    for e in entries {
        let name = str_field(e, "name", "metrics.json entry")?;
        if !declared.per_layer.iter().any(|n| n == name) {
            return Err(format!(
                "metrics.json: `{name}` is not a per-layer metric of BENCHMARK.json"
            ));
        }
        str_field(e, "layer", name)?;
        let moves = e
            .get("moves")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("metrics.json: `{name}` needs a `moves` array"))?;
        if moves.is_empty() {
            return Err(format!("metrics.json: `{name}` predicts nothing"));
        }
        for m in moves {
            let metric = str_field(m, "metric", name)?;
            let workload = str_field(m, "workload", name)?;
            if !declared.end_to_end.iter().any(|n| n == metric) {
                return Err(format!(
                    "metrics.json: `{name}` moves unknown metric `{metric}`"
                ));
            }
            if !declared.workloads.iter().any(|n| n == workload) {
                return Err(format!(
                    "metrics.json: `{name}` moves unknown workload `{workload}`"
                ));
            }
        }
        seen.push(name);
    }
    for n in &declared.per_layer {
        if !seen.contains(&n.as_str()) {
            return Err(format!(
                "metrics.json: per-layer metric `{n}` has no prediction"
            ));
        }
    }
    Ok(())
}

/// What this binary reports must be what `BENCHMARK.json` declares, and
/// the prediction table must cover every per-layer metric: checked on
/// every start, so the three can never drift apart unnoticed.
pub fn check_declarations(root: &std::path::Path) -> Result<Declared, String> {
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let declared = validate_benchmark_json(&read(root.join("BENCHMARK.json"))?)?;
    let same = |mut ours: Vec<&str>, theirs: &[String]| {
        let mut theirs: Vec<&str> = theirs.iter().map(String::as_str).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        ours == theirs
    };
    if declared.workloads != WORKLOADS
        || !same(
            END_TO_END.iter().map(|m| m.name).collect(),
            &declared.end_to_end,
        )
        || !same(
            crate::layers::PER_LAYER.iter().map(|m| m.name).collect(),
            &declared.per_layer,
        )
    {
        return Err(
            "BENCHMARK.json does not list the workloads and metrics this binary reports".into(),
        );
    }
    validate_predictions(&read(root.join("benchmark/metrics.json"))?, &declared)?;
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "command": ["bash", "benchmark/run"],
      "paths": ["benchmark/"],
      "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "net.x", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn accepts_a_conforming_file() {
        let d = validate_benchmark_json(GOOD).unwrap();
        assert_eq!(d.workloads, vec!["a", "b"]);
        assert_eq!(d.per_layer, vec!["net.x"]);
    }

    #[test]
    fn rejects_each_kind_of_violation() {
        let bad =
            |from: &str, to: &str| validate_benchmark_json(&GOOD.replace(from, to)).unwrap_err();
        bad("\"run_seconds\": 10", "\"run_seconds\": 61");
        bad("\"run_seconds\": 10,", "\"run_seconds\": 10, \"extra\": 1,");
        bad("\"bound\": 0.25", "\"bound\": 0.3");
        bad("\"name\": \"net.x\"", "\"name\": \"net x\"");
        bad("\"name\": \"net.x\"", "\"name\": \"a\""); // a name is used once
        bad(
            "\"unit\": \"count\"",
            "\"unit\": \"a-unit-name-that-is-too-long\"",
        );
        bad("benchmark/run", "crates/bench/run");
        bad("benchmark/run", "benchmark/../run");
        bad("\"benchmark/\"", "\"/abs\"");
        bad("setup_s", "set_up_s");
        bad(", {\"name\": \"b\", \"why\": \"y\"}", "");
        bad("\"why\": \"x\"", "\"why\": \"x\", \"more\": 1");
    }

    #[test]
    fn predictions_must_name_existing_metrics_and_workloads() {
        let d = validate_benchmark_json(GOOD).unwrap();
        let table = |metric: &str, workload: &str| {
            format!(
                r#"{{"per_layer": [{{"name": "net.x", "layer": "net", "moves": [{{"metric": "{metric}", "workload": "{workload}"}}]}}]}}"#
            )
        };
        validate_predictions(&table("setup_s", "a"), &d).unwrap();
        assert!(validate_predictions(&table("nope", "a"), &d).is_err());
        assert!(validate_predictions(&table("setup_s", "c"), &d).is_err());
        assert!(validate_predictions(r#"{"per_layer": []}"#, &d).is_err());
    }

    /// The repository's own files agree with this binary, units and
    /// bounds included.
    #[test]
    fn the_committed_files_agree_with_this_binary() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        check_declarations(&root).unwrap();
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let ours = end_to_end(m.get("name").unwrap().as_str().unwrap()).unwrap();
            assert_eq!(m.get("unit").unwrap().as_str(), Some(ours.unit));
            assert_eq!(m.get("better").unwrap().as_str(), Some(ours.better.word()));
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(ours.bound));
        }
    }
}
