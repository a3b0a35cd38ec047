//! The repeatability tool: `sandbench run` and `sandbench check`.
//!
//! `run` executes every workload in a child process of its own (so one
//! workload's allocator, page cache and peak RSS cannot colour the
//! next), `--sets K` times over, and judges each end-to-end metric's
//! run-to-run spread against the metric's own bound. `check` validates a
//! result file against `BENCHMARK.json`.

use crate::json::{n, obj, parse_json, render, s, JsonValue};
use crate::report::END_TO_END;
#[cfg(test)]
use crate::report::{MetricDef, PER_LAYER};
use crate::run::OUT_DIR;
use crate::stats::{percentile_supported, quartiles, rel_spread};
use crate::workloads::{ALL, REFERENCE_SECONDS};
use crate::Flags;
use std::path::Path;
use std::process::{Command, Stdio};

/// Seed of `sandbench run` when none is given.
const DEFAULT_SEED: u64 = 1;
const RESULT_FILE: &str = "result.json";

/// One child run, as it goes into the result file.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let started = std::time::Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (result_line, human) = lines.split_last().ok_or_else(|| {
        format!(
            "{workload}: the child printed nothing (exit {:?})",
            output.status.code()
        )
    })?;
    if echo {
        for line in human.iter().filter(|l| !l.starts_with("stamps ")) {
            println!("{line}");
        }
    }
    let result = parse_json(result_line).map_err(|e| {
        format!(
            "{workload}: the child's last line is not JSON ({e}); exit {:?}",
            output.status.code()
        )
    })?;
    let stamps = human
        .iter()
        .find_map(|l| l.strip_prefix("stamps "))
        .ok_or_else(|| format!("{workload}: the child printed no stamps line"))
        .and_then(|l| parse_json(l).map_err(|e| format!("{workload}: bad stamps line: {e}")))?;
    let field = |key: &str| result.get(key).cloned().unwrap_or(JsonValue::Null);
    println!(
        "ran {workload} trace {} in {:.1} s: attempted {} failed {} correct {}",
        u8::from(trace),
        started.elapsed().as_secs_f64(),
        render(&field("attempted")),
        render(&field("failed")),
        render(&field("correct")),
    );
    Ok(obj(vec![
        ("workload", s(workload)),
        ("trace", n(f64::from(u8::from(trace)))),
        (
            "exit_code",
            output
                .status
                .code()
                .map_or(JsonValue::Null, |c| n(f64::from(c))),
        ),
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("stamps", stamps),
        ("metrics", field("metrics")),
    ]))
}

fn metric_value(row: &JsonValue, name: &str) -> Option<f64> {
    row.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_row(row: &JsonValue, workload: &str, trace: bool) -> bool {
    row.get("workload").and_then(JsonValue::as_str) == Some(workload)
        && row.get("trace").and_then(JsonValue::as_u64) == Some(u64::from(trace))
}

/// `sandbench run`: returns whether every run was correct and every
/// spread stayed within its bound.
pub fn run_sets(flags: &Flags) -> Result<bool, String> {
    if flags.trace.is_some() {
        return Err("`run` always does both: drop --trace".into());
    }
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(REFERENCE_SECONDS);
    let sets = flags.sets.unwrap_or(1);
    let workloads: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => ALL.iter().map(|s| s.name).collect(),
    };
    let mut rows = Vec::new();
    for set in 0..sets {
        println!(
            "== set {} of {sets}, seed {seed}, {seconds} s per run",
            set + 1
        );
        for &w in &workloads {
            // Tables of the first set are shown in full; later sets only
            // feed the spread.
            rows.push(run_child(w, seed, seconds, false, set == 0)?);
            if set == 0 {
                rows.push(run_child(w, seed, seconds, true, true)?);
            }
        }
    }
    let mut all_ok = rows
        .iter()
        .all(|r| r.get("correct").and_then(JsonValue::as_bool) == Some(true));
    let mut summary = Vec::new();
    println!("== end-to-end metrics over {sets} set(s): median (better) [q1, q3] spread / bound");
    for &w in &workloads {
        println!("{w}");
        for def in &END_TO_END {
            let values: Vec<f64> = rows
                .iter()
                .filter(|r| is_row(r, w, false))
                .filter_map(|r| metric_value(r, def.name))
                .collect();
            let [q1, q2, q3] = quartiles(&values);
            let spread = rel_spread(&values);
            let bound = def.bound.unwrap_or(0.0);
            // One value has no spread to judge.
            let ok = values.len() < 2 || spread <= bound;
            all_ok &= ok;
            println!(
                "  {:<20} {:>12.4} {:<6} ({:<6}) [{:.4}, {:.4}] spread {:.4} / {:.2}{}",
                def.name,
                q2,
                def.unit,
                def.better,
                q1,
                q3,
                spread,
                bound,
                if ok { "" } else { "  EXCEEDS ITS BOUND" }
            );
            summary.push(obj(vec![
                ("workload", s(w)),
                ("metric", s(def.name)),
                ("unit", s(def.unit)),
                ("runs", n(values.len() as f64)),
                ("median", n(q2)),
                ("q1", n(q1)),
                ("q3", n(q3)),
                ("spread", n(spread)),
                ("bound", n(bound)),
                ("ok", JsonValue::Bool(ok)),
            ]));
        }
    }
    let file = obj(vec![
        ("seed", n(seed as f64)),
        ("seconds", n(seconds as f64)),
        ("sets", n(sets as f64)),
        ("rows", JsonValue::Arr(rows)),
        ("summary", JsonValue::Arr(summary)),
    ]);
    let path = Path::new(OUT_DIR).join(RESULT_FILE);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, render(&file) + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(all_ok)
}

/// The `(name, unit)` list `key` of `BENCHMARK.json` declares.
fn declared(benchmark: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            name.map(|name| (name.to_string(), unit.to_string()))
                .ok_or_else(|| format!("BENCHMARK.json: an entry of `{key}` has no name"))
        })
        .collect()
}

/// Every declared metric present exactly once with its unit, and nothing
/// undeclared.
fn check_metrics(
    row: &JsonValue,
    declared: &[(String, String)],
    what: &str,
    problems: &mut Vec<String>,
) {
    let Some(JsonValue::Obj(fields)) = row.get("metrics") else {
        problems.push(format!("{what}: no metrics object"));
        return;
    };
    for (name, unit) in declared {
        let found: Vec<&JsonValue> = fields
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        match found.as_slice() {
            [m] => {
                if m.get("unit").and_then(JsonValue::as_str) != Some(unit) {
                    problems.push(format!("{what}: {name} is not in {unit}"));
                }
                if m.get("value").and_then(JsonValue::as_f64).is_none() {
                    problems.push(format!("{what}: {name} has no numeric value"));
                }
            }
            [] => problems.push(format!("{what}: {name} is missing")),
            _ => problems.push(format!("{what}: {name} appears {} times", found.len())),
        }
    }
    for (k, _) in fields {
        if !declared.iter().any(|(name, _)| name == k) {
            problems.push(format!("{what}: {k} is not in BENCHMARK.json"));
        }
    }
}

/// Problems of a result file against `BENCHMARK.json`; empty = valid.
pub fn check(result: &JsonValue, benchmark: &JsonValue) -> Result<Vec<String>, String> {
    let end_to_end = declared(benchmark, "end_to_end")?;
    let per_layer = declared(benchmark, "per_layer")?;
    let workloads = declared(benchmark, "workloads")?;
    let rows = result
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("the result file has no `rows` list")?;
    let mut problems = Vec::new();
    for (w, _) in &workloads {
        for (trace, metrics) in [(false, &end_to_end), (true, &per_layer)] {
            let mine: Vec<&JsonValue> = rows.iter().filter(|r| is_row(r, w, trace)).collect();
            if mine.is_empty() {
                problems.push(format!("{w}: no --trace {} run", u8::from(trace)));
            }
            for (i, row) in mine.iter().enumerate() {
                let what = format!("{w} trace {} run {i}", u8::from(trace));
                check_metrics(row, metrics, &what, &mut problems);
                if row.get("correct").and_then(JsonValue::as_bool) != Some(true)
                    || row.get("failed").and_then(JsonValue::as_u64) != Some(0)
                {
                    problems.push(format!("{what}: served bytes were not all correct"));
                }
                if !trace {
                    // Waits are ranked per trainer, so each trainer needs
                    // the samples.
                    let stamp = |key: &str| {
                        row.get("stamps")
                            .and_then(|st| st.get(key))
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0) as usize
                    };
                    let per_trainer =
                        stamp("saturated_batches") / stamp("saturated_trainers").max(1);
                    if !percentile_supported(per_trainer, 0.99) {
                        problems.push(format!(
                            "{what}: {per_trainer} saturated batches per trainer leave fewer than 10 samples beyond p99"
                        ));
                    }
                }
            }
        }
    }
    Ok(problems)
}

/// `sandbench check <file>`.
pub fn check_file(path: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|text| parse_json(&text).map_err(|e| format!("{p}: {e}")))
    };
    let problems = check(&read(path)?, &read("BENCHMARK.json")?)?;
    for p in &problems {
        println!("{p}");
    }
    println!(
        "{path}: {}",
        if problems.is_empty() {
            "valid".to_string()
        } else {
            format!("{} problem(s)", problems.len())
        }
    );
    Ok(problems.is_empty())
}

/// A `BENCHMARK.json`-shaped value made from the binary's own tables;
/// `check` then needs no file in tests.
#[cfg(test)]
fn contract() -> JsonValue {
    let list = |defs: &[MetricDef]| {
        JsonValue::Arr(
            defs.iter()
                .map(|d| obj(vec![("name", s(d.name)), ("unit", s(d.unit))]))
                .collect(),
        )
    };
    obj(vec![
        ("end_to_end", list(&END_TO_END)),
        ("per_layer", list(&PER_LAYER)),
        (
            "workloads",
            JsonValue::Arr(ALL.iter().map(|w| obj(vec![("name", s(w.name))])).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, trace: bool, defs: &[MetricDef], batches: f64) -> JsonValue {
        obj(vec![
            ("workload", s(workload)),
            ("trace", n(f64::from(u8::from(trace)))),
            ("correct", JsonValue::Bool(true)),
            ("attempted", n(100.0)),
            ("failed", n(0.0)),
            (
                "stamps",
                obj(vec![
                    ("saturated_batches", n(batches)),
                    ("saturated_trainers", n(2.0)),
                ]),
            ),
            (
                "metrics",
                JsonValue::Obj(
                    defs.iter()
                        .map(|d| {
                            (
                                d.name.to_string(),
                                obj(vec![("value", n(1.5)), ("unit", s(d.unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn full_result() -> Vec<JsonValue> {
        ALL.iter()
            .flat_map(|w| {
                [
                    row(w.name, false, &END_TO_END, 2000.0),
                    row(w.name, true, &PER_LAYER, 2000.0),
                ]
            })
            .collect()
    }

    #[test]
    fn a_complete_result_is_valid() {
        let result = obj(vec![("rows", JsonValue::Arr(full_result()))]);
        assert_eq!(
            check(&result, &contract()).expect("checks"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn missing_wrong_unit_duplicate_short_and_incorrect_rows_are_reported() {
        let mut rows = full_result();
        // Drop one workload's traced run.
        rows.retain(|r| !is_row(r, "remote_ddp", true));
        // Too few batches for p99.
        rows[0] = row(ALL[0].name, false, &END_TO_END, 1999.0);
        // A wrong unit, a duplicate and a stranger in another row.
        if let Some(JsonValue::Obj(fields)) = rows[2].get("metrics").cloned() {
            let mut fields = fields;
            fields[0].1 = obj(vec![("value", n(1.0)), ("unit", s("furlongs"))]);
            fields.push(fields[1].clone());
            fields.push((
                "made.up".to_string(),
                obj(vec![("value", n(1.0)), ("unit", s("s"))]),
            ));
            if let JsonValue::Obj(row_fields) = &mut rows[2] {
                row_fields.retain(|(k, _)| k != "metrics");
                row_fields.push(("metrics".to_string(), JsonValue::Obj(fields)));
            }
        }
        // An incorrect run.
        if let JsonValue::Obj(row_fields) = &mut rows[4] {
            for (k, v) in row_fields.iter_mut() {
                if k == "failed" {
                    *v = n(3.0);
                }
            }
        }
        let problems =
            check(&obj(vec![("rows", JsonValue::Arr(rows))]), &contract()).expect("checks");
        let has = |needle: &str| problems.iter().any(|p| p.contains(needle));
        assert!(has("remote_ddp: no --trace 1 run"), "{problems:?}");
        assert!(has("fewer than 10 samples beyond p99"), "{problems:?}");
        assert!(has("is not in 1/s"), "{problems:?}");
        assert!(has("appears 2 times"), "{problems:?}");
        assert!(has("made.up is not in BENCHMARK.json"), "{problems:?}");
        assert!(has("served bytes were not all correct"), "{problems:?}");
    }
}
