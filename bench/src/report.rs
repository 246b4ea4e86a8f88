//! The full-set runner (`run`), its result file, and the comparison of
//! two result files against the benchmark's bounds (`agree`).

use crate::drive::PINNED_THREADS;
use crate::json::{self, Value};
use crate::stats;
use crate::workloads::NAMES;
use std::process::Command;

/// Where a result came from: enough to trust or discard it later.
pub fn provenance(seed: u64, seconds: f64, reps: usize, smoke: bool) -> Value {
    let capture = |program: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(program).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let git_rev = capture("git", &["rev-parse", "HEAD"]);
    let dirty = match capture("git", &["status", "--porcelain"]) {
        Some(status) if git_rev.is_some() => Value::Bool(!status.is_empty()),
        _ => Value::Null,
    };
    Value::obj([
        (
            "git_rev",
            Value::str(git_rev.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty", dirty),
        (
            "rustc",
            Value::str(capture("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("pinned_threads", Value::Num(PINNED_THREADS as f64)),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("reps", Value::Num(reps as f64)),
        ("smoke", Value::Bool(smoke)),
    ])
}

/// Options of the `run` subcommand.
pub struct FullRun {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub smoke: bool,
    pub out: String,
}

/// One child run's parsed output: the result object of the last line and
/// the `# key: value` facts printed before it.
struct Child {
    result: Value,
    info: Vec<(String, Value)>,
}

fn child_run(full: &FullRun, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &full.seed.to_string()])
        .args(["--seconds", &full.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if full.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| {
        format!(
            "run of {workload} printed no result ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let info = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# ")?.split_once(": "))
        .filter_map(|(k, v)| Some((k.to_string(), json::parse(v).ok()?)))
        .collect();
    Ok(Child { result, info })
}

/// Runs every workload `reps` times end to end and once traced, each run
/// in a child process of its own, the workloads taken round-robin so that
/// a workload's repetitions are spread over the whole session. Prints
/// every metric by name with its unit, writes the result file (replacing
/// any earlier one), and returns whether every output check held.
pub fn full_run(full: &FullRun) -> Result<bool, String> {
    let header = provenance(full.seed, full.seconds, full.reps, full.smoke);
    println!("# provenance: {}", header.to_line());
    let mut all_correct = true;
    // Per workload: end-to-end values per metric, per-layer values, facts.
    let mut end_to_end: Vec<Vec<(String, String, Vec<f64>)>> = vec![Vec::new(); NAMES.len()];
    let mut per_layer: Vec<Vec<(String, Value)>> = vec![Vec::new(); NAMES.len()];
    let mut facts: Vec<Vec<(String, Value)>> = vec![Vec::new(); NAMES.len()];
    let mut totals = vec![(0.0f64, 0.0f64); NAMES.len()];

    for rep in 0..=full.reps {
        let trace = rep == full.reps;
        for (w, name) in NAMES.iter().enumerate() {
            eprintln!(
                "gavel-bench: {name} {}",
                if trace {
                    "traced".to_string()
                } else {
                    format!("rep {}/{}", rep + 1, full.reps)
                }
            );
            let child = child_run(full, name, trace)?;
            let correct = child.result.get("correct").and_then(Value::as_bool) == Some(true);
            if !correct {
                all_correct = false;
                eprintln!("gavel-bench: output checks FAILED on {name}");
            }
            let count = |key| child.result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            totals[w].0 += count("attempted");
            totals[w].1 += count("failed");
            let metrics = child.result.get("metrics").map_or(&[][..], Value::fields);
            for (metric, body) in metrics {
                let value = body
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = body.get("unit").and_then(Value::as_str).unwrap_or("");
                if trace {
                    per_layer[w].push((metric.clone(), body.clone()));
                } else {
                    match end_to_end[w].iter_mut().find(|(m, _, _)| m == metric) {
                        Some((_, _, values)) => values.push(value),
                        None => end_to_end[w].push((metric.clone(), unit.to_string(), vec![value])),
                    }
                }
            }
            if !trace && rep == 0 {
                facts[w] = child
                    .info
                    .into_iter()
                    .filter(|(k, _)| {
                        matches!(k.as_str(), "sessions" | "stream_cmds" | "result_digest")
                    })
                    .collect();
            }
        }
    }

    let mut workloads = Vec::new();
    for (w, name) in NAMES.iter().enumerate() {
        println!("== {name}");
        let mut e2e = Vec::new();
        for (metric, unit, values) in &end_to_end[w] {
            let median = stats::median(values);
            let iqr = stats::iqr_share(values);
            println!(
                "{metric:<28} {median:>16.6} {unit:<6} (iqr {:.1}% of median, n={})",
                iqr * 100.0,
                values.len()
            );
            e2e.push((
                metric.clone(),
                Value::obj([
                    ("unit", Value::str(unit.as_str())),
                    ("median", Value::Num(median)),
                    ("iqr_share", Value::Num(iqr)),
                    (
                        "values",
                        Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        for (metric, body) in &per_layer[w] {
            let value = body
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let unit = body.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{metric:<28} {value:>16.6} {unit}");
        }
        let mut fields = facts[w].clone();
        fields.push(("attempted".into(), Value::Num(totals[w].0)));
        fields.push(("failed".into(), Value::Num(totals[w].1)));
        fields.push(("end_to_end".into(), Value::Obj(e2e)));
        fields.push(("per_layer".into(), Value::Obj(per_layer[w].clone())));
        workloads.push((name.to_string(), Value::Obj(fields)));
    }
    let doc = Value::obj([
        ("provenance", header),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads)),
    ]);
    if let Some(parent) = std::path::Path::new(&full.out).parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&full.out, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", full.out))?;
    println!("# wrote {}", full.out);
    Ok(all_correct)
}

/// One end-to-end metric's contract in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares result file `b` against `a` (read `a` as the parent, `b` as
/// the change, or as two runs of one commit), metric by metric, against
/// the bounds in `benchmark`. A metric is *worse* when `b`'s median is
/// worse than `a`'s by more than its bound, *unresolved* when either
/// file's spread (interquartile range as a share of the median) exceeds
/// the bound, *ok* otherwise. Per-layer counters that differ are listed.
/// Returns whether nothing was worse.
pub fn agree(a: &str, b: &str, benchmark: &str) -> Result<bool, String> {
    let (doc_a, doc_b, spec) = (load(a)?, load(b)?, load(benchmark)?);
    let bounds: Vec<Bound> = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    for (label, doc) in [("a", &doc_a), ("b", &doc_b)] {
        let p = doc
            .get("provenance")
            .map_or_else(String::new, Value::to_line);
        println!("# {label}: {p}");
    }
    let mut none_worse = true;
    let workloads_a = doc_a.get("workloads").map_or(&[][..], Value::fields);
    for (name, wa) in workloads_a {
        let Some(wb) = doc_b.get("workloads").and_then(|w| w.get(name)) else {
            println!("== {name}: missing from {b}");
            none_worse = false;
            continue;
        };
        println!("== {name}");
        println!(
            "{:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "a", "b", "change", "bound"
        );
        for bound in &bounds {
            let field = |w: &Value, key: &str| -> Option<f64> {
                w.get("end_to_end")?.get(&bound.name)?.get(key)?.as_f64()
            };
            let (Some(ma), Some(mb)) = (field(wa, "median"), field(wb, "median")) else {
                println!("{:<18} missing", bound.name);
                none_worse = false;
                continue;
            };
            let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let spread = field(wa, "iqr_share")
                .unwrap_or(0.0)
                .max(field(wb, "iqr_share").unwrap_or(0.0));
            let verdict = if spread > bound.bound {
                "unresolved"
            } else if worse_by > bound.bound {
                none_worse = false;
                "WORSE"
            } else {
                "ok"
            };
            println!(
                "{:<18} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.0}%  {verdict}",
                bound.name,
                change * 100.0,
                bound.bound * 100.0
            );
        }
        // Counters compare two versions of one program exactly.
        let layers_a = wa.get("per_layer").map_or(&[][..], Value::fields);
        let mut differing = 0;
        for (metric, body) in layers_a {
            let exact = matches!(
                body.get("unit").and_then(Value::as_str),
                Some("count" | "B")
            );
            let vb = wb
                .get("per_layer")
                .and_then(|l| l.get(metric)?.get("value")?.as_f64());
            let va = body.get("value").and_then(Value::as_f64);
            if exact && va != vb {
                differing += 1;
                println!("  counter {metric}: {va:?} -> {vb:?}");
            }
        }
        let digest = |w: &Value| {
            w.get("result_digest")
                .and_then(Value::as_str)
                .map(String::from)
        };
        println!(
            "  counters differing: {differing}; result digest {}",
            if digest(wa) == digest(wb) {
                "equal"
            } else {
                "DIFFERS"
            }
        );
    }
    Ok(none_worse)
}
