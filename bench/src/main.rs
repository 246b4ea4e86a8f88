//! `gavel-bench`: end-to-end, layer-attributed benchmark of the Gavel
//! reproduction. See `README.md` beside this package.

mod drills;
mod drive;
mod json;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gavel-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last line printed is the result object
  gavel-bench run [--seed <n>] [--seconds <s>] [--reps <n>] [--smoke] [--out <file>]
      every workload, <reps> end-to-end runs and one traced run each
  gavel-bench agree <a.json> <b.json> [--benchmark <BENCHMARK.json>]
      compare two result files against the benchmark's bounds
workloads: las_online hier_static ss_churn durable_session";

/// Seconds a run measures when `--seconds` is not given (`run_seconds`
/// in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;

/// `--key value` pairs and bare flags.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None if self.has(key) => Err(format!("{key} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn seconds(&self, smoke: bool) -> Result<f64, String> {
        let seconds = self.parsed("--seconds", if smoke { 1.5 } else { DEFAULT_SECONDS })?;
        if seconds > 0.0 && seconds <= 600.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be in (0, 600], got {seconds}"))
        }
    }
}

fn single_run(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.has("--smoke");
    let args = RunArgs {
        workload: flags
            .value("--workload")
            .ok_or(format!("--workload is required\n{USAGE}"))?
            .to_string(),
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.seconds(smoke)?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        smoke,
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}\n{USAGE}", args.workload));
    }
    println!(
        "# provenance: {}",
        report::provenance(args.seed, args.seconds, 1, smoke).to_line()
    );
    let outcome = if args.trace {
        layers::traced(&args)?
    } else {
        run::end_to_end(&args)?
    };
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &outcome.info {
        println!("# {k}: {}", v.to_line());
    }
    for p in &outcome.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None | Some("-h" | "--help") => Err(USAGE.to_string()),
        Some("run") => {
            let flags = Flags(&argv[1..]);
            (|| {
                let smoke = flags.has("--smoke");
                report::full_run(&report::FullRun {
                    seed: flags.parsed("--seed", 1)?,
                    seconds: flags.seconds(smoke)?,
                    reps: flags.parsed("--reps", if smoke { 2 } else { 3 })?,
                    smoke,
                    out: flags.parsed("--out", "bench/out/result.json".to_string())?,
                })
            })()
        }
        Some("agree") => match &argv[1..] {
            [a, b, rest @ ..] => report::agree(
                a,
                b,
                Flags(rest).value("--benchmark").unwrap_or("BENCHMARK.json"),
            ),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => single_run(&Flags(&argv)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // An output check failed (the result says `"correct": false`), or
        // `agree` found a metric worse than its bound.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("gavel-bench: {e}");
            ExitCode::from(1)
        }
    }
}
