//! The repository benchmark.  See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <solve-prune|solve-fault|serve-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run prints a human summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  It exits 0 when every output was correct, 1 otherwise,
//! and 2 on a usage error.  (`perfbench daemon --seed <n>` is the
//! serve-churn daemon child; the benchmark launches it itself.)

mod inputs;
mod report;
mod serve;
mod solve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use mcds_serve::json::Value;

use report::{Report, END_TO_END, PER_LAYER};

/// The workload names, in the order the documentation lists them.
const WORKLOADS: [&str; 3] = ["solve-prune", "solve-fault", "serve-churn"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    let v = flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
    v.parse().map_err(|_| format!("bad --{name} {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let daemon = args.first().map(String::as_str) == Some("daemon");
    let parsed = flags(&args[usize::from(daemon)..]).and_then(|f| {
        let seed: u64 = get(&f, "seed")?;
        Ok((f, seed))
    });
    let (flags, seed) = match parsed {
        Ok(p) => p,
        Err(msg) => return usage(&msg),
    };
    if daemon {
        return match serve::daemon_main(seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = match flags.get("workload") {
        Some(w) if WORKLOADS.contains(&w.as_str()) => w.clone(),
        Some(w) => return usage(&format!("unknown workload {w:?}")),
        None => return usage("missing --workload"),
    };
    let options = (|| -> Result<_, String> {
        let seconds: f64 = get(&flags, "seconds")?;
        let trace: u8 = get(&flags, "trace")?;
        if !(seconds > 0.0 && trace <= 1) {
            return Err("need --seconds > 0 and --trace 0 or 1".into());
        }
        Ok((seconds, trace == 1))
    })();
    let (seconds, traced) = match options {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };

    let report = match workload.as_str() {
        "solve-prune" => solve::run(inputs::prune_cycles, seed, seconds, traced),
        "solve-fault" => solve::run(inputs::fault_cycles, seed, seconds, traced),
        _ => serve::run(seed, seconds, traced),
    };
    finish(&report, if traced { PER_LAYER } else { END_TO_END })
}

/// Prints the summary and the result line; the exit code says whether
/// every output was correct.
fn finish(report: &Report, catalogue: &[(&str, &str)]) -> ExitCode {
    for msg in report.failures.iter().take(10) {
        eprintln!("FAILED: {msg}");
    }
    let line = report.json(catalogue);
    if let Ok(Value::Obj(fields)) = Value::parse(&line) {
        if let Some((_, Value::Obj(metrics))) = fields.iter().find(|(k, _)| k == "metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                eprintln!("{name:>28} {value:>14.4} {unit}");
            }
        }
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
