//! `fuzzybench run` (every workload, each in its own child process) and
//! `fuzzybench compare` (two run files against the metric bounds).

use crate::json::{self, get, int, num, obj, text, Content};
use crate::ledger::{Better, END_TO_END};
use crate::{environment, flag, secs, target_dir, usage, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seconds per workload when `run` is not given `--seconds`.
const DEFAULT_SECONDS: &str = "20";

/// Runs one workload in a child process and returns its result line
/// and metadata.
fn child(workload: &str, seed: &str, seconds: &str, trace: bool) -> Result<Content, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", seed, "--seconds", seconds])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [table @ .., meta, result] = lines.as_slice() else {
        return Err(format!("{workload}: no result ({})", output.status));
    };
    for line in table {
        println!("{line}");
    }
    let meta = json::parse(meta)?;
    Ok(obj(vec![
        ("result", json::parse(result)?),
        (
            "meta",
            get(&meta, "fuzzybench").cloned().unwrap_or(Content::Null),
        ),
        ("run_s", num(secs(t))),
    ]))
}

fn is_correct(run: &Content) -> bool {
    matches!(
        get(run, "result").and_then(|r| get(r, "correct")),
        Some(Content::Bool(true))
    )
}

pub fn run(args: &[String]) -> ExitCode {
    let seconds = flag(args, "--seconds").unwrap_or(DEFAULT_SECONDS);
    let (Some(seed), Ok(secs_n)) = (flag(args, "--seed"), seconds.parse::<u64>()) else {
        return usage();
    };
    let Ok(seed_n) = seed.parse::<u64>() else {
        return usage();
    };
    let trace = args.iter().any(|a| a == "--trace");
    let out = flag(args, "--out").map(Into::into).unwrap_or_else(|| {
        let suffix = if trace { "-traced" } else { "" };
        target_dir()
            .join("fuzzybench")
            .join(format!("run-seed{seed}{suffix}.json"))
    });

    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let mut row = vec![("name", text(w))];
        for (key, traced) in [("untraced", false), ("traced", true)] {
            if traced && !trace {
                continue;
            }
            match child(w, seed, seconds, traced) {
                Ok(r) => {
                    ok &= is_correct(&r);
                    row.push((key, r));
                }
                Err(e) => {
                    eprintln!("fuzzybench run: {e}");
                    ok = false;
                    row.push((key, Content::Null));
                }
            }
        }
        rows.push(obj(row));
    }
    let mut env = environment();
    env.push(("seed", int(seed_n)));
    env.push(("seconds", int(secs_n)));
    let doc = obj(vec![
        ("environment", obj(env)),
        ("workloads", Content::Seq(rows)),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, json::render(&doc)) {
        eprintln!("fuzzybench run: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("fuzzybench run: wrote {}", out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn load(path: &str) -> Result<Content, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&s).map_err(|e| format!("{path}: {e}"))
}

/// The untraced run of `workload` in a `run` file.
fn untraced<'a>(doc: &'a Content, workload: &str) -> Option<&'a Content> {
    get(doc, "workloads")?
        .as_seq()?
        .iter()
        .find(|w| get(w, "name").and_then(json::as_str) == Some(workload))
        .and_then(|w| get(w, "untraced"))
}

fn metric_value(run: &Content, name: &str) -> Option<f64> {
    let metrics = get(get(run, "result")?, "metrics")?;
    json::as_f64(get(get(metrics, name)?, "value")?)
}

/// Relative change from `a` to `b`, signed so that positive is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let rel = (b - a) / a;
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

pub fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage();
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fuzzybench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("worsening from A to B per metric, against its bound (! = beyond it)");
    let mut agree = true;
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced(&a, w), untraced(&b, w)) else {
            println!("{w:<14} missing from one side");
            agree = false;
            continue;
        };
        let mut row = format!("{w:<14}");
        if !is_correct(ra) || !is_correct(rb) {
            row.push_str(" INCORRECT");
            agree = false;
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            match (metric_value(ra, m.name), metric_value(rb, m.name)) {
                (Some(va), Some(vb)) => {
                    let worse = worsening(va, vb, m.better);
                    let mark = if worse > bound { "!" } else { " " };
                    agree &= worse <= bound;
                    row.push_str(&format!(
                        "  {} {:+6.1}%/{:.0}%{mark}",
                        m.name,
                        worse * 100.0,
                        bound * 100.0
                    ));
                }
                _ => {
                    row.push_str(&format!("  {} missing!", m.name));
                    agree = false;
                }
            }
        }
        println!("{row}");
    }
    if agree {
        println!("within bounds");
        ExitCode::SUCCESS
    } else {
        println!("REGRESSION or failed check");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_positive_when_a_metric_moves_the_wrong_way() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }
}
