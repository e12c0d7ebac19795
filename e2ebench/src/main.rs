//! End-to-end benchmark of the distributed betweenness-centrality system.
//!
//! One invocation measures one workload at one seed:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload exact-ba256 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints every metric it measured (name, value, unit), then, as the
//! last line, one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A failed correctness gate or a
//! deterministic count that does not repeat makes it exit 1.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     compare DIR_A DIR_B
//! ```
//!
//! compares the medians of two directories of result records (written to
//! `e2ebench/out/` by every run) and exits 2 when their core counts or
//! build profiles differ.

mod compute;
mod gates;
mod host;
mod metrics;
mod reference;
mod serve;
mod spans;
mod workload;

use metrics::{bypassed, unit_of, Outcome, END_TO_END, PER_LAYER};
use spans::Spans;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;
use workload::{Kind, Workload, WORKLOADS};

/// Parsed command line of a measuring run.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     e2ebench compare DIR_A DIR_B";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload and returns its outcome.
fn measure(w: &Workload, seed: u64, seconds: f64, spans: Option<&Spans>) -> Outcome {
    let mut o = Outcome::default();
    match w.kind {
        Kind::Serve => serve::run(w, seed, seconds, spans, &mut o),
        _ => compute::run(w, seed, seconds, spans, &mut o),
    }
    o
}

/// The metrics the JSON line carries. A per-layer metric of a layer the
/// workload bypasses reads 0; any other missing metric is an error.
fn selected(w: &Workload, trace: bool, o: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let skip = bypassed(w.kind);
    list.iter()
        .map(|&(name, _)| match o.values.get(name) {
            Some(&v) => Ok((name, v)),
            None if trace && skip.iter().any(|p| name.starts_with(p)) => Ok((name, 0.0)),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// The result line.
fn json_line(o: &Outcome, metrics: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit_of(name).expect("known metric");
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match host::compare(Path::new(a), Path::new(b)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A run must end even if a layer hangs: past the limit the watchdog
    // ends the process, and with it every thread the run started.
    let limit = Duration::from_secs_f64(args.seconds * 4.0 + 60.0);
    thread::spawn(move || {
        thread::sleep(limit);
        eprintln!("e2ebench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    if let Err(e) = host::enter_out_dir() {
        eprintln!("e2ebench: cannot use {}: {e}", host::out_dir().display());
        return ExitCode::from(2);
    }
    let w = args.workload;
    println!(
        "# e2ebench {} seed={} seconds={} trace={} host_cores={} build={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cores(),
        host::PROFILE
    );
    let spans = args.trace.then(Spans::new);
    let mut o = measure(&w, args.seed, args.seconds, spans.as_ref());
    host::check_counts_across_runs(w.name, args.seed, &mut o);
    o.set("fail_ratio", o.fail_ratio());

    for (name, v) in &o.values {
        println!(
            "{name:<32} {v:>18.6} {}",
            unit_of(name).expect("known metric")
        );
    }
    for p in &o.problems {
        println!("FAILED: {p}");
    }
    if let Err(e) = host::write_record(w.name, args.seed, args.trace, &o) {
        println!("FAILED: writing the result record: {e}");
        o.failed += 1;
    }
    if let Some(s) = &spans {
        let path = host::out_dir().join(format!("spans-{}-s{}.jsonl", w.name, args.seed));
        if let Err(e) = s.write_jsonl(&path) {
            println!("FAILED: writing spans: {e}");
            o.failed += 1;
        }
    }
    let metrics = match selected(&w, args.trace, &o) {
        Ok(m) => m,
        Err(e) => {
            println!("FAILED: {e}");
            o.failed += 1;
            Vec::new()
        }
    };
    println!("{}", json_line(&o, &metrics));
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter_out_dir() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| host::enter_out_dir().expect("output directory"));
    }

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_measuring_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "serve-churn",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload.name, "serve-churn");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse(&strings(&["--workload", "serve-churn", "--seed", "1"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name)));
        }
    }

    /// Every workload at a tiny size emits every metric with its unit in
    /// both modes, and passes its own gates.
    #[test]
    fn tiny_runs_emit_every_metric() {
        enter_out_dir();
        for w in WORKLOADS {
            let w = w.tiny();
            for trace in [false, true] {
                let spans = trace.then(Spans::new);
                let mut o = measure(&w, 5, 0.05, spans.as_ref());
                o.set("fail_ratio", o.fail_ratio());
                assert_eq!(o.failed, 0, "{} trace={trace}: {:?}", w.name, o.problems);
                let metrics = selected(&w, trace, &o).expect("all metrics");
                let line = json_line(&o, &metrics);
                let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, unit) in list {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&entry), "{}: no {name} in {line}", w.name);
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                if trace {
                    assert!(!spans.expect("recorder").all().is_empty(), "{}", w.name);
                }
            }
        }
    }
}
