//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`), each with
//! its unit. A traced run also writes its spans as JSON lines (to
//! `--spans <path>`, default `.perfbench/spans-<workload>-<seed>.jsonl`)
//! and prints a per-layer self-time report to standard error. Exits 0 only
//! when every operation answered correctly.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inseq_perfbench::report::{end_to_end, per_layer, result_line};
use inseq_perfbench::stats::peak_rss_mb;
use inseq_perfbench::{run, Opts, Workload};

const USAGE: &str = "usage: perfbench --workload certify|explore|explore-por|serve-edit \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--spans" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&opts, process_start);
    for e in &outcome.checker.errors {
        eprintln!("perfbench: wrong answer: {e}");
    }
    let listed = if opts.trace {
        let path = opts.spans_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".perfbench/spans-{}-{}.jsonl",
                opts.workload.name(),
                opts.seed
            ))
        });
        if let Err(e) = outcome.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("perfbench: self time per traced operation, by layer:");
        for (name, value) in &outcome.metrics.0 {
            if let Some(layer) = name.strip_prefix("self_s.") {
                eprintln!("  {layer:<14} {value:>10.6} s");
            }
        }
        eprintln!(
            "  tracing overhead {:.6} s per operation; spans written to {}",
            outcome.metrics.get("trace.overhead_s"),
            path.display()
        );
        per_layer()
    } else {
        outcome.metrics.set("peak_rss_mb", peak_rss_mb());
        end_to_end()
    };
    println!(
        "{}",
        result_line(&outcome.checker, &outcome.metrics, &listed)
    );
    if outcome.checker.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
