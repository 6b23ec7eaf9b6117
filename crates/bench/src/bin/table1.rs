//! Regenerates the paper's Table 1 (and, with `--compare`, the §5.2
//! invariant-complexity comparison).
//!
//! ```text
//! cargo run --release -p inseq-bench --bin table1 [-- --compare] [--jobs N]
//! ```
//!
//! `--jobs N` runs the seven protocol pipelines as independent jobs on an
//! `inseq-engine` scheduler with `N` threads instead of sequentially.
//!
//! `--json [path]` emits machine-readable rows — per-protocol wall time,
//! visited-configuration count, and edge count — to `path` (conventionally
//! `BENCH_table1.json` at the repo root) or to stdout when no path follows.
//!
//! `--only a,b` restricts the run to protocols whose name contains one of
//! the comma-separated needles (case-insensitive); CI uses this for a cheap
//! bench smoke over the fastest cases.
//!
//! `--stats` appends an observability section to the rendered table:
//! per-protocol interner and mover-cache hit rates, pairwise-check counts,
//! and the slowest premises. The JSON rows always carry these counters.
//!
//! `--exec compiled|interp` selects the DSL evaluation backend for every
//! action in the run: the register-bytecode VM (the default) or the
//! tree-walk reference interpreter. Used to regenerate the before/after
//! rows of `BENCH_table1.json`.
//!
//! `--large` switches to the exploration-throughput tier: the parametric
//! instances of `inseq_protocols::large_exploration_cases()` (10^4–10^6+
//! visited configurations), timed on a selectable engine with configs/sec
//! as the headline metric. Its companions:
//!
//! * `--engine seq|steal|compare` — the sequential kernel, the
//!   work-stealing engine (default), or both interleaved per run, every
//!   steal row cross-checked against the sequential reference;
//! * `--workers a,b` — worker counts for the parallel engines (default
//!   `2,4`);
//! * `--sweep-workers a,b,c` — the scaling-sweep spelling of `--workers`
//!   (mutually exclusive with it): one row per worker count per case, e.g.
//!   `--sweep-workers 1,2,4,8` for the shard-scaling curve that
//!   `BENCH_table1.json` and the CI scaling artifact record;
//! * `--runs N` — measurement repetitions (default 1);
//! * `--reduce off|por|sym|both` — state-space reduction for both engines
//!   (default `off`): ample-set partial-order reduction,
//!   process-id symmetry quotienting (cases with a symmetry spec, currently
//!   Paxos), or both. Rows record pruned-successor and orbit-collapse
//!   counters; cross-engine checks compare verdicts instead of exact
//!   visited counts when reduction is on.
//!
//! `--zoo` runs the same exploration tier over the scenario-zoo protocols
//! (`inseq_protocols::zoo` — programs promoted from the coverage-guided
//! fuzz campaign) instead of the parametric large instances. The zoo's
//! state spaces are tiny; the tier's value is the cross-engine verdict
//! agreement checks over the zoo's deadlock/failure/pass archetypes. All
//! `--large` companions (`--engine`, `--workers`, `--runs`, `--reduce`)
//! apply.
//!
//! `--only`, `--json`, and `--stats` compose with `--large` and `--zoo`;
//! `--jobs`, `--exec`, and `--compare` do not apply to them.

use std::process::ExitCode;

use inseq_core::json;
use inseq_kernel::ExecStats;
use inseq_obs::{EngineSnapshot, HitMissSnapshot};
use inseq_protocols::common::CaseReport;

/// Interner traffic, engine shape, mover-cache traffic, pairwise-check
/// count, and evaluation-backend counters of one row, summed over its IS
/// applications.
struct RowStats {
    intern: HitMissSnapshot,
    engine: EngineSnapshot,
    mover: HitMissSnapshot,
    pairwise: u64,
    exec: ExecStats,
}

fn row_stats(r: &CaseReport) -> RowStats {
    let mut stats = RowStats {
        intern: HitMissSnapshot::default(),
        engine: EngineSnapshot::default(),
        mover: HitMissSnapshot::default(),
        pairwise: 0,
        exec: ExecStats::default(),
    };
    for p in &r.reports {
        stats.intern = stats.intern.merged(p.stats.intern);
        stats.engine = stats.engine.merged(&p.stats.engine);
        stats.mover = stats.mover.merged(p.stats.mover_cache);
        stats.pairwise += p.stats.pairwise_checks;
        stats.exec = stats.exec.merged(p.stats.exec);
    }
    stats
}

fn rows_as_json(rows: &[CaseReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let visited: usize = r.reports.iter().map(|p| p.reachable_configs).sum();
        let edges: usize = r.reports.iter().map(|p| p.edges).sum();
        let stats = row_stats(r);
        let premises: Vec<inseq_obs::PhaseStat> = r
            .reports
            .iter()
            .flat_map(|p| p.stats.premises.iter().cloned())
            .collect();
        out.push_str(&format!(
            "  {{\"example\": \"{}\", \"instance\": \"{}\", \"is_applications\": {}, \
             \"loc_total\": {}, \"loc_is\": {}, \"loc_impl\": {}, \"time_seconds\": {:.6}, \
             \"visited_configs\": {}, \"edges\": {}, {}, {}, {}, \
             \"pairwise_checks\": {}, {}, \"premises\": {}}}",
            json::escape(&r.name),
            json::escape(&r.instance),
            r.is_applications,
            r.loc_total,
            r.loc_is,
            r.loc_impl,
            r.time.as_secs_f64(),
            visited,
            edges,
            json::hit_miss_fields("intern", &stats.intern),
            json::engine_fields(&stats.engine),
            json::hit_miss_fields("mover_cache", &stats.mover),
            stats.pairwise,
            json::exec_fields(&stats.exec),
            json::phases(&premises)
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The `--stats` section: cache effectiveness and the slowest premises per
/// protocol.
fn render_stats(rows: &[CaseReport]) -> String {
    let mut out = String::from("\nObservability (summed over each row's IS applications):\n");
    for r in rows {
        let RowStats {
            intern,
            engine,
            mover,
            pairwise,
            exec,
        } = row_stats(r);
        out.push_str(&format!(
            "  {:<22} interner {intern}; mover cache {mover} over {pairwise} pairwise checks\n",
            r.name
        ));
        if engine.ran() {
            out.push_str(&format!("    engine: {engine}\n"));
        }
        out.push_str(&format!(
            "    exec: {} compiled action(s) ({} ops, {:.3}ms compile), \
             {} VM / {} interp evaluations\n",
            exec.compiled_actions,
            exec.compiled_ops,
            exec.compile_nanos as f64 / 1e6,
            exec.vm_evals,
            exec.interp_evals
        ));
        let mut premises: Vec<_> = r
            .reports
            .iter()
            .flat_map(|p| p.stats.premises.iter())
            .collect();
        premises.sort_by_key(|p| std::cmp::Reverse(p.wall));
        for p in premises.iter().take(3) {
            out.push_str(&format!("    {p}\n"));
        }
    }
    out
}

/// `--json` handling: absent, bare (stdout), or with a target path.
enum JsonMode {
    Off,
    Stdout,
    File(String),
}

fn parse_json_mode(args: &[String]) -> JsonMode {
    for (i, arg) in args.iter().enumerate() {
        if let Some(path) = arg.strip_prefix("--json=") {
            return JsonMode::File(path.to_owned());
        }
        if arg == "--json" {
            return match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => JsonMode::File(next.clone()),
                _ => JsonMode::Stdout,
            };
        }
    }
    JsonMode::Off
}

fn parse_only(args: &[String]) -> Option<Vec<String>> {
    for (i, arg) in args.iter().enumerate() {
        let list = if let Some(v) = arg.strip_prefix("--only=") {
            Some(v.to_owned())
        } else if arg == "--only" {
            args.get(i + 1).cloned()
        } else {
            None
        };
        if let Some(list) = list {
            return Some(
                list.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect(),
            );
        }
    }
    None
}

fn parse_jobs(args: &[String]) -> Result<usize, String> {
    let mut jobs = 1usize;
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_owned())
        } else if arg == "--jobs" {
            Some(
                args.get(i + 1)
                    .cloned()
                    .ok_or("--jobs requires a thread count")?,
            )
        } else {
            None
        };
        if let Some(v) = value {
            jobs = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                format!("invalid --jobs value `{v}` (expected a positive integer)")
            })?;
        }
    }
    Ok(jobs)
}

/// A `--flag value` / `--flag=value` string option.
fn parse_value_of(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&prefix) {
            return Ok(Some(v.to_owned()));
        }
        if arg == flag {
            return args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} requires a value"));
        }
    }
    Ok(None)
}

fn parse_engines(args: &[String]) -> Result<Vec<inseq_bench::LargeEngine>, String> {
    use inseq_bench::LargeEngine;
    match parse_value_of(args, "--engine")?.as_deref() {
        None | Some("steal") => Ok(vec![LargeEngine::Steal]),
        Some("seq") => Ok(vec![LargeEngine::Seq]),
        Some("compare") => Ok(vec![LargeEngine::Seq, LargeEngine::Steal]),
        Some(other) => Err(format!(
            "invalid --engine value `{other}` (expected `seq`, `steal`, or `compare`)"
        )),
    }
}

fn parse_workers(args: &[String]) -> Result<Vec<usize>, String> {
    let sweep = parse_value_of(args, "--sweep-workers")?;
    let plain = parse_value_of(args, "--workers")?;
    if sweep.is_some() && plain.is_some() {
        return Err(
            "--sweep-workers and --workers are mutually exclusive (both set worker counts)"
                .to_owned(),
        );
    }
    let Some(list) = sweep.or(plain) else {
        return Ok(vec![2, 4]);
    };
    let counts: Result<Vec<usize>, _> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                format!("invalid --workers entry `{s}` (expected positive integers)")
            })
        })
        .collect();
    let counts = counts?;
    if counts.is_empty() {
        return Err("--workers requires at least one worker count".to_owned());
    }
    Ok(counts)
}

fn parse_reduce(args: &[String]) -> Result<inseq_kernel::ReduceMode, String> {
    match parse_value_of(args, "--reduce")? {
        None => Ok(inseq_kernel::ReduceMode::Off),
        Some(v) => inseq_kernel::ReduceMode::from_name(&v).ok_or_else(|| {
            format!("invalid --reduce value `{v}` (expected `off`, `por`, `sym`, or `both`)")
        }),
    }
}

fn parse_runs(args: &[String]) -> Result<usize, String> {
    match parse_value_of(args, "--runs")? {
        None => Ok(1),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("invalid --runs value `{v}` (expected a positive integer)")),
    }
}

/// The `--large` / `--zoo` path: run the exploration tier and render or
/// emit JSON.
fn run_large(
    args: &[String],
    json: JsonMode,
    stats: bool,
    only: Option<Vec<String>>,
    zoo: bool,
) -> ExitCode {
    let opts = {
        let engines = match parse_engines(args) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let workers = match parse_workers(args) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let runs = match parse_runs(args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let reduce = match parse_reduce(args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        inseq_bench::LargeOptions {
            engines,
            workers,
            runs,
            only,
            reduce,
            zoo,
        }
    };
    let tier = if zoo { "zoo" } else { "large" };
    let rows = match inseq_bench::large_rows(&opts) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{tier} tier failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match json {
        JsonMode::File(path) => {
            let payload = inseq_bench::large_rows_as_json(&rows);
            if let Err(e) = std::fs::write(&path, &payload) {
                eprintln!("failed to write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} rows to {path}", rows.len());
        }
        JsonMode::Stdout => print!("{}", inseq_bench::large_rows_as_json(&rows)),
        JsonMode::Off => {
            println!(
                "{} exploration tier ({} machine core(s); engines: {})\n",
                if zoo { "Scenario-zoo" } else { "Large" },
                inseq_bench::machine_cores(),
                opts.engines
                    .iter()
                    .map(|e| e.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            print!("{}", inseq_bench::render_large(&rows));
            if stats {
                print!("{}", inseq_bench::render_large_stats(&rows));
            }
        }
    }
    ExitCode::SUCCESS
}

fn parse_exec(args: &[String]) -> Result<Option<inseq_lang::ExecMode>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(v) = arg.strip_prefix("--exec=") {
            Some(v.to_owned())
        } else if arg == "--exec" {
            Some(
                args.get(i + 1)
                    .cloned()
                    .ok_or("--exec requires a backend (compiled|interp)")?,
            )
        } else {
            None
        };
        if let Some(v) = value {
            return match v.as_str() {
                "compiled" => Ok(Some(inseq_lang::ExecMode::Compiled)),
                "interp" => Ok(Some(inseq_lang::ExecMode::Interp)),
                other => Err(format!(
                    "invalid --exec value `{other}` (expected `compiled` or `interp`)"
                )),
            };
        }
    }
    Ok(None)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let compare = args.iter().any(|a| a == "--compare");
    let stats = args.iter().any(|a| a == "--stats");
    match parse_exec(&args) {
        Ok(Some(mode)) => {
            if !inseq_lang::set_default_exec_mode(mode) {
                eprintln!("--exec: evaluation backend was already fixed for this process");
                return ExitCode::FAILURE;
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let json = parse_json_mode(&args);
    let jobs = match parse_jobs(&args) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let only = parse_only(&args);
    let zoo = args.iter().any(|a| a == "--zoo");
    if zoo || args.iter().any(|a| a == "--large") {
        return run_large(&args, json, stats, only, zoo);
    }
    let rows = || {
        if let Some(needles) = &only {
            inseq_bench::table1_rows_only(needles)
        } else if jobs > 1 {
            inseq_bench::table1_rows_with(jobs)
        } else {
            inseq_bench::table1_rows()
        }
    };

    if !matches!(json, JsonMode::Off) {
        match rows() {
            Ok(rows) => {
                let payload = rows_as_json(&rows);
                match json {
                    JsonMode::File(path) => {
                        if let Err(e) = std::fs::write(&path, &payload) {
                            eprintln!("failed to write `{path}`: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote {} rows to {path}", rows.len());
                    }
                    _ => print!("{payload}"),
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("Table 1 generation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("Reproduction of Table 1 (Kragl et al., PLDI 2020)");
    println!("columns: #IS applications, pretty-printed LOC (total / IS artifacts / impl), time\n");
    if jobs > 1 {
        println!("(cases scheduled on {jobs} engine threads)\n");
    }
    match rows() {
        Ok(rows) => {
            print!("{}", inseq_bench::render_table1(&rows));
            if stats {
                print!("{}", render_stats(&rows));
            }
        }
        Err(e) => {
            eprintln!("Table 1 generation failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if compare {
        println!(
            "\n§5.2 invariant-complexity comparison (IS artifacts vs flat inductive invariants)\n"
        );
        match inseq_bench::broadcast_comparison() {
            Ok(c) => println!("{c}\n"),
            Err(e) => {
                eprintln!("broadcast comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        match inseq_bench::paxos_comparison() {
            Ok(c) => println!("{c}"),
            Err(e) => {
                eprintln!("paxos comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
