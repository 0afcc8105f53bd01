//! `sthsl-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve_cold|serve_warm|serve_panel|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric and writes its spans to
//! `.bench_out/`. The last line of standard output is always the result
//! document `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 only when every output checked out. `--workload all` runs each
//! workload in its own child process and summarises them.
//! See `perfbench/README.md`.

mod host;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Metric, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use sthsl_obs::Json;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["train", "serve_cold", "serve_warm", "serve_panel"];

/// A seed kept out of tuning: claims are re-checked on it.
pub const VERIFICATION_SEED: u64 = 20_221_023;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where runs leave traces, checkpoints and repeat records.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            out_dir: PathBuf::from(".bench_out"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all, not '{}'",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }

    /// A per-run directory under `out_dir` (unique per process).
    pub fn run_dir(&self, tag: &str) -> PathBuf {
        self.out_dir.join(format!("{tag}-{}-{}-{}", self.workload, self.seed, std::process::id()))
    }
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let ticks_before = host::cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "train" => train::run(args, &tracer),
        "serve_cold" => serve::run(serve::Kind::Cold, args, &tracer),
        "serve_warm" => serve::run(serve::Kind::Warm, args, &tracer),
        "serve_panel" => serve::run(serve::Kind::Panel, args, &tracer),
        other => return Err(format!("unknown workload {other}")),
    }
    .map_err(|e| e.to_string())?;
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, host::cpu_ticks()) {
        let share = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        outcome.info("host_steal_share", Json::Float(share));
    }
    let want = if args.trace {
        outcome.metrics.extend([
            Metric::new("trace.overhead_ms", "ms", tracer.cost_ms(), tracer.len())
                .with_note("time spent in the tracer's own span bookkeeping during the run"),
            Metric::new("trace.spans", "count", tracer.len() as f64, 1),
        ]);
        let order: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
        outcome
            .metrics
            .sort_by_key(|m| order.iter().position(|n| *n == m.name).unwrap_or(usize::MAX));
        let path = args.out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.info("trace_file", Json::Str(path.display().to_string()));
        println!("self time by span (top 20):");
        let mut totals: Vec<_> = tracer.totals().into_iter().collect();
        totals.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
        for (name, t) in totals.iter().take(20) {
            println!(
                "  {:<36} self {:>12.3} ms  total {:>12.3} ms  n={}",
                name,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6,
                t.count
            );
        }
        report::per_layer()
    } else {
        report::end_to_end()
    };
    if let Err(why) = report::check_catalogue(&outcome.metrics, &want) {
        outcome.fail(format!("metric catalogue: {why}"));
    }
    Ok(outcome)
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    let ctx = Json::Obj(host::describe(&args.workload, args.seed, args.seconds, args.trace));
    println!("context {}", ctx.render());
    println!("metrics ({}):", if args.trace { "per-layer, traced run" } else { "end-to-end" });
    print!("{}", report::render_table(&outcome.metrics));
    if !outcome.reported.is_empty() {
        println!("reported, not gated:");
        print!("{}", report::render_table(&outcome.reported));
    }
    println!("info {}", Json::Obj(outcome.info.clone()).render());
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
    println!("{}", report::result_json(outcome).render());
}

/// `--workload all`: each workload in its own child process.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = Outcome { correct: true, ..Outcome::default() };
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        println!("=== {w}");
        print!("{text}");
        let doc = text.lines().last().and_then(|l| sthsl_obs::parse_json(l).ok());
        let Some(doc) = doc.filter(|_| output.status.success()) else {
            total.fail(format!("{w}: exited with {}", output.status));
            continue;
        };
        total.attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        total.failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            total.metrics.push(Metric::new(&format!("{w}.{name}"), unit, value, 1));
        }
    }
    Ok(total)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "sthsl-perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.workload == "all" { run_all(&args) } else { run_one(&args) };
    match result {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
