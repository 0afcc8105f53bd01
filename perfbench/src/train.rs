//! The `train` workload: `StHsl::new` + `TrainLoop::run` over a fixed epoch
//! budget on the quick-scale NYC city, then `Predictor::evaluate` on the
//! test split.

use crate::host;
use crate::probes::{self, StepReplay};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use sthsl_bench::{City, Scale};
use sthsl_core::{
    BatchCtx, EpochCtx, Fault, HookAction, StHsl, TrainHooks, TrainLoop, TrainOptions,
};
use sthsl_data::predictor::sanitize_counts;
use sthsl_data::{CrimeDataset, EvalReport, Split};
use sthsl_obs::Json;
use sthsl_tensor::{Result, TensorError};

/// Wall-clock limit a training step must meet to count towards goodput.
pub const STEP_LIMIT_MS: f64 = 2000.0;

/// A trained model whose test MAE exceeds this multiple of the window-mean
/// forecast's is broken, whatever its speed. At the seed commit the ratio
/// is 1.05–1.35 after the 2-epoch budget.
const MAE_GUARD: f64 = 2.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Seconds of training each epoch of the budget stands for: the budget is
/// `seconds / SECONDS_PER_EPOCH` epochs (at least one), so a given
/// `--seconds` always trains the same number of epochs.
const SECONDS_PER_EPOCH: u64 = 5;

pub fn epochs_for(seconds: u64) -> usize {
    usize::try_from((seconds / SECONDS_PER_EPOCH).max(1)).unwrap_or(1)
}

/// Timestamps every boundary `TrainLoop` exposes. `inject_fault` fires once
/// the batch's loss is computed (all forwards done), `on_batch_end` after
/// backward and the optimizer step, `on_epoch_end` after the epoch.
#[derive(Default)]
struct StepClock {
    forward_done: Vec<Instant>,
    batch_end: Vec<Instant>,
    epoch_end: Vec<Instant>,
    losses: Vec<f64>,
}

impl TrainHooks for StepClock {
    fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
        self.forward_done.push(Instant::now());
        self.losses.push(ctx.loss);
        None
    }

    fn on_batch_end(&mut self, _ctx: &BatchCtx) -> HookAction {
        self.batch_end.push(Instant::now());
        HookAction::Continue
    }

    fn on_epoch_end(&mut self, _ctx: &EpochCtx) -> HookAction {
        self.epoch_end.push(Instant::now());
        HookAction::Continue
    }
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (_city, data) = Scale::Quick.build_dataset(City::Nyc, args.seed)?;
    let mut cfg = Scale::Quick.sthsl_config(args.seed);
    cfg.epochs = epochs_for(args.seconds);
    let batch = cfg.batch_size;
    let want_steps = cfg.epochs.saturating_mul(cfg.max_batches_per_epoch.unwrap_or(usize::MAX));

    // Set-up: model build plus the graphcheck pre-flight the loop runs
    // before its first step.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        tracer.span("train.setup", rep as u64, || -> Result<()> {
            let model =
                tracer.span("core.model_build", rep as u64, || StHsl::new(cfg.clone(), &data))?;
            let audit =
                tracer.span("graphcheck.train_audit", rep as u64, || model.graph_audit(&data))?;
            if audit.has_errors() {
                out.fail("graph audit reports errors before training");
            }
            Ok(())
        })?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut model = StHsl::new(cfg.clone(), &data)?;
    let mut clock = StepClock::default();
    let t_run = Instant::now();
    let trained = TrainLoop::new(TrainOptions::default()).run(&mut model, &data, &mut clock)?;
    let (eval_s, test_mae) = probes::evaluate(tracer, &model, &data)?;
    let rss = crate::host::peak_rss_mb().unwrap_or(0.0);

    // Correctness: finite losses, no divergence recovery, the full budget.
    let steps = clock.batch_end.len();
    out.attempted = u64::try_from(steps).unwrap_or(u64::MAX);
    if !trained.report.final_loss.is_finite() || clock.losses.iter().any(|l| !l.is_finite()) {
        out.fail("non-finite training loss");
    }
    if trained.divergence_events > 0 {
        out.fail(format!("{} divergence recoveries", trained.divergence_events));
    }
    if steps != want_steps || clock.epoch_end.len() != cfg.epochs {
        out.fail(format!(
            "ran {steps} steps in {} epochs, configured {want_steps} in {}",
            clock.epoch_end.len(),
            cfg.epochs
        ));
    }
    let naive_mae = naive_test_mae(&data)?;
    if !test_mae.is_finite() || test_mae <= 0.0 || test_mae > MAE_GUARD * naive_mae {
        out.fail(format!(
            "test MAE {test_mae} is not a positive number within {MAE_GUARD} x the window-mean forecast's {naive_mae}"
        ));
    }
    check_repeatable(&mut out, args, &data, test_mae, trained.report.final_loss);
    out.failed = u64::from(!out.correct);

    // Step intervals: consecutive batch ends. The first step is left out:
    // its interval would include the loop's own pre-flight audit.
    let step_ms: Vec<f64> = clock.batch_end.windows(2).map(|w| ms_between(w[0], w[1])).collect();
    let mut sorted_steps = step_ms.clone();
    sorted_steps.sort_by(f64::total_cmp);
    let span_s = match (clock.batch_end.first(), clock.batch_end.last()) {
        (Some(&a), Some(&b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let windows = (step_ms.len() * batch) as f64;
    let good = (step_ms.iter().filter(|&&s| s <= STEP_LIMIT_MS).count() * batch) as f64;
    let rate = |n: f64| if span_s > 0.0 { n / span_s } else { 0.0 };
    let mut epochs_s = Vec::new();
    let mut prev = t_run;
    for &e in &clock.epoch_end {
        epochs_s.push(e.saturating_duration_since(prev).as_secs_f64());
        prev = e;
    }

    if !args.trace {
        out.metrics = vec![
            Metric::new("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len()),
            Metric::new("peak_rss_mb", "MiB", rss, 1),
            Metric::new("throughput_rps", "1/s", rate(windows), step_ms.len())
                .with_note("training windows per second"),
            Metric::new("goodput_rps", "1/s", rate(good), step_ms.len())
                .with_note(format!("windows in steps within {STEP_LIMIT_MS} ms")),
            Metric::new(
                "latency_p50_ms",
                "ms",
                percentile(&sorted_steps, 0.5).unwrap_or(0.0),
                step_ms.len(),
            )
            .with_note("optimizer step"),
        ];
    }
    let (tail_ms, label) = tail(&step_ms).unwrap_or((0.0, "none"));
    out.reported = vec![
        Metric::new("latency_tail_ms", "ms", tail_ms, step_ms.len())
            .with_note(format!("{label} of optimizer steps")),
        Metric::new("epoch_s", "s/epoch", median(&epochs_s).unwrap_or(0.0), epochs_s.len())
            .with_note("median epoch wall time"),
        Metric::new("test_mae", "crimes", test_mae, 1).with_note("masked MAE, test split"),
        Metric::new("naive_mae", "crimes", naive_mae, 1)
            .with_note("window-mean forecast, same split"),
        Metric::new("error_rate", "fraction", if out.correct { 0.0 } else { 1.0 }, 1),
    ];

    let as_f = Json::Float;
    out.info("epoch_s_each", Json::Arr(epochs_s.iter().copied().map(as_f).collect()));
    out.info("final_loss", as_f(trained.report.final_loss));
    out.info("steps", Json::Int(i64::try_from(steps).unwrap_or(i64::MAX)));
    out.info("steps_configured", Json::Int(i64::try_from(want_steps).unwrap_or(i64::MAX)));
    out.info("epochs", Json::Int(i64::try_from(cfg.epochs).unwrap_or(i64::MAX)));
    out.info("evaluate_s", as_f(eval_s));

    if args.trace {
        trace_layers(args, tracer, &clock, t_run, &model, &data, &mut out)?;
        out.metrics.push(Metric::new("core.evaluate_s", "s", eval_s, 1));
    }
    Ok(out)
}

/// Masked MAE of the window-mean forecast (each region and category's mean
/// over the input window) on the test split: the floor a trained model has
/// to stay near.
fn naive_test_mae(data: &CrimeDataset) -> Result<f64> {
    let mut report = EvalReport::new(data.num_categories());
    for day in data.target_days(Split::Test) {
        let sample = data.sample(day)?;
        report.add_day(&sanitize_counts(sample.input.mean_axis(1)?), &sample.target)?;
    }
    Ok(report.mae_overall())
}

/// `test_mae` and the final loss must repeat exactly for the same build,
/// seed, epoch budget and kernel thread count. The first run in a checkout
/// records them under `.bench_out/`; later runs compare. The build is part
/// of the key, so a change that alters the numerics records its own value
/// instead of failing against another build's.
fn check_repeatable(out: &mut Outcome, args: &Args, data: &CrimeDataset, mae: f64, loss: f64) {
    let Some(build) = host::build_id() else {
        out.info("repeat_check", Json::Str("unrecorded: build unidentified".into()));
        return;
    };
    let threads = sthsl_parallel::num_threads();
    let key = format!(
        "train-build{build}-seed{}-epochs{}-threads{threads}-days{}",
        args.seed,
        epochs_for(args.seconds),
        data.num_days()
    );
    let path = args.out_dir.join("repeat").join(key);
    let now = format!("{:016x} {:016x}", mae.to_bits(), loss.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() == now => out.info("repeat_check", Json::Str("matched".into())),
        Ok(before) => out.fail(format!(
            "test_mae/final loss bits {now} differ from an earlier same-seed run's {}",
            before.trim()
        )),
        Err(_) => {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, &now));
            out.info(
                "repeat_check",
                Json::Str(if written.is_ok() { "recorded" } else { "unrecorded" }.into()),
            );
        }
    }
}

/// Traced-run extras: every layer probe on the trained model, the trainer
/// rows from this run's hook timestamps, and a short `serve_cold` session
/// for the serve rows.
fn trace_layers(
    args: &Args,
    tracer: &Tracer,
    clock: &StepClock,
    t_run: Instant,
    model: &StHsl,
    data: &CrimeDataset,
    out: &mut Outcome,
) -> Result<()> {
    let replay =
        probes::run_all(tracer, model, data, &args.run_dir("probe-ckpt"), &mut out.metrics)?;
    out.metrics.extend(trainer_metrics(tracer, clock, t_run, model.config().batch_size, &replay));
    out.info("profiler_overhead_ms", Json::Float(replay.profiler_overhead_ms()));
    out.metrics.extend(crate::serve::serve_probe(args, tracer)?);
    Ok(())
}

/// Epochs the trainer probe of a traced serving run trains: two, so one
/// epoch boundary gives the epoch overhead.
const PROBE_EPOCHS: usize = 2;

/// The `trainer.*` rows for a traced run of a workload that does not
/// train: a short `TrainLoop` run on the same seed's city and model.
pub fn trainer_probe(args: &Args, tracer: &Tracer, replay: &StepReplay) -> Result<Vec<Metric>> {
    let (_city, data) = Scale::Quick.build_dataset(City::Nyc, args.seed)?;
    let mut cfg = Scale::Quick.sthsl_config(args.seed);
    cfg.epochs = PROBE_EPOCHS;
    let mut model = StHsl::new(cfg, &data)?;
    let mut clock = StepClock::default();
    let t_run = Instant::now();
    let trained = TrainLoop::new(TrainOptions::default()).run(&mut model, &data, &mut clock)?;
    if !trained.report.final_loss.is_finite() {
        return Err(TensorError::Invalid("trainer probe: non-finite loss".into()));
    }
    Ok(trainer_metrics(tracer, &clock, t_run, model.config().batch_size, replay))
}

/// The trainer's span tree, rebuilt from the hook timestamps
/// (`train.epoch` > `train.step` > `train.step.forward`,
/// `train.step.backward`), and the `trainer.*` rows.
fn trainer_metrics(
    tracer: &Tracer,
    clock: &StepClock,
    t_run: Instant,
    batch: usize,
    replay: &StepReplay,
) -> Vec<Metric> {
    let per_epoch = (clock.batch_end.len() / clock.epoch_end.len().max(1)).max(1);
    let mut prev = t_run;
    let mut epoch_start = t_run;
    let mut epoch_idx = None;
    for (i, (&fwd, &end)) in clock.forward_done.iter().zip(&clock.batch_end).enumerate() {
        if i % per_epoch == 0 {
            let e = i / per_epoch;
            let e_end = clock.epoch_end.get(e).copied().unwrap_or(end);
            epoch_idx = tracer.record(
                "train.epoch",
                e as u64,
                None,
                tracer.at(epoch_start),
                tracer.at(e_end),
            );
            epoch_start = e_end;
        }
        let step =
            tracer.record("train.step", i as u64, epoch_idx, tracer.at(prev), tracer.at(end));
        tracer.record("train.step.forward", i as u64, step, tracer.at(prev), tracer.at(fwd));
        tracer.record("train.step.backward", i as u64, step, tracer.at(fwd), tracer.at(end));
        prev = end;
    }

    let steps: Vec<f64> = clock.batch_end.windows(2).map(|w| ms_between(w[0], w[1])).collect();
    let step_med = median(&steps).unwrap_or(0.0);
    let (step_tail, label) = tail(&steps).unwrap_or((0.0, "none"));
    // Epoch overhead: each later epoch's wall time minus its steps, with
    // the epoch's first step (whose start the loop does not expose) taken
    // at the median step time.
    let mut overheads = Vec::new();
    for e in 1..clock.epoch_end.len() {
        let lo = e * per_epoch;
        let Some(inner) = clock.batch_end.get(lo..lo + per_epoch) else { continue };
        let inside: f64 = inner.windows(2).map(|w| ms_between(w[0], w[1])).sum();
        let epoch_ms = ms_between(clock.epoch_end[e - 1], clock.epoch_end[e]);
        overheads.push(epoch_ms - inside - step_med);
    }
    let per_step_samples = batch as f64 * (replay.forward_ms + replay.backward_ms);
    vec![
        Metric::new("trainer.step_ms", "ms", step_med, steps.len()),
        Metric::new("trainer.step_tail_ms", "ms", step_tail, steps.len()).with_note(label),
        Metric::new("trainer.step_residual_ms", "ms", step_med - per_step_samples, steps.len())
            .with_note(format!("step minus {batch} replayed sample forward+backward")),
        Metric::new(
            "trainer.epoch_overhead_ms",
            "ms",
            median(&overheads).unwrap_or(0.0),
            overheads.len(),
        ),
        Metric::new("trainer.steps", "count", clock.batch_end.len() as f64, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_follows_seconds() {
        assert_eq!(epochs_for(1), 1);
        assert_eq!(epochs_for(10), 2);
        assert_eq!(epochs_for(12), 2);
        assert_eq!(epochs_for(15), 3);
    }

    #[test]
    #[ignore = "full training workload; run with --release -- --ignored --test-threads 1"]
    fn train_runs_the_full_configured_batch_count() {
        let args = Args {
            workload: "train".into(),
            seed: 1,
            seconds: 10,
            trace: false,
            out_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out/test").into(),
        };
        let out = run(&args, &Tracer::new(false)).expect("train runs");
        assert!(out.correct, "{:?}", out.problems);
        let get = |k: &str| out.info.iter().find(|(n, _)| n == k).and_then(|(_, v)| v.as_i64());
        assert_eq!(get("steps"), Some(24));
        assert_eq!(get("steps"), get("steps_configured"));
    }
}
