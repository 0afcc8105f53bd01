//! Layer probes for the traced run: direct, repeated calls into each
//! module's public functions on the workload's own model and city, each
//! inside a span. Every traced run executes all of them, so each workload's
//! trace carries the same per-layer table.

use crate::report::{Metric, ENCODERS, TENSOR_OPS};
use crate::stats::median;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use sthsl_autograd::{load_latest_verified, Graph, ParamStore, TapeObserver, Var};
use sthsl_chaos::{RealIo, RetryPolicy, ThreadSleeper};
use sthsl_core::contrastive::contrastive_loss;
use sthsl_core::embedding::CrimeEmbedding;
use sthsl_core::global_temporal::GlobalTemporal;
use sthsl_core::hypergraph::HypergraphEncoder;
use sthsl_core::infomax::InfomaxHead;
use sthsl_core::local::LocalEncoder;
use sthsl_core::predict::PredictionHead;
use sthsl_core::StHsl;
use sthsl_data::{CrimeDataset, Predictor, Split};
use sthsl_graphcheck::AuditOptions;
use sthsl_obs::{TapeProfiler, WallClock};
use sthsl_tensor::{Result, Tensor, TensorError};

/// Repetitions behind every probe median.
pub const REPS: usize = 5;

/// Windows per `predict_batch` call in the `bn` probe: the new days one
/// `serve_panel` refresh adds.
pub const PANEL_BATCH: usize = crate::serve::PANEL_NEW_DAYS;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Time `f` `REPS` times inside spans named `name`; returns the median in
/// milliseconds.
fn timed<T>(tracer: &Tracer, name: &str, mut f: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let t = Instant::now();
        tracer.span(name, rep as u64, &mut f)?;
        samples.push(ms(t));
    }
    Ok(med(&samples))
}

/// Results of the replayed training step.
pub struct StepReplay {
    pub forward_ms: f64,
    pub backward_ms: f64,
    /// The same step with the tape profiler attached, for the overhead.
    pub profiled_ms: f64,
}

impl StepReplay {
    /// What attaching the tape profiler adds to one replayed sample.
    pub fn profiler_overhead_ms(&self) -> f64 {
        self.profiled_ms - (self.forward_ms + self.backward_ms)
    }
}

/// Every probe that needs only the model and the city. Appends per-layer
/// metrics to `out`; `ckpt_dir` holds an exported checkpoint for the load
/// probe and is removed afterwards.
pub fn run_all(
    tracer: &Tracer,
    model: &StHsl,
    data: &CrimeDataset,
    ckpt_dir: &Path,
    out: &mut Vec<Metric>,
) -> Result<StepReplay> {
    let seed = model.config().seed;

    // graphcheck: the training pre-flight and the serving pre-flight.
    let train_audit = timed(tracer, "graphcheck.train_audit", || {
        let report = model.graph_audit(data)?;
        if report.has_errors() {
            return Err(TensorError::Invalid("training graph audit failed".into()));
        }
        Ok(report)
    })?;
    out.push(Metric::new("graphcheck.train_audit_ms", "ms", train_audit, REPS));
    let serve_audit = timed(tracer, "graphcheck.serve_audit", || serving_audit(model, data))?;
    out.push(Metric::new("graphcheck.serve_audit_ms", "ms", serve_audit, REPS));

    // Checkpoint load, as the server's startup does it.
    std::fs::create_dir_all(ckpt_dir).map_err(io_err)?;
    model
        .export_checkpoint()
        .save(ckpt_dir.join(sthsl_autograd::checkpoint_file_name(1)))
        .map_err(io_err)?;
    let load = timed(tracer, "serve.startup.load", || {
        load_latest_verified(&RealIo, ckpt_dir, RetryPolicy::default_read(), &ThreadSleeper)
            .map_err(io_err)?
            .ok_or_else(|| TensorError::Invalid("exported checkpoint not found".into()))
    })?;
    std::fs::remove_dir_all(ckpt_dir).ok();
    out.push(Metric::new("serve.startup.load_ms", "ms", load, REPS));

    // autograd + tensor: one replayed training sample, plain and profiled.
    let replay = replay_step(tracer, model, data, seed, out)?;

    encoder_probes(tracer, model, data, seed, out)?;

    // data: one training sample plus its z-scoring.
    let days = data.target_days(Split::Train);
    let mut per_sample = Vec::new();
    tracer.span("data.sample", 0, || -> Result<()> {
        for &day in days.iter().cycle().take(200) {
            let t = Instant::now();
            let s = data.sample(day)?;
            std::hint::black_box(data.zscore(&s.input));
            per_sample.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })?;
    out.push(Metric::new("data.sample_us", "us", med(&per_sample), per_sample.len()));

    // Batched inference at B = 1 and at the panel's B.
    let windows: Vec<Tensor> = days
        .iter()
        .take(PANEL_BATCH)
        .map(|&d| data.sample(d).map(|s| s.input))
        .collect::<Result<_>>()?;
    let b1 = timed(tracer, "core.predict_batch.b1", || model.predict_batch(data, &[&windows[0]]))?;
    out.push(Metric::new("core.predict_batch.b1_ms", "ms", b1, REPS));
    let refs: Vec<&Tensor> = windows.iter().collect();
    let bn = timed(tracer, "core.predict_batch.bn", || model.predict_batch(data, &refs))?;
    let per_window = bn / refs.len() as f64;
    out.push(
        Metric::new("core.predict_batch.bn_ms_per_window", "ms", per_window, REPS)
            .with_note(format!("B={}", refs.len())),
    );
    Ok(replay)
}

/// The engine's startup audit over the serving tape.
fn serving_audit(model: &StHsl, data: &CrimeDataset) -> Result<()> {
    let (g, root, params) = model.serving_artifacts(data)?;
    let spec = g.export_tape();
    let indexed: Vec<(String, usize)> =
        params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
    let opts = AuditOptions {
        allow_unreachable: model.expected_serving_inactive_prefixes(),
        ..AuditOptions::default()
    };
    let report = sthsl_graphcheck::audit("ST-HSL", &spec, root.index(), &indexed, &opts);
    if report.has_errors() {
        return Err(TensorError::Invalid("serving graph audit failed".into()));
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> TensorError {
    TensorError::Invalid(e.to_string())
}

/// `core.evaluate_s`: the full test-split evaluation.
pub fn evaluate(tracer: &Tracer, model: &StHsl, data: &CrimeDataset) -> Result<(f64, f64)> {
    let t = Instant::now();
    let report = tracer.span("core.evaluate", 0, || model.evaluate(data))?;
    Ok((t.elapsed().as_secs_f64(), report.mae_overall()))
}

/// Replay one training sample (`record_training_graph` + `Graph::backward`)
/// `REPS` times without an observer, then `REPS` times with the tape
/// profiler attached, and join the profiler's per-op times with the cost
/// model's FLOPs for the same tape.
fn replay_step(
    tracer: &Tracer,
    model: &StHsl,
    data: &CrimeDataset,
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<StepReplay> {
    let (mut fwd, mut bwd, mut nodes) = (Vec::new(), Vec::new(), 0usize);
    for rep in 0..REPS {
        tracer.span("autograd.replay_step", rep as u64, || -> Result<()> {
            let g = Graph::training(seed);
            let t = Instant::now();
            let (loss, _) = tracer
                .span("autograd.forward", rep as u64, || model.record_training_graph(&g, data))?;
            fwd.push(ms(t));
            nodes = g.export_tape().nodes.len();
            let t = Instant::now();
            tracer.span("autograd.backward", rep as u64, || g.backward(loss))?;
            bwd.push(ms(t));
            Ok(())
        })?;
    }
    out.push(Metric::new("autograd.forward_ms", "ms", med(&fwd), REPS));
    out.push(Metric::new("autograd.backward_ms", "ms", med(&bwd), REPS));
    out.push(Metric::new("autograd.tape_nodes", "count", nodes as f64, 1));

    let profiler = TapeProfiler::shared(Rc::new(WallClock::new()));
    let mut profiled = Vec::new();
    for rep in 0..REPS {
        tracer.span("tensor.profiled_step", rep as u64, || -> Result<()> {
            let g = Graph::training(seed);
            g.set_observer(Rc::clone(&profiler) as Rc<dyn TapeObserver>);
            let t = Instant::now();
            profiler.mark();
            let (loss, _) = model.record_training_graph(&g, data)?;
            profiler.mark();
            g.backward(loss)?;
            profiled.push(ms(t));
            Ok(())
        })?;
    }
    let cost = model
        .graph_audit(data)?
        .cost
        .ok_or_else(|| TensorError::Invalid("audit produced no cost table".into()))?;
    let report = profiler.report(usize::MAX);
    let per_rep_ns = |op: &str| -> f64 {
        report.rows.iter().filter(|r| r.name == op).map(|r| r.total_ns as f64).sum::<f64>()
            / REPS as f64
    };
    let flops = |op: &str| cost.per_family.get(op).map_or(0.0, |r| r.total_flops() as f64);
    let gflops = |f: f64, ns: f64| if ns > 0.0 { f / ns } else { 0.0 };
    for &(op, has_flops) in TENSOR_OPS {
        let ns = per_rep_ns(op);
        out.push(Metric::new(&format!("tensor.{op}.ms"), "ms", ns / 1e6, REPS));
        if has_flops {
            let rate = gflops(flops(op), ns);
            out.push(Metric::new(&format!("tensor.{op}.gflops"), "GFLOP/s", rate, REPS));
        }
    }
    let total_ns = report.total_ns as f64 / REPS as f64;
    let total = gflops(cost.total_flops() as f64, total_ns);
    out.push(Metric::new("tensor.total_gflops", "GFLOP/s", total, REPS));
    Ok(StepReplay { forward_ms: med(&fwd), backward_ms: med(&bwd), profiled_ms: med(&profiled) })
}

/// Registers an encoder on a fresh store, sets up its inputs on the graph
/// and times its forward call; returns the output and milliseconds.
type EncoderBuild<'a> =
    dyn Fn(&Graph, &mut ParamStore, &mut StdRng, &Tracer) -> Result<(Var, f64)> + 'a;

/// Time one encoder call inside a span; returns its output and milliseconds.
fn fwd_call(tracer: &Tracer, span: &str, f: impl FnOnce() -> Result<Var>) -> Result<(Var, f64)> {
    let t = Instant::now();
    let out = tracer.span(span, 0, f)?;
    Ok((out, ms(t)))
}

/// One encoder probe: a fresh store, graph and inputs per repetition;
/// `build` registers the encoder, sets up its inputs and times its forward
/// call with [`fwd_call`]. Backward runs from the output's mean (or from
/// the output itself when it is already a scalar loss).
fn encoder_probe(
    tracer: &Tracer,
    name: &str,
    seed: u64,
    build: &EncoderBuild<'_>,
) -> Result<(f64, f64)> {
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
        let mut store = ParamStore::new();
        let g = Graph::training(seed);
        let (out, fwd_ms) = build(&g, &mut store, &mut rng, tracer)?;
        fwd.push(fwd_ms);
        let loss =
            if g.shape_of(out)?.iter().product::<usize>() == 1 { out } else { g.mean_all(out) };
        let t = Instant::now();
        tracer.span(&format!("core.{name}.bwd"), rep as u64, || g.backward(loss))?;
        bwd.push(ms(t));
    }
    Ok((med(&fwd), med(&bwd)))
}

/// `core.<encoder>.{fwd_ms,bwd_ms}` on the model's shapes. The forward
/// time covers only the encoder's own call: the random inputs, created as
/// gradient-carrying leaves (as the upstream activations are in training),
/// and the parameter injection are set up before the clock starts.
fn encoder_probes(
    tracer: &Tracer,
    model: &StHsl,
    data: &CrimeDataset,
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<()> {
    let cfg = model.config().clone();
    let (rows, cols) = model.grid();
    let (r, c, d, tw) = (rows * cols, data.num_categories(), cfg.d, data.config.window);
    let day = *data
        .target_days(Split::Train)
        .first()
        .ok_or_else(|| TensorError::Invalid("no training days".into()))?;
    let z = data.zscore(&data.sample(day)?.input);
    let leaf = |g: &Graph, rng: &mut StdRng, shape: &[usize]| {
        g.leaf(Tensor::rand_normal(shape, 0.0, 1.0, rng))
    };
    let head_in = if cfg.ablation.fusion { 2 * d } else { d };

    for name in ENCODERS {
        let span = format!("core.{name}.fwd");
        let (f, b) = match *name {
            "embedding" => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = CrimeEmbedding::new(store, c, d, rng);
                let pv = store.inject(g);
                fwd_call(tr, &span, || enc.forward(g, &pv, &z))
            })?,
            "local" => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = LocalEncoder::new(store, &cfg, rows, cols, c, rng);
                let pv = store.inject(g);
                let e = leaf(g, rng, &[r, tw, c, d]);
                fwd_call(tr, &span, || enc.forward(g, &pv, e))
            })?,
            "hypergraph" => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = HypergraphEncoder::new(
                    store,
                    cfg.num_hyperedges,
                    r * c,
                    tw,
                    cfg.time_dependent_hypergraph,
                    cfg.sparse_propagation,
                    rng,
                );
                let pv = store.inject(g);
                let e = leaf(g, rng, &[tw, r * c, d]);
                fwd_call(tr, &span, || enc.forward(g, &pv, e))
            })?,
            "global_temporal" => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = GlobalTemporal::new(store, &cfg, rng);
                let pv = store.inject(g);
                let e = leaf(g, rng, &[tw, r * c, d]);
                fwd_call(tr, &span, || enc.forward(g, &pv, e))
            })?,
            "infomax" => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = InfomaxHead::new(store, d, rng);
                let pv = store.inject(g);
                let gamma = leaf(g, rng, &[tw, r * c, d]);
                let corrupt = leaf(g, rng, &[tw, r * c, d]);
                fwd_call(tr, &span, || enc.loss(g, &pv, gamma, corrupt, r, c))
            })?,
            "contrastive" => encoder_probe(tracer, name, seed, &|g, _store, rng, tr| {
                let local = leaf(g, rng, &[r, c, d]);
                let global = leaf(g, rng, &[r, c, d]);
                fwd_call(tr, &span, || contrastive_loss(g, local, global, cfg.tau))
            })?,
            _ => encoder_probe(tracer, name, seed, &|g, store, rng, tr| {
                let enc = PredictionHead::new(store, head_in, rng);
                let pv = store.inject(g);
                let pooled = leaf(g, rng, &[r, c, head_in]);
                fwd_call(tr, &span, || enc.forward(g, &pv, pooled))
            })?,
        };
        out.push(Metric::new(&format!("core.{name}.fwd_ms"), "ms", f, REPS));
        out.push(Metric::new(&format!("core.{name}.bwd_ms"), "ms", b, REPS));
    }
    Ok(())
}
