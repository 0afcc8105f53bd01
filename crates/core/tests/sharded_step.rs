//! `TrainLoop` runs each sample of a batch on its own tape in its own pool
//! shard, then folds the per-sample gradient terms. This suite keeps a
//! single-tape batch step — every sample of a batch recorded on one
//! `Graph::training(seed ^ step)`, losses summed onto a zero and scaled by
//! `1/n`, one `backward` — as the reference, and requires the loop to match
//! it bit for bit: every batch loss, every gradient norm and the final
//! parameters, at 1, 2, 4 and 8 threads, for batch sizes with and without a
//! partial last chunk, and for the ablations that change the number of
//! dropout draws per sample. Validation, which runs each day in its own
//! shard, must likewise give the same loss bits at every thread count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sthsl_autograd::optim::{global_grad_norm, Adam, Optimizer};
use sthsl_autograd::{Graph, ParamStore};
use sthsl_core::infomax::corruption_permutation;
use sthsl_core::{
    Ablation, BatchCtx, EpochCtx, HookAction, StHsl, StHslConfig, TrainHooks, TrainLoop,
    TrainOptions,
};
use sthsl_data::{CrimeDataset, DatasetConfig, Split, SynthCity, SynthConfig};
use sthsl_tensor::Tensor;

/// The trainer's seed-derivation salts and mixer, restated so the reference
/// draws the same day order and corruption permutations.
const SHUFFLE_SALT: u64 = 0x5348_5546_464c_4531;
const PERM_SALT: u64 = 0x434f_5252_5550_5431;

fn mix(seed: u64, salt: u64, counter: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serialises the tests: the thread count is process-global.
fn config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 50)).unwrap();
    let data = CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
    )
    .unwrap();
    let days = data.target_days(Split::Train).len();
    let short = |batch: usize| !days.is_multiple_of(batch);
    assert!(short(3) && short(5), "{days} training days: batches 3 and 5 must end short");
    data
}

fn cfg(batch_size: usize, ablation: Ablation) -> StHslConfig {
    StHslConfig {
        d: 4,
        num_hyperedges: 6,
        epochs: 2,
        batch_size,
        max_batches_per_epoch: None,
        ..StHslConfig::quick()
    }
    .with_ablation(ablation)
}

/// `(loss, grad_norm)` bits of every step, in order.
type StepBits = Vec<(u64, u64)>;

fn param_bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store.ids().map(|id| store.get(id).data().iter().map(|v| v.to_bits()).collect()).collect()
}

/// The single-tape batch step, run for the configured epochs from `model`'s
/// initial parameters (the model itself is left untouched).
fn reference_run(model: &StHsl, data: &CrimeDataset) -> (StepBits, Vec<Vec<u32>>) {
    let cfg = model.config().clone();
    let mut store = model.export_checkpoint().params;
    let mut opt = Adam::with_weight_decay(cfg.lr, 2.0 * cfg.lambda3);
    opt.max_grad_norm = Some(5.0);
    let sorted_days = data.target_days(Split::Train);
    let mut steps = Vec::new();
    let mut global_step = 0u64;
    for epoch in 0..cfg.epochs {
        opt.lr = cfg.lr_schedule.lr_at(epoch, cfg.lr);
        let mut days = sorted_days.clone();
        days.shuffle(&mut StdRng::seed_from_u64(mix(cfg.seed, SHUFFLE_SALT, epoch as u64)));
        for chunk in days.chunks(cfg.batch_size) {
            global_step += 1;
            let g = Graph::training(cfg.seed ^ global_step);
            let pv = store.inject(&g);
            let mut perm_rng = StdRng::seed_from_u64(mix(cfg.seed, PERM_SALT, global_step));
            let mut loss = g.constant(Tensor::scalar(0.0));
            for &day in chunk {
                let sample = data.sample(day).unwrap();
                let z = data.zscore(&sample.input);
                let perm = corruption_permutation(data.num_regions(), &mut perm_rng);
                let l = model.sample_loss(&g, &pv, &z, &sample.target, Some(&perm)).unwrap();
                loss = g.add(loss, l).unwrap();
            }
            let loss = g.scale(loss, 1.0 / chunk.len() as f32);
            let lv = g.value(loss).item().unwrap();
            let grads = g.backward(loss).unwrap();
            let norm = global_grad_norm(&store, &pv, &grads);
            opt.step(&mut store, &pv, &grads).unwrap();
            steps.push((f64::from(lv).to_bits(), norm.to_bits()));
        }
    }
    (steps, param_bits(&store))
}

#[derive(Default)]
struct Recorder(StepBits);

impl TrainHooks for Recorder {
    fn on_batch_end(&mut self, ctx: &BatchCtx) -> HookAction {
        let norm = ctx.grad_norm.expect("grad norm at batch end");
        self.0.push((ctx.loss.to_bits(), norm.to_bits()));
        HookAction::Continue
    }
}

fn train_loop_run(cfg: StHslConfig, data: &CrimeDataset) -> (StepBits, Vec<Vec<u32>>) {
    let mut model = StHsl::new(cfg, data).unwrap();
    let mut hooks = Recorder::default();
    TrainLoop::new(TrainOptions::default()).run(&mut model, data, &mut hooks).unwrap();
    (hooks.0, param_bits(&model.export_checkpoint().params))
}

fn assert_matches_reference(label: &str, cfg: StHslConfig, data: &CrimeDataset, threads: &[usize]) {
    let reference = StHsl::new(cfg.clone(), data).unwrap();
    let (want_steps, want_params) = reference_run(&reference, data);
    let batches = data.target_days(Split::Train).len().div_ceil(cfg.batch_size);
    assert_eq!(want_steps.len(), cfg.epochs * batches, "{label}");
    for &t in threads {
        sthsl_parallel::set_num_threads(t);
        let (steps, params) = train_loop_run(cfg.clone(), data);
        for (i, (got, want)) in steps.iter().zip(&want_steps).enumerate() {
            assert_eq!(got.0, want.0, "{label}, {t} threads: loss of step {}", i + 1);
            assert_eq!(got.1, want.1, "{label}, {t} threads: grad norm of step {}", i + 1);
        }
        assert_eq!(steps.len(), want_steps.len(), "{label}, {t} threads: step count");
        assert!(params == want_params, "{label}, {t} threads: final parameters differ");
    }
    sthsl_parallel::set_num_threads(0);
}

#[test]
fn sharded_step_matches_single_tape_batches_at_every_thread_count() {
    let _guard = config_lock();
    let data = dataset();
    for batch in [1, 3, 4, 5] {
        let label = format!("full, batch {batch}");
        assert_matches_reference(&label, cfg(batch, Ablation::full()), &data, &[1, 2, 4, 8]);
    }
}

#[test]
fn sharded_step_matches_single_tape_batches_for_every_draw_count() {
    let _guard = config_lock();
    let data = dataset();
    let variants = [
        ("w/o Local", Ablation::without_local()),
        ("w/o T-Conv", Ablation::without_temporal_conv()),
        ("w/o GlobalTem", Ablation::without_global_temporal()),
        ("w/o Global", Ablation::without_global()),
        ("Fusion w/o ConL", Ablation::fusion_without_contrastive()),
    ];
    let mut draws = vec![draws_per_sample(&cfg(3, Ablation::full()), &data)];
    for (name, ablation) in variants {
        let cfg = cfg(3, ablation);
        draws.push(draws_per_sample(&cfg, &data));
        assert_matches_reference(name, cfg, &data, &[1, 4]);
    }
    draws.sort_unstable();
    draws.dedup();
    assert!(draws.len() > 1, "the variants must differ in dropout draws per sample: {draws:?}");
}

/// Validation loss bits of every epoch, in order.
#[derive(Default)]
struct ValRecorder(Vec<u64>);

impl TrainHooks for ValRecorder {
    fn on_epoch_end(&mut self, ctx: &EpochCtx) -> HookAction {
        self.0.push(ctx.val_loss.expect("validation loss at epoch end").to_bits());
        HookAction::Continue
    }
}

/// Mean validation loss of `model`'s parameters: one inference tape per
/// day, summed in day order in f64.
fn serial_validation_loss(model: &StHsl, data: &CrimeDataset) -> f64 {
    let store = model.export_checkpoint().params;
    let days = data.target_days(Split::Val);
    let mut total = 0.0f64;
    for &day in &days {
        let g = Graph::new();
        let pv = store.inject(&g);
        let sample = data.sample(day).unwrap();
        let z = data.zscore(&sample.input);
        let l = model.sample_loss(&g, &pv, &z, &sample.target, None).unwrap();
        total += f64::from(g.value(l).item().unwrap());
    }
    total / days.len() as f64
}

#[test]
fn validation_loss_is_bit_identical_at_every_thread_count() {
    let _guard = config_lock();
    let data = dataset();
    let cfg = cfg(3, Ablation::full());
    let opts = TrainOptions { validate: true, ..TrainOptions::default() };
    let mut first: Option<Vec<u64>> = None;
    for t in [1, 2, 4, 8] {
        sthsl_parallel::set_num_threads(t);
        let mut model = StHsl::new(cfg.clone(), &data).unwrap();
        let mut hooks = ValRecorder::default();
        TrainLoop::new(opts.clone()).run(&mut model, &data, &mut hooks).unwrap();
        assert_eq!(hooks.0.len(), cfg.epochs, "{t} threads: one validation loss per epoch");
        let want = serial_validation_loss(&model, &data).to_bits();
        assert_eq!(hooks.0.last(), Some(&want), "{t} threads: last epoch vs serial reference");
        match &first {
            Some(f) => assert_eq!(&hooks.0, f, "{t} threads: validation losses differ from 1"),
            None => first = Some(hooks.0),
        }
    }
    sthsl_parallel::set_num_threads(0);
}

/// Dropout words one training sample draws under `cfg`.
fn draws_per_sample(cfg: &StHslConfig, data: &CrimeDataset) -> u64 {
    let model = StHsl::new(cfg.clone(), data).unwrap();
    let (g, _, _) = model.audit_artifacts(data).unwrap();
    g.rng_draws()
}
