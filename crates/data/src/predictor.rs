//! The uniform model interface the experiment harness drives.

use crate::dataset::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// Summary of a completed training run.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Final training-objective value (model-specific scale).
    pub final_loss: f64,
    /// Wall-clock seconds spent in `fit`.
    pub train_seconds: f64,
    /// Mean wall-clock seconds per epoch (the Table V quantity).
    pub seconds_per_epoch: f64,
}

impl FitReport {
    /// Build a report from totals.
    pub fn new(epochs: usize, final_loss: f64, train_seconds: f64) -> Self {
        FitReport {
            epochs,
            final_loss,
            train_seconds,
            seconds_per_epoch: train_seconds / epochs.max(1) as f64,
        }
    }
}

/// A next-day crime predictor. Implemented by ST-HSL, all 15 baselines and
/// every ablation variant, so the harness can evaluate them identically.
pub trait Predictor {
    /// Short display name (matches the paper's tables).
    fn name(&self) -> String;

    /// Train on the dataset's training split (validation tail available for
    /// early stopping / model selection).
    fn fit(&mut self, data: &CrimeDataset) -> Result<FitReport>;

    /// Predict the day following `window` (`[R, Tw, C]` → `[R, C]`).
    fn predict(&self, data: &CrimeDataset, window: &Tensor) -> Result<Tensor>;

    /// Evaluate over every test day, producing a paper-style report.
    fn evaluate(&self, data: &CrimeDataset) -> Result<crate::metrics::EvalReport> {
        let mut report = crate::metrics::EvalReport::new(data.num_categories());
        for day in data.target_days(crate::dataset::Split::Test) {
            let sample = data.sample(day)?;
            let pred = self.predict(data, &sample.input)?;
            report.add_day(&pred, &sample.target)?;
        }
        Ok(report)
    }
}

/// Clamp raw model outputs into valid count space (non-negative, finite).
/// Every predictor applies this before returning, so downstream metrics never
/// see NaN or negative counts.
pub fn sanitize_counts(mut pred: Tensor) -> Tensor {
    pred.map_inplace(|v| if v.is_finite() { v.max(0.0) } else { 0.0 });
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::synth::{SynthCity, SynthConfig};

    /// Trivial predictor: predicts the mean of the window. Used to exercise
    /// the trait's default `evaluate`.
    struct WindowMean;

    impl Predictor for WindowMean {
        fn name(&self) -> String {
            "WindowMean".into()
        }

        fn fit(&mut self, _data: &CrimeDataset) -> Result<FitReport> {
            Ok(FitReport::new(0, 0.0, 0.0))
        }

        fn predict(&self, _data: &CrimeDataset, window: &Tensor) -> Result<Tensor> {
            Ok(sanitize_counts(window.mean_axis(1)?))
        }
    }

    #[test]
    fn evaluate_walks_all_test_days() {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(5, 5, 160)).unwrap();
        let ds = CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 14, val_days: 10, train_fraction: 7.0 / 8.0 },
        )
        .unwrap();
        let p = WindowMean;
        let rep = p.evaluate(&ds).unwrap();
        // A mean predictor on count data must produce a sane MAE.
        assert!(rep.mae_overall() > 0.0);
        assert!(rep.mae_overall() < 20.0);
    }

    #[test]
    fn sanitize_clamps_nan_and_negatives() {
        let t = Tensor::from_vec(vec![-1.0, f32::NAN, 2.0, f32::INFINITY], &[2, 2]).unwrap();
        let s = sanitize_counts(t);
        assert_eq!(s.data()[0], 0.0);
        assert_eq!(s.data()[1], 0.0);
        assert_eq!(s.data()[2], 2.0);
        assert_eq!(s.data()[3], 0.0);
    }

    #[test]
    fn fit_report_per_epoch_math() {
        let r = FitReport::new(4, 1.5, 8.0);
        assert_eq!(r.seconds_per_epoch, 2.0);
        let r0 = FitReport::new(0, 0.0, 1.0);
        assert_eq!(r0.seconds_per_epoch, 1.0); // no div-by-zero
    }
}
