//! Experiment scale presets and command-line parsing.
//!
//! The paper's configuration (256 regions, 730 days, 30 epochs, d=16,
//! H=128) is available as [`Scale::Paper`]; `quick` and `medium` shrink the
//! city, span and training budget so the full table suite runs on a few CPU
//! cores while preserving every architectural setting.

use sthsl_baselines::BaselineConfig;
use sthsl_core::StHslConfig;
use sthsl_data::{CrimeDataset, DatasetConfig, Result, SynthCity, SynthConfig};

/// Which city preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// NYC-like: 16×16 grid, Burglary/Larceny/Robbery/Assault.
    Nyc,
    /// Chicago-like: 12×14 grid, Theft/Battery/Assault/Damage.
    Chicago,
}

impl City {
    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            City::Nyc => "NYC",
            City::Chicago => "CHI",
        }
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CPU friendly: 8×8 regions, 240 days.
    Quick,
    /// Intermediate: 10×10 regions, 365 days.
    Medium,
    /// The paper's full configuration.
    Paper,
}

impl Scale {
    /// Simulator configuration for a city at this scale.
    pub fn synth_config(&self, city: City, seed: u64) -> SynthConfig {
        let base = match city {
            City::Nyc => SynthConfig::nyc_like(),
            City::Chicago => SynthConfig::chicago_like(),
        };
        let mut cfg = match self {
            Scale::Quick => base.scaled(8, 8, 240),
            Scale::Medium => base.scaled(10, 10, 365),
            Scale::Paper => base,
        };
        cfg.seed ^= seed;
        cfg
    }

    /// Dataset windowing for this scale.
    pub fn dataset_config(&self) -> DatasetConfig {
        match self {
            Scale::Quick => DatasetConfig { window: 14, val_days: 10, train_fraction: 7.0 / 8.0 },
            Scale::Medium => DatasetConfig { window: 21, val_days: 20, train_fraction: 7.0 / 8.0 },
            Scale::Paper => DatasetConfig::default(),
        }
    }

    /// ST-HSL hyperparameters for this scale.
    pub fn sthsl_config(&self, seed: u64) -> StHslConfig {
        let cfg = match self {
            Scale::Quick => StHslConfig {
                d: 16,
                num_hyperedges: 64,
                epochs: 18,
                batch_size: 4,
                max_batches_per_epoch: Some(12),
                lambda1: 0.1,
                lambda2: 0.03,
                ..StHslConfig::paper()
            },
            Scale::Medium => StHslConfig {
                d: 16,
                num_hyperedges: 64,
                epochs: 15,
                batch_size: 8,
                max_batches_per_epoch: Some(20),
                ..StHslConfig::paper()
            },
            Scale::Paper => StHslConfig::paper(),
        };
        StHslConfig { seed, ..cfg }
    }

    /// Baseline hyperparameters for this scale.
    pub fn baseline_config(&self, seed: u64) -> BaselineConfig {
        let cfg = match self {
            Scale::Quick => BaselineConfig {
                hidden: 8,
                epochs: 18,
                batch_size: 4,
                max_batches_per_epoch: Some(12),
                ..BaselineConfig::default()
            },
            Scale::Medium => BaselineConfig {
                hidden: 16,
                epochs: 15,
                batch_size: 8,
                max_batches_per_epoch: Some(20),
                ..BaselineConfig::default()
            },
            Scale::Paper => BaselineConfig {
                hidden: 16,
                epochs: 30,
                batch_size: 8,
                ..BaselineConfig::default()
            },
        };
        BaselineConfig { seed, ..cfg }
    }

    /// Generate the dataset for a city at this scale.
    pub fn build_dataset(&self, city: City, seed: u64) -> Result<(SynthCity, CrimeDataset)> {
        let city_data = SynthCity::generate(&self.synth_config(city, seed))?;
        let data = CrimeDataset::from_city(&city_data, self.dataset_config())?;
        Ok((city_data, data))
    }
}

/// Parsed common experiment arguments.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Cities to run.
    pub cities: Vec<City>,
    /// Base RNG seed.
    pub seed: u64,
}

/// Parse `--scale quick|medium|paper`, `--city nyc|chi|both`, `--seed N`
/// from the process's command-line arguments (defaults: quick, both, 7).
pub fn parse_args() -> ExpArgs {
    let args: Vec<String> = std::env::args().collect();
    parse_args_from(&args)
}

/// [`parse_args`] over an explicit argument list (index 0 is the program
/// name, as in `std::env::args`).
pub fn parse_args_from(args: &[String]) -> ExpArgs {
    let mut scale = Scale::Quick;
    let mut cities = vec![City::Nyc, City::Chicago];
    let mut seed = 7u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = match args[i + 1].as_str() {
                    "medium" => Scale::Medium,
                    "paper" => Scale::Paper,
                    _ => Scale::Quick,
                };
                i += 2;
            }
            "--city" if i + 1 < args.len() => {
                cities = match args[i + 1].as_str() {
                    "nyc" => vec![City::Nyc],
                    "chi" | "chicago" => vec![City::Chicago],
                    _ => vec![City::Nyc, City::Chicago],
                };
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(7);
                i += 2;
            }
            _ => i += 1,
        }
    }
    ExpArgs { scale, cities, seed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_builds_dataset() {
        let (city, data) = Scale::Quick.build_dataset(City::Nyc, 1).unwrap();
        assert_eq!(city.num_regions(), 64);
        assert_eq!(data.num_days(), 240);
        assert_eq!(data.num_categories(), 4);
        assert_eq!(data.category_names[0], "Burglary");
    }

    #[test]
    fn paper_scale_matches_published_dims() {
        let cfg = Scale::Paper.synth_config(City::Nyc, 0);
        assert_eq!(cfg.num_regions(), 256);
        assert_eq!(cfg.days, 730);
        let chi = Scale::Paper.synth_config(City::Chicago, 0);
        assert_eq!(chi.num_regions(), 168);
        let ds = Scale::Paper.dataset_config();
        assert_eq!(ds.window, 30);
    }

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        let to_vec =
            |s: &[&str]| s.iter().map(std::string::ToString::to_string).collect::<Vec<_>>();
        let d = parse_args_from(&to_vec(&["prog"]));
        assert_eq!(d.scale, Scale::Quick);
        assert_eq!(d.cities.len(), 2);
        assert_eq!(d.seed, 7);
        let a = parse_args_from(&to_vec(&[
            "prog", "--scale", "paper", "--city", "nyc", "--seed", "42",
        ]));
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.cities, vec![City::Nyc]);
        assert_eq!(a.seed, 42);
        // Malformed seed falls back to the default instead of panicking.
        let b = parse_args_from(&to_vec(&["prog", "--seed", "not-a-number"]));
        assert_eq!(b.seed, 7);
        // Unknown flags are ignored.
        let c = parse_args_from(&to_vec(&["prog", "--unknown", "--city", "chi"]));
        assert_eq!(c.cities, vec![City::Chicago]);
    }

    #[test]
    fn seeds_perturb_simulation() {
        let a = Scale::Quick.synth_config(City::Nyc, 1);
        let b = Scale::Quick.synth_config(City::Nyc, 2);
        assert_ne!(a.seed, b.seed);
    }
}
