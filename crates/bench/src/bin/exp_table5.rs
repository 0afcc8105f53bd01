//! Regenerates Table V: computational cost — wall-clock seconds per training
//! epoch for every model on both cities. Absolute numbers reflect the CPU
//! host (its default thread count) rather than the paper's GTX 1080 Ti; the
//! *relative* ordering is the comparable quantity.

use sthsl_baselines::all_baselines;
use sthsl_bench::{parse_args, write_csv, MarkdownTable, TimingManifest};
use sthsl_core::StHsl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let mut man = TimingManifest::for_args("exp_table5", &args)?;
    let mut table = MarkdownTable::new(&["Model", "NYC s/epoch", "CHI s/epoch"]);
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for &city in &args.cities {
        let (_, data) = args.scale.build_dataset(city, args.seed)?;
        let mut models = all_baselines(&args.scale.baseline_config(args.seed), &data)?;
        models.push(Box::new(StHsl::new(args.scale.sthsl_config(args.seed), &data)?));
        for model in &mut models {
            let report = model.fit(&data)?;
            let name = model.name();
            match rows.iter_mut().find(|(n, _)| *n == name) {
                Some((_, times)) => times.push(report.seconds_per_epoch),
                None => rows.push((name.clone(), vec![report.seconds_per_epoch])),
            }
            man.section(&format!("{}_{}", city.name(), name));
            eprintln!("  {} ({}): {:.3} s/epoch", name, city.name(), report.seconds_per_epoch);
        }
    }
    for (name, times) in rows {
        let fmt = |i: usize| times.get(i).map_or("-".into(), |t| format!("{t:.3}"));
        table.add_row(vec![name, fmt(0), fmt(1)]);
    }
    println!("\n== Table V (scale {:?}): seconds per training epoch ==\n", args.scale);
    println!("{}", table.render());
    write_csv("table5_cost.csv", &table)?;
    man.finish()?;
    Ok(())
}
