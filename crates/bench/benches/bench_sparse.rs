//! Dense vs sparse (CSR) speedup bench at paper scale.
//!
//! Crime tensors are overwhelmingly zero (Fig. 1 of the paper: most regions
//! report no cases of a given category on a given day), so a product through
//! a CSR operand touches only the stored counts. This bench measures that win
//! at `--paper-scale`:
//!
//! - **spmm_crime_paper**: the NYC-like 256-region × 730-day × 4-category
//!   tensor, flattened to `[256, 2920]`, multiplied into a dense `[2920, 16]`
//!   embedding — CSR `matmul_dense` vs the dense `matmul` it is bit-identical
//!   to, at the tensor's *real* simulated density.
//! - **spmm_density_sweep**: the same shape at controlled densities
//!   {0.01, 0.1, 0.5} so the crossover is visible in the JSON.
//!
//! Results (median seconds, speedup, density, nnz) are written to
//! `BENCH_sparse.json` at the workspace root, then the headline case runs
//! through criterion for the usual console report.

use criterion::{black_box, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use sthsl_data::{SynthCity, SynthConfig};
use sthsl_tensor::{SparseTensor, Tensor};

/// Median wall-clock seconds of `f` over `samples` runs (after one warm-up).
fn time_median(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct Case {
    name: String,
    density: f64,
    nnz: usize,
    dense_seconds: f64,
    sparse_seconds: f64,
}

fn run_case(
    name: impl Into<String>,
    sp: &SparseTensor,
    samples: usize,
    mut dense: impl FnMut(),
    mut sparse: impl FnMut(),
) -> Case {
    Case {
        name: name.into(),
        density: sp.density(),
        nnz: sp.nnz(),
        dense_seconds: time_median(samples, &mut dense),
        sparse_seconds: time_median(samples, &mut sparse),
    }
}

fn write_json(cases: &[Case]) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"available_cores\": {cores},");
    let _ = writeln!(out, "  \"paper_scale\": \"256 regions x 730 days x 4 categories\",");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, case) in cases.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"density\": {:.4}, \"nnz\": {}, \
             \"dense_median_seconds\": {:.6e}, \"sparse_median_seconds\": {:.6e}, \
             \"speedup_sparse_vs_dense\": {:.3}}}",
            case.name,
            case.density,
            case.nnz,
            case.dense_seconds,
            case.sparse_seconds,
            case.dense_seconds / case.sparse_seconds
        );
        let _ = writeln!(out, "{}", if i + 1 < cases.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    // benches run with cwd = crate dir; the JSON belongs at the repo root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json");
    std::fs::write(path, &out).expect("write BENCH_sparse.json");
    println!("wrote {path}");
    print!("{out}");
}

fn main() {
    // Paper-scale crime tensor: NYC-like 256 regions × 730 days × 4 cats.
    let cfg = SynthConfig::nyc_like();
    let city = SynthCity::generate(&cfg).expect("paper-scale city");
    let (r, tc) = (cfg.num_regions(), cfg.days * cfg.categories.len());
    let crime = city.tensor.reshape(&[r, tc]).expect("flatten");
    let crime_sp = SparseTensor::from_dense(&crime).expect("csr");
    println!(
        "paper-scale crime tensor: [{r}, {tc}], nnz {} (density {:.4})",
        crime_sp.nnz(),
        crime_sp.density()
    );

    let mut rng = StdRng::seed_from_u64(42);
    let emb = Tensor::rand_normal(&[tc, 16], 0.0, 1.0, &mut rng);

    let mut cases = vec![run_case(
        "spmm_crime_paper_256x2920x16",
        &crime_sp,
        15,
        || {
            black_box(crime.matmul(&emb).unwrap());
        },
        || {
            black_box(crime_sp.matmul_dense(&emb).unwrap());
        },
    )];

    // Controlled-density sweep at the same shape.
    for density in [0.01, 0.1, 0.5] {
        let mut t = Tensor::rand_normal(&[r, tc], 0.0, 1.0, &mut rng);
        for v in t.data_mut() {
            if rng.gen_range(0.0f64..1.0) >= density {
                *v = 0.0;
            }
        }
        let sp = SparseTensor::from_dense(&t).expect("csr");
        cases.push(run_case(
            format!("spmm_density_{density}_256x2920x16"),
            &sp,
            15,
            || {
                black_box(t.matmul(&emb).unwrap());
            },
            || {
                black_box(sp.matmul_dense(&emb).unwrap());
            },
        ));
    }
    write_json(&cases);

    // Criterion console report of the headline case at the default
    // (environment-resolved) thread count.
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    c.bench_function("sparse/spmm_crime_paper_dense", |bench| {
        bench.iter(|| black_box(crime.matmul(&emb).unwrap()));
    });
    c.bench_function("sparse/spmm_crime_paper_csr", |bench| {
        bench.iter(|| black_box(crime_sp.matmul_dense(&emb).unwrap()));
    });
    c.final_summary();
}
