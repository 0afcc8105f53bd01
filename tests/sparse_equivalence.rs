//! Dense/sparse equivalence suite for the CSR compute path.
//!
//! The sparse contract (DESIGN.md §6g) mirrors the serial/parallel one pinned
//! by `tests/parallel_equivalence.rs`: the CSR kernels perform the **same
//! accumulation sequence** as the dense kernels they replace — the dense
//! `matmul` already skips zero lhs entries, so walking only the stored
//! entries in ascending column order reproduces it bit for bit. Everything
//! here therefore asserts `to_bits()` equality, not tolerance:
//!
//! 1. **Construction** round-trips: `from_dense → to_dense` is lossless
//!    (including negative zeros, which are *stored*, not dropped).
//! 2. **`sparse_matmul`** forward and both gradients match the dense op on
//!    fuzzed shapes at densities {0.01, 0.1, 0.5} — on-pattern gradients
//!    bitwise, off-pattern lhs gradients exactly zero.
//!
//! Every check runs at `STHSL_THREADS` 1 and 4 to prove the sparse kernels
//! honour the same thread-count invariance as the dense ones.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Mutex;
use sthsl::autograd::Graph;
use sthsl::parallel::set_num_threads;
use sthsl::tensor::{SparseTensor, Tensor};

/// Thread counts the sparse kernels are exercised at (ISSUE: 1 and 4).
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The fuzzed sparsity levels from the issue spec.
const DENSITIES: [f64; 3] = [0.01, 0.1, 0.5];

/// All tests in this binary mutate the process-global thread count, so they
/// serialise on this lock (poison is harmless: the config is reset on entry).
fn config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` at every thread count and assert its output bits never change.
fn assert_bitwise_across_thread_counts(label: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = config_lock();
    set_num_threads(THREAD_COUNTS[0]);
    let reference = f();
    for &t in &THREAD_COUNTS[1..] {
        set_num_threads(t);
        let got = f();
        assert_eq!(reference.len(), got.len(), "{label}: length changed at {t} threads");
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label}: element {i} differs at {t} threads: {a:?} vs {b:?}"
            );
        }
    }
    set_num_threads(0); // back to the environment-resolved default
}

/// A random `[r, c]` tensor where each entry is nonzero with probability
/// `density` (drawn from a normal, so magnitudes span several binades).
fn random_sparse_dense(r: usize, c: usize, density: f64, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::rand_normal(&[r, c], 0.0, 1.0, rng);
    for v in t.data_mut() {
        if rng.gen_range(0.0..1.0) >= density {
            *v = 0.0;
        }
    }
    t
}

#[test]
fn fuzzed_from_dense_round_trip_is_lossless() {
    let mut rng = StdRng::seed_from_u64(71);
    for &density in &DENSITIES {
        for _ in 0..8 {
            let (r, c) = (rng.gen_range(1usize..40), rng.gen_range(1usize..40));
            let mut dense = random_sparse_dense(r, c, density, &mut rng);
            // Salt a negative zero in: it must survive the round trip.
            dense.data_mut()[0] = -0.0;
            let sp = SparseTensor::from_dense(&dense).expect("from_dense");
            assert!(sp.nnz() >= 1, "negative zero must be stored");
            let back = sp.to_dense().expect("to_dense");
            assert_eq!(dense.shape(), back.shape());
            for (i, (a, b)) in dense.data().iter().zip(back.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round trip lost bits at {i} (density {density})"
                );
            }
        }
    }
}

#[test]
fn sparse_matmul_forward_bit_identical_to_dense_across_threads() {
    let mut rng = StdRng::seed_from_u64(74);
    for &density in &DENSITIES {
        for _ in 0..4 {
            let (m, k, n) =
                (rng.gen_range(1usize..40), rng.gen_range(1usize..300), rng.gen_range(1usize..40));
            let a = random_sparse_dense(m, k, density, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let sp = SparseTensor::from_dense(&a).expect("from_dense");
            let label = format!("spmm {m}x{k}x{n} d={density}");
            // Dense reference is itself thread-count invariant (pinned by
            // parallel_equivalence), so compare both at each count.
            assert_bitwise_across_thread_counts(&label, || {
                let dense = a.matmul(&b).unwrap();
                let sparse = sp.matmul_dense(&b).unwrap();
                for (i, (x, y)) in dense.data().iter().zip(sparse.data()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{label}: sparse forward diverged from dense at {i}: {x:?} vs {y:?}"
                    );
                }
                sparse.into_vec()
            });
        }
    }
}

#[test]
fn sparse_matmul_gradients_match_dense_across_threads() {
    let mut rng = StdRng::seed_from_u64(75);
    for &density in &DENSITIES {
        for _ in 0..3 {
            let (m, k, n) =
                (rng.gen_range(1usize..16), rng.gen_range(1usize..80), rng.gen_range(1usize..16));
            let a = random_sparse_dense(m, k, density, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let label = format!("spmm-grad {m}x{k}x{n} d={density}");

            // One tape per (mode, thread count): tapes are single-use.
            let run = |sparse: bool| {
                let g = Graph::new();
                let av = g.leaf(a.clone());
                let bv = g.leaf(b.clone());
                let y = if sparse { g.sparse_matmul(av, bv) } else { g.matmul(av, bv) }.unwrap();
                let loss = g.sum_all(y);
                let grads = g.backward(loss).unwrap();
                (
                    g.value(y).data().to_vec(),
                    grads.get(av).unwrap().data().to_vec(),
                    grads.get(bv).unwrap().data().to_vec(),
                )
            };

            assert_bitwise_across_thread_counts(&label, || {
                let (yd, gad, gbd) = run(false);
                let (ys, gas, gbs) = run(true);
                for (i, (x, y)) in yd.iter().zip(&ys).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label}: forward mismatch at {i}");
                }
                for (i, (x, y)) in gbd.iter().zip(&gbs).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label}: rhs grad mismatch at {i}");
                }
                // lhs grad: bitwise on the pattern, exactly zero off it.
                for (i, (x, y)) in gad.iter().zip(&gas).enumerate() {
                    if a.data()[i] == 0.0 && a.data()[i].to_bits() == 0 {
                        assert_eq!(*y, 0.0, "{label}: off-pattern lhs grad at {i}");
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits(), "{label}: on-pattern lhs grad at {i}");
                    }
                }
                // The thread-count sweep covers all three result streams.
                let mut all = ys;
                all.extend(gas);
                all.extend(gbs);
                all
            });
        }
    }
}
