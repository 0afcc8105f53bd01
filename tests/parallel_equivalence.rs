//! Serial/parallel equivalence suite for the multi-threaded tensor kernels.
//!
//! The determinism contract (DESIGN.md, "Threading model") has two halves:
//!
//! 1. **Partition-parallel kernels** (matmul, conv, elementwise, softmax, axis
//!    reductions, region scoring) assign each output element to exactly one
//!    thread and keep the serial accumulation order, so their results must be
//!    **bit-identical** at every thread count.
//! 2. **Reassociated reductions** (`sum_all`, `dot`, `sq_norm`, `mean_std`)
//!    sum fixed-size blocks whose layout does not depend on the thread count,
//!    so they too must be bit-identical across thread counts — and within
//!    normal f32 rounding of a linear serial sum.
//!
//! Every test fuzzes shapes with a fixed seed and compares results across
//! thread counts {1, 2, 4, 8}, plus a run-to-run determinism check.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Mutex;
use sthsl::parallel::{num_threads, set_num_threads};
use sthsl::tensor::ops::conv::Pad1d;
use sthsl::tensor::Tensor;

/// Thread counts every kernel is exercised at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// All tests in this binary mutate the process-global thread count, so they
/// serialise on this lock (poison is harmless: the config is reset on entry).
fn config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` once per thread count and assert every result's bits match the
/// single-threaded run. `label` names the kernel in failure messages.
fn assert_bitwise_across_thread_counts(label: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = config_lock();
    set_num_threads(1);
    let reference = f();
    // Run-to-run determinism at the same thread count.
    assert_eq!(reference, f(), "{label}: not deterministic at 1 thread");
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
        assert_eq!(got, f(), "{label}: not deterministic at {t} threads");
    }
    set_num_threads(0); // back to the environment-resolved default
}

#[test]
fn matmul_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..12 {
        let (m, k, n) =
            (rng.gen_range(1usize..40), rng.gen_range(1usize..300), rng.gen_range(1usize..40));
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("matmul {m}x{k}x{n}"), || {
            a.matmul(&b).unwrap().into_vec()
        });
    }
}

#[test]
fn batched_matmul_and_matvec_bit_identical() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..8 {
        let (ba, m, k, n) = (
            rng.gen_range(1usize..6),
            rng.gen_range(1usize..20),
            rng.gen_range(1usize..64),
            rng.gen_range(1usize..20),
        );
        let a = Tensor::rand_normal(&[ba, m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[ba, k, n], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("batched_matmul {ba}x{m}x{k}x{n}"), || {
            a.batched_matmul(&b).unwrap().into_vec()
        });
        let mat = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let v = Tensor::rand_normal(&[k], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("matvec {m}x{k}"), || {
            mat.matvec(&v).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("transpose2d {m}x{k}"), || {
            mat.transpose2d().unwrap().into_vec()
        });
    }
}

#[test]
fn conv2d_forward_and_grads_bit_identical() {
    let mut rng = StdRng::seed_from_u64(13);
    for case in 0..7 {
        // The last case is the local spatial conv of one quick-scale ST-HSL
        // training sample.
        let [b, cin, cout, h, w, kh, kw] = if case < 6 {
            [
                rng.gen_range(1usize..4),
                rng.gen_range(1usize..4),
                rng.gen_range(1usize..5),
                rng.gen_range(4usize..10),
                rng.gen_range(4usize..10),
                rng.gen_range(1usize..4),
                rng.gen_range(1usize..4),
            ]
        } else {
            [224, 4, 4, 8, 8, 3, 3]
        };
        let x = Tensor::rand_normal(&[b, cin, h, w], 0.0, 1.0, &mut rng);
        let wt = Tensor::rand_normal(&[cout, cin, kh, kw], 0.0, 0.5, &mut rng);
        let bias = Tensor::rand_normal(&[cout], 0.0, 0.5, &mut rng);
        let pad = (kh / 2, kw / 2);
        let label = format!("conv2d b{b} {cin}->{cout} {h}x{w} k{kh}x{kw}");
        let y = x.conv2d(&wt, Some(&bias), pad).unwrap();
        assert_bitwise_across_thread_counts(&label, || {
            x.conv2d(&wt, Some(&bias), pad).unwrap().into_vec()
        });
        let go = Tensor::rand_normal(y.shape(), 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("{label} grad_input"), || {
            Tensor::conv2d_grad_input(&go, &wt, x.shape(), pad).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("{label} grad_weight"), || {
            Tensor::conv2d_grad_weight(&go, &x, wt.shape(), pad).unwrap().into_vec()
        });
    }
}

#[test]
fn conv1d_forward_and_grads_bit_identical() {
    let mut rng = StdRng::seed_from_u64(14);
    for case in 0..8 {
        // The last two cases are the local and global temporal convs of one
        // quick-scale ST-HSL training sample.
        let ([b, cin, cout, l, k, dilation], pad) = match case {
            6 => ([1024, 4, 4, 14, 3, 1], Pad1d::same(3)),
            7 => ([4096, 1, 1, 14, 3, 1], Pad1d::same(3)),
            _ => {
                let dims = [
                    rng.gen_range(1usize..4),
                    rng.gen_range(1usize..4),
                    rng.gen_range(1usize..5),
                    rng.gen_range(6usize..24),
                    rng.gen_range(1usize..4),
                    rng.gen_range(1usize..3),
                ];
                (dims, Pad1d::causal(dims[4], dims[5]))
            }
        };
        let x = Tensor::rand_normal(&[b, cin, l], 0.0, 1.0, &mut rng);
        let wt = Tensor::rand_normal(&[cout, cin, k], 0.0, 0.5, &mut rng);
        let label = format!("conv1d b{b} {cin}->{cout} l{l} k{k} d{dilation}");
        let y = x.conv1d(&wt, None, pad, dilation).unwrap();
        assert_bitwise_across_thread_counts(&label, || {
            x.conv1d(&wt, None, pad, dilation).unwrap().into_vec()
        });
        let go = Tensor::rand_normal(y.shape(), 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("{label} grad_input"), || {
            Tensor::conv1d_grad_input(&go, &wt, x.shape(), pad, dilation).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("{label} grad_weight"), || {
            Tensor::conv1d_grad_weight(&go, &x, wt.shape(), pad, dilation).unwrap().into_vec()
        });
    }
}

#[test]
fn elementwise_ops_bit_identical_above_cutoff() {
    let mut rng = StdRng::seed_from_u64(15);
    // Both below (serial path) and well above the fan-out cutoff.
    for &n in &[100usize, 50_000] {
        let a = Tensor::rand_normal(&[n], 0.0, 2.0, &mut rng);
        let b = Tensor::rand_normal(&[n], 0.0, 2.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("map n={n}"), || {
            a.map(|v| v.tanh() * 3.0 + 1.0).into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("zip_map n={n}"), || {
            a.zip_map(&b, |x, y| x * y + x).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("axpy n={n}"), || {
            let mut acc = a.clone();
            acc.axpy(0.37, &b).unwrap();
            acc.into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("map_inplace n={n}"), || {
            let mut acc = a.clone();
            acc.map_inplace(|v| v * 0.5 - 2.0);
            acc.into_vec()
        });
    }
}

#[test]
fn softmax_and_axis_reductions_bit_identical() {
    let mut rng = StdRng::seed_from_u64(16);
    for _ in 0..6 {
        let (d0, d1, d2) =
            (rng.gen_range(1usize..12), rng.gen_range(1usize..12), rng.gen_range(1usize..12));
        let t = Tensor::rand_normal(&[d0, d1, d2], 0.0, 3.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("softmax {d0}x{d1}x{d2}"), || {
            t.softmax_lastdim().unwrap().into_vec()
        });
        for axis in 0..3 {
            assert_bitwise_across_thread_counts(&format!("sum_axis{axis} {d0}x{d1}x{d2}"), || {
                t.sum_axis(axis).unwrap().into_vec()
            });
            assert_bitwise_across_thread_counts(&format!("mean_axis{axis} {d0}x{d1}x{d2}"), || {
                t.mean_axis(axis).unwrap().into_vec()
            });
        }
    }
}

#[test]
fn reassociated_reductions_are_thread_count_invariant_and_near_serial() {
    let mut rng = StdRng::seed_from_u64(17);
    // Sizes straddling the REDUCE_BLOCK boundary (4096) and well past it.
    for &n in &[1000usize, 4096, 4097, 60_000] {
        let a = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
        // Bit-invariance across thread counts (the partitioning is fixed).
        assert_bitwise_across_thread_counts(&format!("sum_all n={n}"), || vec![a.sum_all()]);
        assert_bitwise_across_thread_counts(&format!("dot n={n}"), || vec![a.dot(&b).unwrap()]);
        assert_bitwise_across_thread_counts(&format!("sq_norm n={n}"), || vec![a.sq_norm()]);
        assert_bitwise_across_thread_counts(&format!("mean_std n={n}"), || {
            let (m, s) = a.mean_std();
            vec![m, s]
        });
        // Near-equality with a strictly linear f64 reference: the blocked f32
        // sum may differ by rounding, but the *relative* error of the blocked
        // association vs the serial association is far below 1e-10 when both
        // are measured against the exact (f64) sum.
        let exact: f64 = a.data().iter().map(|&v| f64::from(v)).sum();
        let serial: f32 = a.data().iter().sum();
        let blocked = a.sum_all();
        let scale: f64 = a.data().iter().map(|&v| f64::from(v).abs()).sum::<f64>().max(1.0);
        let blocked_err = (f64::from(blocked) - exact).abs() / scale;
        let serial_err = (f64::from(serial) - exact).abs() / scale;
        assert!(
            blocked_err <= serial_err + 1e-10,
            "blocked sum is less accurate than serial beyond tolerance: \
             blocked {blocked_err:e} vs serial {serial_err:e} (n={n})"
        );
    }
}

#[test]
fn thread_count_config_round_trips() {
    let _guard = config_lock();
    set_num_threads(3);
    assert_eq!(num_threads(), 3);
    set_num_threads(0);
    assert!(num_threads() >= 1);
}
