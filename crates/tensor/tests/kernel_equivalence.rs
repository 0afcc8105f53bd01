//! Bit-equality of the convolution and permute kernels against their plain
//! scalar formulations.
//!
//! Each `ref_*` function below is the straightforward loop nest the kernel
//! replaced: one scalar accumulator per output element and padding bounds
//! tested on every tap. It defines each element's accumulation order:
//!
//! - forward: the bias, then `ci → ky → kx`;
//! - input gradient: `co → oy → ox` (per element: `co`, then `ky` and `kx`
//!   descending), skipping zero gradients;
//! - weight gradient: `bi → oy → ox`, skipping zero gradients.
//!
//! The kernels must reproduce every output bit, including zeros of either
//! sign, infinities and NaNs. A seeded fuzz sweeps small shapes, both 1-D
//! padding modes and dilations, and injects special values into every
//! operand.

use rand::{rngs::StdRng, Rng, SeedableRng};
use sthsl_tensor::ops::conv::Pad1d;
use sthsl_tensor::Tensor;

fn ref_conv2d(x: &Tensor, wt: &Tensor, bias: Option<&Tensor>, pad: (usize, usize)) -> Vec<f32> {
    let [b, cin, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
    let [cout, _, kh, kw] = [wt.shape()[0], wt.shape()[1], wt.shape()[2], wt.shape()[3]];
    let (ph, pw) = pad;
    let (oh, ow) = (h + 2 * ph - (kh - 1), w + 2 * pw - (kw - 1));
    let (x, wt) = (x.data(), wt.data());
    let bias_data = bias.map(Tensor::data);
    let mut out = vec![0.0f32; b * cout * oh * ow];
    for plane in 0..b * cout {
        let (bi, co) = (plane / cout, plane % cout);
        let bias_v = bias_data.map_or(0.0, |bd| bd[co]);
        let oplane = &mut out[plane * oh * ow..(plane + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias_v;
                for ci in 0..cin {
                    let xbase = ((bi * cin + ci) * h) * w;
                    let wbase = ((co * cin + ci) * kh) * kw;
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < ph || iy >= h + ph {
                            continue;
                        }
                        let iy = iy - ph;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix < pw || ix >= w + pw {
                                continue;
                            }
                            let ix = ix - pw;
                            acc += x[xbase + iy * w + ix] * wt[wbase + ky * kw + kx];
                        }
                    }
                }
                oplane[oy * ow + ox] = acc;
            }
        }
    }
    out
}

fn ref_conv2d_grad_input(
    grad_out: &Tensor,
    wt: &Tensor,
    input_shape: &[usize],
    pad: (usize, usize),
) -> Vec<f32> {
    let s = grad_out.shape();
    let [b, cout, oh, ow] = [s[0], s[1], s[2], s[3]];
    let [cin, kh, kw] = [wt.shape()[1], wt.shape()[2], wt.shape()[3]];
    let (ph, pw) = pad;
    let (h, w) = (input_shape[2], input_shape[3]);
    let (go, wt) = (grad_out.data(), wt.data());
    let mut gx = vec![0.0f32; b * cin * h * w];
    for bi in 0..b {
        let gblock = &mut gx[bi * cin * h * w..(bi + 1) * cin * h * w];
        for co in 0..cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((bi * cout + co) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..cin {
                        let xbase = (ci * h) * w;
                        let wbase = ((co * cin + ci) * kh) * kw;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < ph || iy >= h + ph {
                                continue;
                            }
                            let iy = iy - ph;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pw || ix >= w + pw {
                                    continue;
                                }
                                let ix = ix - pw;
                                gblock[xbase + iy * w + ix] += g * wt[wbase + ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    gx
}

fn ref_conv2d_grad_weight(
    grad_out: &Tensor,
    x: &Tensor,
    weight_shape: &[usize],
    pad: (usize, usize),
) -> Vec<f32> {
    let s = grad_out.shape();
    let [b, cout, oh, ow] = [s[0], s[1], s[2], s[3]];
    let [cin, h, w] = [x.shape()[1], x.shape()[2], x.shape()[3]];
    let (kh, kw) = (weight_shape[2], weight_shape[3]);
    let (ph, pw) = pad;
    let (go, x) = (grad_out.data(), x.data());
    let mut gw = vec![0.0f32; cout * cin * kh * kw];
    for co in 0..cout {
        let gblock = &mut gw[co * cin * kh * kw..(co + 1) * cin * kh * kw];
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((bi * cout + co) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..cin {
                        let xbase = ((bi * cin + ci) * h) * w;
                        let wbase = (ci * kh) * kw;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < ph || iy >= h + ph {
                                continue;
                            }
                            let iy = iy - ph;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pw || ix >= w + pw {
                                    continue;
                                }
                                let ix = ix - pw;
                                gblock[wbase + ky * kw + kx] += g * x[xbase + iy * w + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    gw
}

fn ref_conv1d(
    x: &Tensor,
    wt: &Tensor,
    bias: Option<&Tensor>,
    pad: Pad1d,
    dilation: usize,
) -> Vec<f32> {
    let [b, cin, l] = [x.shape()[0], x.shape()[1], x.shape()[2]];
    let [cout, k] = [wt.shape()[0], wt.shape()[2]];
    let ol = l + pad.left + pad.right - dilation * (k - 1);
    let (x, wt) = (x.data(), wt.data());
    let bias_data = bias.map(Tensor::data);
    let mut out = vec![0.0f32; b * cout * ol];
    for plane in 0..b * cout {
        let (bi, co) = (plane / cout, plane % cout);
        let bias_v = bias_data.map_or(0.0, |bd| bd[co]);
        let oplane = &mut out[plane * ol..(plane + 1) * ol];
        for (o, slot) in oplane.iter_mut().enumerate() {
            let mut acc = bias_v;
            for ci in 0..cin {
                let xbase = (bi * cin + ci) * l;
                let wbase = (co * cin + ci) * k;
                for kk in 0..k {
                    let ip = o + kk * dilation;
                    if ip < pad.left || ip >= l + pad.left {
                        continue;
                    }
                    acc += x[xbase + ip - pad.left] * wt[wbase + kk];
                }
            }
            *slot = acc;
        }
    }
    out
}

fn ref_conv1d_grad_input(
    grad_out: &Tensor,
    wt: &Tensor,
    input_shape: &[usize],
    pad: Pad1d,
    dilation: usize,
) -> Vec<f32> {
    let [b, cout, ol] = [grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2]];
    let [cin, k] = [wt.shape()[1], wt.shape()[2]];
    let l = input_shape[2];
    let (go, wt) = (grad_out.data(), wt.data());
    let mut gx = vec![0.0f32; b * cin * l];
    for bi in 0..b {
        let gblock = &mut gx[bi * cin * l..(bi + 1) * cin * l];
        for co in 0..cout {
            for o in 0..ol {
                let g = go[(bi * cout + co) * ol + o];
                if g == 0.0 {
                    continue;
                }
                for ci in 0..cin {
                    let wbase = (co * cin + ci) * k;
                    for kk in 0..k {
                        let ip = o + kk * dilation;
                        if ip < pad.left || ip >= l + pad.left {
                            continue;
                        }
                        gblock[ci * l + ip - pad.left] += g * wt[wbase + kk];
                    }
                }
            }
        }
    }
    gx
}

fn ref_conv1d_grad_weight(
    grad_out: &Tensor,
    x: &Tensor,
    weight_shape: &[usize],
    pad: Pad1d,
    dilation: usize,
) -> Vec<f32> {
    let [b, cout, ol] = [grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2]];
    let [cin, l] = [x.shape()[1], x.shape()[2]];
    let k = weight_shape[2];
    let (go, x) = (grad_out.data(), x.data());
    let mut gw = vec![0.0f32; cout * cin * k];
    for co in 0..cout {
        let gblock = &mut gw[co * cin * k..(co + 1) * cin * k];
        for bi in 0..b {
            for o in 0..ol {
                let g = go[(bi * cout + co) * ol + o];
                if g == 0.0 {
                    continue;
                }
                for ci in 0..cin {
                    let xbase = (bi * cin + ci) * l;
                    for kk in 0..k {
                        let ip = o + kk * dilation;
                        if ip < pad.left || ip >= l + pad.left {
                            continue;
                        }
                        gblock[ci * k + kk] += g * x[xbase + ip - pad.left];
                    }
                }
            }
        }
    }
    gw
}

fn ref_permute(t: &Tensor, perm: &[usize]) -> Vec<f32> {
    let ndim = t.ndim();
    let in_shape = t.shape();
    let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
    let mut in_strides = vec![1usize; ndim];
    for i in (0..ndim.saturating_sub(1)).rev() {
        in_strides[i] = in_strides[i + 1] * in_shape[i + 1];
    }
    let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = vec![0.0f32; t.len()];
    let x = t.data();
    let mut idx = vec![0usize; ndim];
    for slot in &mut out {
        let mut off = 0usize;
        for d in 0..ndim {
            off += idx[d] * gather_strides[d];
        }
        *slot = x[off];
        for d in (0..ndim).rev() {
            idx[d] += 1;
            if idx[d] < out_shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Kernel extents the fuzz draws from.
const KERNELS: [usize; 3] = [1, 3, 5];

/// Values injected into operands: both zeros, a NaN and both infinities.
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// A normal tensor of `shape` in which roughly one element in `1/rate` is
/// replaced by a value from [`SPECIALS`] (exact zeros most often).
fn spiked(shape: &[usize], rate: f64, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::rand_normal(shape, 0.0, 1.0, rng);
    for v in t.data_mut() {
        if rng.gen_bool(rate) {
            *v = if rng.gen_bool(0.5) { 0.0 } else { SPECIALS[rng.gen_range(0..SPECIALS.len())] };
        }
    }
    t
}

/// Injection rate for one case: a clean case, a zero-heavy one, and a
/// sprinkling of specials.
fn rate(case: usize) -> f64 {
    [0.0, 0.3, 0.05][case % 3]
}

/// The bits an output is compared by: its own bits, except that every NaN
/// compares as one NaN. When two NaNs with different payloads meet in an
/// addition, IEEE 754 and Rust leave the result's payload to the compiled
/// instruction's operand order, which no source-level loop pins down.
/// Whether an output is NaN at all is still compared exactly.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(bits(*g) == bits(*w), "{label}: element {i} is {g:?}, reference {w:?}");
    }
}

#[test]
fn conv2d_kernels_match_the_scalar_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xC0_2D);
    for case in 0..300 {
        let (b, cin, cout) =
            (rng.gen_range(1..=5usize), rng.gen_range(1..=6usize), rng.gen_range(1..=6usize));
        let (kh, kw) =
            (KERNELS[rng.gen_range(0..KERNELS.len())], KERNELS[rng.gen_range(0..KERNELS.len())]);
        let (ph, pw) = (rng.gen_range(0..=kh / 2 + 1), rng.gen_range(0..=kw / 2 + 1));
        // Spatial sizes 1–9, raised where the kernel would not fit.
        let h = rng.gen_range(1..=9usize).max((kh - 1).saturating_sub(2 * ph));
        let w = rng.gen_range(1..=9usize).max((kw - 1).saturating_sub(2 * pw));
        let r = rate(case);
        let x = spiked(&[b, cin, h, w], r, &mut rng);
        let wt = spiked(&[cout, cin, kh, kw], r, &mut rng);
        let bias = spiked(&[cout], r, &mut rng);
        let label = format!("case {case}: conv2d b{b} {cin}->{cout} {h}x{w} k{kh}x{kw} p{ph},{pw}");

        let y = x.conv2d(&wt, Some(&bias), (ph, pw)).unwrap();
        assert_bits(&label, y.data(), &ref_conv2d(&x, &wt, Some(&bias), (ph, pw)));
        let y0 = x.conv2d(&wt, None, (ph, pw)).unwrap();
        assert_bits(&format!("{label} no bias"), y0.data(), &ref_conv2d(&x, &wt, None, (ph, pw)));

        let go = spiked(y.shape(), r, &mut rng);
        let gx = Tensor::conv2d_grad_input(&go, &wt, x.shape(), (ph, pw)).unwrap();
        let want = ref_conv2d_grad_input(&go, &wt, x.shape(), (ph, pw));
        assert_bits(&format!("{label} grad_input"), gx.data(), &want);
        let gw = Tensor::conv2d_grad_weight(&go, &x, wt.shape(), (ph, pw)).unwrap();
        let want = ref_conv2d_grad_weight(&go, &x, wt.shape(), (ph, pw));
        assert_bits(&format!("{label} grad_weight"), gw.data(), &want);
    }
}

#[test]
fn conv1d_kernels_match_the_scalar_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xC0_1D);
    for case in 0..300 {
        let (b, cin, cout) =
            (rng.gen_range(1..=5usize), rng.gen_range(1..=6usize), rng.gen_range(1..=6usize));
        let k = KERNELS[rng.gen_range(0..KERNELS.len())];
        let dilation = rng.gen_range(1..=3usize);
        let (pad, mode) = if rng.gen_bool(0.5) {
            (Pad1d::same(k), "same")
        } else {
            (Pad1d::causal(k, dilation), "causal")
        };
        // Lengths 1–9, raised where the dilated kernel would not fit.
        let span = dilation * (k - 1);
        let l = rng.gen_range(1..=9usize).max(span.saturating_sub(pad.left + pad.right));
        let r = rate(case);
        let x = spiked(&[b, cin, l], r, &mut rng);
        let wt = spiked(&[cout, cin, k], r, &mut rng);
        let bias = spiked(&[cout], r, &mut rng);
        let label = format!("case {case}: conv1d b{b} {cin}->{cout} l{l} k{k} d{dilation} {mode}");

        let y = x.conv1d(&wt, Some(&bias), pad, dilation).unwrap();
        assert_bits(&label, y.data(), &ref_conv1d(&x, &wt, Some(&bias), pad, dilation));
        let y0 = x.conv1d(&wt, None, pad, dilation).unwrap();
        let want = ref_conv1d(&x, &wt, None, pad, dilation);
        assert_bits(&format!("{label} no bias"), y0.data(), &want);

        let go = spiked(y.shape(), r, &mut rng);
        let gx = Tensor::conv1d_grad_input(&go, &wt, x.shape(), pad, dilation).unwrap();
        let want = ref_conv1d_grad_input(&go, &wt, x.shape(), pad, dilation);
        assert_bits(&format!("{label} grad_input"), gx.data(), &want);
        let gw = Tensor::conv1d_grad_weight(&go, &x, wt.shape(), pad, dilation).unwrap();
        let want = ref_conv1d_grad_weight(&go, &x, wt.shape(), pad, dilation);
        assert_bits(&format!("{label} grad_weight"), gw.data(), &want);
    }
}

#[test]
fn permute_matches_the_scalar_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x9E_47);
    for case in 0..400 {
        let rank = rng.gen_range(1..=5usize);
        // Sizes 1–4 keep rank-5 tensors small and make size-1 axes common.
        let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..=4usize)).collect();
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let t = spiked(&shape, rate(case), &mut rng);
        let got = t.permute(&perm).unwrap();
        let want_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
        let label = format!("case {case}: permute {shape:?} by {perm:?}");
        assert_eq!(got.shape(), want_shape.as_slice(), "{label}: shape");
        assert_bits(&label, got.data(), &ref_permute(&t, &perm));
    }
}

#[test]
fn permute_handles_scalars_and_empty_axes() {
    let s = Tensor::scalar(3.5);
    assert_eq!(s.permute(&[]).unwrap().data(), &[3.5]);
    for shape in [[0usize, 3, 2], [2, 0, 3], [2, 3, 0]] {
        let t = Tensor::zeros(&shape);
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[shape[2], shape[0], shape[1]]);
        assert!(p.is_empty());
    }
}
