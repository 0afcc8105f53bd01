//! 1-D and 2-D convolution kernels (stride 1) with analytic backward passes.
//!
//! These are correlation-style convolutions as used by every deep-learning
//! framework. Backward kernels are exposed so the autograd crate can wire
//! them as node gradients without re-deriving index arithmetic.

use crate::{Result, Tensor, TensorError};
use std::ops::Range;

/// Minimum multiply-accumulate count a band must carry before it is worth a
/// thread (shared by every conv kernel below).
const MIN_WORK_PER_BAND: usize = 1 << 15;

/// Padding specification for 1-D convolutions; 2-D uses symmetric padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pad1d {
    pub left: usize,
    pub right: usize,
}

impl Pad1d {
    /// Symmetric "same" padding for an undilated odd kernel.
    pub fn same(kernel: usize) -> Self {
        Pad1d { left: kernel / 2, right: kernel / 2 }
    }

    /// Causal padding: only the past is visible (used by dilated TCNs).
    pub fn causal(kernel: usize, dilation: usize) -> Self {
        Pad1d { left: dilation * (kernel - 1), right: 0 }
    }
}

impl Tensor {
    /// 2-D convolution. `self: [B, Cin, H, W]`, `weight: [Cout, Cin, kh, kw]`,
    /// optional `bias: [Cout]`, symmetric zero padding `(ph, pw)`.
    /// Output: `[B, Cout, H + 2ph - kh + 1, W + 2pw - kw + 1]`.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: (usize, usize),
    ) -> Result<Tensor> {
        let [b, cin, h, w] = dims4(self, "conv2d input")?;
        let [cout, cin_w, kh, kw] = dims4(weight, "conv2d weight")?;
        if cin != cin_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: self.shape().to_vec(),
                rhs: weight.shape().to_vec(),
            });
        }
        let (ph, pw) = pad;
        let oh = (h + 2 * ph).checked_sub(kh - 1).ok_or_else(|| {
            TensorError::Invalid(format!(
                "conv2d: kernel {kh} too large for height {h} with pad {ph}"
            ))
        })?;
        let ow = (w + 2 * pw).checked_sub(kw - 1).ok_or_else(|| {
            TensorError::Invalid(format!(
                "conv2d: kernel {kw} too large for width {w} with pad {pw}"
            ))
        })?;
        if let Some(bs) = bias {
            if bs.shape() != [cout] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d bias",
                    lhs: bs.shape().to_vec(),
                    rhs: vec![cout],
                });
            }
        }
        let x = self.data();
        let wt = weight.data();
        let bias_data = bias.map(super::super::tensor::Tensor::data);
        let mut out = vec![0.0f32; b * cout * oh * ow];
        // One output plane per (batch, out-channel) pair; planes are disjoint.
        // Every element starts at its bias and then adds its valid taps in
        // ci → ky → kx order, whatever the thread count. The tap loops sit
        // outside the spatial loops so the innermost loop is a contiguous
        // output-row run with the padding already clipped out of its range.
        let per_plane = oh * ow * cin * kh * kw;
        let min_planes = (MIN_WORK_PER_BAND / per_plane.max(1)).max(1);
        let (hw, khw) = (h * w, kh * kw);
        sthsl_parallel::parallel_rows_mut(
            &mut out,
            b * cout,
            oh * ow,
            min_planes,
            |planes, band| {
                for (local, plane) in planes.enumerate() {
                    let (bi, co) = (plane / cout, plane % cout);
                    let oplane = &mut band[local * oh * ow..(local + 1) * oh * ow];
                    oplane.fill(bias_data.map_or(0.0, |bd| bd[co]));
                    for ci in 0..cin {
                        let xplane = &x[(bi * cin + ci) * hw..][..hw];
                        let wk = &wt[(co * cin + ci) * khw..][..khw];
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let wv = wk[ky * kw + kx];
                                for (o, i, n) in tap_runs((oh, ow), (h, w), pad, (ky, kx)) {
                                    for (acc, &xv) in
                                        oplane[o..o + n].iter_mut().zip(&xplane[i..i + n])
                                    {
                                        *acc += xv * wv;
                                    }
                                }
                            }
                        }
                    }
                }
            },
        );
        Tensor::from_vec(out, &[b, cout, oh, ow])
    }

    /// Gradient of `conv2d` w.r.t. its input (a transposed convolution with
    /// the kernel flipped).
    pub fn conv2d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: (usize, usize),
    ) -> Result<Tensor> {
        let [b, cout, oh, ow] = dims4(grad_out, "conv2d grad_out")?;
        let [cout_w, cin, kh, kw] = dims4(weight, "conv2d weight")?;
        if cout != cout_w || input_shape.len() != 4 {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_grad_input",
                lhs: grad_out.shape().to_vec(),
                rhs: weight.shape().to_vec(),
            });
        }
        let (h, w) = (input_shape[2], input_shape[3]);
        let go = grad_out.data();
        let wt = weight.data();
        let mut gx = vec![0.0f32; b * cin * h * w];
        // Each batch element's input-gradient block is disjoint. Every input
        // element receives its contributions in co → oy → ox order, which
        // for one element is co, then ky descending, then kx descending —
        // the loop order below — and a zero gradient contributes nothing.
        let per_batch = cout * oh * ow * cin * kh * kw;
        let min_rows = (MIN_WORK_PER_BAND / per_batch.max(1)).max(1);
        let (hw, khw) = (h * w, kh * kw);
        sthsl_parallel::parallel_rows_mut(&mut gx, b, cin * hw, min_rows, |batches, band| {
            for (local, bi) in batches.enumerate() {
                let gblock = &mut band[local * cin * hw..(local + 1) * cin * hw];
                for co in 0..cout {
                    let gplane = &go[(bi * cout + co) * oh * ow..][..oh * ow];
                    for ci in 0..cin {
                        let xplane = &mut gblock[ci * hw..(ci + 1) * hw];
                        let wk = &wt[(co * cin + ci) * khw..][..khw];
                        for ky in (0..kh).rev() {
                            for kx in (0..kw).rev() {
                                let wv = wk[ky * kw + kx];
                                for (o, i, n) in tap_runs((oh, ow), (h, w), pad, (ky, kx)) {
                                    for (acc, &g) in
                                        xplane[i..i + n].iter_mut().zip(&gplane[o..o + n])
                                    {
                                        *acc = if g == 0.0 { *acc } else { *acc + g * wv };
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(gx, input_shape)
    }

    /// Gradient of `conv2d` w.r.t. its weight.
    pub fn conv2d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: (usize, usize),
    ) -> Result<Tensor> {
        let [b, cout, oh, ow] = dims4(grad_out, "conv2d grad_out")?;
        let [b_x, cin, h, w] = dims4(input, "conv2d input")?;
        if b != b_x || weight_shape.len() != 4 {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_grad_weight",
                lhs: grad_out.shape().to_vec(),
                rhs: input.shape().to_vec(),
            });
        }
        let (kh, kw) = (weight_shape[2], weight_shape[3]);
        let go = grad_out.data();
        let x = input.data();
        let (hw, khw) = (h * w, kh * kw);
        let kdim = cin * khw;
        let mut gw = vec![0.0f32; cout * kdim];
        // Each out-channel's weight-gradient block is disjoint. Every weight
        // element is one sequential sum over bi → oy → ox, kept in a register
        // and run over its tap's contiguous rows of `grad_out` and the input;
        // zero gradients are skipped by a select.
        let per_cout = b * oh * ow * kdim;
        let min_rows = (MIN_WORK_PER_BAND / per_cout.max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut gw, cout, kdim, min_rows, |couts, band| {
            for (local, co) in couts.enumerate() {
                let gblock = &mut band[local * kdim..(local + 1) * kdim];
                for bi in 0..b {
                    let gplane = &go[(bi * cout + co) * oh * ow..][..oh * ow];
                    for ci in 0..cin {
                        let xplane = &x[(bi * cin + ci) * hw..][..hw];
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let acc = &mut gblock[(ci * kh + ky) * kw + kx];
                                let mut sum = *acc;
                                for (o, i, n) in tap_runs((oh, ow), (h, w), pad, (ky, kx)) {
                                    for (&g, &xv) in gplane[o..o + n].iter().zip(&xplane[i..i + n])
                                    {
                                        sum = if g == 0.0 { sum } else { sum + g * xv };
                                    }
                                }
                                *acc = sum;
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(gw, weight_shape)
    }

    /// Gradient of a conv bias: sum of `grad_out` over batch and spatial axes.
    pub fn conv2d_grad_bias(grad_out: &Tensor) -> Result<Tensor> {
        let [b, cout, oh, ow] = dims4(grad_out, "conv2d grad_out")?;
        let go = grad_out.data();
        let mut gb = vec![0.0f32; cout];
        for bi in 0..b {
            for (co, gbc) in gb.iter_mut().enumerate() {
                let base = ((bi * cout + co) * oh) * ow;
                *gbc += go[base..base + oh * ow].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(gb, &[cout])
    }

    /// 1-D convolution with dilation. `self: [B, Cin, L]`,
    /// `weight: [Cout, Cin, k]`, optional `bias: [Cout]`.
    /// Output length: `L + left + right − dilation·(k−1)`.
    pub fn conv1d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        let [b, cin, l] = dims3(self, "conv1d input")?;
        let [cout, cin_w, k] = dims3(weight, "conv1d weight")?;
        if cin != cin_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv1d",
                lhs: self.shape().to_vec(),
                rhs: weight.shape().to_vec(),
            });
        }
        if dilation == 0 {
            return Err(TensorError::Invalid("conv1d: dilation must be >= 1".into()));
        }
        let span = dilation * (k - 1);
        let ol = (l + pad.left + pad.right).checked_sub(span).ok_or_else(|| {
            TensorError::Invalid(format!(
                "conv1d: dilated kernel span {span} exceeds padded length {}",
                l + pad.left + pad.right
            ))
        })?;
        if let Some(bs) = bias {
            if bs.shape() != [cout] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv1d bias",
                    lhs: bs.shape().to_vec(),
                    rhs: vec![cout],
                });
            }
        }
        let x = self.data();
        let wt = weight.data();
        let bias_data = bias.map(super::super::tensor::Tensor::data);
        let mut out = vec![0.0f32; b * cout * ol];
        let per_plane = ol * cin * k;
        let min_planes = (MIN_WORK_PER_BAND / per_plane.max(1)).max(1);
        // Same contract as `conv2d`: every element starts at its bias and adds
        // its valid taps in ci → kk order, one contiguous output run per tap.
        let pads = (0, pad.left);
        sthsl_parallel::parallel_rows_mut(&mut out, b * cout, ol, min_planes, |planes, band| {
            for (local, plane) in planes.enumerate() {
                let (bi, co) = (plane / cout, plane % cout);
                let oplane = &mut band[local * ol..(local + 1) * ol];
                oplane.fill(bias_data.map_or(0.0, |bd| bd[co]));
                for ci in 0..cin {
                    let xrow = &x[(bi * cin + ci) * l..][..l];
                    for (kk, &wv) in wt[(co * cin + ci) * k..][..k].iter().enumerate() {
                        for (o, i, n) in tap_runs((1, ol), (1, l), pads, (0, kk * dilation)) {
                            for (acc, &xv) in oplane[o..o + n].iter_mut().zip(&xrow[i..i + n]) {
                                *acc += xv * wv;
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(out, &[b, cout, ol])
    }

    /// Gradient of `conv1d` w.r.t. its input.
    pub fn conv1d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        let [b, cout, ol] = dims3(grad_out, "conv1d grad_out")?;
        let [_, cin, k] = dims3(weight, "conv1d weight")?;
        let l = input_shape[2];
        let go = grad_out.data();
        let wt = weight.data();
        let mut gx = vec![0.0f32; b * cin * l];
        let per_batch = cout * ol * cin * k;
        let min_rows = (MIN_WORK_PER_BAND / per_batch.max(1)).max(1);
        // Same contract as `conv2d_grad_input`: per input element, co, then
        // o ascending (kk descending); a zero gradient contributes nothing.
        let pads = (0, pad.left);
        sthsl_parallel::parallel_rows_mut(&mut gx, b, cin * l, min_rows, |batches, band| {
            for (local, bi) in batches.enumerate() {
                let gblock = &mut band[local * cin * l..(local + 1) * cin * l];
                for co in 0..cout {
                    let grow = &go[(bi * cout + co) * ol..][..ol];
                    for ci in 0..cin {
                        let xrow = &mut gblock[ci * l..(ci + 1) * l];
                        let wk = &wt[(co * cin + ci) * k..][..k];
                        for kk in (0..k).rev() {
                            let wv = wk[kk];
                            for (o, i, n) in tap_runs((1, ol), (1, l), pads, (0, kk * dilation)) {
                                for (acc, &g) in xrow[i..i + n].iter_mut().zip(&grow[o..o + n]) {
                                    *acc = if g == 0.0 { *acc } else { *acc + g * wv };
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(gx, input_shape)
    }

    /// Gradient of `conv1d` w.r.t. its weight.
    pub fn conv1d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        let [b, cout, ol] = dims3(grad_out, "conv1d grad_out")?;
        let [_, cin, l] = dims3(input, "conv1d input")?;
        let k = weight_shape[2];
        let go = grad_out.data();
        let x = input.data();
        let mut gw = vec![0.0f32; cout * cin * k];
        let per_cout = b * ol * cin * k;
        let min_rows = (MIN_WORK_PER_BAND / per_cout.max(1)).max(1);
        // Same contract and loop scheme as `conv2d_grad_weight`: one
        // sequential bi → o sum per weight element.
        let pads = (0, pad.left);
        sthsl_parallel::parallel_rows_mut(&mut gw, cout, cin * k, min_rows, |couts, band| {
            for (local, co) in couts.enumerate() {
                let gblock = &mut band[local * cin * k..(local + 1) * cin * k];
                for bi in 0..b {
                    let grow = &go[(bi * cout + co) * ol..][..ol];
                    for ci in 0..cin {
                        let xrow = &x[(bi * cin + ci) * l..][..l];
                        for (kk, acc) in gblock[ci * k..(ci + 1) * k].iter_mut().enumerate() {
                            let mut sum = *acc;
                            for (o, i, n) in tap_runs((1, ol), (1, l), pads, (0, kk * dilation)) {
                                for (&g, &xv) in grow[o..o + n].iter().zip(&xrow[i..i + n]) {
                                    sum = if g == 0.0 { sum } else { sum + g * xv };
                                }
                            }
                            *acc = sum;
                        }
                    }
                }
            }
        });
        Tensor::from_vec(gw, weight_shape)
    }

    /// Gradient of a 1-D conv bias: sum over batch and length axes.
    pub fn conv1d_grad_bias(grad_out: &Tensor) -> Result<Tensor> {
        let [b, cout, ol] = dims3(grad_out, "conv1d grad_out")?;
        let go = grad_out.data();
        let mut gb = vec![0.0f32; cout];
        for bi in 0..b {
            for (co, gbc) in gb.iter_mut().enumerate() {
                let base = (bi * cout + co) * ol;
                *gbc += go[base..base + ol].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(gb, &[cout])
    }
}

/// The output positions `o` in `0..out` whose tap at offset `off` reads
/// inside an input of length `len` with `pad` zeros on its left, i.e.
/// `o + off - pad` in `0..len`.
fn valid_range(out: usize, len: usize, pad: usize, off: usize) -> Range<usize> {
    let lo = pad.saturating_sub(off);
    lo..out.min((len + pad).saturating_sub(off)).max(lo)
}

/// The contiguous runs one 2-D tap `(ky, kx)` makes between an `[oh, ow]`
/// output plane and an `[h, w]` input plane padded by `(ph, pw)`: one
/// `(out_start, in_start, len)` per output row the tap reads inside the
/// input, with the padded columns clipped off. Output element
/// `out_start + j` reads input element `in_start + j`. A 1-D tap is the
/// one-row case: `tap_runs((1, ol), (1, l), (0, left), (0, kk · dilation))`.
fn tap_runs(
    (oh, ow): (usize, usize),
    (h, w): (usize, usize),
    (ph, pw): (usize, usize),
    (ky, kx): (usize, usize),
) -> impl Iterator<Item = (usize, usize, usize)> {
    let oxs = valid_range(ow, w, pw, kx);
    let oys = if oxs.is_empty() { 0..0 } else { valid_range(oh, h, ph, ky) };
    oys.map(move |oy| (oy * ow + oxs.start, (oy + ky - ph) * w + oxs.start + kx - pw, oxs.len()))
}

fn dims4(t: &Tensor, op: &'static str) -> Result<[usize; 4]> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            got: t.ndim(),
            shape: t.shape().to_vec(),
        });
    }
    Ok([t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]])
}

fn dims3(t: &Tensor, op: &'static str) -> Result<[usize; 3]> {
    if t.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            got: t.ndim(),
            shape: t.shape().to_vec(),
        });
    }
    Ok([t.shape()[0], t.shape()[1], t.shape()[2]])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference conv2d used only for cross-checking the kernel.
    fn conv2d_ref(x: &Tensor, w: &Tensor, pad: (usize, usize)) -> Tensor {
        let [b, cin, h, wd] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let [cout, _, kh, kw] = [w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]];
        let oh = h + 2 * pad.0 - kh + 1;
        let ow = wd + 2 * pad.1 - kw + 1;
        let mut out = Tensor::zeros(&[b, cout, oh, ow]);
        for bi in 0..b {
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..cin {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = oy as isize + ky as isize - pad.0 as isize;
                                    let ix = ox as isize + kx as isize - pad.1 as isize;
                                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < wd
                                    {
                                        acc += x.at(&[bi, ci, iy as usize, ix as usize])
                                            * w.at(&[co, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[bi, co, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_reference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::rand_normal(&[2, 3, 5, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 3, 3, 3], 0.0, 1.0, &mut rng);
        let got = x.conv2d(&w, None, (1, 1)).unwrap();
        let want = conv2d_ref(&x, &w, (1, 1));
        assert_eq!(got.shape(), want.shape());
        for (g, wv) in got.data().iter().zip(want.data()) {
            assert!((g - wv).abs() < 1e-4, "{g} vs {wv}");
        }
    }

    #[test]
    fn conv2d_same_padding_preserves_spatial_dims() {
        let x = Tensor::ones(&[1, 1, 6, 7]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, (1, 1)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 6, 7]);
        // Interior cells see the full 3×3 window of ones.
        assert_eq!(y.at(&[0, 0, 3, 3]), 9.0);
        // A corner sees only a 2×2 window.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let y = x.conv2d(&w, Some(&b), (0, 0)).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn conv1d_identity_kernel() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]).unwrap();
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let y = x.conv1d(&w, None, Pad1d { left: 0, right: 0 }, 1).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_same_padding_moving_sum() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 3]);
        let y = x.conv1d(&w, None, Pad1d::same(3), 1).unwrap();
        assert_eq!(y.data(), &[3., 6., 9., 7.]);
    }

    #[test]
    fn conv1d_causal_never_sees_future() {
        // Impulse at position 2; causal conv output must be zero before 2.
        let x = Tensor::from_vec(vec![0., 0., 1., 0., 0., 0.], &[1, 1, 6]).unwrap();
        let w = Tensor::ones(&[1, 1, 2]);
        let y = x.conv1d(&w, None, Pad1d::causal(2, 2), 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 6]);
        assert_eq!(y.data()[0], 0.0);
        assert_eq!(y.data()[1], 0.0);
        assert_eq!(y.data()[2], 1.0);
        assert_eq!(y.data()[4], 1.0); // dilated tap two steps later
    }

    #[test]
    fn conv2d_grads_match_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.5, &mut rng);
        let pad = (1, 1);
        // Loss = sum(conv(x, w)); grad_out = ones.
        let y = x.conv2d(&w, None, pad).unwrap();
        let go = Tensor::ones(y.shape());
        let gx = Tensor::conv2d_grad_input(&go, &w, x.shape(), pad).unwrap();
        let gw = Tensor::conv2d_grad_weight(&go, &x, w.shape(), pad).unwrap();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates by central differences.
        for &i in &[0usize, 7, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = xp.conv2d(&w, None, pad).unwrap().data().iter().sum();
            let fm: f32 = xm.conv2d(&w, None, pad).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2, "input grad {i}: {fd} vs {}", gx.data()[i]);
        }
        for &i in &[0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp: f32 = x.conv2d(&wp, None, pad).unwrap().data().iter().sum();
            let fm: f32 = x.conv2d(&wm, None, pad).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-1, "weight grad {i}: {fd} vs {}", gw.data()[i]);
        }
    }

    #[test]
    fn conv1d_grads_match_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let x = Tensor::rand_normal(&[1, 2, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[3, 2, 3], 0.0, 0.5, &mut rng);
        let pad = Pad1d::same(3);
        let y = x.conv1d(&w, None, pad, 1).unwrap();
        let go = Tensor::ones(y.shape());
        let gx = Tensor::conv1d_grad_input(&go, &w, x.shape(), pad, 1).unwrap();
        let gw = Tensor::conv1d_grad_weight(&go, &x, w.shape(), pad, 1).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = xp.conv1d(&w, None, pad, 1).unwrap().data().iter().sum();
            let fm: f32 = xm.conv1d(&w, None, pad, 1).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2);
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp: f32 = x.conv1d(&wp, None, pad, 1).unwrap().data().iter().sum();
            let fm: f32 = x.conv1d(&wm, None, pad, 1).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-1);
        }
    }

    #[test]
    fn conv_bias_grads() {
        let go = Tensor::ones(&[2, 3, 4, 5]);
        let gb = Tensor::conv2d_grad_bias(&go).unwrap();
        assert_eq!(gb.data(), &[40.0, 40.0, 40.0]);
        let go1 = Tensor::ones(&[2, 3, 7]);
        let gb1 = Tensor::conv1d_grad_bias(&go1).unwrap();
        assert_eq!(gb1.data(), &[14.0, 14.0, 14.0]);
    }

    #[test]
    fn conv_rejects_bad_shapes() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[1, 3, 3, 3]); // wrong cin
        assert!(x.conv2d(&w, None, (1, 1)).is_err());
        let x1 = Tensor::zeros(&[1, 1, 3]);
        let w1 = Tensor::zeros(&[1, 1, 5]); // kernel longer than input, no pad
        assert!(x1.conv1d(&w1, None, Pad1d { left: 0, right: 0 }, 1).is_err());
        assert!(x1.conv1d(&w1, None, Pad1d::same(5), 0).is_err()); // dilation 0
    }
}
