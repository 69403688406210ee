//! Functional (value-level) vector-unit kernels (paper Section 4.2.2).
//!
//! The timing side of the vector unit lives in [`crate::VectorUnit`];
//! this module implements what the kernels *compute*, with the paper's
//! microarchitectural choices made explicit:
//!
//! * **two-phase layer normalization** — mean/variance pass, then a
//!   normalize pass (the VU's on-chip memory cannot hold intermediate
//!   per-element state for large token counts);
//! * **masked softmax in one fused kernel** — masks are stored as 1-bit
//!   bitmaps (8× smaller than byte masks), and numerical stability comes
//!   from subtracting the row maximum;
//! * **GELU via lookup-table approximation** with linear interpolation.
//!
//! The kernels compute in f32 (the VLIW lanes' internal precision);
//! BF16 conversion happens at scratchpad boundaries and is owned by the
//! callers.

/// Packs a boolean mask into the paper's 1-bit bitmap format (LSB-first).
///
/// # Examples
///
/// ```
/// use ianus_npu::functional::{pack_mask, mask_bit};
/// let bits = pack_mask(&[true, false, true, true]);
/// assert_eq!(bits, vec![0b1101]);
/// assert!(mask_bit(&bits, 0) && !mask_bit(&bits, 1));
/// ```
pub fn pack_mask(mask: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; mask.len().div_ceil(8)];
    for (i, &m) in mask.iter().enumerate() {
        if m {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Reads bit `i` of a packed mask (out-of-range bits read as masked-off).
pub fn mask_bit(bits: &[u8], i: usize) -> bool {
    bits.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

/// Builds the causal (lower-triangular) attention bitmap for a query at
/// position `pos` over `len` key positions.
pub fn causal_mask(pos: usize, len: usize) -> Vec<u8> {
    pack_mask(&(0..len).map(|k| k <= pos).collect::<Vec<_>>())
}

/// Two-phase layer normalization with affine parameters.
///
/// # Panics
///
/// Panics if `x` is empty or the parameter lengths mismatch.
pub fn layer_norm(x: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
    assert!(!x.is_empty(), "layer norm of empty vector");
    assert!(
        gamma.len() == x.len() && beta.len() == x.len(),
        "parameter length mismatch"
    );
    // Phase 1: statistics.
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + 1e-5).sqrt();
    // Phase 2: normalize.
    x.iter()
        .zip(gamma.iter().zip(beta))
        .map(|(v, (g, b))| (v - mean) * inv * g + b)
        .collect()
}

/// Fused masked softmax over one attention row: masked-off positions are
/// excluded (treated as −∞), stability comes from max subtraction — not
/// "the large value" the paper replaces (Section 4.2.2).
///
/// # Panics
///
/// Panics if every position is masked off.
pub fn masked_softmax(scores: &[f32], mask_bits: &[u8]) -> Vec<f32> {
    let max = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| mask_bit(mask_bits, *i))
        .map(|(_, &v)| v)
        .fold(f32::NEG_INFINITY, f32::max);
    assert!(max.is_finite(), "softmax with all positions masked");
    let mut out = vec![0.0f32; scores.len()];
    let mut sum = 0.0f32;
    for (i, &s) in scores.iter().enumerate() {
        if mask_bit(mask_bits, i) {
            let e = (s - max).exp();
            out[i] = e;
            sum += e;
        }
    }
    for v in &mut out {
        *v /= sum;
    }
    out
}

/// GELU via the VU's 256-knot lookup table over `[-8, 8]` with linear
/// interpolation (Section 4.2.2 / NN-LUT-style approximation).
#[derive(Debug, Clone)]
pub struct GeluTable {
    knots: Vec<f32>,
}

fn gelu_exact(x: f32) -> f32 {
    let x3 = x * x * x;
    0.5 * x * (1.0 + ((0.797_884_6_f32) * (x + 0.044_715 * x3)).tanh())
}

impl GeluTable {
    /// Builds the table.
    pub fn new() -> Self {
        GeluTable {
            knots: (0..=256)
                .map(|i| gelu_exact(-8.0 + 16.0 * i as f32 / 256.0))
                .collect(),
        }
    }

    /// Evaluates one element.
    pub fn eval(&self, x: f32) -> f32 {
        if x <= -8.0 {
            return 0.0;
        }
        if x >= 8.0 {
            return x;
        }
        let pos = (x + 8.0) / 16.0 * 256.0;
        let i = pos.floor() as usize;
        let frac = pos - i as f32;
        self.knots[i] * (1.0 - frac) + self.knots[i + 1] * frac
    }

    /// Evaluates a slice in place.
    pub fn apply(&self, x: &mut [f32]) {
        for v in x {
            *v = self.eval(*v);
        }
    }
}

impl Default for GeluTable {
    fn default() -> Self {
        GeluTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_pack_roundtrip() {
        let mask: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let bits = pack_mask(&mask);
        assert_eq!(bits.len(), 3);
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(mask_bit(&bits, i), m, "bit {i}");
        }
        // Bitmap is 8x smaller than byte masks (paper's data-movement
        // argument).
        assert!(bits.len() * 8 >= mask.len());
    }

    #[test]
    fn causal_mask_shape() {
        let bits = causal_mask(2, 5);
        let visible: Vec<bool> = (0..5).map(|i| mask_bit(&bits, i)).collect();
        assert_eq!(visible, vec![true, true, true, false, false]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.3 - 7.0).collect();
        let ones = vec![1.0f32; 64];
        let zeros = vec![0.0f32; 64];
        let y = layer_norm(&x, &ones, &zeros);
        let mean: f32 = y.iter().sum::<f32>() / 64.0;
        let var: f32 = y.iter().map(|v| v * v).sum::<f32>() / 64.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn masked_softmax_excludes_masked_positions() {
        let scores = [1.0f32, 100.0, 2.0, 3.0];
        // Mask off the huge score.
        let bits = pack_mask(&[true, false, true, true]);
        let p = masked_softmax(&scores, &bits);
        assert_eq!(p[1], 0.0);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[3] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn masked_softmax_stable_for_large_scores() {
        let scores = [5000.0f32, 5001.0];
        let bits = pack_mask(&[true, true]);
        let p = masked_softmax(&scores, &bits);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[0] + p[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "all positions masked")]
    fn fully_masked_softmax_panics() {
        let _ = masked_softmax(&[1.0, 2.0], &pack_mask(&[false, false]));
    }

    #[test]
    fn gelu_table_accuracy() {
        let t = GeluTable::new();
        let mut max_err = 0.0f32;
        let mut x = -10.0f32;
        while x < 10.0 {
            max_err =
                max_err.max((t.eval(x) - gelu_exact(x.clamp(-8.0, 8.0).max(x.min(8.0)))).abs());
            x += 0.01;
        }
        // Saturation regions are exact by construction; interior < 5e-3.
        assert!(t.eval(-9.0) == 0.0 && t.eval(9.0) == 9.0);
        let mut interior_err = 0.0f32;
        let mut x = -8.0f32;
        while x <= 8.0 {
            interior_err = interior_err.max((t.eval(x) - gelu_exact(x)).abs());
            x += 0.01;
        }
        assert!(interior_err < 5e-3, "{interior_err}");
    }
}
