//! Gumbel-softmax relaxation for discrete MARL actions.
//!
//! The particle environments use multi-discrete action spaces: a head of
//! width Σ segments holds one factor per segment (movement, then any
//! communication factors). MADDPG handles discrete actions by sampling
//! from a Gumbel-softmax distribution over the actor's logits, keeping the
//! action differentiable for the deterministic policy-gradient update;
//! every factor normalizes on its own. A single segment spanning the row
//! is the plain one-factor case.

use crate::activation::{softmax_backward_slice, softmax_slice_inplace};
use crate::matrix::Matrix;

/// Applies softmax independently to each segment of each row: the
/// relaxation of a composite (movement ⊕ communication) action space,
/// where every factor normalizes on its own.
///
/// # Panics
///
/// Panics if the segment widths do not sum to the column count.
pub fn softmax_segments_inplace(m: &mut Matrix, segments: &[usize]) {
    assert_eq!(segments.iter().sum::<usize>(), m.cols(), "segments must tile the row");
    for r in 0..m.rows() {
        let mut row = m.row_mut(r);
        for &s in segments {
            let (head, rest) = row.split_at_mut(s);
            softmax_slice_inplace(head);
            row = rest;
        }
    }
}

/// Deterministic relaxation (no Gumbel noise): writes
/// `softmax(logits / temperature)`, applied independently to each action
/// factor, into `value` (allocation-free once `value` has capacity).
///
/// # Panics
///
/// Panics if `temperature <= 0` or the segments do not tile the row.
pub fn softmax_relaxation_segments_into(
    logits: &Matrix,
    segments: &[usize],
    temperature: f32,
    value: &mut Matrix,
) {
    assert!(temperature > 0.0, "temperature must be positive");
    value.copy_from(logits);
    value.scale(1.0 / temperature);
    softmax_segments_inplace(value, segments);
}

/// Backward of [`softmax_relaxation_segments_into`]: given the relaxed
/// sample `value` and `dL/dvalue`, writes `dL/dlogits` into `grad_logits`.
/// Each action factor backpropagates through its own softmax Jacobian; the
/// trailing `1/temperature` scale is elementwise, so segmenting commutes
/// with it.
///
/// # Panics
///
/// Panics if the segments do not tile the row.
pub fn relaxation_backward_segments_into(
    grad_out: &Matrix,
    value: &Matrix,
    segments: &[usize],
    temperature: f32,
    grad_logits: &mut Matrix,
) {
    assert_eq!(grad_out.shape(), value.shape(), "relaxation backward shape mismatch");
    assert_eq!(segments.iter().sum::<usize>(), value.cols(), "segments must tile the row");
    grad_logits.resize(grad_out.rows(), grad_out.cols());
    for r in 0..grad_out.rows() {
        let mut g = grad_out.row(r);
        let mut y = value.row(r);
        let mut out = grad_logits.row_mut(r);
        for &s in segments {
            let (gh, gr) = g.split_at(s);
            let (yh, yr) = y.split_at(s);
            let (oh, or) = out.split_at_mut(s);
            softmax_backward_slice(gh, yh, oh);
            g = gr;
            y = yr;
            out = or;
        }
    }
    grad_logits.scale(1.0 / temperature);
}

/// First-maximum index of one raw slice: a strict `>` scan, so ties break
/// to the lowest index — the greedy-action convention everywhere a
/// discrete head is decoded.
pub fn argmax_slice(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Decodes every row of a segmented head into its joint action: the
/// [`argmax_slice`] of each segment, mixed-radix encoded with the first
/// segment least significant (`ActionSpace::encode` in marl-env). Row
/// `r`'s index lands in `out[r]`; with a single segment it is the plain
/// row arg-max.
///
/// `out` must already hold one slot per row: the serve path decodes every
/// batch into a preallocated buffer, so this never resizes.
///
/// # Panics
///
/// Panics if `out.len() != m.rows()` or the segments do not tile the row.
pub fn argmax_segments_into(m: &Matrix, segments: &[usize], out: &mut [usize]) {
    assert_eq!(out.len(), m.rows(), "one action index per row");
    assert_eq!(segments.iter().sum::<usize>(), m.cols(), "segments must tile the row");
    for (r, slot) in out.iter_mut().enumerate() {
        let mut row = m.row(r);
        let (mut idx, mut stride) = (0, 1);
        for &s in segments {
            let (head, rest) = row.split_at(s);
            idx += argmax_slice(head) * stride;
            stride *= s;
            row = rest;
        }
        *slot = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_temperature_approaches_one_hot() {
        let mut value = Matrix::default();
        softmax_relaxation_segments_into(
            &Matrix::row_vector(&[5.0, 0.0, 0.0]),
            &[3],
            0.1,
            &mut value,
        );
        assert!(value.at(0, 0) > 0.99);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        softmax_relaxation_segments_into(
            &Matrix::row_vector(&[0.0]),
            &[1],
            0.0,
            &mut Matrix::default(),
        );
    }

    #[test]
    fn segmented_relaxation_normalizes_each_factor() {
        let logits = Matrix::row_vector(&[0.4, -0.3, 0.1, 2.0, -1.5, 0.7, 0.0, -0.2]);
        let mut value = Matrix::default();
        softmax_relaxation_segments_into(&logits, &[5, 3], 1.0, &mut value);
        let row = value.row(0);
        let head: f32 = row[..5].iter().sum();
        let tail: f32 = row[5..].iter().sum();
        assert!((head - 1.0).abs() < 1e-5, "movement factor sums to {head}");
        assert!((tail - 1.0).abs() < 1e-5, "comm factor sums to {tail}");
    }

    #[test]
    fn segmented_backward_matches_finite_difference() {
        let logits = Matrix::row_vector(&[0.4, -0.3, 0.1, 1.2, -0.8]);
        let segments = [3usize, 2];
        let temp = 0.7;
        let mut value = Matrix::default();
        softmax_relaxation_segments_into(&logits, &segments, temp, &mut value);
        let w = [1.0f32, -2.0, 0.5, 0.3, -0.7];
        let mut g = Matrix::default();
        relaxation_backward_segments_into(&Matrix::row_vector(&w), &value, &segments, temp, &mut g);
        let eps = 1e-3f32;
        for i in 0..5 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let f = |l: &Matrix| -> f32 {
                let mut v = Matrix::default();
                softmax_relaxation_segments_into(l, &segments, temp, &mut v);
                v.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum()
            };
            let fd = (f(&lp) - f(&lm)) / (2.0 * eps);
            assert!((fd - g.as_slice()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "segments must tile the row")]
    fn mismatched_segments_rejected() {
        let mut m = Matrix::row_vector(&[0.0, 1.0, 2.0]);
        softmax_segments_inplace(&mut m, &[2, 2]);
    }

    #[test]
    fn argmax_slice_breaks_ties_low() {
        assert_eq!(argmax_slice(&[0.2, 0.5, 0.5, 0.3]), 1);
        assert_eq!(argmax_slice(&[1.0]), 0);
    }

    #[test]
    fn argmax_segments_encodes_mixed_radix_and_breaks_ties_low() {
        let m = Matrix::from_rows(&[
            &[0.5, 2.0, 2.0, -1.0, 0.0], // ties: lowest index wins in each factor
            &[-3.0, -1.0, -2.0, 4.0, 4.0],
            &[7.0, 0.0, 0.0, -1.0, 1.0],
        ]);
        let mut out = [99usize; 3];
        argmax_segments_into(&m, &[5], &mut out);
        assert_eq!(out, [1, 3, 0], "one segment is the plain row arg-max");
        // Per-factor choices (c0, c1) encode as c0 + width0 · c1.
        argmax_segments_into(&m, &[3, 2], &mut out);
        assert_eq!(out, [1 + 3, 1, 3]);
        argmax_segments_into(&m, &[2, 3], &mut out);
        assert_eq!(out, [1, 1 + 2, 2 * 2]);
        // Empty matrix: nothing written, no panic.
        argmax_segments_into(&Matrix::zeros(0, 5), &[5], &mut []);
    }
}
