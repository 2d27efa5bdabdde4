use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::dense::{Dense, DenseBatchCache};
use crate::lstm::{flatten_rows, unflatten_rows, LstmBatchTrace, LstmCell};
use crate::optimizer::Trainable;

/// An LSTM sequence classifier emitting one probability per window — the
/// discriminator of MAD-GAN, also used directly to produce the
/// discrimination half of the DR-Score.
///
/// # Examples
///
/// ```
/// use lgo_nn::LstmDiscriminator;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(8);
/// let d = LstmDiscriminator::new(4, 16, &mut rng);
/// let window = vec![vec![0.5; 4]; 12];
/// let p = d.probability(&window);
/// assert!((0.0..=1.0).contains(&p));
/// ```
#[derive(Debug, Clone)]
pub struct LstmDiscriminator {
    cell: LstmCell,
    head: Dense,
}

/// Forward trace of a batch of equal-length windows through a
/// [`LstmDiscriminator`], consumed by [`LstmDiscriminator::backward_flat`]
/// and [`LstmDiscriminator::input_grad_flat`].
#[derive(Debug, Clone)]
pub struct DiscriminatorBatchTrace {
    lstm: LstmBatchTrace,
    head: DenseBatchCache,
}

impl DiscriminatorBatchTrace {
    /// The probability emitted for each window, in batch order.
    pub fn probabilities(&self) -> &[f64] {
        self.head.outputs().as_slice()
    }
}

/// Forward trace of a single-window discriminator pass, consumed by
/// [`LstmDiscriminator::backward`].
#[derive(Debug, Clone)]
pub struct DiscriminatorTrace {
    inner: DiscriminatorBatchTrace,
}

impl DiscriminatorTrace {
    /// The probability emitted by the forward pass.
    pub fn probability(&self) -> f64 {
        self.inner.probabilities()[0]
    }
}

impl LstmDiscriminator {
    /// Creates a discriminator for `input`-dim rows with `hidden` LSTM units.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            cell: LstmCell::new(input, hidden, rng),
            head: Dense::new(hidden, 1, Activation::Sigmoid, rng),
        }
    }

    /// Input dimensionality per timestep.
    pub fn input_size(&self) -> usize {
        self.cell.input_size()
    }

    /// Runs `batch` windows of `len` rows at once (`xs` flat, row
    /// `b * len + t` = window `b`'s row `t`), retaining what the backward
    /// passes need. Each probability is bit-for-bit the single-window
    /// [`Self::probability`].
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `xs.len() != batch * len * input_size()`.
    pub fn forward_flat(&self, xs: &[f64], batch: usize, len: usize) -> DiscriminatorBatchTrace {
        assert!(len > 0, "forward: empty window");
        let lstm = self.cell.forward_flat(xs, batch, len);
        let hidden = self.cell.hidden_size();
        let mut last = Vec::with_capacity(batch * hidden);
        for b in 0..batch {
            last.extend_from_slice(lstm.last_hidden(b));
        }
        let head = self
            .head
            .forward_rows(Matrix::from_vec(batch, hidden, last));
        DiscriminatorBatchTrace { lstm, head }
    }

    /// Pure inference over a batch: the probability that each window is
    /// *real*.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `xs.len() != batch * len * input_size()`.
    pub fn probabilities(&self, xs: &[f64], batch: usize, len: usize) -> Vec<f64> {
        self.forward_flat(xs, batch, len).probabilities().to_vec()
    }

    /// Backpropagates one probability gradient per window, accumulating
    /// parameter gradients in the order of one [`Self::backward`] call per
    /// window (window ascending; within the cell, timestep descending).
    /// Input gradients are not formed; see [`Self::input_grad_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `dprobs.len()` differs from the batch size.
    pub fn backward_flat(&mut self, trace: &DiscriminatorBatchTrace, dprobs: &[f64]) {
        let dlast = self.head.backward_rows(&trace.head, dprobs);
        let dh = self.last_step_gradients(trace, &dlast);
        self.cell.backward_flat(&trace.lstm, &dh);
    }

    /// Gradient of `Σ dprobs[b] · probability[b]` with respect to every
    /// input row of a batch trace (trace row layout) — a *pure* pass
    /// through `&self` that leaves the parameter-gradient accumulators
    /// untouched. This is the path through which the MAD-GAN generator
    /// receives its gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dprobs.len()` differs from the batch size.
    pub fn input_grad_flat(&self, trace: &DiscriminatorBatchTrace, dprobs: &[f64]) -> Vec<f64> {
        let dlast = self.head.input_grad_rows(&trace.head, dprobs);
        let dh = self.last_step_gradients(trace, &dlast);
        self.cell.input_grad_flat(&trace.lstm, &dh)
    }

    /// Hidden-state gradients of a batch: `dlast[b]` on each window's
    /// final step, zero elsewhere.
    fn last_step_gradients(&self, trace: &DiscriminatorBatchTrace, dlast: &[f64]) -> Vec<f64> {
        let (len, hidden) = (trace.lstm.len(), self.cell.hidden_size());
        let mut dh = vec![0.0; trace.lstm.batch_size() * len * hidden];
        for (b, d) in dlast.chunks_exact(hidden).enumerate() {
            let r = b * len + len - 1;
            dh[r * hidden..(r + 1) * hidden].copy_from_slice(d);
        }
        dh
    }

    /// Probability that the window is *real* (pure inference).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or row widths mismatch.
    pub fn probability(&self, window: &[Vec<f64>]) -> f64 {
        assert!(!window.is_empty(), "probability: empty window");
        self.forward(window).probability()
    }

    /// Forward pass retaining intermediates for [`Self::backward`]: a
    /// batch of one through [`Self::forward_flat`].
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn forward(&self, window: &[Vec<f64>]) -> DiscriminatorTrace {
        assert!(!window.is_empty(), "forward: empty window");
        let flat = flatten_rows(window, self.input_size(), "LstmCell");
        DiscriminatorTrace {
            inner: self.forward_flat(&flat, 1, window.len()),
        }
    }

    /// Backpropagates `dprob` (gradient of the loss w.r.t. the emitted
    /// probability), accumulating parameter gradients and returning the
    /// gradient w.r.t. every input row.
    pub fn backward(&mut self, trace: &DiscriminatorTrace, dprob: f64) -> Vec<Vec<f64>> {
        let dlast = self.head.backward_rows(&trace.inner.head, &[dprob]);
        let dh = self.last_step_gradients(&trace.inner, &dlast);
        let dx = self.cell.backward_flat_with_input(&trace.inner.lstm, &dh);
        unflatten_rows(&dx, self.input_size())
    }

    /// Gradient of the emitted probability w.r.t. the input window, without
    /// accumulating parameter gradients: the pure
    /// [`Self::input_grad_flat`] path on a batch of one, safe to call
    /// through `&self`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or row widths mismatch.
    pub fn input_gradient(&self, window: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let trace = self.forward(window);
        unflatten_rows(
            &self.input_grad_flat(&trace.inner, &[1.0]),
            self.input_size(),
        )
    }
}

impl Trainable for LstmDiscriminator {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.cell.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optimizer::Adam;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn disc() -> LstmDiscriminator {
        let mut rng = StdRng::seed_from_u64(13);
        LstmDiscriminator::new(2, 8, &mut rng)
    }

    #[test]
    fn probability_in_unit_interval() {
        let d = disc();
        let w = vec![vec![10.0, -10.0]; 6];
        let p = d.probability(&w);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(p, d.forward(&w).probability());
    }

    #[test]
    fn gradient_check_input() {
        let d = disc();
        let w: Vec<Vec<f64>> = (0..5)
            .map(|t| vec![(t as f64 * 0.3).sin(), (t as f64 * 0.7).cos()])
            .collect();
        let dxs = d.input_gradient(&w);
        let eps = 1e-6;
        for t in 0..w.len() {
            for j in 0..2 {
                let mut wp = w.clone();
                wp[t][j] += eps;
                let mut wm = w.clone();
                wm[t][j] -= eps;
                let numeric = (d.probability(&wp) - d.probability(&wm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][j]).abs() < 1e-6,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t][j]
                );
            }
        }
    }

    #[test]
    fn batch_matches_single_windows_bitwise() {
        let d = disc();
        let windows: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|b| {
                (0..6)
                    .map(|t| vec![((b * 6 + t) as f64 * 0.4).sin(), 0.1 * b as f64])
                    .collect()
            })
            .collect();
        let flat: Vec<f64> = windows.iter().flatten().flatten().copied().collect();
        let trace = d.forward_flat(&flat, 4, 6);
        let dprobs = [0.5, -1.25, 0.0, 2.0];
        let dx = d.input_grad_flat(&trace, &dprobs);
        let mut batched = d.clone();
        batched.zero_grads();
        batched.backward_flat(&trace, &dprobs);
        let mut single = d.clone();
        single.zero_grads();
        for (b, w) in windows.iter().enumerate() {
            assert_eq!(
                trace.probabilities()[b].to_bits(),
                d.probability(w).to_bits()
            );
            let tr = single.forward(w);
            let dxs = single.backward(&tr, dprobs[b]);
            assert_eq!(dxs.concat().as_slice(), &dx[b * 12..(b + 1) * 12]);
        }
        let mut a = Vec::new();
        batched.visit_params(&mut |_, g| a.extend(g.as_slice().iter().map(|v| v.to_bits())));
        let mut s = Vec::new();
        single.visit_params(&mut |_, g| s.extend(g.as_slice().iter().map(|v| v.to_bits())));
        assert_eq!(a, s);
        assert_eq!(d.probabilities(&flat, 4, 6), trace.probabilities());
    }

    #[test]
    fn separates_two_distributions() {
        // Real: smooth low-amplitude windows. Fake: saturated noise.
        let mut rng = StdRng::seed_from_u64(99);
        let real = |rng: &mut StdRng| -> Vec<Vec<f64>> {
            let phase: f64 = rng.random_range(0.0..3.0);
            (0..8)
                .map(|t| {
                    let v = ((t as f64) * 0.5 + phase).sin() * 0.2 + 0.5;
                    vec![v, v * 0.5]
                })
                .collect()
        };
        let fake = |rng: &mut StdRng| -> Vec<Vec<f64>> {
            (0..8)
                .map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
                .collect()
        };
        let mut d = disc();
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            d.zero_grads();
            for _ in 0..4 {
                let w = real(&mut rng);
                let tr = d.forward(&w);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 1.0));
                let w = fake(&mut rng);
                let tr = d.forward(&w);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
            }
            opt.step(&mut d);
        }
        // Evaluate on fresh batches; individual windows can be ambiguous, so
        // compare the mean scores of the two distributions.
        let pr: f64 = (0..20).map(|_| d.probability(&real(&mut rng))).sum::<f64>() / 20.0;
        let pf: f64 = (0..20).map(|_| d.probability(&fake(&mut rng))).sum::<f64>() / 20.0;
        assert!(pr > 0.6, "real scored {pr}");
        assert!(pf < 0.4, "fake scored {pf}");
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn rejects_empty_window() {
        let _ = disc().probability(&[]);
    }
}
