use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::dense::{Dense, DenseBatchCache};
use crate::lstm::{flatten_rows, unflatten_rows, LstmBatchTrace, LstmCell};
use crate::optimizer::Trainable;

/// An LSTM followed by a shared per-timestep dense head — the generator
/// architecture of MAD-GAN (Li et al., 2019): a latent sequence goes in, a
/// synthetic multivariate window comes out.
///
/// # Examples
///
/// ```
/// use lgo_nn::{Activation, LstmSeq2Seq};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(4);
/// let g = LstmSeq2Seq::new(3, 16, 4, Activation::Sigmoid, &mut rng);
/// let z = vec![vec![0.1, -0.2, 0.05]; 12];
/// let x = g.generate(&z);
/// assert_eq!(x.len(), 12);
/// assert_eq!(x[0].len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct LstmSeq2Seq {
    cell: LstmCell,
    head: Dense,
}

/// Forward trace of a batch of equal-length sequences through a
/// [`LstmSeq2Seq`], consumed by [`LstmSeq2Seq::backward_flat`] and
/// [`LstmSeq2Seq::input_grad_flat`]. Rows follow the
/// [`LstmBatchTrace`] layout: row `b * len + t` is sequence `b`'s step `t`.
#[derive(Debug, Clone)]
pub struct Seq2SeqBatchTrace {
    lstm: LstmBatchTrace,
    head: DenseBatchCache,
}

impl Seq2SeqBatchTrace {
    /// The generated rows, flat: one output-width row per
    /// `(sequence, timestep)`.
    pub fn outputs(&self) -> &[f64] {
        self.head.outputs().as_slice()
    }
}

/// Forward trace of a single-sequence [`LstmSeq2Seq`] pass, consumed by
/// [`LstmSeq2Seq::backward`].
#[derive(Debug, Clone)]
pub struct Seq2SeqTrace {
    inner: Seq2SeqBatchTrace,
    outputs: Vec<Vec<f64>>,
}

impl Seq2SeqTrace {
    /// The generated output rows, one per timestep.
    pub fn outputs(&self) -> &[Vec<f64>] {
        &self.outputs
    }
}

impl LstmSeq2Seq {
    /// Creates a generator mapping `input`-dim rows to `output`-dim rows
    /// through `hidden` LSTM units, with `out_activation` on the head
    /// (MAD-GAN uses a sigmoid because its windows are min-max scaled).
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new<R: RngExt + ?Sized>(
        input: usize,
        hidden: usize,
        output: usize,
        out_activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            cell: LstmCell::new(input, hidden, rng),
            head: Dense::new(hidden, output, out_activation, rng),
        }
    }

    /// Input (latent) dimensionality per timestep.
    pub fn input_size(&self) -> usize {
        self.cell.input_size()
    }

    /// Output dimensionality per timestep.
    pub fn output_size(&self) -> usize {
        self.head.output_size()
    }

    /// Runs `batch` input sequences of `len` steps at once (`xs` flat, row
    /// `b * len + t` = sequence `b`'s step `t`), retaining what the
    /// backward passes need. The LSTM runs through
    /// [`LstmCell::forward_flat`] and the head over every hidden row in
    /// one [`Dense::forward_rows`] product, so each output row is
    /// bit-for-bit the single-sequence result.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * len * input_size()`.
    pub fn forward_flat(&self, xs: &[f64], batch: usize, len: usize) -> Seq2SeqBatchTrace {
        let lstm = self.cell.forward_flat(xs, batch, len);
        let head = self.head.forward_rows(lstm.hiddens().clone());
        Seq2SeqBatchTrace { lstm, head }
    }

    /// Pure inference over a batch: the generated rows of
    /// [`Self::forward_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * len * input_size()`.
    pub fn generate_flat(&self, xs: &[f64], batch: usize, len: usize) -> Vec<f64> {
        self.forward_flat(xs, batch, len).head.outputs().as_slice().to_vec()
    }

    /// Backpropagates per-row output gradients (`dys` flat, trace row
    /// layout), accumulating parameter gradients in the order of one
    /// [`Self::backward`] call per sequence: the head row by row, the cell
    /// sequence ascending and timestep descending. Input gradients are not
    /// formed; see [`Self::input_grad_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `dys` does not hold one output-width row per trace row.
    pub fn backward_flat(&mut self, trace: &Seq2SeqBatchTrace, dys: &[f64]) {
        let dhs = self.head.backward_rows(&trace.head, dys);
        self.cell.backward_flat(&trace.lstm, &dhs);
    }

    /// Gradient of `Σ dys · outputs` with respect to every input row of a
    /// batch trace — a *pure* pass through `&self` that leaves the
    /// parameter-gradient accumulators untouched.
    ///
    /// # Panics
    ///
    /// Panics if `dys` does not hold one output-width row per trace row.
    pub fn input_grad_flat(&self, trace: &Seq2SeqBatchTrace, dys: &[f64]) -> Vec<f64> {
        let dhs = self.head.input_grad_rows(&trace.head, dys);
        self.cell.input_grad_flat(&trace.lstm, &dhs)
    }

    /// Pure inference: maps an input sequence to an output sequence.
    pub fn generate(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forward(xs).outputs
    }

    /// Forward pass retaining everything needed for [`Self::backward`]: a
    /// batch of one through [`Self::forward_flat`].
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward(&self, xs: &[Vec<f64>]) -> Seq2SeqTrace {
        let flat = flatten_rows(xs, self.input_size(), "LstmCell");
        let inner = self.forward_flat(&flat, 1, xs.len());
        let outputs = unflatten_rows(inner.outputs(), self.output_size());
        Seq2SeqTrace { inner, outputs }
    }

    /// Backpropagates per-timestep output gradients, accumulating parameter
    /// gradients and returning per-timestep input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dys.len()` differs from the trace length.
    pub fn backward(&mut self, trace: &Seq2SeqTrace, dys: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let flat = self.flatten_dys(trace, dys);
        let dhs = self.head.backward_rows(&trace.inner.head, &flat);
        let dxs = self.cell.backward_flat_with_input(&trace.inner.lstm, &dhs);
        unflatten_rows(&dxs, self.input_size())
    }

    /// Gradient of `sum_t dys[t] · output[t]` with respect to every input
    /// cell — a *pure* pass through `&self` that leaves the
    /// parameter-gradient accumulators untouched (runs its own forward
    /// internally, so no trace is needed).
    ///
    /// # Panics
    ///
    /// Panics if `dys.len() != xs.len()` or any width mismatches.
    pub fn input_gradients(&self, xs: &[Vec<f64>], dys: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            dys.len(),
            xs.len(),
            "input_gradients: {} gradients for {} steps",
            dys.len(),
            xs.len()
        );
        let trace = self.forward(xs);
        let flat = self.flatten_dys(&trace, dys);
        unflatten_rows(&self.input_grad_flat(&trace.inner, &flat), self.input_size())
    }

    fn flatten_dys(&self, trace: &Seq2SeqTrace, dys: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            dys.len(),
            trace.outputs.len(),
            "backward: {} gradients for {} steps",
            dys.len(),
            trace.outputs.len()
        );
        flatten_rows(dys, self.output_size(), "LstmSeq2Seq::backward")
    }
}

impl Trainable for LstmSeq2Seq {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.cell.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::{rngs::StdRng, SeedableRng};

    fn gen() -> LstmSeq2Seq {
        let mut rng = StdRng::seed_from_u64(9);
        LstmSeq2Seq::new(2, 6, 3, Activation::Sigmoid, &mut rng)
    }

    #[test]
    fn generate_matches_forward_outputs() {
        let g = gen();
        let xs = vec![vec![0.3, -0.1]; 7];
        let trace = g.forward(&xs);
        assert_eq!(g.generate(&xs), trace.outputs());
    }

    #[test]
    fn sigmoid_head_outputs_unit_interval() {
        let g = gen();
        let xs = vec![vec![5.0, -5.0]; 4];
        for row in g.generate(&xs) {
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn gradient_check_through_time() {
        let mut g = gen();
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|t| vec![0.1 * t as f64, -0.05 * t as f64])
            .collect();
        g.zero_grads();
        let trace = g.forward(&xs);
        let dys = vec![vec![1.0; 3]; 4];
        let dxs = g.backward(&trace, &dys);

        let loss = |g: &LstmSeq2Seq, xs: &[Vec<f64>]| -> f64 {
            g.generate(xs).iter().flatten().sum()
        };
        let eps = 1e-6;
        for t in 0..xs.len() {
            for j in 0..2 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let mut xm = xs.clone();
                xm[t][j] -= eps;
                let numeric = (loss(&g, &xp) - loss(&g, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][j]).abs() < 1e-5,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t][j]
                );
            }
        }
    }

    #[test]
    fn can_fit_constant_sequence() {
        // The generator should learn to emit a constant window regardless of
        // its latent input.
        let mut g = gen();
        let target = vec![vec![0.8, 0.2, 0.5]; 6];
        let mut rng = StdRng::seed_from_u64(10);
        let mut opt = Adam::new(0.02);
        for _ in 0..300 {
            use rand::RngExt;
            let z: Vec<Vec<f64>> = (0..6)
                .map(|_| vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
                .collect();
            g.zero_grads();
            let trace = g.forward(&z);
            let dys: Vec<Vec<f64>> = trace
                .outputs()
                .iter()
                .zip(&target)
                .map(|(o, t)| o.iter().zip(t).map(|(&p, &y)| 2.0 * (p - y)).collect())
                .collect();
            g.backward(&trace, &dys);
            opt.step(&mut g);
        }
        let z = vec![vec![0.0, 0.0]; 6];
        let out = g.generate(&z);
        for row in out {
            for (o, t) in row.iter().zip(&[0.8, 0.2, 0.5]) {
                assert!((o - t).abs() < 0.1, "generated {o} target {t}");
            }
        }
    }

    #[test]
    fn batch_matches_single_sequences_bitwise() {
        let g = gen();
        let seqs: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|b| (0..5).map(|t| vec![0.1 * (b + t) as f64, -0.07 * (t * b) as f64]).collect())
            .collect();
        let flat: Vec<f64> = seqs.iter().flatten().flatten().copied().collect();
        let trace = g.forward_flat(&flat, 3, 5);
        let dys: Vec<f64> = (0..45).map(|k| ((k * 7) % 5) as f64 * 0.1 - 0.2).collect();
        let dz = g.input_grad_flat(&trace, &dys);
        let mut batched = g.clone();
        batched.zero_grads();
        batched.backward_flat(&trace, &dys);
        let mut single = g.clone();
        single.zero_grads();
        for (b, xs) in seqs.iter().enumerate() {
            let t = single.forward(xs);
            assert_eq!(t.outputs().concat().as_slice(), &trace.outputs()[b * 15..(b + 1) * 15]);
            let dy: Vec<Vec<f64>> = dys[b * 15..(b + 1) * 15].chunks(3).map(<[f64]>::to_vec).collect();
            let dx = single.backward(&t, &dy);
            assert_eq!(dx.concat().as_slice(), &dz[b * 10..(b + 1) * 10]);
            assert_eq!(g.input_gradients(xs, &dy), dx);
        }
        let mut a = Vec::new();
        batched.visit_params(&mut |_, gr| a.extend(gr.as_slice().iter().map(|v| v.to_bits())));
        let mut s = Vec::new();
        single.visit_params(&mut |_, gr| s.extend(gr.as_slice().iter().map(|v| v.to_bits())));
        assert_eq!(a, s);
    }

    #[test]
    #[should_panic(expected = "gradients for")]
    fn backward_checks_lengths() {
        let mut g = gen();
        let trace = g.forward(&[vec![0.0, 0.0]]);
        let _ = g.backward(&trace, &[]);
    }
}
