use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::sigmoid;
use crate::init;
use crate::optimizer::Trainable;

/// The `(h, c)` hidden/cell state carried between LSTM steps.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state.
    pub h: Vec<f64>,
    /// Cell state.
    pub c: Vec<f64>,
}

impl LstmState {
    /// The all-zero initial state for a cell of width `hidden`.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// The forward trace of a batch of equal-length sequences through an
/// [`LstmCell`], consumed by [`LstmCell::backward_flat`] and
/// [`LstmCell::input_grad_flat`].
///
/// Every per-step quantity lives in one flat row-major buffer per kind,
/// and row `b * len + t` holds sequence `b`'s timestep `t`. The previous
/// hidden and cell states of a step are the preceding rows (zero at
/// `t = 0`), so they are not stored twice.
#[derive(Debug, Clone)]
pub struct LstmBatchTrace {
    batch: usize,
    len: usize,
    hidden: usize,
    /// Inputs, `(batch·len) × input`.
    x: Matrix,
    /// Post-activation gates `i | f | g | o`, `(batch·len) × 4H`.
    gates: Vec<f64>,
    /// Cell states, `(batch·len) × H`.
    c: Vec<f64>,
    /// `tanh` of the cell states, `(batch·len) × H`.
    tanh_c: Vec<f64>,
    /// Hidden states, `(batch·len) × H`.
    h: Matrix,
}

impl LstmBatchTrace {
    /// Number of sequences in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Number of timesteps per sequence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no timestep at all.
    pub fn is_empty(&self) -> bool {
        self.batch == 0 || self.len == 0
    }

    /// The hidden state of sequence `b` after timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `t` is out of range.
    pub fn hidden(&self, b: usize, t: usize) -> &[f64] {
        assert!(b < self.batch && t < self.len, "LstmBatchTrace: ({b}, {t}) out of range");
        self.h.row(b * self.len + t)
    }

    /// The hidden state of sequence `b` after its final timestep.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range or the sequences are empty.
    pub fn last_hidden(&self, b: usize) -> &[f64] {
        assert!(self.len > 0, "LstmBatchTrace::last_hidden on empty sequences");
        self.hidden(b, self.len - 1)
    }

    /// Every hidden state, one row per `(sequence, timestep)` in the
    /// trace's row order.
    pub fn hiddens(&self) -> &Matrix {
        &self.h
    }

    /// The row whose hidden and cell state enter row `r`; `None` at
    /// `t = 0`, where both are zero.
    fn prev_row(&self, r: usize) -> Option<usize> {
        (!r.is_multiple_of(self.len)).then(|| r - 1)
    }

    /// Splits a batch into single-sequence traces (copies each row range).
    fn into_sequences(self) -> Vec<LstmTrace> {
        let (len, hs, xw) = (self.len, self.hidden, self.x.cols());
        (0..self.batch)
            .map(|b| {
                let rows = b * len..(b + 1) * len;
                let slice = |v: &[f64], w: usize| v[rows.start * w..rows.end * w].to_vec();
                LstmTrace {
                    inner: LstmBatchTrace {
                        batch: 1,
                        len,
                        hidden: hs,
                        x: Matrix::from_vec(len, xw, slice(self.x.as_slice(), xw)),
                        gates: slice(&self.gates, 4 * hs),
                        c: slice(&self.c, hs),
                        tanh_c: slice(&self.tanh_c, hs),
                        h: Matrix::from_vec(len, hs, slice(self.h.as_slice(), hs)),
                    },
                }
            })
            .collect()
    }
}

/// The forward trace of a single sequence through an [`LstmCell`],
/// consumed by [`LstmCell::backward_seq`]: an [`LstmBatchTrace`] holding
/// one sequence.
#[derive(Debug, Clone)]
pub struct LstmTrace {
    inner: LstmBatchTrace,
}

impl LstmTrace {
    /// Number of timesteps in the trace.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The hidden state after timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn hidden(&self, t: usize) -> &[f64] {
        self.inner.hidden(0, t)
    }

    /// The hidden state after the final timestep.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_hidden(&self) -> &[f64] {
        assert!(!self.is_empty(), "LstmTrace::last_hidden on empty trace");
        self.inner.last_hidden(0)
    }

    /// All hidden states, one per timestep.
    pub fn hiddens(&self) -> Vec<Vec<f64>> {
        self.inner.h.iter_rows().map(<[f64]>::to_vec).collect()
    }
}

/// Flattens time-major rows into one buffer, checking every row's width.
pub(crate) fn flatten_rows(rows: &[Vec<f64>], width: usize, context: &str) -> Vec<f64> {
    let mut flat = Vec::with_capacity(rows.len() * width);
    for r in rows {
        assert_eq!(r.len(), width, "{context}: input width mismatch");
        flat.extend_from_slice(r);
    }
    flat
}

/// Splits a flat buffer into rows of `width`.
pub(crate) fn unflatten_rows(flat: &[f64], width: usize) -> Vec<Vec<f64>> {
    if width == 0 {
        return Vec::new();
    }
    flat.chunks_exact(width).map(<[f64]>::to_vec).collect()
}

/// A single-layer LSTM cell with full backpropagation through time.
///
/// Gate layout follows the classic formulation: for each step,
///
/// ```text
/// z = W_x x_t + W_h h_{t-1} + b          (z split into i|f|g|o blocks)
/// i = σ(z_i)   f = σ(z_f)   g = tanh(z_g)   o = σ(z_o)
/// c_t = f ⊙ c_{t-1} + i ⊙ g
/// h_t = o ⊙ tanh(c_t)
/// ```
///
/// The forget-gate bias is initialized to 1.0 (Jozefowicz et al., 2015).
///
/// # Examples
///
/// ```
/// use lgo_nn::LstmCell;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let cell = LstmCell::new(3, 8, &mut rng);
/// let xs = vec![vec![0.1, 0.2, 0.3]; 5];
/// let trace = cell.forward_seq(&xs);
/// assert_eq!(trace.last_hidden().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    w_x: Matrix, // (4H, X)
    w_h: Matrix, // (4H, H)
    b: Matrix,   // (4H, 1)
    gw_x: Matrix,
    gw_h: Matrix,
    gb: Matrix,
}

impl LstmCell {
    /// Creates a cell mapping `input`-dim vectors to an `hidden`-dim state.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        assert!(input > 0 && hidden > 0, "LstmCell::new: zero-sized cell");
        let mut b = Matrix::zeros(4 * hidden, 1);
        for j in hidden..2 * hidden {
            b[(j, 0)] = 1.0; // forget-gate bias
        }
        Self {
            input,
            hidden,
            w_x: init::xavier_uniform(4 * hidden, input, rng),
            w_h: init::recurrent(4 * hidden, hidden, rng),
            b,
            gw_x: Matrix::zeros(4 * hidden, input),
            gw_h: Matrix::zeros(4 * hidden, hidden),
            gb: Matrix::zeros(4 * hidden, 1),
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden-state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Applies the recurrent/bias combine and the gate nonlinearities to a
    /// precomputed input-side product `z = W_x x`, writing the gates, cell,
    /// `tanh(cell)` and hidden state of one step. Shared verbatim by the
    /// stepwise and batched forward paths, so both produce identical bits
    /// for every gate, cell and hidden value.
    #[allow(clippy::too_many_arguments)]
    fn gate_combine(
        &self,
        z: &mut [f64],
        zh: &[f64],
        c_prev: &[f64],
        gates: &mut [f64],
        c: &mut [f64],
        tanh_c: &mut [f64],
        h_out: &mut [f64],
    ) {
        let h = self.hidden;
        for ((zi, &zhi), &bi) in z.iter_mut().zip(zh).zip(self.b.as_slice()) {
            *zi += zhi + bi;
        }
        for j in 0..h {
            gates[j] = sigmoid(z[j]);
            gates[h + j] = sigmoid(z[h + j]);
            gates[2 * h + j] = z[2 * h + j].tanh();
            gates[3 * h + j] = sigmoid(z[3 * h + j]);
        }
        for j in 0..h {
            c[j] = gates[h + j] * c_prev[j] + gates[j] * gates[2 * h + j];
            tanh_c[j] = c[j].tanh();
            h_out[j] = gates[3 * h + j] * tanh_c[j];
        }
        lgo_tensor::sanitize::check_finite(z, "LstmCell gate pre-activations");
        lgo_tensor::sanitize::check_finite(c, "LstmCell cell state");
        lgo_tensor::sanitize::check_finite(h_out, "LstmCell hidden state");
    }

    /// Advances the state by one input, returning the next state (pure
    /// inference; no gradient bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()` or the state width differs.
    pub fn step(&self, x: &[f64], state: &LstmState) -> LstmState {
        assert_eq!(state.h.len(), self.hidden, "LstmCell: state width mismatch");
        assert_eq!(x.len(), self.input, "LstmCell: input width mismatch");
        let h = self.hidden;
        let mut z = self.w_x.matvec(x);
        let zh = self.w_h.matvec(&state.h);
        let mut gates = vec![0.0; 4 * h];
        let mut next = LstmState::zeros(h);
        let mut tanh_c = vec![0.0; h];
        self.gate_combine(
            &mut z,
            &zh,
            &state.c,
            &mut gates,
            &mut next.c,
            &mut tanh_c,
            &mut next.h,
        );
        next
    }

    /// Runs a whole sequence from the zero state, retaining the trace needed
    /// for [`Self::backward_seq`]. A batch of one through
    /// [`Self::forward_flat`].
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward_seq(&self, xs: &[Vec<f64>]) -> LstmTrace {
        let flat = flatten_rows(xs, self.input, "LstmCell");
        LstmTrace {
            inner: self.forward_rows(flat, 1, xs.len()),
        }
    }

    /// Runs several sequences from the zero state at once, returning one
    /// trace per sequence (in input order).
    ///
    /// Sequences of different lengths are grouped internally; each length
    /// group runs as one [`Self::forward_flat`] batch.
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward_batch(&self, seqs: &[&[Vec<f64>]]) -> Vec<LstmTrace> {
        let mut out: Vec<Option<LstmTrace>> = vec![None; seqs.len()];
        let mut by_len: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (k, s) in seqs.iter().enumerate() {
            by_len.entry(s.len()).or_default().push(k);
        }
        for (t_len, idxs) in by_len {
            let mut flat = Vec::with_capacity(idxs.len() * t_len * self.input);
            for &k in &idxs {
                flat.extend(flatten_rows(seqs[k], self.input, "LstmCell"));
            }
            let traces = self.forward_rows(flat, idxs.len(), t_len).into_sequences();
            for (k, trace) in idxs.into_iter().zip(traces) {
                out[k] = Some(trace);
            }
        }
        out.into_iter()
            // lint: allow(L1): every index is filled by exactly one length group
            .map(|t| t.expect("trace computed for every sequence"))
            .collect()
    }

    /// Runs `batch` sequences of `len` steps each from the zero state.
    /// `xs` holds them back to back, time-major within each sequence:
    /// row `b * len + t` (of width `input_size()`) is sequence `b`'s
    /// input at step `t`.
    ///
    /// This is the batched hot path: the input-side gate products of every
    /// sequence and timestep are computed by a single tiled
    /// [`Matrix::matmul_nt`], and the recurrent products of each timestep
    /// are batched across sequences. Each output row of those products is
    /// bitwise identical to the corresponding `matvec` (pinned by
    /// lgo-tensor tests) and the scalar gate combine is shared with
    /// [`Self::step`], so every trace row is bit-for-bit what the
    /// stepwise loop produces.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * len * input_size()`.
    pub fn forward_flat(&self, xs: &[f64], batch: usize, len: usize) -> LstmBatchTrace {
        self.forward_rows(xs.to_vec(), batch, len)
    }

    /// [`Self::forward_flat`] on an owned input buffer.
    fn forward_rows(&self, xs: Vec<f64>, batch: usize, len: usize) -> LstmBatchTrace {
        let rows = batch * len;
        assert_eq!(
            xs.len(),
            rows * self.input,
            "LstmCell: {} inputs for {batch} sequences of {len} steps of width {}",
            xs.len(),
            self.input
        );
        let (hs, g4) = (self.hidden, 4 * self.hidden);
        let mut trace = LstmBatchTrace {
            batch,
            len,
            hidden: hs,
            x: Matrix::from_vec(rows, self.input, xs),
            gates: vec![0.0; rows * g4],
            c: vec![0.0; rows * hs],
            tanh_c: vec![0.0; rows * hs],
            h: Matrix::zeros(rows, hs),
        };
        if rows == 0 {
            return trace;
        }
        let zx = trace.x.matmul_nt(&self.w_x);
        let mut h_prev = Matrix::zeros(batch, hs);
        let zero_c = vec![0.0; hs];
        let mut z = vec![0.0; g4];
        for t in 0..len {
            // All recurrent products for this timestep in one (B, 4H)
            // product; the time dependency makes this the batching limit.
            let zh = h_prev.matmul_nt(&self.w_h);
            for b in 0..batch {
                let r = b * len + t;
                z.copy_from_slice(zx.row(r));
                let (done, rest) = trace.c.split_at_mut(r * hs);
                let c_prev = if t == 0 { &zero_c[..] } else { &done[(r - 1) * hs..] };
                self.gate_combine(
                    &mut z,
                    zh.row(b),
                    c_prev,
                    &mut trace.gates[r * g4..(r + 1) * g4],
                    &mut rest[..hs],
                    &mut trace.tanh_c[r * hs..(r + 1) * hs],
                    trace.h.row_mut(r),
                );
                h_prev.row_mut(b).copy_from_slice(trace.h.row(r));
            }
        }
        trace
    }

    /// Backpropagation through time over a batch, accumulating parameter
    /// gradients. `dh` (same row layout as the trace, width
    /// `hidden_size()`) is the gradient of the loss with respect to every
    /// emitted hidden state (zero rows for unused steps).
    ///
    /// The gradient of each weight entry accumulates in the order of a
    /// per-sequence [`Self::backward_seq`] loop — sequence ascending, then
    /// timestep descending — so the sums keep their bits. Input gradients
    /// are not formed; see [`Self::input_grad_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not hold one hidden-width row per trace row.
    pub fn backward_flat(&mut self, trace: &LstmBatchTrace, dh: &[f64]) {
        let dz = bptt_dz(&self.w_h, trace, dh);
        self.accumulate(trace, &dz);
    }

    /// Pure input-gradient BPTT over a batch: the gradient with respect to
    /// every input row (same row layout as the trace), without touching
    /// the parameter-gradient accumulators, so shared read-only cells can
    /// compute d-loss/d-input through `&self`.
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not hold one hidden-width row per trace row.
    pub fn input_grad_flat(&self, trace: &LstmBatchTrace, dh: &[f64]) -> Vec<f64> {
        let dz = bptt_dz(&self.w_h, trace, dh);
        self.input_products(&dz)
    }

    /// [`Self::backward_flat`] that also returns the input gradients.
    pub(crate) fn backward_flat_with_input(&mut self, trace: &LstmBatchTrace, dh: &[f64]) -> Vec<f64> {
        let dz = bptt_dz(&self.w_h, trace, dh);
        self.accumulate(trace, &dz);
        self.input_products(&dz)
    }

    /// Backpropagation through time for one sequence.
    ///
    /// `dh[t]` is the gradient of the loss with respect to the hidden state
    /// emitted at timestep `t` (zero vectors for unused steps). Gradients
    /// accumulate into the cell; the per-timestep gradients with respect to
    /// the inputs are returned.
    ///
    /// # Panics
    ///
    /// Panics if `dh.len() != trace.len()` or any gradient row has the wrong
    /// width.
    pub fn backward_seq(&mut self, trace: &LstmTrace, dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let dh = self.flatten_dh(trace, dh);
        let dx = self.backward_flat_with_input(&trace.inner, &dh);
        unflatten_rows(&dx, self.input)
    }

    /// Pure input-gradient BPTT: like [`Self::backward_seq`] but without
    /// accumulating parameter gradients, so shared read-only cells can
    /// compute d-loss/d-input through `&self` (e.g. from parallel attack
    /// campaigns).
    ///
    /// # Panics
    ///
    /// Panics if `dh.len() != trace.len()` or any gradient row has the wrong
    /// width.
    pub fn input_grad_seq(&self, trace: &LstmTrace, dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let dh = self.flatten_dh(trace, dh);
        unflatten_rows(&self.input_grad_flat(&trace.inner, &dh), self.input)
    }

    fn flatten_dh(&self, trace: &LstmTrace, dh: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            dh.len(),
            trace.len(),
            "backward_seq: {} gradients for {} steps",
            dh.len(),
            trace.len()
        );
        let mut flat = Vec::with_capacity(dh.len() * self.hidden);
        for (t, row) in dh.iter().enumerate() {
            assert_eq!(row.len(), self.hidden, "backward_seq: bad dh width at {t}");
            flat.extend_from_slice(row);
        }
        flat
    }

    /// Accumulates the parameter gradients of a batch from its gate
    /// gradients, in per-sequence order: sequence ascending, then timestep
    /// descending, exactly as one `backward_seq` call per sequence would.
    fn accumulate(&mut self, trace: &LstmBatchTrace, dz: &[f64]) {
        let (len, hs, g4) = (trace.len, self.hidden, 4 * self.hidden);
        let zero_h = vec![0.0; hs];
        for b in 0..trace.batch {
            for t in (0..len).rev() {
                let r = b * len + t;
                let dzr = &dz[r * g4..(r + 1) * g4];
                let h_prev = match trace.prev_row(r) {
                    Some(p) => trace.h.row(p),
                    None => &zero_h[..],
                };
                self.gw_x.add_outer(dzr, trace.x.row(r), 1.0);
                self.gw_h.add_outer(dzr, h_prev, 1.0);
                for (gb, &d) in self.gb.as_mut_slice().iter_mut().zip(dzr) {
                    *gb += d;
                }
            }
        }
    }

    /// `dz · W_x` for every row: the gradient with respect to each input.
    fn input_products(&self, dz: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; dz.len() / (4 * self.hidden) * self.input];
        self.w_x.matvec_transpose_rows_into(dz, &mut dx);
        dx
    }
}

/// The BPTT core shared by every backward path: walks the batch backwards
/// in time and returns the gate pre-activation gradients `dz` of every row
/// (trace row layout, width 4H). The recurrent products `dz_t · W_h` run
/// batched across sequences once per timestep.
fn bptt_dz(w_h: &Matrix, trace: &LstmBatchTrace, dh: &[f64]) -> Vec<f64> {
    let (batch, len, hs) = (trace.batch, trace.len, trace.hidden);
    let g4 = 4 * hs;
    let rows = batch * len;
    assert_eq!(
        dh.len(),
        rows * hs,
        "backward: {} hidden gradients for {rows} steps of width {hs}",
        dh.len()
    );
    lgo_tensor::sanitize::check_finite(dh, "LstmCell hidden gradients");
    let mut dz = vec![0.0; rows * g4];
    // Gate gradients of the current timestep, one contiguous row per
    // sequence, so the recurrent product runs as one batched call.
    let mut dz_t = vec![0.0; batch * g4];
    let mut dh_next = vec![0.0; batch * hs];
    let mut dc_next = vec![0.0; batch * hs];
    let zero_c = vec![0.0; hs];
    for t in (0..len).rev() {
        for b in 0..batch {
            let r = b * len + t;
            let gates = &trace.gates[r * g4..(r + 1) * g4];
            let (i, f, g, o) = (
                &gates[..hs],
                &gates[hs..2 * hs],
                &gates[2 * hs..3 * hs],
                &gates[3 * hs..],
            );
            let tanh_c = &trace.tanh_c[r * hs..(r + 1) * hs];
            let c_prev = match trace.prev_row(r) {
                Some(p) => &trace.c[p * hs..(p + 1) * hs],
                None => &zero_c[..],
            };
            let dh_r = &dh[r * hs..(r + 1) * hs];
            let dhn = &dh_next[b * hs..(b + 1) * hs];
            let dcn = &mut dc_next[b * hs..(b + 1) * hs];
            let dzr = &mut dz_t[b * g4..(b + 1) * g4];
            for j in 0..hs {
                // Total gradient into h_t: external + recurrent.
                let dht = dh_r[j] + dhn[j];
                let do_ = dht * tanh_c[j];
                let dct = dcn[j] + dht * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
                let di = dct * g[j];
                let df = dct * c_prev[j];
                let dg = dct * i[j];
                dcn[j] = dct * f[j];
                dzr[j] = di * i[j] * (1.0 - i[j]);
                dzr[hs + j] = df * f[j] * (1.0 - f[j]);
                dzr[2 * hs + j] = dg * (1.0 - g[j] * g[j]);
                dzr[3 * hs + j] = do_ * o[j] * (1.0 - o[j]);
            }
            dz[r * g4..(r + 1) * g4].copy_from_slice(dzr);
        }
        if t > 0 {
            w_h.matvec_transpose_rows_into(&dz_t, &mut dh_next);
        }
    }
    dz
}

impl Trainable for LstmCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w_x, &mut self.gw_x);
        f(&mut self.w_h, &mut self.gw_h);
        f(&mut self.b, &mut self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn cell(input: usize, hidden: usize) -> LstmCell {
        let mut rng = StdRng::seed_from_u64(21);
        LstmCell::new(input, hidden, &mut rng)
    }

    fn seq(len: usize, width: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| (0..width).map(|j| ((t * 7 + j * 3) as f64 * 0.13).sin() * 0.5).collect())
            .collect()
    }

    /// Scalar loss used for gradient checking: sum of all hidden states over
    /// all timesteps.
    fn loss(cell: &LstmCell, xs: &[Vec<f64>]) -> f64 {
        cell.forward_seq(xs)
            .hiddens()
            .iter()
            .flatten()
            .sum()
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics")]
    fn strict_numerics_catches_nan_input() {
        let c = cell(2, 3);
        let _ = c.forward_seq(&[vec![0.1, f64::NAN]]);
    }

    #[test]
    fn forward_shapes() {
        let c = cell(3, 5);
        let t = c.forward_seq(&seq(7, 3));
        assert_eq!(t.len(), 7);
        assert!(!t.is_empty());
        assert_eq!(t.hidden(0).len(), 5);
        assert_eq!(t.last_hidden(), t.hidden(6));
        assert_eq!(t.hiddens().len(), 7);
    }

    #[test]
    fn step_matches_forward_seq() {
        let c = cell(2, 4);
        let xs = seq(4, 2);
        let trace = c.forward_seq(&xs);
        let mut st = LstmState::zeros(4);
        for (t, x) in xs.iter().enumerate() {
            st = c.step(x, &st);
            assert_eq!(st.h, trace.hidden(t));
        }
    }

    #[test]
    fn forward_batch_is_bitwise_identical_to_step_loop() {
        let c = cell(3, 5);
        // Ragged batch: exercises the length grouping and the row indexing
        // of the stacked input product.
        let seqs: Vec<Vec<Vec<f64>>> = vec![seq(6, 3), seq(9, 3), seq(6, 3), seq(1, 3)];
        let refs: Vec<&[Vec<f64>]> = seqs.iter().map(Vec::as_slice).collect();
        let traces = c.forward_batch(&refs);
        assert_eq!(traces.len(), seqs.len());
        for (xs, trace) in seqs.iter().zip(&traces) {
            // Reference: the naive per-timestep matvec loop via `step`.
            let mut st = LstmState::zeros(5);
            for (t, x) in xs.iter().enumerate() {
                st = c.step(x, &st);
                assert_eq!(st.h.len(), trace.hidden(t).len());
                for (a, b) in st.h.iter().zip(trace.hidden(t)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seq len {} step {t}", xs.len());
                }
            }
        }
    }

    #[test]
    fn forward_batch_handles_empty_inputs() {
        let c = cell(2, 3);
        assert!(c.forward_batch(&[]).is_empty());
        let empty: &[Vec<f64>] = &[];
        let traces = c.forward_batch(&[empty, &seq(2, 2)]);
        assert!(traces[0].is_empty());
        assert_eq!(traces[1].len(), 2);
        assert!(c.forward_seq(&[]).is_empty());
    }

    #[test]
    fn hidden_states_are_bounded() {
        let c = cell(2, 6);
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![100.0, -100.0]).collect();
        let t = c.forward_seq(&xs);
        for h in t.hiddens() {
            assert!(h.iter().all(|&v| v.abs() <= 1.0), "h out of bounds: {h:?}");
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let mut c = cell(3, 4);
        let xs = seq(5, 3);
        c.zero_grads();
        let trace = c.forward_seq(&xs);
        let dh = vec![vec![1.0; 4]; 5];
        let dxs = c.backward_seq(&trace, &dh);

        let eps = 1e-6;
        for t in 0..xs.len() {
            for j in 0..3 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let mut xm = xs.clone();
                xm[t][j] -= eps;
                let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][j]).abs() < 1e-5,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t][j]
                );
            }
        }
    }

    #[test]
    fn bptt_gradient_check_weights() {
        let mut c = cell(2, 3);
        let xs = seq(4, 2);
        c.zero_grads();
        let trace = c.forward_seq(&xs);
        let dh = vec![vec![1.0; 3]; 4];
        c.backward_seq(&trace, &dh);

        let eps = 1e-6;
        // Spot-check entries in each weight matrix and the bias.
        for &(r, col) in &[(0usize, 0usize), (5, 1), (11, 0)] {
            let mut cp = c.clone();
            cp.w_x[(r, col)] += eps;
            let mut cm = c.clone();
            cm.w_x[(r, col)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gw_x[(r, col)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gw_x[{r},{col}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for &(r, col) in &[(0usize, 0usize), (7, 2), (10, 1)] {
            let mut cp = c.clone();
            cp.w_h[(r, col)] += eps;
            let mut cm = c.clone();
            cm.w_h[(r, col)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gw_h[(r, col)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gw_h[{r},{col}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for &r in &[0usize, 4, 9, 11] {
            let mut cp = c.clone();
            cp.b[(r, 0)] += eps;
            let mut cm = c.clone();
            cm.b[(r, 0)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gb[(r, 0)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gb[{r}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let c = cell(2, 3);
        for j in 0..3 {
            assert_eq!(c.b[(3 + j, 0)], 1.0);
        }
        assert_eq!(c.b[(0, 0)], 0.0);
    }

    #[test]
    fn trainable_visits_three_params() {
        let mut c = cell(2, 3);
        let mut n = 0;
        c.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 3);
        assert_eq!(c.param_count(), 12 * 2 + 12 * 3 + 12);
    }

    #[test]
    #[should_panic(expected = "gradients for")]
    fn backward_length_mismatch_panics() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq(&seq(4, 2));
        let _ = c.backward_seq(&trace, &[vec![0.0; 3]]);
    }

    #[test]
    fn empty_sequence_yields_empty_trace() {
        let c = cell(2, 3);
        let t = c.forward_seq(&[]);
        assert!(t.is_empty());
    }

    /// The stepwise reference the batched paths replaced: one cache of
    /// owned vectors per timestep, `matvec` products, and a per-sequence
    /// BPTT that accumulates with `add_outer` as it walks back in time.
    mod reference {
        use super::super::*;

        pub struct Step {
            x: Vec<f64>,
            h_prev: Vec<f64>,
            c_prev: Vec<f64>,
            i: Vec<f64>,
            f: Vec<f64>,
            g: Vec<f64>,
            o: Vec<f64>,
            tanh_c: Vec<f64>,
            pub h: Vec<f64>,
        }

        pub fn forward(cell: &LstmCell, xs: &[Vec<f64>]) -> Vec<Step> {
            let hs = cell.hidden;
            let mut state = LstmState::zeros(hs);
            let mut steps = Vec::new();
            for x in xs {
                let mut z = cell.w_x.matvec(x);
                let zh = cell.w_h.matvec(&state.h);
                for ((zi, &zhi), &bi) in z.iter_mut().zip(&zh).zip(cell.b.as_slice()) {
                    *zi += zhi + bi;
                }
                let i: Vec<f64> = (0..hs).map(|j| sigmoid(z[j])).collect();
                let f: Vec<f64> = (0..hs).map(|j| sigmoid(z[hs + j])).collect();
                let g: Vec<f64> = (0..hs).map(|j| z[2 * hs + j].tanh()).collect();
                let o: Vec<f64> = (0..hs).map(|j| sigmoid(z[3 * hs + j])).collect();
                let c: Vec<f64> = (0..hs).map(|j| f[j] * state.c[j] + i[j] * g[j]).collect();
                let tanh_c: Vec<f64> = c.iter().map(|v| v.tanh()).collect();
                let h: Vec<f64> = (0..hs).map(|j| o[j] * tanh_c[j]).collect();
                steps.push(Step {
                    x: x.clone(),
                    h_prev: state.h.clone(),
                    c_prev: state.c.clone(),
                    i,
                    f,
                    g,
                    o,
                    tanh_c,
                    h: h.clone(),
                });
                state = LstmState { h, c };
            }
            steps
        }

        /// Returns the input gradients; accumulates into `grads`.
        pub fn bptt(
            cell: &LstmCell,
            steps: &[Step],
            dh: &[Vec<f64>],
            grads: &mut (Matrix, Matrix, Matrix),
        ) -> Vec<Vec<f64>> {
            let hs = cell.hidden;
            let mut dxs = vec![Vec::new(); steps.len()];
            let mut dh_next = vec![0.0; hs];
            let mut dc_next = vec![0.0; hs];
            for t in (0..steps.len()).rev() {
                let s = &steps[t];
                let dht: Vec<f64> = dh[t].iter().zip(&dh_next).map(|(&a, &b)| a + b).collect();
                let mut dz = vec![0.0; 4 * hs];
                let mut dc_prev = vec![0.0; hs];
                for j in 0..hs {
                    let do_ = dht[j] * s.tanh_c[j];
                    let dct = dc_next[j] + dht[j] * s.o[j] * (1.0 - s.tanh_c[j] * s.tanh_c[j]);
                    let di = dct * s.g[j];
                    let df = dct * s.c_prev[j];
                    let dg = dct * s.i[j];
                    dc_prev[j] = dct * s.f[j];
                    dz[j] = di * s.i[j] * (1.0 - s.i[j]);
                    dz[hs + j] = df * s.f[j] * (1.0 - s.f[j]);
                    dz[2 * hs + j] = dg * (1.0 - s.g[j] * s.g[j]);
                    dz[3 * hs + j] = do_ * s.o[j] * (1.0 - s.o[j]);
                }
                grads.0.add_outer(&dz, &s.x, 1.0);
                grads.1.add_outer(&dz, &s.h_prev, 1.0);
                for (gb, &d) in grads.2.as_mut_slice().iter_mut().zip(&dz) {
                    *gb += d;
                }
                dxs[t] = cell.w_x.matvec_transpose(&dz);
                dh_next = cell.w_h.matvec_transpose(&dz);
                dc_next = dc_prev;
            }
            dxs
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_forward_and_bptt_match_the_stepwise_reference_bitwise() {
        let mut c = cell(3, 5);
        let (batch, len) = (4, 7);
        let seqs: Vec<Vec<Vec<f64>>> = (0..batch)
            .map(|b| {
                (0..len)
                    .map(|t| (0..3).map(|j| ((b * 31 + t * 7 + j * 3) as f64 * 0.17).sin()).collect())
                    .collect()
            })
            .collect();
        // Sparse external gradients (zeros on most steps, as the
        // discriminator feeds them) plus a dense last step.
        let dhs: Vec<Vec<Vec<f64>>> = (0..batch)
            .map(|b| {
                (0..len)
                    .map(|t| {
                        (0..5)
                            .map(|j| if t % 3 == 0 || t == len - 1 { ((b + t * j) as f64 * 0.3).cos() } else { 0.0 })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let flat_x: Vec<f64> = seqs.iter().flatten().flatten().copied().collect();
        let flat_dh: Vec<f64> = dhs.iter().flatten().flatten().copied().collect();

        let trace = c.forward_flat(&flat_x, batch, len);
        let mut grads = (c.gw_x.clone(), c.gw_h.clone(), c.gb.clone());
        let mut ref_dx = Vec::new();
        for (b, (xs, dh)) in seqs.iter().zip(&dhs).enumerate() {
            let steps = reference::forward(&c, xs);
            for (t, s) in steps.iter().enumerate() {
                assert_eq!(bits(&s.h), bits(trace.hidden(b, t)), "hidden ({b}, {t})");
            }
            ref_dx.extend(reference::bptt(&c, &steps, dh, &mut grads).into_iter().flatten());
        }
        assert_eq!(bits(&c.input_grad_flat(&trace, &flat_dh)), bits(&ref_dx));
        c.zero_grads();
        c.backward_flat(&trace, &flat_dh);
        assert_eq!(bits(c.gw_x.as_slice()), bits(grads.0.as_slice()), "gw_x");
        assert_eq!(bits(c.gw_h.as_slice()), bits(grads.1.as_slice()), "gw_h");
        assert_eq!(bits(c.gb.as_slice()), bits(grads.2.as_slice()), "gb");
        // The single-sequence path is a batch of one of the same code.
        let mut single = c.clone();
        single.zero_grads();
        let t0 = single.forward_seq(&seqs[0]);
        let dx0 = single.backward_seq(&t0, &dhs[0]);
        let mut g0 = (c.gw_x.clone(), c.gw_h.clone(), c.gb.clone());
        for m in [&mut g0.0, &mut g0.1, &mut g0.2] {
            m.fill_zero();
        }
        let ref0 = reference::bptt(&c, &reference::forward(&c, &seqs[0]), &dhs[0], &mut g0);
        assert_eq!(bits(&dx0.concat()), bits(&ref0.concat()));
        assert_eq!(bits(single.gw_h.as_slice()), bits(g0.1.as_slice()));
    }

    #[test]
    fn pure_input_gradient_leaves_accumulators_untouched() {
        let c = cell(2, 3);
        let trace = c.forward_flat(&[0.1, 0.2, 0.3, 0.4, -0.5, 0.6], 1, 3);
        let mut probe = c.clone();
        probe.zero_grads();
        let _ = probe.input_grad_flat(&trace, &[1.0; 9]);
        let mut total = 0.0;
        probe.visit_params(&mut |_, g| total += g.sum().abs());
        assert_eq!(total, 0.0);
    }

    #[test]
    #[should_panic(expected = "hidden gradients for")]
    fn backward_flat_checks_gradient_length() {
        let mut c = cell(2, 3);
        let trace = c.forward_flat(&[0.0; 8], 2, 2);
        c.backward_flat(&trace, &[0.0; 3]);
    }
}
