use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::init;
use crate::optimizer::Trainable;

/// Forward-pass intermediates of a [`Dense`] layer applied to a batch of
/// rows at once ([`Dense::forward_rows`]), held by the caller.
#[derive(Debug, Clone)]
pub struct DenseBatchCache {
    x: Matrix,
    pre: Matrix,
    post: Matrix,
}

impl DenseBatchCache {
    /// The layer outputs, one row per input row.
    pub fn outputs(&self) -> &Matrix {
        &self.post
    }
}

/// A fully connected layer `y = act(W x + b)` operating on single vectors.
///
/// The layer caches the last forward pass so `backward` can compute weight
/// gradients; gradients *accumulate* across calls until [`Trainable::zero_grads`]
/// is invoked, which is what minibatch training wants.
///
/// # Examples
///
/// ```
/// use lgo_nn::{Activation, Dense};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng);
/// let y = layer.forward(&[1.0, 0.0, -1.0]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix, // (out, in)
    bias: Matrix,   // (out, 1)
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    // Forward cache (input, pre-activation, post-activation).
    cache: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: RngExt + ?Sized>(
        input: usize,
        output: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(input > 0 && output > 0, "Dense::new: zero-sized layer");
        Self {
            weight: init::xavier_uniform(output, input, rng),
            bias: Matrix::zeros(output, 1),
            grad_weight: Matrix::zeros(output, input),
            grad_bias: Matrix::zeros(output, 1),
            activation,
            cache: None,
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimensionality.
    pub fn output_size(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix (rows = outputs).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Runs the layer forward, caching intermediates for `backward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()`.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut pre = self.weight.matvec(x);
        for (p, b) in pre.iter_mut().zip(self.bias.as_slice()) {
            *p += b;
        }
        let mut post = pre.clone();
        self.activation.apply_slice(&mut post);
        self.cache = Some((x.to_vec(), pre, post.clone()));
        post
    }

    /// Pure inference without touching the cache (usable through `&self`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()`.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut pre = self.weight.matvec(x);
        for (p, b) in pre.iter_mut().zip(self.bias.as_slice()) {
            *p += b;
        }
        self.activation.apply_slice(&mut pre);
        pre
    }

    /// Runs the layer over every row of `x` at once, returning a cache the
    /// caller owns — unlike [`Self::forward`], repeated calls do not
    /// clobber each other's intermediates. The products go through one
    /// tiled [`Matrix::matmul_nt`], whose rows are bit-for-bit the per-row
    /// `matvec` of [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_size()`.
    pub fn forward_rows(&self, x: Matrix) -> DenseBatchCache {
        let mut pre = x.matmul_nt(&self.weight);
        for row in pre.as_mut_slice().chunks_exact_mut(self.output_size()) {
            for (p, b) in row.iter_mut().zip(self.bias.as_slice()) {
                *p += b;
            }
        }
        let mut post = pre.clone();
        self.activation.apply_slice(post.as_mut_slice());
        DenseBatchCache { x, pre, post }
    }

    /// Backpropagates one output-gradient row per cached row (`dy` flat,
    /// row-major), accumulating weight/bias gradients row by row in order
    /// — the order of one [`Self::backward`] call per row — and
    /// returning the input gradients (flat, one input-width row per row).
    ///
    /// # Panics
    ///
    /// Panics if `dy.len()` differs from the cached output size.
    pub fn backward_rows(&mut self, cache: &DenseBatchCache, dy: &[f64]) -> Vec<f64> {
        let dz = self.output_grad_rows(cache, dy);
        for (dzr, x) in dz.chunks_exact(self.output_size()).zip(cache.x.iter_rows()) {
            self.grad_weight.add_outer(dzr, x, 1.0);
            for (gb, &d) in self.grad_bias.as_mut_slice().iter_mut().zip(dzr) {
                *gb += d;
            }
        }
        self.input_rows(&dz)
    }

    /// [`Self::backward_rows`] without touching the parameter-gradient
    /// accumulators: the pure input-gradient pass through `&self`.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len()` differs from the cached output size.
    pub fn input_grad_rows(&self, cache: &DenseBatchCache, dy: &[f64]) -> Vec<f64> {
        let dz = self.output_grad_rows(cache, dy);
        self.input_rows(&dz)
    }

    /// Pre-activation gradients `dy ⊙ act'(pre)` of every cached row.
    fn output_grad_rows(&self, cache: &DenseBatchCache, dy: &[f64]) -> Vec<f64> {
        assert_eq!(dy.len(), cache.post.len(), "backward_rows: bad dy length");
        dy.iter()
            .zip(cache.pre.as_slice().iter().zip(cache.post.as_slice()))
            .map(|(&d, (&z, &y))| d * self.activation.derivative(z, y))
            .collect()
    }

    /// `dz · W` for every row.
    fn input_rows(&self, dz: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; dz.len() / self.output_size() * self.input_size()];
        self.weight.matvec_transpose_rows_into(dz, &mut dx);
        dx
    }

    /// Backpropagates `dy` (gradient w.r.t. the layer output), accumulating
    /// weight/bias gradients and returning the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been cached or `dy` has the wrong length.
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let (x, pre, post) = self
            .cache
            .as_ref()
            // lint: allow(L1): documented precondition — backward without a cached forward is a caller bug
            .expect("Dense::backward called before forward");
        assert_eq!(dy.len(), post.len(), "Dense::backward: bad dy length");
        let dz: Vec<f64> = dy
            .iter()
            .zip(pre.iter().zip(post))
            .map(|(&d, (&z, &y))| d * self.activation.derivative(z, y))
            .collect();
        self.grad_weight.add_outer(&dz, x, 1.0);
        for (gb, &d) in self.grad_bias.as_mut_slice().iter_mut().zip(&dz) {
            *gb += d;
        }
        self.weight.matvec_transpose(&dz)
    }
}

impl Trainable for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(11);
        Dense::new(4, 3, Activation::Tanh, &mut rng)
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut l = layer();
        let x = [0.3, -0.1, 0.7, 0.2];
        assert_eq!(l.forward(&x), l.infer(&x));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Loss = sum(y); analytic gradients must match finite differences.
        let mut l = layer();
        let x = [0.5, -0.3, 0.2, 0.9];
        l.zero_grads();
        let y = l.forward(&x);
        let dx = l.backward(&vec![1.0; y.len()]);

        let eps = 1e-6;
        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f64 = l.infer(&xp).iter().sum();
            let fm: f64 = l.infer(&xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-6,
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
        // Weight gradient (spot-check a few entries).
        for &(r, c) in &[(0, 0), (1, 2), (2, 3)] {
            let mut lp = l.clone();
            lp.weight[(r, c)] += eps;
            let mut lm = l.clone();
            lm.weight[(r, c)] -= eps;
            let fp: f64 = lp.infer(&x).iter().sum();
            let fm: f64 = lm.infer(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = l.grad_weight[(r, c)];
            assert!(
                (numeric - analytic).abs() < 1e-6,
                "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient.
        for r in 0..3 {
            let mut lp = l.clone();
            lp.bias[(r, 0)] += eps;
            let mut lm = l.clone();
            lm.bias[(r, 0)] -= eps;
            let fp: f64 = lp.infer(&x).iter().sum();
            let fm: f64 = lm.infer(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - l.grad_bias[(r, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer();
        let x = [1.0, 1.0, 1.0, 1.0];
        l.zero_grads();
        l.forward(&x);
        l.backward(&[1.0, 1.0, 1.0]);
        let g1 = l.grad_weight.clone();
        l.forward(&x);
        l.backward(&[1.0, 1.0, 1.0]);
        assert_eq!(l.grad_weight, g1.scale(2.0));
        l.zero_grads();
        assert_eq!(l.grad_weight.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut l = layer();
        let _ = l.backward(&[1.0, 1.0, 1.0]);
    }

    #[test]
    fn row_batch_matches_per_row_calls_bitwise() {
        let l = layer();
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..4).map(|c| ((r * 4 + c) as f64 * 0.41).sin()).collect())
            .collect();
        let dys: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                (0..3)
                    .map(|c| {
                        if (r + c) % 4 == 0 {
                            0.0
                        } else {
                            (r + c) as f64 * 0.1
                        }
                    })
                    .collect()
            })
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let cache = l.forward_rows(Matrix::from_rows(&rows));
        let mut batched = l.clone();
        batched.zero_grads();
        let dx = batched.backward_rows(&cache, &dys.concat());
        assert_eq!(dx, l.input_grad_rows(&cache, &dys.concat()));
        let mut single = l.clone();
        single.zero_grads();
        for (r, (x, dy)) in xs.iter().zip(&dys).enumerate() {
            let y = single.forward(x);
            assert_eq!(y.as_slice(), cache.outputs().row(r));
            let d = single.backward(dy);
            assert_eq!(d.as_slice(), &dx[r * 4..(r + 1) * 4]);
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched.grad_weight), bits(&single.grad_weight));
        assert_eq!(bits(&batched.grad_bias), bits(&single.grad_bias));
    }

    #[test]
    fn trainable_exposes_two_params() {
        let mut l = layer();
        let mut n = 0;
        l.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 2);
        assert_eq!(l.param_count(), 4 * 3 + 3);
    }
}
