use lgo_nn::{Activation, Adam, Loss, LstmDiscriminator, LstmSeq2Seq, Trainable};
use lgo_series::MinMaxScaler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::detector::{AnomalyDetector, Window};
use crate::error::DetectError;

/// MAD-GAN hyper-parameters, defaulting to the paper's Appendix B
/// (epochs = 100, 4 signals, seq_len = 12, step = 1) with the original
/// paper's LSTM generator/discriminator and DR-Score.
#[derive(Debug, Clone, PartialEq)]
pub struct MadGanConfig {
    /// Training epochs over the benign windows (paper: 100).
    pub epochs: usize,
    /// Window length in samples (paper: 12).
    pub seq_len: usize,
    /// Latent dimension fed to the generator per timestep (paper: 4
    /// generated features).
    pub latent_dim: usize,
    /// LSTM hidden units for both generator and discriminator.
    pub hidden: usize,
    /// Adam learning rate for both networks.
    pub learning_rate: f64,
    /// Mini-batch size (windows per optimizer step).
    pub batch_size: usize,
    /// DR-Score weight λ on the reconstruction residual
    /// (score = λ·residual + (1−λ)·(1 − D(x))).
    pub lambda: f64,
    /// Gradient-descent steps of the latent-inversion search.
    pub inversion_steps: usize,
    /// Learning rate of the latent-inversion search.
    pub inversion_lr: f64,
    /// Quantile of training DR-Scores used as the anomaly threshold.
    pub threshold_quantile: f64,
    /// RNG seed (weights, latent draws, shuffling).
    pub seed: u64,
    /// Optional cap on training windows (uniform stride subsample). Fit
    /// cost grows linearly with the window count (every epoch visits every
    /// window), so the cap bounds MAD-GAN's training time on large
    /// cohorts.
    pub max_windows: Option<usize>,
}

impl Default for MadGanConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            seq_len: 12,
            latent_dim: 4,
            hidden: 16,
            learning_rate: 0.003,
            batch_size: 16,
            lambda: 0.9,
            inversion_steps: 20,
            inversion_lr: 0.3,
            threshold_quantile: 0.95,
            seed: 0x3AD,
            max_windows: Some(2000),
        }
    }
}

/// Multivariate Anomaly Detection GAN (Li et al., ICANN 2019): an LSTM
/// generator/discriminator pair trained on benign windows; anomalies are
/// scored by the **DR-Score**, combining the *discrimination* score (how
/// fake the discriminator finds the window) and the *reconstruction*
/// residual (how poorly the generator can reproduce the window from its
/// best-matching latent sequence).
///
/// # Examples
///
/// ```
/// use lgo_detect::{AnomalyDetector, MadGan, MadGanConfig};
///
/// let benign: Vec<Vec<Vec<f64>>> = (0..32)
///     .map(|i| (0..12).map(|t| {
///         let v = ((t + i) as f64 * 0.5).sin() * 0.3 + 0.5;
///         vec![v, v * 0.8]
///     }).collect())
///     .collect();
/// let cfg = MadGanConfig { epochs: 3, hidden: 8, inversion_steps: 5, ..MadGanConfig::default() };
/// let gan = MadGan::fit(&benign, &cfg);
/// let score = gan.score(&benign[0]);
/// assert!(score.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct MadGan {
    generator: LstmSeq2Seq,
    discriminator: LstmDiscriminator,
    scaler: MinMaxScaler,
    threshold: f64,
    config: MadGanConfig,
}

/// Windows scored per batched inversion. Bounds the trace memory of one
/// batch; the scores do not depend on it.
const SCORE_CHUNK: usize = 32;

/// Training windows after validation, subsampling and scaling: the common
/// front half of both fit entry points.
struct Prepared {
    scaler: MinMaxScaler,
    /// Scaled windows back to back, `seq_len × n_signals` values each.
    scaled: Vec<f64>,
    n_windows: usize,
    n_signals: usize,
}

impl MadGan {
    /// Trains the GAN on benign windows and calibrates the anomaly
    /// threshold at the configured quantile of training DR-Scores.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, windows are ragged, any window's
    /// length differs from `config.seq_len`, or the config has a zero
    /// size.
    pub fn fit(windows: &[Window], config: &MadGanConfig) -> Self {
        match Self::try_fit(windows, config) {
            Ok(gan) => gan,
            // lint: allow(L1): documented panicking wrapper; try_fit is the checked path
            Err(e) => panic!("MadGan: {e}"),
        }
    }

    /// Fallible [`fit`](Self::fit): windows containing non-finite values
    /// (degraded sensor data) are dropped before training.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidMadGanConfig`] when `batch_size`,
    /// `inversion_steps`, `hidden` or `latent_dim` is zero,
    /// [`DetectError::NoTrainingWindows`] on empty input,
    /// [`DetectError::NoFiniteWindows`] when every window is corrupt, and
    /// [`DetectError::WindowLength`] / [`DetectError::RaggedWindow`] on
    /// malformed windows.
    pub fn try_fit(windows: &[Window], config: &MadGanConfig) -> Result<Self, DetectError> {
        let _span = lgo_trace::span("detect/madgan/fit");
        let prepared = Self::prepare(windows, config)?;
        Ok(Self::train(prepared, &[], config))
    }

    /// ROAST-style outlier-exposure fit: identical to
    /// [`try_fit`](Self::try_fit), except that each discriminator batch
    /// step additionally pushes one known-adversarial window (cycled
    /// deterministically from `outliers`) toward the *fake* label. The
    /// discriminator therefore learns to reject crafted manipulations
    /// explicitly instead of only implicitly through the generator's
    /// samples; the DR-Score and threshold calibration are unchanged and
    /// computed on the benign windows only.
    ///
    /// The outlier pass draws no randomness, so the generator/
    /// discriminator weight initialization, latent draws, and shuffling
    /// are identical to the plain fit for the same seed. With an empty
    /// (or fully malformed) outlier set this reduces **bit-exactly** to
    /// [`try_fit`](Self::try_fit).
    ///
    /// # Errors
    ///
    /// The same errors as [`try_fit`](Self::try_fit). Outlier windows
    /// that are non-finite or have the wrong shape are silently dropped —
    /// they are auxiliary training signal, not primary data.
    pub fn try_fit_with_outliers(
        windows: &[Window],
        outliers: &[Window],
        config: &MadGanConfig,
    ) -> Result<Self, DetectError> {
        // Keep only well-formed outliers; an empty usable set must reduce
        // to the plain fit (same spans/counters, same bits).
        let usable: Vec<&Window> = outliers
            .iter()
            .filter(|w| {
                w.len() == config.seq_len && w.iter().flatten().all(|v| v.is_finite())
            })
            .collect();
        if usable.is_empty() {
            return Self::try_fit(windows, config);
        }
        let _span = lgo_trace::span("detect/madgan/fit_oe");
        let prepared = Self::prepare(windows, config)?;
        // Outliers ride in the *benign* feature frame — they must not
        // stretch the scaler's range.
        let mut scaled_outliers = Vec::new();
        let mut n_outliers = 0u64;
        for w in usable.into_iter().filter(|w| w.iter().all(|r| r.len() == prepared.n_signals)) {
            scaled_outliers.extend(prepared.scaler.transform(w)?.into_iter().flatten());
            n_outliers += 1;
        }
        lgo_trace::counter("detect/madgan/outlier_windows", n_outliers);
        Ok(Self::train(prepared, &scaled_outliers, config))
    }

    /// Validates the config and the windows, subsamples, and scales: the
    /// part of a fit that can fail.
    fn prepare(windows: &[Window], config: &MadGanConfig) -> Result<Prepared, DetectError> {
        for (field, value) in [
            ("batch_size", config.batch_size),
            ("inversion_steps", config.inversion_steps),
            ("hidden", config.hidden),
            ("latent_dim", config.latent_dim),
        ] {
            if value == 0 {
                return Err(DetectError::InvalidMadGanConfig { field });
            }
        }
        if windows.is_empty() {
            return Err(DetectError::NoTrainingWindows);
        }
        let finite: Vec<Window> = windows
            .iter()
            .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
            .cloned()
            .collect();
        if finite.is_empty() {
            return Err(DetectError::NoFiniteWindows);
        }
        let windows: Vec<Window> =
            crate::subsample::subsample_cap(finite, config.max_windows.unwrap_or(0));
        lgo_trace::counter("detect/madgan/fits", 1);
        lgo_trace::counter("detect/madgan/fit_windows", windows.len() as u64);
        let n_signals = windows[0][0].len();
        for (i, w) in windows.iter().enumerate() {
            if w.len() != config.seq_len {
                return Err(DetectError::WindowLength {
                    index: i,
                    got: w.len(),
                    expected: config.seq_len,
                });
            }
            if !w.iter().all(|r| r.len() == n_signals) {
                return Err(DetectError::RaggedWindow { index: i });
            }
        }

        let mut scaler = MinMaxScaler::new();
        let all_rows: Vec<Vec<f64>> = windows.iter().flatten().cloned().collect();
        scaler.try_fit(&all_rows)?;
        let mut scaled = Vec::with_capacity(all_rows.len() * n_signals);
        for w in &windows {
            scaled.extend(scaler.transform(w)?.into_iter().flatten());
        }
        Ok(Prepared {
            scaler,
            scaled,
            n_windows: windows.len(),
            n_signals,
        })
    }

    /// The GAN epochs and the threshold calibration, on prepared windows
    /// and a (possibly empty) set of scaled outlier windows.
    ///
    /// Each optimizer step runs as whole-minibatch calls. The discriminator
    /// step forwards `[real₀, fake₀, real₁, fake₁, …, outlier]` once and
    /// backpropagates once; the generator step forwards its fakes once and
    /// routes the discriminator's pure input gradient into them. The
    /// latents are drawn up front in the per-window loop's RNG order (the
    /// discriminator step's fakes, then the generator step's), and the
    /// batched backward passes accumulate every gradient in that loop's
    /// order, so the weights keep their bits (DESIGN §17).
    fn train(prepared: Prepared, outliers: &[f64], config: &MadGanConfig) -> Self {
        let Prepared {
            scaler,
            scaled,
            n_windows,
            n_signals,
        } = prepared;
        let t_len = config.seq_len;
        let win = t_len * n_signals;
        let n_outliers = outliers.len() / win.max(1);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut generator = LstmSeq2Seq::new(
            config.latent_dim,
            config.hidden,
            n_signals,
            Activation::Sigmoid,
            &mut rng,
        );
        let mut discriminator = LstmDiscriminator::new(n_signals, config.hidden, &mut rng);
        let mut opt_g = Adam::new(config.learning_rate);
        let mut opt_d = Adam::new(config.learning_rate);

        let mut order: Vec<usize> = (0..n_windows).collect();
        let mut next_outlier = 0usize;
        let mut d_input = Vec::with_capacity((2 * config.batch_size + 1) * win);
        for _epoch in 0..config.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size) {
                let n = batch.len();
                let z_d = Self::draw_latents(config, n, &mut rng);
                let z_g = Self::draw_latents(config, n, &mut rng);

                // --- Discriminator step: real -> 1, fake -> 0, outlier -> 0.
                // The generator is fixed during this step, so its fakes
                // come from one batched pass.
                let fakes = generator.generate_flat(&z_d, n, t_len);
                d_input.clear();
                for (k, &wi) in batch.iter().enumerate() {
                    d_input.extend_from_slice(&scaled[wi * win..(wi + 1) * win]);
                    d_input.extend_from_slice(&fakes[k * win..(k + 1) * win]);
                }
                if n_outliers > 0 {
                    // One exposure per optimizer step, cycled in order; no
                    // RNG is consumed, keeping the plain-fit weight
                    // trajectory reproducible when the set is empty.
                    let o = next_outlier % n_outliers;
                    next_outlier += 1;
                    d_input.extend_from_slice(&outliers[o * win..(o + 1) * win]);
                }
                let n_d = d_input.len() / win;
                discriminator.zero_grads();
                let tr = discriminator.forward_flat(&d_input, n_d, t_len);
                let dprobs: Vec<f64> = tr
                    .probabilities()
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| {
                        let real = k < 2 * n && k % 2 == 0;
                        Loss::Bce.gradient(p, if real { 1.0 } else { 0.0 })
                    })
                    .collect();
                discriminator.backward_flat(&tr, &dprobs);
                opt_d.step(&mut discriminator);

                // --- Generator step: make D(G(z)) -> 1. The gradient
                // reaches G's outputs through D's pure input-gradient
                // path; D's own parameter gradients are never formed.
                generator.zero_grads();
                let g_trace = generator.forward_flat(&z_g, n, t_len);
                let d_trace = discriminator.forward_flat(g_trace.outputs(), n, t_len);
                let dprobs: Vec<f64> = d_trace
                    .probabilities()
                    .iter()
                    .map(|&p| Loss::Bce.gradient(p, 1.0))
                    .collect();
                let dxs = discriminator.input_grad_flat(&d_trace, &dprobs);
                generator.backward_flat(&g_trace, &dxs);
                opt_g.step(&mut generator);
            }
        }

        let mut gan = Self {
            generator,
            discriminator,
            scaler,
            threshold: 0.0,
            config: config.clone(),
        };
        // Calibrate the threshold on (a subsample of) the training windows.
        let stride = (n_windows / 200).max(1);
        let calibration: Vec<f64> = scaled
            .chunks_exact(win)
            .step_by(stride)
            .flatten()
            .copied()
            .collect();
        let train_scores = gan.dr_scores_scaled(&calibration);
        gan.threshold = lgo_series::stats::quantile(&train_scores, config.threshold_quantile)
            // lint: allow(L1): windows is nonempty (checked at entry) and stride >= 1, so at least one score exists
            .expect("nonempty scores");
        gan
    }

    /// `count` latent sequences back to back, drawn window by window,
    /// timestep by timestep — the order of one draw per window.
    fn draw_latents(config: &MadGanConfig, count: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..count * config.seq_len * config.latent_dim)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect()
    }

    /// The calibrated DR-Score anomaly threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The raw DR-Score of a window: `λ·residual + (1−λ)·(1 − D(x))`.
    ///
    /// The reconstruction residual is the mean squared error between the
    /// (scaled) window and its best generator reconstruction, found by
    /// gradient descent in latent space.
    ///
    /// # Panics
    ///
    /// Panics if the window length or width differs from the training
    /// windows'. Use [`try_dr_score`](Self::try_dr_score) to handle
    /// malformed windows gracefully.
    pub fn dr_score(&self, window: &Window) -> f64 {
        match self.try_dr_score(window) {
            Ok(score) => score,
            // lint: allow(L1): documented panicking wrapper; try_dr_score is the checked path
            Err(e) => panic!("dr_score: {e}"),
        }
    }

    /// Fallible [`dr_score`](Self::dr_score).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::WindowLength`] when the window length differs
    /// from the configured `seq_len`, and [`DetectError::Scaler`] when its
    /// width differs from the training windows'.
    pub fn try_dr_score(&self, window: &Window) -> Result<f64, DetectError> {
        let mut x = Vec::new();
        self.scale_into(window, &mut x)?;
        Ok(self.dr_scores_scaled(&x)[0])
    }

    /// Appends the scaled window to `out` after checking its shape.
    fn scale_into(&self, window: &Window, out: &mut Vec<f64>) -> Result<(), DetectError> {
        if window.len() != self.config.seq_len {
            return Err(DetectError::WindowLength {
                index: 0,
                got: window.len(),
                expected: self.config.seq_len,
            });
        }
        out.extend(self.scaler.transform(window)?.into_iter().flatten());
        Ok(())
    }

    /// DR-Scores of scaled windows stored back to back, in batches of
    /// [`SCORE_CHUNK`]: one discriminator pass and one batched latent
    /// inversion per batch. Each score is bit-for-bit the single-window
    /// result.
    fn dr_scores_scaled(&self, scaled: &[f64]) -> Vec<f64> {
        let win = self.config.seq_len * self.generator.output_size();
        let lambda = self.config.lambda;
        let mut scores = Vec::with_capacity(scaled.len() / win.max(1));
        for x in scaled.chunks(SCORE_CHUNK * win.max(1)) {
            let n = x.len() / win.max(1);
            let d = self.discriminator.probabilities(x, n, self.config.seq_len);
            let residual = self.reconstruction_residuals(x, n);
            scores.extend(
                residual
                    .iter()
                    .zip(&d)
                    .map(|(&r, &d)| lambda * r + (1.0 - lambda) * (1.0 - d)),
            );
        }
        scores
    }

    /// Best-effort reconstruction residuals via latent-space gradient
    /// descent, for `n` scaled windows at once. The residual reported is
    /// the **maximum per-timestep squared error of the first (CGM)
    /// signal** over the best reconstruction found: a manipulation
    /// corrupts only a few samples of one channel and must not be averaged
    /// away by the benign remainder of the window.
    ///
    /// Every window descends from the zero latent independently; the
    /// batch shares each step's generator forward and pure input-gradient
    /// pass, and the generator itself is only read.
    fn reconstruction_residuals(&self, x: &[f64], n: usize) -> Vec<f64> {
        let (t_len, lr) = (self.config.seq_len, self.config.inversion_lr);
        let width = self.generator.output_size();
        let mut z = vec![0.0; n * t_len * self.config.latent_dim];
        let mut best = vec![f64::INFINITY; n];
        let mut dys = vec![0.0; x.len()];
        let scale = (t_len * width) as f64;
        for _ in 0..self.config.inversion_steps {
            let trace = self.generator.forward_flat(&z, n, t_len);
            let outs = trace.outputs();
            for (b, best) in best.iter_mut().enumerate() {
                let rows = b * t_len..(b + 1) * t_len;
                let worst = rows
                    .map(|r| {
                        let e = outs[r * width] - x[r * width];
                        e * e
                    })
                    .fold(0.0, f64::max);
                *best = best.min(worst);
            }
            for ((dy, &o), &t) in dys.iter_mut().zip(outs).zip(x) {
                *dy = 2.0 * (o - t) / scale;
            }
            let dz = self.generator.input_grad_flat(&trace, &dys);
            for (zv, &dv) in z.iter_mut().zip(&dz) {
                *zv -= lr * dv;
            }
        }
        best
    }
}

impl AnomalyDetector for MadGan {
    fn name(&self) -> &str {
        "madgan"
    }

    /// Score = DR-Score − calibrated threshold.
    fn score(&self, window: &Window) -> f64 {
        lgo_trace::counter("detect/madgan/scores", 1);
        self.dr_score(window) - self.threshold
    }

    /// Batched scoring: the whole slice shares each latent-inversion step
    /// and the discriminator pass (in batches of 32 windows). Bit-identical
    /// to [`score`](AnomalyDetector::score) per window, and a malformed
    /// window panics with the message `score` gives for it.
    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        if windows.is_empty() {
            return Vec::new();
        }
        lgo_trace::counter("detect/madgan/scores", windows.len() as u64);
        let mut scaled = Vec::new();
        for w in windows {
            if let Err(e) = self.scale_into(w, &mut scaled) {
                // lint: allow(L1): mirrors score's documented panicking contract
                panic!("dr_score: {e}");
            }
        }
        self.dr_scores_scaled(&scaled)
            .into_iter()
            .map(|s| s - self.threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_window(phase: f64) -> Window {
        (0..12)
            .map(|t| {
                let v = ((t as f64) * 0.5 + phase).sin() * 0.25 + 0.5;
                vec![v, v * 0.7, 1.0 - v, 0.5]
            })
            .collect()
    }

    fn noise_window(seed: u64) -> Window {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..12)
            .map(|_| (0..4).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect()
    }

    fn quick_cfg() -> MadGanConfig {
        MadGanConfig {
            epochs: 8,
            hidden: 10,
            inversion_steps: 10,
            batch_size: 8,
            ..MadGanConfig::default()
        }
    }

    fn training_set() -> Vec<Window> {
        (0..48).map(|i| smooth_window(i as f64 * 0.3)).collect()
    }

    #[test]
    fn fit_and_score_are_finite_and_deterministic() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let w = smooth_window(0.1);
        let s1 = gan.score(&w);
        let s2 = gan.score(&w);
        assert!(s1.is_finite());
        assert_eq!(s1, s2);
        assert_eq!(gan.name(), "madgan");
        assert!(gan.threshold().is_finite());
    }

    #[test]
    fn anomalies_score_higher_than_benign() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let benign_mean: f64 = (0..8)
            .map(|i| gan.dr_score(&smooth_window(i as f64 * 0.37 + 0.05)))
            .sum::<f64>()
            / 8.0;
        let anomalous_mean: f64 = (0..8)
            .map(|i| gan.dr_score(&noise_window(100 + i)))
            .sum::<f64>()
            / 8.0;
        assert!(
            anomalous_mean > benign_mean,
            "anomalous {anomalous_mean:.4} <= benign {benign_mean:.4}"
        );
    }

    #[test]
    fn threshold_quantile_bounds_training_flags() {
        let train = training_set();
        let gan = MadGan::fit(&train, &quick_cfg());
        let flagged = train.iter().filter(|w| gan.is_anomalous(w)).count();
        // At the 0.95 quantile, at most ~5% of training windows (plus
        // rounding slack) may be flagged.
        assert!(
            flagged <= train.len() / 10 + 1,
            "{flagged}/{} training windows flagged",
            train.len()
        );
    }

    #[test]
    fn reconstruction_improves_with_more_steps() {
        let train = training_set();
        let mut few = quick_cfg();
        few.inversion_steps = 1;
        let mut many = quick_cfg();
        many.inversion_steps = 25;
        let g_few = MadGan::fit(&train, &few);
        let g_many = MadGan::fit(&train, &many);
        // Same weights (same seed/epochs); more inversion steps can only
        // lower the best-found residual, hence the DR-Score.
        let w = smooth_window(0.9);
        assert!(g_many.dr_score(&w) <= g_few.dr_score(&w) + 1e-9);
    }

    #[test]
    fn outlier_exposure_with_no_outliers_is_bitwise_plain_fit() {
        let train = training_set();
        let cfg = quick_cfg();
        let plain = MadGan::try_fit(&train, &cfg).unwrap();
        let oe = MadGan::try_fit_with_outliers(&train, &[], &cfg).unwrap();
        // Malformed outliers are dropped, so an all-malformed set also
        // reduces to the plain fit.
        let malformed = vec![vec![vec![0.5; 4]; 5], vec![vec![f64::NAN; 4]; 12]];
        let dropped = MadGan::try_fit_with_outliers(&train, &malformed, &cfg).unwrap();
        for gan in [&oe, &dropped] {
            assert_eq!(plain.threshold().to_bits(), gan.threshold().to_bits());
            for w in train.iter().take(6) {
                assert_eq!(
                    plain.dr_score(w).to_bits(),
                    gan.dr_score(w).to_bits(),
                    "empty-outlier reduction diverged"
                );
            }
        }
    }

    #[test]
    fn outlier_exposure_raises_discrimination_score_on_outliers() {
        let train = training_set();
        // Pure discrimination score (λ = 0) isolates the discriminator's
        // response, which is what outlier exposure trains.
        let cfg = MadGanConfig {
            lambda: 0.0,
            ..quick_cfg()
        };
        let outliers: Vec<Window> = (0..8).map(|i| noise_window(900 + i)).collect();
        let plain = MadGan::try_fit(&train, &cfg).unwrap();
        let oe = MadGan::try_fit_with_outliers(&train, &outliers, &cfg).unwrap();
        let mean = |gan: &MadGan| {
            outliers.iter().map(|w| gan.dr_score(w)).sum::<f64>() / outliers.len() as f64
        };
        assert!(
            mean(&oe) > mean(&plain),
            "exposure did not raise outlier discrimination: oe {} vs plain {}",
            mean(&oe),
            mean(&plain)
        );
    }

    #[test]
    #[should_panic(expected = "has length 5 (expected 12)")]
    fn wrong_window_length_rejected() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let _ = gan.dr_score(&vec![vec![0.5; 4]; 5]);
    }

    #[test]
    fn try_dr_score_reports_malformed_windows() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let err = gan.try_dr_score(&vec![vec![0.5; 4]; 5]).unwrap_err();
        assert!(matches!(
            err,
            DetectError::WindowLength {
                got: 5,
                expected: 12,
                ..
            }
        ));
        // A well-formed window agrees with the panicking path.
        let w = smooth_window(0.7);
        assert_eq!(gan.try_dr_score(&w).unwrap(), gan.dr_score(&w));
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn empty_training_rejected() {
        let _ = MadGan::fit(&[], &quick_cfg());
    }

    fn assert_rejects_zero(field: &str, cfg: MadGanConfig) {
        let train = training_set();
        let outliers = vec![noise_window(7)];
        for result in [
            MadGan::try_fit(&train, &cfg),
            MadGan::try_fit_with_outliers(&train, &outliers, &cfg),
        ] {
            match result {
                Err(DetectError::InvalidMadGanConfig { field: f }) => assert_eq!(f, field),
                other => panic!("{field} = 0 was not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        // Used to panic inside the epoch loop at `order.chunks(0)`.
        assert_rejects_zero("batch_size", MadGanConfig { batch_size: 0, ..quick_cfg() });
    }

    #[test]
    fn zero_inversion_steps_is_a_typed_error() {
        // Used to fit a detector with an infinite threshold whose every
        // score was NaN, so it never flagged anything.
        assert_rejects_zero(
            "inversion_steps",
            MadGanConfig { inversion_steps: 0, ..quick_cfg() },
        );
    }

    #[test]
    fn zero_hidden_is_a_typed_error() {
        assert_rejects_zero("hidden", MadGanConfig { hidden: 0, ..quick_cfg() });
    }

    #[test]
    fn zero_latent_dim_is_a_typed_error() {
        assert_rejects_zero("latent_dim", MadGanConfig { latent_dim: 0, ..quick_cfg() });
        let msg = DetectError::InvalidMadGanConfig { field: "latent_dim" }.to_string();
        assert_eq!(msg, "MAD-GAN latent_dim must be positive");
    }

    #[test]
    fn scoring_leaves_the_generator_untouched() {
        // DR-scoring reads the generator through `&self`: scoring a batch
        // twice, or a window before and after the batch, gives the same bits.
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let windows: Vec<Window> = (0..5).map(|i| noise_window(300 + i)).collect();
        let first = gan.score_batch(&windows);
        let again = gan.score_batch(&windows);
        assert_eq!(first, again);
        assert_eq!(gan.score(&windows[2]).to_bits(), first[2].to_bits());
    }
}
