//! Bit-level pins of the MAD-GAN detector.
//!
//! The golden values below are the `to_bits()` of thresholds and scores
//! produced by the per-window training and scoring loops that preceded the
//! batched implementation. The batched fit (one minibatch BPTT per
//! optimizer step) and the batched latent inversion must reproduce every
//! one of them exactly. The file also carries the per-window reference
//! oracle — the original loop, written against the public `lgo-nn` API —
//! and checks the batched detector against it on fresh fits, plus the
//! agreement of the three scoring entry points.

use lgo_detect::{AnomalyDetector, MadGan, MadGanConfig, ScoreScratch};
use lgo_nn::{Activation, Adam, Loss, LstmDiscriminator, LstmSeq2Seq, Trainable};
use lgo_series::MinMaxScaler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Window = Vec<Vec<f64>>;

/// A benign-looking 12 × 4 window in raw units (CGM, insulin, carbs,
/// heart rate).
fn window(i: usize) -> Window {
    let phase = i as f64 * 0.37;
    (0..12)
        .map(|t| {
            let v = ((t as f64) * 0.45 + phase).sin() * 0.3 + 0.5 + (i % 5) as f64 * 0.01;
            vec![
                120.0 + 60.0 * v,
                2.0 * v * v,
                0.3 * (1.0 - v),
                70.0 + (i % 3) as f64,
            ]
        })
        .collect()
}

/// A jagged window unlike the benign family.
fn outlier(i: usize) -> Window {
    (0..12)
        .map(|t| {
            let v = ((t * 7 + i * 13) % 11) as f64 / 11.0;
            vec![
                100.0 + 90.0 * v,
                2.0 * (1.0 - v),
                0.3 * v,
                70.0 + (i % 2) as f64,
            ]
        })
        .collect()
}

/// Fixed probe windows: three benign, one with a +50 mg/dL CGM spike and
/// two jagged ones.
fn probes() -> Vec<Window> {
    let mut spiked = window(3);
    spiked[7][0] += 50.0;
    vec![
        window(1),
        window(17),
        window(100),
        spiked,
        outlier(40),
        outlier(41),
    ]
}

fn cfg(batch_size: usize, hidden: usize, latent_dim: usize) -> MadGanConfig {
    MadGanConfig {
        epochs: 3,
        hidden,
        latent_dim,
        inversion_steps: 4,
        batch_size,
        max_windows: None,
        ..MadGanConfig::default()
    }
}

/// One pinned fit: how to build it and the bits it must produce.
struct Case {
    name: &'static str,
    threshold: u64,
    scores: [u64; 6],
}

const PLAIN: Case = Case {
    name: "plain (45 windows, batch 16)",
    threshold: 0x3fd2dc3fe9f418a4,
    scores: [
        0xbfa96e5c44c57b04,
        0xbfa52ca22b6615c0,
        0xbfac73c46686dc34,
        0x3fe06ea7b954eb7e,
        0x3ff4eeb8eb39f6a3,
        0x3ff52e6edacca94c,
    ],
};

const OE: Case = Case {
    name: "outlier exposure (45 windows, batch 16, 7 outliers)",
    threshold: 0x3fd2e22c54f065eb,
    scores: [
        0xbfa97ad7d39626e4,
        0xbfa53f92cef23390,
        0xbfac76f2a5846e54,
        0x3fe06eed309578e6,
        0x3ff4eecc693be1a8,
        0x3ff52ecb89943dc5,
    ],
};

const BIG_BATCH: Case = Case {
    name: "batch larger than the set (11 windows, batch 32)",
    threshold: 0x3fd1c4673cf1c704,
    scores: [
        0xbf98f18bdb24c750,
        0xbfa2d10d84227988,
        0xbfa8254b31edec1c,
        0x3fe029acbca9aafe,
        0x3ff5f37a57b94b4c,
        0x3ff605fe947de8c7,
    ],
};

const BIG_BATCH_OE: Case = Case {
    name: "batch larger than the set, 2 outliers",
    threshold: 0x3fd1ca6f4afbfbba,
    scores: [
        0xbf98e390b0f4b8a0,
        0xbfa2d70fa9dd0590,
        0xbfa8291d576d21f0,
        0x3fe02ab559be16a1,
        0x3ff5f393db545716,
        0x3ff6060131fdfa90,
    ],
};

const DEFAULT_SHAPE: Case = Case {
    name: "default shape (21 windows, hidden 16, 20 inversion steps)",
    threshold: 0x3fd20e15583fbf04,
    scores: [
        0xbf8a71aafc23ab20,
        0xbfa0c1c74d3d623c,
        0xbfa3018d2eb45a88,
        0x3fdec9069a04b50c,
        0x3ff66ea14b07111a,
        0x3ff64dcc89b730a4,
    ],
};

fn assert_case(case: &Case, gan: &MadGan) {
    assert_eq!(
        gan.threshold().to_bits(),
        case.threshold,
        "{}: threshold {} moved",
        case.name,
        gan.threshold()
    );
    for (k, (w, &want)) in probes().iter().zip(&case.scores).enumerate() {
        let got = gan.score(w);
        assert_eq!(
            got.to_bits(),
            want,
            "{}: probe {k} score {got} moved",
            case.name
        );
    }
}

fn train(n: usize) -> Vec<Window> {
    (0..n).map(window).collect()
}

fn outliers(n: usize) -> Vec<Window> {
    (0..n).map(outlier).collect()
}

#[test]
fn plain_fit_keeps_its_bits() {
    let gan = MadGan::try_fit(&train(45), &cfg(16, 6, 4)).unwrap();
    assert_case(&PLAIN, &gan);
}

#[test]
fn outlier_exposed_fit_keeps_its_bits() {
    let gan = MadGan::try_fit_with_outliers(&train(45), &outliers(7), &cfg(16, 6, 4)).unwrap();
    assert_case(&OE, &gan);
}

#[test]
fn batch_larger_than_the_set_keeps_its_bits() {
    let c = cfg(32, 8, 3);
    assert_case(&BIG_BATCH, &MadGan::try_fit(&train(11), &c).unwrap());
    let oe = MadGan::try_fit_with_outliers(&train(11), &outliers(2), &c).unwrap();
    assert_case(&BIG_BATCH_OE, &oe);
}

#[test]
fn default_shape_keeps_its_bits() {
    let c = MadGanConfig {
        epochs: 2,
        max_windows: None,
        ..MadGanConfig::default()
    };
    assert_case(&DEFAULT_SHAPE, &MadGan::try_fit(&train(21), &c).unwrap());
}

#[test]
fn score_batch_score_into_and_score_agree_bitwise() {
    let gan = MadGan::try_fit(&train(45), &cfg(16, 6, 4)).unwrap();
    // 37 windows: more than one evaluation chunk of 32, not a multiple of
    // it, with every probe shape mixed in.
    let mut windows: Vec<Window> = (200..231).map(window).collect();
    windows.extend(probes());
    let batch = gan.score_batch(&windows);
    assert_eq!(batch.len(), windows.len());
    let mut scratch = ScoreScratch::new();
    for (k, w) in windows.iter().enumerate() {
        let single = gan.score(w);
        assert_eq!(
            batch[k].to_bits(),
            single.to_bits(),
            "score_batch diverged at {k}"
        );
        assert_eq!(
            gan.score_into(w, &mut scratch).to_bits(),
            single.to_bits(),
            "score_into diverged at {k}"
        );
    }
    // Any split of the batch gives the same bits.
    for split in [1usize, 5, 32] {
        let mut joined = Vec::new();
        for chunk in windows.chunks(split) {
            joined.extend(gan.score_batch(chunk));
        }
        let same = joined
            .iter()
            .zip(&batch)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "chunks of {split} diverged");
    }
    assert!(gan.score_batch(&[]).is_empty());
}

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic>")
    }
}

#[test]
fn wrongly_sized_window_in_a_batch_panics_like_score() {
    let gan = MadGan::try_fit(&train(21), &cfg(16, 6, 4)).unwrap();
    let short: Window = vec![vec![120.0, 0.5, 0.1, 70.0]; 5];
    let narrow: Window = vec![vec![120.0, 0.5]; 12];
    for bad in [short, narrow] {
        let single = panic_message(|| {
            let _ = gan.score(&bad);
        });
        let mut batch = train(4);
        batch.insert(2, bad.clone());
        let batched = panic_message(|| {
            let _ = gan.score_batch(&batch);
        });
        assert_eq!(single, batched);
        assert!(single.starts_with("dr_score: "), "{single}");
    }
}

/// The per-window reference: the original MAD-GAN training loop and
/// DR-score, one window at a time, returning the threshold and the raw
/// DR-scores of `probes`.
fn oracle(
    windows: &[Window],
    outliers: &[Window],
    config: &MadGanConfig,
    probes: &[Window],
) -> (f64, Vec<f64>) {
    let windows = lgo_detect::subsample_cap(windows.to_vec(), config.max_windows.unwrap_or(0));
    let n_signals = windows[0][0].len();
    let mut scaler = MinMaxScaler::new();
    let all_rows: Vec<Vec<f64>> = windows.iter().flatten().cloned().collect();
    scaler.try_fit(&all_rows).unwrap();
    let scaled: Vec<Window> = windows
        .iter()
        .map(|w| scaler.transform(w).unwrap())
        .collect();
    let scaled_outliers: Vec<Window> = outliers
        .iter()
        .map(|w| scaler.transform(w).unwrap())
        .collect();
    let draw = |rng: &mut StdRng| -> Window {
        (0..config.seq_len)
            .map(|_| {
                (0..config.latent_dim)
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect()
            })
            .collect()
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = LstmSeq2Seq::new(
        config.latent_dim,
        config.hidden,
        n_signals,
        Activation::Sigmoid,
        &mut rng,
    );
    let mut d = LstmDiscriminator::new(n_signals, config.hidden, &mut rng);
    let mut opt_g = Adam::new(config.learning_rate);
    let mut opt_d = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..scaled.len()).collect();
    let mut next_outlier = 0usize;
    for _ in 0..config.epochs {
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        for batch in order.chunks(config.batch_size) {
            d.zero_grads();
            for &wi in batch {
                let tr = d.forward(&scaled[wi]);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 1.0));
                let fake = g.generate(&draw(&mut rng));
                let tr = d.forward(&fake);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
            }
            if !scaled_outliers.is_empty() {
                let o = &scaled_outliers[next_outlier % scaled_outliers.len()];
                next_outlier += 1;
                let tr = d.forward(o);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
            }
            opt_d.step(&mut d);

            g.zero_grads();
            for _ in 0..batch.len() {
                let g_trace = g.forward(&draw(&mut rng));
                let d_trace = d.forward(g_trace.outputs());
                let dxs = d.backward(&d_trace, Loss::Bce.gradient(d_trace.probability(), 1.0));
                g.backward(&g_trace, &dxs);
            }
            d.zero_grads();
            opt_g.step(&mut g);
        }
    }

    let dr_score = |w: &Window| -> f64 {
        let x = scaler.transform(w).unwrap();
        let p = d.probability(&x);
        let mut gen = g.clone();
        let mut z: Window = vec![vec![0.0; config.latent_dim]; config.seq_len];
        let mut best = f64::INFINITY;
        for _ in 0..config.inversion_steps {
            let trace = gen.forward(&z);
            let outs = trace.outputs();
            let worst = outs
                .iter()
                .zip(&x)
                .map(|(o, t)| (o[0] - t[0]) * (o[0] - t[0]))
                .fold(0.0, f64::max);
            best = best.min(worst);
            let n = (outs.len() * outs[0].len()) as f64;
            let dys: Vec<Vec<f64>> = outs
                .iter()
                .zip(&x)
                .map(|(o, t)| o.iter().zip(t).map(|(&a, &b)| 2.0 * (a - b) / n).collect())
                .collect();
            gen.zero_grads();
            let dz = gen.backward(&trace, &dys);
            for (zr, dr) in z.iter_mut().zip(&dz) {
                for (zv, &dv) in zr.iter_mut().zip(dr) {
                    *zv -= config.inversion_lr * dv;
                }
            }
        }
        config.lambda * best + (1.0 - config.lambda) * (1.0 - p)
    };
    let stride = (windows.len() / 200).max(1);
    let train_scores: Vec<f64> = windows.iter().step_by(stride).map(&dr_score).collect();
    let threshold = lgo_series::stats::quantile(&train_scores, config.threshold_quantile).unwrap();
    (threshold, probes.iter().map(dr_score).collect())
}

fn assert_matches_oracle(gan: &MadGan, oracle: (f64, Vec<f64>), what: &str) {
    assert_eq!(
        gan.threshold().to_bits(),
        oracle.0.to_bits(),
        "{what}: threshold"
    );
    for (k, (w, want)) in probes().iter().zip(&oracle.1).enumerate() {
        assert_eq!(
            gan.dr_score(w).to_bits(),
            want.to_bits(),
            "{what}: probe {k}"
        );
    }
}

#[test]
fn batched_fit_matches_the_per_window_oracle() {
    // Remainder batches, a batch of one, a batch larger than the set, a
    // stride > 1 threshold calibration (more than 400 windows) and a
    // subsampling cap.
    let cases: [(usize, usize, usize, Option<usize>, usize); 4] = [
        (29, 8, 0, None, 2),
        (9, 1, 3, None, 1),
        (6, 64, 4, None, 2),
        (430, 64, 5, Some(410), 1),
    ];
    for (n, batch_size, n_out, cap, epochs) in cases {
        let c = MadGanConfig {
            epochs,
            hidden: 5,
            latent_dim: 3,
            inversion_steps: 3,
            batch_size,
            max_windows: cap,
            seed: 0x5EED + n as u64,
            ..MadGanConfig::default()
        };
        let what = format!("{n} windows, batch {batch_size}, {n_out} outliers, cap {cap:?}");
        let ws = train(n);
        let outs = outliers(n_out);
        let gan = MadGan::try_fit_with_outliers(&ws, &outs, &c).unwrap();
        assert_matches_oracle(&gan, oracle(&ws, &outs, &c, &probes()), &what);
    }
}
