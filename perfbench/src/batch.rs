//! The batch workloads: the paper's five-step `pipeline` and the
//! risk-`profile` steps alone.
//!
//! A metric run times whole reps through the public entry point
//! (`try_run_pipeline_on` for the pipeline). A traced run recomposes the
//! same job from the finest public calls, with the same `try_par_map`
//! fan-outs, wraps each call in a span, and must rebuild the untraced
//! rep's canonical export byte for byte.

use std::fmt::Write as _;
use std::time::Instant;

use lgo_attack::cgm::OriginState;
use lgo_cluster::Linkage;
use lgo_core::defense::{Defense, DefenseContext, LgoSelectiveDefense};
use lgo_core::error::LgoError;
use lgo_core::export::canonical_json;
use lgo_core::pipeline::{benign_windows, PipelineConfig, PipelineReport, SkippedPatient};
use lgo_core::profile::{try_profile_patient, PatientAttackProfile, ProfilerConfig};
use lgo_core::selective::{
    evaluate_on_patient, DetectorKind, PatientData, PatientMetrics, StrategyEvaluation,
    TrainingStrategy,
};
use lgo_core::vuln::{try_cluster_cohort, CohortClusters};
use lgo_detect::Window;
use lgo_eval::ConfusionMatrix;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::{synthetic_profile, PatientDataset};

use crate::layers::{self, kind_index, FIT_METRICS, FIT_SPANS, SCORE_METRICS, SCORE_SPANS};
use crate::probe;
use crate::report::{self, median, ratio, Outcome};
use crate::reps;
use crate::spans::{timed, SpanId, Tracer};

/// Threads of both batch workloads.
pub const THREADS: usize = 2;

/// Simulated (train, test) days per patient.
const DAYS: (usize, usize) = (3, 1);

/// Cohort simulations per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Cohort indices of the pipeline workload: archetypes A2, A5, B2, B4.
const PIPELINE_COHORT: [u64; 4] = [2, 5, 8, 10];

/// Span and metric names of the grid cells' own (`core`) work.
const CELL_SPANS: [&str; 3] = [
    "core.grid_cell.madgan",
    "core.grid_cell.ocsvm",
    "core.grid_cell.knn",
];
const CELL_METRICS: [&str; 3] = [
    "core.grid_cell_self_s.madgan",
    "core.grid_cell_self_s.ocsvm",
    "core.grid_cell_self_s.knn",
];

/// Which batch job a run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Steps 0–5 through `try_run_pipeline_on`.
    Pipeline,
    /// Steps 0–4: forecaster training, maximizing URET, risk, clustering.
    Profile,
}

impl Job {
    fn name(self) -> &'static str {
        match self {
            Job::Pipeline => "pipeline",
            Job::Profile => "profile",
        }
    }

    fn cohort(self) -> Vec<u64> {
        match self {
            Job::Pipeline => PIPELINE_COHORT.to_vec(),
            Job::Profile => (0..12).collect(),
        }
    }
}

/// Attack work of one rep, read off the campaign reports.
#[derive(Debug, Default, Clone, Copy)]
struct AttackTally {
    queries: u64,
    attacked: u64,
    succeeded: u64,
}

impl AttackTally {
    fn add(&mut self, p: &PatientAttackProfile) {
        self.queries += p.campaign.total_queries() as u64;
        for o in &p.campaign.outcomes {
            if o.origin != OriginState::Hyper {
                self.attacked += 1;
                self.succeeded += u64::from(o.result.achieved);
            }
        }
    }

    fn merge(&mut self, other: AttackTally) {
        self.queries += other.queries;
        self.attacked += other.attacked;
        self.succeeded += other.succeeded;
    }
}

/// Detector work of one traced pipeline rep, by [`kind_index`].
#[derive(Debug, Default, Clone, Copy)]
struct DetectTally {
    fit_windows: u64,
    scored: [u64; 3],
}

/// Simulates the workload's cohort `SETUPS` times (each patient in a span
/// when traced, the round as its rep) and returns the datasets with each
/// simulation's wall time.
fn simulate(job: Job, seed: u64, tracer: Option<&Tracer>) -> (Vec<PatientDataset>, Vec<f64>) {
    let mut times = Vec::new();
    let mut datasets = Vec::new();
    for round in 0..SETUPS {
        let start = Instant::now();
        datasets = job
            .cohort()
            .into_iter()
            .map(|i| {
                timed(tracer, "glucosim.generate", "glucosim", None, round, |_| {
                    PatientDataset::generate(synthetic_profile(i, seed), DAYS.0, DAYS.1)
                })
            })
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (datasets, times)
}

fn pipeline_config() -> PipelineConfig {
    lgo_bench::pipeline_config(lgo_bench::Scale::Fast)
}

/// Mean per-patient recall and FPR of the LessVulnerable arm over its
/// detectors, and the share of fits that trained the requested detector.
fn headline(report: &PipelineReport) -> (f64, f64, f64) {
    let cells: Vec<&PatientMetrics> = report
        .evaluations
        .iter()
        .filter(|e| e.strategy == TrainingStrategy::LessVulnerable)
        .flat_map(|e| e.per_patient.iter().map(|(_, m)| m))
        .collect();
    let n = cells.len() as f64;
    let recall = ratio(cells.iter().map(|m| m.recall).sum(), n);
    let fpr = ratio(cells.iter().map(|m| m.fpr).sum(), n);
    let fits: Vec<bool> = report
        .evaluations
        .iter()
        .flat_map(|e| e.detectors_trained.iter().map(move |k| *k == e.detector))
        .collect();
    let primary = ratio(
        fits.iter().filter(|&&ok| ok).count() as f64,
        fits.len() as f64,
    );
    (recall, fpr, primary)
}

/// One untraced rep through the public entry point; a rep that skips a
/// patient fails.
fn untraced_pipeline(datasets: &[PatientDataset]) -> Result<PipelineReport, String> {
    let report = lgo_core::pipeline::try_run_pipeline_on(&pipeline_config(), datasets.to_vec())
        .map_err(|e| e.to_string())?;
    match report.skipped.len() {
        0 => Ok(report),
        n => Err(format!("{n} patient(s) skipped")),
    }
}

/// Runs one batch workload for `seconds`, traced or not.
pub fn run(job: Job, seed: u64, seconds: f64, traced: bool) -> Outcome {
    lgo_runtime::set_threads(Some(THREADS));
    let mut out = Outcome::default();
    let setup_tracer = Tracer::new();
    let before = probe::probe();
    let (datasets, setup_times) = simulate(job, seed, traced.then_some(&setup_tracer));
    let setup_s = probe::rescale(median(&setup_times), before, probe::probe());
    if !traced {
        reps::measure(job.name(), seconds, setup_s, &mut out, || match job {
            Job::Pipeline => {
                untraced_pipeline(&datasets).map(|r| (canonical_json(&r), headline(&r).2))
            }
            Job::Profile => profile_rep(&datasets, None, 0)
                .map(|(export, _)| (export, 1.0))
                .map_err(|e| e.to_string()),
        });
        return out;
    }

    let start = Instant::now();
    let span_cost = layers::span_cost_s();
    report::clear_kernel_cache();
    let reference = match job {
        Job::Pipeline => untraced_pipeline(&datasets).map(|r| (canonical_json(&r), headline(&r))),
        Job::Profile => profile_rep(&datasets, None, 0)
            .map(|(e, _)| (e, (0.0, 0.0, 1.0)))
            .map_err(|e| e.to_string()),
    };
    let (export, (recall, fpr, _)) = match reference {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("{} reference rep: {e}", job.name()));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let (reps, traced) = reps::trace(
        job.name(),
        start,
        seconds,
        THREADS,
        &export,
        &mut out,
        |tracer, root, rep| {
            match job {
                Job::Pipeline => {
                    traced_pipeline_rep(&pipeline_config(), datasets.to_vec(), tracer, root, rep)
                        .map(|(r, a, d)| (canonical_json(&r), (a, d)))
                }
                Job::Profile => profile_rep(&datasets, Some((tracer, root)), rep)
                    .map(|(e, a)| (e, (a, DetectTally::default()))),
            }
            .map_err(|e| e.to_string())
        },
    );

    // Set-up spans carry the simulation round as their rep.
    let mut per_round = vec![0.0; SETUPS];
    for s in setup_tracer.take() {
        per_round[s.rep] += s.duration();
    }
    let attack = |f: fn(&AttackTally) -> f64| reps::median_of(&traced, |t| f(&t.tally.0));
    out.set("lgo_recall", recall);
    out.set("lgo_fpr", fpr);
    out.set("glucosim.simulate_s", median(&per_round));
    out.set(
        "forecast.train_s",
        layers::median_self(&reps, "forecast.train"),
    );
    out.set(
        "attack.campaign_s",
        layers::median_self(&reps, "attack.profile"),
    );
    out.set("attack.queries", attack(|a| a.queries as f64));
    out.set(
        "attack.success_frac",
        attack(|a| ratio(a.succeeded as f64, a.attacked as f64)),
    );
    out.set(
        "cluster.cluster_s",
        layers::median_self(&reps, "cluster.cluster"),
    );
    for k in 0..3 {
        let windows = reps::median_of(&traced, |t| t.tally.1.scored[k] as f64);
        out.set(FIT_METRICS[k], layers::median_self(&reps, FIT_SPANS[k]));
        out.set(
            SCORE_METRICS[k],
            ratio(layers::median_self(&reps, SCORE_SPANS[k]) * 1e6, windows),
        );
        out.set(CELL_METRICS[k], layers::median_self(&reps, CELL_SPANS[k]));
    }
    out.set(
        "detect.fit_windows",
        reps::median_of(&traced, |t| t.tally.1.fit_windows as f64),
    );
    if job == Job::Pipeline {
        out.set(
            "detect.kernel_cache.hit_frac",
            reps::median_of(&traced, |t| t.hit_frac),
        );
    }
    out.set(
        "runtime.cpu_per_wall",
        reps::median_of(&traced, |t| t.cpu_per_wall),
    );
    out.set(
        "trace.overhead_frac",
        layers::overhead_frac(&reps, span_cost),
    );
    crate::zero_missing(&mut out);
    out
}

/// Steps 0–3 for one patient, recomposed from `profile_one_patient` in
/// `lgo_core::pipeline` with a span around each public call.
fn traced_profile_one(
    config: &PipelineConfig,
    d: &PatientDataset,
    tracer: &Tracer,
    parent: SpanId,
    rep: usize,
    tally: &mut AttackTally,
) -> Result<(PatientAttackProfile, PatientData), (&'static str, LgoError)> {
    let patient = tracer.open("core.patient", "core", Some(parent), rep);
    let p = Some(patient.id());
    let t = Some(tracer);
    let seq_len = config.forecast.seq_len;
    let forecaster = timed(t, "forecast.train", "forecast", p, rep, |_| {
        GlucoseForecaster::try_train_personalized(&d.train, &config.forecast)
    })
    .map_err(|e| ("forecast", LgoError::from(e)))?;
    let attack = |series, cfg: &ProfilerConfig| {
        timed(t, "attack.profile", "attack", p, rep, |_| {
            try_profile_patient(&forecaster, d.profile.id, series, cfg)
        })
    };
    let test_profile = attack(&d.test, &config.profiler).map_err(|e| ("profile", e))?;
    let minimal = ProfilerConfig {
        maximize: false,
        ..config.profiler.clone()
    };
    let test_minimal = attack(&d.test, &minimal).map_err(|e| ("profile", e))?;
    let train_minimal = attack(
        &d.train,
        &ProfilerConfig {
            stride: config.train_attack_stride,
            ..minimal
        },
    )
    .map_err(|e| ("profile", e))?;
    for prof in [&test_profile, &test_minimal, &train_minimal] {
        tally.add(prof);
    }
    let windows = |series| {
        timed(t, "series.windows", "series", p, rep, |_| {
            finite_windows(benign_windows(series, seq_len, config.detector_stride))
        })
    };
    let train_benign = windows(&d.train);
    let test_benign = windows(&d.test);
    if train_benign.is_empty() || test_benign.is_empty() {
        return Err(("windows", LgoError::NoWindows));
    }
    Ok((
        test_profile,
        PatientData {
            patient: d.profile.id,
            train_benign,
            train_malicious: train_minimal.manipulated_windows(),
            test_benign,
            test_malicious: test_minimal.manipulated_windows(),
        },
    ))
}

/// Keeps only windows whose every sample is finite, as the pipeline does.
pub fn finite_windows(windows: Vec<Window>) -> Vec<Window> {
    windows
        .into_iter()
        .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
        .collect()
}

/// One (detector × strategy) grid cell, recomposed from
/// `try_evaluate_strategy` / `try_evaluate_defense`: fit through
/// `LgoSelectiveDefense::fit`, score through `evaluate_on_patient`, and
/// fold the metrics in the same order.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    kind: DetectorKind,
    strategy: TrainingStrategy,
    cohort: &[PatientData],
    clusters: &CohortClusters,
    config: &PipelineConfig,
    tracer: &Tracer,
    parent: SpanId,
    rep: usize,
) -> (Result<StrategyEvaluation, LgoError>, DetectTally) {
    let mut tally = DetectTally::default();
    let k = kind_index(kind);
    let cell = tracer.open(CELL_SPANS[k], "core", Some(parent), rep);
    let c = Some(cell.id());
    let ctx = DefenseContext {
        cohort,
        less_vulnerable: &clusters.less_vulnerable,
        more_vulnerable: &clusters.more_vulnerable,
        configs: &config.detectors,
        seed: 0,
        crafter: None,
    };
    let fitted = match timed(Some(tracer), FIT_SPANS[k], "detect", c, rep, |_| {
        LgoSelectiveDefense::new(strategy).fit(kind, &ctx)
    }) {
        Ok(f) => f,
        Err(e) => return (Err(e), tally),
    };
    let confusions: Vec<Vec<ConfusionMatrix>> = lgo_runtime::par_map(&fitted, |run| {
        let span = SCORE_SPANS[kind_index(run.trained)];
        cohort
            .iter()
            .map(|d| {
                timed(Some(tracer), span, "detect", c, rep, |_| {
                    evaluate_on_patient(run.detector.as_ref(), d)
                })
            })
            .collect()
    });
    let mut sums: Vec<PatientMetrics> = vec![PatientMetrics::default(); cohort.len()];
    let mut total_windows = 0usize;
    let mut detectors_trained = Vec::with_capacity(fitted.len());
    for (run, confusion) in fitted.iter().zip(&confusions) {
        total_windows += run.training_windows;
        detectors_trained.push(run.trained);
        for (s, cm) in sums.iter_mut().zip(confusion) {
            s.recall += cm.recall();
            s.precision += cm.precision();
            s.f1 += cm.f1();
            s.fnr += cm.false_negative_rate();
            s.fpr += cm.false_positive_rate();
        }
        let scored: usize = cohort
            .iter()
            .map(|d| d.test_benign.len() + d.test_malicious.len())
            .sum();
        tally.scored[kind_index(run.trained)] += scored as u64;
    }
    tally.fit_windows = total_windows as u64;
    let runs = fitted.len();
    let per_patient = cohort
        .iter()
        .zip(sums)
        .map(|(d, s)| {
            (
                d.patient,
                PatientMetrics {
                    recall: s.recall / runs as f64,
                    precision: s.precision / runs as f64,
                    f1: s.f1 / runs as f64,
                    fnr: s.fnr / runs as f64,
                    fpr: s.fpr / runs as f64,
                },
            )
        })
        .collect();
    let eval = StrategyEvaluation {
        strategy,
        detector: kind,
        per_patient,
        mean_training_windows: total_windows as f64 / runs as f64,
        runs,
        detectors_trained,
    };
    (Ok(eval), tally)
}

/// One traced pipeline rep, recomposed from `try_run_pipeline_on`.
fn traced_pipeline_rep(
    config: &PipelineConfig,
    datasets: Vec<PatientDataset>,
    tracer: &Tracer,
    root: SpanId,
    rep: usize,
) -> Result<(PipelineReport, AttackTally, DetectTally), LgoError> {
    if datasets.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: datasets.len(),
        });
    }
    let outcomes = lgo_runtime::try_par_map(&datasets, |d| {
        let mut tally = AttackTally::default();
        let r = traced_profile_one(config, d, tracer, root, rep, &mut tally);
        (r, tally)
    })?;
    let mut attack = AttackTally::default();
    let mut profiles = Vec::with_capacity(datasets.len());
    let mut cohort = Vec::with_capacity(datasets.len());
    let mut skipped = Vec::new();
    for (d, (outcome, tally)) in datasets.iter().zip(outcomes) {
        attack.merge(tally);
        match outcome {
            Ok((profile, data)) => {
                profiles.push(profile);
                cohort.push(data);
            }
            Err((stage, e)) => skipped.push(SkippedPatient {
                patient: d.profile.id,
                stage,
                reason: e.to_string(),
            }),
        }
    }
    if profiles.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: profiles.len(),
        });
    }
    let clusters = timed(
        Some(tracer),
        "cluster.cluster",
        "cluster",
        Some(root),
        rep,
        |_| try_cluster_cohort(&profiles, config.linkage),
    )?;
    let grid: Vec<(DetectorKind, TrainingStrategy)> = config
        .detector_kinds
        .iter()
        .flat_map(|&kind| config.strategies.iter().map(move |&s| (kind, s)))
        .collect();
    let cells = lgo_runtime::try_par_map(&grid, |&(kind, strategy)| {
        traced_cell(
            kind, strategy, &cohort, &clusters, config, tracer, root, rep,
        )
    })?;
    let mut detect = DetectTally::default();
    let mut evaluations = Vec::with_capacity(cells.len());
    for (eval, tally) in cells {
        evaluations.push(eval?);
        detect.fit_windows += tally.fit_windows;
        for k in 0..3 {
            detect.scored[k] += tally.scored[k];
        }
    }
    Ok((
        PipelineReport {
            profiles,
            clusters,
            cohort,
            evaluations,
            datasets,
            skipped,
        },
        attack,
        detect,
    ))
}

/// Steps 0–4 of the `profile` workload, in a span per public call when a
/// recorder is given. Returns the canonical export of the risk profiles
/// and cluster membership.
fn profile_rep(
    datasets: &[PatientDataset],
    tracer: Option<(&Tracer, SpanId)>,
    rep: usize,
) -> Result<(String, AttackTally), LgoError> {
    let fc = lgo_bench::forecast_config(lgo_bench::Scale::Fast);
    let pc = lgo_bench::profiler_config(lgo_bench::Scale::Mid);
    let t = tracer.map(|(t, _)| t);
    let root = tracer.map(|(_, r)| r);
    let results = lgo_runtime::try_par_map(datasets, |d| {
        timed(t, "core.patient", "core", root, rep, |p| {
            let forecaster = timed(t, "forecast.train", "forecast", p, rep, |_| {
                GlucoseForecaster::try_train_personalized(&d.train, &fc)
            })?;
            timed(t, "attack.profile", "attack", p, rep, |_| {
                try_profile_patient(&forecaster, d.profile.id, &d.test, &pc)
            })
        })
    })?;
    let profiles: Vec<PatientAttackProfile> = results.into_iter().collect::<Result<_, _>>()?;
    let clusters = timed(t, "cluster.cluster", "cluster", root, rep, |_| {
        try_cluster_cohort(&profiles, Linkage::Average)
    })?;
    let mut tally = AttackTally::default();
    profiles.iter().for_each(|p| tally.add(p));
    Ok((profile_json(&profiles, &clusters), tally))
}

/// Canonical export of risk profiles and clusters: fixed order,
/// shortest round-trip floats.
fn profile_json(profiles: &[PatientAttackProfile], clusters: &CohortClusters) -> String {
    let mut out = String::from("{\"profiles\": [");
    for (i, p) in profiles.iter().enumerate() {
        let risk: Vec<String> = p
            .risk_profile
            .values
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        let _ = write!(
            out,
            "{}{{\"patient\": \"{}\", \"success_rate\": {:?}, \"queries\": {}, \"risk\": [{}]}}",
            if i > 0 { ", " } else { "" },
            p.patient,
            p.campaign.success_rate(),
            p.campaign.total_queries(),
            risk.join(", ")
        );
    }
    let ids = |v: &[lgo_glucosim::PatientId]| {
        v.iter()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = write!(
        out,
        "], \"less_vulnerable\": [{}], \"more_vulnerable\": [{}]}}",
        ids(&clusters.less_vulnerable),
        ids(&clusters.more_vulnerable)
    );
    out
}
