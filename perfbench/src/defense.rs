//! `defense`: the outlier-exposure defense study (`try_run_defense_bench`
//! with the fast configuration `exp_defense` uses).
//!
//! A metric run times whole studies. A traced run recomposes the study
//! from public calls — per-patient set-up, the attacker panel, one
//! `try_fit_bank` ladder fit per defense with its crafting campaigns, and
//! the ladder scoring — and must rebuild the untraced report's canonical
//! export byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use lgo_attack::cgm::{CgmCase, Window};
use lgo_core::defense::{
    try_fit_bank, AdversarialCrafter, Defense, DefenseContext, DefenseMeta, FittedRun,
    IterativeRetrainingDefense, LgoSelectiveDefense, RoastDefense,
};
use lgo_core::error::LgoError;
use lgo_core::pipeline::benign_windows;
use lgo_core::profile::{try_attack_cases, PatientAttackProfile};
use lgo_core::selective::{DetectorKind, PatientData, TrainingStrategy};
use lgo_core::vuln::try_cluster_cohort;
use lgo_detect::AnomalyDetector;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::{generate_cohort_sized, PatientDataset, PatientId};
use lgo_serve::DetectorBank;
use lgo_zoo::defense::{
    pooled_recall, AttackerRecall, DefenseLevel, DefenseRow, DEFENSE_NAMES, TEST_ATTACKERS,
};
use lgo_zoo::uret::UretAttack;
use lgo_zoo::{
    attack_by_name, run_attack_campaign, try_profile_patient_with, DefenseBenchConfig,
    DefenseReport, ZooConfig, ZooCrafter, ZooExperimentConfig,
};

use crate::batch::finite_windows;
use crate::layers::{self, kind_index, FIT_METRICS, FIT_SPANS, SCORE_METRICS, SCORE_SPANS};
use crate::probe;
use crate::report::{self, median, ratio, Outcome};
use crate::reps;
use crate::spans::{timed, SpanId, Tracer};

/// Threads of the defense workload.
pub const THREADS: usize = 2;
/// Cohort simulations per run; `setup_s` is their median.
const SETUPS: usize = 21;

const BANK_SPANS: [&str; 4] = [
    "defense.fit_bank.lgo-selective",
    "defense.fit_bank.indiscriminate",
    "defense.fit_bank.roast",
    "defense.fit_bank.iterative-retraining",
];
const BANK_METRICS: [&str; 4] = [
    "defense.fit_bank_s.lgo-selective",
    "defense.fit_bank_s.indiscriminate",
    "defense.fit_bank_s.roast",
    "defense.fit_bank_s.iterative-retraining",
];

/// The fast study `exp_defense` runs (its `config_for(Scale::Fast)`),
/// with the workload seed as the zoo seed.
fn study_config(seed: u64) -> DefenseBenchConfig {
    let pc = lgo_bench::pipeline_config(lgo_bench::Scale::Fast);
    let mut config = DefenseBenchConfig::fast();
    config.base = ZooExperimentConfig {
        patients: pc.patients.unwrap_or_else(PatientId::all),
        train_days: pc.train_days,
        test_days: pc.test_days,
        forecast: pc.forecast,
        profiler: pc.profiler,
        detectors: pc.detectors,
        zoo: ZooConfig {
            seed,
            ..ZooConfig::default()
        },
        train_attack_stride: pc.train_attack_stride,
        detector_stride: pc.detector_stride,
    };
    config
}

/// The archetype cohort the study simulates, in the study's order.
fn simulate(config: &DefenseBenchConfig) -> Vec<PatientDataset> {
    let base = &config.base;
    generate_cohort_sized(base.train_days, base.test_days)
        .into_iter()
        .filter(|d| base.patients.contains(&d.profile.id))
        .collect()
}

/// Mean over ladder levels of the lgo-selective row's pooled recall and
/// FPR, and the share of ladder levels that trained the requested kind.
fn headline(report: &DefenseReport) -> (f64, f64, f64) {
    let Some(row) = report.row("lgo-selective") else {
        return (0.0, 0.0, 0.0);
    };
    let n = row.levels.len() as f64;
    let recall = ratio(
        (0..row.levels.len())
            .filter_map(|l| pooled_recall(report, "lgo-selective", l))
            .sum(),
        n,
    );
    let fpr = ratio(row.levels.iter().filter_map(|l| l.fpr).sum(), n);
    let levels: Vec<&DefenseLevel> = report.rows.iter().flat_map(|r| r.levels.iter()).collect();
    let primary = levels.iter().filter(|l| l.requested == l.trained).count();
    (recall, fpr, ratio(primary as f64, levels.len() as f64))
}

/// Runs the `defense` workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    lgo_runtime::set_threads(Some(THREADS));
    let mut out = Outcome::default();
    let config = study_config(seed);

    // Set-up: simulate the archetype cohort the study simulates, and
    // check that every configured patient is in it.
    let mut setup_times = Vec::new();
    let mut datasets = Vec::new();
    let before = probe::probe();
    for _ in 0..SETUPS {
        let start = Instant::now();
        datasets = simulate(&config);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup_s = probe::rescale(median(&setup_times), before, probe::probe());
    out.check(datasets.len() == config.base.patients.len(), || {
        format!(
            "cohort has {} of {} configured patients",
            datasets.len(),
            config.base.patients.len()
        )
    });
    let study = || lgo_zoo::try_run_defense_bench(&config).map_err(|e| e.to_string());
    if !traced {
        reps::measure("defense", seconds, setup_s, &mut out, || {
            study().map(|r| (r.canonical_json(), headline(&r).2))
        });
        return out;
    }

    let start = Instant::now();
    let span_cost = layers::span_cost_s();
    report::clear_kernel_cache();
    let reference = match study() {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("defense reference study: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let (reps, traced) = reps::trace(
        "defense",
        start,
        seconds,
        THREADS,
        &reference.canonical_json(),
        &mut out,
        |tracer, root, rep| {
            traced_study(&config, &datasets, tracer, root, rep)
                .map(|(r, t)| (r.canonical_json(), t))
                .map_err(|e| e.to_string())
        },
    );
    let (recall, fpr, _) = headline(&reference);
    out.set("lgo_recall", recall);
    out.set("lgo_fpr", fpr);
    out.set("glucosim.simulate_s", median(&setup_times));
    out.set(
        "forecast.train_s",
        layers::median_self(&reps, "forecast.train"),
    );
    out.set(
        "cluster.cluster_s",
        layers::median_self(&reps, "cluster.cluster"),
    );
    for k in 0..3 {
        let windows = reps::median_of(&traced, |t| t.tally.scored[k] as f64);
        out.set(FIT_METRICS[k], layers::median_self(&reps, FIT_SPANS[k]));
        out.set(
            SCORE_METRICS[k],
            ratio(layers::median_self(&reps, SCORE_SPANS[k]) * 1e6, windows),
        );
    }
    for (span, metric) in BANK_SPANS.iter().zip(BANK_METRICS) {
        out.set(metric, layers::median_total(&reps, span));
    }
    out.set(
        "defense.crafted_windows",
        reps::median_of(&traced, |t| t.tally.crafted as f64),
    );
    out.set(
        "detect.fit_windows",
        reps::median_of(&traced, |t| t.tally.fit_windows as f64),
    );
    out.set(
        "detect.kernel_cache.hit_frac",
        reps::median_of(&traced, |t| t.hit_frac),
    );
    out.set(
        "runtime.cpu_per_wall",
        reps::median_of(&traced, |t| t.cpu_per_wall),
    );
    out.set("zoo.campaign_s", layers::median_layer(&reps, "zoo"));
    out.set(
        "trace.overhead_frac",
        layers::overhead_frac(&reps, span_cost),
    );
    crate::zero_missing(&mut out);
    out
}

/// Counts of one traced study.
#[derive(Default)]
struct StudyTally {
    crafted: u64,
    fit_windows: u64,
    scored: [u64; 3],
}

/// Per-patient study inputs (the zoo's phase 1), recomposed.
struct Setup {
    id: PatientId,
    forecaster: GlucoseForecaster,
    test_cases: Vec<CgmCase>,
    train_cases: Vec<CgmCase>,
    train_benign: Vec<Window>,
    train_malicious: Vec<Window>,
    test_benign: Vec<Window>,
    profile: PatientAttackProfile,
}

/// Phase 1 for one patient, with a span around each public call.
fn build_patient(
    base: &ZooExperimentConfig,
    d: &PatientDataset,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
    rep: usize,
) -> Result<Setup, LgoError> {
    let patient = tracer.open("zoo.patient", "zoo", Some(parent), rep);
    let p = Some(patient.id());
    let t = Some(tracer);
    let forecaster = timed(t, "forecast.train", "forecast", p, rep, |_| {
        GlucoseForecaster::try_train_personalized(&d.train, &base.forecast)
    })
    .map_err(LgoError::from)?;
    let seq_len = base.forecast.seq_len;
    let test_cases = try_attack_cases(&d.test, seq_len, base.profiler.stride)?;
    let train_cases = try_attack_cases(&d.train, seq_len, base.train_attack_stride)?;
    if test_cases.is_empty() || train_cases.is_empty() {
        return Err(LgoError::NoWindows);
    }
    let windows = |series| {
        timed(t, "series.windows", "series", p, rep, |_| {
            finite_windows(benign_windows(series, seq_len, base.detector_stride))
        })
    };
    let train_benign = windows(&d.train);
    if train_benign.is_empty() {
        return Err(LgoError::NoWindows);
    }
    let test_benign = windows(&d.test);
    let minimal = timed(t, "zoo.campaign", "zoo", p, rep, |_| {
        run_attack_campaign(
            &UretAttack::minimal(base.profiler.explorer_steps),
            &forecaster,
            &train_cases,
            &base.zoo,
            lgo_runtime::split_seed(seed, 0),
            None,
        )
    });
    let train_malicious = evaders(&minimal.outcomes);
    let profile = timed(t, "zoo.profile", "zoo", p, rep, |_| {
        try_profile_patient_with(
            &UretAttack::maximizing(base.profiler.explorer_steps),
            &forecaster,
            d.profile.id,
            &d.test,
            &base.profiler,
            &base.zoo,
            lgo_runtime::split_seed(seed, 1),
            None,
        )
    })?;
    Ok(Setup {
        id: d.profile.id,
        forecaster,
        test_cases,
        train_cases,
        train_benign,
        train_malicious,
        test_benign,
        profile,
    })
}

/// The manipulated windows of attacked cases.
fn evaders(outcomes: &[lgo_attack::cgm::WindowOutcome]) -> Vec<Window> {
    outcomes
        .iter()
        .filter(|o| o.result.steps > 0)
        .map(|o| o.result.best_input.clone())
        .collect()
}

/// A crafter that times each crafting campaign and counts its windows.
struct TracedCrafter<'a> {
    inner: ZooCrafter<'a>,
    tracer: &'a Tracer,
    parent: Mutex<Option<SpanId>>,
    rep: usize,
    crafted: AtomicU64,
}

impl AdversarialCrafter for TracedCrafter<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn craft(&self, round: usize, seed: u64, deployed: &dyn AnomalyDetector) -> Vec<Window> {
        let parent = *self.parent.lock().unwrap_or_else(PoisonError::into_inner);
        let w = timed(
            Some(self.tracer),
            "zoo.craft",
            "zoo",
            parent,
            self.rep,
            |_| self.inner.craft(round, seed, deployed),
        );
        self.crafted.fetch_add(w.len() as u64, Ordering::Relaxed);
        w
    }
}

/// `num / den` as an optional rate, as the study reports it.
fn rate(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

fn recall(detector: &dyn AnomalyDetector, windows: &[Window]) -> Option<f64> {
    rate(
        windows.iter().filter(|w| detector.is_anomalous(w)).count(),
        windows.len(),
    )
}

/// One study, recomposed from `try_run_defense_bench`.
fn traced_study(
    config: &DefenseBenchConfig,
    datasets: &[PatientDataset],
    tracer: &Tracer,
    root: SpanId,
    rep: usize,
) -> Result<(DefenseReport, StudyTally), LgoError> {
    let base = &config.base;
    let t = Some(tracer);
    let r = Some(root);
    let mut tally = StudyTally::default();
    if datasets.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: datasets.len(),
        });
    }
    let setups = lgo_runtime::par_map_indexed(datasets.len(), |i| {
        build_patient(
            base,
            &datasets[i],
            lgo_runtime::split_seed(base.zoo.seed, i as u64),
            tracer,
            root,
            rep,
        )
    });
    let setups: Vec<Setup> = setups.into_iter().collect::<Result<_, _>>()?;
    let profiles: Vec<PatientAttackProfile> = setups.iter().map(|s| s.profile.clone()).collect();
    let clusters = timed(t, "cluster.cluster", "cluster", r, rep, |_| {
        try_cluster_cohort(&profiles, lgo_cluster::Linkage::Average)
    })?;

    let mut attacker_windows: Vec<(&'static str, Vec<Window>)> = Vec::new();
    for (ai, name) in TEST_ATTACKERS.iter().enumerate() {
        let attack = attack_by_name(name).ok_or(LgoError::NoWindows)?;
        let row_seed = lgo_runtime::split_seed(base.zoo.seed, 0x300 + ai as u64);
        let mut manipulated = Vec::new();
        for (pi, s) in setups.iter().enumerate() {
            let report = timed(t, "zoo.campaign", "zoo", r, rep, |_| {
                run_attack_campaign(
                    attack.as_ref(),
                    &s.forecaster,
                    &s.test_cases,
                    &base.zoo,
                    lgo_runtime::split_seed(row_seed, pi as u64),
                    None,
                )
            });
            manipulated.extend(evaders(&report.outcomes));
        }
        attacker_windows.push((name, manipulated));
    }
    let test_benign: Vec<Window> = setups
        .iter()
        .flat_map(|s| s.test_benign.iter().cloned())
        .collect();
    let cohort: Vec<PatientData> = setups
        .iter()
        .map(|s| PatientData {
            patient: s.id,
            train_benign: s.train_benign.clone(),
            train_malicious: s.train_malicious.clone(),
            test_benign: Vec::new(),
            test_malicious: Vec::new(),
        })
        .collect();
    let pgd = attack_by_name("pgd").ok_or(LgoError::NoWindows)?;
    let target = |ids: &[PatientId]| -> Vec<(&GlucoseForecaster, &[CgmCase])> {
        setups
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| (&s.forecaster, s.train_cases.as_slice()))
            .collect()
    };
    let all_ids: Vec<PatientId> = setups.iter().map(|s| s.id).collect();
    let crafter = |ids: &[PatientId]| TracedCrafter {
        inner: ZooCrafter::new(pgd.as_ref(), target(ids), &base.zoo),
        tracer,
        parent: Mutex::new(None),
        rep,
        crafted: AtomicU64::new(0),
    };
    let roast_crafter = crafter(&clusters.more_vulnerable);
    let retrain_crafter = crafter(&all_ids);
    report::clear_kernel_cache();

    let wanted =
        |name: &str| config.defenses.is_empty() || config.defenses.iter().any(|d| d == name);
    let mut rows = Vec::new();
    for (di, name) in DEFENSE_NAMES.iter().enumerate() {
        if !wanted(name) {
            continue;
        }
        let selective;
        let indiscriminate;
        let roast;
        let retrain;
        let (defense, crafter): (&dyn Defense, Option<&TracedCrafter>) = match *name {
            "lgo-selective" => {
                selective = LgoSelectiveDefense::new(TrainingStrategy::LessVulnerable);
                (&selective, None)
            }
            "indiscriminate" => {
                indiscriminate = LgoSelectiveDefense::new(TrainingStrategy::AllPatients);
                (&indiscriminate, None)
            }
            "roast" => {
                roast = RoastDefense::new(config.roast);
                (&roast, Some(&roast_crafter))
            }
            _ => {
                retrain = IterativeRetrainingDefense::new(config.retrain);
                (&retrain, Some(&retrain_crafter))
            }
        };
        let ctx = DefenseContext {
            cohort: &cohort,
            less_vulnerable: &clusters.less_vulnerable,
            more_vulnerable: &clusters.more_vulnerable,
            configs: &base.detectors,
            seed: lgo_runtime::split_seed(base.zoo.seed, 0xDEF0 + di as u64),
            crafter: crafter.map(|c| c as &dyn AdversarialCrafter),
        };
        let (h0, m0) = report::kernel_cache_counts();
        let bank = timed(t, BANK_SPANS[di], "core", r, rep, |bank_span| {
            let traced = TracedDefense {
                inner: defense,
                crafter,
                tracer,
                parent: bank_span,
                rep,
            };
            try_fit_bank(&traced, &ctx)
        })?;
        let (h1, m1) = report::kernel_cache_counts();
        let serve_bank = DetectorBank::new(bank.ladder());
        let mut levels = Vec::new();
        for (li, level) in bank.levels.iter().enumerate() {
            let det = serve_bank.at(li).as_ref();
            let k = kind_index(level.trained);
            tally.fit_windows += level.training_windows as u64;
            tally.scored[k] += (test_benign.len()
                + attacker_windows.iter().map(|(_, w)| w.len()).sum::<usize>())
                as u64;
            let (fpr, recalls) = timed(t, SCORE_SPANS[k], "detect", r, rep, |_| {
                let recalls = attacker_windows
                    .iter()
                    .map(|(attacker, windows)| AttackerRecall {
                        attacker,
                        recall: recall(det, windows),
                    })
                    .collect();
                (recall(det, &test_benign), recalls)
            });
            levels.push(DefenseLevel {
                level: li,
                requested: level.requested.name(),
                trained: level.trained.name(),
                training_windows: level.training_windows,
                fpr,
                recalls,
            });
        }
        let meta = defense.meta();
        rows.push(DefenseRow {
            name: defense.name(),
            roster: meta.roster,
            outlier_exposure: meta.outlier_exposure,
            rounds: meta.rounds,
            cache_hits: h1 - h0,
            cache_misses: m1 - m0,
            levels,
        });
    }
    tally.crafted = roast_crafter.crafted.load(Ordering::Relaxed)
        + retrain_crafter.crafted.load(Ordering::Relaxed);
    Ok((
        DefenseReport {
            eps: base.zoo.eps,
            steps: base.zoo.steps,
            roast_rounds: config.roast.rounds,
            retrain_rounds: config.retrain.rounds,
            less_vulnerable: clusters.less_vulnerable,
            more_vulnerable: clusters.more_vulnerable,
            benign_test_windows: test_benign.len(),
            attackers: attacker_windows
                .iter()
                .map(|(name, w)| (*name, w.len()))
                .collect(),
            rows,
        },
        tally,
    ))
}

/// A defense that times each `Defense::fit` — one per ladder level of
/// `try_fit_bank` — in its own span, with the crafter's campaigns nested
/// under it.
struct TracedDefense<'a> {
    inner: &'a dyn Defense,
    crafter: Option<&'a TracedCrafter<'a>>,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    rep: usize,
}

impl Defense for TracedDefense<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn meta(&self) -> DefenseMeta {
        self.inner.meta()
    }

    fn fit(&self, kind: DetectorKind, ctx: &DefenseContext) -> Result<Vec<FittedRun>, LgoError> {
        timed(
            Some(self.tracer),
            FIT_SPANS[kind_index(kind)],
            "detect",
            self.parent,
            self.rep,
            |fit| {
                if let Some(c) = self.crafter {
                    *c.parent.lock().unwrap_or_else(PoisonError::into_inner) = fit;
                }
                self.inner.fit(kind, ctx)
            },
        )
    }
}
