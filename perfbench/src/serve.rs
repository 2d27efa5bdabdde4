//! `serve-steady`: open-loop clean load on the online scorer.
//!
//! One generator thread offers a pre-generated schedule of 6000 samples/s
//! round-robin over 200 `CohortStream` patients; the main thread runs
//! `drain_cycle` whenever the queue holds samples. Every window is timed
//! from the due time of the sample that completes it, not from when the
//! generator got round to sending it, so a late generator or a full queue
//! shows up as latency or as unanswered windows.
//!
//! The schedule is offered in segments of about [`SEGMENT_S`] seconds.
//! Between segments the generator waits for the scorer to go idle and
//! runs the host-speed probe ([`crate::probe`]); the next segment's due
//! times start after the probe. Each segment's busy time and median
//! latency are rescaled by the probes around it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lgo_core::pipeline::benign_windows;
use lgo_core::selective::try_train_detector;
use lgo_detect::{AnomalyDetector, Window};
use lgo_forecast::FEATURES;
use lgo_glucosim::{CohortStream, SAMPLES_PER_DAY};
use lgo_runtime::split_seed;
use lgo_serve::{DetectorBank, Sample, ScoringService, ServeConfig, ServeReport};

use crate::layers::{self, FIT_METRICS, FIT_SPANS, HARNESS, LADDER, SCORE_METRICS};
use crate::probe;
use crate::report::{self, median, quantile, ratio, Outcome};
use crate::schedule::{self, completes_window, due, Entry};
use crate::spans::{Span, Tracer};

/// Scoring threads of the service; with the generator the process runs
/// two threads.
pub const THREADS: usize = 1;
/// Offered load in samples per second.
const RATE: f64 = 6000.0;
/// Patients in the round-robin.
const PATIENTS: usize = 200;
/// The latency objective of one window.
const SLO_MS: f64 = 10.0;
/// Ladder trainings per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// How long the scorer may keep draining after the last offer.
const GRACE: Duration = Duration::from_secs(5);
/// Seconds of offered load per segment.
const SEGMENT_S: f64 = 2.0;
/// Lead time from the end of a probe to the first due time after it.
const RESUME: Duration = Duration::from_millis(5);
/// Every `CHECK_EVERY`-th cycle is re-scored offline.
const CHECK_EVERY: u64 = 16;

/// The trained detectors, ladder order.
type Ladder = Vec<Arc<dyn AnomalyDetector>>;
/// One pre-generated sample row, in `FEATURES` order.
type Row = [f64; FEATURES.len()];

/// The MAD-GAN → OC-SVM → kNN ladder, trained as `bench_serve` trains it
/// (smoke-scale detector configs, four streamed patients of one day,
/// synthetic +90 mg/dL malicious windows) without its fault injectors.
fn train_ladder(
    config: &ServeConfig,
    seed: u64,
    tracer: Option<&Tracer>,
    round: usize,
) -> Result<(Ladder, usize), String> {
    let cfgs = lgo_bench::detector_configs(lgo_bench::Scale::Fast);
    let mut benign: Vec<Window> = Vec::new();
    for p in CohortStream::new(4, 1, split_seed(seed, 1)) {
        benign.extend(benign_windows(&p.series, config.seq_len, config.stride));
    }
    let malicious: Vec<Window> = benign
        .iter()
        .map(|w| {
            let mut m = w.clone();
            for row in &mut m {
                row[0] += 90.0;
            }
            m
        })
        .collect();
    let mut levels: Ladder = Vec::new();
    for (k, kind) in LADDER.iter().enumerate() {
        let detector = crate::spans::timed(tracer, FIT_SPANS[k], "detect", None, round, |_| {
            try_train_detector(*kind, &benign, &malicious, &cfgs)
        })
        .map_err(|e| format!("training {} failed: {e}", kind.name()))?;
        levels.push(Arc::from(detector));
    }
    Ok((levels, benign.len()))
}

/// A window the service completed, as the harness predicted it.
struct DoneWindow {
    /// Schedule index of the sample that completed it.
    entry: usize,
    /// Start and end of the cycle that drained it, seconds from t0.
    cycle: (f64, f64),
    /// Ladder level that scored it, `None` when shed.
    level: Option<usize>,
}

/// A cycle whose anomaly count is re-checked offline after the run.
struct CheckedCycle {
    level: usize,
    /// Each scored window as its patient and the patient's sample
    /// indices, in order.
    windows: Vec<(usize, Vec<usize>)>,
    anomalies: u64,
}

/// The run's segments: contiguous ranges of the schedule, each offered
/// after a probe. Segment `k` is due `shift(k)` seconds later than the
/// schedule's nominal due times; the generator sets the shift when it
/// starts the segment.
struct Segments {
    /// Schedule entries per segment.
    len: usize,
    /// Number of segments.
    count: usize,
    /// Each segment's shift, in nanoseconds.
    shifts: Vec<AtomicU64>,
    /// The latest shift set, in nanoseconds.
    latest: AtomicU64,
}

impl Segments {
    fn new(entries: usize, seconds: f64) -> Self {
        let wanted = ((seconds / SEGMENT_S).round() as usize).max(1);
        let len = entries.div_ceil(wanted).max(1);
        let count = entries.div_ceil(len).max(1);
        Segments {
            len,
            count,
            shifts: (0..count).map(|_| AtomicU64::new(0)).collect(),
            latest: AtomicU64::new(0),
        }
    }

    /// The segment of schedule entry `index`.
    fn of(&self, index: usize) -> usize {
        index / self.len
    }

    fn set(&self, segment: usize, shift: Duration) {
        let ns = shift.as_nanos() as u64;
        self.shifts[segment].store(ns, Ordering::Release);
        self.latest.store(ns, Ordering::Release);
    }

    fn shift(&self, segment: usize) -> f64 {
        self.shifts[segment].load(Ordering::Acquire) as f64 * 1e-9
    }

    /// Due time of schedule entry `index`, seconds from t0.
    fn due(&self, index: usize) -> f64 {
        due(index, RATE) + self.shift(self.of(index))
    }

    /// Seconds of offered load in `segment`.
    fn seconds(&self, segment: usize, entries: usize) -> f64 {
        let end = ((segment + 1) * self.len).min(entries);
        (end - segment * self.len) as f64 / RATE
    }
}

/// One `drain_cycle` call; times are seconds from t0.
struct Cycle {
    start: f64,
    end: f64,
    /// Windows it scored.
    scored: usize,
    /// Ladder level that scored them.
    level: Option<usize>,
}

/// Everything the consumer loop observed.
#[derive(Default)]
struct Observed {
    windows: Vec<DoneWindow>,
    /// Every cycle, kept only in a traced run.
    cycles: Vec<Cycle>,
    /// Wall time spent in `drain_cycle`, per segment (of the first
    /// sample a cycle drained).
    busy: Vec<f64>,
    /// `drain_cycle` calls.
    calls: u64,
    checked: Vec<CheckedCycle>,
    mispredicted_cycles: u64,
}

/// Runs `serve-steady` for `seconds` seconds of offered load.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    lgo_runtime::set_threads(Some(THREADS));
    let mut out = Outcome::default();
    let config = ServeConfig::default();
    let setup_tracer = Tracer::new();

    // Set-up: ladder training plus service construction, repeated; every
    // round must train the same ladder.
    let mut setup_times = Vec::new();
    let mut built: Option<(ScoringService, Ladder, usize)> = None;
    let mut probe: Option<Vec<f64>> = None;
    let setup_before = probe::probe();
    for round in 0..SETUPS {
        let start = Instant::now();
        let trained = train_ladder(&config, seed, traced.then_some(&setup_tracer), round);
        let (levels, fit_windows) = match trained {
            Ok(t) => t,
            Err(e) => {
                out.problem(e);
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        };
        let service = ScoringService::new(config.clone(), DetectorBank::new(levels.clone()));
        setup_times.push(start.elapsed().as_secs_f64());
        let window: Window = vec![vec![120.0, 0.0, 0.0, 70.0]; config.seq_len];
        let scores: Vec<f64> = levels.iter().map(|d| d.score(&window)).collect();
        let same = probe
            .get_or_insert_with(|| scores.clone())
            .iter()
            .zip(&scores)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || {
            format!("set-up round {round} trained a different ladder")
        });
        built = Some((service, levels, fit_windows));
    }
    let Some((service, levels, fit_windows)) = built else {
        return out;
    };
    let setup_s = probe::rescale(median(&setup_times), setup_before, probe::probe());

    // Inputs, generated before timing and excluded from set-up.
    let offsets: Vec<usize> = (0..PATIENTS)
        .map(|p| (split_seed(seed, 0x0FF5 + p as u64) % config.stride as u64) as usize)
        .collect();
    let entries = schedule::build(&offsets, RATE, seconds);
    let needed = schedule::samples_per_patient(&entries, PATIENTS);
    let days = needed
        .iter()
        .max()
        .copied()
        .unwrap_or(1)
        .div_ceil(SAMPLES_PER_DAY)
        .max(1);
    let stream = CohortStream::new(PATIENTS as u64, days, split_seed(seed, 2));
    let rows: Vec<Vec<Row>> = (0..PATIENTS)
        .map(|p| {
            let series = stream.patient(p as u64).series.select(&FEATURES);
            series.rows()[..needed[p]]
                .iter()
                .map(|r| r.as_slice().try_into().expect("FEATURES-wide rows"))
                .collect()
        })
        .collect();

    // The open-loop run.
    let segments = Segments::new(entries.len(), seconds);
    let mut segment_due = vec![0usize; segments.count];
    for (i, e) in entries.iter().enumerate() {
        if completes_window(e.sample, config.seq_len, config.stride) {
            segment_due[segments.of(i)] += 1;
        }
    }
    let due_windows: usize = segment_due.iter().sum();
    let accepted_log: Vec<AtomicUsize> = (0..entries.len()).map(|_| AtomicUsize::new(0)).collect();
    let accepted = AtomicUsize::new(0);
    let drained = AtomicUsize::new(0);
    let rejected = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let cpu0 = report::process_cpu_s();
    let t0 = Instant::now() + Duration::from_millis(20);
    // The generator logs each accepted schedule index, then publishes the
    // new count with Release; the consumer's Acquire load of the count
    // makes the logged indices below it visible.
    let (offered, observed) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut late = Vec::with_capacity(if traced { entries.len() } else { 0 });
            let mut probes = Vec::with_capacity(segments.count + 1);
            let mut shift = Duration::ZERO;
            for (i, e) in entries.iter().enumerate() {
                let nominal = t0 + Duration::from_secs_f64(due(i, RATE));
                if i % segments.len == 0 {
                    wait_idle(&accepted, &drained);
                    probes.push(probe::probe());
                    shift = shift.max((Instant::now() + RESUME).saturating_duration_since(nominal));
                    segments.set(segments.of(i), shift);
                }
                let sample = Sample {
                    patient: e.patient as u64,
                    row: rows[e.patient][e.sample].to_vec(),
                };
                let at = nominal + shift;
                wait_until(at);
                if traced {
                    late.push(Instant::now().saturating_duration_since(at).as_secs_f64());
                }
                if service.try_ingest(sample) {
                    let n = accepted.load(Ordering::Relaxed);
                    accepted_log[n].store(i, Ordering::Relaxed);
                    accepted.store(n + 1, Ordering::Release);
                } else {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            wait_idle(&accepted, &drained);
            probes.push(probe::probe());
            done.store(true, Ordering::Release);
            (late, probes)
        });
        let observed = consume(
            &service,
            &config,
            &entries,
            PATIENTS,
            &Log {
                accepted_log: &accepted_log,
                accepted: &accepted,
                drained: &drained,
                done: &done,
            },
            &segments,
            t0,
            seconds,
            traced,
        );
        (generator.join(), observed)
    });
    let (lateness, probes) = offered.unwrap_or_else(|_| {
        out.problem("the load generator panicked");
        (Vec::new(), Vec::new())
    });
    let run_wall = t0.elapsed().as_secs_f64();
    let cpu = report::process_cpu_s() - cpu0;
    let report = service.report();

    // Output checks.
    let st = &report.stats;
    let accepted = accepted.load(Ordering::Acquire) as u64;
    let rejected = rejected.load(Ordering::Relaxed);
    out.check(st.ingested == accepted, || {
        format!("ingested {} != accepted {accepted}", st.ingested)
    });
    out.check(st.rejected == rejected, || {
        format!(
            "service rejected {} != generator saw {rejected}",
            st.rejected
        )
    });
    out.check(st.ingested == st.drained, || {
        format!("ingested {} != drained {}", st.ingested, st.drained)
    });
    out.check(
        st.windows_emitted == st.windows_scored + st.windows_shed + st.panics,
        || {
            format!(
                "emitted {} != scored {} + shed {} + panicked {}",
                st.windows_emitted, st.windows_scored, st.windows_shed, st.panics
            )
        },
    );
    out.check(
        st.level_windows.iter().sum::<u64>() == st.windows_scored,
        || {
            format!(
                "level windows {:?} do not sum to scored {}",
                st.level_windows, st.windows_scored
            )
        },
    );
    out.check(report.quarantined.is_empty() && st.panics == 0, || {
        format!(
            "clean stream quarantined {:?} after {} panic(s)",
            report.quarantined, st.panics
        )
    });
    out.check(observed.windows.len() as u64 == st.windows_emitted, || {
        format!(
            "harness predicted {} windows, service emitted {}",
            observed.windows.len(),
            st.windows_emitted
        )
    });
    out.check(observed.mispredicted_cycles == 0, || {
        format!(
            "{} cycle(s) emitted other windows than predicted",
            observed.mispredicted_cycles
        )
    });
    let mut verdict_mismatches = 0;
    for c in &observed.checked {
        let windows: Vec<Window> = c
            .windows
            .iter()
            .map(|(patient, samples)| {
                samples
                    .iter()
                    .map(|&s| rows[*patient][s].to_vec())
                    .collect()
            })
            .collect();
        let offline = levels[c.level]
            .score_batch(&windows)
            .iter()
            .filter(|&&s| s > 0.0)
            .count() as u64;
        if offline != c.anomalies {
            verdict_mismatches += 1;
        }
    }
    out.check(verdict_mismatches == 0, || {
        format!(
            "{verdict_mismatches} of {} re-scored cycles disagree with score_batch",
            observed.checked.len()
        )
    });
    eprintln!(
        "serve-steady: {} samples offered ({} rejected), {} windows due, {} emitted, {} cycles, {} cycles re-scored",
        entries.len(),
        rejected,
        due_windows,
        st.windows_emitted,
        observed.calls,
        observed.checked.len()
    );

    // Metrics. Each segment's busy time per second of load and median
    // latency are rescaled by the probes around it; the first segment is
    // warm-up when there are others. The share within the objective is
    // taken per segment too, so that a slow spell of the host, which
    // backs the queue up for a few seconds, moves one or two segments'
    // shares and not the median.
    let mut segment_latencies_ms = vec![Vec::new(); segments.count];
    for w in observed.windows.iter().filter(|w| w.level.is_some()) {
        segment_latencies_ms[segments.of(w.entry)].push((w.cycle.1 - segments.due(w.entry)) * 1e3);
    }
    let latencies_ms: Vec<f64> = segment_latencies_ms.concat();
    let answered = latencies_ms.len();
    out.check(probes.len() == segments.count + 1, || {
        format!("{} probes for {} segments", probes.len(), segments.count)
    });
    let measured = usize::from(segments.count > 1)..segments.count;
    let rescaled = |k: usize, value: f64| match (probes.get(k), probes.get(k + 1)) {
        (Some(&before), Some(&after)) => probe::rescale(value, before, after),
        _ => value,
    };
    let busy_per_s: Vec<f64> = measured
        .clone()
        .map(|k| rescaled(k, observed.busy[k] / segments.seconds(k, entries.len())))
        .collect();
    let p50_ms: Vec<f64> = measured
        .clone()
        .filter(|&k| !segment_latencies_ms[k].is_empty())
        .map(|k| rescaled(k, median(&segment_latencies_ms[k])))
        .collect();
    let within_slo: Vec<f64> = measured
        .clone()
        .filter(|&k| segment_due[k] > 0)
        .map(|k| {
            let within = segment_latencies_ms[k].iter().filter(|&&l| l <= SLO_MS);
            ratio(within.count() as f64, segment_due[k] as f64)
        })
        .collect();
    let within = latencies_ms.iter().filter(|&&l| l <= SLO_MS).count();
    eprintln!(
        "serve-steady: {within} of {due_windows} due windows answered within {SLO_MS} ms; per segment {:?}",
        within_slo
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    out.attempted = due_windows as u64;
    out.failed = (due_windows - answered.min(due_windows)) as u64
        + if out.problems.is_empty() {
            0
        } else {
            answered as u64
        };
    out.set("setup_s", setup_s);
    out.set("wall_s", median(&busy_per_s));
    let peak_rss_mb = report::peak_rss_mb();
    out.set("peak_rss_mb", peak_rss_mb);
    let harness_bytes = entries.len() * size_of::<Entry>()
        + rows.iter().map(Vec::len).sum::<usize>() * size_of::<Row>()
        + accepted_log.len() * size_of::<AtomicUsize>()
        + lateness.len() * size_of::<f64>()
        + observed.windows.len() * size_of::<DoneWindow>()
        + observed.cycles.len() * size_of::<Cycle>()
        + observed
            .checked
            .iter()
            .map(|c| c.windows.len())
            .sum::<usize>()
            * config.seq_len
            * size_of::<usize>();
    eprintln!(
        "serve-steady: the harness's schedule and logs hold {:.1} MiB of the {peak_rss_mb:.1} MiB VmHWM",
        harness_bytes as f64 / (1024.0 * 1024.0)
    );
    out.set("answered_frac", ratio(answered as f64, due_windows as f64));
    out.set("verdict_p50_ms", median(&p50_ms));
    out.set("within_slo_frac", median(&within_slo));
    out.set(
        "primary_frac",
        ratio(
            st.level_windows.first().copied().unwrap_or(0) as f64,
            st.windows_scored as f64,
        ),
    );

    if traced {
        let setup_spans = setup_tracer.take();
        serve_layers(
            &report,
            &observed,
            &segments,
            &latencies_ms,
            &lateness,
            &setup_spans,
            fit_windows,
            seconds,
            run_wall,
            cpu,
            &mut out,
        );
    }
    out
}

/// Sleeps until shortly before `due`, then spins to it.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Waits until the scorer has drained every accepted sample.
fn wait_idle(accepted: &AtomicUsize, drained: &AtomicUsize) {
    while drained.load(Ordering::Acquire) < accepted.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// What the generator and the scorer share.
struct Log<'a> {
    /// Schedule index of each accepted sample, in order.
    accepted_log: &'a [AtomicUsize],
    /// Samples accepted so far.
    accepted: &'a AtomicUsize,
    /// Samples the scorer has drained and mapped so far.
    drained: &'a AtomicUsize,
    /// Set when the generator has offered its last sample.
    done: &'a AtomicBool,
}

/// The scorer loop: drains while samples wait, maps every drained sample
/// back to its schedule entry, and predicts the windows it completes.
#[allow(clippy::too_many_arguments)]
fn consume(
    service: &ScoringService,
    config: &ServeConfig,
    entries: &[Entry],
    patients: usize,
    log: &Log,
    segments: &Segments,
    t0: Instant,
    seconds: f64,
    traced: bool,
) -> Observed {
    let Log {
        accepted_log,
        accepted,
        drained,
        done,
    } = *log;
    let mut obs = Observed {
        busy: vec![0.0; segments.count],
        ..Observed::default()
    };
    let mut drained_total = 0usize;
    // Per patient: samples pushed so far, and the indices of the last
    // `seq_len` of them.
    let mut pushed: Vec<(usize, VecDeque<usize>)> = vec![(0, VecDeque::new()); patients];
    loop {
        if service.depth() == 0 {
            let finished =
                done.load(Ordering::Acquire) && drained_total == accepted.load(Ordering::Acquire);
            let deadline = t0
                + Duration::from_secs_f64(seconds)
                + Duration::from_nanos(segments.latest.load(Ordering::Acquire))
                + GRACE;
            if finished || Instant::now() > deadline {
                return obs;
            }
            std::thread::sleep(Duration::from_micros(20));
            continue;
        }
        obs.calls += 1;
        let check = obs.calls.is_multiple_of(CHECK_EVERY);
        let before = check.then(|| service.report().stats.anomalies);
        let start = Instant::now();
        let outcome = service.drain_cycle();
        let end = Instant::now();
        let after = check.then(|| service.report().stats.anomalies);
        let cycle = (secs(t0, start), secs(t0, end));

        // The drained samples are the next accepted ones, in order; wait
        // for the generator to log the last of them.
        let upto = drained_total + outcome.drained;
        while accepted.load(Ordering::Acquire) < upto {
            std::hint::spin_loop();
        }
        let mut emitted = Vec::new();
        let mut windows = Vec::new();
        for slot in &accepted_log[drained_total..upto] {
            let i = slot.load(Ordering::Relaxed);
            let e = &entries[i];
            let (count, recent) = &mut pushed[e.patient];
            *count += 1;
            if recent.len() == config.seq_len {
                recent.pop_front();
            }
            recent.push_back(e.sample);
            if completes_window(*count - 1, config.seq_len, config.stride) {
                emitted.push(i);
                if check {
                    windows.push((e.patient, recent.iter().copied().collect()));
                }
            }
        }
        if let Some(first) = accepted_log.get(drained_total) {
            obs.busy[segments.of(first.load(Ordering::Relaxed))] += cycle.1 - cycle.0;
        }
        drained_total = upto;
        drained.store(upto, Ordering::Release);
        if emitted.len() != outcome.emitted {
            obs.mispredicted_cycles += 1;
        }
        let level = (outcome.scored > 0).then_some(outcome.level).flatten();
        if let (Some(before), Some(after), Some(level)) = (before, after, level) {
            obs.checked.push(CheckedCycle {
                level,
                windows,
                anomalies: after - before,
            });
        }
        if traced {
            obs.cycles.push(Cycle {
                start: cycle.0,
                end: cycle.1,
                scored: outcome.scored,
                level,
            });
        }
        obs.windows
            .extend(emitted.into_iter().map(|entry| DoneWindow {
                entry,
                cycle,
                level,
            }));
    }
}

fn secs(t0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64()
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    report: &ServeReport,
    obs: &Observed,
    segments: &Segments,
    latencies_ms: &[f64],
    lateness: &[f64],
    setup_spans: &[Span],
    fit_windows: usize,
    seconds: f64,
    run_wall: f64,
    cpu: f64,
    out: &mut Outcome,
) {
    let st = &report.stats;
    let waits: Vec<f64> = obs
        .windows
        .iter()
        .map(|w| (w.cycle.0 - segments.due(w.entry)) * 1e3)
        .collect();
    let scoring: Vec<&Cycle> = obs.cycles.iter().filter(|c| c.scored > 0).collect();
    let cycle_ms: Vec<f64> = scoring.iter().map(|c| (c.end - c.start) * 1e3).collect();
    let scored: usize = scoring.iter().map(|c| c.scored).sum();
    out.set("serve.queue_wait_ms", median(&waits));
    out.set("serve.cycle_ms", median(&cycle_ms));
    out.set(
        "serve.windows_per_cycle",
        ratio(scored as f64, scoring.len() as f64),
    );
    out.set("serve.max_depth", st.max_depth as f64);
    out.set("serve.degraded_cycles", st.degraded_cycles as f64);
    out.set("serve.windows_shed", st.windows_shed as f64);
    out.set("serve.rejected", st.rejected as f64);
    out.set("serve.verdict_p99_ms", quantile(latencies_ms, 0.99));
    out.set("serve.gen_late_ms", quantile(lateness, 0.99) * 1e3);
    for k in 0..LADDER.len() {
        let per_round: Vec<f64> = (0..SETUPS)
            .map(|r| {
                setup_spans
                    .iter()
                    .filter(|s| s.rep == r && s.name == FIT_SPANS[k])
                    .map(Span::duration)
                    .sum()
            })
            .collect();
        out.set(FIT_METRICS[k], median(&per_round));
        let at_level: Vec<&&Cycle> = scoring.iter().filter(|c| c.level == Some(k)).collect();
        let busy: f64 = at_level.iter().map(|c| c.end - c.start).sum();
        let windows: usize = at_level.iter().map(|c| c.scored).sum();
        out.set(SCORE_METRICS[k], ratio(busy * 1e6, windows as f64));
    }
    out.set("detect.fit_windows", fit_windows as f64);
    out.set("runtime.cpu_per_wall", ratio(cpu, run_wall * 2.0));

    // Layer breakdown: the run is the root span, each drain_cycle a child.
    let tracer = Tracer::new();
    let root = tracer.record(Span {
        name: "harness.run",
        layer: HARNESS,
        start: 0.0,
        end: run_wall,
        parent: None,
        rep: 0,
    });
    for c in &obs.cycles {
        tracer.record(Span {
            name: "serve.drain_cycle",
            layer: "serve",
            start: c.start,
            end: c.end,
            parent: Some(root),
            rep: 0,
        });
    }
    let spans = tracer.take();
    let reps = layers::summarize(&spans, &[root]);
    layers::print_breakdown("serve-steady", &reps, THREADS);
    eprintln!(
        "serve-steady: p50 {:.3} ms, p99 {:.3} ms over {seconds} s of offered load",
        median(latencies_ms),
        quantile(latencies_ms, 0.99)
    );
    out.set(
        "trace.overhead_frac",
        layers::overhead_frac(&reps, layers::span_cost_s()),
    );
    crate::zero_missing(out);
}
