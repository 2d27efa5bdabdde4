//! Per-rep layer summaries of a traced run and the printed breakdown.

use std::collections::BTreeMap;

use lgo_core::selective::DetectorKind;

use crate::report::median;
use crate::spans::{attribute_wall, self_times, Span, SpanId, Tracer};

/// The layer name of the benchmark's own root spans; its attributed time
/// is the residual no layer accounts for.
pub const HARNESS: &str = "harness";

/// Span names of detector fits, by [`kind_index`].
pub const FIT_SPANS: [&str; 3] = ["detect.fit.madgan", "detect.fit.ocsvm", "detect.fit.knn"];
/// Span names of detector scoring, by [`kind_index`].
pub const SCORE_SPANS: [&str; 3] = [
    "detect.score.madgan",
    "detect.score.ocsvm",
    "detect.score.knn",
];
/// Fit-time metric names, by [`kind_index`].
pub const FIT_METRICS: [&str; 3] = [
    "detect.madgan.fit_s",
    "detect.ocsvm.fit_s",
    "detect.knn.fit_s",
];
/// Per-window scoring metric names, by [`kind_index`].
pub const SCORE_METRICS: [&str; 3] = [
    "detect.madgan.score_us",
    "detect.ocsvm.score_us",
    "detect.knn.score_us",
];
/// The serve ladder order of detector kinds.
pub const LADDER: [DetectorKind; 3] =
    [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn];

/// Position of a detector kind in [`LADDER`] and the name tables.
pub fn kind_index(kind: DetectorKind) -> usize {
    match kind {
        DetectorKind::MadGan => 0,
        DetectorKind::OcSvm => 1,
        DetectorKind::Knn => 2,
    }
}

/// What the spans of one traced rep add up to.
#[derive(Debug, Default, Clone)]
pub struct RepTrace {
    /// The rep's wall time (its root span).
    pub wall: f64,
    /// Summed duration per span name.
    pub total_by_name: BTreeMap<&'static str, f64>,
    /// Summed self time per span name.
    pub self_by_name: BTreeMap<&'static str, f64>,
    /// Summed self time per layer.
    pub self_by_layer: BTreeMap<&'static str, f64>,
    /// Exclusive share of the rep's wall time per layer.
    pub wall_by_layer: BTreeMap<&'static str, f64>,
    /// Spans recorded in the rep.
    pub spans: usize,
}

/// Summarizes every rep rooted at one of `roots`.
pub fn summarize(spans: &[Span], roots: &[SpanId]) -> Vec<RepTrace> {
    let st = self_times(spans);
    roots
        .iter()
        .map(|&root| {
            let rep = spans[root].rep;
            let mut t = RepTrace {
                wall: spans[root].duration(),
                wall_by_layer: attribute_wall(spans, root),
                ..RepTrace::default()
            };
            for (s, self_time) in spans.iter().zip(&st).filter(|(s, _)| s.rep == rep) {
                *t.total_by_name.entry(s.name).or_insert(0.0) += s.duration();
                *t.self_by_name.entry(s.name).or_insert(0.0) += self_time;
                *t.self_by_layer.entry(s.layer).or_insert(0.0) += self_time;
                t.spans += 1;
            }
            t
        })
        .collect()
}

/// The median over reps of the summed self time of span `name`.
pub fn median_self(reps: &[RepTrace], name: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .map(|r| r.self_by_name.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// The median over reps of the summed duration of span `name`.
pub fn median_total(reps: &[RepTrace], name: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .map(|r| r.total_by_name.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// The median over reps of the summed self time of `layer`.
pub fn median_layer(reps: &[RepTrace], layer: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .map(|r| r.self_by_layer.get(layer).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// Cost of recording one span, measured on a throwaway recorder.
pub fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new();
    let start = std::time::Instant::now();
    for i in 0..N {
        drop(t.open("calibrate", HARNESS, None, i));
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// The share of traced wall time spent recording spans.
pub fn overhead_frac(reps: &[RepTrace], span_cost: f64) -> f64 {
    let wall: f64 = reps.iter().map(|r| r.wall).sum();
    let spans: usize = reps.iter().map(|r| r.spans).sum();
    crate::report::ratio(spans as f64 * span_cost, wall)
}

/// Prints each layer's exclusive share of the traced wall time, its span
/// self time, and the residual the layers leave unaccounted.
pub fn print_breakdown(workload: &str, reps: &[RepTrace], threads: usize) {
    let wall: f64 = reps.iter().map(|r| r.wall).sum();
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    let mut selfs: BTreeMap<&str, f64> = BTreeMap::new();
    for r in reps {
        for (l, v) in &r.wall_by_layer {
            *shares.entry(l).or_insert(0.0) += v;
        }
        for (l, v) in &r.self_by_layer {
            *selfs.entry(l).or_insert(0.0) += v;
        }
    }
    eprintln!(
        "layer breakdown of {workload}: {} traced rep(s), {wall:.3} s wall, {threads} thread(s)",
        reps.len()
    );
    eprintln!(
        "  {:<12} {:>10} {:>14}",
        "layer", "wall share", "span self s"
    );
    let mut rows: Vec<(&str, f64)> = shares
        .iter()
        .filter(|(l, _)| **l != HARNESS)
        .map(|(l, v)| (*l, *v))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, v) in &rows {
        eprintln!(
            "  {layer:<12} {:>9.1}% {:>14.3}",
            100.0 * crate::report::ratio(*v, wall),
            selfs.get(layer).copied().unwrap_or(0.0)
        );
    }
    let residual = shares.get(HARNESS).copied().unwrap_or(0.0);
    eprintln!(
        "  {:<12} {:>9.1}%   (wall no layer span covers)",
        "unaccounted",
        100.0 * crate::report::ratio(residual, wall)
    );
}
