//! The benchmark's result line, summary statistics and process probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("answered_frac", "share"),
    ("verdict_p50_ms", "ms"),
    ("within_slo_frac", "share"),
    ("primary_frac", "share"),
];

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("lgo_recall", "share"),
    ("lgo_fpr", "share"),
    ("glucosim.simulate_s", "s"),
    ("forecast.train_s", "s"),
    ("attack.campaign_s", "s"),
    ("attack.queries", "count"),
    ("attack.success_frac", "share"),
    ("cluster.cluster_s", "s"),
    ("detect.madgan.fit_s", "s"),
    ("detect.ocsvm.fit_s", "s"),
    ("detect.knn.fit_s", "s"),
    ("detect.fit_windows", "count"),
    ("detect.madgan.score_us", "us"),
    ("detect.ocsvm.score_us", "us"),
    ("detect.knn.score_us", "us"),
    ("detect.kernel_cache.hit_frac", "share"),
    ("core.grid_cell_self_s.madgan", "s"),
    ("core.grid_cell_self_s.ocsvm", "s"),
    ("core.grid_cell_self_s.knn", "s"),
    ("defense.fit_bank_s.lgo-selective", "s"),
    ("defense.fit_bank_s.indiscriminate", "s"),
    ("defense.fit_bank_s.roast", "s"),
    ("defense.fit_bank_s.iterative-retraining", "s"),
    ("defense.crafted_windows", "count"),
    ("zoo.campaign_s", "s"),
    ("runtime.cpu_per_wall", "share"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cycle_ms", "ms"),
    ("serve.windows_per_cycle", "count"),
    ("serve.max_depth", "count"),
    ("serve.degraded_cycles", "count"),
    ("serve.windows_shed", "count"),
    ("serve.rejected", "count"),
    ("serve.verdict_p99_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_frac", "share"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reps, or windows due).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("check failed: {message}");
        self.problems.push(message);
    }

    /// Records a check: a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Renders the result line for the metric set the run reports.
    /// Missing or non-finite values make the run incorrect.
    pub fn result_line(mut self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problem(format!("metric {name} is {v}"));
                    0.0
                }
                None => {
                    self.problem(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.problems.is_empty();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Drops the retained Gram blocks of the global OC-SVM kernel cache (its
/// hit/miss statistics survive), so the next fit starts cold.
pub fn clear_kernel_cache() {
    lgo_detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

/// Cumulative (hits, misses) of the global kernel cache.
pub fn kernel_cache_counts() -> (u64, u64) {
    let s = lgo_detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats();
    (s.hits, s.misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_and_flags_missing_ones() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = Outcome::default().result_line(true);
        assert!(traced.starts_with("{\"correct\": false"));
        assert!(traced.contains("\"trace.overhead_frac\""));
    }

    #[test]
    fn proc_probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
