//! In-memory span recorder for the traced runs, plus the two analyses the
//! layer breakdown is built from.
//!
//! The benchmark wraps its own calls into the workspace crates in spans;
//! nothing inside `crates/` is instrumented. A span carries its name, its
//! layer (the crate it times), start and end, its parent and the rep it
//! belongs to. Spans stay in memory until the run ends.
//!
//! - [`self_times`]: a span's duration minus the time its children cover.
//!   Children that run in parallel may overlap; the covered time is the
//!   union of their intervals, so overlap is not subtracted twice.
//! - [`attribute_wall`]: splits a rep's wall time exactly over layers. At
//!   every instant the innermost open spans share the instant equally, so
//!   the layer totals plus the root's own (unaccounted) time sum to the
//!   rep's wall time even when the job runs on several threads.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span; times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `forecast.train`.
    pub name: &'static str,
    /// The layer the call belongs to, e.g. `forecast`.
    pub layer: &'static str,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds (NaN while open).
    pub end: f64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The rep this span belongs to.
    pub rep: usize,
}

impl Span {
    /// The span's wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the recorder's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; it closes when the guard drops.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        rep: usize,
    ) -> Guard<'_> {
        let start = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            layer,
            start,
            end: f64::NAN,
            parent,
            rep,
        });
        Guard {
            tracer: self,
            id: spans.len() - 1,
        }
    }

    /// Records an already-finished span.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(span);
        spans.len() - 1
    }

    fn close(&self, id: SpanId) {
        let end = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans[id].end = end;
    }

    /// Takes every recorded span out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// An open span; dropping it records the end time.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl Guard<'_> {
    /// The span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

/// Runs `f` inside a span when a recorder is given, or plainly when not.
/// `f` receives the new span's id (the parent for nested spans).
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    layer: &'static str,
    parent: Option<SpanId>,
    rep: usize,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(t) => {
            let guard = t.open(name, layer, parent, rep);
            f(Some(guard.id()))
        }
        None => f(None),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_length(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration() - union_length(c, s.start, s.end))
        .collect()
}

/// Splits the wall time of `root` (a span in `spans`) over layers: each
/// elementary interval between span boundaries goes in equal parts to the
/// innermost open descendants of `root` (or to `root` itself when none is
/// open). The returned totals sum to the root's duration.
pub fn attribute_wall(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    // The root's descendants, found by walking parent links.
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    for (i, s) in spans.iter().enumerate() {
        let mut p = s.parent;
        while let Some(q) = p {
            if q == root {
                in_tree[i] = true;
                break;
            }
            p = spans[q].parent;
        }
    }
    // Boundary events: (time, is_start, span). Ends sort before starts at
    // equal times so zero-length gaps attribute nothing.
    let mut events: Vec<(f64, bool, SpanId)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| in_tree[*i]) {
        events.push((s.start, true, i));
        events.push((s.end, false, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut open_children = vec![0usize; spans.len()];
    let mut active: Vec<SpanId> = Vec::new();
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last = spans[root].start;
    for (t, is_start, id) in events {
        if t > last && !active.is_empty() {
            let leaves: Vec<SpanId> = active
                .iter()
                .copied()
                .filter(|&a| open_children[a] == 0)
                .collect();
            let share = (t - last) / leaves.len() as f64;
            for a in leaves {
                *totals.entry(spans[a].layer).or_insert(0.0) += share;
            }
        }
        last = last.max(t);
        let parent = if id == root { None } else { spans[id].parent };
        if is_start {
            active.push(id);
            if let Some(p) = parent {
                open_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != id);
            if let Some(p) = parent {
                open_children[p] = open_children[p].saturating_sub(1);
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            rep: 0,
        }
    }

    /// A rep of 10 s: two parallel patient spans overlap in 2..6; each
    /// holds one forecast child, and the children overlap in 3..5.
    fn tree() -> Vec<Span> {
        vec![
            span("rep", "harness", 0.0, 10.0, None),       // 0
            span("patient", "core", 1.0, 6.0, Some(0)),    // 1
            span("patient", "core", 2.0, 8.0, Some(0)),    // 2
            span("train", "forecast", 2.0, 5.0, Some(1)),  // 3
            span("train", "forecast", 3.0, 7.0, Some(2)),  // 4
            span("cluster", "cluster", 8.5, 9.0, Some(0)), // 5
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let st = self_times(&tree());
        // Root: children cover [1, 8] ∪ [8.5, 9] = 7.5 s of 10 s.
        assert!((st[0] - 2.5).abs() < 1e-12, "{}", st[0]);
        // Patient 1: 5 s minus its child's 3 s.
        assert!((st[1] - 2.0).abs() < 1e-12);
        // Patient 2: 6 s minus 4 s.
        assert!((st[2] - 2.0).abs() < 1e-12);
        // Leaves keep their whole duration.
        assert!((st[3] - 3.0).abs() < 1e-12);
        assert!((st[4] - 4.0).abs() < 1e-12);
        assert!((st[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_clips_children_to_their_parent_and_merges_overlap() {
        let spans = vec![
            span("p", "core", 0.0, 4.0, None),
            span("a", "detect", -1.0, 2.0, Some(0)),
            span("b", "detect", 1.0, 3.0, Some(0)),
            span("c", "detect", 1.5, 2.5, Some(0)),
        ];
        let st = self_times(&spans);
        // Children cover [0, 3] once clipped and merged.
        assert!((st[0] - 1.0).abs() < 1e-12, "{}", st[0]);
    }

    #[test]
    fn wall_attribution_partitions_the_rep_exactly() {
        let spans = tree();
        let totals = attribute_wall(&spans, 0);
        let sum: f64 = totals.values().sum();
        assert!((sum - 10.0).abs() < 1e-12, "{totals:?}");
        // 1..2: patient 1 alone (core); 2..3: forecast (span 3) and
        // patient 2 (core) split; 3..5: both forecasts; 5..6: patient 1
        // (core) and forecast 4 split; 6..7: forecast 4 alone; 7..8:
        // patient 2 alone (core).
        let core = 1.0 + 0.5 + 0.5 + 1.0;
        let forecast = 0.5 + 2.0 + 0.5 + 1.0;
        assert!((totals["core"] - core).abs() < 1e-12, "{totals:?}");
        assert!((totals["forecast"] - forecast).abs() < 1e-12, "{totals:?}");
        assert!((totals["cluster"] - 0.5).abs() < 1e-12);
        // The root keeps 0..1, 8..8.5 and 9..10.
        assert!((totals["harness"] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn wall_attribution_ignores_other_reps() {
        let mut spans = tree();
        spans.push(span("rep", "harness", 20.0, 21.0, None));
        spans.push(span("train", "forecast", 20.0, 21.0, Some(6)));
        let totals = attribute_wall(&spans, 0);
        assert!((totals.values().sum::<f64>() - 10.0).abs() < 1e-12);
        let other = attribute_wall(&spans, 6);
        assert!((other["forecast"] - 1.0).abs() < 1e-12);
        assert!(!other.contains_key("harness"));
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let t = Tracer::new();
        {
            let outer = t.open("outer", "harness", None, 3);
            timed(Some(&t), "inner", "forecast", Some(outer.id()), 3, |id| {
                assert_eq!(id, Some(1));
            });
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.rep == 3));
        assert!(timed(None, "x", "y", None, 0, |id| id.is_none()));
    }
}
