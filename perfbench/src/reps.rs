//! The rep loops of the batch-style workloads (`pipeline`, `profile`,
//! `defense`): timed reps for the end-to-end metrics, traced reps for the
//! layer breakdown. Every rep starts with a cold kernel cache, as a user
//! running one cohort per process would.

use std::time::Instant;

use crate::layers::{self, RepTrace, HARNESS};
use crate::probe;
use crate::report::{self, median, ratio, Outcome};
use crate::spans::{SpanId, Tracer};

/// Repeats `rep` until `seconds` are spent: a new rep starts only while
/// the median rep so far still fits in the remaining budget, and at least
/// `min` reps run. Returns each rep's wall time.
fn repeat(seconds: f64, min: usize, mut rep: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let left = seconds - start.elapsed().as_secs_f64();
        if walls.len() >= min && median(&walls) > left {
            return walls;
        }
        walls.push(rep(walls.len()));
    }
}

/// Times reps of `job` for `seconds` and sets every end-to-end metric;
/// `setup_s` is the workload's rescaled set-up time. `job` returns the
/// rep's canonical export and the share of its detector fits that trained
/// the requested kind; a rep answers when it succeeds and its export
/// equals the first rep's. A host-speed probe runs before the first rep
/// and after every rep, and each rep's wall time is rescaled by the two
/// probes around it (see [`probe`]).
pub fn measure(
    name: &str,
    seconds: f64,
    setup_s: f64,
    out: &mut Outcome,
    mut job: impl FnMut() -> Result<(String, f64), String>,
) {
    let mut first: Option<String> = None;
    let mut answered = 0u64;
    let mut primary = Vec::new();
    let mut before = probe::probe();
    let mut probes = vec![before];
    let mut raw = Vec::new();
    let mut rescaled = Vec::new();
    repeat(seconds, 3, |i| {
        let started = Instant::now();
        report::clear_kernel_cache();
        let start = Instant::now();
        let result = job();
        let wall = start.elapsed().as_secs_f64();
        let after = probe::probe();
        probes.push(after);
        raw.push(wall);
        rescaled.push(probe::rescale(wall, before, after));
        before = after;
        match result {
            Ok((export, primary_share)) => {
                let same = *first.get_or_insert_with(|| export.clone()) == export;
                out.check(same, || {
                    format!("{name} rep {i}: export differs from rep 0")
                });
                answered += u64::from(same);
                primary.push(primary_share);
            }
            Err(e) => out.problem(format!("{name} rep {i}: {e}")),
        }
        started.elapsed().as_secs_f64()
    });
    let rounded = |v: &[f64]| {
        v.iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    eprintln!("{name}: {} rep(s), walls {:?} s", raw.len(), rounded(&raw));
    eprintln!("{name}: probes {:?} s", rounded(&probes));
    eprintln!("{name}: rescaled walls {:?} s", rounded(&rescaled));
    let reps = raw.len() as u64;
    let wall_s = median(&rescaled);
    let answered_frac = ratio(answered as f64, reps as f64);
    out.attempted = reps;
    out.failed = reps - answered;
    out.set("setup_s", setup_s);
    out.set("wall_s", wall_s);
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.set("answered_frac", answered_frac);
    // A batch job's verdict is its report, due when the rep starts.
    out.set("verdict_p50_ms", wall_s * 1e3);
    // Batch reps carry no deadline: every answered rep is within it.
    out.set("within_slo_frac", answered_frac);
    out.set("primary_frac", median(&primary));
}

/// One traced rep's counts beside its spans.
pub struct Traced<T> {
    /// Counts the job read off the program's reports.
    pub tally: T,
    /// Kernel-cache hits ÷ lookups within the rep.
    pub hit_frac: f64,
    /// Process CPU time ÷ (wall × threads) over the rep.
    pub cpu_per_wall: f64,
}

/// Runs traced reps of `job` until `seconds` after `start` (at least two
/// reps). Each rep runs under a root span and must reproduce `reference`,
/// the untraced rep's export. Prints the layer breakdown and returns the
/// per-rep summaries and counts.
#[allow(clippy::too_many_arguments)]
pub fn trace<T>(
    name: &str,
    start: Instant,
    seconds: f64,
    threads: usize,
    reference: &str,
    out: &mut Outcome,
    mut job: impl FnMut(&Tracer, SpanId, usize) -> Result<(String, T), String>,
) -> (Vec<RepTrace>, Vec<Traced<T>>) {
    let tracer = Tracer::new();
    let mut roots = Vec::new();
    let mut traced = Vec::new();
    let mut failed = 0;
    let budget = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    let walls = repeat(budget, 2, |rep| {
        report::clear_kernel_cache();
        let (h0, m0) = report::kernel_cache_counts();
        let cpu0 = report::process_cpu_s();
        let root = tracer.open("harness.rep", HARNESS, None, rep);
        let root_id = root.id();
        let started = Instant::now();
        let result = job(&tracer, root_id, rep);
        drop(root);
        let wall = started.elapsed().as_secs_f64();
        let cpu = report::process_cpu_s() - cpu0;
        let (h1, m1) = report::kernel_cache_counts();
        roots.push(root_id);
        match result {
            Ok((export, tally)) => {
                if export != reference {
                    failed += 1;
                    out.problem(format!(
                        "{name} traced rep {rep}: export differs from the untraced rep"
                    ));
                }
                traced.push(Traced {
                    tally,
                    hit_frac: ratio((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64),
                    cpu_per_wall: ratio(cpu, wall * threads as f64),
                });
            }
            Err(e) => {
                failed += 1;
                out.problem(format!("{name} traced rep {rep}: {e}"));
            }
        }
        wall
    });
    out.attempted = walls.len() as u64;
    out.failed = failed;
    eprintln!(
        "{name}: kernel-cache hit share per traced rep {:?}",
        traced.iter().map(|t| t.hit_frac).collect::<Vec<_>>()
    );
    let reps = layers::summarize(&tracer.take(), &roots);
    layers::print_breakdown(name, &reps, threads);
    (reps, traced)
}

/// The median over traced reps of `f`.
pub fn median_of<T>(traced: &[Traced<T>], f: impl Fn(&Traced<T>) -> f64) -> f64 {
    median(&traced.iter().map(f).collect::<Vec<_>>())
}
