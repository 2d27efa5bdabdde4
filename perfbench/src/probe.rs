//! The host-speed probe.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! by tens of percent over seconds to minutes as other guests load it.
//! The probe is a fixed piece of benchmark-side arithmetic (small dense
//! products with `tanh`, the shape of the recurrent and MAD-GAN work the
//! workloads spend their time in) run on [`THREADS`] threads. The
//! benchmark times it between timed units of work (batch reps, serve
//! segments, the set-up block) and reports each unit's time rescaled to
//! the host speed at which the probe takes [`REFERENCE_S`]:
//!
//! ```text
//! reported = measured × REFERENCE_S / mean(probe before, probe after)
//! ```
//!
//! The probe does not call into the workspace, so a change to the program
//! moves the measured time and leaves the probe alone; a change of host
//! speed moves both.

use std::time::Instant;

/// Threads the probe runs on: every vCPU the workloads use.
pub const THREADS: usize = 2;

/// The probe's wall time, in seconds, at the reference host speed. It is
/// the median probe measured on the 2-vCPU KVM guest the benchmark was
/// tuned on, so rescaled times read as seconds on that guest at its
/// median speed.
pub const REFERENCE_S: f64 = 0.06;

/// Side of the probe's square matrices.
const N: usize = 48;
/// Products per thread in one timing.
const ROUNDS: usize = 700;
/// Timings per probe; the probe is their median.
const TIMINGS: usize = 3;

/// One thread's share of the probe: `ROUNDS` products of `N`×`N`
/// matrices, each result squashed by `tanh` and fed back in.
fn kernel() -> f64 {
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 101) as f64 * 0.01)
        .collect();
    let mut b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 104_729) % 97) as f64 * 0.01)
        .collect();
    let mut c = vec![0.0; N * N];
    for _ in 0..ROUNDS {
        for i in 0..N {
            for j in 0..N {
                let dot: f64 = (0..N).map(|k| a[i * N + k] * b[j * N + k]).sum();
                c[i * N + j] = dot.tanh();
            }
        }
        std::mem::swap(&mut b, &mut c);
    }
    b.iter().sum()
}

/// Times the kernel on every probe thread at once; returns the wall time
/// until the last thread finished.
fn timing() -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| std::hint::black_box(kernel())))
            .collect();
        for t in threads {
            t.join().expect("the probe kernel does not panic");
        }
    });
    start.elapsed().as_secs_f64()
}

/// Runs the probe and returns the median of its timings, in seconds: a
/// single timing now and then loses one vCPU for part of its run.
pub fn probe() -> f64 {
    let timings: Vec<f64> = (0..TIMINGS).map(|_| timing()).collect();
    crate::report::median(&timings)
}

/// `measured` seconds rescaled to the reference host speed, given the
/// probes taken just before and just after the measured work.
pub fn rescale(measured: f64, before: f64, after: f64) -> f64 {
    measured * REFERENCE_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_finite() {
        let x = kernel();
        assert!(x.is_finite());
        assert_eq!(x.to_bits(), kernel().to_bits());
    }

    #[test]
    fn rescale_divides_out_the_probe() {
        assert!((rescale(2.0, REFERENCE_S, REFERENCE_S) - 2.0).abs() < 1e-12);
        // A host twice as slow doubles both the work and the probe.
        let slow = 2.0 * REFERENCE_S;
        assert!((rescale(4.0, slow, slow) - 2.0).abs() < 1e-12);
    }
}
