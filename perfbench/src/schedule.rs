//! The open-loop offer schedule of `serve-steady` and the harness's
//! window-completion predictor.
//!
//! The generator offers samples round-robin over the patients at a fixed
//! rate. Patient `p` joins at round `offset[p]` (a seeded phase in
//! `0..stride`), so window completions spread over `stride` rounds instead
//! of arriving as one burst per round.

/// One scheduled sample: whose, and which of that patient's samples.
/// The `i`-th entry of a schedule is due at [`due`]`(i, rate)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Patient index (the `Sample::patient` of the service).
    pub patient: usize,
    /// Index of the sample in the patient's own stream.
    pub sample: usize,
}

/// Due time, in seconds from the start of the run, of the `index`-th
/// entry of a schedule offered at `rate` samples per second.
pub fn due(index: usize, rate: f64) -> f64 {
    index as f64 / rate
}

/// Whether the `k`-th sample (0-based) a patient's stream pushes
/// completes a window of `seq_len` rows cut every `stride` samples.
pub fn completes_window(k: usize, seq_len: usize, stride: usize) -> bool {
    let seen = k + 1;
    seen >= seq_len && (seen - seq_len).is_multiple_of(stride)
}

/// The schedule of `rate` samples per second for `seconds` seconds,
/// round-robin over `offsets.len()` patients.
pub fn build(offsets: &[usize], rate: f64, seconds: f64) -> Vec<Entry> {
    let total = (rate * seconds).floor() as usize;
    let mut entries = Vec::with_capacity(total);
    let mut round = 0;
    while entries.len() < total {
        for (patient, &offset) in offsets.iter().enumerate() {
            if entries.len() == total {
                break;
            }
            if round >= offset {
                entries.push(Entry {
                    patient,
                    sample: round - offset,
                });
            }
        }
        round += 1;
    }
    entries
}

/// Samples each patient needs for a schedule.
pub fn samples_per_patient(entries: &[Entry], patients: usize) -> Vec<usize> {
    let mut n = vec![0; patients];
    for e in entries {
        n[e.patient] = n[e.patient].max(e.sample + 1);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_serve::{PatientState, ServeConfig};

    #[test]
    fn predictor_matches_patient_state_for_every_phase_offset() {
        let config = ServeConfig::default();
        let (seq_len, stride) = (config.seq_len, config.stride);
        // Two patients per phase offset, fed in schedule order.
        let offsets: Vec<usize> = (0..2 * stride).map(|p| p % stride).collect();
        let entries = build(&offsets, 6000.0, 0.2);
        let mut states: Vec<PatientState> = offsets
            .iter()
            .map(|_| PatientState::new(seq_len, stride))
            .collect();
        let mut windows = vec![0; offsets.len()];
        for e in &entries {
            let emitted = states[e.patient].push(vec![e.sample as f64; 4]).is_some();
            assert_eq!(
                emitted,
                completes_window(e.sample, seq_len, stride),
                "patient {} (offset {}), sample {}",
                e.patient,
                offsets[e.patient],
                e.sample
            );
            windows[e.patient] += usize::from(emitted);
        }
        assert!(windows.iter().all(|&w| w > 5), "{windows:?}");
    }

    #[test]
    fn schedule_is_round_robin_with_staggered_joins() {
        let offsets = [0, 2, 1];
        let s = build(&offsets, 100.0, 0.1);
        assert_eq!(s.len(), 10);
        let order: Vec<(usize, usize)> = s.iter().map(|e| (e.patient, e.sample)).collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (0, 1),
                (2, 0),
                (0, 2),
                (1, 0),
                (2, 1),
                (0, 3),
                (1, 1),
                (2, 2),
                (0, 4)
            ]
        );
        assert!((1..s.len()).all(|i| (due(i, 100.0) - due(i - 1, 100.0) - 0.01).abs() < 1e-12));
        assert_eq!(samples_per_patient(&s, 3), vec![5, 2, 3]);
    }

    #[test]
    fn staggered_offsets_spread_window_completions() {
        let (seq_len, stride) = (12, 6);
        let offsets: Vec<usize> = (0..60).map(|p| p % stride).collect();
        let s = build(&offsets, 6000.0, 1.0);
        let mut per_round = std::collections::BTreeMap::new();
        for (i, e) in s.iter().enumerate() {
            if completes_window(e.sample, seq_len, stride) {
                *per_round.entry(i / offsets.len()).or_insert(0) += 1;
            }
        }
        // Every round past the warm-up completes one window per phase
        // class instead of all 60 at once.
        assert!(per_round.values().all(|&n| n <= 10), "{per_round:?}");
    }
}
