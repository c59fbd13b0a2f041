//! Order statistics used by every workload: nearest-rank percentiles over
//! samples and medians of repeated measurements.

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (sorted internally):
/// the smallest sample with at least `q·n` samples at or below it.
/// `None` when there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "percentile {q} out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values`: the mean of the two middle samples for an even
/// count. `None` when there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

/// Percentile `q` of `values` within each of `k` equal time slots of
/// `[0, span)` (`times[i]` is when `values[i]` was taken); empty slots are
/// skipped.
pub fn slot_percentiles(times: &[f64], values: &[f64], span: f64, k: usize, q: f64) -> Vec<f64> {
    assert_eq!(times.len(), values.len());
    let k = k.max(1);
    let mut slots: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (&t, &v) in times.iter().zip(values) {
        let slot = ((t / span * k as f64).floor().max(0.0) as usize).min(k - 1);
        slots[slot].push(v);
    }
    slots.iter().filter_map(|s| percentile(s, q)).collect()
}

/// The median over time slots of the per-slot percentile (see
/// [`slot_percentiles`]). A transient stall confined to one slot moves one
/// slot's percentile, not the result.
pub fn median_of_slots(times: &[f64], values: &[f64], span: f64, k: usize, q: f64) -> Option<f64> {
    median(&slot_percentiles(times, values, span, k, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_samples_ignores_the_top_ten() {
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend([1000.0; 10]);
        assert_eq!(percentile(&v, 0.99), Some(1.0));
        v.push(1000.0);
        assert_eq!(percentile(&v, 0.99), Some(1000.0));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slot_medians_ignore_a_stall_in_one_slot() {
        let times: Vec<f64> = (0..3000).map(|i| f64::from(i) / 1000.0).collect();
        let mut values = vec![1.0; 3000];
        // A stall in the middle slot: 5% of that slot's samples are slow.
        for v in &mut values[1000..1050] {
            *v = 100.0;
        }
        assert_eq!(percentile(&values, 0.99), Some(100.0));
        assert_eq!(median_of_slots(&times, &values, 3.0, 3, 0.99), Some(1.0));
        // Empty slots are skipped.
        assert_eq!(median_of_slots(&[0.1, 0.2], &[3.0, 5.0], 3.0, 3, 0.5), Some(3.0));
    }
}
