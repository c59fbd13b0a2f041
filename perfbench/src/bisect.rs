//! The capacity search behind `max_rate_rps`: the highest offered rate
//! that still meets the service-level criteria, bracketed by doubling or
//! halving from a start rate and then bisected on a log scale until the
//! bracket is narrower than the tolerance.

/// Find the highest rate in `[floor, ceiling]` for which `passes` holds,
/// to within a factor of `1 + tolerance`; 0 when even `floor` fails.
/// `passes` is assumed monotone (true below capacity, false above); each
/// call is one measured window.
pub fn max_rate(
    start: f64,
    floor: f64,
    ceiling: f64,
    tolerance: f64,
    mut passes: impl FnMut(f64) -> bool,
) -> f64 {
    assert!(0.0 < floor && floor <= start && start <= ceiling && tolerance > 0.0);
    let (mut lo, mut hi);
    if passes(start) {
        lo = start;
        loop {
            if lo >= ceiling {
                return lo;
            }
            let next = (lo * 2.0).min(ceiling);
            if passes(next) {
                lo = next;
            } else {
                hi = next;
                break;
            }
        }
    } else {
        hi = start;
        loop {
            if hi <= floor {
                return 0.0;
            }
            let next = (hi / 2.0).max(floor);
            if passes(next) {
                lo = next;
                break;
            }
            hi = next;
        }
    }
    while hi / lo > 1.0 + tolerance {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Search against a sharp capacity; returns the result and every
    /// probe `(rate, passed)` in order.
    fn search(capacity: f64, start: f64) -> (f64, Vec<(f64, bool)>) {
        let mut probes = Vec::new();
        let rate = max_rate(start, 50.0, 64_000.0, 0.05, |r| {
            probes.push((r, r <= capacity));
            r <= capacity
        });
        (rate, probes)
    }

    #[test]
    fn converges_within_tolerance_from_below_and_above() {
        for start in [500.0, 1000.0, 5000.0, 20_000.0] {
            for capacity in [137.0, 999.0, 3210.0, 17_500.0] {
                let (rate, probes) = search(capacity, start);
                assert!(rate <= capacity && rate * 1.05 >= capacity, "{rate} for {capacity}");
                // The reported rate was itself probed and passed.
                assert!(probes.contains(&(rate, true)));
            }
        }
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let (_, probes) = search(3210.0, 1000.0);
        // Two doublings, one failure, then ~4 bisections of a 2x bracket.
        assert!(probes.len() <= 8, "{} probes", probes.len());
    }

    #[test]
    fn saturates_at_the_ceiling_and_reports_zero_below_the_floor() {
        assert_eq!(search(1e9, 1000.0).0, 64_000.0);
        let (rate, probes) = search(10.0, 1000.0);
        assert_eq!(rate, 0.0);
        assert!(probes.iter().all(|&(_, ok)| !ok));
    }

    #[test]
    fn the_search_is_deterministic_for_a_deterministic_criterion() {
        assert_eq!(search(4321.0, 1000.0), search(4321.0, 1000.0));
    }
}
