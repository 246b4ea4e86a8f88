//! Bisection driver for sequence-of-LP policies.
//!
//! Gavel's finish-time-fairness policies binary-search for the smallest
//! `rho` every job can meet (§4.2 of the paper): for a fixed `rho` the
//! requirement is linear, so each probe is a feasibility check.
//! [`bisect_min`] implements the monotone search; the caller supplies the
//! feasibility oracle.

/// Finds (approximately) the smallest `v` in `[lo, hi]` for which
/// `feasible(v)` holds, assuming feasibility is monotone increasing in `v`
/// (infeasible below some threshold, feasible at and above it).
///
/// Returns `None` when `feasible(hi)` is false. The result is within `tol`
/// of the true threshold (absolute), or after `max_iters` halvings,
/// whichever comes first.
pub fn bisect_min<F: FnMut(f64) -> bool>(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iters: usize,
    mut feasible: F,
) -> Option<f64> {
    if !feasible(hi) {
        return None;
    }
    if feasible(lo) {
        return Some(lo);
    }
    for _ in 0..max_iters {
        if hi - lo <= tol {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_threshold_min() {
        let got = bisect_min(0.0, 100.0, 1e-9, 200, |v| v >= 37.25).unwrap();
        assert!((got - 37.25).abs() < 1e-6);
    }

    #[test]
    fn min_infeasible_everywhere() {
        assert!(bisect_min(0.0, 10.0, 1e-9, 100, |_| false).is_none());
    }

    #[test]
    fn min_feasible_everywhere_returns_lo() {
        let got = bisect_min(2.0, 10.0, 1e-9, 100, |_| true).unwrap();
        assert_eq!(got, 2.0);
    }

    #[test]
    fn respects_iteration_cap() {
        // With 2 iterations on [0, 64] the interval shrinks to 16 wide.
        let got = bisect_min(0.0, 64.0, 0.0, 2, |v| v >= 33.0).unwrap();
        assert!(got >= 33.0);
        assert!(got <= 48.0 + 1e-12);
    }
}
