//! Bisection driver for sequence-of-LP policies.
//!
//! Gavel's finish-time-fairness policies binary-search for the smallest
//! `rho` every job can meet (§4.2 of the paper): for a fixed `rho` the
//! requirement is linear, so each probe is a feasibility LP.

/// Finds (approximately) the smallest `v` in `[lo, hi]` where `probe`
/// finds a witness, assuming feasibility is monotone increasing in `v`.
///
/// `probe(v)` is `Ok(Some(witness))` when `v` is feasible, `Ok(None)` when
/// not, and `Err` when it cannot tell. It runs on `hi`, `lo`, then
/// midpoints, at most once per point; the first error ends the search and
/// is returned. Otherwise the result is `None` when `hi` is infeasible,
/// else the last feasible point with its witness: within `tol` of the
/// threshold, or after `max_iters` halvings, whichever comes first.
pub fn bisect_min<T, E>(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iters: usize,
    mut probe: impl FnMut(f64) -> Result<Option<T>, E>,
) -> Result<Option<(f64, T)>, E> {
    let Some(mut witness) = probe(hi)? else {
        return Ok(None);
    };
    if let Some(at_lo) = probe(lo)? {
        return Ok(Some((lo, at_lo)));
    }
    for _ in 0..max_iters {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= tol || mid <= lo || mid >= hi {
            break;
        }
        match probe(mid)? {
            Some(found) => (hi, witness) = (mid, found),
            None => lo = mid,
        }
    }
    Ok(Some((hi, witness)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// A threshold test as a probe whose witness is the point itself.
    fn at_least(threshold: f64) -> impl FnMut(f64) -> Result<Option<f64>, Infallible> {
        move |v| Ok((v >= threshold).then_some(v))
    }

    #[test]
    fn finds_threshold_min() {
        let (got, _) = bisect_min(0.0, 100.0, 1e-9, 200, at_least(37.25))
            .unwrap()
            .unwrap();
        assert!((got - 37.25).abs() < 1e-6);
    }

    #[test]
    fn min_infeasible_everywhere() {
        let never = |_| Ok::<Option<()>, Infallible>(None);
        assert!(bisect_min(0.0, 10.0, 1e-9, 100, never).unwrap().is_none());
    }

    #[test]
    fn min_feasible_everywhere_returns_lo() {
        let got = bisect_min(2.0, 10.0, 1e-9, 100, at_least(f64::NEG_INFINITY));
        assert_eq!(got, Ok(Some((2.0, 2.0))));
    }

    #[test]
    fn respects_iteration_cap() {
        // With 2 iterations on [0, 64] the interval shrinks to 16 wide.
        let (got, _) = bisect_min(0.0, 64.0, 0.0, 2, at_least(33.0))
            .unwrap()
            .unwrap();
        assert!(got >= 33.0);
        assert!(got <= 48.0 + 1e-12);
    }

    /// The witness returned is the one the last feasible probe produced,
    /// and no point is probed twice, even with no tolerance and an
    /// iteration cap the float grid runs out before.
    #[test]
    fn returns_the_last_feasible_witness_probing_each_point_once() {
        for (lo, hi, threshold) in [(0.0, 100.0, 37.25), (0.4, 1.01, 0.8719141), (1.0, 2.0, 2.0)] {
            let mut probes = Vec::new();
            let mut feasible = Vec::new();
            let found = bisect_min(lo, hi, 0.0, 10_000, |v: f64| {
                probes.push(v.to_bits());
                let witness = (v >= threshold).then_some(probes.len());
                feasible.extend(witness.map(|call| (v, call)));
                Ok::<_, Infallible>(witness)
            });
            let (point, call) = found.unwrap().unwrap();
            assert_eq!(Some(&(point, call)), feasible.last());
            assert!(point >= threshold && point - threshold <= 1e-12, "{point}");
            let distinct: std::collections::HashSet<_> = probes.iter().collect();
            assert_eq!(distinct.len(), probes.len(), "a point was probed twice");
        }
    }

    /// The first error ends the search: its answer steers no step, and no
    /// point is probed after it.
    #[test]
    fn returns_the_first_error_without_probing_again() {
        // Feasible from 0.4 up, but the first midpoint's probe fails. Read
        // as "infeasible" that would push the answer to 0.75 and beyond.
        let mut probes = Vec::new();
        let found = bisect_min(0.0, 1.0, 1e-3, 80, |v| {
            probes.push(v);
            if v == 0.5 {
                Err("iteration limit")
            } else {
                Ok((v >= 0.4).then_some(()))
            }
        });
        assert_eq!(found, Err("iteration limit"));
        assert_eq!(probes, [1.0, 0.0, 0.5]);

        // An error at either end is returned just the same.
        let mut calls = 0;
        let at_hi = bisect_min(0.0, 1.0, 1e-3, 80, |_| {
            calls += 1;
            Err::<Option<()>, _>(calls)
        });
        assert_eq!(at_hi, Err(1));
        let mut calls = 0;
        let at_lo = bisect_min(0.0, 1.0, 1e-3, 80, |v| {
            calls += 1;
            if v == 0.0 {
                Err(calls)
            } else {
                Ok(Some(()))
            }
        });
        assert_eq!(at_lo, Err(2));
    }
}
