//! Gandiva-style baseline: heterogeneity-agnostic time sharing with ad-hoc
//! space sharing (OSDI '18, as characterized in §8 of the Gavel paper).
//!
//! Gandiva does not optimize an explicit objective. It time-shares jobs
//! round-robin and *randomly explores* job packings, keeping a packing if
//! the observed combined throughput improves on time slicing. This module
//! reproduces that behaviour on top of the tensor: every invocation tries a
//! few random candidate pairs (paying the exploration regardless of
//! quality, as the real system does for the trial round), keeps pairs whose
//! measured aggregate normalized throughput exceeds 1, and drops pairs that
//! turned out bad.

use crate::common::{check_input, spread, waterfill_shares};
use gavel_core::{AccelIdx, Allocation, JobId, Policy, PolicyError, PolicyInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Mutex;

/// Random pair trials per invocation.
const TRIALS_PER_ROUND: usize = 2;
/// A trial pair is kept when its aggregate normalized throughput reaches
/// this (1.0 = break-even with time slicing).
const KEEP_THRESHOLD: f64 = 1.05;

/// Gandiva-style ad-hoc space sharing baseline.
#[derive(Debug)]
pub struct GandivaPolicy {
    state: Mutex<GandivaState>,
}

#[derive(Debug)]
struct GandivaState {
    rng: StdRng,
    good_pairs: HashSet<(JobId, JobId)>,
    rejected_pairs: HashSet<(JobId, JobId)>,
}

impl GandivaPolicy {
    /// Creates the baseline with a deterministic exploration seed.
    pub fn new(seed: u64) -> Self {
        GandivaPolicy {
            state: Mutex::new(GandivaState {
                rng: StdRng::seed_from_u64(seed),
                good_pairs: HashSet::new(),
                rejected_pairs: HashSet::new(),
            }),
        }
    }

    /// Aggregate normalized throughput of pair row `k` on its best type;
    /// zero when a member has no singleton row to normalize by.
    fn pair_score(input: &PolicyInput<'_>, k: usize) -> f64 {
        let [a, b] = input.combos.members(k);
        let row = |slot| input.combos.singleton_row(slot);
        let (Some(row_a), Some(row_b)) = (row(a), row(b)) else {
            return 0.0;
        };
        let mut best: f64 = 0.0;
        for j in 0..input.tensor.num_types() {
            let e = input.tensor.entry(k, AccelIdx(j));
            let ia = input.tensor.entry(row_a, AccelIdx(j)).a;
            let ib = input.tensor.entry(row_b, AccelIdx(j)).a;
            if ia > 0.0 && ib > 0.0 && e.runnable() {
                best = best.max(e.a / ia + e.b / ib);
            }
        }
        best
    }
}

impl Policy for GandivaPolicy {
    fn name(&self) -> &str {
        "gandiva"
    }

    fn wants_space_sharing(&self) -> bool {
        true
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let singles = check_input(input)?;
        let mut st = (self.state.lock())
            .map_err(|_| PolicyError::InvalidInput("gandiva state poisoned".into()))?;

        // Retire pairs whose members have left the cluster (the combo set
        // names none of them): a verdict is only ever looked up for a pair
        // row of present jobs.
        let here = |job: &JobId| input.combos.slot(*job).is_some();
        let still_here = |(a, b): &(JobId, JobId)| here(a) && here(b);
        st.good_pairs.retain(still_here);
        st.rejected_pairs.retain(still_here);

        // Gandiva packs to relieve queuing pressure; with enough free
        // workers for every job, packing only hurts (two jobs sharing a GPU
        // while others idle), so it time-shares plainly.
        let demand: usize = input
            .jobs
            .iter()
            .map(|j| j.scale_factor.max(1) as usize)
            .sum();
        let contended = demand > input.cluster.total_workers();
        if !contended {
            st.good_pairs.clear();
        }

        // Candidate pair rows available in the tensor.
        let pair_rows: Vec<usize> = input
            .combos
            .combos()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_pair())
            .map(|(k, _)| k)
            .collect();

        // Known-good pairs run packed on their rows. A kept pair whose row
        // this input leaves out (the snapshot caps the rows per job) packs
        // nobody: its members time-share as singletons until it returns.
        let mut packed = vec![false; input.combos.jobs().len()];
        let mut active_pairs: Vec<usize> = Vec::new();
        for &k in &pair_rows {
            let (c, [a, b]) = (input.combos.combos()[k], input.combos.members(k));
            let Some(partner) = c.b else { continue };
            if st.good_pairs.contains(&(c.a, partner)) && !packed[a] && !packed[b] {
                active_pairs.push(k);
                (packed[a], packed[b]) = (true, true);
            }
        }
        // Random exploration: sample a few untried pairs whose members are
        // not already packed.
        for _ in 0..TRIALS_PER_ROUND {
            if pair_rows.is_empty() || !contended {
                break;
            }
            let k = pair_rows[st.rng.gen_range(0..pair_rows.len())];
            let (combo, [a, b]) = (input.combos.combos()[k], input.combos.members(k));
            let Some(partner) = combo.b else { continue };
            let key = (combo.a, partner);
            if st.rejected_pairs.contains(&key)
                || st.good_pairs.contains(&key)
                || packed[a]
                || packed[b]
            {
                continue;
            }
            // Trial round: the pair runs packed this round regardless; its
            // fate is decided by the observed score.
            active_pairs.push(k);
            (packed[a], packed[b]) = (true, true);
            if Self::pair_score(input, k) >= KEEP_THRESHOLD {
                st.good_pairs.insert(key);
            } else {
                st.rejected_pairs.insert(key);
            }
        }

        // Scheduling units: active pairs (one worker each, their members'
        // weights together) plus unpacked singletons. A listed job's slot
        // is its singleton row's member; an unlisted one weighs nothing.
        let slot = |m: usize| input.combos.members(singles.row(m))[0];
        let mut weight = vec![0.0; packed.len()];
        for (m, job) in input.jobs.iter().enumerate() {
            weight[slot(m)] = job.weight;
        }
        let (mut rows, mut scales, mut weights) = (Vec::new(), Vec::new(), Vec::new());
        for &k in &active_pairs {
            rows.push(k);
            scales.push(1);
            weights.push(input.combos.members(k).iter().map(|&s| weight[s]).sum());
        }
        for (m, job) in input.jobs.iter().enumerate() {
            if !packed[slot(m)] {
                rows.push(singles.row(m));
                scales.push(job.scale_factor.max(1));
                weights.push(job.weight);
            }
        }

        // Agnostic time sharing over units.
        let shares = waterfill_shares(&weights, &scales, input.cluster.total_workers() as f64);
        let units = rows.into_iter().zip(scales).zip(shares);
        Ok(spread(
            input,
            units.map(|((row, scale), share)| (row, scale, share)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::{ClusterSpec, Combo, ComboSet, PairThroughput, PolicyJob, ThroughputTensor};

    /// A pair is tried and kept; the next input has no row for it (the
    /// snapshot's per-job cap dropped it). Its members are not packed
    /// then, so they time-share like everyone else — and pack again when
    /// the row is back.
    #[test]
    fn a_kept_pair_without_its_row_time_shares() {
        let cluster = ClusterSpec::new(&[("v100", 2, 2, 1.0)]);
        let policy = GandivaPolicy::new(1);
        let ids = [JobId(0), JobId(1), JobId(2)];
        let jobs: Vec<PolicyJob> = ids.iter().map(|&id| PolicyJob::simple(id, 1.0)).collect();
        let allocate = |with_pair_row: bool| {
            let mut combos: Vec<Combo> = ids.iter().map(|&id| Combo::single(id)).collect();
            let mut rows = vec![vec![PairThroughput::single(1.0)]; ids.len()];
            if with_pair_row {
                combos.push(Combo::pair(ids[0], ids[1]));
                rows.push(vec![PairThroughput::pair(0.9, 0.9)]);
            }
            let combos = ComboSet::new(combos);
            let input = PolicyInput {
                jobs: &jobs,
                combos: &combos,
                tensor: &ThroughputTensor::new(1, rows),
                cluster: &cluster,
            };
            let alloc = policy.compute_allocation(&input).unwrap();
            alloc.validate(&cluster, &Default::default()).unwrap();
            let time_of = |row: usize| alloc.row(row).iter().sum::<f64>();
            (0..combos.len()).map(time_of).collect::<Vec<f64>>()
        };
        let packed = allocate(true);
        assert!(packed[3] > 0.0 && packed[0] == 0.0 && packed[1] == 0.0);
        let kept = policy.state.lock().unwrap().good_pairs.clone();
        assert_eq!(kept, HashSet::from([(ids[0], ids[1])]));

        let unpacked = allocate(false);
        assert!(unpacked.iter().all(|&t| t > 0.0), "{unpacked:?}");
        assert_eq!(allocate(true), packed);
    }

    /// A window of eight consecutive jobs slides over a two-worker
    /// cluster; neighbours can pack, every other pair profitably. Both
    /// verdict sets fill while jobs are present and hold no departed job's
    /// key once every job has left.
    #[test]
    fn verdicts_are_retired_with_their_jobs() {
        let cluster = ClusterSpec::new(&[("v100", 2, 2, 1.0)]);
        let policy = GandivaPolicy::new(5);
        let (mut most_good, mut most_rejected) = (0, 0);
        for first in 0..60u64 {
            let ids: Vec<JobId> = (first..first + 8).map(JobId).collect();
            let jobs: Vec<PolicyJob> = ids.iter().map(|&id| PolicyJob::simple(id, 1.0)).collect();
            let mut combos: Vec<Combo> = ids.iter().map(|&id| Combo::single(id)).collect();
            let mut rows = vec![vec![PairThroughput::single(1.0)]; ids.len()];
            for pair in ids.windows(2) {
                combos.push(Combo::pair(pair[0], pair[1]));
                let each = if pair[0].0 % 2 == 0 { 0.9 } else { 0.4 };
                rows.push(vec![PairThroughput::pair(each, each)]);
            }
            let combos = ComboSet::new(combos);
            let tensor = ThroughputTensor::new(1, rows);
            let input = PolicyInput {
                jobs: &jobs,
                combos: &combos,
                tensor: &tensor,
                cluster: &cluster,
            };
            policy.compute_allocation(&input).unwrap();
            let st = policy.state.lock().unwrap();
            let present = |(a, b): &(JobId, JobId)| ids.contains(a) && ids.contains(b);
            assert!(st.good_pairs.iter().all(present), "{:?}", st.good_pairs);
            assert!(
                st.rejected_pairs.iter().all(present),
                "{:?}",
                st.rejected_pairs
            );
            most_good = most_good.max(st.good_pairs.len());
            most_rejected = most_rejected.max(st.rejected_pairs.len());
        }
        assert!(most_good > 0 && most_rejected > 0, "the run tried no pair");

        let nobody = PolicyInput {
            jobs: &[],
            combos: &ComboSet::default(),
            tensor: &ThroughputTensor::new(1, Vec::new()),
            cluster: &cluster,
        };
        policy.compute_allocation(&nobody).unwrap();
        let st = policy.state.lock().unwrap();
        assert!(st.good_pairs.is_empty() && st.rejected_pairs.is_empty());
    }
}
