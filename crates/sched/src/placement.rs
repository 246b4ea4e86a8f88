//! Server-level placement of scheduled combos.
//!
//! Distributed jobs scale markedly better when their workers share a
//! physical server (§2.2 placement sensitivity), so the placement pass
//! assigns combos to concrete worker slots, largest jobs first, using
//! best-fit onto single servers and falling back to a spread placement.

use gavel_core::{AccelIdx, ClusterSpec};
use std::cmp::Reverse;

/// A concrete accelerator slot: (type, server, index-within-server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerSlot {
    /// Accelerator type.
    pub accel: AccelIdx,
    /// Server index within the type.
    pub server: usize,
    /// Slot index within the server.
    pub slot: usize,
}

/// Free-slot tracking for scheduling rounds: [`PlacementState::reset`]
/// starts a round, [`PlacementState::allocate`] hands slots out.
#[derive(Debug, Clone, Default)]
pub struct PlacementState {
    /// Free slots per server, the types' servers one after another: type
    /// `j` owns `free[start[j]..start[j + 1]]`.
    free: Vec<usize>,
    start: Vec<usize>,
    /// Free slots per type and overall (a planner stops at zero).
    free_of: Vec<usize>,
    free_total: usize,
    /// What a round starts from, laid out like `free`: the healthy
    /// cluster's `nominal` slots with the downed workers taken out.
    usable: Vec<usize>,
    nominal: Vec<usize>,
}

impl PlacementState {
    /// Builds the all-free state for a cluster.
    pub fn new(cluster: &ClusterSpec) -> Self {
        let servers = cluster.types().map(|j| cluster.num_servers(j)).sum();
        let mut nominal = Vec::with_capacity(servers);
        let mut start = vec![0];
        for j in cluster.types() {
            let per = cluster.workers_per_server(j);
            let total = cluster.num_workers(j);
            nominal.resize(nominal.len() + total / per, per);
            if total % per > 0 {
                nominal.push(total % per);
            }
            start.push(nominal.len());
        }
        let mut st = PlacementState {
            free: nominal.clone(),
            free_of: vec![0; start.len() - 1],
            start,
            usable: nominal.clone(),
            nominal,
            free_total: 0,
        };
        st.reset(None);
        st
    }

    /// Builds the state with reduced per-type availability (failed workers
    /// removed). Downed slots are taken from the emptiest servers first so
    /// the healthy servers keep their consolidation potential.
    pub fn with_available(cluster: &ClusterSpec, available: &[usize]) -> Self {
        let mut st = PlacementState::new(cluster);
        st.reset(Some(available));
        st
    }

    /// Frees every usable slot for a new round. `available` gives the
    /// workers up per type (`None`, a missing entry, or more than the type
    /// has: all of them); the downed slots are recomputed only for a type
    /// whose count changed since the last reset.
    pub fn reset(&mut self, available: Option<&[usize]>) {
        for j in 0..self.free_of.len() {
            let servers = self.start[j]..self.start[j + 1];
            let nominal = &self.nominal[servers.clone()];
            let total: usize = nominal.iter().sum();
            let want = available
                .and_then(|av| av.get(j))
                .map_or(total, |&av| av.min(total));
            let usable = &mut self.usable[servers];
            if want != usable.iter().sum() {
                usable.copy_from_slice(nominal);
                let mut to_remove = total - want;
                // Remove from the smallest non-empty server.
                while let Some(s) = (0..usable.len())
                    .filter(|&s| usable[s] > 0 && to_remove > 0)
                    .min_by_key(|&s| usable[s])
                {
                    let take = usable[s].min(to_remove);
                    usable[s] -= take;
                    to_remove -= take;
                }
            }
            self.free_of[j] = want;
        }
        self.free.copy_from_slice(&self.usable);
        self.free_total = self.free_of.iter().sum();
    }

    /// Total free slots over all types.
    pub fn free_total(&self) -> usize {
        self.free_total
    }

    /// Attempts to allocate `count` slots of type `j`.
    ///
    /// Returns the allocated slots and whether the placement is
    /// *consolidated* (all on one server). Uses best-fit (the fullest
    /// server that still fits) to minimize fragmentation; spreads across
    /// servers only when no single server fits. Returns `None` when fewer
    /// than `count` slots remain in total.
    pub fn allocate(&mut self, j: AccelIdx, count: usize) -> Option<(Vec<WorkerSlot>, bool)> {
        if count == 0 || self.free_of[j.0] < count {
            return None;
        }
        self.free_of[j.0] -= count;
        self.free_total -= count;
        let servers = &mut self.free[self.start[j.0]..self.start[j.0 + 1]];
        // Best fit: the server with the smallest sufficient free count.
        let fit = servers
            .iter()
            .enumerate()
            .filter(|(_, &f)| f >= count)
            .min_by_key(|(_, &f)| f)
            .map(|(s, _)| s);
        let mut out = Vec::with_capacity(count);
        let mut take = |servers: &mut [usize], s: usize, n: usize| {
            for _ in 0..n {
                servers[s] -= 1;
                out.push(WorkerSlot {
                    accel: j,
                    server: s,
                    slot: servers[s],
                });
            }
        };
        match fit {
            Some(s) => take(servers, s, count),
            None => {
                // Spread across servers, fullest first to pack tightly
                // (the lowest index among equally full ones).
                let mut need = count;
                while need > 0 {
                    let fullest = (0..servers.len()).min_by_key(|&s| Reverse(servers[s]));
                    let Some(s) = fullest.filter(|&s| servers[s] > 0) else {
                        break;
                    };
                    let n = servers[s].min(need);
                    take(servers, s, n);
                    need -= n;
                }
                debug_assert_eq!(need, 0);
            }
        }
        Some((out, fit.is_some() || count == 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        // 8 V100 on one 8-slot server; 8 P100 across two 4-slot servers.
        ClusterSpec::new(&[("v100", 8, 8, 0.0), ("p100", 8, 4, 0.0)])
    }

    #[test]
    fn consolidated_when_server_fits() {
        let mut st = PlacementState::new(&cluster());
        let (slots, consolidated) = st.allocate(AccelIdx(0), 8).unwrap();
        assert_eq!(slots.len(), 8);
        assert!(consolidated);
        assert!(slots.iter().all(|s| s.server == 0));
    }

    #[test]
    fn spread_when_no_server_fits() {
        let mut st = PlacementState::new(&cluster());
        let (slots, consolidated) = st.allocate(AccelIdx(1), 8).unwrap();
        assert_eq!(slots.len(), 8);
        assert!(
            !consolidated,
            "8 slots across 4-slot servers cannot consolidate"
        );
        let servers: std::collections::HashSet<usize> = slots.iter().map(|s| s.server).collect();
        assert_eq!(servers.len(), 2);
    }

    #[test]
    fn best_fit_prefers_fuller_server() {
        let mut st = PlacementState::new(&cluster());
        // Occupy 3 of server 0's P100 slots, leaving 1 free there.
        st.allocate(AccelIdx(1), 3).unwrap();
        // A 1-slot request should take the 1-slot hole, not break the
        // empty server.
        let (slots, _) = st.allocate(AccelIdx(1), 1).unwrap();
        assert_eq!(slots[0].server, 0);
        // A 4-slot request still fits consolidated on server 1.
        let (slots, consolidated) = st.allocate(AccelIdx(1), 4).unwrap();
        assert!(consolidated);
        assert!(slots.iter().all(|s| s.server == 1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut st = PlacementState::new(&cluster());
        assert!(st.allocate(AccelIdx(0), 9).is_none());
        st.allocate(AccelIdx(0), 8).unwrap();
        assert!(st.allocate(AccelIdx(0), 1).is_none());
    }

    #[test]
    fn partial_last_server() {
        let c = ClusterSpec::new(&[("x", 10, 4, 0.0)]);
        let st = PlacementState::new(&c);
        assert_eq!(st.free_total(), 10);
        assert_eq!(st.free, [4, 4, 2]);
    }

    #[test]
    fn reset_tracks_availability() {
        // One reused state against a fresh one, as workers go down and
        // come back; availability beyond the cluster saturates.
        let c = cluster();
        let mut reused = PlacementState::new(&c);
        for available in [
            Some(vec![8, 5]),
            Some(vec![8, 5]),
            Some(vec![3, 8]),
            None,
            Some(vec![0, 99]),
            Some(vec![2]),
        ] {
            reused.allocate(AccelIdx(1), 3);
            reused.reset(available.as_deref());
            let fresh = match &available {
                Some(av) => PlacementState::with_available(&c, av),
                None => PlacementState::new(&c),
            };
            assert_eq!(reused.free, fresh.free, "{available:?}");
            assert_eq!(reused.free_of, fresh.free_of);
            assert_eq!(reused.free_total(), fresh.free_total());
        }
        // Downed slots come off the emptiest server first.
        let c = ClusterSpec::new(&[("x", 10, 4, 0.0)]);
        assert_eq!(PlacementState::with_available(&c, &[7]).free, [3, 4, 0]);
    }

    #[test]
    fn single_worker_always_consolidated() {
        let mut st = PlacementState::new(&cluster());
        st.allocate(AccelIdx(1), 3).unwrap();
        st.allocate(AccelIdx(1), 4).unwrap();
        let (_, consolidated) = st.allocate(AccelIdx(1), 1).unwrap();
        assert!(consolidated);
    }
}
