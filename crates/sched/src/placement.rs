//! Server-level placement of scheduled combos.
//!
//! Distributed jobs scale markedly better when their workers share a
//! physical server (§2.2 placement sensitivity), so the placement pass
//! assigns combos to concrete worker slots, largest jobs first, using
//! best-fit onto single servers and falling back to a spread placement.
//! The slots a round hands out go into one list the state reuses from
//! round to round; an allocation is a [`Workers`] range of it.

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

/// The worker slots one [`PlacementState::allocate`] took: a range of
/// the round's slot list, read with [`PlacementState::slots`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Workers {
    start: u32,
    len: u32,
}

impl Workers {
    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no slot was taken.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
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
    /// The slots handed out since the last reset, in allocation order;
    /// sized for the whole cluster once, so it never grows.
    slots: Vec<WorkerSlot>,
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
            slots: Vec::with_capacity(nominal.iter().sum()),
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

    /// Frees every usable slot for a new round and forgets the slots
    /// handed out in the last one. `available` gives the
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
        self.slots.clear();
    }

    /// Total free slots over all types.
    pub fn free_total(&self) -> usize {
        self.free_total
    }

    /// The slots of `workers`, an allocation made since the last reset
    /// (empty for one that is not).
    pub fn slots(&self, workers: Workers) -> &[WorkerSlot] {
        let start = workers.start as usize;
        (self.slots)
            .get(start..start + workers.len())
            .unwrap_or_default()
    }

    /// Attempts to allocate `count` slots of type `j`.
    ///
    /// Returns the allocated slots and whether the placement is
    /// *consolidated* (all on one server). Uses best-fit (the fullest
    /// server that still fits) to minimize fragmentation; spreads across
    /// servers only when no single server fits. Returns `None` when fewer
    /// than `count` slots remain in total.
    pub fn allocate(&mut self, j: AccelIdx, count: usize) -> Option<(Workers, bool)> {
        if count == 0 || self.free_of[j.0] < count {
            return None;
        }
        self.free_of[j.0] -= count;
        self.free_total -= count;
        let servers = &mut self.free[self.start[j.0]..self.start[j.0 + 1]];
        // Best fit: the first server with the smallest sufficient free
        // count; an exact fit cannot be beaten.
        let mut fit = None;
        let mut tightest = usize::MAX;
        for (s, &f) in servers.iter().enumerate() {
            if f >= count && f < tightest {
                (fit, tightest) = (Some(s), f);
                if f == count {
                    break;
                }
            }
        }
        let workers = Workers {
            start: self.slots.len() as u32,
            len: count as u32,
        };
        let out = &mut self.slots;
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
        Some((workers, fit.is_some() || count == 1))
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
        let (workers, consolidated) = st.allocate(AccelIdx(0), 8).unwrap();
        assert_eq!(workers.len(), 8);
        assert!(consolidated);
        assert!(st.slots(workers).iter().all(|s| s.server == 0));
    }

    #[test]
    fn spread_when_no_server_fits() {
        let mut st = PlacementState::new(&cluster());
        let (workers, consolidated) = st.allocate(AccelIdx(1), 8).unwrap();
        assert_eq!(st.slots(workers).len(), 8);
        assert!(
            !consolidated,
            "8 slots across 4-slot servers cannot consolidate"
        );
        let servers: std::collections::HashSet<usize> =
            st.slots(workers).iter().map(|s| s.server).collect();
        assert_eq!(servers.len(), 2);
    }

    #[test]
    fn best_fit_prefers_fuller_server() {
        let mut st = PlacementState::new(&cluster());
        // Occupy 3 of server 0's P100 slots, leaving 1 free there.
        st.allocate(AccelIdx(1), 3).unwrap();
        // A 1-slot request should take the 1-slot hole, not break the
        // empty server.
        let (workers, _) = st.allocate(AccelIdx(1), 1).unwrap();
        assert_eq!(st.slots(workers)[0].server, 0);
        // A 4-slot request still fits consolidated on server 1.
        let (workers, consolidated) = st.allocate(AccelIdx(1), 4).unwrap();
        assert!(consolidated);
        assert!(st.slots(workers).iter().all(|s| s.server == 1));
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

    /// A round's slots go into one list, cleared by the next reset and
    /// never grown: a range is read back until then, and not after.
    #[test]
    fn slots_live_in_one_list_reused_across_rounds() {
        let mut st = PlacementState::new(&cluster());
        let list = (st.slots.as_ptr(), st.slots.capacity());
        for _ in 0..3 {
            let (a, _) = st.allocate(AccelIdx(1), 3).unwrap();
            let (b, _) = st.allocate(AccelIdx(0), 8).unwrap();
            let (c, _) = st.allocate(AccelIdx(1), 5).unwrap();
            assert_eq!(st.free_total(), 0);
            assert_eq!([a.len(), b.len(), c.len()], [3, 8, 5]);
            let all: std::collections::HashSet<WorkerSlot> = [a, b, c]
                .iter()
                .flat_map(|&w| st.slots(w).iter().copied())
                .collect();
            assert_eq!(all.len(), 16, "every slot handed out once");
            assert!(st.slots(b).iter().all(|s| s.accel == AccelIdx(0)));
            st.reset(None);
            assert!(st.slots(b).is_empty());
            assert_eq!((st.slots.as_ptr(), st.slots.capacity()), list);
        }
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
