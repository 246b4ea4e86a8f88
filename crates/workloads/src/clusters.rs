//! GPU kinds, prices, and the cluster presets used in the evaluation.

use gavel_core::{AccelIdx, ClusterSpec};

/// The three GPU generations of the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuKind {
    /// NVIDIA V100 (16 GB).
    V100,
    /// NVIDIA P100 (16 GB).
    P100,
    /// NVIDIA K80 (12 GB).
    K80,
}

impl GpuKind {
    /// Number of kinds: the width of every throughput row in this repo.
    pub const COUNT: usize = 3;

    /// All kinds, in the column order used by every tensor in this repo
    /// (V100 = 0, P100 = 1, K80 = 2).
    pub fn all() -> &'static [GpuKind] {
        const ALL: [GpuKind; GpuKind::COUNT] = [GpuKind::V100, GpuKind::P100, GpuKind::K80];
        &ALL
    }

    /// Column index of this kind within a standard 3-type cluster.
    pub fn index(&self) -> AccelIdx {
        match self {
            GpuKind::V100 => AccelIdx(0),
            GpuKind::P100 => AccelIdx(1),
            GpuKind::K80 => AccelIdx(2),
        }
    }

    /// Kind for a standard column index.
    ///
    /// # Panics
    ///
    /// Panics for indices greater than 2.
    pub fn from_index(j: AccelIdx) -> GpuKind {
        match j.0 {
            0 => GpuKind::V100,
            1 => GpuKind::P100,
            2 => GpuKind::K80,
            _ => panic!("no GPU kind for accelerator index {}", j.0),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GpuKind::V100 => "v100",
            GpuKind::P100 => "p100",
            GpuKind::K80 => "k80",
        }
    }

    /// Device memory in gigabytes.
    pub fn memory_gb(&self) -> f64 {
        match self {
            GpuKind::V100 => 16.0,
            GpuKind::P100 => 16.0,
            GpuKind::K80 => 12.0,
        }
    }

    /// GCP on-demand price in dollars per hour (2020 list prices, as used
    /// for the paper's Figure 1b normalization).
    pub fn price_per_hour(&self) -> f64 {
        match self {
            GpuKind::V100 => 2.48,
            GpuKind::P100 => 1.46,
            GpuKind::K80 => 0.45,
        }
    }
}

/// The paper's physical cluster: 8 V100s, 16 P100s, 24 K80s (48 GPUs).
pub fn cluster_physical() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 8, 8, GpuKind::V100.price_per_hour()),
        ("p100", 16, 4, GpuKind::P100.price_per_hour()),
        ("k80", 24, 8, GpuKind::K80.price_per_hour()),
    ])
}

/// The paper's simulated cluster: 36 of each type (108 GPUs).
pub fn cluster_simulated() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 36, 4, GpuKind::V100.price_per_hour()),
        ("p100", 36, 4, GpuKind::P100.price_per_hour()),
        ("k80", 36, 8, GpuKind::K80.price_per_hour()),
    ])
}

/// The small cluster used for the hierarchical-policy timelines (Figure 11):
/// 3 of each type.
pub fn cluster_small() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 3, 3, GpuKind::V100.price_per_hour()),
        ("p100", 3, 3, GpuKind::P100.price_per_hour()),
        ("k80", 3, 3, GpuKind::K80.price_per_hour()),
    ])
}

/// The 12-GPU cluster of the throughput-estimator experiment (Figure 14):
/// 4 of each type.
pub fn cluster_twelve() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 4, 4, GpuKind::V100.price_per_hour()),
        ("p100", 4, 4, GpuKind::P100.price_per_hour()),
        ("k80", 4, 4, GpuKind::K80.price_per_hour()),
    ])
}

/// A scaled cluster with `n` GPUs of each type (used by the scalability
/// experiments of Figure 12, which grow the cluster with the job count).
pub fn cluster_scaled(n: usize) -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", n, 4, GpuKind::V100.price_per_hour()),
        ("p100", n, 4, GpuKind::P100.price_per_hour()),
        ("k80", n, 8, GpuKind::K80.price_per_hour()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sizes_match_paper() {
        assert_eq!(cluster_physical().total_workers(), 48);
        assert_eq!(cluster_simulated().total_workers(), 108);
        assert_eq!(cluster_small().total_workers(), 9);
        assert_eq!(cluster_twelve().total_workers(), 12);
    }

    #[test]
    fn kind_index_round_trip() {
        for &k in GpuKind::all() {
            assert_eq!(GpuKind::from_index(k.index()), k);
        }
    }

    #[test]
    fn k80_is_cheapest_v100_most_expensive() {
        assert!(GpuKind::K80.price_per_hour() < GpuKind::P100.price_per_hour());
        assert!(GpuKind::P100.price_per_hour() < GpuKind::V100.price_per_hour());
    }

    #[test]
    fn cluster_columns_align_with_gpukind() {
        let c = cluster_simulated();
        for &k in GpuKind::all() {
            assert_eq!(c.name(k.index()), k.name());
        }
    }
}
