//! The synthetic throughput oracle.
//!
//! Substitutes for the paper's measured throughputs (why, and what that
//! preserves: the [crate docs](crate)). The oracle is deterministic and
//! analytic; per-run measurement noise is added by the simulator, not here.
//!
//! Like the paper's profiled tensor (§3.1, §6), it is computed once and then
//! looked up. The closed form below *defines* one process-wide table over
//! Table 2's 26 configurations × [`GpuKind::all`], filled on first use, so
//! every cell is bit-identical to evaluating the formula; the table
//! *answers* [`Oracle::isolated`], [`Oracle::utilization`] and
//! [`Oracle::memory_gb`], and through them every other query. A
//! [`JobConfig`] whose public fields name a batch size Table 2 does not
//! list falls through to the formula. Three sub-models:
//!
//! 1. **Isolated throughput**: per-family base K80 throughput scaled by a
//!    per-generation speedup and a batch-size exponent. Speedups range from
//!    ~2x (A3C) to ~10x (ResNet-50) matching Figure 1a, and the implied
//!    dollar-normalized ranking reproduces Figure 1b's crossovers.
//! 2. **Colocation (space sharing)**: each configuration has a GPU compute
//!    utilization `u` and a memory footprint. A pair fits if the combined
//!    footprint fits in device memory; both jobs slow down by the combined
//!    compute demand when it exceeds the device, plus a small interference
//!    term, yielding the asymmetric Figure 15-style heatmap.
//! 3. **Distributed scaling (placement sensitivity)**: data-parallel
//!    all-reduce time against consolidated (NVLink-class) or unconsolidated
//!    (network-class) bandwidth. Slower GPUs spend longer computing and are
//!    therefore less communication-bound, exactly the effect §3.1 describes.

use crate::clusters::GpuKind;
use crate::models::{JobConfig, ModelFamily};
use std::sync::LazyLock;

/// Per-family performance profile (synthetic, see module docs).
struct Profile {
    /// Iterations/second at the reference batch size on a K80.
    base_k80: f64,
    /// Speedup of a P100 over a K80.
    speedup_p100: f64,
    /// Speedup of a V100 over a K80.
    speedup_v100: f64,
    /// Iterations/second scale as `(ref_batch / batch) ^ batch_exponent`.
    batch_exponent: f64,
    /// GPU memory footprint: `mem_base + mem_per_sample * batch` (GB).
    mem_base_gb: f64,
    /// Additional memory per sample in the batch (GB).
    mem_per_sample_gb: f64,
    /// Compute utilization at the reference batch on a K80 (0..1].
    util_k80: f64,
    /// Gradient volume exchanged per step (MB), for distributed scaling.
    model_size_mb: f64,
}

fn profile(family: ModelFamily) -> Profile {
    match family {
        ModelFamily::ResNet50 => Profile {
            base_k80: 1.5,
            speedup_p100: 4.0,
            speedup_v100: 10.0,
            batch_exponent: 0.80,
            mem_base_gb: 2.5,
            mem_per_sample_gb: 0.060,
            util_k80: 0.85,
            model_size_mb: 100.0,
        },
        ModelFamily::ResNet18 => Profile {
            base_k80: 6.0,
            speedup_p100: 3.0,
            speedup_v100: 6.0,
            batch_exponent: 0.75,
            mem_base_gb: 1.0,
            mem_per_sample_gb: 0.020,
            util_k80: 0.55,
            model_size_mb: 45.0,
        },
        ModelFamily::A3C => Profile {
            base_k80: 4.0,
            speedup_p100: 1.7,
            speedup_v100: 2.0,
            batch_exponent: 0.60,
            mem_base_gb: 1.2,
            mem_per_sample_gb: 0.010,
            util_k80: 0.25,
            model_size_mb: 10.0,
        },
        ModelFamily::Lstm => Profile {
            base_k80: 2.5,
            speedup_p100: 2.5,
            speedup_v100: 4.5,
            batch_exponent: 0.70,
            mem_base_gb: 2.0,
            mem_per_sample_gb: 0.050,
            util_k80: 0.45,
            model_size_mb: 200.0,
        },
        ModelFamily::Transformer => Profile {
            base_k80: 1.8,
            speedup_p100: 3.3,
            speedup_v100: 7.0,
            batch_exponent: 0.72,
            mem_base_gb: 3.0,
            mem_per_sample_gb: 0.050,
            util_k80: 0.75,
            model_size_mb: 250.0,
        },
        ModelFamily::CycleGan => Profile {
            base_k80: 0.8,
            speedup_p100: 2.8,
            speedup_v100: 5.5,
            batch_exponent: 0.85,
            mem_base_gb: 5.0,
            mem_per_sample_gb: 0.200,
            util_k80: 0.90,
            model_size_mb: 50.0,
        },
        ModelFamily::Recoder => Profile {
            base_k80: 3.0,
            speedup_p100: 2.2,
            speedup_v100: 3.5,
            batch_exponent: 0.65,
            mem_base_gb: 2.0,
            mem_per_sample_gb: 0.0015,
            util_k80: 0.40,
            model_size_mb: 150.0,
        },
    }
}

/// Consolidated (same-server, NVLink-class) all-reduce bandwidth, bytes/s.
const BW_CONSOLIDATED: f64 = 80.0e9;
/// Unconsolidated (cross-server network) all-reduce bandwidth, bytes/s.
const BW_UNCONSOLIDATED: f64 = 4.0e9;
/// Throughput retained by each member of a colocated pair even without
/// compute contention (MPS scheduling overhead).
const COLOCATION_BASE_RETENTION: f64 = 0.97;
/// Strength of cross-job interference (cache/memory-bandwidth pressure).
const INTERFERENCE: f64 = 0.12;

/// Closed form of [`Oracle::memory_gb`].
fn memory_closed_form(cfg: JobConfig) -> f64 {
    let p = profile(cfg.family);
    p.mem_base_gb + p.mem_per_sample_gb * cfg.batch_size as f64
}

/// Closed form of [`Oracle::isolated`].
fn isolated_closed_form(cfg: JobConfig, gpu: GpuKind) -> f64 {
    if memory_closed_form(cfg) > gpu.memory_gb() {
        return 0.0;
    }
    let p = profile(cfg.family);
    let speedup = match gpu {
        GpuKind::V100 => p.speedup_v100,
        GpuKind::P100 => p.speedup_p100,
        GpuKind::K80 => 1.0,
    };
    let ref_b = cfg.family.reference_batch() as f64;
    let b = cfg.batch_size as f64;
    p.base_k80 * speedup * (ref_b / b).powf(p.batch_exponent)
}

/// Closed form of [`Oracle::utilization`].
fn utilization_closed_form(cfg: JobConfig, gpu: GpuKind) -> f64 {
    let p = profile(cfg.family);
    let speedup = match gpu {
        GpuKind::V100 => p.speedup_v100,
        GpuKind::P100 => p.speedup_p100,
        GpuKind::K80 => 1.0,
    };
    let ref_b = cfg.family.reference_batch() as f64;
    let b = cfg.batch_size as f64;
    let u = p.util_k80 * (b / ref_b).powf(0.4) / speedup.powf(0.3);
    u.clamp(0.05, 1.0)
}

/// What the closed form says about one Table 2 configuration, per
/// [`GpuKind::all`] column where it depends on the device.
struct Entry {
    memory_gb: f64,
    isolated: [f64; GpuKind::COUNT],
    utilization: [f64; GpuKind::COUNT],
}

/// Table 2 × [`GpuKind::all`] (see the module docs).
struct Table {
    /// Index in `entries` of each family's first configuration, by
    /// `family as usize`.
    first: Vec<usize>,
    /// One entry per configuration, in [`JobConfig::all`] order.
    entries: Vec<Entry>,
}

static TABLE: LazyLock<Table> = LazyLock::new(|| {
    let mut first = vec![0; ModelFamily::all().len()];
    let mut entries = Vec::new();
    for &family in ModelFamily::all() {
        first[family as usize] = entries.len();
        for &batch_size in family.batch_sizes() {
            let cfg = JobConfig { family, batch_size };
            let column = |f: fn(JobConfig, GpuKind) -> f64| {
                std::array::from_fn(|j| f(cfg, GpuKind::all()[j]))
            };
            entries.push(Entry {
                memory_gb: memory_closed_form(cfg),
                isolated: column(isolated_closed_form),
                utilization: column(utilization_closed_form),
            });
        }
    }
    Table { first, entries }
});

/// The table entry of `cfg`; `None` for a batch size Table 2 does not list.
fn entry(cfg: JobConfig) -> Option<&'static Entry> {
    let sizes = cfg.family.batch_sizes();
    let nth = sizes.iter().position(|&b| b == cfg.batch_size)?;
    let table: &'static Table = &TABLE;
    Some(&table.entries[table.first[cfg.family as usize] + nth])
}

/// Deterministic synthetic throughput model for the Table 2 zoo.
///
/// All throughputs are in training iterations per second. See the module
/// docs for the three sub-models. Every instance reads the same
/// process-wide table, so creating one costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    _private: (),
}

impl Oracle {
    /// Creates the oracle.
    pub fn new() -> Self {
        Oracle { _private: () }
    }

    /// Isolated single-accelerator throughput of `cfg` on `gpu`.
    ///
    /// Returns `0.0` when the configuration does not fit in the device's
    /// memory (the paper's `T[m][j] = -inf` convention).
    pub fn isolated(&self, cfg: JobConfig, gpu: GpuKind) -> f64 {
        match entry(cfg) {
            Some(e) => e.isolated[gpu.index().0],
            None => isolated_closed_form(cfg, gpu),
        }
    }

    /// Device-memory footprint of `cfg` in GB.
    pub fn memory_gb(&self, cfg: JobConfig) -> f64 {
        match entry(cfg) {
            Some(e) => e.memory_gb,
            None => memory_closed_form(cfg),
        }
    }

    /// Compute utilization of `cfg` on `gpu` when running alone (0..1].
    ///
    /// Larger batches raise utilization; faster GPUs leave more headroom.
    pub fn utilization(&self, cfg: JobConfig, gpu: GpuKind) -> f64 {
        match entry(cfg) {
            Some(e) => e.utilization[gpu.index().0],
            None => utilization_closed_form(cfg, gpu),
        }
    }

    /// Throughputs of two configurations space-sharing one `gpu`, or `None`
    /// when their combined footprint exceeds device memory.
    ///
    /// The pair is ordered: the first return value is the throughput of
    /// `a`, the second of `b`.
    pub fn colocated(&self, a: JobConfig, b: JobConfig, gpu: GpuKind) -> Option<(f64, f64)> {
        if self.memory_gb(a) + self.memory_gb(b) > gpu.memory_gb() {
            return None;
        }
        let ua = self.utilization(a, gpu);
        let ub = self.utilization(b, gpu);
        let combined = ua + ub;
        let contention = if combined <= 1.0 { 1.0 } else { 1.0 / combined };
        let slow_a = COLOCATION_BASE_RETENTION * contention * (1.0 - INTERFERENCE * ub);
        let slow_b = COLOCATION_BASE_RETENTION * contention * (1.0 - INTERFERENCE * ua);
        Some((
            self.isolated(a, gpu) * slow_a,
            self.isolated(b, gpu) * slow_b,
        ))
    }

    /// Aggregate throughput of a data-parallel job over `scale_factor`
    /// accelerators of type `gpu`.
    ///
    /// Reported as total step-throughput: `scale_factor x` the per-worker
    /// rate times a scaling efficiency that accounts for all-reduce time.
    /// `consolidated` selects NVLink-class versus cross-server bandwidth.
    /// With `scale_factor == 1` this equals [`Oracle::isolated`].
    pub fn distributed(
        &self,
        cfg: JobConfig,
        gpu: GpuKind,
        scale_factor: u32,
        consolidated: bool,
    ) -> f64 {
        let iso = self.isolated(cfg, gpu);
        if scale_factor <= 1 || iso == 0.0 {
            return iso;
        }
        let k = scale_factor as f64;
        let p = profile(cfg.family);
        let t_step = 1.0 / iso;
        let bw = if consolidated {
            BW_CONSOLIDATED
        } else {
            BW_UNCONSOLIDATED
        };
        let comm_bytes = p.model_size_mb * 1.0e6 * 2.0 * (k - 1.0) / k;
        let t_comm = comm_bytes / bw;
        let efficiency = t_step / (t_step + t_comm);
        iso * k * efficiency
    }

    /// Unified throughput query used by tensor builders: dispatches to
    /// [`Oracle::isolated`] or [`Oracle::distributed`].
    pub fn throughput(
        &self,
        cfg: JobConfig,
        gpu: GpuKind,
        scale_factor: u32,
        consolidated: bool,
    ) -> f64 {
        if scale_factor <= 1 {
            self.isolated(cfg, gpu)
        } else {
            self.distributed(cfg, gpu, scale_factor, consolidated)
        }
    }

    /// Dollar-normalized throughput (iterations per dollar) on `gpu`.
    pub fn per_dollar(&self, cfg: JobConfig, gpu: GpuKind) -> f64 {
        self.isolated(cfg, gpu) / (gpu.price_per_hour() / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelFamily as MF;

    fn cfg(f: MF) -> JobConfig {
        JobConfig::new(f, f.reference_batch())
    }

    #[test]
    fn figure1a_speedup_spread() {
        let o = Oracle::new();
        let r50 = cfg(MF::ResNet50);
        let a3c = cfg(MF::A3C);
        let s_r50 = o.isolated(r50, GpuKind::V100) / o.isolated(r50, GpuKind::K80);
        let s_a3c = o.isolated(a3c, GpuKind::V100) / o.isolated(a3c, GpuKind::K80);
        assert!((s_r50 - 10.0).abs() < 1e-9, "ResNet-50 V100:K80 = {s_r50}");
        assert!((s_a3c - 2.0).abs() < 1e-9, "A3C V100:K80 = {s_a3c}");
    }

    #[test]
    fn figure1b_dollar_crossovers() {
        let o = Oracle::new();
        // ResNet-50 is best per-dollar on the V100...
        let r50 = cfg(MF::ResNet50);
        assert!(o.per_dollar(r50, GpuKind::V100) > o.per_dollar(r50, GpuKind::K80));
        assert!(o.per_dollar(r50, GpuKind::V100) > o.per_dollar(r50, GpuKind::P100));
        // ...while A3C is best per-dollar on the K80 (paper §7.3 Cost).
        let a3c = cfg(MF::A3C);
        assert!(o.per_dollar(a3c, GpuKind::K80) > o.per_dollar(a3c, GpuKind::V100));
        assert!(o.per_dollar(a3c, GpuKind::K80) > o.per_dollar(a3c, GpuKind::P100));
    }

    #[test]
    fn batch_size_lowers_iteration_rate() {
        let o = Oracle::new();
        let small = JobConfig::new(MF::ResNet50, 16);
        let large = JobConfig::new(MF::ResNet50, 128);
        for &g in GpuKind::all() {
            assert!(o.isolated(small, g) > o.isolated(large, g));
        }
    }

    #[test]
    fn memory_infeasible_pairs_rejected() {
        let o = Oracle::new();
        let big = JobConfig::new(MF::Recoder, 8192); // ~14.3 GB
        let r50 = JobConfig::new(MF::ResNet50, 64);
        assert!(o.colocated(big, r50, GpuKind::P100).is_none());
        // Two small jobs fit fine.
        let a3c = cfg(MF::A3C);
        let r18 = JobConfig::new(MF::ResNet18, 16);
        assert!(o.colocated(a3c, r18, GpuKind::P100).is_some());
    }

    #[test]
    fn light_pairs_colocate_nearly_free() {
        let o = Oracle::new();
        let a3c = cfg(MF::A3C);
        let (ta, tb) = o.colocated(a3c, a3c, GpuKind::V100).unwrap();
        let iso = o.isolated(a3c, GpuKind::V100);
        // Two A3Cs barely contend: each retains > 90% of isolated speed, so
        // aggregate throughput is ~1.8x.
        assert!(ta / iso > 0.90, "retention {}", ta / iso);
        assert!((ta - tb).abs() < 1e-9, "identical jobs are symmetric");
    }

    #[test]
    fn heavy_pairs_contend() {
        let o = Oracle::new();
        let gan = cfg(MF::CycleGan);
        let r50 = JobConfig::new(MF::ResNet50, 32);
        if let Some((tg, tr)) = o.colocated(gan, r50, GpuKind::K80) {
            let ig = o.isolated(gan, GpuKind::K80);
            let ir = o.isolated(r50, GpuKind::K80);
            // Combined demand well above 1: aggregate normalized throughput
            // must be clearly below 2 (colocation not free).
            let agg = tg / ig + tr / ir;
            assert!(agg < 1.5, "aggregate normalized throughput {agg}");
        } else {
            panic!("pair expected to fit on K80");
        }
    }

    #[test]
    fn interference_is_asymmetric() {
        let o = Oracle::new();
        let a3c = cfg(MF::A3C); // light
        let gan = cfg(MF::CycleGan); // heavy
        let (t_gan, t_a3c) = o.colocated(gan, a3c, GpuKind::V100).unwrap();
        let n_gan = t_gan / o.isolated(gan, GpuKind::V100);
        let n_a3c = t_a3c / o.isolated(a3c, GpuKind::V100);
        // The light job suffers more from the heavy one than vice versa.
        assert!(n_a3c < n_gan, "light {n_a3c} vs heavy {n_gan}");
    }

    #[test]
    fn distributed_scaling_properties() {
        let o = Oracle::new();
        let lstm = JobConfig::new(MF::Lstm, 20); // communication-heavy
        for &g in GpuKind::all() {
            let iso = o.isolated(lstm, g);
            let cons = o.distributed(lstm, g, 4, true);
            let uncons = o.distributed(lstm, g, 4, false);
            // More workers help, consolidation helps more.
            assert!(cons > iso);
            assert!(cons > uncons);
            // Efficiency is sublinear.
            assert!(cons < 4.0 * iso);
        }
        // Slower GPUs are less communication-bound: unconsolidated
        // efficiency is higher on the K80 than the V100.
        let eff = |g: GpuKind| o.distributed(lstm, g, 4, false) / (4.0 * o.isolated(lstm, g));
        assert!(eff(GpuKind::K80) > eff(GpuKind::V100));
    }

    #[test]
    fn scale_factor_one_matches_isolated() {
        let o = Oracle::new();
        let t = JobConfig::new(MF::Transformer, 64);
        for &g in GpuKind::all() {
            assert_eq!(o.distributed(t, g, 1, true), o.isolated(t, g));
            assert_eq!(o.throughput(t, g, 1, false), o.isolated(t, g));
        }
    }

    /// Every cell the table answers is the closed form's value, bit for bit.
    #[test]
    fn table_cells_equal_the_closed_form() {
        let o = Oracle::new();
        for cfg in JobConfig::all() {
            assert!(entry(cfg).is_some(), "{cfg} has no table entry");
            let bits = f64::to_bits;
            assert_eq!(bits(o.memory_gb(cfg)), bits(memory_closed_form(cfg)));
            for &g in GpuKind::all() {
                let (iso, util) = (o.isolated(cfg, g), o.utilization(cfg, g));
                assert_eq!(bits(iso), bits(isolated_closed_form(cfg, g)), "{cfg} {g:?}");
                assert_eq!(
                    bits(util),
                    bits(utilization_closed_form(cfg, g)),
                    "{cfg} {g:?}"
                );
            }
        }
    }

    /// The colocation model written over the closed-form functions only.
    fn colocated_closed_form(a: JobConfig, b: JobConfig, gpu: GpuKind) -> Option<(f64, f64)> {
        if memory_closed_form(a) + memory_closed_form(b) > gpu.memory_gb() {
            return None;
        }
        let ua = utilization_closed_form(a, gpu);
        let ub = utilization_closed_form(b, gpu);
        let combined = ua + ub;
        let contention = if combined <= 1.0 { 1.0 } else { 1.0 / combined };
        let slow_a = COLOCATION_BASE_RETENTION * contention * (1.0 - INTERFERENCE * ub);
        let slow_b = COLOCATION_BASE_RETENTION * contention * (1.0 - INTERFERENCE * ua);
        Some((
            isolated_closed_form(a, gpu) * slow_a,
            isolated_closed_form(b, gpu) * slow_b,
        ))
    }

    #[test]
    fn colocated_equals_the_closed_form_on_every_triple() {
        let o = Oracle::new();
        let bits = |pair: Option<(f64, f64)>| pair.map(|(a, b)| (a.to_bits(), b.to_bits()));
        for a in JobConfig::all() {
            for b in JobConfig::all() {
                for &g in GpuKind::all() {
                    assert_eq!(
                        bits(o.colocated(a, b, g)),
                        bits(colocated_closed_form(a, b, g)),
                        "{a} + {b} on {g:?}"
                    );
                }
            }
        }
    }

    /// `JobConfig`'s fields are public, so a literal can name a batch size
    /// Table 2 does not list; the oracle stays total and evaluates the
    /// formula for it.
    #[test]
    fn unlisted_batch_sizes_fall_through_to_the_formula() {
        let o = Oracle::new();
        let odd = JobConfig {
            family: MF::ResNet50,
            batch_size: 7,
        };
        assert!(entry(odd).is_none());
        assert_eq!(o.memory_gb(odd), memory_closed_form(odd));
        for &g in GpuKind::all() {
            assert_eq!(o.isolated(odd, g), isolated_closed_form(odd, g));
            assert_eq!(o.utilization(odd, g), utilization_closed_form(odd, g));
            assert_eq!(
                o.colocated(odd, cfg(MF::A3C), g),
                colocated_closed_form(odd, cfg(MF::A3C), g)
            );
            assert_eq!(o.throughput(odd, g, 1, true), o.isolated(odd, g));
        }
        assert!(o.isolated(odd, GpuKind::V100) > 0.0);
    }

    #[test]
    fn all_26_configs_run_on_the_v100() {
        let o = Oracle::new();
        for cfg in JobConfig::all() {
            assert!(o.isolated(cfg, GpuKind::V100) > 0.0, "{cfg} on V100");
        }
    }

    #[test]
    fn oversized_configs_cannot_run_on_the_k80() {
        let o = Oracle::new();
        // Recoder at batch 8192 needs ~14.3 GB, more than the K80's 12 GB.
        let big = JobConfig::new(MF::Recoder, 8192);
        assert_eq!(o.isolated(big, GpuKind::K80), 0.0);
        assert_eq!(o.distributed(big, GpuKind::K80, 4, true), 0.0);
        // It still runs on the 16 GB parts.
        assert!(o.isolated(big, GpuKind::V100) > 0.0);
        assert!(o.isolated(big, GpuKind::P100) > 0.0);
    }
}
