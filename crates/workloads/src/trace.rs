//! Trace generators for the evaluation's workloads (§7.1).
//!
//! Two trace shapes are used in the paper: *continuous* traces with Poisson
//! job arrivals at rate λ, and *static* traces where every job is present
//! at time zero. Job configurations are sampled uniformly from the 26
//! Table 2 configurations; durations span `10^1.5` to `10^4` minutes
//! following Gandiva's methodology; scale factors follow the Microsoft
//! trace mix (70% one worker, 25% two-to-four, 5% eight).

use crate::clusters::GpuKind;
use crate::models::JobConfig;
use crate::oracle::Oracle;
use gavel_core::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Job arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given rate (the continuous traces).
    Poisson {
        /// Mean number of job arrivals per hour (λ).
        jobs_per_hour: f64,
    },
    /// All jobs available at time zero (the static traces).
    AllAtStart,
}

/// Distribution of per-job worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFactorMix {
    /// Every job uses a single worker ("continuous-single").
    SingleOnly,
    /// The Microsoft-trace mix ("continuous-multiple"): 70% one worker,
    /// 25% two or four, 5% eight.
    Microsoft,
}

/// Sampled durations are `10^u` minutes with `u` uniform between these
/// exponents — the Gandiva-style spread between `10^1.5` and `10^4`
/// minutes (§7.1).
const DURATION_EXP: std::ops::Range<f64> = 1.5..4.0;

/// Configuration of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Worker-count mix.
    pub scale_mix: ScaleFactorMix,
    /// Upper bound on sampled scale factors. The Microsoft mix emits jobs
    /// of up to 8 workers, which can never be placed on clusters with
    /// fewer than 8 workers of any single type (a Gavel job runs on one
    /// accelerator type at a time); cap the mix when targeting such a
    /// cluster, e.g. via [`TraceConfig::capped_for`].
    pub max_scale_factor: u32,
    /// RNG seed (each sweep point uses several seeds).
    pub seed: u64,
}

impl TraceConfig {
    /// A continuous single-worker trace at rate λ.
    pub fn continuous_single(jobs_per_hour: f64, num_jobs: usize, seed: u64) -> Self {
        TraceConfig {
            arrival: ArrivalProcess::Poisson { jobs_per_hour },
            num_jobs,
            scale_mix: ScaleFactorMix::SingleOnly,
            max_scale_factor: u32::MAX,
            seed,
        }
    }

    /// A continuous trace with the Microsoft scale-factor mix.
    pub fn continuous_multiple(jobs_per_hour: f64, num_jobs: usize, seed: u64) -> Self {
        TraceConfig {
            arrival: ArrivalProcess::Poisson { jobs_per_hour },
            num_jobs,
            scale_mix: ScaleFactorMix::Microsoft,
            max_scale_factor: u32::MAX,
            seed,
        }
    }

    /// A static trace (all jobs at time zero), single-worker.
    pub fn static_single(num_jobs: usize, seed: u64) -> Self {
        TraceConfig {
            arrival: ArrivalProcess::AllAtStart,
            num_jobs,
            scale_mix: ScaleFactorMix::SingleOnly,
            max_scale_factor: u32::MAX,
            seed,
        }
    }

    /// A static trace with the Microsoft scale-factor mix.
    pub fn static_multiple(num_jobs: usize, seed: u64) -> Self {
        TraceConfig {
            arrival: ArrivalProcess::AllAtStart,
            num_jobs,
            scale_mix: ScaleFactorMix::Microsoft,
            max_scale_factor: u32::MAX,
            seed,
        }
    }

    /// Caps sampled scale factors at `max` (larger draws are clamped, not
    /// re-drawn, so the rest of the trace is unchanged).
    pub fn with_max_scale_factor(mut self, max: u32) -> Self {
        assert!(max > 0, "scale factor cap must be positive");
        self.max_scale_factor = max;
        self
    }

    /// Caps scale factors at the largest job `cluster` can physically host:
    /// the maximum worker count of any single accelerator type. A Gavel job
    /// runs all its workers on one type at a time, so anything bigger can
    /// never be scheduled and would sit in the queue forever.
    pub fn capped_for(self, cluster: &gavel_core::ClusterSpec) -> Self {
        let max = cluster
            .types()
            .map(|j| cluster.num_workers(j))
            .max()
            .unwrap_or(1)
            .max(1) as u32;
        self.with_max_scale_factor(max)
    }
}

/// One job of a generated trace.
#[derive(Debug, Clone)]
pub struct TraceJob {
    /// Stable identifier (dense, in arrival order).
    pub id: JobId,
    /// Model configuration.
    pub config: JobConfig,
    /// Arrival time in seconds from trace start.
    pub arrival_time: f64,
    /// Number of workers used at a time.
    pub scale_factor: u32,
    /// Total training iterations the job must complete.
    pub total_steps: f64,
    /// The sampled target duration (seconds on dedicated fastest hardware);
    /// `total_steps` is derived from it.
    pub duration_seconds: f64,
    /// Fair-share weight (1.0 unless an experiment overrides it).
    pub weight: f64,
    /// SLO as a multiple of `duration_seconds` (None = no SLO).
    pub slo_factor: Option<f64>,
    /// Entity for hierarchical policies (None = flat).
    pub entity: Option<usize>,
}

impl TraceJob {
    /// Absolute SLO deadline in seconds from trace start, if any.
    pub fn slo_deadline(&self) -> Option<f64> {
        self.slo_factor
            .map(|f| self.arrival_time + f * self.duration_seconds)
    }
}

/// Generates a trace. Deterministic in `cfg.seed`.
///
/// `total_steps` is computed as the sampled duration times the job's
/// throughput on dedicated V100s (its fastest placement), so the duration
/// is the job's ideal completion time and heterogeneity-aware schedulers
/// can only do worse or equal on a shared cluster.
pub fn generate(cfg: &TraceConfig, oracle: &Oracle) -> Vec<TraceJob> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let configs = JobConfig::all();
    let mut jobs = Vec::with_capacity(cfg.num_jobs);
    let mut t = 0.0f64;
    for i in 0..cfg.num_jobs {
        let arrival_time = match cfg.arrival {
            ArrivalProcess::AllAtStart => 0.0,
            ArrivalProcess::Poisson { jobs_per_hour } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let gap_hours = -u.ln() / jobs_per_hour;
                t += gap_hours * 3600.0;
                t
            }
        };
        let scale_factor = sample_scale_factor(cfg.scale_mix, &mut rng).min(cfg.max_scale_factor);
        // Re-draw configurations that cannot run at this scale factor on a
        // V100 (none today, but keeps the invariant future-proof).
        let config = loop {
            let c = configs[rng.gen_range(0..configs.len())];
            if oracle.throughput(c, GpuKind::V100, scale_factor, true) > 0.0 {
                break c;
            }
        };
        let duration_seconds = sample_duration_seconds(&mut rng);
        let reference_tput = oracle.throughput(config, GpuKind::V100, scale_factor, true);
        let total_steps = duration_seconds * reference_tput;
        jobs.push(TraceJob {
            id: JobId(i as u64),
            config,
            arrival_time,
            scale_factor,
            total_steps,
            duration_seconds,
            weight: 1.0,
            slo_factor: None,
            entity: None,
        });
    }
    jobs
}

/// Marks a random `fraction` of jobs as high priority with the given
/// weight (the LAS-with-priorities experiment, Figure 20).
pub fn assign_priorities(jobs: &mut [TraceJob], fraction: f64, weight: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for j in jobs.iter_mut() {
        if rng.gen_bool(fraction) {
            j.weight = weight;
        }
    }
}

/// Assigns jobs round-robin to `num_entities` entities (hierarchical
/// experiments).
pub fn assign_entities(jobs: &mut [TraceJob], num_entities: usize) {
    for (i, j) in jobs.iter_mut().enumerate() {
        j.entity = Some(i % num_entities);
    }
}

/// Builds the §7.3 cost-policy workload: `n` jobs split between ResNet-50
/// and A3C, durations drawn from {0.5, 1, 2, 4, 8} days, SLO factors drawn
/// from {1.2, 2, 10}, arriving as a Poisson stream at `jobs_per_hour`
/// (pass 0.0 for an all-at-start batch).
pub fn cost_workload(n: usize, jobs_per_hour: f64, oracle: &Oracle, seed: u64) -> Vec<TraceJob> {
    use crate::models::ModelFamily;
    let mut rng = StdRng::seed_from_u64(seed);
    let day = 24.0 * 3600.0;
    let durations = [0.5 * day, day, 2.0 * day, 4.0 * day, 8.0 * day];
    let slos = [1.2, 2.0, 10.0];
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        let config = if rng.gen_bool(0.5) {
            JobConfig::new(ModelFamily::ResNet50, 64)
        } else {
            JobConfig::new(ModelFamily::A3C, 4)
        };
        let duration_seconds = durations[rng.gen_range(0..durations.len())];
        let slo_factor = slos[rng.gen_range(0..slos.len())];
        let reference_tput = oracle.isolated(config, GpuKind::V100);
        let arrival_time = if jobs_per_hour > 0.0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / jobs_per_hour * 3600.0;
            t
        } else {
            0.0
        };
        jobs.push(TraceJob {
            id: JobId(i as u64),
            config,
            arrival_time,
            scale_factor: 1,
            total_steps: duration_seconds * reference_tput,
            duration_seconds,
            weight: 1.0,
            slo_factor: Some(slo_factor),
            entity: None,
        });
    }
    jobs
}

fn sample_scale_factor(mix: ScaleFactorMix, rng: &mut StdRng) -> u32 {
    match mix {
        ScaleFactorMix::SingleOnly => 1,
        ScaleFactorMix::Microsoft => {
            let u: f64 = rng.gen();
            if u < 0.70 {
                1
            } else if u < 0.95 {
                if rng.gen_bool(0.5) {
                    2
                } else {
                    4
                }
            } else {
                8
            }
        }
    }
}

fn sample_duration_seconds(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(DURATION_EXP);
    10f64.powf(u) * 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_cap_respects_cluster() {
        let o = Oracle::new();
        let cluster = crate::clusters::cluster_twelve(); // 4 workers per type
        let cfg = TraceConfig::continuous_multiple(3.0, 500, 9).capped_for(&cluster);
        assert_eq!(cfg.max_scale_factor, 4);
        let jobs = generate(&cfg, &o);
        assert!(jobs.iter().all(|j| j.scale_factor <= 4));
        // Clamping must not desync the RNG stream: everything except the
        // clamped scale factors (and the steps derived from them) matches
        // the uncapped trace.
        let raw = generate(&TraceConfig::continuous_multiple(3.0, 500, 9), &o);
        assert!(raw.iter().any(|j| j.scale_factor == 8));
        for (c, r) in jobs.iter().zip(&raw) {
            assert_eq!(c.arrival_time, r.arrival_time);
            assert_eq!(c.config, r.config);
            assert_eq!(c.scale_factor, r.scale_factor.min(4));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let o = Oracle::new();
        let cfg = TraceConfig::continuous_single(3.0, 50, 42);
        let a = generate(&cfg, &o);
        let b = generate(&cfg, &o);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_time, y.arrival_time);
            assert_eq!(x.config, y.config);
            assert_eq!(x.total_steps, y.total_steps);
        }
        let c = generate(&TraceConfig::continuous_single(3.0, 50, 43), &o);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.config != y.config || (x.arrival_time - y.arrival_time).abs() > 1e-9));
    }

    #[test]
    fn poisson_arrivals_increase_and_match_rate() {
        let o = Oracle::new();
        let cfg = TraceConfig::continuous_single(6.0, 600, 7);
        let jobs = generate(&cfg, &o);
        for w in jobs.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
        // Mean inter-arrival should be ~1/6 hour = 600 s (within 15%).
        let span = jobs.last().unwrap().arrival_time - jobs[0].arrival_time;
        let mean_gap = span / (jobs.len() - 1) as f64;
        assert!((mean_gap - 600.0).abs() < 90.0, "mean gap {mean_gap}");
    }

    #[test]
    fn static_trace_all_at_zero() {
        let o = Oracle::new();
        let jobs = generate(&TraceConfig::static_multiple(100, 1), &o);
        assert!(jobs.iter().all(|j| j.arrival_time == 0.0));
    }

    #[test]
    fn durations_in_gandiva_range() {
        let o = Oracle::new();
        let jobs = generate(&TraceConfig::continuous_single(3.0, 300, 5), &o);
        for j in &jobs {
            let minutes = j.duration_seconds / 60.0;
            assert!(minutes >= 10f64.powf(1.5) - 1e-6);
            assert!(minutes <= 10f64.powf(4.0) + 1e-6);
            assert!(j.total_steps > 0.0);
        }
    }

    #[test]
    fn microsoft_mix_proportions() {
        let o = Oracle::new();
        let jobs = generate(&TraceConfig::continuous_multiple(3.0, 2000, 9), &o);
        let single = jobs.iter().filter(|j| j.scale_factor == 1).count() as f64;
        let eight = jobs.iter().filter(|j| j.scale_factor == 8).count() as f64;
        let mid = jobs
            .iter()
            .filter(|j| j.scale_factor == 2 || j.scale_factor == 4)
            .count() as f64;
        let n = jobs.len() as f64;
        assert!((single / n - 0.70).abs() < 0.05);
        assert!((mid / n - 0.25).abs() < 0.05);
        assert!((eight / n - 0.05).abs() < 0.03);
    }

    #[test]
    fn priorities_and_entities() {
        let o = Oracle::new();
        let mut jobs = generate(&TraceConfig::continuous_single(3.0, 500, 3), &o);
        assign_priorities(&mut jobs, 0.2, 5.0, 11);
        let high = jobs.iter().filter(|j| j.weight > 1.0).count() as f64;
        assert!((high / 500.0 - 0.2).abs() < 0.08);
        assign_entities(&mut jobs, 3);
        assert_eq!(jobs[0].entity, Some(0));
        assert_eq!(jobs[4].entity, Some(1));
    }

    #[test]
    fn cost_workload_structure() {
        let o = Oracle::new();
        let jobs = cost_workload(500, 0.0, &o, 21);
        assert_eq!(jobs.len(), 500);
        for j in &jobs {
            assert!(j.slo_factor.is_some());
            let days = j.duration_seconds / 86_400.0;
            assert!([0.5, 1.0, 2.0, 4.0, 8.0]
                .iter()
                .any(|d| (days - d).abs() < 1e-9));
        }
        let r50 = jobs
            .iter()
            .filter(|j| j.config.family == crate::models::ModelFamily::ResNet50)
            .count();
        assert!(r50 > 200 && r50 < 300);
    }

    #[test]
    fn slo_deadline_computation() {
        let o = Oracle::new();
        let jobs = cost_workload(10, 0.0, &o, 2);
        for j in &jobs {
            let d = j.slo_deadline().unwrap();
            assert!(d >= j.duration_seconds * 1.2 - 1e-6);
        }
    }
}
