//! Simulator configuration.

use gavel_core::ClusterSpec;
use gavel_workloads::PairOptions;

/// When the policy's allocation is recomputed: on reset events (§3: "Gavel
/// can recompute its policy either when a reset event occurs ... or at
/// periodic intervals"), at most once every `n` rounds if throttled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeCadence {
    /// On job arrivals and completions only (the default).
    OnReset,
    /// On reset events, but at most once every `n` rounds — batches the
    /// completion bursts of static traces so expensive policies
    /// (hierarchical water filling) are not re-solved per completion.
    ThrottledResets(u32),
}

/// Worker-failure injection (§3 lists worker failures among Gavel's reset
/// events). Failures arrive as a Poisson process over the whole cluster;
/// each takes one random worker down for a fixed repair time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Mean time between failures across the cluster, in seconds.
    pub mtbf_seconds: f64,
    /// How long a failed worker stays down, in seconds.
    pub downtime_seconds: f64,
}

/// Checkpoint save+restore cost, in seconds, that physical mode
/// ([`SimConfig::physical`]) charges a job whose workers differ from
/// those of the round before (the paper measured < 5 s for its models).
pub const CHECKPOINT_SECONDS: f64 = 5.0;

/// Magnitude of physical mode's multiplicative throughput jitter: each
/// round a running job's throughput is scaled by a factor drawn uniformly
/// from `1 ± PHYSICAL_JITTER`.
pub const PHYSICAL_JITTER: f64 = 0.05;

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster to simulate.
    pub cluster: ClusterSpec,
    /// Round duration in seconds (§7.1 uses 360 s; §7.2 uses 1200 s).
    pub round_seconds: f64,
    /// Physical-fidelity mode: enables the checkpoint overhead
    /// ([`CHECKPOINT_SECONDS`]) and multiplicative throughput jitter
    /// ([`PHYSICAL_JITTER`]) (Table 3's "physical" column).
    pub physical: bool,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Allocation recomputation cadence.
    pub recompute: RecomputeCadence,
    /// The one space-sharing switch: `Some` gives every policy that can
    /// use pair rows (`Policy::wants_space_sharing`: max-min fairness,
    /// FIFO, makespan, hierarchical and Gandiva) pair rows pruned by these
    /// options, `None` (the default) gives every policy singleton rows
    /// only.
    pub pairs: Option<PairOptions>,
    /// Use the throughput estimator for pair throughputs instead of the
    /// oracle (Figure 14): each arriving job is profiled against a few
    /// random reference jobs and registered with the estimator (§6's
    /// dedicated profiling workers), and its fingerprint-matched estimates
    /// *refine online* as colocated pairs actually run. Set by
    /// [`SimConfig::with_estimated_pairs`], together with `pairs`.
    pub(crate) estimate_pair_throughputs: bool,
    /// Fluid ideal execution instead of the round mechanism (Figure 13b).
    pub ideal_execution: bool,
    /// Hard cap on simulated seconds (guards non-terminating scenarios).
    pub max_seconds: f64,
    /// Assume distributed jobs are consolidated when building policy
    /// tensors (the simulator still applies the unconsolidated penalty when
    /// placement actually fails to consolidate).
    pub assume_consolidated: bool,
    /// Worker-failure injection (`None` = no failures).
    pub failures: Option<FailureConfig>,
}

impl SimConfig {
    /// Defaults matching §7.1: 6-minute rounds, reset-event recomputation,
    /// no space sharing, idealized execution disabled.
    pub fn new(cluster: ClusterSpec) -> Self {
        SimConfig {
            cluster,
            round_seconds: 360.0,
            physical: false,
            seed: 0,
            recompute: RecomputeCadence::OnReset,
            pairs: None,
            estimate_pair_throughputs: false,
            ideal_execution: false,
            max_seconds: 3.0e8, // ~9.5 simulated years; effectively "until done".
            assume_consolidated: true,
            failures: None,
        }
    }

    /// Enables worker-failure injection.
    pub fn with_failures(mut self, mtbf_seconds: f64, downtime_seconds: f64) -> Self {
        self.failures = Some(FailureConfig {
            mtbf_seconds,
            downtime_seconds,
        });
        self
    }

    /// Enables space sharing with default pair pruning.
    pub fn with_space_sharing(mut self) -> Self {
        self.pairs = Some(PairOptions::default());
        self
    }

    /// Enables estimated pair throughputs with per-job profiling and
    /// online refinement (Figure 14 with §6's estimator in the loop).
    pub fn with_estimated_pairs(mut self) -> Self {
        self.pairs = Some(PairOptions::default());
        self.estimate_pair_throughputs = true;
        self
    }

    /// Enables physical-fidelity mode (Table 3).
    pub fn with_physical_fidelity(mut self, seed: u64) -> Self {
        self.physical = true;
        self.seed = seed;
        self
    }
}
