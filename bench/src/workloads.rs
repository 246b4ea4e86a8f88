//! The four workloads: what each one feeds the service, and why.
//!
//! A workload is a handful of independent *sessions*; a session is a
//! command stream built here, in the harness, from the run's seed, and
//! driven through a fresh service. The program under test only ever
//! receives `Command`s. Every stream carries an `AdvanceTo` tick every
//! [`TICK_SECONDS`] of simulated time so that no single command is the
//! whole run, and is drained closed-loop after the last arrival (see
//! `drive`).

use gavel::core::{ClusterSpec, JobId, Policy};
use gavel::policies::{EntityPolicy, GandivaPolicy, Hierarchical, IsolatedSplit, MaxMinFairness};
use gavel::service::{Command, RecomputeCadence, ServiceConfig, SimConfig};
use gavel::workloads::{cluster_scaled, cluster_simulated, GpuKind, JobConfig, Oracle, TraceJob};

/// Simulated seconds between `AdvanceTo` ticks: 5 rounds of 360 s.
pub const TICK_SECONDS: f64 = 5.0 * 360.0;

/// Entities in the hierarchical and durable workloads.
pub const ENTITIES: usize = 4;

/// Workload names, in the order `run` interleaves them.
pub const NAMES: [&str; 4] = ["las_online", "hier_static", "ss_churn", "durable_session"];

/// Which solver drill applies to a workload's captured policy inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverUse {
    /// The policy solves no LP: the solver layer is bypassed.
    None,
    /// Single max-min LPs (§4.1).
    MaxMinLp,
    /// Water-filling over max-min LPs (§4.3).
    Hierarchical,
}

/// Everything a pass needs to construct and drive one session.
pub struct Workload {
    pub sim: SimConfig,
    pub service: ServiceConfig,
    pub policy: Box<dyn Policy>,
    pub solver: SolverUse,
    /// Whether every allocation the policy returns must pass
    /// `Allocation::validate`.
    pub valid_allocs: bool,
    /// The pre-built part of the stream (the drain ticks are closed-loop).
    pub stream: Vec<Command>,
    /// Simulated time of the last pre-built command.
    pub stream_end: f64,
    /// Route through `DurableService` on files, checkpointing this often.
    pub checkpoint_every: Option<usize>,
    /// Seconds spent sampling the trace (the `workloads` layer's oracle
    /// is consulted once per job).
    pub generate_s: f64,
}

/// Deterministic 64-bit generator for stream decoration (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Arrival shape of a sampled trace.
#[derive(Clone, Copy)]
enum Arrivals {
    /// Every job present at time zero (the paper's static traces).
    AllAtStart,
    /// Exponential gaps at this many jobs per hour (continuous traces).
    PerHour(f64),
}

/// What [`sample_trace`] draws.
struct TraceShape {
    jobs: usize,
    arrivals: Arrivals,
    /// The Microsoft scale-factor mix (70% one worker, 25% two or four,
    /// 5% eight) instead of single-worker jobs, capped at this many.
    max_scale: Option<u32>,
}

/// Jobs per shuffle block of [`sample_trace`].
const BLOCK: usize = 16;

/// Samples a trace with the paper's §7.1 marginals — durations log-uniform
/// in `10^1.5..10^4` minutes, the 26 Table 2 configurations in equal
/// shares, optionally the Microsoft scale-factor mix, exponential arrival
/// gaps — by stratified quasi-Monte-Carlo instead of independent draws.
///
/// Job `k` runs configuration `k mod 26` for entity `k mod ENTITIES`, and
/// takes its duration, size and gap quantiles from point `offset + k` of a
/// Kronecker low-discrepancy sequence, where `offset` comes from the
/// seed; the jobs are then shuffled within consecutive blocks of
/// [`BLOCK`]. Every seed therefore gets a different trace (different
/// durations, sizes, gaps and order) whose totals — work, span, mix —
/// agree to within a few percent. With independent draws, 160 jobs whose
/// durations span 2.5 decades and whose sizes span 1 to 8 GPUs differ by
/// ±25% in total work from seed to seed, the hierarchical policy's solve
/// time by more, and no end-to-end metric of two seeds can be compared.
fn sample_trace(shape: &TraceShape, seed: u64, oracle: &Oracle) -> Vec<TraceJob> {
    // Roberts' R3 sequence: inverse powers of the root of x^4 = x + 1.
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_2,
        0.549_700_477_901_970_3,
    ];
    let configs = JobConfig::all();
    let mut rng = SplitMix(seed);
    let offset = rng.below(1 << 20);
    let mut order: Vec<usize> = (0..shape.jobs).collect();
    for block in order.chunks_mut(BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    let mut jobs = Vec::with_capacity(shape.jobs);
    let mut t = 0.0f64;
    for (i, &k) in order.iter().enumerate() {
        let point = (offset + k as u64) as f64;
        let u = ALPHA.map(|a| (point * a).fract());
        let duration_seconds = 10f64.powf(1.5 + 2.5 * u[0]) * 60.0;
        let scale_factor = match shape.max_scale {
            None => 1,
            Some(cap) => match u[1] {
                x if x < 0.70 => 1,
                x if x < 0.825 => 2,
                x if x < 0.95 => 4,
                _ => 8,
            }
            .min(cap),
        };
        let arrival_time = match shape.arrivals {
            Arrivals::AllAtStart => 0.0,
            Arrivals::PerHour(rate) => {
                t += -(1.0 - u[2]).ln() / rate * 3600.0;
                t
            }
        };
        let config = configs[k % configs.len()];
        let reference_tput = oracle.throughput(config, GpuKind::V100, scale_factor, true);
        jobs.push(TraceJob {
            id: JobId(i as u64),
            config,
            arrival_time,
            scale_factor,
            total_steps: duration_seconds * reference_tput,
            duration_seconds,
            weight: 1.0,
            slo_factor: None,
            entity: Some(k % ENTITIES),
        });
    }
    jobs
}

/// The largest job `cluster` can host: a Gavel job runs all its workers
/// on one accelerator type at a time.
fn max_scale_for(cluster: &ClusterSpec) -> u32 {
    cluster
        .types()
        .map(|j| cluster.num_workers(j))
        .max()
        .unwrap_or(1) as u32
}

/// Sessions per pass and jobs (and GPUs per type) per session. The
/// session count is what steadies a workload across seeds: its metrics
/// pool that many independent traces. `--smoke` cuts every session to
/// about a twentieth and runs two of each.
struct Sizes {
    las: (usize, usize),
    hier: (usize, usize, usize),
    ss: (usize, usize, usize),
    /// Sessions, jobs, and the per-entity cap on active jobs.
    durable: (usize, usize, usize),
}

const FULL: Sizes = Sizes {
    las: (8, 160),
    hier: (16, 64, 21),
    ss: (3, 600, 100),
    durable: (2, 1500, 40),
};

const SMOKE: Sizes = Sizes {
    las: (2, 12),
    hier: (2, 8, 3),
    ss: (2, 30, 5),
    durable: (2, 75, 8),
};

fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// Independent sessions one pass of workload `name` runs.
pub fn sessions(name: &str, smoke: bool) -> usize {
    let s = sizes(smoke);
    match name {
        "las_online" => s.las.0,
        "hier_static" => s.hier.0,
        "ss_churn" => s.ss.0,
        _ => s.durable.0,
    }
}

/// Builds session `k` of workload `name` from the run's `seed`. `None`
/// for an unknown name.
pub fn build(name: &str, seed: u64, k: usize, smoke: bool) -> Option<Workload> {
    let s = sizes(smoke);
    // Each session draws its own trace.
    let seed = seed.wrapping_mul(0x1_0000).wrapping_add(k as u64);
    let oracle = Oracle::new();
    let t0 = std::time::Instant::now();
    match name {
        // The paper's Figure 9 setting: Poisson arrivals with the
        // Microsoft scale-factor mix on the 108-GPU simulated cluster
        // under max-min fairness. Many small cold LPs, one per arrival or
        // completion; snapshot, mechanism and persistence do almost
        // nothing here.
        "las_online" => {
            let cluster = cluster_simulated();
            let shape = TraceShape {
                jobs: s.las.1,
                arrivals: Arrivals::PerHour(2.5),
                max_scale: Some(max_scale_for(&cluster)),
            };
            let mut trace = sample_trace(&shape, seed, &oracle);
            let generate_s = t0.elapsed().as_secs_f64();
            // A flat policy: no entities.
            trace.iter_mut().for_each(|job| job.entity = None);
            Some(plain(
                SimConfig::new(cluster),
                Box::new(MaxMinFairness::new()),
                SolverUse::MaxMinLp,
                &trace,
                generate_s,
            ))
        }
        // Figure 12's expensive policy: a static batch under 4-entity
        // hierarchical water filling with throttled recomputes. Few large
        // warm-chained solves (round LPs, prepass, sharded probes on the
        // gavel-par pool): the same solver layer as las_online, used
        // differently.
        "hier_static" => {
            let shape = TraceShape {
                jobs: s.hier.1,
                arrivals: Arrivals::AllAtStart,
                max_scale: None,
            };
            let trace = sample_trace(&shape, seed, &oracle);
            let generate_s = t0.elapsed().as_secs_f64();
            let mut sim = SimConfig::new(cluster_scaled(s.hier.2));
            sim.recompute = RecomputeCadence::ThrottledResets(40);
            Some(plain(
                sim,
                Box::new(Hierarchical::new(
                    vec![1.0; ENTITIES],
                    EntityPolicy::Fairness,
                )),
                SolverUse::Hierarchical,
                &trace,
                generate_s,
            ))
        }
        // Heavy single-worker churn with space sharing under a non-LP
        // policy: the solver is bypassed entirely, so the snapshot cache
        // (pair scoring, bucketed selection) and the round mechanism
        // carry the run.
        "ss_churn" => {
            let shape = TraceShape {
                jobs: s.ss.1,
                arrivals: Arrivals::PerHour(40.0),
                max_scale: None,
            };
            let mut trace = sample_trace(&shape, seed, &oracle);
            let generate_s = t0.elapsed().as_secs_f64();
            trace.iter_mut().for_each(|job| job.entity = None);
            Some(plain(
                SimConfig::new(cluster_scaled(s.ss.2)).with_space_sharing(),
                Box::new(GandivaPolicy::new(7)),
                SolverUse::None,
                &trace,
                generate_s,
            ))
        }
        // A long low-rate session through the durability layer on real
        // files, with queries, cancellations, failure injection and
        // entity-cap rejections, followed by recovery from the on-disk
        // artifacts. The policy is trivial, so persistence writes (append,
        // checkpoint) and reads (scan, parse, replay) dominate.
        "durable_session" => {
            let shape = TraceShape {
                jobs: s.durable.1,
                arrivals: Arrivals::PerHour(2.0),
                max_scale: None,
            };
            let mut trace = sample_trace(&shape, seed, &oracle);
            let generate_s = t0.elapsed().as_secs_f64();
            // Skewed entity mix: entity 0 submits half the jobs, so the
            // per-entity cap rejects a small share of its submits.
            let mut rng = SplitMix(seed ^ 0xd0_5e55);
            for job in trace.iter_mut() {
                let r = rng.below(2 * ENTITIES as u64 - 2) as usize;
                job.entity = Some(r.saturating_sub(ENTITIES - 2));
            }
            // A failure model must exist for InjectFailure to be accepted;
            // its own Poisson failures are pushed past the session's end.
            let sim = SimConfig::new(cluster_simulated()).with_failures(1.0e15, 3600.0);
            let (stream, stream_end) = durable_stream(&trace, sim.cluster.num_types());
            Some(Workload {
                sim,
                service: ServiceConfig {
                    max_active_per_entity: Some(s.durable.2),
                },
                policy: Box::new(IsolatedSplit::new()),
                solver: SolverUse::None,
                valid_allocs: true,
                stream,
                stream_end,
                checkpoint_every: Some(64),
                generate_s,
            })
        }
        _ => None,
    }
}

fn plain(
    sim: SimConfig,
    policy: Box<dyn Policy>,
    solver: SolverUse,
    trace: &[TraceJob],
    generate_s: f64,
) -> Workload {
    // Only the Gandiva baseline (the one policy here that solves no LP)
    // may return allocations that fail `Allocation::validate`: it spreads
    // a unit's share over the accelerator types the unit can run on, in
    // proportion to their sizes, and units that do not fit a K80 push the
    // V100 row about 1% over its capacity in roughly a sixth of its
    // solves. The round mechanism absorbs that, so the traced run counts
    // such allocations but does not fail on them.
    let valid_allocs = solver != SolverUse::None;
    let (stream, stream_end) = ticked_stream(trace, |_, _| {});
    Workload {
        sim,
        service: ServiceConfig::default(),
        policy,
        solver,
        valid_allocs,
        stream,
        stream_end,
        checkpoint_every: None,
        generate_s,
    }
}

/// `[tick*, AdvanceTo(arrival), Submit(job)]` per job in arrival order,
/// with `extra` free to append commands after each submit.
fn ticked_stream(
    trace: &[TraceJob],
    mut extra: impl FnMut(&mut Vec<Command>, &TraceJob),
) -> (Vec<Command>, f64) {
    let mut sorted: Vec<&TraceJob> = trace.iter().collect();
    sorted.sort_by(|a, b| {
        a.arrival_time
            .total_cmp(&b.arrival_time)
            .then(a.id.cmp(&b.id))
    });
    let mut cmds = Vec::with_capacity(3 * sorted.len());
    let mut now = 0.0f64;
    for job in sorted {
        while now + TICK_SECONDS < job.arrival_time {
            now += TICK_SECONDS;
            cmds.push(Command::AdvanceTo { seconds: now });
        }
        if job.arrival_time > now {
            now = job.arrival_time;
            cmds.push(Command::AdvanceTo { seconds: now });
        }
        cmds.push(Command::Submit { job: job.clone() });
        extra(&mut cmds, job);
    }
    (cmds, now)
}

/// The durable session's stream: the ticked trace plus a
/// `QueryAllocation` every 16th command, a `Cancel` of every 100th job
/// (issued right after the following job's submit), and every 500
/// commands an `InjectFailure`, answered 50 commands later by one
/// `InjectRepair` per accelerator type (the failed type is the service's
/// own draw, so exactly one repair is accepted and the others exercise
/// rejection records).
fn durable_stream(trace: &[TraceJob], num_types: usize) -> (Vec<Command>, f64) {
    let mut pending_cancel: Option<JobId> = None;
    let mut next_query = 16usize;
    let mut next_failure = 500usize;
    let mut next_repair: Option<usize> = None;
    ticked_stream(trace, |cmds, job| {
        if let Some(victim) = pending_cancel.take() {
            cmds.push(Command::Cancel { job: victim });
        }
        if job.id.0 % 100 == 99 {
            pending_cancel = Some(job.id);
        }
        if cmds.len() >= next_query {
            cmds.push(Command::QueryAllocation);
            next_query = cmds.len() + 16;
        }
        if cmds.len() >= next_failure {
            cmds.push(Command::InjectFailure);
            next_repair = Some(cmds.len() + 50);
            next_failure = cmds.len() + 500;
        }
        if next_repair.is_some_and(|at| cmds.len() >= at) {
            next_repair = None;
            for accel in 0..num_types {
                cmds.push(Command::InjectRepair { accel });
            }
        }
    })
}
