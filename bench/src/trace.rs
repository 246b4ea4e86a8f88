//! In-memory span recorder and the wrappers that put spans around the
//! three public trait seams of the program (`Policy`, `LogSink`,
//! `CheckpointStore`). Spans are kept in memory and written out once, at
//! the end of the run; nothing here runs when tracing is off.

use gavel::core::{Allocation, ClusterSpec, ComboSet, Policy, PolicyError, PolicyInput, PolicyJob};
use gavel::core::{JobId, ThroughputTensor};
use gavel::service::{CheckpointError, CheckpointStore, LogSink, WalError};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An owned copy of one `PolicyInput`, with the allocation it produced.
pub struct Capture {
    pub jobs: Vec<PolicyJob>,
    pub combos: ComboSet,
    pub tensor: ThroughputTensor,
    pub alloc: Allocation,
}

impl Capture {
    pub fn input<'a>(&'a self, cluster: &'a ClusterSpec) -> PolicyInput<'a> {
        PolicyInput {
            jobs: &self.jobs,
            combos: &self.combos,
            tensor: &self.tensor,
            cluster,
        }
    }
}

/// Span and counter store for one traced pass. Single-threaded: every
/// seam is called on the thread that drives the service.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    /// `(jobs, rows)` of every `compute_allocation` call, in call order.
    pub solve_sizes: RefCell<Vec<(usize, usize)>>,
    /// Allocations that failed `Allocation::validate`, and the first
    /// failure's text.
    pub invalid_allocs: Cell<usize>,
    pub first_invalid: RefCell<Option<String>>,
    /// Call indices whose input and allocation are cloned into `captures`.
    capture_at: Vec<usize>,
    pub captures: RefCell<Vec<(usize, Capture)>>,
    pub wal_bytes: Cell<u64>,
    pub checkpoint_bytes: Cell<u64>,
}

impl Tracer {
    pub fn new(capture_at: Vec<usize>) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            solve_sizes: RefCell::new(Vec::new()),
            invalid_allocs: Cell::new(0),
            first_invalid: RefCell::new(None),
            capture_at,
            captures: RefCell::new(Vec::new()),
            wal_bytes: Cell::new(0),
            checkpoint_bytes: Cell::new(0),
        }
    }

    /// Opens a span starting at `at`, child of the innermost open span.
    pub fn enter_at(&self, name: &'static str, at: Instant) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let id = spans.len() as u32;
        let start_ns = at.duration_since(self.epoch).as_nanos() as u64;
        spans.push(Span {
            id,
            parent: stack.last().copied().unwrap_or(NO_PARENT),
            name,
            start_ns,
            end_ns: start_ns,
        });
        stack.push(id);
        id
    }

    /// Closes span `id` at `at`.
    pub fn exit_at(&self, id: u32, at: Instant) {
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans.borrow_mut()[id as usize].end_ns =
            at.duration_since(self.epoch).as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter_at(name, Instant::now());
        let r = f();
        self.exit_at(id, Instant::now());
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// `Policy` seam: a span around `compute_allocation`, the input's size,
/// a validity check of every returned allocation, and (at chosen call
/// indices) an owned copy of the input for the drills. The check and the
/// copy run in spans of their own so they count as tracing overhead, not
/// as service or policy time.
pub struct TracedPolicy<'a> {
    pub inner: &'a dyn Policy,
    pub tracer: &'a Tracer,
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        // Checkpoints fingerprint the policy name; stay transparent.
        self.inner.name()
    }

    fn wants_space_sharing(&self) -> bool {
        self.inner.wants_space_sharing()
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let t = self.tracer;
        let result = t.span("policies.solve", || self.inner.compute_allocation(input));
        let call = {
            let mut sizes = t.solve_sizes.borrow_mut();
            sizes.push((input.jobs.len(), input.combos.len()));
            sizes.len() - 1
        };
        if let Ok(alloc) = &result {
            t.span("trace.validate", || {
                let sf: HashMap<JobId, u32> =
                    input.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
                if let Err(e) = alloc.validate(input.cluster, &sf) {
                    t.invalid_allocs.set(t.invalid_allocs.get() + 1);
                    t.first_invalid
                        .borrow_mut()
                        .get_or_insert_with(|| e.to_string());
                }
            });
            if t.capture_at.contains(&call) {
                t.span("trace.capture", || {
                    t.captures.borrow_mut().push((
                        call,
                        Capture {
                            jobs: input.jobs.to_vec(),
                            combos: input.combos.clone(),
                            tensor: input.tensor.clone(),
                            alloc: alloc.clone(),
                        },
                    ));
                });
            }
        }
        result
    }
}

/// `LogSink` seam: spans and byte counts around append/sync/reset.
pub struct TracedSink<'a, S> {
    pub inner: S,
    pub tracer: &'a Tracer,
}

impl<S: LogSink> LogSink for TracedSink<'_, S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let t = self.tracer;
        t.wal_bytes.set(t.wal_bytes.get() + bytes.len() as u64);
        t.span("wal.append", || self.inner.append(bytes))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.tracer.span("wal.sync", || self.inner.sync())
    }

    fn reset(&mut self) -> Result<(), WalError> {
        self.tracer.span("wal.reset", || self.inner.reset())
    }
}

/// `CheckpointStore` seam: spans and byte counts around save.
pub struct TracedStore<'a, C> {
    pub inner: C,
    pub tracer: &'a Tracer,
}

impl<C: CheckpointStore> CheckpointStore for TracedStore<'_, C> {
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let t = self.tracer;
        t.checkpoint_bytes
            .set(t.checkpoint_bytes.get() + bytes.len() as u64);
        t.span("checkpoint.save", || self.inner.save(bytes))
    }

    fn load(&self) -> Result<Option<Vec<u8>>, CheckpointError> {
        self.inner.load()
    }
}

/// Per-span self time: duration minus the part covered by child spans.
/// `dur` is indexed like `spans` (a floor across passes, or the raw one).
pub fn self_times(spans: &[Span], dur: &[u64]) -> Vec<i64> {
    let mut own: Vec<i64> = dur.iter().map(|&d| d as i64).collect();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= dur[i] as i64;
        }
    }
    own
}

/// Writes spans as JSON lines `{id, parent, name, start_ns, end_ns}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
