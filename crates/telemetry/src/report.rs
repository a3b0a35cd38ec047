//! Per-batch critical-path timing and the stall-attribution report.
//!
//! ## The attribution model
//!
//! `serve_batch` fans a batch out as one demand job per sample and then
//! blocks until every tensor arrives, so the batch's serve latency is
//! governed by its **critical-path job** — the demand job that finished
//! last. A [`BatchProbe`] records, per sample and as nanosecond offsets
//! from a single batch-start instant:
//!
//! ```text
//! t0 ----- submit ----- start ---------------- end -------- serve
//!    plan          wait        exec (decode / store I/O /
//!                                    aug / other)           finalize
//! ```
//!
//! The trace for a batch is the timeline of its critical-path job:
//! `plan` (chunk lookup + job submission), `prefetch` (time the serve
//! thread spent waiting on an epoch-ahead prefetched batch that was
//! still in flight — zero when prefetching is off or the batch was
//! ready), `queue_wait` (scheduler queue), `exec` split into `decode`,
//! `store_io` (disk-tier reads), `remote` (cluster-tier RPC fetches and
//! owner pushes — zero on a single node), `persist` (write-through
//! appends to the crash-safe value log), `aug`, and `exec_other`
//! (residual — compression, channel
//! sends, once-claim waits), then `finalize` (collecting the remaining
//! tensors, stacking, consumption bookkeeping). The segments are
//! contiguous offsets of one clock, so they sum **exactly** to the
//! measured serve latency in nanoseconds — the invariant
//! `BatchTrace::breakdown_sum_ns() == serve_ns` is enforced by
//! construction and asserted in tests. The prefetch wait happens on the
//! serve thread before any demand job is submitted, so it is carved out
//! of the pre-submit window: `plan + prefetch` together cover t0 →
//! submit.
//!
//! Stage time inside `exec` is attributed through a thread-local: the
//! job runs under [`with_stage_cells`], and instrumented code anywhere
//! below it (the store's disk I/O, the engine's decode and op-apply
//! paths) calls [`record_stage`], which adds to the scope's sums on this
//! thread. The scope hands its sums to the sample's [`StageCells`] when it
//! ends, by return or by unwind. Outside every scope — work that runs
//! outside a sample job — `record_stage` is a thread-local read and a
//! branch.
//!
//! Every engine traces every batch. The per-sample state lives in the
//! engine's batch build, the names a trace carries are shared, and the
//! ring reuses its slots once full, so a trace allocates nothing of its
//! own: `tests/alloc.rs` counts.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json::json_escape;
use crate::snapshot::Snapshot;

/// Stages attributable inside a demand job's execution window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Video decode (`Decoder::decode_indices`, bulk or one frame).
    Decode,
    /// Object-store disk-tier reads.
    StoreIo,
    /// Remote-tier network time: consistent-hash owner fetches and
    /// materialized-object pushes over `sand-net` RPC.
    Remote,
    /// Write-through persistence: value-log appends on the `put` path.
    Persist,
    /// Augmentation op application.
    Aug,
}

/// One sample's stage sums (nanoseconds), in [`Stage`] order. Atomic so
/// the serve thread can read them after the job thread finishes without
/// synchronisation beyond the build it already waits on.
#[derive(Debug, Default)]
pub struct StageCells {
    ns: [AtomicU64; 5],
}

impl StageCells {
    fn add(&self, sums: [u64; 5]) {
        for (cell, ns) in self.ns.iter().zip(sums) {
            cell.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The time attributed to `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage as usize].load(Ordering::Relaxed)
    }
}

thread_local! {
    /// The innermost [`with_stage_cells`] scope's sums on this thread;
    /// `None` outside every scope.
    static ACTIVE_STAGES: Cell<Option<[u64; 5]>> = const { Cell::new(None) };
}

/// Attributes the stage time recorded on this thread during `f` to
/// `cells`. Scopes nest: an inner scope's time goes to its own cells
/// only, and the outer scope's sums resume after it. The outer scope is
/// restored and `cells` credited however `f` ends, so a job that panics
/// leaves nothing installed for the next job on its worker.
pub fn with_stage_cells<R>(cells: &StageCells, f: impl FnOnce() -> R) -> R {
    struct Scope<'a> {
        cells: &'a StageCells,
        outer: Option<[u64; 5]>,
    }
    impl Drop for Scope<'_> {
        fn drop(&mut self) {
            if let Some(sums) = ACTIVE_STAGES.replace(self.outer) {
                self.cells.add(sums);
            }
        }
    }
    let _scope = Scope {
        cells,
        outer: ACTIVE_STAGES.replace(Some([0; 5])),
    };
    f()
}

/// Attribute `d` to `stage` in the innermost scope on this thread, if
/// any. A no-op (one thread-local read) outside every scope.
#[inline]
pub fn record_stage(stage: Stage, d: Duration) {
    if let Some(mut sums) = ACTIVE_STAGES.get() {
        sums[stage as usize] += d.as_nanos() as u64;
        ACTIVE_STAGES.set(Some(sums));
    }
}

/// One sample's timeline, offsets in nanoseconds from its batch's t0,
/// and its stage cells. The engine keeps one per sample in the batch's
/// build.
#[derive(Debug, Default)]
pub struct SampleProbe {
    submit_off_ns: AtomicU64,
    start_off_ns: AtomicU64,
    end_off_ns: AtomicU64,
    stages: StageCells,
}

/// Timing probe for one served batch: its start instant and the
/// serve-thread wait on a prefetched batch. The samples it times are
/// passed in, so a probe is a plain value.
#[derive(Debug)]
pub struct BatchProbe {
    t0: Instant,
    /// Serve-thread wait on an in-flight prefetched batch (ns).
    prefetch_ns: AtomicU64,
}

/// Identity of a served batch, carried into its trace. The names are
/// shared with the engine, so carrying them copies no string.
#[derive(Clone, Debug)]
pub struct BatchMeta {
    pub task: Arc<str>,
    /// Owning tenant id when the engine runs in fleet mode; `None` for
    /// single-tenant engines (the field is then absent from exports).
    pub tenant: Option<Arc<str>>,
    pub epoch: u64,
    pub iteration: u64,
    pub clock: u64,
}

impl SampleProbe {
    /// The stage time the sample's job recorded.
    pub fn stages(&self) -> &StageCells {
        &self.stages
    }
}

impl BatchProbe {
    /// A probe whose batch-start instant was taken earlier, so work the
    /// serve thread did before it knew the batch's sample count (the
    /// chunk lookup) falls inside the trace's `plan` segment.
    pub fn starting_at(t0: Instant) -> Self {
        Self {
            t0,
            prefetch_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    fn off_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Attribute serve-thread time spent waiting for a prefetched batch
    /// that was still materializing when the trainer asked for it.
    pub fn record_prefetch_wait(&self, d: Duration) {
        self.prefetch_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record that `sample`'s job was just handed to the scheduler.
    pub fn mark_submitted(&self, sample: &SampleProbe) {
        sample.submit_off_ns.store(self.off_ns(), Ordering::Relaxed);
    }

    /// Run `sample`'s materialization under this probe: records the
    /// start/end offsets (queue wait and execution window) and collects
    /// the stage time nested instrumentation records into the sample's
    /// cells.
    pub fn run_sample<R>(&self, sample: &SampleProbe, f: impl FnOnce() -> R) -> R {
        sample.start_off_ns.store(self.off_ns(), Ordering::Relaxed);
        let out = with_stage_cells(&sample.stages, f);
        sample.end_off_ns.store(self.off_ns(), Ordering::Relaxed);
        out
    }

    /// Close the probe over the batch's `samples` and produce its trace.
    /// Called on the serve thread after the last tensor was collected
    /// and bookkeeping finished; `stall_budget_us` decides the `stalled`
    /// flag. No samples (a batch served from a prefetched build) leaves
    /// `plan`, `prefetch` and `finalize`.
    pub fn finish<'a>(
        &self,
        samples: impl ExactSizeIterator<Item = &'a SampleProbe>,
        meta: BatchMeta,
        stall_budget_us: u64,
    ) -> TraceRecord {
        let serve_ns = self.off_ns();
        let count = samples.len();
        // Critical path: the sample that finished last.
        let critical = samples.max_by_key(|s| s.end_off_ns.load(Ordering::Relaxed));
        let (submit, start, end, stages) = match critical {
            Some(s) => (
                s.submit_off_ns.load(Ordering::Relaxed),
                s.start_off_ns.load(Ordering::Relaxed),
                s.end_off_ns.load(Ordering::Relaxed),
                &s.stages,
            ),
            None => (serve_ns, serve_ns, serve_ns, &EMPTY_CELLS),
        };
        // Offsets are monotone (submit <= start <= end <= serve) on the
        // happy path; saturate defensively so a torn read can't produce
        // a wrapped segment.
        let end = end.min(serve_ns);
        let start = start.min(end);
        let submit = submit.min(start);
        // The prefetch wait is serve-thread time before submission, so
        // it can never exceed the pre-submit window.
        let prefetch_ns = self.prefetch_ns.load(Ordering::Relaxed).min(submit);
        // Clamp the stage split so it never exceeds the execution
        // window; the residual is exec_other. This keeps the trace's
        // breakdown summing exactly to serve_ns.
        let mut exec_left = end - start;
        let [decode_ns, store_ns, remote_ns, persist_ns, aug_ns] = stages.ns.each_ref().map(|ns| {
            let ns = ns.load(Ordering::Relaxed).min(exec_left);
            exec_left -= ns;
            ns
        });
        TraceRecord {
            meta,
            samples: count,
            serve_ns,
            segments: [
                submit - prefetch_ns,
                prefetch_ns,
                start - submit,
                decode_ns,
                store_ns,
                remote_ns,
                persist_ns,
                aug_ns,
                exec_left,
                serve_ns - end,
            ],
            stalled: serve_ns > stall_budget_us.saturating_mul(1_000),
        }
    }
}

/// A probe starting now.
impl Default for BatchProbe {
    fn default() -> Self {
        Self::starting_at(Instant::now())
    }
}

static EMPTY_CELLS: StageCells = StageCells {
    ns: [const { AtomicU64::new(0) }; 5],
};

/// A finished batch's trace as the ring keeps it: fixed-size, its names
/// shared with the engine. [`TraceRecord::to_trace`] spells it out as a
/// [`BatchTrace`] when a report is asked for.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    pub meta: BatchMeta,
    pub samples: usize,
    /// The batch's serve latency, the sum of its segments.
    pub serve_ns: u64,
    /// The ten segments, in [`STAGE_LABELS`] order.
    pub segments: [u64; 10],
    /// Whether the batch took longer than the stall budget.
    pub stalled: bool,
}

impl TraceRecord {
    pub fn to_trace(&self) -> BatchTrace {
        BatchTrace {
            task: self.meta.task.to_string(),
            tenant: self.meta.tenant.as_deref().map(str::to_string),
            epoch: self.meta.epoch,
            iteration: self.meta.iteration,
            clock: self.meta.clock,
            samples: self.samples,
            serve_ns: self.serve_ns,
            segments: self.segments,
            stalled: self.stalled,
        }
    }
}

/// Labels of the ten contiguous segments of a [`BatchTrace`], in
/// timeline order. `BatchTrace::breakdown_ns` yields values in the same
/// order.
pub const STAGE_LABELS: [&str; 10] = [
    "plan",
    "prefetch",
    "queue_wait",
    "decode",
    "store_io",
    "remote",
    "persist",
    "aug",
    "exec_other",
    "finalize",
];

/// One served batch's critical-path timeline. All segment fields are
/// nanoseconds and sum exactly to `serve_ns`.
#[derive(Clone, Debug)]
pub struct BatchTrace {
    pub task: String,
    /// Owning tenant id in fleet mode (see [`BatchMeta::tenant`]).
    pub tenant: Option<String>,
    pub epoch: u64,
    pub iteration: u64,
    pub clock: u64,
    pub samples: usize,
    pub serve_ns: u64,
    /// The ten segments, in [`STAGE_LABELS`] order.
    pub segments: [u64; 10],
    pub stalled: bool,
}

impl BatchTrace {
    /// Segment values in [`STAGE_LABELS`] order.
    pub fn breakdown_ns(&self) -> [u64; 10] {
        self.segments
    }

    /// Invariant check: the ten segments reassemble the serve latency.
    pub fn breakdown_sum_ns(&self) -> u64 {
        self.breakdown_ns().iter().sum()
    }

    pub fn batch_id(&self) -> String {
        format!("{}/{}/{}", self.task, self.epoch, self.iteration)
    }

    /// One JSON object (single line, `"type":"trace"`). Microsecond
    /// fields are derived from the nanosecond segments by integer
    /// division, so the µs breakdown sums to `serve_us` within one µs
    /// per segment of rounding.
    pub fn render_json(&self) -> String {
        let b = self.breakdown_ns();
        let mut s = format!(
            "{{\"type\":\"trace\",\"batch\":\"{}\",\"clock\":{},\"samples\":{},\"serve_us\":{},\"stalled\":{}",
            json_escape(&self.batch_id()),
            self.clock,
            self.samples,
            self.serve_ns / 1_000,
            self.stalled,
        );
        if let Some(tenant) = &self.tenant {
            s.push_str(&format!(",\"tenant\":\"{}\"", json_escape(tenant)));
        }
        for (label, ns) in STAGE_LABELS.iter().zip(b.iter()) {
            s.push_str(&format!(",\"{}_us\":{}", label, ns / 1_000));
        }
        s.push('}');
        s
    }
}

/// Chunk-boundary accounting, read from the `engine.chunk*` metrics: how
/// many chunks were planned, at what cost, and whether the plan was
/// ready when the serve path crossed into the chunk. All zero when no
/// engine registered those metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkPlans {
    pub planned: u64,
    /// Total planning time, microseconds.
    pub plan_us: u64,
    pub ahead_hit: u64,
    pub ahead_late: u64,
    pub ahead_miss: u64,
}

impl ChunkPlans {
    pub(crate) fn from_snapshot(snap: &Snapshot) -> Self {
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        ChunkPlans {
            planned: count("engine.chunks_planned"),
            plan_us: snap.histogram("engine.chunk_plan_us").map_or(0, |h| h.sum),
            ahead_hit: count("engine.chunk_plan_ahead_hit"),
            ahead_late: count("engine.chunk_plan_ahead_late"),
            ahead_miss: count("engine.chunk_plan_ahead_miss"),
        }
    }

    /// Chunk boundaries the serve path crossed (the cold start included).
    pub fn boundaries(&self) -> u64 {
        self.ahead_hit + self.ahead_late + self.ahead_miss
    }
}

/// Prefetch-window outcomes, read from the `prefetch.*` counters: how the
/// entries the window scheduled were settled, and how many samples of
/// the late ones a serve built itself. All zero at `prefetch_depth = 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchOutcomes {
    pub scheduled: u64,
    pub hit: u64,
    pub late: u64,
    pub miss: u64,
    pub cancelled: u64,
    pub serve_built: u64,
}

impl PrefetchOutcomes {
    pub(crate) fn from_snapshot(snap: &Snapshot) -> Self {
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        PrefetchOutcomes {
            scheduled: count("prefetch.scheduled"),
            hit: count("prefetch.hit"),
            late: count("prefetch.late"),
            miss: count("prefetch.miss"),
            cancelled: count("prefetch.cancelled"),
            serve_built: count("prefetch.serve_built"),
        }
    }
}

/// Every retained batch trace plus the stall budget that classified
/// them. Produced by `Telemetry::stall_report` / the engine's
/// `stall_report()` accessor.
#[derive(Clone, Debug)]
pub struct StallReport {
    pub budget_us: u64,
    pub traces: Vec<BatchTrace>,
    /// Chunk planning and plan-ahead outcomes over the engine's life.
    pub chunks: ChunkPlans,
    /// Prefetch-window outcomes over the engine's life.
    pub prefetch: PrefetchOutcomes,
}

impl StallReport {
    pub fn stalled(&self) -> Vec<&BatchTrace> {
        self.traces.iter().filter(|t| t.stalled).collect()
    }

    /// Traces grouped by tenant, sorted by tenant id. Empty when no
    /// trace carries tenant attribution (single-tenant engines).
    pub fn tenant_sections(&self) -> Vec<(String, Vec<&BatchTrace>)> {
        let mut sections: Vec<(String, Vec<&BatchTrace>)> = Vec::new();
        for t in &self.traces {
            let Some(tenant) = &t.tenant else { continue };
            match sections.iter_mut().find(|(id, _)| id == tenant) {
                Some((_, v)) => v.push(t),
                None => sections.push((tenant.clone(), vec![t])),
            }
        }
        sections.sort_by(|a, b| a.0.cmp(&b.0));
        sections
    }

    /// Per-tenant totals in nanoseconds: `(serve, [ten segments])`,
    /// summed over the tenant's traces. Because every trace's segments
    /// sum exactly to its serve latency, the tenant's segment totals sum
    /// exactly to the tenant's serve total — the per-tenant split keeps
    /// the exact-sum invariant.
    fn tenant_totals(traces: &[&BatchTrace]) -> (u64, [u64; 10]) {
        let mut serve = 0u64;
        let mut segs = [0u64; 10];
        for t in traces {
            serve += t.serve_ns;
            for (acc, v) in segs.iter_mut().zip(t.breakdown_ns()) {
                *acc += v;
            }
        }
        (serve, segs)
    }

    /// Human-readable stall-attribution table: one row per stalled
    /// batch (all batches when the budget is 0), segments in µs.
    pub fn render_table(&self) -> String {
        let rows = self.stalled();
        let mut out = String::new();
        out.push_str(&format!(
            "stall attribution — budget {} µs, {} batch(es) over budget of {} traced\n",
            self.budget_us,
            rows.len(),
            self.traces.len(),
        ));
        out.push_str(&format!(
            "{:<18} {:>6} {:>9} | {:>8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
            "batch",
            "clock",
            "serve_us",
            "plan",
            "prefetch",
            "queue_wait",
            "decode",
            "store_io",
            "remote",
            "persist",
            "aug",
            "exec_other",
            "finalize",
        ));
        for t in rows {
            let b = t.breakdown_ns();
            out.push_str(&format!(
                "{:<18} {:>6} {:>9} | {:>8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
                t.batch_id(),
                t.clock,
                t.serve_ns / 1_000,
                b[0] / 1_000,
                b[1] / 1_000,
                b[2] / 1_000,
                b[3] / 1_000,
                b[4] / 1_000,
                b[5] / 1_000,
                b[6] / 1_000,
                b[7] / 1_000,
                b[8] / 1_000,
                b[9] / 1_000,
            ));
        }
        let sections = self.tenant_sections();
        if !sections.is_empty() {
            let fleet_serve: u64 = sections
                .iter()
                .map(|(_, ts)| Self::tenant_totals(ts).0)
                .sum();
            out.push_str(&format!("per-tenant attribution ({}):\n", sections.len()));
            for (tenant, traces) in &sections {
                let (serve, segs) = Self::tenant_totals(traces);
                let share = if fleet_serve > 0 {
                    serve as f64 / fleet_serve as f64 * 100.0
                } else {
                    0.0
                };
                let stalled = traces.iter().filter(|t| t.stalled).count();
                out.push_str(&format!(
                    "  {tenant:<12} {:>4} batch(es), {:>9} µs serve ({share:>5.1}%), {stalled} stalled |",
                    traces.len(),
                    serve / 1_000,
                ));
                for (label, ns) in STAGE_LABELS.iter().zip(segs.iter()) {
                    out.push_str(&format!(" {label} {}", ns / 1_000));
                }
                out.push('\n');
            }
        }
        if self.chunks.boundaries() > 0 {
            out.push_str(&format!(
                "chunk boundaries: {} crossed — plan ready at {}, in flight at {}, planned inline at {}; {} chunk(s) planned in {} µs\n",
                self.chunks.boundaries(),
                self.chunks.ahead_hit,
                self.chunks.ahead_late,
                self.chunks.ahead_miss,
                self.chunks.planned,
                self.chunks.plan_us,
            ));
        }
        let p = &self.prefetch;
        if p.scheduled > 0 {
            out.push_str(&format!(
                "prefetch: {} batch(es) scheduled — hit {}, late {}, miss {}, cancelled {}; {} sample(s) of late batches built by the serve\n",
                p.scheduled, p.hit, p.late, p.miss, p.cancelled, p.serve_built,
            ));
        }
        out
    }

    /// One JSON line per trace (stalled or not; the `stalled` field
    /// carries the classification), followed by one
    /// `"type":"tenant_summary"` line per tenant.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.traces {
            out.push_str(&t.render_json());
            out.push('\n');
        }
        // Per-tenant rollups in exact nanoseconds: consumers can verify
        // that each tenant's segment totals reassemble its serve total
        // without re-deriving them from the (µs-rounded) trace lines.
        for (tenant, traces) in self.tenant_sections() {
            let (serve, segs) = Self::tenant_totals(&traces);
            let mut line = format!(
                "{{\"type\":\"tenant_summary\",\"tenant\":\"{}\",\"batches\":{},\"serve_ns\":{}",
                json_escape(&tenant),
                traces.len(),
                serve,
            );
            for (label, ns) in STAGE_LABELS.iter().zip(segs.iter()) {
                line.push_str(&format!(",\"{label}_ns\":{ns}"));
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn meta() -> BatchMeta {
        BatchMeta {
            task: Arc::from("train"),
            tenant: None,
            epoch: 0,
            iteration: 3,
            clock: 7,
        }
    }

    fn tenant_meta(tenant: &str, iteration: u64) -> BatchMeta {
        BatchMeta {
            task: Arc::from("train"),
            tenant: Some(Arc::from(tenant)),
            epoch: 0,
            iteration,
            clock: iteration,
        }
    }

    /// The segment `label` of `trace`.
    fn seg(trace: &BatchTrace, label: &str) -> u64 {
        let i = STAGE_LABELS.iter().position(|l| *l == label);
        trace.segments[i.expect("a segment label")]
    }

    fn samples(n: usize) -> Vec<SampleProbe> {
        (0..n).map(|_| SampleProbe::default()).collect()
    }

    /// One batch of one sample that ran `f`, finished against budget 0.
    fn one_sample_trace(meta: BatchMeta, f: impl FnOnce()) -> BatchTrace {
        let probe = BatchProbe::default();
        let s = samples(1);
        probe.mark_submitted(&s[0]);
        probe.run_sample(&s[0], f);
        probe.finish(s.iter(), meta, 0).to_trace()
    }

    #[test]
    fn breakdown_sums_exactly_to_serve_latency() {
        let probe = BatchProbe::default();
        let s = samples(3);
        for s in &s {
            probe.mark_submitted(s);
            probe.run_sample(s, || {
                record_stage(Stage::Decode, Duration::from_micros(200));
                record_stage(Stage::StoreIo, Duration::from_micros(30));
                record_stage(Stage::Remote, Duration::from_micros(20));
                record_stage(Stage::Persist, Duration::from_micros(40));
                record_stage(Stage::Aug, Duration::from_micros(50));
                thread::sleep(Duration::from_millis(1));
            });
        }
        let trace = probe.finish(s.iter(), meta(), 0).to_trace();
        assert_eq!(trace.samples, 3);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
        assert!(trace.serve_ns > 0);
        assert!(seg(&trace, "decode") >= 200_000);
        assert!(trace.stalled, "budget 0 marks every batch stalled");
    }

    #[test]
    fn stage_clamp_preserves_sum_invariant() {
        let trace = one_sample_trace(meta(), || {
            // Deliberately over-report: stage time far beyond the actual
            // execution window must be clamped, not break the invariant.
            record_stage(Stage::Decode, Duration::from_secs(10));
            record_stage(Stage::StoreIo, Duration::from_secs(10));
            record_stage(Stage::Persist, Duration::from_secs(10));
            record_stage(Stage::Aug, Duration::from_secs(10));
        });
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
    }

    #[test]
    fn stages_attribute_to_the_installed_cells_only() {
        let probe = BatchProbe::default();
        let s = samples(2);
        probe.mark_submitted(&s[0]);
        probe.run_sample(&s[0], || {
            record_stage(Stage::Aug, Duration::from_micros(500));
        });
        // No cells installed here: must be dropped, not misattributed.
        record_stage(Stage::Aug, Duration::from_secs(1));
        probe.mark_submitted(&s[1]);
        probe.run_sample(&s[1], || {});
        assert_eq!(s[0].stages.get(Stage::Aug), 500_000);
        let trace = probe.finish(s.iter(), meta(), 0).to_trace();
        // Critical sample is #1 (finished last) which recorded nothing.
        assert_eq!(seg(&trace, "aug"), 0);
    }

    #[test]
    fn stage_scopes_nest_and_restore() {
        let outer = StageCells::default();
        let inner = StageCells::default();
        with_stage_cells(&outer, || {
            record_stage(Stage::Decode, Duration::from_micros(10));
            with_stage_cells(&inner, || {
                record_stage(Stage::Decode, Duration::from_micros(99));
            });
            record_stage(Stage::Decode, Duration::from_micros(10));
        });
        assert_eq!(outer.get(Stage::Decode), 20_000);
        assert_eq!(inner.get(Stage::Decode), 99_000);
    }

    /// A scope that unwinds credits its cells and restores the outer
    /// scope, so nothing recorded after it lands in the dead scope.
    #[test]
    fn an_unwound_scope_is_restored() {
        let dead = StageCells::default();
        let unwound = std::panic::catch_unwind(|| {
            with_stage_cells(&dead, || {
                record_stage(Stage::Aug, Duration::from_micros(7));
                panic!("the job under this scope failed");
            })
        });
        assert!(unwound.is_err());
        record_stage(Stage::Aug, Duration::from_secs(1));
        assert_eq!(dead.get(Stage::Aug), 7_000);
        assert!(ACTIVE_STAGES.get().is_none());
    }

    /// The prefetch segment is carved out of the pre-submit window and
    /// keeps the exact-sum invariant; without a recorded wait it is 0.
    #[test]
    fn prefetch_wait_carves_out_of_plan_and_preserves_sum() {
        let probe = BatchProbe::default();
        thread::sleep(Duration::from_millis(2));
        probe.record_prefetch_wait(Duration::from_millis(1));
        let trace = probe.finish(std::iter::empty(), meta(), 0).to_trace();
        assert_eq!(trace.samples, 0);
        assert!(seg(&trace, "prefetch") >= 1_000_000);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
        assert_eq!(
            seg(&trace, "plan") + seg(&trace, "prefetch"),
            trace.serve_ns
        );

        // Over-reported wait clamps to the pre-submit window.
        let probe = BatchProbe::default();
        let s = samples(1);
        probe.record_prefetch_wait(Duration::from_secs(30));
        probe.mark_submitted(&s[0]);
        probe.run_sample(&s[0], || {});
        let trace = probe.finish(s.iter(), meta(), 0).to_trace();
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);

        // No wait recorded → segment absent from the trace.
        let trace = one_sample_trace(meta(), || {});
        assert_eq!(seg(&trace, "prefetch"), 0);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
    }

    #[test]
    fn high_stall_budget_unmarks_fast_batches() {
        let probe = BatchProbe::default();
        let s = samples(1);
        probe.mark_submitted(&s[0]);
        probe.run_sample(&s[0], || {});
        let trace = probe.finish(s.iter(), meta(), 60_000_000); // 60 s budget
        assert!(!trace.stalled);
    }

    #[test]
    fn stall_report_renders_chunk_boundaries() {
        let report = StallReport {
            budget_us: 0,
            traces: vec![one_sample_trace(meta(), || {})],
            chunks: ChunkPlans {
                planned: 3,
                plan_us: 4_200,
                ahead_hit: 2,
                ahead_late: 0,
                ahead_miss: 1,
            },
            prefetch: PrefetchOutcomes {
                scheduled: 5,
                hit: 1,
                late: 3,
                miss: 0,
                cancelled: 1,
                serve_built: 4,
            },
        };
        assert!(report.render_table().contains(
            "chunk boundaries: 3 crossed — plan ready at 2, in flight at 0, planned inline at 1"
        ));
        assert!(report.render_table().contains(
            "prefetch: 5 batch(es) scheduled — hit 1, late 3, miss 0, cancelled 1; 4 sample(s) of late batches built by the serve"
        ));
        let silent = StallReport {
            budget_us: 0,
            traces: Vec::new(),
            chunks: ChunkPlans::default(),
            prefetch: PrefetchOutcomes::default(),
        };
        assert!(!silent.render_table().contains("chunk boundaries"));
        assert!(!silent.render_table().contains("prefetch:"));
    }

    /// Tenant attribution: traces group by tenant, the table gains a
    /// per-tenant section, and the JSONL rollup's nanosecond segment
    /// totals reassemble each tenant's serve total exactly.
    #[test]
    fn tenant_sections_split_exactly() {
        let mut traces = Vec::new();
        for (tenant, iters) in [("alpha", 3u64), ("beta", 2)] {
            for i in 0..iters {
                traces.push(one_sample_trace(tenant_meta(tenant, i), || {
                    record_stage(Stage::Aug, Duration::from_micros(120));
                    thread::sleep(Duration::from_micros(300));
                }));
            }
        }
        // One untenanted trace must stay out of every section.
        traces.push(one_sample_trace(meta(), || {}));

        let report = StallReport {
            budget_us: 0,
            traces,
            chunks: ChunkPlans::default(),
            prefetch: PrefetchOutcomes::default(),
        };
        let sections = report.tenant_sections();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "alpha");
        assert_eq!(sections[0].1.len(), 3);
        assert_eq!(sections[1].0, "beta");
        assert_eq!(sections[1].1.len(), 2);
        assert!(report
            .render_table()
            .contains("per-tenant attribution (2):"));

        let jsonl = report.render_jsonl();
        let summaries: Vec<_> = jsonl
            .lines()
            .filter(|l| l.contains("tenant_summary"))
            .collect();
        assert_eq!(summaries.len(), 2);
        for line in summaries {
            let v = crate::parse_json(line).expect("summary parses");
            let serve = v
                .get("serve_ns")
                .and_then(|x| x.as_u64())
                .expect("serve_ns present");
            let seg_sum: u64 = STAGE_LABELS
                .iter()
                .map(|l| {
                    v.get(&format!("{l}_ns"))
                        .and_then(|x| x.as_u64())
                        .expect("segment present")
                })
                .sum();
            assert_eq!(seg_sum, serve, "tenant split broke exact-sum: {line}");
            assert!(serve > 0);
        }
        // Trace lines carry the tenant field; the untenanted one omits it.
        let with_tenant = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"trace\"") && l.contains("\"tenant\":"))
            .count();
        assert_eq!(with_tenant, 5);
    }

    /// Without tenant attribution nothing tenant-flavoured is emitted —
    /// the single-tenant export format is unchanged.
    #[test]
    fn no_tenants_means_no_tenant_sections() {
        let report = StallReport {
            budget_us: 0,
            traces: vec![one_sample_trace(meta(), || {})],
            chunks: ChunkPlans::default(),
            prefetch: PrefetchOutcomes::default(),
        };
        assert!(report.tenant_sections().is_empty());
        assert!(!report.render_table().contains("per-tenant"));
        assert!(!report.render_jsonl().contains("tenant"));
    }

    #[test]
    fn trace_json_is_one_line_and_parses() {
        let trace = one_sample_trace(meta(), || {});
        let line = trace.render_json();
        assert!(!line.contains('\n'));
        let v = crate::parse_json(&line).expect("trace json parses");
        assert_eq!(
            v.get("type").and_then(|t| t.as_str()),
            Some("trace"),
            "line: {line}"
        );
        assert_eq!(v.get("batch").and_then(|t| t.as_str()), Some("train/0/3"));
    }
}
