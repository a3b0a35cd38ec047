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
//! job installs its [`StageCells`] with [`with_stage_cells`], and
//! instrumented code anywhere below it (the store's disk I/O, the
//! engine's decode and op-apply paths) calls [`record_stage`]. When no
//! cells are installed — telemetry off, or work running outside a
//! probed job — `record_stage` is a thread-local read and a branch.

use std::cell::RefCell;
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

/// Per-job stage accumulators (nanoseconds). Atomic so the serve thread
/// can read them after the job thread finishes without synchronisation
/// beyond the channel it already waits on.
#[derive(Debug, Default)]
pub struct StageCells {
    decode_ns: AtomicU64,
    store_ns: AtomicU64,
    remote_ns: AtomicU64,
    persist_ns: AtomicU64,
    aug_ns: AtomicU64,
}

impl StageCells {
    #[inline]
    fn add(&self, stage: Stage, ns: u64) {
        let cell = match stage {
            Stage::Decode => &self.decode_ns,
            Stage::StoreIo => &self.store_ns,
            Stage::Remote => &self.remote_ns,
            Stage::Persist => &self.persist_ns,
            Stage::Aug => &self.aug_ns,
        };
        cell.fetch_add(ns, Ordering::Relaxed);
    }
}

thread_local! {
    static ACTIVE_STAGES: RefCell<Option<Arc<StageCells>>> = const { RefCell::new(None) };
}

/// Install `cells` as this thread's stage sink for the duration of `f`.
/// Restores the previous sink on exit (stage scopes nest).
pub fn with_stage_cells<R>(cells: Arc<StageCells>, f: impl FnOnce() -> R) -> R {
    let prev = ACTIVE_STAGES.with(|a| a.replace(Some(cells)));
    let out = f();
    ACTIVE_STAGES.with(|a| *a.borrow_mut() = prev);
    out
}

/// Attribute `d` to `stage` on the currently installed cells, if any.
/// A no-op (one thread-local read) when no probe is active.
#[inline]
pub fn record_stage(stage: Stage, d: Duration) {
    ACTIVE_STAGES.with(|a| {
        if let Some(cells) = a.borrow().as_ref() {
            cells.add(stage, d.as_nanos() as u64);
        }
    });
}

/// Per-sample timeline, all offsets in nanoseconds from the probe's t0.
#[derive(Debug, Default)]
pub struct SampleProbe {
    submit_off_ns: AtomicU64,
    start_off_ns: AtomicU64,
    end_off_ns: AtomicU64,
    stages: Arc<StageCells>,
}

/// Timing probe for one served batch. Created by
/// [`crate::Telemetry::batch_probe`] when telemetry is enabled; shared
/// (via `Arc`) between the serve thread and each demand job.
#[derive(Debug)]
pub struct BatchProbe {
    t0: Instant,
    samples: Vec<SampleProbe>,
    /// Serve-thread wait on an in-flight prefetched batch (ns).
    prefetch_ns: AtomicU64,
}

/// Identity of a served batch, carried into its [`BatchTrace`].
#[derive(Clone, Debug)]
pub struct BatchMeta {
    pub task: String,
    /// Owning tenant id when the engine runs in fleet mode; `None` for
    /// single-tenant engines (the field is then absent from exports).
    pub tenant: Option<String>,
    pub epoch: u64,
    pub iteration: u64,
    pub clock: u64,
}

impl BatchProbe {
    pub fn new(samples: usize) -> Arc<Self> {
        Self::starting_at(Instant::now(), samples)
    }

    /// A probe whose batch-start instant was taken earlier, so work the
    /// serve thread did before it knew the batch's sample count (the
    /// chunk lookup) falls inside the trace's `plan` segment.
    pub fn starting_at(t0: Instant, samples: usize) -> Arc<Self> {
        Arc::new(Self {
            t0,
            samples: (0..samples).map(|_| SampleProbe::default()).collect(),
            prefetch_ns: AtomicU64::new(0),
        })
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

    /// Record that sample `i`'s demand job was just handed to the
    /// scheduler.
    pub fn mark_submitted(&self, i: usize) {
        if let Some(s) = self.samples.get(i) {
            s.submit_off_ns.store(self.off_ns(), Ordering::Relaxed);
        }
    }

    /// Run sample `i`'s materialization under this probe: records the
    /// start/end offsets (queue wait and execution window) and installs
    /// the sample's stage cells so nested instrumentation attributes
    /// decode / store I/O / aug time to this job.
    pub fn run_sample<R>(&self, i: usize, f: impl FnOnce() -> R) -> R {
        let Some(s) = self.samples.get(i) else {
            return f();
        };
        s.start_off_ns.store(self.off_ns(), Ordering::Relaxed);
        let out = with_stage_cells(Arc::clone(&s.stages), f);
        s.end_off_ns.store(self.off_ns(), Ordering::Relaxed);
        out
    }

    /// Close the probe and produce the batch's trace. Called on the
    /// serve thread after the last tensor was collected and bookkeeping
    /// finished; `stall_budget_us` decides the `stalled` flag.
    pub fn finish(&self, meta: BatchMeta, stall_budget_us: u64) -> BatchTrace {
        let serve_ns = self.off_ns();
        // Critical path: the sample that finished last.
        let critical = self
            .samples
            .iter()
            .max_by_key(|s| s.end_off_ns.load(Ordering::Relaxed));
        let (submit, start, end, stages) = match critical {
            Some(s) => (
                s.submit_off_ns.load(Ordering::Relaxed),
                s.start_off_ns.load(Ordering::Relaxed),
                s.end_off_ns.load(Ordering::Relaxed),
                &*s.stages,
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
        let exec_ns = end - start;
        // Clamp the stage split so it never exceeds the execution
        // window; the residual is exec_other. This keeps the trace's
        // breakdown summing exactly to serve_ns.
        let decode_ns = stages.decode_ns.load(Ordering::Relaxed).min(exec_ns);
        let store_ns = stages
            .store_ns
            .load(Ordering::Relaxed)
            .min(exec_ns - decode_ns);
        let remote_ns = stages
            .remote_ns
            .load(Ordering::Relaxed)
            .min(exec_ns - decode_ns - store_ns);
        let persist_ns = stages
            .persist_ns
            .load(Ordering::Relaxed)
            .min(exec_ns - decode_ns - store_ns - remote_ns);
        let aug_ns = stages
            .aug_ns
            .load(Ordering::Relaxed)
            .min(exec_ns - decode_ns - store_ns - remote_ns - persist_ns);
        BatchTrace {
            task: meta.task,
            tenant: meta.tenant,
            epoch: meta.epoch,
            iteration: meta.iteration,
            clock: meta.clock,
            samples: self.samples.len(),
            serve_ns,
            plan_ns: submit - prefetch_ns,
            prefetch_ns,
            queue_ns: start - submit,
            decode_ns,
            store_ns,
            remote_ns,
            persist_ns,
            aug_ns,
            exec_other_ns: exec_ns - decode_ns - store_ns - remote_ns - persist_ns - aug_ns,
            finalize_ns: serve_ns - end,
            stalled: serve_ns > stall_budget_us.saturating_mul(1_000),
        }
    }
}

static EMPTY_CELLS: StageCells = StageCells {
    decode_ns: AtomicU64::new(0),
    store_ns: AtomicU64::new(0),
    remote_ns: AtomicU64::new(0),
    persist_ns: AtomicU64::new(0),
    aug_ns: AtomicU64::new(0),
};

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
    pub plan_ns: u64,
    pub prefetch_ns: u64,
    pub queue_ns: u64,
    pub decode_ns: u64,
    pub store_ns: u64,
    pub remote_ns: u64,
    pub persist_ns: u64,
    pub aug_ns: u64,
    pub exec_other_ns: u64,
    pub finalize_ns: u64,
    pub stalled: bool,
}

impl BatchTrace {
    /// Segment values in [`STAGE_LABELS`] order.
    pub fn breakdown_ns(&self) -> [u64; 10] {
        [
            self.plan_ns,
            self.prefetch_ns,
            self.queue_ns,
            self.decode_ns,
            self.store_ns,
            self.remote_ns,
            self.persist_ns,
            self.aug_ns,
            self.exec_other_ns,
            self.finalize_ns,
        ]
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
            task: "train".into(),
            tenant: None,
            epoch: 0,
            iteration: 3,
            clock: 7,
        }
    }

    fn tenant_meta(tenant: &str, iteration: u64) -> BatchMeta {
        BatchMeta {
            task: "train".into(),
            tenant: Some(tenant.into()),
            epoch: 0,
            iteration,
            clock: iteration,
        }
    }

    #[test]
    fn breakdown_sums_exactly_to_serve_latency() {
        let probe = BatchProbe::new(3);
        for i in 0..3 {
            probe.mark_submitted(i);
            probe.run_sample(i, || {
                record_stage(Stage::Decode, Duration::from_micros(200));
                record_stage(Stage::StoreIo, Duration::from_micros(30));
                record_stage(Stage::Remote, Duration::from_micros(20));
                record_stage(Stage::Persist, Duration::from_micros(40));
                record_stage(Stage::Aug, Duration::from_micros(50));
                thread::sleep(Duration::from_millis(1));
            });
        }
        let trace = probe.finish(meta(), 0);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
        assert!(trace.serve_ns > 0);
        assert!(trace.decode_ns >= 200_000);
        assert!(trace.stalled, "budget 0 marks every batch stalled");
    }

    #[test]
    fn stage_clamp_preserves_sum_invariant() {
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {
            // Deliberately over-report: stage time far beyond the actual
            // execution window must be clamped, not break the invariant.
            record_stage(Stage::Decode, Duration::from_secs(10));
            record_stage(Stage::StoreIo, Duration::from_secs(10));
            record_stage(Stage::Persist, Duration::from_secs(10));
            record_stage(Stage::Aug, Duration::from_secs(10));
        });
        let trace = probe.finish(meta(), 0);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
    }

    #[test]
    fn stages_attribute_to_the_installed_cells_only() {
        let probe = BatchProbe::new(2);
        probe.mark_submitted(0);
        probe.run_sample(0, || {
            record_stage(Stage::Aug, Duration::from_micros(500));
        });
        // No cells installed here: must be dropped, not misattributed.
        record_stage(Stage::Aug, Duration::from_secs(1));
        probe.mark_submitted(1);
        probe.run_sample(1, || {});
        let trace = probe.finish(meta(), 0);
        // Critical sample is #1 (finished last) which recorded nothing.
        assert_eq!(trace.aug_ns, 0);
    }

    #[test]
    fn stage_scopes_nest_and_restore() {
        let outer = Arc::new(StageCells::default());
        let inner = Arc::new(StageCells::default());
        with_stage_cells(Arc::clone(&outer), || {
            record_stage(Stage::Decode, Duration::from_micros(10));
            with_stage_cells(Arc::clone(&inner), || {
                record_stage(Stage::Decode, Duration::from_micros(99));
            });
            record_stage(Stage::Decode, Duration::from_micros(10));
        });
        assert_eq!(outer.decode_ns.load(Ordering::Relaxed), 20_000);
        assert_eq!(inner.decode_ns.load(Ordering::Relaxed), 99_000);
    }

    /// The prefetch segment is carved out of the pre-submit window and
    /// keeps the exact-sum invariant; without a recorded wait it is 0.
    #[test]
    fn prefetch_wait_carves_out_of_plan_and_preserves_sum() {
        let probe = BatchProbe::new(0);
        thread::sleep(Duration::from_millis(2));
        probe.record_prefetch_wait(Duration::from_millis(1));
        let trace = probe.finish(meta(), 0);
        assert!(trace.prefetch_ns >= 1_000_000);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
        assert_eq!(trace.plan_ns + trace.prefetch_ns, trace.serve_ns);

        // Over-reported wait clamps to the pre-submit window.
        let probe = BatchProbe::new(1);
        probe.record_prefetch_wait(Duration::from_secs(30));
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let trace = probe.finish(meta(), 0);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);

        // No wait recorded → segment absent from the trace.
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let trace = probe.finish(meta(), 0);
        assert_eq!(trace.prefetch_ns, 0);
        assert_eq!(trace.breakdown_sum_ns(), trace.serve_ns);
    }

    #[test]
    fn high_stall_budget_unmarks_fast_batches() {
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let trace = probe.finish(meta(), 60_000_000); // 60 s budget
        assert!(!trace.stalled);
    }

    #[test]
    fn stall_report_renders_chunk_boundaries() {
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let report = StallReport {
            budget_us: 0,
            traces: vec![probe.finish(meta(), 0)],
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
                let probe = BatchProbe::new(1);
                probe.mark_submitted(0);
                probe.run_sample(0, || {
                    record_stage(Stage::Aug, Duration::from_micros(120));
                    thread::sleep(Duration::from_micros(300));
                });
                traces.push(probe.finish(tenant_meta(tenant, i), 0));
            }
        }
        // One untenanted trace must stay out of every section.
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        traces.push(probe.finish(meta(), 0));

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
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let report = StallReport {
            budget_us: 0,
            traces: vec![probe.finish(meta(), 0)],
            chunks: ChunkPlans::default(),
            prefetch: PrefetchOutcomes::default(),
        };
        assert!(report.tenant_sections().is_empty());
        assert!(!report.render_table().contains("per-tenant"));
        assert!(!report.render_jsonl().contains("tenant"));
    }

    #[test]
    fn trace_json_is_one_line_and_parses() {
        let probe = BatchProbe::new(1);
        probe.mark_submitted(0);
        probe.run_sample(0, || {});
        let trace = probe.finish(meta(), 0);
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
