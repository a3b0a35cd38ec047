//! A batch trace allocates nothing of its own. This binary counts every
//! allocation its threads make through its own global allocator, and
//! shows that finishing a trace and pushing it into a full ring, and
//! recording stage time under a sample's cells, allocate nothing, and
//! that what a batch's trace allocates does not grow with its sample
//! count.

use sand_telemetry::{
    record_stage, with_stage_cells, BatchMeta, BatchProbe, SampleProbe, Stage, StageCells,
    Telemetry, TelemetryConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

struct Counting;

thread_local! {
    /// Allocations made by this thread (per thread, so tests running in
    /// parallel do not count each other's).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches only a const-initialised thread-local without a
// destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

const CAP: usize = 4;

/// A telemetry handle whose ring of `CAP` traces is already full.
fn full_ring(task: &Arc<str>) -> Telemetry {
    let t = Telemetry::new(TelemetryConfig {
        trace_cap: CAP,
        ..TelemetryConfig::default()
    });
    for i in 0..CAP as u64 {
        let samples = [SampleProbe::default()];
        t.push_trace(BatchProbe::default().finish(samples.iter(), meta(task, i), 0));
    }
    t
}

fn meta(task: &Arc<str>, iteration: u64) -> BatchMeta {
    BatchMeta {
        task: Arc::clone(task),
        tenant: Some(Arc::clone(task)),
        epoch: 0,
        iteration,
        clock: iteration,
    }
}

/// One batch's trace as a serve makes it: each sample submitted and run
/// with stage time recorded, the trace finished and pushed.
fn trace_batch(t: &Telemetry, samples: &[SampleProbe], meta: BatchMeta) {
    let probe = BatchProbe::default();
    for s in samples {
        probe.mark_submitted(s);
        probe.run_sample(s, || {
            record_stage(Stage::Decode, Duration::from_micros(3));
            record_stage(Stage::Aug, Duration::from_micros(2));
        });
    }
    probe.record_prefetch_wait(Duration::from_micros(1));
    t.push_trace(probe.finish(samples.iter(), meta, t.config().stall_budget_us));
}

#[test]
fn finishing_a_trace_into_a_full_ring_allocates_nothing() {
    let task: Arc<str> = Arc::from("train");
    let t = full_ring(&task);
    let samples: Vec<SampleProbe> = (0..8).map(|_| SampleProbe::default()).collect();
    for i in 0..3 * CAP as u64 {
        let n = allocations_in(|| trace_batch(&t, &samples, meta(&task, CAP as u64 + i)));
        assert_eq!(n, 0, "trace {i} allocated {n} times");
    }
    // The ring kept the newest traces, in order.
    let report = t.stall_report();
    let kept: Vec<u64> = report.traces.iter().map(|t| t.iteration).collect();
    let newest = 4 * CAP as u64;
    assert_eq!(kept, (newest - CAP as u64..newest).collect::<Vec<_>>());
    assert!(report
        .traces
        .iter()
        .all(|t| t.samples == 8 && t.breakdown_sum_ns() == t.serve_ns));
}

#[test]
fn record_stage_under_installed_cells_allocates_nothing() {
    let cells = StageCells::default();
    let n = allocations_in(|| {
        with_stage_cells(&cells, || {
            for _ in 0..1_000 {
                record_stage(Stage::StoreIo, Duration::from_nanos(5));
            }
        });
    });
    assert_eq!(n, 0);
    assert_eq!(cells.get(Stage::StoreIo), 5_000);
}

#[test]
fn trace_allocations_do_not_grow_with_the_sample_count() {
    let task: Arc<str> = Arc::from("train");
    let t = full_ring(&task);
    // The whole batch, including the one allocation the engine's batch
    // build makes for its samples' probes.
    let per_batch: Vec<u64> = [1, 8, 64]
        .iter()
        .map(|&n| {
            allocations_in(|| {
                let samples: Vec<SampleProbe> = (0..n).map(|_| SampleProbe::default()).collect();
                trace_batch(&t, &samples, meta(&task, n as u64));
            })
        })
        .collect();
    assert_eq!(per_batch, vec![1, 1, 1]);
}
