//! One run of one workload: the driver form of the command.
//!
//! `--trace 0` measures the end-to-end metrics over two untraced passes
//! (saturated, then paced). `--trace 1` repeats a shorter saturated pass
//! untraced and traced, runs the layer probes, and prints the roll-up in
//! which every layer's time is a zoom-in on the trainer's wait.

use crate::host::CpuClock;
use crate::json::{n, obj, render, s, JsonValue};
use crate::layers::{run_probes, PROBE_SHARE};
use crate::loader::{span_id, Role};
use crate::pass::{
    mismatches, reference_digests, run_pass, trainer, trainer_config, Digests, PassResult,
};
use crate::report::{ratio, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::rig::{parsed_tasks, BoxError, Lane, Rig, RigOptions};
use crate::spans::{render_jsonl, total_ns, total_self_time_ns, Span};
use crate::stats::{median, percentile_sorted, percentile_supported, sorted};
use crate::workloads::{Spec, LOADER_DEPTH, SCHED_THREADS};
use sand_codec::Dataset;
use sand_core::{EngineStats, Snapshot};
use sand_telemetry::STAGE_LABELS;
use sand_train::loaders::OnDemandCpuLoader;
use sand_train::{Loader, TaskPlan};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a run keeps its files: inside the checkout, never in git.
pub const OUT_DIR: &str = ".sandbench_out";

/// A directory for this process's value logs, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, BoxError> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The build must be the one users run: optimized, uninstrumented.
fn refuse_unmeasurable_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug assertions; use --release".into());
    }
    if sand_sanitizer::enabled() {
        return Err("refusing to measure a build with the `sanitize` feature on".into());
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Commit of the checkout, read from `.git` without running git; the
/// acceptance driver's checkout has no `.git`, hence "unknown".
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |h| h.trim().to_string()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn generate(spec: &Spec, seed: u64) -> Result<(Arc<Dataset>, f64), BoxError> {
    let t0 = Instant::now();
    let dataset = Dataset::generate(&spec.dataset(seed))?;
    Ok((Arc::new(dataset), t0.elapsed().as_secs_f64()))
}

/// One set-up sample: `Dataset::generate` + engine `new` + `start`, in
/// unstolen seconds. Returns the rig over `dataset` (the freshly
/// generated copy only had to be timed, and to match).
fn setup_sample(
    spec: &Spec,
    seed: u64,
    dataset: &mut Option<Arc<Dataset>>,
    epochs: u64,
    options: &RigOptions,
) -> Result<(Rig, f64), BoxError> {
    let clock = CpuClock::now();
    let (fresh, generate_s) = generate(spec, seed)?;
    let shared = dataset.get_or_insert_with(|| Arc::clone(&fresh));
    if fresh.encoded_size() != shared.encoded_size() {
        return Err("the same seed generated a different dataset".into());
    }
    let shared = Arc::clone(shared);
    drop(fresh);
    let rig = Rig::build(spec, &shared, seed, epochs, options)?;
    let seconds = (generate_s + rig.engine_new_s + rig.engine_start_s) * clock.unstolen_since();
    Ok((rig, seconds))
}

/// Percentile `p` of the time a trainer is blocked in `next_batch`, in
/// unstolen milliseconds: each trainer's own percentile, mean over
/// trainers. (Pooling the waits of unlike tenants makes a two-humped
/// distribution whose median jumps between the humps from run to run.)
fn wait_percentile_ms(pass: &PassResult, p: f64) -> f64 {
    let per_trainer: Vec<f64> = pass
        .waits_ns
        .iter()
        .map(|waits| {
            let ms: Vec<f64> = waits.iter().map(|&ns| ns as f64 / 1e6).collect();
            percentile_sorted(&sorted(&ms), p) * pass.unstolen
        })
        .collect();
    ratio(per_trainer.iter().sum(), per_trainer.len() as f64)
}

/// Batches per unstolen second.
fn rate(pass: &PassResult) -> f64 {
    ratio(pass.delivered as f64, pass.wall_s * pass.unstolen)
}

/// Batches two passes both digested but served differently.
fn disagreements(a: &Digests, b: &Digests) -> u64 {
    a.iter()
        .filter(|(k, d)| b.get(k).is_some_and(|other| other != *d))
        .count() as u64
}

/// Batches of `pass` that failed: not delivered, or delivered with bytes
/// the reference does not serve.
fn failed_batches(name: &str, pass: &PassResult, reference: &Digests) -> u64 {
    let wrong = mismatches(&pass.digests, reference);
    for e in &pass.errors {
        println!("FAILED {name} pass: {e}");
    }
    for (task, epoch, iteration) in wrong.iter().take(8) {
        println!(
            "FAILED {name} pass: task {task} batch {epoch}/{iteration} differs from the reference"
        );
    }
    (pass.attempted - pass.delivered) + wrong.len() as u64
}

/// What a result row carries besides its metrics: who measured, what,
/// for how long.
struct Stamps(Vec<(String, JsonValue)>);

impl Stamps {
    fn new(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Self {
        let mut stamps = Stamps(Vec::new());
        stamps.push("workload", s(spec.name));
        stamps.push("seed", n(seed as f64));
        stamps.push("seconds", n(seconds as f64));
        stamps.push("trace", n(f64::from(u8::from(trace))));
        stamps.push("git_rev", s(&git_rev()));
        stamps.push("nproc", n(nproc() as f64));
        stamps.push("rustc", s(&rustc_version()));
        stamps.push("sched_threads", n(SCHED_THREADS as f64));
        stamps
    }

    fn push(&mut self, key: &str, value: JsonValue) {
        self.0.push((key.to_string(), value));
    }

    /// Length, batch count and stolen share of the pass called `name`.
    fn pass(&mut self, name: &str, epochs: u64, pass: &PassResult) {
        self.push(&format!("{name}_epochs"), n(epochs as f64));
        self.push(&format!("{name}_batches"), n(pass.delivered as f64));
        self.push(&format!("{name}_trainers"), n(pass.waits_ns.len() as f64));
        self.push(&format!("{name}_wall_s"), n(pass.wall_s));
        self.push(&format!("{name}_unstolen"), n(pass.unstolen));
    }
}

/// Prints the tables and the two machine-readable lines that end a run:
/// `stamps {...}` and the result object.
fn finish(
    stamps: Stamps,
    defs: &[MetricDef],
    values: &Values,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Result<bool, BoxError> {
    let strangers = values.strangers(defs);
    if !strangers.is_empty() {
        return Err(format!("metrics outside the contract: {strangers:?}").into());
    }
    println!("metrics:");
    print!("{}", values.render_table(defs));
    println!("attempted {attempted} failed {failed} correct {correct}");
    println!("stamps {}", render(&JsonValue::Obj(stamps.0)));
    println!(
        "{}",
        render(&obj(vec![
            ("correct", JsonValue::Bool(correct)),
            ("attempted", n(attempted as f64)),
            ("failed", n(failed as f64)),
            ("metrics", values.to_json(defs)),
        ]))
    );
    Ok(correct)
}

pub fn run_once(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    refuse_unmeasurable_build()?;
    if nproc() < 2 {
        eprintln!(
            "sandbench: warning: {} core; the reference host has 2 and the passes are sized for it",
            nproc()
        );
    }
    println!("{}: {}", spec.name, spec.why);
    let outcome = if trace {
        traced_run(spec, seed, seconds)
    } else {
        untraced_run(spec, seed, seconds)
    };
    outcome.map_err(|e| e.to_string())
}

/// `--trace 0`: the end-to-end metrics.
fn untraced_run(spec: &Spec, seed: u64, seconds: u64) -> Result<bool, BoxError> {
    let scratch = Scratch::new()?;
    let sat_epochs = Spec::scaled(spec.saturated_epochs, seconds);
    let paced_epochs = Spec::scaled(spec.paced_epochs, seconds);
    let gpu_iter = Duration::from_micros(spec.paced_gpu_iter_us);
    println!(
        "sandbench {} seed {seed}: saturated {sat_epochs} epochs, paced {paced_epochs} epochs at {} us of GPU per iteration",
        spec.name, spec.paced_gpu_iter_us
    );
    let options = |name: &str| RigOptions {
        trace_cap: None,
        store_dir: Some(scratch.0.join(name)),
    };
    // Set-up is sampled three times: once before each pass, once more on
    // its own. Each sample is a full `Dataset::generate` + engine `new` +
    // `start`; the metric is their median.
    let mut setups = Vec::new();
    let mut dataset = None;
    let (rig, setup_s) = setup_sample(spec, seed, &mut dataset, sat_epochs, &options("saturated"))?;
    setups.push(setup_s);
    let saturated = run_pass(spec, &rig, sat_epochs, Duration::ZERO, false);
    drop(rig);

    let (rig, setup_s) = setup_sample(spec, seed, &mut dataset, paced_epochs, &options("paced"))?;
    setups.push(setup_s);
    let paced = run_pass(spec, &rig, paced_epochs, gpu_iter, false);
    drop(rig);

    let (rig, setup_s) = setup_sample(spec, seed, &mut dataset, sat_epochs, &options("setup"))?;
    setups.push(setup_s);
    drop(rig);
    let dataset = dataset.ok_or("no dataset was generated")?;

    // Read before the reference exists: its memory is not the workload's.
    let peak_rss = peak_rss_mib();

    let t0 = Instant::now();
    let reference = reference_digests(spec, &dataset, seed, sat_epochs.max(paced_epochs), &[])?;
    let reference_s = t0.elapsed().as_secs_f64();
    let split = disagreements(&saturated.digests, &paced.digests);
    if split > 0 {
        println!("FAILED: the saturated and paced passes disagree on {split} batches");
    }
    let failed = failed_batches("saturated", &saturated, &reference)
        + failed_batches("paced", &paced, &reference)
        + split;
    let attempted = saturated.attempted + paced.attempted;

    if let Some(few) = saturated
        .waits_ns
        .iter()
        .map(Vec::len)
        .find(|&n| !percentile_supported(n, 0.99))
    {
        println!("warning: {few} saturated batches of one trainer leave fewer than 10 samples beyond p99");
    }
    let mut values = Values::default();
    values.set("batches_per_s", rate(&saturated));
    values.set("batch_wait_p50_ms", wait_percentile_ms(&saturated, 0.5));
    values.set("batch_wait_p99_ms", wait_percentile_ms(&saturated, 0.99));
    // The GPU's own time is a sleep no hypervisor stretches; the period
    // around it is set by the loader, which is CPU-bound.
    values.set(
        "gpu_busy_frac",
        (paced.gpu_busy_frac / paced.unstolen).min(1.0),
    );
    values.set("setup_s", median(&setups));
    values.set("peak_rss_mib", peak_rss);

    println!(
        "saturated: {} batches in {:.3} s of wall clock ({:.1}/s), {:.1} % of its CPU time stolen; paced: {} batches in {:.3} s ({:.1}/s, RunReport::utilization {:.3}), {:.1} % stolen",
        saturated.delivered,
        saturated.wall_s,
        ratio(saturated.delivered as f64, saturated.wall_s),
        100.0 * (1.0 - saturated.unstolen),
        paced.delivered,
        paced.wall_s,
        ratio(paced.delivered as f64, paced.wall_s),
        paced.gpu_busy_frac,
        100.0 * (1.0 - paced.unstolen),
    );
    println!(
        "reference: {} batches in {reference_s:.3} s; set-up samples {setups:.3?} s",
        reference.len()
    );
    println!(
        "trainers finished after {:.3?} s (saturated) and {:.3?} s (paced)",
        saturated.lane_walls_s, paced.lane_walls_s
    );
    let mut stamps = Stamps::new(spec, seed, seconds, false);
    stamps.pass("saturated", sat_epochs, &saturated);
    stamps.pass("paced", paced_epochs, &paced);
    stamps.push("paced_gpu_iter_us", n(spec.paced_gpu_iter_us as f64));
    stamps.push("reference_s", n(reference_s));
    stamps.push("reference_batches", n(reference.len() as f64));
    finish(stamps, &END_TO_END, &values, attempted, failed, failed == 0)
}

/// Sums one field of `EngineStats` over the engines of a pass.
fn total(stats: &[EngineStats], f: impl Fn(&EngineStats) -> u64) -> f64 {
    stats.iter().map(f).sum::<u64>() as f64
}

/// The counters the count metrics are made of, by name: properties of
/// the plan, so they should not move when the clock or tracing does.
fn count_vector(stats: &[EngineStats]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>();
    vec![
        (
            "decode.frames_requested",
            sum(|s| s.decode.frames_requested),
        ),
        ("decode.frames_decoded", sum(|s| s.decode.frames_decoded)),
        ("decode.warm_hits", sum(|s| s.decode.warm_hits)),
        ("decode.cold_starts", sum(|s| s.decode.cold_starts)),
        ("aug_ops_applied", sum(|s| s.aug_ops_applied)),
        ("batches_served", sum(|s| s.batches_served)),
        ("store.memory_hits", sum(|s| s.store.memory_hits)),
        ("store.disk_hits", sum(|s| s.store.disk_hits)),
        ("store.misses", sum(|s| s.store.misses)),
        ("store.evictions", sum(|s| s.store.evictions)),
        ("store.spills", sum(|s| s.store.spills)),
        ("store.compactions", sum(|s| s.store.compactions)),
        ("sched.demand_served", sum(|s| s.sched.demand_served)),
        ("sched.pre_served", sum(|s| s.sched.pre_served)),
        ("sched.prefetch_served", sum(|s| s.sched.prefetch_served)),
        ("sched.affinity_hits", sum(|s| s.sched.affinity_hits)),
        ("sched.affinity_steals", sum(|s| s.sched.affinity_steals)),
    ]
}

fn count_metrics(values: &mut Values, pass: &PassResult) {
    let st = &pass.stats;
    let counts = count_vector(st);
    let c = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let batches = pass.delivered as f64;
    let reads = c("store.memory_hits") + c("store.disk_hits") + c("store.misses");
    let warm = c("decode.warm_hits");
    let pinned = c("sched.affinity_hits") + c("sched.affinity_steals");
    let per_batch = |name: &str| ratio(c(name), batches);
    values.set(
        "codec.frames_decoded_per_batch",
        per_batch("decode.frames_decoded"),
    );
    values.set(
        "codec.decode_amplification",
        ratio(c("decode.frames_decoded"), c("decode.frames_requested")),
    );
    values.set(
        "codec.warm_hit_frac",
        ratio(warm, warm + c("decode.cold_starts")),
    );
    values.set("frame.aug_ops_per_batch", per_batch("aug_ops_applied"));
    values.set("storage.mem_hit_frac", ratio(c("store.memory_hits"), reads));
    values.set("storage.disk_hit_frac", ratio(c("store.disk_hits"), reads));
    values.set("storage.evictions_per_batch", per_batch("store.evictions"));
    values.set("storage.spills_per_batch", per_batch("store.spills"));
    values.set("storage.compactions", c("store.compactions"));
    values.set(
        "storage.log_bytes_per_live_byte",
        ratio(
            total(st, |s| s.store.log_bytes),
            total(st, |s| s.store.disk_bytes),
        ),
    );
    values.set(
        "sched.busy_ms_per_batch",
        ratio(total(st, |s| s.sched.busy_nanos) / 1e6, batches),
    );
    values.set(
        "sched.demand_jobs_per_batch",
        per_batch("sched.demand_served"),
    );
    values.set("sched.pre_jobs_per_batch", per_batch("sched.pre_served"));
    values.set(
        "sched.prefetch_jobs_per_batch",
        per_batch("sched.prefetch_served"),
    );
    values.set(
        "sched.affinity_hit_frac",
        ratio(c("sched.affinity_hits"), pinned),
    );
}

/// Sums a counter, or a histogram's total, over the engines' snapshots.
struct Registry<'a>(Vec<&'a Snapshot>);

impl Registry<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.0.iter().filter_map(|s| s.counter(name)).sum::<u64>() as f64
    }

    /// Total observed microseconds of a latency histogram, as ms.
    fn hist_ms(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter_map(|s| s.histogram(name))
            .map(|h| h.sum)
            .sum::<u64>() as f64
            / 1e3
    }
}

/// The engine's own trace of every batch as spans under the `vfs.open`
/// that caused it: `core.serve`, and under it the ten segments, laid end
/// to end (they are contiguous offsets of one clock). A serve ends when
/// its `open` returns, which places it in time.
fn engine_spans(traced: &PassResult, lanes: &[Lane]) -> Vec<Span> {
    let opens: HashMap<u64, &Span> = traced
        .spans
        .iter()
        .filter(|s| s.name == "vfs.open")
        .map(|s| (s.id, s))
        .collect();
    let mut out = Vec::new();
    for t in traced
        .stall_reports
        .iter()
        .flatten()
        .flat_map(|r| &r.traces)
    {
        let Some((lane_index, lane)) = lanes.iter().enumerate().find(|(_, l)| {
            l.task == t.task && t.iteration >= l.offset && (t.iteration - l.offset) % l.stride == 0
        }) else {
            continue;
        };
        let lane_index = lane_index as u64;
        let batch_index = t.epoch * lane.local_iters() + (t.iteration - lane.offset) / lane.stride;
        let Some(open) = opens.get(&span_id(lane_index, Role::Open, batch_index)) else {
            continue;
        };
        let serve_id = span_id(lane_index, Role::Serve, batch_index);
        let mut cursor = open.end_ns.saturating_sub(t.serve_ns);
        out.push(Span {
            name: "core.serve",
            id: serve_id,
            parent: Some(open.id),
            batch: open.batch,
            start_ns: cursor,
            end_ns: open.end_ns,
        });
        for (k, (label, ns)) in STAGE_LABELS.iter().zip(t.breakdown_ns()).enumerate() {
            out.push(Span {
                name: label,
                id: span_id(lane_index, Role::Segment, batch_index * 16 + k as u64),
                parent: Some(serve_id),
                batch: open.batch,
                start_ns: cursor,
                end_ns: cursor + ns,
            });
            cursor += ns;
        }
    }
    out
}

/// The traced pass's metrics and the roll-up table: per-batch means in
/// ms, each level summing to the one above. `spans` holds the
/// benchmark's spans and the engine's (see [`engine_spans`]). Returns
/// whether the accounting added up.
fn traced_metrics(
    values: &mut Values,
    spec: &Spec,
    traced: &PassResult,
    spans: &[Span],
    single_trainer: bool,
) -> Result<bool, BoxError> {
    let batches = traced.delivered as f64;
    let per_batch_ms = |ns: u64| ratio(ns as f64 / 1e6, batches);
    let mut ok = true;

    // The engine's own traces: serve latency and its ten segments.
    let mut segments = [0u64; 10];
    let mut serve_ns = 0u64;
    let mut traces = 0u64;
    for t in traced
        .stall_reports
        .iter()
        .flatten()
        .flat_map(|r| &r.traces)
    {
        if t.breakdown_sum_ns() != t.serve_ns {
            println!(
                "FAILED: trace {} segments sum to {} ns, serve took {} ns",
                t.batch_id(),
                t.breakdown_sum_ns(),
                t.serve_ns
            );
            ok = false;
        }
        serve_ns += t.serve_ns;
        traces += 1;
        for (acc, v) in segments.iter_mut().zip(t.breakdown_ns()) {
            *acc += v;
        }
    }
    if traces != traced.delivered {
        println!(
            "FAILED: {traces} engine traces for {} delivered batches",
            traced.delivered
        );
        ok = false;
    }
    values.set("core.serve_ms", per_batch_ms(serve_ns));
    // Data-driven from the product's own label list: a segment added
    // there fails here until the contract lists its `seg.*` metric.
    for (label, ns) in STAGE_LABELS.iter().zip(segments) {
        let name = PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|name| {
                name.strip_prefix("seg.")
                    .and_then(|r| r.strip_suffix("_ms"))
                    == Some(label)
            })
            .ok_or_else(|| format!("stage `{label}` has no seg.* metric"))?;
        values.set(name, per_batch_ms(ns));
    }

    // The benchmark's spans. What the reader's spans leave of the
    // trainer's wait is the loader queue: hand-over and wake-up.
    let span = |name: &str| total_ns(spans, name);
    let wait = span("train.batch_wait");
    let open_self = total_self_time_ns(spans, "vfs.open");
    let reader = [
        "vfs.open",
        "vfs.read",
        "vfs.getxattr",
        "vfs.close",
        "train.tensor_parse",
    ];
    let queue_ns = wait as f64 - reader.iter().map(|name| span(name)).sum::<u64>() as f64;
    let unattributed = ratio(queue_ns.abs(), wait as f64);
    values.set("train.batch_wait_ms", per_batch_ms(wait));
    for name in reader {
        let metric = PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|m| m.strip_suffix("_ms") == Some(name))
            .ok_or_else(|| format!("span `{name}` has no metric"))?;
        values.set(metric, per_batch_ms(span(name)));
    }
    values.set("vfs.open_self_ms", per_batch_ms(open_self));
    values.set("train.loader_queue_ms", ratio(queue_ns / 1e6, batches));
    values.set("trace.unattributed_frac", unattributed);
    values.set("trace.spans", spans.len() as f64);
    values.set("trace.engine_traces", traces as f64);

    // The registry a production run exports.
    let registry = Registry(traced.snapshots.iter().flatten().collect());
    let per_batch_hist_ms = |name: &str| ratio(registry.hist_ms(name), batches);
    let (hit, late, miss) = (
        registry.counter("prefetch.hit"),
        registry.counter("prefetch.late"),
        registry.counter("prefetch.miss"),
    );
    let (wins, adoptions) = (
        registry.counter("fleet.dedup_wins"),
        registry.counter("fleet.dedup_adoptions"),
    );
    let (fetch_hits, fetch_misses, fetch_errors, coalesced) = (
        registry.counter("net.fetch_hits"),
        registry.counter("net.fetch_misses"),
        registry.counter("net.fetch_errors"),
        registry.counter("net.fetch_coalesced"),
    );
    let fetches = fetch_hits + fetch_misses + fetch_errors;
    values.set("core.prefetch_hit_frac", ratio(hit, hit + late + miss));
    values.set("core.dedup_adopt_frac", ratio(adoptions, wins + adoptions));
    values.set(
        "core.dedup_wait_ms",
        per_batch_hist_ms("fleet.dedup_wait_us"),
    );
    values.set(
        "frame.scratch_wait_ms",
        per_batch_hist_ms("aug.scratch_wait_us"),
    );
    values.set(
        "sched.demand_wait_ms",
        per_batch_hist_ms("sched.demand_wait_us"),
    );
    values.set(
        "storage.disk_read_ms",
        per_batch_hist_ms("store.disk_read_us"),
    );
    values.set(
        "storage.vlog_append_ms",
        per_batch_hist_ms("store.vlog.append_us"),
    );
    values.set("net.fetch_hit_frac", ratio(fetch_hits, fetches));
    values.set("net.fetch_ms", per_batch_hist_ms("net.fetch_us"));
    values.set(
        "net.rx_mib_per_batch",
        ratio(
            registry.counter("net.bytes_rx") / f64::from(1 << 20),
            batches,
        ),
    );
    values.set("net.coalesced_frac", ratio(coalesced, fetches + coalesced));
    values.set("net.fetch_errors", fetch_errors);

    // The table: every line is a share of the line it hangs under.
    let row = |depth: usize, sign: &str, label: &str, ns: f64| {
        println!(
            "{:indent$}{sign} {label:<width$} {:10.4} ms {:6.1} %",
            "",
            ns / 1e6 / batches.max(1.0),
            100.0 * ratio(ns, wait as f64),
            indent = 2 + 4 * depth,
            width = 34 - 4 * depth,
        );
    };
    println!(
        "roll-up per batch over {} traced batches (shares are of train.batch_wait):",
        traced.delivered
    );
    row(0, " ", "train.batch_wait", wait as f64);
    row(1, "=", "vfs.open", span("vfs.open") as f64);
    row(2, "=", "self", open_self as f64);
    row(2, "+", "core.serve", serve_ns as f64);
    for (k, (label, ns)) in STAGE_LABELS.iter().zip(segments).enumerate() {
        row(3, if k == 0 { "=" } else { "+" }, label, ns as f64);
    }
    for name in &reader[1..] {
        row(1, "+", name, span(name) as f64);
    }
    row(1, "+", "loader queue (what is left)", queue_ns);
    println!("  unattributed {unattributed:.4} of train.batch_wait");

    // Does the layer the workload exists for carry the wait?
    let share_of = |label: &str| match STAGE_LABELS.iter().position(|l| *l == label) {
        Some(k) => segments[k] as f64,
        None => {
            open_self as f64
                + queue_ns.max(0.0)
                + reader[1..].iter().map(|n| span(n)).sum::<u64>() as f64
        }
    };
    let named: f64 = spec.dominant.iter().map(|l| share_of(l)).sum();
    let rival = STAGE_LABELS
        .iter()
        .filter(|l| !spec.dominant.contains(l))
        .map(|l| (*l, share_of(l)))
        .fold(("none", 0.0), |best, x| if x.1 > best.1 { x } else { best });
    println!(
        "  the layers this workload is for ({}) carry {:.1} % of the wait; the largest segment outside them is {} with {:.1} %",
        spec.dominant.join(" + "),
        100.0 * ratio(named, wait as f64),
        rival.0,
        100.0 * ratio(rival.1, wait as f64),
    );
    if single_trainer && unattributed > 0.05 {
        println!("FAILED: {unattributed:.4} of the trainer's wait is not covered by any span (limit 0.05)");
        ok = false;
    }
    Ok(ok)
}

/// The PyTorchVideo-style baseline: one on-demand CPU loader per job,
/// nothing shared, over the same tasks and dataset. Batches per second.
fn ondemand_pass(
    spec: &Spec,
    dataset: &Arc<Dataset>,
    seed: u64,
    epochs: u64,
) -> Result<f64, BoxError> {
    let tasks = parsed_tasks(spec)?;
    let workers = (SCHED_THREADS / tasks.len()).max(1);
    let plans = tasks
        .iter()
        .map(|cfg| TaskPlan::single_task(cfg, dataset, 0..epochs, seed).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(&tasks)
            .map(|(plan, cfg)| {
                scope.spawn(move || {
                    let mut loader = OnDemandCpuLoader::new(
                        Arc::clone(dataset),
                        Arc::clone(plan),
                        workers,
                        LOADER_DEPTH,
                    );
                    trainer().run(
                        &mut loader as &mut dyn Loader,
                        &trainer_config(
                            "ondemand",
                            Duration::ZERO,
                            cfg.sampling.videos_per_batch,
                            epochs,
                            plan.iters_per_epoch,
                        ),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("on-demand trainer panicked"))
            .collect::<Vec<_>>()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut batches = 0;
    for r in reports {
        batches += r?.iterations;
    }
    Ok(ratio(batches as f64, wall))
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(spec: &Spec, seed: u64, seconds: u64) -> Result<bool, BoxError> {
    let scratch = Scratch::new()?;
    let epochs = Spec::scaled(spec.traced_epochs, seconds);
    println!(
        "sandbench {} seed {seed}: saturated pass of {epochs} epochs, untraced then traced",
        spec.name
    );
    let mut values = Values::default();
    let mut ok = true;

    let (dataset, generate_s) = generate(spec, seed)?;
    values.set("codec.dataset_generate_s", generate_s);

    let rig = Rig::build(
        spec,
        &dataset,
        seed,
        epochs,
        &RigOptions {
            trace_cap: None,
            store_dir: Some(scratch.0.join("plain")),
        },
    )?;
    values.set("core.engine_new_s", rig.engine_new_s);
    values.set("core.engine_start_s", rig.engine_start_s);
    let plain = run_pass(spec, &rig, epochs, Duration::ZERO, false);
    drop(rig);
    values.set("core.first_batch_ms", plain.first_batch_ms);
    values.set("train.saturated_batches", plain.delivered as f64);
    count_metrics(&mut values, &plain);

    let traced_dir = scratch.0.join("traced");
    let traced_options = RigOptions {
        trace_cap: Some(plain.attempted as usize + 64),
        store_dir: Some(traced_dir),
    };
    let rig = Rig::build(spec, &dataset, seed, epochs, &traced_options)?;
    let traced = run_pass(spec, &rig, epochs, Duration::ZERO, true);
    values.set("train.traced_batches", traced.delivered as f64);
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    values.set("host.steal_frac", 1.0 - traced.unstolen);
    values.set("train.traced_batches_per_s", traced_rate);
    values.set(
        "telemetry.overhead_frac",
        1.0 - ratio(traced_rate, plain_rate),
    );
    let mut spans = traced.spans.clone();
    spans.extend(engine_spans(&traced, &rig.lanes));
    ok &= traced_metrics(&mut values, spec, &traced, &spans, rig.lanes.len() == 1)?;

    // Counts are a property of the plan, not of the clock: tracing must
    // not move them.
    let differing: Vec<String> = count_vector(&plain.stats)
        .into_iter()
        .zip(count_vector(&traced.stats))
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{} {} -> {}", a.0, a.1, b.1))
        .collect();
    values.set("train.count_mismatches", differing.len() as f64);
    if !differing.is_empty() {
        println!("counts that differ between the untraced and the traced pass: {differing:?}");
    }

    let budget = Duration::from_secs_f64(seconds as f64 * PROBE_SHARE);
    values.extend(run_probes(
        spec,
        &dataset,
        seed,
        &rig.engines[0],
        &rig.lanes[0].task,
        &scratch.0,
        budget,
    )?);
    let task = rig.lanes[0].task.clone();
    drop(rig);

    // Restart on the value log the traced pass left: replay, then the
    // first batch of the epoch a resumed job would be in.
    let mut extra = Vec::new();
    if spec.disk {
        let t0 = Instant::now();
        let rig = Rig::build(spec, &dataset, seed, epochs, &traced_options)?;
        let bytes = rig.engines[0].serve_batch(&task, epochs - 1, 0)?;
        values.set(
            "core.restart_first_batch_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        let snapshots: Vec<Snapshot> = rig
            .engines
            .iter()
            .filter_map(sand_core::SandEngine::metrics_snapshot)
            .collect();
        let replay_ms = Registry(snapshots.iter().collect()).hist_ms("store.vlog.replay_us");
        values.set("storage.replay_s", replay_ms / 1e3);
        extra.push(((0, epochs - 1, 0), crate::loader::digest64(&bytes)));
    }

    if spec.ondemand_epochs > 0 {
        let od_epochs = Spec::scaled(spec.ondemand_epochs, seconds);
        values.set(
            "train.ondemand_cpu_batches_per_s",
            ondemand_pass(spec, &dataset, seed, od_epochs)?,
        );
    }

    let t0 = Instant::now();
    let keys: Vec<_> = extra.iter().map(|(k, _)| *k).collect();
    let reference = reference_digests(spec, &dataset, seed, epochs, &keys)?;
    values.set("train.reference_s", t0.elapsed().as_secs_f64());
    let mut failed = failed_batches("untraced", &plain, &reference)
        + failed_batches("traced", &traced, &reference);
    for (key, digest) in &extra {
        if reference.get(key) != Some(digest) {
            println!("FAILED: the batch served after restart differs from the reference");
            failed += 1;
        }
    }
    let attempted = plain.attempted + traced.attempted + extra.len() as u64;

    std::fs::create_dir_all(OUT_DIR)?;
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", spec.name));
    std::fs::write(&spans_path, render_jsonl(&spans))?;
    println!("{} spans written to {}", spans.len(), spans_path.display());

    let mut stamps = Stamps::new(spec, seed, seconds, true);
    stamps.pass("untraced", epochs, &plain);
    stamps.pass("traced", epochs, &traced);
    println!(
        "untraced {plain_rate:.1} batches/s, traced {traced_rate:.1} batches/s; traced wait p50 {:.3} ms p99 {:.3} ms",
        wait_percentile_ms(&traced, 0.5),
        wait_percentile_ms(&traced, 0.99)
    );
    finish(
        stamps,
        &PER_LAYER,
        &values,
        attempted,
        failed,
        ok && failed == 0,
    )
}
