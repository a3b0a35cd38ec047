//! Layer probes: direct timed calls into one layer's public functions.
//!
//! A probe zooms in on one layer with nothing else running, on inputs
//! taken from the workload's own plan and from the objects its traced
//! pass left in the store. Each runs only on its home workload and for
//! about [`PROBE_SHARE`] of the run's `--seconds`.

use crate::rig::{planned_tasks, BoxError};
use crate::workloads::{Probe, Spec, SCHED_THREADS, STORE_SHARDS};
use sand_codec::{Dataset, Decoder};
use sand_core::SandEngine;
use sand_frame::{compress_frame, decompress_frame, Frame};
use sand_graph::{prune_to_budget, ConcreteGraph, PlanInput, Planner, PlannerOptions, VideoMeta};
use sand_net::{ClientConfig, ServerConfig, ViewClient, ViewServer};
use sand_sched::{Job, JobKind, SchedConfig, Scheduler};
use sand_storage::{ObjectMeta, ObjectStore, StoreConfig, Tier};
use sand_telemetry::Telemetry;
use sand_vfs::{SandVfs, ViewPath, ViewProvider};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` each probe may use.
pub const PROBE_SHARE: f64 = 0.04;
/// Most objects a probe copies out of the engine's store.
const MAX_OBJECTS: usize = 256;

pub type Metrics = Vec<(&'static str, f64)>;

/// Repeats `round` (which returns how many operations it did) until
/// `budget` is spent; returns `(operations, seconds)`. Always runs once.
fn repeat(
    budget: Duration,
    mut round: impl FnMut() -> Result<u64, BoxError>,
) -> Result<(u64, f64), BoxError> {
    let started = Instant::now();
    let mut ops = 0;
    loop {
        ops += round()?;
        if started.elapsed() >= budget {
            return Ok((ops, started.elapsed().as_secs_f64()));
        }
    }
}

fn us_per_op((ops, secs): (u64, f64)) -> f64 {
    secs * 1e6 / ops.max(1) as f64
}

/// Up to [`MAX_OBJECTS`] stored objects of `engine`, in key order so the
/// choice does not depend on hash-map iteration.
fn sample_objects(engine: &SandEngine) -> Vec<(String, Arc<Vec<u8>>)> {
    let store = engine.store();
    let mut keys = store.keys();
    keys.sort_unstable();
    let step = (keys.len() / MAX_OBJECTS).max(1);
    keys.into_iter()
        .step_by(step)
        .take(MAX_OBJECTS)
        .filter_map(|k| store.get(&k).ok().map(|b| (k, b)))
        .collect()
}

fn video_metas(dataset: &Dataset) -> Vec<VideoMeta> {
    dataset
        .videos()
        .iter()
        .map(|v| {
            let h = &v.encoded.header;
            VideoMeta {
                video_id: v.video_id,
                frames: v.encoded.frame_count(),
                width: h.width,
                height: h.height,
                channels: h.format.channels(),
                gop_size: h.gop_size,
                encoded_bytes: v.encoded.encoded_size(),
            }
        })
        .collect()
}

fn chunk_planner(spec: &Spec, dataset: &Dataset, seed: u64) -> Result<Planner, BoxError> {
    Ok(Planner::new(
        planned_tasks(spec)?
            .into_iter()
            .enumerate()
            .map(|(i, config)| PlanInput {
                task_id: i as u32,
                config,
            })
            .collect(),
        video_metas(dataset),
        PlannerOptions {
            seed,
            coordinate: true,
            epochs: 0..spec.epochs_per_chunk,
        },
    )?)
}

/// `graph.plan_chunk_ms`, `graph.prune_ms`: planning and pruning chunk 0
/// exactly as the engine does at every chunk boundary.
fn probe_graph(
    spec: &Spec,
    dataset: &Dataset,
    seed: u64,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let planner = chunk_planner(spec, dataset, seed)?;
    let plan = repeat(budget, || {
        black_box(planner.plan()?);
        Ok(1)
    })?;
    let graph = planner.plan()?;
    // Cloning the graph is not pruning: time it apart and take it off.
    let clone = repeat(budget / 4, || {
        black_box(graph.clone());
        Ok(1)
    })?;
    let prune = repeat(budget, || {
        let mut g = graph.clone();
        black_box(prune_to_budget(&mut g, spec.cache_budget));
        Ok(1)
    })?;
    Ok(vec![
        ("graph.plan_chunk_ms", us_per_op(plan) / 1e3),
        (
            "graph.prune_ms",
            (us_per_op(prune) - us_per_op(clone)).max(0.0) / 1e3,
        ),
    ])
}

/// `codec.decode_us_per_frame`: `Decoder::decode_indices` over the clips
/// chunk 0 plans, per frame actually decoded (reference frames included).
fn probe_codec(
    graph: &ConcreteGraph,
    dataset: &Dataset,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let clips: Vec<_> = graph
        .batches
        .iter()
        .flat_map(|b| &b.samples)
        .take(64)
        .collect();
    let decode = repeat(budget, || {
        let mut frames = 0;
        for clip in &clips {
            let video = dataset.get(clip.video_id).ok_or("planned video missing")?;
            let mut decoder = Decoder::new(&video.encoded);
            black_box(decoder.decode_indices(&clip.frame_indices)?);
            frames += decoder.stats().frames_decoded;
        }
        Ok(frames)
    })?;
    Ok(vec![("codec.decode_us_per_frame", us_per_op(decode))])
}

/// `frame.aug_us_per_op`: the resolved pixel ops of chunk 0's chains,
/// applied to the frames they are planned over.
fn probe_frame(
    graph: &ConcreteGraph,
    dataset: &Dataset,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let mut chains = Vec::new();
    for clip in graph.batches.iter().flat_map(|b| &b.samples).take(16) {
        let video = dataset.get(clip.video_id).ok_or("planned video missing")?;
        let frames = Decoder::new(&video.encoded).decode_indices(&clip.frame_indices)?;
        for (frame, &terminal) in frames.into_iter().zip(&clip.frame_nodes) {
            let ops = sand_train::chain_ops(graph, terminal)
                .iter()
                .filter_map(|op| op.to_frame_op().transpose())
                .collect::<Result<Vec<_>, _>>()?;
            chains.push((frame, ops));
        }
    }
    let aug = repeat(budget, || {
        let mut ops_applied = 0;
        for (frame, ops) in &chains {
            let mut cur: Option<Frame> = None;
            for op in ops {
                cur = Some(op.apply(cur.as_ref().unwrap_or(frame))?);
                ops_applied += 1;
            }
            black_box(cur);
        }
        Ok(ops_applied)
    })?;
    Ok(vec![("frame.aug_us_per_op", us_per_op(aug))])
}

fn probe_store_config(memory_budget: u64) -> StoreConfig {
    StoreConfig {
        memory_budget,
        disk_budget: 1 << 30,
        shards: STORE_SHARDS,
        ..Default::default()
    }
}

/// Puts every object, sweeping the budgets after each when `sweep`.
fn put_all(
    store: &ObjectStore,
    objects: &[(String, Arc<Vec<u8>>)],
    meta: ObjectMeta,
    sweep: bool,
) -> Result<u64, BoxError> {
    for (k, b) in objects {
        store.put(k, Arc::clone(b), meta)?;
        if sweep {
            store.enforce_budgets()?;
        }
    }
    Ok(objects.len() as u64)
}

/// `storage.put_us`, `storage.mem_get_us`, `storage.evict_put_us` on a
/// memory-only store. `resident` is how many objects the workload's own
/// store held: the eviction sweep's cost grows with it.
fn probe_store_mem(
    objects: &[(String, Arc<Vec<u8>>)],
    resident: usize,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let meta = ObjectMeta {
        deadline: Some(1),
        future_uses: u32::MAX,
    };
    let put = repeat(budget, || {
        let store = ObjectStore::memory_only(probe_store_config(1 << 30))?;
        put_all(&store, objects, meta, false)
    })?;
    let store = ObjectStore::memory_only(probe_store_config(1 << 30))?;
    put_all(&store, objects, meta, false)?;
    let get = repeat(budget, || {
        for (k, _) in objects {
            black_box(store.get(k)?);
        }
        Ok(objects.len() as u64)
    })?;
    // A store as full as the workload's, at its budget: every further
    // put has to push an older object out.
    let copies = resident.div_ceil(objects.len().max(1)).max(1);
    let bytes: u64 = objects.iter().map(|(_, b)| b.len() as u64).sum();
    let full = ObjectStore::memory_only(probe_store_config(bytes * copies as u64))?;
    for copy in 0..copies {
        for (k, b) in objects {
            full.put(&format!("{k}#{copy}"), Arc::clone(b), meta)?;
        }
    }
    let mut round = 0;
    let evict = repeat(budget, || {
        round += 1;
        for (k, b) in objects {
            full.put(&format!("{k}@{round}"), Arc::clone(b), meta)?;
            full.enforce_budgets()?;
        }
        Ok(objects.len() as u64)
    })?;
    Ok(vec![
        ("storage.put_us", us_per_op(put)),
        ("storage.mem_get_us", us_per_op(get)),
        ("storage.evict_put_us", us_per_op(evict)),
    ])
}

/// `storage.spill_put_us`, `storage.disk_get_us`,
/// `storage.replay_mib_per_s` on a value log under `dir`.
fn probe_store_disk(
    objects: &[(String, Arc<Vec<u8>>)],
    dir: &Path,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let bytes: u64 = objects.iter().map(|(_, b)| b.len() as u64).sum();
    // A memory tier an eighth of the objects: most puts end in a spill.
    let config = probe_store_config((bytes / 8).max(64 << 10));
    let meta = ObjectMeta {
        deadline: Some(1_000_000),
        future_uses: u32::MAX,
    };
    let mut round = 0;
    let spill = repeat(budget, || {
        round += 1;
        let sub = dir.join(format!("spill-{round}"));
        let store = ObjectStore::open(config, Some(sub.clone()))?;
        let puts = put_all(&store, objects, meta, true)?;
        drop(store);
        std::fs::remove_dir_all(&sub)?;
        Ok(puts)
    })?;
    let sub = dir.join("read");
    let store = ObjectStore::open(config, Some(sub.clone()))?;
    put_all(&store, objects, meta, true)?;
    // Time only reads that start on the disk tier; a read promotes the
    // object, so the sweep after it pushes something else back out.
    let mut disk_reads = 0u64;
    let mut disk_secs = 0.0;
    let started = Instant::now();
    while started.elapsed() < budget || disk_reads == 0 {
        let before = disk_reads;
        for (k, _) in objects {
            if store.tier_of(k) == Some(Tier::Disk) {
                let t0 = Instant::now();
                black_box(store.get(k)?);
                disk_secs += t0.elapsed().as_secs_f64();
                disk_reads += 1;
                store.enforce_budgets()?;
            }
        }
        if disk_reads == before {
            return Err("disk probe: nothing on the disk tier".into());
        }
    }
    let log_bytes = store.stats().log_bytes;
    drop(store);
    let replay = repeat(budget, || {
        black_box(ObjectStore::open(config, Some(sub.clone()))?);
        Ok(1)
    })?;
    std::fs::remove_dir_all(&sub)?;
    Ok(vec![
        ("storage.spill_put_us", us_per_op(spill)),
        ("storage.disk_get_us", disk_secs * 1e6 / disk_reads as f64),
        (
            "storage.replay_mib_per_s",
            log_bytes as f64 / (1 << 20) as f64 / (replay.1 / replay.0 as f64),
        ),
    ])
}

/// `frame.compress_mib_per_s`, `frame.decompress_mib_per_s`, in MiB of
/// raw pixels.
fn probe_compress(
    objects: &[(String, Arc<Vec<u8>>)],
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let frames: Vec<Frame> = objects
        .iter()
        .filter_map(|(_, b)| decompress_frame(b).ok())
        .collect();
    if frames.is_empty() {
        return Err("compress probe: no frame objects".into());
    }
    let raw_mib = frames.iter().map(Frame::byte_len).sum::<usize>() as f64 / (1 << 20) as f64;
    let compress = repeat(budget, || {
        for f in &frames {
            black_box(compress_frame(f));
        }
        Ok(1)
    })?;
    let packed: Vec<Vec<u8>> = frames.iter().map(compress_frame).collect();
    let decompress = repeat(budget, || {
        for p in &packed {
            black_box(decompress_frame(p)?);
        }
        Ok(1)
    })?;
    Ok(vec![
        (
            "frame.compress_mib_per_s",
            raw_mib * compress.0 as f64 / compress.1,
        ),
        (
            "frame.decompress_mib_per_s",
            raw_mib * decompress.0 as f64 / decompress.1,
        ),
    ])
}

/// `sched.dispatch_us`: submit-to-done of empty demand jobs.
fn probe_sched(budget: Duration) -> Result<Metrics, BoxError> {
    let sched = Scheduler::new(SchedConfig {
        threads: SCHED_THREADS,
        ..Default::default()
    });
    let dispatch = repeat(budget, || {
        for i in 0..256u64 {
            sched.submit(Job {
                kind: JobKind::Demand,
                deadline: i,
                remaining_work: 1,
                affinity: Some(i % 8),
                tenant: None,
                run: Box::new(|| {}),
            });
        }
        sched.wait_idle();
        Ok(256)
    })?;
    sched.shutdown();
    Ok(vec![("sched.dispatch_us", us_per_op(dispatch))])
}

/// A provider that hands out one pre-made batch: what is left is the
/// view filesystem's own cost.
struct FixedProvider(Arc<Vec<u8>>);

impl ViewProvider for FixedProvider {
    fn fetch(&self, _path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
        Ok(Arc::clone(&self.0))
    }

    fn metadata(&self, _path: &ViewPath, _name: &str) -> sand_vfs::Result<String> {
        Ok(String::new())
    }
}

/// `vfs.open_read_close_us` over a real batch's bytes.
fn probe_vfs(engine: &SandEngine, task: &str, budget: Duration) -> Result<Metrics, BoxError> {
    let batch = Arc::new(engine.serve_batch(task, 0, 0)?);
    let vfs = SandVfs::new(Arc::new(FixedProvider(batch)));
    let path = ViewPath::batch(task, 0, 0);
    let cycle = repeat(budget, || {
        for _ in 0..64 {
            let fd = vfs.open(&path)?;
            black_box(vfs.read_to_end(fd)?);
            vfs.close(fd)?;
        }
        Ok(64)
    })?;
    Ok(vec![("vfs.open_read_close_us", us_per_op(cycle))])
}

/// `net.put_us`, `net.fetch_us`, `net.fetch_mib_per_s`, `net.stat_us`:
/// one `ViewClient` against a `ViewServer` over a memory store, objects
/// of the sizes the workload really moves.
fn probe_net(objects: &[(String, Arc<Vec<u8>>)], budget: Duration) -> Result<Metrics, BoxError> {
    let store = Arc::new(ObjectStore::memory_only(probe_store_config(1 << 30))?);
    let mut server = ViewServer::serve(
        "127.0.0.1:0",
        Arc::new(FixedProvider(Arc::new(Vec::new()))),
        Some(Arc::clone(&store)),
        ServerConfig {
            workers: SCHED_THREADS,
            ..Default::default()
        },
        &Telemetry::disabled(),
    )?;
    let client = ViewClient::new(
        server.local_addr(),
        ClientConfig::default(),
        &Telemetry::disabled(),
    );
    let bytes: u64 = objects.iter().map(|(_, b)| b.len() as u64).sum();
    let put = repeat(budget, || {
        for (k, b) in objects {
            client.put(k, Some(1), u32::MAX, b)?;
        }
        Ok(objects.len() as u64)
    })?;
    let fetch = repeat(budget, || {
        for (k, _) in objects {
            black_box(client.fetch(k)?.ok_or("net probe: fetch missed")?);
        }
        Ok(objects.len() as u64)
    })?;
    let stat = repeat(budget, || {
        for (k, _) in objects {
            black_box(client.stat(k)?);
        }
        Ok(objects.len() as u64)
    })?;
    server.shutdown();
    let rounds = fetch.0 as f64 / objects.len().max(1) as f64;
    Ok(vec![
        ("net.put_us", us_per_op(put)),
        ("net.fetch_us", us_per_op(fetch)),
        (
            "net.fetch_mib_per_s",
            bytes as f64 * rounds / (1 << 20) as f64 / fetch.1,
        ),
        ("net.stat_us", us_per_op(stat)),
    ])
}

/// Runs the probes `spec` is home to. `engine` is a node of the traced
/// pass's rig, still holding the objects that pass stored.
pub fn run_probes(
    spec: &Spec,
    dataset: &Dataset,
    seed: u64,
    engine: &SandEngine,
    task: &str,
    scratch: &Path,
    budget: Duration,
) -> Result<Metrics, BoxError> {
    let mut out = Metrics::new();
    let needs_objects = spec.probes.iter().any(|p| {
        matches!(
            p,
            Probe::StoreMem | Probe::StoreDisk | Probe::Compress | Probe::Net
        )
    });
    let objects = if needs_objects {
        let objects = sample_objects(engine);
        if objects.is_empty() {
            return Err("probes: the traced pass left no objects in the store".into());
        }
        objects
    } else {
        Vec::new()
    };
    let needs_graph = spec
        .probes
        .iter()
        .any(|p| matches!(p, Probe::Codec | Probe::Frame));
    let graph = if needs_graph {
        Some(chunk_planner(spec, dataset, seed)?.plan()?)
    } else {
        None
    };
    for probe in spec.probes {
        let graph = || graph.as_ref().ok_or("probe needs the chunk plan");
        out.extend(match probe {
            Probe::Codec => probe_codec(graph()?, dataset, budget)?,
            Probe::Frame => probe_frame(graph()?, dataset, budget)?,
            Probe::Graph => probe_graph(spec, dataset, seed, budget)?,
            Probe::StoreMem => probe_store_mem(&objects, engine.store().keys().len(), budget)?,
            Probe::Sched => probe_sched(budget)?,
            Probe::Vfs => probe_vfs(engine, task, budget)?,
            Probe::StoreDisk => probe_store_disk(&objects, &scratch.join("probe"), budget)?,
            Probe::Compress => probe_compress(&objects, budget)?,
            Probe::Net => probe_net(&objects, budget)?,
        });
    }
    Ok(out)
}
