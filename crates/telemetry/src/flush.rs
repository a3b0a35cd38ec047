//! Interval-driven JSONL metric flushing for long runs.
//!
//! `Telemetry::snapshot` is export-on-demand: callers get the registry
//! state when they ask for it, and a run that crashes between asks
//! leaves nothing behind. [`JsonlFlusher`] closes that gap: a background
//! thread appends every registered metric as JSON lines (the same
//! format as [`crate::Snapshot::render_jsonl`]) to a file on a fixed
//! interval, plus one final flush at shutdown, so the file always holds
//! a recent picture of the run.
//!
//! Each flush appends one full snapshot delimited by a
//! `{"type":"flush","seq":N}` marker line, so consumers can split the
//! stream back into snapshots. A byte cap bounds disk usage: when the
//! active file exceeds it after a flush, the file is rotated to
//! `<path>.1` (replacing any previous rotation) and a fresh file is
//! started — long runs keep at most two generations on disk.

use crate::Telemetry;
use sand_sanitizer::{TrackedCondvar, TrackedMutex};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Flusher configuration.
#[derive(Clone, Debug)]
pub struct FlushConfig {
    /// Destination file; parent directories are created. Appended to if
    /// it already exists.
    pub path: PathBuf,
    /// Time between flushes.
    pub interval: Duration,
    /// Rotation cap in bytes: after a flush that leaves the file larger
    /// than this, the file is renamed to `<path>.1` (replacing any
    /// previous rotation) and the next flush starts fresh. `0` disables
    /// rotation.
    pub rotate_cap_bytes: u64,
}

impl Default for FlushConfig {
    fn default() -> Self {
        Self {
            path: PathBuf::from("sand-metrics.jsonl"),
            interval: Duration::from_secs(10),
            rotate_cap_bytes: 64 << 20,
        }
    }
}

struct FlushShared {
    stop: TrackedMutex<bool>,
    wake: TrackedCondvar,
    flushes: AtomicU64,
}

/// Periodic snapshot-to-JSONL appender. Stops (with a final flush) on
/// [`JsonlFlusher::stop`] or drop.
pub struct JsonlFlusher {
    shared: Arc<FlushShared>,
    handle: Option<JoinHandle<()>>,
}

impl JsonlFlusher {
    /// Starts the background flush thread. With disabled telemetry the
    /// thread idles and writes nothing.
    pub fn start(telemetry: Telemetry, config: FlushConfig) -> io::Result<Self> {
        if let Some(parent) = config.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let shared = Arc::new(FlushShared {
            stop: TrackedMutex::new("telemetry.flush", false),
            wake: TrackedCondvar::new(),
            flushes: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sand-telemetry-flush".into())
            .spawn(move || loop {
                let stopped = {
                    let mut stop = worker_shared.stop.lock();
                    if !*stop {
                        worker_shared.wake.wait_for(&mut stop, config.interval);
                    }
                    *stop
                };
                // Best-effort: an unwritable path must not take the run
                // down, and the next tick retries.
                let _ = flush_once(&telemetry, &config, &worker_shared);
                if stopped {
                    return;
                }
            })?;
        Ok(Self {
            shared,
            handle: Some(handle),
        })
    }

    /// Completed flushes so far (includes empty flushes on disabled
    /// telemetry; excludes flushes that failed to write).
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::Relaxed)
    }

    /// Signals the thread, waits for its final flush, and joins it.
    pub fn stop(mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for JsonlFlusher {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

fn flush_once(telemetry: &Telemetry, config: &FlushConfig, shared: &FlushShared) -> io::Result<()> {
    let Some(snapshot) = telemetry.snapshot() else {
        shared.flushes.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    };
    let seq = shared.flushes.load(Ordering::Relaxed);
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&config.path)?;
    file.write_all(format!("{{\"type\":\"flush\",\"seq\":{seq}}}\n").as_bytes())?;
    file.write_all(snapshot.render_jsonl().as_bytes())?;
    file.flush()?;
    drop(file);
    shared.flushes.fetch_add(1, Ordering::Relaxed);
    if config.rotate_cap_bytes > 0 {
        if let Ok(meta) = fs::metadata(&config.path) {
            if meta.len() > config.rotate_cap_bytes {
                let mut rotated = config.path.clone().into_os_string();
                rotated.push(".1");
                let _ = fs::rename(&config.path, PathBuf::from(rotated));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{validate_jsonl, TelemetryConfig};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sand_flush_{}_{}", name, std::process::id()))
    }

    fn wait_for_flushes(f: &JsonlFlusher, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while f.flushes() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "flusher stuck at {} flushes",
                f.flushes()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn flushes_parse_and_carry_markers() {
        let dir = tmp("basic");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("metrics.jsonl");
        let t = Telemetry::new(TelemetryConfig::default());
        if let Some(r) = t.registry() {
            r.counter("store.mem_hits").add(3);
            r.gauge("sched.queue_depth").set(1);
        }
        let flusher = JsonlFlusher::start(
            t,
            FlushConfig {
                path: path.clone(),
                interval: Duration::from_millis(5),
                rotate_cap_bytes: 0,
            },
        )
        .unwrap();
        wait_for_flushes(&flusher, 2);
        flusher.stop();
        let body = fs::read_to_string(&path).unwrap();
        let lines = validate_jsonl(&body).expect("flushed file must be valid JSONL");
        let markers: Vec<u64> = lines
            .iter()
            .filter(|l| l.get("type").and_then(|v| v.as_str()) == Some("flush"))
            .filter_map(|l| l.get("seq").and_then(|v| v.as_u64()))
            .collect();
        assert!(markers.len() >= 2, "markers: {markers:?}");
        assert_eq!(markers[0], 0, "flush sequence starts at 0");
        assert!(
            lines
                .iter()
                .any(|l| l.get("name").and_then(|v| v.as_str()) == Some("store.mem_hits")),
            "metric lines flushed"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_caps_the_active_file() {
        let dir = tmp("rotate");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("metrics.jsonl");
        let t = Telemetry::new(TelemetryConfig::default());
        if let Some(r) = t.registry() {
            r.counter("engine.batches_served").add(1);
        }
        let flusher = JsonlFlusher::start(
            t,
            FlushConfig {
                path: path.clone(),
                interval: Duration::from_millis(2),
                // Smaller than one snapshot: every flush rotates.
                rotate_cap_bytes: 16,
            },
        )
        .unwrap();
        wait_for_flushes(&flusher, 3);
        flusher.stop();
        let rotated = PathBuf::from({
            let mut s = path.clone().into_os_string();
            s.push(".1");
            s
        });
        assert!(rotated.exists(), "rotated generation exists");
        let meta = fs::metadata(&rotated).unwrap();
        assert!(meta.len() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_telemetry_writes_nothing() {
        let dir = tmp("disabled");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("metrics.jsonl");
        let flusher = JsonlFlusher::start(
            Telemetry::disabled(),
            FlushConfig {
                path: path.clone(),
                interval: Duration::from_millis(2),
                rotate_cap_bytes: 0,
            },
        )
        .unwrap();
        wait_for_flushes(&flusher, 2);
        flusher.stop();
        assert!(!path.exists(), "no file for disabled telemetry");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Splits a flushed JSONL body into per-flush sections of metric
    /// names, one section per `{"type":"flush"}` marker.
    fn sections(body: &str) -> Vec<Vec<String>> {
        let lines = validate_jsonl(body).expect("flushed file must be valid JSONL");
        let mut out: Vec<Vec<String>> = Vec::new();
        for l in &lines {
            if l.get("type").and_then(|v| v.as_str()) == Some("flush") {
                out.push(Vec::new());
            } else if let Some(name) = l.get("name").and_then(|v| v.as_str()) {
                if let Some(cur) = out.last_mut() {
                    cur.push(name.to_string());
                }
            }
        }
        out
    }

    #[test]
    fn removed_series_stop_appearing_in_later_flushes() {
        let dir = tmp("remove");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("metrics.jsonl");
        let t = Telemetry::new(TelemetryConfig::default());
        let r = t.registry().unwrap();
        r.counter("series.kept").add(1);
        r.counter("series.retired").add(2);
        let flusher = JsonlFlusher::start(
            t.clone(),
            FlushConfig {
                path: path.clone(),
                interval: Duration::from_millis(5),
                rotate_cap_bytes: 0,
            },
        )
        .unwrap();
        // Let at least one full section carry both series, then retire
        // one while the flusher keeps running.
        wait_for_flushes(&flusher, 1);
        assert!(t.registry().unwrap().remove("series.retired"));
        wait_for_flushes(&flusher, flusher.flushes() + 2);
        flusher.stop();
        let secs = sections(&fs::read_to_string(&path).unwrap());
        assert!(secs.len() >= 3, "sections: {}", secs.len());
        let first = secs.first().unwrap();
        assert!(first.iter().any(|n| n == "series.retired"));
        assert!(first.iter().any(|n| n == "series.kept"));
        // Every section flushed after the removal — the final one at
        // latest — must drop the retired series and keep the survivor.
        let last = secs.last().unwrap();
        assert!(
            !last.iter().any(|n| n == "series.retired"),
            "retired series leaked into a post-removal flush: {last:?}"
        );
        assert!(last.iter().any(|n| n == "series.kept"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reregistration_after_resize_does_not_duplicate_entries() {
        use crate::StoreMetrics;
        let dir = tmp("reregister");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("metrics.jsonl");
        let t = Telemetry::new(TelemetryConfig::default());
        // A store re-registered at another shard count: 4, then 2, then 2
        // again. Registration is get-or-create and the shrink sweep
        // retires stale series, so the flushed snapshot must carry
        // shard0/shard1 exactly once and shard2/shard3 not at all.
        let _wide = StoreMetrics::register(&t, 4).unwrap();
        let _narrow = StoreMetrics::register(&t, 2).unwrap();
        let _again = StoreMetrics::register(&t, 2).unwrap();
        let flusher = JsonlFlusher::start(
            t,
            FlushConfig {
                path: path.clone(),
                interval: Duration::from_millis(5),
                rotate_cap_bytes: 0,
            },
        )
        .unwrap();
        wait_for_flushes(&flusher, 1);
        flusher.stop();
        let secs = sections(&fs::read_to_string(&path).unwrap());
        let last = secs.last().unwrap();
        for shard in 0..2 {
            let name = format!("store.shard{shard}.lock_wait_us");
            let count = last.iter().filter(|n| **n == name).count();
            assert_eq!(count, 1, "{name} appears {count} times: {last:?}");
        }
        for shard in 2..4 {
            let name = format!("store.shard{shard}.lock_wait_us");
            assert!(
                !last.iter().any(|n| **n == name),
                "stale {name} leaked into the flush"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_joins_the_flush_thread() {
        let dir = tmp("drop");
        let _ = fs::remove_dir_all(&dir);
        let t = Telemetry::new(TelemetryConfig::default());
        {
            let _flusher = JsonlFlusher::start(
                t,
                FlushConfig {
                    path: dir.join("metrics.jsonl"),
                    interval: Duration::from_secs(3600),
                    rotate_cap_bytes: 0,
                },
            )
            .unwrap();
            // Dropping with a huge interval must still return promptly
            // (the stop signal wakes the wait) and leave the final flush
            // behind.
        }
        assert!(dir.join("metrics.jsonl").exists(), "final flush written");
        fs::remove_dir_all(&dir).unwrap();
    }
}
