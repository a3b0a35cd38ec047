//! The metric contract: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

use crate::json::{n, obj, s, JsonValue};

/// One metric of the contract.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: share of the baseline median by which the metric
    /// may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Throughput and waits come from the
/// saturated pass, `gpu_busy_frac` from the paced pass.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("batches_per_s", "1/s", "higher", 0.25),
    e2e("batch_wait_p50_ms", "ms", "lower", 0.25),
    e2e("batch_wait_p99_ms", "ms", "lower", 0.25),
    e2e("gpu_busy_frac", "ratio", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Single-layer metrics, `<crate>.<metric>`; per-batch means unless the
/// unit says otherwise. A value of 0 on a workload that is not the
/// metric's home means "not measured here".
pub const PER_LAYER: [MetricDef; 81] = [
    // Counts from `SandEngine::stats()`.
    layer("codec.frames_decoded_per_batch", "count", "lower"),
    layer("codec.decode_amplification", "ratio", "lower"),
    layer("codec.warm_hit_frac", "ratio", "higher"),
    layer("frame.aug_ops_per_batch", "count", "lower"),
    layer("storage.mem_hit_frac", "ratio", "higher"),
    layer("storage.disk_hit_frac", "ratio", "lower"),
    layer("storage.evictions_per_batch", "count", "lower"),
    layer("storage.spills_per_batch", "count", "lower"),
    layer("storage.compactions", "count", "lower"),
    layer("storage.log_bytes_per_live_byte", "ratio", "lower"),
    layer("sched.busy_ms_per_batch", "ms", "lower"),
    layer("sched.demand_jobs_per_batch", "count", "lower"),
    layer("sched.pre_jobs_per_batch", "count", "lower"),
    layer("sched.prefetch_jobs_per_batch", "count", "lower"),
    layer("sched.affinity_hit_frac", "ratio", "higher"),
    // The traced pass: serve latency and its ten exact-sum segments.
    layer("core.serve_ms", "ms", "lower"),
    layer("seg.plan_ms", "ms", "lower"),
    layer("seg.prefetch_ms", "ms", "lower"),
    layer("seg.queue_wait_ms", "ms", "lower"),
    layer("seg.decode_ms", "ms", "lower"),
    layer("seg.store_io_ms", "ms", "lower"),
    layer("seg.remote_ms", "ms", "lower"),
    layer("seg.persist_ms", "ms", "lower"),
    layer("seg.aug_ms", "ms", "lower"),
    layer("seg.exec_other_ms", "ms", "lower"),
    layer("seg.finalize_ms", "ms", "lower"),
    // The traced pass: the registry a production run exports.
    layer("core.prefetch_hit_frac", "ratio", "higher"),
    layer("core.dedup_adopt_frac", "ratio", "higher"),
    layer("core.dedup_wait_ms", "ms", "lower"),
    layer("frame.scratch_wait_ms", "ms", "lower"),
    layer("sched.demand_wait_ms", "ms", "lower"),
    layer("storage.disk_read_ms", "ms", "lower"),
    layer("storage.vlog_append_ms", "ms", "lower"),
    layer("net.fetch_hit_frac", "ratio", "higher"),
    layer("net.fetch_ms", "ms", "lower"),
    layer("net.rx_mib_per_batch", "MiB", "lower"),
    layer("net.coalesced_frac", "ratio", "higher"),
    layer("net.fetch_errors", "count", "lower"),
    // The traced pass: bench-owned spans.
    layer("train.batch_wait_ms", "ms", "lower"),
    layer("vfs.open_ms", "ms", "lower"),
    layer("vfs.open_self_ms", "ms", "lower"),
    layer("vfs.read_ms", "ms", "lower"),
    layer("vfs.getxattr_ms", "ms", "lower"),
    layer("vfs.close_ms", "ms", "lower"),
    layer("train.tensor_parse_ms", "ms", "lower"),
    layer("train.loader_queue_ms", "ms", "lower"),
    // Set-up spans.
    layer("codec.dataset_generate_s", "s", "lower"),
    layer("core.engine_new_s", "s", "lower"),
    layer("core.engine_start_s", "s", "lower"),
    layer("core.first_batch_ms", "ms", "lower"),
    layer("storage.replay_s", "s", "lower"),
    layer("core.restart_first_batch_ms", "ms", "lower"),
    layer("train.reference_s", "s", "lower"),
    // Cross-checks.
    layer("telemetry.overhead_frac", "ratio", "lower"),
    layer("trace.unattributed_frac", "ratio", "lower"),
    layer("train.traced_batches_per_s", "1/s", "higher"),
    layer("train.ondemand_cpu_batches_per_s", "1/s", "higher"),
    layer("train.count_mismatches", "count", "lower"),
    layer("host.steal_frac", "ratio", "lower"),
    // Layer probes, each on its home workload only.
    layer("codec.decode_us_per_frame", "us", "lower"),
    layer("frame.aug_us_per_op", "us", "lower"),
    layer("graph.plan_chunk_ms", "ms", "lower"),
    layer("graph.prune_ms", "ms", "lower"),
    layer("storage.mem_get_us", "us", "lower"),
    layer("storage.put_us", "us", "lower"),
    layer("storage.evict_put_us", "us", "lower"),
    layer("sched.dispatch_us", "us", "lower"),
    layer("vfs.open_read_close_us", "us", "lower"),
    layer("storage.disk_get_us", "us", "lower"),
    layer("storage.spill_put_us", "us", "lower"),
    layer("storage.replay_mib_per_s", "MiB/s", "higher"),
    layer("frame.compress_mib_per_s", "MiB/s", "higher"),
    layer("frame.decompress_mib_per_s", "MiB/s", "higher"),
    layer("net.stat_us", "us", "lower"),
    layer("net.fetch_us", "us", "lower"),
    layer("net.fetch_mib_per_s", "MiB/s", "higher"),
    layer("net.put_us", "us", "lower"),
    // Pass sizes, so a reader can see what the means are means of.
    layer("train.saturated_batches", "count", "higher"),
    layer("train.traced_batches", "count", "higher"),
    layer("trace.spans", "count", "higher"),
    layer("trace.engine_traces", "count", "higher"),
];

/// Named values collected over a run; anything of the contract that was
/// never set reads as 0 ("not measured on this workload").
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Names set that `defs` does not list: a typo in the harness.
    #[must_use]
    pub fn strangers(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !defs.iter().any(|d| d.name == *n))
            .collect()
    }

    /// The `metrics` object of a result line, in contract order.
    #[must_use]
    pub fn to_json(&self, defs: &[MetricDef]) -> JsonValue {
        JsonValue::Obj(
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        obj(vec![("value", n(self.get(d.name))), ("unit", s(d.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// One line per metric: name, value, unit.
    #[must_use]
    pub fn render_table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            out.push_str(&format!(
                "  {:<36} {:>16.6} {}\n",
                d.name,
                self.get(d.name),
                d.unit
            ));
        }
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn names_of(v: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .expect("unit")
                        .to_string(),
                    m.get("better")
                        .and_then(JsonValue::as_str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_binary_s_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse_json(&text).expect("BENCHMARK.json parses");
        let expect = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(names_of(&v, "end_to_end"), expect(&END_TO_END));
        assert_eq!(names_of(&v, "per_layer"), expect(&PER_LAYER));
        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string(),
                    w.get("why")
                        .and_then(JsonValue::as_str)
                        .expect("why")
                        .to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::ALL
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::workloads::REFERENCE_SECONDS)
        );
    }

    #[test]
    fn contract_limits_hold() {
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let setup_bound = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .and_then(|d| d.bound);
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
            assert!(Some(b) <= setup_bound, "setup_s has the largest bound");
        }
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.better == "higher" || d.better == "lower");
        }
        for w in crate::workloads::ALL {
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_strangers_are_found() {
        let mut v = Values::default();
        v.set("core.serve_ms", 1.5);
        v.set("core.serve_ms", 2.5);
        v.set("no.such_metric", 1.0);
        assert_eq!(v.get("core.serve_ms"), 2.5);
        assert_eq!(v.get("seg.plan_ms"), 0.0);
        assert_eq!(v.strangers(&PER_LAYER), vec!["no.such_metric"]);
        let json = v.to_json(&PER_LAYER);
        assert_eq!(
            json.get("core.serve_ms")
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64),
            Some(2.5)
        );
        assert_eq!(
            json.get("net.fetch_us")
                .and_then(|m| m.get("unit"))
                .and_then(JsonValue::as_str),
            Some("us")
        );
    }
}
