//! Property tests: snapshot totals must equal the sum of per-stage
//! increments, including under concurrent recording from many threads.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_telemetry::{Registry, Telemetry, TelemetryConfig};
use std::sync::Arc;
use std::thread;

proptest! {
    /// Concurrent counter increments and histogram observations are
    /// never lost or double-counted: the snapshot totals equal the sums
    /// of what each thread recorded.
    #[test]
    fn concurrent_recording_sums_exactly(
        per_thread in prop::collection::vec(
            prop::collection::vec(0u64..10_000, 1..40),
            1..8,
        ),
    ) {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("t.events");
        let gauge = registry.gauge("t.level");
        let hist = registry.histogram("t.lat_us", &[100, 1_000, 5_000]);

        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|values| {
                let (c, g, h) = (counter.clone(), gauge.clone(), hist.clone());
                thread::spawn(move || {
                    for v in values {
                        c.inc();
                        g.add(v as i64);
                        h.observe(v);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let expected_count: u64 = per_thread.iter().map(|v| v.len() as u64).sum();
        let expected_sum: u64 = per_thread.iter().flatten().sum();

        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("t.events"), Some(expected_count));
        prop_assert_eq!(snap.gauge("t.level"), Some(expected_sum as i64));
        let h = snap.histogram("t.lat_us").unwrap();
        prop_assert_eq!(h.count, expected_count);
        prop_assert_eq!(h.sum, expected_sum);
        // Bucket counts partition the observations: they sum to count.
        prop_assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        // And each bucket holds exactly the observations its bounds admit.
        let mut by_bucket = vec![0u64; 4];
        for &v in per_thread.iter().flatten() {
            let idx = h.bounds.partition_point(|&b| b < v);
            by_bucket[idx] += 1;
        }
        prop_assert_eq!(&h.counts, &by_bucket);
    }

    /// The JSON-lines export of any snapshot parses line-by-line and
    /// preserves counter values exactly.
    #[test]
    fn snapshot_jsonl_roundtrips(values in prop::collection::vec(0u64..1_000_000, 0..20)) {
        let t = Telemetry::new(TelemetryConfig::default());
        let registry = t.registry();
        for (i, v) in values.iter().enumerate() {
            registry.counter(&format!("fam{}.c{}", i % 3, i)).add(*v);
        }
        let snap = t.snapshot().unwrap();
        let lines = sand_telemetry::validate_jsonl(&snap.render_jsonl()).unwrap();
        prop_assert_eq!(lines.len(), values.len());
        for line in &lines {
            let name = line.get("name").and_then(|n| n.as_str()).unwrap();
            let value = line.get("value").and_then(|v| v.as_u64()).unwrap();
            prop_assert_eq!(snap.counter(name), Some(value));
        }
    }
}
