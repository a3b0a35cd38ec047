//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (spans inside the product crates are a later change). Each
//! thread appends to its own [`SpanLog`], so recording takes no lock; the
//! logs are merged and written as JSONL when the run ends. All spans of
//! one batch share its `batch` identifier.

use std::time::Instant;

/// One timed interval. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Identifier shared by every span of one batch.
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log sharing one time origin with its siblings.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` as a span.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        batch: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            batch,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
    }
}

/// Runs `f`, recording it as a span when `log` is `Some`. With `None`
/// the clock is not read: the untraced passes pay nothing for tracing.
pub fn timed<T>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    batch: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        None => f(),
        Some(log) => {
            let start = Instant::now();
            let out = f();
            log.push(name, id, parent, batch, start, Instant::now());
            out
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other and may stick out
/// of the parent; overlap is counted once and the excess is clipped.
#[must_use]
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (pe - ps) - covered
}

/// Sum of the self times of every span named `name`, children found by
/// their `parent` field.
#[must_use]
pub fn total_self_time_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_time_ns((s.start_ns, s.end_ns), kids)
        })
        .sum()
}

/// Sum of the durations of every span named `name`.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// One JSONL line per span.
#[must_use]
pub fn render_jsonl(spans: &[Span]) -> String {
    use crate::json::{n, obj, render, s, JsonValue};
    let mut out = String::new();
    for sp in spans {
        out.push_str(&render(&obj(vec![
            ("name", s(sp.name)),
            ("id", n(sp.id as f64)),
            ("parent", sp.parent.map_or(JsonValue::Null, |p| n(p as f64))),
            ("batch", n(sp.batch as f64)),
            ("start_ns", n(sp.start_ns as f64)),
            ("end_ns", n(sp.end_ns as f64)),
        ])));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time_ns((10, 110), &[]), 100);
        assert_eq!(self_time_ns((10, 10), &[(0, 50)]), 0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [20,60) and [40,80) overlap on [40,60): they cover 60, not 80.
        assert_eq!(self_time_ns((0, 100), &[(20, 60), (40, 80)]), 40);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (30, 40)]), 20);
        // Order does not matter.
        assert_eq!(self_time_ns((0, 100), &[(40, 80), (20, 60)]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A reader that started before the trainer began to wait.
        assert_eq!(self_time_ns((50, 100), &[(0, 70), (90, 150)]), 20);
        // Entirely outside: covers nothing.
        assert_eq!(self_time_ns((50, 100), &[(0, 50), (100, 200)]), 50);
        // Covering everything: no self time.
        assert_eq!(self_time_ns((50, 100), &[(0, 200)]), 0);
    }

    #[test]
    fn totals_follow_parent_links() {
        let sp = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            batch: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            sp("wait", 1, None, 0, 100),
            sp("open", 2, Some(1), 10, 60),
            sp("read", 3, Some(1), 50, 70),
            sp("wait", 4, None, 100, 150),
            sp("open", 5, Some(4), 90, 140),
        ];
        assert_eq!(total_ns(&spans, "wait"), 150);
        assert_eq!(total_ns(&spans, "open"), 100);
        // wait#1: 100 - [10,70) = 40; wait#4: 50 - [100,140) = 10.
        assert_eq!(total_self_time_ns(&spans, "wait"), 50);
        assert_eq!(total_self_time_ns(&spans, "open"), 100);
    }

    #[test]
    fn jsonl_lines_parse() {
        let spans = [Span {
            name: "vfs.open",
            id: 7,
            parent: Some(3),
            batch: 42,
            start_ns: 1_000,
            end_ns: 2_500,
        }];
        let text = render_jsonl(&spans);
        let v = crate::json::parse_json(text.trim()).expect("parses");
        assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("vfs.open"));
        assert_eq!(v.get("parent").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("end_ns").and_then(|x| x.as_u64()), Some(2_500));
    }
}
