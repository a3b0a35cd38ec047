//! The `sanitize`-only core: per-thread held-lock stacks feeding a
//! process-global lock-order graph with online cycle detection.
//!
//! Nodes are lock *labels*, not lock instances: every store shard is one
//! `store.shard` node, every pass memo one `engine.scratch.frames` node.
//! Label granularity keeps the graph tiny
//! (a dozen nodes for the whole engine), makes findings readable, and is
//! conservative in the right direction — if label A is ever acquired
//! while label B is held *and* vice versa, some pair of instances can
//! deadlock under the wrong interleaving. Same-label nesting (two shards
//! at once) is legal only in strictly increasing rank order, which rules
//! out same-label ABBA the same way.
//!
//! Cost model: the held stack is thread-local (no synchronization), and
//! a thread consults the global graph only for edges it has not pushed
//! before in the current epoch — steady state is a thread-local hash
//! probe per nested acquisition and nothing at all for outermost ones.

use crate::report::{push_report, ReportKind, SanitizerReport};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One lock the current thread holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Held {
    label: &'static str,
    rank: u32,
}

/// Bumped by [`reset`]; thread-local edge caches self-invalidate when
/// they observe a newer epoch.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static SEEN: RefCell<(u64, HashSet<(&'static str, &'static str)>)> =
        RefCell::new((0, HashSet::new()));
}

#[derive(Default)]
struct OrderGraph {
    /// `label -> labels acquired while it was held`.
    edges: HashMap<&'static str, HashSet<&'static str>>,
    /// First-acquisition context per edge (thread + held stack).
    contexts: HashMap<(&'static str, &'static str), String>,
}

fn graph() -> &'static Mutex<OrderGraph> {
    static G: OnceLock<Mutex<OrderGraph>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(OrderGraph::default()))
}

/// Clears the lock-order graph and invalidates per-thread edge caches.
pub(crate) fn reset() {
    let mut g = graph().lock();
    g.edges.clear();
    g.contexts.clear();
    drop(g);
    EPOCH.fetch_add(1, Ordering::SeqCst);
}

/// Renders "thread <name> holding [a, b]" for reports.
fn context_string(held: &[Held]) -> String {
    let t = std::thread::current();
    let name = t.name().unwrap_or("<unnamed>").to_string();
    let stack: Vec<String> = held
        .iter()
        .map(|h| {
            if h.rank == 0 {
                h.label.to_string()
            } else {
                format!("{}#{}", h.label, h.rank)
            }
        })
        .collect();
    format!("thread \"{}\" holding [{}]", name, stack.join(", "))
}

/// Records ordering facts for a *blocking* acquisition of
/// `(label, rank)` while the current thread's held set is whatever it
/// is. Called before the real lock call, so a genuine deadlock still
/// gets its report out first.
pub(crate) fn before_acquire(label: &'static str, rank: u32) {
    HELD.with(|h| {
        let held = h.borrow();
        if held.is_empty() {
            return;
        }
        for prior in held.iter() {
            if prior.label == label {
                if prior.rank >= rank {
                    push_report(SanitizerReport {
                        kind: ReportKind::SameLabelOrder,
                        labels: vec![label.to_string()],
                        contexts: vec![context_string(&held)],
                        message: format!(
                            "acquiring \"{label}\" rank {rank} while already holding \
                             rank {}; same-label locks must nest in strictly \
                             increasing rank order",
                            prior.rank
                        ),
                    });
                }
            } else {
                record_edge(prior.label, label, &held);
            }
        }
    });
}

/// Pushes a successfully acquired lock onto the thread's held stack.
pub(crate) fn push_held(label: &'static str, rank: u32) {
    HELD.with(|h| h.borrow_mut().push(Held { label, rank }));
}

/// Pops the most recent matching entry (locks may be released out of
/// LIFO order; `Drop` order is the caller's business, not ours).
pub(crate) fn release(label: &'static str, rank: u32) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held
            .iter()
            .rposition(|x| x.label == label && x.rank == rank)
        {
            held.remove(pos);
        }
    });
}

/// Labels currently held by this thread, deduplicated, for the lockset
/// checker.
pub(crate) fn current_lockset() -> Vec<&'static str> {
    HELD.with(|h| {
        let held = h.borrow();
        let mut labels: Vec<&'static str> = Vec::with_capacity(held.len());
        for x in held.iter() {
            if !labels.contains(&x.label) {
                labels.push(x.label);
            }
        }
        labels
    })
}

fn record_edge(from: &'static str, to: &'static str, held: &[Held]) {
    let epoch = EPOCH.load(Ordering::SeqCst);
    let fresh = SEEN.with(|s| {
        let mut seen = s.borrow_mut();
        if seen.0 != epoch {
            seen.0 = epoch;
            seen.1.clear();
        }
        seen.1.insert((from, to))
    });
    if !fresh {
        return;
    }
    let mut g = graph().lock();
    let inserted = g.edges.entry(from).or_default().insert(to);
    if !inserted {
        return; // another thread already published this edge
    }
    let ctx = context_string(held);
    g.contexts.insert((from, to), ctx.clone());
    // The new edge `from -> to` closes a cycle iff `from` was already
    // reachable from `to`.
    if let Some(path) = find_path(&g, to, from) {
        // `path` runs to -> ... -> from; the full cycle prepends the new
        // edge: from -> to -> ... -> from.
        let mut labels: Vec<String> = vec![from.to_string()];
        labels.extend(path.iter().map(|l| l.to_string()));
        let mut contexts = vec![format!("{ctx} (acquiring {to})")];
        let mut prev = to;
        for next in path.iter().skip(1) {
            if let Some(c) = g.contexts.get(&(prev, *next)) {
                contexts.push(format!("{c} (acquiring {next})"));
            }
            prev = next;
        }
        push_report(SanitizerReport {
            kind: ReportKind::LockOrderCycle,
            labels: labels.clone(),
            contexts,
            message: format!(
                "lock-order cycle: {} — these labels are acquired in both \
                 orders, so the right interleaving deadlocks even though \
                 this run did not",
                labels.join(" -> ")
            ),
        });
    }
}

/// DFS from `start` to `goal`, returning the node path (inclusive) if
/// `goal` is reachable.
fn find_path(g: &OrderGraph, start: &'static str, goal: &'static str) -> Option<Vec<&'static str>> {
    let mut stack = vec![start];
    let mut visited: HashSet<&'static str> = HashSet::new();
    let mut parent: HashMap<&'static str, &'static str> = HashMap::new();
    visited.insert(start);
    while let Some(node) = stack.pop() {
        if node == goal {
            let mut path = vec![goal];
            let mut cur = goal;
            while cur != start {
                cur = parent.get(cur)?;
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        if let Some(nexts) = g.edges.get(node) {
            for &n in nexts {
                if visited.insert(n) {
                    parent.insert(n, node);
                    stack.push(n);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated acquire/release of a label pair, no real locks needed:
    /// the order graph records intent, not contention.
    fn acquire(label: &'static str, rank: u32) {
        before_acquire(label, rank);
        push_held(label, rank);
    }

    #[test]
    fn abba_is_detected_without_a_deadlock() {
        let _x = crate::exclusive();
        acquire("t.a", 0);
        acquire("t.b", 0);
        release("t.b", 0);
        release("t.a", 0);
        acquire("t.b", 0);
        acquire("t.a", 0);
        release("t.a", 0);
        release("t.b", 0);
        let reports = crate::take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, ReportKind::LockOrderCycle);
        assert!(
            reports[0].message.contains("t.b -> t.a -> t.b"),
            "{}",
            reports[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let _x = crate::exclusive();
        for _ in 0..3 {
            acquire("t.outer", 0);
            acquire("t.inner", 0);
            release("t.inner", 0);
            release("t.outer", 0);
        }
        assert!(crate::take_reports().is_empty());
    }

    #[test]
    fn three_party_cycle_is_detected() {
        let _x = crate::exclusive();
        for (a, b) in [("t.x", "t.y"), ("t.y", "t.z"), ("t.z", "t.x")] {
            acquire(a, 0);
            acquire(b, 0);
            release(b, 0);
            release(a, 0);
        }
        let reports = crate::take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, ReportKind::LockOrderCycle);
        assert_eq!(reports[0].labels.len(), 4, "x -> .. -> x path");
    }

    #[test]
    fn same_label_requires_increasing_rank() {
        let _x = crate::exclusive();
        acquire("t.shard", 0);
        acquire("t.shard", 1); // increasing: fine
        release("t.shard", 1);
        release("t.shard", 0);
        assert!(crate::take_reports().is_empty());
        acquire("t.shard", 1);
        acquire("t.shard", 0); // decreasing: report
        release("t.shard", 0);
        release("t.shard", 1);
        let reports = crate::take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, ReportKind::SameLabelOrder);
    }
}
