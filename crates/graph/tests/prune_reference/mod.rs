//! Reference oracle for Algorithm 1: the pruning pass exactly as it
//! stood before the near-linear rewrite of `sand_graph::prune` — the
//! candidate list rebuilt, re-sorted and re-measured per collapse —
//! preceded by the pass-through step, written out over a snapshot of the
//! cached flags, and with its round-robin in video-id order. Kept for
//! `prop_prune_matches_reference` only; quadratic, never shipped.

use sand_graph::{ConcreteGraph, NodeId, ObjectKey, PruneOutcome};

/// Sum of sizes of cached nodes strictly below `node`.
fn cached_leaf_bytes(graph: &ConcreteGraph, node: NodeId) -> u64 {
    let mut total = 0;
    let mut stack: Vec<NodeId> = graph.nodes[node].children.clone();
    while let Some(id) = stack.pop() {
        if graph.nodes[id].cached {
            total += graph.nodes[id].size_bytes;
        }
        stack.extend(graph.nodes[id].children.iter().copied());
    }
    total
}

/// Sum of edge costs in the subtree rooted at `node` (the recompute cost
/// of regenerating everything below it, plus producing it).
fn subtree_cost(graph: &ConcreteGraph, node: NodeId) -> f64 {
    let mut total = 0.0;
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        total += graph.nodes[id].edge_cost;
        stack.extend(graph.nodes[id].children.iter().copied());
    }
    total
}

/// Collapse candidates within one video subtree: every uncached ancestor
/// of a cached node, deduplicated.
///
/// The paper's pseudocode considers only the direct parents of leaves,
/// but that greedy gets stuck whenever an intermediate object is larger
/// than the leaves below it (e.g. a decoded frame above small crops) even
/// though collapsing *through* it — all the way to the free video root if
/// necessary — would still save space. Considering all uncached ancestors
/// preserves the greedy structure while guaranteeing progress whenever
/// any saving exists.
fn parents_of_cached(graph: &ConcreteGraph, video_id: u64) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for id in graph.video_subtree(video_id) {
        if graph.nodes[id].cached {
            let mut cur = graph.nodes[id].parent;
            while let Some(p) = cur {
                if !out.contains(&p) {
                    out.push(p);
                }
                cur = graph.nodes[p].parent;
            }
        }
    }
    out
}

/// One `Prune-Graph` invocation on a single video subtree.
///
/// Returns the byte saving achieved (0 when no candidate helps).
fn prune_video(graph: &mut ConcreteGraph, video_id: u64) -> (u64, f64) {
    let mut candidates = parents_of_cached(graph, video_id);
    // Rank by subtree recompute cost, cheapest first: collapsing a cheap
    // subtree trades the least future compute per byte saved.
    candidates.sort_by(|&a, &b| {
        subtree_cost(graph, a)
            .partial_cmp(&subtree_cost(graph, b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for cand in candidates {
        let below = cached_leaf_bytes(graph, cand);
        let parent_size = if matches!(graph.nodes[cand].key, ObjectKey::Video { .. })
            || graph.nodes[cand].cached
        {
            // The root is the encoded source (costs no cache bytes), and
            // an already-cached ancestor is already paid for.
            0
        } else {
            graph.nodes[cand].size_bytes
        };
        if below > parent_size {
            // Collapse: parent becomes cached, all descendants uncached.
            let cost = {
                // Recompute exposure of everything we un-cache.
                let mut c = 0.0;
                let mut stack: Vec<NodeId> = graph.nodes[cand].children.clone();
                while let Some(id) = stack.pop() {
                    c += graph.nodes[id].edge_cost;
                    stack.extend(graph.nodes[id].children.iter().copied());
                }
                c
            };
            graph.nodes[cand].cached = true;
            let mut stack: Vec<NodeId> = graph.nodes[cand].children.clone();
            while let Some(id) = stack.pop() {
                graph.nodes[id].cached = false;
                stack.extend(graph.nodes[id].children.iter().copied());
            }
            return (below - parent_size, cost);
        }
    }
    (0, 0.0)
}

/// The pass-through step: an object that no consumer reads directly and
/// that has a single child, which is cached, is needed only to produce
/// that child, so it leaves the cache. Every test reads the flags as they
/// were before the step. Returns the bytes freed.
fn drop_pass_through(graph: &mut ConcreteGraph) -> u64 {
    let was_cached: Vec<bool> = graph.nodes.iter().map(|n| n.cached).collect();
    let mut freed = 0;
    for id in 0..graph.nodes.len() {
        let node = &graph.nodes[id];
        let is_root = matches!(node.key, ObjectKey::Video { .. });
        let single_cached_child = node.children.len() == 1 && was_cached[node.children[0]];
        if was_cached[id] && !is_root && node.consumers.is_empty() && single_cached_child {
            freed += node.size_bytes;
            graph.nodes[id].cached = false;
        }
    }
    freed
}

/// Prunes the cached object set until it fits `budget_bytes`.
///
/// Follows Algorithm 1: iterate over per-video object graphs, pruning one
/// subtree per video per round, until the total cached size fits the
/// budget or no further collapse can save space.
pub fn prune_to_budget(graph: &mut ConcreteGraph, budget_bytes: u64) -> PruneOutcome {
    let mut data_size = graph.cached_bytes();
    let mut collapses = 0u64;
    let mut recompute_added = 0.0;
    if data_size <= budget_bytes {
        return PruneOutcome {
            cached_bytes: data_size,
            collapses,
            recompute_cost_added: recompute_added,
            within_budget: true,
        };
    }
    data_size -= drop_pass_through(graph);
    if data_size <= budget_bytes {
        return PruneOutcome {
            cached_bytes: data_size,
            collapses,
            recompute_cost_added: recompute_added,
            within_budget: true,
        };
    }
    let mut video_ids: Vec<u64> = graph.roots.keys().copied().collect();
    video_ids.sort();
    loop {
        let mut progressed = false;
        for &vid in &video_ids {
            let (saved, cost) = prune_video(graph, vid);
            if saved > 0 {
                progressed = true;
                collapses += 1;
                recompute_added += cost;
                data_size = data_size.saturating_sub(saved);
                if data_size <= budget_bytes {
                    return PruneOutcome {
                        cached_bytes: data_size,
                        collapses,
                        recompute_cost_added: recompute_added,
                        within_budget: true,
                    };
                }
            }
        }
        if !progressed {
            return PruneOutcome {
                cached_bytes: data_size,
                collapses,
                recompute_cost_added: recompute_added,
                within_budget: false,
            };
        }
    }
}
