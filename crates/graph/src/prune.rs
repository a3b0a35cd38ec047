//! Object graph pruning under a storage budget (Algorithm 1).
//!
//! The planner hands over a graph with every object cached: each decoded
//! frame and each augmented object (the video roots are cached too, but
//! the encoded source costs no cache bytes). A graph within the storage
//! budget is left exactly so. Over budget, pruning runs in two steps.
//!
//! 1. **Pass-through objects go first.** A non-root node with no
//!    consumers of its own and exactly one child, that child cached, is
//!    read only to produce the child, which the plan keeps anyway:
//!    uncaching it adds no recompute. The rule reads the cached set as it
//!    stands before the step, so the result does not depend on node
//!    order, and along a chain A→B→C of such nodes only C stays cached.
//!    A decoded frame that a single resize consumes thus leaves the cache
//!    for the smaller resized object, instead of holding its bytes until
//!    its whole video collapses.
//! 2. **Collapse.** While the cached set still exceeds the budget, pruning
//!    walks bottom-up: it collects the ancestors of cached nodes, orders
//!    them by the recompute cost of their subtrees (cheapest first —
//!    collapsing those sacrifices the least), and collapses the first
//!    subtree whose root is smaller than the cached objects below it.
//!    Collapsing marks that node cached and all its descendants uncached:
//!    the engine will recompute them from it on demand. The outer loop
//!    round-robins across per-video subtrees, in video-id order, until
//!    the cache fits.
//!
//! Two pragmatic deviations from the paper's pseudocode, both documented
//! here because the pseudocode as printed does not terminate cleanly:
//! the budget check runs *before* any pruning (a graph already within
//! budget is untouched), and the loop exits with `within_budget: false`
//! when no subtree yields a positive saving anymore (the paper's
//! `while true` would spin forever).

use crate::concrete::{ConcreteGraph, NodeId, ObjectKey};

/// Result of a pruning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Final cached size in bytes.
    pub cached_bytes: u64,
    /// Number of collapse operations performed.
    pub collapses: u64,
    /// Total recompute cost (edge-cost units) moved from cache to demand.
    pub recompute_cost_added: f64,
    /// Whether the budget was met.
    pub within_budget: bool,
}

/// One video's collapse candidates, ranked once.
///
/// Candidates are every ancestor of a cached node (the paper's
/// pseudocode considers only the direct parents of leaves, but that
/// greedy gets stuck whenever an intermediate object is larger than the
/// leaves below it — a decoded frame above small crops — even though
/// collapsing *through* it, all the way to the free video root if
/// necessary, would still save space). They are ranked by subtree
/// recompute cost, cheapest first — collapsing a cheap subtree trades
/// the least future compute per byte saved — with ties in discovery
/// order: preorder of the first cached descendant, nearest ancestor
/// first.
///
/// The ranking is computed once because a collapse cannot reorder it:
/// subtree cost is static, the collapsed node's subtree leaves the
/// candidate set, and an ancestor whose first cached descendant sat
/// inside that subtree now finds the collapsed node itself there — at a
/// preorder position every candidate outside the subtree compares to
/// exactly as before. And a candidate that once failed the saving test
/// fails it forever: the bytes cached below a node only ever shrink. So
/// a cursor over the ranking replaces rebuilding and re-sorting it per
/// collapse.
struct VideoCandidates {
    ranked: Vec<NodeId>,
    cursor: usize,
}

/// Algorithm 1's working state over one graph.
struct Pruner<'g> {
    graph: &'g mut ConcreteGraph,
    /// Every video's subtree in [`ConcreteGraph::video_subtree`]
    /// preorder, concatenated: node `n`'s subtree is the contiguous run
    /// `order[pos[n]..pos[n] + span[n]]`.
    order: Vec<NodeId>,
    pos: Vec<usize>,
    span: Vec<usize>,
    /// Bytes of cached nodes strictly below each node.
    below: Vec<u64>,
    videos: Vec<VideoCandidates>,
}

impl<'g> Pruner<'g> {
    fn new(graph: &'g mut ConcreteGraph, video_ids: &[u64]) -> Self {
        let n = graph.nodes.len();
        let mut p = Pruner {
            order: Vec::with_capacity(n),
            pos: vec![0; n],
            span: vec![1; n],
            below: vec![0; n],
            videos: Vec::with_capacity(video_ids.len()),
            graph,
        };
        let mut cost = vec![0.0f64; n];
        let mut seen = vec![false; n];
        for &vid in video_ids {
            let subtree = p.graph.video_subtree(vid);
            let base = p.order.len();
            for (i, &id) in subtree.iter().enumerate() {
                p.pos[id] = base + i;
            }
            // Children follow their parent in preorder, so one reverse
            // sweep folds spans and cached bytes into ancestors.
            for &id in subtree.iter().rev() {
                let node = &p.graph.nodes[id];
                if let Some(parent) = node.parent {
                    p.span[parent] += p.span[id];
                    p.below[parent] += p.below[id] + if node.cached { node.size_bytes } else { 0 };
                }
            }
            // Subtree recompute cost: producing the node plus everything
            // below it. Summed flat in preorder (not folded child-into-
            // parent) because the ranking compares these sums and
            // sibling subtrees tie exactly; O(nodes x depth), and object
            // trees are a handful of levels deep.
            for (i, &id) in subtree.iter().enumerate() {
                cost[id] = subtree[i..i + p.span[id]]
                    .iter()
                    .fold(0.0, |sum, &d| sum + p.graph.nodes[d].edge_cost);
            }
            let mut ranked = Vec::new();
            for &id in &subtree {
                if !p.graph.nodes[id].cached {
                    continue;
                }
                let mut cur = p.graph.nodes[id].parent;
                while let Some(a) = cur {
                    if seen[a] {
                        break; // and so are all of its ancestors
                    }
                    seen[a] = true;
                    ranked.push(a);
                    cur = p.graph.nodes[a].parent;
                }
            }
            ranked.sort_by(|&a, &b| {
                cost[a]
                    .partial_cmp(&cost[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            p.order.extend(subtree);
            p.videos.push(VideoCandidates { ranked, cursor: 0 });
        }
        p
    }

    /// One `Prune-Graph` invocation on a single video subtree: collapses
    /// the cheapest candidate that is smaller than the cached objects
    /// below it. Returns the byte saving achieved (0 when no candidate
    /// helps) and the recompute exposure of everything un-cached.
    fn prune_video(&mut self, video: usize) -> (u64, f64) {
        while let Some(&cand) = self.videos[video].ranked.get(self.videos[video].cursor) {
            let node = &self.graph.nodes[cand];
            let parent_size = if matches!(node.key, ObjectKey::Video { .. }) || node.cached {
                // The root is the encoded source (costs no cache bytes),
                // and an already-cached ancestor is already paid for.
                0
            } else {
                node.size_bytes
            };
            let below = self.below[cand];
            if below <= parent_size {
                self.videos[video].cursor += 1;
                continue;
            }
            // Collapse: parent becomes cached, all descendants uncached.
            let added = if node.cached { 0 } else { parent_size };
            let start = self.pos[cand] + 1;
            let mut cost = 0.0;
            for &d in &self.order[start..start + self.span[cand] - 1] {
                cost += self.graph.nodes[d].edge_cost;
                self.graph.nodes[d].cached = false;
                self.below[d] = 0;
            }
            self.graph.nodes[cand].cached = true;
            self.below[cand] = 0;
            let mut cur = self.graph.nodes[cand].parent;
            while let Some(a) = cur {
                self.below[a] = self.below[a] - below + added;
                cur = self.graph.nodes[a].parent;
            }
            return (below - parent_size, cost);
        }
        (0, 0.0)
    }
}

/// Uncaches every pass-through object — a cached non-root node with no
/// consumers and exactly one child, that child cached — judged on the
/// cached set as it stands before the call. Returns the bytes freed.
fn uncache_pass_through(graph: &mut ConcreteGraph) -> u64 {
    let pass_through: Vec<NodeId> = graph
        .nodes
        .iter()
        .filter(|n| {
            n.cached
                && n.parent.is_some()
                && n.consumers.is_empty()
                && matches!(n.children[..], [child] if graph.nodes[child].cached)
        })
        .map(|n| n.id)
        .collect();
    let mut freed = 0;
    for id in pass_through {
        graph.nodes[id].cached = false;
        freed += graph.nodes[id].size_bytes;
    }
    freed
}

/// Prunes the cached object set until it fits `budget_bytes`.
///
/// Over budget, first uncaches the pass-through objects (see the module
/// doc), then follows Algorithm 1: iterate over per-video object graphs,
/// pruning one subtree per video per round, until the total cached size
/// fits the budget or no further collapse can save space.
pub fn prune_to_budget(graph: &mut ConcreteGraph, budget_bytes: u64) -> PruneOutcome {
    let mut outcome = PruneOutcome {
        cached_bytes: graph.cached_bytes(),
        collapses: 0,
        recompute_cost_added: 0.0,
        within_budget: true,
    };
    if outcome.cached_bytes <= budget_bytes {
        return outcome;
    }
    outcome.cached_bytes -= uncache_pass_through(graph);
    if outcome.cached_bytes <= budget_bytes {
        return outcome;
    }
    // Round-robin in video-id order: `roots` is a hash map, whose order
    // differs between two plans of the same chunk, and a loop that stops
    // mid-round would keep a different cached set in each.
    let mut video_ids: Vec<u64> = graph.roots.keys().copied().collect();
    video_ids.sort_unstable();
    let mut pruner = Pruner::new(graph, &video_ids);
    loop {
        let mut progressed = false;
        for video in 0..video_ids.len() {
            let (saved, cost) = pruner.prune_video(video);
            if saved > 0 {
                progressed = true;
                outcome.collapses += 1;
                outcome.recompute_cost_added += cost;
                outcome.cached_bytes = outcome.cached_bytes.saturating_sub(saved);
                if outcome.cached_bytes <= budget_bytes {
                    return outcome;
                }
            }
        }
        if !progressed {
            outcome.within_budget = false;
            return outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::{
        ConcreteNode, Consumer, MergeStats, PlanInput, Planner, PlannerOptions, VideoMeta,
    };
    use sand_config::parse_task_config;

    const TASK: &str = r#"
dataset:
  tag: a
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 4
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
    - name: c
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [8, 8]
"#;

    fn build_graph(n_videos: usize, epochs: u64) -> ConcreteGraph {
        let videos: Vec<VideoMeta> = (0..n_videos as u64)
            .map(|video_id| VideoMeta {
                video_id,
                frames: 48,
                width: 32,
                height: 32,
                channels: 3,
                gop_size: 8,
                encoded_bytes: 10_000,
            })
            .collect();
        Planner::new(
            vec![PlanInput {
                task_id: 0,
                config: parse_task_config(TASK).unwrap(),
            }],
            videos,
            PlannerOptions {
                seed: 3,
                coordinate: true,
                epochs: 0..epochs,
            },
        )
        .unwrap()
        .plan()
        .unwrap()
    }

    /// A hand-built one-video graph, every node cached. `spec[i]` is
    /// node `i`'s `(parent, size_bytes, edge_cost)`; node 0 is the video
    /// root. A node with no children is a terminal with one consumer.
    fn tree(spec: &[(Option<NodeId>, u64, f64)]) -> ConcreteGraph {
        let mut nodes: Vec<ConcreteNode> = spec
            .iter()
            .enumerate()
            .map(|(id, &(parent, size_bytes, edge_cost))| ConcreteNode {
                id,
                key: match parent {
                    None => ObjectKey::Video { video_id: 0 },
                    Some(0) => ObjectKey::Frame {
                        video_id: 0,
                        frame: id,
                    },
                    Some(_) => ObjectKey::Aug {
                        video_id: 0,
                        frame: id,
                        depth: 1,
                        digest: id as u64,
                    },
                },
                parent,
                children: Vec::new(),
                size_bytes,
                edge_cost,
                cached: true,
                consumers: Vec::new(),
                dims: (1, 1),
                op: None,
            })
            .collect();
        for id in 0..nodes.len() {
            if let Some(parent) = nodes[id].parent {
                nodes[parent].children.push(id);
            }
        }
        for node in &mut nodes {
            if node.children.is_empty() {
                node.consumers.push(Consumer {
                    task: 0,
                    epoch: 0,
                    iteration: 0,
                    clock: 0,
                });
            }
        }
        ConcreteGraph::from_parts(nodes, Vec::new(), MergeStats::default(), 0..1)
    }

    fn cached(g: &ConcreteGraph) -> Vec<bool> {
        g.nodes.iter().map(|n| n.cached).collect()
    }

    /// Cached bytes once the pass-through objects are gone: where the
    /// collapse loop of any over-budget prune of `g` starts.
    fn pass_through_floor(g: &ConcreteGraph) -> u64 {
        let mut g = g.clone();
        uncache_pass_through(&mut g);
        g.cached_bytes()
    }

    #[test]
    fn pass_through_chain_keeps_only_its_tail() {
        // root -> frame -> resize -> crop: only the crop stays.
        let mut g = tree(&[
            (None, 0, 0.0),
            (Some(0), 300, 50.0),
            (Some(1), 30, 5.0),
            (Some(2), 10, 1.0),
        ]);
        let out = prune_to_budget(&mut g, 339);
        assert_eq!(cached(&g), [true, false, false, true]);
        assert_eq!(
            out,
            PruneOutcome {
                cached_bytes: 10,
                collapses: 0,
                recompute_cost_added: 0.0,
                within_budget: true,
            }
        );
        assert_eq!(g.cached_bytes(), 10);
    }

    #[test]
    fn pass_through_spares_branch_points() {
        // Frame 1 feeds two crops; frame 4 feeds one resize (node 5)
        // that feeds two crops. Only frame 4 is a pass-through object.
        let mut g = tree(&[
            (None, 0, 0.0),
            (Some(0), 300, 50.0),
            (Some(1), 10, 1.0),
            (Some(1), 10, 1.0),
            (Some(0), 300, 50.0),
            (Some(4), 30, 5.0),
            (Some(5), 10, 1.0),
            (Some(5), 10, 1.0),
        ]);
        assert_eq!(uncache_pass_through(&mut g), 300);
        assert_eq!(
            cached(&g),
            [true, true, true, true, false, true, true, true]
        );
    }

    #[test]
    fn pass_through_needs_a_cached_only_child_and_no_consumer() {
        // Node 1's only child (2) is uncached: reading 3 back needs 1.
        // Node 4 is a terminal itself: its consumer reads it directly.
        let mut g = tree(&[
            (None, 0, 0.0),
            (Some(0), 300, 50.0),
            (Some(1), 30, 5.0),
            (Some(2), 10, 1.0),
            (Some(0), 300, 50.0),
            (Some(4), 30, 5.0),
        ]);
        g.nodes[2].cached = false;
        g.nodes[4].consumers = g.nodes[5].consumers.clone();
        let before = cached(&g);
        assert_eq!(uncache_pass_through(&mut g), 0);
        assert_eq!(cached(&g), before);
    }

    #[test]
    fn within_budget_graph_untouched() {
        let mut g = build_graph(4, 1);
        let before = cached(&g);
        // The planned graph has pass-through objects, and a budget it
        // meets exactly still leaves them cached.
        assert!(pass_through_floor(&g) < g.cached_bytes());
        for budget in [u64::MAX, g.cached_bytes()] {
            let out = prune_to_budget(&mut g, budget);
            assert!(out.within_budget);
            assert_eq!(out.collapses, 0);
            assert_eq!(cached(&g), before);
        }
    }

    #[test]
    fn pruning_meets_achievable_budget() {
        let mut g = build_graph(4, 2);
        let budget = pass_through_floor(&g) / 2;
        let out = prune_to_budget(&mut g, budget);
        assert!(out.within_budget);
        assert!(g.cached_bytes() <= budget);
        assert_eq!(g.cached_bytes(), out.cached_bytes);
        assert!(out.collapses > 0);
        assert!(out.recompute_cost_added > 0.0);
    }

    #[test]
    fn zero_budget_collapses_to_roots() {
        let mut g = build_graph(3, 1);
        let out = prune_to_budget(&mut g, 0);
        // Everything collapsible collapses into the (free) video roots.
        assert!(out.within_budget);
        assert_eq!(g.cached_bytes(), 0);
        for n in &g.nodes {
            match n.key {
                ObjectKey::Video { .. } => assert!(n.cached),
                _ => assert!(!n.cached, "node {} still cached", n.id),
            }
        }
    }

    #[test]
    fn tighter_budget_means_more_recompute() {
        let mut loose = build_graph(4, 2);
        let floor = pass_through_floor(&loose);
        let loose_out = prune_to_budget(&mut loose, floor * 3 / 4);
        let mut tight = build_graph(4, 2);
        let tight_out = prune_to_budget(&mut tight, floor / 4);
        assert!(loose_out.collapses > 0);
        assert!(tight_out.recompute_cost_added > loose_out.recompute_cost_added);
        assert!(tight.uncached_cost() > loose.uncached_cost());
    }

    #[test]
    fn collapse_prefers_cheap_subtrees() {
        // Two frames, each a branch point over two crops (so no
        // pass-through objects). Frame 1 is expensive to recompute and
        // comes first in discovery order; frame 4 is cheap. Saving 10
        // bytes takes one collapse, and it must be the cheap subtree.
        let mut g = tree(&[
            (None, 0, 0.0),
            (Some(0), 15, 100.0),
            (Some(1), 10, 1.0),
            (Some(1), 10, 1.0),
            (Some(0), 15, 1.0),
            (Some(4), 10, 1.0),
            (Some(4), 10, 1.0),
        ]);
        let out = prune_to_budget(&mut g, 60);
        assert_eq!(cached(&g), [true, true, true, true, true, false, false]);
        assert_eq!(out.collapses, 1);
        assert_eq!(out.cached_bytes, 50);
        assert_eq!(out.recompute_cost_added, 2.0);
    }

    #[test]
    fn pruned_plan_is_a_function_of_the_graph() {
        // Two plans of one chunk hold their roots in two hash maps with
        // different iteration orders. Budgets between the pass-through
        // floor and a quarter of it stop the collapse loop mid-round.
        let floor = pass_through_floor(&build_graph(8, 2));
        for step in 1..=6 {
            let budget = floor - floor * step / 8;
            let (mut a, mut b) = (build_graph(8, 2), build_graph(8, 2));
            assert_eq!(
                prune_to_budget(&mut a, budget),
                prune_to_budget(&mut b, budget)
            );
            assert_eq!(cached(&a), cached(&b), "budget {budget}");
        }
    }

    #[test]
    fn cached_set_always_covers_leaves_via_ancestors() {
        // Every terminal node must have a cached ancestor-or-self after
        // pruning (otherwise it cannot be served at all).
        let mut g = build_graph(3, 2);
        let full = g.cached_bytes();
        prune_to_budget(&mut g, full / 3);
        for b in &g.batches.clone() {
            for s in &b.samples {
                for &leaf in &s.frame_nodes {
                    let mut cur = Some(leaf);
                    let mut covered = false;
                    while let Some(id) = cur {
                        if g.nodes[id].cached {
                            covered = true;
                            break;
                        }
                        cur = g.nodes[id].parent;
                    }
                    assert!(covered, "leaf {leaf} has no cached ancestor");
                }
            }
        }
    }
}
