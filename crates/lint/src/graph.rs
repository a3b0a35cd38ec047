//! Graph-invariant analyses (`SL010`–`SL014`).
//!
//! [`lint_abstract`] checks the per-task abstract view graphs for edge-type
//! legality, acyclicity, and dangling node references. [`lint_concrete`]
//! checks a dry-planned concrete object graph for well-formedness: every
//! batch reference must resolve to a real terminal node that knows about
//! its consumer, and no cached node may sit outside every batch's
//! dependency cone.

use crate::{Diagnostic, Severity};
use sand_graph::{AbstractGraph, AbstractOp, ConcreteGraph, ObjectKey, ViewType};

/// Lints every abstract graph: `SL010` (illegal edge types), `SL011`
/// (cycles), `SL012` (dangling node references).
#[must_use]
pub fn lint_abstract(graphs: &[AbstractGraph]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for g in graphs {
        lint_one_abstract(g, &mut out);
    }
    out
}

fn view_name(v: &ViewType) -> &'static str {
    match v {
        ViewType::Video => "Video",
        ViewType::Frame => "Frame",
        ViewType::AugFrame { .. } => "AugFrame",
        ViewType::Batch => "Batch",
    }
}

fn op_name(op: &AbstractOp) -> String {
    match op {
        AbstractOp::Decode => "Decode".to_string(),
        AbstractOp::Augment { branch } => format!("Augment({branch})"),
        AbstractOp::Collate => "Collate".to_string(),
    }
}

fn lint_one_abstract(g: &AbstractGraph, out: &mut Vec<Diagnostic>) {
    let n = g.nodes.len();
    // SL012: node ids must equal their index (edges address by index).
    for (i, node) in g.nodes.iter().enumerate() {
        if node.id != i {
            out.push(Diagnostic {
                code: "SL012",
                severity: Severity::Deny,
                location: format!("{}.abstract.nodes[{i}]", g.task),
                message: format!(
                    "node at index {i} carries id {}; ids must be dense and \
                     positional",
                    node.id
                ),
                help: "rebuild the graph via AbstractGraph::from_config, which \
                       assigns positional ids"
                    .into(),
            });
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e_idx, e) in g.edges.iter().enumerate() {
        // SL012: dangling endpoints.
        if e.from >= n || e.to >= n {
            out.push(Diagnostic {
                code: "SL012",
                severity: Severity::Deny,
                location: format!("{}.abstract.edges[{e_idx}]", g.task),
                message: format!(
                    "edge {} references node {} but the graph has only {n} nodes",
                    op_name(&e.op),
                    e.from.max(e.to)
                ),
                help: "every edge endpoint must name an existing node".into(),
            });
            continue;
        }
        adj[e.from].push(e.to);
        // SL010: edge-type legality (Table 1 composition rules).
        let from = &g.nodes[e.from].view;
        let to = &g.nodes[e.to].view;
        let legal = match e.op {
            AbstractOp::Decode => matches!(from, ViewType::Video) && matches!(to, ViewType::Frame),
            AbstractOp::Augment { .. } => {
                matches!(from, ViewType::Frame | ViewType::AugFrame { .. })
                    && matches!(to, ViewType::AugFrame { .. })
            }
            AbstractOp::Collate => {
                matches!(from, ViewType::Frame | ViewType::AugFrame { .. })
                    && matches!(to, ViewType::Batch)
            }
        };
        if !legal {
            out.push(Diagnostic {
                code: "SL010",
                severity: Severity::Deny,
                location: format!("{}.abstract.edges[{e_idx}]", g.task),
                message: format!(
                    "illegal edge: {} from {} view to {} view",
                    op_name(&e.op),
                    view_name(from),
                    view_name(to)
                ),
                help: "Decode maps Video->Frame, Augment maps \
                       Frame/AugFrame->AugFrame, Collate maps \
                       Frame/AugFrame->Batch"
                    .into(),
            });
        }
    }
    // SL011: acyclicity via iterative DFS coloring.
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next];
                *next += 1;
                match color[child] {
                    0 => {
                        color[child] = 1;
                        stack.push((child, 0));
                    }
                    1 => {
                        out.push(Diagnostic {
                            code: "SL011",
                            severity: Severity::Deny,
                            location: format!("{}.abstract.nodes[{child}]", g.task),
                            message: format!(
                                "cycle detected through node {child}: the view \
                                 graph must be a DAG"
                            ),
                            help: "a view cannot (transitively) derive from \
                                   itself; break the dependency loop"
                                .into(),
                        });
                        color[child] = 2;
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
}

/// Lints a concrete graph: `SL013` (unresolved batch references) and
/// `SL014` (cached nodes no batch ever consumes).
#[must_use]
pub fn lint_concrete(g: &ConcreteGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = g.nodes.len();
    for (b_idx, batch) in g.batches.iter().enumerate() {
        let loc = format!(
            "concrete.batches[{b_idx}] (task {}, epoch {}, iter {})",
            batch.task, batch.epoch, batch.iteration
        );
        for plan in &batch.samples {
            for &node in &plan.frame_nodes {
                if node >= n {
                    out.push(Diagnostic {
                        code: "SL013",
                        severity: Severity::Deny,
                        location: loc.clone(),
                        message: format!(
                            "batch references node {node}, but the graph has \
                             only {n} nodes"
                        ),
                        help: "the planner must emit frame_nodes that exist in \
                               the unified graph"
                            .into(),
                    });
                    continue;
                }
                let known = g.nodes[node].consumers.iter().any(|c| {
                    c.task == batch.task && c.epoch == batch.epoch && c.iteration == batch.iteration
                });
                if !known {
                    out.push(Diagnostic {
                        code: "SL013",
                        severity: Severity::Deny,
                        location: loc.clone(),
                        message: format!(
                            "batch resolves to node {node}, but that node has \
                             no consumer record for (task {}, epoch {}, iter {})",
                            batch.task, batch.epoch, batch.iteration
                        ),
                        help: "terminal nodes must record every batch that \
                               reads them, or deadline-driven eviction will \
                               drop live objects"
                            .into(),
                    });
                }
            }
        }
    }
    // SL014: transitive consumer count per node. Parents precede children
    // in id order, so one reverse sweep accumulates child counts.
    let mut reach: Vec<u64> = g.nodes.iter().map(|x| x.consumers.len() as u64).collect();
    for id in (0..n).rev() {
        let total: u64 = g.nodes[id].children.iter().map(|&c| reach[c]).sum();
        reach[id] += total;
    }
    for node in &g.nodes {
        if node.cached && reach[node.id] == 0 && !matches!(node.key, ObjectKey::Video { .. }) {
            out.push(Diagnostic {
                code: "SL014",
                severity: Severity::Warn,
                location: format!("concrete.nodes[{}]", node.id),
                message: format!(
                    "node {} ({} bytes) is marked cached but no batch in the \
                     chunk consumes it or any of its descendants",
                    node.id, node.size_bytes
                ),
                help: "orphan cached objects waste budget; drop the cached \
                       flag or remove the node"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_config::parse_task_config;
    use sand_graph::{
        AbstractEdge, AbstractNode, BatchRef, ConcreteNode, MergeStats, PlanInput, Planner,
        PlannerOptions, SamplePlan, VideoMeta,
    };

    const OK_YAML: &str = "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n    frames_per_video: 2\n    frame_stride: 2\n  augmentation:\n    - name: r\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"a0\"]\n      config:\n        - resize:\n            shape: [16, 16]\n";

    fn videos(n: usize) -> Vec<VideoMeta> {
        (0..n as u64)
            .map(|video_id| VideoMeta {
                video_id,
                frames: 32,
                width: 32,
                height: 32,
                channels: 3,
                gop_size: 8,
                encoded_bytes: 4096,
            })
            .collect()
    }

    fn planned() -> ConcreteGraph {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let planner = Planner::new(
            vec![PlanInput {
                task_id: 0,
                config: cfg,
            }],
            videos(4),
            PlannerOptions::default(),
        )
        .unwrap();
        planner.plan().unwrap()
    }

    #[test]
    fn well_formed_graphs_lint_clean() {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let g = AbstractGraph::from_config(&cfg);
        assert!(lint_abstract(&[g]).is_empty());
        assert!(lint_concrete(&planned()).is_empty());
    }

    #[test]
    fn sl010_illegal_edge_type() {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let mut g = AbstractGraph::from_config(&cfg);
        // Decode into the batch node: Video -> Batch is illegal.
        let batch = g.batch_node();
        g.edges.push(AbstractEdge {
            from: 0,
            to: batch,
            op: AbstractOp::Decode,
        });
        let d = lint_abstract(&[g]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "SL010");
        assert_eq!(d[0].severity, Severity::Deny);
        assert!(
            d[0].message
                .contains("Decode from Video view to Batch view"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn sl011_cycle() {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let mut g = AbstractGraph::from_config(&cfg);
        // Find the aug node and point an edge back to the frame node.
        let aug = g
            .nodes
            .iter()
            .position(|x| matches!(x.view, ViewType::AugFrame { .. }))
            .unwrap();
        g.edges.push(AbstractEdge {
            from: aug,
            to: 1,
            op: AbstractOp::Augment {
                branch: "back".into(),
            },
        });
        g.edges.push(AbstractEdge {
            from: 1,
            to: aug,
            op: AbstractOp::Augment {
                branch: "fwd".into(),
            },
        });
        let d = lint_abstract(&[g]);
        assert!(d.iter().any(|x| x.code == "SL011"), "{d:?}");
    }

    #[test]
    fn sl012_dangling_edge() {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let mut g = AbstractGraph::from_config(&cfg);
        g.edges.push(AbstractEdge {
            from: 1,
            to: 99,
            op: AbstractOp::Collate,
        });
        let d = lint_abstract(&[g]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "SL012");
    }

    #[test]
    fn sl012_non_positional_node_id() {
        let cfg = parse_task_config(OK_YAML).unwrap();
        let mut g = AbstractGraph::from_config(&cfg);
        g.nodes.push(AbstractNode {
            id: 0,
            view: ViewType::Frame,
        });
        let d = lint_abstract(&[g]);
        assert!(d.iter().any(|x| x.code == "SL012"), "{d:?}");
    }

    #[test]
    fn sl013_out_of_range_batch_ref() {
        let mut g = planned();
        g.batches[0].samples[0].frame_nodes[0] = usize::MAX;
        let d = lint_concrete(&g);
        assert!(
            d.iter()
                .any(|x| x.code == "SL013" && x.severity == Severity::Deny),
            "{d:?}"
        );
    }

    #[test]
    fn sl013_missing_consumer_record() {
        let g = planned();
        // Rebuild with one extra batch nobody recorded consumers for.
        let mut nodes: Vec<ConcreteNode> = g.nodes.clone();
        for x in &mut nodes {
            x.consumers.retain(|c| c.epoch == 0);
        }
        let phantom = BatchRef {
            task: 7,
            epoch: 9,
            iteration: 0,
            clock: 0,
            samples: vec![SamplePlan {
                video_id: 0,
                sample: 0,
                variant: 0,
                frame_nodes: vec![nodes.len() - 1],
                frame_indices: vec![0],
                normalize: None,
            }],
        };
        let mut batches = g.batches.clone();
        batches.push(phantom);
        let g2 = ConcreteGraph::from_parts(nodes, batches, MergeStats::default(), 0..1);
        let d = lint_concrete(&g2);
        assert!(
            d.iter()
                .any(|x| x.code == "SL013" && x.message.contains("no consumer record")),
            "{d:?}"
        );
    }

    #[test]
    fn sl014_orphan_cached_node() {
        let mut g = planned();
        // Find a non-root node with no transitive consumers by grafting a
        // fresh childless aug node, then mark it cached.
        let id = g.nodes.len();
        let mut orphan = g.nodes[1].clone();
        orphan.id = id;
        orphan.key = ObjectKey::Aug {
            video_id: 0,
            frame: 0,
            depth: 1,
            digest: sand_graph::extend_chain_digest(sand_graph::EMPTY_CHAIN_DIGEST, "x", "y"),
        };
        orphan.children = Vec::new();
        orphan.consumers = Vec::new();
        orphan.cached = true;
        let nodes = {
            let mut v = g.nodes.clone();
            v.push(orphan);
            v
        };
        g = ConcreteGraph::from_parts(nodes, g.batches.clone(), MergeStats::default(), 0..1);
        let d = lint_concrete(&g);
        assert!(
            d.iter()
                .any(|x| x.code == "SL014" && x.severity == Severity::Warn),
            "{d:?}"
        );
    }
}
