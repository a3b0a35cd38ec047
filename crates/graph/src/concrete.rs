//! The epoch-chunked concrete object dependency graph.
//!
//! Where the abstract graph describes view *types*, the concrete graph is
//! fully specified: one tree per video whose nodes are actual objects —
//! the encoded video at the root, decoded frames below it, and chains of
//! augmented frames below those. Training batches reference the terminal
//! (deepest) augmented-frame nodes; batch assembly itself (stack +
//! normalize) happens at read time and is not a cached object.
//!
//! The planner builds the graph for a chunk of `k` epochs across *all*
//! tasks at once, merging nodes whenever two tasks (or two epochs) need an
//! identical object: the same decoded frame, or the same frame transformed
//! by the same resolved op chain. The merge statistics it returns are the
//! direct source of the paper's Fig. 16 (op reduction) and Fig. 19 (frame
//! selection CDF).

use crate::abstract_graph::AbstractGraph;
use crate::pool::FramePool;
use crate::resolve::{self, coordinated_draw, DrawCtx, ResolvedOp};
use crate::{GraphError, Result};
use sand_config::types::TaskConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// FNV-1a 64-bit hash (stable across platforms and runs), fed in pieces.
struct Fnv1a(u64);

impl Fnv1a {
    const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// Stable 64-bit identity of a task tag (FNV-1a), the shuffle key of
/// [`Planner::video_order`]. Tag-keyed identity is what keeps a task's
/// plan invariant under the surrounding task set.
fn tag_identity(tag: &str) -> u64 {
    Fnv1a::new().write(tag.as_bytes()).0
}

/// The digest of the empty op chain: a decoded frame's.
pub const EMPTY_CHAIN_DIGEST: u64 = Fnv1a::new().0;

/// Extends the digest of an op chain by one resolved op `(name, params)`.
///
/// This is the one definition of an augmented object's chain identity:
/// a stable 64-bit FNV-1a digest over every op's name and parameters, in
/// order, with unit and record separators between them (so `("ab", "c")`
/// and `("a", "bc")` differ). FNV-1a is a running hash, so a node's digest
/// is its parent's extended by its own op; the store keys of
/// `sand_core::store_key` embed it.
#[must_use]
pub fn extend_chain_digest(digest: u64, name: &str, params: &str) -> u64 {
    Fnv1a(digest)
        .write(name.as_bytes())
        .write(&[0x1f])
        .write(params.as_bytes())
        .write(&[0x1e])
        .0
}

/// Index of a node within a [`ConcreteGraph`].
pub type NodeId = usize;

/// Identity of a concrete object; equal keys are the same object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectKey {
    /// The encoded source video (always present in dataset storage).
    Video {
        /// Video identifier.
        video_id: u64,
    },
    /// One decoded frame.
    Frame {
        /// Video identifier.
        video_id: u64,
        /// Display-order frame index.
        frame: usize,
    },
    /// A frame transformed by a chain of resolved ops.
    Aug {
        /// Video identifier.
        video_id: u64,
        /// Display-order frame index.
        frame: usize,
        /// Ops in the chain from the decoded frame (at least 1).
        depth: u32,
        /// [`extend_chain_digest`] over the chain's ops, in order, from
        /// [`EMPTY_CHAIN_DIGEST`].
        digest: u64,
    },
}

impl ObjectKey {
    /// The video this object belongs to.
    #[must_use]
    pub fn video_id(&self) -> u64 {
        match self {
            ObjectKey::Video { video_id }
            | ObjectKey::Frame { video_id, .. }
            | ObjectKey::Aug { video_id, .. } => *video_id,
        }
    }
}

/// A consumer record: which (task, epoch, iteration) needs a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Consumer {
    /// Task index.
    pub task: u32,
    /// Epoch index.
    pub epoch: u64,
    /// Task-local iteration within the epoch.
    pub iteration: u64,
    /// Global clock value used for deadline ordering.
    pub clock: u64,
}

/// One node of the concrete graph.
#[derive(Debug, Clone)]
pub struct ConcreteNode {
    /// This node's id.
    pub id: NodeId,
    /// Object identity.
    pub key: ObjectKey,
    /// Parent node (None only for video roots).
    pub parent: Option<NodeId>,
    /// Child node ids.
    pub children: Vec<NodeId>,
    /// Raw object size in bytes.
    pub size_bytes: u64,
    /// Compute cost of producing this node from its parent (cost units).
    pub edge_cost: f64,
    /// Whether the pruning pass decided to cache this node.
    pub cached: bool,
    /// Direct consumers (only terminal nodes have them).
    pub consumers: Vec<Consumer>,
    /// Output dims `(w, h)` of this object.
    pub dims: (usize, usize),
    /// The op producing this node from its parent (`None` for video roots
    /// and decoded frames, whose producer is the decoder itself).
    pub op: Option<ResolvedOp>,
}

/// One slot of a planned batch: a clip for one (video, sample, variant).
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// Source video.
    pub video_id: u64,
    /// Sample index within the video.
    pub sample: u32,
    /// Variant index (parallel terminal streams from multi/merge).
    pub variant: u32,
    /// Terminal node per clip frame, in clip order.
    pub frame_nodes: Vec<NodeId>,
    /// Selected source frame indices, in clip order.
    pub frame_indices: Vec<usize>,
    /// Normalization to apply at tensor assembly, if configured.
    pub normalize: Option<(Vec<f32>, Vec<f32>)>,
}

/// One planned training batch.
#[derive(Debug, Clone)]
pub struct BatchRef {
    /// Task index.
    pub task: u32,
    /// Epoch index.
    pub epoch: u64,
    /// Task-local iteration within the epoch.
    pub iteration: u64,
    /// Global clock value (for deadlines).
    pub clock: u64,
    /// The clips composing the batch.
    pub samples: Vec<SamplePlan>,
}

/// Operation-count statistics comparing requested vs. unique work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeStats {
    /// Frame-decode requests summed over tasks/samples/epochs.
    pub decode_requests: u64,
    /// Distinct decoded-frame objects (actual decode work after merging).
    pub unique_frames: u64,
    /// Augmentation-op applications requested.
    pub aug_requests: u64,
    /// Distinct augmented objects (actual op work after merging).
    pub unique_aug_nodes: u64,
    /// Per-op-name requested counts.
    pub op_requests: HashMap<&'static str, u64>,
    /// Per-op-name unique counts.
    pub op_unique: HashMap<&'static str, u64>,
    /// Selection count per (video, frame), for the Fig. 19 CDF.
    pub frame_selection: HashMap<(u64, usize), u32>,
}

impl MergeStats {
    /// Fraction of decode operations eliminated by merging.
    #[must_use]
    pub fn decode_reduction(&self) -> f64 {
        if self.decode_requests == 0 {
            return 0.0;
        }
        1.0 - self.unique_frames as f64 / self.decode_requests as f64
    }

    /// Fraction of `op` applications eliminated by merging.
    #[must_use]
    pub fn op_reduction(&self, op: &str) -> f64 {
        let req = self.op_requests.get(op).copied().unwrap_or(0);
        if req == 0 {
            return 0.0;
        }
        let uniq = self.op_unique.get(op).copied().unwrap_or(0);
        1.0 - uniq as f64 / req as f64
    }

    /// CDF point: fraction of selected frames chosen at least `n` times.
    #[must_use]
    pub fn selected_at_least(&self, n: u32) -> f64 {
        if self.frame_selection.is_empty() {
            return 0.0;
        }
        let hits = self.frame_selection.values().filter(|&&c| c >= n).count();
        hits as f64 / self.frame_selection.len() as f64
    }
}

/// Metadata the planner needs about each video.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoMeta {
    /// Video identifier.
    pub video_id: u64,
    /// Total frames.
    pub frames: usize,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Channels per pixel.
    pub channels: usize,
    /// GOP size the video was encoded with.
    pub gop_size: usize,
    /// Encoded size in bytes.
    pub encoded_bytes: u64,
}

/// One task's planning input.
#[derive(Debug, Clone)]
pub struct PlanInput {
    /// Task index (stable across chunks).
    pub task_id: u32,
    /// The validated task configuration.
    pub config: TaskConfig,
}

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Global seed for all coordinated draws and shuffles.
    pub seed: u64,
    /// Coordinated randomization on (SAND) or off (independent baseline).
    pub coordinate: bool,
    /// The epoch chunk to plan (`k` epochs).
    pub epochs: Range<u64>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            seed: 0x5a4d,
            coordinate: true,
            epochs: 0..1,
        }
    }
}

/// The unified concrete object dependency graph for one epoch chunk.
#[derive(Debug, Clone)]
pub struct ConcreteGraph {
    /// All nodes; tree edges via `parent`/`children`.
    pub nodes: Vec<ConcreteNode>,
    /// Video-root node per video id.
    pub roots: HashMap<u64, NodeId>,
    /// Every planned batch in the chunk.
    pub batches: Vec<BatchRef>,
    /// Merge statistics for the chunk.
    pub stats: MergeStats,
    /// The planned epoch range.
    pub epochs: Range<u64>,
}

impl ConcreteGraph {
    /// Assembles a graph from its nodes and batches, building the root
    /// table (the linter's tests hand-edit a plan and put it back
    /// together with this).
    #[must_use]
    pub fn from_parts(
        nodes: Vec<ConcreteNode>,
        batches: Vec<BatchRef>,
        stats: MergeStats,
        epochs: Range<u64>,
    ) -> Self {
        let mut roots = HashMap::new();
        for n in &nodes {
            if let ObjectKey::Video { video_id } = n.key {
                roots.insert(video_id, n.id);
            }
        }
        ConcreteGraph {
            nodes,
            roots,
            batches,
            stats,
            epochs,
        }
    }

    /// Nodes of one video's subtree (preorder).
    #[must_use]
    pub fn video_subtree(&self, video_id: u64) -> Vec<NodeId> {
        let Some(&root) = self.roots.get(&video_id) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            out.push(id);
            stack.extend(self.nodes[id].children.iter().copied());
        }
        out
    }

    /// Earliest clock at which each node is (transitively) needed.
    ///
    /// A node's deadline is the minimum over its own consumers and its
    /// descendants' consumers; `None` means the node is never consumed in
    /// this chunk (possible only for roots of unused videos).
    #[must_use]
    pub fn deadlines(&self) -> Vec<Option<u64>> {
        let mut dl: Vec<Option<u64>> = self
            .nodes
            .iter()
            .map(|n| n.consumers.iter().map(|c| c.clock).min())
            .collect();
        // Children have larger ids than parents (construction order), so a
        // reverse pass propagates minima upward in one sweep.
        for id in (0..self.nodes.len()).rev() {
            if let Some(parent) = self.nodes[id].parent {
                dl[parent] = match (dl[parent], dl[id]) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        dl
    }

    /// Total size of all currently cached nodes.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.cached)
            .map(|n| n.size_bytes)
            .sum()
    }

    /// Sum of edge costs of all nodes *not* cached (recompute exposure).
    #[must_use]
    pub fn uncached_cost(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| !n.cached)
            .map(|n| n.edge_cost)
            .sum()
    }
}

/// The materialization planner.
#[derive(Debug)]
pub struct Planner {
    tasks: Vec<PlanInput>,
    videos: Vec<VideoMeta>,
    options: PlannerOptions,
    /// Per-task abstract view dependency graphs (the planning blueprints).
    abstract_graphs: Vec<AbstractGraph>,
}

impl Planner {
    /// Creates a planner over tasks and videos.
    ///
    /// Following the paper, planning starts from the per-task *abstract
    /// view dependency graphs*: tasks may only be planned together when
    /// their abstract roots coincide (they read the same dataset) — that
    /// is the first merge criterion, checked here.
    pub fn new(
        tasks: Vec<PlanInput>,
        videos: Vec<VideoMeta>,
        options: PlannerOptions,
    ) -> Result<Self> {
        if tasks.is_empty() {
            return Err(GraphError::InvalidInput {
                what: "no tasks".into(),
            });
        }
        if videos.is_empty() {
            return Err(GraphError::InvalidInput {
                what: "no videos".into(),
            });
        }
        if options.epochs.is_empty() {
            return Err(GraphError::InvalidInput {
                what: "empty epoch range".into(),
            });
        }
        for t in &tasks {
            t.config.validate().map_err(|e| GraphError::InvalidInput {
                what: e.to_string(),
            })?;
        }
        let abstract_graphs: Vec<AbstractGraph> = tasks
            .iter()
            .map(|t| AbstractGraph::from_config(&t.config))
            .collect();
        for g in &abstract_graphs[1..] {
            if !abstract_graphs[0].shares_root(g) {
                return Err(GraphError::InvalidInput {
                    what: format!(
                        "tasks read different datasets (`{}` vs `{}`); plan them separately",
                        abstract_graphs[0].dataset_path, g.dataset_path
                    ),
                });
            }
        }
        Ok(Planner {
            tasks,
            videos,
            options,
            abstract_graphs,
        })
    }

    /// The per-task abstract view dependency graphs.
    #[must_use]
    pub fn abstract_graphs(&self) -> &[AbstractGraph] {
        &self.abstract_graphs
    }

    /// A deterministic per-(task, epoch) shuffle of video order.
    ///
    /// This is the Data Access Rule: every video appears exactly once per
    /// epoch per task, in an epoch-specific random order.
    ///
    /// The shuffle is keyed by the task's *tag*, not its position in the
    /// task vector, so a task's batch composition is invariant under
    /// workload composition: the same task planned alone or alongside
    /// other tasks (e.g. other tenants' in a fleet) draws identical epoch
    /// orders. Fleet-vs-isolated byte parity (`tests/fleet.rs`) rests on
    /// this.
    fn video_order(&self, task_tag: &str, epoch: u64) -> Vec<usize> {
        let n = self.videos.len();
        let mut order: Vec<usize> = (0..n).collect();
        let identity = tag_identity(task_tag);
        // Fisher–Yates driven by coordinated_draw so the shuffle is pure.
        for i in (1..n).rev() {
            let u = coordinated_draw(
                self.options.seed,
                identity.wrapping_mul(0x9249_2492),
                epoch,
                0,
                i as u64,
                0xdead,
            );
            let j = ((u * (i + 1) as f64) as usize).min(i);
            order.swap(i, j);
        }
        order
    }

    /// Builds the concrete graph for the configured epoch chunk.
    ///
    /// Two requests are the same object when they are the same decoded
    /// frame, or the same op applied to the same object: a node stands
    /// for its `(video, frame, op chain)`, so `(parent node, op)` is the
    /// whole chain's identity. The merge runs through a `MergeIndex`
    /// local to this call, and each distinct `(name, params)` op is
    /// formatted once per sample chain, not once per frame.
    pub fn plan(&self) -> Result<ConcreteGraph> {
        let mut graph = ConcreteGraph {
            nodes: Vec::new(),
            roots: HashMap::new(),
            batches: Vec::new(),
            stats: MergeStats::default(),
            epochs: self.options.epochs.clone(),
        };
        // Video roots.
        for v in &self.videos {
            let id = graph.nodes.len();
            graph.nodes.push(ConcreteNode {
                id,
                key: ObjectKey::Video {
                    video_id: v.video_id,
                },
                parent: None,
                children: Vec::new(),
                // The encoded source lives in dataset storage, not the
                // cache; its budget contribution is zero.
                size_bytes: 0,
                edge_cost: 0.0,
                cached: true,
                consumers: Vec::new(),
                dims: (v.width, v.height),
                op: None,
            });
            graph.roots.insert(v.video_id, id);
        }
        let mut index = MergeIndex::new(&self.videos);
        // Batch per (task, epoch, iteration), in first-use order.
        let mut batch_of: HashMap<(u32, u64, u64), usize> = HashMap::new();
        let samplings: Vec<_> = self.tasks.iter().map(|t| t.config.sampling).collect();
        // Iterations per epoch per task (for the global clock).
        let iters_of = |task: &PlanInput| -> u64 {
            let vpb = task.config.sampling.videos_per_batch;
            (self.videos.len() as u64).div_ceil(vpb as u64)
        };
        let max_iters = self.tasks.iter().map(iters_of).max().unwrap_or(1);
        // Shared frame pools: one per video for the whole chunk ("videos
        // are decoded once and cached for exactly k epochs"). Every task,
        // sample, and epoch of the chunk draws its clip inside the pool
        // window, so the chunk's decode work is bounded by the pool size.
        let chunk_id = self.options.epochs.start;
        let mut pools: HashMap<u64, FramePool> = HashMap::new();
        for v in &self.videos {
            let u = coordinated_draw(self.options.seed, v.video_id, chunk_id, 0, 0, 0xf00d);
            pools.insert(v.video_id, FramePool::build(v.frames, &samplings, u)?);
        }
        for epoch in self.options.epochs.clone() {
            for task in &self.tasks {
                let task_id = task.task_id;
                let cfg = &task.config;
                let order = self.video_order(&cfg.tag, epoch);
                let vpb = cfg.sampling.videos_per_batch;
                let terminal = cfg.terminal_streams();
                for (pos, &vid_idx) in order.iter().enumerate() {
                    let video = &self.videos[vid_idx];
                    let root = graph.roots[&video.video_id];
                    let iteration = (pos / vpb) as u64;
                    let clock = epoch * max_iters + iteration;
                    let consumer = Consumer {
                        task: task_id,
                        epoch,
                        iteration,
                        clock,
                    };
                    for sample in 0..cfg.sampling.samples_per_video as u64 {
                        // Temporal coordination (or not).
                        let indices = if self.options.coordinate {
                            // Clip offset inside the chunk pool; the task
                            // id is absent from the key so same-geometry
                            // tasks draw identical clips.
                            let u = coordinated_draw(
                                self.options.seed,
                                video.video_id,
                                epoch,
                                sample,
                                1,
                                0xc11b,
                            );
                            pools[&video.video_id].select(&cfg.sampling, u)
                        } else {
                            // Fresh independent randomness per task and
                            // epoch: a one-off pool anchored anywhere in
                            // the video, like a plain dataloader.
                            let nonce = (u64::from(task_id) + 1) * 0x1234_5678;
                            let ua = coordinated_draw(
                                self.options.seed ^ nonce,
                                video.video_id,
                                epoch,
                                sample,
                                0,
                                0xf00d,
                            );
                            let uo = coordinated_draw(
                                self.options.seed ^ nonce,
                                video.video_id,
                                epoch,
                                sample,
                                1,
                                0xc11b,
                            );
                            let pool = FramePool::build(video.frames, &[cfg.sampling], ua)?;
                            pool.select(&cfg.sampling, uo)
                        };
                        // Spatial coordination (or not).
                        let ctx = DrawCtx {
                            seed: self.options.seed,
                            video_id: video.video_id,
                            epoch,
                            sample,
                            task_nonce: if self.options.coordinate {
                                0
                            } else {
                                (u64::from(task_id) + 1) * 0x9e3779b9
                            },
                        };
                        let chains = resolve::resolve_chains(
                            &cfg.augmentation,
                            &terminal,
                            video.width,
                            video.height,
                            epoch * max_iters + iteration,
                            epoch,
                            &ctx,
                        )?;
                        let mut plans: Vec<SamplePlan> = Vec::with_capacity(chains.len());
                        for (variant, chain) in chains.iter().enumerate() {
                            let normalize = chain.iter().find_map(|op| match op {
                                ResolvedOp::Normalize { mean, std } => {
                                    Some((mean.clone(), std.clone()))
                                }
                                _ => None,
                            });
                            let pixel_chain: Vec<(u32, &ResolvedOp)> = chain
                                .iter()
                                .filter(|o| o.is_pixel_op())
                                .map(|op| (index.intern(op), op))
                                .collect();
                            let frame_nodes = indices
                                .iter()
                                .map(|&fidx| {
                                    index.add_chain_nodes(
                                        &mut graph,
                                        video,
                                        root,
                                        fidx,
                                        &pixel_chain,
                                        consumer,
                                    )
                                })
                                .collect();
                            plans.push(SamplePlan {
                                video_id: video.video_id,
                                sample: sample as u32,
                                variant: variant as u32,
                                frame_nodes,
                                frame_indices: indices.clone(),
                                normalize,
                            });
                        }
                        // Attach the slot plans to the batch record.
                        match batch_of.entry((task_id, epoch, iteration)) {
                            Entry::Occupied(b) => graph.batches[*b.get()].samples.extend(plans),
                            Entry::Vacant(b) => {
                                b.insert(graph.batches.len());
                                graph.batches.push(BatchRef {
                                    task: task_id,
                                    epoch,
                                    iteration,
                                    clock,
                                    samples: plans,
                                });
                            }
                        }
                    }
                }
                debug_assert_eq!(
                    graph
                        .batches
                        .iter()
                        .filter(|b| b.task == task_id && b.epoch == epoch)
                        .count() as u64,
                    iters_of(task)
                );
            }
        }
        // Every batch must stack into one tensor: all its samples'
        // terminal objects must share dimensions. Catch geometry
        // mismatches (e.g. a multi-branch whose arms produce different
        // sizes) here, with a plan-time error instead of a serve failure.
        for b in &graph.batches {
            let mut dims: Option<((usize, usize), usize)> = None;
            for s in &b.samples {
                let Some(&terminal) = s.frame_nodes.last() else {
                    continue;
                };
                let d = (graph.nodes[terminal].dims, s.frame_indices.len());
                match dims {
                    None => dims = Some(d),
                    Some(expected) if expected == d => {}
                    Some(expected) => {
                        return Err(GraphError::ResolveFailed {
                            what: format!(
                                "batch task {} epoch {} iter {} mixes clip shapes \
                                 {expected:?} and {d:?}; all terminal streams of a \
                                 task must produce identical geometry",
                                b.task, b.epoch, b.iteration
                            ),
                        })
                    }
                }
            }
        }
        index.finish(&mut graph);
        Ok(graph)
    }
}

/// One video's decoded frame, while planning.
#[derive(Clone, Copy, Default)]
struct FrameSlot {
    /// The frame's node, if one was made yet.
    node: Option<NodeId>,
    /// Requests for the frame so far (Fig. 19's selection count).
    selected: u32,
}

/// One distinct resolved op, while planning.
struct InternedOp {
    name: &'static str,
    params: String,
    /// Applications requested.
    requests: u64,
    /// Distinct augmented objects it produced.
    unique: u64,
}

/// What makes two requests one object while a chunk is planned: a frame
/// by `(video root, frame)`, an augmented object by `(parent node,
/// interned op)`. Dropped when planning returns; the graph keeps no index.
struct MergeIndex {
    /// Per video root (root ids are `0..videos`), one slot per frame.
    frames: Vec<Vec<FrameSlot>>,
    /// Augmented node per (parent node, interned op).
    children: HashMap<(NodeId, u32), NodeId>,
    /// Interned op per distinct `(name, params)`.
    op_ids: HashMap<(&'static str, String), u32>,
    ops: Vec<InternedOp>,
}

impl MergeIndex {
    fn new(videos: &[VideoMeta]) -> Self {
        MergeIndex {
            frames: videos
                .iter()
                .map(|v| vec![FrameSlot::default(); v.frames])
                .collect(),
            children: HashMap::new(),
            op_ids: HashMap::new(),
            ops: Vec::new(),
        }
    }

    /// The interned id of `op`'s `(name, params)`.
    fn intern(&mut self, op: &ResolvedOp) -> u32 {
        let key = (op.name(), op.params());
        if let Some(&id) = self.op_ids.get(&key) {
            return id;
        }
        let id = self.ops.len() as u32;
        self.ops.push(InternedOp {
            name: key.0,
            params: key.1.clone(),
            requests: 0,
            unique: 0,
        });
        self.op_ids.insert(key, id);
        id
    }

    /// Adds (or merges into) the node chain for one frame of one sample,
    /// returning the terminal node id.
    fn add_chain_nodes(
        &mut self,
        graph: &mut ConcreteGraph,
        video: &VideoMeta,
        root: NodeId,
        frame: usize,
        chain: &[(u32, &ResolvedOp)],
        consumer: Consumer,
    ) -> NodeId {
        use sand_frame::cost::units;
        graph.stats.decode_requests += 1;
        // The frame pool selects inside the video (`FramePool::select`).
        let slot = &mut self.frames[root][frame];
        slot.selected += 1;
        let frame_px = (video.width * video.height * video.channels) as f64;
        let mut parent = match slot.node {
            Some(id) => id,
            None => {
                let id = graph.nodes.len();
                // Cost model: decoding this frame alone costs the GOP run
                // from the previous keyframe.
                let gop_pos = frame % video.gop_size.max(1);
                let cost = frame_px * units::DECODE_I + gop_pos as f64 * frame_px * units::DECODE_P;
                // Every object starts cached ("all objects could
                // potentially be cached" in the paper); the pruning pass
                // collapses subtrees until the set fits the budget.
                graph.nodes.push(ConcreteNode {
                    id,
                    key: ObjectKey::Frame {
                        video_id: video.video_id,
                        frame,
                    },
                    parent: Some(root),
                    children: Vec::new(),
                    size_bytes: frame_px as u64,
                    edge_cost: cost,
                    cached: true,
                    consumers: Vec::new(),
                    dims: (video.width, video.height),
                    op: None,
                });
                graph.nodes[root].children.push(id);
                graph.stats.unique_frames += 1;
                slot.node = Some(id);
                id
            }
        };
        // Aug chain nodes.
        let mut dims = (video.width, video.height);
        for (depth, &(op_id, op)) in (1..).zip(chain) {
            graph.stats.aug_requests += 1;
            let interned = &mut self.ops[op_id as usize];
            interned.requests += 1;
            let (ow, oh) = op.out_dims(dims.0, dims.1);
            parent = match self.children.entry((parent, op_id)) {
                Entry::Occupied(child) => *child.get(),
                Entry::Vacant(slot) => {
                    let id = graph.nodes.len();
                    interned.unique += 1;
                    let prefix = match graph.nodes[parent].key {
                        ObjectKey::Aug { digest, .. } => digest,
                        _ => EMPTY_CHAIN_DIGEST,
                    };
                    graph.nodes.push(ConcreteNode {
                        id,
                        key: ObjectKey::Aug {
                            video_id: video.video_id,
                            frame,
                            depth,
                            digest: extend_chain_digest(prefix, interned.name, &interned.params),
                        },
                        parent: Some(parent),
                        children: Vec::new(),
                        size_bytes: (ow * oh * video.channels) as u64,
                        edge_cost: op.cost_units(dims.0, dims.1, video.channels),
                        cached: true,
                        consumers: Vec::new(),
                        dims: (ow, oh),
                        op: Some(op.clone()),
                    });
                    graph.nodes[parent].children.push(id);
                    graph.stats.unique_aug_nodes += 1;
                    *slot.insert(id)
                }
            };
            dims = (ow, oh);
        }
        // Record the consumer on the terminal node.
        graph.nodes[parent].consumers.push(consumer);
        parent
    }

    /// Folds the per-frame and per-op counts into the graph's statistics.
    fn finish(self, graph: &mut ConcreteGraph) {
        let stats = &mut graph.stats;
        for (root, slots) in self.frames.iter().enumerate() {
            let video_id = graph.nodes[root].key.video_id();
            for (frame, slot) in slots.iter().enumerate() {
                if slot.selected > 0 {
                    stats
                        .frame_selection
                        .insert((video_id, frame), slot.selected);
                }
            }
        }
        for op in &self.ops {
            if op.requests > 0 {
                *stats.op_requests.entry(op.name).or_insert(0) += op.requests;
            }
            if op.unique > 0 {
                *stats.op_unique.entry(op.name).or_insert(0) += op.unique;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_config::parse_task_config;

    fn videos(n: usize) -> Vec<VideoMeta> {
        (0..n as u64)
            .map(|video_id| VideoMeta {
                video_id,
                frames: 48,
                width: 32,
                height: 32,
                channels: 3,
                gop_size: 8,
                encoded_bytes: 10_000,
            })
            .collect()
    }

    const TASK_A: &str = r#"
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

    fn plan_input(text: &str, task_id: u32) -> PlanInput {
        PlanInput {
            task_id,
            config: parse_task_config(text).unwrap(),
        }
    }

    fn plan(
        tasks: Vec<PlanInput>,
        n_videos: usize,
        epochs: Range<u64>,
        coordinate: bool,
    ) -> ConcreteGraph {
        Planner::new(
            tasks,
            videos(n_videos),
            PlannerOptions {
                seed: 7,
                coordinate,
                epochs,
            },
        )
        .unwrap()
        .plan()
        .unwrap()
    }

    #[test]
    fn every_video_used_once_per_epoch_per_task() {
        let g = plan(vec![plan_input(TASK_A, 0)], 6, 0..2, true);
        for epoch in 0..2 {
            let mut seen: Vec<u64> = g
                .batches
                .iter()
                .filter(|b| b.epoch == epoch)
                .flat_map(|b| b.samples.iter().map(|s| s.video_id))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "epoch {epoch}");
        }
    }

    #[test]
    fn batch_iteration_sizes_follow_vpb() {
        let g = plan(vec![plan_input(TASK_A, 0)], 6, 0..1, true);
        assert_eq!(g.batches.len(), 3); // 6 videos / vpb 2
        for b in &g.batches {
            assert_eq!(b.samples.len(), 2);
            for s in &b.samples {
                assert_eq!(s.frame_nodes.len(), 4);
                assert_eq!(s.frame_indices.len(), 4);
            }
        }
    }

    #[test]
    fn two_identical_tasks_share_everything_when_coordinated() {
        let g = plan(
            vec![plan_input(TASK_A, 0), plan_input(TASK_A, 1)],
            4,
            0..1,
            true,
        );
        // All decode and aug work is shared: reduction = 50%.
        assert!(
            (g.stats.decode_reduction() - 0.5).abs() < 1e-9,
            "{:?}",
            g.stats.decode_reduction()
        );
        assert!((g.stats.op_reduction("crop") - 0.5).abs() < 1e-9);
        assert!((g.stats.op_reduction("resize") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_share_almost_nothing() {
        let g = plan(
            vec![plan_input(TASK_A, 0), plan_input(TASK_A, 1)],
            4,
            0..1,
            false,
        );
        // Anchors differ per task with high probability, so reduction is
        // far below the coordinated 50%.
        assert!(
            g.stats.decode_reduction() < 0.3,
            "{}",
            g.stats.decode_reduction()
        );
    }

    #[test]
    fn chunk_pool_bounds_unique_frames_and_chunks_differ() {
        // Within one chunk, every epoch draws from the same per-video
        // pool: unique frames are bounded by the pool span, not by
        // epochs x clip size.
        let g = plan(vec![plan_input(TASK_A, 0)], 2, 0..4, true);
        // TASK_A: fpv 4, stride 4 -> span 13; videos have 48 frames.
        // Pool grid = stride 4 -> at most 4 pool slots per video.
        assert!(
            g.stats.unique_frames <= 2 * 13,
            "unique frames {} exceed pool bound",
            g.stats.unique_frames
        );
        // Epochs inside the chunk still vary their clips: with 4 epochs,
        // more unique frames than a single epoch needs (very likely).
        assert!(g.stats.unique_frames >= 2 * 4);
        // Different chunks draw different pools (very likely).
        let c0 = plan(vec![plan_input(TASK_A, 0)], 2, 0..1, true);
        let c1 = plan(vec![plan_input(TASK_A, 0)], 2, 1..2, true);
        let f0: Vec<_> = c0.stats.frame_selection.keys().collect();
        let overlap = c1
            .stats
            .frame_selection
            .keys()
            .filter(|k| f0.contains(k))
            .count();
        assert!(
            overlap < c1.stats.frame_selection.len(),
            "chunk pools should differ"
        );
    }

    #[test]
    fn tree_structure_is_consistent() {
        let g = plan(vec![plan_input(TASK_A, 0)], 3, 0..1, true);
        for n in &g.nodes {
            if let Some(p) = n.parent {
                assert!(g.nodes[p].children.contains(&n.id));
                assert!(p < n.id, "parents precede children");
            } else {
                assert!(matches!(n.key, ObjectKey::Video { .. }));
            }
        }
        // Aug chain: crop node's parent is resize node, whose parent is a
        // frame node, whose parent is the root.
        let crop = g
            .nodes
            .iter()
            .find(|n| matches!(n.key, ObjectKey::Aug { depth: 2, .. }))
            .expect("crop node");
        let resize = crop.parent.unwrap();
        assert!(matches!(
            g.nodes[resize].key,
            ObjectKey::Aug { depth: 1, .. }
        ));
        let frame = g.nodes[resize].parent.unwrap();
        assert!(matches!(g.nodes[frame].key, ObjectKey::Frame { .. }));
    }

    #[test]
    fn deadlines_propagate_to_ancestors() {
        let g = plan(vec![plan_input(TASK_A, 0)], 4, 0..1, true);
        let dl = g.deadlines();
        for n in &g.nodes {
            if let Some(p) = n.parent {
                match (dl[p], dl[n.id]) {
                    (Some(a), Some(b)) => assert!(a <= b, "parent deadline after child"),
                    (None, Some(_)) => panic!("child has deadline but parent none"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn consumers_recorded_on_terminals() {
        let g = plan(vec![plan_input(TASK_A, 0)], 2, 0..1, true);
        for b in &g.batches {
            for s in &b.samples {
                for &node in &s.frame_nodes {
                    assert!(g.nodes[node]
                        .consumers
                        .iter()
                        .any(|c| c.task == b.task && c.iteration == b.iteration));
                }
            }
        }
    }

    #[test]
    fn all_objects_cached_by_default() {
        let g = plan(vec![plan_input(TASK_A, 0)], 2, 0..1, true);
        for n in &g.nodes {
            if matches!(n.key, ObjectKey::Video { .. }) {
                assert!(n.cached, "source roots count as (free) cached");
            } else {
                assert!(n.cached, "node {} must start cached", n.id);
            }
        }
        assert!(g.cached_bytes() > 0);
    }

    #[test]
    fn video_order_changes_across_epochs_and_tasks() {
        let p = Planner::new(
            vec![plan_input(TASK_A, 0), plan_input(TASK_A, 1)],
            videos(16),
            PlannerOptions::default(),
        )
        .unwrap();
        assert_ne!(p.video_order("a", 0), p.video_order("a", 1));
        assert_ne!(p.video_order("a", 0), p.video_order("b", 0));
        assert_eq!(p.video_order("a", 0), p.video_order("a", 0));
        // Identity follows the tag, not the task's position in the task
        // vector: planning the same tag in any workload draws the same
        // epoch order (fleet parity rests on this).
        assert_eq!(p.video_order("a", 3), p.video_order("a", 3));
    }

    #[test]
    fn frame_selection_counts_cover_requests() {
        let g = plan(vec![plan_input(TASK_A, 0)], 2, 0..3, true);
        let total: u64 = g
            .stats
            .frame_selection
            .values()
            .map(|&c| u64::from(c))
            .sum();
        assert_eq!(total, g.stats.decode_requests);
        // With coordination a single task still requests each frame once
        // per epoch at most... but across epochs overlaps can occur.
        assert!(g.stats.selected_at_least(1) > 0.99);
    }

    #[test]
    fn tasks_over_different_datasets_rejected() {
        let mut other = parse_task_config(TASK_A).unwrap();
        other.tag = "b".into();
        other.video_dataset_path = "/elsewhere".into();
        let err = Planner::new(
            vec![
                PlanInput {
                    task_id: 0,
                    config: parse_task_config(TASK_A).unwrap(),
                },
                PlanInput {
                    task_id: 1,
                    config: other,
                },
            ],
            videos(2),
            PlannerOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("different datasets"), "{err}");
    }

    #[test]
    fn abstract_graphs_exposed() {
        let p = Planner::new(
            vec![plan_input(TASK_A, 0)],
            videos(2),
            PlannerOptions::default(),
        )
        .unwrap();
        assert_eq!(p.abstract_graphs().len(), 1);
        assert_eq!(p.abstract_graphs()[0].dataset_path, "/d");
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(Planner::new(vec![], videos(1), PlannerOptions::default()).is_err());
        assert!(Planner::new(
            vec![plan_input(TASK_A, 0)],
            vec![],
            PlannerOptions::default()
        )
        .is_err());
        assert!(Planner::new(
            vec![plan_input(TASK_A, 0)],
            videos(1),
            PlannerOptions {
                epochs: 3..3,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn video_subtree_collects_whole_tree() {
        let g = plan(vec![plan_input(TASK_A, 0)], 3, 0..1, true);
        let mut all: Vec<NodeId> = (0..g.nodes.len()).collect();
        let mut collected: Vec<NodeId> = (0..3u64).flat_map(|v| g.video_subtree(v)).collect();
        all.sort_unstable();
        collected.sort_unstable();
        assert_eq!(all, collected);
    }

    #[test]
    fn mixed_variant_geometry_rejected_at_plan_time() {
        let text = r#"
dataset:
  tag: bad
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 4
  augmentation:
    - name: split
      branch_type: multi
      inputs: ["frame"]
      outputs: ["x", "y"]
      branches:
        - config:
            - resize:
                shape: [16, 16]
        - config:
            - resize:
                shape: [8, 8]
"#;
        let err = Planner::new(
            vec![plan_input(text, 0)],
            videos(2),
            PlannerOptions::default(),
        )
        .unwrap()
        .plan()
        .unwrap_err();
        assert!(err.to_string().contains("identical geometry"), "{err}");
    }

    #[test]
    fn samples_per_video_multiplies_slots() {
        let text = TASK_A.replace(
            "frame_stride: 4",
            "frame_stride: 4\n    samples_per_video: 3",
        );
        let g = plan(vec![plan_input(&text, 0)], 2, 0..1, true);
        assert_eq!(g.batches.len(), 1);
        assert_eq!(g.batches[0].samples.len(), 2 * 3);
    }
}
