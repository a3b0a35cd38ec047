//! Reference oracle for the planner: `Planner::plan` and its
//! `add_chain_nodes` as they stood before the planning-local merge index —
//! every augmented object keyed by its whole `(name, params)` op chain as
//! strings, merged through one map from that key to the node, the batch
//! found by a linear search, and the store-key digest hashed over the
//! strings. Kept for `prop_plan_matches_reference` only; never shipped.

use sand_graph::concrete::Consumer;
use sand_graph::resolve::{self, coordinated_draw, DrawCtx};
use sand_graph::{
    BatchRef, FramePool, NodeId, PlanInput, PlannerOptions, ResolvedOp, SamplePlan, VideoMeta,
};
use std::collections::HashMap;

/// Object identity with the chain spelled out.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RefKey {
    Video {
        video_id: u64,
    },
    Frame {
        video_id: u64,
        frame: usize,
    },
    Aug {
        video_id: u64,
        frame: usize,
        chain: Vec<(String, String)>,
    },
}

/// One node, with the fields `ConcreteNode` has.
#[derive(Debug, Clone)]
pub struct RefNode {
    pub key: RefKey,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    pub size_bytes: u64,
    pub edge_cost: f64,
    pub cached: bool,
    pub consumers: Vec<Consumer>,
    pub dims: (usize, usize),
    pub op: Option<ResolvedOp>,
}

/// The merge statistics, keyed by owned op names.
#[derive(Debug, Clone, Default)]
pub struct RefStats {
    pub decode_requests: u64,
    pub unique_frames: u64,
    pub aug_requests: u64,
    pub unique_aug_nodes: u64,
    pub op_requests: HashMap<String, u64>,
    pub op_unique: HashMap<String, u64>,
    pub frame_selection: HashMap<(u64, usize), u32>,
}

/// The reference plan of one chunk.
#[derive(Debug, Clone)]
pub struct RefGraph {
    pub nodes: Vec<RefNode>,
    pub batches: Vec<BatchRef>,
    pub stats: RefStats,
}

/// The store key of a reference object: the FNV-1a digest hashed over
/// the chain's strings, as `sand_core::store_key` computed it.
#[must_use]
pub fn ref_store_key(key: &RefKey) -> String {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    match key {
        RefKey::Video { video_id } => format!("v{video_id:04}/src"),
        RefKey::Frame { video_id, frame } => format!("v{video_id:04}/f{frame:05}"),
        RefKey::Aug {
            video_id,
            frame,
            chain,
        } => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (name, params) in chain {
                fnv(&mut h, name.as_bytes());
                fnv(&mut h, &[0x1f]);
                fnv(&mut h, params.as_bytes());
                fnv(&mut h, &[0x1e]);
            }
            format!("v{video_id:04}/f{frame:05}/a{h:016x}")
        }
    }
}

fn tag_identity(tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in tag.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn video_order(videos: &[VideoMeta], seed: u64, task_tag: &str, epoch: u64) -> Vec<usize> {
    let n = videos.len();
    let mut order: Vec<usize> = (0..n).collect();
    let identity = tag_identity(task_tag);
    for i in (1..n).rev() {
        let u = coordinated_draw(
            seed,
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

struct Reference<'a> {
    tasks: &'a [PlanInput],
    videos: &'a [VideoMeta],
    options: &'a PlannerOptions,
    graph: RefGraph,
    roots: HashMap<u64, NodeId>,
    key_index: HashMap<RefKey, NodeId>,
}

/// Plans the chunk the old way. Errors are reported as strings.
pub fn plan_reference(
    tasks: &[PlanInput],
    videos: &[VideoMeta],
    options: &PlannerOptions,
) -> Result<RefGraph, String> {
    let mut r = Reference {
        tasks,
        videos,
        options,
        graph: RefGraph {
            nodes: Vec::new(),
            batches: Vec::new(),
            stats: RefStats::default(),
        },
        roots: HashMap::new(),
        key_index: HashMap::new(),
    };
    r.plan()?;
    Ok(r.graph)
}

impl Reference<'_> {
    fn plan(&mut self) -> Result<(), String> {
        for v in self.videos {
            let id = self.graph.nodes.len();
            let key = RefKey::Video {
                video_id: v.video_id,
            };
            self.graph.nodes.push(RefNode {
                key: key.clone(),
                parent: None,
                children: Vec::new(),
                size_bytes: 0,
                edge_cost: 0.0,
                cached: true,
                consumers: Vec::new(),
                dims: (v.width, v.height),
                op: None,
            });
            self.roots.insert(v.video_id, id);
            self.key_index.insert(key, id);
        }
        let samplings: Vec<_> = self.tasks.iter().map(|t| t.config.sampling).collect();
        let n_videos = self.videos.len() as u64;
        let iters_of =
            |task: &PlanInput| n_videos.div_ceil(task.config.sampling.videos_per_batch as u64);
        let max_iters = self.tasks.iter().map(iters_of).max().unwrap_or(1);
        let seed = self.options.seed;
        let coordinate = self.options.coordinate;
        let chunk_id = self.options.epochs.start;
        let mut pools: HashMap<u64, FramePool> = HashMap::new();
        for v in self.videos {
            let u = coordinated_draw(seed, v.video_id, chunk_id, 0, 0, 0xf00d);
            pools.insert(
                v.video_id,
                FramePool::build(v.frames, &samplings, u).map_err(|e| e.to_string())?,
            );
        }
        for epoch in self.options.epochs.clone() {
            for task in self.tasks {
                let task_id = task.task_id;
                let cfg = &task.config;
                let order = video_order(self.videos, seed, &cfg.tag, epoch);
                let vpb = cfg.sampling.videos_per_batch;
                let terminal = cfg.terminal_streams();
                for (pos, &vid_idx) in order.iter().enumerate() {
                    let video = self.videos[vid_idx];
                    let iteration = (pos / vpb) as u64;
                    let clock = epoch * max_iters + iteration;
                    let consumer = Consumer {
                        task: task_id,
                        epoch,
                        iteration,
                        clock,
                    };
                    for sample in 0..cfg.sampling.samples_per_video as u64 {
                        let indices = if coordinate {
                            let u =
                                coordinated_draw(seed, video.video_id, epoch, sample, 1, 0xc11b);
                            pools[&video.video_id].select(&cfg.sampling, u)
                        } else {
                            let nonce = (u64::from(task_id) + 1) * 0x1234_5678;
                            let ua = coordinated_draw(
                                seed ^ nonce,
                                video.video_id,
                                epoch,
                                sample,
                                0,
                                0xf00d,
                            );
                            let uo = coordinated_draw(
                                seed ^ nonce,
                                video.video_id,
                                epoch,
                                sample,
                                1,
                                0xc11b,
                            );
                            let pool = FramePool::build(video.frames, &[cfg.sampling], ua)
                                .map_err(|e| e.to_string())?;
                            pool.select(&cfg.sampling, uo)
                        };
                        let ctx = DrawCtx {
                            seed,
                            video_id: video.video_id,
                            epoch,
                            sample,
                            task_nonce: if coordinate {
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
                        )
                        .map_err(|e| e.to_string())?;
                        let mut plans: Vec<SamplePlan> = Vec::with_capacity(chains.len());
                        for (variant, chain) in chains.iter().enumerate() {
                            let normalize = chain.iter().find_map(|op| match op {
                                ResolvedOp::Normalize { mean, std } => {
                                    Some((mean.clone(), std.clone()))
                                }
                                _ => None,
                            });
                            let pixel_chain: Vec<&ResolvedOp> =
                                chain.iter().filter(|o| o.is_pixel_op()).collect();
                            let mut frame_nodes = Vec::with_capacity(indices.len());
                            for &fidx in &indices {
                                frame_nodes.push(self.add_chain_nodes(
                                    &video,
                                    fidx,
                                    &pixel_chain,
                                    consumer,
                                ));
                            }
                            plans.push(SamplePlan {
                                video_id: video.video_id,
                                sample: sample as u32,
                                variant: variant as u32,
                                frame_nodes,
                                frame_indices: indices.clone(),
                                normalize,
                            });
                        }
                        let batch = self.graph.batches.iter_mut().find(|b| {
                            b.task == task_id && b.epoch == epoch && b.iteration == iteration
                        });
                        match batch {
                            Some(b) => b.samples.extend(plans),
                            None => self.graph.batches.push(BatchRef {
                                task: task_id,
                                epoch,
                                iteration,
                                clock,
                                samples: plans,
                            }),
                        }
                    }
                }
            }
        }
        for b in &self.graph.batches {
            let mut dims: Option<((usize, usize), usize)> = None;
            for s in &b.samples {
                let Some(&terminal) = s.frame_nodes.last() else {
                    continue;
                };
                let d = (self.graph.nodes[terminal].dims, s.frame_indices.len());
                match dims {
                    None => dims = Some(d),
                    Some(expected) if expected == d => {}
                    Some(_) => return Err("identical geometry".into()),
                }
            }
        }
        let stats = &mut self.graph.stats;
        stats.unique_frames = self
            .graph
            .nodes
            .iter()
            .filter(|n| matches!(n.key, RefKey::Frame { .. }))
            .count() as u64;
        stats.unique_aug_nodes = self
            .graph
            .nodes
            .iter()
            .filter(|n| matches!(n.key, RefKey::Aug { .. }))
            .count() as u64;
        for node in &mut self.graph.nodes {
            if !matches!(node.key, RefKey::Video { .. }) {
                node.cached = true;
            }
        }
        Ok(())
    }

    fn add_chain_nodes(
        &mut self,
        video: &VideoMeta,
        frame: usize,
        chain: &[&ResolvedOp],
        consumer: Consumer,
    ) -> NodeId {
        use sand_frame::cost::units;
        let graph = &mut self.graph;
        let root = self.roots[&video.video_id];
        let frame_key = RefKey::Frame {
            video_id: video.video_id,
            frame,
        };
        graph.stats.decode_requests += 1;
        *graph
            .stats
            .frame_selection
            .entry((video.video_id, frame))
            .or_insert(0) += 1;
        let frame_px = (video.width * video.height * video.channels) as f64;
        let frame_node = match self.key_index.get(&frame_key) {
            Some(&id) => id,
            None => {
                let id = graph.nodes.len();
                let gop_pos = frame % video.gop_size.max(1);
                let cost = frame_px * units::DECODE_I + gop_pos as f64 * frame_px * units::DECODE_P;
                graph.nodes.push(RefNode {
                    key: frame_key.clone(),
                    parent: Some(root),
                    children: Vec::new(),
                    size_bytes: frame_px as u64,
                    edge_cost: cost,
                    cached: false,
                    consumers: Vec::new(),
                    dims: (video.width, video.height),
                    op: None,
                });
                graph.nodes[root].children.push(id);
                self.key_index.insert(frame_key, id);
                id
            }
        };
        let mut parent = frame_node;
        let mut dims = (video.width, video.height);
        let mut acc_chain: Vec<(String, String)> = Vec::new();
        for op in chain {
            acc_chain.push((op.name().to_string(), op.params()));
            graph.stats.aug_requests += 1;
            *graph
                .stats
                .op_requests
                .entry(op.name().to_string())
                .or_insert(0) += 1;
            let key = RefKey::Aug {
                video_id: video.video_id,
                frame,
                chain: acc_chain.clone(),
            };
            let (ow, oh) = op.out_dims(dims.0, dims.1);
            parent = match self.key_index.get(&key) {
                Some(&id) => id,
                None => {
                    let id = graph.nodes.len();
                    *graph
                        .stats
                        .op_unique
                        .entry(op.name().to_string())
                        .or_insert(0) += 1;
                    graph.nodes.push(RefNode {
                        key: key.clone(),
                        parent: Some(parent),
                        children: Vec::new(),
                        size_bytes: (ow * oh * video.channels) as u64,
                        edge_cost: op.cost_units(dims.0, dims.1, video.channels),
                        cached: false,
                        consumers: Vec::new(),
                        dims: (ow, oh),
                        op: Some((*op).clone()),
                    });
                    graph.nodes[parent].children.push(id);
                    self.key_index.insert(key, id);
                    id
                }
            };
            dims = (ow, oh);
        }
        graph.nodes[parent].consumers.push(consumer);
        parent
    }
}
