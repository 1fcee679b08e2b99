//! Analytic cost model — the objective the synthesizer optimizes
//! (paper eqs. (1)–(6)).
//!
//! Given a [`Strategy`], a profiled topology, and the tensor size, the
//! model predicts the collective's completion time:
//!
//! * **Bandwidth sharing (eq. 3)** — each link's profiled bandwidth is
//!   divided by the number of *streams* traversing it, summed over all
//!   sub-collectives. Flows merged by an upstream aggregation count as
//!   one stream (Reduce); broadcast replicas on a shared link group as
//!   one; AlltoAll flows count individually.
//! * **Chunk timing (eq. 2)** — a chunk leaves node `j` either when it
//!   arrives (forwarding) or when the same-offset chunk of *every* flow
//!   through `j` has arrived (aggregation).
//! * **Pipelining (eqs. 5–6)** — a flow of `⌈S_m/C_m⌉` chunks finishes
//!   at `h_dst + ⌈S_m/C_m⌉ · T_bottle`, with `T_bottle` the slowest
//!   hop-to-hop gap along its route.
//!
//! The model deliberately ignores kernel-launch and staging overheads,
//! as the paper's MIP does; the executor (crate `adapcc`) charges them.
//!
//! # Incremental evaluation
//!
//! [`CostModel::evaluate`] performs a full evaluation; the annealer
//! instead keeps a persistent [`CostState`] — per-link stream loads,
//! per-NIC port loads and per-sub-collective completion times in dense
//! index-keyed `Vec`s — and applies each mutation as a *delta*
//! ([`CostState::replace_sub`], [`CostState::set_fractions`]),
//! re-scoring only the sub-collectives whose inputs changed and undoing
//! rejected mutations exactly ([`CostState::rollback`]). Stream counts
//! are small integers, so load updates are exact in `f64` and the delta
//! path is **bit-identical** to a fresh full evaluation — asserted after
//! every delta under `debug_assertions`.

use std::collections::HashMap;
use std::sync::Arc;

use adapcc_profile::profiler::LinkProfile;
use adapcc_simnet::cluster::{InstanceId, Rank};
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;
use adapcc_topo::logical::{EdgeId, EdgeKind, LogicalNode, LogicalTopology};

use crate::primitive::Primitive;
use crate::strategy::{reversed_sub, split_sizes, Strategy, SubCollective};

/// Predicted performance of a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Predicted completion time of the whole collective (eq. 4).
    pub completion: SimDuration,
    /// Predicted completion per sub-collective.
    pub per_sub: Vec<SimDuration>,
}

impl CostEstimate {
    /// Algorithm bandwidth implied by the estimate: tensor bytes per
    /// second of completion time (the paper's `Algo.bw` metric).
    ///
    /// # Panics
    ///
    /// Panics if the completion time is zero.
    pub fn algo_bandwidth(&self, tensor: ByteSize) -> f64 {
        let t = self.completion.as_secs();
        assert!(t > 0.0, "zero completion time");
        tensor.as_f64() / t
    }
}

/// Pinned stream loads contributed by *co-scheduled* collectives: the
/// eq. 3 equal-share bandwidth model lifted across process groups.
///
/// A solve for one group normally scores against an empty fabric; when
/// several groups (DP rings, TP slices, MoE all-to-alls) run
/// concurrently they share links and NIC ports, and a strategy that
/// looks optimal alone can melt under its peers' traffic. A
/// `BackgroundLoad` accumulates the per-edge and per-port stream counts
/// of the peer strategies ([`add_strategy`](Self::add_strategy), using
/// the exact same stream-counting rules as the foreground evaluation,
/// reverse-broadcast AllReduce twins included) and is pinned under a
/// [`CostModel`] via [`CostModel::with_background`]: every foreground
/// score then adds these counts to the eq. 3 denominators.
///
/// Loads are stream *counts* (small integers in `f64`), so seeding them
/// before the foreground accumulation keeps the delta path bit-exact —
/// deltas add and remove only foreground streams, and the debug
/// [`CostState`] oracle rebuilds with the same background.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundLoad {
    /// Streams per edge (indexed by `EdgeId`).
    shared: Vec<f64>,
    /// Streams leaving each node over network edges (node index order
    /// of `topo.nodes()`).
    egress: Vec<f64>,
    /// Streams entering each node over network edges.
    ingress: Vec<f64>,
    /// Total streams accumulated (0 ⇒ empty fabric).
    streams: f64,
}

impl BackgroundLoad {
    /// An empty background sized for `topo` (an empty fabric).
    pub fn new(topo: &LogicalTopology) -> Self {
        BackgroundLoad {
            shared: vec![0.0; topo.edges().len()],
            egress: vec![0.0; topo.nodes().len()],
            ingress: vec![0.0; topo.nodes().len()],
            streams: 0.0,
        }
    }

    /// Accumulates the stream loads of one co-scheduled strategy, by
    /// the same counting rules the foreground evaluation uses
    /// (AllReduce adds its reverse-broadcast twins).
    pub fn add_strategy(&mut self, topo: &LogicalTopology, s: &Strategy) {
        let index = NodeIndex::new(topo);
        let mut pairs = Vec::new();
        let mut add_sub = |sub: &SubCollective, prim: Primitive, pairs: &mut Vec<(EdgeId, f64)>| {
            compute_streams(topo, sub, prim, pairs);
            for &(e, n) in pairs.iter() {
                self.shared[e.0] += n;
                self.streams += n;
                let edge = topo.edge(e);
                if edge.kind == EdgeKind::Network {
                    self.egress[index.node(edge.from)] += n;
                    self.ingress[index.node(edge.to)] += n;
                }
            }
        };
        for sub in &s.subs {
            add_sub(sub, s.primitive, &mut pairs);
            if s.primitive == Primitive::AllReduce {
                add_sub(&reversed_sub(sub, topo), Primitive::Broadcast, &mut pairs);
            }
        }
    }

    /// Whether any stream has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.streams == 0.0
    }

    /// Total accumulated stream count across all edges.
    pub fn total_streams(&self) -> f64 {
        self.streams
    }
}

/// The evaluator.
///
/// Construction prices the fabric once: the static per-edge table
/// (profiled α/β and port terms, endpoint indices) is built here, an
/// O(edges) pass, and shared by every [`CostState`] the model opens and
/// by every clone of the model. Build one model per solve and clone it
/// rather than calling [`new`](Self::new) again.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    topo: &'a LogicalTopology,
    dense: Arc<DenseTopo>,
    background: Option<&'a BackgroundLoad>,
}

impl<'a> CostModel<'a> {
    /// A model over a profiled topology (empty fabric: no co-scheduled
    /// background traffic).
    pub fn new(topo: &'a LogicalTopology, profile: &LinkProfile) -> Self {
        CostModel {
            topo,
            dense: Arc::new(DenseTopo::new(topo, profile)),
            background: None,
        }
    }

    /// Pins the stream loads of co-scheduled peer groups under every
    /// evaluation of this model (see [`BackgroundLoad`]).
    ///
    /// # Panics
    ///
    /// Panics if `background` was sized for a different topology.
    pub fn with_background(mut self, background: &'a BackgroundLoad) -> Self {
        assert_eq!(
            background.shared.len(),
            self.topo.edges().len(),
            "background sized for a different topology"
        );
        self.background = Some(background);
        self
    }

    /// The optionally pinned background, for callers re-scoping models.
    pub fn background(&self) -> Option<&'a BackgroundLoad> {
        self.background
    }

    /// Predicts the completion time of `strategy` moving a tensor of
    /// `total` bytes per participant.
    ///
    /// # Panics
    ///
    /// Panics if a flow uses an edge with no profiled cost, or if the
    /// chunk-time recursion fails to converge (a cyclic graph — caught
    /// earlier by [`Strategy::validate`]).
    pub fn evaluate(&self, strategy: &Strategy, total: ByteSize) -> CostEstimate {
        CostState::new(self.clone(), strategy, total).estimate()
    }

    /// Opens a persistent evaluation state over `strategy` for
    /// incremental (delta) re-scoring.
    pub fn state(&self, strategy: &Strategy, total: ByteSize) -> CostState<'a> {
        CostState::new(self.clone(), strategy, total)
    }

    /// A lower bound on the completion [`evaluate`](Self::evaluate)
    /// reports for any strategy with a flow along `route` in a primary
    /// sub-collective carrying `size` bytes at pipelining chunk `chunk`,
    /// whatever the rest of the strategy and the background load are.
    ///
    /// Each hop is priced at its uncontended floor `α + max(β, port_β) ·
    /// chunk`, hops are summed in route order, and the pipelined tail
    /// adds `chunks × slowest floor` — eq. 5 with every load at 1 and
    /// every synchronization wait at 0. Sound bit for bit: the eq. 3
    /// load is at least 1, so the per-byte term `edge_time` prices is
    /// never below `max(β, port_β)`; departures are never earlier than
    /// the running hop sum; and f64 rounding is monotone, so every
    /// partial sum and product here stays ≤ its counterpart in the full
    /// evaluation.
    pub(crate) fn route_lower_bound(&self, route: &[EdgeId], size: u64, chunk: ByteSize) -> f64 {
        if route.is_empty() || size == 0 {
            return 0.0;
        }
        // The same chunk clamp and chunk count as the full evaluation.
        let chunk = ByteSize::from_bytes(chunk.as_u64().min(size.max(1)));
        let chunks = ByteSize::from_bytes(size).chunks(chunk) as f64;
        let chunk_f = chunk.as_f64();
        let mut t = 0.0_f64;
        let mut bottle = 0.0_f64;
        for e in route {
            let ec = &self.dense.edges[e.0];
            let hop = ec.alpha + ec.beta.max(ec.port_beta) * chunk_f;
            bottle = bottle.max(hop);
            t += hop;
        }
        t + chunks * bottle
    }
}

/// Streams per edge for one sub-collective (the `N^m_{i,j}` of eq. 3).
///
/// A *stream group* is a set of flows already merged by an upstream
/// aggregation: flows are grouped by the last aggregating node at or
/// before the edge's tail on their route (or by flow identity if none).
pub fn edge_streams(
    topo: &LogicalTopology,
    sub: &SubCollective,
    primitive: Primitive,
) -> HashMap<EdgeId, f64> {
    let mut pairs = Vec::new();
    compute_streams(topo, sub, primitive, &mut pairs);
    let mut out = HashMap::with_capacity(pairs.len());
    for (e, n) in pairs {
        out.insert(e, n);
    }
    out
}

/// Sorted `(edge, stream count)` pairs for one sub-collective — the
/// dense-friendly twin of [`edge_streams`], writing into a reusable
/// buffer. Counts are identical; only the container differs.
fn compute_streams(
    topo: &LogicalTopology,
    sub: &SubCollective,
    primitive: Primitive,
    out: &mut Vec<(EdgeId, f64)>,
) {
    out.clear();
    match primitive {
        Primitive::Broadcast | Primitive::AllGather => {
            // Replicas on a shared link are grouped: one stream per edge.
            let mut edges: Vec<u32> = Vec::new();
            for f in &sub.flows {
                for e in &f.route {
                    edges.push(e.0 as u32);
                }
            }
            edges.sort_unstable();
            edges.dedup();
            out.extend(edges.into_iter().map(|e| (EdgeId(e as usize), 1.0)));
        }
        Primitive::AllToAll => {
            // Personalized data: every flow loads the edge.
            let mut edges: Vec<u32> = Vec::new();
            for f in &sub.flows {
                for e in &f.route {
                    edges.push(e.0 as u32);
                }
            }
            edges.sort_unstable();
            let mut i = 0;
            while i < edges.len() {
                let e = edges[i];
                let mut n = 0usize;
                while i < edges.len() && edges[i] == e {
                    n += 1;
                    i += 1;
                }
                out.push((EdgeId(e as usize), n as f64));
            }
        }
        Primitive::Reduce | Primitive::AllReduce | Primitive::ReduceScatter => {
            // Group flows by their most recent aggregation point. A flow
            // *originating* at an aggregating node (a leader's own data)
            // merges into that node's stream immediately: the kernel
            // combines local and received chunks into one output stream.
            let mut pairs: Vec<(u32, GroupKey)> = Vec::new();
            for (fi, f) in sub.flows.iter().enumerate() {
                let mut here = f.src;
                let mut key = if sub.aggregates_at(f.src) {
                    GroupKey::Merged(f.src)
                } else {
                    GroupKey::Flow(fi)
                };
                for e in &f.route {
                    if sub.aggregates_at(here) {
                        key = GroupKey::Merged(here);
                    }
                    pairs.push((e.0 as u32, key));
                    here = topo.edge(*e).to;
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            let mut i = 0;
            while i < pairs.len() {
                let e = pairs[i].0;
                let mut n = 0usize;
                while i < pairs.len() && pairs[i].0 == e {
                    n += 1;
                    i += 1;
                }
                out.push((EdgeId(e as usize), n as f64));
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum GroupKey {
    Flow(usize),
    Merged(LogicalNode),
}

/// Static per-edge pricing inputs, resolved once per [`CostModel`]:
/// profiled α/β terms, endpoint indices, and the port bandwidths of the
/// edge's own ends (`0.0` = no profiled adjacent network edge, i.e. the
/// port term does not apply — matching the absent-key semantics of the
/// former `HashMap` representation).
#[derive(Debug, Clone, Copy)]
struct EdgeCost {
    alpha: f64,
    beta: f64,
    port_beta: f64,
    profiled: bool,
    network: bool,
    from: u32,
    to: u32,
    egress_bw: f64,
    ingress_bw: f64,
}

/// Dense node index over a logical topology: node indices are
/// positions in `topo.nodes()`.
#[derive(Debug)]
struct NodeIndex {
    /// Rank -> node index (`u32::MAX` = not a node).
    gpu_idx: Vec<u32>,
    /// Instance -> NIC node index (`u32::MAX` = not a node).
    nic_idx: Vec<u32>,
}

impl NodeIndex {
    fn new(topo: &LogicalTopology) -> Self {
        let nodes = topo.nodes();
        let mut max_rank = 0usize;
        let mut max_inst = 0usize;
        for n in nodes {
            match n {
                LogicalNode::Gpu(Rank(r)) => max_rank = max_rank.max(*r),
                LogicalNode::Nic(InstanceId(i)) => max_inst = max_inst.max(*i),
            }
        }
        let mut gpu_idx = vec![u32::MAX; max_rank + 1];
        let mut nic_idx = vec![u32::MAX; max_inst + 1];
        for (i, n) in nodes.iter().enumerate() {
            match n {
                LogicalNode::Gpu(Rank(r)) => gpu_idx[*r] = i as u32,
                LogicalNode::Nic(InstanceId(inst)) => nic_idx[*inst] = i as u32,
            }
        }
        NodeIndex { gpu_idx, nic_idx }
    }

    fn node(&self, n: LogicalNode) -> usize {
        let i = match n {
            LogicalNode::Gpu(Rank(r)) => self.gpu_idx[r],
            LogicalNode::Nic(InstanceId(i)) => self.nic_idx[i],
        };
        debug_assert_ne!(i, u32::MAX, "node {n} not in topology");
        i as usize
    }
}

/// The static pricing table of one [`CostModel`]: the node index plus
/// one [`EdgeCost`] per logical edge. Built once per model and shared,
/// read-only, by every state the model opens.
#[derive(Debug)]
struct DenseTopo {
    node_count: usize,
    index: NodeIndex,
    edges: Vec<EdgeCost>,
}

impl DenseTopo {
    fn new(topo: &LogicalTopology, profile: &LinkProfile) -> Self {
        let nodes = topo.nodes();
        let mut dense = DenseTopo {
            node_count: nodes.len(),
            index: NodeIndex::new(topo),
            edges: Vec::with_capacity(topo.edges().len()),
        };
        // Per-NIC port bandwidth: the best profiled aggregate over its
        // adjacent network edges (an edge's own port term is the min of
        // its two ends, so the max over edges recovers each end's own
        // capacity).
        let mut egress_bw = vec![0.0_f64; nodes.len()];
        let mut ingress_bw = vec![0.0_f64; nodes.len()];
        for (i, edge) in topo.edges().iter().enumerate() {
            if edge.kind != EdgeKind::Network {
                continue;
            }
            if let Some(ab) = profile.get(EdgeId(i)) {
                let bw = ab.port_bandwidth().as_bytes_per_sec();
                let from = dense.node(edge.from);
                let to = dense.node(edge.to);
                egress_bw[from] = egress_bw[from].max(bw);
                ingress_bw[to] = ingress_bw[to].max(bw);
            }
        }
        for (i, edge) in topo.edges().iter().enumerate() {
            let from = dense.node(edge.from);
            let to = dense.node(edge.to);
            let ab = profile.get(EdgeId(i));
            dense.edges.push(EdgeCost {
                alpha: ab.map_or(0.0, |ab| ab.alpha_secs),
                beta: ab.map_or(0.0, |ab| ab.beta_secs_per_byte),
                port_beta: ab.map_or(0.0, |ab| ab.port_beta_secs_per_byte),
                profiled: ab.is_some(),
                network: edge.kind == EdgeKind::Network,
                from: from as u32,
                to: to as u32,
                egress_bw: egress_bw[from],
                ingress_bw: ingress_bw[to],
            });
        }
        dense
    }

    fn node(&self, n: LogicalNode) -> usize {
        self.index.node(n)
    }
}

/// One priced stream group: a sub-collective (or the reverse-broadcast
/// twin AllReduce pipelines against it) with its per-edge stream counts
/// and current predicted completion.
#[derive(Debug, Clone)]
struct Group {
    sub: SubCollective,
    prim: Primitive,
    /// Sorted distinct `(edge, stream count)` pairs.
    streams: Vec<(EdgeId, f64)>,
    /// Predicted completion in seconds.
    completion: f64,
}

/// Generation-stamped scratch buffers reused across evaluations: dense
/// arrays never cleared, only re-stamped, so each re-score is
/// allocation-free.
#[derive(Debug, Default)]
struct Scratch {
    gen: u64,
    /// Per-node chunk synchronization front (eq. 2 fixpoint).
    sync_gen: Vec<u64>,
    sync_val: Vec<f64>,
    /// Per-node aggregation membership of the group being scored.
    agg_gen: Vec<u64>,
    /// Per-node visit marks (distinct-node count for the fixpoint bound).
    visit_gen: Vec<u64>,
    /// Per-flow arrival instants along the route.
    arrivals: Vec<Vec<f64>>,
    /// Per-flow slowest hop.
    bottles: Vec<f64>,
    /// Per-edge load-delta accumulator for one mutation.
    edge_acc_gen: Vec<u64>,
    edge_acc: Vec<f64>,
    touched_edges: Vec<u32>,
    /// Per-edge "load changed" marks.
    edge_hot_gen: Vec<u64>,
    /// Per-node port-load delta accumulators and "changed" marks.
    eg_acc_gen: Vec<u64>,
    eg_acc: Vec<f64>,
    eg_hot_gen: Vec<u64>,
    in_acc_gen: Vec<u64>,
    in_acc: Vec<f64>,
    in_hot_gen: Vec<u64>,
    touched_eg: Vec<u32>,
    touched_in: Vec<u32>,
    /// Stream-pair buffer reused by group re-scoring.
    streams_buf: Vec<(EdgeId, f64)>,
}

impl Scratch {
    fn new(node_count: usize, edge_count: usize) -> Self {
        Scratch {
            sync_gen: vec![0; node_count],
            sync_val: vec![0.0; node_count],
            agg_gen: vec![0; node_count],
            visit_gen: vec![0; node_count],
            edge_acc_gen: vec![0; edge_count],
            edge_acc: vec![0.0; edge_count],
            edge_hot_gen: vec![0; edge_count],
            eg_acc_gen: vec![0; node_count],
            eg_acc: vec![0.0; node_count],
            eg_hot_gen: vec![0; node_count],
            in_acc_gen: vec![0; node_count],
            in_acc: vec![0.0; node_count],
            in_hot_gen: vec![0; node_count],
            ..Scratch::default()
        }
    }

    fn next_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }

    fn ensure_flows(&mut self, n: usize) {
        if self.arrivals.len() < n {
            self.arrivals.resize_with(n, Vec::new);
        }
        if self.bottles.len() < n {
            self.bottles.resize(n, 0.0);
        }
    }
}

/// One undoable delta applied to a [`CostState`].
#[derive(Debug)]
enum UndoOp {
    /// [`CostState::replace_sub`]: the displaced groups, the exact load
    /// deltas that were applied, and every re-scored completion.
    ReplaceSub {
        m: usize,
        old_primary: Box<Group>,
        old_twin: Option<Box<Group>>,
        edge_deltas: Vec<(u32, f64)>,
        rescored: Vec<(usize, f64)>,
    },
    /// [`CostState::set_fractions`]: the previous fractions, partition
    /// sizes and re-scored completions.
    SetFractions {
        old_fracs: Vec<f64>,
        old_sizes: Vec<u64>,
        rescored: Vec<(usize, f64)>,
    },
}

/// Persistent incremental evaluation state over one strategy.
///
/// Holds the strategy's sub-collectives (plus, for AllReduce, the
/// reverse-broadcast twins priced in duplex with them), every per-link
/// and per-port stream load, and each group's predicted completion —
/// all in dense index-keyed `Vec`s. Mutations apply as deltas
/// ([`replace_sub`](Self::replace_sub),
/// [`set_fractions`](Self::set_fractions)) that re-score only affected
/// groups; rejected mutations roll back exactly
/// ([`rollback`](Self::rollback)). All produced costs are bit-identical
/// to a fresh [`CostModel::evaluate`] of [`strategy`](Self::strategy) —
/// enforced by a debug assertion after every delta.
#[derive(Debug)]
pub struct CostState<'a> {
    /// The model, whose shared pricing table every re-score reads.
    model: CostModel<'a>,
    primitive: Primitive,
    total: ByteSize,
    n_primary: usize,
    groups: Vec<Group>,
    /// Streams per edge summed over all groups (eq. 3 denominator).
    shared_load: Vec<f64>,
    /// Streams leaving / entering each NIC over network edges.
    egress_load: Vec<f64>,
    ingress_load: Vec<f64>,
    /// Partition sizes per primary sub (bytes).
    sizes: Vec<u64>,
    scratch: Scratch,
    undo: Vec<UndoOp>,
    full_evals: u64,
    delta_evals: u64,
}

impl<'a> CostState<'a> {
    /// Builds the state with one full evaluation of `strategy`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CostModel::evaluate`].
    pub fn new(model: CostModel<'a>, strategy: &Strategy, total: ByteSize) -> Self {
        let edge_count = model.topo.edges().len();
        let node_count = model.dense.node_count;
        let mut state = CostState {
            model,
            primitive: strategy.primitive,
            total,
            n_primary: strategy.subs.len(),
            groups: Vec::new(),
            shared_load: vec![0.0; edge_count],
            egress_load: vec![0.0; node_count],
            ingress_load: vec![0.0; node_count],
            sizes: Vec::new(),
            scratch: Scratch::new(node_count, edge_count),
            undo: Vec::new(),
            full_evals: 0,
            delta_evals: 0,
        };
        state.rebuild(strategy);
        state
    }

    /// Full (non-incremental) rebuild from `strategy`.
    fn rebuild(&mut self, strategy: &Strategy) {
        self.full_evals += 1;
        self.groups.clear();
        // Co-scheduled peers' streams seed the eq. 3 denominators; the
        // foreground strategy's own streams accumulate on top, and all
        // deltas only ever add/remove foreground streams, so the
        // background survives every mutation bit-exactly.
        match self.model.background {
            Some(bg) => {
                self.shared_load.copy_from_slice(&bg.shared);
                self.egress_load.copy_from_slice(&bg.egress);
                self.ingress_load.copy_from_slice(&bg.ingress);
            }
            None => {
                self.shared_load.fill(0.0);
                self.egress_load.fill(0.0);
                self.ingress_load.fill(0.0);
            }
        }
        // AllReduce executes the reduce graph and its reverse broadcast
        // *chunk-pipelined in parallel*: an interior node's NIC carries
        // both directions at once, so both stages must be priced under
        // one combined port load (a chain through a slow server looks
        // fine one-way and melts in duplex).
        for sub in &strategy.subs {
            self.groups.push(Group {
                sub: sub.clone(),
                prim: strategy.primitive,
                streams: Vec::new(),
                completion: 0.0,
            });
        }
        if strategy.primitive == Primitive::AllReduce {
            for sub in &strategy.subs {
                self.groups.push(Group {
                    sub: reversed_sub(sub, self.model.topo),
                    prim: Primitive::Broadcast,
                    streams: Vec::new(),
                    completion: 0.0,
                });
            }
        }
        for gi in 0..self.groups.len() {
            let mut streams = std::mem::take(&mut self.scratch.streams_buf);
            compute_streams(
                self.model.topo,
                &self.groups[gi].sub,
                self.groups[gi].prim,
                &mut streams,
            );
            for &(e, n) in &streams {
                self.shared_load[e.0] += n;
                let ec = &self.model.dense.edges[e.0];
                if ec.network {
                    self.egress_load[ec.from as usize] += n;
                    self.ingress_load[ec.to as usize] += n;
                }
            }
            self.scratch.streams_buf = std::mem::replace(&mut self.groups[gi].streams, streams);
        }
        let fractions: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
        self.sizes = split_sizes(&fractions, self.total);
        for gi in 0..self.groups.len() {
            self.groups[gi].completion = self.score_group(gi);
        }
    }

    /// Predicted completion of the whole collective, in seconds (the
    /// annealer's objective value).
    pub fn completion_secs(&self) -> f64 {
        self.groups.iter().map(|g| g.completion).fold(0.0, f64::max)
    }

    /// The estimate in [`CostModel::evaluate`]'s shape. `per_sub`
    /// includes the reverse-broadcast twins for AllReduce, exactly as
    /// the full evaluation reports them.
    pub fn estimate(&self) -> CostEstimate {
        let per_sub: Vec<SimDuration> = self
            .groups
            .iter()
            .map(|g| SimDuration::from_secs(g.completion))
            .collect();
        let completion = per_sub
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        CostEstimate {
            completion,
            per_sub,
        }
    }

    /// The current strategy the state prices.
    pub fn strategy(&self) -> Strategy {
        Strategy {
            primitive: self.primitive,
            subs: self.groups[..self.n_primary]
                .iter()
                .map(|g| g.sub.clone())
                .collect(),
        }
    }

    /// The current sub-collective `m` (primary half only).
    pub fn sub(&self, m: usize) -> &SubCollective {
        &self.groups[m].sub
    }

    /// `(full, delta)` evaluation counts accumulated so far, resetting
    /// both to zero.
    pub fn take_eval_counts(&mut self) -> (u64, u64) {
        let counts = (self.full_evals, self.delta_evals);
        self.full_evals = 0;
        self.delta_evals = 0;
        counts
    }

    /// Replaces primary sub-collective `m` (same fraction), applies the
    /// stream-load deltas, re-scores only the groups whose priced edges
    /// or ports changed, and returns the new overall completion in
    /// seconds. Undoable via [`rollback`](Self::rollback) until
    /// [`commit`](Self::commit).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range or `new_sub` carries a different
    /// fraction (fraction changes go through
    /// [`set_fractions`](Self::set_fractions)).
    pub fn replace_sub(&mut self, m: usize, new_sub: SubCollective) -> f64 {
        assert!(m < self.n_primary, "sub-collective {m} out of range");
        assert_eq!(
            new_sub.fraction.to_bits(),
            self.groups[m].sub.fraction.to_bits(),
            "replace_sub must preserve the fraction"
        );
        self.delta_evals += 1;
        let twin_idx = (self.primitive == Primitive::AllReduce).then(|| self.n_primary + m);

        let mut new_primary = Group {
            sub: new_sub,
            prim: self.primitive,
            streams: Vec::new(),
            completion: 0.0,
        };
        compute_streams(
            self.model.topo,
            &new_primary.sub,
            new_primary.prim,
            &mut new_primary.streams,
        );
        let mut new_twin = twin_idx.map(|_| {
            let mut g = Group {
                sub: reversed_sub(&new_primary.sub, self.model.topo),
                prim: Primitive::Broadcast,
                streams: Vec::new(),
                completion: 0.0,
            };
            compute_streams(self.model.topo, &g.sub, g.prim, &mut g.streams);
            g
        });

        // Net per-edge stream deltas across the replaced group(s).
        let g = self.scratch.next_gen();
        self.scratch.touched_edges.clear();
        {
            let acc = |e: EdgeId, d: f64, scratch: &mut Scratch| {
                let i = e.0;
                if scratch.edge_acc_gen[i] != g {
                    scratch.edge_acc_gen[i] = g;
                    scratch.edge_acc[i] = d;
                    scratch.touched_edges.push(i as u32);
                } else {
                    scratch.edge_acc[i] += d;
                }
            };
            for &(e, n) in &self.groups[m].streams {
                acc(e, -n, &mut self.scratch);
            }
            for &(e, n) in &new_primary.streams {
                acc(e, n, &mut self.scratch);
            }
            if let (Some(ti), Some(tw)) = (twin_idx, new_twin.as_ref()) {
                for &(e, n) in &self.groups[ti].streams {
                    acc(e, -n, &mut self.scratch);
                }
                for &(e, n) in &tw.streams {
                    acc(e, n, &mut self.scratch);
                }
            }
        }

        // Apply nonzero deltas; mark changed edges and accumulate net
        // port-load deltas (stream counts are integers, so adding and
        // later subtracting a delta restores every load bit-exactly).
        let mut edge_deltas = Vec::with_capacity(self.scratch.touched_edges.len());
        self.scratch.touched_eg.clear();
        self.scratch.touched_in.clear();
        for k in 0..self.scratch.touched_edges.len() {
            let ei = self.scratch.touched_edges[k] as usize;
            let d = self.scratch.edge_acc[ei];
            if d == 0.0 {
                continue;
            }
            self.shared_load[ei] += d;
            self.scratch.edge_hot_gen[ei] = g;
            edge_deltas.push((ei as u32, d));
            let ec = &self.model.dense.edges[ei];
            if ec.network {
                let (from, to) = (ec.from as usize, ec.to as usize);
                if self.scratch.eg_acc_gen[from] != g {
                    self.scratch.eg_acc_gen[from] = g;
                    self.scratch.eg_acc[from] = d;
                    self.scratch.touched_eg.push(ec.from);
                } else {
                    self.scratch.eg_acc[from] += d;
                }
                if self.scratch.in_acc_gen[to] != g {
                    self.scratch.in_acc_gen[to] = g;
                    self.scratch.in_acc[to] = d;
                    self.scratch.touched_in.push(ec.to);
                } else {
                    self.scratch.in_acc[to] += d;
                }
            }
        }
        for k in 0..self.scratch.touched_eg.len() {
            let ni = self.scratch.touched_eg[k] as usize;
            let d = self.scratch.eg_acc[ni];
            if d != 0.0 {
                self.egress_load[ni] += d;
                self.scratch.eg_hot_gen[ni] = g;
            }
        }
        for k in 0..self.scratch.touched_in.len() {
            let ni = self.scratch.touched_in[k] as usize;
            let d = self.scratch.in_acc[ni];
            if d != 0.0 {
                self.ingress_load[ni] += d;
                self.scratch.in_hot_gen[ni] = g;
            }
        }

        // Swap in the new groups.
        let old_primary = Box::new(std::mem::replace(&mut self.groups[m], new_primary));
        let old_twin = twin_idx.map(|ti| {
            Box::new(std::mem::replace(
                &mut self.groups[ti],
                new_twin.take().expect("twin built for AllReduce"),
            ))
        });

        // Re-score: the replaced group(s), plus any group that prices a
        // changed edge or a network edge whose endpoint port load
        // changed. Everything else keeps its completion — its inputs
        // are untouched, so a full evaluation would reproduce it
        // bit-for-bit. The replaced group and its twin are absent from
        // `rescored`: their pre-mutation completions travel inside
        // `old_primary`/`old_twin` and come back with the group swap on
        // rollback.
        let mut rescored = Vec::new();
        for gi in 0..self.groups.len() {
            let affected = gi == m
                || Some(gi) == twin_idx
                || self.groups[gi].streams.iter().any(|&(e, _)| {
                    if self.scratch.edge_hot_gen[e.0] == g {
                        return true;
                    }
                    let ec = &self.model.dense.edges[e.0];
                    ec.network
                        && (self.scratch.eg_hot_gen[ec.from as usize] == g
                            || self.scratch.in_hot_gen[ec.to as usize] == g)
                });
            if affected {
                let old = self.groups[gi].completion;
                self.groups[gi].completion = self.score_group(gi);
                if gi != m && Some(gi) != twin_idx {
                    rescored.push((gi, old));
                }
            }
        }

        self.undo.push(UndoOp::ReplaceSub {
            m,
            old_primary,
            old_twin,
            edge_deltas,
            rescored,
        });
        #[cfg(debug_assertions)]
        self.assert_matches_full();
        self.completion_secs()
    }

    /// Updates every primary fraction, recomputes the partition sizes,
    /// re-scores only the groups whose size changed, and returns the
    /// new overall completion in seconds. Undoable via
    /// [`rollback`](Self::rollback) until [`commit`](Self::commit).
    ///
    /// # Panics
    ///
    /// Panics if `fractions` does not have one entry per primary sub.
    pub fn set_fractions(&mut self, fractions: &[f64]) -> f64 {
        assert_eq!(fractions.len(), self.n_primary, "one fraction per sub");
        self.delta_evals += 1;
        let old_fracs: Vec<f64> = self.groups[..self.n_primary]
            .iter()
            .map(|g| g.sub.fraction)
            .collect();
        let old_sizes = std::mem::replace(&mut self.sizes, split_sizes(fractions, self.total));
        for (i, f) in fractions.iter().enumerate() {
            self.groups[i].sub.fraction = *f;
            if self.primitive == Primitive::AllReduce {
                self.groups[self.n_primary + i].sub.fraction = *f;
            }
        }
        // Fractions never touch stream loads; a group re-scores only if
        // its partition size actually moved.
        let mut rescored = Vec::new();
        for gi in 0..self.groups.len() {
            if self.sizes[gi % self.n_primary] != old_sizes[gi % self.n_primary] {
                let old = self.groups[gi].completion;
                self.groups[gi].completion = self.score_group(gi);
                rescored.push((gi, old));
            }
        }
        self.undo.push(UndoOp::SetFractions {
            old_fracs,
            old_sizes,
            rescored,
        });
        #[cfg(debug_assertions)]
        self.assert_matches_full();
        self.completion_secs()
    }

    /// Accepts every delta applied since the last commit; the undo log
    /// is discarded.
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// Reverts every delta applied since the last
    /// [`commit`](Self::commit), restoring loads, groups and
    /// completions bit-exactly.
    pub fn rollback(&mut self) {
        while let Some(op) = self.undo.pop() {
            match op {
                UndoOp::ReplaceSub {
                    m,
                    old_primary,
                    old_twin,
                    edge_deltas,
                    rescored,
                } => {
                    for &(ei, d) in &edge_deltas {
                        let ei = ei as usize;
                        self.shared_load[ei] -= d;
                        let ec = &self.model.dense.edges[ei];
                        if ec.network {
                            self.egress_load[ec.from as usize] -= d;
                            self.ingress_load[ec.to as usize] -= d;
                        }
                    }
                    self.groups[m] = *old_primary;
                    if let Some(tw) = old_twin {
                        self.groups[self.n_primary + m] = *tw;
                    }
                    for (gi, c) in rescored {
                        self.groups[gi].completion = c;
                    }
                }
                UndoOp::SetFractions {
                    old_fracs,
                    old_sizes,
                    rescored,
                } => {
                    for (i, f) in old_fracs.iter().enumerate() {
                        self.groups[i].sub.fraction = *f;
                        if self.primitive == Primitive::AllReduce {
                            self.groups[self.n_primary + i].sub.fraction = *f;
                        }
                    }
                    self.sizes = old_sizes;
                    for (gi, c) in rescored {
                        self.groups[gi].completion = c;
                    }
                }
            }
        }
    }

    /// Scores group `gi` against the current loads (eq. 2 fixpoint +
    /// eq. 5 pipelining), allocation-free via the scratch buffers.
    fn score_group(&mut self, gi: usize) -> f64 {
        let s_m = self.sizes[gi % self.n_primary];
        // Split borrows: the group is read-only, the scratch mutable.
        let (groups, scratch) = (&self.groups, &mut self.scratch);
        let group = &groups[gi];
        let sub = &group.sub;
        if sub.flows.is_empty() || s_m == 0 {
            return 0.0;
        }
        let s_m_bytes = ByteSize::from_bytes(s_m);
        let chunk = ByteSize::from_bytes(sub.chunk.as_u64().min(s_m.max(1)));
        let chunks = s_m_bytes.chunks(chunk) as f64;
        let chunk_f = chunk.as_f64();

        let g = scratch.next_gen();
        for (n, v) in &sub.aggregate {
            if *v {
                scratch.agg_gen[self.model.dense.node(*n)] = g;
            }
        }
        // Fixpoint iteration bound: distinct nodes + 2, as in the full
        // evaluation (trees converge in depth iterations).
        let mut distinct = 0usize;
        for f in &sub.flows {
            let si = self.model.dense.node(f.src);
            if scratch.visit_gen[si] != g {
                scratch.visit_gen[si] = g;
                distinct += 1;
            }
            for e in &f.route {
                let ti = self.model.dense.edges[e.0].to as usize;
                if scratch.visit_gen[ti] != g {
                    scratch.visit_gen[ti] = g;
                    distinct += 1;
                }
            }
        }
        let max_iters = distinct + 2;
        scratch.ensure_flows(sub.flows.len());

        // Fixpoint of eq. 2: per-flow arrival times, synchronized at
        // aggregating nodes. H grows monotonically; `sync` entries are
        // generation-stamped so an unstamped node reproduces the old
        // HashMap's absent-key behavior exactly.
        let mut converged = false;
        for _ in 0..max_iters {
            let mut changed = false;
            for (fi, flow) in sub.flows.iter().enumerate() {
                let mut t = 0.0_f64;
                let arr = &mut scratch.arrivals[fi];
                arr.clear();
                arr.push(0.0);
                let mut bottle = 0.0_f64;
                let mut here = self.model.dense.node(flow.src);
                for e in &flow.route {
                    let ec = &self.model.dense.edges[e.0];
                    // Departure from `here`: synchronized if it aggregates —
                    // including an aggregating *source* (a leader waits for
                    // its members before its merged stream departs).
                    let dep = if scratch.agg_gen[here] == g {
                        let s = if scratch.sync_gen[here] == g {
                            scratch.sync_val[here]
                        } else {
                            t
                        };
                        s.max(t)
                    } else {
                        t
                    };
                    let hop = edge_time(
                        ec,
                        *e,
                        chunk_f,
                        &self.shared_load,
                        &self.egress_load,
                        &self.ingress_load,
                    );
                    bottle = bottle.max(hop);
                    let arr_t = dep + hop;
                    let to = ec.to as usize;
                    if scratch.agg_gen[to] == g {
                        if scratch.sync_gen[to] != g {
                            scratch.sync_gen[to] = g;
                            scratch.sync_val[to] = 0.0;
                        }
                        if arr_t > scratch.sync_val[to] {
                            scratch.sync_val[to] = arr_t;
                            changed = true;
                        }
                    }
                    t = arr_t;
                    arr.push(t);
                    here = to;
                }
                scratch.bottles[fi] = bottle;
            }
            if !changed {
                converged = true;
                break;
            }
        }
        assert!(converged, "chunk-time recursion did not converge");

        // Eq. 5 per flow. We deviate from eq. 6's literal `h_j - h_i`
        // bottleneck (which charges first-chunk synchronization waits on
        // *every* chunk): in the warmed-up pipeline the executor
        // actually implements, only the slowest single-edge transfer
        // gates each additional chunk. The first chunk's full latency —
        // synchronization included — is still `h_dst`.
        let mut worst = 0.0_f64;
        for fi in 0..sub.flows.len() {
            let h_dst = *scratch.arrivals[fi]
                .last()
                .expect("non-empty route arrivals");
            let t_f = h_dst + chunks * scratch.bottles[fi];
            worst = worst.max(t_f);
        }
        worst
    }

    /// Bit-equality oracle: rebuilds a fresh state from the current
    /// strategy and compares every load and completion exactly.
    #[cfg(debug_assertions)]
    fn assert_matches_full(&self) {
        let fresh = CostState::new(self.model.clone(), &self.strategy(), self.total);
        assert_eq!(self.groups.len(), fresh.groups.len(), "group count");
        for (ei, (a, b)) in self.shared_load.iter().zip(&fresh.shared_load).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "edge {ei} load delta≠full");
        }
        for (gi, (a, b)) in self.groups.iter().zip(&fresh.groups).enumerate() {
            assert_eq!(a.streams, b.streams, "group {gi} streams delta≠full");
            assert_eq!(
                a.completion.to_bits(),
                b.completion.to_bits(),
                "group {gi} completion delta≠full: {} vs {}",
                a.completion,
                b.completion
            );
        }
    }
}

/// Chunk transfer time on one edge (eq. 2's `t_{i,j}`), with the shared
/// bandwidth of eq. 3 and physical-port contention. A `0.0` port load
/// reads as "no streams" (the dense twin of the former absent
/// `HashMap` key) and a `0.0` port bandwidth as "port unprofiled".
fn edge_time(
    ec: &EdgeCost,
    e: EdgeId,
    chunk_f: f64,
    shared_load: &[f64],
    egress_load: &[f64],
    ingress_load: &[f64],
) -> f64 {
    assert!(ec.profiled, "edge {e:?} used but not profiled");
    let load = shared_load[e.0].max(1.0);
    // A stream's rate: min of its single-stream ceiling and its fair
    // share of each physical port it crosses (tail egress, head
    // ingress) — per-byte time is the max of the inverses.
    let mut per_byte = ec.beta.max(ec.port_beta * load);
    if ec.network {
        let el = egress_load[ec.from as usize];
        let el = if el > 0.0 { el } else { load };
        let il = ingress_load[ec.to as usize];
        let il = if il > 0.0 { il } else { load };
        if ec.egress_bw > 0.0 {
            per_byte = per_byte.max(el / ec.egress_bw);
        }
        if ec.ingress_bw > 0.0 {
            per_byte = per_byte.max(il / ec.ingress_bw);
        }
    }
    ec.alpha + per_byte * chunk_f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Flow;
    use adapcc_profile::profiler::Profiler;
    use adapcc_simnet::cluster::{Cluster, InstanceId, Rank};
    use adapcc_topo::detect::Detector;
    use std::collections::BTreeMap;

    fn setup(n: usize) -> (Cluster, LogicalTopology, LinkProfile) {
        let c = Cluster::homogeneous_a100(n);
        let topo = Detector::new(&c, 1).run().logical_topology(&c);
        let profile = Profiler::new(&c, &topo, 1).without_noise().run().links;
        (c, topo, profile)
    }

    fn g(r: usize) -> LogicalNode {
        LogicalNode::Gpu(Rank(r))
    }

    fn star_reduce(topo: &LogicalTopology, sources: &[usize], root: usize) -> Strategy {
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        let flows = sources
            .iter()
            .map(|&s| Flow {
                src: g(s),
                dst: g(root),
                route: vec![e(g(s), g(root))],
            })
            .collect();
        let mut aggregate = BTreeMap::new();
        aggregate.insert(g(root), true);
        Strategy {
            primitive: Primitive::Reduce,
            subs: vec![SubCollective {
                fraction: 1.0,
                chunk: ByteSize::from_mib(1),
                root: Some(Rank(root)),
                flows,
                aggregate,
            }],
        }
    }

    #[test]
    fn intra_star_cost_close_to_nvlink_time() {
        let (_c, topo, profile) = setup(1);
        let s = star_reduce(&topo, &[1, 2, 3], 0);
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(256);
        let est = model.evaluate(&s, total);
        // Three parallel NVLink flows into gpu0, each on its own link:
        // ~256 MiB / 100 GB/s ≈ 2.7 ms; pipelining roughly doubles the
        // paper-formula estimate (h_dst + all chunks).
        let secs = est.completion.as_secs();
        assert!(secs > 0.002 && secs < 0.008, "estimate {secs}");
    }

    #[test]
    fn aggregation_reduces_downstream_load() {
        let (_c, topo, profile) = setup(2);
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        let nic = |i: usize| LogicalNode::Nic(InstanceId(i));
        // Three flows hop gpu->leader(gpu0)->nic0->nic1->gpu4.
        let mk = |aggregate_at_leader: bool| {
            let mut flows = Vec::new();
            for s in [1usize, 2, 3] {
                flows.push(Flow {
                    src: g(s),
                    dst: g(4),
                    route: vec![
                        e(g(s), g(0)),
                        e(g(0), nic(0)),
                        e(nic(0), nic(1)),
                        e(nic(1), g(4)),
                    ],
                });
            }
            let mut aggregate = BTreeMap::new();
            aggregate.insert(g(4), true);
            if aggregate_at_leader {
                aggregate.insert(g(0), true);
            }
            Strategy {
                primitive: Primitive::Reduce,
                subs: vec![SubCollective {
                    fraction: 1.0,
                    chunk: ByteSize::from_mib(1),
                    root: Some(Rank(4)),
                    flows,
                    aggregate,
                }],
            }
        };
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(128);
        let merged = model.evaluate(&mk(true), total).completion;
        let forwarded = model.evaluate(&mk(false), total).completion;
        // Aggregating at the leader sends 1 stream over the NIC instead
        // of 3: ~3x less network volume.
        assert!(
            forwarded.as_secs() / merged.as_secs() > 2.0,
            "merged {merged} forwarded {forwarded}"
        );
    }

    #[test]
    fn stream_counting_matches_rules() {
        let (_c, topo, _p) = setup(1);
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        // Two flows share edge g2->g0; one aggregates at g2 first.
        let flows = vec![
            Flow {
                src: g(1),
                dst: g(0),
                route: vec![e(g(1), g(2)), e(g(2), g(0))],
            },
            Flow {
                src: g(3),
                dst: g(0),
                route: vec![e(g(3), g(2)), e(g(2), g(0))],
            },
        ];
        let mut aggregate = BTreeMap::new();
        aggregate.insert(g(2), true);
        aggregate.insert(g(0), true);
        let sub = SubCollective {
            fraction: 1.0,
            chunk: ByteSize::from_mib(1),
            root: Some(Rank(0)),
            flows,
            aggregate,
        };
        let streams = edge_streams(&topo, &sub, Primitive::Reduce);
        assert_eq!(streams[&e(g(2), g(0))], 1.0, "merged at g2");
        assert_eq!(streams[&e(g(1), g(2))], 1.0);
        // Without aggregation at g2, the shared edge carries 2 streams.
        let mut sub2 = sub.clone();
        sub2.aggregate.remove(&g(2));
        let streams2 = edge_streams(&topo, &sub2, Primitive::Reduce);
        assert_eq!(streams2[&e(g(2), g(0))], 2.0);
        // Broadcast always groups.
        let streams3 = edge_streams(&topo, &sub2, Primitive::Broadcast);
        assert_eq!(streams3[&e(g(2), g(0))], 1.0);
        // AlltoAll counts each flow.
        let streams4 = edge_streams(&topo, &sub2, Primitive::AllToAll);
        assert_eq!(streams4[&e(g(2), g(0))], 2.0);
    }

    #[test]
    fn smaller_chunks_pipeline_better_until_latency_binds() {
        let (_c, topo, profile) = setup(2);
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        let nic = |i: usize| LogicalNode::Nic(InstanceId(i));
        let mk = |chunk: ByteSize| {
            let flows = vec![Flow {
                src: g(0),
                dst: g(4),
                route: vec![e(g(0), nic(0)), e(nic(0), nic(1)), e(nic(1), g(4))],
            }];
            Strategy {
                primitive: Primitive::Reduce,
                subs: vec![SubCollective {
                    fraction: 1.0,
                    chunk,
                    root: Some(Rank(4)),
                    flows,
                    aggregate: BTreeMap::new(),
                }],
            }
        };
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(256);
        let huge = model
            .evaluate(&mk(ByteSize::from_mib(256)), total)
            .completion;
        let mid = model.evaluate(&mk(ByteSize::from_mib(4)), total).completion;
        let tiny = model.evaluate(&mk(ByteSize::from_kib(1)), total).completion;
        // One giant chunk forfeits pipelining across the 3-hop path.
        assert!(mid < huge, "mid {mid} huge {huge}");
        // Chunks so small that per-chunk latency dominates lose again.
        assert!(mid < tiny, "mid {mid} tiny {tiny}");
    }

    #[test]
    fn parallel_subs_share_link_bandwidth() {
        let (_c, topo, profile) = setup(1);
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(256);
        let one = star_reduce(&topo, &[1], 0);
        let mut two = one.clone();
        two.subs = vec![
            SubCollective {
                fraction: 0.5,
                ..one.subs[0].clone()
            },
            SubCollective {
                fraction: 0.5,
                ..one.subs[0].clone()
            },
        ];
        let t1 = model.evaluate(&one, total).completion;
        let t2 = model.evaluate(&two, total).completion;
        // Same edge, two streams at half size each: roughly the same
        // time (no free lunch on a single link).
        let ratio = t2.as_secs() / t1.as_secs();
        assert!((ratio - 1.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "not profiled")]
    fn unprofiled_edge_panics() {
        let (_c, topo, _) = setup(1);
        let empty = LinkProfile::new();
        let s = star_reduce(&topo, &[1], 0);
        let model = CostModel::new(&topo, &empty);
        let _ = model.evaluate(&s, ByteSize::from_mib(1));
    }

    #[test]
    fn state_replace_sub_matches_full_eval_and_rolls_back() {
        let (_c, topo, profile) = setup(2);
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(128);
        let s = star_reduce(&topo, &[1, 2, 3], 0);
        let mut two = s.clone();
        two.subs = vec![
            SubCollective {
                fraction: 0.5,
                ..s.subs[0].clone()
            },
            SubCollective {
                fraction: 0.5,
                ..s.subs[0].clone()
            },
        ];
        let base = model.evaluate(&two, total);
        let mut state = model.state(&two, total);
        assert_eq!(
            state.completion_secs().to_bits(),
            base.completion.as_secs().to_bits()
        );
        // Replace sub 1 with a different chunk; the delta cost must
        // bit-equal a fresh full evaluation of the mutated strategy.
        let mut mutated_sub = two.subs[1].clone();
        mutated_sub.chunk = ByteSize::from_kib(256);
        let cost = state.replace_sub(1, mutated_sub.clone());
        let mut mutated = two.clone();
        mutated.subs[1] = mutated_sub;
        let full = model.evaluate(&mutated, total);
        assert_eq!(cost.to_bits(), full.completion.as_secs().to_bits());
        assert_eq!(state.strategy(), mutated);
        // Rolling back restores the original cost bit-exactly.
        state.rollback();
        assert_eq!(
            state.completion_secs().to_bits(),
            base.completion.as_secs().to_bits()
        );
        assert_eq!(state.strategy(), two);
        // Fraction deltas re-score through the partition change.
        let cost = state.set_fractions(&[0.25, 0.75]);
        let mut refrac = two.clone();
        refrac.subs[0].fraction = 0.25;
        refrac.subs[1].fraction = 0.75;
        let full = model.evaluate(&refrac, total);
        assert_eq!(cost.to_bits(), full.completion.as_secs().to_bits());
        state.commit();
        state.rollback(); // no-op after commit
        assert_eq!(state.strategy(), refrac);
    }

    #[test]
    fn state_counts_full_and_delta_evals() {
        let (_c, topo, profile) = setup(1);
        let model = CostModel::new(&topo, &profile);
        let total = ByteSize::from_mib(64);
        let s = star_reduce(&topo, &[1, 2], 0);
        let mut state = model.state(&s, total);
        let sub = state.sub(0).clone();
        state.replace_sub(0, sub);
        state.rollback();
        let (full, delta) = state.take_eval_counts();
        assert_eq!(full, 1);
        assert_eq!(delta, 1);
        let (full, delta) = state.take_eval_counts();
        assert_eq!((full, delta), (0, 0));
    }
}
