//! The chunk-pipelined executor (paper Sec. V).
//!
//! Executes synthesized [`Strategy`] graphs over the simulated fabric:
//! every sub-collective's flows are lowered to *segments* (maximal
//! aggregation-free route stretches), chunks move hop-by-hop with
//! store-and-forward pipelining, aggregation kernels synchronize
//! same-offset chunks and charge launch + reduction time, AllReduce
//! pipelines its Reduce and reverse-Broadcast stages chunk-by-chunk at
//! the root, and TCP paths pay the host-staging overhead per chunk.
//!
//! Timing rides the [`NetSim`] fluid engine, so concurrent
//! sub-collectives and unrelated traffic contend exactly as eq. 3
//! models. The data plane is real: when inputs are supplied, actual
//! `f32` buffers are accumulated at kernel points, which is what makes
//! the accuracy experiment (Fig. 19(b)) honest.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use adapcc_simnet::cluster::{Cluster, Path, Rank};
use adapcc_simnet::engine::{NetSim, SimEvent};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::hardware::kernel_launch_overhead;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::strategy::Strategy;
use adapcc_topo::logical::{EdgeId, EdgeKind, LogicalNode, LogicalTopology};

use crate::error::{AdapCCError, FaultKind, FaultReport};

/// Default per-hop deadline multiplier over the hop's solo α–β cost.
///
/// Pipelined chunks legitimately share links with sibling
/// sub-collectives and sibling requests, so a healthy hop can run well
/// past its uncontended time; 16x stays clear of that while still
/// catching stalls quickly. (The paper's relay layer uses `T_fault` =
/// 5x at iteration granularity; per-hop granularity needs more slack
/// because contention concentrates on single links.)
pub const DEFAULT_DEADLINE_MULTIPLIER: f64 = 16.0;

/// Floor on any hop deadline, so microsecond-scale chunks do not trip
/// their deadline on transient queueing.
fn deadline_floor() -> SimDuration {
    SimDuration::from_millis(5.0)
}

/// One collective to execute.
#[derive(Debug)]
pub struct ExecutionRequest<'a> {
    /// The strategy (any primitive; AllReduce is stage-pipelined
    /// internally, AllGather/ReduceScatter are composed by the
    /// communicator before reaching the executor).
    pub strategy: &'a Strategy,
    /// Per-rank tensor size. Must be a multiple of 4 bytes (f32).
    pub tensor: ByteSize,
    /// When each worker's tensor becomes ready (missing ranks: 0).
    pub ready: BTreeMap<Rank, SimTime>,
    /// Real input data per rank (length = tensor elements); omit for
    /// timing-only runs (large benchmarks).
    pub inputs: Option<BTreeMap<Rank, Vec<f32>>>,
}

impl<'a> ExecutionRequest<'a> {
    /// A timing-only request with all workers ready at time zero.
    pub fn timing(strategy: &'a Strategy, tensor: ByteSize) -> Self {
        ExecutionRequest {
            strategy,
            tensor,
            ready: BTreeMap::new(),
            inputs: None,
        }
    }

    /// Attaches worker ready times.
    pub fn with_ready(mut self, ready: BTreeMap<Rank, SimTime>) -> Self {
        self.ready = ready;
        self
    }

    /// Attaches real input data.
    pub fn with_inputs(mut self, inputs: BTreeMap<Rank, Vec<f32>>) -> Self {
        self.inputs = Some(inputs);
        self
    }
}

/// One recorded transfer span (tracing).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Request index within the batch.
    pub request: usize,
    /// Sub-collective index within the lowered batch.
    pub sub: usize,
    /// Chunk index.
    pub chunk: usize,
    /// Human-readable hop description, e.g. `gpu1->nic0`.
    pub hop: String,
    /// Transfer start instant.
    pub start: SimTime,
    /// Transfer completion instant.
    pub end: SimTime,
}

/// Result of one request within a batch.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// Instant the request's last sink chunk finalized.
    pub finish: SimTime,
    /// Output tensors per sink rank (present when inputs were given).
    pub outputs: BTreeMap<Rank, Vec<f32>>,
}

/// Result of an executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Instant the whole batch finished.
    pub finish: SimTime,
    /// Per-request results, in request order.
    pub requests: Vec<RequestReport>,
    /// Total bytes put on physical links (pipelined chunks included).
    pub bytes_on_wire: u64,
    /// Recorded transfer spans (empty unless tracing was enabled).
    pub trace: Vec<TraceSpan>,
}

impl BatchReport {
    /// Renders the trace as a time-ordered textual timeline (one line
    /// per transfer), the debugging view a `NCCL_DEBUG`-style knob
    /// would print.
    pub fn timeline(&self) -> String {
        let mut spans = self.trace.clone();
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        let mut out = String::new();
        for s in &spans {
            out.push_str(&format!(
                "[{:>10.3}ms..{:>10.3}ms] req{} sub{} chunk{:>4} {}\n",
                s.start.as_millis(),
                s.end.as_millis(),
                s.request,
                s.sub,
                s.chunk,
                s.hop
            ));
        }
        out
    }
}

/// The executor.
///
/// # Examples
///
/// ```
/// use adapcc_simnet::cluster::{Cluster, Rank};
/// use adapcc_simnet::units::ByteSize;
/// use adapcc_topo::detect::Detector;
/// use adapcc_profile::profiler::Profiler;
/// use adapcc_synth::{Primitive, SynthRequest, Synthesizer};
/// use adapcc::executor::{ExecutionRequest, Executor};
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
/// let profile = Profiler::new(&cluster, &topo, 1).run().links;
/// let req = SynthRequest::new(Primitive::AllReduce, ByteSize::from_mib(16), 2,
///                             (0..8).map(Rank).collect());
/// let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
/// let exec = Executor::new(&cluster, &topo);
/// let report = exec.execute(&[ExecutionRequest::timing(&strategy, ByteSize::from_mib(16))]);
/// assert!(report.finish.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    cluster: &'a Cluster,
    topo: &'a LogicalTopology,
    factors: Vec<(adapcc_simnet::cluster::LinkId, f64)>,
    tracing: bool,
    telemetry: adapcc_telemetry::Telemetry,
    /// Fault schedule armed on every run's fabric, with the session
    /// clock offset at which the run starts. Attaching a schedule also
    /// enables per-hop deadline timers and the completion audit.
    faults: Option<(FaultSchedule, SimTime)>,
    deadline_multiplier: f64,
}

// ---------- lowered IR ----------

/// A node *visit*: routes may legitimately revisit a node (a broadcast
/// enters a NIC, descends to the instance leader, and leaves through
/// the same NIC), and each visit needs independent chunk state. `gen`
/// is the number of earlier occurrences of `node` on the same route;
/// flows sharing a route prefix share generations, so segment
/// deduplication still collapses common prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct VNode {
    node: LogicalNode,
    gen: u8,
}

impl VNode {
    fn first(node: LogicalNode) -> Self {
        VNode { node, gen: 0 }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    start: VNode,
    end: VNode,
    edges: Vec<EdgeId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubKind {
    Reduce,
    Broadcast,
    PointToPoint,
}

/// Point-to-point data mapping of one segment: source tensor offset,
/// sink tensor offset, slice length in elements.
#[derive(Debug, Clone, Copy)]
struct P2pRange {
    src_off: usize,
    dst_off: usize,
    len: usize,
}

#[derive(Debug)]
struct LoweredSub {
    request: usize,
    kind: SubKind,
    /// Element range of the tensor this sub carries (tree kinds).
    elem_off: usize,
    elem_len: usize,
    chunk_elems: usize,
    segments: Vec<Segment>,
    out_segs: BTreeMap<VNode, Vec<usize>>,
    /// node-visit -> inputs required to finalize a chunk (incoming
    /// segments plus one if the node contributes its own data).
    required: BTreeMap<VNode, usize>,
    contributes: BTreeSet<VNode>,
    kernels: BTreeSet<VNode>,
    sinks: BTreeSet<VNode>,
    /// AllReduce stage chaining: when this sub's root finalizes chunk
    /// k, chunk k becomes ready at the same node of sub `stage_link`.
    stage_link: Option<usize>,
    root: Option<VNode>,
    p2p_ranges: Vec<P2pRange>,
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Hop {
        sub: usize,
        seg: usize,
        hop: usize,
        chunk: usize,
    },
    Kernel {
        sub: usize,
        slot: usize,
        chunk: usize,
    },
    OwnReady {
        sub: usize,
        slot: usize,
    },
    /// Deadline timer for the in-flight transfer of hop task
    /// `hop_task`; ignored if that transfer already completed.
    HopDeadline {
        hop_task: usize,
    },
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Finalize {
        sub: usize,
        slot: usize,
        chunk: usize,
    },
    StartSegs {
        sub: usize,
        slot: usize,
        chunk: usize,
    },
    Deliver {
        sub: usize,
        seg: usize,
        chunk: usize,
    },
}

#[derive(Debug, Default)]
struct HopState {
    busy: bool,
    queue: VecDeque<usize>,
}

#[derive(Debug)]
struct NodeState {
    node: VNode,
    arrived: Vec<usize>,
    finalized: Vec<bool>,
    kernel_busy: bool,
    kernel_queue: VecDeque<usize>,
    acc: Option<Vec<f32>>,
    /// Regions of `acc` actually written (p2p sinks).
    written: Vec<(usize, usize)>,
}

/// All mutable state of one run, grouped so helper methods can borrow
/// it coherently.
struct RunState<'c> {
    sim: NetSim<'c>,
    tasks: Vec<Task>,
    hops: Vec<Vec<Vec<HopState>>>,
    nodes: Vec<Vec<NodeState>>,
    slot_of: Vec<BTreeMap<VNode, usize>>,
    worklist: VecDeque<Action>,
    bytes_on_wire: u64,
    finish: SimTime,
    req_finish: Vec<SimTime>,
    /// In-flight transfer start times by task id (tracing only).
    hop_started: HashMap<usize, SimTime>,
    trace: Vec<TraceSpan>,
    /// Hop-task ids with a transfer still on the wire (fault detection
    /// only): a deadline firing while its hop is here means a stall.
    open: HashSet<usize>,
    /// Chunk enqueue instants by (sub, seg, hop, chunk), recorded when
    /// a chunk queues behind a busy hop (telemetry only).
    telem_enqueued: HashMap<(usize, usize, usize, usize), SimTime>,
    /// In-flight transfer (enqueue, start, bytes) by task id
    /// (telemetry only).
    telem_open: HashMap<usize, (SimTime, SimTime, u64)>,
}

impl<'a> Executor<'a> {
    /// An executor over a cluster and its logical topology.
    pub fn new(cluster: &'a Cluster, topo: &'a LogicalTopology) -> Self {
        Executor {
            cluster,
            topo,
            factors: Vec::new(),
            tracing: false,
            telemetry: adapcc_telemetry::Telemetry::disabled(),
            faults: None,
            deadline_multiplier: DEFAULT_DEADLINE_MULTIPLIER,
        }
    }

    /// Records a [`TraceSpan`] for every chunk transfer (costs memory
    /// proportional to the number of transfers; off by default).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attaches a telemetry sink: every run emits an `execute` span,
    /// a per-link [`adapcc_telemetry::FlowRecord`] for every chunk
    /// transfer (bytes, enqueue/start/finish, request/sub/chunk), and
    /// `exec.*` counters. The handle's offset places the run on the
    /// session timeline.
    pub fn with_telemetry(mut self, telemetry: adapcc_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Arms `schedule` on every run's fabric, shifted so that sim time
    /// zero corresponds to `offset` on the session clock (see
    /// [`FaultSchedule::arm`]). Attaching a schedule also turns on
    /// per-hop deadline timers and the end-of-run completion audit, so
    /// a faulted run returns a classified [`FaultReport`] from
    /// [`Executor::try_execute`] instead of hanging or finishing
    /// silently incomplete.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule, offset: SimTime) -> Self {
        self.faults = Some((schedule, offset));
        self
    }

    /// Overrides the per-hop deadline multiplier (default
    /// [`DEFAULT_DEADLINE_MULTIPLIER`]). A hop whose transfer exceeds
    /// `multiplier x` its uncontended α–β cost is declared stalled.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not greater than 1.
    pub fn with_deadline_multiplier(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 1.0,
            "deadline multiplier must exceed 1: {multiplier}"
        );
        self.deadline_multiplier = multiplier;
        self
    }

    /// Applies live capacity factors (trace-driven bandwidth
    /// variability) to the fabric every request runs over.
    pub fn with_capacity_factors(
        mut self,
        factors: &[(adapcc_simnet::cluster::LinkId, f64)],
    ) -> Self {
        self.factors = factors.to_vec();
        self
    }

    /// Executes all requests concurrently on one fabric.
    ///
    /// # Panics
    ///
    /// Panics if a strategy fails validation, a tensor is not
    /// f32-aligned, a supplied input buffer has the wrong length, an
    /// AlltoAll with data has a tensor not divisible by the participant
    /// count (shards must align), or an attached fault schedule faults
    /// the run (use [`Executor::try_execute`] to handle faults).
    pub fn execute(&self, requests: &[ExecutionRequest<'_>]) -> BatchReport {
        match self.try_execute(requests) {
            Ok(report) => report,
            Err(AdapCCError::InvalidRequest(msg)) => panic!("{msg}"),
            Err(e) => panic!("execution fault without recovery: {e}"),
        }
    }

    /// Executes all requests concurrently on one fabric, returning a
    /// typed error instead of panicking: malformed requests yield
    /// [`AdapCCError::InvalidRequest`], and — when a fault schedule is
    /// attached — a stalled or aborted run yields a classified
    /// [`AdapCCError::Fault`] rather than hanging.
    pub fn try_execute(
        &self,
        requests: &[ExecutionRequest<'_>],
    ) -> Result<BatchReport, AdapCCError> {
        for r in requests {
            if let Err(e) = r.strategy.validate(self.topo) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "strategy must validate before execution: {e:?}"
                )));
            }
            if r.tensor.as_u64() % 4 != 0 {
                return Err(AdapCCError::InvalidRequest(
                    "tensor must be f32-aligned".into(),
                ));
            }
            let elems = (r.tensor.as_u64() / 4) as usize;
            if let Some(inputs) = &r.inputs {
                for (rank, buf) in inputs {
                    if buf.len() != elems {
                        return Err(AdapCCError::InvalidRequest(format!(
                            "input of {rank} has wrong length: {} vs {elems}",
                            buf.len()
                        )));
                    }
                }
                if r.strategy.primitive == Primitive::AllToAll {
                    let n = r.strategy.participants().len();
                    if !elems.is_multiple_of(n.max(1)) {
                        return Err(AdapCCError::InvalidRequest(
                            "alltoall with data needs shard-aligned tensors".into(),
                        ));
                    }
                }
            }
        }
        let mut subs = Vec::new();
        for (ri, r) in requests.iter().enumerate() {
            self.lower_request(ri, r, &mut subs);
        }
        self.run(requests, &subs).map_err(AdapCCError::Fault)
    }

    // ---------- lowering ----------

    fn lower_request(&self, ri: usize, req: &ExecutionRequest<'_>, out: &mut Vec<LoweredSub>) {
        let elems = (req.tensor.as_u64() / 4) as usize;
        match req.strategy.primitive {
            Primitive::Reduce | Primitive::ReduceScatter => {
                self.lower_tree(ri, req.strategy, elems, SubKind::Reduce, None, out);
            }
            Primitive::Broadcast | Primitive::AllGather => {
                self.lower_tree(ri, req.strategy, elems, SubKind::Broadcast, None, out);
            }
            Primitive::AllReduce => {
                let bcast = req.strategy.reversed(self.topo, Primitive::Broadcast);
                let base = out.len();
                let n_subs = req.strategy.subs.len();
                self.lower_tree(
                    ri,
                    req.strategy,
                    elems,
                    SubKind::Reduce,
                    Some(base + n_subs),
                    out,
                );
                let mut tmp = Vec::new();
                self.lower_tree(ri, &bcast, elems, SubKind::Broadcast, None, &mut tmp);
                out.append(&mut tmp);
            }
            Primitive::AllToAll => self.lower_alltoall(ri, req, elems, out),
        }
    }

    fn lower_tree(
        &self,
        ri: usize,
        strategy: &Strategy,
        elems: usize,
        kind: SubKind,
        stage_link_base: Option<usize>,
        out: &mut Vec<LoweredSub>,
    ) {
        let parts = partition_elems(strategy, elems);
        for (m, sub) in strategy.subs.iter().enumerate() {
            let (off, len) = parts[m];
            let mut segments: Vec<Segment> = Vec::new();
            let mut contributes = BTreeSet::new();
            let mut kernels = BTreeSet::new();
            let mut sinks = BTreeSet::new();
            let mut incoming: BTreeMap<VNode, BTreeSet<usize>> = BTreeMap::new();
            // Broadcast replicas on a shared route prefix must ride the
            // wire once: split segments at fan-out nodes (distinct
            // successors among flows) so identical prefixes dedup.
            // Split also at every flow *destination*: in a chain
            // broadcast one replica stops where others pass through,
            // and only a boundary there lets the shared prefix dedup.
            let mut fan_out: BTreeSet<LogicalNode> = BTreeSet::new();
            if kind == SubKind::Broadcast {
                let mut succ: BTreeMap<LogicalNode, BTreeSet<LogicalNode>> = BTreeMap::new();
                for f in &sub.flows {
                    let nodes = f.nodes(self.topo);
                    for w in nodes.windows(2) {
                        succ.entry(w[0]).or_default().insert(w[1]);
                    }
                    fan_out.insert(f.dst);
                }
                for (n, s) in succ {
                    if s.len() >= 2 {
                        fan_out.insert(n);
                    }
                }
            }
            if kind == SubKind::Reduce {
                // The root participates with its own tensor too.
                if let Some(root) = sub.root {
                    contributes.insert(VNode::first(LogicalNode::Gpu(root)));
                }
            }
            for f in &sub.flows {
                if kind == SubKind::Reduce {
                    contributes.insert(VNode::first(f.src));
                }
                // Walk the route with per-flow visit generations so a
                // re-entered node gets independent chunk state.
                let mut visits: BTreeMap<LogicalNode, u8> = BTreeMap::new();
                visits.insert(f.src, 1);
                let mut seg_start = VNode::first(f.src);
                let mut seg_edges = Vec::new();
                let mut sink_vnode = seg_start;
                for e in &f.route {
                    let edge = self.topo.edge(*e);
                    seg_edges.push(*e);
                    let gen_ref = visits.entry(edge.to).or_insert(0);
                    let here = VNode {
                        node: edge.to,
                        gen: *gen_ref,
                    };
                    *gen_ref += 1;
                    sink_vnode = here;
                    if sub.aggregates_at(edge.to) || edge.to == f.dst || fan_out.contains(&edge.to)
                    {
                        let seg = Segment {
                            start: seg_start,
                            end: here,
                            edges: std::mem::take(&mut seg_edges),
                        };
                        let idx = match segments.iter().position(|s| *s == seg) {
                            Some(i) => i,
                            None => {
                                segments.push(seg);
                                segments.len() - 1
                            }
                        };
                        incoming.entry(here).or_default().insert(idx);
                        seg_start = here;
                    }
                }
                sinks.insert(sink_vnode);
            }
            if kind == SubKind::Broadcast {
                contributes.clear();
                if let Some(root) = sub.root {
                    contributes.insert(VNode::first(LogicalNode::Gpu(root)));
                } else if let Some(f) = sub.flows.first() {
                    contributes.insert(VNode::first(f.src));
                }
            }
            let mut out_segs: BTreeMap<VNode, Vec<usize>> = BTreeMap::new();
            for (i, s) in segments.iter().enumerate() {
                out_segs.entry(s.start).or_default().push(i);
            }
            let touched: BTreeSet<VNode> = segments
                .iter()
                .flat_map(|s| [s.start, s.end])
                .chain(contributes.iter().copied())
                .collect();
            let mut required = BTreeMap::new();
            for n in &touched {
                let inc = incoming.get(n).map_or(0, BTreeSet::len);
                let own = usize::from(contributes.contains(n));
                required.insert(*n, inc + own);
                if kind == SubKind::Reduce && sub.aggregates_at(n.node) && inc + own >= 2 {
                    kernels.insert(*n);
                }
            }
            if kind == SubKind::Reduce {
                sinks.clear();
                if let Some(root) = sub.root {
                    sinks.insert(VNode::first(LogicalNode::Gpu(root)));
                } else if let Some(f) = sub.flows.first() {
                    sinks.insert(VNode::first(f.dst));
                }
            }
            let chunk_elems = ((sub.chunk.as_u64() / 4) as usize).clamp(1, len.max(1));
            out.push(LoweredSub {
                request: ri,
                kind,
                elem_off: off,
                elem_len: len,
                chunk_elems,
                segments,
                out_segs,
                required,
                contributes,
                kernels,
                sinks,
                stage_link: stage_link_base.map(|b| b + m),
                root: sub.root.map(|r| VNode::first(LogicalNode::Gpu(r))),
                p2p_ranges: Vec::new(),
            });
        }
    }

    fn lower_alltoall(
        &self,
        ri: usize,
        req: &ExecutionRequest<'_>,
        elems: usize,
        out: &mut Vec<LoweredSub>,
    ) {
        let strategy = req.strategy;
        let participants = strategy.participants();
        let n = participants.len().max(1);
        let index_of: HashMap<Rank, usize> = participants
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, i))
            .collect();
        let shard_sizes = split_elems(elems, n);
        let mut shard_off = vec![0usize; n];
        for j in 1..n {
            shard_off[j] = shard_off[j - 1] + shard_sizes[j - 1];
        }
        let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
        for (m, sub) in strategy.subs.iter().enumerate() {
            let mut segments = Vec::new();
            let mut p2p_ranges = Vec::new();
            let mut sinks = BTreeSet::new();
            let mut contributes = BTreeSet::new();
            let mut out_segs: BTreeMap<VNode, Vec<usize>> = BTreeMap::new();
            let mut max_len = 0usize;
            // Every GPU is both a source and a sink in AlltoAll; the
            // two roles get distinct visit generations (gen 0 sends,
            // gen 1 receives) so a source's own readiness cannot
            // finalize its sink state.
            let mut inbound: BTreeMap<VNode, usize> = BTreeMap::new();
            for f in &sub.flows {
                let (LogicalNode::Gpu(src), LogicalNode::Gpu(dst)) = (f.src, f.dst) else {
                    panic!("alltoall flows connect GPUs");
                };
                let si = index_of[&src];
                let di = index_of[&dst];
                // Message src->dst: shard `di` of src's tensor, landing at
                // shard `si` of dst's tensor. Sub m carries its slice.
                let (s_off, s_len) = frac_slice(shard_sizes[di], &fracs, m);
                let (d_off, _d_len) = frac_slice(shard_sizes[si], &fracs, m);
                let sink = VNode {
                    node: f.dst,
                    gen: 1,
                };
                segments.push(Segment {
                    start: VNode::first(f.src),
                    end: sink,
                    edges: f.route.clone(),
                });
                p2p_ranges.push(P2pRange {
                    src_off: shard_off[di] + s_off,
                    dst_off: shard_off[si] + d_off,
                    len: s_len,
                });
                max_len = max_len.max(s_len);
                sinks.insert(sink);
                *inbound.entry(sink).or_insert(0) += 1;
                contributes.insert(VNode::first(f.src));
                out_segs
                    .entry(VNode::first(f.src))
                    .or_default()
                    .push(segments.len() - 1);
            }
            let chunk_elems = ((sub.chunk.as_u64() / 4) as usize).clamp(1, max_len.max(1));
            let mut required: BTreeMap<VNode, usize> =
                contributes.iter().map(|c| (*c, 1)).collect();
            required.extend(inbound);
            out.push(LoweredSub {
                request: ri,
                kind: SubKind::PointToPoint,
                elem_off: 0,
                elem_len: max_len,
                chunk_elems,
                segments,
                out_segs,
                required,
                contributes,
                kernels: BTreeSet::new(),
                sinks,
                stage_link: None,
                root: None,
                p2p_ranges,
            });
        }
    }

    // ---------- event loop ----------

    fn run(
        &self,
        requests: &[ExecutionRequest<'_>],
        subs: &[LoweredSub],
    ) -> Result<BatchReport, FaultReport> {
        let collect: Vec<bool> = requests.iter().map(|r| r.inputs.is_some()).collect();
        let mut sim = NetSim::new(self.cluster);
        for (l, f) in &self.factors {
            sim.set_capacity_factor(*l, *f);
        }
        if let Some((schedule, offset)) = &self.faults {
            schedule.arm(&mut sim, *offset);
        }
        let mut st = RunState {
            sim,
            tasks: Vec::new(),
            hops: Vec::new(),
            nodes: Vec::new(),
            slot_of: Vec::new(),
            worklist: VecDeque::new(),
            bytes_on_wire: 0,
            finish: SimTime::ZERO,
            req_finish: vec![SimTime::ZERO; requests.len()],
            hop_started: HashMap::new(),
            trace: Vec::new(),
            open: HashSet::new(),
            telem_enqueued: HashMap::new(),
            telem_open: HashMap::new(),
        };
        for sub in subs {
            st.hops.push(
                sub.segments
                    .iter()
                    .map(|s| s.edges.iter().map(|_| HopState::default()).collect())
                    .collect(),
            );
            let mut slots = BTreeMap::new();
            let mut states = Vec::new();
            let touched: BTreeSet<VNode> = sub
                .segments
                .iter()
                .flat_map(|s| [s.start, s.end])
                .chain(sub.contributes.iter().copied())
                .collect();
            let n_chunks = chunk_count(sub);
            for n in touched {
                slots.insert(n, states.len());
                let acc = if collect[sub.request] && sub.kind != SubKind::PointToPoint {
                    Some(vec![0.0f32; sub.elem_len])
                } else {
                    None
                };
                states.push(NodeState {
                    node: n,
                    arrived: vec![0; n_chunks],
                    finalized: vec![false; n_chunks],
                    kernel_busy: false,
                    kernel_queue: VecDeque::new(),
                    acc,
                    written: Vec::new(),
                });
            }
            st.slot_of.push(slots);
            st.nodes.push(states);
        }

        // Seed own data and schedule readiness timers.
        for (si, sub) in subs.iter().enumerate() {
            let is_chained = subs.iter().any(|o| o.stage_link == Some(si));
            for n in &sub.contributes {
                if is_chained && Some(*n) == sub.root {
                    continue; // fed chunk-by-chunk by the reduce stage
                }
                let slot = st.slot_of[si][n];
                let LogicalNode::Gpu(rank) = &n.node else {
                    continue;
                };
                let req = &requests[sub.request];
                if sub.kind != SubKind::PointToPoint {
                    if let (Some(inputs), Some(acc)) = (&req.inputs, &mut st.nodes[si][slot].acc) {
                        if let Some(buf) = inputs.get(rank) {
                            acc.copy_from_slice(&buf[sub.elem_off..sub.elem_off + sub.elem_len]);
                        }
                    }
                }
                let at = req.ready.get(rank).copied().unwrap_or(SimTime::ZERO);
                st.tasks.push(Task::OwnReady { sub: si, slot });
                let token = st.tasks.len() as u64 - 1;
                st.sim
                    .schedule_timer(at.duration_since(SimTime::ZERO), token);
            }
        }

        loop {
            while let Some(action) = st.worklist.pop_front() {
                self.apply(requests, subs, &mut st, action);
            }
            let Some(ev) = st.sim.step() else { break };
            let task = st.tasks[ev.token() as usize];
            match (ev, task) {
                (SimEvent::Timer { .. }, Task::OwnReady { sub: si, slot }) => {
                    for chunk in 0..chunk_count(&subs[si]) {
                        st.nodes[si][slot].arrived[chunk] += 1;
                        self.try_finalize(subs, &mut st, si, slot, chunk);
                    }
                }
                (
                    SimEvent::Timer { .. },
                    Task::Kernel {
                        sub: si,
                        slot,
                        chunk,
                    },
                ) => {
                    st.nodes[si][slot].kernel_busy = false;
                    st.worklist.push_back(Action::Finalize {
                        sub: si,
                        slot,
                        chunk,
                    });
                    if let Some(next) = st.nodes[si][slot].kernel_queue.pop_front() {
                        self.start_kernel(subs, &mut st, si, slot, next);
                    }
                }
                (
                    SimEvent::TransferDone { .. },
                    Task::Hop {
                        sub: si,
                        seg,
                        hop,
                        chunk,
                    },
                ) => {
                    st.open.remove(&(ev.token() as usize));
                    if self.tracing {
                        if let Some(start) = st.hop_started.remove(&(ev.token() as usize)) {
                            let edge = subs[si].segments[seg].edges[hop];
                            let e = self.topo.edge(edge);
                            st.trace.push(TraceSpan {
                                request: subs[si].request,
                                sub: si,
                                chunk,
                                hop: format!("{}->{}", e.from, e.to),
                                start,
                                end: st.sim.now(),
                            });
                        }
                    }
                    if let Some((enq, start, bytes)) = st.telem_open.remove(&(ev.token() as usize))
                    {
                        let e = self.topo.edge(subs[si].segments[seg].edges[hop]);
                        self.telemetry.flow(adapcc_telemetry::FlowRecord {
                            link: format!("{}->{}", e.from, e.to),
                            bytes,
                            enqueued_secs: enq.as_secs(),
                            start_secs: start.as_secs(),
                            end_secs: st.sim.now().as_secs(),
                            request: subs[si].request,
                            sub: si,
                            chunk,
                        });
                    }
                    st.hops[si][seg][hop].busy = false;
                    if let Some(c) = st.hops[si][seg][hop].queue.pop_front() {
                        self.start_hop(subs, &mut st, si, seg, hop, c);
                    }
                    if hop + 1 < subs[si].segments[seg].edges.len() {
                        self.enqueue_hop(subs, &mut st, si, seg, hop + 1, chunk);
                    } else {
                        st.worklist.push_back(Action::Deliver {
                            sub: si,
                            seg,
                            chunk,
                        });
                    }
                }
                (
                    SimEvent::TransferAborted { .. },
                    Task::Hop {
                        sub: si,
                        seg,
                        hop,
                        chunk,
                    },
                ) => {
                    st.open.remove(&(ev.token() as usize));
                    let at = st.sim.now();
                    let edge = subs[si].segments[seg].edges[hop];
                    return Err(self.fault_report(FaultKind::TransferAborted, at, edge, chunk));
                }
                (SimEvent::Timer { .. }, Task::HopDeadline { hop_task }) => {
                    if st.open.contains(&hop_task) {
                        let Task::Hop {
                            sub: si,
                            seg,
                            hop,
                            chunk,
                        } = st.tasks[hop_task]
                        else {
                            unreachable!("deadline timers reference hop tasks");
                        };
                        let at = st.sim.now();
                        let edge = subs[si].segments[seg].edges[hop];
                        return Err(self.fault_report(FaultKind::HopTimeout, at, edge, chunk));
                    }
                }
                (ev, task) => panic!("event/task mismatch: {ev:?} vs {task:?}"),
            }
        }

        // Completion audit (fault-aware runs only): the event queue
        // drained, so anything unfinalized now never finishes — report
        // a stall instead of returning a silently incomplete batch.
        if self.faults.is_some() {
            for (si, sub) in subs.iter().enumerate() {
                for sink in &sub.sinks {
                    let slot = st.slot_of[si][sink];
                    if let Some(chunk) = st.nodes[si][slot].finalized.iter().position(|f| !f) {
                        return Err(FaultReport {
                            kind: FaultKind::Incomplete,
                            at: st.sim.now(),
                            links: Vec::new(),
                            suspects: self.suspects_of(sink.node),
                            hop: format!("sink {} missing chunk {chunk}", sink.node),
                        });
                    }
                }
            }
        }

        if self.telemetry.is_enabled() {
            self.telemetry
                .span("execute", "phase", 0.0, st.finish.as_secs());
            self.telemetry
                .add_counter("exec.bytes_on_wire", st.bytes_on_wire as f64);
            self.telemetry
                .add_counter("exec.requests", requests.len() as f64);
        }

        Ok(self.assemble(requests, subs, st))
    }

    fn apply(
        &self,
        requests: &[ExecutionRequest<'_>],
        subs: &[LoweredSub],
        st: &mut RunState<'_>,
        action: Action,
    ) {
        match action {
            Action::Finalize {
                sub: si,
                slot,
                chunk,
            } => {
                if st.nodes[si][slot].finalized[chunk] {
                    return;
                }
                st.nodes[si][slot].finalized[chunk] = true;
                let sub = &subs[si];
                let node = st.nodes[si][slot].node;
                if sub.sinks.contains(&node) {
                    st.finish = st.finish.max(st.sim.now());
                    st.req_finish[sub.request] = st.req_finish[sub.request].max(st.sim.now());
                }
                if let (Some(link), Some(root)) = (sub.stage_link, sub.root) {
                    if node == root {
                        // The chained broadcast's root visit is its first.
                        let dslot = st.slot_of[link][&root];
                        if st.nodes[si][slot].acc.is_some() {
                            let (a, b) = chunk_range(sub, chunk);
                            let vals: Vec<f32> =
                                st.nodes[si][slot].acc.as_ref().expect("acc")[a..b].to_vec();
                            // The chained broadcast carries the same
                            // partition layout, so ranges coincide.
                            if let Some(dacc) = &mut st.nodes[link][dslot].acc {
                                dacc[a..b].copy_from_slice(&vals);
                            }
                        }
                        st.worklist.push_back(Action::Finalize {
                            sub: link,
                            slot: dslot,
                            chunk,
                        });
                    }
                }
                st.worklist.push_back(Action::StartSegs {
                    sub: si,
                    slot,
                    chunk,
                });
            }
            Action::StartSegs {
                sub: si,
                slot,
                chunk,
            } => {
                let node = st.nodes[si][slot].node;
                let Some(seg_ids) = subs[si].out_segs.get(&node) else {
                    return;
                };
                for &seg in seg_ids.clone().iter() {
                    self.enqueue_hop(subs, st, si, seg, 0, chunk);
                }
            }
            Action::Deliver {
                sub: si,
                seg,
                chunk,
            } => {
                let sub = &subs[si];
                let end = sub.segments[seg].end;
                let start = sub.segments[seg].start;
                let slot = st.slot_of[si][&end];
                let req = &requests[sub.request];
                if sub.kind == SubKind::PointToPoint {
                    if let Some(inputs) = &req.inputs {
                        let r = sub.p2p_ranges[seg];
                        let (a, b) = chunk_range(sub, chunk);
                        let b = b.min(r.len);
                        if a < b {
                            let LogicalNode::Gpu(srank) = start.node else {
                                panic!("gpu")
                            };
                            let vals: Vec<f32> =
                                inputs[&srank][r.src_off + a..r.src_off + b].to_vec();
                            let elems = (req.tensor.as_u64() / 4) as usize;
                            let node = &mut st.nodes[si][slot];
                            let acc = node.acc.get_or_insert_with(|| vec![0.0; elems]);
                            acc[r.dst_off + a..r.dst_off + b].copy_from_slice(&vals);
                            node.written.push((r.dst_off + a, r.dst_off + b));
                        }
                    }
                } else {
                    let sslot = st.slot_of[si][&start];
                    let (a, b) = chunk_range(sub, chunk);
                    if st.nodes[si][sslot].acc.is_some() {
                        let vals: Vec<f32> =
                            st.nodes[si][sslot].acc.as_ref().expect("acc")[a..b].to_vec();
                        if let Some(dacc) = &mut st.nodes[si][slot].acc {
                            match sub.kind {
                                SubKind::Reduce => {
                                    for (d, v) in dacc[a..b].iter_mut().zip(&vals) {
                                        *d += v;
                                    }
                                }
                                SubKind::Broadcast => dacc[a..b].copy_from_slice(&vals),
                                SubKind::PointToPoint => unreachable!(),
                            }
                        }
                    }
                }
                st.nodes[si][slot].arrived[chunk] += 1;
                self.try_finalize(subs, st, si, slot, chunk);
            }
        }
    }

    fn try_finalize(
        &self,
        subs: &[LoweredSub],
        st: &mut RunState<'_>,
        si: usize,
        slot: usize,
        chunk: usize,
    ) {
        let sub = &subs[si];
        let node = st.nodes[si][slot].node;
        let need = sub.required.get(&node).copied().unwrap_or(0).max(1);
        if st.nodes[si][slot].arrived[chunk] < need || st.nodes[si][slot].finalized[chunk] {
            return;
        }
        if sub.kernels.contains(&node) {
            if st.nodes[si][slot].kernel_busy {
                st.nodes[si][slot].kernel_queue.push_back(chunk);
            } else {
                self.start_kernel(subs, st, si, slot, chunk);
            }
        } else {
            st.worklist.push_back(Action::Finalize {
                sub: si,
                slot,
                chunk,
            });
        }
    }

    fn start_kernel(
        &self,
        subs: &[LoweredSub],
        st: &mut RunState<'_>,
        si: usize,
        slot: usize,
        chunk: usize,
    ) {
        let node = st.nodes[si][slot].node;
        let LogicalNode::Gpu(rank) = node.node else {
            panic!("kernels run on GPUs only");
        };
        let (inst, _) = self.cluster.locate(rank);
        let gen = self.cluster.spec(inst).gpu;
        let bytes = chunk_bytes(&subs[si], chunk);
        let dur = kernel_launch_overhead() + gen.reduce_bandwidth().time_for(bytes);
        st.nodes[si][slot].kernel_busy = true;
        st.tasks.push(Task::Kernel {
            sub: si,
            slot,
            chunk,
        });
        let token = st.tasks.len() as u64 - 1;
        st.sim.schedule_timer(dur, token);
    }

    fn enqueue_hop(
        &self,
        subs: &[LoweredSub],
        st: &mut RunState<'_>,
        si: usize,
        seg: usize,
        hop: usize,
        chunk: usize,
    ) {
        if st.hops[si][seg][hop].busy {
            if self.telemetry.is_enabled() {
                st.telem_enqueued
                    .insert((si, seg, hop, chunk), st.sim.now());
            }
            st.hops[si][seg][hop].queue.push_back(chunk);
        } else {
            self.start_hop(subs, st, si, seg, hop, chunk);
        }
    }

    fn start_hop(
        &self,
        subs: &[LoweredSub],
        st: &mut RunState<'_>,
        si: usize,
        seg: usize,
        hop: usize,
        chunk: usize,
    ) {
        let sub = &subs[si];
        let edge = sub.segments[seg].edges[hop];
        let path = self.hop_path(edge);
        let bytes = if sub.kind == SubKind::PointToPoint {
            // Per-segment slice length bounds the chunk.
            let r = sub.p2p_ranges[seg];
            let (a, b) = chunk_range(sub, chunk);
            ByteSize::from_bytes(((b.min(r.len)).saturating_sub(a) * 4) as u64)
        } else {
            chunk_bytes(sub, chunk)
        };
        st.bytes_on_wire += bytes.as_u64();
        st.tasks.push(Task::Hop {
            sub: si,
            seg,
            hop,
            chunk,
        });
        let token = st.tasks.len() as u64 - 1;
        if self.tracing {
            st.hop_started.insert(token as usize, st.sim.now());
        }
        if self.telemetry.is_enabled() {
            let start = st.sim.now();
            let enqueued = st
                .telem_enqueued
                .remove(&(si, seg, hop, chunk))
                .unwrap_or(start);
            st.telem_open
                .insert(token as usize, (enqueued, start, bytes.as_u64()));
        }
        st.sim.submit_transfer(&path, bytes, token);
        st.hops[si][seg][hop].busy = true;
        if self.faults.is_some() {
            // Stall detector: a deadline timer races the transfer. If
            // it fires while the hop is still open, the hop stalled.
            st.open.insert(token as usize);
            let deadline = self.hop_deadline(&path, bytes);
            st.tasks.push(Task::HopDeadline {
                hop_task: token as usize,
            });
            let dl = st.tasks.len() as u64 - 1;
            st.sim.schedule_timer(deadline, dl);
        }
    }

    /// Deadline for one chunk transfer: the hop's uncontended α–β cost
    /// on ground-truth link data (nominal capacity scaled by any live
    /// capacity factors, per-flow caps honoured), times the configured
    /// multiplier, floored so tiny chunks do not trip on noise.
    fn hop_deadline(&self, path: &Path, bytes: ByteSize) -> SimDuration {
        let alpha = self.cluster.path_alpha(path);
        let mut bw = f64::INFINITY;
        for l in &path.links {
            let def = self.cluster.link(*l);
            let factor = self
                .factors
                .iter()
                .find(|(id, _)| id == l)
                .map_or(1.0, |(_, f)| *f);
            let mut b = def.capacity.as_bytes_per_sec() * factor;
            if let Some(cap) = def.per_flow_cap {
                b = b.min(cap.as_bytes_per_sec());
            }
            bw = bw.min(b);
        }
        let beta = if bw.is_finite() && bw > 0.0 {
            SimDuration::from_secs(bytes.as_f64() / bw)
        } else {
            SimDuration::ZERO
        };
        (alpha + beta)
            .scale(self.deadline_multiplier)
            .max(deadline_floor())
    }

    /// Classifies one faulted hop: which physical links it crossed and
    /// which ranks its endpoints implicate.
    fn fault_report(
        &self,
        kind: FaultKind,
        at: SimTime,
        edge: EdgeId,
        chunk: usize,
    ) -> FaultReport {
        let e = self.topo.edge(edge);
        let links = self.hop_path(edge).links;
        let mut suspects = self.suspects_of(e.from);
        suspects.extend(self.suspects_of(e.to));
        suspects.sort_unstable();
        suspects.dedup();
        FaultReport {
            kind,
            at,
            links,
            suspects,
            hop: format!("{}->{} chunk {chunk}", e.from, e.to),
        }
    }

    /// Ranks a faulted logical node implicates: the rank itself for a
    /// GPU, every rank of the instance for a NIC (losing the NIC cuts
    /// them all off the fabric).
    fn suspects_of(&self, node: LogicalNode) -> Vec<Rank> {
        match node {
            LogicalNode::Gpu(r) => vec![r],
            LogicalNode::Nic(inst) => (0..self.cluster.gpus_on(inst))
                .map(|local| self.cluster.rank_of(inst, local))
                .collect(),
        }
    }

    fn assemble(
        &self,
        requests: &[ExecutionRequest<'_>],
        subs: &[LoweredSub],
        st: RunState<'_>,
    ) -> BatchReport {
        let mut reports: Vec<RequestReport> = st
            .req_finish
            .iter()
            .map(|f| RequestReport {
                finish: *f,
                outputs: BTreeMap::new(),
            })
            .collect();
        for (si, sub) in subs.iter().enumerate() {
            if requests[sub.request].inputs.is_none() {
                continue;
            }
            let req = &requests[sub.request];
            let elems = (req.tensor.as_u64() / 4) as usize;
            for sink in &sub.sinks {
                let LogicalNode::Gpu(rank) = &sink.node else {
                    continue;
                };
                let slot = st.slot_of[si][sink];
                let state = &st.nodes[si][slot];
                let Some(acc) = &state.acc else { continue };
                let out = reports[sub.request]
                    .outputs
                    .entry(*rank)
                    .or_insert_with(|| vec![0.0; elems]);
                if sub.kind == SubKind::PointToPoint {
                    for (a, b) in &state.written {
                        out[*a..*b].copy_from_slice(&acc[*a..*b]);
                    }
                } else {
                    out[sub.elem_off..sub.elem_off + sub.elem_len].copy_from_slice(acc);
                }
            }
        }
        // AlltoAll keeps each rank's own shard locally.
        for (ri, req) in requests.iter().enumerate() {
            if req.strategy.primitive != Primitive::AllToAll {
                continue;
            }
            let Some(inputs) = &req.inputs else { continue };
            let participants = req.strategy.participants();
            let n = participants.len();
            let elems = (req.tensor.as_u64() / 4) as usize;
            let shard = split_elems(elems, n.max(1));
            let mut offs = vec![0usize; n];
            for j in 1..n {
                offs[j] = offs[j - 1] + shard[j - 1];
            }
            for (j, rank) in participants.iter().enumerate() {
                let own = inputs[rank][offs[j]..offs[j] + shard[j]].to_vec();
                let out = reports[ri]
                    .outputs
                    .entry(*rank)
                    .or_insert_with(|| vec![0.0; elems]);
                out[offs[j]..offs[j] + shard[j]].copy_from_slice(&own);
            }
        }
        BatchReport {
            finish: st.finish,
            requests: reports,
            bytes_on_wire: st.bytes_on_wire,
            trace: st.trace,
        }
    }

    /// Physical path of a logical edge, including per-chunk staging
    /// overhead on non-GPU-Direct (TCP) network hops.
    fn hop_path(&self, edge: EdgeId) -> Path {
        let e = self.topo.edge(edge);
        let mut path = self.topo.edge_path(self.cluster, edge);
        if e.kind == EdgeKind::Network {
            if let (LogicalNode::Nic(a), LogicalNode::Nic(b)) = (e.from, e.to) {
                let stage = self.cluster.spec(a).nic.staging_overhead()
                    + self.cluster.spec(b).nic.staging_overhead();
                path.extra_alpha += stage;
            }
        }
        path
    }
}

// ---------- free helpers ----------

fn chunk_count(sub: &LoweredSub) -> usize {
    if sub.elem_len == 0 {
        1
    } else {
        sub.elem_len.div_ceil(sub.chunk_elems)
    }
}

/// Element range `[a, b)` of chunk `k`, relative to the sub's
/// partition.
fn chunk_range(sub: &LoweredSub, k: usize) -> (usize, usize) {
    let a = (k * sub.chunk_elems).min(sub.elem_len);
    let b = ((k + 1) * sub.chunk_elems).min(sub.elem_len);
    (a, b)
}

fn chunk_bytes(sub: &LoweredSub, k: usize) -> ByteSize {
    let (a, b) = chunk_range(sub, k);
    ByteSize::from_bytes(((b - a) * 4) as u64)
}

/// Largest-remainder split of `len` items into `n` parts.
fn split_elems(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let rem = len % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// Contiguous (offset, len) slice assigned to fraction `m`.
fn frac_slice(len: usize, fracs: &[f64], m: usize) -> (usize, usize) {
    let sizes = apportion(len, fracs);
    let off: usize = sizes[..m].iter().sum();
    (off, sizes[m])
}

fn apportion(len: usize, fracs: &[f64]) -> Vec<usize> {
    let mut sizes: Vec<usize> = fracs.iter().map(|f| (len as f64 * f) as usize).collect();
    let mut assigned: usize = sizes.iter().sum();
    let n = sizes.len();
    let mut i = 0;
    while assigned < len {
        sizes[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > len {
        let j = sizes
            .iter()
            .position(|s| *s > 0)
            .expect("cannot shrink empty apportionment");
        sizes[j] -= 1;
        assigned -= 1;
    }
    sizes
}

fn partition_elems(strategy: &Strategy, elems: usize) -> Vec<(usize, usize)> {
    let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
    let sizes = apportion(elems, &fracs);
    let mut out = Vec::with_capacity(sizes.len());
    let mut off = 0;
    for s in sizes {
        out.push((off, s));
        off += s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_profile::profiler::{LinkProfile, Profiler};
    use adapcc_simnet::cluster::Cluster;
    use adapcc_synth::solver::{SynthRequest, Synthesizer};
    use adapcc_topo::detect::Detector;

    fn setup(cluster: &Cluster) -> (LogicalTopology, LinkProfile) {
        let topo = Detector::new(cluster, 1).run().logical_topology(cluster);
        let profile = Profiler::new(cluster, &topo, 1).without_noise().run().links;
        (topo, profile)
    }

    fn inputs_for(ranks: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
        ranks
            .iter()
            .map(|r| {
                let buf: Vec<f32> = (0..elems)
                    .map(|i| ((r.0 * 31 + i * 7) % 97) as f32 / 9.0)
                    .collect();
                (*r, buf)
            })
            .collect()
    }

    #[test]
    fn reduce_computes_exact_sum() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::Reduce,
            tensor,
            3,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let root = strategy.subs[0].root.expect("rooted");
        let out = &report.requests[0].outputs[&root];
        for i in [0usize, 1, elems / 2, elems - 1] {
            let expect: f32 = ranks.iter().map(|r| inputs[r][i]).sum();
            assert!(
                (out[i] - expect).abs() < 1e-3,
                "elem {i}: got {} want {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn allreduce_delivers_sum_everywhere() {
        let c = Cluster::heterogeneous_2a100_2v100();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..16).map(Rank).collect();
        let tensor = ByteSize::from_kib(256);
        let elems = 256 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let outputs = &report.requests[0].outputs;
        assert_eq!(outputs.len(), 16, "every rank gets the aggregate");
        for r in &ranks {
            let out = &outputs[r];
            for i in [0usize, elems / 3, elems - 1] {
                let expect: f32 = ranks.iter().map(|x| inputs[x][i]).sum();
                assert!(
                    (out[i] - expect).abs() < 1e-2,
                    "rank {r} elem {i}: got {} want {expect}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn broadcast_copies_root_tensor() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let mut req = SynthRequest::new(Primitive::Broadcast, tensor, 2, ranks.clone());
        req.root = Some(Rank(2));
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        for (r, out) in &report.requests[0].outputs {
            assert_ne!(*r, Rank(2));
            assert_eq!(out, &inputs[&Rank(2)], "rank {r} must hold root's tensor");
        }
    }

    #[test]
    fn alltoall_transposes_shards() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        // 8 ranks, shard-aligned tensor: 8 shards of 512 elements.
        let tensor = ByteSize::from_bytes(8 * 512 * 4);
        let elems = 8 * 512;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllToAll,
            tensor,
            2,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let shard = 512;
        for (j, dst) in ranks.iter().enumerate() {
            let out = &report.requests[0].outputs[dst];
            for (i, src) in ranks.iter().enumerate() {
                // Shard i of dst's output == shard j of src's input.
                let got = &out[i * shard..(i + 1) * shard];
                let want = &inputs[src][j * shard..(j + 1) * shard];
                assert_eq!(got, want, "dst {dst} src {src}");
            }
        }
    }

    #[test]
    fn straggler_delays_completion() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(16);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let fast = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        let mut ready = BTreeMap::new();
        ready.insert(Rank(5), SimTime::from_secs(0.5));
        let slow = exec.execute(&[ExecutionRequest::timing(&strategy, tensor).with_ready(ready)]);
        assert!(slow.finish.as_secs() > 0.5);
        assert!(fast.finish.as_secs() < 0.1);
    }

    #[test]
    fn more_parallelism_helps_on_tcp() {
        let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
        b.add_instances(
            adapcc_simnet::hardware::InstanceSpec::a100_server().with_tcp(),
            4,
        );
        let c = b.build();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..16).map(Rank).collect();
        let tensor = ByteSize::from_mib(64);
        let exec = Executor::new(&c, &topo);
        let time_for = |m: usize| {
            let s = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
                Primitive::AllReduce,
                tensor,
                m,
                ranks.clone(),
            ));
            exec.execute(&[ExecutionRequest::timing(&s, tensor)])
                .finish
                .as_secs()
        };
        let m1 = time_for(1);
        let m4 = time_for(4);
        // One TCP stream is capped at 20 Gbps; four parallel
        // sub-collectives aggregate toward the 100 Gbps line rate.
        assert!(m4 < m1 * 0.75, "m1={m1} m4={m4}");
    }

    #[test]
    fn timing_only_run_produces_no_outputs() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(32);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let report = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(report.requests[0].outputs.is_empty());
        assert!(report.bytes_on_wire > tensor.as_u64());
        assert!(report.finish.as_secs() > 0.0);
    }

    #[test]
    fn deterministic_execution() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..24).map(Rank).collect();
        let tensor = ByteSize::from_mib(32);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let a = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        let b = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert_eq!(a.finish.as_secs().to_bits(), b.finish.as_secs().to_bits());
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
    }

    #[test]
    fn tracing_records_every_hop_consistently() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(8);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let traced = Executor::new(&c, &topo).with_tracing();
        let report = traced.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(!report.trace.is_empty());
        for span in &report.trace {
            assert!(span.end >= span.start, "{span:?}");
            assert!(span.end <= report.finish);
            assert!(span.hop.contains("->"));
        }
        // Timeline renders one line per span.
        let timeline = report.timeline();
        assert_eq!(timeline.lines().count(), report.trace.len());
        // Untraced runs stay lean and agree on timing.
        let plain =
            Executor::new(&c, &topo).execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(plain.trace.is_empty());
        assert_eq!(plain.finish, report.finish);
    }

    #[test]
    fn nic_failure_aborts_and_classifies() {
        use adapcc_simnet::cluster::InstanceId;
        use adapcc_simnet::faults::Fault;
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(256);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks,
        ));
        let schedule = FaultSchedule::new().with(Fault::NicFail {
            instance: InstanceId(1),
            at: SimTime::ZERO,
        });
        let exec = Executor::new(&c, &topo).with_fault_schedule(schedule, SimTime::ZERO);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor)])
            .expect_err("the dead NIC must abort the collective");
        let AdapCCError::Fault(report) = err else {
            panic!("expected a classified fault, got {err}");
        };
        assert_eq!(report.kind, FaultKind::TransferAborted);
        assert!(report.is_permanent());
        assert!(
            report.suspects.iter().any(|r| r.0 >= 4),
            "suspects {:?} must implicate the dead instance",
            report.suspects
        );
    }

    #[test]
    fn stalled_link_trips_the_hop_deadline() {
        use adapcc_simnet::cluster::InstanceId;
        use adapcc_simnet::faults::{nic_links, Fault};
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(4);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks,
        ));
        // Every NIC link of instance 0 flaps for far longer than the
        // collective: inter-instance hops stall at rate zero.
        let downed = nic_links(&c, InstanceId(0));
        let mut schedule = FaultSchedule::new();
        for l in &downed {
            schedule.push(Fault::LinkDown {
                link: *l,
                from: SimTime::ZERO,
                until: SimTime::from_secs(30.0),
            });
        }
        let exec = Executor::new(&c, &topo).with_fault_schedule(schedule, SimTime::ZERO);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor)])
            .expect_err("stalled hops must trip their deadline");
        let AdapCCError::Fault(report) = err else {
            panic!("expected a classified fault, got {err}");
        };
        assert_eq!(report.kind, FaultKind::HopTimeout);
        assert!(!report.is_permanent());
        assert!(
            report.links.iter().any(|l| downed.contains(l)),
            "faulted hop links {:?} must cross a downed link {downed:?}",
            report.links
        );
    }

    #[test]
    fn empty_schedule_is_behavior_neutral() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let plain = Executor::new(&c, &topo)
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let guarded = Executor::new(&c, &topo)
            .with_fault_schedule(FaultSchedule::new(), SimTime::ZERO)
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs)])
            .expect("empty schedule cannot fault");
        assert_eq!(
            plain.finish, guarded.finish,
            "deadlines must not perturb timing"
        );
        for r in &ranks {
            assert_eq!(
                plain.requests[0].outputs[r], guarded.requests[0].outputs[r],
                "bitwise-identical outputs for {r}"
            );
        }
    }

    #[test]
    fn misaligned_tensor_is_invalid_request() {
        let c = Cluster::homogeneous_a100(1);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..4).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(
                &strategy,
                ByteSize::from_bytes(1002),
            )])
            .expect_err("odd byte count is not f32-aligned");
        assert!(
            matches!(&err, AdapCCError::InvalidRequest(msg) if msg.contains("f32-aligned")),
            "{err}"
        );
    }

    #[test]
    fn apportion_preserves_total() {
        for len in [0usize, 1, 7, 1000, 65536] {
            for fracs in [vec![1.0], vec![0.25, 0.25, 0.5], vec![0.3, 0.3, 0.4]] {
                let sizes = apportion(len, &fracs);
                assert_eq!(sizes.iter().sum::<usize>(), len);
            }
        }
    }
}

#[cfg(test)]
mod tcp_debug {
    use super::*;
    use adapcc_profile::profiler::Profiler;
    use adapcc_synth::cost::CostModel;
    use adapcc_synth::solver::{SynthRequest, Synthesizer};
    use adapcc_topo::detect::Detector;

    #[test]
    #[ignore]
    fn diag() {
        let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
        b.add_instances(
            adapcc_simnet::hardware::InstanceSpec::a100_server().with_tcp(),
            4,
        );
        let c = b.build();
        let topo = Detector::new(&c, 1).run().logical_topology(&c);
        let profile = Profiler::new(&c, &topo, 1).without_noise().run().links;
        let ranks: Vec<Rank> = (0..16).map(Rank).collect();
        let tensor = ByteSize::from_mib(64);
        let exec = Executor::new(&c, &topo);
        let model = CostModel::new(&topo, &profile);
        for m in [1usize, 2, 4, 8] {
            let s = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
                Primitive::AllReduce,
                tensor,
                m,
                ranks.clone(),
            ));
            let t = exec
                .execute(&[ExecutionRequest::timing(&s, tensor)])
                .finish
                .as_secs();
            let pred = model.evaluate(&s, tensor).completion.as_secs();
            let chunks: Vec<u64> = s.subs.iter().map(|x| x.chunk.as_u64() / 1024).collect();
            let fracs: Vec<f64> = s
                .subs
                .iter()
                .map(|x| (x.fraction * 100.0).round() / 100.0)
                .collect();
            let flows0 = s.subs[0].flows.len();
            println!("M={m} exec={t:.4}s pred={pred:.4}s chunksKiB={chunks:?} fracs={fracs:?} flows/sub={flows0}");
        }
        // check network edge profile
        for e in topo
            .edges_of_kind(adapcc_topo::logical::EdgeKind::Network)
            .iter()
            .take(2)
        {
            let ab = profile.get(*e).unwrap();
            println!(
                "net edge: stream={:.1}Gbps port={:.1}Gbps alpha={:.1}us",
                ab.bandwidth().as_gbps(),
                ab.port_bandwidth().as_gbps(),
                ab.alpha_secs * 1e6
            );
        }
    }
}
