//! The discrete-event transport engine.
//!
//! Transfers are *fluid flows*: a flow occupies every link of its
//! [`Path`] simultaneously and receives a rate from progressive-filling
//! (max-min) allocation, recomputed whenever the set of active flows or
//! a link capacity changes. With single-link flows this degenerates to
//! the paper's equal-share model (eq. 3): each of the `k` flows on a
//! link gets `capacity / k`.
//!
//! The engine is timing-only: payloads are *sizes*, not data. Callers
//! (the AdapCC executor) attach a `token` to each transfer and perform
//! the actual buffer movement when the completion event fires, which is
//! how real `f32` tensors flow through the simulation with exact
//! reduction semantics.
//!
//! Determinism: a single-threaded binary heap ordered by `(time, seq)`
//! makes every run bit-reproducible.
//!
//! # Scaling
//!
//! The engine is sized for cluster-scale sweeps (512+ instances):
//!
//! * **Flow aggregation** — back-to-back submissions that are byte-for-
//!   byte identical (same links, same size, same instant, no events in
//!   between) merge into one flow carrying several caller tokens. The
//!   merged flow participates in rate allocation with its clone count
//!   as weight and emits one event per token in submission order, so
//!   the observable event stream — times, tokens, ordering — is
//!   bit-identical to the unmerged engine.
//! * **Arena-backed state** — per-flow link lists live in one shared
//!   `Vec`, event payload slots are recycled through a free list, and
//!   the allocator scratch (hot/residual/frozen sets) is reused across
//!   fillings with generation stamps instead of per-call allocation,
//!   so steady-state stepping allocates nothing.
//! * **Frontier filling** — the engine never re-fills the whole fleet.
//!   Links touched by an event join a *dirty frontier*; the refill
//!   walks only the connected components (flows sharing a link,
//!   transitively) reachable from that frontier and recomputes their
//!   rates by progressive filling, leaving every other component's
//!   rates — and therefore its scheduled drain — bitwise untouched.
//!   Flow progress integrates lazily (each flow carries the instant
//!   its residual was last synced), live-set membership is an
//!   intrusive list with O(1) unlink, and per-link occupancy indices
//!   make fault targeting O(flows-on-link). A synchronized wave of N
//!   arrivals pays one frontier refill instead of N.
//! * **One drain per filling** — a filled component queues a single
//!   drain event, for its earliest finisher; flows whose rate bits did
//!   not move keep the drain they already had. Debug builds check
//!   every filling against a from-scratch refill of all live
//!   components and against a max-min fairness certificate.
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use adapcc_telemetry::Telemetry;

use crate::cluster::{Cluster, LinkId, Path};
use crate::time::{SimDuration, SimTime};
use crate::units::ByteSize;

/// Residual bytes below which a flow counts as finished (absorbs f64
/// rounding from rate recomputations).
const EPS_BYTES: f64 = 1e-3;

/// Opaque caller-side identifier carried by transfers and timers.
pub type Token = u64;

/// A user-visible simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A transfer submitted with [`NetSim::submit_transfer`] finished.
    TransferDone {
        /// The caller's token.
        token: Token,
        /// Completion instant.
        at: SimTime,
    },
    /// A transfer was aborted because a link on its path permanently
    /// failed (see [`NetSim::fail_link`]). No bytes are delivered.
    TransferAborted {
        /// The caller's token.
        token: Token,
        /// Abort instant.
        at: SimTime,
    },
    /// A timer scheduled with [`NetSim::schedule_timer`] fired.
    Timer {
        /// The caller's token.
        token: Token,
        /// Firing instant.
        at: SimTime,
    },
}

impl SimEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::TransferDone { at, .. }
            | SimEvent::TransferAborted { at, .. }
            | SimEvent::Timer { at, .. } => at,
        }
    }

    /// The caller token of the event.
    pub fn token(&self) -> Token {
        match *self {
            SimEvent::TransferDone { token, .. }
            | SimEvent::TransferAborted { token, .. }
            | SimEvent::Timer { token, .. } => token,
        }
    }
}

/// A fault applied to the fabric, either immediately or scheduled on
/// the simulation timeline with [`NetSim::schedule_fault`].
///
/// Faults are *silent*: applying one produces no user-visible event of
/// its own (real networks do not announce their failures). Their
/// consequences surface as stalled flows, [`SimEvent::TransferAborted`]
/// events, or changed completion times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take a link down (transient): flows crossing it stall at rate
    /// zero until the link comes back up.
    LinkDown(LinkId),
    /// Bring a transiently-down link back up; stalled flows resume.
    /// No effect on permanently failed links.
    LinkUp(LinkId),
    /// Permanently fail a link: every unfinished flow crossing it is
    /// aborted and future submissions over it abort after their latency.
    LinkFail(LinkId),
    /// Repair a failed link (hardware replaced / worker restarted):
    /// clears the failure and brings the link back up. Flows aborted
    /// by the failure stay aborted; new submissions succeed.
    LinkRecover(LinkId),
    /// Scale a link's capacity (degradation / recovery). The factor
    /// must be positive and finite.
    SetCapacityFactor(LinkId, f64),
}

#[derive(Debug, Clone)]
enum Internal {
    /// A flow clone's α latency elapsed: it joins the fluid phase.
    LatencyDone(usize),
    /// A flow's scheduled drain instant, queued under the flow's drain
    /// stamp. Stale unless the flow is still armed with that stamp.
    Drain(usize),
    /// User timer.
    Timer(Token),
    /// A draining flow clone was aborted by a permanent link failure.
    Aborted(usize),
    /// A scheduled fault fires.
    Fault(FaultAction),
}

#[derive(Debug, Clone)]
struct Flow {
    token: Token,
    /// Tokens of identical same-instant submissions merged into this
    /// flow (aggregation). The flow's *weight* is `1 + extra.len()`.
    extra: Vec<Token>,
    /// Slice of the shared link arena this flow occupies.
    links_start: u32,
    links_len: u32,
    /// Per-clone residual bytes (clones are identical, so one value
    /// stands for all of them).
    remaining: f64,
    /// Current allocated per-clone rate in bytes/sec (0 while in the
    /// latency phase).
    rate: f64,
    /// Per-flow ceiling from the most restrictive traversed link.
    cap: f64,
    draining: bool,
    done: bool,
    /// Set when a permanent link failure killed this flow; surfaces as
    /// [`SimEvent::TransferAborted`].
    aborted: bool,
    /// Clones whose latency elapsed and are draining; the flow's weight
    /// in rate allocation.
    active_clones: u32,
    /// Caller tokens already surfaced as events.
    emitted: u32,
    /// Intrusive live-list neighbours (`NONE` when absent); activation
    /// order is preserved, unlink is O(1).
    live_prev: u32,
    live_next: u32,
    /// Occurrences of transiently-down links on this flow's path
    /// (stall bookkeeping; >0 means the flow is stalled at rate zero).
    down_links: u32,
    /// Present in the per-link occupancy index.
    indexed: bool,
    /// Drain stamp: the event sequence number the flow's finish sorts
    /// under among same-instant events, claimed whenever its schedule
    /// changes (0 while it has no finish). [`ARMED`] is set while a
    /// `Drain` carrying this stamp is queued.
    drain_seq: u64,
    /// The instant `remaining` was last integrated to (rates are
    /// piecewise-constant between refills, so progress is
    /// `rate * (now - synced_at)` exactly).
    synced_at: SimTime,
}

/// Sentinel for absent intrusive-list neighbours.
const NONE: u32 = u32::MAX;

/// Drain-stamp bit marking a queued `Drain` event (sequence numbers
/// never reach it). A bit of the stamp rather than a field of its own,
/// so the per-flow record does not grow.
const ARMED: u64 = 1 << 63;

impl Flow {
    fn weight(&self) -> u32 {
        1 + self.extra.len() as u32
    }

    /// Surfaces the next un-emitted caller token, in submission order.
    fn take_token(&mut self) -> Token {
        let i = self.emitted as usize;
        self.emitted += 1;
        if self.emitted >= self.weight() {
            self.done = true;
        }
        if i == 0 {
            self.token
        } else {
            self.extra[i - 1]
        }
    }

    /// The instant the flow drains at its current rate: lazily derived
    /// from its last sync, so it changes only when the flow's rate or
    /// sync point does. `None` for a flow held at rate zero with bytes
    /// left.
    fn finish(&self) -> Option<SimTime> {
        if self.rate > 0.0 {
            let secs = (self.remaining / self.rate).max(0.0);
            Some(self.synced_at + SimDuration::from_secs(secs))
        } else if self.remaining <= EPS_BYTES {
            Some(self.synced_at)
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Default)]
struct LinkState {
    factor: f64,
    /// Transient availability: a down link stalls its flows.
    up: bool,
    /// Permanent failure: the link never comes back and aborts flows.
    failed: bool,
}

/// The most recent submission, for aggregation of identical
/// back-to-back transfers.
#[derive(Debug, Clone, Copy)]
struct LastSubmit {
    flow: usize,
    /// Event sequence number right after the submission: any push in
    /// between (timer, fault, drain schedule) advances it and kills
    /// the merge window.
    seq: u64,
    at: SimTime,
    alpha: SimDuration,
}

/// The transport simulator for one [`Cluster`].
///
/// # Examples
///
/// ```
/// use adapcc_simnet::cluster::{Cluster, InstanceId};
/// use adapcc_simnet::engine::{NetSim, SimEvent};
/// use adapcc_simnet::units::ByteSize;
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let mut sim = NetSim::new(&cluster);
/// let path = cluster.net_path(InstanceId(0), InstanceId(1));
/// sim.submit_transfer(&path, ByteSize::from_mib(100), 7);
/// let ev = sim.step().expect("one event");
/// assert!(matches!(ev, SimEvent::TransferDone { token: 7, .. }));
/// ```
#[derive(Debug)]
pub struct NetSim<'c> {
    cluster: &'c Cluster,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    payloads: Vec<Option<Internal>>,
    /// Payload slots freed by popped events, recycled by `push`.
    free_pids: Vec<u64>,
    flows: Vec<Flow>,
    /// Shared arena backing every flow's link list.
    flow_links: Vec<LinkId>,
    /// Head/tail of the intrusive live list (flows in the fluid
    /// phase), threaded through `Flow::live_prev`/`live_next` in
    /// activation order; membership changes are O(1).
    live_head: u32,
    live_tail: u32,
    live_len: usize,
    links: Vec<LinkState>,
    /// Per-link occupancy index: `(flow, slot)` for every flow whose
    /// path crosses the link, from submission until done/aborted.
    /// `slot` names the occurrence inside the flow's link slice so
    /// swap-removal can fix back-pointers in O(1).
    link_flows: Vec<Vec<(u32, u32)>>,
    /// Arena parallel to `flow_links`: the position of that occupancy
    /// entry inside its link's `link_flows` vector.
    slot_pos: Vec<u32>,
    /// Counter-backed `draining_flows()` (clones of draining flows).
    draining_clones: usize,
    /// Counter-backed `stalled_flows()` (clones of draining flows
    /// crossing at least one down link).
    stalled_clones: usize,
    /// Test hook: every refill treats all live flows as dirty, so the
    /// event stream doubles as a from-scratch filling reference.
    paranoid: bool,
    /// Inside the debug cross-check: suppress counters and turn rate
    /// or drain-schedule divergence into a panic.
    checking: bool,
    /// Number of filling passes executed (one per dirty component).
    fillings: u64,
    /// Total flows touched by filling passes (the frontier size).
    frontier_flows: u64,
    /// Links dirtied since the last refill, deduplicated by epoch.
    dirty_links: Vec<usize>,
    dirty_stamp: Vec<u64>,
    dirty_epoch: u64,
    /// BFS visit stamps for component discovery.
    visit_link_stamp: Vec<u64>,
    comp_links: Vec<usize>,
    comp_flows: Vec<usize>,
    scratch_old_rates: Vec<f64>,
    last_submit: Option<LastSubmit>,
    /// Total internal events processed (engine throughput metric).
    events: u64,
    // Reusable filling scratch: no steady-state allocation.
    scratch_residual: Vec<f64>,
    scratch_counts: Vec<usize>,
    scratch_unfrozen: Vec<usize>,
    /// Per-flow generation stamps: the component walk marks the flows
    /// it visits, then the filling marks the ones it freezes. A walk
    /// never meets a flow of a component already filled (that
    /// component's links are all visited), so the two uses never
    /// overlap.
    flow_stamp: Vec<u64>,
    stamp: u64,
    /// Dense link-id -> position in the filled component's link list;
    /// only positions of that component's links are ever read.
    link_pos: Vec<u32>,
    telemetry: Telemetry,
}

impl<'c> NetSim<'c> {
    /// Creates an idle simulator at time zero over the given cluster.
    pub fn new(cluster: &'c Cluster) -> Self {
        NetSim {
            cluster,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            free_pids: Vec::new(),
            flows: Vec::new(),
            flow_links: Vec::new(),
            live_head: NONE,
            live_tail: NONE,
            live_len: 0,
            link_flows: vec![Vec::new(); cluster.links().len()],
            slot_pos: Vec::new(),
            draining_clones: 0,
            stalled_clones: 0,
            paranoid: false,
            checking: false,
            fillings: 0,
            frontier_flows: 0,
            dirty_links: Vec::new(),
            dirty_stamp: vec![0; cluster.links().len()],
            dirty_epoch: 1,
            visit_link_stamp: vec![0; cluster.links().len()],
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            scratch_old_rates: Vec::new(),
            links: vec![
                LinkState {
                    factor: 1.0,
                    up: true,
                    failed: false,
                };
                cluster.links().len()
            ],
            last_submit: None,
            events: 0,
            scratch_residual: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_unfrozen: Vec::new(),
            flow_stamp: Vec::new(),
            stamp: 0,
            link_pos: vec![0; cluster.links().len()],
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: subsequent submissions bump the
    /// `simnet.transfers` / `simnet.bytes_submitted` counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Test/verification hook: every incremental refill marks *all*
    /// live flows dirty, degenerating to a from-scratch per-component
    /// filling after every event. A correct frontier produces a
    /// bit-identical event stream with this on or off — that is the
    /// incremental allocator's exactness contract (see the proptests).
    pub fn with_paranoid_refill(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Filling passes executed so far (one per dirty component).
    pub fn fillings(&self) -> u64 {
        self.fillings
    }

    /// Total flows touched by filling passes so far — the work metric
    /// the frontier allocator minimizes.
    pub fn frontier_flows(&self) -> u64 {
        self.frontier_flows
    }

    /// The cluster this simulator runs over.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total internal events processed so far — the engine-throughput
    /// numerator for `events/sec` benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// A link's effective capacity: nominal capacity times its factor.
    fn capacity(&self, li: usize) -> f64 {
        self.cluster.links()[li].capacity.as_bytes_per_sec() * self.links[li].factor
    }

    /// Saturation threshold for a link's residual during progressive
    /// filling: relative to the link's effective capacity, because the
    /// floating-point dust `residual -= delta * n` leaves behind on a
    /// saturated link scales with that capacity. An absolute epsilon
    /// (the old `1e-6` B/s) sits *inside* the dust band of a 100 GB/s
    /// fabric link, where a mathematically-saturated link could read
    /// as open and starve the freeze step. The `1e-6` floor keeps
    /// zero-capacity (failed/zero-factor) links saturated.
    fn sat_eps(&self, li: usize) -> f64 {
        (self.capacity(li) * 1e-9).max(1e-6)
    }

    /// The links a flow occupies, out of the shared arena.
    fn links_of(&self, id: usize) -> &[LinkId] {
        let f = &self.flows[id];
        &self.flow_links[f.links_start as usize..(f.links_start + f.links_len) as usize]
    }

    /// Submits a transfer of `size` bytes along `path`; a
    /// [`SimEvent::TransferDone`] with `token` fires on completion.
    ///
    /// The path's total α (link alphas + extra) elapses first; the flow
    /// then drains at its max-min allocated rate.
    ///
    /// Identical submissions arriving back-to-back at the same instant
    /// merge into one weighted flow (see the module docs); each still
    /// gets its own completion event at the same time the unmerged
    /// engine would have produced.
    pub fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token) {
        // A path over an already-failed link aborts after its latency
        // elapses (the sender learns of the failure one round-trip in).
        let dead = path.links.iter().any(|l| self.links[l.0].failed);
        self.telemetry.add_counter("simnet.transfers", 1.0);
        self.telemetry
            .add_counter("simnet.bytes_submitted", size.as_f64());
        let alpha = self.cluster.path_alpha(path);
        if let Some(last) = self.last_submit {
            // Merge only when nothing happened since the previous
            // submission (seq unchanged), at the same instant, and the
            // transfer is byte-for-byte identical — then the merged
            // clone is observationally indistinguishable.
            if last.seq == self.seq && last.at == self.now && last.alpha == alpha {
                let same = {
                    let f = &self.flows[last.flow];
                    f.remaining.to_bits() == size.as_f64().to_bits()
                        && f.aborted == dead
                        && !f.done
                        && f.active_clones == 0
                        && f.emitted == 0
                        && self.links_of(last.flow) == path.links.as_slice()
                };
                if same {
                    let id = last.flow;
                    self.flows[id].extra.push(token);
                    self.push(self.now + alpha, Internal::LatencyDone(id));
                    self.last_submit = Some(LastSubmit {
                        flow: id,
                        seq: self.seq,
                        at: self.now,
                        alpha,
                    });
                    return;
                }
            }
        }
        let cap = path
            .links
            .iter()
            .filter_map(|l| self.cluster.link(*l).per_flow_cap)
            .map(|b| b.as_bytes_per_sec())
            .fold(f64::INFINITY, f64::min);
        let links_start = self.flow_links.len() as u32;
        self.flow_links.extend_from_slice(&path.links);
        self.slot_pos.resize(self.flow_links.len(), 0);
        self.flows.push(Flow {
            token,
            extra: Vec::new(),
            links_start,
            links_len: path.links.len() as u32,
            remaining: size.as_f64(),
            rate: 0.0,
            cap,
            draining: false,
            done: false,
            aborted: dead,
            active_clones: 0,
            emitted: 0,
            live_prev: NONE,
            live_next: NONE,
            down_links: 0,
            indexed: false,
            drain_seq: 0,
            synced_at: self.now,
        });
        let id = self.flows.len() - 1;
        // Dead-at-birth flows (submitted over a failed link) never
        // contend for bandwidth and are never fault victims — exactly
        // the set the occupancy index must cover.
        if !dead {
            self.index_flow(id);
        }
        self.push(self.now + alpha, Internal::LatencyDone(id));
        self.last_submit = Some(LastSubmit {
            flow: id,
            seq: self.seq,
            at: self.now,
            alpha,
        });
    }

    /// Submits a wave of transfers at the current instant.
    ///
    /// Equivalent to calling [`submit_transfer`](Self::submit_transfer)
    /// for each element; spelled out because same-instant submissions
    /// are the engine's batch path — their activations land
    /// back-to-back on the queue, the per-activation filling is
    /// deferred to the last one, and the whole wave pays a single
    /// frontier refill instead of one per transfer.
    pub fn submit_wave(&mut self, wave: &[(Path, ByteSize, Token)]) {
        for (path, size, token) in wave {
            self.submit_transfer(path, *size, *token);
        }
    }

    /// Schedules a timer firing `after` from now with `token`.
    pub fn schedule_timer(&mut self, after: SimDuration, token: Token) {
        self.push(self.now + after, Internal::Timer(token));
    }

    /// Scales a link's capacity by `factor` (trace-driven variability).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn set_capacity_factor(&mut self, link: LinkId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "capacity factor must be positive: {factor}"
        );
        self.links[link.0].factor = factor;
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Current capacity factor of a link.
    pub fn capacity_factor(&self, link: LinkId) -> f64 {
        self.links[link.0].factor
    }

    /// Takes a link down (`up = false`) or brings it back up.
    ///
    /// While down, flows crossing the link stall at rate zero — they
    /// are not aborted and resume draining when the link returns. A
    /// permanently failed link ignores attempts to bring it up.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let st = &self.links[link.0];
        if st.failed || st.up == up {
            return;
        }
        self.links[link.0].up = up;
        self.note_link_transition(link.0, up);
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Permanently fails a link: every unfinished flow crossing it is
    /// aborted (a [`SimEvent::TransferAborted`] fires per flow) and any
    /// later submission over it aborts after its path latency. Failed
    /// links never come back up.
    pub fn fail_link(&mut self, link: LinkId) {
        if self.links[link.0].failed {
            return;
        }
        let was_up = self.links[link.0].up;
        self.links[link.0].failed = true;
        self.links[link.0].up = false;
        if was_up {
            self.note_link_transition(link.0, false);
        }
        // Victims come straight off the per-link occupancy index
        // (every not-done, not-aborted flow crossing the link);
        // ascending flow id matches the old full-scan order exactly.
        let mut victims: Vec<usize> = self.link_flows[link.0]
            .iter()
            .map(|&(f, _)| f as usize)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        for id in victims {
            self.abort_flow(id);
        }
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Repairs a permanently failed link: the failure flag clears and
    /// the link comes back up, so later submissions drain normally.
    /// Flows already aborted by the failure stay aborted — recovery is
    /// not retroactive. No effect on a link that never failed.
    pub fn recover_link(&mut self, link: LinkId) {
        if !self.links[link.0].failed {
            return;
        }
        self.links[link.0].failed = false;
        self.links[link.0].up = true;
        self.note_link_transition(link.0, true);
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// True if the link is currently up (neither down nor failed).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0].up
    }

    /// True if the link has permanently failed.
    pub fn link_is_failed(&self, link: LinkId) -> bool {
        self.links[link.0].failed
    }

    /// Schedules a fault to fire `after` from now, inside the
    /// simulation timeline. The fault itself is silent; see
    /// [`FaultAction`].
    pub fn schedule_fault(&mut self, after: SimDuration, action: FaultAction) {
        self.push(self.now + after, Internal::Fault(action));
    }

    /// Applies a fault action immediately.
    pub fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown(l) => self.set_link_up(l, false),
            FaultAction::LinkUp(l) => self.set_link_up(l, true),
            FaultAction::LinkFail(l) => self.fail_link(l),
            FaultAction::LinkRecover(l) => self.recover_link(l),
            FaultAction::SetCapacityFactor(l, f) => self.set_capacity_factor(l, f),
        }
    }

    fn abort_flow(&mut self, id: usize) {
        let f = &mut self.flows[id];
        f.aborted = true;
        if f.draining {
            f.draining = false;
            f.done = true;
            f.drain_seq = 0;
            let clones = f.active_clones;
            f.active_clones = 0;
            self.draining_clones -= clones as usize;
            if self.flows[id].down_links > 0 {
                self.stalled_clones -= clones as usize;
            }
            self.live_unlink(id);
            self.mark_flow_links_dirty(id);
            // One abort event per merged clone, in submission order —
            // exactly what separate flows would have produced.
            for _ in 0..clones {
                self.push(self.now, Internal::Aborted(id));
            }
        }
        // A latency-phase flow keeps its pending LatencyDone event(s),
        // which convert into the abort(s) when they fire.
        self.unindex_flow(id);
    }

    /// Number of flows currently in the fluid phase (draining), with
    /// merged flows counting once per clone. Counter-backed: O(1).
    pub fn draining_flows(&self) -> usize {
        self.draining_clones
    }

    /// Number of draining flows currently stalled behind a down link,
    /// with merged flows counting once per clone. Counter-backed: O(1).
    pub fn stalled_flows(&self) -> usize {
        self.stalled_clones
    }

    /// Advances the simulation to the next user-visible event and
    /// returns it, or `None` when nothing is pending.
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            let Reverse((t, seq, pid)) = self.queue.pop()?;
            let payload = self.payloads[pid as usize]
                .take()
                .expect("event payload consumed twice");
            self.free_pids.push(pid);
            self.events += 1;
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            match payload {
                Internal::Timer(token) => {
                    return Some(SimEvent::Timer { token, at: t });
                }
                Internal::LatencyDone(id) => {
                    let flow = &mut self.flows[id];
                    if flow.aborted {
                        let token = flow.take_token();
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                        return Some(SimEvent::TransferAborted { token, at: t });
                    }
                    if flow.remaining <= EPS_BYTES {
                        // Zero-byte transfer: completes right after latency.
                        let token = flow.take_token();
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                        return Some(SimEvent::TransferDone { token, at: t });
                    }
                    flow.draining = true;
                    flow.active_clones += 1;
                    self.draining_clones += 1;
                    if self.flows[id].active_clones == 1 {
                        // First clone: the flow joins the live list and
                        // learns how many of its links are down.
                        let down = self
                            .links_of(id)
                            .iter()
                            .filter(|l| !self.links[l.0].up)
                            .count() as u32;
                        let f = &mut self.flows[id];
                        f.down_links = down;
                        f.rate = 0.0;
                        f.synced_at = t;
                        f.drain_seq = 0;
                        self.live_push_back(id);
                    }
                    if self.flows[id].down_links > 0 {
                        self.stalled_clones += 1;
                    } else {
                        self.mark_flow_links_dirty(id);
                    }
                    // A same-instant activation that follows immediately
                    // recomputes the rates before any time passes or any
                    // caller code runs, so this refill would be thrown
                    // away: the frontier keeps accumulating instead, and
                    // a synchronized wave of arrivals pays one refill.
                    if !self.next_is_same_instant_activation() {
                        self.refill();
                    }
                }
                Internal::Drain(id) => {
                    if self.flows[id].drain_seq != seq | ARMED {
                        continue; // stale (refilled, stalled, aborted)
                    }
                    self.flows[id].drain_seq = seq;
                    self.sync_flow(id);
                    if self.flows[id].remaining > EPS_BYTES {
                        // Numerical guard: not actually drained yet.
                        // Restamp the flow at its residual finish and
                        // refill its component, which re-arms whichever
                        // flow now drains first.
                        self.flows[id].drain_seq = self.next_seq();
                        self.mark_flow_links_dirty(id);
                        self.refill();
                        continue;
                    }
                    let flow = &mut self.flows[id];
                    let token = flow.take_token();
                    flow.active_clones -= 1;
                    self.draining_clones -= 1;
                    if self.flows[id].down_links > 0 {
                        // A drained flow completes even while stalled.
                        self.stalled_clones -= 1;
                    }
                    if self.flows[id].active_clones == 0 {
                        self.flows[id].draining = false;
                        self.live_unlink(id);
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                    } else {
                        // Remaining merged clones finish at this same
                        // instant. The refill below restamps the flow
                        // whenever its per-clone rate moves; this drain
                        // covers the case where it does not (and the
                        // stalled case, which no filling sees).
                        let seq = self.next_seq();
                        self.flows[id].drain_seq = seq;
                        self.arm_drain(id, t);
                    }
                    self.mark_flow_links_dirty(id);
                    self.refill();
                    return Some(SimEvent::TransferDone { token, at: t });
                }
                Internal::Aborted(id) => {
                    let token = self.flows[id].take_token();
                    return Some(SimEvent::TransferAborted { token, at: t });
                }
                Internal::Fault(action) => {
                    // Silent: apply and keep looking for a user event.
                    self.apply_fault(action);
                }
            }
        }
    }

    /// Runs to quiescence, collecting every event.
    pub fn drain(&mut self) -> Vec<SimEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.step() {
            out.push(ev);
        }
        out
    }

    /// Claims the next event sequence number.
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, at: SimTime, payload: Internal) {
        let seq = self.next_seq();
        self.push_at_seq(at, seq, payload);
    }

    /// Queues `payload` at `(at, seq)`: drains sort under the stamp
    /// their flow claimed when its schedule last changed.
    fn push_at_seq(&mut self, at: SimTime, seq: u64, payload: Internal) {
        let pid = match self.free_pids.pop() {
            Some(pid) => {
                self.payloads[pid as usize] = Some(payload);
                pid
            }
            None => {
                self.payloads.push(Some(payload));
                (self.payloads.len() - 1) as u64
            }
        };
        self.queue.push(Reverse((at, seq, pid)));
    }

    /// Queues the flow's drain at `at` under its current drain stamp.
    fn arm_drain(&mut self, id: usize, at: SimTime) {
        let seq = self.flows[id].drain_seq;
        debug_assert!(
            seq != 0 && seq & ARMED == 0,
            "flow {id} has no unarmed stamp"
        );
        self.flows[id].drain_seq = seq | ARMED;
        self.push_at_seq(at, seq, Internal::Drain(id));
    }

    /// True when the next queued event is an *activation*: a
    /// LatencyDone at the current instant for a flow that will actually
    /// join the fluid phase (not aborted, not zero-byte). Rates
    /// recomputed now would be overwritten by that activation before
    /// any time passes or any caller code runs, so the current handler
    /// may skip its own filling.
    fn next_is_same_instant_activation(&self) -> bool {
        let Some(&Reverse((t, _, pid))) = self.queue.peek() else {
            return false;
        };
        if t != self.now {
            return false;
        }
        match self.payloads[pid as usize] {
            Some(Internal::LatencyDone(id)) => {
                let f = &self.flows[id];
                !f.aborted && f.remaining > EPS_BYTES
            }
            _ => false,
        }
    }

    // ---- intrusive live list ----

    fn live_push_back(&mut self, id: usize) {
        let id32 = id as u32;
        let prev = self.live_tail;
        {
            let f = &mut self.flows[id];
            f.live_prev = prev;
            f.live_next = NONE;
        }
        if prev == NONE {
            self.live_head = id32;
        } else {
            self.flows[prev as usize].live_next = id32;
        }
        self.live_tail = id32;
        self.live_len += 1;
    }

    fn live_unlink(&mut self, id: usize) {
        let (prev, next) = {
            let f = &self.flows[id];
            (f.live_prev, f.live_next)
        };
        if prev == NONE {
            self.live_head = next;
        } else {
            self.flows[prev as usize].live_next = next;
        }
        if next == NONE {
            self.live_tail = prev;
        } else {
            self.flows[next as usize].live_prev = prev;
        }
        let f = &mut self.flows[id];
        f.live_prev = NONE;
        f.live_next = NONE;
        self.live_len -= 1;
    }

    // ---- per-link occupancy index ----

    fn index_flow(&mut self, id: usize) {
        let (start, len) = {
            let f = &self.flows[id];
            (f.links_start as usize, f.links_len as usize)
        };
        for k in start..start + len {
            let li = self.flow_links[k].0;
            self.slot_pos[k] = self.link_flows[li].len() as u32;
            self.link_flows[li].push((id as u32, (k - start) as u32));
        }
        self.flows[id].indexed = true;
    }

    fn unindex_flow(&mut self, id: usize) {
        if !self.flows[id].indexed {
            return;
        }
        self.flows[id].indexed = false;
        let (start, len) = {
            let f = &self.flows[id];
            (f.links_start as usize, f.links_len as usize)
        };
        for k in start..start + len {
            let li = self.flow_links[k].0;
            let pos = self.slot_pos[k] as usize;
            let last = self.link_flows[li].pop().expect("occupancy entry present");
            if pos < self.link_flows[li].len() {
                // Swap-remove: fix the moved entry's back-pointer.
                self.link_flows[li][pos] = last;
                let (mf, ms) = last;
                let mstart = self.flows[mf as usize].links_start as usize;
                self.slot_pos[mstart + ms as usize] = pos as u32;
            }
        }
    }

    // ---- stall bookkeeping ----

    /// Updates per-flow down-link counters (and the stalled counter)
    /// after `link`'s transient availability flipped to `up`. This is
    /// also where stalling flows give their rate back (syncing their
    /// residual first) and where unstalling flows join the dirty
    /// frontier.
    fn note_link_transition(&mut self, li: usize, up: bool) {
        let mut ei = 0;
        while ei < self.link_flows[li].len() {
            let (fid, _) = self.link_flows[li][ei];
            ei += 1;
            let fid = fid as usize;
            if !self.flows[fid].draining {
                continue;
            }
            if up {
                self.flows[fid].down_links -= 1;
                if self.flows[fid].down_links == 0 {
                    self.stalled_clones -= self.flows[fid].active_clones as usize;
                    // Unstall: the refill assigns a fresh rate and
                    // schedules the drain.
                    self.mark_flow_links_dirty(fid);
                }
            } else {
                self.flows[fid].down_links += 1;
                if self.flows[fid].down_links == 1 {
                    self.stalled_clones += self.flows[fid].active_clones as usize;
                    self.sync_flow(fid);
                    self.flows[fid].rate = 0.0;
                    self.flows[fid].drain_seq = 0;
                    if self.flows[fid].remaining <= EPS_BYTES {
                        // Already-drained flows complete even while
                        // stalled; no filling sees a stalled flow, so
                        // its drain is armed here.
                        let seq = self.next_seq();
                        self.flows[fid].drain_seq = seq;
                        self.arm_drain(fid, self.now);
                    }
                    // Its departure frees share for its neighbours.
                    self.mark_flow_links_dirty(fid);
                }
            }
        }
    }

    // ---- frontier allocator ----

    /// Integrates one flow's residual up to `now` at its current rate.
    fn sync_flow(&mut self, id: usize) {
        let now = self.now;
        let f = &mut self.flows[id];
        let dt = now.duration_since(f.synced_at).as_secs();
        if dt > 0.0 && f.rate > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.synced_at = now;
    }

    fn mark_link_dirty(&mut self, li: usize) {
        if self.dirty_stamp[li] != self.dirty_epoch {
            self.dirty_stamp[li] = self.dirty_epoch;
            self.dirty_links.push(li);
        }
    }

    fn mark_flow_links_dirty(&mut self, id: usize) {
        let (start, len) = {
            let f = &self.flows[id];
            (f.links_start as usize, f.links_len as usize)
        };
        for k in start..start + len {
            let li = self.flow_links[k].0;
            self.mark_link_dirty(li);
        }
    }

    fn mark_all_live_dirty(&mut self) {
        let mut cur = self.live_head;
        while cur != NONE {
            let i = cur as usize;
            cur = self.flows[i].live_next;
            self.mark_flow_links_dirty(i);
        }
    }

    /// Filling entry: refills every connected flow component reachable
    /// from the accumulated dirty links. In debug builds, cross-checks
    /// the result against a from-scratch refill of every live
    /// component (the paranoid reference): any rate-bit divergence, or
    /// a component left without a queued drain for its earliest
    /// finisher, panics.
    fn refill(&mut self) {
        if self.paranoid {
            self.mark_all_live_dirty();
        }
        self.refill_dirty();
        #[cfg(debug_assertions)]
        {
            if !self.paranoid && !self.checking {
                self.checking = true;
                self.mark_all_live_dirty();
                self.refill_dirty();
                self.checking = false;
                let (mut draining, mut stalled) = (0, 0);
                let mut cur = self.live_head;
                while cur != NONE {
                    let f = &self.flows[cur as usize];
                    debug_assert!(f.draining, "live flow {cur} is not draining");
                    draining += f.active_clones as usize;
                    if f.down_links > 0 {
                        stalled += f.active_clones as usize;
                    }
                    cur = f.live_next;
                }
                debug_assert_eq!(
                    self.draining_clones, draining,
                    "draining counter out of sync"
                );
                debug_assert_eq!(self.stalled_clones, stalled, "stalled counter out of sync");
            }
        }
    }

    /// Walks the dirty frontier: discovers each touched connected
    /// component over the link<->flow bipartite graph (stalled flows
    /// excluded — they hold no rate) and refills it.
    fn refill_dirty(&mut self) {
        if self.dirty_links.is_empty() {
            return;
        }
        if self.flow_stamp.len() < self.flows.len() {
            self.flow_stamp.resize(self.flows.len(), 0);
        }
        self.stamp += 1;
        let vstamp = self.stamp;
        let dirty = std::mem::take(&mut self.dirty_links);
        for &seed in &dirty {
            if self.visit_link_stamp[seed] == vstamp {
                continue; // already swept into an earlier component
            }
            self.visit_link_stamp[seed] = vstamp;
            let mut comp_links = std::mem::take(&mut self.comp_links);
            let mut comp_flows = std::mem::take(&mut self.comp_flows);
            comp_links.clear();
            comp_flows.clear();
            comp_links.push(seed);
            let mut qi = 0;
            while qi < comp_links.len() {
                let l = comp_links[qi];
                qi += 1;
                let mut ei = 0;
                while ei < self.link_flows[l].len() {
                    let (fid, _) = self.link_flows[l][ei];
                    ei += 1;
                    let fid = fid as usize;
                    if self.flow_stamp[fid] == vstamp {
                        continue;
                    }
                    let (draining, down, start, len) = {
                        let f = &self.flows[fid];
                        (
                            f.draining,
                            f.down_links,
                            f.links_start as usize,
                            f.links_len as usize,
                        )
                    };
                    if !draining || down > 0 {
                        continue;
                    }
                    self.flow_stamp[fid] = vstamp;
                    comp_flows.push(fid);
                    for k in start..start + len {
                        let li = self.flow_links[k].0;
                        if self.visit_link_stamp[li] != vstamp {
                            self.visit_link_stamp[li] = vstamp;
                            comp_links.push(li);
                        }
                    }
                }
            }
            self.comp_links = comp_links;
            self.comp_flows = comp_flows;
            if !self.comp_flows.is_empty() {
                self.fill_component();
            }
        }
        self.dirty_links = dirty;
        self.dirty_links.clear();
        self.dirty_epoch += 1;
    }

    /// Progressive filling over one connected component
    /// (`self.comp_flows`), then the component's drain schedule.
    /// Rates of flows outside the component are untouched by
    /// construction, which is what makes the frontier refill
    /// bit-identical to a from-scratch per-component recompute.
    ///
    /// Merged flows enter the filling with their clone count as weight,
    /// which reproduces the arithmetic of the clones as separate flows
    /// exactly (equal deltas to identical flows, identical freezes).
    fn fill_component(&mut self) {
        let comp = std::mem::take(&mut self.comp_flows);
        if !self.checking {
            self.fillings += 1;
            self.frontier_flows += comp.len() as u64;
            self.telemetry.add_counter("engine.fillings", 1.0);
            self.telemetry
                .add_counter("engine.frontier_flows", comp.len() as f64);
        }
        let mut old_rates = std::mem::take(&mut self.scratch_old_rates);
        old_rates.clear();
        for &f in &comp {
            old_rates.push(self.flows[f].rate);
            self.flows[f].rate = 0.0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        // The component's links, in the order the walk found them. The
        // filling arithmetic below is per-link independent and its `min`
        // folds are order-insensitive, so that order never shows in the
        // allocated rates.
        let hot = std::mem::take(&mut self.comp_links);
        for (k, &li) in hot.iter().enumerate() {
            self.link_pos[li] = k as u32;
        }
        // residual[k] tracks hot[k].
        let mut residual = std::mem::take(&mut self.scratch_residual);
        residual.clear();
        for &li in &hot {
            residual.push(self.capacity(li));
        }
        let mut unfrozen = std::mem::take(&mut self.scratch_unfrozen);
        unfrozen.clear();
        unfrozen.extend_from_slice(&comp);
        let mut counts = std::mem::take(&mut self.scratch_counts);
        // Progressive filling: raise all unfrozen flows equally until a
        // link saturates or a flow hits its cap; freeze and repeat.
        while !unfrozen.is_empty() {
            counts.clear();
            counts.resize(hot.len(), 0);
            for &f in &unfrozen {
                let w = self.flows[f].active_clones as usize;
                for l in self.links_of(f) {
                    counts[self.link_pos[l.0] as usize] += w;
                }
            }
            let mut delta = f64::INFINITY;
            for (k, &n) in counts.iter().enumerate() {
                if n > 0 {
                    delta = delta.min(residual[k] / n as f64);
                }
            }
            for &f in &unfrozen {
                delta = delta.min(self.flows[f].cap - self.flows[f].rate);
            }
            if !delta.is_finite() || delta < 0.0 {
                break;
            }
            for &f in &unfrozen {
                self.flows[f].rate += delta;
            }
            for (k, &n) in counts.iter().enumerate() {
                residual[k] -= delta * n as f64;
            }
            // Freeze flows on saturated links or at their cap. The
            // epsilons are relative to the limit they guard: the dust
            // `residual -= delta * n` leaves on a saturated link scales
            // with the link's capacity (~1e-5 B/s on a 100 GB/s pod
            // uplink), so an absolute threshold either misses it —
            // leaving the iteration with nothing to freeze and the
            // stall guard below deflating every still-rising flow to
            // the bottleneck share — or would misfire on slow links.
            let mut froze = 0usize;
            for &f in &unfrozen {
                let cap = self.flows[f].cap;
                let at_cap = self.flows[f].rate >= cap - (cap * 1e-9).max(1e-6);
                let on_sat = self
                    .links_of(f)
                    .iter()
                    .any(|l| residual[self.link_pos[l.0] as usize] <= self.sat_eps(l.0));
                if at_cap || on_sat {
                    self.flow_stamp[f] = stamp;
                    froze += 1;
                }
            }
            if froze == 0 {
                // Numerical stall guard: freeze everything.
                for &f in &unfrozen {
                    self.flow_stamp[f] = stamp;
                }
            }
            let fs = &self.flow_stamp;
            unfrozen.retain(|&f| fs[f] != stamp);
        }
        #[cfg(debug_assertions)]
        if !self.checking {
            self.assert_max_min(&comp, &hot);
        }
        // Drain schedule. A flow whose rate bits moved resyncs and
        // claims a fresh stamp (staling any queued drain); every other
        // flow keeps its finish and stamp, bit for bit. Then the
        // component's earliest finisher — by (instant, stamp), the
        // order its drain pops in — gets a queued drain unless it
        // already has one: one drain per filling.
        let now = self.now;
        let mut first: Option<(SimTime, u64, usize)> = None;
        for (k, &f) in comp.iter().enumerate() {
            let old = old_rates[k];
            if self.flows[f].rate.to_bits() != old.to_bits() {
                assert!(
                    !self.checking,
                    "incremental filling diverged from full recompute: \
                     flow {f} rate {:e} (expected {old:e})",
                    self.flows[f].rate
                );
                let fl = &mut self.flows[f];
                let dt = now.duration_since(fl.synced_at).as_secs();
                if dt > 0.0 && old > 0.0 {
                    fl.remaining = (fl.remaining - old * dt).max(0.0);
                }
                fl.synced_at = now;
                fl.drain_seq = 0;
                if fl.finish().is_some() {
                    self.flows[f].drain_seq = self.next_seq();
                }
            }
            let fl = &self.flows[f];
            if let Some(at) = fl.finish() {
                let key = (at, fl.drain_seq & !ARMED, f);
                if first.is_none_or(|best| key < best) {
                    first = Some(key);
                }
            }
        }
        if let Some((at, _, f)) = first {
            if self.flows[f].drain_seq & ARMED == 0 {
                assert!(
                    !self.checking,
                    "drain schedule diverged from full recompute: \
                     earliest finisher {f} has no queued drain"
                );
                self.arm_drain(f, at);
            }
        }
        self.comp_flows = comp;
        self.scratch_old_rates = old_rates;
        self.comp_links = hot;
        self.scratch_residual = residual;
        self.scratch_unfrozen = unfrozen;
        self.scratch_counts = counts;
    }

    /// Max-min certificate for a filled component (`hot` lists its
    /// links, positioned by `link_pos`): no link carries more than its
    /// capacity, clones weighted, within ε = cap·1e-9; and every flow
    /// is at its cap or crosses a saturated link on which no flow gets
    /// a higher rate. Independent of the filling's own residuals, so a
    /// filling that freezes the wrong flows fails it.
    #[cfg(debug_assertions)]
    fn assert_max_min(&self, comp: &[usize], hot: &[usize]) {
        let mut load = vec![0.0f64; hot.len()];
        let mut top = vec![0.0f64; hot.len()];
        for &f in comp {
            let fl = &self.flows[f];
            for l in self.links_of(f) {
                let k = self.link_pos[l.0] as usize;
                load[k] += fl.rate * fl.active_clones as f64;
                top[k] = top[k].max(fl.rate);
            }
        }
        for (k, &li) in hot.iter().enumerate() {
            let cap = self.capacity(li);
            assert!(
                load[k] <= cap + cap * 1e-9,
                "max-min certificate: link {li} carries {:e} B/s over its {cap:e} B/s",
                load[k]
            );
        }
        for &f in comp {
            let fl = &self.flows[f];
            let at_cap = fl.rate >= fl.cap - (fl.cap * 1e-9).max(1e-6);
            let bottlenecked = self.links_of(f).iter().any(|l| {
                let k = self.link_pos[l.0] as usize;
                self.capacity(l.0) - load[k] <= self.sat_eps(l.0) && fl.rate >= top[k]
            });
            assert!(
                at_cap || bottlenecked,
                "max-min certificate: flow {f} at {:e} B/s is neither at its cap \
                 nor the top rate on a saturated link",
                fl.rate
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, InstanceId, Rank};
    use crate::hardware::InstanceSpec;
    use crate::units::Bandwidth;

    fn two_a100() -> Cluster {
        Cluster::homogeneous_a100(2)
    }

    #[test]
    fn single_transfer_matches_alpha_beta() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.intra_path(Rank(0), Rank(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let alpha = c.path_alpha(&path).as_secs();
        let bw = c.link(path.links[0]).capacity.as_bytes_per_sec();
        let expect = alpha + size.as_f64() / bw;
        assert!((ev.at().as_secs() - expect).abs() < 1e-9);
        assert!(sim.step().is_none());
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        // Both flows cross instance 0's egress port.
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(125); // at 12.5 GB/s: 10.49ms alone
        sim.submit_transfer(&path, size, 1);
        sim.submit_transfer(&path, size, 2);
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        let solo = size.as_f64() / Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let last = evs.last().unwrap().at().as_secs();
        // Equal sharing: both finish together at ~2x the solo time.
        assert!((last / (2.0 * solo) - 1.0).abs() < 0.01, "last={last}");
        let first = evs[0].at().as_secs();
        assert!((first - last).abs() < 1e-6);
    }

    #[test]
    fn early_finisher_releases_bandwidth() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(50), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(150), 2);
        let evs = sim.drain();
        assert_eq!(evs[0].token(), 1);
        assert_eq!(evs[1].token(), 2);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        // Flow 1: 50 MiB at bw/2. Flow 2: 50 MiB at bw/2 then 100 MiB at bw.
        let t1 = ByteSize::from_mib(50).as_f64() / (bw / 2.0);
        let t2 = t1 + ByteSize::from_mib(100).as_f64() / bw;
        assert!((evs[0].at().as_secs() - t1).abs() / t1 < 0.01);
        assert!((evs[1].at().as_secs() - t2).abs() / t2 < 0.01);
    }

    #[test]
    fn per_flow_cap_limits_tcp_stream() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::a100_server().with_tcp(), 2);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let capped = size.as_f64() / Bandwidth::from_gbps(20.0).as_bytes_per_sec();
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        assert!(
            (dur - capped).abs() / capped < 0.01,
            "dur={dur} capped={capped}"
        );
    }

    #[test]
    fn concurrent_group_flows_share_one_timeline() {
        // Two process groups (one cross-server ring per local GPU
        // slot on a fat tree) run their transfers in the SAME engine
        // timeline: their flows meet on the shared server uplinks and
        // split them by eq. 3 equal share, exactly as two solo runs
        // at half bandwidth — no cross-group event loss or reordering.
        let c = Cluster::fat_tree(2, 2);
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        // Group A = slot-0 ranks, group B = slot-1 ranks; both cross
        // the same NIC pair in the same direction at t=0.
        sim.submit_transfer(&path, size, 0xA);
        sim.submit_transfer(&path, size, 0xB);
        let together = sim.drain();
        assert_eq!(together.len(), 2, "both groups' transfers complete");
        let tokens: Vec<Token> = together.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![0xA, 0xB]);
        // Solo timeline for one group on the same fabric.
        let mut solo = NetSim::new(&c);
        solo.submit_transfer(&path, size, 0xA);
        let alone = solo.drain()[0].at().as_secs();
        let alpha = c.path_alpha(&path).as_secs();
        let shared = together.last().unwrap().at().as_secs();
        // Contended serial time = alpha + 2x the solo drain time.
        let expect = alpha + 2.0 * (alone - alpha);
        assert!(
            (shared - expect).abs() / expect < 0.01,
            "shared={shared} expect={expect}"
        );
        // Flow conservation: staggering group B by a timer tick still
        // delivers every byte of both groups, in submission order per
        // group, on one monotone clock.
        let mut stag = NetSim::new(&c);
        stag.submit_transfer(&path, size, 0xA);
        stag.schedule_timer(SimDuration::from_millis(1.0), 0xF1);
        let mut events = Vec::new();
        while let Some(ev) = stag.step() {
            if matches!(ev, SimEvent::Timer { token: 0xF1, .. }) {
                stag.submit_transfer(&path, size, 0xB);
            }
            events.push(ev);
        }
        let done: Vec<Token> = events
            .iter()
            .filter(|e| matches!(e, SimEvent::TransferDone { .. }))
            .map(|e| e.token())
            .collect();
        assert_eq!(done, vec![0xA, 0xB]);
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn parallel_tcp_streams_aggregate_past_the_cap() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::a100_server().with_tcp(), 2);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        for t in 0..4 {
            sim.submit_transfer(&path, size, t);
        }
        let evs = sim.drain();
        // Four 20 Gbps streams on a 100 Gbps port: all run at cap,
        // aggregate 80 Gbps; same finish as one stream alone.
        let capped = size.as_f64() / Bandwidth::from_gbps(20.0).as_bytes_per_sec();
        let last = evs.last().unwrap().at().as_secs() - c.path_alpha(&path).as_secs();
        assert!((last - capped).abs() / capped < 0.02, "last={last}");
    }

    #[test]
    fn capacity_factor_slows_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.set_capacity_factor(eg, 0.5);
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let slowed = size.as_f64() / (Bandwidth::from_gbps(100.0).as_bytes_per_sec() * 0.5);
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        assert!((dur - slowed).abs() / slowed < 0.01);
    }

    #[test]
    fn mid_flight_capacity_change_is_integrated() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        // Halve the link when roughly half the bytes are through.
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let half = size.as_f64() / 2.0 / bw;
        sim.schedule_timer(
            SimDuration::from_secs(half + c.path_alpha(&path).as_secs()),
            99,
        );
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::Timer { token: 99, .. }));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.set_capacity_factor(eg, 0.5);
        let done = sim.step().unwrap();
        let expect = c.path_alpha(&path).as_secs() + half + (size.as_f64() / 2.0) / (bw * 0.5);
        assert!(
            (done.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            done.at().as_secs()
        );
    }

    #[test]
    fn zero_byte_transfer_completes_after_latency() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::ZERO, 5);
        let ev = sim.step().unwrap();
        assert_eq!(ev.token(), 5);
        let alpha = c.path_alpha(&path).as_secs();
        assert!((ev.at().as_secs() - alpha).abs() < 1e-12);
    }

    #[test]
    fn timers_and_transfers_interleave_in_time_order() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.schedule_timer(SimDuration::from_micros(1.0), 2);
        sim.schedule_timer(SimDuration::from_secs(10.0), 3);
        let evs = sim.drain();
        let tokens: Vec<u64> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![2, 1, 3]);
        let times: Vec<f64> = evs.iter().map(|e| e.at().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn multi_hop_flow_bottlenecked_by_slowest_link() {
        // Cross-switch PCIe path: bottleneck is a Gen4 x16 hop (32 GB/s);
        // the inter-socket link is 35 GB/s so PCIe binds.
        let spec = InstanceSpec::a100_server().with_nvlink(crate::hardware::NvlinkTopology::None);
        let mut b = ClusterBuilder::new();
        b.add_instance(spec);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.intra_path(Rank(0), Rank(3));
        let size = ByteSize::from_mib(320);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        let bottleneck = size.as_f64() / Bandwidth::from_gbytes_per_sec(32.0).as_bytes_per_sec();
        assert!((dur - bottleneck).abs() / bottleneck < 0.01);
    }

    #[test]
    fn link_down_stalls_then_resumes() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let alpha = c.path_alpha(&path).as_secs();
        let half = size.as_f64() / 2.0 / bw;
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, size, 1);
        // Down for 10 ms starting at the halfway point.
        let outage = 0.010;
        sim.schedule_fault(
            SimDuration::from_secs(alpha + half),
            FaultAction::LinkDown(eg),
        );
        sim.schedule_fault(
            SimDuration::from_secs(alpha + half + outage),
            FaultAction::LinkUp(eg),
        );
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
        let expect = alpha + 2.0 * half + outage;
        assert!(
            (ev.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            ev.at().as_secs()
        );
    }

    #[test]
    fn down_link_quiesces_without_completing() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
        // The flow stalls forever: the sim quiesces with the flow live.
        assert!(sim.step().is_none());
        assert_eq!(sim.stalled_flows(), 1);
        assert!(!sim.link_is_up(eg));
        assert!(!sim.link_is_failed(eg));
        assert_eq!(sim.draining_flows(), 1);
        // Bringing the link back finishes the transfer.
        sim.set_link_up(eg, true);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
        assert_eq!(sim.stalled_flows(), 0);
        assert_eq!(sim.draining_flows(), 0);
    }

    #[test]
    fn fail_link_aborts_in_flight_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        let fail_at = SimDuration::from_millis(2.0);
        sim.submit_transfer(&path, ByteSize::from_mib(100), 7);
        sim.schedule_fault(fail_at, FaultAction::LinkFail(eg));
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 7, .. }));
        assert!((ev.at().as_secs() - fail_at.as_secs()).abs() < 1e-9);
        assert!(sim.link_is_failed(eg));
        assert!(sim.step().is_none());
        // Failed links never come back.
        sim.set_link_up(eg, true);
        assert!(!sim.link_is_up(eg));
    }

    #[test]
    fn recover_link_revives_future_submissions() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.fail_link(eg);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 1, .. }));
        // Repair: the failure clears and new traffic drains normally.
        sim.recover_link(eg);
        assert!(!sim.link_is_failed(eg));
        assert!(sim.link_is_up(eg));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 2);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 2, .. }));
        // The earlier abort is not retroactively undone.
        assert!(sim.step().is_none());
    }

    #[test]
    fn scheduled_recovery_lets_a_late_submission_finish() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let eg = c.nic_egress_link(InstanceId(0));
        sim.fail_link(eg);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkRecover(eg));
        // Submitted while failed, but recovery fires before the flow's
        // latency elapses only if the engine re-checks at drain time —
        // it does not, so this one aborts...
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        let evs = sim.drain();
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        // ...while a post-recovery submission completes.
        assert!(!sim.link_is_failed(eg));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 2);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 2, .. }));
    }

    #[test]
    fn submission_over_failed_link_aborts_after_latency() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.fail_link(c.nic_egress_link(InstanceId(0)));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 3);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 3, .. }));
        let alpha = c.path_alpha(&path).as_secs();
        assert!((ev.at().as_secs() - alpha).abs() < 1e-12);
    }

    #[test]
    fn fail_link_spares_disjoint_flows() {
        let c = Cluster::homogeneous_a100(3);
        let mut sim = NetSim::new(&c);
        let doomed = c.net_path(InstanceId(0), InstanceId(1));
        let spared = c.net_path(InstanceId(2), InstanceId(1));
        sim.submit_transfer(&doomed, ByteSize::from_mib(50), 1);
        sim.submit_transfer(&spared, ByteSize::from_mib(50), 2);
        sim.schedule_fault(
            SimDuration::from_millis(1.0),
            FaultAction::LinkFail(c.nic_egress_link(InstanceId(0))),
        );
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        assert!(matches!(evs[1], SimEvent::TransferDone { token: 2, .. }));
        assert_eq!(sim.draining_flows(), 0);
    }

    #[test]
    fn scheduled_degradation_matches_manual_factor_change() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let half = size.as_f64() / 2.0 / bw;
        let eg = c.nic_egress_link(InstanceId(0));
        sim.schedule_fault(
            SimDuration::from_secs(half + c.path_alpha(&path).as_secs()),
            FaultAction::SetCapacityFactor(eg, 0.5),
        );
        sim.submit_transfer(&path, size, 1);
        let done = sim.step().unwrap();
        let expect = c.path_alpha(&path).as_secs() + half + (size.as_f64() / 2.0) / (bw * 0.5);
        assert!(
            (done.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            done.at().as_secs()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let c = two_a100();
            let mut sim = NetSim::new(&c);
            let path = c.net_path(InstanceId(0), InstanceId(1));
            for t in 0..8 {
                sim.submit_transfer(&path, ByteSize::from_mib(10 + t), t);
            }
            sim.drain()
                .into_iter()
                .map(|e| (e.token(), e.at().as_secs().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn identical_submissions_merge_into_one_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        for t in 0..4 {
            sim.submit_transfer(&path, size, t);
        }
        // One merged flow carries all four tokens...
        assert_eq!(sim.flows.len(), 1);
        assert_eq!(sim.flows[0].weight(), 4);
        let evs = sim.drain();
        // ...but each submission still gets its own event, in order,
        // at the time four separate equal-share flows would finish.
        assert_eq!(evs.len(), 4);
        let tokens: Vec<u64> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let expect = c.path_alpha(&path).as_secs() + 4.0 * size.as_f64() / bw;
        for e in &evs {
            assert!(
                (e.at().as_secs() - expect).abs() / expect < 0.01,
                "got {} want {expect}",
                e.at().as_secs()
            );
        }
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn merge_requires_an_identical_back_to_back_submission() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let rev = c.net_path(InstanceId(1), InstanceId(0));
        // Different size: no merge.
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 2);
        assert_eq!(sim.flows.len(), 2);
        // Different path: no merge.
        sim.submit_transfer(&rev, ByteSize::from_mib(20), 3);
        assert_eq!(sim.flows.len(), 3);
        // An intervening event (timer push) kills the window.
        sim.submit_transfer(&path, ByteSize::from_mib(20), 4);
        sim.schedule_timer(SimDuration::from_secs(100.0), 9);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 5);
        assert_eq!(sim.flows.len(), 5);
        // Interleaving resets the batch: A A B A is three flows + one
        // merge, never a merge across B.
        let mut sim2 = NetSim::new(&c);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 1);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 2);
        sim2.submit_transfer(&rev, ByteSize::from_mib(8), 3);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 4);
        assert_eq!(sim2.flows.len(), 3);
    }

    #[test]
    fn merged_flows_abort_per_token() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(100), 2);
        assert_eq!(sim.flows.len(), 1);
        sim.schedule_fault(SimDuration::from_millis(2.0), FaultAction::LinkFail(eg));
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        assert!(matches!(evs[1], SimEvent::TransferAborted { token: 2, .. }));
        assert_eq!(evs[0].at(), evs[1].at());
    }

    #[test]
    fn merged_zero_byte_transfers_emit_every_token() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        for t in 0..3 {
            sim.submit_transfer(&path, ByteSize::ZERO, t);
        }
        assert_eq!(sim.flows.len(), 1);
        let evs = sim.drain();
        assert_eq!(evs.len(), 3);
        let alpha = c.path_alpha(&path).as_secs();
        for (t, e) in evs.iter().enumerate() {
            assert_eq!(e.token(), t as u64);
            assert!((e.at().as_secs() - alpha).abs() < 1e-12);
        }
    }

    #[test]
    fn contended_fan_in_matches_max_min_shares() {
        // Flows 1 and 2 leave instance 0, flow 3 leaves instance 2; all
        // three land on instance 1's ingress NIC, the shared bottleneck.
        // Max-min: a third each until flow 1 drains, then halves until
        // flow 3 drains, then flow 2 alone. Debug builds additionally
        // certify every filling on the way.
        let c = Cluster::homogeneous_a100(3);
        let mut sim = NetSim::new(&c);
        let p01 = c.net_path(InstanceId(0), InstanceId(1));
        let p21 = c.net_path(InstanceId(2), InstanceId(1));
        sim.submit_transfer(&p01, ByteSize::from_mib(50), 1);
        sim.submit_transfer(&p01, ByteSize::from_mib(150), 2);
        sim.submit_transfer(&p21, ByteSize::from_mib(75), 3);
        let evs = sim.drain();
        let tokens: Vec<Token> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![1, 3, 2]);
        let mib_time =
            ByteSize::from_mib(1).as_f64() / Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let alpha = c.path_alpha(&p01).as_secs();
        for (e, mib) in evs.iter().zip([150.0, 200.0, 275.0]) {
            let want = alpha + mib * mib_time;
            assert!(
                (e.at().as_secs() - want).abs() / want < 1e-9,
                "token {}: got {} want {want}",
                e.token(),
                e.at().as_secs()
            );
        }
    }

    /// Regression: progressive filling must freeze *only* the flows on
    /// a saturated constraint, even when `residual -= delta * n` leaves
    /// capacity-scaled floating-point dust behind. 11 flows sharing a
    /// 12.5 GB/s pod uplink produce a residual of ~1.9e-6 B/s at
    /// saturation — above the old absolute 1e-6 epsilon, so no flow
    /// froze and the stall guard froze the whole fleet mid-rise,
    /// deflating an unrelated NIC-bound flow to the bottleneck share
    /// (an 11x slowdown). The capacity-relative epsilon freezes the
    /// pod flows and lets the victim keep rising to its NIC rate.
    #[test]
    fn dusty_saturation_freezes_only_the_bottlenecked_flows() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::dgx_a100(), 4);
        // Pods of 2 at oversubscription 2: pod uplink = 2 NICs / 2 =
        // one NIC's 12.5 GB/s, shared by all cross-pod flows.
        b.with_pod_size(2).with_oversubscription(2.0);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let cross = c.net_path(InstanceId(0), InstanceId(2));
        // Distinct sizes prevent same-instant clone merging: 11
        // separate flows contend on pod0's uplink.
        for i in 0..11u64 {
            sim.submit_transfer(&cross, ByteSize::from_kib(512 + i), i);
        }
        // The victim shares no link with the cross-pod flows (its
        // own egress NIC and ingress NIC) and must drain at the
        // full 12.5 GB/s NIC rate, not the 1.14 GB/s pod share.
        let victim = c.net_path(InstanceId(1), InstanceId(0));
        sim.submit_transfer(&victim, ByteSize::from_mib(1), 99);
        let t = sim
            .drain()
            .into_iter()
            .find(|e| e.token() == 99)
            .expect("victim completes")
            .at()
            .as_secs();
        let solo = ByteSize::from_mib(1).as_f64() / 12.5e9;
        assert!(
            t < 3.0 * solo,
            "victim took {t}s vs ~{solo}s solo — deflated by the stall guard"
        );
    }

    #[test]
    fn stalls_and_degradation_keep_every_token() {
        let c = two_a100();
        let eg = c.nic_egress_link(InstanceId(0));
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(40), 2);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
        sim.schedule_fault(SimDuration::from_millis(9.0), FaultAction::LinkUp(eg));
        sim.schedule_fault(
            SimDuration::from_millis(12.0),
            FaultAction::SetCapacityFactor(eg, 0.5),
        );
        let evs = sim.drain();
        let tokens: Vec<Token> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![2, 1]);
        assert!(evs
            .iter()
            .all(|e| matches!(e, SimEvent::TransferDone { .. })));
        // 8 ms of outage on top of 140 MiB through the port.
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        assert!(evs[1].at().as_secs() > 0.008 + ByteSize::from_mib(140).as_f64() / bw);
        assert_eq!(sim.draining_flows(), 0);
        assert_eq!(sim.stalled_flows(), 0);
    }

    #[test]
    fn same_instant_finishers_surface_in_submission_order() {
        // Pins the same-instant order. Equal flows on disjoint NIC
        // pairs finish at bit-identical instants; their drains pop in
        // the order their stamps were claimed, which for one activation
        // wave is submission order — whichever pair goes first.
        let c = Cluster::homogeneous_a100(4);
        let a = c.net_path(InstanceId(0), InstanceId(1));
        let b = c.net_path(InstanceId(2), InstanceId(3));
        let size = ByteSize::from_mib(8);
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut sim = NetSim::new(&c);
            sim.submit_transfer(first, size, 1);
            sim.submit_transfer(second, size, 2);
            let evs = sim.drain();
            assert_eq!(evs.iter().map(|e| e.token()).collect::<Vec<_>>(), [1, 2]);
            assert_eq!(evs[0].at(), evs[1].at());
        }
        // Equal flows fanning into one ingress NIC share a component:
        // the earlier submission drains first, and the later one,
        // re-rated by that departure, follows within rounding.
        let mut sim = NetSim::new(&c);
        sim.submit_transfer(&c.net_path(InstanceId(0), InstanceId(1)), size, 1);
        sim.submit_transfer(&c.net_path(InstanceId(2), InstanceId(1)), size, 2);
        let evs = sim.drain();
        assert_eq!(evs.iter().map(|e| e.token()).collect::<Vec<_>>(), [1, 2]);
        let gap = evs[1].at().as_secs() - evs[0].at().as_secs();
        assert!((0.0..1e-15).contains(&gap), "gap {gap}");
    }

    #[test]
    fn contended_storm_keeps_the_event_queue_bounded() {
        // Staggered arrivals crossing oversubscribed pod uplinks: every
        // arrival refills one large component. Each filling queues at
        // most one drain, which holds the queue to the live flows plus
        // the caller's pending events. (Queuing a drain per re-rated
        // flow instead grows it quadratically in the component size.)
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::dgx_a100(), 16);
        b.with_pod_size(4).with_oversubscription(2.0);
        let c = b.build();
        let n = c.instance_count();
        const TIMER_BASE: u64 = 1 << 32;
        let mut sim = NetSim::new(&c);
        let total = 8 * n;
        for k in 0..total {
            sim.schedule_timer(
                SimDuration::from_micros(1.0 + k as f64 * 0.5),
                TIMER_BASE + k as u64,
            );
        }
        let mut peak_excess = 0isize;
        let mut done = 0;
        while let Some(ev) = sim.step() {
            match ev {
                SimEvent::Timer { token, .. } => {
                    let k = (token - TIMER_BASE) as usize;
                    let src = k % n;
                    let dst = (src + 4 + k / n) % n;
                    let kib = 64 + (k as u64).wrapping_mul(2654435761) % 384;
                    sim.submit_transfer(
                        &c.net_path(InstanceId(src), InstanceId(dst)),
                        ByteSize::from_kib(kib),
                        k as Token,
                    );
                }
                _ => done += 1,
            }
            // Latency, timer, fault and abort events are the caller's;
            // everything else queued is a drain.
            let pending = sim
                .queue
                .iter()
                .filter(|Reverse((_, _, pid))| {
                    !matches!(sim.payloads[*pid as usize], Some(Internal::Drain(_)))
                })
                .count();
            let excess = sim.queue.len() as isize - (sim.live_len + pending) as isize;
            peak_excess = peak_excess.max(excess);
        }
        assert_eq!(done, total, "every transfer completes");
        assert!(
            peak_excess <= 2,
            "queued events exceeded live flows plus pending latency, timer \
             and fault events by {peak_excess}"
        );
    }

    #[test]
    fn synchronized_wave_pays_one_filling() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        // Distinct sizes defeat aggregation: four real flows, one port.
        let wave: Vec<(Path, ByteSize, Token)> = (0..4u64)
            .map(|t| (path.clone(), ByteSize::from_mib(10 * (t + 1)), t))
            .collect();
        sim.submit_wave(&wave);
        // Observe right after the activation burst, before completions.
        sim.schedule_timer(SimDuration::from_millis(1.0), 99);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::Timer { token: 99, .. }));
        assert_eq!(sim.fillings(), 1, "one filling for the whole wave");
        assert_eq!(sim.frontier_flows(), 4);
        assert_eq!(sim.draining_flows(), 4);
        // One queued drain covers the whole component.
        assert_eq!(sim.queue.len(), 1);
        assert_eq!(sim.drain().len(), 4);
    }

    #[test]
    fn disjoint_components_refill_independently() {
        // Two flows on disjoint ports: each completion's frontier must
        // touch only its own component, so total frontier work stays
        // O(1) per event instead of O(live).
        let c = Cluster::fat_tree(4, 1);
        let mut sim = NetSim::new(&c);
        sim.submit_transfer(
            &c.net_path(InstanceId(0), InstanceId(2)),
            ByteSize::from_mib(64),
            1,
        );
        sim.submit_transfer(
            &c.net_path(InstanceId(3), InstanceId(1)),
            ByteSize::from_mib(32),
            2,
        );
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        // Activation wave: one fill per (single-flow) component; each
        // completion then refills nothing (component empties).
        assert!(
            sim.frontier_flows() <= 4,
            "frontier did not stay local: {}",
            sim.frontier_flows()
        );
    }

    #[test]
    fn paranoid_refill_matches_frontier_refill() {
        // The exactness contract: treating every live flow as dirty on
        // every event (a from-scratch filling) must reproduce the
        // frontier refill's event stream bit for bit.
        let c = Cluster::fat_tree(6, 1);
        let eg = c.nic_egress_link(InstanceId(0));
        let run = |paranoid: bool| {
            let mut sim = NetSim::new(&c).with_paranoid_refill(paranoid);
            for (i, t) in [(0usize, 1usize), (2, 3), (4, 5), (1, 2)]
                .iter()
                .enumerate()
            {
                sim.submit_transfer(
                    &c.net_path(InstanceId(t.0), InstanceId(t.1)),
                    ByteSize::from_mib(16 + 8 * i as u64),
                    i as Token,
                );
            }
            sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
            sim.schedule_fault(SimDuration::from_millis(3.0), FaultAction::LinkUp(eg));
            sim.drain()
                .into_iter()
                .map(|e| (e.token(), e.at().as_secs().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn merged_flows_contend_with_their_full_weight() {
        // Three identical flows (merged) plus one distinct flow on the
        // same port: the distinct flow must see a quarter share, not a
        // half share — the merge is weight-aware.
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(40);
        for t in 0..3 {
            sim.submit_transfer(&path, size, t);
        }
        sim.submit_transfer(&path, ByteSize::from_mib(10), 9);
        assert_eq!(sim.flows.len(), 2);
        assert_eq!(sim.draining_flows(), 0);
        let evs = sim.drain();
        assert_eq!(evs.len(), 4);
        // Token 9 finishes first: 10 MiB at a 1/4 share of 12.5 GB/s.
        assert_eq!(evs[0].token(), 9);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let t9 = c.path_alpha(&path).as_secs() + ByteSize::from_mib(10).as_f64() / (bw / 4.0);
        assert!(
            (evs[0].at().as_secs() - t9).abs() / t9 < 0.01,
            "got {} want {t9}",
            evs[0].at().as_secs()
        );
    }
}
