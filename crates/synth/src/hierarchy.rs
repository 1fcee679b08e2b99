//! Hierarchical two-tier synthesis for cluster-scale fleets.
//!
//! The flat annealer searches one flow space per sub-collective whose
//! size grows with every GPU in the job; past a few dozen servers most
//! of that space is redundant — identical servers want identical local
//! aggregation, and only the server-level tree is genuinely worth
//! searching. Following the decomposition insight of TACCL
//! (arXiv:2111.04867) and TACOS (arXiv:2304.05301), hierarchical mode
//! splits the problem at the NIC boundary:
//!
//! 1. **Intra-server tier** — for each *distinct instance shape*
//!    (member count + profiled local fabric), the local aggregation
//!    star is solved once: leader candidates are ranked by the cost of
//!    their slowest member→leader edge, and the ranking is reused by
//!    every identical server. Sub-collective `m` takes the `m`-th best
//!    leader, so parallel subs spread load over disjoint NVLinks just
//!    like the flat search.
//! 2. **Inter-server tier** — the full annealed search runs over a
//!    reduced topology with **one flow endpoint per NIC** (each
//!    instance represented by a single rank), so the search space is
//!    O(servers), not O(GPUs).
//!
//! The two tiers compose back into ordinary [`Strategy`] trees: the
//! reduced solution's parent maps and roots transfer verbatim (its
//! instance ids are real instance ids), leaders come from the intra
//! tier, and the result is realized, validated by the same
//! `validate_sub`/flow-conservation machinery as flat strategies, and
//! polished with a short anneal. If composition fails validation the
//! caller falls back to the flat search — hierarchical mode can shrink
//! the search, never break it.
//!
//! Enabled via [`SynthConfig::hierarchical`](crate::solver::SynthConfig):
//! [`Hierarchical::Auto`] (the default) decomposes at 64+ GPUs.
//! AllToAll synthesis stays analytic and is unaffected.

use std::collections::BTreeMap;

use adapcc_simnet::cluster::{InstanceId, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_topo::logical::LogicalNode;

use crate::primitive::Primitive;
use crate::solver::{group_by_instance, instance_of, Plan, SynthRequest, Synthesizer, TreeSpec};
use crate::strategy::Strategy;

/// When the synthesizer decomposes into intra/inter tiers instead of
/// running the flat whole-fleet search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Hierarchical {
    /// Decide by fleet size: decompose at
    /// [`AUTO_GPU_THRESHOLD`](Hierarchical::AUTO_GPU_THRESHOLD)+ GPUs.
    /// Below it the flat search is tractable and explores strictly
    /// more of the space.
    #[default]
    Auto,
    /// Always decompose (when the fleet is reducible at all: at least
    /// two instances and more GPUs than instances).
    On,
    /// Never decompose.
    Off,
}

impl Hierarchical {
    /// GPU count at which [`Hierarchical::Auto`] switches to the
    /// two-tier decomposition.
    pub const AUTO_GPU_THRESHOLD: usize = 64;

    /// Whether a job with `gpus` participants over `instances` servers
    /// should synthesize hierarchically. A job with one instance, or
    /// with one GPU per instance, has nothing to decompose and always
    /// runs flat (the reduced inter-tier problem *is* such a job, which
    /// is what terminates the recursion).
    pub fn enabled_for(self, gpus: usize, instances: usize) -> bool {
        let reducible = instances >= 2 && gpus > instances;
        match self {
            Hierarchical::Off => false,
            Hierarchical::On => reducible,
            Hierarchical::Auto => reducible && gpus >= Self::AUTO_GPU_THRESHOLD,
        }
    }
}

/// Salt deriving the composed plan's polish-anneal RNG stream from the
/// request seed, distinct from the cold (`^ 0x5EED_CAFE`) and warm
/// (`^ 0x3A3A_F00D`) streams.
const HIER_POLISH_SALT: u64 = 0x41E2_7133_71E2_0001;

/// Reference payload for intra-tier leader scoring and shape-class
/// fingerprints.
const CLASS_PAYLOAD_MIB: u64 = 4;

/// Pipelining chunk floor for hierarchical fleets: one doubling per
/// fleet doubling past 32 servers, capped at 4 MiB.
///
/// Tiny chunks are the right call on a handful of servers, but on a
/// cluster-scale job every extra chunk multiplies per-message proxy
/// overhead across thousands of hop transfers, while the pipeline fill
/// it saves is already amortized over the deep inter-server tree. The
/// α–β cost model prices neither proxy wakeups nor descriptor rings, so
/// left alone it always drifts to the smallest grid entry; the floor
/// encodes that fleet-scale coarsening instead.
fn chunk_floor(instances: usize) -> ByteSize {
    let mut floor = 256 * 1024u64;
    let mut fleet = 32usize;
    while instances > fleet && floor < 4 * 1024 * 1024 {
        floor *= 2;
        fleet *= 2;
    }
    ByteSize::from_bytes(floor)
}

/// The hierarchical path of the reduce family. Returns `None` when the
/// composed strategy fails realization or validation — the caller then
/// falls back to the flat search.
pub(crate) fn synthesize_hierarchical(
    synth: &Synthesizer<'_>,
    req: &SynthRequest,
    by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
) -> Option<(Strategy, Plan)> {
    // Re-scope the synthesizer onto a chunk grid floored for this fleet
    // size, so the reduced solve, composition and polish all search the
    // coarsened grid (small fleets keep the full grid and an identical
    // synthesizer). The re-scoped clone shares the caller's cost model,
    // built here first so both price the fabric from one table.
    let floor = chunk_floor(by_inst.len());
    let scoped: Synthesizer<'_>;
    let synth = if synth.config().chunk_grid.iter().any(|c| *c < floor) {
        let mut cfg = synth.config().clone();
        cfg.chunk_grid.retain(|c| *c >= floor);
        if cfg.chunk_grid.is_empty() {
            cfg.chunk_grid.push(floor);
        }
        synth.cost_model();
        scoped = synth.clone().with_config(cfg);
        &scoped
    } else {
        synth
    };

    // ---- Intra tier: one leader ranking per distinct instance shape.
    let leader_orders = intra_tier_orders(synth, by_inst);

    // ---- Inter tier: anneal over one endpoint per NIC.
    let endpoints: BTreeMap<InstanceId, Rank> = by_inst.iter().map(|(i, m)| (*i, m[0])).collect();
    let mut reduced = SynthRequest::new(
        req.primitive,
        req.tensor,
        req.parallelism,
        endpoints.values().copied().collect(),
    );
    reduced.seed = req.seed;
    reduced.root = req.root.map(|r| endpoints[&instance_of(synth.topo(), r)]);
    // The reduced job has exactly one GPU per instance, so this call
    // cannot re-enter the hierarchical path.
    let (_, reduced_plan) = synth.synthesize_reduce_plan(&reduced);

    // ---- Compose: reduced parent maps + roots transfer verbatim
    // (their instance ids are real), leaders come from the intra tier.
    let single_root: Option<Rank> = if req.primitive == Primitive::AllReduce && req.root.is_none() {
        None // reduced solve spread per-sub roots; keep the spread
    } else {
        Some(req.root.unwrap_or_else(|| {
            let ri = reduced_plan.specs[0].root_inst;
            by_inst[&ri][0]
        }))
    };
    let specs: Vec<TreeSpec> = reduced_plan
        .specs
        .iter()
        .enumerate()
        .map(|(m, rspec)| {
            let mut leader = BTreeMap::new();
            for (inst, members) in by_inst {
                let order = &leader_orders[inst];
                leader.insert(*inst, members[order[m % order.len()]]);
            }
            let (root, root_inst) = match single_root {
                Some(r) => (r, instance_of(synth.topo(), r)),
                None => (leader[&rspec.root_inst], rspec.root_inst),
            };
            leader.insert(root_inst, root);
            TreeSpec {
                leader,
                parent: rspec.parent.clone(),
                root,
                root_inst,
                via_hub: BTreeMap::new(),
                chunk: rspec.chunk,
                fraction: rspec.fraction,
            }
        })
        .collect();
    let plan = Plan { specs };

    // ---- Validate through the same machinery as flat strategies,
    // then polish with a short anneal (hubs and leader swaps are live
    // mutations there, so relays stay reachable in hierarchical mode).
    let model = synth.cost_model();
    let hubs = group_by_instance(synth.topo(), &req.relays);
    let (cost, strategy) = synth.eval_plan(&plan, req, by_inst, &hubs, model)?;
    synth.telemetry().add_counter("synth.hierarchical", 1.0);
    let polish_iters = synth.config().anneal_iters / 8;
    let (_, plan, strategy) = synth.refine_plan(
        cost,
        plan,
        strategy,
        req,
        by_inst,
        &hubs,
        model,
        polish_iters,
        req.seed ^ HIER_POLISH_SALT,
        1,
    );
    Some((strategy, plan))
}

/// Solves the intra-server tier once per distinct instance shape and
/// returns each instance's leader ranking (local indices, best first).
///
/// The shape class is the bit-exact table of profiled pairwise transfer
/// times at a reference payload: two instances share a class — and a
/// solution — only when their local fabrics profiled identically.
fn intra_tier_orders(
    synth: &Synthesizer<'_>,
    by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
) -> BTreeMap<InstanceId, Vec<usize>> {
    let reference = ByteSize::from_mib(CLASS_PAYLOAD_MIB);
    // (class fingerprint, solved leader order) per distinct shape.
    let mut classes: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
    let mut orders = BTreeMap::new();
    for (inst, members) in by_inst {
        let k = members.len();
        let mut key = Vec::with_capacity(k * k);
        for a in 0..k {
            for b in 0..k {
                if a == b {
                    key.push(0);
                    continue;
                }
                let bits = synth
                    .topo()
                    .edge_between(LogicalNode::Gpu(members[a]), LogicalNode::Gpu(members[b]))
                    .and_then(|e| synth.profile().get(e))
                    .map(|ab| ab.transfer_time(reference).as_secs().to_bits())
                    .unwrap_or(u64::MAX);
                key.push(bits);
            }
        }
        let order = match classes.iter().find(|(fp, _)| *fp == key) {
            Some((_, order)) => order.clone(),
            None => {
                // Solve this class once: rank leader candidates by the
                // slowest member→leader edge of their aggregation star
                // (the local fan-in completes when its worst spoke
                // does), index as the deterministic tie-break.
                let cost_of = |bits: u64| {
                    if bits == u64::MAX {
                        f64::INFINITY
                    } else {
                        f64::from_bits(bits)
                    }
                };
                let mut scored: Vec<(f64, usize)> = (0..k)
                    .map(|li| {
                        let worst = (0..k)
                            .filter(|a| *a != li)
                            .map(|a| cost_of(key[a * k + li]))
                            .fold(0.0_f64, f64::max);
                        (worst, li)
                    })
                    .collect();
                scored.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1)));
                let order: Vec<usize> = scored.into_iter().map(|(_, li)| li).collect();
                classes.push((key, order.clone()));
                order
            }
        };
        orders.insert(*inst, order);
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SynthConfig;
    use adapcc_profile::profiler::Profiler;
    use adapcc_simnet::cluster::Cluster;
    use adapcc_topo::detect::Detector;

    fn synth_ctx(
        servers: usize,
    ) -> (
        adapcc_topo::logical::LogicalTopology,
        adapcc_profile::profiler::LinkProfile,
    ) {
        let cluster = Cluster::homogeneous_a100(servers);
        let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
        let profile = Profiler::new(&cluster, &topo, 1).run().links;
        (topo, profile)
    }

    #[test]
    fn auto_threshold_gates_decomposition() {
        let h = Hierarchical::Auto;
        assert!(!h.enabled_for(32, 8), "below the GPU threshold");
        assert!(h.enabled_for(64, 16));
        assert!(h.enabled_for(2048, 512));
        // Irreducible shapes never decompose, whatever the mode.
        for mode in [Hierarchical::Auto, Hierarchical::On] {
            assert!(!mode.enabled_for(512, 512), "one GPU per instance");
            assert!(!mode.enabled_for(8, 1), "single instance");
        }
        assert!(Hierarchical::On.enabled_for(8, 2));
        assert!(!Hierarchical::Off.enabled_for(2048, 512));
    }

    #[test]
    fn forced_hierarchical_strategies_validate() {
        let (topo, profile) = synth_ctx(4);
        let config = SynthConfig {
            anneal_iters: 24,
            hierarchical: Hierarchical::On,
            ..Default::default()
        };
        let synth = Synthesizer::new(&topo, &profile).with_config(config);
        for primitive in [
            Primitive::AllReduce,
            Primitive::Reduce,
            Primitive::Broadcast,
        ] {
            let mut req = SynthRequest::new(
                primitive,
                ByteSize::from_mib(16),
                4,
                (0..16).map(Rank).collect(),
            );
            if primitive.has_root() {
                req.root = Some(Rank(3));
            }
            let strategy = synth.synthesize(&req);
            assert!(strategy.validate(&topo).is_ok(), "{primitive} invalid");
            assert_eq!(strategy.parallelism(), 4);
        }
    }

    #[test]
    fn hierarchical_leaders_rotate_across_subs() {
        let (topo, profile) = synth_ctx(4);
        let config = SynthConfig {
            anneal_iters: 0, // composition only: no polish mutations
            hierarchical: Hierarchical::On,
            ..Default::default()
        };
        let synth = Synthesizer::new(&topo, &profile).with_config(config);
        let req = SynthRequest::new(
            Primitive::AllReduce,
            ByteSize::from_mib(16),
            4,
            (0..16).map(Rank).collect(),
        );
        let strategy = synth.synthesize(&req);
        // Parallel subs must not funnel every instance's fan-in through
        // one leader GPU: across 4 subs over 4-GPU instances, at least
        // two distinct aggregation points should appear per instance.
        let mut agg_points: Vec<std::collections::BTreeSet<Rank>> = vec![Default::default(); 4];
        for sub in &strategy.subs {
            for (node, &aggregates) in &sub.aggregate {
                if let (LogicalNode::Gpu(r), true) = (node, aggregates) {
                    agg_points[instance_of(&topo, *r).0].insert(*r);
                }
            }
        }
        for (inst, points) in agg_points.iter().enumerate() {
            assert!(
                points.len() >= 2,
                "instance {inst} aggregates only at {points:?}"
            );
        }
    }
}
