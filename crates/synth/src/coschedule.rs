//! Contention-aware co-scheduling of concurrent per-group strategies.
//!
//! A 3D-parallel training step runs many collectives at once — DP
//! rings, TP slices, PP transfers, MoE all-to-alls — and their flows
//! share NICs and spine links. Solving each group on an empty fabric
//! (the *group-oblivious* baseline) systematically underestimates
//! contention: the eq. 3 equal-share model divides bandwidth only among
//! a strategy's own streams, so independently-optimal trees pile onto
//! the same fat links. [`co_schedule`] lifts the equal-share model
//! across groups: each group's solve scores against a pinned
//! [`BackgroundLoad`] contributed by its co-scheduled peers, and a
//! deterministic round-robin loop (fixed sweep order: group index
//! ascending) alternates which group re-anneals against the others
//! until no group can strictly improve its contended cost — a
//! fix-point.
//!
//! Determinism: every per-group solve is bit-reproducible for any
//! `solver_threads` (chain seeds and the cost argmin are independent of
//! the thread mapping), the sweep order is fixed, and acceptance is a
//! strict `<` on contended cost — so the whole loop is bit-identical
//! across solver thread counts.

use adapcc_profile::profiler::LinkProfile;
use adapcc_topo::logical::LogicalTopology;

use crate::cost::{BackgroundLoad, CostModel};
use crate::solver::{SynthConfig, SynthRequest, Synthesizer};
use crate::strategy::Strategy;

/// Knobs for the fix-point refinement loop.
#[derive(Debug, Clone)]
pub struct CoScheduleOptions {
    /// Maximum round-robin sweeps after the oblivious round. The loop
    /// stops earlier at the first sweep where no group improves.
    pub max_rounds: usize,
}

impl Default for CoScheduleOptions {
    fn default() -> Self {
        CoScheduleOptions { max_rounds: 4 }
    }
}

/// Result of [`co_schedule`]: both the oblivious baseline and the
/// contention-aware strategies, each scored under peer contention so
/// the two columns are directly comparable.
#[derive(Debug, Clone)]
pub struct CoScheduled {
    /// Group-oblivious strategies: each solved on an empty fabric,
    /// blind to its peers (round 0).
    pub oblivious: Vec<Strategy>,
    /// Contention-aware strategies after the fix-point loop.
    pub strategies: Vec<Strategy>,
    /// Predicted per-group completion (secs) of the *oblivious*
    /// strategies when their peers' traffic is accounted for.
    pub oblivious_cost: Vec<f64>,
    /// Predicted per-group completion (secs) of the aware strategies
    /// under the same peer accounting.
    pub contended_cost: Vec<f64>,
    /// Round-robin sweeps executed (the last one observes no change).
    pub rounds: usize,
}

impl CoScheduled {
    /// Predicted concurrent makespan of the oblivious strategies: the
    /// slowest group under peer contention.
    pub fn oblivious_makespan(&self) -> f64 {
        self.oblivious_cost.iter().copied().fold(0.0, f64::max)
    }

    /// Predicted concurrent makespan of the aware strategies.
    pub fn contended_makespan(&self) -> f64 {
        self.contended_cost.iter().copied().fold(0.0, f64::max)
    }
}

/// Accumulates the stream loads of every strategy except `skip` into
/// one pinned background.
fn background_of_peers(
    topo: &LogicalTopology,
    strategies: &[Strategy],
    skip: usize,
) -> BackgroundLoad {
    let mut bg = BackgroundLoad::new(topo);
    for (j, s) in strategies.iter().enumerate() {
        if j != skip {
            bg.add_strategy(topo, s);
        }
    }
    bg
}

/// Scores each strategy under the pinned background of all its peers:
/// the per-group completion times the concurrent step would actually
/// see if every group ran at once (by the eq. 3 equal-share model).
pub fn contended_costs(
    topo: &LogicalTopology,
    profile: &LinkProfile,
    reqs: &[SynthRequest],
    strategies: &[Strategy],
) -> Vec<f64> {
    assert_eq!(reqs.len(), strategies.len(), "one request per strategy");
    let model = CostModel::new(topo, profile);
    (0..strategies.len())
        .map(|i| {
            let bg = background_of_peers(topo, strategies, i);
            model
                .clone()
                .with_background(&bg)
                .evaluate(&strategies[i], reqs[i].tensor)
                .completion
                .as_secs()
        })
        .collect()
}

/// Co-schedules one strategy per request under shared-link contention.
///
/// Round 0 solves every group on an empty fabric (this *is* the
/// group-oblivious baseline, returned as
/// [`oblivious`](CoScheduled::oblivious)). Each subsequent sweep visits
/// groups in index order, re-solves group `i` with its peers' current
/// strategies pinned as background load, and accepts the candidate only
/// if its contended cost strictly improves on the incumbent's under the
/// same background. The loop stops at the first sweep with no
/// acceptance (costs have fix-pointed) or after
/// [`max_rounds`](CoScheduleOptions::max_rounds) sweeps.
///
/// # Panics
///
/// Panics if `reqs` is empty or any request is invalid for
/// [`Synthesizer::synthesize`].
pub fn co_schedule(
    topo: &LogicalTopology,
    profile: &LinkProfile,
    config: &SynthConfig,
    telemetry: &adapcc_telemetry::Telemetry,
    reqs: &[SynthRequest],
    opts: &CoScheduleOptions,
) -> CoScheduled {
    assert!(!reqs.is_empty(), "co_schedule needs at least one group");
    let base = Synthesizer::new(topo, profile)
        .with_config(config.clone())
        .with_telemetry(telemetry.clone());
    let oblivious: Vec<Strategy> = reqs.iter().map(|r| base.synthesize(r)).collect();
    let oblivious_cost = contended_costs(topo, profile, reqs, &oblivious);
    let empty_model = CostModel::new(topo, profile);

    let mut strategies = oblivious.clone();
    let mut rounds = 0usize;
    for _ in 0..opts.max_rounds {
        rounds += 1;
        let mut changed = false;
        // Fixed sweep order: group index ascending. Combined with the
        // bit-reproducible per-group solves this makes the whole loop
        // deterministic for any solver thread count.
        for i in 0..reqs.len() {
            let bg = background_of_peers(topo, &strategies, i);
            let aware = Synthesizer::new(topo, profile)
                .with_config(config.clone())
                .with_telemetry(telemetry.clone())
                .with_background(&bg);
            let candidate = aware.synthesize(&reqs[i]);
            let model = empty_model.clone().with_background(&bg);
            let incumbent = model
                .evaluate(&strategies[i], reqs[i].tensor)
                .completion
                .as_secs();
            let challenger = model
                .evaluate(&candidate, reqs[i].tensor)
                .completion
                .as_secs();
            if challenger < incumbent {
                strategies[i] = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    telemetry.add_counter("synth.coschedule.groups", reqs.len() as f64);
    telemetry.add_counter("synth.coschedule.sweeps", rounds as f64);

    let contended_cost = contended_costs(topo, profile, reqs, &strategies);
    CoScheduled {
        oblivious,
        strategies,
        oblivious_cost,
        contended_cost,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::Primitive;
    use adapcc_profile::profiler::Profiler;
    use adapcc_simnet::cluster::{Cluster, Rank};
    use adapcc_simnet::units::ByteSize;
    use adapcc_topo::detect::Detector;

    fn fixture(servers: usize, gpus: usize) -> (LogicalTopology, LinkProfile) {
        let cluster = Cluster::fat_tree(servers, gpus);
        let topo = Detector::new(&cluster, 7).run().logical_topology(&cluster);
        let profile = Profiler::new(&cluster, &topo, 7).run().links;
        (topo, profile)
    }

    fn dp_requests(servers: usize, gpus: usize) -> Vec<SynthRequest> {
        // One cross-server DP ring per local GPU slot: groups genuinely
        // share every NIC.
        (0..gpus)
            .map(|slot| {
                let members: Vec<Rank> = (0..servers).map(|s| Rank(s * gpus + slot)).collect();
                let mut req =
                    SynthRequest::new(Primitive::AllReduce, ByteSize::from_mib(64), 2, members);
                req.seed = slot as u64;
                req
            })
            .collect()
    }

    #[test]
    fn background_seeding_changes_scores_not_validity() {
        let (topo, profile) = fixture(2, 4);
        let reqs = dp_requests(2, 4);
        let base = Synthesizer::new(&topo, &profile);
        let strategies: Vec<Strategy> = reqs.iter().map(|r| base.synthesize(r)).collect();
        let mut bg = BackgroundLoad::new(&topo);
        for s in &strategies[1..] {
            bg.add_strategy(&topo, s);
        }
        assert!(!bg.is_empty());
        let empty = CostModel::new(&topo, &profile)
            .evaluate(&strategies[0], reqs[0].tensor)
            .completion
            .as_secs();
        let loaded = CostModel::new(&topo, &profile)
            .with_background(&bg)
            .evaluate(&strategies[0], reqs[0].tensor)
            .completion
            .as_secs();
        assert!(
            loaded > empty,
            "peer streams on shared NICs must slow the foreground ({loaded} vs {empty})"
        );
    }

    #[test]
    fn co_schedule_never_loses_to_oblivious() {
        let (topo, profile) = fixture(2, 4);
        let reqs = dp_requests(2, 4);
        let telemetry = adapcc_telemetry::Telemetry::disabled();
        let out = co_schedule(
            &topo,
            &profile,
            &SynthConfig::default(),
            &telemetry,
            &reqs,
            &CoScheduleOptions::default(),
        );
        assert_eq!(out.strategies.len(), reqs.len());
        for (s, r) in out.strategies.iter().zip(&reqs) {
            assert!(s.validate(&topo).is_ok());
            assert_eq!(
                s.participants(),
                {
                    let mut p = r.participants.clone();
                    p.sort_unstable();
                    p
                },
                "aware strategy must keep its group's membership"
            );
        }
        assert!(
            out.contended_makespan() <= out.oblivious_makespan() + 1e-12,
            "fix-point loop only accepts strict improvements"
        );
        assert!(out.rounds >= 1 && out.rounds <= CoScheduleOptions::default().max_rounds);
    }

    #[test]
    fn co_schedule_is_deterministic_across_solver_threads() {
        let (topo, profile) = fixture(2, 4);
        let reqs = dp_requests(2, 4);
        let telemetry = adapcc_telemetry::Telemetry::disabled();
        let solve = |threads: usize| {
            let cfg = SynthConfig {
                anneal_chains: 4,
                solver_threads: threads,
                ..SynthConfig::default()
            };
            co_schedule(
                &topo,
                &profile,
                &cfg,
                &telemetry,
                &reqs,
                &CoScheduleOptions::default(),
            )
        };
        let a = solve(1);
        let b = solve(4);
        assert_eq!(
            a.strategies, b.strategies,
            "bit-identical across thread counts"
        );
        assert_eq!(a.contended_cost, b.contended_cost);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn single_group_degenerates_to_plain_synthesis() {
        let (topo, profile) = fixture(2, 2);
        let reqs = dp_requests(2, 2)[..1].to_vec();
        let telemetry = adapcc_telemetry::Telemetry::disabled();
        let out = co_schedule(
            &topo,
            &profile,
            &SynthConfig::default(),
            &telemetry,
            &reqs,
            &CoScheduleOptions::default(),
        );
        let plain = Synthesizer::new(&topo, &profile).synthesize(&reqs[0]);
        assert_eq!(out.oblivious[0], plain);
        assert_eq!(
            out.strategies[0], plain,
            "no peers means no pressure to move"
        );
        assert_eq!(out.oblivious_cost, out.contended_cost);
    }
}
