//! Synthetic engine-throughput benchmark ("storm"): floods the
//! fluid-flow simulator with contending cross-server transfers and
//! reports processed events per wall-clock second — the
//! `BENCH_engine.json` metric. The workload is pure engine stress (no
//! synthesis, no executor), so it isolates the event-queue,
//! flow-aggregation and allocator paths that the cluster-scale rewrite
//! targets.
//!
//! Two storm shapes: synchronized waves (`Wave`, the engine's batch
//! best case — one filling per wave) and staggered arrivals (`Churn`,
//! the allocator's worst case — every arrival and completion lands at
//! its own instant and pays its own refill).

use std::time::Instant;

use adapcc_simnet::cluster::{Cluster, InstanceId};
use adapcc_simnet::engine::{NetSim, SimEvent};
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;

/// Workload shape for [`engine_storm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormMode {
    /// Synchronized waves: all `n` transfers of a wave arrive at one
    /// instant and the wave drains fully before the next.
    Wave,
    /// Staggered churn: arrivals are spread in time so completions and
    /// arrivals interleave — no two events share an instant, every one
    /// pays its own allocator refill.
    Churn,
}

impl StormMode {
    /// CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            StormMode::Wave => "wave",
            StormMode::Churn => "churn",
        }
    }
}

/// Result of one [`engine_storm`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStormReport {
    /// Transfers submitted across all waves.
    pub transfers: u64,
    /// Internal engine events processed.
    pub events: u64,
    /// Simulated completion time in milliseconds.
    pub sim_ms: f64,
    /// Host wall-clock milliseconds for the whole storm (a property of
    /// the machine, never of the simulated timeline).
    pub wall_ms: f64,
    /// Filling passes the allocator ran.
    pub fillings: u64,
    /// Total flows touched by those fillings — the allocator's real
    /// work metric (`O(frontier)`, not `O(live)`).
    pub frontier_flows: u64,
}

impl EngineStormReport {
    /// The headline throughput: engine events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ms / 1e3)
    }
}

/// Timer tokens in churn mode encode the pending submission index.
const CHURN_TIMER_BASE: u64 = 1 << 40;

/// Runs `waves` rounds of an all-instances shifting-ring pattern: in
/// round `w`, every instance sends one transfer to the instance
/// `1 + (w mod (n-1))` positions ahead. In [`StormMode::Wave`] the
/// whole round arrives at one instant and drains before the next —
/// all `n` NIC pairs contend at once and the engine's batch path
/// (one filling per wave) carries the arrivals. In
/// [`StormMode::Churn`] every transfer instead arrives on its own
/// staggered timer with a size jittered from 64 to 448 KiB, so
/// arrivals and completions interleave one event at a time — the
/// allocator refills on every single event.
///
/// # Panics
///
/// Panics if the cluster has fewer than two instances.
pub fn engine_storm(cluster: &Cluster, waves: usize, mode: StormMode) -> EngineStormReport {
    let n = cluster.instance_count();
    assert!(n >= 2, "the storm needs at least two instances");
    let mut sim = NetSim::new(cluster);
    let mut token = 0u64;
    let start = Instant::now();
    match mode {
        StormMode::Wave => {
            for w in 0..waves {
                let stride = 1 + w % (n - 1);
                for i in 0..n {
                    let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                    sim.submit_transfer(&path, ByteSize::from_kib(256), token);
                    token += 1;
                }
                while sim.step().is_some() {}
            }
        }
        StormMode::Churn => {
            // Pre-schedule one arrival timer per transfer, staggered so
            // drains (tens of microseconds at these sizes) overlap the
            // next arrivals instead of synchronizing with them.
            let total = (waves * n) as u64;
            for idx in 0..total {
                sim.schedule_timer(
                    SimDuration::from_micros(1.0 + idx as f64 * 1.3),
                    CHURN_TIMER_BASE + idx,
                );
            }
            while let Some(ev) = sim.step() {
                if let SimEvent::Timer { token: t, .. } = ev {
                    let idx = (t - CHURN_TIMER_BASE) as usize;
                    let (w, i) = (idx / n, idx % n);
                    let stride = 1 + w % (n - 1);
                    let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                    // Deterministic size jitter: 64..448 KiB, so no two
                    // co-resident flows drain in lockstep.
                    let kib = 64 + (idx as u64).wrapping_mul(2654435761) % 384;
                    sim.submit_transfer(&path, ByteSize::from_kib(kib), token);
                    token += 1;
                }
            }
        }
    }
    EngineStormReport {
        transfers: token,
        events: sim.events_processed(),
        sim_ms: sim.now().as_millis(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        fillings: sim.fillings(),
        frontier_flows: sim.frontier_flows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_completes_every_transfer() {
        let cluster = Cluster::homogeneous_a100(4);
        let r = engine_storm(&cluster, 3, StormMode::Wave);
        assert_eq!(r.transfers, 12);
        assert!(r.events >= r.transfers, "every transfer costs events");
        assert!(r.sim_ms > 0.0);
        assert!(r.events_per_sec() > 0.0);
        assert!(r.fillings > 0);
    }

    #[test]
    fn storm_scales_to_podded_fleets() {
        // 32 servers > FLAT_FABRIC_MAX: the pattern crosses pod
        // boundaries and must still drain completely.
        let cluster = Cluster::homogeneous_a100(32);
        let r = engine_storm(&cluster, 2, StormMode::Wave);
        assert_eq!(r.transfers, 64);
        assert!(r.events >= r.transfers);
    }

    #[test]
    fn churn_storm_completes_every_transfer() {
        let cluster = Cluster::homogeneous_a100(6);
        let r = engine_storm(&cluster, 2, StormMode::Churn);
        assert_eq!(r.transfers, 12);
        assert!(r.events >= 2 * r.transfers, "timer + completion each");
        assert!(r.fillings > 0);
    }
}
