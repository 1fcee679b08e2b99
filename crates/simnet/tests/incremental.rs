//! Property-based verification of the dirty-frontier allocator against
//! its from-scratch reference.
//!
//! The contract under test (DESIGN.md §15): on any event sequence, the
//! frontier refill — which only re-fills the connected flow components
//! reachable from links the event touched — must produce an event
//! stream (tokens, kinds, ordering, completion-time *bits*) identical
//! to re-filling every live component from scratch after every event
//! (`with_paranoid_refill`). Debug builds additionally cross-check the
//! allocated rate bits after every single refill inside the engine, so
//! these runs verify rates, times, and order at once, and certify
//! every filling as max-min fair.
//!
//! A second property checks delivery: every transfer completes or
//! aborts exactly once, every timer fires once, in a stream that is
//! monotone in time.

use proptest::prelude::*;

use adapcc_simnet::cluster::{Cluster, InstanceId};
use adapcc_simnet::engine::{FaultAction, NetSim, SimEvent};
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;

/// One scripted operation against the engine.
type Op = (u8, usize, usize, u64);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Frontier,
    Paranoid,
}

fn shape(idx: usize) -> Cluster {
    match idx % 4 {
        0 => Cluster::fat_tree(2, 1),
        1 => Cluster::fat_tree(3, 2),
        2 => Cluster::fat_tree(5, 1),
        _ => Cluster::homogeneous_a100(4),
    }
}

fn record(ev: &SimEvent, out: &mut Vec<(u8, u64, u64)>) {
    let kind = match ev {
        SimEvent::TransferDone { .. } => 0u8,
        SimEvent::TransferAborted { .. } => 1,
        SimEvent::Timer { .. } => 2,
    };
    out.push((kind, ev.token(), ev.at().as_secs().to_bits()));
}

/// Replays a random op script: submissions, timers, partial stepping
/// (so completions interleave with later arrivals), and the full fault
/// vocabulary, then drains to quiescence with all links restored.
fn run_ops(c: &Cluster, ops: &[Op], mode: Mode) -> Vec<(u8, u64, u64)> {
    let (mut sim, mut out) = replay(c, ops, mode);
    restore_and_drain(c, &mut sim, &mut out);
    out
}

/// Replays the op script, returning the engine mid-run and the events
/// stepped so far.
fn replay<'c>(c: &'c Cluster, ops: &[Op], mode: Mode) -> (NetSim<'c>, Vec<(u8, u64, u64)>) {
    let mut sim = NetSim::new(c).with_paranoid_refill(mode == Mode::Paranoid);
    let n = c.instance_count();
    let mut out = Vec::new();
    let mut token = 0u64;
    for &(kind, a, b, val) in ops {
        let (a, b) = (a % n, b % n);
        match kind % 5 {
            0 => {
                if a != b {
                    let path = c.net_path(InstanceId(a), InstanceId(b));
                    sim.submit_transfer(&path, ByteSize::from_kib(val % 4096), token);
                    token += 1;
                }
            }
            1 => {
                sim.schedule_timer(
                    SimDuration::from_micros((val % 10_000) as f64),
                    1_000_000 + token,
                );
                token += 1;
            }
            2 => {
                for _ in 0..=(val % 3) {
                    match sim.step() {
                        Some(ev) => record(&ev, &mut out),
                        None => break,
                    }
                }
            }
            3 => {
                let l = c.nic_egress_link(InstanceId(a));
                match val % 4 {
                    0 => sim.apply_fault(FaultAction::LinkDown(l)),
                    1 => sim.apply_fault(FaultAction::LinkUp(l)),
                    2 => sim.apply_fault(FaultAction::SetCapacityFactor(
                        l,
                        0.25 + (val % 7) as f64 * 0.25,
                    )),
                    _ => sim.apply_fault(FaultAction::LinkFail(l)),
                }
            }
            _ => {
                let l = c.nic_ingress_link(InstanceId(b));
                let action = match val % 3 {
                    0 => FaultAction::LinkDown(l),
                    1 => FaultAction::LinkUp(l),
                    _ => FaultAction::LinkRecover(l),
                };
                sim.schedule_fault(SimDuration::from_micros((val % 5_000) as f64), action);
            }
        }
    }
    (sim, out)
}

/// Restores every NIC link, then runs to quiescence.
fn restore_and_drain(c: &Cluster, sim: &mut NetSim<'_>, out: &mut Vec<(u8, u64, u64)>) {
    // Restore the fabric so stalled flows drain instead of hanging.
    for i in 0..c.instance_count() {
        for l in [
            c.nic_egress_link(InstanceId(i)),
            c.nic_ingress_link(InstanceId(i)),
        ] {
            sim.apply_fault(FaultAction::LinkRecover(l));
            sim.apply_fault(FaultAction::LinkUp(l));
        }
    }
    for ev in sim.drain() {
        record(&ev, out);
    }
}

/// Tokens `run_ops` issues for `ops` on `c`: one per cross-instance
/// submission and one per timer.
fn issued_tokens(c: &Cluster, ops: &[Op]) -> usize {
    let n = c.instance_count();
    ops.iter()
        .filter(|&&(kind, a, b, _)| match kind % 5 {
            0 => a % n != b % n,
            1 => true,
            _ => false,
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exactness contract: frontier refills reproduce the
    /// from-scratch-after-every-event reference bit for bit — same
    /// events, same order, same completion-time bits.
    #[test]
    fn frontier_refill_is_bit_identical_to_full_refill(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..48),
    ) {
        let c = shape(shape_idx);
        let frontier = run_ops(&c, &ops, Mode::Frontier);
        let paranoid = run_ops(&c, &ops, Mode::Paranoid);
        prop_assert_eq!(frontier, paranoid);
    }

    /// Delivery: every issued token surfaces exactly once — transfers
    /// as a completion or an abort, timers as a firing — in a stream
    /// monotone in time.
    #[test]
    fn every_token_surfaces_once_in_time_order(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..48),
    ) {
        let c = shape(shape_idx);
        let (mut sim, mut evs) = replay(&c, &ops, Mode::Frontier);
        // A fault scheduled past the script can take a link down after
        // a restore: restore again until nothing is left stalled.
        loop {
            restore_and_drain(&c, &mut sim, &mut evs);
            if sim.stalled_flows() == 0 {
                break;
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &(kind, token, _) in &evs {
            prop_assert!(seen.insert(token), "token {token} surfaced twice");
            let timer = token >= 1_000_000;
            prop_assert_eq!(kind == 2, timer, "token {} surfaced as kind {}", token, kind);
        }
        prop_assert_eq!(seen.len(), issued_tokens(&c, &ops), "a token never surfaced");
        prop_assert!(evs.windows(2).all(|w| {
            f64::from_bits(w[0].2) <= f64::from_bits(w[1].2)
        }), "stream not monotone");
    }

    /// Counter-backed gauges agree with the definitionally-correct
    /// full scans at quiescence.
    #[test]
    fn counters_survive_random_churn(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..32),
    ) {
        let c = shape(shape_idx);
        let mut sim = NetSim::new(&c);
        let n = c.instance_count();
        let mut token = 0u64;
        for &(kind, a, b, val) in &ops {
            let (a, b) = (a % n, b % n);
            match kind % 3 {
                0 => {
                    if a != b {
                        let path = c.net_path(InstanceId(a), InstanceId(b));
                        sim.submit_transfer(
                            &path, ByteSize::from_kib(val % 2048), token);
                        token += 1;
                    }
                }
                1 => {
                    while sim.step().is_some() {}
                }
                _ => {
                    let l = c.nic_egress_link(InstanceId(a));
                    if val % 2 == 0 {
                        sim.apply_fault(FaultAction::LinkDown(l));
                    } else {
                        sim.apply_fault(FaultAction::LinkUp(l));
                    }
                }
            }
        }
        while sim.step().is_some() {}
        // At quiescence every remaining draining flow is stalled.
        prop_assert_eq!(sim.draining_flows(), sim.stalled_flows());
    }
}
