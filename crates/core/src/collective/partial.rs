//! The phase-1 / phase-2 partial-execution paths behind a `Partial`
//! relay decision: the adaptive AllReduce's relay protocol
//! (single-fanout specs, paper Sec. IV-C) and the composite by-owner
//! split (fanned specs — ready owners' sub-collectives run in
//! phase 1, surviving stragglers' complete in phase 2).

use std::collections::BTreeMap;

use adapcc_simnet::cluster::Rank;
use adapcc_simnet::hardware::kernel_launch_overhead;
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::strategy::Strategy;

use crate::collective::assemble::SlotOutput;
use crate::collective::pipeline::{ExecOutcome, PartialPlan, Planned};
use crate::collective::plan::StrategyKey;
use crate::error::AdapCCError;
use crate::executor::ExecutionRequest;
use crate::relay::restrict_to_active;
use crate::session::AdapCC;

impl<'c> AdapCC<'c> {
    /// The adaptive AllReduce phase-1 / phase-2 protocol (paper
    /// Sec. IV-C): phase 1 runs the strategy with relay sources muted,
    /// phase 2 broadcasts each late worker's missed fraction and
    /// combines locally.
    pub(super) fn execute_partial_single(
        &mut self,
        planned: &Planned<'_>,
        partial: &PartialPlan<'_>,
        ready: &BTreeMap<Rank, SimTime>,
        inputs: Option<&BTreeMap<Rank, Vec<f32>>>,
    ) -> Result<ExecOutcome, AdapCCError> {
        let workers = self.scope_workers();
        let strategy = planned.strategies[0][0].clone();
        let tensor = planned.tensor;
        let (start, active) = (partial.start, partial.active);
        let root = strategy.subs[0]
            .root
            .expect("allreduce strategies are rooted");
        // Phase 1: same graph, relay sources muted; sends begin at the
        // trigger instant.
        let phase1_strategy = restrict_to_active(&strategy, active);
        let mut phase1_ready: BTreeMap<Rank, SimTime> = BTreeMap::new();
        for r in active {
            let t = ready.get(r).copied().unwrap_or(SimTime::ZERO);
            phase1_ready.insert(*r, t.max(start));
        }
        let mut req = ExecutionRequest::timing(&phase1_strategy, tensor).with_ready(phase1_ready);
        if let Some(inp) = inputs {
            let active_inputs: BTreeMap<Rank, Vec<f32>> = inp
                .iter()
                .filter(|(r, _)| active.contains(r))
                .map(|(r, b)| (*r, b.clone()))
                .collect();
            req = req.with_inputs(active_inputs);
        }
        let phase1 = self.executor().try_execute(&[req])?;
        let phase1_end = phase1.finish;

        // Fault detection: stragglers still unready T_fault after
        // phase 1 are excluded. The late set is every worker outside
        // phase 1 — including relay-ineligible probation ranks, whose
        // data must still arrive — minus the faults.
        let faults = self.coordinator.detect_faults(&workers, ready, phase1_end);
        let late: Vec<Rank> = workers
            .iter()
            .copied()
            .filter(|r| !active.contains(r) && !faults.contains(r))
            .collect();

        // Phase 2: late tensors are broadcast and locally combined
        // with the phase-1 result. A late worker whose tensor became
        // ready *during* phase 1 joined the ongoing aggregation for
        // the chunks still in flight (paper Sec. IV-C), so only its
        // missed fraction rides the phase-2 broadcast.
        let mut finish = phase1_end;
        if !late.is_empty() {
            let phase1_span = phase1_end.duration_since(start).as_secs().max(1e-9);
            let bstrats: Vec<(Strategy, Rank, ByteSize)> = late
                .iter()
                .map(|r| {
                    let t = ready.get(r).copied().unwrap_or(phase1_end);
                    let missed = if t >= phase1_end {
                        1.0
                    } else {
                        // Fraction of chunks already aggregated when
                        // this worker's buffer filled.
                        (t.duration_since(start.min(t)).as_secs() / phase1_span).clamp(0.0, 1.0)
                    };
                    let bytes = ((tensor.as_f64() * missed) as u64 / 4).max(1) * 4;
                    let key = StrategyKey {
                        primitive: adapcc_synth::primitive::Primitive::Broadcast,
                        tensor: tensor.as_u64(),
                        root: Some(*r),
                        scope: self.active_scope.clone(),
                    };
                    (
                        self.strategy_for_key(&key).clone(),
                        *r,
                        ByteSize::from_bytes(bytes),
                    )
                })
                .collect();
            let requests: Vec<ExecutionRequest<'_>> = bstrats
                .iter()
                .map(|(s, r, bytes)| {
                    let mut m = BTreeMap::new();
                    let t = ready.get(r).copied().unwrap_or(phase1_end);
                    m.insert(*r, t.max(phase1_end));
                    ExecutionRequest::timing(s, *bytes).with_ready(m)
                })
                .collect();
            let phase2 = self.executor().try_execute(&requests)?;
            // Local combine kernels, one per late tensor.
            let (inst, _) = self.cluster.locate(root);
            let combine = kernel_launch_overhead()
                + self
                    .cluster
                    .spec(inst)
                    .gpu
                    .reduce_bandwidth()
                    .time_for(tensor);
            finish = phase2.finish + combine.scale(late.len() as f64);
        }

        // Final values: phase-1 partial sum + late tensors.
        let mut outputs = BTreeMap::new();
        if let Some(inp) = inputs {
            let elems = (tensor.as_u64() / 4) as usize;
            // An active rank holds the phase-1 sum; a relay's buffer
            // (the lowest rank's, say) may hold only a partial aggregate.
            let base = phase1
                .requests
                .first()
                .and_then(|r| active.iter().find_map(|a| r.outputs.get(a).cloned()))
                .unwrap_or_else(|| vec![0.0; elems]);
            let mut total = base;
            for r in &late {
                for (d, v) in total.iter_mut().zip(&inp[r]) {
                    *d += v;
                }
            }
            for w in workers.iter().filter(|w| !faults.contains(w)) {
                outputs.insert(*w, total.clone());
            }
        }

        Ok(ExecOutcome {
            finish,
            outputs: Some(outputs),
            slots: Vec::new(),
            faults,
        })
    }

    /// The composite phase-1 / phase-2 protocol: sub-collectives owned
    /// by ready workers run in phase 1 (relay GPUs keep forwarding on
    /// the routes of others, and their buffers are consumed as chunks
    /// land, Sec. IV-C); sub-collectives owned by surviving stragglers
    /// complete in phase 2 once their tensors are available.
    pub(super) fn execute_partial_fanout(
        &mut self,
        planned: &Planned<'_>,
        partial: &PartialPlan<'_>,
        eff: &BTreeMap<Rank, SimTime>,
        inputs: Option<&BTreeMap<Rank, Vec<f32>>>,
    ) -> Result<ExecOutcome, AdapCCError> {
        let workers = self.scope_workers();
        let stage = &planned.stages[0];
        let strategies = &planned.strategies[0];
        let owner_of = |i: usize| stage.subs[i].owner.expect("fanned subs have owners");
        let (start, active) = (partial.start, partial.active);

        // Phase 1: the ready workers' sub-collectives, sends clamped
        // to the trigger instant.
        let mut phase1_ready: BTreeMap<Rank, SimTime> = BTreeMap::new();
        for r in active {
            phase1_ready.insert(*r, eff[r].max(start));
        }
        let p1_idx: Vec<usize> = (0..stage.subs.len())
            .filter(|i| active.contains(&owner_of(*i)))
            .collect();
        let p1_requests: Vec<ExecutionRequest<'_>> = p1_idx
            .iter()
            .map(|&i| {
                let sub = &stage.subs[i];
                let mut req = ExecutionRequest::timing(&strategies[i], sub.tensor)
                    .with_ready(phase1_ready.clone());
                if let Some(inp) = inputs {
                    req = req.with_inputs(stage.sub_inputs(sub, inp, planned.root));
                }
                req
            })
            .collect();
        let phase1 = self.executor().try_execute(&p1_requests)?;
        let phase1_end = phase1.finish;

        // Stragglers still unready T_fault past phase 1 are faults;
        // the rest — relay-assigned or not — complete in phase 2.
        let faults = self.coordinator.detect_faults(&workers, eff, phase1_end);
        let late: Vec<Rank> = workers
            .iter()
            .copied()
            .filter(|r| !active.contains(r) && !faults.contains(r))
            .collect();
        let p2_idx: Vec<usize> = (0..stage.subs.len())
            .filter(|i| late.contains(&owner_of(*i)))
            .collect();
        let mut finish = phase1_end;
        let mut p2_outputs: Vec<BTreeMap<Rank, Vec<f32>>> = Vec::new();
        if !p2_idx.is_empty() {
            let p2_ready: BTreeMap<Rank, SimTime> = workers
                .iter()
                .map(|w| (*w, eff[w].max(phase1_end)))
                .collect();
            let requests: Vec<ExecutionRequest<'_>> = p2_idx
                .iter()
                .map(|&i| {
                    let sub = &stage.subs[i];
                    let mut req = ExecutionRequest::timing(&strategies[i], sub.tensor)
                        .with_ready(p2_ready.clone());
                    if let Some(inp) = inputs {
                        req = req.with_inputs(stage.sub_inputs(sub, inp, planned.root));
                    }
                    req
                })
                .collect();
            let phase2 = self.executor().try_execute(&requests)?;
            finish = phase2.finish;
            p2_outputs = phase2.requests.into_iter().map(|r| r.outputs).collect();
        }

        let mut slots: Vec<SlotOutput> = Vec::new();
        for (k, &i) in p1_idx.iter().enumerate() {
            slots.push(SlotOutput {
                owner: owner_of(i),
                slot: stage.subs[i].slot,
                outputs: Some(phase1.requests[k].outputs.clone()),
            });
        }
        for (k, &i) in p2_idx.iter().enumerate() {
            slots.push(SlotOutput {
                owner: owner_of(i),
                slot: stage.subs[i].slot,
                outputs: Some(p2_outputs[k].clone()),
            });
        }
        for i in 0..stage.subs.len() {
            if faults.contains(&owner_of(i)) {
                slots.push(SlotOutput {
                    owner: owner_of(i),
                    slot: stage.subs[i].slot,
                    outputs: None,
                });
            }
        }

        Ok(ExecOutcome {
            finish,
            outputs: None,
            slots,
            faults,
        })
    }
}
