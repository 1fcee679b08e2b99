//! `parallel3d-32`: one 3D-parallel + MoE training step on an 8-server
//! x 4-GPU fat tree (tp=2, pp=2, dp=8, 512 MiB model, M=4), the
//! `adapcc_sim parallel3d` defaults. `co_schedule` plans every phase
//! against its peers' background load during set-up; the timed part
//! executes each phase's co-scheduled strategies as one concurrent
//! batch on the shared fabric.
//!
//! Planning uses the `adapcc_sim parallel3d` default seed on every run.
//! The host time of executing a step swings by a quarter from one set
//! of plans to the next, which would hide any smaller change, so
//! `--seed` draws what varies between steps of one training job
//! instead: when each rank reaches each phase.

use std::collections::BTreeMap;
use std::time::Instant;

use adapcc::{ExecutionRequest, Executor};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::coschedule::{co_schedule, CoScheduleOptions, CoScheduled};
use adapcc_telemetry::Telemetry;
use adapcc_topo::detect::Detector;
use adapcc_topo::logical::LogicalTopology;
use adapcc_train::parallel::{ParallelLayout, StepPhase};

use super::{check_sums, gate_inputs, pinned, sub_seed, telemetry_for, validate, Rep};
use crate::trace::Tracer;

const SERVERS: usize = 8;
const GPUS_PER_SERVER: usize = 4;
const TP: usize = 2;
const PP: usize = 2;
const MODEL: ByteSize = ByteSize::from_mib(512);
const PARALLELISM: usize = 4;
/// Co-scheduling fix-point sweep cap.
const MAX_ROUNDS: usize = 4;
/// Detection, profiling and synthesis seed (`adapcc_sim parallel3d`'s).
const PLAN_SEED: u64 = 1;
/// Mean lateness of a rank reaching a phase (exponential), seconds.
const MEAN_LATENESS_S: f64 = 0.5e-3;
/// Set-ups per repetition.
const SETUPS: usize = 15;
/// Per-rank tensor of the real-data gate collective.
const GATE_TENSOR: ByteSize = ByteSize::from_kib(16);

/// When each rank reaches phase `phase`: exponentially distributed
/// lateness drawn from `seed`.
fn arrivals(seed: u64, phase: u64, ranks: &[Rank]) -> BTreeMap<Rank, SimTime> {
    ranks
        .iter()
        .map(|r| {
            let bits = sub_seed(sub_seed(seed, phase), r.0 as u64);
            // splitmix64 finalizer: a well-mixed uniform in [0, 1).
            let mut z = bits.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            (*r, SimTime::from_secs(-(1.0 - u).ln() * MEAN_LATENESS_S))
        })
        .collect()
}

/// What set-up builds: the fabric, its topology, the step's phases and
/// their co-scheduled plans.
struct Planned {
    cluster: Cluster,
    topo: LogicalTopology,
    phases: Vec<StepPhase>,
    plans: Vec<CoScheduled>,
}

/// Builds the cluster, detects, profiles and co-schedules every phase.
fn set_up(tr: &mut Tracer, telemetry: &Telemetry) -> Planned {
    tr.begin("setup");
    let cluster = tr.time("cluster.build", || {
        Cluster::fat_tree(SERVERS, GPUS_PER_SERVER)
    });
    let (topo, detect_secs) = tr.time("topo.detect", || {
        let detection = Detector::new(&cluster, PLAN_SEED)
            .with_telemetry(telemetry.clone())
            .run();
        (
            detection.logical_topology(&cluster),
            detection.elapsed.as_secs(),
        )
    });
    let profile = tr.time("profile.run", || {
        Profiler::new(&cluster, &topo, PLAN_SEED)
            .with_telemetry(telemetry.at_offset(detect_secs))
            .run()
            .links
    });
    let dp = cluster.gpu_count() / (TP * PP);
    let phases = ParallelLayout::new(dp, TP, PP).three_d_step(MODEL);
    let synth = pinned(adapcc_synth::solver::SynthConfig::default().anneal_iters);
    let opts = CoScheduleOptions {
        max_rounds: MAX_ROUNDS,
    };
    let plans = phases
        .iter()
        .map(|phase| {
            let mut reqs = phase.synth_requests(PARALLELISM);
            for r in &mut reqs {
                r.seed ^= PLAN_SEED;
            }
            tr.time("synth.coschedule", || {
                co_schedule(&topo, &profile, &synth, telemetry, &reqs, &opts)
            })
        })
        .collect();
    tr.end();
    Planned {
        cluster,
        topo,
        phases,
        plans,
    }
}

/// Runs one repetition; `gate` adds the correctness gate.
pub fn run(seed: u64, tr: &mut Tracer, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let telemetry = telemetry_for(tr);

    // One set-up takes under a tenth of a second, so a repetition sets
    // up several times and keeps the median; only the last is traced.
    let mut times = Vec::with_capacity(SETUPS);
    let mut planned = None;
    for i in 0..SETUPS {
        let mut off = Tracer::new(false, Instant::now());
        let (t, sink) = if i + 1 == SETUPS {
            (&mut *tr, telemetry.clone())
        } else {
            (&mut off, Telemetry::disabled())
        };
        let start = Instant::now();
        planned = Some(set_up(t, &sink));
        times.push(start.elapsed().as_secs_f64());
    }
    rep.setup_s = crate::median(times.into_iter());
    let Planned {
        cluster,
        topo,
        phases,
        plans,
    } = planned.expect("SETUPS is positive");

    let executor = Executor::new(&cluster, &topo).with_telemetry(telemetry.clone());
    let wall = Instant::now();
    let mut step_s = 0.0;
    for (i, (phase, plan)) in phases.iter().zip(&plans).enumerate() {
        let batch: Vec<ExecutionRequest<'_>> = plan
            .strategies
            .iter()
            .zip(&phase.groups)
            .map(|(s, g)| {
                ExecutionRequest::timing(s, phase.tensor).with_ready(arrivals(
                    seed,
                    i as u64,
                    g.members(),
                ))
            })
            .collect();
        let out = tr.time("exec.execute", || executor.try_execute(&batch));
        rep.attempted += batch.len() as u64;
        match out {
            Ok(report) => step_s += report.finish.as_secs(),
            Err(e) => rep.errored(batch.len() as u64, format!("{}: {e}", phase.name)),
        }
    }
    rep.wall_s = wall.elapsed().as_secs_f64();
    rep.sim_comm_ms = step_s * 1e3;
    rep.sim_makespan_ms = rep.sim_comm_ms;
    rep.steps = 1;
    rep.absorb_telemetry(&telemetry);

    if gate {
        let mut g = Rep::default();
        run_gate(seed, &executor, &topo, &phases, &plans, &mut g);
        rep.absorb_gate(g);
    }
    rep
}

/// Gate, untraced and after the counts were read: every held strategy
/// validates, and the dp.allreduce phase's concurrent groups move real
/// data to exact sums.
fn run_gate(
    seed: u64,
    executor: &Executor<'_>,
    topo: &LogicalTopology,
    phases: &[StepPhase],
    plans: &[CoScheduled],
    rep: &mut Rep,
) {
    for (phase, plan) in phases.iter().zip(plans) {
        for (i, s) in plan.strategies.iter().enumerate() {
            validate(rep, &format!("{} group {i}", phase.name), s, topo);
        }
    }
    let (phase, plan) = phases
        .iter()
        .zip(plans)
        .find(|(p, _)| p.name == "dp.allreduce")
        .expect("the step has a dp.allreduce phase");
    let elems = (GATE_TENSOR.as_u64() / 4) as usize;
    let inputs: Vec<_> = phase
        .groups
        .iter()
        .enumerate()
        .map(|(i, g)| gate_inputs(g.members(), elems, seed as usize + i))
        .collect();
    let batch: Vec<ExecutionRequest<'_>> = plan
        .strategies
        .iter()
        .zip(&inputs)
        .map(|(s, inp)| ExecutionRequest::timing(s, GATE_TENSOR).with_inputs(inp.clone()))
        .collect();
    let out = executor.try_execute(&batch);
    rep.attempted += batch.len() as u64;
    match out {
        Ok(report) => {
            for ((g, inp), r) in phase.groups.iter().zip(&inputs).zip(&report.requests) {
                let m = g.members();
                if let Err(e) = check_sums("gate dp.allreduce", &r.outputs, inp, m, elems) {
                    rep.fail(e);
                }
            }
        }
        Err(e) => {
            rep.failed += batch.len() as u64;
            rep.problems.push(format!("gate dp.allreduce: {e}"));
        }
    }
}
