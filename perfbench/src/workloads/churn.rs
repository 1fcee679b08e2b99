//! `churn-16`: many seeded sessions on 4 A100 servers (16 GPUs), each
//! with a dense `FaultSchedule::random_churn` leave→rejoin schedule and
//! 1 MiB AllReduces driven across the fault window and a settle phase,
//! as the churn sweep in `crates/bench/src/churn.rs` does. Exclusion,
//! re-synthesis, warm starts, plan-cache inserts and rejoin probes do
//! most of the work here.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use adapcc::{nccl_restart_cost, AdapCC, InitOptions, RecoveryEvent};
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;

use super::{check_sums, gate_inputs, pinned, session_op, sub_seed, telemetry_for, validate, Rep};
use crate::trace::Tracer;

/// Sessions per repetition.
pub const SESSIONS: u64 = 384;
const SERVERS: usize = 4;
const TENSOR: ByteSize = ByteSize::from_mib(1);
/// Window the churn events land in.
const HORIZON_MS: f64 = 2.0;
/// Iteration cap of the clock-driving phase.
const MAX_ITERS: usize = 64;
/// Iterations past the horizon for probe rounds to readmit workers.
const SETTLE_ITERS: usize = 6;
/// Annealing iterations (churn stresses membership, not plan quality).
const ANNEAL_ITERS: usize = 24;
/// Per-rank tensor of the real-data gate collective.
const GATE_TENSOR: ByteSize = ByteSize::from_kib(64);

/// Runs one repetition: [`SESSIONS`] sessions, times summed; `gate`
/// adds the correctness gate to every session.
pub fn run(seed: u64, tr: &mut Tracer, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let mut comm_s = 0.0;
    let mut makespan_s = 0.0;
    let mut ok_ops = 0u64;
    for i in 0..SESSIONS {
        session(
            sub_seed(seed, i),
            tr,
            &mut rep,
            &mut comm_s,
            &mut makespan_s,
            &mut ok_ops,
            gate,
        );
    }
    rep.steps = ok_ops;
    rep.sim_comm_ms = comm_s / ok_ops.max(1) as f64 * 1e3;
    rep.sim_makespan_ms = makespan_s * 1e3;
    rep
}

fn session(
    seed: u64,
    tr: &mut Tracer,
    rep: &mut Rep,
    comm_s: &mut f64,
    makespan_s: &mut f64,
    ok_ops: &mut u64,
    gate: bool,
) {
    let telemetry = telemetry_for(tr);
    let setup = Instant::now();
    tr.begin("setup");
    let cluster = tr.time("cluster.build", || Cluster::homogeneous_a100(SERVERS));
    let options = InitOptions {
        seed,
        synth: pinned(ANNEAL_ITERS),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let mut cc = tr.time("session.init", || AdapCC::init(&cluster, options));
    cc.setup();
    tr.time("session.plan", || {
        cc.strategy_for(Primitive::AllReduce, TENSOR);
    });
    tr.end();
    rep.setup_s += setup.elapsed().as_secs_f64();

    let schedule =
        FaultSchedule::random_churn(&cluster, seed, SimDuration::from_millis(HORIZON_MS));
    let gone: BTreeSet<Rank> = schedule
        .eventually_excluded_ranks(&cluster)
        .into_iter()
        .collect();
    cc.inject_faults(schedule);
    let horizon_end = SimTime::ZERO + SimDuration::from_millis(HORIZON_MS);

    // Errors are absorbed, not fatal: a churn-hardened trainer retries
    // the next step. A fleet that only errors is cut short.
    let wall = Instant::now();
    let mut iterations = 0;
    let mut consecutive = 0;
    while cc.session_clock() < horizon_end && iterations < MAX_ITERS && consecutive < 4 {
        iterations += 1;
        if step(seed, iterations, tr, &mut cc, rep, comm_s, ok_ops) {
            consecutive = 0;
        } else {
            consecutive += 1;
        }
    }
    for _ in 0..SETTLE_ITERS {
        iterations += 1;
        step(seed, iterations, tr, &mut cc, rep, comm_s, ok_ops);
    }
    rep.wall_s += wall.elapsed().as_secs_f64();
    *makespan_s += cc.session_clock().as_secs();

    rep.absorb_telemetry(&telemetry);
    rep.absorb_plan_cache(&cc);

    if gate {
        let mut g = Rep::default();
        run_gate(seed, &cluster, &mut cc, &gone, &mut g);
        rep.absorb_gate(g);
    }
}

/// One timed AllReduce; false when it errored.
fn step(
    seed: u64,
    iteration: usize,
    tr: &mut Tracer,
    cc: &mut AdapCC<'_>,
    rep: &mut Rep,
    comm_s: &mut f64,
    ok_ops: &mut u64,
) -> bool {
    let (out, op) = session_op(tr, cc, |cc| cc.allreduce(TENSOR, &BTreeMap::new(), None));
    rep.ops.push(op);
    rep.attempted += 1;
    match out {
        Ok(r) => {
            *comm_s += r.comm_time.as_secs();
            *ok_ops += 1;
            true
        }
        Err(e) => {
            rep.errored(1, format!("session {seed} iteration {iteration}: {e}"));
            false
        }
    }
}

/// Rejoin budget, a real-data AllReduce over the survivors, and
/// membership convergence to the schedule's final alive set. Runs
/// untraced, after the session's counts were read.
fn run_gate(
    seed: u64,
    cluster: &Cluster,
    cc: &mut AdapCC<'_>,
    gone: &BTreeSet<Rank>,
    rep: &mut Rep,
) {
    let bound = nccl_restart_cost(TENSOR, cluster.gpu_count()).total();
    for e in cc.recovery_log() {
        if let RecoveryEvent::Rejoined { scale, .. } = e {
            if scale.total() >= bound {
                rep.fail(format!(
                    "session {seed}: rejoin cost {} not under restart {bound}",
                    scale.total()
                ));
            }
        }
    }
    let elems = (GATE_TENSOR.as_u64() / 4) as usize;
    let workers = cc.workers().to_vec();
    let inputs = gate_inputs(&workers, elems, seed as usize);
    let mut off = Tracer::new(false, Instant::now());
    let (out, _) = session_op(&mut off, cc, |cc| {
        cc.allreduce(GATE_TENSOR, &BTreeMap::new(), Some(inputs.clone()))
    });
    rep.attempted += 1;
    match out {
        Ok(r) => {
            // A rank readmitted during this call has no input buffer
            // and contributes zeros.
            let survivors = cc.workers().to_vec();
            if let Err(e) = check_sums("gate allreduce", &r.outputs, &inputs, &survivors, elems) {
                rep.fail(format!("session {seed}: {e}"));
            }
            let expected: Vec<Rank> = (0..cluster.gpu_count())
                .map(Rank)
                .filter(|r| !gone.contains(r))
                .collect();
            // Below two survivors the session refuses to shrink, so the
            // final alive set is unreachable by design.
            if expected.len() >= 2 && survivors != expected {
                rep.fail(format!(
                    "session {seed}: membership {survivors:?} not {expected:?}"
                ));
            }
        }
        Err(e) => rep.fail(format!("session {seed} gate allreduce: {e}")),
    }
    let held = cc.strategy_for(Primitive::AllReduce, TENSOR).clone();
    validate(
        rep,
        &format!("session {seed} allreduce"),
        &held,
        cc.topology(),
    );
}
