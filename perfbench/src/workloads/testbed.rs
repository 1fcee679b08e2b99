//! `testbed-train`: the paper's own setting. GPT-2 data-parallel
//! training on the 24-GPU paper testbed (4 A100 + 2 V100 servers), one
//! `allreduce_adaptive` per iteration through the `AdapCC` session.
//! Stragglers come from the `StragglerModel`: V100s compute slower than
//! A100s and every GPU draws heavy-tailed compute jitter each iteration.
//!
//! One repetition trains several short sessions, so that one run
//! averages over several plans and straggler sequences. Session `i`
//! plans from the same seed on every run (the simulated probe noise and
//! the solver's search are the program's, not its input), and draws its
//! stragglers from a seed derived from `--seed`: what varies between
//! runs is the input the system adapts to, not which plans it works
//! with.

use std::collections::BTreeMap;
use std::time::Instant;

use adapcc::{AdapCC, Decision, InitOptions};
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_train::straggler::StragglerModel;
use adapcc_train::workload::DnnModel;

use super::{check_sums, gate_inputs, pinned, session_op, sub_seed, telemetry_for, validate, Rep};
use crate::trace::Tracer;

/// Training sessions per repetition.
const SESSIONS: u64 = 28;
/// Seed of session `i`'s plans is `sub_seed(PLAN_SEED, i)`.
const PLAN_SEED: u64 = 1;
/// Training iterations per session.
const ITERATIONS: usize = 2;
/// Per-rank tensor of the real-data gate collectives.
const GATE_TENSOR: ByteSize = ByteSize::from_kib(16);
/// Real-data adaptive AllReduces per session in the gate: the timed
/// iterations' straggler draws, then further draws of the same model.
const GATE_ADAPTIVE_OPS: usize = 10;

/// Runs one repetition; `gate` adds the correctness gate to every
/// session.
pub fn run(seed: u64, tr: &mut Tracer, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let (mut comm_s, mut iteration_s) = (0.0, 0.0);
    for i in 0..SESSIONS {
        let (c, t) = session(
            sub_seed(PLAN_SEED, i),
            sub_seed(seed, i),
            tr,
            &mut rep,
            gate,
        );
        comm_s += c;
        iteration_s += t;
    }
    rep.sim_comm_ms = comm_s / rep.steps.max(1) as f64 * 1e3;
    rep.sim_makespan_ms = iteration_s * 1e3;
    rep
}

/// One training session, planned from `plan_seed` with stragglers drawn
/// from `seed`; returns its summed simulated communication and
/// iteration seconds.
fn session(plan_seed: u64, seed: u64, tr: &mut Tracer, rep: &mut Rep, gate: bool) -> (f64, f64) {
    let model = DnnModel::Gpt2;
    let tensor = model.tensor_size();
    let telemetry = telemetry_for(tr);

    let setup = Instant::now();
    tr.begin("setup");
    let cluster = tr.time("cluster.build", Cluster::paper_testbed);
    let options = InitOptions {
        seed: plan_seed,
        synth: pinned(InitOptions::default().synth.anneal_iters),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let mut cc = tr.time("session.init", || AdapCC::init(&cluster, options));
    cc.setup();
    tr.time("session.plan", || {
        cc.strategy_for(Primitive::AllReduce, tensor);
    });
    tr.end();
    rep.setup_s += setup.elapsed().as_secs_f64();

    let wall = Instant::now();
    let mut stragglers = StragglerModel::new(seed);
    let mut arrivals = Vec::with_capacity(GATE_ADAPTIVE_OPS);
    let (mut comm_s, mut iteration_s) = (0.0, 0.0);
    for it in 0..ITERATIONS {
        let ready = stragglers.ready_times(&cluster, model, model.default_batch());
        let last = ready.values().copied().max().unwrap_or(SimTime::ZERO);
        let (out, op) = session_op(tr, &mut cc, |cc| {
            cc.allreduce_adaptive(tensor, &ready, None)
        });
        rep.ops.push(op);
        rep.attempted += 1;
        match out {
            Ok(r) => {
                comm_s += r.comm_time.as_secs();
                iteration_s += r.finish.max(last).as_secs();
                rep.steps += 1;
                rep.samples += (model.default_batch() * cluster.gpu_count()) as u64;
            }
            Err(e) => rep.errored(1, format!("session {seed} iteration {it}: {e}")),
        }
        arrivals.push(ready);
    }
    rep.wall_s += wall.elapsed().as_secs_f64();
    rep.absorb_telemetry(&telemetry);
    rep.absorb_plan_cache(&cc);

    if gate {
        while arrivals.len() < GATE_ADAPTIVE_OPS {
            arrivals.push(stragglers.ready_times(&cluster, model, model.default_batch()));
        }
        let mut g = Rep::default();
        run_gate(seed, &mut cc, &arrivals, &mut g);
        let held = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        validate(
            &mut g,
            &format!("session {seed} gpt2 allreduce"),
            &held,
            cc.topology(),
        );
        rep.absorb_gate(g);
    }
    (comm_s, iteration_s)
}

/// A real-data AllReduce over every worker must produce exact sums.
/// Then real-data adaptive AllReduces run behind each of `arrivals`
/// (the timed iterations' stragglers first); each one that errors or
/// misses a contribution counts as a failed collective. Runs untraced,
/// after the session's counts were read, so the per-layer figures cover
/// the timed part only.
fn run_gate(seed: u64, cc: &mut AdapCC<'_>, arrivals: &[BTreeMap<Rank, SimTime>], rep: &mut Rep) {
    let mut off = Tracer::new(false, Instant::now());
    let elems = (GATE_TENSOR.as_u64() / 4) as usize;
    let workers: Vec<Rank> = cc.workers().to_vec();
    let inputs = gate_inputs(&workers, elems, seed as usize);
    let (out, _) = session_op(&mut off, cc, |cc| {
        cc.allreduce(GATE_TENSOR, &BTreeMap::new(), Some(inputs.clone()))
    });
    rep.attempted += 1;
    match out {
        Ok(r) => {
            if let Err(e) = check_sums("gate allreduce", &r.outputs, &inputs, &workers, elems) {
                rep.fail(format!("session {seed}: {e}"));
            }
        }
        Err(e) => rep.fail(format!("session {seed} gate allreduce: {e}")),
    }

    for (it, ready) in arrivals.iter().enumerate() {
        let workers: Vec<Rank> = cc.workers().to_vec();
        let inputs = gate_inputs(&workers, elems, seed as usize + it);
        let (out, _) = session_op(&mut off, cc, |cc| {
            cc.allreduce_adaptive(GATE_TENSOR, ready, Some(inputs.clone()))
        });
        rep.attempted += 1;
        let what = format!("session {seed} iteration {it} adaptive allreduce");
        match out {
            Ok(r) => {
                if matches!(r.decision, Decision::Partial { .. }) {
                    rep.count("gate.partial_ops", 1.0);
                }
                // Ranks the coordinator declares faulty leave the job
                // and drop out of the sum.
                let kept: Vec<Rank> = workers
                    .iter()
                    .copied()
                    .filter(|w| !r.faults.contains(w))
                    .collect();
                if let Err(e) = check_sums(&what, &r.outputs, &inputs, &kept, elems) {
                    rep.count("gate.partial_mismatch_ops", 1.0);
                    rep.wrong_output(e);
                }
            }
            Err(e) => rep.errored(1, format!("{what}: {e}")),
        }
    }
}
