//! `allreduce-512`: a cold 64 MiB AllReduce on 512 A100 servers (2048
//! GPUs) on a flat fabric, hierarchical synthesis on auto — the same
//! run as `adapcc_sim --servers a100:512`. The benchmark drives each
//! layer directly: detect, profile, synthesize, execute.

use std::time::Instant;

use adapcc::{ExecutionRequest, Executor};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{ClusterBuilder, Rank};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{SynthRequest, Synthesizer};
use adapcc_topo::detect::Detector;

use super::{check_sums, gate_inputs, pinned, telemetry_for, validate, Rep};
use crate::trace::Tracer;

/// A100 servers in the fleet.
pub const SERVERS: usize = 512;
/// Per-rank AllReduce tensor.
const TENSOR: ByteSize = ByteSize::from_mib(64);
/// Parallel sub-collectives (`M`).
const PARALLELISM: usize = 4;
/// Annealing iterations, as the baseline runner and `adapcc_sim` use.
const ANNEAL_ITERS: usize = 120;
/// Timed executions of the held strategy per repetition.
const EXECUTIONS: usize = 6;
/// Per-rank tensor of the real-data gate collective.
const GATE_TENSOR: ByteSize = ByteSize::from_kib(1);

/// Runs one repetition; `gate` adds the correctness gate.
pub fn run(seed: u64, tr: &mut Tracer, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let telemetry = telemetry_for(tr);

    let setup = Instant::now();
    tr.begin("setup");
    let cluster = tr.time("cluster.build", || {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::a100_server(), SERVERS);
        b.build()
    });
    let (topo, detect_secs) = tr.time("topo.detect", || {
        let detection = Detector::new(&cluster, seed)
            .with_telemetry(telemetry.clone())
            .run();
        (
            detection.logical_topology(&cluster),
            detection.elapsed.as_secs(),
        )
    });
    let profile = tr.time("profile.run", || {
        Profiler::new(&cluster, &topo, seed)
            .with_telemetry(telemetry.at_offset(detect_secs))
            .run()
            .links
    });
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    let mut req = SynthRequest::new(Primitive::AllReduce, TENSOR, PARALLELISM, ranks.clone());
    req.seed = seed;
    let strategy = tr.time("synth.solve", || {
        Synthesizer::new(&topo, &profile)
            .with_config(pinned(ANNEAL_ITERS))
            .with_telemetry(telemetry.clone())
            .synthesize(&req)
    });
    tr.end();
    rep.setup_s = setup.elapsed().as_secs_f64();

    // The held strategy executes several times; each execution is one
    // sample of `wall_s`, and the simulated results must agree.
    let executor = Executor::new(&cluster, &topo).with_telemetry(telemetry.clone());
    let mut finish = None;
    let mut walls = Vec::with_capacity(EXECUTIONS);
    for i in 0..EXECUTIONS {
        let wall = Instant::now();
        let out = tr.time("exec.execute", || {
            executor.try_execute(&[ExecutionRequest::timing(&strategy, TENSOR)])
        });
        walls.push(wall.elapsed().as_secs_f64());
        rep.attempted += 1;
        match out {
            Ok(batch) => {
                let ms = batch.finish.as_secs() * 1e3;
                if finish.is_some_and(|f: f64| f.to_bits() != ms.to_bits()) {
                    rep.problems
                        .push(format!("execution {i} finished at {ms} ms"));
                }
                finish = Some(ms);
            }
            Err(e) => rep.errored(1, format!("allreduce: {e}")),
        }
    }
    rep.wall_s = crate::median(walls.into_iter());
    if let Some(ms) = finish {
        rep.sim_comm_ms = ms;
        rep.sim_makespan_ms = ms;
        rep.steps = 1;
    }
    rep.absorb_telemetry(&telemetry);

    // Gate, untraced and after the counts were read: the held strategy
    // moves real data; every rank must hold the exact sum.
    if gate {
        let mut g = Rep::default();
        validate(&mut g, "allreduce", &strategy, &topo);
        let elems = (GATE_TENSOR.as_u64() / 4) as usize;
        let inputs = gate_inputs(&ranks, elems, seed as usize);
        let out = Executor::new(&cluster, &topo).try_execute(&[ExecutionRequest::timing(
            &strategy,
            GATE_TENSOR,
        )
        .with_inputs(inputs.clone())]);
        g.attempted += 1;
        match out {
            Ok(batch) => {
                let outputs = &batch.requests[0].outputs;
                if let Err(e) = check_sums("gate allreduce", outputs, &inputs, &ranks, elems) {
                    g.fail(e);
                }
            }
            Err(e) => g.fail(format!("gate allreduce: {e}")),
        }
        rep.absorb_gate(g);
    }
    rep
}
