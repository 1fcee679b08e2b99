//! The four workloads. Each runs one repetition from its seed: set-up
//! (timed as `setup_s`), the timed collectives (`wall_s`), then, in the
//! first repetition of a run only, a correctness gate that is not
//! timed.

pub mod allreduce512;
pub mod churn;
pub mod parallel3d;
pub mod testbed;

use std::collections::BTreeMap;
use std::time::Instant;

use adapcc::{AdapCC, AdapCCError, Decision, IterationReport};
use adapcc_simnet::cluster::Rank;
use adapcc_synth::solver::SynthConfig;
use adapcc_synth::strategy::Strategy;
use adapcc_telemetry::Telemetry;
use adapcc_topo::logical::LogicalTopology;

use crate::trace::Tracer;

/// Counters read from the `Telemetry` sink after a traced repetition.
pub const TELEMETRY_COUNTERS: &[&str] = &[
    "topo.probed_instances",
    "profile.edges",
    "probe.measurements",
    "synth.requests",
    "synth.warm_requests",
    "synth.full_evals",
    "synth.delta_evals",
    "synth.coschedule.sweeps",
    "relay.decisions",
    "relay.buys",
    "relay.wait_secs",
    "exec.requests",
    "exec.bytes_on_wire",
    "recovery.retries",
    "recovery.exclusions",
    "health.rejoins",
    "health.suspected",
];

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Adaptive AllReduce training loop on the paper testbed.
    TestbedTrain,
    /// Cold 64 MiB AllReduce on 512 flat-fabric A100 servers.
    Allreduce512,
    /// One co-scheduled 3D-parallel + MoE step on a 32-GPU fat tree.
    Parallel3d32,
    /// Many seeded churn sessions on 4 A100 servers.
    Churn16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TestbedTrain,
        Workload::Allreduce512,
        Workload::Parallel3d32,
        Workload::Churn16,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedTrain => "testbed-train",
            Workload::Allreduce512 => "allreduce-512",
            Workload::Parallel3d32 => "parallel3d-32",
            Workload::Churn16 => "churn-16",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition; `gate` adds the correctness gate after the
    /// timed part.
    pub fn run(self, seed: u64, tr: &mut Tracer, gate: bool) -> Rep {
        match self {
            Workload::TestbedTrain => testbed::run(seed, tr, gate),
            Workload::Allreduce512 => allreduce512::run(seed, tr, gate),
            Workload::Parallel3d32 => parallel3d::run(seed, tr, gate),
            Workload::Churn16 => churn::run(seed, tr, gate),
        }
    }
}

/// One session collective, timed on the host clock.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Host milliseconds inside the session call.
    pub ms: f64,
    /// The relay coordinator ran a phase-1/phase-2 partial collective.
    pub partial: bool,
    /// The call resolved a plan the session had not memoized.
    pub replan: bool,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of set-up: cluster build through the first
    /// synthesis.
    pub setup_s: f64,
    /// Host seconds from the end of set-up to the last timed collective.
    pub wall_s: f64,
    /// Mean simulated communication time per timed collective (ms).
    pub sim_comm_ms: f64,
    /// Simulated time the timed part covers (ms).
    pub sim_makespan_ms: f64,
    /// Completed steps (iterations, collectives or 3D steps).
    pub steps: u64,
    /// Training samples the completed steps processed (training
    /// workloads only).
    pub samples: u64,
    /// Timed collectives attempted.
    pub attempted: u64,
    /// Timed collectives that errored.
    pub failed: u64,
    /// The repetition ran the correctness gate.
    pub gated: bool,
    /// Gate collectives attempted.
    pub gate_attempted: u64,
    /// Gate collectives that errored or gave wrong output.
    pub gate_failed: u64,
    /// Correctness-gate failures, one line each; any fails the run.
    pub problems: Vec<String>,
    /// Failed collectives outside the hard gate (typed errors, wrong
    /// adaptive outputs), printed with the result.
    pub notes: Vec<String>,
    /// Session collectives (session workloads only).
    pub ops: Vec<Op>,
    /// Deterministic per-layer counts.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// The values that must repeat bit for bit for one seed and build:
    /// simulated metrics, operation counts and per-layer counts.
    pub fn digest(&self) -> BTreeMap<String, u64> {
        let mut d = BTreeMap::new();
        d.insert("sim_comm_ms".into(), self.sim_comm_ms.to_bits());
        d.insert("sim_makespan_ms".into(), self.sim_makespan_ms.to_bits());
        d.insert("steps".into(), self.steps);
        d.insert("samples".into(), self.samples);
        d.insert("attempted".into(), self.attempted);
        d.insert("failed".into(), self.failed);
        if self.gated {
            d.insert("gate_attempted".into(), self.gate_attempted);
            d.insert("gate_failed".into(), self.gate_failed);
        }
        for (k, v) in &self.counters {
            d.insert((*k).to_string(), v.to_bits());
        }
        d
    }

    /// Records a gate failure: one failed operation plus its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records collectives that returned a typed error.
    pub fn errored(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.notes.push(format!("typed error: {why}"));
    }

    /// Records a collective whose real-data output was wrong, outside
    /// the hard gate: it counts as failed and is printed, and the run
    /// still reports its metrics.
    pub fn wrong_output(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("wrong output: {why}"));
    }

    /// Takes in what a gate recorded into its own `Rep`: its operation
    /// counts, failures, notes and counters.
    pub fn absorb_gate(&mut self, gate: Rep) {
        self.gated = true;
        self.gate_attempted += gate.attempted;
        self.gate_failed += gate.failed;
        self.problems.extend(gate.problems);
        self.notes.extend(gate.notes);
        for (k, v) in gate.counters {
            self.count(k, v);
        }
    }

    /// Adds `v` to a per-layer count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Adds the telemetry sink's counters (a no-op when disabled).
    pub fn absorb_telemetry(&mut self, t: &Telemetry) {
        if t.is_enabled() {
            for name in TELEMETRY_COUNTERS {
                self.count(name, t.counter(name));
            }
        }
    }

    /// Adds a session's plan-cache counters.
    pub fn absorb_plan_cache(&mut self, cc: &AdapCC<'_>) {
        let s = cc.plan_cache_stats();
        self.count("plancache.hits", s.hits as f64);
        self.count("plancache.misses", s.misses as f64);
        self.count("plancache.warm_starts", s.warm_starts as f64);
    }
}

/// The solver pinned to one chain on one thread, so every run of the
/// benchmark does the same search on a single core.
pub fn pinned(anneal_iters: usize) -> SynthConfig {
    SynthConfig {
        anneal_iters,
        anneal_chains: 1,
        solver_threads: 1,
        ..Default::default()
    }
}

/// The seed of sub-run `i` (a session, say) of a repetition seeded
/// with `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// A sink that records only when the repetition is traced.
pub fn telemetry_for(tr: &Tracer) -> Telemetry {
    if tr.on() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Small-integer gate inputs: every f32 sum of them is exact in any
/// reduction order.
pub fn gate_inputs(ranks: &[Rank], elems: usize, salt: usize) -> BTreeMap<Rank, Vec<f32>> {
    ranks
        .iter()
        .map(|r| {
            let v = (0..elems)
                .map(|i| ((r.0 * 13 + i * 7 + salt) % 11) as f32)
                .collect();
            (*r, v)
        })
        .collect()
}

/// Checks that every rank in `ranks` holds the exact elementwise sum of
/// `inputs` over `ranks` (a rank without an input buffer adds zeros).
pub fn check_sums(
    what: &str,
    outputs: &BTreeMap<Rank, Vec<f32>>,
    inputs: &BTreeMap<Rank, Vec<f32>>,
    ranks: &[Rank],
    elems: usize,
) -> Result<(), String> {
    let want: Vec<f32> = (0..elems)
        .map(|i| {
            ranks
                .iter()
                .map(|r| inputs.get(r).map_or(0.0, |v| f64::from(v[i])))
                .sum::<f64>() as f32
        })
        .collect();
    for r in ranks {
        let Some(out) = outputs.get(r) else {
            return Err(format!("{what}: no output for {r:?}"));
        };
        if out.len() != elems {
            return Err(format!("{what}: {r:?} output has {} elements", out.len()));
        }
        if let Some(i) = (0..elems).find(|&i| out[i].to_bits() != want[i].to_bits()) {
            return Err(format!(
                "{what}: {r:?} element {i} is {} not {}",
                out[i], want[i]
            ));
        }
    }
    Ok(())
}

/// Checks a held strategy with `Strategy::validate`.
pub fn validate(rep: &mut Rep, what: &str, s: &Strategy, topo: &LogicalTopology) {
    if let Err(e) = s.validate(topo) {
        rep.fail(format!("{what}: strategy fails validate: {e:?}"));
    }
}

/// Runs one session collective inside a `session.op` span and times it.
pub fn session_op<'c>(
    tr: &mut Tracer,
    cc: &mut AdapCC<'c>,
    call: impl FnOnce(&mut AdapCC<'c>) -> Result<IterationReport, AdapCCError>,
) -> (Result<IterationReport, AdapCCError>, Op) {
    let lookups = |cc: &AdapCC<'_>| {
        let s = cc.plan_cache_stats();
        s.hits + s.misses + s.warm_starts
    };
    let before = lookups(cc);
    let start = Instant::now();
    let out = tr.time("session.op", || call(cc));
    let op = Op {
        ms: start.elapsed().as_secs_f64() * 1e3,
        partial: matches!(&out, Ok(r) if matches!(r.decision, Decision::Partial { .. })),
        replan: lookups(cc) > before,
    };
    (out, op)
}
