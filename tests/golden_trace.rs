//! Telemetry determinism and flow-conservation guarantees.
//!
//! The whole pipeline is driven by the simulated clock, so two runs of
//! the same configuration with the same seed must export *byte
//! identical* telemetry — the Chrome trace and the metrics summary are
//! golden. On top of that, the executor's per-link flow records must
//! respect flow conservation (paper eq. 1): a NIC is a pure forwarder,
//! so per sub-collective the bytes entering it equal the bytes leaving
//! it, and the sum of all recorded flows is exactly the executor's
//! bytes-on-wire tally.

use std::collections::BTreeMap;

use adapcc::session::{AdapCC, InitOptions};
use adapcc::{Decision, RelayConfig};
use adapcc_baselines::runner::{Runner, System};
use adapcc_bench::harness::profiled_with_telemetry;
use adapcc_simnet::cluster::{Cluster, ClusterBuilder, Rank};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::SynthConfig;
use adapcc_synth::Primitive;
use adapcc_telemetry::Telemetry;

/// One full instrumented run: detect → profile → synthesize → execute
/// on a fixed fleet, returning the sink holding every span, flow and
/// counter.
fn instrumented_run(primitive: Primitive, tensor: ByteSize, parallelism: usize) -> Telemetry {
    let mut b = ClusterBuilder::new();
    b.add_instances(InstanceSpec::dgx_a100(), 2);
    let cluster = b.build();
    let telemetry = Telemetry::enabled();
    let (topo, profile, control_secs) = profiled_with_telemetry(&cluster, 1, telemetry.clone());
    let runner = Runner::new(&cluster, &topo, &profile)
        .with_parallelism(parallelism)
        .with_telemetry(telemetry.at_offset(control_secs));
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    runner.run(
        System::AdapCc,
        primitive,
        tensor,
        &ranks,
        &Default::default(),
    );
    telemetry
}

#[test]
fn same_seed_runs_export_byte_identical_telemetry() {
    let a = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    let b = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    assert_eq!(a.chrome_trace(), b.chrome_trace(), "trace must be golden");
    assert_eq!(
        a.metrics_summary(),
        b.metrics_summary(),
        "metrics must be golden"
    );
}

#[test]
fn trace_covers_every_pipeline_phase_and_the_links() {
    let t = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    let spans = t.spans();
    for phase in [
        "detect",
        "profile.intra",
        "profile.inter",
        "profile.fanin",
        "synthesize",
        "execute",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "missing {phase} span; have {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
    // Phases are stitched onto one timeline: each starts no earlier
    // than the previous one on the same track.
    let order: Vec<f64> = ["detect", "profile.intra", "profile.inter", "profile.fanin"]
        .iter()
        .map(|n| spans.iter().find(|s| s.name == *n).unwrap().start_secs)
        .collect();
    assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
    assert!(!t.flows().is_empty(), "executor must record per-link flows");
    let trace = t.chrome_trace();
    assert!(trace.matches("\"cat\":\"flow\"").count() == t.flows().len());
    assert!(trace.contains("\"displayTimeUnit\""));
}

#[test]
fn reduce_flows_conserve_bytes_through_every_nic() {
    // Paper eq. 1 on recorded data: sweep tensor sizes and parallelism
    // degrees; in every Reduce run each NIC forwards exactly what it
    // receives (per sub-collective), every flow has sane timestamps,
    // and the flow total equals the executor's bytes-on-wire counter.
    for (mib, parallelism) in [(16, 1), (64, 2), (64, 4), (256, 4)] {
        let t = instrumented_run(Primitive::Reduce, ByteSize::from_mib(mib), parallelism);
        let flows = t.flows();
        assert!(!flows.is_empty());
        let mut total = 0u64;
        // (sub, nic-node) -> (bytes in, bytes out)
        let mut nic_io: BTreeMap<(usize, String), (u64, u64)> = BTreeMap::new();
        for f in &flows {
            assert!(
                f.enqueued_secs <= f.start_secs && f.start_secs <= f.end_secs,
                "flow timestamps out of order: {f:?}"
            );
            total += f.bytes;
            let (from, to) = f.link.split_once("->").expect("link label is from->to");
            if from.starts_with("nic") {
                nic_io.entry((f.sub, from.to_string())).or_default().1 += f.bytes;
            }
            if to.starts_with("nic") {
                nic_io.entry((f.sub, to.to_string())).or_default().0 += f.bytes;
            }
        }
        for ((sub, nic), (inb, outb)) in &nic_io {
            assert_eq!(
                inb, outb,
                "{mib} MiB x{parallelism}: sub {sub} {nic} received {inb} but \
                 forwarded {outb} bytes"
            );
        }
        assert_eq!(
            total,
            t.counter("exec.bytes_on_wire") as u64,
            "{mib} MiB x{parallelism}: flow records disagree with bytes-on-wire"
        );
    }
}

#[test]
fn hierarchical_64_gpu_trace_is_deterministic() {
    // 64 GPUs on 16 servers: the Auto threshold engages the two-tier
    // synthesis. Two identical runs must export byte-identical
    // telemetry — every flow record, span and counter in the same
    // order at the same instants.
    let run = || {
        let cluster = Cluster::homogeneous_a100(16);
        let telemetry = Telemetry::enabled();
        let (topo, profile, control_secs) = profiled_with_telemetry(&cluster, 1, telemetry.clone());
        let runner = Runner::new(&cluster, &topo, &profile)
            .with_parallelism(2)
            .with_telemetry(telemetry.at_offset(control_secs));
        let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
        runner.run(
            System::AdapCc,
            Primitive::AllReduce,
            ByteSize::from_mib(4),
            &ranks,
            &Default::default(),
        );
        telemetry
    };
    let a = run();
    let b = run();
    assert!(
        a.counter("synth.hierarchical") >= 1.0,
        "64 GPUs must take the hierarchical path"
    );
    assert_eq!(
        a.chrome_trace(),
        b.chrome_trace(),
        "64-GPU trace must be golden"
    );
    assert_eq!(
        a.metrics_summary(),
        b.metrics_summary(),
        "64-GPU metrics must be golden"
    );
}

#[test]
fn engine_storm_at_256_servers_is_deterministic_and_mode_consistent() {
    // Pins the dirty-frontier engine at cluster scale: 256 servers of
    // staggered, contending cross-server transfers. Two runs must
    // produce bit-identical event streams, and the stream must equal
    // the paranoid mode's — every live component refilled from scratch
    // after every event — bit for bit (the exactness contract of
    // DESIGN.md §15). Every transfer completes once, in time order.
    use adapcc_simnet::cluster::InstanceId;
    use adapcc_simnet::engine::{NetSim, SimEvent};

    let cluster = Cluster::homogeneous_a100(256);
    let n = cluster.instance_count();
    const TIMER_BASE: u64 = 1 << 32;
    let run = |paranoid: bool| -> Vec<(u64, u64)> {
        let mut sim = NetSim::new(&cluster).with_paranoid_refill(paranoid);
        for i in 0..n {
            // Staggered arrivals so completions interleave with later
            // submissions instead of forming one synchronized wave.
            sim.schedule_timer(
                SimDuration::from_micros(1.0 + i as f64 * 0.7),
                TIMER_BASE + i as u64,
            );
        }
        let mut out = Vec::new();
        while let Some(ev) = sim.step() {
            if let SimEvent::Timer { token, .. } = ev {
                let i = (token - TIMER_BASE) as usize;
                let stride = 1 + i % (n - 1);
                let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                sim.submit_transfer(
                    &path,
                    ByteSize::from_kib(64 + (i as u64 * 37) % 192),
                    i as u64,
                );
            } else {
                out.push((ev.token(), ev.at().as_secs().to_bits()));
            }
        }
        out
    };

    let a = run(false);
    let b = run(false);
    assert_eq!(a, b, "256-server stream must be golden");
    assert_eq!(a, run(true), "frontier and paranoid streams must match");
    let mut tokens: Vec<u64> = a.iter().map(|&(t, _)| t).collect();
    tokens.sort_unstable();
    assert_eq!(
        tokens,
        (0..n as u64).collect::<Vec<_>>(),
        "every transfer completes exactly once"
    );
    assert!(
        a.windows(2)
            .all(|w| f64::from_bits(w[0].1) <= f64::from_bits(w[1].1)),
        "event stream must be monotone in time"
    );
}

// ---------------------------------------------------------------------------
// Golden equivalence through the staged CollectiveSpec pipeline.
//
// The constants below were captured on the pre-refactor session code
// (bespoke per-entry-point orchestration). The staged pipeline must
// reproduce the same finish instants and output tensors bit for bit:
// finish times are compared as `f64::to_bits`, outputs as an FNV-1a
// hash over every `(rank, f32::to_bits)` pair in rank order.
// ---------------------------------------------------------------------------

fn inputs_for(workers: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
    workers
        .iter()
        .map(|r| {
            let buf = (0..elems).map(|i| ((r.0 * 13 + i) % 11) as f32).collect();
            (*r, buf)
        })
        .collect()
}

fn quick_options() -> InitOptions {
    InitOptions {
        synth: SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn patient_options() -> InitOptions {
    InitOptions {
        relay: RelayConfig {
            fault_floor: SimDuration::from_millis(500.0),
            ..Default::default()
        },
        ..quick_options()
    }
}

fn fnv(outputs: &BTreeMap<Rank, Vec<f32>>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (r, buf) in outputs {
        for b in (r.0 as u64).to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        for v in buf {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_wait_all_collectives() {
    let c = Cluster::homogeneous_a100(2);
    let kib64 = ByteSize::from_kib(64);
    let elems = 64 * 1024 / 4;

    // AllReduce: a data run, then a 16 MiB timing-only run in the same
    // session (exercises the zero-skew execution cache).
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.allreduce(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f07bd06a2e303d3,
            "allreduce finish"
        );
        assert_eq!(fnv(&r.outputs), 0x5495bb624097e475, "allreduce outputs");
        let r2 = cc
            .allreduce(ByteSize::from_mib(16), &BTreeMap::new(), None)
            .unwrap();
        assert_eq!(
            r2.finish.as_secs().to_bits(),
            0x3f572b49cb1b2da3,
            "allreduce timing"
        );
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.reduce(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f01896331389d4a,
            "reduce finish"
        );
        assert_eq!(fnv(&r.outputs), 0xc772b8272d6b4de9, "reduce outputs");
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc
            .broadcast(Rank(1), kib64, &BTreeMap::new(), Some(inputs))
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3ef6c485e00d1e30,
            "broadcast finish"
        );
        assert_eq!(fnv(&r.outputs), 0xb1980c0e8d51c74e, "broadcast outputs");
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.alltoall(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3eff89efedb823a2,
            "alltoall finish"
        );
        assert_eq!(fnv(&r.outputs), 0x33a8e6ab7f22fc2d, "alltoall outputs");
    }
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_composites() {
    let c = Cluster::homogeneous_a100(2);
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let t16 = ByteSize::from_kib(16);
        let inputs = inputs_for(cc.workers(), 16 * 1024 / 4);
        let r = cc.allgather(t16, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3ef661d6167c73f7,
            "allgather finish"
        );
        assert_eq!(fnv(&r.outputs), 0xff85e564b16ea5f5, "allgather outputs");
        let r2 = cc.allgather(t16, &BTreeMap::new(), None).unwrap();
        assert_eq!(
            r2.finish.as_secs().to_bits(),
            0x3ef661d6167c73f7,
            "allgather timing"
        );
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let n = cc.workers().len();
        let shard_elems = 1024usize;
        let tensor = ByteSize::from_bytes((n * shard_elems * 4) as u64);
        let inputs = inputs_for(cc.workers(), n * shard_elems);
        let r = cc
            .reduce_scatter(tensor, &BTreeMap::new(), Some(inputs))
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3efc0a33bd3b8e82,
            "reduce_scatter finish"
        );
        assert_eq!(
            fnv(&r.outputs),
            0x573fc57d0de0ac80,
            "reduce_scatter outputs"
        );
    }
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_adaptive_allreduce() {
    let c = Cluster::homogeneous_a100(2);
    let kib64 = ByteSize::from_kib(64);

    // Small skew: the ski-rental rule says wait, and the decision start
    // instant (which embeds the seeded RPC jitter draw) must match.
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let mut ready = BTreeMap::new();
        for r in cc.workers().to_vec() {
            ready.insert(r, SimTime::from_secs(r.0 as f64 * 1e-5));
        }
        let r = cc
            .allreduce_adaptive(ByteSize::from_mib(16), &ready, None)
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f5f899be97b8c7e,
            "adaptive wait-all finish"
        );
        match r.decision {
            Decision::WaitAll { start } => {
                assert_eq!(start.as_secs(), 0.0005107690753955371, "decision start");
            }
            other => panic!("expected WaitAll, got {other:?}"),
        }
    }

    // Heavy straggler (not the strategy root): phase-1 partial plus the
    // phase-2 completion broadcast, with full data fidelity.
    {
        let mut cc = AdapCC::init(&c, patient_options());
        cc.setup();
        let workers = cc.workers().to_vec();
        let inputs = inputs_for(&workers, 64 * 1024 / 4);
        let mut ready: BTreeMap<Rank, SimTime> =
            workers.iter().map(|r| (*r, SimTime::ZERO)).collect();
        let strategy_root = cc.strategy_for(Primitive::AllReduce, kib64).subs[0]
            .root
            .unwrap();
        let straggler = workers
            .iter()
            .copied()
            .find(|r| *r != strategy_root)
            .unwrap();
        ready.insert(straggler, SimTime::from_secs(0.04));
        let r = cc.allreduce_adaptive(kib64, &ready, Some(inputs)).unwrap();
        assert!(
            matches!(r.decision, Decision::Partial { .. }),
            "{:?}",
            r.decision
        );
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3fa47e86503c75b4,
            "adaptive partial finish"
        );
        assert_eq!(
            fnv(&r.outputs),
            0x5495bb624097e475,
            "adaptive partial outputs"
        );
    }
}

#[test]
fn every_pipeline_stage_emits_one_span_per_collective() {
    // Six entry points through the shared pipeline: each stage must
    // emit exactly one span per collective on the `collective` track.
    let c = Cluster::homogeneous_a100(2);
    let telemetry = Telemetry::enabled();
    let mut options = quick_options();
    options.telemetry = telemetry.clone();
    let mut cc = AdapCC::init(&c, options);
    cc.setup();
    let idle = BTreeMap::new();
    let kib64 = ByteSize::from_kib(64);
    cc.allreduce(kib64, &idle, None).unwrap();
    cc.reduce(kib64, &idle, None).unwrap();
    cc.broadcast(Rank(0), kib64, &idle, None).unwrap();
    cc.alltoall(kib64, &idle, None).unwrap();
    cc.allgather(ByteSize::from_kib(16), &idle, None).unwrap();
    cc.reduce_scatter(ByteSize::from_bytes(8 * 1024 * 4), &idle, None)
        .unwrap();
    let spans = telemetry.spans();
    for stage in [
        "collective.plan",
        "collective.relay",
        "collective.execute",
        "collective.assemble",
    ] {
        let n = spans.iter().filter(|s| s.name == stage).count();
        assert_eq!(n, 6, "expected one {stage} span per collective, got {n}");
    }
    for s in spans.iter().filter(|s| s.name.starts_with("collective.")) {
        assert_eq!(s.track, "collective");
    }
}
