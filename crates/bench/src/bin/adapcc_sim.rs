//! `adapcc-sim`: run one collective on a simulated cluster from the
//! command line.
//!
//! ```text
//! cargo run --release -p adapcc-bench --bin adapcc_sim -- \
//!     --servers a100:4,v100:2 --primitive allreduce --size-mib 256 --describe
//! ```

use adapcc_baselines::runner::{Runner, System};
use adapcc_bench::chaos::{self, ChaosConfig};
use adapcc_bench::churn::{self, ChurnConfig};
use adapcc_bench::cli::{
    build_cluster, parse_args, parse_chaos_args, parse_churn_args, parse_engine_args,
    parse_parallel3d_args, parse_serve_args, ServerKind, SimArgs,
};
use adapcc_bench::engine_bench::engine_storm;
use adapcc_bench::harness::profiled_with_telemetry;
use adapcc_bench::record::BenchRecord;
use adapcc_bench::service_bench::{run_service_bench, ServiceWorkload};
use adapcc_simnet::cluster::Rank;
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;
use adapcc_telemetry::Telemetry;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("chaos") {
        argv.remove(0);
        run_chaos(argv);
        return;
    }
    if argv.first().map(String::as_str) == Some("churn") {
        argv.remove(0);
        run_churn(argv);
        return;
    }
    if argv.first().map(String::as_str) == Some("engine") {
        argv.remove(0);
        run_engine(argv);
        return;
    }
    if argv.first().map(String::as_str) == Some("serve") {
        argv.remove(0);
        run_serve(argv);
        return;
    }
    if argv.first().map(String::as_str) == Some("parallel3d") {
        argv.remove(0);
        run_parallel3d(argv);
        return;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let cluster = build_cluster(&args);
    println!(
        "cluster: {} servers / {} GPUs ({})",
        cluster.instance_count(),
        cluster.gpu_count(),
        if args.tcp { "TCP" } else { "RDMA" }
    );
    let wants_telemetry = args.trace_out.is_some() || args.metrics_out.is_some();
    let telemetry = if wants_telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let hierarchical = if args.hierarchical {
        adapcc_synth::Hierarchical::On
    } else {
        adapcc_synth::Hierarchical::Auto
    };
    let run_start = std::time::Instant::now();
    let (topo, profile, control_secs) =
        profiled_with_telemetry(&cluster, args.seed, telemetry.clone());
    let mut runner = Runner::new(&cluster, &topo, &profile)
        .with_parallelism(args.parallelism)
        .with_solver(args.solver_chains, args.solver_threads)
        .with_hierarchical(hierarchical)
        .with_telemetry(telemetry.at_offset(control_secs));
    runner.seed = args.seed;
    if let Some(dir) = &args.plan_cache {
        runner = runner.with_plan_cache(adapcc_plancache::PlanCache::new(
            adapcc_plancache::PlanCacheConfig::on_disk(dir),
        ));
    }
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    if args.describe && args.system != System::Blink {
        let strategy = runner.strategy(args.system, args.primitive, args.tensor, &ranks);
        print!("{}", adapcc_synth::describe(&topo, &strategy));
    }
    let report = runner.run(
        args.system,
        args.primitive,
        args.tensor,
        &ranks,
        &Default::default(),
    );
    let sim_wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{} {} of {}: {} ({:.2} GB/s algorithm bandwidth, {:.0} ms wall)",
        args.system.name(),
        args.primitive,
        args.tensor,
        report.comm_time,
        report.algo_bw_gbytes,
        sim_wall_ms
    );
    // Counters must land in the sink before the metrics summary below
    // renders; the trace itself carries no cache-dependent spans, so it
    // stays byte-identical warm or cold.
    runner.export_plan_cache_counters();
    let cache_stats = runner.plan_cache_stats();
    if let Some(stats) = cache_stats {
        println!(
            "plan cache: {} hit(s), {} warm start(s), {} miss(es), {:.2}s modeled solve time saved",
            stats.hits,
            stats.warm_starts,
            stats.misses,
            stats.saved.as_secs()
        );
    }
    if let Some(path) = &args.trace_out {
        write_or_die(path, &telemetry.chrome_trace(), "trace");
        println!("trace written to {path} (load in chrome://tracing)");
    }
    if let Some(path) = &args.metrics_out {
        write_or_die(path, &telemetry.metrics_summary(), "metrics");
        println!("metrics written to {path}");
    }
    if let Some(path) = &args.bench_append {
        // One extra cold synthesis, timed on the host clock with a
        // throwaway telemetry sink for the synth.* counters. The wall
        // time is a property of this machine, never of the simulated
        // timeline, so it lives only in the bench record.
        let (solver_wall_ms, full_evals, delta_evals, chains) = if args.system == System::AdapCc {
            let probe = Telemetry::enabled();
            let mut timed = Runner::new(&cluster, &topo, &profile)
                .with_parallelism(args.parallelism)
                .with_solver(args.solver_chains, args.solver_threads)
                .with_hierarchical(hierarchical)
                .with_telemetry(probe.clone());
            timed.seed = args.seed;
            let start = std::time::Instant::now();
            let _ = timed.strategy(System::AdapCc, args.primitive, args.tensor, &ranks);
            let wall = start.elapsed().as_secs_f64() * 1e3;
            (
                wall,
                probe.counter("synth.full_evals") as u64,
                probe.counter("synth.delta_evals") as u64,
                probe.counter("synth.chains") as u64,
            )
        } else {
            (0.0, 0, 0, 0)
        };
        // Engine throughput on the same cluster: a short storm so
        // BENCH rows carry events/sec alongside the solver numbers.
        let engine_events_per_sec = if cluster.instance_count() >= 2 {
            engine_storm(&cluster, 4, adapcc_bench::engine_bench::StormMode::Wave).events_per_sec()
        } else {
            0.0
        };
        let rec = BenchRecord {
            system: args.system.name().to_string(),
            primitive: args.primitive.to_string(),
            servers: servers_spec(&args),
            tensor_mib: args.tensor.as_u64() / (1024 * 1024),
            parallelism: args.parallelism,
            comm_time_ms: report.comm_time.as_millis(),
            algo_bw_gbytes: report.algo_bw_gbytes,
            plan_cache_hits: cache_stats.map_or(0, |s| s.hits),
            plan_cache_misses: cache_stats.map_or(0, |s| s.misses),
            plan_cache_warm_starts: cache_stats.map_or(0, |s| s.warm_starts),
            solver_wall_ms,
            synth_full_evals: full_evals,
            synth_delta_evals: delta_evals,
            synth_chains: chains,
            hierarchical: args.hierarchical,
            sim_wall_ms,
            engine_events_per_sec,
        };
        if let Err(e) = rec.append_to(std::path::Path::new(path)) {
            eprintln!("cannot append bench record to {path}: {e}");
            std::process::exit(1);
        }
        println!("bench record appended to {path}");
    }
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

fn servers_spec(args: &SimArgs) -> String {
    args.servers
        .iter()
        .map(|(kind, count)| {
            let name = match kind {
                ServerKind::A100 => "a100",
                ServerKind::V100 => "v100",
                ServerKind::H100 => "h100",
            };
            format!("{name}:{count}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn run_engine(argv: Vec<String>) {
    let args = match parse_engine_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let cluster = adapcc_simnet::cluster::Cluster::homogeneous_a100(args.servers);
    let report = engine_storm(&cluster, args.waves, args.storm);
    println!(
        "engine storm ({}): {} servers / {} GPUs, {} waves, {} transfers \
         -> {} events in {:.1} ms wall ({:.0} events/sec, {:.3} ms simulated, \
         {} fillings touching {} flows)",
        args.storm.as_str(),
        cluster.instance_count(),
        cluster.gpu_count(),
        args.waves,
        report.transfers,
        report.events,
        report.wall_ms,
        report.events_per_sec(),
        report.sim_ms,
        report.fillings,
        report.frontier_flows
    );
    if let Some(path) = &args.bench_append {
        let rec = adapcc_bench::record::EngineBenchRecord {
            servers: format!("a100:{}", args.servers),
            gpus: cluster.gpu_count(),
            waves: args.waves,
            storm: args.storm.as_str().into(),
            transfers: report.transfers,
            events: report.events,
            sim_ms: report.sim_ms,
            wall_ms: report.wall_ms,
            events_per_sec: report.events_per_sec(),
            fillings: report.fillings,
            frontier_flows: report.frontier_flows,
            // The storm never synthesizes; the zero cache columns keep
            // engine rows schema-uniform with every other record.
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_warm_starts: 0,
            hierarchical: false,
        };
        if let Err(e) = rec.append_to(std::path::Path::new(path)) {
            eprintln!("cannot append engine record to {path}: {e}");
            std::process::exit(1);
        }
        println!("engine record appended to {path}");
    }
}

fn run_serve(argv: Vec<String>) {
    let args = match parse_serve_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let workload = ServiceWorkload {
        jobs: args.jobs,
        threads: args.threads,
        repeat_ratio: args.repeat_ratio,
        shapes: args.shapes,
        seed: args.seed,
        shards: args.shards,
        byte_budget: args.budget_mib << 20,
        ..ServiceWorkload::default()
    };
    println!(
        "serve: {} jobs on {} threads, repeat ratio {:.2}, {} shapes, \
         {} shards / {} MiB budget",
        args.jobs, args.threads, args.repeat_ratio, args.shapes, args.shards, args.budget_mib
    );
    let r = run_service_bench(&workload);
    println!(
        "service:  {} requests in {:.1} ms -> {:.0} plans/sec \
         (hit {} / warm {} / cold {} / coalesced {}; p50 {:.0} us, p99 {:.0} us)",
        r.service.requests,
        r.service.wall_ms,
        r.service.plans_per_sec,
        r.service.hits,
        r.service.warm_starts,
        r.service.cold_solves,
        r.service.coalesced,
        r.service.p50_us,
        r.service.p99_us,
    );
    println!(
        "baseline: {} requests in {:.1} ms -> {:.0} plans/sec \
         (hit {} / warm {} / cold {}; p50 {:.0} us, p99 {:.0} us)",
        r.baseline.requests,
        r.baseline.wall_ms,
        r.baseline.plans_per_sec,
        r.baseline.hits,
        r.baseline.warm_starts,
        r.baseline.cold_solves,
        r.baseline.p50_us,
        r.baseline.p99_us,
    );
    println!(
        "store: {} entries / {} bytes, {} evictions; speedup {:.2}x",
        r.entries, r.bytes, r.evictions, r.speedup
    );
    if let Some(path) = &args.bench_append {
        let rec = adapcc_bench::record::ServiceBenchRecord {
            jobs: args.jobs,
            threads: args.threads,
            repeat_ratio: args.repeat_ratio,
            shapes: args.shapes,
            requests: r.service.requests,
            hits: r.service.hits,
            warm_starts: r.service.warm_starts,
            cold_solves: r.service.cold_solves,
            coalesced: r.service.coalesced,
            entries: r.entries,
            bytes: r.bytes,
            evictions: r.evictions,
            plans_per_sec: r.service.plans_per_sec,
            p50_us: r.service.p50_us,
            p99_us: r.service.p99_us,
            wall_ms: r.service.wall_ms,
            baseline_plans_per_sec: r.baseline.plans_per_sec,
            baseline_p50_us: r.baseline.p50_us,
            baseline_p99_us: r.baseline.p99_us,
            baseline_wall_ms: r.baseline.wall_ms,
            speedup: r.speedup,
        };
        if let Err(e) = rec.append_to(std::path::Path::new(path)) {
            eprintln!("cannot append service record to {path}: {e}");
            std::process::exit(1);
        }
        println!("service record appended to {path}");
    }
}

fn run_chaos(argv: Vec<String>) {
    let args = match parse_chaos_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let cfg = ChaosConfig {
        servers: args.servers,
        tensor: ByteSize::from_kib(args.size_kib),
        horizon: SimDuration::from_millis(args.horizon_ms),
        ..Default::default()
    };
    println!(
        "chaos: {} seeds from {} on {} servers, {} KiB tensors, {} ms horizon",
        args.seeds, args.seed_base, args.servers, args.size_kib, args.horizon_ms
    );
    let summary = chaos::run_sweep(&cfg, args.seed_base, args.seeds, |r| {
        if args.verbose {
            println!(
                "  seed {:>4} ({} faults, {} iters): {:?}",
                r.seed, r.schedule_len, r.iterations, r.outcome
            );
        }
    });
    println!(
        "clean {} / recovered {} / classified {} / mismatched {} (of {})",
        summary.clean,
        summary.recovered,
        summary.classified,
        summary.mismatches.len(),
        summary.total
    );
    if !summary.mismatches.is_empty() {
        for m in &summary.mismatches {
            eprintln!("NUMERIC MISMATCH seed {}: {:?}", m.seed, m.outcome);
        }
        std::process::exit(1);
    }
}

fn run_churn(argv: Vec<String>) {
    let args = match parse_churn_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let cfg = ChurnConfig {
        servers: args.servers,
        tensor: ByteSize::from_kib(args.size_kib),
        horizon: SimDuration::from_millis(args.horizon_ms),
        settle_iters: args.settle_iters,
        ..Default::default()
    };
    println!(
        "churn: {} seeds from {} on {} servers, {} KiB tensors, {} ms horizon, {} settle iters",
        args.seeds, args.seed_base, args.servers, args.size_kib, args.horizon_ms, args.settle_iters
    );
    let start = std::time::Instant::now();
    let summary = churn::run_sweep(&cfg, args.seed_base, args.seeds, |r| {
        if args.verbose {
            println!(
                "  seed {:>4} ({} events, {} iters, {} errors, {} rejoins): {:?}",
                r.seed, r.schedule_len, r.iterations, r.errors, r.rejoins, r.outcome
            );
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "converged {} / classified {} / violations {} (of {}); {} rejoins, {} errors absorbed",
        summary.converged,
        summary.classified,
        summary.violations.len(),
        summary.total,
        summary.rejoins,
        summary.errors
    );
    println!(
        "plan cache over the sweep: {} hit(s), {} warm start(s), {} miss(es)",
        summary.plan_hits, summary.plan_warm_starts, summary.plan_misses
    );
    if let Some(path) = &args.bench_append {
        let rec = adapcc_bench::record::ChurnBenchRecord {
            seeds: args.seeds,
            seed_base: args.seed_base,
            servers: args.servers,
            size_kib: args.size_kib,
            horizon_ms: args.horizon_ms,
            settle_iters: args.settle_iters,
            converged: summary.converged,
            classified: summary.classified,
            violations: summary.violations.len(),
            rejoins: summary.rejoins,
            errors: summary.errors,
            plan_cache_hits: summary.plan_hits,
            plan_cache_misses: summary.plan_misses,
            plan_cache_warm_starts: summary.plan_warm_starts,
            hierarchical: false,
            wall_ms,
        };
        if let Err(e) = rec.append_to(std::path::Path::new(path)) {
            eprintln!("cannot append churn record to {path}: {e}");
            std::process::exit(1);
        }
        println!("churn record appended to {path}");
    }
    if !summary.violations.is_empty() {
        for v in &summary.violations {
            eprintln!("INVARIANT VIOLATION seed {}: {:?}", v.seed, v.outcome);
        }
        std::process::exit(1);
    }
}

fn run_parallel3d(argv: Vec<String>) {
    use adapcc_bench::parallel_bench::{self, ParallelConfig};
    use adapcc_train::parallel::ParallelLayout;
    let args = match parse_parallel3d_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 });
        }
    };
    let dp = args.dp().expect("validated at parse time");
    let cluster = adapcc_simnet::cluster::Cluster::fat_tree(args.servers, args.gpus);
    println!(
        "parallel3d: {} servers x {} GPUs fat tree, dp={} tp={} pp={}, {} MiB model, {} rounds max",
        args.servers, args.gpus, dp, args.tp, args.pp, args.model_mib, args.rounds
    );
    let start = std::time::Instant::now();
    let (topo, profile, _) = profiled_with_telemetry(&cluster, args.seed, Telemetry::disabled());
    let cfg = ParallelConfig {
        servers: args.servers,
        gpus_per_server: args.gpus,
        layout: ParallelLayout::new(dp, args.tp, args.pp),
        model: ByteSize::from_mib(args.model_mib),
        parallelism: args.parallelism,
        seed: args.seed,
        synth: adapcc_synth::solver::SynthConfig::default(),
        max_rounds: args.rounds,
    };
    let report = parallel_bench::run_parallel3d(&cluster, &topo, &profile, &cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if args.verbose {
        for p in &report.phases {
            println!(
                "  {:<14} {:>3} groups: executed {:.3} ms oblivious vs {:.3} ms aware \
                 (modeled {:.3} vs {:.3} ms, {} sweeps)",
                p.name,
                p.groups,
                p.oblivious_executed_s * 1e3,
                p.aware_executed_s * 1e3,
                p.oblivious_modeled_s * 1e3,
                p.aware_modeled_s * 1e3,
                p.rounds
            );
        }
    }
    let obl = report.oblivious_executed_s();
    let aware = report.aware_executed_s();
    println!(
        "executed step: {:.3} ms oblivious vs {:.3} ms contention-aware ({:+.1}%); \
         modeled {:.3} vs {:.3} ms ({:.0} ms wall)",
        obl * 1e3,
        aware * 1e3,
        (aware / obl - 1.0) * 100.0,
        report.oblivious_modeled_s() * 1e3,
        report.aware_modeled_s() * 1e3,
        wall_ms
    );
    if let Some(path) = &args.bench_append {
        let rec = adapcc_bench::record::ParallelBenchRecord {
            servers: args.servers,
            gpus_per_server: args.gpus,
            gpus: args.servers * args.gpus,
            dp,
            tp: args.tp,
            pp: args.pp,
            model_mib: args.model_mib,
            parallelism: args.parallelism,
            seed: args.seed,
            phases: report.phases.len(),
            rounds: report.phases.iter().map(|p| p.rounds).sum(),
            oblivious_modeled_s: report.oblivious_modeled_s(),
            aware_modeled_s: report.aware_modeled_s(),
            oblivious_executed_s: obl,
            aware_executed_s: aware,
            wall_ms,
        };
        if let Err(e) = rec.append_to(std::path::Path::new(path)) {
            eprintln!("could not append bench record to {path}: {e}");
            std::process::exit(1);
        }
        println!("appended bench record to {path}");
    }
}
