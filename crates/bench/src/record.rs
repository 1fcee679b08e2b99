//! Machine-readable benchmark records: one JSON object per line,
//! appended to a shared file so successive `adapcc-sim --bench-append`
//! runs accumulate a comparable result trajectory (the seed of the
//! `BENCH_*.json` history).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One benchmark run, flattened for line-oriented appending.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// System under test (`AdapCC`, `NCCL`, ...).
    pub system: String,
    /// Collective primitive name.
    pub primitive: String,
    /// Server fleet spec, e.g. `a100:2`.
    pub servers: String,
    /// Per-rank tensor size in MiB.
    pub tensor_mib: u64,
    /// AdapCC parallelism (`M`).
    pub parallelism: usize,
    /// Completion time in simulated milliseconds.
    pub comm_time_ms: f64,
    /// The paper's algorithm bandwidth in GB/s.
    pub algo_bw_gbytes: f64,
    /// Plan-cache exact hits during the run (all zero when the run had
    /// no `--plan-cache`).
    pub plan_cache_hits: u64,
    /// Plan-cache misses (cold solves).
    pub plan_cache_misses: u64,
    /// Plan-cache warm-started solves.
    pub plan_cache_warm_starts: u64,
    /// Host wall-clock milliseconds of one cold AdapCC synthesis at
    /// the run's solver settings (0 for baseline systems). Real time,
    /// never part of the simulated timeline.
    pub solver_wall_ms: f64,
    /// `synth.full_evals` counter from that synthesis.
    pub synth_full_evals: u64,
    /// `synth.delta_evals` counter from that synthesis.
    pub synth_delta_evals: u64,
    /// `synth.chains` counter (annealing chains actually used).
    pub synth_chains: u64,
    /// Whether the run forced two-tier hierarchical synthesis
    /// (`--hierarchical`).
    pub hierarchical: bool,
    /// Host wall-clock milliseconds of the end-to-end synth + sim run
    /// (0 when not measured). Real time, never simulated.
    pub sim_wall_ms: f64,
    /// Engine throughput from the storm micro-benchmark on the same
    /// cluster, in events per wall-clock second (0 when not measured).
    pub engine_events_per_sec: f64,
}

impl BenchRecord {
    /// Renders the record as a single-line JSON object (no trailing
    /// newline). Field order is fixed, so identical runs serialize
    /// byte-identically.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"system\":\"{}\",\"primitive\":\"{}\",\"servers\":\"{}\",\
             \"tensor_mib\":{},\"parallelism\":{},\"comm_time_ms\":{:.6},\
             \"algo_bw_gbytes\":{:.6},\"plan_cache_hits\":{},\
             \"plan_cache_misses\":{},\"plan_cache_warm_starts\":{},\
             \"solver_wall_ms\":{:.3},\"synth_full_evals\":{},\
             \"synth_delta_evals\":{},\"synth_chains\":{},\
             \"hierarchical\":{},\"sim_wall_ms\":{:.3},\
             \"engine_events_per_sec\":{:.1}}}",
            escape(&self.system),
            escape(&self.primitive),
            escape(&self.servers),
            self.tensor_mib,
            self.parallelism,
            self.comm_time_ms,
            self.algo_bw_gbytes,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_warm_starts,
            self.solver_wall_ms,
            self.synth_full_evals,
            self.synth_delta_evals,
            self.synth_chains,
            self.hierarchical,
            self.sim_wall_ms,
            self.engine_events_per_sec,
        );
        s
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// One engine-storm micro-benchmark run (see
/// [`crate::engine_bench::engine_storm`]), flattened for line-oriented
/// appending to `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchRecord {
    /// Server fleet spec, e.g. `a100:128`.
    pub servers: String,
    /// GPUs in the fleet.
    pub gpus: usize,
    /// Storm waves run.
    pub waves: usize,
    /// Workload shape: `wave` or `churn`.
    pub storm: String,
    /// Transfers submitted.
    pub transfers: u64,
    /// Internal engine events processed.
    pub events: u64,
    /// Simulated completion milliseconds.
    pub sim_ms: f64,
    /// Host wall-clock milliseconds (machine property).
    pub wall_ms: f64,
    /// Events per wall-clock second — the headline metric.
    pub events_per_sec: f64,
    /// Filling passes the allocator ran.
    pub fillings: u64,
    /// Total flows those fillings touched (the allocator's real work:
    /// `O(frontier)` per event, not `O(live)`).
    pub frontier_flows: u64,
    /// Plan-cache exact hits. The storm runs no synthesis, so this is
    /// always zero; the field exists so every `BENCH_*.json` row
    /// carries the same cache columns.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (schema uniformity; zero for the storm).
    pub plan_cache_misses: u64,
    /// Plan-cache warm starts (schema uniformity; zero for the storm).
    pub plan_cache_warm_starts: u64,
    /// Whether two-tier hierarchical synthesis was in play (schema
    /// uniformity; always `false` for the synthesis-free storm).
    pub hierarchical: bool,
}

impl EngineBenchRecord {
    /// Renders the record as a single-line JSON object (no trailing
    /// newline), field order fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"servers\":\"{}\",\"gpus\":{},\"waves\":{},\"storm\":\"{}\",\
             \"transfers\":{},\
             \"events\":{},\"sim_ms\":{:.6},\"wall_ms\":{:.3},\
             \"events_per_sec\":{:.1},\"fillings\":{},\"frontier_flows\":{},\
             \"plan_cache_hits\":{},\
             \"plan_cache_misses\":{},\"plan_cache_warm_starts\":{},\
             \"hierarchical\":{}}}",
            escape(&self.servers),
            self.gpus,
            self.waves,
            escape(&self.storm),
            self.transfers,
            self.events,
            self.sim_ms,
            self.wall_ms,
            self.events_per_sec,
            self.fillings,
            self.frontier_flows,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_warm_starts,
            self.hierarchical,
        );
        s
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// One churn-sweep run (see [`crate::churn::run_sweep`]), flattened
/// for line-oriented appending to `BENCH_churn.json`. Carries the same
/// `plan_cache_*` / `hierarchical` columns as every other record so
/// mixed BENCH files stay schema-uniform; churn's cache counters are
/// real (membership changes re-plan through each session's cache).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBenchRecord {
    /// Consecutive seeds swept.
    pub seeds: u64,
    /// First seed.
    pub seed_base: u64,
    /// Homogeneous A100 servers per run.
    pub servers: usize,
    /// Per-rank tensor KiB of the clock-driving iterations.
    pub size_kib: u64,
    /// Churn window in simulated milliseconds.
    pub horizon_ms: f64,
    /// Settle iterations past the horizon.
    pub settle_iters: usize,
    /// Runs whose membership converged and verified.
    pub converged: usize,
    /// Runs that ended in a classified error.
    pub classified: usize,
    /// Invariant violations (must be zero for a healthy sweep).
    pub violations: usize,
    /// Ranks readmitted across the sweep.
    pub rejoins: usize,
    /// Typed errors absorbed across the sweep.
    pub errors: usize,
    /// Plan-cache exact hits summed over every session in the sweep.
    pub plan_cache_hits: u64,
    /// Plan-cache misses summed over every session in the sweep.
    pub plan_cache_misses: u64,
    /// Plan-cache warm starts summed over every session in the sweep.
    pub plan_cache_warm_starts: u64,
    /// Whether the sweep's sessions forced hierarchical synthesis
    /// (always `false` today; the column keeps the schema uniform).
    pub hierarchical: bool,
    /// Host wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
}

impl ChurnBenchRecord {
    /// Renders the record as a single-line JSON object (no trailing
    /// newline), field order fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"seeds\":{},\"seed_base\":{},\"servers\":{},\"size_kib\":{},\
             \"horizon_ms\":{:.3},\"settle_iters\":{},\"converged\":{},\
             \"classified\":{},\"violations\":{},\"rejoins\":{},\"errors\":{},\
             \"plan_cache_hits\":{},\"plan_cache_misses\":{},\
             \"plan_cache_warm_starts\":{},\"hierarchical\":{},\
             \"wall_ms\":{:.3}}}",
            self.seeds,
            self.seed_base,
            self.servers,
            self.size_kib,
            self.horizon_ms,
            self.settle_iters,
            self.converged,
            self.classified,
            self.violations,
            self.rejoins,
            self.errors,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_warm_starts,
            self.hierarchical,
            self.wall_ms,
        );
        s
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// One many-job plan-service benchmark run (see
/// [`crate::service_bench::run_service_bench`]), flattened for
/// line-oriented appending to `BENCH_service.json`. Every row carries
/// the shared-service pass and the private-cache baseline of the
/// identical workload, so the speedup is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBenchRecord {
    /// Concurrent jobs (`M`).
    pub jobs: usize,
    /// Worker threads (`K`).
    pub threads: usize,
    /// Fraction of jobs repeating canonical fingerprints.
    pub repeat_ratio: f64,
    /// Distinct fleet shapes in the workload.
    pub shapes: usize,
    /// `strategy_for_root` requests issued per pass.
    pub requests: u64,
    /// Service pass: exact store hits.
    pub hits: u64,
    /// Service pass: cross-job warm-started solves.
    pub warm_starts: u64,
    /// Service pass: cold solves.
    pub cold_solves: u64,
    /// Service pass: requests coalesced onto in-flight solves.
    pub coalesced: u64,
    /// Entries left in the service store.
    pub entries: u64,
    /// Estimated bytes left in the service store.
    pub bytes: u64,
    /// Entries evicted to hold the byte budget.
    pub evictions: u64,
    /// Service pass: plans per wall-clock second.
    pub plans_per_sec: f64,
    /// Service pass: median request latency, microseconds.
    pub p50_us: f64,
    /// Service pass: p99 request latency, microseconds.
    pub p99_us: f64,
    /// Service pass: request-phase wall milliseconds (max over threads).
    pub wall_ms: f64,
    /// Baseline pass: plans per wall-clock second.
    pub baseline_plans_per_sec: f64,
    /// Baseline pass: median request latency, microseconds.
    pub baseline_p50_us: f64,
    /// Baseline pass: p99 request latency, microseconds.
    pub baseline_p99_us: f64,
    /// Baseline pass: request-phase wall milliseconds.
    pub baseline_wall_ms: f64,
    /// `plans_per_sec / baseline_plans_per_sec`.
    pub speedup: f64,
}

impl ServiceBenchRecord {
    /// Renders the record as a single-line JSON object (no trailing
    /// newline), field order fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"jobs\":{},\"threads\":{},\"repeat_ratio\":{:.2},\"shapes\":{},\
             \"requests\":{},\"hits\":{},\"warm_starts\":{},\"cold_solves\":{},\
             \"coalesced\":{},\"entries\":{},\"bytes\":{},\"evictions\":{},\
             \"plans_per_sec\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1},\
             \"wall_ms\":{:.3},\"baseline_plans_per_sec\":{:.1},\
             \"baseline_p50_us\":{:.1},\"baseline_p99_us\":{:.1},\
             \"baseline_wall_ms\":{:.3},\"speedup\":{:.2}}}",
            self.jobs,
            self.threads,
            self.repeat_ratio,
            self.shapes,
            self.requests,
            self.hits,
            self.warm_starts,
            self.cold_solves,
            self.coalesced,
            self.entries,
            self.bytes,
            self.evictions,
            self.plans_per_sec,
            self.p50_us,
            self.p99_us,
            self.wall_ms,
            self.baseline_plans_per_sec,
            self.baseline_p50_us,
            self.baseline_p99_us,
            self.baseline_wall_ms,
            self.speedup,
        );
        s
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// One `adapcc-sim parallel3d` run: a 3D-parallel + MoE step on a
/// fat tree, group-oblivious versus contention-aware co-scheduled
/// synthesis, flattened for line-oriented appending to
/// `BENCH_parallel.json`. Every row carries both variants' modeled
/// and *executed* step times, so the contention win is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelBenchRecord {
    /// Fat-tree servers.
    pub servers: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Total GPUs (`servers * gpus_per_server`).
    pub gpus: usize,
    /// Data-parallel degree.
    pub dp: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Model parameter MiB.
    pub model_mib: u64,
    /// Parallel sub-collectives per strategy.
    pub parallelism: usize,
    /// Profiling/synthesis seed.
    pub seed: u64,
    /// Communication phases in the step.
    pub phases: usize,
    /// Co-scheduling fix-point sweeps, summed over phases.
    pub rounds: usize,
    /// Modeled step seconds, group-oblivious.
    pub oblivious_modeled_s: f64,
    /// Modeled step seconds, contention-aware.
    pub aware_modeled_s: f64,
    /// Executed step seconds, group-oblivious.
    pub oblivious_executed_s: f64,
    /// Executed step seconds, contention-aware.
    pub aware_executed_s: f64,
    /// Host wall-clock milliseconds for the whole comparison.
    pub wall_ms: f64,
}

impl ParallelBenchRecord {
    /// Renders the record as a single-line JSON object (no trailing
    /// newline), field order fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"servers\":{},\"gpus_per_server\":{},\"gpus\":{},\"dp\":{},\
             \"tp\":{},\"pp\":{},\"model_mib\":{},\"parallelism\":{},\
             \"seed\":{},\"phases\":{},\"rounds\":{},\
             \"oblivious_modeled_s\":{:.6},\"aware_modeled_s\":{:.6},\
             \"oblivious_executed_s\":{:.6},\"aware_executed_s\":{:.6},\
             \"wall_ms\":{:.3}}}",
            self.servers,
            self.gpus_per_server,
            self.gpus,
            self.dp,
            self.tp,
            self.pp,
            self.model_mib,
            self.parallelism,
            self.seed,
            self.phases,
            self.rounds,
            self.oblivious_modeled_s,
            self.aware_modeled_s,
            self.oblivious_executed_s,
            self.aware_executed_s,
            self.wall_ms,
        );
        s
    }

    /// Appends the record (plus newline) to `path`, creating the file
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parallel_sample() -> ParallelBenchRecord {
        ParallelBenchRecord {
            servers: 8,
            gpus_per_server: 4,
            gpus: 32,
            dp: 8,
            tp: 2,
            pp: 2,
            model_mib: 512,
            parallelism: 4,
            seed: 1,
            phases: 4,
            rounds: 6,
            oblivious_modeled_s: 0.101234,
            aware_modeled_s: 0.091234,
            oblivious_executed_s: 0.120001,
            aware_executed_s: 0.110001,
            wall_ms: 950.5,
        }
    }

    #[test]
    fn parallel_json_is_one_line_with_fixed_fields() {
        let j = parallel_sample().to_json();
        assert!(!j.contains('\n'));
        for field in [
            "\"servers\":8",
            "\"gpus\":32",
            "\"dp\":8",
            "\"tp\":2",
            "\"pp\":2",
            "\"model_mib\":512",
            "\"phases\":4",
            "\"rounds\":6",
            "\"oblivious_executed_s\":0.120001",
            "\"aware_executed_s\":0.110001",
        ] {
            assert!(j.contains(field), "{field} missing in {j}");
        }
        assert_eq!(parallel_sample().to_json(), j, "rendering is deterministic");
    }

    #[test]
    fn parallel_record_appends_parseable_lines() {
        let dir =
            std::env::temp_dir().join(format!("adapcc-parallel-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_parallel.json");
        let _ = std::fs::remove_file(&path);
        parallel_sample().append_to(&path).unwrap();
        parallel_sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample() -> BenchRecord {
        BenchRecord {
            system: "AdapCC".into(),
            primitive: "allreduce".into(),
            servers: "a100:2".into(),
            tensor_mib: 256,
            parallelism: 4,
            comm_time_ms: 12.5,
            algo_bw_gbytes: 21.474836,
            plan_cache_hits: 0,
            plan_cache_misses: 1,
            plan_cache_warm_starts: 0,
            solver_wall_ms: 8.062,
            synth_full_evals: 13,
            synth_delta_evals: 360,
            synth_chains: 1,
            hierarchical: false,
            sim_wall_ms: 0.0,
            engine_events_per_sec: 0.0,
        }
    }

    #[test]
    fn json_is_one_line_with_fixed_fields() {
        let j = sample().to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"system\":\"AdapCC\""));
        assert!(j.contains("\"tensor_mib\":256"));
        assert!(j.contains("\"comm_time_ms\":12.500000"));
        assert!(j.contains("\"plan_cache_hits\":0"));
        assert!(j.contains("\"plan_cache_misses\":1"));
        assert!(j.contains("\"solver_wall_ms\":8.062"));
        assert!(j.contains("\"synth_full_evals\":13"));
        assert!(j.contains("\"synth_delta_evals\":360"));
        assert!(j.contains("\"synth_chains\":1"));
        assert!(j.contains("\"hierarchical\":false"));
        assert!(j.contains("\"sim_wall_ms\":0.000"));
        assert!(j.contains("\"engine_events_per_sec\":0.0"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn engine_record_is_one_line_json() {
        let r = EngineBenchRecord {
            servers: "a100:128".into(),
            gpus: 512,
            waves: 4,
            storm: "churn".into(),
            transfers: 512,
            events: 4096,
            sim_ms: 1.25,
            wall_ms: 97.5,
            events_per_sec: 42010.3,
            fillings: 900,
            frontier_flows: 3100,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_warm_starts: 0,
            hierarchical: false,
        };
        let j = r.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"servers\":\"a100:128\""));
        assert!(j.contains("\"gpus\":512"));
        assert!(j.contains("\"storm\":\"churn\""));
        assert!(j.contains("\"events\":4096"));
        assert!(j.contains("\"events_per_sec\":42010.3"));
        assert!(j.contains("\"fillings\":900"));
        assert!(j.contains("\"frontier_flows\":3100"));
        assert!(j.ends_with('}'));
    }

    /// The schema-uniformity contract: every record type carries the
    /// same plan-cache and hierarchical columns, so a mixed BENCH file
    /// can be grouped on them without per-row schema sniffing.
    #[test]
    fn every_record_carries_the_cache_columns() {
        let engine = EngineBenchRecord {
            servers: "a100:4".into(),
            gpus: 16,
            waves: 2,
            storm: "wave".into(),
            transfers: 8,
            events: 64,
            sim_ms: 0.5,
            wall_ms: 3.0,
            events_per_sec: 21333.3,
            fillings: 10,
            frontier_flows: 40,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_warm_starts: 0,
            hierarchical: false,
        };
        let churn = churn_sample();
        for j in [sample().to_json(), engine.to_json(), churn.to_json()] {
            for col in [
                "\"plan_cache_hits\":",
                "\"plan_cache_misses\":",
                "\"plan_cache_warm_starts\":",
                "\"hierarchical\":",
            ] {
                assert!(j.contains(col), "{j} lacks {col}");
            }
        }
    }

    fn churn_sample() -> ChurnBenchRecord {
        ChurnBenchRecord {
            seeds: 200,
            seed_base: 0,
            servers: 2,
            size_kib: 1024,
            horizon_ms: 2.0,
            settle_iters: 6,
            converged: 180,
            classified: 20,
            violations: 0,
            rejoins: 97,
            errors: 311,
            plan_cache_hits: 12,
            plan_cache_misses: 200,
            plan_cache_warm_starts: 45,
            hierarchical: false,
            wall_ms: 15321.7,
        }
    }

    #[test]
    fn churn_record_is_one_line_json() {
        let j = churn_sample().to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"seeds\":200"));
        assert!(j.contains("\"converged\":180"));
        assert!(j.contains("\"violations\":0"));
        assert!(j.contains("\"rejoins\":97"));
        assert!(j.contains("\"plan_cache_warm_starts\":45"));
        assert!(j.contains("\"wall_ms\":15321.700"));
        assert!(j.ends_with('}'));
        assert_eq!(j, churn_sample().to_json(), "byte-deterministic");
    }

    #[test]
    fn identical_records_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn service_record_is_one_line_json() {
        let r = ServiceBenchRecord {
            jobs: 32,
            threads: 8,
            repeat_ratio: 0.75,
            shapes: 2,
            requests: 136,
            hits: 81,
            warm_starts: 33,
            cold_solves: 8,
            coalesced: 14,
            entries: 9,
            bytes: 4521,
            evictions: 0,
            plans_per_sec: 2891.2,
            p50_us: 45.4,
            p99_us: 21665.7,
            wall_ms: 47.039,
            baseline_plans_per_sec: 385.8,
            baseline_p50_us: 19273.0,
            baseline_p99_us: 31861.2,
            baseline_wall_ms: 352.518,
            speedup: 7.49,
        };
        let j = r.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"jobs\":32,\"threads\":8,\"repeat_ratio\":0.75"));
        assert!(j.contains("\"coalesced\":14"));
        assert!(j.contains("\"plans_per_sec\":2891.2"));
        assert!(j.contains("\"speedup\":7.49"));
        assert!(j.ends_with('}'));
        assert_eq!(j, r.to_json(), "byte-deterministic");
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let mut r = sample();
        r.servers = "a\"b\\c".into();
        assert!(r.to_json().contains("a\\\"b\\\\c"));
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join("adapcc_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.jsonl");
        let _ = std::fs::remove_file(&path);
        sample().append_to(&path).unwrap();
        sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert_eq!(line, sample().to_json());
        }
        let _ = std::fs::remove_file(&path);
    }
}
