//! End-to-end and per-layer benchmark of the AdapCC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload testbed-train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One single-threaded process runs one workload repeatedly from its
//! seed for about `--seconds`. Each repetition builds everything
//! afresh, so set-up is measured every time; the first also runs the
//! correctness gate after its timed part. Host metrics are medians over
//! repetitions; simulated metrics must repeat bit for bit across
//! repetitions, across traced and untraced repetitions, and across runs
//! of one build.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer metrics:
//! host self time of the benchmark's calls into each layer, counters
//! read from the `Telemetry` sink, and the tracing overhead. The spans
//! are written to `.perfbench-out/trace-<workload>-<seed>.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod provenance;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use trace::Tracer;
use workloads::{Rep, Workload};

/// The seed reserved for checking a claimed gain; never tune on it.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Where traces and determinism records go, relative to the checkout.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let prov = provenance::collect(&args, HELD_OUT_SEED);
    println!("provenance {prov}");

    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(usize, Rep)> = Vec::new();
    let mut rep_start = 0.0;
    let mut peak_rss = 0.0;
    for i in 0.. {
        // A traced run alternates: untraced, traced, untraced, ...
        let trace_this = args.trace && i % 2 == 1;
        let mut off = Tracer::new(false, origin);
        let tr = if trace_this { &mut tracer } else { &mut off };
        tr.set_rep(i);
        // Repetition 0 runs the correctness gate after its timed part.
        let rep = args.workload.run(args.seed, tr, i == 0);
        if i == 0 {
            // Later repetitions reuse the heap the first one left
            // fragmented, so the peak is taken over one repetition.
            peak_rss = provenance::peak_rss_mib();
        }
        println!(
            "rep {i}{}: setup {:.4} s, wall {:.4} s, sim comm {:.6} ms, {} attempted, {} failed",
            if trace_this { " (traced)" } else { "" },
            rep.setup_s,
            rep.wall_s,
            rep.sim_comm_ms,
            rep.attempted + rep.gate_attempted,
            rep.failed + rep.gate_failed
        );
        if trace_this {
            traced.push((i, rep));
        } else {
            untraced.push(rep);
        }
        // Once a traced run has a traced repetition, stop where the run
        // length comes closest to `--seconds`, assuming the next
        // repetition takes as long as this one.
        let now = origin.elapsed().as_secs_f64();
        let next_end = now + (now - rep_start);
        rep_start = now;
        if (!args.trace || !traced.is_empty())
            && (now >= args.seconds || next_end - args.seconds > args.seconds - now)
        {
            break;
        }
    }
    let gated = &untraced[0];
    let all: Vec<&Rep> = untraced
        .iter()
        .chain(traced.iter().map(|(_, r)| r))
        .collect();
    // Every repetition runs the same inputs, so their messages repeat.
    let unique = |f: fn(&Rep) -> &[String]| -> std::collections::BTreeSet<String> {
        all.iter().flat_map(|r| f(r).iter().cloned()).collect()
    };
    for n in unique(|r| &r.notes) {
        println!("note: {n}");
    }
    let mut problems: Vec<String> = unique(|r| &r.problems).into_iter().collect();
    problems.extend(check_determinism(&args, &all));
    let attempted: u64 = all.iter().map(|r| r.attempted + r.gate_attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed + r.gate_failed).sum();
    // The share of failed collectives is taken from the gated
    // repetition, so that it does not depend on how many ran.
    let failed_frac = (gated.failed + gated.gate_failed) as f64
        / (gated.attempted + gated.gate_attempted).max(1) as f64;

    let metrics = if args.trace {
        per_layer(&tracer, gated, &untraced, &traced)
    } else {
        println!(
            "failed_ops_frac {failed_frac}, sim_samples_per_s {} (training workloads only)",
            gated.samples as f64 / (gated.sim_makespan_ms / 1e3)
        );
        end_to_end(&untraced, failed_frac, peak_rss)
    };
    if args.trace {
        std::fs::create_dir_all(OUT_DIR).ok();
        let path = format!(
            "{OUT_DIR}/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        match std::fs::write(&path, tracer.chrome_trace()) {
            Ok(()) => println!("trace: {} spans written to {path}", tracer.spans().len()),
            Err(e) => problems.push(format!("cannot write {path}: {e}")),
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }
    let correct = problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics of an untraced run: host times are medians over
/// repetitions; simulated values repeat exactly in every repetition;
/// `peak_rss` is the peak resident memory (MiB) over repetition 0.
fn end_to_end(untraced: &[Rep], failed_frac: f64, peak_rss: f64) -> Vec<Metric> {
    let first = &untraced[0];
    vec![
        ("setup_s", median(untraced.iter().map(|r| r.setup_s)), "s"),
        ("wall_s", median(untraced.iter().map(|r| r.wall_s)), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("sim_comm_ms", first.sim_comm_ms, "ms"),
        ("sim_makespan_ms", first.sim_makespan_ms, "ms"),
        (
            "sim_steps_per_s",
            first.steps as f64 / (first.sim_makespan_ms / 1e3),
            "1/s",
        ),
        ("ok_ops_frac", 1.0 - failed_frac, "frac"),
    ]
}

/// Per-layer metrics of a traced run. Times are medians over traced
/// repetitions of the layer's self time; counts come from one traced
/// repetition (they repeat exactly, which the determinism check
/// enforces), and the gate's counts from the gated repetition.
fn per_layer(
    tracer: &Tracer,
    gated: &Rep,
    untraced: &[Rep],
    traced: &[(usize, Rep)],
) -> Vec<Metric> {
    let self_ms: Vec<BTreeMap<&str, f64>> =
        traced.iter().map(|(i, _)| tracer.self_ms(*i)).collect();
    let layer_ms = |span: &str| median(self_ms.iter().map(|m| m.get(span).copied().unwrap_or(0.0)));
    let rep = &traced[0].1;
    let c = |name: &str| rep.counters.get(name).copied().unwrap_or(0.0);
    let gate_c = |name: &str| gated.counters.get(name).copied().unwrap_or(0.0);
    let ops: Vec<_> = traced.iter().flat_map(|(_, r)| r.ops.iter()).collect();
    let pick = |f: &dyn Fn(&workloads::Op) -> bool| -> Vec<f64> {
        ops.iter().filter(|o| f(o)).map(|o| o.ms).collect()
    };
    let all_ops = pick(&|_| true);
    let partial_ops = pick(&|o| o.partial);
    let waitall_ops = pick(&|o| !o.partial);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let partial_frac = ratio(
        rep.ops.iter().filter(|o| o.partial).count() as f64,
        rep.ops.len() as f64,
    );
    let lookups = c("plancache.hits") + c("plancache.misses") + c("plancache.warm_starts");
    let hit_ratio = ratio(c("plancache.hits"), lookups);
    let execute_ms = layer_ms("exec.execute");
    let host_per_gib = ratio(
        execute_ms + layer_ms("session.op"),
        c("exec.bytes_on_wire") / (1u64 << 30) as f64,
    );
    let overhead_s =
        median(traced.iter().map(|(_, r)| r.wall_s)) - median(untraced.iter().map(|r| r.wall_s));
    vec![
        ("cluster.build_ms", layer_ms("cluster.build"), "ms"),
        ("topo.detect_ms", layer_ms("topo.detect"), "ms"),
        ("topo.probed_instances", c("topo.probed_instances"), "count"),
        ("profile.run_ms", layer_ms("profile.run"), "ms"),
        ("profile.edges", c("profile.edges"), "count"),
        ("probe.measurements", c("probe.measurements"), "count"),
        ("synth.solve_ms", layer_ms("synth.solve"), "ms"),
        ("synth.requests", c("synth.requests"), "count"),
        ("synth.warm_requests", c("synth.warm_requests"), "count"),
        ("synth.full_evals", c("synth.full_evals"), "count"),
        ("synth.delta_evals", c("synth.delta_evals"), "count"),
        ("synth.coschedule_ms", layer_ms("synth.coschedule"), "ms"),
        (
            "synth.coschedule.sweeps",
            c("synth.coschedule.sweeps"),
            "count",
        ),
        ("session.init_ms", layer_ms("session.init"), "ms"),
        ("session.plan_ms", layer_ms("session.plan"), "ms"),
        ("session.op_ms_p50", percentile(&all_ops, 50.0), "ms"),
        ("session.op_ms_p90", percentile(&all_ops, 90.0), "ms"),
        ("session.op_samples", all_ops.len() as f64, "count"),
        (
            "session.partial_op_ms_p50",
            percentile(&partial_ops, 50.0),
            "ms",
        ),
        (
            "session.partial_op_samples",
            partial_ops.len() as f64,
            "count",
        ),
        (
            "session.waitall_op_ms_p50",
            percentile(&waitall_ops, 50.0),
            "ms",
        ),
        (
            "session.waitall_op_samples",
            waitall_ops.len() as f64,
            "count",
        ),
        (
            "session.replan_ops",
            rep.ops.iter().filter(|o| o.replan).count() as f64,
            "count",
        ),
        ("relay.decisions", c("relay.decisions"), "count"),
        ("relay.buys", c("relay.buys"), "count"),
        ("relay.partial_frac", partial_frac, "frac"),
        ("relay.wait_secs", c("relay.wait_secs"), "sim_s"),
        ("exec.execute_ms", execute_ms, "ms"),
        ("exec.requests", c("exec.requests"), "count"),
        ("exec.bytes_on_wire", c("exec.bytes_on_wire"), "bytes"),
        ("exec.host_ms_per_gib_wire", host_per_gib, "ms/GiB"),
        ("plancache.hits", c("plancache.hits"), "count"),
        ("plancache.misses", c("plancache.misses"), "count"),
        ("plancache.warm_starts", c("plancache.warm_starts"), "count"),
        ("plancache.hit_ratio", hit_ratio, "frac"),
        ("recovery.retries", c("recovery.retries"), "count"),
        ("recovery.exclusions", c("recovery.exclusions"), "count"),
        ("health.rejoins", c("health.rejoins"), "count"),
        ("health.suspected", c("health.suspected"), "count"),
        ("gate.partial_ops", gate_c("gate.partial_ops"), "count"),
        (
            "gate.partial_mismatch_ops",
            gate_c("gate.partial_mismatch_ops"),
            "count",
        ),
        ("trace.overhead_s", overhead_s, "s"),
    ]
}

/// Checks that every repetition's deterministic values agree with each
/// other and with earlier runs of this build on this seed (recorded
/// under [`OUT_DIR`]). Values only traced repetitions carry are compared
/// where both sides have them.
fn check_determinism(args: &Args, reps: &[&Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    let mut compare =
        |what: &str, digest: &BTreeMap<String, u64>, merged: &mut BTreeMap<String, u64>| {
            for (k, v) in digest {
                match merged.get(k) {
                    Some(prev) if prev != v => problems.push(format!(
                        "non-deterministic {k} ({what}): {} vs {}",
                        f64::from_bits(*prev),
                        f64::from_bits(*v)
                    )),
                    Some(_) => {}
                    None => {
                        merged.insert(k.clone(), *v);
                    }
                }
            }
        };
    for (i, rep) in reps.iter().enumerate() {
        compare(&format!("repetition {i}"), &rep.digest(), &mut merged);
    }
    let build = provenance::build_id();
    let dir = Path::new(OUT_DIR).join("determinism");
    let path = dir.join(format!("{}-{}.txt", args.workload.name(), args.seed));
    let mut record = merged.clone();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(&format!("build {build:016x}")) {
            let earlier: BTreeMap<String, u64> = lines
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_string(), u64::from_str_radix(v, 16).ok()?))
                })
                .collect();
            let mut all = earlier.clone();
            compare("earlier run of this build", &merged, &mut all);
            record = all;
        }
    }
    let mut text = format!("build {build:016x}\n");
    for (k, v) in &record {
        text.push_str(&format!("{k} {v:016x}\n"));
    }
    let tmp = dir.join(format!(".{}-{}.tmp", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&tmp, text))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        problems.push(format!(
            "cannot record determinism digest at {}: {e}",
            path.display()
        ));
    }
    problems
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units this program prints, against `BENCHMARK.json`.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = &json[json.find(&format!("\"{section}\"")).expect("section")..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at =
                            entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names = |m: Vec<Metric>| -> Vec<(String, String)> {
            m.into_iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let reps = [Rep::default()];
        assert_eq!(names(end_to_end(&reps, 0.0, 1.0)), declared("end_to_end"));
        let tracer = Tracer::new(true, Instant::now());
        let traced = [(0, Rep::default())];
        assert_eq!(
            names(per_layer(&tracer, &reps[0], &reps, &traced)),
            declared("per_layer")
        );
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
