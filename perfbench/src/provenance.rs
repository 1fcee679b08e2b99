//! Where a result came from: commit, build, machine, seed, and peak
//! memory.

use std::path::Path;

use crate::Args;

/// FNV-1a, 64 bit.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The commit checked out in the current directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// A digest of the running executable: equal ids mean one build.
pub fn build_id() -> u64 {
    let mut h = FNV_OFFSET;
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        fnv(&mut h, &bytes);
    }
    h
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The provenance record of this run, as one JSON object.
pub fn collect(args: &Args, held_out_seed: u64) -> String {
    let commit = commit().unwrap_or_else(|| "unavailable (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {held_out_seed}, \
         \"seconds\": {}, \"trace\": {}, \"commit\": \"{commit}\", \
         \"build_id\": \"{:016x}\", \
         \"build_profile\": \"{profile}\", \"nproc\": {nproc}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        build_id(),
    )
}
