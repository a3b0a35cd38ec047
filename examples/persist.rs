//! Kill-and-restart durability smoke for the persistent tier.
//!
//! Re-runs itself as a child process that hammers an `ObjectStore`'s
//! value log with deterministic put/re-put churn, SIGKILLs the child at
//! an arbitrary moment mid-workload, then reopens the store directory in
//! this process and checks the crash contract end to end:
//!
//! - recovery adopts **only** checksum-valid records (a torn tail from
//!   the kill is truncated, never served),
//! - every surviving object is served **bit-identical** to what the
//!   child wrote (payloads are a pure function of the key, so the parent
//!   recomputes them instead of trusting any channel from the child),
//! - `disk_bytes` equals the byte sum of exactly the surviving objects,
//! - the recovered store immediately accepts new writes and survives a
//!   further clean restart.
//!
//! ```text
//! cargo run --release --example persist            # 3 kill rounds
//! cargo run --release --example persist -- --rounds 8
//! ```
//!
//! Exit status: `0` contract held in every round, `1` any violation,
//! `2` usage error.

#![allow(clippy::unwrap_used)]

use sand::storage::{ObjectMeta, ObjectStore, StoreConfig, SyncPolicy};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "SAND_PERSIST_CHILD_DIR";
const KEYS: u64 = 64;

/// The payload for key `i` — a pure function, so the verifying parent
/// recomputes the expected bytes from the key alone.
fn payload(i: u64) -> Vec<u8> {
    let len = 256 + ((i * 37) % 1500) as usize;
    (0..len).map(|p| (p as u64 ^ (i * 131)) as u8).collect()
}

fn key_name(i: u64) -> String {
    format!("obj/{i}")
}

fn store_config() -> StoreConfig {
    StoreConfig {
        memory_budget: 1 << 20,
        disk_budget: 1 << 30,
        memory_horizon: 0, // everything write-through to the disk tier
        shards: 4,
        compact_threshold: 0.5, // churn below triggers real compactions
        sync: SyncPolicy::Never,
    }
}

/// Child mode: churn puts (and periodic budget sweeps, so compactions
/// interleave) until killed. Never exits on its own.
fn run_child(dir: &Path) -> ExitCode {
    let store = ObjectStore::open(store_config(), Some(dir.to_path_buf())).unwrap();
    let mut round = 0u64;
    loop {
        for i in 0..KEYS {
            let meta = ObjectMeta {
                deadline: Some(100 + i),
                future_uses: 2,
            };
            store.put(&key_name(i), payload(i).into(), meta).unwrap();
        }
        round += 1;
        if round.is_multiple_of(4) {
            store.enforce_budgets().unwrap();
        }
    }
}

/// Total size of the vlog segment files under `dir` (the parent's
/// progress signal: growth means the child is appending).
fn log_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with("vlog-") && n.ends_with(".log"))
                })
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

/// One kill round: spawn the child, let it make progress, SIGKILL it,
/// reopen, verify. Returns an error description on contract violation.
fn kill_round(dir: &Path, round: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .env(CHILD_ENV, dir)
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    // Wait for real append progress, plus a round-varying extra so the
    // kill lands at different file offsets each time.
    let t0 = Instant::now();
    let target = 64 * 1024 + (round as u64 * 37_123) % (256 * 1024);
    while log_size(dir) < target {
        if t0.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            return Err("child made no progress within 20s".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().map_err(|e| format!("kill child: {e}"))?; // SIGKILL on unix
    child.wait().map_err(|e| format!("wait child: {e}"))?;

    // Reopen: the recovery scan must truncate whatever the kill tore.
    let store = ObjectStore::open(store_config(), Some(dir.to_path_buf()))
        .map_err(|e| format!("reopen after kill failed: {e}"))?;
    let keys = store.keys();
    if keys.is_empty() {
        return Err("nothing recovered despite append progress".into());
    }
    let mut live_bytes = 0u64;
    for k in &keys {
        let i: u64 = k
            .strip_prefix("obj/")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("recovered alien key {k}"))?;
        let served = store
            .get(k)
            .map_err(|e| format!("recovered key {k} unreadable: {e}"))?;
        if *served != payload(i) {
            return Err(format!("key {k} served bytes differ from what was written"));
        }
        live_bytes += served.len() as u64;
    }
    let stats = store.stats();
    if stats.disk_bytes != live_bytes {
        return Err(format!(
            "disk_bytes {} != recounted live bytes {live_bytes}",
            stats.disk_bytes
        ));
    }
    // The recovered store must keep working: accept writes and survive a
    // clean restart with them.
    store
        .put("after/kill", vec![7; 128].into(), ObjectMeta::default())
        .map_err(|e| format!("post-recovery put failed: {e}"))?;
    drop(store);
    let store = ObjectStore::open(store_config(), Some(dir.to_path_buf()))
        .map_err(|e| format!("second reopen failed: {e}"))?;
    let after = store
        .get("after/kill")
        .map_err(|e| format!("post-recovery object lost on restart: {e}"))?;
    if *after != vec![7; 128] {
        return Err("post-recovery object corrupted on restart".into());
    }
    store.remove("after/kill").map_err(|e| e.to_string())?;
    println!(
        "round {round}: killed at ~{} KiB of log, recovered {} objects \
         ({} torn truncation(s), {} corrupt record(s)) — all bit-identical",
        log_size(dir) / 1024,
        keys.len(),
        stats.torn_truncations,
        stats.corrupt_records,
    );
    Ok(())
}

const USAGE: &str = "usage: persist [--rounds N]   (default 3)";

fn main() -> ExitCode {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        return run_child(Path::new(&dir));
    }
    let mut rounds = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => rounds = n,
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sand_persist_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut failed = false;
    for round in 0..rounds {
        // Same directory across rounds: each recovery also replays the
        // previous rounds' survivors and compacted segments.
        if let Err(why) = kill_round(&dir, round) {
            eprintln!("round {round}: FAIL: {why}");
            failed = true;
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        ExitCode::from(1)
    } else {
        println!("kill-and-restart contract held for {rounds} round(s)");
        ExitCode::SUCCESS
    }
}
