//! Cache-behaviour tests for the serving daemon: LRU recency, on-disk
//! round-trips across engine restarts, corrupted-entry recovery,
//! single-flight dedup of concurrent identical submits, result frames
//! that are byte-identical whichever tier answers, and the bounded job
//! table. These drive the [`Engine`] in-process (no sockets) — the
//! protocol layer is covered by `tests/serve_protocol.rs`.

use densemem::experiments::{registry, ExpContext, Scale};
use densemem_serve::proto::{self, Value};
use densemem_serve::{DiskRead, DiskStore, Engine, EngineConfig, MemLru, Step, JOB_RETENTION};
use densemem_testkit::servefault;
use std::path::PathBuf;
use std::sync::Arc;

/// Seeds unique to this file (no collisions with other parallel suites).
const SEED_A: u64 = 0x5EC4_0001;
const SEED_B: u64 = 0x5EC4_0002;
const SEED_C: u64 = 0x5EC4_0003;
const SEED_D: u64 = 0x5EC4_0004;
const SEED_E: u64 = 0x5EC4_0005;
const SEED_F: u64 = 0x5EC4_0006;
const SEED_G: u64 = 0x5EC4_0007;
const SEED_H: u64 = 0x5EC4_0008;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("densemem-serve-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit_line(exp: &str, seed: u64) -> String {
    format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"{exp}\",\"seed\":\"{seed:#x}\",\"wait\":true}}")
}

/// A submit that answers with a `submitted` frame instead of the result.
fn submit_nowait_line(exp: &str, seed: u64) -> String {
    format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"{exp}\",\"seed\":\"{seed:#x}\"}}")
}

fn status(eng: &Engine, job: u64) -> Value {
    proto::parse(&eng.handle(&format!("{{\"v\":1,\"verb\":\"status\",\"job\":{job}}}")))
        .expect("status frame parses")
}

/// A result frame built from its parts: the header the engine has
/// always written, then the payload's FNV-1a64 and its escaped bytes.
fn expected_frame(job: u64, exp: &str, tier: &str, wall_ms: f64, payload: &str) -> String {
    format!(
        "{{\"v\":1,\"ok\":true,\"type\":\"result\",\"job\":{job},\"exp\":\"{exp}\",\"cache\":\"{tier}\",\"wall_ms\":{wall_ms:.3},\"payload_fnv\":\"{:016x}\",\"payload\":\"{}\"}}",
        densemem_stats::fnv1a64(payload.as_bytes()),
        proto::escape(payload)
    )
}

/// Checks `frame` byte for byte against [`expected_frame`] for
/// `payload`, taking only the per-job fields from the frame itself.
/// Returns the frame's tier.
fn assert_frame_bytes(frame: &str, exp: &str, payload: &str) -> String {
    let doc = proto::parse(frame).expect("result frame parses");
    let job = doc["job"].as_num().expect("job id") as u64;
    let tier = doc["cache"].as_str().expect("cache tier").to_owned();
    let wall_ms = doc["wall_ms"].as_num().expect("wall_ms");
    assert_eq!(frame, expected_frame(job, exp, &tier, wall_ms, payload), "{tier} frame");
    tier
}

fn cache_tier(resp: &str) -> String {
    let doc = proto::parse(resp).expect("frame parses");
    assert_eq!(doc["ok"].as_bool(), Some(true), "{resp}");
    doc["cache"].as_str().expect("cache tier").to_owned()
}

#[test]
fn lru_eviction_is_recency_ordered() {
    let mut lru = MemLru::new(3);
    for (k, v) in [("k1", "v1"), ("k2", "v2"), ("k3", "v3")] {
        lru.put(k, v.to_owned());
    }
    // Touch k1 and k2, leaving k3 the stalest; two inserts then evict
    // k3 first and k1 second (k2 and the newcomers are fresher).
    assert!(lru.get("k1").is_some());
    assert!(lru.get("k2").is_some());
    assert!(lru.get("k1").is_some());
    lru.put("k4", "v4".to_owned());
    assert!(!lru.contains("k3"), "k3 was least recently used");
    lru.put("k5", "v5".to_owned());
    assert!(!lru.contains("k2"), "k2 aged out next");
    assert!(lru.contains("k1"), "k1 was touched most recently");
    assert!(lru.contains("k4"));
    assert!(lru.contains("k5"));
    assert_eq!(lru.len(), 3);
}

#[test]
fn disk_tier_survives_an_engine_restart() {
    let dir = tmp_dir("restart");
    let cold_tier = {
        let eng = Engine::new(EngineConfig {
            workers: 1,
            disk_dir: Some(dir.clone()),
            ..Default::default()
        })
        .expect("engine");
        let tier = cache_tier(&eng.handle(&submit_line("E15", SEED_A)));
        eng.shutdown();
        tier
    };
    assert_eq!(cold_tier, "miss");

    // A fresh engine (empty memory tier) over the same directory answers
    // from disk and promotes the entry to memory.
    let eng = Engine::new(EngineConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("engine");
    assert_eq!(cache_tier(&eng.handle(&submit_line("E15", SEED_A))), "disk");
    assert_eq!(cache_tier(&eng.handle(&submit_line("E15", SEED_A))), "mem");
    eng.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_disk_entry_is_recomputed_not_served() {
    let dir = tmp_dir("corrupt");
    let store = DiskStore::open(&dir).expect("store");

    // Seed the disk tier with one real report, then flip a payload byte.
    let eng = Engine::new(EngineConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("engine");
    assert_eq!(cache_tier(&eng.handle(&submit_line("E15", SEED_B))), "miss");
    eng.shutdown();
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("entry"))
        .collect();
    assert_eq!(entries.len(), 1, "one entry expected");
    servefault::flip_last_byte(&entries[0].path()).expect("corrupt");

    // A fresh engine must detect the damage, recompute, and re-write a
    // healthy entry — never serve the corrupted payload.
    let eng = Engine::new(EngineConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("engine");
    let resp = eng.handle(&submit_line("E15", SEED_B));
    assert_eq!(cache_tier(&resp), "miss", "corrupt entry must force recompute");
    let stats = eng.handle("{\"v\":1,\"verb\":\"stats\"}");
    let doc = proto::parse(&stats).expect("stats frame parses");
    assert_eq!(doc["corrupt_entries"].as_num(), Some(1.0), "{stats}");
    eng.shutdown();

    // The re-written entry verifies again.
    assert!(matches!(store.get(key_of(&entries[0].path())), DiskRead::Hit(_)));

    // Truncation (a crash-torn write that somehow reached the final
    // name) is detected the same way.
    servefault::truncate_to(&entries[0].path(), 20).expect("truncate");
    assert!(matches!(store.get(key_of(&entries[0].path())), DiskRead::Corrupt(_)));
    assert_eq!(store.get(key_of(&entries[0].path())), DiskRead::Miss);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovers the cache key from an `<key>.entry` path.
fn key_of(path: &std::path::Path) -> &str {
    path.file_stem().and_then(|s| s.to_str()).expect("utf8 entry name")
}

#[test]
fn concurrent_identical_submits_compute_once() {
    // One worker, and a decoy job occupying it, so the identical submits
    // deterministically coalesce while their leader is still queued.
    let eng = std::sync::Arc::new(
        Engine::new(EngineConfig { workers: 1, ..Default::default() }).expect("engine"),
    );
    let decoy = eng.handle(&format!(
        "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":\"{SEED_C:#x}\"}}"
    ));
    assert!(decoy.contains("\"cache\":\"miss\""), "{decoy}");

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let eng = std::sync::Arc::clone(&eng);
            std::thread::spawn(move || eng.handle(&submit_line("E15", SEED_C)))
        })
        .collect();
    let responses: Vec<String> =
        threads.into_iter().map(|t| t.join().expect("submitter thread")).collect();

    // All four succeeded with identical payloads…
    let payloads: Vec<String> = responses
        .iter()
        .map(|r| {
            let doc = proto::parse(r).expect("result frame parses");
            assert_eq!(doc["ok"].as_bool(), Some(true), "{r}");
            doc["payload"].as_str().expect("payload").to_owned()
        })
        .collect();
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "payloads must be identical");

    // …and exactly one of them was a cold compute: one leader, three
    // single-flight followers.
    let stats = eng.handle("{\"v\":1,\"verb\":\"stats\"}");
    let doc = proto::parse(&stats).expect("stats frame parses");
    assert_eq!(doc["misses"].as_num(), Some(2.0), "decoy + one E15 leader: {stats}");
    assert_eq!(doc["dedups"].as_num(), Some(3.0), "{stats}");
    let tiers: Vec<String> = responses.iter().map(|r| cache_tier(r)).collect();
    assert_eq!(tiers.iter().filter(|t| *t == "miss").count(), 1, "{tiers:?}");
    assert_eq!(tiers.iter().filter(|t| *t == "dedup").count(), 3, "{tiers:?}");

    std::sync::Arc::try_unwrap(eng).ok().expect("sole owner").shutdown();
}

#[test]
fn every_tier_answers_with_an_independently_built_frame() {
    let dir = tmp_dir("frames");
    let cfg = EngineConfig { workers: 1, disk_dir: Some(dir.clone()), ..Default::default() };
    // One worker and a decoy job occupying it, so identical submits
    // coalesce while their leader is still queued.
    let eng = Arc::new(Engine::new(cfg.clone()).expect("engine"));
    let decoy = eng.handle(&submit_nowait_line("E1", SEED_D));
    assert!(decoy.contains("\"cache\":\"miss\""), "{decoy}");
    let threads: Vec<_> = (0..3)
        .map(|_| {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || eng.handle(&submit_line("E15", SEED_E)))
        })
        .collect();
    let mut frames: Vec<String> =
        threads.into_iter().map(|t| t.join().expect("submitter thread")).collect();
    frames.push(eng.handle(&submit_line("E15", SEED_E)));
    Arc::try_unwrap(eng).ok().expect("sole owner").shutdown();
    // A fresh engine over the same directory answers from disk.
    let eng = Engine::new(cfg).expect("engine");
    frames.push(eng.handle(&submit_line("E15", SEED_E)));
    eng.shutdown();

    // The payload as the disk tier holds it, read without the engine.
    let exp = registry::find("E15").expect("registered");
    let key = registry::cache_key(exp, &ExpContext::new(Scale::Quick).with_seed(SEED_E));
    let DiskRead::Hit(payload) = DiskStore::open(&dir).expect("store").get(&key) else {
        panic!("the miss wrote {key} to disk");
    };
    let mut tiers: Vec<String> =
        frames.iter().map(|f| assert_frame_bytes(f, "E15", &payload)).collect();
    tiers.sort_unstable();
    assert_eq!(tiers, ["dedup", "dedup", "disk", "mem", "miss"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_table_holds_the_newest_retention_window() {
    let eng = Engine::new(EngineConfig { workers: 1, ..Default::default() }).expect("engine");
    let total = 3 * JOB_RETENTION as u64;
    assert_eq!(cache_tier(&eng.handle(&submit_line("E10", SEED_F))), "miss");
    for _ in 1..total {
        let resp = eng.handle(&submit_nowait_line("E10", SEED_F));
        assert!(resp.contains("\"cache\":\"mem\""), "{resp}");
    }
    let kept = total - JOB_RETENTION as u64;
    for job in 1..=total {
        let doc = status(&eng, job);
        if job > kept {
            assert_eq!(doc["state"].as_str(), Some("done"), "job {job}: {doc:?}");
        } else {
            assert_eq!(doc["code"].as_str(), Some("job-expired"), "job {job}: {doc:?}");
        }
    }
    for never_issued in [0, total + 1] {
        let doc = status(&eng, never_issued);
        assert_eq!(doc["code"].as_str(), Some("unknown-job"), "{doc:?}");
    }
    let expired = eng.handle("{\"v\":1,\"verb\":\"result\",\"job\":1}");
    assert!(expired.contains("\"code\":\"job-expired\""), "{expired}");
    eng.shutdown();
}

#[test]
fn a_parked_result_outlives_the_retention_bound() {
    let eng = Engine::new(EngineConfig { workers: 1, ..Default::default() }).expect("engine");
    // A decoy occupies the only worker, so the miss below parks.
    let decoy = eng.handle(&submit_nowait_line("E1", SEED_G));
    assert!(decoy.contains("\"cache\":\"miss\""), "{decoy}");
    let Step::Pending(job) = eng.handle_step(&submit_line("E10", SEED_H)) else {
        panic!("a queued miss parks");
    };
    eng.wait_idle();
    for _ in 0..=JOB_RETENTION {
        let resp = eng.handle(&submit_nowait_line("E10", SEED_H));
        assert!(resp.contains("\"cache\":\"mem\""), "{resp}");
    }
    // Past the bound, but its waiter has not collected it yet.
    let frame = eng.collect_result(job).expect("the parked job is terminal");
    let doc = proto::parse(&frame).expect("result frame parses");
    assert_eq!(doc["job"].as_num(), Some(job as f64), "{frame}");
    assert_eq!(doc["cache"].as_str(), Some("miss"), "{frame}");
    // Collected, it is evicted like any other old job.
    assert_eq!(status(&eng, job)["code"].as_str(), Some("job-expired"));
    eng.shutdown();
}
