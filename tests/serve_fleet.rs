//! Fleet-mode integration tests: a real 3-shard consistent-hash fleet
//! of event-loop servers inside one process, exercised over TCP. The
//! properties pinned here are the serving layer's fleet contract:
//!
//! * any shard answers any key (forwarding non-owned keys one hop);
//! * answers are byte-identical to a standalone engine's answers, and a
//!   peer-filled result frame to one built from the owner's payload;
//! * a second round through the same shard is all memory hits (peer
//!   fills land in the asking shard's LRU);
//! * a dead owner degrades to a local compute, never a client error;
//! * mis-forwarded frames get typed `wrong-shard` refusals.

use densemem::experiments::{registry, ExpContext, Scale};
use densemem_serve::proto;
use densemem_serve::{Engine, EngineConfig, LocalFleet, TcpClient};
use densemem_stats::ring::HashRing;
use std::net::SocketAddr;

/// Seeds unique to this file so cache keys never collide with other
/// suites running in parallel.
const SEED_BASE: u64 = 0xF1EE_7000;

const SHARDS: u32 = 3;

fn cfg() -> EngineConfig {
    EngineConfig { workers: 2, ..Default::default() }
}

fn submit_line(exp: &str, seed: u64) -> String {
    format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"{exp}\",\"seed\":\"{seed:#x}\",\"wait\":true}}")
}

/// The shard that owns `(exp, seed)` — the same ring math the engines
/// run, over the same registry cache key.
fn owner_of(exp: &str, seed: u64) -> u32 {
    let exp = registry::find(exp).expect("registered experiment");
    let ctx = ExpContext::new(Scale::Quick).with_seed(seed);
    let ring = HashRing::new(SHARDS, HashRing::DEFAULT_VNODES);
    ring.owner_of(&registry::cache_key(exp, &ctx))
}

/// A seed near `base` whose key lands on shard `owner` for `exp`.
fn seed_owned_by(exp: &str, owner: u32, base: u64) -> u64 {
    (base..base + 512)
        .find(|&s| owner_of(exp, s) == owner)
        .expect("512 consecutive seeds always span 3 shards")
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

fn stats_num(addr: SocketAddr, key: &str) -> f64 {
    let mut c = TcpClient::connect(addr).expect("stats connect");
    let stats = c.stats().expect("stats");
    let doc = proto::parse(&stats).expect("stats frame parses");
    doc[key].as_num().unwrap_or_else(|| panic!("{key} not numeric: {stats}"))
}

#[test]
fn any_shard_answers_any_key_byte_identically_and_warms_its_lru() {
    let fleet = LocalFleet::spawn(SHARDS, &cfg()).expect("fleet");
    let entry = fleet.addrs()[0];
    let mix: Vec<(&str, u64)> =
        (0..4).flat_map(|i| [("E1", SEED_BASE + i), ("E15", SEED_BASE + i)]).collect();

    // Round 1, all through shard 0: cold everywhere. Some keys are
    // owned locally (miss), the rest arrive by peer fill.
    let mut client = TcpClient::connect(entry).expect("connect shard 0");
    let mut served: Vec<String> = Vec::new();
    for (exp, seed) in &mix {
        let resp = client.roundtrip(&submit_line(exp, *seed)).expect("submit");
        let doc = proto::parse(&resp).expect("result frame parses");
        assert_eq!(doc["ok"].as_bool(), Some(true), "{resp}");
        assert!(
            matches!(doc["cache"].as_str(), Some("miss" | "peer" | "dedup")),
            "cold round tier: {resp}"
        );
        served.push(doc["payload"].as_str().expect("payload").to_owned());
    }

    // The mix spanned shard boundaries: shard 0 forwarded at least one
    // key and filled it from the owner, with zero peer failures.
    assert!(stats_num(entry, "forwarded") >= 1.0, "no key was forwarded");
    assert!(stats_num(entry, "peer_fills") >= 1.0, "no peer fill happened");
    assert_eq!(stats_num(entry, "peer_failures"), 0.0, "healthy fleet saw peer failures");

    // Round 2 through the same shard: everything — owned or peer-filled
    // — answers from shard 0's own memory LRU.
    for (exp, seed) in &mix {
        let resp = client.roundtrip(&submit_line(exp, *seed)).expect("warm submit");
        let doc = proto::parse(&resp).expect("result frame parses");
        assert_eq!(doc["cache"].as_str(), Some("mem"), "{resp}");
    }

    // Byte identity: a standalone (fleetless) engine computes the same
    // report for every key, whichever shard produced the fleet's copy.
    // Normalized exactly like the golden gate (wall_secs/threads are
    // legitimately volatile), then compared byte for byte.
    use densemem_testkit::golden;
    let lone = Engine::new(cfg()).expect("standalone engine");
    for ((exp, seed), fleet_payload) in mix.iter().zip(&served) {
        let resp = lone.handle(&submit_line(exp, *seed));
        let doc = proto::parse(&resp).expect("standalone result parses");
        let lone_payload = doc["payload"].as_str().expect("payload");
        let mut fleet_doc = proto::parse(fleet_payload).expect("fleet payload parses");
        let mut lone_doc = proto::parse(lone_payload).expect("standalone payload parses");
        golden::normalize(&mut fleet_doc);
        golden::normalize(&mut lone_doc);
        assert_eq!(
            golden::to_canonical_string(&fleet_doc),
            golden::to_canonical_string(&lone_doc),
            "fleet and standalone reports diverge for {exp} seed {seed:#x}"
        );
    }
    lone.shutdown();
    fleet.shutdown();
}

#[test]
fn dead_peer_degrades_to_local_compute_not_an_error() {
    let fleet = LocalFleet::spawn(SHARDS, &cfg()).expect("fleet");
    let entry = fleet.addrs()[0];
    let victim = fleet.addrs()[2];
    let seed = seed_owned_by("E1", 2, SEED_BASE + 0x1000);

    // Kill the owner of the key we're about to ask for.
    let mut c = TcpClient::connect(victim).expect("connect victim");
    let bye = c.shutdown().expect("shutdown victim");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    drop(c);

    // Ask the surviving shard 0. The forward fails (dial refused), the
    // shard computes locally, and the client sees an ordinary result.
    let mut client = TcpClient::connect(entry).expect("connect shard 0");
    let resp = client.roundtrip(&submit_line("E1", seed)).expect("submit to survivor");
    let doc = proto::parse(&resp).expect("result frame parses");
    assert_eq!(doc["ok"].as_bool(), Some(true), "dead peer leaked to client: {resp}");
    assert_eq!(doc["cache"].as_str(), Some("miss"), "fallback is a local compute: {resp}");

    assert!(stats_num(entry, "peer_failures") >= 1.0, "peer failure not counted");
    // And the fallback's result is cached like any other local compute.
    let warm = client.roundtrip(&submit_line("E1", seed)).expect("warm submit");
    assert_eq!(proto::parse(&warm).expect("warm parses")["cache"].as_str(), Some("mem"), "{warm}");
    fleet.shutdown();
}

#[test]
fn misrouted_and_stale_forwards_get_wrong_shard_refusals() {
    let fleet = LocalFleet::spawn(SHARDS, &cfg()).expect("fleet");
    let ring = HashRing::new(SHARDS, HashRing::DEFAULT_VNODES);
    let epoch = ring.epoch();
    let seed = seed_owned_by("E1", 1, SEED_BASE + 0x2000);

    // A forwarded frame for shard 1's key, sent to shard 0 with the
    // correct epoch: single-hop rule says refuse, never re-forward.
    let mut c0 = TcpClient::connect(fleet.addrs()[0]).expect("connect shard 0");
    let misrouted = format!(
        "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":\"{seed:#x}\",\"wait\":true,\"fwd\":true,\"epoch\":\"{epoch:#x}\"}}"
    );
    let resp = c0.roundtrip(&misrouted).expect("misrouted fwd");
    let doc = proto::parse(&resp).expect("refusal parses");
    assert_eq!(doc["ok"].as_bool(), Some(false), "{resp}");
    assert_eq!(doc["code"].as_str(), Some("wrong-shard"), "{resp}");

    // The right shard but a stale ring epoch: also refused — two shards
    // with different ring configs must not trust each other's routing.
    let mut c1 = TcpClient::connect(fleet.addrs()[1]).expect("connect shard 1");
    let stale = format!(
        "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":\"{seed:#x}\",\"wait\":true,\"fwd\":true,\"epoch\":\"0x1\"}}"
    );
    let resp = c1.roundtrip(&stale).expect("stale fwd");
    let doc = proto::parse(&resp).expect("refusal parses");
    assert_eq!(doc["code"].as_str(), Some("wrong-shard"), "{resp}");

    // A first-hand (non-fwd) request for the same key through shard 0
    // still works fine — the refusals above are for forwarded frames.
    let resp = c0.roundtrip(&submit_line("E1", seed)).expect("first-hand submit");
    assert_eq!(proto::parse(&resp).expect("result parses")["ok"].as_bool(), Some(true), "{resp}");
    fleet.shutdown();
}

#[test]
fn peer_filled_frame_is_built_from_the_owners_payload() {
    let fleet = LocalFleet::spawn(SHARDS, &cfg()).expect("fleet");
    let seed = seed_owned_by("E10", 1, SEED_BASE + 0x3000);
    let mut c0 = TcpClient::connect(fleet.addrs()[0]).expect("connect shard 0");
    let filled = c0.roundtrip(&submit_line("E10", seed)).expect("submit through shard 0");
    let mut c1 = TcpClient::connect(fleet.addrs()[1]).expect("connect shard 1");
    let owned = c1.roundtrip(&submit_line("E10", seed)).expect("submit to the owner");
    let owned_doc = proto::parse(&owned).expect("owner's frame parses");
    assert_eq!(owned_doc["cache"].as_str(), Some("mem"), "{owned}");
    let payload = owned_doc["payload"].as_str().expect("payload");

    let doc = proto::parse(&filled).expect("peer frame parses");
    let job = doc["job"].as_num().expect("job id") as u64;
    let wall_ms = doc["wall_ms"].as_num().expect("wall_ms");
    assert_eq!(filled, expected_frame(job, "E10", "peer", wall_ms, payload));
    fleet.shutdown();
}
