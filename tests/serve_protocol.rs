//! End-to-end protocol tests for the serving daemon: a real TCP server
//! on an OS-picked port, driven by the real client plus the testkit's
//! transport-damage helpers. One shared server per test body (servers
//! are cheap; isolation beats reuse).

use densemem_serve::proto;
use densemem_serve::{Engine, EngineConfig, Server, TcpClient, JOB_RETENTION};
use densemem_testkit::servefault;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seeds unique to this file so popcache/disk keys never collide with
/// other suites running in parallel.
const SEED_A: u64 = 0x5E12_0001;
const SEED_B: u64 = 0x5E12_0002;
const SEED_C: u64 = 0x5E12_0003;

struct Daemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(cfg: EngineConfig) -> Daemon {
    let engine = Engine::new(cfg).expect("engine");
    let server = Server::bind(engine, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let thread = std::thread::spawn(move || server.run());
    Daemon { addr, thread }
}

fn stop(daemon: Daemon) {
    let mut client = TcpClient::connect(daemon.addr).expect("connect for shutdown");
    let bye = client.shutdown().expect("shutdown");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    daemon.thread.join().expect("server thread").expect("server run");
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("densemem-serve-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn submit_status_result_cancel_round_trip() {
    let daemon = start(EngineConfig { workers: 2, ..Default::default() });
    let mut client = TcpClient::connect(daemon.addr).expect("connect");

    // Non-blocking submit hands back a job id.
    let submitted = client
        .roundtrip(&format!(
            "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_A:#x}\"}}"
        ))
        .expect("submit");
    let doc = proto::parse(&submitted).expect("submitted frame parses");
    assert_eq!(doc["type"].as_str(), Some("submitted"));
    assert_eq!(doc["cache"].as_str(), Some("miss"));
    let job = doc["job"].as_num().expect("job id") as u64;

    // Status is answerable at any point in the lifecycle.
    let status = client
        .roundtrip(&format!("{{\"v\":1,\"verb\":\"status\",\"job\":{job}}}"))
        .expect("status");
    let doc = proto::parse(&status).expect("status frame parses");
    assert!(matches!(doc["state"].as_str(), Some("queued" | "running" | "done")), "{status}");

    // Result blocks until done and carries the hashed payload.
    let result = client
        .roundtrip(&format!("{{\"v\":1,\"verb\":\"result\",\"job\":{job}}}"))
        .expect("result");
    let doc = proto::parse(&result).expect("result frame parses");
    assert_eq!(doc["ok"].as_bool(), Some(true));
    let payload = doc["payload"].as_str().expect("payload").to_owned();
    let fnv = doc["payload_fnv"].as_str().expect("fnv");
    assert_eq!(
        u64::from_str_radix(fnv, 16).expect("hex fnv"),
        densemem_stats::fnv1a64(payload.as_bytes()),
        "payload hash must verify client-side"
    );
    let report = proto::parse(&payload).expect("payload is a JSON report");
    assert_eq!(report["id"].as_str(), Some("E15"));

    // Cancelling a finished job is a no-op, stated as such.
    let cancel = client
        .roundtrip(&format!("{{\"v\":1,\"verb\":\"cancel\",\"job\":{job}}}"))
        .expect("cancel");
    let doc = proto::parse(&cancel).expect("cancel frame parses");
    assert_eq!(doc["did_cancel"].as_bool(), Some(false));

    stop(daemon);
}

#[test]
fn typed_error_frames_for_bad_input() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    let mut client = TcpClient::connect(daemon.addr).expect("connect");
    // Job 1, then enough finished jobs after it to push it out of the
    // bounded job table.
    let cold = client
        .roundtrip(&format!(
            "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E10\",\"seed\":\"{SEED_C:#x}\",\"wait\":true}}"
        ))
        .expect("cold submit");
    assert!(cold.contains("\"job\":1,"), "{cold}");
    for _ in 0..JOB_RETENTION {
        let warm = client
            .roundtrip(&format!(
                "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E10\",\"seed\":\"{SEED_C:#x}\"}}"
            ))
            .expect("warm submit");
        assert!(warm.contains("\"cache\":\"mem\""), "{warm}");
    }
    for (line, want) in [
        ("this is not json", "bad-frame"),
        ("{\"v\":1}", "missing-field"),
        ("{\"v\":7,\"verb\":\"stats\"}", "unsupported-version"),
        ("{\"v\":1,\"verb\":\"transmogrify\"}", "unknown-verb"),
        ("{\"v\":1,\"verb\":\"submit\",\"exp\":\"E99\"}", "unknown-experiment"),
        ("{\"v\":1,\"verb\":\"result\",\"job\":424242}", "unknown-job"),
        ("{\"v\":1,\"verb\":\"status\",\"job\":1}", "job-expired"),
        ("{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":\"0xzz\"}", "bad-field"),
    ] {
        let resp = client.roundtrip(line).expect("roundtrip");
        let doc = proto::parse(&resp).expect("error frame parses");
        assert_eq!(doc["ok"].as_bool(), Some(false), "{line} → {resp}");
        assert_eq!(doc["code"].as_str(), Some(want), "{line} → {resp}");
    }
    // The connection survived all eight bad lines; five of them failed at
    // the frame-parse layer and show up in the counter (the unknown
    // experiment, unknown job and expired job were well-formed frames).
    let stats = client.stats().expect("stats");
    let doc = proto::parse(&stats).expect("stats frame parses");
    assert_eq!(doc["bad_frames"].as_num(), Some(5.0), "{stats}");
    stop(daemon);
}

#[test]
fn truncated_frame_gets_bad_frame_not_a_hang() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    let resp =
        servefault::send_truncated(daemon.addr, b"{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1")
            .expect("truncated send");
    let doc = proto::parse(&resp).expect("response parses");
    assert_eq!(doc["ok"].as_bool(), Some(false));
    assert_eq!(doc["code"].as_str(), Some("bad-frame"));
    // The server is still healthy for well-formed peers.
    servefault::connect_and_vanish(daemon.addr).expect("silent peer");
    let mut client = TcpClient::connect(daemon.addr).expect("connect");
    assert!(client.stats().expect("stats").contains("\"ok\":true"));
    stop(daemon);
}

#[test]
fn mid_job_disconnect_still_caches_the_result() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    // Fire a blocking submit and vanish before the response exists.
    servefault::fire_and_disconnect(
        daemon.addr,
        &format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_B:#x}\",\"wait\":true}}"),
    )
    .expect("fire and disconnect");

    // Wait until the server has actually ingested the abandoned frame
    // (the disconnect races the read) before asking again.
    let mut client = TcpClient::connect(daemon.addr).expect("reconnect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        let doc = proto::parse(&stats).expect("stats frame parses");
        if doc["misses"].as_num() >= Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "abandoned submit never ingested: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Ask for the same computation: the abandoned job keeps running, so
    // this resolves as a dedup follower or (if already done) a memory
    // hit — never a second cold compute.
    let resp = client
        .roundtrip(&format!(
            "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_B:#x}\",\"wait\":true}}"
        ))
        .expect("warm submit");
    let doc = proto::parse(&resp).expect("result frame parses");
    assert_eq!(doc["ok"].as_bool(), Some(true), "{resp}");
    assert!(
        matches!(doc["cache"].as_str(), Some("dedup" | "mem")),
        "abandoned job's work must be reused: {resp}"
    );
    let stats = client.stats().expect("stats");
    let doc = proto::parse(&stats).expect("stats frame parses");
    assert_eq!(doc["misses"].as_num(), Some(1.0), "one cold compute total: {stats}");
    stop(daemon);
}

#[test]
fn warm_answer_is_byte_identical_to_batch_report_after_normalization() {
    use densemem::experiments::{registry, ExpContext, Scale};
    use densemem_testkit::golden;

    let daemon = start(EngineConfig {
        workers: 1,
        disk_dir: Some(tmp_dir("golden")),
        ..Default::default()
    });
    let mut client = TcpClient::connect(daemon.addr).expect("connect");
    let line = format!(
        "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_A:#x}\",\"wait\":true}}"
    );
    let _cold = client.roundtrip(&line).expect("cold");
    let warm = client.roundtrip(&line).expect("warm");
    let doc = proto::parse(&warm).expect("warm frame parses");
    assert_eq!(doc["cache"].as_str(), Some("mem"), "{warm}");
    let served = doc["payload"].as_str().expect("payload").to_owned();

    // The batch path: same experiment, same seed, rendered directly.
    let exp = registry::find("E15").expect("registered");
    let ctx = ExpContext::new(Scale::Quick).with_seed(SEED_A).with_threads(1);
    let (result, wall) = exp.run_timed(&ctx);
    let batch = densemem::report::json::render(exp, &result, &ctx, wall);

    // Normalize both (wall_secs/threads legitimately differ) and compare
    // the canonical renderings byte for byte.
    let mut served_doc = proto::parse(&served).expect("served parses");
    let mut batch_doc = proto::parse(&batch).expect("batch parses");
    golden::normalize(&mut served_doc);
    golden::normalize(&mut batch_doc);
    assert_eq!(
        golden::to_canonical_string(&served_doc),
        golden::to_canonical_string(&batch_doc),
        "served and batch reports must agree after golden normalization"
    );
    stop(daemon);
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    let addr = daemon.addr;
    let mut client = TcpClient::connect(addr).expect("connect");
    let bye = client.shutdown().expect("shutdown");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    // A submit racing the drain gets a typed refusal (or, if the accept
    // loop already closed, a connection error — both are graceful).
    if let Ok(mut late) = TcpClient::connect(addr) {
        if let Ok(resp) = late.roundtrip("{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\"}") {
            assert!(resp.contains("shutting-down"), "{resp}");
        }
    }
    daemon.thread.join().expect("server thread").expect("server run");
    // The port is actually released.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match std::net::TcpListener::bind(addr) {
            Ok(_) => break,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("port not released after drain: {e}"),
        }
    }
}
