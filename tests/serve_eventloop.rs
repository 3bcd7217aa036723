//! Transport-level tests for the readiness event loop: adversarial
//! clients that the old thread-per-connection server tolerated by
//! burning a thread each, and that the event loop must tolerate while
//! spending one. Raw `TcpStream`s throughout — the point is byte-level
//! misbehaviour the polite bundled client cannot produce.

use densemem_serve::proto;
use densemem_serve::{Engine, EngineConfig, Server, TcpClient};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Seeds unique to this file so cache keys never collide with other
/// suites running in parallel.
const SEED_A: u64 = 0x10_0001;
const SEED_B: u64 = 0x10_0002;

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

#[test]
fn slow_loris_frame_arrives_byte_by_byte() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // One well-formed stats frame, dribbled a byte at a time. The loop
    // must hold the partial line in the connection's buffer — without
    // parking a thread — until the newline finally lands.
    let frame = b"{\"v\":1,\"verb\":\"stats\"}\n";
    for &b in frame.iter() {
        stream.write_all(&[b]).expect("write one byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("response");
    let doc = proto::parse(response.trim_end()).expect("stats frame parses");
    assert_eq!(doc["type"].as_str(), Some("stats"), "{response}");
    stop(daemon);
}

#[test]
fn frame_split_across_many_writes_still_computes() {
    let daemon = start(EngineConfig { workers: 1, ..Default::default() });
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");

    let line = format!(
        "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_A:#x}\",\"wait\":true}}\n"
    );
    // Split the frame into ragged chunks — partial JSON at every seam.
    for chunk in line.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("response");
    let doc = proto::parse(response.trim_end()).expect("result frame parses");
    assert_eq!(doc["ok"].as_bool(), Some(true), "{response}");
    assert_eq!(doc["type"].as_str(), Some("result"));
    stop(daemon);
}

#[test]
fn never_reading_client_does_not_stall_others() {
    let daemon = start(EngineConfig { workers: 2, ..Default::default() });

    // The rude client: fires blocking submits plus a pile of stats
    // requests and never reads a single response byte. Its responses
    // accumulate in its own write buffer.
    let mut rude = TcpStream::connect(daemon.addr).expect("rude connect");
    rude.write_all(
        format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"{SEED_B:#x}\",\"wait\":true}}\n")
            .as_bytes(),
    )
    .expect("rude submit");
    for _ in 0..64 {
        rude.write_all(b"{\"v\":1,\"verb\":\"stats\"}\n").expect("rude stats");
    }
    rude.flush().expect("rude flush");

    // The polite client, meanwhile, must see ordinary latency: a stats
    // round trip is an in-memory render and the 10s bound is generous
    // by orders of magnitude — it only trips if the loop is stuck
    // writing to (or waiting on) the rude socket.
    let mut polite = TcpClient::connect(daemon.addr).expect("polite connect");
    polite.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    for _ in 0..10 {
        let start = Instant::now();
        let stats = polite.stats().expect("polite stats while rude client stalls");
        assert!(stats.contains("\"ok\":true"), "{stats}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stats round trip starved by a never-reading peer"
        );
    }
    drop(rude);
    stop(daemon);
}

#[test]
fn hundreds_of_concurrent_connections_on_one_thread() {
    let daemon = start(EngineConfig { workers: 2, ..Default::default() });

    // Open the whole set first — the server must hold them all open at
    // once — then do a round trip on each.
    let mut clients: Vec<TcpClient> = (0..200)
        .map(|i| {
            TcpClient::connect(daemon.addr)
                .unwrap_or_else(|e| panic!("connect #{i} refused: {e}"))
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let stats = c.stats().unwrap_or_else(|e| panic!("stats #{i} failed: {e}"));
        assert!(stats.contains("\"ok\":true"), "{stats}");
    }

    // The transport gauges saw the herd.
    let stats = clients[0].stats().expect("final stats");
    let doc = proto::parse(&stats).expect("stats frame parses");
    assert!(
        doc["open_connections"].as_num() >= Some(200.0),
        "open_connections gauge too low: {stats}"
    );
    assert!(doc["accepted_total"].as_num() >= Some(200.0), "accepted_total gauge too low: {stats}");
    drop(clients);
    stop(daemon);
}
