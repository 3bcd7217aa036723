//! The `serve` binary: daemon mode and a thin CLI client.
//!
//! Daemon:
//!
//! ```text
//! serve --listen 127.0.0.1:7070 --cache-dir artifacts-serve/cache
//! ```
//!
//! Client (one request per invocation):
//!
//! ```text
//! serve client --addr 127.0.0.1:7070 submit E1 --seed 0xf161 --wait --out E1.json
//! serve client --addr 127.0.0.1:7070 submit E26 --mitigation graphene:table=128 --wait
//! serve client --addr 127.0.0.1:7070 stats
//! serve client --addr 127.0.0.1:7070 shutdown
//! ```
//!
//! Exit status: 0 on an `"ok": true` response, 1 on a typed error frame,
//! 2 on usage errors, and I/O failures report themselves.

use densemem_serve::proto::{self, Value};
use densemem_serve::{
    Engine, EngineConfig, FleetConfig, Request, ScaleArg, Server, TcpClient, Verb,
};
use std::io::Write as _;

const USAGE: &str = "\
serve — long-running densemem experiment service

USAGE:
  serve [--listen ADDR] [--workers N] [--mem-entries N]
        [--cache-dir DIR] [--port-file FILE]
        [--shard-id I --peers ADDR,ADDR,...]
  serve client --addr ADDR submit EXP [--full] [--seed SEED]
        [--priority P] [--mitigation SPEC] [--wait] [--out FILE]
  serve client --addr ADDR (status|result|cancel) JOB
  serve client --addr ADDR (stats|shutdown)

DAEMON OPTIONS:
  --listen ADDR      bind address (default 127.0.0.1:0 = OS-picked port)
  --workers N        worker threads, 0 = auto-detect (default 0)
  --mem-entries N    in-memory report cache capacity (default 64)
  --cache-dir DIR    on-disk report cache root (default: disk tier off)
  --port-file FILE   write the bound ADDR here once listening
  --shard-id I       this process's index in a sharded fleet
  --peers A,B,...    every fleet member's dial address, by shard id
                     (both flags together turn on fleet mode; this
                     shard's own slot is never dialed)

CLIENT OPTIONS:
  --addr ADDR        server address (required)
  --full             full scale (default: quick)
  --seed SEED        master seed, decimal or 0x-hex (default: suite default)
  --priority P       scheduling priority, higher first (default 0)
  --mitigation SPEC  mitigation plugin spec, name[:key=val,...][+name...]
                     (see `exp --list-mitigations`; folded into cache key)
  --wait             block for the result frame
  --out FILE         write the report payload here (default: stdout)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("client") {
        run_client(&args[1..])
    } else {
        run_daemon(&args)
    };
    std::process::exit(code);
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("serve: {msg}\n\n{USAGE}");
    2
}

fn run_daemon(args: &[String]) -> i32 {
    let mut listen = "127.0.0.1:0".to_owned();
    let mut cfg = EngineConfig::default();
    let mut port_file: Option<String> = None;
    let mut shard_id: Option<u32> = None;
    let mut peers: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => return usage_error("--listen needs an address"),
            },
            "--shard-id" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => shard_id = Some(v),
                None => return usage_error("--shard-id needs an integer"),
            },
            "--peers" => match it.next() {
                Some(v) => {
                    peers = Some(v.split(',').map(str::trim).map(str::to_owned).collect());
                }
                None => return usage_error("--peers needs a comma-separated address list"),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.workers = v,
                None => return usage_error("--workers needs a count"),
            },
            "--mem-entries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.mem_entries = v,
                None => return usage_error("--mem-entries needs a count"),
            },
            "--cache-dir" => match it.next() {
                Some(v) => cfg.disk_dir = Some(v.into()),
                None => return usage_error("--cache-dir needs a directory"),
            },
            "--port-file" => match it.next() {
                Some(v) => port_file = Some(v.clone()),
                None => return usage_error("--port-file needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }
    match (shard_id, peers) {
        (Some(id), Some(list)) => cfg.fleet = Some(FleetConfig { shard_id: id, peers: list }),
        (None, None) => {}
        _ => return usage_error("fleet mode needs both --shard-id and --peers"),
    }

    let engine = match Engine::new(cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("serve: engine init failed: {e}");
            return 1;
        }
    };
    let server = match Server::bind(engine, listen.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot listen on {listen}: {e}");
            return 1;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: cannot resolve bound address: {e}");
            return 1;
        }
    };
    if let Some(path) = &port_file {
        // Temp-and-rename so a watcher never reads a half-written line.
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("serve: cannot write port file {path}: {e}");
            return 1;
        }
    }
    eprintln!("serve: listening on {addr} (protocol v{})", proto::PROTO_VERSION);
    match server.run() {
        Ok(()) => {
            eprintln!("serve: drained, bye");
            0
        }
        Err(e) => {
            eprintln!("serve: accept loop failed: {e}");
            1
        }
    }
}

fn run_client(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut verb: Option<&str> = None;
    let mut exp: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut scale = ScaleArg::Quick;
    let mut seed: Option<u64> = None;
    let mut priority = 0i32;
    let mut wait = false;
    let mut out: Option<String> = None;
    let mut mitigation: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage_error("--addr needs an address"),
            },
            "--full" => scale = ScaleArg::Full,
            "--quick" => scale = ScaleArg::Quick,
            "--seed" => match it.next().map(|v| densemem_stats::json::parse_u64(v)) {
                Some(Ok(v)) => seed = Some(v),
                _ => return usage_error("--seed needs a decimal or 0x-hex integer"),
            },
            "--priority" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => priority = v,
                None => return usage_error("--priority needs an integer"),
            },
            "--mitigation" => match it.next() {
                Some(v) => mitigation = Some(v.clone()),
                None => return usage_error("--mitigation needs a plugin spec"),
            },
            "--wait" => wait = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return usage_error("--out needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            "submit" | "status" | "result" | "cancel" | "stats" | "shutdown"
                if verb.is_none() =>
            {
                verb = Some(match arg.as_str() {
                    "submit" => "submit",
                    "status" => "status",
                    "result" => "result",
                    "cancel" => "cancel",
                    "stats" => "stats",
                    other => {
                        debug_assert_eq!(other, "shutdown");
                        "shutdown"
                    }
                });
            }
            positional if verb == Some("submit") && exp.is_none() => {
                exp = Some(positional.to_owned());
            }
            positional
                if matches!(verb, Some("status" | "result" | "cancel")) && job.is_none() =>
            {
                match positional.parse() {
                    Ok(v) => job = Some(v),
                    Err(_) => return usage_error("JOB must be an integer"),
                }
            }
            other => return usage_error(&format!("unexpected argument {other:?}")),
        }
    }

    let Some(addr) = addr else {
        return usage_error("client mode needs --addr");
    };
    let Some(verb) = verb else {
        return usage_error("client mode needs a verb");
    };
    let request = match verb {
        "submit" => {
            let Some(exp) = exp else {
                return usage_error("submit needs an experiment id");
            };
            Request {
                verb: Verb::Submit,
                exp: Some(exp),
                scale,
                seed,
                priority,
                wait,
                job: None,
                mitigation,
                fwd: false,
                epoch: None,
            }
        }
        "status" | "result" | "cancel" => {
            let Some(job) = job else {
                return usage_error(&format!("{verb} needs a job id"));
            };
            let v = match verb {
                "status" => Verb::Status,
                "result" => Verb::Result,
                _ => Verb::Cancel,
            };
            Request {
                verb: v,
                exp: None,
                scale: ScaleArg::Quick,
                seed: None,
                priority: 0,
                wait: false,
                job: Some(job),
                mitigation: None,
                fwd: false,
                epoch: None,
            }
        }
        "stats" => Request {
            verb: Verb::Stats,
            exp: None,
            scale: ScaleArg::Quick,
            seed: None,
            priority: 0,
            wait: false,
            job: None,
            mitigation: None,
            fwd: false,
            epoch: None,
        },
        _ => Request {
            verb: Verb::Shutdown,
            exp: None,
            scale: ScaleArg::Quick,
            seed: None,
            priority: 0,
            wait: false,
            job: None,
            mitigation: None,
            fwd: false,
            epoch: None,
        },
    };

    let mut client = match TcpClient::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve client: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let response = match client.request(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve client: request failed: {e}");
            return 1;
        }
    };
    render_response(&response, out.as_deref())
}

/// Prints a human summary line; the payload goes to `--out` (or stdout).
fn render_response(response: &str, out: Option<&str>) -> i32 {
    let Ok(doc) = proto::parse(response) else {
        eprintln!("serve client: unparseable response: {response}");
        return 1;
    };
    if doc.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = doc.get("code").and_then(Value::as_str).unwrap_or("?");
        let msg = doc.get("msg").and_then(Value::as_str).unwrap_or("?");
        eprintln!("serve client: error {code}: {msg}");
        return 1;
    }
    match doc.get("type").and_then(Value::as_str) {
        Some("result") => {
            let job = doc.get("job").and_then(Value::as_num).unwrap_or(0.0);
            let cache = doc.get("cache").and_then(Value::as_str).unwrap_or("?");
            let wall = doc.get("wall_ms").and_then(Value::as_num).unwrap_or(0.0);
            let fnv = doc.get("payload_fnv").and_then(Value::as_str).unwrap_or("?");
            eprintln!("job={job} cache={cache} wall_ms={wall:.3} payload_fnv={fnv}");
            let payload = doc.get("payload").and_then(Value::as_str).unwrap_or("");
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, payload) {
                        eprintln!("serve client: cannot write {path}: {e}");
                        return 1;
                    }
                }
                None => {
                    let mut stdout = std::io::stdout().lock();
                    let _ = stdout.write_all(payload.as_bytes());
                }
            }
            0
        }
        Some("submitted") => {
            let job = doc.get("job").and_then(Value::as_num).unwrap_or(0.0);
            let cache = doc.get("cache").and_then(Value::as_str).unwrap_or("?");
            println!("job={job} cache={cache}");
            0
        }
        _ => {
            // status / cancelled / stats / bye: the frame is the output.
            println!("{response}");
            0
        }
    }
}
