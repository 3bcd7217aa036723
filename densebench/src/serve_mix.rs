//! `serve-mix`: the shipped `serve` daemon in its own process, with one
//! worker and the disk tier on, driven by one closed-loop connection
//! (each request waits for its reply).
//!
//! Input: Zipf-skewed (s = [`ZIPF_S`]) submits over [`WARM_KEYS`] warm
//! keys of cheap quick-scale experiments, plus one never-seen key in
//! every [`MISS_EVERY`] requests. The in-memory tier holds
//! [`MEM_ENTRIES`] reports, so the Zipf tail is answered from disk and
//! every new key computes, writes both tiers, and pushes an older key
//! out of memory. One op is one answered request. Set-up starts the
//! daemon, waits until it listens, and warms every key once.
//!
//! The daemon is always asked to shut down, killed if it has not exited
//! within [`EXIT_PATIENCE`], and its cache directory removed — also
//! when a check fails or the benchmark itself panics.

use crate::layers::Layers;
use crate::{measure, stream_seed, EndToEnd, Outcome, RunConfig};
use densemem::experiments::{popcache, registry, ExpContext, Scale};
use densemem::report::json;
use densemem_dram::{ModulePopulation, ModuleRecord};
use densemem_serve::proto::{self, Request, ScaleArg, Value, Verb};
use densemem_serve::{DiskRead, DiskStore, Engine, EngineConfig, MemLru, TcpClient};
use densemem_stats::par::ParConfig;
use rand::Rng;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Experiments behind the warm keys, by Zipf rank modulo their count
/// (fixed, so every seed sees the same payload-size mix by rank). E1 and
/// E23 read the module population of their key's seed.
pub const WARM_EXPS: [&str; 10] = [
    "E10", "E18", "E19", "E9", "E11", "E12", "E14", "E21", "E23", "E1",
];
/// Warm keys: every warm experiment under four seeds.
pub const WARM_KEYS: usize = 40;
/// Experiments behind the never-seen keys, in turn along a round.
const MISS_EXPS: [&str; 3] = ["E10", "E18", "E19"];
/// One request in this many is a never-seen key.
pub const MISS_EVERY: usize = 40;
/// Requests per round.
const ROUND: usize = 400;
/// The daemon's in-memory tier capacity (`--mem-entries`).
pub const MEM_ENTRIES: usize = 16;
/// Zipf exponent over the warm keys' ranks.
pub const ZIPF_S: f64 = 1.1;
/// `peak_rss_mb` is the daemon's peak after this many rounds (40,000
/// requests), or at the end of a run too short to reach them: the job
/// table keeps every answered request, so a fixed amount of work keeps
/// the figure comparable between runs and versions.
const RSS_ROUNDS: usize = 100;
/// How long a daemon may take to exit after `shutdown`.
pub const EXIT_PATIENCE: Duration = Duration::from_secs(10);

/// A request's key: experiment and master seed (quick scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    exp: &'static str,
    seed: u64,
}

impl Key {
    fn line(self) -> String {
        Request {
            verb: Verb::Submit,
            exp: Some(self.exp.to_owned()),
            scale: ScaleArg::Quick,
            seed: Some(self.seed),
            priority: 0,
            wait: true,
            job: None,
            mitigation: None,
            fwd: false,
            epoch: None,
        }
        .to_line()
    }

    fn context(self) -> ExpContext {
        ExpContext::new(Scale::Quick)
            .with_seed(self.seed)
            .with_par(ParConfig::serial())
    }

    fn experiment(self) -> &'static registry::Experiment {
        registry::find(self.exp).expect("benchmark keys name registered experiments")
    }
}

/// The daemon process and its cache directory. Dropping it kills a
/// daemon that is still running, waits for it, and removes the directory.
struct Daemon {
    child: Child,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    /// Starts the daemon with its cache and port file under `dir`, which
    /// it owns from here on (the traced run's in-process replicas keep
    /// their stores there too).
    fn start(exe: &Path, dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0", "--workers", "1"])
            .args(["--mem-entries", &MEM_ENTRIES.to_string()])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--port-file")
            .arg(&port_file)
            .env("DENSEMEM_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut daemon = Self {
            child,
            dir,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                daemon.addr = text.trim().to_owned();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not listen within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Moves the daemon's threads to round `r`'s CPU, the one the client
    /// runs that round on, so a request wakes its peer on the same CPU.
    fn follow(&self, r: usize) {
        if let Some(c) = crate::cpu::for_round(r) {
            crate::cpu::pin_process(self.child.id(), c);
        }
    }

    /// Asks the daemon to stop, killing it if it has not exited within
    /// [`EXIT_PATIENCE`]. Returns whether it exited on its own.
    fn stop(&mut self, client: &mut TcpClient) -> bool {
        let _ = client.shutdown();
        let deadline = Instant::now() + EXIT_PATIENCE;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Where a request was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Mem,
    Disk,
    Miss,
}

impl Tier {
    fn as_str(self) -> &'static str {
        match self {
            Tier::Mem => "mem",
            Tier::Disk => "disk",
            Tier::Miss => "miss",
        }
    }
}

/// The benchmark's own model of the daemon's cache: an LRU of
/// `capacity` keys over a disk tier that keeps every computed key.
struct TierModel {
    /// Least recently used first.
    lru: Vec<Key>,
    capacity: usize,
    disk: HashSet<Key>,
}

impl TierModel {
    fn new(capacity: usize) -> Self {
        Self {
            lru: Vec::new(),
            capacity,
            disk: HashSet::new(),
        }
    }

    fn access(&mut self, key: Key) -> Tier {
        if let Some(pos) = self.lru.iter().position(|k| *k == key) {
            self.lru.remove(pos);
            self.lru.push(key);
            return Tier::Mem;
        }
        let tier = if self.disk.insert(key) {
            Tier::Miss
        } else {
            Tier::Disk
        };
        self.lru.push(key);
        if self.lru.len() > self.capacity {
            self.lru.remove(0);
        }
        tier
    }
}

/// A parsed result frame.
struct Answer {
    tier: String,
    payload: String,
}

/// Every frame is `ok` and a result.
fn check_frame(frame: &str) -> Result<(Answer, String), String> {
    let doc = proto::parse(frame).map_err(|e| format!("unparseable frame: {e}"))?;
    if doc.get("ok").and_then(Value::as_bool) != Some(true)
        || doc.get("type").and_then(Value::as_str) != Some("result")
    {
        return Err(format!(
            "not an ok result frame: {}",
            &frame[..frame.len().min(200)]
        ));
    }
    let field = |k: &str| doc.get(k).and_then(Value::as_str).map(str::to_owned);
    let (Some(tier), Some(fnv), Some(payload)) =
        (field("cache"), field("payload_fnv"), field("payload"))
    else {
        return Err("result frame lacks cache, payload_fnv or payload".to_owned());
    };
    Ok((Answer { tier, payload }, fnv))
}

/// `payload_fnv` equals the benchmark's own FNV-1a64 of the payload.
fn check_fnv(payload: &str, fnv: &str) -> Result<(), String> {
    let ours = format!("{:016x}", measure::fnv1a64(payload.as_bytes()));
    if ours == fnv {
        Ok(())
    } else {
        Err(format!("payload_fnv {fnv}, benchmark's FNV-1a64 {ours}"))
    }
}

/// A request was answered from tier `want`: the daemon from the tier the
/// benchmark's model predicts, an in-process replica from the daemon's.
fn check_tier(what: impl Display, want: Tier, got: Option<&str>) -> Result<(), String> {
    if got == Some(want.as_str()) {
        Ok(())
    } else {
        Err(format!(
            "{what}: answered from {}, expected {}",
            got.unwrap_or("no tier"),
            want.as_str()
        ))
    }
}

/// The daemon's own parser accepts the request line the benchmark sent.
fn check_parsed<T, E: Display>(line: &str, parsed: Result<T, E>) -> Result<(), String> {
    parsed
        .map(drop)
        .map_err(|e| format!("the daemon's parser rejects {}: {e}", line.trim_end()))
}

/// A repeat of a key is answered byte for byte as its first answer was.
fn check_same_answer(key: Key, first: &str, got: &str) -> Result<(), String> {
    if first == got {
        Ok(())
    } else {
        Err(format!(
            "{} seed {:#x}: repeat answer differs from the first",
            key.exp, key.seed
        ))
    }
}

/// A report with its volatile wall time zeroed (`threads` is pinned to 1
/// on both sides, so it stays).
fn normalize(payload: &str) -> String {
    const KEY: &str = "\"wall_secs\": ";
    let Some(start) = payload.find(KEY).map(|p| p + KEY.len()) else {
        return payload.to_owned();
    };
    let end = payload[start..]
        .find(',')
        .map_or(payload.len(), |e| start + e);
    format!("{}0.0{}", &payload[..start], &payload[end..])
}

/// The served payload, normalized, equals an in-process registry run
/// rendered by `report::json`.
fn check_payload(key: Key, served: &str, expected: &str) -> Result<(), String> {
    if normalize(served) == normalize(expected) {
        Ok(())
    } else {
        Err(format!(
            "{} seed {:#x}: served report differs from an in-process run",
            key.exp, key.seed
        ))
    }
}

/// An in-process registry run of `key`, rendered, with its run and
/// render times.
fn expected_payload(key: Key) -> (String, f64, f64) {
    let ctx = key.context();
    let exp = key.experiment();
    let (result, wall) = exp.run_timed(&ctx);
    let t0 = Instant::now();
    let rendered = json::render(exp, &result, &ctx, wall);
    (rendered, wall, t0.elapsed().as_secs_f64())
}

/// A cold population build equals the memoised one the experiments read.
fn check_population(cold: &[ModuleRecord], memo: &[ModuleRecord]) -> Result<(), String> {
    if cold == memo {
        Ok(())
    } else {
        Err(format!(
            "a cold population build ({} modules) differs from the memoised one ({})",
            cold.len(),
            memo.len()
        ))
    }
}

/// Times a cold build of the module population of every warm seed (the
/// ones E1 and E23 read), checks each against the memoised build the
/// in-process experiments read, and leaves that memo filled, so the
/// experiment timings after it leave the build out.
fn population_layer(out: &mut Outcome, layers: &mut Layers, warm: &[Key]) {
    let par = ParConfig::serial();
    let seeds: BTreeSet<u64> = warm.iter().map(|k| k.seed).collect();
    let mut secs = Vec::new();
    for seed in seeds {
        let t0 = Instant::now();
        let built = ModulePopulation::standard_par(seed, par);
        secs.push(t0.elapsed().as_secs_f64());
        out.check(check_population(
            built.records(),
            popcache::shared_standard(seed, par).records(),
        ));
    }
    layers.set("dram.population.build_s", measure::median(&mut secs));
}

/// A round's warm requests by Zipf rank: each rank's expected count
/// among `hits` draws (s = [`ZIPF_S`]), rounded by largest remainder so
/// they sum to `hits`, in rank order.
fn zipf_ranks(hits: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=WARM_KEYS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * hits as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..WARM_KEYS).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = hits - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect()
}

/// The request sequence: the warm keys by Zipf rank, each as often as
/// [`zipf_ranks`] says, in an order the seed shuffles, with a never-seen
/// key at every `MISS_EVERY`-th position.
struct Workload {
    warm: Vec<Key>,
    /// The warm keys' ranks in request order.
    ranks: Vec<usize>,
    seed: u64,
}

impl Workload {
    fn new(seed: u64) -> Self {
        let warm = (0..WARM_KEYS)
            .map(|r| Key {
                exp: WARM_EXPS[r % WARM_EXPS.len()],
                seed: stream_seed(seed, 1_000 + (r / WARM_EXPS.len()) as u64),
            })
            .collect();
        let mut ranks = zipf_ranks(ROUND - ROUND / MISS_EVERY);
        let mut rng = densemem_stats::rng::substream(seed, 9_000);
        for i in (1..ranks.len()).rev() {
            ranks.swap(i, rng.gen_range(0..=i));
        }
        Self { warm, ranks, seed }
    }

    /// Round `r`: every round requests the same warm keys and misses the
    /// same experiments at the same positions, so an op is one position;
    /// only the never-seen keys' seeds are new.
    fn round(&self, r: usize) -> Vec<Key> {
        let mut ranks = self.ranks.iter();
        (0..ROUND)
            .map(|i| {
                if i % MISS_EVERY == MISS_EVERY - 1 {
                    let k = i / MISS_EVERY;
                    let m = r * (ROUND / MISS_EVERY) + k;
                    Key {
                        exp: MISS_EXPS[k % MISS_EXPS.len()],
                        seed: stream_seed(self.seed, 1 << 32 | m as u64),
                    }
                } else {
                    self.warm[*ranks.next().expect("one rank per warm request")]
                }
            })
            .collect()
    }
}

/// One socket request's outcome.
struct Served {
    key: Key,
    tier: Tier,
    secs: f64,
    payload: String,
}

/// The client side: the connection, the model, and what was served.
struct ClosedLoop {
    client: TcpClient,
    model: TierModel,
    seen: HashMap<Key, String>,
    sent: u64,
}

impl ClosedLoop {
    /// Sends one request, times it, and checks the answer (the checks of
    /// the caller's op). `None` when the frame is not an `ok` result; an
    /// error when the connection broke.
    fn request(&mut self, out: &mut Outcome, key: Key) -> Result<Option<Served>, String> {
        let line = key.line();
        let t0 = Instant::now();
        let frame = self
            .client
            .roundtrip(&line)
            .map_err(|e| format!("daemon connection: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        let want = self.model.access(key);
        let i = self.sent;
        self.sent += 1;
        let (answer, fnv) = match check_frame(&frame) {
            Ok(a) => a,
            Err(why) => {
                out.check(Err(why));
                return Ok(None);
            }
        };
        out.check(check_fnv(&answer.payload, &fnv));
        out.check(check_tier(
            format_args!("request {i}"),
            want,
            Some(&answer.tier),
        ));
        let first = self
            .seen
            .entry(key)
            .or_insert_with(|| answer.payload.clone());
        out.check(check_same_answer(key, first, &answer.payload));
        Ok(Some(Served {
            key,
            tier: want,
            secs,
            payload: answer.payload,
        }))
    }
}

/// The in-process replicas a traced run times: the cache tiers and the
/// engine, fed the daemon's request sequence.
struct Shadow {
    lru: MemLru,
    disk: DiskStore,
    engine: Engine,
}

#[derive(Default)]
struct Traced {
    parse_us: Vec<f64>,
    escape_us: Vec<f64>,
    key_us: Vec<f64>,
    fnv_bytes: u64,
    fnv_secs: f64,
    mem_get_us: Vec<f64>,
    disk_get_us: Vec<f64>,
    disk_put_us: Vec<f64>,
    engine_hit_us: Vec<f64>,
    engine_miss_ms: Vec<f64>,
    render_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    counts: [u64; 3],
}

fn tier_of(frame: &str) -> Option<String> {
    proto::parse(frame)
        .ok()?
        .get("cache")?
        .as_str()
        .map(str::to_owned)
}

/// Replays the daemon's tier operation for one served request on the
/// in-process `MemLru` and `DiskStore` replicas, timing it, and returns
/// the tier the replicas answer from.
fn replica_tier(
    lru: &mut MemLru,
    disk: &DiskStore,
    t: &mut Traced,
    key: &str,
    served: &Served,
) -> Tier {
    let c0 = Instant::now();
    match served.tier {
        Tier::Mem => {
            let hit = lru.get(key).is_some();
            t.mem_get_us.push(c0.elapsed().as_secs_f64() * 1e6);
            if hit {
                Tier::Mem
            } else {
                Tier::Miss
            }
        }
        Tier::Disk => {
            let read = disk.get(key);
            t.disk_get_us.push(c0.elapsed().as_secs_f64() * 1e6);
            lru.put(key, served.payload.clone());
            if matches!(read, DiskRead::Hit(_)) {
                Tier::Disk
            } else {
                Tier::Miss
            }
        }
        Tier::Miss => {
            let written = disk.put(key, &served.payload);
            t.disk_put_us.push(c0.elapsed().as_secs_f64() * 1e6);
            lru.put(key, served.payload.clone());
            if written.is_ok() {
                Tier::Miss
            } else {
                Tier::Disk
            }
        }
    }
}

impl Shadow {
    /// Times every layer of one request from outside and checks the
    /// replicas agree with the daemon.
    fn probe(&mut self, out: &mut Outcome, t: &mut Traced, served: &Served, first_round: bool) {
        let line = served.key.line();
        let p0 = Instant::now();
        let parsed = Request::from_line(&line);
        t.parse_us.push(p0.elapsed().as_secs_f64() * 1e6);
        out.check(check_parsed(&line, parsed));
        let k0 = Instant::now();
        let exp = registry::find(served.key.exp).expect("registered");
        let key = registry::cache_key(exp, &served.key.context());
        t.key_us.push(k0.elapsed().as_secs_f64() * 1e6);
        let e0 = Instant::now();
        let escaped = proto::escape(&served.payload);
        t.escape_us.push(e0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(escaped);
        let h0 = Instant::now();
        let h = densemem_stats::hash::fnv1a64(served.payload.as_bytes());
        t.fnv_secs += h0.elapsed().as_secs_f64();
        t.fnv_bytes += served.payload.len() as u64;
        std::hint::black_box(h);

        let replica = replica_tier(&mut self.lru, &self.disk, t, &key, served);
        out.check(check_tier(
            "in-process cache tiers",
            served.tier,
            Some(replica.as_str()),
        ));

        let g0 = Instant::now();
        let frame = self.engine.handle(&line);
        let engine_secs = g0.elapsed().as_secs_f64();
        match served.tier {
            Tier::Mem => t.engine_hit_us.push(engine_secs * 1e6),
            Tier::Miss => t.engine_miss_ms.push(engine_secs * 1e3),
            Tier::Disk => {}
        }
        out.check(check_tier(
            "in-process engine",
            served.tier,
            tier_of(&frame).as_deref(),
        ));

        match served.tier {
            Tier::Mem => t.hit_us.push(served.secs * 1e6),
            Tier::Miss => {
                t.miss_ms.push(served.secs * 1e3);
                let (expected, _, render) = expected_payload(served.key);
                t.render_us.push(render * 1e6);
                out.check(check_payload(served.key, &served.payload, &expected));
            }
            Tier::Disk => {}
        }
        if first_round {
            t.counts[served.tier as usize] += 1;
        }
    }
}

fn scratch_root() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let scratch = dir
        .join("densebench-scratch")
        .join(format!("serve-mix-{}", std::process::id()));
    Ok((dir.join("serve"), scratch))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (serve_exe, scratch) = scratch_root()?;
    let workload = Workload::new(cfg.seed);
    let mut daemon = Daemon::start(&serve_exe, scratch.clone())?;
    let client = TcpClient::connect(daemon.addr.as_str())
        .map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    let mut conn = ClosedLoop {
        client,
        model: TierModel::new(MEM_ENTRIES),
        seen: HashMap::new(),
        sent: 0,
    };
    let mut out = Outcome::new();
    for &key in &workload.warm {
        out.op(|out| conn.request(out, key))?;
    }
    let setup_s = cfg.started.elapsed().as_secs_f64();
    if out.failed > 0 {
        return Err(format!("warming failed: {:?}", out.problems));
    }
    // Warming answers are set-up, not measured ops.
    out.attempted = 0;

    let mut layers = Layers::default();
    let daemon_peak_mb =
        || measure::status_kb(&daemon.pid(), "VmHWM").map_or(f64::NAN, |kb| kb / 1024.0);
    let mut peak_rss_mb = None;
    let result = if cfg.trace {
        traced(
            cfg,
            &workload,
            &mut conn,
            &mut out,
            &daemon,
            &scratch,
            &mut layers,
        )
        .map(|()| Vec::new())
    } else {
        crate::measured_rounds(cfg.window, |r| {
            daemon.follow(r);
            let mut times = Vec::with_capacity(ROUND);
            for key in workload.round(r) {
                if let Some(s) = out.op(|out| conn.request(out, key))? {
                    times.push(s.secs);
                }
            }
            if r + 1 == RSS_ROUNDS {
                peak_rss_mb = Some(daemon_peak_mb());
            }
            Ok(times)
        })
    };
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(daemon_peak_mb);
    let exited = daemon.stop(&mut conn.client);
    drop(daemon);
    let rounds = result?;
    if !exited {
        out.check(Err(format!(
            "daemon ignored shutdown for {EXIT_PATIENCE:?} and was killed"
        )));
    }

    if cfg.trace {
        population_layer(&mut out, &mut layers, &workload.warm);
    }
    // Every distinct report against an in-process registry run.
    let mut exp_s: HashMap<&str, Vec<f64>> = HashMap::new();
    for (key, payload) in &conn.seen {
        let (expected, wall, _) = expected_payload(*key);
        exp_s.entry(key.exp).or_default().push(wall);
        out.check(check_payload(*key, payload, &expected));
    }
    if cfg.trace {
        for (id, mut walls) in exp_s {
            layers.set(format!("exp.{id}_s"), measure::median(&mut walls));
        }
        out.metrics = layers.into_metrics();
    } else {
        EndToEnd {
            setup_s,
            rounds,
            peak_rss_mb,
        }
        .report(&mut out);
    }
    Ok(out)
}

/// The traced run: the traced phase first (its first round starts from
/// the freshly warmed daemon, so its counts repeat exactly), then an
/// untraced phase of the same length for the overhead.
fn traced(
    cfg: &RunConfig,
    workload: &Workload,
    conn: &mut ClosedLoop,
    out: &mut Outcome,
    daemon: &Daemon,
    scratch: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        mem_entries: MEM_ENTRIES,
        disk_dir: Some(scratch.join("engine")),
        job_threads: ParConfig::serial(),
        fleet: None,
    })
    .map_err(|e| format!("in-process engine: {e}"))?;
    let disk = DiskStore::open(scratch.join("shadow")).map_err(|e| format!("shadow store: {e}"))?;
    let mut shadow = Shadow {
        lru: MemLru::new(MEM_ENTRIES),
        disk,
        engine,
    };
    for &key in &workload.warm {
        let cache_key = registry::cache_key(key.experiment(), &key.context());
        let payload = &conn.seen[&key];
        shadow
            .disk
            .put(&cache_key, payload)
            .map_err(|e| format!("shadow store: {e}"))?;
        shadow.lru.put(&cache_key, payload.clone());
        shadow.engine.handle(&key.line());
    }

    let mut t = Traced::default();
    let rss_before = measure::status_kb(&daemon.pid(), "VmRSS").unwrap_or(f64::NAN);
    let sent_before = conn.sent;
    // The daemon's resident memory and requests served when the traced
    // phase ended.
    let mut traced_end = None;
    let overhead = crate::traced_phases(cfg.window, |r, traced| {
        if !traced && traced_end.is_none() {
            let rss = measure::status_kb(&daemon.pid(), "VmRSS").unwrap_or(f64::NAN);
            traced_end = Some((rss, conn.sent));
        }
        for key in workload.round(r) {
            out.op(|out| {
                let served = conn.request(out, key)?;
                if let (true, Some(s)) = (traced, &served) {
                    shadow.probe(out, &mut t, s, r == 0);
                }
                Ok::<_, String>(())
            })?;
        }
        Ok(())
    })?;
    shadow.engine.shutdown();
    let (rss_after, sent_after) = traced_end.expect("the untraced phase ran");

    let engine_hit = measure::median(&mut t.engine_hit_us);
    let hit_p50 = measure::median(&mut t.hit_us);
    layers.set("report.render_us", measure::median(&mut t.render_us));
    layers.set("serve.proto.parse_us", measure::median(&mut t.parse_us));
    layers.set("serve.proto.escape_us", measure::median(&mut t.escape_us));
    layers.set("serve.cache_key_us", measure::median(&mut t.key_us));
    layers.set(
        "stats.hash.fnv_mb_per_s",
        t.fnv_bytes as f64 / 1e6 / t.fnv_secs,
    );
    layers.set("serve.cache.mem_get_us", measure::median(&mut t.mem_get_us));
    layers.set(
        "serve.cache.disk_get_us",
        measure::median(&mut t.disk_get_us),
    );
    layers.set(
        "serve.cache.disk_put_us",
        measure::median(&mut t.disk_put_us),
    );
    layers.set("serve.mem_hits", t.counts[Tier::Mem as usize] as f64);
    layers.set("serve.disk_hits", t.counts[Tier::Disk as usize] as f64);
    layers.set("serve.misses", t.counts[Tier::Miss as usize] as f64);
    layers.set("serve.engine.hit_us", engine_hit);
    layers.set(
        "serve.engine.miss_ms",
        measure::median(&mut t.engine_miss_ms),
    );
    layers.set(
        "serve.engine.rss_kb_per_request",
        (rss_after - rss_before) / (sent_after - sent_before) as f64,
    );
    layers.set("serve.transport.hit_us", hit_p50 - engine_hit);
    layers.set("serve.hit_p50_us", hit_p50);
    layers.set("serve.hit_tail_us", measure::tail(&mut t.hit_us));
    layers.set("serve.miss_p50_ms", measure::median(&mut t.miss_ms));
    layers.set("trace.overhead_pct", overhead);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_check_sees_one_payload_byte_flipped() {
        let payload = "{\"id\": \"E10\"}";
        let fnv = format!("{:016x}", densemem_stats::hash::fnv1a64(payload.as_bytes()));
        assert!(check_fnv(payload, &fnv).is_ok());
        assert!(check_fnv("{\"id\": \"E11\"}", &fnv).is_err());
    }

    #[test]
    fn payload_check_sees_one_byte_flipped_but_not_the_wall_time() {
        let key = Key {
            exp: "E10",
            seed: 5,
        };
        let (expected, _, _) = expected_payload(key);
        let retimed = expected.replacen("\"wall_secs\": ", "\"wall_secs\": 12.5", 1);
        let retimed = normalize(&retimed);
        assert!(check_payload(key, &retimed, &expected).is_ok());
        let mut bytes = expected.clone().into_bytes();
        let last_digit = bytes
            .iter()
            .rposition(u8::is_ascii_digit)
            .expect("a number in the report");
        bytes[last_digit] = if bytes[last_digit] == b'9' {
            b'8'
        } else {
            bytes[last_digit] + 1
        };
        let flipped = String::from_utf8(bytes).expect("ASCII edit");
        assert!(check_payload(key, &flipped, &expected).is_err());
    }

    #[test]
    fn frame_check_refuses_error_frames() {
        let ok = "{\"v\":1,\"ok\":true,\"type\":\"result\",\"job\":1,\"exp\":\"E1\",\"cache\":\"mem\",\"wall_ms\":0.000,\"payload_fnv\":\"00\",\"payload\":\"x\"}";
        assert!(check_frame(ok).is_ok());
        let err =
            "{\"v\":1,\"ok\":false,\"type\":\"error\",\"code\":\"job-failed\",\"msg\":\"boom\"}";
        assert!(check_frame(err).is_err());
    }

    /// The tier check fails when the model runs one request out of step
    /// with the daemon's sequence.
    #[test]
    fn tier_check_sees_the_model_shifted_by_one_request() {
        let w = Workload::new(3);
        let mut seq: Vec<Key> = w.warm.clone();
        seq.extend(w.round(0));
        let mut daemon = TierModel::new(MEM_ENTRIES);
        let truth: Vec<Tier> = seq.iter().map(|&k| daemon.access(k)).collect();
        let mut aligned = TierModel::new(MEM_ENTRIES);
        assert!(seq.iter().zip(&truth).all(|(&k, t)| check_tier(
            "aligned",
            aligned.access(k),
            Some(t.as_str())
        )
        .is_ok()));
        let mut shifted = TierModel::new(MEM_ENTRIES);
        let failures = seq[1..]
            .iter()
            .zip(&truth)
            .filter(|(&k, t)| check_tier("shifted", shifted.access(k), Some(t.as_str())).is_err())
            .count();
        assert!(failures > 0);
    }

    /// A scratch directory under the build directory, emptied first.
    fn test_dir(name: &str) -> PathBuf {
        let (_, scratch) = scratch_root().expect("own executable");
        let dir = scratch.with_file_name(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parse_check_sees_one_byte_dropped() {
        let line = Key {
            exp: "E10",
            seed: 5,
        }
        .line();
        assert!(check_parsed(&line, Request::from_line(&line)).is_ok());
        let cut = &line[1..];
        assert!(check_parsed(cut, Request::from_line(cut)).is_err());
    }

    #[test]
    fn repeat_check_sees_one_payload_byte_changed() {
        let key = Key {
            exp: "E10",
            seed: 5,
        };
        let (first, _, _) = expected_payload(key);
        assert!(check_same_answer(key, &first, &first.clone()).is_ok());
        let changed = first.replacen('{', "[", 1);
        assert!(check_same_answer(key, &first, &changed).is_err());
    }

    /// The replicas answer from the tier the daemon did only when they
    /// saw the same sequence: a replica one request behind (the key never
    /// put) answers a memory hit as a miss.
    #[test]
    fn replica_tier_check_sees_a_request_missing() {
        let dir = test_dir("replica");
        let disk = DiskStore::open(&dir).expect("scratch store");
        let mut lru = MemLru::new(MEM_ENTRIES);
        let mut t = Traced::default();
        let served = |tier| Served {
            key: Key {
                exp: "E10",
                seed: 5,
            },
            tier,
            secs: 0.0,
            payload: "{}".to_owned(),
        };
        let mut check = |lru: &mut MemLru, tier| {
            let got = replica_tier(lru, &disk, &mut t, "k", &served(tier));
            check_tier("replica", tier, Some(got.as_str()))
        };
        assert!(check(&mut lru, Tier::Mem).is_err(), "never put");
        assert!(check(&mut lru, Tier::Miss).is_ok());
        assert!(check(&mut lru, Tier::Mem).is_ok());
        assert!(check(&mut MemLru::new(MEM_ENTRIES), Tier::Disk).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-process engine's tier, read from its frame, must match the
    /// daemon's: a frame whose `cache` field was altered fails.
    #[test]
    fn engine_tier_check_sees_a_corrupted_frame() {
        let dir = test_dir("engine");
        let engine = Engine::new(EngineConfig {
            workers: 1,
            mem_entries: MEM_ENTRIES,
            disk_dir: Some(dir.clone()),
            job_threads: ParConfig::serial(),
            fleet: None,
        })
        .expect("in-process engine");
        let line = Key {
            exp: "E10",
            seed: 5,
        }
        .line();
        let miss = engine.handle(&line);
        let hit = engine.handle(&line);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check_tier("engine", Tier::Miss, tier_of(&miss).as_deref()).is_ok());
        assert!(check_tier("engine", Tier::Mem, tier_of(&hit).as_deref()).is_ok());
        let corrupted = hit.replacen("\"cache\":\"mem\"", "\"cache\":\"disk\"", 1);
        assert_ne!(corrupted, hit);
        assert!(check_tier("engine", Tier::Mem, tier_of(&corrupted).as_deref()).is_err());
    }

    #[test]
    fn model_matches_the_daemon_lru() {
        let mut lru = MemLru::new(2);
        let mut model = TierModel::new(2);
        let a = Key {
            exp: "E10",
            seed: 1,
        };
        let b = Key {
            exp: "E10",
            seed: 2,
        };
        let c = Key {
            exp: "E10",
            seed: 3,
        };
        for k in [a, b] {
            assert_eq!(model.access(k), Tier::Miss);
            lru.put(&format!("{k:?}"), String::new());
        }
        assert_eq!(model.access(a), Tier::Mem);
        assert!(lru.get(&format!("{a:?}")).is_some());
        assert_eq!(model.access(c), Tier::Miss);
        lru.put(&format!("{c:?}"), String::new());
        assert!(
            !lru.contains(&format!("{b:?}")),
            "b was least recently used"
        );
        assert_eq!(model.access(b), Tier::Disk);
    }

    #[test]
    fn population_check_sees_one_module_dropped_or_changed() {
        let par = ParConfig::serial();
        let cold = ModulePopulation::standard_par(3, par);
        let memo = popcache::shared_standard(3, par);
        assert!(check_population(cold.records(), memo.records()).is_ok());
        assert!(check_population(&cold.records()[1..], memo.records()).is_err());
        let mut changed = cold.records().to_vec();
        changed[0].module_factor *= 1.0 + 1e-12;
        assert!(check_population(&changed, memo.records()).is_err());
    }

    #[test]
    fn workload_mix_is_as_documented() {
        let w = Workload::new(11);
        let round = w.round(0);
        let warm: HashSet<Key> = w.warm.iter().copied().collect();
        assert_eq!(warm.len(), WARM_KEYS);
        let misses = round.iter().filter(|k| !warm.contains(k)).count();
        assert_eq!(misses, ROUND / MISS_EVERY);
        assert_ne!(w.round(0), w.round(1));
        assert_eq!(w.round(1), Workload::new(11).round(1));
        let ranks = zipf_ranks(390);
        assert_eq!(ranks.len(), 390);
        let first = ranks.iter().filter(|&&r| r == 0).count() as f64;
        let p0 = 1.0
            / (1..=WARM_KEYS)
                .map(|r| (r as f64).powf(-ZIPF_S))
                .sum::<f64>();
        assert!(
            (first - p0 * 390.0).abs() < 1.0,
            "rank 1 drawn {first} times"
        );
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "in rank order");
        let mut drawn: Vec<usize> = round
            .iter()
            .filter_map(|k| w.warm.iter().position(|x| x == k))
            .collect();
        drawn.sort_unstable();
        assert_eq!(drawn.len(), 390);
        assert_eq!(
            drawn.iter().filter(|&&r| r == 0).count() as f64,
            first,
            "a round requests each warm key its Zipf count of times"
        );
        for (a, b) in w.round(0).iter().zip(w.round(1).iter()) {
            assert_eq!(a.exp, b.exp, "an op is one position");
            assert_eq!(warm.contains(a), warm.contains(b));
            assert_eq!(warm.contains(a), a == b, "only never-seen keys change");
        }
    }
}
