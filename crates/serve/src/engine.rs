//! The serving engine: scheduling, caching, and request handling.
//!
//! [`Engine`] is the transport-independent core. The TCP server and the
//! in-process test client both drive it through [`Engine::handle`], which
//! maps one request frame to one response frame — so protocol behaviour
//! is tested without sockets and served over them unchanged.
//!
//! A `submit` resolves in tier order:
//!
//! 1. **Memory LRU** — the report's rendered result-frame tail is
//!    resident; answered immediately with a per-job header in front.
//! 2. **Disk store** — hash-verified entry; promoted to memory. A
//!    corrupt entry is deleted, counted, and falls through to recompute.
//! 3. **Single-flight dedup** — an identical computation already queued
//!    or running; this submit becomes a follower of that leader and is
//!    resolved by the leader's completion, never recomputed.
//! 4. **Compute** — enqueued on the [`WorkerPool`] at the requested
//!    priority; the result lands in both cache tiers on the way out.
//!
//! Experiment panics are caught in the job closure and surface as typed
//! `job-failed` frames; the pool thread survives.
//!
//! The job table is bounded: it keeps at most [`JOB_RETENTION`] terminal
//! jobs, evicting the one that finished first. A job a parked
//! `wait`/`result` has not yet received is pinned and outlives the
//! bound until its waiter collects or releases it. An evicted id
//! answers `job-expired`; an id never issued answers `unknown-job`.

use crate::cache::{DiskRead, DiskStore, MemLru};
use crate::client::{ConnectOpts, TcpClient};
use crate::proto::{self, ErrorCode, ProtoError, Request, ScaleArg, Value, Verb};
use densemem::experiments::registry::{self, Experiment};
use densemem::experiments::{ExpContext, Scale};
use densemem_stats::hash::fnv1a64;
use densemem_stats::hist::Histogram;
use densemem_stats::par::{ParConfig, WorkerPool};
use densemem_stats::ring::HashRing;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a `wait`/`result` request blocks before a `timeout` frame.
pub const RESULT_WAIT: Duration = Duration::from_secs(600);

/// How many terminal jobs the job table keeps. Older ones are evicted,
/// first finished first, unless a parked waiter pins them; their ids
/// then answer `job-expired`.
pub const JOB_RETENTION: usize = 4096;

/// Which tier answered a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Computed fresh by a worker.
    Miss,
    /// Answered from the in-memory LRU.
    Mem,
    /// Answered from the verified on-disk store.
    Disk,
    /// Coalesced onto an identical in-flight computation.
    Dedup,
    /// Filled from the fleet peer that owns the key on the hash ring.
    Peer,
}

impl CacheTier {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Miss => "miss",
            CacheTier::Mem => "mem",
            CacheTier::Disk => "disk",
            CacheTier::Dedup => "dedup",
            CacheTier::Peer => "peer",
        }
    }
}

/// Membership of a consistent-hash sharded fleet.
///
/// Every shard runs the full engine; the ring over `peers.len()` shards
/// decides, per cache key, which one *owns* the computation. A shard
/// asked for a key it does not own forwards the submit to the owner
/// (once — see [`crate::proto::Request::fwd`]) and degrades to computing
/// locally if the owner is unreachable: a dead peer costs warm-cache
/// locality, never a client error.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// This shard's index into `peers`.
    pub shard_id: u32,
    /// Dial addresses of every fleet member, indexed by shard id.
    /// `peers[shard_id]` is this shard's own address (never dialed).
    pub peers: Vec<String>,
}

struct FleetState {
    shard_id: u32,
    peers: Vec<String>,
    ring: HashRing,
}

/// Transport-side gauges surfaced in the stats frame. The engine owns
/// the storage (so `stats` can always render the keys); the server
/// updates them as connections come and go.
#[derive(Default)]
pub struct TransportGauges {
    /// Connections currently held open by the transport.
    pub open_connections: AtomicU64,
    /// Connections accepted since startup (monotone).
    pub accepted_total: AtomicU64,
}

/// A completion callback: invoked with each job id that reaches a
/// terminal state (done, failed, or cancelled).
pub type CompletionHook = Box<dyn Fn(u64) + Send + Sync>;

type HookCell = Arc<Mutex<Option<CompletionHook>>>;

fn fire_hook(hook: &HookCell, jobs: &[u64]) {
    if jobs.is_empty() {
        return;
    }
    let guard = hook.lock().expect("completion hook lock");
    if let Some(f) = guard.as_ref() {
        for &j in jobs {
            f(j);
        }
    }
}

/// One step of request handling, for transports that must never block.
#[derive(Debug)]
pub enum Step {
    /// The response frame is ready now.
    Reply(String),
    /// The response is a result frame for this job, not yet terminal.
    /// The job is pinned in the job table until the caller takes the
    /// frame with [`Engine::collect_result`] (after a completion-hook
    /// wake) or gives up on it with [`Engine::release`].
    Pending(u64),
}

/// A job's lifecycle state.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    /// `tail` is the report's result-frame tail, shared with the memory
    /// tier ([`proto::result_tail`]).
    Done { tail: Arc<str>, wall_ms: f64 },
    Failed { msg: String },
    Cancelled,
}

impl JobState {
    fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

struct JobRecord {
    exp_id: &'static str,
    tier: CacheTier,
    state: JobState,
    /// Parked `wait`/`result` requests that have not received this
    /// job's result frame yet. A job with waiters is never evicted.
    waiters: u32,
    /// Past the retention bound while pinned: removed when its last
    /// waiter collects or releases it.
    expired: bool,
}

struct Inflight {
    followers: Vec<u64>,
}

/// How a tier-4 job produces its payload.
enum Origin {
    /// Run the experiment on this shard.
    Compute,
    /// Ask the owning shard (pre-rendered forwarded submit line), then
    /// fall back to a local compute if the peer cannot answer.
    Forward { addr: String, line: String },
}

struct EngineState {
    mem: MemLru,
    jobs: HashMap<u64, JobRecord>,
    /// Ids of the terminal jobs in `jobs` that count toward
    /// [`JOB_RETENTION`], first finished first.
    retired: VecDeque<u64>,
    inflight: HashMap<String, Inflight>,
    latency: HashMap<&'static str, Histogram>,
    next_job: u64,
    draining: bool,
}

impl EngineState {
    /// Allocates the next job id and enters its record, pinned once
    /// when a waiter will collect its result frame.
    fn admit(&mut self, exp_id: &'static str, tier: CacheTier, state: JobState, pin: bool) -> u64 {
        self.next_job += 1;
        let job = self.next_job;
        let terminal = state.is_terminal();
        self.jobs.insert(
            job,
            JobRecord { exp_id, tier, state, waiters: u32::from(pin), expired: false },
        );
        if terminal {
            self.retire(job);
        }
        job
    }

    /// Moves a queued or running job to a terminal state. A job that is
    /// already terminal (a cancelled leader) keeps its state. Returns
    /// whether the job changed.
    fn finish(&mut self, job: u64, state: JobState) -> bool {
        match self.jobs.get_mut(&job) {
            Some(r) if !r.state.is_terminal() => {
                r.state = state;
                self.retire(job);
                true
            }
            _ => false,
        }
    }

    /// Counts a newly terminal job toward the retention bound, evicting
    /// the oldest terminal jobs beyond it. A pinned job is only marked:
    /// [`EngineState::unpin`] removes it once its last waiter is served.
    fn retire(&mut self, job: u64) {
        self.retired.push_back(job);
        while self.retired.len() > JOB_RETENTION {
            let Some(old) = self.retired.pop_front() else { break };
            match self.jobs.get_mut(&old) {
                Some(r) if r.waiters > 0 => r.expired = true,
                _ => {
                    self.jobs.remove(&old);
                }
            }
        }
    }

    /// Drops one waiter's pin on `job`.
    fn unpin(&mut self, job: u64) {
        if let Some(r) = self.jobs.get_mut(&job) {
            r.waiters = r.waiters.saturating_sub(1);
            if r.waiters == 0 && r.expired {
                self.jobs.remove(&job);
            }
        }
    }

    /// The error for an id the job table does not hold: `job-expired`
    /// when this engine issued it, `unknown-job` when it never did.
    fn missing(&self, job: u64) -> ProtoError {
        let code = if (1..=self.next_job).contains(&job) {
            ErrorCode::JobExpired
        } else {
            ErrorCode::UnknownJob
        };
        ProtoError::new(code, format!("job {job}"))
    }
}

/// Monotone counters, readable without the state lock.
#[derive(Default)]
struct Counters {
    submits: AtomicU64,
    statuses: AtomicU64,
    results: AtomicU64,
    cancels: AtomicU64,
    stats: AtomicU64,
    shutdowns: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    dedups: AtomicU64,
    corrupt_entries: AtomicU64,
    failures: AtomicU64,
    bad_frames: AtomicU64,
    forwarded: AtomicU64,
    peer_fills: AtomicU64,
    peer_failures: AtomicU64,
    wrong_shard: AtomicU64,
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (0 = auto-detect).
    pub workers: usize,
    /// In-memory LRU capacity in payloads.
    pub mem_entries: usize,
    /// On-disk store root; `None` disables the disk tier.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Thread policy *inside* one experiment job. Serial by default:
    /// the pool provides the parallelism across jobs.
    pub job_threads: ParConfig,
    /// Fleet membership; `None` runs the engine as a standalone shard.
    pub fleet: Option<FleetConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            mem_entries: 64,
            disk_dir: None,
            job_threads: ParConfig::serial(),
            fleet: None,
        }
    }
}

/// The transport-independent serving core.
pub struct Engine {
    state: Arc<(Mutex<EngineState>, Condvar)>,
    counters: Arc<Counters>,
    disk: Option<DiskStore>,
    job_par: ParConfig,
    pool: WorkerPool,
    started: Instant,
    fleet: Option<Arc<FleetState>>,
    transport: Arc<TransportGauges>,
    hook: HookCell,
}

impl Engine {
    /// Builds an engine.
    ///
    /// # Errors
    ///
    /// Fails if the disk-store directory cannot be created, or if the
    /// fleet config is inconsistent (`shard_id` outside `peers`).
    pub fn new(cfg: EngineConfig) -> std::io::Result<Self> {
        let disk = match &cfg.disk_dir {
            Some(dir) => Some(DiskStore::open(dir)?),
            None => None,
        };
        let fleet = match cfg.fleet {
            Some(f) => {
                let shards = u32::try_from(f.peers.len()).unwrap_or(0);
                if shards == 0 || f.shard_id >= shards {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!(
                            "fleet shard_id {} outside peer list of {} members",
                            f.shard_id,
                            f.peers.len()
                        ),
                    ));
                }
                Some(Arc::new(FleetState {
                    shard_id: f.shard_id,
                    peers: f.peers,
                    ring: HashRing::new(shards, HashRing::DEFAULT_VNODES),
                }))
            }
            None => None,
        };
        Ok(Self {
            state: Arc::new((
                Mutex::new(EngineState {
                    mem: MemLru::new(cfg.mem_entries),
                    jobs: HashMap::new(),
                    retired: VecDeque::new(),
                    inflight: HashMap::new(),
                    latency: HashMap::new(),
                    next_job: 0,
                    draining: false,
                }),
                Condvar::new(),
            )),
            counters: Arc::new(Counters::default()),
            disk,
            job_par: cfg.job_threads,
            pool: WorkerPool::new(&ParConfig::with_threads(cfg.workers)),
            started: Instant::now(),
            fleet,
            transport: Arc::new(TransportGauges::default()),
            hook: Arc::new(Mutex::new(None)),
        })
    }

    /// The transport gauges this engine renders in its stats frame. The
    /// server updates them; an engine without a transport reports zeros.
    pub fn transport_gauges(&self) -> Arc<TransportGauges> {
        Arc::clone(&self.transport)
    }

    /// Registers the completion hook: called once per job id reaching a
    /// terminal state. The event-loop transport uses this to wake its
    /// poll and flush pending result frames; at most one hook is live.
    pub fn set_completion_hook(&self, f: CompletionHook) {
        *self.hook.lock().expect("completion hook lock") = Some(f);
    }

    /// Counts a transport-detected malformed frame (e.g. a truncated
    /// line at EOF) in the same counter as parse-layer rejections.
    pub fn note_bad_frame(&self) {
        self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps one request frame to one response frame, blocking as needed
    /// (a `wait`ing submit or a `result` verb parks on the condvar until
    /// the job is terminal). Never panics; every failure is a typed
    /// error frame.
    pub fn handle(&self, line: &str) -> String {
        match self.handle_step(line) {
            Step::Reply(frame) => frame,
            Step::Pending(job) => self.result_frame(job, RESULT_WAIT),
        }
    }

    /// The non-blocking variant of [`Engine::handle`], for the
    /// event-loop transport: a request whose answer is not ready yet
    /// comes back as [`Step::Pending`] instead of parking the caller.
    /// The caller polls [`Engine::collect_result`] when the completion
    /// hook fires, and calls [`Engine::release`] if it gives up first.
    pub fn handle_step(&self, line: &str) -> Step {
        let req = match Request::from_line(line) {
            Ok(r) => r,
            Err(e) => {
                self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                return Step::Reply(proto::error_frame(&e));
            }
        };
        match req.verb {
            Verb::Submit => {
                self.counters.submits.fetch_add(1, Ordering::Relaxed);
                match self.submit(&req) {
                    Ok((job, _)) if req.wait => match self.collect_result(job) {
                        Some(frame) => Step::Reply(frame),
                        None => Step::Pending(job),
                    },
                    Ok((job, tier)) => Step::Reply(format!(
                        "{{\"v\":{},\"ok\":true,\"type\":\"submitted\",\"job\":{job},\"cache\":\"{}\"}}",
                        proto::PROTO_VERSION,
                        tier.as_str()
                    )),
                    Err(e) => Step::Reply(proto::error_frame(&e)),
                }
            }
            Verb::Status => {
                self.counters.statuses.fetch_add(1, Ordering::Relaxed);
                Step::Reply(self.status_frame(req.job.expect("parser enforces job")))
            }
            Verb::Result => {
                self.counters.results.fetch_add(1, Ordering::Relaxed);
                self.result_step(req.job.expect("parser enforces job"))
            }
            Verb::Cancel => {
                self.counters.cancels.fetch_add(1, Ordering::Relaxed);
                Step::Reply(self.cancel_frame(req.job.expect("parser enforces job")))
            }
            Verb::Stats => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Step::Reply(self.stats_frame())
            }
            Verb::Shutdown => {
                self.counters.shutdowns.fetch_add(1, Ordering::Relaxed);
                self.begin_drain();
                Step::Reply(format!(
                    "{{\"v\":{},\"ok\":true,\"type\":\"bye\"}}",
                    proto::PROTO_VERSION
                ))
            }
        }
    }

    /// Submits a request, returning `(job id, tier)` or a protocol error.
    /// A `wait`ing submit's job is pinned for [`Engine::collect_result`].
    ///
    /// # Errors
    ///
    /// `unknown-experiment` for ids outside the registry, `bad-field` for
    /// a mitigation spec the plugin registry rejects, and `shutting-down`
    /// once draining has begun.
    fn submit(&self, req: &Request) -> Result<(u64, CacheTier), ProtoError> {
        let exp_arg = req.exp.as_deref().unwrap_or("");
        let Some(exp) = registry::find(exp_arg) else {
            return Err(ProtoError::new(
                ErrorCode::UnknownExperiment,
                format!("{exp_arg:?} (the registry spans E1–E27)"),
            ));
        };
        let ctx = self.context_for(req)?;
        let key = registry::cache_key(exp, &ctx);

        // Fleet routing. A forwarded frame must land on the key's owner
        // with a matching ring epoch — anything else is a typed
        // `wrong-shard` refusal (single-hop rule: never re-forward). A
        // first-hand frame for a key someone else owns falls through the
        // local cache tiers (peer fills live in our LRU) and, on a true
        // miss, becomes a forward job instead of a compute job.
        let forward_to: Option<u32> = match &self.fleet {
            Some(fleet) => {
                let owner = fleet.ring.owner_of(&key);
                if req.fwd {
                    if req.epoch != Some(fleet.ring.epoch()) {
                        self.counters.wrong_shard.fetch_add(1, Ordering::Relaxed);
                        return Err(ProtoError::new(
                            ErrorCode::WrongShard,
                            format!(
                                "ring epoch mismatch (ours {:#x}, frame {:?})",
                                fleet.ring.epoch(),
                                req.epoch
                            ),
                        ));
                    }
                    if owner != fleet.shard_id {
                        self.counters.wrong_shard.fetch_add(1, Ordering::Relaxed);
                        return Err(ProtoError::new(
                            ErrorCode::WrongShard,
                            format!(
                                "key {key:?} is owned by shard {owner}, not shard {}",
                                fleet.shard_id
                            ),
                        ));
                    }
                    None
                } else if owner == fleet.shard_id {
                    None
                } else {
                    Some(owner)
                }
            }
            None if req.fwd => {
                self.counters.wrong_shard.fetch_add(1, Ordering::Relaxed);
                return Err(ProtoError::new(
                    ErrorCode::WrongShard,
                    "forwarded submit to a server not in fleet mode",
                ));
            }
            None => None,
        };

        let (lock, _) = &*self.state;
        let mut st = lock.lock().expect("engine state lock");
        if st.draining {
            return Err(ProtoError::new(ErrorCode::ShuttingDown, "no new work accepted"));
        }
        // A hit is terminal on arrival, so no thread can be waiting on
        // its (brand-new) job id: hits skip the condvar wake.

        // Tier 1: memory.
        if let Some(tail) = st.mem.get(&key) {
            self.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
            let done = JobState::Done { tail, wall_ms: 0.0 };
            let job = st.admit(exp.id, CacheTier::Mem, done, req.wait);
            return Ok((job, CacheTier::Mem));
        }

        // Tier 2: disk (verified; corrupt entries deleted and recomputed).
        if let Some(disk) = &self.disk {
            match disk.get(&key) {
                DiskRead::Hit(payload) => {
                    self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let tail = st.mem.put(&key, payload);
                    let done = JobState::Done { tail, wall_ms: 0.0 };
                    let job = st.admit(exp.id, CacheTier::Disk, done, req.wait);
                    return Ok((job, CacheTier::Disk));
                }
                DiskRead::Corrupt(_) => {
                    self.counters.corrupt_entries.fetch_add(1, Ordering::Relaxed);
                }
                DiskRead::Miss => {}
            }
        }

        // Tier 3: single-flight — coalesce onto an identical in-flight run.
        if st.inflight.contains_key(&key) {
            let job = st.admit(exp.id, CacheTier::Dedup, JobState::Queued, req.wait);
            st.inflight.get_mut(&key).expect("checked above").followers.push(job);
            self.counters.dedups.fetch_add(1, Ordering::Relaxed);
            return Ok((job, CacheTier::Dedup));
        }

        // Tier 4: produce — compute here, or forward to the ring owner.
        // Both shapes run on the worker pool (a forward blocks on the
        // peer's compute), keeping the transport thread non-blocking.
        let origin = match forward_to {
            Some(owner) => {
                self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                let fleet = self.fleet.as_ref().expect("forward implies fleet");
                let fwd_req = Request {
                    verb: Verb::Submit,
                    exp: Some(exp.id.to_owned()),
                    scale: req.scale,
                    // Pin the effective seed: the owner must derive the
                    // exact same cache key we routed on.
                    seed: Some(req.seed.unwrap_or(densemem::DEFAULT_SEED)),
                    priority: req.priority,
                    wait: true,
                    mitigation: req.mitigation.clone(),
                    fwd: true,
                    epoch: Some(fleet.ring.epoch()),
                    job: None,
                };
                Origin::Forward {
                    addr: fleet.peers[owner as usize].clone(),
                    line: fwd_req.to_line(),
                }
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                Origin::Compute
            }
        };
        st.inflight.insert(key.clone(), Inflight { followers: Vec::new() });
        let job = st.admit(exp.id, CacheTier::Miss, JobState::Queued, req.wait);
        drop(st);

        let state = Arc::clone(&self.state);
        let counters = Arc::clone(&self.counters);
        let hook = Arc::clone(&self.hook);
        let disk = self.disk.clone();
        let ctx = ctx.clone();
        let accepted = self.pool.submit(req.priority, move || {
            Self::run_job(&state, &counters, &hook, disk.as_ref(), exp, &ctx, job, &key, &origin);
        });
        if !accepted {
            // The pool began draining between our check and the submit.
            let (lock, cv) = &*self.state;
            let mut st = lock.lock().expect("engine state lock");
            st.finish(job, JobState::Failed { msg: "pool shut down".into() });
            if req.wait {
                // The caller gets this error, never the job's frame.
                st.unpin(job);
            }
            cv.notify_all();
            fire_hook(&self.hook, &[job]);
            return Err(ProtoError::new(ErrorCode::ShuttingDown, "worker pool is draining"));
        }
        Ok((job, CacheTier::Miss))
    }

    fn context_for(&self, req: &Request) -> Result<ExpContext, ProtoError> {
        let scale = match req.scale {
            ScaleArg::Quick => Scale::Quick,
            ScaleArg::Full => Scale::Full,
        };
        // Built field by field: `ExpContext::new` would read the thread
        // policy from the environment only for `job_par` to replace it.
        let mut ctx = ExpContext {
            scale,
            seed: req.seed.unwrap_or(densemem::DEFAULT_SEED),
            par: self.job_par,
            trace_dir: None,
            mitigation: None,
        };
        if let Some(spec) = &req.mitigation {
            // Canonicalised here so that `para` and `para:p=0.001` share a
            // cache key while genuinely different defenses never alias.
            ctx = ctx.with_mitigation(spec).map_err(|e| {
                ProtoError::new(ErrorCode::BadField, format!("\"mitigation\": {e}"))
            })?;
        }
        Ok(ctx)
    }

    /// The worker-side job body. For a [`Origin::Forward`] job, asks the
    /// owning shard first (hash-verifying the payload) and degrades to a
    /// local compute when the peer cannot answer. The compute path runs
    /// the experiment under `catch_unwind`, renders the canonical JSON
    /// report, and populates both cache tiers. Either way the leader
    /// plus every coalesced follower is resolved and the completion
    /// hook fired.
    #[allow(clippy::too_many_arguments)]
    fn run_job(
        state: &Arc<(Mutex<EngineState>, Condvar)>,
        counters: &Arc<Counters>,
        hook: &HookCell,
        disk: Option<&DiskStore>,
        exp: &'static Experiment,
        ctx: &ExpContext,
        job: u64,
        key: &str,
        origin: &Origin,
    ) {
        let (lock, cv) = &**state;
        let cancelled_without_followers = {
            let mut st = lock.lock().expect("engine state lock");
            let cancelled =
                matches!(st.jobs.get(&job).map(|r| &r.state), Some(JobState::Cancelled));
            let no_followers =
                st.inflight.get(key).is_none_or(|f| f.followers.is_empty());
            if cancelled && no_followers {
                st.inflight.remove(key);
                true
            } else {
                if !cancelled {
                    if let Some(r) = st.jobs.get_mut(&job) {
                        r.state = JobState::Running;
                    }
                }
                false
            }
        };
        if cancelled_without_followers {
            cv.notify_all();
            fire_hook(hook, &[job]);
            return;
        }

        // Peer cache-fill: ask the ring owner before computing. Any
        // failure in the exchange — connect, roundtrip, an error frame,
        // a payload failing hash verification — degrades to the local
        // compute below. A dead peer costs latency, never a client
        // error.
        if let Origin::Forward { addr, line } = origin {
            match Self::peer_fill(addr, line) {
                Ok((payload, wall_ms)) => {
                    counters.peer_fills.fetch_add(1, Ordering::Relaxed);
                    let mut st = lock.lock().expect("engine state lock");
                    let tail = st.mem.put(key, payload);
                    let followers =
                        st.inflight.remove(key).map(|f| f.followers).unwrap_or_default();
                    let done = JobState::Done { tail, wall_ms };
                    let mut resolved = Vec::with_capacity(1 + followers.len());
                    if let Some(r) = st.jobs.get_mut(&job).filter(|r| !r.state.is_terminal()) {
                        r.tier = CacheTier::Peer;
                    }
                    if st.finish(job, done.clone()) {
                        resolved.push(job);
                    }
                    for f in followers {
                        st.finish(f, done.clone());
                        resolved.push(f);
                    }
                    drop(st);
                    cv.notify_all();
                    fire_hook(hook, &resolved);
                    return;
                }
                Err(why) => {
                    // `peer-unreachable` class of failure: counted, then
                    // degraded to a local compute (which is also why the
                    // code never reaches a first-hand client).
                    counters.peer_failures.fetch_add(1, Ordering::Relaxed);
                    counters.misses.fetch_add(1, Ordering::Relaxed);
                    let _ = why;
                }
            }
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (result, wall_secs) = exp.run_timed(ctx);
            let payload = densemem::report::json::render(exp, &result, ctx, wall_secs);
            (payload, wall_secs)
        }));

        match outcome {
            Ok((payload, wall_secs)) => {
                // Disk write before taking the lock; a failed write only
                // costs the warm start, never the response.
                if let Some(disk) = disk {
                    let _ = disk.put(key, &payload);
                }
                let wall_ms = wall_secs * 1e3;
                let mut st = lock.lock().expect("engine state lock");
                let tail = st.mem.put(key, payload);
                st.latency
                    .entry(exp.id)
                    .or_insert_with(|| {
                        Histogram::new(0.0, 30_000.0, 3_000).expect("static bounds")
                    })
                    .record(wall_ms);
                let followers =
                    st.inflight.remove(key).map(|f| f.followers).unwrap_or_default();
                let done = JobState::Done { tail, wall_ms };
                let mut resolved = Vec::with_capacity(1 + followers.len());
                // A cancelled leader keeps its Cancelled state; the
                // computation still feeds its followers and the caches.
                if st.finish(job, done.clone()) {
                    resolved.push(job);
                }
                for f in followers {
                    st.finish(f, done.clone());
                    resolved.push(f);
                }
                drop(st);
                cv.notify_all();
                fire_hook(hook, &resolved);
            }
            Err(panic) => {
                counters.failures.fetch_add(1, Ordering::Relaxed);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "experiment panicked".to_owned());
                let mut st = lock.lock().expect("engine state lock");
                let followers =
                    st.inflight.remove(key).map(|f| f.followers).unwrap_or_default();
                let failed = JobState::Failed { msg };
                let mut resolved = vec![job];
                st.finish(job, failed.clone());
                for f in followers {
                    st.finish(f, failed.clone());
                    resolved.push(f);
                }
                drop(st);
                cv.notify_all();
                fire_hook(hook, &resolved);
            }
        }
    }

    /// One peer exchange: dial the owner (tolerantly — see
    /// [`ConnectOpts::default`]), send the forwarded submit, verify the
    /// answer's payload hash. Returns `(payload, wall_ms)` or a reason
    /// string the caller counts as a peer failure.
    fn peer_fill(addr: &str, line: &str) -> Result<(String, f64), String> {
        let mut peer = TcpClient::connect_opts(addr, &ConnectOpts::default())
            .map_err(|e| format!("connect {addr}: {e}"))?;
        peer.set_read_timeout(Some(RESULT_WAIT)).map_err(|e| e.to_string())?;
        let resp = peer.roundtrip(line).map_err(|e| format!("roundtrip {addr}: {e}"))?;
        let doc = proto::parse(&resp).map_err(|e| format!("unparseable peer frame: {e}"))?;
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            let code = doc.get("code").and_then(Value::as_str).unwrap_or("?");
            return Err(format!("peer {addr} answered error frame {code}"));
        }
        let payload = doc
            .get("payload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("peer {addr} result frame carries no payload"))?
            .to_owned();
        let fnv = doc.get("payload_fnv").and_then(Value::as_str).unwrap_or("");
        if format!("{:016x}", fnv1a64(payload.as_bytes())) != fnv {
            return Err(format!("peer {addr} payload failed hash verification"));
        }
        let wall_ms = doc.get("wall_ms").and_then(Value::as_num).unwrap_or(0.0);
        Ok((payload, wall_ms))
    }

    /// The `result` verb: the frame if `job` is terminal (or no longer
    /// held), else [`Step::Pending`] with the job pinned for the caller.
    fn result_step(&self, job: u64) -> Step {
        let (lock, _) = &*self.state;
        let mut st = lock.lock().expect("engine state lock");
        if let Some(frame) = Self::terminal_frame(&st, job) {
            return Step::Reply(frame);
        }
        if let Some(r) = st.jobs.get_mut(&job) {
            r.waiters += 1;
        }
        Step::Pending(job)
    }

    /// For a job handed out as [`Step::Pending`]: renders its result
    /// frame once the job is terminal and drops the waiter's pin.
    /// Returns `None` (pin kept) while the job is still queued or
    /// running; the event-loop transport re-polls after a
    /// completion-hook wake instead of blocking here.
    pub fn collect_result(&self, job: u64) -> Option<String> {
        let (lock, _) = &*self.state;
        let mut st = lock.lock().expect("engine state lock");
        let frame = Self::terminal_frame(&st, job)?;
        st.unpin(job);
        Some(frame)
    }

    /// Gives up on a job handed out as [`Step::Pending`] without taking
    /// its frame (a timeout, a dropped connection): drops the waiter's
    /// pin, so the job becomes evictable.
    pub fn release(&self, job: u64) {
        let (lock, _) = &*self.state;
        lock.lock().expect("engine state lock").unpin(job);
    }

    /// Renders the timeout error frame the blocking path and the event
    /// loop both use when their patience for `job` runs out.
    pub fn timeout_frame(&self, job: u64, patience: Duration) -> String {
        let (lock, _) = &*self.state;
        let st = lock.lock().expect("engine state lock");
        Self::timeout_error(&st, job, patience)
    }

    fn timeout_error(st: &EngineState, job: u64, patience: Duration) -> String {
        let state = st.jobs.get(&job).map_or("unknown", |r| state_str(&r.state));
        proto::error_frame(&ProtoError::new(
            ErrorCode::Timeout,
            format!("job {job} still {state} after {patience:?}"),
        ))
    }

    /// Renders `job`'s result frame if the job is terminal — done,
    /// failed, cancelled, or no longer held (an `unknown-job` or
    /// `job-expired` error frame). `None` while it is queued or running.
    fn terminal_frame(st: &EngineState, job: u64) -> Option<String> {
        match st.jobs.get(&job) {
            None => Some(proto::error_frame(&st.missing(job))),
            Some(r) => match &r.state {
                JobState::Done { tail, wall_ms } => {
                    // The per-job header; the shared tail carries the
                    // hashed, escaped payload and closes the frame.
                    let mut s = String::with_capacity(128 + tail.len());
                    let _ = write!(
                        s,
                        "{{\"v\":{},\"ok\":true,\"type\":\"result\",\"job\":{job},\"exp\":\"{}\",\"cache\":\"{}\",\"wall_ms\":{wall_ms:.3}",
                        proto::PROTO_VERSION,
                        r.exp_id,
                        r.tier.as_str()
                    );
                    s.push_str(tail);
                    Some(s)
                }
                JobState::Failed { msg } => Some(proto::error_frame(&ProtoError::new(
                    ErrorCode::JobFailed,
                    format!("job {job}: {msg}"),
                ))),
                JobState::Cancelled => Some(proto::error_frame(&ProtoError::new(
                    ErrorCode::JobCancelled,
                    format!("job {job}"),
                ))),
                JobState::Queued | JobState::Running => None,
            },
        }
    }

    /// Blocks until the pinned `job` leaves the queued/running states,
    /// then renders its terminal frame and drops the pin.
    fn result_frame(&self, job: u64, patience: Duration) -> String {
        let deadline = Instant::now() + patience;
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().expect("engine state lock");
        loop {
            if let Some(frame) = Self::terminal_frame(&st, job) {
                st.unpin(job);
                return frame;
            }
            let now = Instant::now();
            if now >= deadline {
                let frame = Self::timeout_error(&st, job, patience);
                st.unpin(job);
                return frame;
            }
            let (next, _) = cv.wait_timeout(st, deadline - now).expect("engine state lock");
            st = next;
        }
    }

    fn status_frame(&self, job: u64) -> String {
        let (lock, _) = &*self.state;
        let st = lock.lock().expect("engine state lock");
        match st.jobs.get(&job) {
            None => proto::error_frame(&st.missing(job)),
            Some(r) => format!(
                "{{\"v\":{},\"ok\":true,\"type\":\"status\",\"job\":{job},\"exp\":\"{}\",\"state\":\"{}\",\"cache\":\"{}\"}}",
                proto::PROTO_VERSION,
                r.exp_id,
                state_str(&r.state),
                r.tier.as_str()
            ),
        }
    }

    fn cancel_frame(&self, job: u64) -> String {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().expect("engine state lock");
        if !st.jobs.contains_key(&job) {
            return proto::error_frame(&st.missing(job));
        }
        // Only not-yet-terminal jobs can be cancelled; a running
        // computation is allowed to finish (its result still feeds the
        // caches) but this job stops caring.
        let did_cancel = st.finish(job, JobState::Cancelled);
        drop(st);
        if did_cancel {
            // Cancellation is a terminal transition: wake any waiter
            // parked on this job.
            cv.notify_all();
            fire_hook(&self.hook, &[job]);
        }
        format!(
            "{{\"v\":{},\"ok\":true,\"type\":\"cancelled\",\"job\":{job},\"did_cancel\":{did_cancel}}}",
            proto::PROTO_VERSION
        )
    }

    fn stats_frame(&self) -> String {
        let c = &self.counters;
        let (lock, _) = &*self.state;
        let st = lock.lock().expect("engine state lock");
        let mut s = format!(
            "{{\"v\":{},\"ok\":true,\"type\":\"stats\",\"uptime_secs\":{:.1}",
            proto::PROTO_VERSION,
            self.started.elapsed().as_secs_f64()
        );
        let _ = write!(s, ",\"workers\":{}", self.pool.threads());
        let _ = write!(s, ",\"queue_depth\":{}", self.pool.queue_depth());
        let _ = write!(s, ",\"active\":{}", self.pool.active());
        let _ = write!(s, ",\"jobs_total\":{}", st.next_job);
        let _ = write!(s, ",\"inflight_keys\":{}", st.inflight.len());
        let _ = write!(s, ",\"mem_entries\":{}", st.mem.len());
        if let Some(disk) = &self.disk {
            let _ = write!(s, ",\"disk_entries\":{}", disk.len());
        }
        // Transport gauges: zero for an engine driven in-process, live
        // values when the event-loop server updates them.
        let _ = write!(
            s,
            ",\"open_connections\":{}",
            self.transport.open_connections.load(Ordering::Relaxed)
        );
        let _ = write!(
            s,
            ",\"accepted_total\":{}",
            self.transport.accepted_total.load(Ordering::Relaxed)
        );
        if let Some(fleet) = &self.fleet {
            let _ = write!(s, ",\"shard_id\":{}", fleet.shard_id);
            let _ = write!(s, ",\"shards\":{}", fleet.peers.len());
            let _ = write!(s, ",\"ring_epoch\":\"{:#x}\"", fleet.ring.epoch());
        }
        for (name, counter) in [
            ("submits", &c.submits),
            ("statuses", &c.statuses),
            ("results", &c.results),
            ("cancels", &c.cancels),
            ("stats_calls", &c.stats),
            ("shutdowns", &c.shutdowns),
            ("bad_frames", &c.bad_frames),
            ("mem_hits", &c.mem_hits),
            ("disk_hits", &c.disk_hits),
            ("misses", &c.misses),
            ("dedups", &c.dedups),
            ("corrupt_entries", &c.corrupt_entries),
            ("job_failures", &c.failures),
            ("forwarded", &c.forwarded),
            ("peer_fills", &c.peer_fills),
            ("peer_failures", &c.peer_failures),
            ("wrong_shard", &c.wrong_shard),
        ] {
            let _ = write!(s, ",\"{name}\":{}", counter.load(Ordering::Relaxed));
        }
        s.push_str(",\"latency_ms\":{");
        let mut ids: Vec<_> = st.latency.keys().copied().collect();
        ids.sort_unstable();
        for (i, id) in ids.iter().enumerate() {
            let h = &st.latency[id];
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{id}\":{{\"count\":{},\"p50\":{:.3},\"p99\":{:.3}}}",
                h.total(),
                h.percentile(50.0).unwrap_or(0.0),
                h.percentile(99.0).unwrap_or(0.0)
            );
        }
        s.push_str("}}");
        s
    }

    /// Marks the engine draining: every later submit gets `shutting-down`.
    pub fn begin_drain(&self) {
        let (lock, cv) = &*self.state;
        lock.lock().expect("engine state lock").draining = true;
        cv.notify_all();
    }

    /// Whether [`Engine::begin_drain`] has run (a `shutdown` verb arrived).
    pub fn draining(&self) -> bool {
        let (lock, _) = &*self.state;
        lock.lock().expect("engine state lock").draining
    }

    /// Blocks until the pool has no queued or running jobs.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Drains and joins the worker pool, discarding still-queued jobs.
    pub fn shutdown(self) -> usize {
        self.pool.shutdown()
    }
}

fn state_str(s: &JobState) -> &'static str {
    match s {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Done { .. } => "done",
        JobState::Failed { .. } => "failed",
        JobState::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Value;

    fn engine() -> Engine {
        Engine::new(EngineConfig { workers: 2, mem_entries: 8, ..Default::default() }).unwrap()
    }

    fn submit_line(exp: &str, seed: u64) -> String {
        format!("{{\"v\":1,\"verb\":\"submit\",\"exp\":\"{exp}\",\"seed\":\"{seed:#x}\",\"wait\":true}}")
    }

    #[test]
    fn cold_then_warm_submit() {
        let eng = engine();
        let cold = eng.handle(&submit_line("E15", 0xA11CE));
        let cold_doc = proto::parse(&cold).unwrap();
        assert_eq!(cold_doc.get("ok").and_then(Value::as_bool), Some(true), "{cold}");
        assert_eq!(cold_doc.get("cache").and_then(Value::as_str), Some("miss"));
        let warm = eng.handle(&submit_line("E15", 0xA11CE));
        let warm_doc = proto::parse(&warm).unwrap();
        assert_eq!(warm_doc.get("cache").and_then(Value::as_str), Some("mem"));
        // Identical computation → identical payload, hash and all.
        assert_eq!(
            cold_doc.get("payload").and_then(Value::as_str),
            warm_doc.get("payload").and_then(Value::as_str)
        );
        assert_eq!(
            cold_doc.get("payload_fnv").and_then(Value::as_str),
            warm_doc.get("payload_fnv").and_then(Value::as_str)
        );
        eng.shutdown();
    }

    #[test]
    fn mitigation_spec_changes_the_cache_key() {
        let eng = engine();
        let base = eng.handle(&submit_line("E15", 7));
        assert_eq!(
            proto::parse(&base).unwrap().get("cache").and_then(Value::as_str),
            Some("miss")
        );
        // Same experiment, same seed, different defense: must not alias
        // onto the cached plain run.
        let para = eng.handle(
            "{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"0x7\",\"mitigation\":\"para\",\"wait\":true}",
        );
        let para_doc = proto::parse(&para).unwrap();
        assert_eq!(para_doc.get("ok").and_then(Value::as_bool), Some(true), "{para}");
        assert_eq!(para_doc.get("cache").and_then(Value::as_str), Some("miss"));
        // Canonicalisation: the fully-explicit spelling IS the same key.
        let canon = eng.handle(
            "{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"seed\":\"0x7\",\"mitigation\":\"para:p=0.001\",\"wait\":true}",
        );
        assert_eq!(
            proto::parse(&canon).unwrap().get("cache").and_then(Value::as_str),
            Some("mem")
        );
        // A spec the plugin registry rejects is a typed bad-field error.
        let bad = eng.handle(
            "{\"v\":1,\"verb\":\"submit\",\"exp\":\"E15\",\"mitigation\":\"warp-drive\"}",
        );
        let bad_doc = proto::parse(&bad).unwrap();
        assert_eq!(bad_doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(bad_doc.get("code").and_then(Value::as_str), Some("bad-field"));
        eng.shutdown();
    }

    #[test]
    fn unknown_experiment_is_typed() {
        let eng = engine();
        let resp = eng.handle("{\"v\":1,\"verb\":\"submit\",\"exp\":\"E99\"}");
        let doc = proto::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("code").and_then(Value::as_str), Some("unknown-experiment"));
        eng.shutdown();
    }

    #[test]
    fn shutdown_verb_drains() {
        let eng = engine();
        let bye = eng.handle("{\"v\":1,\"verb\":\"shutdown\"}");
        assert!(bye.contains("\"type\":\"bye\""), "{bye}");
        assert!(eng.draining());
        let refused = eng.handle(&submit_line("E15", 1));
        let doc = proto::parse(&refused).unwrap();
        assert_eq!(doc.get("code").and_then(Value::as_str), Some("shutting-down"));
        eng.shutdown();
    }

    #[test]
    fn status_and_unknown_job() {
        let eng = engine();
        let resp = eng.handle("{\"v\":1,\"verb\":\"status\",\"job\":777}");
        let doc = proto::parse(&resp).unwrap();
        assert_eq!(doc.get("code").and_then(Value::as_str), Some("unknown-job"));
        let stats = eng.handle("{\"v\":1,\"verb\":\"stats\"}");
        let doc = proto::parse(&stats).unwrap();
        assert_eq!(doc.get("type").and_then(Value::as_str), Some("stats"));
        assert_eq!(doc.get("workers").and_then(Value::as_num), Some(2.0));
        eng.shutdown();
    }
}
