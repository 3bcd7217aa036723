//! The typed memory-command stream: the first-class representation of
//! what the paper argues RowHammer *is* — an access-pattern phenomenon.
//!
//! Everything the controller does is narrated as [`TraceEvent`]s (a
//! [`MemCommand`] plus timestamp and [`CommandOrigin`]) through an
//! observer chain:
//!
//! * [`CommandObserver`] — the middleware trait. All mitigations
//!   (PARA, CRA, TRR, ANVIL, …) implement it, watching the derived
//!   device-command stream exactly as their hardware counterparts do,
//!   and issuing targeted refreshes through [`ObserverCtx`].
//! * [`TraceRecorder`] — a ring-buffered recorder observer; its shared
//!   [`TraceHandle`] yields a [`Trace`] snapshot after the run.
//! * [`Trace`] — a recorded stream with JSONL round-trip
//!   ([`Trace::to_jsonl`] / [`Trace::from_jsonl`]) for regression
//!   artifacts, following the `report::json` hand-rolled conventions.
//! * [`TraceReplayer`] — drives a fresh [`crate::MemoryController`]
//!   from the request-origin events of a recorded trace, so one
//!   recorded attack replays bit-identically against every mitigation
//!   configuration (record once, replay N).
//! * [`CommandLog`] — a minimal in-chain ring logger (the successor of
//!   the old `mitigation::CommandLog`).
//!
//! # Origin semantics
//!
//! [`CommandOrigin::Request`] events are the workload's *intent* (the
//! reads/writes/touches issued into the controller) — this is the
//! stream a replay re-issues. [`CommandOrigin::Controller`] events are
//! the *derived* device commands (ACT on a row miss, PRE on a
//! conflict, REF from the refresh engine) — this is the stream
//! mitigations observe. [`CommandOrigin::Mitigation`] events are the
//! targeted refreshes mitigations inject. Because mitigations never
//! advance time or change the open-row state, replaying the request
//! stream under any mitigation derives the identical device stream.

use crate::error::CtrlError;
use crate::stats::CtrlStats;
use densemem_dram::{Module, Spd};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One typed DRAM command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemCommand {
    /// Row activation (as a request: the bare "hammer" touch).
    Act {
        /// Bank.
        bank: usize,
        /// Row.
        row: usize,
    },
    /// Row precharge (close).
    Pre {
        /// Bank.
        bank: usize,
        /// Row being closed.
        row: usize,
    },
    /// Column read.
    Rd {
        /// Bank.
        bank: usize,
        /// Row.
        row: usize,
        /// 64-bit word index.
        word: usize,
    },
    /// Column write.
    Wr {
        /// Bank.
        bank: usize,
        /// Row.
        row: usize,
        /// 64-bit word index.
        word: usize,
        /// Value written.
        value: u64,
    },
    /// Auto-refresh of one row (from the distributed refresh engine).
    Ref {
        /// Bank.
        bank: usize,
        /// Row.
        row: usize,
    },
    /// Targeted row refresh (mitigation-issued neighbour refresh).
    RefRow {
        /// Bank.
        bank: usize,
        /// Row.
        row: usize,
    },
}

impl MemCommand {
    /// The command's bank.
    pub fn bank(&self) -> usize {
        match *self {
            MemCommand::Act { bank, .. }
            | MemCommand::Pre { bank, .. }
            | MemCommand::Rd { bank, .. }
            | MemCommand::Wr { bank, .. }
            | MemCommand::Ref { bank, .. }
            | MemCommand::RefRow { bank, .. } => bank,
        }
    }

    /// The command's row.
    pub fn row(&self) -> usize {
        match *self {
            MemCommand::Act { row, .. }
            | MemCommand::Pre { row, .. }
            | MemCommand::Rd { row, .. }
            | MemCommand::Wr { row, .. }
            | MemCommand::Ref { row, .. }
            | MemCommand::RefRow { row, .. } => row,
        }
    }

    /// Short mnemonic ("act", "pre", "rd", "wr", "ref", "refrow").
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MemCommand::Act { .. } => "act",
            MemCommand::Pre { .. } => "pre",
            MemCommand::Rd { .. } => "rd",
            MemCommand::Wr { .. } => "wr",
            MemCommand::Ref { .. } => "ref",
            MemCommand::RefRow { .. } => "refrow",
        }
    }
}

/// Who caused a command (see the module docs for the exact semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandOrigin {
    /// Workload intent issued into the controller (replayable).
    Request,
    /// Device command derived by the controller (ACT/PRE/REF).
    Controller,
    /// Targeted refresh injected by a mitigation observer.
    Mitigation,
}

impl CommandOrigin {
    /// Short mnemonic ("req", "ctl", "mit").
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CommandOrigin::Request => "req",
            CommandOrigin::Controller => "ctl",
            CommandOrigin::Mitigation => "mit",
        }
    }
}

/// One event of the command stream: a timestamped, attributed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Simulated time the command completed, nanoseconds.
    pub at_ns: u64,
    /// Origin of the command.
    pub origin: CommandOrigin,
    /// The command.
    pub cmd: MemCommand,
}

/// Context handed to observers: device access for targeted refreshes,
/// the controller's stats, and the current time. Commands an observer
/// injects (via [`ObserverCtx::refresh_row`]) are executed immediately
/// and re-announced to the whole chain as
/// [`CommandOrigin::Mitigation`] events (one level deep — injected
/// events cannot themselves trigger further injection, which keeps the
/// chain's fan-out finite by construction).
#[derive(Debug)]
pub struct ObserverCtx<'a> {
    /// The device being protected.
    pub module: &'a mut Module,
    /// Controller statistics (observers account their refreshes here).
    pub stats: &'a mut CtrlStats,
    /// Current simulated time, nanoseconds.
    pub now: u64,
    emitted: Vec<MemCommand>,
}

impl<'a> ObserverCtx<'a> {
    /// Creates a context (controller-internal; public for tests and
    /// custom drivers).
    pub fn new(module: &'a mut Module, stats: &'a mut CtrlStats, now: u64) -> Self {
        Self { module, stats, now, emitted: Vec::new() }
    }

    /// Refreshes one row now, accounting it as a mitigation refresh and
    /// queueing the corresponding [`MemCommand::RefRow`] announcement.
    pub fn refresh_row(&mut self, bank: usize, row: usize) {
        if self.module.refresh_row(bank, row, self.now).is_ok() {
            self.stats.mitigation_refreshes += 1;
            self.emitted.push(MemCommand::RefRow { bank, row });
        }
    }

    /// Refreshes both physical neighbours of `row` (looked up through
    /// the SPD adjacency the paper proposes devices disclose).
    pub fn refresh_neighbors(&mut self, bank: usize, row: usize) {
        let spd: Spd = self.module.spd();
        let (lo, hi) = spd.logical_neighbors(row);
        for n in [lo, hi].into_iter().flatten() {
            self.refresh_row(bank, n);
        }
    }

    /// Drains the commands injected so far (controller-internal).
    pub fn take_emitted(&mut self) -> Vec<MemCommand> {
        std::mem::take(&mut self.emitted)
    }
}

/// Middleware on the controller's command stream. Mitigations, trace
/// recorders, and ad-hoc probes all implement this one trait and
/// compose in an [`ObserverChain`].
pub trait CommandObserver: std::fmt::Debug + Send {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Called for every event the controller emits.
    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>);

    /// The origins this observer consumes. The controller skips
    /// building an event whose origin no observer in its chain consumes;
    /// an origin some observer consumes still reaches every observer,
    /// so `observe` must ignore what its filter excludes. The default,
    /// [`TraceFilter::All`], is always sound; mitigations, which act
    /// only on derived device commands, narrow it to
    /// [`TraceFilter::DeviceOnly`] so the request stream costs them
    /// nothing.
    fn filter(&self) -> TraceFilter {
        TraceFilter::All
    }

    /// Called when the refresh engine completes a full window sweep
    /// (counter-based mitigations reset here).
    fn on_window_reset(&mut self) {}

    /// Storage the observer needs in the controller, in bits, for a
    /// device with `rows` rows per bank and `banks` banks.
    fn storage_bits(&self, _rows: usize, _banks: usize) -> u64 {
        0
    }
}

/// An ordered chain of observers; every emitted event fans out to each
/// in turn.
#[derive(Debug, Default)]
pub struct ObserverChain {
    observers: Vec<Box<dyn CommandObserver>>,
    /// Row refreshes issued from inside each observer's `observe` call
    /// (parallel to `observers`) — the per-plugin attribution the energy
    /// accounting reports.
    refreshes: Vec<u64>,
    /// Whether any observer's [`CommandObserver::filter`] keeps each
    /// origin, indexed by `origin as usize`.
    consumes: [bool; 3],
}

impl ObserverChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observer.
    pub fn push(&mut self, observer: Box<dyn CommandObserver>) {
        use CommandOrigin::{Controller, Mitigation, Request};
        let filter = observer.filter();
        for origin in [Request, Controller, Mitigation] {
            self.consumes[origin as usize] |= filter.keeps_origin(origin);
        }
        self.observers.push(observer);
        self.refreshes.push(0);
    }

    /// Removes every observer.
    pub fn clear(&mut self) {
        self.observers.clear();
        self.refreshes.clear();
        self.consumes = [false; 3];
    }

    /// Whether any observer in the chain consumes events of `origin`.
    pub(crate) fn consumes(&self, origin: CommandOrigin) -> bool {
        self.consumes[origin as usize]
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// Number of observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// The observers' names, in chain order.
    pub fn names(&self) -> Vec<&'static str> {
        self.observers.iter().map(|o| o.name()).collect()
    }

    /// Total storage cost of the chain.
    pub fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        self.observers.iter().map(|o| o.storage_bits(rows, banks)).sum()
    }

    /// Fans a window reset out to every observer.
    pub fn window_reset(&mut self) {
        for o in &mut self.observers {
            o.on_window_reset();
        }
    }

    /// Fans one event out to every observer, attributing any refreshes
    /// an observer issues to that observer.
    pub fn dispatch(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        for (o, issued) in self.observers.iter_mut().zip(&mut self.refreshes) {
            let before = ctx.stats.mitigation_refreshes;
            o.observe(event, ctx);
            *issued += ctx.stats.mitigation_refreshes - before;
        }
    }

    /// Mitigation-issued row refreshes attributed per observer, in chain
    /// order. The counts sum to [`crate::CtrlStats::mitigation_refreshes`]
    /// (a [`crate::mitigation::Stack`] is one observer; its children are
    /// attributed to the stack as a whole).
    pub fn refreshes_by_observer(&self) -> Vec<(&'static str, u64)> {
        self.observers.iter().zip(&self.refreshes).map(|(o, &n)| (o.name(), n)).collect()
    }
}

/// Which events a [`TraceRecorder`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFilter {
    /// Everything: requests, derived device commands, mitigations.
    All,
    /// Only [`CommandOrigin::Request`] events — the replayable stream.
    Requests,
    /// Only derived device commands and mitigation refreshes.
    DeviceOnly,
}

impl TraceFilter {
    /// Whether an event passes the filter.
    pub fn keeps(&self, event: &TraceEvent) -> bool {
        self.keeps_origin(event.origin)
    }

    /// Whether events of `origin` pass the filter.
    pub(crate) fn keeps_origin(&self, origin: CommandOrigin) -> bool {
        match self {
            TraceFilter::All => true,
            TraceFilter::Requests => origin == CommandOrigin::Request,
            TraceFilter::DeviceOnly => origin != CommandOrigin::Request,
        }
    }

    /// The smallest filter keeping every event either filter keeps.
    pub(crate) fn union(self, other: TraceFilter) -> TraceFilter {
        if self == other {
            self
        } else {
            TraceFilter::All
        }
    }

    /// Mnemonic used in the JSONL header.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            TraceFilter::All => "all",
            TraceFilter::Requests => "requests",
            TraceFilter::DeviceOnly => "device",
        }
    }
}

#[derive(Debug)]
struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceBuffer {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A ring-buffered recorder observer. Attach via
/// [`crate::MemoryController::record_trace`]; read the result through
/// the shared [`TraceHandle`] after (or during) the run.
#[derive(Debug)]
pub struct TraceRecorder {
    shared: Arc<Mutex<TraceBuffer>>,
    filter: TraceFilter,
}

impl TraceRecorder {
    /// Creates a recorder keeping at most `cap` events (oldest dropped;
    /// the drop count is preserved in the snapshot).
    pub fn new(cap: usize, filter: TraceFilter) -> Self {
        let buffer = TraceBuffer { events: VecDeque::new(), cap: cap.max(1), dropped: 0 };
        Self { shared: Arc::new(Mutex::new(buffer)), filter }
    }

    /// A handle for reading the recording after the recorder has been
    /// boxed into a controller's observer chain.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle { shared: Arc::clone(&self.shared), filter: self.filter }
    }
}

impl CommandObserver for TraceRecorder {
    fn name(&self) -> &'static str {
        "trace-recorder"
    }

    fn observe(&mut self, event: &TraceEvent, _ctx: &mut ObserverCtx<'_>) {
        if self.filter.keeps(event) {
            self.shared.lock().expect("recorder lock").push(*event);
        }
    }

    fn filter(&self) -> TraceFilter {
        self.filter
    }
}

/// Shared view of a [`TraceRecorder`]'s ring buffer.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    shared: Arc<Mutex<TraceBuffer>>,
    filter: TraceFilter,
}

impl TraceHandle {
    /// Snapshots the recording into an owned [`Trace`] labelled `label`.
    pub fn snapshot(&self, label: &str, seed: u64) -> Trace {
        let buffer = self.shared.lock().expect("recorder lock");
        // Bulk-copy the ring's two contiguous halves rather than walking
        // the deque element by element.
        let (head, tail) = buffer.events.as_slices();
        let mut events = Vec::with_capacity(head.len() + tail.len());
        events.extend_from_slice(head);
        events.extend_from_slice(tail);
        Trace {
            label: label.to_owned(),
            seed,
            filter: self.filter,
            dropped: buffer.dropped,
            events,
        }
    }

    /// Events currently recorded.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("recorder lock").events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An owned, labelled recording of the command stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human label (experiment id + pattern, e.g. `E15_many_sided`).
    pub label: String,
    /// Master seed of the run that produced the trace.
    pub seed: u64,
    /// The filter the recorder ran with.
    pub filter: TraceFilter,
    /// Events evicted by the ring buffer before the snapshot.
    pub dropped: u64,
    /// The recorded events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The replayable subset: request-origin events, in order.
    pub fn requests(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.origin == CommandOrigin::Request)
    }

    /// Serializes the whole trace as JSONL: one header object, then one
    /// object per event (`Trace::from_jsonl` round-trips it).
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_head(self.events.len())
    }

    /// Serializes the header plus at most the first `head` events —
    /// bounded artifacts for multi-million-event recordings. The header
    /// records both totals, so truncation is always visible.
    pub fn to_jsonl_head(&self, head: usize) -> String {
        let written = head.min(self.events.len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"trace_version\":1,\"label\":\"{}\",\"seed\":\"{:#x}\",\"filter\":\"{}\",\
             \"events_total\":{},\"events_written\":{},\"ring_dropped\":{}}}",
            escape(&self.label),
            self.seed,
            self.filter.mnemonic(),
            self.events.len(),
            written,
            self.dropped,
        );
        for e in &self.events[..written] {
            let _ = write!(
                out,
                "{{\"t\":{},\"o\":\"{}\",\"c\":\"{}\",\"b\":{},\"r\":{}",
                e.at_ns,
                e.origin.mnemonic(),
                e.cmd.mnemonic(),
                e.cmd.bank(),
                e.cmd.row()
            );
            match e.cmd {
                MemCommand::Rd { word, .. } => {
                    let _ = write!(out, ",\"w\":{word}");
                }
                MemCommand::Wr { word, value, .. } => {
                    // Hex string: survives parsers that read all JSON
                    // numbers as f64.
                    let _ = write!(out, ",\"w\":{word},\"v\":\"{value:#x}\"");
                }
                _ => {}
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parses a trace back from its JSONL form.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError::TraceParse`] on malformed input.
    pub fn from_jsonl(text: &str) -> Result<Self, CtrlError> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (n, header) = lines
            .next()
            .ok_or_else(|| parse_err(0, "empty trace"))?;
        if field(header, "trace_version").as_deref() != Some("1") {
            return Err(parse_err(n + 1, "missing or unsupported trace_version"));
        }
        // Every header field is required: a torn header line must fail
        // here, not parse to defaults.
        let header_field = |key: &str| -> Result<Cow<'_, str>, CtrlError> {
            field(header, key)
                .ok_or_else(|| parse_err(n + 1, &format!("header missing key {key:?}")))
        };
        let label = header_field("label")?.into_owned();
        let seed = parse_u64(&header_field("seed")?).map_err(|m| parse_err(n + 1, &m))?;
        let filter = match &*header_field("filter")? {
            "all" => TraceFilter::All,
            "requests" => TraceFilter::Requests,
            "device" => TraceFilter::DeviceOnly,
            other => return Err(parse_err(n + 1, &format!("unknown filter {other:?}"))),
        };
        let written =
            parse_u64(&header_field("events_written")?).map_err(|m| parse_err(n + 1, &m))?;
        let dropped = parse_u64(&header_field("ring_dropped")?).map_err(|m| parse_err(n + 1, &m))?;
        let mut events = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let need = |key: &str| -> Result<Cow<'_, str>, CtrlError> {
                field(line, key).ok_or_else(|| parse_err(lineno, &format!("missing key {key:?}")))
            };
            let at_ns = parse_u64(&need("t")?).map_err(|m| parse_err(lineno, &m))?;
            let origin = match &*need("o")? {
                "req" => CommandOrigin::Request,
                "ctl" => CommandOrigin::Controller,
                "mit" => CommandOrigin::Mitigation,
                other => return Err(parse_err(lineno, &format!("unknown origin {other:?}"))),
            };
            let bank = parse_u64(&need("b")?).map_err(|m| parse_err(lineno, &m))? as usize;
            let row = parse_u64(&need("r")?).map_err(|m| parse_err(lineno, &m))? as usize;
            let word = || -> Result<usize, CtrlError> {
                Ok(parse_u64(&need("w")?).map_err(|m| parse_err(lineno, &m))? as usize)
            };
            let cmd = match &*need("c")? {
                "act" => MemCommand::Act { bank, row },
                "pre" => MemCommand::Pre { bank, row },
                "ref" => MemCommand::Ref { bank, row },
                "refrow" => MemCommand::RefRow { bank, row },
                "rd" => MemCommand::Rd { bank, row, word: word()? },
                "wr" => MemCommand::Wr {
                    bank,
                    row,
                    word: word()?,
                    value: parse_u64(&need("v")?).map_err(|m| parse_err(lineno, &m))?,
                },
                other => return Err(parse_err(lineno, &format!("unknown command {other:?}"))),
            };
            events.push(TraceEvent { at_ns, origin, cmd });
        }
        if events.len() as u64 != written {
            return Err(parse_err(
                n + 1,
                &format!("header promises {written} events, found {}: truncated artifact", events.len()),
            ));
        }
        Ok(Self { label, seed, filter, dropped, events })
    }
}

fn parse_err(line: usize, reason: &str) -> CtrlError {
    CtrlError::TraceParse { line, reason: reason.to_owned() }
}

fn parse_u64(v: &str) -> Result<u64, String> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex value {v:?}: {e}"))
    } else {
        v.parse().map_err(|e| format!("bad value {v:?}: {e}"))
    }
}

/// Escapes a string for a JSON string literal (the small subset the
/// trace writer needs; mirrors the core report conventions).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts the value of `"key":...` from one flat JSON object line.
/// Values are either numbers/bools (read to the next `,`/`}`) or quoted
/// strings (minimal unescaping of `\"` and `\\`). The value borrows
/// from `line` unless it is a string holding an escape.
fn field<'a>(line: &'a str, key: &str) -> Option<Cow<'a, str>> {
    // The first `"key":` in the line. `key` holds no quote, so a
    // candidate that fails the check cannot overlap the real match.
    let rest = line.match_indices(key).find_map(|(at, _)| {
        let after = &line[at + key.len()..];
        (line[..at].ends_with('"') && after.starts_with("\":")).then(|| &after[2..])
    })?;
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let plain = stripped.find(['"', '\\'])?;
        if stripped[plain..].starts_with('"') {
            return Some(Cow::Borrowed(&stripped[..plain]));
        }
        let mut out = String::from(&stripped[..plain]);
        let mut chars = stripped[plain..].chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    other => out.push(other),
                },
                '"' => return Some(Cow::Owned(out)),
                c => out.push(c),
            }
        }
        None
    } else {
        let end = rest.find([',', '}'])?;
        Some(Cow::Borrowed(rest[..end].trim()))
    }
}

/// Report of one trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Request events re-issued.
    pub replayed: u64,
    /// Non-request events skipped (present when replaying an
    /// all-origins trace — the controller re-derives them itself).
    pub skipped: u64,
}

/// Replays a recorded trace's request stream into a controller.
#[derive(Debug)]
pub struct TraceReplayer<'t> {
    trace: &'t Trace,
}

impl<'t> TraceReplayer<'t> {
    /// Creates a replayer over `trace`.
    pub fn new(trace: &'t Trace) -> Self {
        Self { trace }
    }

    /// Re-issues every request-origin event, in order, via
    /// [`crate::MemoryController::issue`]. The controller re-derives
    /// the device command stream (ACT/PRE/REF) itself, so any attached
    /// mitigation observes exactly what it would have observed live.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] if a replayed command addresses an
    /// invalid location for the target controller's device.
    pub fn replay(&self, ctrl: &mut crate::MemoryController) -> Result<ReplayReport, CtrlError> {
        let mut report = ReplayReport { replayed: 0, skipped: 0 };
        for e in &self.trace.events {
            if e.origin == CommandOrigin::Request {
                ctrl.issue(e.cmd)?;
                report.replayed += 1;
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }
}

/// A minimal in-chain ring logger over [`TraceEvent`]s — the §IV
/// "testing methods" building block for inspecting the command stream
/// without a full recorder. Successor of the old mitigation-hook
/// `CommandLog`.
#[derive(Debug, Default)]
pub struct CommandLog {
    events: Vec<TraceEvent>,
    cap: usize,
}

impl CommandLog {
    /// Creates a log keeping at most `cap` events (oldest dropped).
    pub fn new(cap: usize) -> Self {
        Self { events: Vec::new(), cap: cap.max(1) }
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.remove(0);
        }
        self.events.push(e);
    }
}

impl CommandObserver for CommandLog {
    fn name(&self) -> &'static str {
        "command-log"
    }

    fn observe(&mut self, event: &TraceEvent, _ctx: &mut ObserverCtx<'_>) {
        self.push(*event);
    }
}

/// Deterministic fault injection on recorded command streams, for the
/// conformance suite. Gated behind `cfg(any(test, feature =
/// "fault-inject"))`: production consumers never see these hooks unless
/// they opt in.
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault {
    use super::{CommandObserver, MemCommand, ObserverCtx, Trace, TraceEvent};
    use densemem_stats::rng::substream;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// One mutation of a recorded command stream. Indices address the
    /// event list of the trace the fault is applied to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceFault {
        /// Removes the event at this index (a lost command).
        Drop(usize),
        /// Repeats the event at this index immediately after itself (a
        /// replayed/duplicated command).
        Duplicate(usize),
        /// Rewrites the row of the event at `index` (an address-line
        /// upset in flight).
        RetargetRow {
            /// Event index.
            index: usize,
            /// Replacement row.
            row: usize,
        },
    }

    /// Returns a copy of `trace` with `faults` applied in order. Each
    /// fault sees the event list as left by the previous one.
    ///
    /// # Panics
    ///
    /// Panics if a fault indexes past the end of the (evolving) event
    /// list — a mis-specified fault plan must never pass silently.
    pub fn mutate(trace: &Trace, faults: &[TraceFault]) -> Trace {
        let mut out = trace.clone();
        for f in faults {
            match *f {
                TraceFault::Drop(i) => {
                    assert!(i < out.events.len(), "Drop({i}) out of range");
                    out.events.remove(i);
                }
                TraceFault::Duplicate(i) => {
                    assert!(i < out.events.len(), "Duplicate({i}) out of range");
                    let e = out.events[i];
                    out.events.insert(i + 1, e);
                }
                TraceFault::RetargetRow { index, row } => {
                    assert!(index < out.events.len(), "RetargetRow({index}) out of range");
                    let e = &mut out.events[index];
                    e.cmd = match e.cmd {
                        MemCommand::Act { bank, .. } => MemCommand::Act { bank, row },
                        MemCommand::Pre { bank, .. } => MemCommand::Pre { bank, row },
                        MemCommand::Rd { bank, word, .. } => MemCommand::Rd { bank, row, word },
                        MemCommand::Wr { bank, word, value, .. } => {
                            MemCommand::Wr { bank, row, word, value }
                        }
                        MemCommand::Ref { bank, .. } => MemCommand::Ref { bank, row },
                        MemCommand::RefRow { bank, .. } => MemCommand::RefRow { bank, row },
                    };
                }
            }
        }
        out
    }

    /// Corrupts one line (1-based) of a JSONL artifact by truncating it
    /// mid-token — the classic torn-write/short-read artifact. The rest
    /// of the text is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `line` does not exist in `text`.
    pub fn corrupt_jsonl_line(text: &str, line: usize) -> String {
        let mut found = false;
        let out: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i + 1 == line {
                    found = true;
                    l[..l.len() / 2].to_owned()
                } else {
                    l.to_owned()
                }
            })
            .collect();
        assert!(found, "line {line} not present in the artifact");
        out.join("\n")
    }

    /// An adversarial chain member: every `every`-th activation it
    /// observes, it injects a targeted refresh to a pseudo-random row —
    /// deterministic for a given seed. Used to prove the observer chain
    /// and the controller's accounting survive a misbehaving observer
    /// without perturbing unrelated state.
    #[derive(Debug)]
    pub struct ChaosObserver {
        every: u64,
        rows: usize,
        seen: u64,
        /// Spurious refreshes injected so far.
        pub injected: u64,
        rng: StdRng,
    }

    impl ChaosObserver {
        /// Creates a chaos observer firing every `every` activations
        /// over a device with `rows` rows per bank.
        pub fn new(every: u64, rows: usize, seed: u64) -> Self {
            Self {
                every: every.max(1),
                rows: rows.max(1),
                seen: 0,
                injected: 0,
                rng: substream(seed, 0xC4A05),
            }
        }
    }

    impl CommandObserver for ChaosObserver {
        fn name(&self) -> &'static str {
            "chaos-observer"
        }

        fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
            if let MemCommand::Act { bank, .. } = event.cmd {
                self.seen += 1;
                if self.seen.is_multiple_of(self.every) {
                    let row = self.rng.gen_range(0..self.rows);
                    ctx.refresh_row(bank, row);
                    self.injected += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, origin: CommandOrigin, cmd: MemCommand) -> TraceEvent {
        TraceEvent { at_ns, origin, cmd }
    }

    #[test]
    fn command_accessors() {
        let c = MemCommand::Wr { bank: 2, row: 7, word: 3, value: 9 };
        assert_eq!(c.bank(), 2);
        assert_eq!(c.row(), 7);
        assert_eq!(c.mnemonic(), "wr");
        assert_eq!(CommandOrigin::Mitigation.mnemonic(), "mit");
    }

    #[test]
    fn filter_keeps_the_right_origins() {
        let req = ev(1, CommandOrigin::Request, MemCommand::Act { bank: 0, row: 1 });
        let ctl = ev(1, CommandOrigin::Controller, MemCommand::Pre { bank: 0, row: 1 });
        assert!(TraceFilter::All.keeps(&req) && TraceFilter::All.keeps(&ctl));
        assert!(TraceFilter::Requests.keeps(&req) && !TraceFilter::Requests.keeps(&ctl));
        assert!(!TraceFilter::DeviceOnly.keeps(&req) && TraceFilter::DeviceOnly.keeps(&ctl));
    }

    #[test]
    fn filter_union_keeps_what_either_keeps() {
        use TraceFilter::{All, DeviceOnly, Requests};
        assert_eq!(DeviceOnly.union(DeviceOnly), DeviceOnly);
        assert_eq!(Requests.union(Requests), Requests);
        assert_eq!(Requests.union(DeviceOnly), All);
        assert_eq!(DeviceOnly.union(All), All);
    }

    #[test]
    fn chain_tracks_the_origins_its_observers_consume() {
        let mut chain = ObserverChain::new();
        assert!(!chain.consumes(CommandOrigin::Controller));
        chain.push(Box::new(TraceRecorder::new(16, TraceFilter::DeviceOnly)));
        assert!(!chain.consumes(CommandOrigin::Request));
        assert!(chain.consumes(CommandOrigin::Controller));
        assert!(chain.consumes(CommandOrigin::Mitigation));
        chain.push(Box::new(CommandLog::new(16)));
        // The log keeps the default filter, so requests are consumed.
        assert!(chain.consumes(CommandOrigin::Request));
        chain.clear();
        assert!(!chain.consumes(CommandOrigin::Controller));
    }

    #[test]
    fn recorder_ring_caps_and_counts_drops() {
        let rec = TraceRecorder::new(2, TraceFilter::All);
        let handle = rec.handle();
        let mut rec = rec;
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        for i in 0..5u64 {
            let mut ctx = ObserverCtx::new(&mut module, &mut stats, i);
            rec.observe(&ev(i, CommandOrigin::Request, MemCommand::Act { bank: 0, row: 1 }), &mut ctx);
        }
        let t = handle.snapshot("ring", 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.events[0].at_ns, 3);
    }

    #[test]
    fn jsonl_round_trips_all_command_kinds() {
        let t = Trace {
            label: "unit \"quoted\"".to_owned(),
            seed: 0xF161,
            filter: TraceFilter::All,
            dropped: 7,
            events: vec![
                ev(10, CommandOrigin::Request, MemCommand::Act { bank: 0, row: 100 }),
                ev(20, CommandOrigin::Controller, MemCommand::Pre { bank: 0, row: 100 }),
                ev(30, CommandOrigin::Request, MemCommand::Rd { bank: 1, row: 2, word: 3 }),
                ev(40, CommandOrigin::Request, MemCommand::Wr { bank: 1, row: 2, word: 3, value: u64::MAX }),
                ev(50, CommandOrigin::Controller, MemCommand::Ref { bank: 0, row: 9 }),
                ev(60, CommandOrigin::Mitigation, MemCommand::RefRow { bank: 0, row: 8 }),
            ],
        };
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn jsonl_head_truncates_but_keeps_totals() {
        let t = Trace {
            label: "head".to_owned(),
            seed: 1,
            filter: TraceFilter::Requests,
            dropped: 0,
            events: (0..10)
                .map(|i| ev(i, CommandOrigin::Request, MemCommand::Act { bank: 0, row: i as usize }))
                .collect(),
        };
        let text = t.to_jsonl_head(3);
        assert!(text.contains("\"events_total\":10"));
        assert!(text.contains("\"events_written\":3"));
        let back = Trace::from_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn malformed_jsonl_is_a_typed_error() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"not\":\"a header\"}").is_err());
        let bad_event = "{\"trace_version\":1,\"label\":\"x\",\"seed\":\"0x1\",\
                         \"filter\":\"all\",\"events_total\":1,\"events_written\":1,\
                         \"ring_dropped\":0}\n{\"t\":1,\"o\":\"req\",\"c\":\"warp\",\"b\":0,\"r\":0}";
        match Trace::from_jsonl(bad_event) {
            Err(CtrlError::TraceParse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn torn_header_is_rejected_not_defaulted() {
        // A header truncated mid-line keeps trace_version but loses
        // later fields; it must fail at line 1, not parse to defaults.
        let torn = "{\"trace_version\":1,\"label\":\"x\",\"seed\":\"0x1\"\n";
        match Trace::from_jsonl(torn) {
            Err(CtrlError::TraceParse { line, reason }) => {
                assert_eq!(line, 1);
                assert!(reason.contains("filter"), "names the missing field: {reason}");
            }
            other => panic!("expected header parse error, got {other:?}"),
        }
        // An unknown filter mnemonic is an error, not silently All.
        let bad_filter = "{\"trace_version\":1,\"label\":\"x\",\"seed\":\"0x1\",\
                          \"filter\":\"sometimes\",\"events_total\":0,\"events_written\":0,\
                          \"ring_dropped\":0}";
        assert!(matches!(
            Trace::from_jsonl(bad_filter),
            Err(CtrlError::TraceParse { line: 1, .. })
        ));
    }

    #[test]
    fn missing_event_lines_are_detected_against_header_count() {
        let t = Trace {
            label: "short".to_owned(),
            seed: 2,
            filter: TraceFilter::Requests,
            dropped: 0,
            events: (0..4)
                .map(|i| ev(i, CommandOrigin::Request, MemCommand::Act { bank: 0, row: i as usize }))
                .collect(),
        };
        let text = t.to_jsonl();
        // Losing whole trailing lines (torn tail) leaves every remaining
        // line valid; the events_written cross-check still catches it.
        let torn: String =
            text.lines().take(3).map(|l| format!("{l}\n")).collect();
        match Trace::from_jsonl(&torn) {
            Err(CtrlError::TraceParse { line, reason }) => {
                assert_eq!(line, 1, "the broken promise is the header's");
                assert!(reason.contains("truncated"), "{reason}");
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn command_log_caps_events() {
        let mut log = CommandLog::new(2);
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        for i in 0..5u64 {
            let mut ctx = ObserverCtx::new(&mut module, &mut stats, i);
            log.observe(&ev(i, CommandOrigin::Controller, MemCommand::Act { bank: 0, row: 0 }), &mut ctx);
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].at_ns, 3);
    }

    #[test]
    fn observer_ctx_accounts_and_announces_refreshes() {
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 100);
        ctx.refresh_neighbors(0, 10);
        assert_eq!(stats.mitigation_refreshes, 2);
        let emitted = {
            let mut ctx2 = ObserverCtx::new(&mut module, &mut stats, 100);
            ctx2.refresh_row(0, 10);
            ctx2.take_emitted()
        };
        assert_eq!(emitted, vec![MemCommand::RefRow { bank: 0, row: 10 }]);
    }

    fn test_module() -> Module {
        use densemem_dram::module::RowRemap;
        use densemem_dram::{BankGeometry, Manufacturer, VintageProfile};
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 5)
    }
}
