//! The open-page memory controller.
//!
//! Accesses are synchronous: each [`MemoryController::read`] /
//! [`MemoryController::write`] advances simulated time by the appropriate
//! DDR latencies (row hit vs row conflict), services any auto-refresh work
//! that came due, and narrates everything it does as typed
//! [`TraceEvent`]s through its observer chain — request intent
//! ([`CommandOrigin::Request`]), derived device commands
//! ([`CommandOrigin::Controller`]: ACT on a miss, PRE on a conflict,
//! REF from the refresh engine), and mitigation-injected refreshes
//! ([`CommandOrigin::Mitigation`]). Mitigations, trace recorders, and
//! probes all attach as [`CommandObserver`] middleware. This is the
//! component both the attack kernels and the benign workloads drive,
//! live or from a recorded trace via [`MemoryController::issue`].

use crate::error::CtrlError;
use crate::refresh::RefreshEngine;
use crate::stats::CtrlStats;
use crate::trace::{
    CommandObserver, CommandOrigin, MemCommand, ObserverChain, ObserverCtx, Trace, TraceEvent,
    TraceFilter, TraceHandle, TraceRecorder,
};
use densemem_dram::{FlipRecord, Module, Timing};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep the row open after an access (row hits are fast; hammering
    /// needs two alternating rows per bank).
    #[default]
    Open,
    /// Precharge immediately after every access (every access activates —
    /// a *single* repeatedly-accessed address hammers its neighbours, as
    /// on real closed-page servers).
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Device timing.
    pub timing: Timing,
    /// Refresh-rate multiplier (1.0 = nominal 64 ms window).
    pub refresh_multiplier: f64,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            timing: Timing::ddr3_1600(),
            refresh_multiplier: 1.0,
            page_policy: PagePolicy::Open,
        }
    }
}

/// The controller's DDR latencies in whole nanoseconds, rounded once
/// from the configured [`Timing`].
#[derive(Debug, Clone, Copy)]
struct Latencies {
    /// Column access on an open row (`t_CL`).
    cl: u64,
    /// Precharge (`t_RP`).
    rp: u64,
    /// Same-bank activate-to-activate (`t_RC`).
    rc: u64,
    /// Activate to data (`t_RCD + t_CL`).
    rcd_cl: u64,
}

impl Latencies {
    fn new(t: &Timing) -> Self {
        Self {
            cl: t.t_cl.round() as u64,
            rp: t.t_rp.round() as u64,
            rc: t.t_rc.round() as u64,
            rcd_cl: (t.t_rcd + t.t_cl).round() as u64,
        }
    }
}

/// The memory controller.
///
/// # Examples
///
/// ```
/// use densemem_ctrl::MemoryController;
/// use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};
/// use densemem_dram::module::RowRemap;
///
/// let profile = VintageProfile::new(Manufacturer::B, 2012);
/// let module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 1);
/// let mut ctrl = MemoryController::new(module, Default::default());
/// ctrl.write(0, 10, 0, 0xCAFE).unwrap();
/// assert_eq!(ctrl.read(0, 10, 0).unwrap(), 0xCAFE);
/// assert!(ctrl.now_ns() > 0);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    module: Module,
    config: ControllerConfig,
    lat: Latencies,
    refresh: RefreshEngine,
    observers: ObserverChain,
    open_rows: Vec<Option<usize>>,
    /// Time of the last activation per bank, to enforce tRC.
    last_act_ns: Vec<u64>,
    stats: CtrlStats,
    now_ns: u64,
    windows_seen: u64,
    /// In-controller request log (see [`Self::begin_request_log`]):
    /// `Some` while armed. Unlike a [`TraceRecorder`] in the observer
    /// chain, appends go straight to this `Vec` — no mutex, no dynamic
    /// dispatch — and [`Self::take_request_log`] moves the buffer out
    /// without copying it.
    req_log: Option<Vec<TraceEvent>>,
}

impl MemoryController {
    /// Creates a controller over `module` with an empty observer chain
    /// (no mitigation).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero rows or non-positive
    /// refresh multiplier); use validated inputs.
    pub fn new(module: Module, config: ControllerConfig) -> Self {
        let rows = module.bank(0).geometry().rows();
        let refresh = RefreshEngine::new(config.timing, rows, config.refresh_multiplier)
            .expect("controller configuration must be valid");
        let banks = module.bank_count();
        Self {
            module,
            config,
            lat: Latencies::new(&config.timing),
            refresh,
            observers: ObserverChain::new(),
            open_rows: vec![None; banks],
            last_act_ns: vec![0; banks],
            stats: CtrlStats::default(),
            now_ns: 0,
            windows_seen: 0,
            req_log: None,
        }
    }

    /// Appends a mitigation/observer to the chain (builder style).
    pub fn with_mitigation(mut self, mitigation: Box<dyn CommandObserver>) -> Self {
        self.observers.push(mitigation);
        self
    }

    /// Replaces the whole observer chain with one mitigation.
    pub fn set_mitigation(&mut self, mitigation: Box<dyn CommandObserver>) {
        self.observers.clear();
        self.observers.push(mitigation);
    }

    /// Appends an observer without clearing the chain (probes,
    /// recorders, additional mitigations).
    pub fn attach_observer(&mut self, observer: Box<dyn CommandObserver>) {
        self.observers.push(observer);
    }

    /// Attaches a ring-buffered [`TraceRecorder`] keeping at most `cap`
    /// events under `filter`, returning the shared handle for reading
    /// the recording.
    pub fn record_trace(&mut self, cap: usize, filter: TraceFilter) -> TraceHandle {
        let recorder = TraceRecorder::new(cap, filter);
        let handle = recorder.handle();
        self.observers.push(Box::new(recorder));
        handle
    }

    /// Arms (or re-arms, clearing any previous recording) the lock-free
    /// in-controller request log. While armed, every
    /// [`CommandOrigin::Request`] event is appended to an internal
    /// `Vec` — the exact event sequence a `usize::MAX`-capacity
    /// [`TraceRecorder`] under [`TraceFilter::Requests`] would keep, but
    /// with no observer dispatch or locking on the hot path and no
    /// buffer copy at snapshot time. Use [`Self::take_request_log`] to
    /// extract the recording.
    pub fn begin_request_log(&mut self) {
        self.req_log = Some(Vec::new());
    }

    /// Disarms the request log and moves the recording out as an owned
    /// [`Trace`] (filter [`TraceFilter::Requests`], nothing dropped).
    /// The event buffer is moved, not copied. Returns an empty trace if
    /// the log was never armed.
    pub fn take_request_log(&mut self, label: &str, seed: u64) -> Trace {
        Trace {
            label: label.to_owned(),
            seed,
            filter: TraceFilter::Requests,
            dropped: 0,
            events: self.req_log.take().unwrap_or_default(),
        }
    }

    /// The observer chain's names, joined (`"none"` when empty).
    pub fn mitigation_name(&self) -> String {
        let names = self.observers.names();
        if names.is_empty() {
            "none".to_owned()
        } else {
            names.join("+")
        }
    }

    /// Observer-chain storage cost in bits for this device.
    pub fn mitigation_storage_bits(&self) -> u64 {
        let rows = self.module.bank(0).geometry().rows();
        self.observers.storage_bits(rows, self.module.bank_count())
    }

    /// Mitigation-issued row refreshes attributed per observer name, in
    /// chain order (sums to `stats().mitigation_refreshes`). Feed into
    /// [`crate::energy::mitigation_energy_by_name`] for the energy split.
    pub fn mitigation_refreshes_by_name(&self) -> Vec<(&'static str, u64)> {
        self.observers.refreshes_by_observer()
    }

    /// Current simulated time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The auto-refresh engine's per-row tick interval (ns): one row of
    /// every bank comes due each time simulated time crosses a multiple
    /// of this value. Refresh-synchronized attack kernels (Blacksmith
    /// discipline) align their pattern cycles to this cadence.
    pub fn refresh_interval_ns(&self) -> u64 {
        self.refresh.per_row_interval_ns()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The underlying module (for end-of-experiment inspection).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Mutable access to the module (tests, fault injection).
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// Consumes the controller, returning the module.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// Fills the whole device with a byte pattern (also used to arm
    /// flip-scanning).
    pub fn fill(&mut self, byte: u8) {
        self.module.fill_all(byte);
    }

    /// Reads a word, advancing time and servicing refreshes.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] for invalid addresses.
    pub fn read(&mut self, bank: usize, row: usize, word: usize) -> Result<u64, CtrlError> {
        self.access(bank, row)?;
        self.stats.reads += 1;
        let value = self.module.read_word(bank, row, word)?;
        self.emit(CommandOrigin::Request, MemCommand::Rd { bank, row, word });
        Ok(value)
    }

    /// Reads `word` of `(bank, row)` until simulated time reaches
    /// `target_ns` — a refresh-synchronized kernel's spin. Defined as
    /// exactly `while now_ns < target_ns { read(bank, row, word)? }`:
    /// the same stats, clock, request log, observer events and device
    /// state. A run of open-row hits costs O(1) when nothing can tell
    /// the hits apart: no observer consumes [`CommandOrigin::Request`]
    /// events, the page policy is [`PagePolicy::Open`], and the run ends
    /// before the next refresh tick.
    ///
    /// # Errors
    ///
    /// Returns the first failing read's [`CtrlError`], leaving the state
    /// that read left.
    pub fn read_until(
        &mut self,
        bank: usize,
        row: usize,
        word: usize,
        target_ns: u64,
    ) -> Result<(), CtrlError> {
        let bulk = self.config.page_policy == PagePolicy::Open
            && !self.observers.consumes(CommandOrigin::Request)
            && self.lat.cl > 0;
        while self.now_ns < target_ns {
            // Opens the row (or hits it), servicing any refresh due.
            self.read(bank, row, word)?;
            let end = target_ns.min(self.refresh.next_due_ns());
            if bulk && self.now_ns < end {
                self.open_row_hits(bank, row, word, (end - self.now_ns).div_ceil(self.lat.cl));
            }
        }
        Ok(())
    }

    /// Writes a word, advancing time and servicing refreshes.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] for invalid addresses.
    pub fn write(
        &mut self,
        bank: usize,
        row: usize,
        word: usize,
        value: u64,
    ) -> Result<(), CtrlError> {
        self.access(bank, row)?;
        self.stats.writes += 1;
        self.module.write_word(bank, row, word, value)?;
        self.emit(CommandOrigin::Request, MemCommand::Wr { bank, row, word, value });
        Ok(())
    }

    /// Opens `row` (if not already open) without transferring data — the
    /// bare "hammer" primitive: an attacker's cache-bypassing access.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] for invalid addresses.
    pub fn touch(&mut self, bank: usize, row: usize) -> Result<(), CtrlError> {
        self.access(bank, row)?;
        self.emit(CommandOrigin::Request, MemCommand::Act { bank, row });
        Ok(())
    }

    /// Issues one typed command — the entry point trace replay drives.
    /// `Act` maps to [`Self::touch`], `Rd`/`Wr` to read/write (the read
    /// value is returned), `Pre` closes the bank's open row, and
    /// `Ref`/`RefRow` refresh the addressed row immediately.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] for invalid addresses.
    pub fn issue(&mut self, cmd: MemCommand) -> Result<Option<u64>, CtrlError> {
        match cmd {
            MemCommand::Act { bank, row } => {
                self.touch(bank, row)?;
                Ok(None)
            }
            MemCommand::Rd { bank, row, word } => self.read(bank, row, word).map(Some),
            MemCommand::Wr { bank, row, word, value } => {
                self.write(bank, row, word, value)?;
                Ok(None)
            }
            MemCommand::Pre { bank, .. } => {
                self.close_row(bank)?;
                Ok(None)
            }
            MemCommand::Ref { bank, row } | MemCommand::RefRow { bank, row } => {
                self.module.refresh_row(bank, row, self.now_ns)?;
                self.emit(CommandOrigin::Request, MemCommand::RefRow { bank, row });
                Ok(None)
            }
        }
    }

    /// Closes `bank`'s open row, if any (explicit precharge request).
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] for an invalid bank.
    pub fn close_row(&mut self, bank: usize) -> Result<(), CtrlError> {
        self.check_bank(bank)?;
        if let Some(row) = self.open_rows[bank] {
            self.now_ns += self.lat.rp;
            self.module.precharge(bank)?;
            self.open_rows[bank] = None;
            self.emit(CommandOrigin::Controller, MemCommand::Pre { bank, row });
        }
        Ok(())
    }

    /// Advances idle time to `target_ns`, servicing refreshes on the way.
    pub fn advance_to(&mut self, target_ns: u64) {
        if target_ns > self.now_ns {
            self.now_ns = target_ns;
            self.service_refresh();
        }
    }

    /// Scans the whole device against the last fill pattern and returns
    /// the flipped cells. Physical-row addressing.
    pub fn scan_flips(&mut self) -> Vec<FlipRecord> {
        let now = self.now_ns;
        let mut out = Vec::new();
        for b in 0..self.module.bank_count() {
            for addr in self.module.bank_mut(b).scan_flips_from_fill(now) {
                out.push(FlipRecord { bank: b, addr });
            }
        }
        out
    }

    /// Counts the flipped cells in the physical rows `victims` of `bank`
    /// against the last fill pattern: the number of [`Self::scan_flips`]
    /// records in those rows, without building the records. Every row
    /// of every bank is committed in scan order, so the device (its RNG
    /// included) ends exactly as after a scan.
    ///
    /// # Panics
    ///
    /// Panics if the device was never filled (as [`Self::scan_flips`]).
    pub fn victim_flips(&mut self, bank: usize, victims: &[usize]) -> usize {
        let now = self.now_ns;
        let mut flips = 0;
        for b in 0..self.module.bank_count() {
            let device = self.module.bank_mut(b);
            for row in 0..device.geometry().rows() {
                let n = device.count_flips_from_fill(row, now);
                if b == bank && victims.contains(&row) {
                    flips += n;
                }
            }
        }
        flips
    }

    // ----- internals ---------------------------------------------------

    fn check_bank(&self, bank: usize) -> Result<(), CtrlError> {
        if bank >= self.open_rows.len() {
            return Err(CtrlError::Device(densemem_dram::DramError::BankOutOfRange {
                bank,
                banks: self.open_rows.len(),
            }));
        }
        Ok(())
    }

    /// Announces one event to the observer chain. Commands the chain
    /// injects (targeted refreshes) have already been executed against
    /// the module; they are re-announced as [`CommandOrigin::Mitigation`]
    /// events one level deep — injections triggered *by* a mitigation
    /// event are executed but not re-announced, which bounds the fan-out.
    /// An event of an origin no observer consumes is counted (and
    /// logged, for a request) but never built for the chain.
    fn emit(&mut self, origin: CommandOrigin, cmd: MemCommand) {
        self.stats.commands_emitted += 1;
        if origin == CommandOrigin::Request {
            if let Some(log) = &mut self.req_log {
                log.push(TraceEvent { at_ns: self.now_ns, origin, cmd });
            }
        }
        if !self.observers.consumes(origin) {
            return;
        }
        let event = TraceEvent { at_ns: self.now_ns, origin, cmd };
        let injected = {
            let Self { module, observers, stats, now_ns, .. } = self;
            let mut ctx = ObserverCtx::new(module, stats, *now_ns);
            observers.dispatch(&event, &mut ctx);
            ctx.take_emitted()
        };
        for cmd in injected {
            self.stats.commands_emitted += 1;
            let event = TraceEvent { at_ns: self.now_ns, origin: CommandOrigin::Mitigation, cmd };
            let Self { module, observers, stats, now_ns, .. } = self;
            let mut ctx = ObserverCtx::new(module, stats, *now_ns);
            observers.dispatch(&event, &mut ctx);
        }
    }

    /// `hits` reads of `(bank, row)`, already open, none of which has a
    /// refresh due or an observer to tell: the counters, clock and
    /// request log the reads leave, without issuing them one by one.
    fn open_row_hits(&mut self, bank: usize, row: usize, word: usize, hits: u64) {
        let (start, cl) = (self.now_ns, self.lat.cl);
        self.now_ns += hits * cl;
        self.stats.row_hits += hits;
        self.stats.reads += hits;
        self.stats.commands_emitted += hits;
        if let Some(log) = &mut self.req_log {
            let (origin, cmd) = (CommandOrigin::Request, MemCommand::Rd { bank, row, word });
            log.extend((1..=hits).map(|i| TraceEvent { at_ns: start + i * cl, origin, cmd }));
        }
    }

    /// Performs the row-buffer management for an access to `(bank, row)`.
    fn access(&mut self, bank: usize, row: usize) -> Result<(), CtrlError> {
        self.service_refresh();
        let lat = self.lat;
        self.check_bank(bank)?;
        match self.open_rows[bank] {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.now_ns += lat.cl;
            }
            other => {
                if let Some(old) = other {
                    // Close the old row; the PRE event is the
                    // mitigations' precharge hook.
                    self.stats.row_conflicts += 1;
                    self.now_ns += lat.rp;
                    self.module.precharge(bank)?;
                    self.emit(CommandOrigin::Controller, MemCommand::Pre { bank, row: old });
                }
                // Enforce tRC: same-bank activations cannot be closer than
                // t_rc apart — this is what bounds a hammering attacker's
                // per-window activation budget.
                let act_time = self.now_ns.max(self.last_act_ns[bank] + lat.rc);
                self.module.activate(bank, row, act_time)?;
                self.last_act_ns[bank] = act_time;
                self.stats.activations += 1;
                self.now_ns = act_time + lat.rcd_cl;
                self.open_rows[bank] = Some(row);
                self.emit(CommandOrigin::Controller, MemCommand::Act { bank, row });
            }
        }
        if self.config.page_policy == PagePolicy::Closed {
            // Auto-precharge: close the row right away (with its PRE
            // event for the mitigations).
            self.now_ns += lat.rp;
            self.module.precharge(bank)?;
            self.open_rows[bank] = None;
            self.emit(CommandOrigin::Controller, MemCommand::Pre { bank, row });
        }
        Ok(())
    }

    /// Refreshes every row that came due before `now` in every bank.
    fn service_refresh(&mut self) {
        if self.now_ns < self.refresh.next_due_ns() {
            return;
        }
        // Collect due rows first (the engine iterator borrows mutably).
        let due: Vec<usize> = self.refresh.due_rows(self.now_ns).collect();
        let windows = self.refresh.windows_completed();
        for row in due {
            for bank in 0..self.module.bank_count() {
                if self.module.refresh_row(bank, row, self.now_ns).is_ok() {
                    self.stats.auto_refresh_rows += 1;
                }
                self.emit(CommandOrigin::Controller, MemCommand::Ref { bank, row });
            }
        }
        if windows > self.windows_seen {
            self.windows_seen = windows;
            self.observers.window_reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::{Cra, Para};
    use crate::trace::TraceReplayer;
    use densemem_dram::module::RowRemap;
    use densemem_dram::{BankGeometry, Manufacturer, VintageProfile};

    fn controller(mult: f64, mitigation: Option<Box<dyn CommandObserver>>) -> MemoryController {
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 21);
        let cfg = ControllerConfig { refresh_multiplier: mult, ..Default::default() };
        let c = MemoryController::new(module, cfg);
        match mitigation {
            Some(m) => c.with_mitigation(m),
            None => c,
        }
    }

    fn hammer(ctrl: &mut MemoryController, a: usize, b: usize, iters: usize) {
        for _ in 0..iters {
            ctrl.touch(0, a).unwrap();
            ctrl.touch(0, b).unwrap();
        }
    }

    /// Flips outside the aggressor rows themselves (which the tests filled
    /// with the inverse pattern to create data-pattern stress).
    fn victim_flips(ctrl: &mut MemoryController, aggressors: &[usize]) -> Vec<(usize, usize)> {
        ctrl.scan_flips()
            .into_iter()
            .filter(|f| !aggressors.contains(&f.row()))
            .map(|f| (f.bank, f.row()))
            .collect()
    }

    #[test]
    fn read_write_roundtrip_and_time_advances() {
        let mut c = controller(1.0, None);
        c.write(0, 5, 3, 77).unwrap();
        let t1 = c.now_ns();
        assert_eq!(c.read(0, 5, 3).unwrap(), 77);
        assert!(c.now_ns() > t1);
        assert_eq!(c.stats().row_hits, 1, "second access hits the open row");
    }

    #[test]
    fn hammering_without_mitigation_flips_bits() {
        let mut c = controller(1.0, None);
        c.fill(0xFF);
        // Stress pattern on the aggressors.
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        hammer(&mut c, 100, 102, 700_000);
        let flips = victim_flips(&mut c, &[100, 102]);
        assert!(!flips.is_empty(), "unmitigated hammering should flip bits");
        // Flips concentrate on neighbours of the aggressors.
        assert!(flips.iter().all(|&(_, row)| (98..=104).contains(&row)));
    }

    #[test]
    fn para_stops_the_same_attack() {
        let mut c = controller(1.0, Some(Box::new(Para::new(0.002, 5).unwrap())));
        c.fill(0xFF);
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        hammer(&mut c, 100, 102, 700_000);
        assert!(victim_flips(&mut c, &[100, 102]).is_empty(), "PARA should prevent all flips");
        // Overhead is tiny.
        assert!(c.stats().mitigation_overhead() < 0.01);
    }

    #[test]
    fn cra_stops_the_attack_with_storage_cost() {
        let mut c = controller(1.0, Some(Box::new(Cra::new(50_000).unwrap())));
        c.fill(0xFF);
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        hammer(&mut c, 100, 102, 700_000);
        assert!(victim_flips(&mut c, &[100, 102]).is_empty(), "CRA should prevent all flips");
        assert!(c.mitigation_storage_bits() > 0);
    }

    #[test]
    fn seven_x_refresh_stops_the_attack_without_mitigation() {
        let mut c = controller(7.0, None);
        c.fill(0xFF);
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        hammer(&mut c, 100, 102, 700_000);
        assert!(
            victim_flips(&mut c, &[100, 102]).is_empty(),
            "7x refresh should prevent all flips"
        );
        // ... at the cost of 7x the refresh work.
        let c1 = controller(1.0, None);
        let _ = c1;
    }

    #[test]
    fn refresh_happens_during_idle_advance() {
        let mut c = controller(1.0, None);
        c.advance_to(64_000_000); // one full window
        assert!(c.stats().auto_refresh_rows >= 1024, "all rows refreshed in a window");
    }

    #[test]
    fn closed_page_enables_single_address_hammering() {
        // On a closed-page controller every access re-activates, so a
        // single repeatedly-read address disturbs its neighbours.
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let mut module =
            Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 77);
        module
            .bank_mut(0)
            .inject_disturb_cell(
                densemem_dram::BitAddr { row: 101, word: 0, bit: 0 },
                200_000.0,
            )
            .unwrap();
        let cfg = ControllerConfig {
            page_policy: crate::controller::PagePolicy::Closed,
            ..Default::default()
        };
        let mut c = MemoryController::new(module, cfg);
        c.fill(0xFF);
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        for _ in 0..1_400_000 {
            c.touch(0, 100).unwrap();
        }
        let flips = victim_flips(&mut c, &[100]);
        assert!(!flips.is_empty(), "single-address closed-page hammering should flip");

        // The same single-address loop on an open-page controller is all
        // row hits: zero activations after the first, zero flips.
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let mut module2 =
            Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 77);
        module2
            .bank_mut(0)
            .inject_disturb_cell(
                densemem_dram::BitAddr { row: 101, word: 0, bit: 0 },
                200_000.0,
            )
            .unwrap();
        let mut c2 = MemoryController::new(module2, ControllerConfig::default());
        c2.fill(0xFF);
        c2.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        for _ in 0..1_400_000 {
            c2.touch(0, 100).unwrap();
        }
        assert_eq!(c2.stats().activations, 1, "open page: one activation total");
        assert!(victim_flips(&mut c2, &[100]).is_empty());
    }

    #[test]
    fn invalid_bank_is_rejected() {
        let mut c = controller(1.0, None);
        assert!(c.read(5, 0, 0).is_err());
        assert!(c.touch(0, 1 << 30).is_err());
    }

    #[test]
    fn recorded_trace_replays_to_identical_flips() {
        let make = || {
            let profile = VintageProfile::new(Manufacturer::A, 2013);
            let mut module =
                Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 33);
            module
                .bank_mut(0)
                .inject_disturb_cell(
                    densemem_dram::BitAddr { row: 101, word: 0, bit: 4 },
                    250_000.0,
                )
                .unwrap();
            let mut c = MemoryController::new(module, ControllerConfig::default());
            c.fill(0xFF);
            c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
            c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
            c
        };
        let mut live = make();
        let handle = live.record_trace(usize::MAX, TraceFilter::Requests);
        hammer(&mut live, 100, 102, 400_000);
        let live_flips = live.scan_flips();
        assert!(!live_flips.is_empty(), "the recorded attack must flip");
        let trace = handle.snapshot("unit", 33);
        assert_eq!(trace.len() as u64, 800_000);

        let mut replayed = make();
        let report = TraceReplayer::new(&trace).replay(&mut replayed).unwrap();
        assert_eq!(report.replayed, 800_000);
        assert_eq!(replayed.scan_flips(), live_flips, "replay must be bit-identical");
        assert_eq!(replayed.now_ns(), live.now_ns(), "replay reproduces timing too");
    }

    #[test]
    fn request_log_matches_filtered_recorder() {
        // The lock-free request log must produce the exact trace an
        // unbounded Requests-filtered recorder produces — label, seed,
        // filter, drop count, and every event.
        let mut c = controller(1.0, None);
        let handle = c.record_trace(usize::MAX, TraceFilter::Requests);
        c.begin_request_log();
        c.fill(0xFF);
        hammer(&mut c, 100, 102, 5_000);
        c.write(0, 7, 0, 0xBEEF).unwrap();
        c.read(0, 7, 0).unwrap();
        c.issue(MemCommand::Ref { bank: 0, row: 5 }).unwrap();
        let fast = c.take_request_log("unit", 21);
        let slow = handle.snapshot("unit", 21);
        assert!(!fast.is_empty());
        assert_eq!(fast, slow);
        // Taking disarms the log: nothing further is recorded.
        c.touch(0, 100).unwrap();
        assert!(c.take_request_log("again", 21).events.is_empty());
    }

    #[test]
    fn mitigation_name_reflects_the_chain() {
        let mut c = controller(1.0, Some(Box::new(Para::new(0.001, 5).unwrap())));
        assert_eq!(c.mitigation_name(), "PARA");
        c.record_trace(16, TraceFilter::All);
        assert_eq!(c.mitigation_name(), "PARA+trace-recorder");
        c.set_mitigation(Box::new(crate::mitigation::NoMitigation));
        assert_eq!(c.mitigation_name(), "none");
    }

    #[test]
    fn issue_covers_every_command_kind() {
        let mut c = controller(1.0, None);
        c.fill(0xFF);
        assert_eq!(
            c.issue(MemCommand::Rd { bank: 0, row: 7, word: 0 }).unwrap(),
            Some(u64::MAX)
        );
        c.issue(MemCommand::Wr { bank: 0, row: 7, word: 0, value: 5 }).unwrap();
        assert_eq!(c.read(0, 7, 0).unwrap(), 5);
        c.issue(MemCommand::Act { bank: 0, row: 9 }).unwrap();
        c.issue(MemCommand::Pre { bank: 0, row: 9 }).unwrap();
        c.issue(MemCommand::Ref { bank: 0, row: 9 }).unwrap();
        assert!(c.issue(MemCommand::Act { bank: 5, row: 0 }).is_err());
        assert!(c.stats().commands_emitted > 0);
    }
}
