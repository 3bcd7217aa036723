//! RowHammer mitigations (§II-C of the paper), as command-stream
//! middleware.
//!
//! Every mitigation is a [`CommandObserver`] watching the controller's
//! derived device commands ([`CommandOrigin::Controller`] events) —
//! exactly the vantage point of its hardware counterpart — and issuing
//! targeted neighbour refreshes through [`ObserverCtx`]:
//!
//! * [`NoMitigation`] — baseline (an inert observer).
//! * [`Para`] — the paper's preferred long-term solution: on each row
//!   close (PRE), refresh the adjacent rows with a small probability
//!   `p`. Zero storage; overhead `≈ 2p` extra refreshes per activation.
//! * [`Cra`] — counter-based accurate identification (the paper's sixth
//!   long-term countermeasure): per-row activation counters trigger
//!   neighbour refresh at a threshold. Effective, but the counters cost
//!   storage proportional to the number of rows.
//! * [`TrrSampler`] — a sampling target-row-refresh: probabilistically
//!   record recent aggressors (on ACT) and refresh their neighbours on
//!   the next auto-refresh tick (REF). Models the in-DRAM TRR the
//!   paper's DDR4 discussion alludes to (and that later work showed to
//!   be incomplete).
//! * [`InDramTrr`] — a DDR4-style Misra–Gries heavy-hitter tracker,
//!   evadable by many-sided patterns (experiment E15).
//! * [`ParaLogicalGuess`] — PARA guessing logical ±1 adjacency, the
//!   failure mode on remapped devices (experiment E16).
//! * [`Graphene`] — a [`MisraGries`] frequent-row summary checked on
//!   every activation, with a provable protection bound.
//! * [`OracleRh`] — exact per-row exposure tracking with victim refresh
//!   just below the threshold: the cost lower bound every real defence
//!   is measured against (experiment E26).
//! * [`Stack`] — fans every event out to several children.
//!
//! Every mitigation is also registered by name in [`registry`], the
//! string-keyed plugin registry (`name:key=val,...` specs with typed
//! parameter schemas) that the experiment CLI, the trace-replay kit and
//! the serving layer construct mitigations through.
//!
//! The old bespoke `Mitigation` hook trait is gone; `Mitigation` is
//! re-exported as an alias of [`CommandObserver`] so existing
//! `Box<dyn Mitigation>` signatures keep reading naturally. The
//! stranded `CommandEvent`/`CommandKind`/`CommandLog` trio moved to
//! [`crate::trace`] ([`MemCommand`] subsumes the kind enum;
//! [`crate::trace::CommandLog`] records full [`TraceEvent`]s).

use crate::trace::{
    CommandObserver, CommandOrigin, MemCommand, ObserverCtx, TraceEvent, TraceFilter,
};
use densemem_dram::VintageProfile;
use densemem_stats::dist::Bernoulli;
use densemem_stats::rng::substream;
use rand::rngs::StdRng;
use std::collections::HashMap;

pub mod registry;

/// Mitigations are command observers; the old trait name remains as an
/// alias for readability at call sites (`Box<dyn Mitigation>`).
pub use crate::trace::CommandObserver as Mitigation;

/// Baseline: no mitigation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl CommandObserver for NoMitigation {
    fn name(&self) -> &'static str {
        "none"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, _event: &TraceEvent, _ctx: &mut ObserverCtx<'_>) {}
}

/// PARA: Probabilistic Adjacent Row Activation.
///
/// # Examples
///
/// ```
/// use densemem_ctrl::mitigation::Para;
/// let para = Para::new(0.001, 7).unwrap();
/// assert_eq!(para.probability(), 0.001);
/// ```
#[derive(Debug)]
pub struct Para {
    bern: Bernoulli,
    rng: StdRng,
}

impl Para {
    /// Creates PARA with per-precharge neighbour-refresh probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] unless `0 <= p <= 1`.
    pub fn new(p: f64, seed: u64) -> Result<Self, crate::CtrlError> {
        let bern =
            Bernoulli::new(p).map_err(|_| crate::CtrlError::InvalidConfig("p must be in [0,1]"))?;
        Ok(Self { bern, rng: substream(seed, 0x9A2A) })
    }

    /// The configured probability.
    pub fn probability(&self) -> f64 {
        self.bern.p()
    }

    /// Probability that a victim survives `n` aggressor activations
    /// without any neighbour refresh: `(1-p)^n`. With the minimum hammer
    /// threshold `n ≥ 190K` and `p = 0.001` this is `< 10⁻⁸²` — the
    /// paper's "stronger than hard-disk reliability" guarantee.
    pub fn survival_probability(p: f64, n: f64) -> f64 {
        (n * (1.0 - p).ln()).exp()
    }
}

impl CommandObserver for Para {
    fn name(&self) -> &'static str {
        "PARA"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        if let MemCommand::Pre { bank, row } = event.cmd {
            if self.bern.sample(&mut self.rng) {
                ctx.stats.mitigation_triggers += 1;
                ctx.refresh_neighbors(bank, row);
            }
        }
    }
}

/// CRA: per-row activation counters with a trigger threshold.
#[derive(Debug)]
pub struct Cra {
    threshold: u64,
    counter_bits: u8,
    counters: HashMap<(usize, usize), u64>,
}

impl Cra {
    /// Creates CRA triggering neighbour refresh after `threshold`
    /// activations of a row within one refresh window.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if `threshold == 0`.
    pub fn new(threshold: u64) -> Result<Self, crate::CtrlError> {
        if threshold == 0 {
            return Err(crate::CtrlError::InvalidConfig("threshold must be > 0"));
        }
        // Counter width must hold the threshold.
        let counter_bits = (64 - threshold.leading_zeros()).max(1) as u8;
        Ok(Self { threshold, counter_bits, counters: HashMap::new() })
    }

    /// The trigger threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl CommandObserver for Cra {
    fn name(&self) -> &'static str {
        "CRA"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        if let MemCommand::Act { bank, row } = event.cmd {
            let c = self.counters.entry((bank, row)).or_insert(0);
            *c += 1;
            if *c >= self.threshold {
                *c = 0;
                ctx.stats.mitigation_triggers += 1;
                ctx.refresh_neighbors(bank, row);
            }
        }
    }

    fn on_window_reset(&mut self) {
        self.counters.clear();
    }

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        // A dedicated counter per row per bank — the "very large hardware
        // area" cost the paper calls out.
        rows as u64 * banks as u64 * u64::from(self.counter_bits)
    }
}

/// Sampling TRR: probabilistically captures aggressor rows and refreshes
/// their neighbours at the next auto-refresh tick.
#[derive(Debug)]
pub struct TrrSampler {
    sample: Bernoulli,
    table_size: usize,
    table: Vec<(usize, usize)>,
    rng: StdRng,
}

impl TrrSampler {
    /// Creates a sampler that records each activation with probability
    /// `sample_p` into a table of `table_size` entries.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] for an invalid
    /// probability or a zero table.
    pub fn new(sample_p: f64, table_size: usize, seed: u64) -> Result<Self, crate::CtrlError> {
        let sample = Bernoulli::new(sample_p)
            .map_err(|_| crate::CtrlError::InvalidConfig("sample_p must be in [0,1]"))?;
        if table_size == 0 {
            return Err(crate::CtrlError::InvalidConfig("table_size must be > 0"));
        }
        Ok(Self { sample, table_size, table: Vec::new(), rng: substream(seed, 0x7227) })
    }

    /// Entries currently captured.
    pub fn captured(&self) -> usize {
        self.table.len()
    }
}

impl CommandObserver for TrrSampler {
    fn name(&self) -> &'static str {
        "TRR-sampler"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        match event.cmd {
            MemCommand::Act { bank, row } if self.sample.sample(&mut self.rng) => {
                if self.table.len() == self.table_size {
                    self.table.remove(0);
                }
                self.table.push((bank, row));
            }
            MemCommand::Ref { .. } => {
                // Serve one captured aggressor per refresh tick.
                if let Some((bank, row)) = self.table.pop() {
                    ctx.stats.mitigation_triggers += 1;
                    ctx.refresh_neighbors(bank, row);
                }
            }
            _ => {}
        }
    }

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        let row_bits = (usize::BITS - rows.leading_zeros()) as u64;
        let bank_bits = (usize::BITS - banks.leading_zeros()) as u64;
        self.table_size as u64 * (row_bits + bank_bits)
    }
}

/// A DDR4-style in-DRAM TRR: a small Misra–Gries heavy-hitter table over
/// recent aggressors; on each auto-refresh tick, the most-counted entry
/// above a confidence threshold gets its neighbours refreshed.
///
/// This models the deterministic in-DRAM TRR the paper's DDR4 discussion
/// alludes to — effective against the classic one/two-aggressor patterns,
/// but *evadable*: with more concurrent aggressors than table entries the
/// Misra–Gries counters are decremented back to zero before any entry
/// reaches the firing threshold, so the mitigation never engages
/// (experiment E15; later known publicly from the TRRespass work).
#[derive(Debug)]
pub struct InDramTrr {
    table_size: usize,
    fire_threshold: u64,
    table: HashMap<(usize, usize), u64>,
}

impl InDramTrr {
    /// Creates the TRR with `table_size` tracked aggressors and a firing
    /// confidence of `fire_threshold` counted activations.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if either parameter is
    /// zero.
    pub fn new(table_size: usize, fire_threshold: u64) -> Result<Self, crate::CtrlError> {
        if table_size == 0 {
            return Err(crate::CtrlError::InvalidConfig("table_size must be > 0"));
        }
        if fire_threshold == 0 {
            return Err(crate::CtrlError::InvalidConfig("fire_threshold must be > 0"));
        }
        Ok(Self { table_size, fire_threshold, table: HashMap::new() })
    }

    /// A DDR4-representative configuration: 4 entries, fire at 32.
    pub fn ddr4_like() -> Self {
        Self { table_size: 4, fire_threshold: 32, table: HashMap::new() }
    }

    /// Entries currently tracked.
    pub fn tracked(&self) -> usize {
        self.table.len()
    }
}

impl CommandObserver for InDramTrr {
    fn name(&self) -> &'static str {
        "in-DRAM TRR"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        match event.cmd {
            MemCommand::Act { bank, row } => {
                let key = (bank, row);
                // Misra–Gries heavy-hitter update.
                if let Some(c) = self.table.get_mut(&key) {
                    *c += 1;
                } else if self.table.len() < self.table_size {
                    self.table.insert(key, 1);
                } else {
                    self.table.retain(|_, c| {
                        *c -= 1;
                        *c > 0
                    });
                }
            }
            MemCommand::Ref { .. } => {
                // The most-counted entry; a count tie goes to the smallest
                // (bank, row), never to the table's hash order.
                let candidate = self
                    .table
                    .iter()
                    .max_by(|(ka, ca), (kb, cb)| ca.cmp(cb).then(kb.cmp(ka)))
                    .filter(|(_, &c)| c >= self.fire_threshold)
                    .map(|(&k, _)| k);
                if let Some((bank, row)) = candidate {
                    self.table.insert((bank, row), 1);
                    ctx.stats.mitigation_triggers += 1;
                    ctx.refresh_neighbors(bank, row);
                }
            }
            _ => {}
        }
    }

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        let row_bits = (usize::BITS - rows.leading_zeros()) as u64;
        let bank_bits = (usize::BITS - banks.leading_zeros()) as u64;
        // Key plus a 16-bit counter per entry.
        self.table_size as u64 * (row_bits + bank_bits + 16)
    }
}

/// PARA variant that guesses adjacency as logical ± 1 (ignorant of the
/// device's internal remapping) — what a controller must do when the
/// device does not disclose adjacency through the SPD ROM. On a
/// remapped device it refreshes the wrong rows (experiment E16).
#[derive(Debug)]
pub struct ParaLogicalGuess {
    bern: Bernoulli,
    rng: StdRng,
}

impl ParaLogicalGuess {
    /// Creates the guesser with per-precharge refresh probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] unless `0 <= p <= 1`.
    pub fn new(p: f64, seed: u64) -> Result<Self, crate::CtrlError> {
        let bern =
            Bernoulli::new(p).map_err(|_| crate::CtrlError::InvalidConfig("p must be in [0,1]"))?;
        Ok(Self { bern, rng: substream(seed, 0x16) })
    }
}

impl CommandObserver for ParaLogicalGuess {
    fn name(&self) -> &'static str {
        "PARA (logical-adjacency guess)"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        let MemCommand::Pre { bank, row } = event.cmd else { return };
        if self.bern.sample(&mut self.rng) {
            ctx.stats.mitigation_triggers += 1;
            // Refresh logical neighbours — which are NOT the physical
            // neighbours on a remapped device.
            for n in [row.checked_sub(1), Some(row + 1)].into_iter().flatten() {
                ctx.refresh_row(bank, n);
            }
        }
    }
}

/// OracleRH: the cost lower bound on RowHammer defence (modelled after
/// ramulator2's `oracle_rh` controller plugin).
///
/// The oracle tracks the *exact* disturbance exposure of every row —
/// the same nearest-neighbour (weight 1) plus second-nearest
/// ([`VintageProfile::DISTANCE2_COUPLING`]) accumulation the device
/// model integrates — and refreshes a victim row the moment its
/// accumulated exposure reaches `threshold - 2`. Because the device
/// resets a row's exposure at every refresh of that row (scheduled or
/// targeted) while the oracle only resets its accumulator on its own
/// fires, the accumulator is a per-row *upper bound* on the device's
/// true exposure; firing two activations early therefore guarantees no
/// cell with the nominal threshold ever flips, at the minimum possible
/// number of targeted refreshes (no refresh is spent on a row that was
/// not actually approaching its threshold).
///
/// The oracle assumes disclosed adjacency (it indexes by row number, so
/// remapped devices would need the SPD map the paper proposes — the
/// frontier experiment runs on identity-mapped modules).
#[derive(Debug)]
pub struct OracleRh {
    threshold: u64,
    fire_at: f64,
    exposure: HashMap<(usize, usize), f64>,
}

impl OracleRh {
    /// Creates the oracle for a device whose weakest cells flip at
    /// `threshold` accumulated aggressor activations.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if `threshold < 3`
    /// (the oracle fires at `threshold - 2`, which must stay positive).
    pub fn new(threshold: u64) -> Result<Self, crate::CtrlError> {
        if threshold < 3 {
            return Err(crate::CtrlError::InvalidConfig("threshold must be >= 3"));
        }
        Ok(Self { threshold, fire_at: threshold as f64 - 2.0, exposure: HashMap::new() })
    }

    /// The device hammer threshold the oracle protects against.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl CommandObserver for OracleRh {
    fn name(&self) -> &'static str {
        "OracleRH"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        let MemCommand::Act { bank, row } = event.cmd else { return };
        let doses = [
            (row.checked_sub(1), 1.0),
            (row.checked_add(1), 1.0),
            (row.checked_sub(2), VintageProfile::DISTANCE2_COUPLING),
            (row.checked_add(2), VintageProfile::DISTANCE2_COUPLING),
        ];
        for (victim, dose) in doses {
            let Some(victim) = victim else { continue };
            let e = self.exposure.entry((bank, victim)).or_insert(0.0);
            *e += dose;
            if *e >= self.fire_at {
                *e = 0.0;
                ctx.stats.mitigation_triggers += 1;
                // Exactly the endangered row — not its neighbourhood.
                ctx.refresh_row(bank, victim);
            }
        }
    }

    // No on_window_reset: the device resets per-row exposure at each
    // row's own refresh slot, not at window completion, so clearing here
    // would *underestimate* exposure and break the safety bound. Keeping
    // the accumulator monotone between fires only errs conservative.

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        // An exact per-row counter — even costlier than CRA's, which is
        // why the oracle is a cost bound rather than a proposal.
        rows as u64 * banks as u64 * 32
    }
}

/// A Misra–Gries frequent-item summary over `(bank, row)` keys.
///
/// With capacity `k`, after observing `n` keys any key whose true
/// occurrence count exceeds `n / (k + 1)` is guaranteed to be present
/// in the summary, and a present key's stored count undercounts its
/// true count by at most `n / (k + 1)` — the classic heavy-hitter
/// guarantee Graphene builds on.
///
/// # Examples
///
/// ```
/// use densemem_ctrl::mitigation::MisraGries;
/// let mut mg = MisraGries::new(2).unwrap();
/// for _ in 0..10 {
///     mg.observe((0, 7));
/// }
/// assert!(mg.contains((0, 7)));
/// assert!(mg.count((0, 7)) <= 10);
/// ```
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    counts: HashMap<(usize, usize), u64>,
}

impl MisraGries {
    /// Creates a summary tracking at most `capacity` keys.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, crate::CtrlError> {
        if capacity == 0 {
            return Err(crate::CtrlError::InvalidConfig("capacity must be > 0"));
        }
        Ok(Self { capacity, counts: HashMap::new() })
    }

    /// Feeds one key occurrence into the summary.
    pub fn observe(&mut self, key: (usize, usize)) {
        if let Some(c) = self.counts.get_mut(&key) {
            *c += 1;
        } else if self.counts.len() < self.capacity {
            self.counts.insert(key, 1);
        } else {
            // Full and unseen: decrement every counter, dropping zeros
            // (the new key itself is not admitted).
            self.counts.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    /// The stored count for `key` (0 when absent; a lower bound on the
    /// true count).
    pub fn count(&self, key: (usize, usize)) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Whether `key` is currently tracked.
    pub fn contains(&self, key: (usize, usize)) -> bool {
        self.counts.contains_key(&key)
    }

    /// Resets a tracked key's count to 1 (no-op when absent).
    pub fn reset(&mut self, key: (usize, usize)) {
        if let Some(c) = self.counts.get_mut(&key) {
            *c = 1;
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every tracked key.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

/// Graphene (Park et al., MICRO 2020): a Misra–Gries frequent-row
/// summary at the controller; any row whose summary count reaches the
/// firing threshold gets its neighbours refreshed and its counter reset.
///
/// Unlike [`InDramTrr`] (which only acts on auto-refresh ticks from a
/// tiny table), Graphene checks on every activation, and the
/// Misra–Gries guarantee turns the table size into an explicit
/// protection bound: with table size `k` and firing threshold `t`, any
/// row activated more than `n/(k+1) + t` times in a window is refreshed.
#[derive(Debug)]
pub struct Graphene {
    tracker: MisraGries,
    threshold: u64,
}

impl Graphene {
    /// Creates Graphene with `table_size` tracked rows, firing a
    /// neighbour refresh when a row's summary count reaches `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if either parameter
    /// is zero.
    pub fn new(table_size: usize, threshold: u64) -> Result<Self, crate::CtrlError> {
        if threshold == 0 {
            return Err(crate::CtrlError::InvalidConfig("threshold must be > 0"));
        }
        Ok(Self { tracker: MisraGries::new(table_size)?, threshold })
    }

    /// The firing threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The underlying frequent-row summary (read-only).
    pub fn tracker(&self) -> &MisraGries {
        &self.tracker
    }
}

impl CommandObserver for Graphene {
    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn filter(&self) -> TraceFilter {
        TraceFilter::DeviceOnly
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        if event.origin != CommandOrigin::Controller {
            return;
        }
        let MemCommand::Act { bank, row } = event.cmd else { return };
        self.tracker.observe((bank, row));
        if self.tracker.count((bank, row)) >= self.threshold {
            self.tracker.reset((bank, row));
            ctx.stats.mitigation_triggers += 1;
            ctx.refresh_neighbors(bank, row);
        }
    }

    fn on_window_reset(&mut self) {
        self.tracker.clear();
    }

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        let row_bits = (usize::BITS - rows.leading_zeros()) as u64;
        let bank_bits = (usize::BITS - banks.leading_zeros()) as u64;
        // Key plus a 32-bit counter per entry (counts up to the hammer
        // threshold, beyond InDramTrr's 16-bit confidence counters).
        self.tracker.capacity() as u64 * (row_bits + bank_bits + 32)
    }
}

/// Composes several mitigations/observers: every event fans out to every
/// child in order. Lets a deployment run e.g. PARA *and* an ANVIL
/// detector, or stack a [`crate::trace::CommandLog`] onto any
/// mitigation. (The controller's own observer chain subsumes this for
/// most uses; `Stack` remains for treating a composition as one
/// replaceable unit.)
#[derive(Debug)]
pub struct Stack {
    children: Vec<Box<dyn CommandObserver>>,
}

impl Stack {
    /// Creates a stack from child mitigations (applied in order).
    pub fn new(children: Vec<Box<dyn CommandObserver>>) -> Self {
        Self { children }
    }
}

impl CommandObserver for Stack {
    fn name(&self) -> &'static str {
        "stack"
    }

    fn filter(&self) -> TraceFilter {
        // An empty stack observes nothing, so any filter is sound.
        self.children
            .iter()
            .map(|c| c.filter())
            .reduce(TraceFilter::union)
            .unwrap_or(TraceFilter::DeviceOnly)
    }

    fn observe(&mut self, event: &TraceEvent, ctx: &mut ObserverCtx<'_>) {
        for c in &mut self.children {
            c.observe(event, ctx);
        }
    }

    fn on_window_reset(&mut self) {
        for c in &mut self.children {
            c.on_window_reset();
        }
    }

    fn storage_bits(&self, rows: usize, banks: usize) -> u64 {
        self.children.iter().map(|c| c.storage_bits(rows, banks)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CtrlStats;
    use densemem_dram::module::RowRemap;
    use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};

    fn test_module() -> Module {
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 5)
    }

    fn controller_event(cmd: MemCommand) -> TraceEvent {
        TraceEvent { at_ns: 1, origin: CommandOrigin::Controller, cmd }
    }

    #[test]
    fn para_validates_probability() {
        assert!(Para::new(-0.1, 1).is_err());
        assert!(Para::new(1.1, 1).is_err());
        assert!(Para::new(0.5, 1).is_ok());
    }

    #[test]
    fn para_survival_probability_is_tiny_at_min_threshold() {
        let p = Para::survival_probability(0.001, 190_000.0);
        assert!(p < 1e-80, "survival {p}");
        // And still strong at p = 0.0001 for the weakest observed cells.
        let p2 = Para::survival_probability(0.0001, 190_000.0);
        assert!(p2 < 1e-8);
    }

    #[test]
    fn para_ignores_request_origin_events() {
        // A p=1 PARA must fire on every *controller* PRE and never on the
        // workload's request stream — mitigations watch device commands.
        let mut para = Para::new(1.0, 1).unwrap();
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        let req = TraceEvent {
            at_ns: 1,
            origin: CommandOrigin::Request,
            cmd: MemCommand::Pre { bank: 0, row: 10 },
        };
        para.observe(&req, &mut ctx);
        assert_eq!(stats.mitigation_triggers, 0);
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        para.observe(&controller_event(MemCommand::Pre { bank: 0, row: 10 }), &mut ctx);
        assert_eq!(stats.mitigation_triggers, 1);
        assert_eq!(stats.mitigation_refreshes, 2);
    }

    #[test]
    fn cra_storage_scales_with_rows() {
        let c = Cra::new(100_000).unwrap();
        let small = c.storage_bits(1024, 1);
        let large = c.storage_bits(32768, 8);
        assert!(large > small * 200);
        // 100k needs 17 bits.
        assert_eq!(small, 1024 * 17);
    }

    #[test]
    fn cra_rejects_zero_threshold() {
        assert!(Cra::new(0).is_err());
    }

    #[test]
    fn cra_counts_activations_and_fires_at_threshold() {
        let mut cra = Cra::new(3).unwrap();
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        for _ in 0..3 {
            let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
            cra.observe(&controller_event(MemCommand::Act { bank: 0, row: 10 }), &mut ctx);
        }
        assert_eq!(stats.mitigation_triggers, 1);
        cra.on_window_reset();
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        cra.observe(&controller_event(MemCommand::Act { bank: 0, row: 10 }), &mut ctx);
        assert_eq!(stats.mitigation_triggers, 1, "window reset cleared the counters");
    }

    #[test]
    fn trr_validates_and_reports_storage() {
        assert!(TrrSampler::new(2.0, 8, 1).is_err());
        assert!(TrrSampler::new(0.01, 0, 1).is_err());
        let t = TrrSampler::new(0.01, 16, 1).unwrap();
        assert!(t.storage_bits(1024, 2) > 0);
        assert!(t.storage_bits(1024, 2) < Cra::new(1000).unwrap().storage_bits(1024, 2));
    }

    #[test]
    fn trr_sampler_captures_on_act_and_serves_on_ref() {
        let mut trr = TrrSampler::new(1.0, 8, 1).unwrap();
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        trr.observe(&controller_event(MemCommand::Act { bank: 0, row: 10 }), &mut ctx);
        assert_eq!(trr.captured(), 1);
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        trr.observe(&controller_event(MemCommand::Ref { bank: 0, row: 500 }), &mut ctx);
        assert_eq!(trr.captured(), 0);
        assert_eq!(stats.mitigation_triggers, 1);
    }

    #[test]
    fn no_mitigation_has_no_storage() {
        assert_eq!(NoMitigation.storage_bits(32768, 8), 0);
        assert_eq!(NoMitigation.name(), "none");
    }

    #[test]
    fn stack_fans_out_and_sums_storage() {
        let s = Stack::new(vec![
            Box::new(Cra::new(1000).unwrap()),
            Box::new(TrrSampler::new(0.01, 8, 1).unwrap()),
        ]);
        let expected = Cra::new(1000).unwrap().storage_bits(1024, 2)
            + TrrSampler::new(0.01, 8, 1).unwrap().storage_bits(1024, 2);
        assert_eq!(s.storage_bits(1024, 2), expected);
        assert_eq!(s.name(), "stack");
    }

    #[test]
    fn in_dram_trr_validates_and_reports_storage() {
        assert!(InDramTrr::new(0, 32).is_err());
        assert!(InDramTrr::new(4, 0).is_err());
        let t = InDramTrr::ddr4_like();
        assert_eq!(t.tracked(), 0);
        assert!(t.storage_bits(65536, 8) < 512, "tiny table is the point");
    }

    #[test]
    fn misra_gries_validates_and_tracks() {
        assert!(MisraGries::new(0).is_err());
        let mut mg = MisraGries::new(2).unwrap();
        assert!(mg.is_empty());
        for _ in 0..5 {
            mg.observe((0, 1));
        }
        mg.observe((0, 2));
        // Table full: a third distinct key decrements everyone instead.
        mg.observe((0, 3));
        assert_eq!(mg.count((0, 1)), 4);
        assert!(!mg.contains((0, 2)), "count-1 entry decremented out");
        assert!(!mg.contains((0, 3)), "miss on a full table is not admitted");
        mg.reset((0, 1));
        assert_eq!(mg.count((0, 1)), 1);
        mg.clear();
        assert_eq!(mg.len(), 0);
    }

    #[test]
    fn graphene_fires_at_threshold_and_resets() {
        let mut g = Graphene::new(8, 3).unwrap();
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        for _ in 0..3 {
            let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
            g.observe(&controller_event(MemCommand::Act { bank: 0, row: 10 }), &mut ctx);
        }
        assert_eq!(stats.mitigation_triggers, 1);
        assert_eq!(stats.mitigation_refreshes, 2, "both neighbours refreshed");
        assert_eq!(g.tracker().count((0, 10)), 1, "fired entry reset to 1");
        g.on_window_reset();
        assert!(g.tracker().is_empty());
        assert!(Graphene::new(0, 3).is_err());
        assert!(Graphene::new(8, 0).is_err());
    }

    #[test]
    fn oracle_fires_just_below_threshold_on_the_victim_only() {
        // threshold 5 → fires when a row's accumulated exposure reaches 3.
        let mut o = OracleRh::new(5).unwrap();
        assert_eq!(o.threshold(), 5);
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        // Double-sided hammer of row 10: aggressors 9 and 11 each add 1.0
        // per activation pair, so the second pair's second ACT crosses 3.
        for _ in 0..2 {
            for agg in [9, 11] {
                let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
                o.observe(&controller_event(MemCommand::Act { bank: 0, row: agg }), &mut ctx);
            }
        }
        assert_eq!(stats.mitigation_triggers, 1);
        assert_eq!(stats.mitigation_refreshes, 1, "exactly the victim row, not neighbours");
        assert!(OracleRh::new(2).is_err());
    }

    #[test]
    fn para_logical_guess_refreshes_logical_neighbors() {
        let mut p = ParaLogicalGuess::new(1.0, 1).unwrap();
        let mut module = test_module();
        let mut stats = CtrlStats::default();
        let mut ctx = ObserverCtx::new(&mut module, &mut stats, 1);
        p.observe(&controller_event(MemCommand::Pre { bank: 0, row: 10 }), &mut ctx);
        assert_eq!(stats.mitigation_triggers, 1);
        assert_eq!(stats.mitigation_refreshes, 2);
        assert!(ParaLogicalGuess::new(1.5, 1).is_err());
    }
}
