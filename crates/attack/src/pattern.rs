//! Blacksmith/ZenHammer-class shaped hammering patterns.
//!
//! The uniform kernels in [`crate::kernels`] round-robin a fixed row set,
//! which deployed TRR samplers track well. What defeats them in practice
//! (TRRespass -> Blacksmith -> ZenHammer) is *non-uniform, refresh-
//! synchronized* patterns: each aggressor is given a phase, frequency and
//! amplitude over the tREFI window, so the act stream the sampler sees is
//! structured in time instead of flat. This module makes such patterns
//! first-class data:
//!
//! * [`ShapedPattern`] — an ordered list of aggressor slots composed over
//!   a period of `period` scheduling steps (the refresh-window analogue).
//!   Serializable to JSONL like trace artifacts, with a canonical form so
//!   semantically equal patterns share one [`ShapedPattern::digest`].
//! * [`ShapedKernel`] — lowers a pattern to the controller's
//!   [`MemCommand`] request stream (plain `Rd`s, exactly like the uniform
//!   kernels), so the trace layer records it and every mitigation plugin
//!   replays it unchanged.
//! * [`PatternBuilder`] — a seeded sampler over a bounded pattern space,
//!   the fuzzing front-end (experiment E27 drives it through
//!   `par_map_seeded`).
//!
//! # Slot semantics
//!
//! A slot `{row, phase, freq, amplitude}` fires at the `freq` consecutive
//! steps `phase, phase+1, …, phase+freq-1` (mod `period`); at each firing
//! it issues `amplitude` back-to-back accesses to its row (one activation
//! plus `amplitude - 1` row-buffer hits — amplitude shapes *time*, not
//! activation count). Steps no slot covers take no time at all, so the
//! period's wall-clock length is set purely by its firings; a pattern
//! whose firings sum to roughly one tREFI of activations repeats in lock
//! step with the refresh engine — the synchronization Blacksmith gets
//! from its REF side channel.
//!
//! The uniform kernels are the degenerate case: `period == 1`, every slot
//! `{phase: 0, freq: 1, amplitude: 1}` reproduces the many-sided
//! round-robin order bit-for-bit (see `uniform` / `from_kernel`).

use crate::kernels::{HammerPattern, KernelReport};
use densemem_ctrl::{CtrlError, MemCommand, MemoryController};
use densemem_stats::hash::Fnv1a;
use densemem_stats::json::{escape, field, parse_u64};
use rand::Rng;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Serialization format version (the `pattern_version` header field).
pub const PATTERN_VERSION: u64 = 1;

/// Hard cap on slots per pattern: keeps serialized patterns reviewable
/// and bounds the scheduler's precomputation.
pub const MAX_SLOTS: usize = 64;

/// Hard cap on per-firing amplitude (back-to-back accesses).
pub const MAX_AMPLITUDE: u32 = 64;

/// A malformed pattern: failed validation or JSONL parsing.
///
/// `line` is 1-based for parse errors and 0 for constructor validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// 1-based source line (0 when not parsing).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "invalid pattern: {}", self.reason)
        } else {
            write!(f, "pattern parse error at line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for PatternError {}

fn invalid(reason: impl Into<String>) -> PatternError {
    PatternError { line: 0, reason: reason.into() }
}

fn parse_err(line: usize, reason: impl Into<String>) -> PatternError {
    PatternError { line, reason: reason.into() }
}

/// One aggressor slot of a [`ShapedPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternSlot {
    /// Aggressor row.
    pub row: usize,
    /// First step (of the pattern period) this slot fires at.
    pub phase: u32,
    /// Number of consecutive steps the slot fires at, from `phase`
    /// (wrapping mod the period). One firing per covered step.
    pub freq: u32,
    /// Back-to-back accesses per firing: one activation plus
    /// `amplitude - 1` row-buffer hits.
    pub amplitude: u32,
}

impl PatternSlot {
    /// Whether the slot fires at step `t` of a `period`-step cycle.
    fn fires_at(&self, t: u32, period: u32) -> bool {
        (t + period - self.phase) % period < self.freq
    }
}

/// A shaped hammering pattern: ordered aggressor slots composed over a
/// scheduling period (see the module docs for slot semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapedPattern {
    name: String,
    bank: usize,
    period: u32,
    slots: Vec<PatternSlot>,
}

impl ShapedPattern {
    /// Creates a validated pattern.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] when any refresh-window invariant is
    /// violated: `period >= 1`, `1..=MAX_SLOTS` slots, every slot with
    /// `phase < period`, `1 <= freq <= period` and
    /// `1 <= amplitude <= MAX_AMPLITUDE`.
    pub fn new(
        name: impl Into<String>,
        bank: usize,
        period: u32,
        slots: Vec<PatternSlot>,
    ) -> Result<Self, PatternError> {
        if period == 0 {
            return Err(invalid("period must be >= 1"));
        }
        if slots.is_empty() {
            return Err(invalid("pattern needs at least one slot"));
        }
        if slots.len() > MAX_SLOTS {
            return Err(invalid(format!("{} slots exceeds MAX_SLOTS={MAX_SLOTS}", slots.len())));
        }
        for (i, s) in slots.iter().enumerate() {
            if s.phase >= period {
                return Err(invalid(format!("slot {i}: phase {} >= period {period}", s.phase)));
            }
            if s.freq == 0 || s.freq > period {
                return Err(invalid(format!("slot {i}: freq {} outside 1..={period}", s.freq)));
            }
            if s.amplitude == 0 || s.amplitude > MAX_AMPLITUDE {
                return Err(invalid(format!(
                    "slot {i}: amplitude {} outside 1..={MAX_AMPLITUDE}",
                    s.amplitude
                )));
            }
        }
        Ok(Self { name: name.into(), bank, period, slots })
    }

    /// The degenerate uniform pattern: `period == 1`, each row one slot
    /// `{phase: 0, freq: 1, amplitude: 1}` — lowers to exactly the
    /// round-robin order of the uniform kernels.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] for an empty or oversized row list.
    pub fn uniform(
        name: impl Into<String>,
        bank: usize,
        rows: &[usize],
    ) -> Result<Self, PatternError> {
        let slots = rows
            .iter()
            .map(|&row| PatternSlot { row, phase: 0, freq: 1, amplitude: 1 })
            .collect();
        Self::new(name, bank, 1, slots)
    }

    /// The uniform shaped equivalent of a classic [`HammerPattern`] —
    /// the differential-test bridge between the old and new pattern
    /// layers.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] for an oversized row list (the classic
    /// constructors never produce one).
    pub fn from_kernel(pattern: &HammerPattern) -> Result<Self, PatternError> {
        Self::uniform(pattern.name(), pattern.bank(), pattern.rows())
    }

    /// Human label (carried through serialization; excluded from the
    /// canonical form and digest).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bank hammered.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Steps per scheduling cycle.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// The ordered slots.
    pub fn slots(&self) -> &[PatternSlot] {
        &self.slots
    }

    /// Firings per full cycle (the sum of slot frequencies). Each firing
    /// is `amplitude` accesses; under an open-page controller only *row
    /// switches* cost an activation, so this is an upper bound on
    /// activations per cycle — a burst nothing interleaves with collapses
    /// into one activation plus row hits.
    pub fn firings_per_cycle(&self) -> u64 {
        self.slots.iter().map(|s| u64::from(s.freq)).sum()
    }

    /// Row switches per full cycle: adjacent firings of one row (within a
    /// step or across steps, cyclically) merge into one activation, which
    /// is exactly what the row buffer does to the lowered stream. This is
    /// the activation count one steady-state cycle costs.
    pub fn switches_per_cycle(&self) -> u64 {
        let schedule = self.schedule();
        let mut switches = 0u64;
        for (i, &(row, _)) in schedule.iter().enumerate() {
            let prev = schedule[(i + schedule.len() - 1) % schedule.len()].0;
            if row != prev || schedule.len() == 1 {
                switches += 1;
            }
        }
        switches.max(1)
    }

    /// Distinct aggressor rows, sorted.
    pub fn aggressor_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.slots.iter().map(|s| s.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Rows adjacent (distance 1 or 2) to any aggressor, excluding the
    /// aggressors themselves — same victim definition as
    /// [`HammerPattern::victim_rows`].
    pub fn victim_rows(&self) -> Vec<usize> {
        let aggressors = self.aggressor_rows();
        let mut v: Vec<usize> = aggressors
            .iter()
            .flat_map(|&r| {
                [r.checked_sub(1), Some(r + 1), r.checked_sub(2), Some(r + 2)]
                    .into_iter()
                    .flatten()
            })
            .filter(|r| !aggressors.contains(r))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Normalizes to canonical form in place: adjacent slots identical in
    /// `(row, phase, freq)` merge into one with summed amplitude (their
    /// firings were already back-to-back accesses of one row, so the
    /// lowered command stream is unchanged). Idempotent.
    pub fn canonicalize(&mut self) {
        let mut merged: Vec<PatternSlot> = Vec::with_capacity(self.slots.len());
        for s in self.slots.drain(..) {
            match merged.last_mut() {
                Some(last) if (last.row, last.phase, last.freq) == (s.row, s.phase, s.freq) => {
                    last.amplitude = (last.amplitude + s.amplitude).min(MAX_AMPLITUDE);
                }
                _ => merged.push(s),
            }
        }
        self.slots = merged;
    }

    /// The canonical form, as a copy.
    pub fn canonical(&self) -> Self {
        let mut c = self.clone();
        c.canonicalize();
        c
    }

    /// Whether the pattern is already canonical.
    pub fn is_canonical(&self) -> bool {
        self.slots
            .windows(2)
            .all(|w| (w[0].row, w[0].phase, w[0].freq) != (w[1].row, w[1].phase, w[1].freq))
    }

    /// Content digest (FNV-1a 64) of the *canonical* form: bank, period
    /// and slots — not the name. Semantically equal patterns hash
    /// equally, so cache keys built on the digest dedupe across spellings
    /// and labels.
    pub fn digest(&self) -> u64 {
        let c = self.canonical();
        let mut h = Fnv1a::new();
        h.write_u64(PATTERN_VERSION);
        h.write_u64(c.bank as u64);
        h.write_u64(u64::from(c.period));
        for s in &c.slots {
            h.write_u64(s.row as u64);
            h.write_u64(u64::from(s.phase));
            h.write_u64(u64::from(s.freq));
            h.write_u64(u64::from(s.amplitude));
        }
        h.finish()
    }

    /// The flattened firing program of one cycle: `(row, amplitude)` per
    /// firing, step by step, slots in declaration order within a step.
    /// The scheduler precomputes this once and then cycles over it.
    pub fn schedule(&self) -> Vec<(usize, u32)> {
        let mut out = Vec::with_capacity(self.firings_per_cycle() as usize);
        for t in 0..self.period {
            for s in &self.slots {
                if s.fires_at(t, self.period) {
                    out.push((s.row, s.amplitude));
                }
            }
        }
        out
    }

    /// Serializes as JSONL: one header object, then one object per slot
    /// ([`ShapedPattern::from_jsonl`] round-trips it). The header carries
    /// the canonical digest, so artifacts are self-checking.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"pattern_version\":{},\"name\":\"{}\",\"bank\":{},\"period\":{},\
             \"slots\":{},\"digest\":\"{:#018x}\"}}",
            PATTERN_VERSION,
            escape(&self.name),
            self.bank,
            self.period,
            self.slots.len(),
            self.digest(),
        );
        for s in &self.slots {
            let _ = writeln!(
                out,
                "{{\"row\":{},\"phase\":{},\"freq\":{},\"amp\":{}}}",
                s.row, s.phase, s.freq, s.amplitude
            );
        }
        out
    }

    /// Parses a pattern back from its JSONL form, revalidating every
    /// invariant and the header digest.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] on malformed input, an invariant
    /// violation, a slot-count mismatch, or a digest mismatch.
    pub fn from_jsonl(text: &str) -> Result<Self, PatternError> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (n, header) = lines.next().ok_or_else(|| parse_err(1, "empty pattern"))?;
        let header_field = |key: &str| -> Result<Cow<'_, str>, PatternError> {
            field(header, key).ok_or_else(|| parse_err(n + 1, format!("header missing key {key:?}")))
        };
        if parse_u64(&header_field("pattern_version")?).map_err(|m| parse_err(n + 1, m))?
            != PATTERN_VERSION
        {
            return Err(parse_err(n + 1, "unsupported pattern_version"));
        }
        let name = header_field("name")?.into_owned();
        let bank = parse_u64(&header_field("bank")?).map_err(|m| parse_err(n + 1, m))? as usize;
        let period = parse_u64(&header_field("period")?).map_err(|m| parse_err(n + 1, m))? as u32;
        let want_slots = parse_u64(&header_field("slots")?).map_err(|m| parse_err(n + 1, m))?;
        let want_digest = parse_u64(&header_field("digest")?).map_err(|m| parse_err(n + 1, m))?;
        let mut slots = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let need = |key: &str| -> Result<u64, PatternError> {
                let v = field(line, key)
                    .ok_or_else(|| parse_err(lineno, format!("missing key {key:?}")))?;
                parse_u64(&v).map_err(|m| parse_err(lineno, m))
            };
            slots.push(PatternSlot {
                row: need("row")? as usize,
                phase: need("phase")? as u32,
                freq: need("freq")? as u32,
                amplitude: need("amp")? as u32,
            });
        }
        if slots.len() as u64 != want_slots {
            return Err(parse_err(
                n + 1,
                format!("header promises {want_slots} slots, found {}", slots.len()),
            ));
        }
        let pattern = Self::new(name, bank, period, slots).map_err(|e| parse_err(n + 1, e.reason))?;
        let got = pattern.digest();
        if got != want_digest {
            return Err(parse_err(
                n + 1,
                format!("digest mismatch: header {want_digest:#018x}, content {got:#018x}"),
            ));
        }
        Ok(pattern)
    }
}

/// Runs a [`ShapedPattern`] against a controller by lowering it to plain
/// `Rd` requests — the same command vocabulary as [`crate::kernels`], so
/// recorded traces replay under any mitigation unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapedKernel {
    pattern: ShapedPattern,
    schedule: Vec<(usize, u32)>,
}

impl ShapedKernel {
    /// Creates a kernel, precomputing the pattern's firing program.
    pub fn new(pattern: ShapedPattern) -> Self {
        let schedule = pattern.schedule();
        Self { pattern, schedule }
    }

    /// The pattern.
    pub fn pattern(&self) -> &ShapedPattern {
        &self.pattern
    }

    /// One full cycle of the pattern against `ctrl`.
    fn cycle(&self, ctrl: &mut MemoryController) -> Result<(), CtrlError> {
        let bank = self.pattern.bank;
        for &(row, amplitude) in &self.schedule {
            for _ in 0..amplitude {
                ctrl.issue(MemCommand::Rd { bank, row, word: 0 })?;
            }
        }
        Ok(())
    }

    /// Runs `cycles` full pattern cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] if the pattern addresses an invalid location.
    pub fn run_cycles(
        &self,
        ctrl: &mut MemoryController,
        cycles: u64,
    ) -> Result<KernelReport, CtrlError> {
        let start_acts = ctrl.stats().activations;
        let start_ns = ctrl.now_ns();
        for _ in 0..cycles {
            self.cycle(ctrl)?;
        }
        Ok(KernelReport {
            activations: ctrl.stats().activations - start_acts,
            elapsed_ns: ctrl.now_ns() - start_ns,
        })
    }

    /// Runs whole cycles until `deadline_ns` of simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] if the pattern addresses an invalid location.
    pub fn run_until(
        &self,
        ctrl: &mut MemoryController,
        deadline_ns: u64,
    ) -> Result<KernelReport, CtrlError> {
        let start_acts = ctrl.stats().activations;
        let start_ns = ctrl.now_ns();
        while ctrl.now_ns() < deadline_ns {
            self.cycle(ctrl)?;
        }
        Ok(KernelReport {
            activations: ctrl.stats().activations - start_acts,
            elapsed_ns: ctrl.now_ns() - start_ns,
        })
    }

    /// Runs refresh-synchronized cycles until `deadline_ns`: before each
    /// cycle the kernel spins on reads to `sync_row` (row-buffer hits,
    /// ~`t_CL` each) until simulated time crosses the next multiple of
    /// `interval_ns` (use `MemoryController::refresh_interval_ns`) — the
    /// Blacksmith discipline of re-aligning every pattern repetition to
    /// the REF cadence. A free-running cycle whose period misses tREFI
    /// by even tens of nanoseconds drifts across the refresh phase
    /// within a handful of ticks and loses all phase structure; the spin
    /// re-anchors it, at the cost of idle hit-reads.
    ///
    /// The spin is ordinary `Rd` traffic (a real attacker's polling
    /// loop, issued through `MemoryController::read_until`), so recorded
    /// traces carry the synchronization with them and replay it exactly.
    /// Pick `sync_row` far from the aggressor pool: its single
    /// activation per cycle is the only disturbance it adds.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] if the pattern or `sync_row` addresses an
    /// invalid location.
    pub fn run_synced(
        &self,
        ctrl: &mut MemoryController,
        deadline_ns: u64,
        interval_ns: u64,
        sync_row: usize,
    ) -> Result<KernelReport, CtrlError> {
        assert!(interval_ns > 0, "sync interval must be positive");
        let bank = self.pattern.bank;
        let start_acts = ctrl.stats().activations;
        let start_ns = ctrl.now_ns();
        while ctrl.now_ns() < deadline_ns {
            let target = (ctrl.now_ns() / interval_ns + 1) * interval_ns;
            ctrl.read_until(bank, sync_row, 0, target)?;
            self.cycle(ctrl)?;
        }
        Ok(KernelReport {
            activations: ctrl.stats().activations - start_acts,
            elapsed_ns: ctrl.now_ns() - start_ns,
        })
    }

    /// Counts flips in the pattern's victim rows against the fill pattern
    /// (aggressor rows excluded).
    pub fn victim_flips(&self, ctrl: &mut MemoryController) -> usize {
        ctrl.victim_flips(self.pattern.bank, &self.pattern.victim_rows())
    }
}

/// A seeded sampler over a bounded shaped-pattern space: the fuzzing
/// front-end. Every sampled pattern is valid (constructor-checked) and
/// draws only from the configured row pool; the sampler itself is pure —
/// identical `(config, rng state)` gives identical patterns, which is
/// what lets E27 fan the sweep out with `par_map_seeded` and stay
/// bit-reproducible across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBuilder {
    bank: usize,
    pool: Vec<usize>,
    period: u32,
    slots: (u32, u32),
    act_budget: (u32, u32),
    max_amplitude: u32,
}

impl PatternBuilder {
    /// A builder over `pool` rows of `bank`, composing over `period`
    /// steps. Defaults: 2–6 slots, an activation budget of
    /// `3/4·period ..= period` firings per cycle (≈ one tREFI of
    /// activations when `period` is sized to the refresh tick), and
    /// amplitude up to 3.
    ///
    /// # Panics
    ///
    /// Panics on a pool of fewer than two rows (pairs are the sampling
    /// primitive) or zero period (builder configs are experiment
    /// literals).
    pub fn new(bank: usize, pool: Vec<usize>, period: u32) -> Self {
        assert!(pool.len() >= 2, "PatternBuilder needs at least two pool rows");
        assert!(period >= 1, "PatternBuilder needs period >= 1");
        Self {
            bank,
            pool,
            period,
            slots: (2, 6),
            act_budget: (period * 3 / 4, period),
            max_amplitude: 3,
        }
    }

    /// Sets the inclusive slot-count range.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-cap range.
    pub fn with_slots(mut self, lo: u32, hi: u32) -> Self {
        assert!(lo >= 1 && lo <= hi && hi as usize <= MAX_SLOTS, "bad slot range {lo}..={hi}");
        self.slots = (lo, hi);
        self
    }

    /// Sets the inclusive per-cycle activation budget (total firings).
    ///
    /// # Panics
    ///
    /// Panics on an empty range or a zero lower bound.
    pub fn with_act_budget(mut self, lo: u32, hi: u32) -> Self {
        assert!(lo >= 1 && lo <= hi, "bad act budget {lo}..={hi}");
        self.act_budget = (lo, hi);
        self
    }

    /// Sets the maximum sampled amplitude.
    ///
    /// # Panics
    ///
    /// Panics when outside `1..=MAX_AMPLITUDE`.
    pub fn with_max_amplitude(mut self, amp: u32) -> Self {
        assert!((1..=MAX_AMPLITUDE).contains(&amp), "bad max amplitude {amp}");
        self.max_amplitude = amp;
        self
    }

    /// The row pool.
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// The scheduling period sampled patterns use.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Samples one pattern.
    ///
    /// The sampling primitive is the *double-sided pair*, as in
    /// Blacksmith: two adjacent pool rows sharing one phase band, so
    /// their firings interleave step by step and every access is a row
    /// switch (an activation — a lone burst would collapse into row
    /// hits in the row buffer and disturb nothing). Each pair gets a
    /// random phase, a share of the activation budget as its band
    /// length, and a random amplitude; up to two solo slots ride along
    /// as decoys/time padding. The activation budget is what
    /// synchronizes a lucky sample to the refresh tick: a cycle costing
    /// about one tREFI of row switches repeats in phase with REF.
    pub fn sample(&self, name: impl Into<String>, rng: &mut impl Rng) -> ShapedPattern {
        let max_pairs = (self.slots.1 / 2).max(1);
        let n_pairs = rng.gen_range(1..=max_pairs);
        let solo_cap = (self.slots.1 - 2 * n_pairs).min(2);
        let n_solo = if solo_cap > 0 { rng.gen_range(0..=solo_cap) } else { 0 };
        let budget = rng.gen_range(self.act_budget.0..=self.act_budget.1);
        let weights: Vec<u32> = (0..n_pairs).map(|_| rng.gen_range(1u32..=4)).collect();
        let total: u32 = weights.iter().sum();
        let mut slots = Vec::with_capacity((2 * n_pairs + n_solo) as usize);
        for &w in &weights {
            // Adjacent pool rows: with the conventional 2-apart pool this
            // is a double-sided pair around the row between them.
            let i = rng.gen_range(0..self.pool.len() - 1);
            let (lo, hi) = (self.pool[i], self.pool[i + 1]);
            let phase = rng.gen_range(0..self.period);
            // Two switches per covered step, so the pair's band length is
            // half its activation share.
            let freq = (budget * w / (2 * total)).clamp(1, self.period);
            let amplitude = rng.gen_range(1..=self.max_amplitude);
            slots.push(PatternSlot { row: lo, phase, freq, amplitude });
            slots.push(PatternSlot { row: hi, phase, freq, amplitude });
        }
        for _ in 0..n_solo {
            let row = self.pool[rng.gen_range(0..self.pool.len())];
            let phase = rng.gen_range(0..self.period);
            let freq = rng.gen_range(1..=(self.period / 4).max(1));
            let amplitude = rng.gen_range(1..=self.max_amplitude);
            slots.push(PatternSlot { row, phase, freq, amplitude });
        }
        ShapedPattern::new(name, self.bank, self.period, slots)
            .expect("sampled slots satisfy the invariants by construction")
    }

    /// Digest of the sampled *space* (FNV-1a 64 over the full builder
    /// config and the format version). E27 folds this into its
    /// [`cache key`](../../densemem/experiments/registry/fn.cache_key.html)
    /// so cached fuzz reports roll over whenever the pattern grammar or
    /// the sampled space changes.
    pub fn space_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(PATTERN_VERSION);
        h.write_u64(self.bank as u64);
        for &r in &self.pool {
            h.write_u64(r as u64);
        }
        h.write_u64(u64::from(self.period));
        h.write_u64(u64::from(self.slots.0));
        h.write_u64(u64::from(self.slots.1));
        h.write_u64(u64::from(self.act_budget.0));
        h.write_u64(u64::from(self.act_budget.1));
        h.write_u64(u64::from(self.max_amplitude));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemem_ctrl::controller::MemoryController;
    use densemem_dram::module::RowRemap;
    use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};
    use densemem_stats::rng::substream;

    fn controller() -> MemoryController {
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 77);
        MemoryController::new(module, Default::default())
    }

    fn shaped() -> ShapedPattern {
        ShapedPattern::new(
            "unit",
            0,
            8,
            vec![
                PatternSlot { row: 300, phase: 0, freq: 4, amplitude: 1 },
                PatternSlot { row: 310, phase: 5, freq: 3, amplitude: 2 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_each_broken_invariant() {
        let slot = PatternSlot { row: 1, phase: 0, freq: 1, amplitude: 1 };
        assert!(ShapedPattern::new("x", 0, 0, vec![slot]).is_err(), "period 0");
        assert!(ShapedPattern::new("x", 0, 4, vec![]).is_err(), "no slots");
        assert!(
            ShapedPattern::new("x", 0, 4, vec![slot; MAX_SLOTS + 1]).is_err(),
            "too many slots"
        );
        let bad_phase = PatternSlot { phase: 4, ..slot };
        assert!(ShapedPattern::new("x", 0, 4, vec![bad_phase]).is_err(), "phase >= period");
        let bad_freq = PatternSlot { freq: 5, ..slot };
        assert!(ShapedPattern::new("x", 0, 4, vec![bad_freq]).is_err(), "freq > period");
        let zero_freq = PatternSlot { freq: 0, ..slot };
        assert!(ShapedPattern::new("x", 0, 4, vec![zero_freq]).is_err(), "freq 0");
        let zero_amp = PatternSlot { amplitude: 0, ..slot };
        assert!(ShapedPattern::new("x", 0, 4, vec![zero_amp]).is_err(), "amplitude 0");
    }

    #[test]
    fn uniform_schedule_matches_kernel_row_order() {
        let k = HammerPattern::many_sided(0, 300, 5);
        let shaped = ShapedPattern::from_kernel(&k).unwrap();
        assert_eq!(shaped.period(), 1);
        let schedule = shaped.schedule();
        let rows: Vec<usize> = schedule.iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, k.rows());
        assert!(schedule.iter().all(|&(_, a)| a == 1));
    }

    #[test]
    fn schedule_orders_steps_then_slots() {
        let p = shaped();
        // Steps 0..3: row 300; step 5..7: row 310 (amplitude 2). Wrap
        // coverage exercised separately below.
        assert_eq!(
            p.schedule(),
            vec![(300, 1), (300, 1), (300, 1), (300, 1), (310, 2), (310, 2), (310, 2)]
        );
        assert_eq!(p.firings_per_cycle(), 7);
        // Consecutive same-row firings merge in the row buffer: one
        // switch into row 300, one into row 310, per cycle.
        assert_eq!(p.switches_per_cycle(), 2);
    }

    #[test]
    fn burst_wraps_around_the_period() {
        let p = ShapedPattern::new(
            "wrap",
            0,
            4,
            vec![PatternSlot { row: 9, phase: 3, freq: 2, amplitude: 1 }],
        )
        .unwrap();
        // Fires at steps 3 and 0 (wrapped); schedule is step-ordered.
        assert_eq!(p.schedule(), vec![(9, 1), (9, 1)]);
        let slot = p.slots()[0];
        assert!(slot.fires_at(3, 4) && slot.fires_at(0, 4));
        assert!(!slot.fires_at(1, 4) && !slot.fires_at(2, 4));
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let p = shaped();
        let text = p.to_jsonl();
        assert!(text.starts_with("{\"pattern_version\":1"));
        let back = ShapedPattern::from_jsonl(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn parse_rejects_corruption() {
        let p = shaped();
        let good = p.to_jsonl();
        assert!(ShapedPattern::from_jsonl("").is_err(), "empty");
        let bad_version = good.replacen("\"pattern_version\":1", "\"pattern_version\":9", 1);
        assert!(ShapedPattern::from_jsonl(&bad_version).is_err(), "version");
        let truncated: String =
            good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(ShapedPattern::from_jsonl(&truncated).is_err(), "slot count");
        let tampered = good.replacen("\"freq\":4", "\"freq\":3", 1);
        assert!(ShapedPattern::from_jsonl(&tampered).is_err(), "digest mismatch");
    }

    #[test]
    fn canonicalization_merges_adjacent_twins_and_is_idempotent() {
        let twin = PatternSlot { row: 300, phase: 0, freq: 2, amplitude: 1 };
        let other = PatternSlot { row: 302, phase: 1, freq: 1, amplitude: 1 };
        let p = ShapedPattern::new("twins", 0, 4, vec![twin, twin, other]).unwrap();
        assert!(!p.is_canonical());
        let c = p.canonical();
        assert!(c.is_canonical());
        assert_eq!(c.slots().len(), 2);
        assert_eq!(c.slots()[0].amplitude, 2);
        assert_eq!(c.canonical(), c, "idempotent");
        // The merged pattern lowers to the same command program.
        assert_eq!(p.schedule(), c.schedule().iter().fold(Vec::new(), |mut acc, &(r, a)| {
            // Expand amplitude back out for comparison: (r, 2) covers
            // what two (r, 1) firings covered, access-for-access.
            if r == 300 && a == 2 {
                acc.push((r, 1));
                acc.push((r, 1));
            } else {
                acc.push((r, a));
            }
            acc
        }));
    }

    #[test]
    fn digest_ignores_name_and_merging_but_not_content() {
        let p = shaped();
        let mut renamed = p.clone();
        renamed.name = "other-label".to_owned();
        assert_eq!(p.digest(), renamed.digest(), "name is a label, not content");
        let twin = PatternSlot { row: 300, phase: 0, freq: 2, amplitude: 1 };
        let doubled = ShapedPattern::new("d", 0, 4, vec![twin, twin]).unwrap();
        let merged = doubled.canonical();
        assert_eq!(doubled.digest(), merged.digest(), "canonical twins share a key");
        let mut changed = p.clone();
        changed.slots[0].freq += 1;
        assert_ne!(p.digest(), changed.digest());
    }

    #[test]
    fn kernel_runs_and_counts_activations() {
        let mut c = controller();
        c.fill(0xFF);
        let k = ShapedKernel::new(shaped());
        let r = k.run_cycles(&mut c, 100).unwrap();
        // Two row switches per cycle (the 300-burst and the 310-burst
        // each open their row once); every other access is a row hit.
        assert_eq!(r.activations, 200);
        assert!(r.elapsed_ns > 0);
        let deadline = c.now_ns() + 500_000;
        let r2 = k.run_until(&mut c, deadline).unwrap();
        assert!(r2.activations > 0);
        assert_eq!(k.victim_flips(&mut c), 0, "tiny run flips nothing");
    }

    #[test]
    fn builder_samples_valid_patterns_from_the_pool() {
        let pool: Vec<usize> = (0..16).map(|i| 300 + 2 * i).collect();
        let b = PatternBuilder::new(0, pool.clone(), 160)
            .with_slots(2, 6)
            .with_act_budget(120, 170)
            .with_max_amplitude(3);
        let mut rng = substream(42, 7);
        for i in 0..50 {
            let p = b.sample(format!("fuzz-{i:04}"), &mut rng);
            assert_eq!(p.bank(), 0);
            assert_eq!(p.period(), 160);
            assert!((2..=6).contains(&p.slots().len()));
            for s in p.slots() {
                assert!(pool.contains(&s.row));
                assert!(s.phase < p.period());
                assert!(s.freq >= 1 && s.freq <= p.period());
                assert!(s.amplitude >= 1 && s.amplitude <= 3);
            }
        }
    }

    #[test]
    fn builder_is_deterministic_per_rng_state() {
        let pool: Vec<usize> = (0..8).map(|i| 100 + 2 * i).collect();
        let b = PatternBuilder::new(0, pool, 64);
        let a = b.sample("s", &mut substream(9, 3));
        let c = b.sample("s", &mut substream(9, 3));
        assert_eq!(a, c);
        assert_ne!(a, b.sample("s", &mut substream(9, 4)), "different stream, different pattern");
    }

    #[test]
    fn space_digest_tracks_every_config_knob() {
        let pool: Vec<usize> = vec![10, 12, 14];
        let base = PatternBuilder::new(0, pool.clone(), 64);
        let variants = [
            PatternBuilder::new(1, pool.clone(), 64),
            PatternBuilder::new(0, vec![10, 12], 64),
            PatternBuilder::new(0, pool.clone(), 32),
            base.clone().with_slots(2, 5),
            base.clone().with_act_budget(10, 20),
            base.clone().with_max_amplitude(2),
        ];
        for v in &variants {
            assert_ne!(base.space_digest(), v.space_digest());
        }
        assert_eq!(base.space_digest(), PatternBuilder::new(0, pool, 64).space_digest());
    }
}
