//! Hammering access-pattern kernels.
//!
//! These are the simulator analogue of the paper's released user-level
//! test program: tight loops of cache-bypassing accesses that force row
//! activations. Alternating between rows of the same bank defeats the row
//! buffer (every access is a row conflict), exactly as the real code's
//! `clflush` + access pairs do.
//!
//! All kernels here are *uniform*: every aggressor fires once per pass in
//! a flat round-robin. The non-uniform, refresh-synchronized
//! generalization (per-row phase/frequency/amplitude, Blacksmith-class)
//! lives in [`crate::pattern`]; its `period == 1` degenerate case lowers
//! to exactly the command stream these kernels produce (see
//! `ShapedPattern::from_kernel`).

use densemem_ctrl::{CtrlError, MemCommand, MemoryController};
use densemem_stats::rng::substream;
use rand::Rng;

/// Whether the kernel reads or writes on each access. The paper shows both
/// induce disturbance errors, because the disturbance comes from the row
/// activation, not from the data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read hammering (the classic kernel).
    Read,
    /// Write hammering (writes the same value back).
    Write,
}

/// The row set a kernel alternates over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammerPattern {
    bank: usize,
    rows: Vec<usize>,
    name: &'static str,
}

impl HammerPattern {
    /// Classic single-sided hammering: the original test program picks two
    /// far-apart rows of the same bank so each access conflicts.
    pub fn single_sided(bank: usize, aggressor: usize, far_row: usize) -> Self {
        Self { bank, rows: vec![aggressor, far_row], name: "single-sided" }
    }

    /// Double-sided hammering of the victim row `victim`: alternates its
    /// two physical neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `victim == 0` (no lower neighbour).
    pub fn double_sided(bank: usize, victim: usize) -> Self {
        assert!(victim > 0, "double-sided needs victim > 0");
        Self { bank, rows: vec![victim - 1, victim + 1], name: "double-sided" }
    }

    /// Many-sided hammering: `k` aggressors spaced two apart starting at
    /// `base` (every second row is a double-sided victim) — the pattern
    /// family later known from TRR-evasion work.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn many_sided(bank: usize, base: usize, k: usize) -> Self {
        assert!(k >= 2, "many-sided needs at least 2 aggressors");
        Self { bank, rows: (0..k).map(|i| base + 2 * i).collect(), name: "many-sided" }
    }

    /// Random-address baseline: accesses hop uniformly over `row_count`
    /// rows, spreading activations so no victim accumulates exposure.
    pub fn random(bank: usize, row_count: usize, seed: u64) -> Self {
        let mut rng = substream(seed, 0xA77);
        let rows = (0..64).map(|_| rng.gen_range(0..row_count)).collect();
        Self { bank, rows, name: "random" }
    }

    /// The aggressor rows.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The bank hammered.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Pattern family name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Rows adjacent to any aggressor (candidate victims), excluding the
    /// aggressors themselves.
    pub fn victim_rows(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .rows
            .iter()
            .flat_map(|&r| {
                [r.checked_sub(1), Some(r + 1), r.checked_sub(2), Some(r + 2)]
                    .into_iter()
                    .flatten()
            })
            .filter(|r| !self.rows.contains(r))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Report of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelReport {
    /// Row activations the kernel caused.
    pub activations: u64,
    /// Simulated time consumed, nanoseconds.
    pub elapsed_ns: u64,
}

impl KernelReport {
    /// Activations per millisecond of simulated time.
    pub fn activation_rate_per_ms(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.activations as f64 * 1e6 / self.elapsed_ns as f64
    }
}

/// A hammering kernel: a pattern, an access mode, and a run method.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammerKernel {
    pattern: HammerPattern,
    mode: AccessMode,
}

impl HammerKernel {
    /// Creates a kernel.
    pub fn new(pattern: HammerPattern, mode: AccessMode) -> Self {
        Self { pattern, mode }
    }

    /// The pattern.
    pub fn pattern(&self) -> &HammerPattern {
        &self.pattern
    }

    /// The access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// One pass over the pattern's rows against `ctrl`, expressed as
    /// typed commands on the controller's request stream.
    fn hammer_pass(&self, ctrl: &mut MemoryController) -> Result<(), CtrlError> {
        let bank = self.pattern.bank();
        for &row in self.pattern.rows() {
            match self.mode {
                AccessMode::Read => {
                    ctrl.issue(MemCommand::Rd { bank, row, word: 0 })?;
                }
                AccessMode::Write => {
                    // Write back the value already there (the attack
                    // does not need to change the aggressor's data).
                    let v = ctrl
                        .issue(MemCommand::Rd { bank, row, word: 0 })?
                        .expect("Rd returns a value");
                    ctrl.issue(MemCommand::Wr { bank, row, word: 0, value: v })?;
                }
            }
        }
        Ok(())
    }

    /// Runs `iterations` passes over the pattern's rows against `ctrl`.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError`] if the pattern addresses an invalid location.
    pub fn run(&self, ctrl: &mut MemoryController, iterations: u64) -> Result<KernelReport, CtrlError> {
        let start_acts = ctrl.stats().activations;
        let start_ns = ctrl.now_ns();
        for _ in 0..iterations {
            self.hammer_pass(ctrl)?;
        }
        Ok(KernelReport {
            activations: ctrl.stats().activations - start_acts,
            elapsed_ns: ctrl.now_ns() - start_ns,
        })
    }

    /// Runs until `deadline_ns` of simulated time.
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
            self.hammer_pass(ctrl)?;
        }
        Ok(KernelReport {
            activations: ctrl.stats().activations - start_acts,
            elapsed_ns: ctrl.now_ns() - start_ns,
        })
    }

    /// Counts flips in the pattern's victim rows against the fill pattern
    /// (aggressor rows excluded).
    pub fn victim_flips(&self, ctrl: &mut MemoryController) -> usize {
        ctrl.victim_flips(self.pattern.bank(), &self.pattern.victim_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemem_dram::module::RowRemap;
    use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};

    fn controller() -> MemoryController {
        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 77);
        MemoryController::new(module, Default::default())
    }

    #[test]
    fn pattern_constructors() {
        let d = HammerPattern::double_sided(0, 101);
        assert_eq!(d.rows(), &[100, 102]);
        assert_eq!(d.victim_rows(), vec![98, 99, 101, 103, 104]);
        let m = HammerPattern::many_sided(0, 10, 3);
        assert_eq!(m.rows(), &[10, 12, 14]);
        let s = HammerPattern::single_sided(0, 5, 500);
        assert_eq!(s.rows(), &[5, 500]);
    }

    #[test]
    #[should_panic(expected = "victim > 0")]
    fn double_sided_rejects_row_zero() {
        let _ = HammerPattern::double_sided(0, 0);
    }

    #[test]
    fn read_hammer_counts_activations() {
        let mut c = controller();
        c.fill(0xFF);
        let k = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
        let r = k.run(&mut c, 1000).unwrap();
        assert_eq!(r.activations, 2000);
        assert!(r.elapsed_ns > 0);
        assert!(r.activation_rate_per_ms() > 0.0);
    }

    #[test]
    fn double_sided_flips_and_random_does_not() {
        let mut c = controller();
        // A guaranteed weak cell (threshold well below the per-window
        // budget) makes the assertion deterministic; natural weak-cell
        // rates are exercised by the population-level experiments.
        c.module_mut()
            .bank_mut(0)
            .inject_disturb_cell(densemem_dram::BitAddr { row: 101, word: 1, bit: 0 }, 300_000.0)
            .unwrap();
        c.fill(0xFF);
        // Stress the victim's dominant aggressor.
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        let k = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
        k.run(&mut c, 660_000).unwrap();
        let double_flips = k.victim_flips(&mut c);
        assert!(double_flips > 0, "double-sided should flip victims");

        let mut c2 = controller();
        c2.fill(0xFF);
        let kr = HammerKernel::new(HammerPattern::random(0, 1024, 3), AccessMode::Read);
        kr.run(&mut c2, 20_000).unwrap();
        let random_flips = c2.scan_flips().len();
        assert_eq!(random_flips, 0, "random access spreads exposure");
    }

    #[test]
    fn write_hammering_also_flips() {
        let mut c = controller();
        c.module_mut()
            .bank_mut(0)
            .inject_disturb_cell(densemem_dram::BitAddr { row: 101, word: 1, bit: 0 }, 300_000.0)
            .unwrap();
        c.fill(0xFF);
        c.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
        c.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
        let k = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Write);
        k.run(&mut c, 660_000).unwrap();
        assert!(k.victim_flips(&mut c) > 0, "write hammering flips victims too");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut c = controller();
        c.fill(0x00);
        let k = HammerKernel::new(HammerPattern::double_sided(0, 50), AccessMode::Read);
        let r = k.run_until(&mut c, 1_000_000).unwrap();
        assert!(c.now_ns() >= 1_000_000);
        assert!(r.elapsed_ns >= 1_000_000);
        // Activation rate is tRC-limited: ~20.5 per us.
        let rate = r.activations as f64 / (r.elapsed_ns as f64 / 1000.0);
        assert!((15.0..25.0).contains(&rate), "rate {rate}/us");
    }

    #[test]
    fn invalid_pattern_is_error() {
        let mut c = controller();
        let k = HammerKernel::new(HammerPattern::single_sided(0, 5, 99_999), AccessMode::Read);
        assert!(k.run(&mut c, 1).is_err());
    }
}
