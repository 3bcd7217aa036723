//! Distributed auto-refresh with a rate multiplier.
//!
//! Every row must be refreshed once per refresh window (nominally 64 ms).
//! The engine spreads that work evenly: one row per
//! `window / multiplier / rows` nanoseconds, walking a cursor over the row
//! space of every bank. The `multiplier` implements the paper's immediate
//! mitigation — refreshing `m×` more often shrinks the attacker's
//! per-window activation budget by `m` — at a cost in energy and bank
//! availability accounted in [`crate::energy`].

use densemem_dram::Timing;

/// The distributed refresh engine.
///
/// # Examples
///
/// ```
/// use densemem_ctrl::RefreshEngine;
/// use densemem_dram::Timing;
/// let mut re = RefreshEngine::new(Timing::ddr3_1600(), 1024, 1.0).unwrap();
/// // First row comes due after one per-row interval.
/// assert_eq!(re.due_rows(0).count(), 0);
/// let interval = re.per_row_interval_ns();
/// assert_eq!(re.due_rows(interval).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshEngine {
    timing: Timing,
    rows: usize,
    multiplier: f64,
    interval_ns: u64,
    cursor: usize,
    next_due_ns: u64,
    /// Completed full sweeps of the row space.
    windows_completed: u64,
}

impl RefreshEngine {
    /// Creates an engine for `rows` rows with refresh-rate `multiplier`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CtrlError::InvalidConfig`] if `rows == 0` or
    /// `multiplier <= 0` or the per-row interval rounds to zero.
    pub fn new(timing: Timing, rows: usize, multiplier: f64) -> Result<Self, crate::CtrlError> {
        if rows == 0 {
            return Err(crate::CtrlError::InvalidConfig("rows must be > 0"));
        }
        if multiplier <= 0.0 || multiplier.is_nan() {
            return Err(crate::CtrlError::InvalidConfig("multiplier must be > 0"));
        }
        let interval_ns = (timing.t_refw / multiplier / rows as f64) as u64;
        if interval_ns == 0 {
            return Err(crate::CtrlError::InvalidConfig("per-row interval rounds to zero"));
        }
        Ok(Self {
            timing,
            rows,
            multiplier,
            interval_ns,
            cursor: 0,
            next_due_ns: interval_ns,
            windows_completed: 0,
        })
    }

    /// The refresh-rate multiplier.
    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// Nanoseconds between consecutive row refreshes.
    pub fn per_row_interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// When the next row comes due: [`Self::due_rows`] yields nothing
    /// for any `now` before this time.
    pub(crate) fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// The effective refresh window (ns) seen by any single row.
    pub fn effective_window_ns(&self) -> f64 {
        self.timing.t_refw / self.multiplier
    }

    /// Completed full sweeps.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Returns an iterator over the rows due for refresh up to time `now`,
    /// advancing the engine state.
    pub fn due_rows(&mut self, now: u64) -> DueRows<'_> {
        DueRows { engine: self, now }
    }

    /// Row refreshes per second at the configured multiplier.
    pub fn refreshes_per_second(&self) -> f64 {
        1e9 / self.per_row_interval_ns() as f64
    }
}

/// Iterator over rows due for refresh (see [`RefreshEngine::due_rows`]).
#[derive(Debug)]
pub struct DueRows<'a> {
    engine: &'a mut RefreshEngine,
    now: u64,
}

impl Iterator for DueRows<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.engine.next_due_ns > self.now {
            return None;
        }
        let row = self.engine.cursor;
        self.engine.cursor += 1;
        if self.engine.cursor == self.engine.rows {
            self.engine.cursor = 0;
            self.engine.windows_completed += 1;
        }
        self.engine.next_due_ns += self.engine.interval_ns;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(mult: f64) -> RefreshEngine {
        RefreshEngine::new(Timing::ddr3_1600(), 1024, mult).unwrap()
    }

    #[test]
    fn validates_config() {
        assert!(RefreshEngine::new(Timing::ddr3_1600(), 0, 1.0).is_err());
        assert!(RefreshEngine::new(Timing::ddr3_1600(), 10, 0.0).is_err());
        assert!(RefreshEngine::new(Timing::ddr3_1600(), 10, -2.0).is_err());
    }

    #[test]
    fn full_window_refreshes_every_row_once() {
        let mut e = engine(1.0);
        let window = Timing::ddr3_1600().t_refw as u64;
        let rows: Vec<usize> = e.due_rows(window).collect();
        assert_eq!(rows.len(), 1024);
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1024, "each row exactly once");
        assert_eq!(e.windows_completed(), 1);
    }

    #[test]
    fn multiplier_scales_rate() {
        let e1 = engine(1.0);
        let e4 = engine(4.0);
        assert!((e4.refreshes_per_second() / e1.refreshes_per_second() - 4.0).abs() < 0.01);
        assert!((e1.effective_window_ns() / e4.effective_window_ns() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn due_rows_is_incremental() {
        let mut e = engine(1.0);
        let step = e.per_row_interval_ns();
        assert_eq!(e.next_due_ns(), step);
        assert_eq!(e.due_rows(step - 1).count(), 0, "nothing due yet");
        assert_eq!(e.due_rows(step).count(), 1);
        assert_eq!(e.due_rows(step).count(), 0, "already consumed");
        assert_eq!(e.due_rows(3 * step).count(), 2);
        assert_eq!(e.next_due_ns(), 4 * step);
    }

    #[test]
    fn seven_x_budget_below_min_threshold() {
        // The cross-check behind the paper's 7x claim: at multiplier 7 the
        // attacker's per-window budget drops below the minimum observed
        // hammer threshold.
        let e = engine(7.0);
        let budget = e.effective_window_ns() / Timing::ddr3_1600().t_rc;
        assert!(budget < densemem_dram::VintageProfile::MIN_THRESHOLD);
    }
}
