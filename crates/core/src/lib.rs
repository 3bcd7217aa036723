//! `densemem` — a reproduction of Mutlu, *"The RowHammer Problem and Other
//! Issues We May Face as Memory Becomes Denser"* (DATE 2017).
//!
//! The paper is a retrospective over a body of DRAM/flash reliability and
//! security work; reproducing it means reproducing its **figure and every
//! quantitative claim** on top of fully-implemented substrates:
//!
//! | Layer | Crate |
//! |---|---|
//! | statistics / RNG | [`densemem_stats`] |
//! | DRAM device model (cells, disturbance, retention, modules) | [`densemem_dram`] |
//! | memory controller + mitigations (PARA, CRA, TRR, ANVIL) | [`densemem_ctrl`] |
//! | ECC (SECDED, DEC-TED, chipkill) | [`densemem_ecc`] |
//! | attacks (kernels, invariants, PTE-spray exploit) | [`densemem_attack`] |
//! | MLC NAND flash channel + mitigations (FCR, RFR, NAC, two-step) | [`densemem_flash`] |
//!
//! This crate ties them together as the experiment suite E1–E27 (see
//! `DESIGN.md` for the experiment-to-claim index). The suite is
//! data-driven: [`experiments::registry`] holds one [`Experiment`]
//! descriptor per experiment (id, title, paper anchor, tags, runner);
//! each runner takes an [`ExpContext`] (scale, seed, thread policy) and
//! returns an [`experiments::ExperimentResult`] containing the tables the
//! paper reports and explicit claim checks, renderable as ASCII
//! ([`report::render`]), CSV ([`report::render_csv`]), or structured JSON
//! ([`report::json`]).
//!
//! # Examples
//!
//! Regenerating Figure 1:
//!
//! ```
//! use densemem::experiments::{registry, ExpContext};
//! let e1 = registry::find("E1").expect("registered");
//! let result = e1.run(&ExpContext::quick());
//! assert!(result.all_claims_pass(), "{}", result.render());
//! ```

pub mod experiments;
pub mod report;

pub use experiments::{registry, ClaimCheck, ExpContext, Experiment, ExperimentResult, Scale};

/// The default master seed used by every experiment harness. Recorded in
/// EXPERIMENTS.md so published numbers are exactly re-derivable.
pub const DEFAULT_SEED: u64 = 0xF161;

/// This crate's version, baked into serving-layer cache keys so a cached
/// report can never outlive the code that produced it.
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// A stable fingerprint of the model calibration.
///
/// An experiment report is a deterministic function of
/// `(experiment id, scale, seed, calibration)` — the first three travel
/// in the request, and this fingerprint stands in for the fourth: every
/// constant of the vintage profiles (candidate densities, hammer
/// threshold distributions, retention parameters) and the DDR timing
/// tables that the physical models are calibrated against. The serving
/// layer folds it into content-addressed cache keys, so editing a single
/// calibration constant invalidates every cached report, while rebuilds
/// of unchanged code keep hitting.
///
/// The hash is FNV-1a over the constants' IEEE-754 bit patterns in a
/// fixed traversal order — stable across platforms and processes, unlike
/// [`std::hash::DefaultHasher`]. The constants are fixed at compile
/// time, so the digest is computed once per process and memoised.
///
/// # Examples
///
/// ```
/// let a = densemem::calibration_fingerprint();
/// let b = densemem::calibration_fingerprint();
/// assert_eq!(a, b);
/// ```
pub fn calibration_fingerprint() -> u64 {
    static FINGERPRINT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FINGERPRINT.get_or_init(digest_calibration)
}

fn digest_calibration() -> u64 {
    use densemem_dram::{Manufacturer, Timing, VintageProfile};
    use densemem_stats::hash::Fnv1a;

    let mut h = Fnv1a::new();
    h.write(b"densemem-calibration-v1");
    for mfr in Manufacturer::ALL {
        h.write_f64(mfr.density_scale());
        for year in 2008..=2014u32 {
            let p = VintageProfile::new(mfr, year);
            h.write_u64(u64::from(year));
            h.write_f64(p.candidate_density());
            h.write_f64(p.threshold_dist().median());
            h.write_f64(p.threshold_dist().sigma());
            h.write_f64(p.module_sigma());
            h.write_f64(p.retention_median_ms());
            h.write_f64(p.retention_sigma());
            h.write_f64(p.retention_weak_density());
            h.write_f64(p.vrt_fraction());
        }
    }
    h.write_f64(VintageProfile::MIN_THRESHOLD);
    h.write_f64(VintageProfile::DPD_RESIST_FACTOR);
    h.write_f64(VintageProfile::DISTANCE2_COUPLING);
    for t in [Timing::ddr3_1600(), Timing::ddr4_2400()] {
        for v in [
            t.t_rcd, t.t_rp, t.t_ras, t.t_rc, t.t_refi, t.t_rfc, t.t_refw, t.t_cl, t.e_act_nj,
            t.e_ref_nj,
        ] {
            h.write_f64(v);
        }
    }
    h.finish()
}

#[cfg(test)]
mod lib_tests {
    #[test]
    fn calibration_fingerprint_is_stable_within_a_build() {
        let a = super::calibration_fingerprint();
        assert_eq!(a, super::calibration_fingerprint());
        assert_eq!(a, super::digest_calibration(), "the memo holds the digest");
        assert_ne!(a, 0);
    }
}
