//! Property-based tests over the core data structures and invariants,
//! spanning the workspace crates.

use densemem_attack::pattern::{PatternBuilder, PatternSlot, ShapedPattern, MAX_AMPLITUDE};
use densemem_dram::module::RowRemap;
use densemem_ecc::hamming::{DecodeOutcome, Secded7264};
use densemem_flash::block::{bit_of, set_bit, FlashBlock};
use densemem_flash::FlashParams;
use densemem_stats::rng::seeded;
use densemem_stats::summary::Summary;
use densemem_stats::table::format_sig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SECDED: encode/decode round-trips any data word.
    #[test]
    fn secded_roundtrip(data: u64) {
        let code = Secded7264::new();
        prop_assert_eq!(code.decode(code.encode(data)), DecodeOutcome::Clean { data });
    }

    /// SECDED corrects any single-bit error on any data word.
    #[test]
    fn secded_corrects_any_single_flip(data: u64, pos in 0u8..72) {
        let code = Secded7264::new();
        let corrupted = code.encode(data) ^ (1u128 << pos);
        match code.decode(corrupted) {
            DecodeOutcome::Corrected { data: d, .. } => prop_assert_eq!(d, data),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    /// SECDED detects any double-bit error on any data word.
    #[test]
    fn secded_detects_any_double_flip(data: u64, a in 0u8..72, b in 0u8..72) {
        prop_assume!(a != b);
        let code = Secded7264::new();
        let corrupted = code.encode(data) ^ (1u128 << a) ^ (1u128 << b);
        prop_assert_eq!(code.decode(corrupted), DecodeOutcome::DoubleDetected);
    }

    /// Row remaps are involutions over their row space.
    #[test]
    fn remap_roundtrip(mask in 0usize..1024, block in 1usize..64, row in 0usize..1024) {
        for remap in [
            RowRemap::Identity,
            RowRemap::Xor { mask },
            RowRemap::BlockReverse { block },
        ] {
            let p = remap.to_physical(row, 1024);
            prop_assert!(p < 1024, "{:?} maps {} out of range: {}", remap, row, p);
            prop_assert_eq!(remap.to_logical(p, 1024), row);
        }
    }

    /// Fresh flash blocks round-trip arbitrary page data.
    #[test]
    fn flash_page_roundtrip(seed: u64, lsb_byte: u8, msb_byte: u8) {
        let mut b = FlashBlock::new(FlashParams::mlc_1x_nm(), 2, 512, seed);
        let lsb = vec![lsb_byte; 64];
        let msb = vec![msb_byte; 64];
        b.program_wordline(0, &lsb, &msb).unwrap();
        let (rl, rm) = b.read_wordline(0).unwrap();
        prop_assert_eq!(rl, lsb);
        prop_assert_eq!(rm, msb);
    }

    /// Bit helpers: set then get is identity, and clearing restores.
    #[test]
    fn bit_helpers_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 4), i in 0usize..32, v: bool) {
        let mut data = bytes.clone();
        set_bit(&mut data, i, v);
        prop_assert_eq!(bit_of(&data, i), v);
        // Other bits unchanged.
        for j in 0..32 {
            if j != i {
                prop_assert_eq!(bit_of(&data, j), bit_of(&bytes, j));
            }
        }
    }

    /// Summary percentiles are monotone and bounded by min/max.
    #[test]
    fn summary_percentiles_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_iter(xs.iter().copied());
        let p25 = s.percentile(25.0);
        let p50 = s.percentile(50.0);
        let p75 = s.percentile(75.0);
        prop_assert!(s.min() <= p25 && p25 <= p50 && p50 <= p75 && p75 <= s.max());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(s.min(), xs[0]);
    }

    /// format_sig output always parses back to a number close to the input.
    #[test]
    fn format_sig_parses_back(v in -1e12f64..1e12) {
        let s = format_sig(v, 6);
        let parsed: f64 = s.parse().unwrap();
        let tol = (v.abs() * 1e-4).max(1e-4);
        prop_assert!((parsed - v).abs() <= tol, "{} -> {} -> {}", v, s, parsed);
    }

    /// The PARA survival probability is monotone decreasing in both p and n.
    #[test]
    fn para_survival_monotone(p in 1e-5f64..1e-2, n in 1e4f64..1e6) {
        use densemem_ctrl::mitigation::Para;
        let s = Para::survival_probability(p, n);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(Para::survival_probability(p * 2.0, n) <= s);
        prop_assert!(Para::survival_probability(p, n * 2.0) <= s);
    }

    /// Poisson sampling stays non-negative and deterministic per seed.
    #[test]
    fn poisson_deterministic(lambda in 0.0f64..500.0, seed: u64) {
        use densemem_stats::dist::Poisson;
        use densemem_stats::rng::seeded;
        let d = Poisson::new(lambda).unwrap();
        let a = d.sample(&mut seeded(seed));
        let b = d.sample(&mut seeded(seed));
        prop_assert_eq!(a, b);
    }

    /// The Misra–Gries heavy-hitter guarantee Graphene's protection bound
    /// rests on: with capacity k over n observations, any key occurring
    /// more than n/(k+1) times is tracked, counts never overcount, and
    /// undercount is at most n/(k+1).
    #[test]
    fn misra_gries_heavy_hitter_guarantee(
        keys in proptest::collection::vec(0usize..16, 1..512),
        k in 1usize..8,
    ) {
        use densemem_ctrl::mitigation::MisraGries;
        let mut mg = MisraGries::new(k).unwrap();
        for &key in &keys {
            mg.observe((0, key));
        }
        let n = keys.len() as u64;
        let slack = n / (k as u64 + 1);
        for key in 0..16usize {
            let truth = keys.iter().filter(|&&x| x == key).count() as u64;
            let stored = mg.count((0, key));
            prop_assert!(stored <= truth, "key {} overcounted: {} > {}", key, stored, truth);
            prop_assert!(
                truth - stored <= slack,
                "key {} undercounted past n/(k+1): {} - {} > {}",
                key, truth, stored, slack
            );
            if truth > slack {
                prop_assert!(mg.contains((0, key)), "heavy hitter {} evicted", key);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Start-Gap stays a bijection (no logical line maps onto the gap, no
    /// collisions) under arbitrary psi and write counts.
    #[test]
    fn start_gap_bijection_under_arbitrary_writes(
        n in 2usize..64,
        psi in 1u64..32,
        writes in 0u64..4000,
    ) {
        use densemem_pcm::wear_leveling::StartGap;
        let mut sg = StartGap::new(n, psi).unwrap();
        for _ in 0..writes {
            sg.note_write();
        }
        let mut seen = std::collections::HashSet::new();
        for l in 0..n {
            let p = sg.to_physical(l);
            prop_assert!(p < n + 1);
            prop_assert!(p != sg.gap());
            prop_assert!(seen.insert(p));
        }
    }

    /// The flash stage machine never allows an out-of-order program and
    /// reads are always legal; arbitrary op sequences must not panic.
    #[test]
    fn flash_stage_machine_is_total(ops in proptest::collection::vec(0u8..5, 1..60), seed: u64) {
        let mut b = FlashBlock::new(FlashParams::mlc_1x_nm(), 3, 128, seed);
        let page = vec![0x5Au8; 16];
        for op in ops {
            match op {
                0 => { let _ = b.program_lsb(1, &page); }
                1 => { let _ = b.program_msb(1, &page); }
                2 => { let _ = b.read_wordline(1); }
                3 => { b.erase(); }
                _ => { b.advance_hours(1.0); }
            }
        }
        // Invariant: a full wordline always reads back *something* and the
        // block survives any op ordering.
        let _ = b.read_wordline(1).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shaped hammering patterns survive the JSONL round-trip exactly —
    /// slots, period, bank, and (escaped) name — for arbitrary valid
    /// slot vectors, not just sampler output.
    #[test]
    fn shaped_pattern_jsonl_roundtrip(
        // Control characters, printable ASCII (quotes and backslashes
        // included), and BMP and astral non-ASCII in equal shares, so the
        // name exercises every branch of the JSON string escaping.
        name_chars in proptest::collection::vec((0usize..4, any::<u32>()), 0..24),
        bank in 0usize..8,
        period in 1u32..256,
        raw in proptest::collection::vec(
            (0usize..1024, any::<u32>(), any::<u32>(), any::<u32>()),
            1..16,
        ),
    ) {
        let slots: Vec<PatternSlot> = raw
            .iter()
            .map(|&(row, phase, freq, amplitude)| PatternSlot {
                row,
                phase: phase % period,
                freq: 1 + freq % period,
                amplitude: 1 + amplitude % MAX_AMPLITUDE,
            })
            .collect();
        let name: String = name_chars
            .iter()
            .map(|&(class, n)| {
                let (lo, span) =
                    [(0, 0x20), (0x20, 0x5f), (0x80, 0xd780), (0x1_0000, 0x10_0000)][class];
                char::from_u32(lo + n % span).expect("the ranges skip the surrogates")
            })
            .collect();
        let p = ShapedPattern::new(name, bank, period, slots).expect("valid by construction");
        let parsed = ShapedPattern::from_jsonl(&p.to_jsonl()).expect("round-trip parses");
        prop_assert_eq!(parsed, p);
    }

    /// Canonicalization is idempotent, never grows the slot list, its
    /// output self-reports as canonical, and the content digest — defined
    /// over the canonical form — is unchanged by it.
    #[test]
    fn shaped_pattern_canonicalization_idempotent(
        period in 1u32..8,
        raw in proptest::collection::vec(
            (0usize..3, 0u32..4, 0u32..4, 1u32..5),
            1..24,
        ),
    ) {
        // A deliberately tiny slot space so adjacent duplicates (the
        // merge case) occur often.
        let slots: Vec<PatternSlot> = raw
            .iter()
            .map(|&(row, phase, freq, amplitude)| PatternSlot {
                row,
                phase: phase % period,
                freq: 1 + freq % period,
                amplitude,
            })
            .collect();
        let p = ShapedPattern::new("canon", 0, period, slots).expect("valid by construction");
        let c1 = p.canonical();
        prop_assert!(c1.is_canonical());
        prop_assert!(c1.slots().len() <= p.slots().len());
        prop_assert_eq!(c1.canonical(), c1.clone());
        prop_assert_eq!(c1.digest(), p.digest());
    }

    /// Every sampled pattern satisfies the invariants the fuzzer space
    /// promises — slot count within the configured range, phases inside
    /// the period, frequencies within `1..=period`, amplitudes within
    /// `1..=max`, rows drawn from the pool — and the sampler is a pure
    /// function of its RNG state.
    #[test]
    fn sampled_patterns_satisfy_the_space_invariants(
        sample_seed: u64,
        period in 8u32..256,
        pool_n in 2usize..16,
        base in 0usize..512,
        max_amp in 1u32..8,
    ) {
        let pool: Vec<usize> = (0..pool_n).map(|i| base + 2 * i).collect();
        let builder = PatternBuilder::new(0, pool.clone(), period)
            .with_slots(2, 6)
            .with_max_amplitude(max_amp);
        let p = builder.sample("prop", &mut seeded(sample_seed));
        prop_assert!((2..=6).contains(&p.slots().len()));
        for s in p.slots() {
            prop_assert!(pool.contains(&s.row));
            prop_assert!(s.phase < period);
            prop_assert!(s.freq >= 1 && s.freq <= period);
            prop_assert!(s.amplitude >= 1 && s.amplitude <= max_amp);
        }
        prop_assert_eq!(p.clone(), builder.sample("prop", &mut seeded(sample_seed)));
        prop_assert_eq!(p.digest(), p.canonical().digest());
    }
}

/// DRAM bank data integrity under arbitrary benign access sequences: on an
/// old (invulnerable) module, no access pattern may corrupt data.
#[test]
fn benign_module_is_never_corrupted_by_access_patterns() {
    use densemem_ctrl::controller::MemoryController;
    use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(16));
    runner
        .run(
            &proptest::collection::vec((0usize..64, 0usize..16), 1..400),
            |accesses| {
                let profile = VintageProfile::new(Manufacturer::B, 2008);
                let module = Module::new(
                    1,
                    BankGeometry::new(64, 16).expect("valid geometry"),
                    profile,
                    densemem_dram::module::RowRemap::Identity,
                    9,
                );
                let mut ctrl = MemoryController::new(module, Default::default());
                ctrl.fill(0xA5);
                for (row, word) in &accesses {
                    let v = ctrl.read(0, *row, *word).expect("valid address");
                    prop_assert_eq!(v, 0xA5A5_A5A5_A5A5_A5A5);
                }
                prop_assert!(ctrl.scan_flips().is_empty());
                Ok(())
            },
        )
        .expect("property holds");
}
