//! Conformance: deterministic fault injection across the stack.
//!
//! Every scenario draws its faults from a seeded
//! `densemem_testkit::fault::FaultPlan`, injects them through the
//! `cfg(any(test, feature = "fault-inject"))` hooks in the production
//! crates, and proves the stack's defences notice: SECDED corrects and
//! detects DRAM flips, BCH capability math catches flash upsets, trace
//! replay accounting exposes dropped/duplicated commands, PARA still
//! protects under a duplicated hammer stream, a torn JSONL artifact
//! fails with a line number instead of a panic, a chaos observer cannot
//! corrupt controller accounting, and a corrupted report trips the
//! claim-rollup validator and the golden comparator.

use densemem::experiments::{registry, ExpContext};
use densemem::report::json;
use densemem_attack::kernels::{AccessMode, HammerKernel, HammerPattern};
use densemem_ctrl::controller::MemoryController;
use densemem_ctrl::mitigation::Para;
use densemem_ctrl::{CtrlError, Trace, TraceFilter, TraceReplayer};
use densemem_dram::module::RowRemap;
use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};
use densemem_ecc::capability::{Capability, WordOutcome};
use densemem_ecc::hamming::{DecodeOutcome, Secded7264};
use densemem_flash::block::FlashBlock;
use densemem_flash::ecc::BchCode;
use densemem_flash::params::FlashParams;
use densemem_stats::json::{parse, Value};
use densemem_testkit::fault::{
    apply_dram_flips, apply_flash_upsets, corrupt_jsonl_line, mutate, FaultPlan, TraceFault,
};
use densemem_testkit::golden;

const SEED: u64 = 0xF161;

fn module(seed: u64) -> Module {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    Module::new(2, BankGeometry::small(), profile, RowRemap::Identity, seed)
}

/// Codeword position of data bit `d` in the (72,64) layout, recovered
/// through the codec's own extractor so the test stays layout-agnostic.
fn data_position(code: &Secded7264, d: u8) -> u8 {
    (0..72u8)
        .find(|&p| code.extract(1u128 << p) == 1u64 << d)
        .unwrap_or_else(|| panic!("no codeword position carries data bit {d}"))
}

/// Scenario 1 — DRAM bit flips vs SECDED: every planned single-bit
/// flip lands where the plan said (through the logical→physical remap),
/// and the (72,64) codec corrects it back to the pre-fault word; a
/// double flip in one word is detected-uncorrectable, exactly as the
/// capability model predicts.
#[test]
fn secded_corrects_planned_dram_flips_and_detects_doubles() {
    let mut ctrl = MemoryController::new(module(SEED), Default::default());
    ctrl.fill(0xA5);

    let geom = BankGeometry::small();
    let mut plan = FaultPlan::new(SEED);
    let flips = plan.dram_flips(8, 2, geom.rows(), geom.words_per_row());

    let before: Vec<u64> =
        flips.iter().map(|f| ctrl.read(f.bank, f.row, f.word).unwrap()).collect();
    apply_dram_flips(ctrl.module_mut(), &flips).unwrap();

    let code = Secded7264::new();
    let cap = Capability::secded();
    for (f, &orig) in flips.iter().zip(&before) {
        let corrupted = ctrl.read(f.bank, f.row, f.word).unwrap();
        assert_eq!(corrupted ^ orig, 1u64 << f.bit, "exactly the planned bit flipped");
        // The word was stored encoded: the fault hits one codeword bit.
        let cw = code.encode(orig) ^ (1u128 << data_position(&code, f.bit));
        assert_eq!(
            code.decode(cw),
            DecodeOutcome::Corrected { data: orig, position: data_position(&code, f.bit) },
            "SECDED corrects the injected flip"
        );
        assert_eq!(cap.classify(&[f.bit]), WordOutcome::Corrected);
    }

    // Two faults in the same word: detected, never miscorrected.
    let f = flips[0];
    let orig = ctrl.read(f.bank, f.row, f.word).unwrap();
    let other_bit = (f.bit + 1) % 64;
    ctrl.module_mut().inject_bit_flip(f.bank, f.row, f.word, other_bit).unwrap();
    let corrupted = ctrl.read(f.bank, f.row, f.word).unwrap();
    assert_eq!((corrupted ^ orig).count_ones(), 1);
    let cw = code.encode(before[0])
        ^ (1u128 << data_position(&code, f.bit))
        ^ (1u128 << data_position(&code, other_bit));
    assert_eq!(code.decode(cw), DecodeOutcome::DoubleDetected);
    assert_eq!(cap.classify(&[f.bit, other_bit]), WordOutcome::DetectedUncorrectable);
}

/// Scenario 2 — flash cell upsets vs BCH capability: planned upsets on
/// a freshly programmed block produce read errors that a t=40 BCH page
/// code corrects, while a massed upset burst on one wordline exceeds t
/// and is correctly reported uncorrectable.
#[test]
fn bch_capability_catches_planned_flash_upsets() {
    let (wordlines, cells) = (16usize, 4096usize);
    let mut block = FlashBlock::new(FlashParams::mlc_1x_nm(), wordlines, cells, SEED);
    let lsb = vec![0x35u8; cells / 8];
    let msb = vec![0x9Au8; cells / 8];
    for wl in 0..wordlines {
        block.program_wordline(wl, &lsb, &msb).unwrap();
    }

    let mut plan = FaultPlan::new(SEED);
    let upsets = plan.flash_upsets(12, wordlines, cells);
    apply_flash_upsets(&mut block, &upsets).unwrap();

    let bch = BchCode::ssd_default();
    let mut total_errors = 0u32;
    for wl in 0..wordlines {
        let (rl, rm) = block.read_wordline(wl).unwrap();
        let errs = (FlashBlock::count_errors(&rl, &lsb) + FlashBlock::count_errors(&rm, &msb)) as u32;
        assert!(
            bch.corrects(errs),
            "sparse planned upsets stay within t={}: wl {wl} had {errs}",
            bch.t()
        );
        total_errors += errs;
    }
    assert!(total_errors > 0, "the planned upsets must corrupt at least one bit");
    assert!(total_errors <= 2 * upsets.len() as u32, "each MLC cell carries two bits");

    // Burst: force one whole wordline to the erased state. Far beyond t.
    for c in 0..cells {
        block.inject_cell_upset(0, c, 0).unwrap();
    }
    let (rl, rm) = block.read_wordline(0).unwrap();
    let burst = (FlashBlock::count_errors(&rl, &lsb) + FlashBlock::count_errors(&rm, &msb)) as u32;
    assert!(!bch.corrects(burst), "a {burst}-bit burst must exceed the correction budget");
}

fn hammer_controller(seed: u64) -> MemoryController {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    let mut module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, seed);
    module
        .bank_mut(0)
        .inject_disturb_cell(densemem_dram::BitAddr { row: 101, word: 0, bit: 3 }, 250_000.0)
        .unwrap();
    let mut ctrl = MemoryController::new(module, Default::default());
    ctrl.fill(0xFF);
    ctrl.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
    ctrl.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
    ctrl
}

fn record_hammer(seed: u64) -> (Trace, MemoryController) {
    let mut ctrl = hammer_controller(seed);
    let handle = ctrl.record_trace(usize::MAX, TraceFilter::Requests);
    let kernel = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
    kernel.run(&mut ctrl, 350_000).unwrap();
    (handle.snapshot("double_sided", seed), ctrl)
}

/// Disturbance flips in the hammered victim row (the deliberately
/// zero-filled aggressor rows always differ from the 0xFF arm pattern,
/// so a whole-device scan is not the attack verdict).
fn victim_flips(ctrl: &mut MemoryController) -> usize {
    ctrl.scan_flips().iter().filter(|f| f.row() == 101).count()
}

/// Scenario 3 — dropped/duplicated commands vs replay accounting: a
/// mutated trace replays to a *different* command count and controller
/// state than the recording, so record-once-replay-N consumers detect
/// the mutation instead of silently trusting it.
#[test]
fn replay_accounting_detects_dropped_and_duplicated_commands() {
    let (trace, mut live) = record_hammer(SEED);
    assert!(victim_flips(&mut live) > 0, "the recorded attack must flip the victim");

    let mut plan = FaultPlan::new(SEED);
    let faults = plan.trace_faults(64, trace.len(), BankGeometry::small().rows());
    let drops = faults.iter().filter(|f| matches!(f, TraceFault::Drop(_))).count();
    let dups = faults.iter().filter(|f| matches!(f, TraceFault::Duplicate(_))).count();
    assert!(drops > 0 && dups > 0, "the plan must exercise both fault kinds: {faults:?}");

    let mutated = mutate(&trace, &faults);
    assert_eq!(mutated.len(), trace.len() - drops + dups);

    let mut replayed = hammer_controller(SEED);
    let report = TraceReplayer::new(&mutated).replay(&mut replayed).unwrap();
    assert_eq!(report.replayed as usize, mutated.len());
    assert_ne!(
        report.replayed as usize,
        trace.len(),
        "command-count bookkeeping flags the mutation"
    );
    assert_ne!(
        replayed.stats().activations,
        live.stats().activations,
        "controller accounting diverges from the live run"
    );
}

/// Scenario 4 — duplicated hammer commands vs PARA: amplifying the
/// recorded attack by duplicating aggressor activations still cannot
/// beat a probabilistic-refresh mitigation, while the unprotected
/// replay of the same mutated trace flips.
#[test]
fn para_still_protects_under_duplicated_hammer_stream() {
    let (trace, _) = record_hammer(SEED);
    // Duplicate a spread of events: ~12% extra aggressor activations.
    let faults: Vec<TraceFault> =
        (0..trace.len()).step_by(8).map(TraceFault::Duplicate).rev().collect();
    let mutated = mutate(&trace, &faults);
    assert!(mutated.len() > trace.len());

    let mut unprotected = hammer_controller(SEED);
    TraceReplayer::new(&mutated).replay(&mut unprotected).unwrap();
    assert!(
        victim_flips(&mut unprotected) > 0,
        "the amplified attack must still flip the victim without mitigation"
    );

    let mut protected = hammer_controller(SEED)
        .with_mitigation(Box::new(Para::new(0.05, SEED).unwrap()));
    TraceReplayer::new(&mutated).replay(&mut protected).unwrap();
    assert_eq!(
        victim_flips(&mut protected),
        0,
        "PARA corrects the duplicated-command fault before it flips"
    );
    assert!(protected.stats().mitigation_refreshes > 0);
}

/// Scenario 5 — torn JSONL artifact vs the trace parser: corrupting one
/// line of a serialized trace fails with that line's number in a typed
/// error, never a panic, and leaves every other line readable.
#[test]
fn corrupted_trace_artifact_fails_with_line_number() {
    let (trace, _) = record_hammer(SEED);
    let text = trace.to_jsonl();
    assert!(Trace::from_jsonl(&text).is_ok(), "uncorrupted artifact round-trips");

    // Corrupt a body line and the header line; both must name the line.
    for line in [7usize, 1] {
        let torn = corrupt_jsonl_line(&text, line);
        match Trace::from_jsonl(&torn) {
            Err(CtrlError::TraceParse { line: reported, .. }) => {
                assert_eq!(reported, line, "error must name the corrupted line");
            }
            other => panic!("line {line}: expected TraceParse, got {other:?}"),
        }
    }
}

/// Scenario 6 — observer-chain perturbation vs controller accounting: a
/// chaos observer that injects spurious targeted refreshes mid-attack
/// is deterministic for a seed, its injections are all accounted as
/// mitigation refreshes, and request bookkeeping is untouched.
#[test]
fn chaos_observer_perturbation_is_deterministic_and_accounted() {
    let run = |seed: u64| {
        let mut ctrl = hammer_controller(SEED);
        let chaos = FaultPlan::new(seed).chaos_observer(100, BankGeometry::small().rows());
        ctrl.attach_observer(Box::new(chaos));
        let kernel = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
        kernel.run(&mut ctrl, 350_000).unwrap();
        let stats = *ctrl.stats();
        (ctrl.scan_flips(), stats)
    };

    let (flips_a, stats_a) = run(3);
    let (flips_b, stats_b) = run(3);
    assert_eq!(flips_a, flips_b, "same chaos seed, same outcome");
    assert_eq!(stats_a, stats_b);

    assert_eq!(
        stats_a.mitigation_refreshes,
        stats_a.activations / 100,
        "every chaos injection is accounted as a mitigation refresh"
    );

    let (_, quiet) = {
        let mut ctrl = hammer_controller(SEED);
        let kernel = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
        kernel.run(&mut ctrl, 350_000).unwrap();
        let stats = *ctrl.stats();
        (ctrl.scan_flips(), stats)
    };
    assert_eq!(stats_a.reads, quiet.reads, "request accounting unaffected by chaos");
    assert_eq!(stats_a.activations, quiet.activations);

    // A different chaos seed perturbs different rows but obeys the same
    // accounting contract.
    let (_, stats_c) = run(4);
    assert_eq!(stats_c.mitigation_refreshes, stats_c.activations / 100);
    assert_eq!(stats_c.activations, stats_a.activations);
}

/// Scenario 7 — corrupted report vs claim checks: flipping a claim
/// verdict (or the rollup) in a rendered report trips the structural
/// validator, and the golden comparator pins the exact corrupted field.
#[test]
fn claim_check_fires_on_corrupted_report() {
    let exp = registry::find("E1").unwrap();
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);
    let clean = parse(&text).unwrap();
    assert!(golden::validate_report(&clean).is_empty(), "the genuine report validates");

    // Corrupt one claim's verdict without touching the rollup.
    let mut corrupted = clean.clone();
    if let Value::Obj(m) = &mut corrupted {
        let Some(Value::Arr(claims)) = m.get_mut("claims") else {
            panic!("report has claims")
        };
        let Some(Value::Obj(c0)) = claims.get_mut(0) else { panic!("at least one claim") };
        c0.insert("pass".into(), Value::Bool(false));
    }
    let problems = golden::validate_report(&corrupted);
    assert!(
        problems.iter().any(|p| p.contains("all_claims_pass")),
        "rollup inconsistency must fire: {problems:?}"
    );

    // And the golden comparator names the corrupted field precisely.
    let mut golden_doc = clean.clone();
    golden::normalize(&mut golden_doc);
    let mut actual_doc = corrupted;
    golden::normalize(&mut actual_doc);
    let diffs = golden::diff(&golden_doc, &actual_doc, 0.0);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert_eq!(diffs[0].path, "$.claims[0].pass");
    assert_eq!(diffs[0].golden, "true");
    assert_eq!(diffs[0].actual, "false");
}
