//! Integration: the trace layer's determinism contract.
//!
//! Recording the same seeded attack twice yields byte-identical traces;
//! a trace survives the JSONL round-trip through disk; replaying it
//! reproduces the live run's flip set exactly; the shaped-pattern layer
//! lowers its uniform degenerate case to the very same command stream as
//! the classic kernels; and the trace-aware experiments (E4, E15, E27)
//! produce identical reports across repeated runs and thread counts.

use densemem::experiments::{e15, e27, e4, ExpContext};
use densemem::report::json;
use densemem_attack::kernels::{AccessMode, HammerKernel, HammerPattern};
use densemem_attack::pattern::{ShapedKernel, ShapedPattern};
use densemem_ctrl::controller::MemoryController;
use densemem_ctrl::{Trace, TraceFilter, TraceReplayer};
use densemem_dram::module::RowRemap;
use densemem_dram::{BankGeometry, BitAddr, Manufacturer, Module, VintageProfile};

fn controller(seed: u64) -> MemoryController {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    let mut module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, seed);
    module
        .bank_mut(0)
        .inject_disturb_cell(BitAddr { row: 101, word: 0, bit: 3 }, 250_000.0)
        .unwrap();
    let mut ctrl = MemoryController::new(module, Default::default());
    ctrl.fill(0xFF);
    ctrl.module_mut().bank_mut(0).fill_row(100, 0, 0).unwrap();
    ctrl.module_mut().bank_mut(0).fill_row(102, 0, 0).unwrap();
    ctrl
}

fn record_attack(seed: u64) -> (Trace, MemoryController) {
    let mut ctrl = controller(seed);
    let handle = ctrl.record_trace(usize::MAX, TraceFilter::Requests);
    let kernel = HammerKernel::new(HammerPattern::double_sided(0, 101), AccessMode::Read);
    kernel.run(&mut ctrl, 350_000).unwrap();
    (handle.snapshot("double_sided", seed), ctrl)
}

#[test]
fn same_seed_records_identical_traces() {
    let (a, _) = record_attack(42);
    let (b, _) = record_attack(42);
    assert_eq!(a, b, "same seed, same kernel -> same trace");
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "and identical serialisations");
}

#[test]
fn trace_round_trips_through_disk() {
    let (mut trace, _) = record_attack(43);
    // Control characters in the label exercise the JSON string escaping.
    trace.label = "\t\r\u{1}".to_owned();
    let path = std::env::temp_dir().join(format!("densemem-trace-rt-{}.jsonl", std::process::id()));
    std::fs::write(&path, trace.to_jsonl()).unwrap();
    let loaded = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.label, trace.label, "the label survives its escaping");
    assert_eq!(loaded, trace, "JSONL round-trip must be lossless");
}

#[test]
fn replay_reproduces_the_live_flip_set() {
    let (trace, mut live) = record_attack(44);
    let live_flips = live.scan_flips();
    assert!(!live_flips.is_empty(), "the recorded attack must flip");

    let mut replayed = controller(44);
    let report = TraceReplayer::new(&trace).replay(&mut replayed).unwrap();
    assert_eq!(report.replayed as usize, trace.len());
    assert_eq!(report.skipped, 0);
    assert_eq!(replayed.scan_flips(), live_flips, "byte-identical flip set");
    assert_eq!(replayed.now_ns(), live.now_ns());
    assert_eq!(replayed.stats().activations, live.stats().activations);
}

/// Differential: a uniform-shape [`ShapedPattern`] (period 1, phase 0,
/// frequency 1, amplitude 1 — the degenerate Blacksmith shape) must
/// lower to the *bit-identical* request stream the classic many-sided
/// kernel produces, so everything proven about the trace layer under
/// uniform kernels transfers to the shaped scheduler for free.
#[test]
fn uniform_shaped_pattern_lowers_to_the_many_sided_stream() {
    let uniform = HammerPattern::many_sided(0, 96, 6);
    let shaped = ShapedPattern::from_kernel(&uniform).expect("read-mode kernels convert");

    let mut a = controller(45);
    let ha = a.record_trace(usize::MAX, TraceFilter::Requests);
    HammerKernel::new(uniform, AccessMode::Read).run(&mut a, 5_000).unwrap();
    let ta = ha.snapshot("kernel", 45);

    let mut b = controller(45);
    let hb = b.record_trace(usize::MAX, TraceFilter::Requests);
    ShapedKernel::new(shaped).run_cycles(&mut b, 5_000).unwrap();
    let tb = hb.snapshot("shaped", 45);

    assert_eq!(ta.len(), tb.len(), "same command count");
    assert_eq!(ta.events, tb.events, "bit-identical request streams");
    assert_eq!(a.now_ns(), b.now_ns(), "identical timing");
    assert_eq!(a.scan_flips(), b.scan_flips(), "identical device outcome");
}

#[test]
fn e4_report_is_identical_across_runs_and_thread_counts() {
    let exp = densemem::experiments::registry::find("E4").unwrap();
    let ctx1 = ExpContext::quick().with_threads(1);
    let ctx8 = ExpContext::quick().with_threads(8);
    let a = e4::run(&ctx1);
    let b = e4::run(&ctx1);
    let c = e4::run(&ctx8);
    assert_eq!(a, b, "two runs, same context");
    assert_eq!(a, c, "thread count must not leak into results");
    assert_eq!(
        json::render(exp, &a, &ctx1, 0.0),
        json::render(exp, &b, &ctx1, 0.0),
        "identical JSON reports"
    );
}

#[test]
fn e15_trace_artifacts_are_bit_identical_across_runs() {
    let base = std::env::temp_dir().join(format!("densemem-e15-traces-{}", std::process::id()));
    let dir1 = base.join("run1");
    let dir2 = base.join("run2");
    let r1 = e15::run(&ExpContext::quick().with_trace_dir(&dir1));
    let r2 = e15::run(&ExpContext::quick().with_trace_dir(&dir2).with_threads(1));
    assert!(r1.all_claims_pass(), "{}", r1.render());
    assert_eq!(r1.tables, r2.tables, "replay matrix identical across runs/threads");
    assert_eq!(r1.claims, r2.claims);
    assert_eq!(r1.trace_artifacts.len(), 2, "double_sided + many_sided artifacts");
    for (p1, p2) in r1.trace_artifacts.iter().zip(&r2.trace_artifacts) {
        let t1 = std::fs::read(p1).unwrap();
        let t2 = std::fs::read(p2).unwrap();
        assert_eq!(t1, t2, "trace artifact bytes identical: {p1} vs {p2}");
        let text = String::from_utf8(t1).unwrap();
        assert!(text.starts_with("{\"trace_version\":1"), "header line present");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// E27's record-once-replay-under-defence discipline and its artifacts
/// (the winning pattern's trace *and* the top-pattern JSONL shapes) are
/// bit-identical across repeated runs and thread counts, and the shape
/// artifact round-trips through the pattern parser.
#[test]
fn e27_artifacts_are_bit_identical_across_runs() {
    let base = std::env::temp_dir().join(format!("densemem-e27-traces-{}", std::process::id()));
    let dir1 = base.join("run1");
    let dir2 = base.join("run2");
    let r1 = e27::run(&ExpContext::quick().with_trace_dir(&dir1));
    let r2 = e27::run(&ExpContext::quick().with_trace_dir(&dir2).with_threads(1));
    assert!(r1.all_claims_pass(), "{}", r1.render());
    assert_eq!(r1.tables, r2.tables, "fuzz rankings identical across runs/threads");
    assert_eq!(r1.claims, r2.claims);
    assert_eq!(r1.trace_artifacts.len(), 2, "top-pattern trace + shape JSONL");
    for (p1, p2) in r1.trace_artifacts.iter().zip(&r2.trace_artifacts) {
        let t1 = std::fs::read(p1).unwrap();
        let t2 = std::fs::read(p2).unwrap();
        assert_eq!(t1, t2, "artifact bytes identical: {p1} vs {p2}");
    }
    let shapes_path = r1
        .trace_artifacts
        .iter()
        .find(|p| p.ends_with("top_patterns.jsonl"))
        .expect("shape artifact listed");
    let shapes = std::fs::read_to_string(shapes_path).unwrap();
    let first_block: String = {
        // Each block is one header line plus its slot lines; the next
        // header (a "pattern_version" line) starts the next block.
        let mut lines = shapes.lines();
        let header = lines.next().expect("non-empty shapes artifact");
        let mut block = format!("{header}\n");
        for line in lines {
            if line.contains("pattern_version") {
                break;
            }
            block.push_str(line);
            block.push('\n');
        }
        block
    };
    let parsed = ShapedPattern::from_jsonl(&first_block).expect("artifact block parses");
    assert!(parsed.name().starts_with("fuzz-"), "fuzzer-named pattern: {}", parsed.name());
    std::fs::remove_dir_all(&base).ok();
}
