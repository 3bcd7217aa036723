//! `fuzz-live`: E27's inner loop on the live command path.
//!
//! Input: [`PATTERNS`] seeded shaped patterns (`e27::fuzzed_pattern`).
//! One op evaluates one pattern exactly as E27's sweep does: a fresh E27
//! device at 8x refresh, armed, defended by `trr-sampler:p=0.05,table=64`,
//! run REF-synchronized for 12 ms of simulated time, then flip-scanned.
//! Set-up samples and lowers the pattern set.

use crate::layers::Layers;
use crate::probes::{self, FlipSet};
use crate::{measure, EndToEnd, Outcome, RunConfig};
use densemem::experiments::e27;
use densemem_attack::pattern::{ShapedKernel, ShapedPattern};
use densemem_ctrl::{
    ControllerConfig, MemCommand, MemoryController, MitigationSpec, RefreshEngine, TraceEvent,
    TraceFilter, TraceReplayer,
};
use densemem_dram::module::RowRemap;
use densemem_dram::{BankGeometry, BitAddr, Manufacturer, Module, Timing, VintageProfile};
use std::time::Instant;

/// Patterns per round.
pub const PATTERNS: usize = 64;
/// Evaluations whose recorded request stream is replayed and compared:
/// every sixteenth.
const REPLAY_EVERY: usize = 16;

// E27's device and run, as `densemem::experiments::e27` builds them
// (`check_matches_e27` holds the copy to the original).
const MODULE_SEED: u64 = 2700;
const REFRESH_MULT: f64 = 8.0;
const THRESHOLD: f64 = 6_000.0;
const DEADLINE_NS: u64 = 12_000_000;
const SYNC_ROW: usize = 700;
const POOL_BASE: usize = 300;
const POOL_ROWS: usize = 16;

fn device() -> Module {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    let mut module = Module::new(
        1,
        BankGeometry::small(),
        profile,
        RowRemap::Identity,
        MODULE_SEED,
    );
    for i in 0..POOL_ROWS - 1 {
        let victim = POOL_BASE + 1 + 2 * i;
        module
            .bank_mut(0)
            .inject_disturb_cell(
                BitAddr {
                    row: victim,
                    word: 0,
                    bit: 3,
                },
                THRESHOLD,
            )
            .expect("victim address in range");
    }
    module
}

fn armed(module: Module, aggressors: &[usize], mit_seed: u64) -> MemoryController {
    let cfg = ControllerConfig {
        refresh_multiplier: REFRESH_MULT,
        ..Default::default()
    };
    let mut ctrl = MemoryController::new(module, cfg);
    ctrl.fill(0xFF);
    for &r in aggressors {
        ctrl.module_mut()
            .bank_mut(0)
            .fill_row(r, 0, 0)
            .expect("pool row in range");
    }
    let spec = MitigationSpec::parse(e27::SAMPLER_SPEC).expect("E27's sampler spec parses");
    ctrl.set_mitigation(spec.build(mit_seed).expect("E27's sampler spec builds"));
    ctrl
}

/// One pattern of the set, lowered, with its E27 defence seed.
struct Input {
    kernel: ShapedKernel,
    aggressors: Vec<usize>,
    mit_seed: u64,
}

/// What one evaluation leaves behind, for the checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    flips: usize,
    activations: u64,
    now_ns: u64,
    refreshes: u64,
}

/// Sub-step times of one evaluation, seconds.
struct Steps {
    build: f64,
    run: f64,
    scan: f64,
    total: f64,
}

/// The op: E27's `eval_shaped` for one pattern.
fn evaluate(input: &Input) -> (MemoryController, usize, Steps) {
    let t0 = Instant::now();
    let module = device();
    let built = t0.elapsed().as_secs_f64();
    let mut ctrl = armed(module, &input.aggressors, input.mit_seed);
    let interval = ctrl.refresh_interval_ns();
    let t1 = Instant::now();
    input
        .kernel
        .run_synced(&mut ctrl, DEADLINE_NS, interval, SYNC_ROW)
        .expect("pool rows are valid");
    let run = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let flips = input.kernel.victim_flips(&mut ctrl);
    let scan = t2.elapsed().as_secs_f64();
    let steps = Steps {
        build: built,
        run,
        scan,
        total: t0.elapsed().as_secs_f64(),
    };
    (ctrl, flips, steps)
}

/// Activations never outrun the tRC bound for the elapsed time.
fn check_trc(activations: u64, now_ns: u64, t_rc_ns: u64) -> Result<(), String> {
    let bound = now_ns / t_rc_ns + 1;
    if activations <= bound {
        Ok(())
    } else {
        Err(format!(
            "{activations} activations in {now_ns} ns exceed the tRC bound {bound}"
        ))
    }
}

/// Auto-refreshed rows per bank are within one tick of
/// `now_ns / refresh_interval_ns`.
fn check_refresh_rows(rows: u64, banks: u64, now_ns: u64, interval_ns: u64) -> Result<(), String> {
    let per_bank = rows / banks;
    let ticks = now_ns / interval_ns;
    if rows.is_multiple_of(banks) && per_bank.abs_diff(ticks) <= 1 {
        Ok(())
    } else {
        Err(format!(
            "{rows} auto-refreshed rows over {banks} banks, {ticks} ticks elapsed"
        ))
    }
}

/// The packed scan's per-row flip counts against a per-row
/// `inspect_row` recount of the bank against its fill pattern.
fn check_recount(scan: &[usize], recount: &[usize]) -> Result<(), String> {
    match scan.iter().zip(recount).position(|(a, b)| a != b) {
        None if scan.len() == recount.len() => Ok(()),
        None => Err(format!(
            "scan covers {} rows, recount {}",
            scan.len(),
            recount.len()
        )),
        Some(row) => Err(format!(
            "row {row}: packed scan finds {} flips, inspect_row recount {}",
            scan[row], recount[row]
        )),
    }
}

/// Live and replayed runs agree flip for flip and to the nanosecond.
fn check_replay(live: &(FlipSet, u64), replay: &(FlipSet, u64)) -> Result<(), String> {
    if live == replay {
        Ok(())
    } else {
        Err(format!(
            "live run: {} flips at {} ns; replay: {} flips at {} ns",
            live.0.len(),
            live.1,
            replay.0.len(),
            replay.1
        ))
    }
}

/// The benchmark's copy of E27's device agrees with E27's own evaluation.
fn check_matches_e27(i: usize, ours: usize, e27s: usize) -> Result<(), String> {
    if ours == e27s {
        Ok(())
    } else {
        Err(format!(
            "pattern {i}: {ours} flips here, {e27s} in e27::fuzz_eval_flips"
        ))
    }
}

/// `victim_flips` counts exactly the scan's flips in the pattern's
/// victim rows.
fn check_victim_flips(set: &FlipSet, victims: &[usize], flips: usize) -> Result<(), String> {
    let scanned = set.iter().filter(|f| victims.contains(&f.1)).count();
    if scanned == flips {
        Ok(())
    } else {
        Err(format!("victim_flips {flips}, scan {scanned}"))
    }
}

fn per_row_scan(set: &FlipSet, rows: usize) -> Vec<usize> {
    let mut counts = vec![0; rows];
    for &(_, row, _, _) in set {
        counts[row] += 1;
    }
    counts
}

fn per_row_recount(ctrl: &mut MemoryController) -> Vec<usize> {
    let now = ctrl.now_ns();
    let fill = u64::from_ne_bytes([0xFF; 8]);
    let bank = ctrl.module_mut().bank_mut(0);
    (0..bank.geometry().rows())
        .map(|row| {
            let data = bank.inspect_row(row, now).expect("row in range");
            data.iter().map(|w| (w ^ fill).count_ones() as usize).sum()
        })
        .collect()
}

/// Every per-evaluation check on a finished controller.
fn check_eval(
    out: &mut Outcome,
    input: &Input,
    ctrl: &mut MemoryController,
    flips: usize,
) -> Summary {
    let stats = *ctrl.stats();
    let t_rc = Timing::ddr3_1600().t_rc.round() as u64;
    out.check(probes::check_activations(
        probes::device_activations(ctrl),
        stats.activations,
    ));
    out.check(check_trc(stats.activations, ctrl.now_ns(), t_rc));
    out.check(check_refresh_rows(
        stats.auto_refresh_rows,
        ctrl.module().bank_count() as u64,
        ctrl.now_ns(),
        ctrl.refresh_interval_ns(),
    ));
    let set = probes::flip_set(ctrl);
    let rows = ctrl.module().bank(0).geometry().rows();
    out.check(check_recount(
        &per_row_scan(&set, rows),
        &per_row_recount(ctrl),
    ));
    out.check(check_victim_flips(
        &set,
        &input.kernel.pattern().victim_rows(),
        flips,
    ));
    Summary {
        flips,
        activations: stats.activations,
        now_ns: ctrl.now_ns(),
        refreshes: stats.mitigation_refreshes,
    }
}

/// Re-runs evaluation `i` live with its request stream recorded (and,
/// when asked, the all-origins stream the sampler saw), returning the
/// finished controller and the streams.
fn record_live(
    input: &Input,
    all_origins: bool,
) -> (MemoryController, densemem_ctrl::Trace, Vec<TraceEvent>) {
    let mut ctrl = armed(device(), &input.aggressors, input.mit_seed);
    let handle = all_origins.then(|| ctrl.record_trace(usize::MAX, TraceFilter::All));
    let interval = ctrl.refresh_interval_ns();
    ctrl.begin_request_log();
    input
        .kernel
        .run_synced(&mut ctrl, DEADLINE_NS, interval, SYNC_ROW)
        .expect("pool rows are valid");
    let req = ctrl.take_request_log("fuzz-live", input.mit_seed);
    let all = handle
        .map(|h| h.snapshot("all", 0).events)
        .unwrap_or_default();
    (ctrl, req, all)
}

/// The replay check for evaluation `i`: the recorded request stream,
/// replayed under the same defence seed, reproduces the live flip set
/// and clock; and E27's own evaluation agrees on the flip count.
fn replay_check(out: &mut Outcome, master: u64, i: usize, input: &Input, summary: Summary) {
    let (mut live, req, _) = record_live(input, false);
    let live_result = (probes::flip_set(&mut live), live.now_ns());
    let mut rep = armed(device(), &input.aggressors, input.mit_seed);
    TraceReplayer::new(&req)
        .replay(&mut rep)
        .expect("a recorded stream replays cleanly");
    let rep_result = (probes::flip_set(&mut rep), rep.now_ns());
    out.check(check_replay(&live_result, &rep_result));
    out.check(crate::check_equal(
        format_args!("pattern {i}: the recording run's end, ns"),
        &summary.now_ns,
        &live.now_ns(),
    ));
    let e27s = e27::fuzz_eval_flips(master, i, Some(e27::SAMPLER_SPEC));
    out.check(check_matches_e27(i, summary.flips, e27s));
}

/// Per-layer totals of one traced phase.
#[derive(Default)]
struct Traced {
    sample_us: Vec<f64>,
    kernel_self_ms: Vec<f64>,
    build_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    replay_secs: f64,
    requests_all: u64,
    drain_secs: f64,
    drive_secs: f64,
    drive_events: u64,
    apply_secs: f64,
    apply_cmds: u64,
    // First-round counts (every round repeats them).
    spin_reads: u64,
    pattern_reads: u64,
    requests: u64,
    activations: u64,
    commands: u64,
    refresh_rows: u64,
    sampler_refreshes: u64,
}

/// The traced op's probes for evaluation `i`. Returns the seconds the
/// controller took to replay the evaluation's own request stream.
fn probe(
    out: &mut Outcome,
    t: &mut Traced,
    master: u64,
    i: usize,
    input: &Input,
    ctrl: &MemoryController,
    first: bool,
) -> f64 {
    let s0 = Instant::now();
    let resampled = e27::fuzzed_pattern(master, i);
    t.sample_us.push(s0.elapsed().as_secs_f64() * 1e6);
    out.check(crate::check_equal(
        format_args!("pattern {i} resampled"),
        input.kernel.pattern(),
        &resampled,
    ));

    let (live, req, all) = record_live(input, true);
    out.check(crate::check_equal(
        format_args!("pattern {i}: the recording run's counters"),
        ctrl.stats(),
        live.stats(),
    ));
    let mut rep = armed(device(), &input.aggressors, input.mit_seed);
    let r0 = Instant::now();
    TraceReplayer::new(&req)
        .replay(&mut rep)
        .expect("a recorded stream replays cleanly");
    let replay = r0.elapsed().as_secs_f64();
    t.replay_secs += replay;
    t.requests_all += req.len() as u64;

    let requests: Vec<TraceEvent> = req.events;
    let rows = ctrl.module().bank(0).geometry().rows();
    let mut engine = RefreshEngine::new(Timing::ddr3_1600(), rows, REFRESH_MULT)
        .expect("E27's refresh configuration is valid");
    let (due, drain) = probes::drain_refresh(&mut engine, &requests);
    t.drain_secs += drain;

    let spec = MitigationSpec::parse(e27::SAMPLER_SPEC).expect("E27's sampler spec parses");
    let mut sampler = spec
        .build(input.mit_seed)
        .expect("E27's sampler spec builds");
    let mut module = device();
    let (alone, drive) = probes::drive_observer(sampler.as_mut(), &all, &mut module);
    out.check(probes::check_standalone(
        "trr-sampler",
        ctrl.stats().mitigation_refreshes,
        alone,
    ));
    t.drive_secs += drive;
    t.drive_events += all.len() as u64;

    let mut module = device();
    let (cmds, apply) = probes::apply_device(&mut module, &all);
    t.apply_secs += apply;
    t.apply_cmds += cmds;

    if first {
        let spins = requests
            .iter()
            .filter(|e| matches!(e.cmd, MemCommand::Rd { row, .. } if row == SYNC_ROW))
            .count() as u64;
        t.spin_reads += spins;
        t.pattern_reads += requests.len() as u64 - spins;
        t.requests += requests.len() as u64;
        t.activations += ctrl.stats().activations;
        t.commands += ctrl.stats().commands_emitted;
        t.refresh_rows += due;
        t.sampler_refreshes += alone;
    }
    replay
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let master = crate::stream_seed(cfg.seed, 27);
    let inputs: Vec<Input> = (0..PATTERNS)
        .map(|i| {
            let pattern: ShapedPattern = e27::fuzzed_pattern(master, i);
            let aggressors = pattern.aggressor_rows();
            Input {
                kernel: ShapedKernel::new(pattern),
                aggressors,
                mit_seed: master.wrapping_add(1000).wrapping_add(i as u64),
            }
        })
        .collect();
    let setup_s = cfg.started.elapsed().as_secs_f64();

    let mut out = Outcome::new();
    let mut reference: Vec<Option<Summary>> = vec![None; PATTERNS];
    let mut t = Traced::default();
    // One round: every pattern once; `traced` switches the probes on.
    let mut round = |out: &mut Outcome, r: usize, traced: bool| -> Vec<f64> {
        let mut times = Vec::with_capacity(PATTERNS);
        for (i, input) in inputs.iter().enumerate() {
            let (mut ctrl, flips, steps) = evaluate(input);
            times.push(steps.total);
            out.op(|out| {
                let summary = check_eval(out, input, &mut ctrl, flips);
                out.check(crate::check_repeat(
                    &mut reference[i],
                    &summary,
                    format_args!("pattern {i}, round {r}"),
                ));
                if traced {
                    t.build_ms.push(steps.build * 1e3);
                    t.scan_ms.push(steps.scan * 1e3);
                    let replay = probe(out, &mut t, master, i, input, &ctrl, r == 0);
                    t.kernel_self_ms.push((steps.run - replay) * 1e3);
                }
            });
        }
        times
    };

    // After the measured loop, so their memory stays out of peak_rss_mb.
    let replay_checks = |out: &mut Outcome, reference: &[Option<Summary>]| {
        for i in (0..PATTERNS).step_by(REPLAY_EVERY) {
            let summary = reference[i].expect("every pattern ran in the first round");
            replay_check(out, master, i, &inputs[i], summary);
        }
    };

    if !cfg.trace {
        let rounds = crate::measured_rounds(cfg.window, |r| Ok(round(&mut out, r, false)))?;
        let peak_rss_mb = measure::own_peak_rss_mb();
        replay_checks(&mut out, &reference);
        EndToEnd {
            setup_s,
            rounds,
            peak_rss_mb,
        }
        .report(&mut out);
        return Ok(out);
    }

    let overhead = crate::traced_phases(cfg.window, |r, traced| {
        round(&mut out, r, traced);
        Ok(())
    })?;
    replay_checks(&mut out, &reference);

    let mut layers = Layers::default();
    layers.set(
        "attack.pattern.sample_us",
        measure::median(&mut t.sample_us),
    );
    layers.set(
        "attack.pattern.kernel_self_ms",
        measure::median(&mut t.kernel_self_ms),
    );
    layers.set("attack.pattern.spin_reads", t.spin_reads as f64);
    layers.set("attack.pattern.pattern_reads", t.pattern_reads as f64);
    layers.set(
        "ctrl.controller.requests_per_s",
        t.requests_all as f64 / t.replay_secs,
    );
    layers.set("ctrl.controller.requests", t.requests as f64);
    layers.set("ctrl.controller.activations", t.activations as f64);
    layers.set("ctrl.controller.commands_emitted", t.commands as f64);
    layers.set(
        "ctrl.refresh.ns_per_request",
        t.drain_secs * 1e9 / t.requests_all as f64,
    );
    layers.set("ctrl.refresh.rows", t.refresh_rows as f64);
    layers.set(
        "ctrl.observer.trr-sampler.ns_per_event",
        t.drive_secs * 1e9 / t.drive_events as f64,
    );
    layers.set(
        "ctrl.observer.trr-sampler.refreshes",
        t.sampler_refreshes as f64,
    );
    layers.set("dram.module.build_ms", measure::median(&mut t.build_ms));
    layers.set(
        "dram.device.ns_per_cmd",
        t.apply_secs * 1e9 / t.apply_cmds as f64,
    );
    layers.set("dram.bank.scan_ms", measure::median(&mut t.scan_ms));
    layers.set("trace.overhead_pct", overhead);
    out.metrics = layers.into_metrics();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(i: usize) -> Input {
        let master = crate::stream_seed(7, 27);
        let pattern = e27::fuzzed_pattern(master, i);
        let aggressors = pattern.aggressor_rows();
        Input {
            kernel: ShapedKernel::new(pattern),
            aggressors,
            mit_seed: master.wrapping_add(1000).wrapping_add(i as u64),
        }
    }

    #[test]
    fn an_evaluation_passes_every_check() {
        let inp = input(0);
        let (mut ctrl, flips, _) = evaluate(&inp);
        let mut out = Outcome::new();
        let summary = check_eval(&mut out, &inp, &mut ctrl, flips);
        replay_check(&mut out, crate::stream_seed(7, 27), 0, &inp, summary);
        assert!(out.correct, "{:?}", out.problems);
    }

    #[test]
    fn trc_check_sees_one_activation_too_many() {
        assert!(check_trc(100, 4_900, 49).is_ok());
        assert!(check_trc(102, 4_900, 49).is_err());
    }

    #[test]
    fn refresh_check_sees_a_lost_tick() {
        assert!(check_refresh_rows(1536, 1, 12_000_000, 7812).is_ok());
        assert!(check_refresh_rows(1534, 1, 12_000_000, 7812).is_err());
        assert!(check_refresh_rows(1537, 2, 12_000_000, 7812).is_err());
    }

    #[test]
    fn recount_check_sees_one_flip_removed_from_the_scan() {
        let inp = input(1);
        let (mut ctrl, _, _) = evaluate(&inp);
        let mut set = probes::flip_set(&mut ctrl);
        let recount = per_row_recount(&mut ctrl);
        assert!(check_recount(&per_row_scan(&set, 1024), &recount).is_ok());
        set.pop();
        assert!(check_recount(&per_row_scan(&set, 1024), &recount).is_err());
    }

    #[test]
    fn replay_check_sees_one_flip_removed_from_the_replayed_set() {
        let live = (vec![(0, 301, 0, 3), (0, 303, 0, 3)], 12_000_017);
        let mut replay = live.clone();
        assert!(check_replay(&live, &replay).is_ok());
        replay.0.remove(1);
        assert!(check_replay(&live, &replay).is_err());
        let late = (live.0.clone(), live.1 + 1);
        assert!(check_replay(&live, &late).is_err());
    }

    #[test]
    fn victim_flip_check_sees_one_flip_more_than_the_scan() {
        let set = vec![(0, 301, 0, 3), (0, 302, 5, 0), (0, 500, 0, 1)];
        assert!(check_victim_flips(&set, &[301, 303], 1).is_ok());
        assert!(check_victim_flips(&set, &[301, 303], 2).is_err());
    }

    /// An op whose summary drifts from the first round's fails the op.
    #[test]
    fn repeat_check_fails_the_op_on_one_activation_more() {
        let (mut ctrl, flips, _) = evaluate(&input(2));
        let mut out = Outcome::new();
        let mut first = None;
        for extra in [0, 0, 1] {
            out.op(|out| {
                let mut summary = check_eval(out, &input(2), &mut ctrl, flips);
                summary.activations += extra;
                out.check(crate::check_repeat(&mut first, &summary, "pattern 2"));
            });
        }
        assert_eq!((out.attempted, out.failed), (3, 1), "{:?}", out.problems);
    }

    #[test]
    fn e27_check_sees_a_different_count() {
        assert!(check_matches_e27(3, 2, 2).is_ok());
        assert!(check_matches_e27(3, 2, 1).is_err());
    }
}
