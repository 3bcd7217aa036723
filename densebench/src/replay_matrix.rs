//! `replay-matrix`: E26's record-once-replay-N grid over a mixed stream.
//!
//! Input: one recorded request stream that interleaves double-sided
//! hammering of a weak victim row with benign random reads and about 30%
//! writes, all kept clear of the victim's neighbourhood. Set-up records
//! it, writes it as JSONL and reads it back. One op replays the stream
//! under one mitigation spec at one hammer threshold, on a fresh device
//! whose victim carries [`WEAK_CELLS`] cells at that threshold, and
//! flip-scans the device: ten specs (the nine registered plugins and the
//! composed `para+trr`) times E26's five thresholds.

use crate::layers::{Layers, PLUGINS};
use crate::probes;
use crate::{measure, stream_seed, EndToEnd, Outcome, RunConfig};
use densemem_ctrl::{
    ControllerConfig, MemoryController, MitigationSpec, RefreshEngine, Trace, TraceEvent,
    TraceReplayer,
};
use densemem_dram::module::RowRemap;
use densemem_dram::{BankGeometry, BitAddr, Manufacturer, Module, Timing, VintageProfile};
use rand::Rng;
use std::time::Instant;

/// E26's swept hammer thresholds.
pub const THRESHOLDS: [u64; 5] = [139_000, 32_000, 8_000, 2_000, 512];
const VICTIM: usize = 64;
const WEAK_CELLS: u8 = 4;
/// Benign traffic keeps this many rows clear on each side of the victim.
const GUARD: usize = 6;
/// Refresh at 4x: a 16 ms window, so the 18 ms stream crosses one window
/// reset, and the victim's one refresh-free window (1.0–17.0 ms) holds
/// about 190K aggressor activations — past the 139K threshold, so the
/// unmitigated device must lose every weak cell at every threshold.
const REFRESH_MULT: f64 = 4.0;
const STREAM_NS: u64 = 18_000_000;
/// Request mix: hammer reads, then benign reads, the rest benign writes.
const HAMMER_SHARE: f64 = 0.6;
const BENIGN_READ_SHARE: f64 = 0.1;
/// The fill pattern: every cell charged, aggressor rows inverted.
const FILL: u64 = u64::MAX;
/// Threshold index at which every plugin's standalone drive is checked
/// on an untraced run (the traced run checks every cell).
const CHECKED_THRESHOLD: usize = THRESHOLDS.len() - 1;

fn device(module_seed: u64, threshold: u64) -> Module {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    let mut module = Module::new(
        1,
        BankGeometry::small(),
        profile,
        RowRemap::Identity,
        module_seed,
    );
    for bit in 0..WEAK_CELLS {
        module
            .bank_mut(0)
            .inject_disturb_cell(
                BitAddr {
                    row: VICTIM,
                    word: 0,
                    bit,
                },
                threshold as f64,
            )
            .expect("victim address in range");
    }
    module
}

fn armed(module: Module) -> MemoryController {
    let cfg = ControllerConfig {
        refresh_multiplier: REFRESH_MULT,
        ..Default::default()
    };
    let mut ctrl = MemoryController::new(module, cfg);
    ctrl.fill(0xFF);
    debug_assert_eq!(u64::from_ne_bytes([0xFF; 8]), FILL);
    for r in [VICTIM - 1, VICTIM + 1] {
        ctrl.module_mut()
            .bank_mut(0)
            .fill_row(r, 0, 0)
            .expect("aggressor row in range");
    }
    ctrl
}

/// The spec replayed for plugin `name` at threshold `t`: registered
/// defaults, with the two threshold-aware plugins re-tuned to the point
/// as E26 does (Graphene at T/4, OracleRH at T).
pub fn spec_for(name: &str, t: u64) -> String {
    match name {
        "graphene" => format!("graphene:threshold={}", (t / 4).max(1)),
        "oracle" => format!("oracle:threshold={}", t.max(3)),
        other => other.to_owned(),
    }
}

/// Records the workload's request stream on an unmitigated device.
fn record(seed: u64, module_seed: u64) -> Trace {
    let mut ctrl = armed(device(module_seed, THRESHOLDS[0]));
    let mut rng = densemem_stats::rng::substream(seed, 26);
    let rows = ctrl.module().bank(0).geometry().rows();
    let words = ctrl.module().bank(0).geometry().words_per_row();
    ctrl.begin_request_log();
    let mut side = false;
    while ctrl.now_ns() < STREAM_NS {
        let u: f64 = rng.gen();
        if u < HAMMER_SHARE {
            let row = if side { VICTIM + 1 } else { VICTIM - 1 };
            side = !side;
            ctrl.read(0, row, 0).expect("aggressor in range");
            continue;
        }
        let row = loop {
            let r = rng.gen_range(0..rows);
            if r.abs_diff(VICTIM) > GUARD {
                break r;
            }
        };
        let word = rng.gen_range(0..words);
        if u < HAMMER_SHARE + BENIGN_READ_SHARE {
            ctrl.read(0, row, word).expect("benign row in range");
        } else {
            // Writes store the background pattern, so the flip scan
            // reports disturbance errors only.
            ctrl.write(0, row, word, FILL).expect("benign row in range");
        }
    }
    ctrl.take_request_log("replay-matrix", seed)
}

/// The JSONL round trip (`back`, as `Trace::from_jsonl` read it) returns
/// the identical trace.
fn check_roundtrip(
    sent: &Trace,
    back: Result<Trace, impl std::fmt::Display>,
) -> Result<Trace, String> {
    let back = back.map_err(|e| format!("JSONL read-back failed: {e}"))?;
    if back == *sent {
        Ok(back)
    } else {
        Err(format!(
            "JSONL round trip changed the trace ({} events in, {} out)",
            sent.len(),
            back.len()
        ))
    }
}

/// At every threshold OracleRH lets no weak cell escape, and with no
/// mitigation every weak cell escapes (the stream is sized so it must).
fn check_escapes(plugin: &str, threshold: u64, escaped: u8) -> Result<(), String> {
    let want = match plugin {
        "oracle" => 0,
        "none" => WEAK_CELLS,
        _ => return Ok(()),
    };
    if escaped == want {
        Ok(())
    } else {
        Err(format!(
            "{plugin} at T={threshold}: {escaped} of {WEAK_CELLS} weak cells escaped, want {want}"
        ))
    }
}

/// The flip scan's weak-cell escapes against an `inspect_row` recount.
fn check_escape_recount(scanned: u8, inspected: u8) -> Result<(), String> {
    if scanned == inspected {
        Ok(())
    } else {
        Err(format!(
            "flip scan finds {scanned} escaped cells, inspect_row {inspected}"
        ))
    }
}

/// One cell of the grid.
struct Cell {
    threshold_index: usize,
    plugin_index: usize,
    spec: String,
    mit_seed: u64,
}

/// What one replay leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    escaped: u8,
    refreshes: u64,
    activations: u64,
    commands: u64,
}

struct Steps {
    build: f64,
    replay: f64,
    scan: f64,
    total: f64,
}

/// An armed controller over `module`, defended by `cell`'s plugin.
fn defended(module: Module, cell: &Cell) -> MemoryController {
    let mut ctrl = armed(module);
    let spec = MitigationSpec::parse(&cell.spec).expect("grid specs parse");
    ctrl.set_mitigation(spec.build(cell.mit_seed).expect("grid specs build"));
    ctrl
}

/// The op: one plugin replay at one threshold, then the flip scan.
fn replay_cell(trace: &Trace, module_seed: u64, cell: &Cell) -> (MemoryController, u8, Steps) {
    let t0 = Instant::now();
    let module = device(module_seed, THRESHOLDS[cell.threshold_index]);
    let build = t0.elapsed().as_secs_f64();
    let mut ctrl = defended(module, cell);
    let t1 = Instant::now();
    TraceReplayer::new(trace)
        .replay(&mut ctrl)
        .expect("the recorded stream replays cleanly");
    let replay = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let escaped = probes::flip_set(&mut ctrl)
        .iter()
        .filter(|&&(_, row, word, bit)| row == VICTIM && word == 0 && bit < WEAK_CELLS)
        .count() as u8;
    let scan = t2.elapsed().as_secs_f64();
    (
        ctrl,
        escaped,
        Steps {
            build,
            replay,
            scan,
            total: t0.elapsed().as_secs_f64(),
        },
    )
}

/// Drives `cell`'s plugin on its own with the all-origins stream it saw
/// inside the controller, and checks it issues the same `inside`
/// refreshes. Returns the standalone count, the drive's seconds and the
/// stream.
fn standalone(
    out: &mut Outcome,
    trace: &Trace,
    module_seed: u64,
    cell: &Cell,
    inside: u64,
) -> (u64, f64, Vec<TraceEvent>) {
    let mut rec = defended(device(module_seed, THRESHOLDS[cell.threshold_index]), cell);
    let events = probes::record_all(&mut rec, trace);
    let spec = MitigationSpec::parse(&cell.spec).expect("grid specs parse");
    let mut plugin = spec.build(cell.mit_seed).expect("grid specs build");
    let mut module = device(module_seed, THRESHOLDS[cell.threshold_index]);
    let (alone, secs) = probes::drive_observer(plugin.as_mut(), &events, &mut module);
    let what = format!("{} at T={}", cell.spec, THRESHOLDS[cell.threshold_index]);
    out.check(probes::check_standalone(&what, inside, alone));
    (alone, secs, events)
}

/// Per-layer totals of one traced phase.
#[derive(Default)]
struct Traced {
    build_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    replay_ms: Vec<Vec<f64>>,
    replay_secs: f64,
    requests_all: u64,
    drive_secs: Vec<f64>,
    drive_events: Vec<u64>,
    apply_secs: f64,
    apply_cmds: u64,
    encode_secs: f64,
    decode_secs: f64,
    codec_bytes: u64,
    drain_secs: f64,
    drained_requests: u64,
    // First-round counts.
    refreshes: Vec<u64>,
    requests: u64,
    activations: u64,
    commands: u64,
    refresh_rows: u64,
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let module_seed = stream_seed(cfg.seed, 2600);
    let recorded = record(cfg.seed, module_seed);
    let text = recorded.to_jsonl();
    let mut out = Outcome::new();
    let trace = match check_roundtrip(&recorded, Trace::from_jsonl(&text)) {
        Ok(t) => t,
        Err(why) => {
            out.check(Err(why));
            recorded
        }
    };
    let setup_s = cfg.started.elapsed().as_secs_f64();
    drop(text);

    let cells: Vec<Cell> = (0..THRESHOLDS.len())
        .flat_map(|ti| {
            PLUGINS.iter().enumerate().map(move |(pi, (name, _))| Cell {
                threshold_index: ti,
                plugin_index: pi,
                spec: spec_for(name, THRESHOLDS[ti]),
                mit_seed: stream_seed(cfg.seed, 100 + (ti * 16 + pi) as u64),
            })
        })
        .collect();
    let mut reference: Vec<Option<Summary>> = vec![None; cells.len()];
    let mut t = Traced {
        replay_ms: vec![Vec::new(); PLUGINS.len()],
        drive_secs: vec![0.0; PLUGINS.len()],
        drive_events: vec![0; PLUGINS.len()],
        refreshes: vec![0; PLUGINS.len()],
        ..Traced::default()
    };

    // One round: every cell once; `traced` switches the probes on.
    let mut round = |out: &mut Outcome, r: usize, traced: bool| -> Vec<f64> {
        let mut times = Vec::with_capacity(cells.len());
        if traced {
            let e0 = Instant::now();
            let text = trace.to_jsonl();
            t.encode_secs += e0.elapsed().as_secs_f64();
            let d0 = Instant::now();
            let back = Trace::from_jsonl(&text);
            t.decode_secs += d0.elapsed().as_secs_f64();
            t.codec_bytes += text.len() as u64;
            out.check(check_roundtrip(&trace, back).map(drop));
            let requests: Vec<TraceEvent> = trace.requests().copied().collect();
            let mut engine = RefreshEngine::new(Timing::ddr3_1600(), 1024, REFRESH_MULT)
                .expect("the workload's refresh configuration is valid");
            let (rows, secs) = probes::drain_refresh(&mut engine, &requests);
            t.drain_secs += secs;
            t.drained_requests += requests.len() as u64;
            if r == 0 {
                t.refresh_rows = rows;
            }
        }
        for (ci, cell) in cells.iter().enumerate() {
            let (mut ctrl, escaped, steps) = replay_cell(&trace, module_seed, cell);
            times.push(steps.total);
            out.op(|out| {
                let stats = *ctrl.stats();
                let threshold = THRESHOLDS[cell.threshold_index];
                out.check(probes::check_activations(
                    probes::device_activations(&ctrl),
                    stats.activations,
                ));
                let now = ctrl.now_ns();
                let row = ctrl
                    .module_mut()
                    .bank_mut(0)
                    .inspect_row(VICTIM, now)
                    .expect("victim row");
                let kept = (row[0] & ((1 << WEAK_CELLS) - 1)).count_ones() as u8;
                out.check(check_escape_recount(escaped, WEAK_CELLS - kept));
                out.check(check_escapes(
                    PLUGINS[cell.plugin_index].0,
                    threshold,
                    escaped,
                ));
                let summary = Summary {
                    escaped,
                    refreshes: stats.mitigation_refreshes,
                    activations: stats.activations,
                    commands: stats.commands_emitted,
                };
                out.check(crate::check_repeat(
                    &mut reference[ci],
                    &summary,
                    format_args!("{} at T={threshold}, round {r}", cell.spec),
                ));
                if !traced {
                    return;
                }
                let (alone, drive_secs, events) =
                    standalone(out, &trace, module_seed, cell, summary.refreshes);
                let pi = cell.plugin_index;
                t.build_ms.push(steps.build * 1e3);
                t.scan_ms.push(steps.scan * 1e3);
                t.replay_ms[pi].push(steps.replay * 1e3);
                t.replay_secs += steps.replay;
                t.requests_all += trace.len() as u64;
                t.drive_secs[pi] += drive_secs;
                t.drive_events[pi] += events.len() as u64;
                let mut module = device(module_seed, threshold);
                let (cmds, apply) = probes::apply_device(&mut module, &events);
                t.apply_secs += apply;
                t.apply_cmds += cmds;
                if r == 0 {
                    t.refreshes[pi] += alone;
                    t.requests += trace.len() as u64;
                    t.activations += stats.activations;
                    t.commands += stats.commands_emitted;
                }
            });
        }
        times
    };

    if !cfg.trace {
        let rounds = crate::measured_rounds(cfg.window, |r| Ok(round(&mut out, r, false)))?;
        // The standalone drives record whole event streams: after the
        // measured loop, so their memory stays out of peak_rss_mb.
        let peak_rss_mb = measure::own_peak_rss_mb();
        for (ci, cell) in cells.iter().enumerate() {
            if cell.threshold_index == CHECKED_THRESHOLD {
                let inside = reference[ci].expect("every cell ran").refreshes;
                standalone(&mut out, &trace, module_seed, cell, inside);
            }
        }
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

    let mut layers = Layers::default();
    layers.set(
        "ctrl.controller.requests_per_s",
        t.requests_all as f64 / t.replay_secs,
    );
    layers.set("ctrl.controller.requests", t.requests as f64);
    layers.set("ctrl.controller.activations", t.activations as f64);
    layers.set("ctrl.controller.commands_emitted", t.commands as f64);
    layers.set(
        "ctrl.refresh.ns_per_request",
        t.drain_secs * 1e9 / t.drained_requests as f64,
    );
    layers.set("ctrl.refresh.rows", t.refresh_rows as f64);
    for (pi, (_, metric)) in PLUGINS.iter().enumerate() {
        layers.set(
            format!("ctrl.observer.{metric}.ns_per_event"),
            t.drive_secs[pi] * 1e9 / t.drive_events[pi] as f64,
        );
        layers.set(
            format!("ctrl.observer.{metric}.refreshes"),
            t.refreshes[pi] as f64,
        );
        layers.set(
            format!("replay.{metric}.ms"),
            measure::median(&mut t.replay_ms[pi]),
        );
    }
    let mb = t.codec_bytes as f64 / 1e6;
    layers.set("ctrl.trace.encode_mb_per_s", mb / t.encode_secs);
    layers.set("ctrl.trace.decode_mb_per_s", mb / t.decode_secs);
    layers.set("ctrl.trace.events", trace.len() as f64);
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

    #[test]
    fn roundtrip_check_sees_one_trace_line_dropped() {
        let trace = record(5, stream_seed(5, 2600));
        let text = trace.to_jsonl();
        assert!(check_roundtrip(&trace, Trace::from_jsonl(&text)).is_ok());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1000);
        let dropped = lines.join("\n");
        assert!(check_roundtrip(&trace, Trace::from_jsonl(&dropped)).is_err());
    }

    #[test]
    fn stream_mix_is_as_documented() {
        let trace = record(5, stream_seed(5, 2600));
        let n = trace.len() as f64;
        let writes = trace
            .requests()
            .filter(|e| matches!(e.cmd, densemem_ctrl::MemCommand::Wr { .. }))
            .count() as f64;
        assert!(
            (writes / n - 0.3).abs() < 0.01,
            "write share {}",
            writes / n
        );
        assert!(trace.requests().all(|e| {
            let row = e.cmd.row();
            row == VICTIM - 1 || row == VICTIM + 1 || row.abs_diff(VICTIM) > GUARD
        }));
    }

    #[test]
    fn escape_checks_see_one_cell() {
        assert!(check_escapes("oracle", 512, 0).is_ok());
        assert!(check_escapes("oracle", 512, 1).is_err());
        assert!(check_escapes("none", 139_000, WEAK_CELLS).is_ok());
        assert!(check_escapes("none", 139_000, WEAK_CELLS - 1).is_err());
        assert!(check_escapes("para", 512, 2).is_ok());
        assert!(check_escape_recount(2, 2).is_ok());
        assert!(check_escape_recount(2, 1).is_err());
    }
}
