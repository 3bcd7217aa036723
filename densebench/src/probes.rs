//! Outside-in probes of the command path, shared by `fuzz-live` and
//! `replay-matrix`: each calls one layer's public functions with the
//! exact stream that layer saw in the workload, and times the call.

use densemem_ctrl::{
    CommandObserver, CommandOrigin, CtrlStats, MemCommand, MemoryController, ObserverCtx,
    RefreshEngine, Trace, TraceEvent, TraceFilter, TraceReplayer,
};
use densemem_dram::{FlipRecord, Module};
use std::time::Instant;

/// A device's flip set, sorted: `(bank, row, word, bit)`.
pub type FlipSet = Vec<(usize, usize, usize, u8)>;

/// The controller's packed scan as a sorted flip set.
pub fn flip_set(ctrl: &mut MemoryController) -> FlipSet {
    let mut set: FlipSet = ctrl
        .scan_flips()
        .into_iter()
        .map(|FlipRecord { bank, addr }| (bank, addr.row, addr.word, addr.bit))
        .collect();
    set.sort_unstable();
    set
}

/// Replays `trace` into `ctrl` with an all-origins recorder appended to
/// its chain, returning the events in the order the chain's first
/// observer saw them (controller events, each followed by the
/// mitigation refreshes it triggered).
pub fn record_all(ctrl: &mut MemoryController, trace: &Trace) -> Vec<TraceEvent> {
    let handle = ctrl.record_trace(usize::MAX, TraceFilter::All);
    TraceReplayer::new(trace)
        .replay(ctrl)
        .expect("a recorded stream replays cleanly");
    handle.snapshot("all-origins", trace.seed).events
}

/// Whether `e` belongs to an auto-refresh batch: the controller's REF
/// commands and the mitigation refreshes they trigger.
fn in_refresh_batch(e: &TraceEvent) -> bool {
    e.origin == CommandOrigin::Mitigation
        || (e.origin == CommandOrigin::Controller && matches!(e.cmd, MemCommand::Ref { .. }))
}

/// Feeds a recorded all-origins stream to `observer` alone, as the
/// controller's chain did: one `observe` per event with the event's
/// time, and a window reset where the controller issued one — after the
/// refresh batch in which the last bank's last row came due. Returns
/// the row refreshes the observer issued and the seconds it took.
pub fn drive_observer(
    observer: &mut dyn CommandObserver,
    events: &[TraceEvent],
    module: &mut Module,
) -> (u64, f64) {
    let last_row = module.bank(0).geometry().rows() - 1;
    let last_bank = module.bank_count() - 1;
    let mut stats = CtrlStats::default();
    let mut reset_due = false;
    let start = Instant::now();
    for e in events {
        if reset_due && !in_refresh_batch(e) {
            observer.on_window_reset();
            reset_due = false;
        }
        let mut ctx = ObserverCtx::new(module, &mut stats, e.at_ns);
        observer.observe(e, &mut ctx);
        if e.origin == CommandOrigin::Controller
            && e.cmd
                == (MemCommand::Ref {
                    bank: last_bank,
                    row: last_row,
                })
        {
            reset_due = true;
        }
    }
    (stats.mitigation_refreshes, start.elapsed().as_secs_f64())
}

/// Applies the device commands of a recorded all-origins stream (the
/// controller's ACT/PRE/REF, the mitigations' row refreshes, and the
/// requests' writes) straight to `module`. Returns the command count and
/// the seconds it took.
pub fn apply_device(module: &mut Module, events: &[TraceEvent]) -> (u64, f64) {
    let mut cmds = 0u64;
    let start = Instant::now();
    for e in events {
        let applied = match (e.origin, e.cmd) {
            (CommandOrigin::Controller, MemCommand::Act { bank, row }) => {
                module.activate(bank, row, e.at_ns)
            }
            (CommandOrigin::Controller, MemCommand::Pre { bank, .. }) => module.precharge(bank),
            (CommandOrigin::Controller, MemCommand::Ref { bank, row })
            | (CommandOrigin::Mitigation, MemCommand::RefRow { bank, row }) => {
                module.refresh_row(bank, row, e.at_ns)
            }
            (
                CommandOrigin::Request,
                MemCommand::Wr {
                    bank,
                    row,
                    word,
                    value,
                },
            ) => module.write_word(bank, row, word, value),
            _ => continue,
        };
        applied.expect("recorded device commands address valid rows");
        cmds += 1;
    }
    (cmds, start.elapsed().as_secs_f64())
}

/// Drains a fresh refresh engine at each recorded request's time.
/// Returns the rows that came due and the seconds it took.
pub fn drain_refresh(engine: &mut RefreshEngine, requests: &[TraceEvent]) -> (u64, f64) {
    let mut rows = 0u64;
    let start = Instant::now();
    for e in requests {
        rows += engine.due_rows(e.at_ns).count() as u64;
    }
    (rows, start.elapsed().as_secs_f64())
}

/// `Bank::total_activations` summed over the device, against the
/// controller's own count.
pub fn check_activations(device: u64, controller: u64) -> Result<(), String> {
    if device == controller {
        Ok(())
    } else {
        Err(format!(
            "device counted {device} activations, controller {controller}"
        ))
    }
}

/// A plugin driven on its own by the recorded stream must issue exactly
/// the refreshes it issued inside the controller.
pub fn check_standalone(what: &str, in_controller: u64, standalone: u64) -> Result<(), String> {
    if in_controller == standalone {
        Ok(())
    } else {
        Err(format!(
            "{what}: {in_controller} refreshes inside the controller, {standalone} driven alone"
        ))
    }
}

/// Sum of `Bank::total_activations` over every bank.
pub fn device_activations(ctrl: &MemoryController) -> u64 {
    let m = ctrl.module();
    (0..m.bank_count())
        .map(|b| m.bank(b).total_activations())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemem_ctrl::{ControllerConfig, MitigationSpec};
    use densemem_dram::module::RowRemap;
    use densemem_dram::{BankGeometry, Manufacturer, VintageProfile};

    fn controller(mult: f64) -> MemoryController {
        let module = Module::new(
            1,
            BankGeometry::small(),
            VintageProfile::new(Manufacturer::A, 2013),
            RowRemap::Identity,
            9,
        );
        MemoryController::new(
            module,
            ControllerConfig {
                refresh_multiplier: mult,
                ..Default::default()
            },
        )
    }

    fn hammer_trace(mult: f64) -> Trace {
        let mut live = controller(mult);
        live.fill(0xFF);
        live.begin_request_log();
        while live.now_ns() < 20_000_000 {
            live.read(0, 99, 0).unwrap();
            live.read(0, 101, 0).unwrap();
        }
        live.take_request_log("t", 9)
    }

    /// The standalone drive reproduces the in-controller refresh count
    /// across window resets (16x refresh: a 4 ms window, five resets),
    /// and dropping one recorded event breaks the agreement.
    #[test]
    fn standalone_drive_matches_and_a_dropped_event_shows() {
        let trace = hammer_trace(16.0);
        let spec = MitigationSpec::parse("cra:threshold=2000").unwrap();
        let mut ctrl = controller(16.0);
        ctrl.fill(0xFF);
        ctrl.set_mitigation(spec.build(1).unwrap());
        let events = record_all(&mut ctrl, &trace);
        let inside = ctrl.stats().mitigation_refreshes;
        assert!(inside > 0);
        let mut module = controller(16.0).into_module();
        let (alone, _) = drive_observer(spec.build(1).unwrap().as_mut(), &events, &mut module);
        assert!(check_standalone("cra", inside, alone).is_ok());

        // Without the window resets CRA's counters never clear, so it
        // fires on a different schedule.
        let mut module = controller(16.0).into_module();
        let no_resets: Vec<TraceEvent> = events
            .iter()
            .copied()
            .filter(|e| {
                !(e.origin == CommandOrigin::Controller
                    && matches!(e.cmd, MemCommand::Ref { row: 1023, .. }))
            })
            .collect();
        let (wrong, _) = drive_observer(spec.build(1).unwrap().as_mut(), &no_resets, &mut module);
        assert!(check_standalone("cra", inside, wrong).is_err());
    }

    #[test]
    fn activation_check_sees_one_missing_activation() {
        let trace = hammer_trace(1.0);
        let mut ctrl = controller(1.0);
        ctrl.fill(0xFF);
        TraceReplayer::new(&trace).replay(&mut ctrl).unwrap();
        let device = device_activations(&ctrl);
        assert!(check_activations(device, ctrl.stats().activations).is_ok());
        assert!(check_activations(device - 1, ctrl.stats().activations).is_err());
    }

    #[test]
    fn device_apply_reaches_the_controller_activation_count() {
        let trace = hammer_trace(4.0);
        let mut ctrl = controller(4.0);
        ctrl.fill(0xFF);
        let events = record_all(&mut ctrl, &trace);
        let mut module = controller(4.0).into_module();
        apply_device(&mut module, &events);
        assert_eq!(module.bank(0).total_activations(), ctrl.stats().activations);
    }

    #[test]
    fn refresh_drain_counts_one_row_per_tick() {
        let trace = hammer_trace(1.0);
        let requests: Vec<TraceEvent> = trace.requests().copied().collect();
        let mut engine = RefreshEngine::new(densemem_dram::Timing::ddr3_1600(), 1024, 1.0).unwrap();
        let (rows, _) = drain_refresh(&mut engine, &requests);
        let last = requests.last().unwrap().at_ns;
        assert_eq!(rows, last / engine.per_row_interval_ns());
    }
}
