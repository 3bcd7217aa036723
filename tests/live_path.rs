//! Integration: the live command path's shortcuts change no simulated
//! bit.
//!
//! * `MemoryController::read_until` must equal the plain `read` loop it
//!   is defined as — stats, clock, request log, recorded events and
//!   flips — whether or not its O(1) run of open-row hits applies.
//! * Observer dispatch skips origins no observer consumes, so attaching
//!   an all-origins recorder must not move any registered plugin's
//!   stats, refresh attribution or flips.
//! * `InDramTrr` breaks count ties by `(bank, row)`, not by the hash
//!   order of its table.

use densemem_ctrl::controller::{ControllerConfig, MemoryController, PagePolicy};
use densemem_ctrl::mitigation::registry::registry;
use densemem_ctrl::{
    CommandObserver, CommandOrigin, CtrlStats, InDramTrr, MemCommand, MitigationSpec, ObserverCtx,
    Trace, TraceEvent, TraceFilter, TraceHandle, TraceReplayer,
};
use densemem_dram::module::RowRemap;
use densemem_dram::{BankGeometry, BitAddr, FlipRecord, Manufacturer, Module, VintageProfile};
use densemem_stats::rng::substream;
use rand::Rng;

const MODULE_SEED: u64 = 1505;
/// Aggressors around two weak victims per bank.
const AGGRESSORS: [usize; 4] = [300, 302, 310, 312];
const VICTIMS: [usize; 2] = [301, 311];
const SYNC_ROW: usize = 700;

fn device(banks: usize) -> Module {
    let profile = VintageProfile::new(Manufacturer::A, 2013);
    let mut module = Module::new(
        banks,
        BankGeometry::small(),
        profile,
        RowRemap::Identity,
        MODULE_SEED,
    );
    for bank in 0..banks {
        for row in VICTIMS {
            module
                .bank_mut(bank)
                .inject_disturb_cell(
                    BitAddr {
                        row,
                        word: 0,
                        bit: 3,
                    },
                    1_200.0,
                )
                .unwrap();
        }
    }
    module
}

/// An armed controller at 8x refresh (a tick every ~7.8 us).
fn armed(module: Module, policy: PagePolicy) -> MemoryController {
    let cfg = ControllerConfig {
        refresh_multiplier: 8.0,
        page_policy: policy,
        ..Default::default()
    };
    let mut ctrl = MemoryController::new(module, cfg);
    ctrl.fill(0xFF);
    for bank in 0..ctrl.module().bank_count() {
        for row in AGGRESSORS {
            ctrl.module_mut()
                .bank_mut(bank)
                .fill_row(row, 0, 0)
                .unwrap();
        }
    }
    ctrl
}

/// Which observers a scenario attaches.
#[derive(Debug, Clone, Copy)]
enum Observers {
    None,
    /// A sampler plus a device-only recorder: neither consumes requests.
    DeviceOnly,
    /// A sampler plus an all-origins recorder: the requests are consumed.
    All,
}

/// One step of a seeded script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Spin on `(bank, row, word)` for `span` ns past the current time.
    Spin {
        bank: usize,
        row: usize,
        word: usize,
        span: u64,
    },
    /// `n` alternating reads of two aggressors (activations).
    Hammer { bank: usize, pair: usize, n: usize },
    /// One write to an aggressor.
    Write { bank: usize, row: usize },
}

fn script(seed: u64, banks: usize, interval: u64) -> Vec<Step> {
    let mut rng = substream(seed, 0x5917);
    (0..48)
        .map(|_| {
            let bank = rng.gen_range(0..banks);
            match rng.gen_range(0..4) {
                0 | 1 => Step::Spin {
                    bank,
                    row: if rng.gen_range(0..4) == 0 {
                        AGGRESSORS[0]
                    } else {
                        SYNC_ROW
                    },
                    word: rng.gen_range(0..4usize),
                    // Up to ~2.5 ticks: spins that end before, on and
                    // after refresh ticks.
                    span: rng.gen_range(0..5 * interval / 2),
                },
                2 => Step::Hammer {
                    bank,
                    pair: rng.gen_range(0..2usize),
                    n: rng.gen_range(1..400usize),
                },
                _ => Step::Write {
                    bank,
                    row: AGGRESSORS[rng.gen_range(0..4usize)],
                },
            }
        })
        .collect()
}

/// Everything a run leaves that the comparison covers.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: CtrlStats,
    now_ns: u64,
    request_log: Trace,
    recorded: Vec<TraceEvent>,
    refreshes_by_name: Vec<(&'static str, u64)>,
    flips: Vec<FlipRecord>,
}

/// Runs `steps`, spinning through `read_until` (`bulk`) or through the
/// `read` loop `read_until` is defined as.
fn run(
    device: &Module,
    seed: u64,
    policy: PagePolicy,
    log: bool,
    observers: Observers,
    bulk: bool,
) -> Outcome {
    let mut ctrl = armed(device.clone(), policy);
    let mut handle: Option<TraceHandle> = None;
    if !matches!(observers, Observers::None) {
        let sampler = MitigationSpec::parse("trr-sampler:p=0.2,table=8").unwrap();
        ctrl.set_mitigation(sampler.build(seed).unwrap());
        let filter = match observers {
            Observers::All => TraceFilter::All,
            _ => TraceFilter::DeviceOnly,
        };
        handle = Some(ctrl.record_trace(usize::MAX, filter));
    }
    if log {
        ctrl.begin_request_log();
    }
    for step in script(seed, device.bank_count(), ctrl.refresh_interval_ns()) {
        match step {
            Step::Spin {
                bank,
                row,
                word,
                span,
            } => {
                let target = ctrl.now_ns() + span;
                if bulk {
                    ctrl.read_until(bank, row, word, target).unwrap();
                } else {
                    while ctrl.now_ns() < target {
                        ctrl.read(bank, row, word).unwrap();
                    }
                }
            }
            Step::Hammer { bank, pair, n } => {
                for i in 0..n {
                    ctrl.read(bank, AGGRESSORS[2 * pair + i % 2], 0).unwrap();
                }
            }
            Step::Write { bank, row } => ctrl.write(bank, row, 1, 0xA5A5).unwrap(),
        }
    }
    Outcome {
        stats: *ctrl.stats(),
        now_ns: ctrl.now_ns(),
        request_log: ctrl.take_request_log("live", seed),
        recorded: handle
            .map(|h| h.snapshot("live", seed).events)
            .unwrap_or_default(),
        refreshes_by_name: ctrl.mitigation_refreshes_by_name(),
        flips: ctrl.scan_flips(),
    }
}

#[test]
fn read_until_equals_the_read_loop() {
    let device = device(2);
    let mut flipped = 0;
    for seed in 0..3 {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            for log in [false, true] {
                for observers in [Observers::None, Observers::DeviceOnly, Observers::All] {
                    let fast = run(&device, seed, policy, log, observers, true);
                    let slow = run(&device, seed, policy, log, observers, false);
                    assert_eq!(
                        fast, slow,
                        "seed {seed}, {policy:?}, log {log}, observers {observers:?}"
                    );
                    assert_eq!(fast.request_log.is_empty(), !log);
                    flipped += usize::from(!fast.flips.is_empty());
                }
            }
        }
    }
    assert!(
        flipped > 0,
        "some scenario must flip, or the flip comparison is vacuous"
    );
}

#[test]
fn read_until_fails_on_a_bad_address_like_the_read_loop() {
    let device = device(1);
    let bad = [(0, 10, 1 << 20), (0, 1 << 20, 0), (9, 10, 0)];
    for (bank, row, word) in bad {
        let mut fast = armed(device.clone(), PagePolicy::Open);
        let mut slow = armed(device.clone(), PagePolicy::Open);
        for c in [&mut fast, &mut slow] {
            c.begin_request_log();
            c.read_until(0, SYNC_ROW, 0, 20_000).unwrap();
        }
        let target = fast.now_ns() + 20_000;
        let fast_err = fast.read_until(bank, row, word, target).unwrap_err();
        let slow_err = loop {
            if let Err(e) = slow.read(bank, row, word) {
                break e;
            }
        };
        assert_eq!(fast_err, slow_err, "({bank}, {row}, {word})");
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.now_ns(), slow.now_ns());
        assert_eq!(
            fast.take_request_log("bad", 0),
            slow.take_request_log("bad", 0)
        );
        assert_eq!(fast.scan_flips(), slow.scan_flips());
    }
}

/// Every registered plugin (parameters lowered so each one acts on a
/// short stream) and one composition.
const SPECS: &[&str] = &[
    "none",
    "para:p=0.05",
    "para-logical:p=0.05",
    "cra:threshold=300",
    "trr-sampler:p=0.05,table=16",
    "trr",
    "anvil:interval-ns=100000,threshold=200",
    "graphene:table=8,threshold=300",
    "oracle:threshold=900",
    "para+trr",
];

/// A hammering stream with refresh-synchronized spins and writes, as
/// recorded from the live controller.
fn recorded_stream(device: &Module) -> Trace {
    let mut ctrl = armed(device.clone(), PagePolicy::Open);
    ctrl.begin_request_log();
    let interval = ctrl.refresh_interval_ns();
    for cycle in 0..120u64 {
        let target = (ctrl.now_ns() / interval + 1) * interval;
        ctrl.read_until(0, SYNC_ROW, 0, target).unwrap();
        for i in 0..150 {
            ctrl.read(0, AGGRESSORS[i % 4], 0).unwrap();
        }
        ctrl.write(0, AGGRESSORS[(cycle % 4) as usize], 1, cycle)
            .unwrap();
    }
    ctrl.take_request_log("stream", MODULE_SEED)
}

#[test]
fn an_all_origins_recorder_changes_no_plugin_outcome() {
    for plugin in registry() {
        assert!(
            SPECS
                .iter()
                .any(|s| s.split([':', '+']).next() == Some(plugin.name)),
            "registered plugin {} is not covered",
            plugin.name
        );
    }
    let device = device(1);
    let stream = recorded_stream(&device);
    for spec in SPECS {
        let replay = |recorder: bool| {
            let mut ctrl = armed(device.clone(), PagePolicy::Open);
            ctrl.set_mitigation(MitigationSpec::parse(spec).unwrap().build(77).unwrap());
            let handle = recorder.then(|| ctrl.record_trace(usize::MAX, TraceFilter::All));
            TraceReplayer::new(&stream).replay(&mut ctrl).unwrap();
            let recorded = handle.map_or(0, |h| h.len());
            (
                *ctrl.stats(),
                ctrl.mitigation_refreshes_by_name(),
                ctrl.scan_flips(),
                recorded,
            )
        };
        let (stats, by_name, flips, _) = replay(false);
        let (rec_stats, mut rec_by_name, rec_flips, recorded) = replay(true);
        assert_eq!(rec_by_name.pop(), Some(("trace-recorder", 0)), "{spec}");
        assert_eq!(rec_stats, stats, "{spec}: stats");
        assert_eq!(rec_by_name, by_name, "{spec}: refreshes by name");
        assert_eq!(rec_flips, flips, "{spec}: flips");
        assert_eq!(
            recorded as u64, stats.commands_emitted,
            "{spec}: the recorder saw every event"
        );
        if *spec != "none" {
            assert!(
                stats.mitigation_refreshes > 0,
                "{spec} must act on the stream"
            );
        }
    }
}

#[test]
fn in_dram_trr_breaks_count_ties_on_the_smallest_row() {
    // Four rows with equal counts, activated in an order unlike their
    // key order, then one REF tick per row.
    let rows = [40, 3, 20, 10];
    let mut stream = Vec::new();
    for _ in 0..40 {
        stream.extend(rows.map(|row| MemCommand::Act { bank: 0, row }));
    }
    stream.extend(rows.map(|row| MemCommand::Ref {
        bank: 0,
        row: row + 500,
    }));
    let mut module = device(1);
    let refreshed = |module: &mut Module| {
        let mut trr = InDramTrr::new(4, 32).unwrap();
        let mut stats = CtrlStats::default();
        let mut out = Vec::new();
        for (t, &cmd) in stream.iter().enumerate() {
            let event = TraceEvent {
                at_ns: t as u64,
                origin: CommandOrigin::Controller,
                cmd,
            };
            let mut ctx = ObserverCtx::new(module, &mut stats, event.at_ns);
            trr.observe(&event, &mut ctx);
            out.extend(ctx.take_emitted().into_iter().map(|c| c.row()));
        }
        out
    };
    let first = refreshed(&mut module);
    assert_eq!(
        first,
        [2, 4, 9, 11, 19, 21, 39, 41],
        "ties go to the smallest (bank, row)"
    );
    for instance in 1..64 {
        assert_eq!(refreshed(&mut module), first, "instance {instance}");
    }
}
