//! `densebench`: one benchmark command for the densemem lab.
//!
//! ```text
//! densebench --workload <fuzz-live|replay-matrix|serve-mix>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, repeats whole rounds of the
//! same operations until `--seconds` of wall time have passed, checks
//! every output against an independent computation or an invariant the
//! method must hold, and prints one JSON result object as the last line
//! of standard output:
//!
//! * `--trace 0`: the end-to-end metrics (`setup_s`, `ops_per_s`,
//!   `op_p50_ms`, `peak_rss_mb`);
//! * `--trace 1`: the per-layer metrics, each timed from outside by
//!   calling the layer's public functions with the exact input it sees
//!   in the workload, plus `trace.overhead_pct` (traced against
//!   untraced wall time per round, both measured in this process).
//!
//! Everything runs on one thread (`DENSEMEM_THREADS=1`), so host timings
//! do not depend on how a shared host schedules a fan-out. A run stays on
//! the CPU it started on, except that an untraced run's rounds take every
//! CPU the process may use in turn ([`cpu`]).

mod cpu;
mod fuzz_live;
mod layers;
mod measure;
mod probes;
mod replay_matrix;
mod serve_mix;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["fuzz-live", "replay-matrix", "serve-mix"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// How long the measured loop runs (whole rounds, at least one).
    pub window: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// When the process started (the reference for `setup_s`).
    pub started: Instant,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations one of whose own checks failed.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why a check failed (printed to standard error).
    pub problems: Vec<String>,
    /// Checks failed so far (each op compares it before and after).
    failed_checks: u64,
}

impl Outcome {
    /// An outcome with nothing checked yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a check result, keeping the first few failure reasons.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.correct = false;
            self.failed_checks += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    /// Counts one op whose checks `body` records: the op failed if any
    /// of them did. Checks recorded outside an op (those spanning several
    /// ops, run after the measured loop) make the run incorrect without
    /// failing an op.
    pub fn op<T>(&mut self, body: impl FnOnce(&mut Self) -> T) -> T {
        let before = self.failed_checks;
        self.attempted += 1;
        let value = body(self);
        if self.failed_checks > before {
            self.failed += 1;
        }
        value
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics every workload reports from its untraced run.
pub struct EndToEnd {
    /// Cold set-up, from process start.
    pub setup_s: f64,
    /// Per-op wall times, seconds, round by round: every round performs
    /// the same ops in the same order.
    pub rounds: Vec<Vec<f64>>,
    /// Peak resident memory of the process doing the work, MB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Appends the four end-to-end metrics to `out`. An op's time is the
    /// fastest of its repeats in the run ([`measure::best_of_rounds`]):
    /// a shared host's interference only adds time, and how much it adds
    /// changes from one second to the next, so the fastest repeat is the
    /// figure that another run, or another version, can be compared with.
    /// `ops_per_s` is a round's ops over the sum of their times, and
    /// `op_p50_ms` the median op.
    pub fn report(self, out: &mut Outcome) {
        let mut best = measure::best_of_rounds(&self.rounds);
        let busy: f64 = best.iter().sum();
        out.metrics.push(("setup_s".into(), self.setup_s, "s"));
        out.metrics
            .push(("ops_per_s".into(), best.len() as f64 / busy, "op/s"));
        out.metrics
            .push(("op_p50_ms".into(), measure::median(&mut best) * 1e3, "ms"));
        out.metrics
            .push(("peak_rss_mb".into(), self.peak_rss_mb, "MB"));
    }
}

/// Runs `round` (which returns the wall time of each op it performed)
/// until `window` has elapsed, always completing at least one round.
/// Returns the per-op times of each round, or the first round's error.
pub fn timed_rounds(
    window: Duration,
    mut round: impl FnMut(usize) -> Result<Vec<f64>, String>,
) -> Result<Vec<Vec<f64>>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < window {
        rounds.push(round(rounds.len())?);
    }
    Ok(rounds)
}

/// The untraced run's measured loop: [`timed_rounds`] with round `r` on
/// [`cpu::for_round`]`(r)`, so each op's repeats, whose fastest
/// [`EndToEnd::report`] takes, fall on every CPU the process may use.
pub fn measured_rounds(
    window: Duration,
    mut round: impl FnMut(usize) -> Result<Vec<f64>, String>,
) -> Result<Vec<Vec<f64>>, String> {
    timed_rounds(window, |r| {
        if let Some(c) = cpu::for_round(r) {
            cpu::pin_process(std::process::id(), c);
        }
        round(r)
    })
}

/// A seed for stream `i` of workload seed `seed`: every generated input
/// draws its seed from its own stream.
pub fn stream_seed(seed: u64, i: u64) -> u64 {
    use rand::RngCore;
    densemem_stats::rng::substream(seed, i).next_u64()
}

/// A traced run: `round(r, true)` repeated for half of `window` (the
/// traced phase), then `round(r, false)` for the other half (the untraced
/// phase), with `r` counting on across both. Returns
/// `trace.overhead_pct`: the traced phase's wall time per round over the
/// untraced phase's, minus one.
pub fn traced_phases(
    window: Duration,
    mut round: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<f64, String> {
    let mut per_round = [0.0; 2];
    let mut next = 0;
    for (phase, traced) in [true, false].into_iter().enumerate() {
        let start = Instant::now();
        let rounds =
            timed_rounds(window / 2, |r| round(next + r, traced).map(|()| Vec::new()))?.len();
        per_round[phase] = start.elapsed().as_secs_f64() / rounds as f64;
        next += rounds;
    }
    Ok((per_round[0] / per_round[1] - 1.0) * 100.0)
}

/// `got` equals `want`, as two computations of one thing must.
pub fn check_equal<T: PartialEq + std::fmt::Debug>(
    what: impl std::fmt::Display,
    want: &T,
    got: &T,
) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let show = |v: &T| format!("{v:?}").chars().take(160).collect::<String>();
    Err(format!("{what}: {}, expected {}", show(got), show(want)))
}

/// Every round repeats the first: `got` equals the value `first` holds,
/// or becomes it on the first round.
pub fn check_repeat<T: PartialEq + Clone + std::fmt::Debug>(
    first: &mut Option<T>,
    got: &T,
    what: impl std::fmt::Display,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(got.clone());
            Ok(())
        }
        Some(want) => check_equal(format_args!("{what} against the first round"), want, got),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "densebench: {msg}\nusage: densebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // One thread everywhere, the daemon included (it inherits this).
    std::env::set_var("DENSEMEM_THREADS", "1");
    cpu::stay();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return usage("--trace takes 0 or 1"),
                }
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed (a whole number), --seconds (> 0) and --trace are required",
        );
    };
    let cfg = RunConfig {
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        started,
    };
    let outcome = match workload.as_str() {
        "fuzz-live" => fuzz_live::run(&cfg),
        "replay-matrix" => replay_matrix::run(&cfg),
        "serve-mix" => serve_mix::run(&cfg),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(why) => {
            eprintln!("densebench: {workload} could not run: {why}");
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("densebench: check failed: {p}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_fails_when_one_of_its_checks_does() {
        let mut out = Outcome::new();
        out.op(|out| out.check(Ok(())));
        out.op(|out| {
            out.check(Ok(()));
            out.check(Err("first".into()));
            out.check(Err("second".into()));
        });
        assert_eq!((out.attempted, out.failed, out.correct), (2, 1, false));
        out.check(Err("after the loop".into()));
        assert_eq!((out.attempted, out.failed), (2, 1), "no op to fail");
    }

    #[test]
    fn equality_check_sees_one_field_changed() {
        #[derive(Debug, PartialEq)]
        struct Counts {
            activations: u64,
            now_ns: u64,
        }
        let want = Counts {
            activations: 9,
            now_ns: 12,
        };
        assert!(check_equal("counts", &want, &Counts { ..want }).is_ok());
        let got = Counts {
            activations: 10,
            ..want
        };
        assert!(check_equal("counts", &want, &got).is_err());
    }

    #[test]
    fn repeat_check_sees_a_changed_round() {
        let mut first = None;
        assert!(check_repeat(&mut first, &(3, 4), "round 0").is_ok());
        assert!(check_repeat(&mut first, &(3, 4), "round 1").is_ok());
        assert!(check_repeat(&mut first, &(3, 5), "round 2").is_err());
        assert_eq!(first, Some((3, 4)), "the first round stays the reference");
    }

    #[test]
    fn traced_phases_alternate_and_number_rounds_on() {
        let mut seen = Vec::new();
        let overhead = traced_phases(Duration::ZERO, |r, traced| {
            seen.push((r, traced));
            Ok(())
        })
        .expect("no round fails");
        assert_eq!(seen, [(0, true), (1, false)]);
        assert!(overhead.is_finite());
    }
}
