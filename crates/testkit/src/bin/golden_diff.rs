//! `golden-diff`: the CI face of the golden comparator.
//!
//! ```text
//! golden-diff <golden-dir> <report.json>...
//! ```
//!
//! Compares each freshly generated report against the checked-in
//! snapshot named after its `id`, using exactly the normalizer the
//! conformance tests use (no second implementation to drift). Also runs
//! the structural validator on each report, so a corrupted artifact —
//! inconsistent claim rollup, ragged table — fails the gate even when
//! it happens to match a snapshot shape. Exits non-zero on any drift,
//! printing per-cell diffs.

use densemem_stats::json::parse;
use densemem_testkit::golden;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(dir) = args.next() else {
        eprintln!("usage: golden-diff <golden-dir> <report.json>...");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(dir);
    let reports: Vec<String> = args.collect();
    if reports.is_empty() {
        eprintln!("usage: golden-diff <golden-dir> <report.json>...");
        return ExitCode::from(2);
    }

    let mut failures = 0usize;
    let mut checked = 0usize;
    for path in &reports {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {path}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL {path}: invalid JSON: {e}");
                failures += 1;
                continue;
            }
        };
        let problems = golden::validate_report(&doc);
        if !problems.is_empty() {
            eprintln!("FAIL {path}: structurally invalid report:");
            for p in &problems {
                eprintln!("  {p}");
            }
            failures += 1;
            continue;
        }
        let id = doc["id"].as_str().unwrap_or("?").to_owned();
        match golden::check_or_update(&dir, &id, &text) {
            Ok(golden::GoldenOutcome::Matched) => checked += 1,
            Ok(golden::GoldenOutcome::Updated) => {
                println!("updated golden snapshot for {id}");
                checked += 1;
            }
            Err(msg) => {
                eprintln!("FAIL {msg}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("golden-diff: {failures} failure(s), {checked} ok");
        ExitCode::FAILURE
    } else {
        println!("golden-diff: {checked} report(s) match golden snapshots");
        ExitCode::SUCCESS
    }
}
