//! Conformance: golden-report snapshots for every experiment.
//!
//! Each E1–E27 runs at `--quick` scale with the default seed, renders to
//! the schema-v1 JSON report, and must match the checked-in snapshot
//! under `tests/golden/` after normalization (run metadata stripped,
//! artifact paths reduced to basenames). Any drift in a paper number
//! fails with a per-cell diff; intentional changes regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test conformance_golden
//! ```
//!
//! and the reviewed `git diff` of `tests/golden/` *is* the behaviour
//! change.

use densemem::experiments::{registry, ExpContext};
use densemem::report::json;
use densemem_stats::json::{parse, Value};
use densemem_testkit::golden::{self, GoldenOutcome};

fn check(id: &str) {
    let exp = registry::find(id).unwrap_or_else(|| panic!("{id} not registered"));
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);
    match golden::check_or_update(&golden::golden_dir(), id, &text) {
        Ok(GoldenOutcome::Matched | GoldenOutcome::Updated) => {}
        Err(msg) => panic!("{msg}"),
    }
}

macro_rules! golden {
    ($($name:ident => $id:literal),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check($id);
            }
        )*
    };
}

golden! {
    golden_e1 => "E1",
    golden_e2 => "E2",
    golden_e3 => "E3",
    golden_e4 => "E4",
    golden_e5 => "E5",
    golden_e6 => "E6",
    golden_e7 => "E7",
    golden_e8 => "E8",
    golden_e9 => "E9",
    golden_e10 => "E10",
    golden_e11 => "E11",
    golden_e12 => "E12",
    golden_e13 => "E13",
    golden_e14 => "E14",
    golden_e15 => "E15",
    golden_e16 => "E16",
    golden_e17 => "E17",
    golden_e18 => "E18",
    golden_e19 => "E19",
    golden_e20 => "E20",
    golden_e21 => "E21",
    golden_e22 => "E22",
    golden_e23 => "E23",
    golden_e24 => "E24",
    golden_e25 => "E25",
    golden_e26 => "E26",
    golden_e27 => "E27",
}

/// Every experiment has a committed snapshot — a new experiment cannot
/// land without one, and a deleted one leaves no stale snapshot behind.
#[test]
fn golden_directory_is_exactly_the_registry() {
    let dir = golden::golden_dir();
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("golden dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(".json").map(str::to_owned))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> =
        registry::registry().iter().map(|e| e.id.to_owned()).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "tests/golden/ must mirror the registry exactly");
}

/// The comparator actually bites: perturbing one table cell of a real
/// rendered report produces exactly one field-level diff, with a path
/// that names the cell and a message that names the table and column.
#[test]
fn perturbed_report_fails_with_field_level_diff() {
    let exp = registry::find("E1").unwrap();
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);

    let mut golden_doc = parse(&text).expect("rendered report parses");
    let mut actual_doc = golden_doc.clone();
    golden::normalize(&mut golden_doc);
    golden::normalize(&mut actual_doc);

    // Flip one numeric cell in the first table.
    let (ti, ri, ci, old) = {
        let tables = golden_doc["tables"].as_arr().unwrap();
        let mut found = None;
        'outer: for (ti, t) in tables.iter().enumerate() {
            for (ri, row) in t["rows"].as_arr().unwrap().iter().enumerate() {
                for (ci, cell) in row.as_arr().unwrap().iter().enumerate() {
                    if let Value::Num(n) = cell {
                        found = Some((ti, ri, ci, *n));
                        break 'outer;
                    }
                }
            }
        }
        found.expect("E1 report has at least one numeric cell")
    };
    if let Value::Obj(m) = &mut actual_doc {
        if let Some(Value::Arr(tables)) = m.get_mut("tables") {
            if let Some(Value::Obj(t)) = tables.get_mut(ti) {
                if let Some(Value::Arr(rows)) = t.get_mut("rows") {
                    if let Some(Value::Arr(cells)) = rows.get_mut(ri) {
                        cells[ci] = Value::Num(old + 1.0);
                    }
                }
            }
        }
    }

    let diffs = golden::diff(&golden_doc, &actual_doc, 0.0);
    assert_eq!(diffs.len(), 1, "one perturbed cell, one diff: {diffs:?}");
    assert_eq!(diffs[0].path, format!("$.tables[{ti}].rows[{ri}][{ci}]"));
    let message = golden::explain(&diffs, &golden_doc);
    assert!(message.contains("table \""), "diff names the table: {message}");
    assert!(message.contains("column"), "diff names the column: {message}");
}

/// A single-bit bug in the packed flip-scan kernels — one set bit
/// dropped from one XOR'd word — is not absorbed anywhere downstream:
/// it turns some reported flip count N into N-1, the golden comparison
/// flags exactly that cell, and the explanation names the table and
/// the flip-count column a reviewer would need to localize the kernel.
#[test]
fn single_bit_kernel_bug_bites_a_golden() {
    let exp = registry::find("E2").unwrap();
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);

    let mut golden_doc = parse(&text).expect("rendered report parses");
    let mut actual_doc = golden_doc.clone();
    golden::normalize(&mut golden_doc);
    golden::normalize(&mut actual_doc);

    // Find a non-zero cell in a flip-count column: the number a packed
    // scan feeds the report, which a dropped bit turns into N-1.
    let (ti, ri, ci, old) = {
        let tables = golden_doc["tables"].as_arr().unwrap();
        let mut found = None;
        'outer: for (ti, t) in tables.iter().enumerate() {
            let flip_cols: Vec<usize> = t["headers"]
                .as_arr()
                .unwrap()
                .iter()
                .enumerate()
                .filter(|(_, h)| h.as_str().is_some_and(|h| h.contains("flip")))
                .map(|(ci, _)| ci)
                .collect();
            for (ri, row) in t["rows"].as_arr().unwrap().iter().enumerate() {
                for &ci in &flip_cols {
                    if let Some(Value::Num(n)) = row.as_arr().unwrap().get(ci) {
                        if *n > 0.0 {
                            found = Some((ti, ri, ci, *n));
                            break 'outer;
                        }
                    }
                }
            }
        }
        found.expect("E2 report has a non-zero flip count")
    };
    if let Value::Obj(m) = &mut actual_doc {
        if let Some(Value::Arr(tables)) = m.get_mut("tables") {
            if let Some(Value::Obj(t)) = tables.get_mut(ti) {
                if let Some(Value::Arr(rows)) = t.get_mut("rows") {
                    if let Some(Value::Arr(cells)) = rows.get_mut(ri) {
                        cells[ci] = Value::Num(old - 1.0);
                    }
                }
            }
        }
    }

    let diffs = golden::diff(&golden_doc, &actual_doc, 0.0);
    assert_eq!(diffs.len(), 1, "one missed flip, one diff: {diffs:?}");
    assert_eq!(diffs[0].path, format!("$.tables[{ti}].rows[{ri}][{ci}]"));
    let message = golden::explain(&diffs, &golden_doc);
    assert!(message.contains("flip"), "diff names the flip column: {message}");
}

/// Normalization really removes the run-variant fields and nothing else:
/// two renders of the same result with different wall-clock and thread
/// counts compare clean.
#[test]
fn volatile_metadata_does_not_drift() {
    let exp = registry::find("E2").unwrap();
    let ctx1 = ExpContext::quick().with_threads(1);
    let ctx8 = ExpContext::quick().with_threads(8);
    let r1 = exp.run(&ctx1);
    let r8 = exp.run(&ctx8);
    let mut a = parse(&json::render(exp, &r1, &ctx1, 0.123)).unwrap();
    let mut b = parse(&json::render(exp, &r8, &ctx8, 9.875)).unwrap();
    assert_ne!(a, b, "raw reports differ in wall_secs/threads");
    golden::normalize(&mut a);
    golden::normalize(&mut b);
    assert!(
        golden::diff(&a, &b, 0.0).is_empty(),
        "normalized reports must be identical across thread counts"
    );
}

/// The snapshots on disk are in the comparator's canonical rendering, so
/// `UPDATE_GOLDEN=1` reruns are byte-stable (no spurious git churn).
#[test]
fn snapshots_are_canonical_on_disk() {
    let dir = golden::golden_dir();
    for exp in registry::registry() {
        let path = dir.join(format!("{}.json", exp.id));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; run UPDATE_GOLDEN=1 first", path.display()));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            golden::to_canonical_string(&doc),
            text,
            "{} is not in canonical form; regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
        let problems = golden::validate_report(&doc);
        assert!(problems.is_empty(), "{}: {problems:?}", path.display());
    }
}
