//! Golden-report snapshots: the normalizing comparator and the
//! `UPDATE_GOLDEN=1` regeneration path.
//!
//! A golden snapshot is the canonical `--quick`-scale JSON report of one
//! experiment, checked in under `tests/golden/`. The comparator parses
//! both sides, strips run metadata that legitimately varies between
//! machines (`wall_secs`, `threads`; `trace_artifacts` paths reduce to
//! basenames), and compares the rest field by field — every table cell,
//! series point, claim record, and note. Any drift in a paper number
//! fails with a per-cell diff naming the table, row, and column.
//!
//! Tolerance policy: comparisons are **exact** by default. The suite is
//! deterministic by contract (same seed ⇒ bit-identical results on any
//! thread count), so a golden mismatch is a real behaviour change, not
//! noise. A float tolerance knob exists for callers that diff reports
//! produced under intentionally different conditions.

use densemem_stats::json::{escape, parse, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Top-level report keys that vary across runs/machines and are removed
/// before comparison.
pub const VOLATILE_KEYS: &[&str] = &["wall_secs", "threads"];

/// The checked-in snapshot directory (`tests/golden/` at the repo root).
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Whether the environment requests golden regeneration
/// (`UPDATE_GOLDEN=1`, or any non-empty value other than `0`).
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Strips run-variant metadata in place: removes [`VOLATILE_KEYS`] and
/// reduces `trace_artifacts` entries to their basenames (artifact
/// directories differ between runs on purpose).
pub fn normalize(v: &mut Value) {
    if let Value::Obj(m) = v {
        for key in VOLATILE_KEYS {
            m.remove(*key);
        }
        if let Some(Value::Arr(paths)) = m.get_mut("trace_artifacts") {
            for p in paths {
                if let Value::Str(s) = p {
                    if let Some(base) = s.rsplit(['/', '\\']).next() {
                        *s = base.to_owned();
                    }
                }
            }
        }
    }
}

/// One field-level difference between golden and actual.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// JSON path of the differing field (e.g. `$.tables[0].rows[3][2]`).
    pub path: String,
    /// Golden-side value (or `<absent>`).
    pub golden: String,
    /// Actual-side value (or `<absent>`).
    pub actual: String,
}

/// A one-line rendering of a value for diff messages (not re-parseable;
/// strings are shown with `{:?}`).
fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => format!("{n:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Arr(items) => format!("[… {} items]", items.len()),
        Value::Obj(m) => format!("{{… {} keys}}", m.len()),
    }
}

/// Compares two parsed documents field by field. `float_tol` is the
/// relative tolerance for numeric leaves (0.0 = exact, the default
/// policy for golden snapshots).
pub fn diff(golden: &Value, actual: &Value, float_tol: f64) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    walk("$", golden, actual, float_tol, &mut out);
    out
}

fn nums_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    if tol <= 0.0 {
        return false;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

fn walk(path: &str, golden: &Value, actual: &Value, tol: f64, out: &mut Vec<DiffEntry>) {
    match (golden, actual) {
        (Value::Obj(g), Value::Obj(a)) => {
            for (key, gv) in g {
                match a.get(key) {
                    Some(av) => walk(&format!("{path}.{key}"), gv, av, tol, out),
                    None => out.push(DiffEntry {
                        path: format!("{path}.{key}"),
                        golden: brief(gv),
                        actual: "<absent>".to_owned(),
                    }),
                }
            }
            for (key, av) in a {
                if !g.contains_key(key) {
                    out.push(DiffEntry {
                        path: format!("{path}.{key}"),
                        golden: "<absent>".to_owned(),
                        actual: brief(av),
                    });
                }
            }
        }
        (Value::Arr(g), Value::Arr(a)) => {
            if g.len() != a.len() {
                out.push(DiffEntry {
                    path: path.to_owned(),
                    golden: format!("array of {} items", g.len()),
                    actual: format!("array of {} items", a.len()),
                });
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                walk(&format!("{path}[{i}]"), gv, av, tol, out);
            }
        }
        (Value::Num(g), Value::Num(a)) => {
            if !nums_eq(*g, *a, tol) {
                out.push(DiffEntry {
                    path: path.to_owned(),
                    golden: format!("{g:?}"),
                    actual: format!("{a:?}"),
                });
            }
        }
        (g, a) => {
            if g != a {
                out.push(DiffEntry {
                    path: path.to_owned(),
                    golden: brief(g),
                    actual: brief(a),
                });
            }
        }
    }
}

/// Enriches diff paths that point into report tables with the table
/// title and column name, so a drift message reads as "which paper
/// number moved", not as a raw JSON path.
pub fn explain(diffs: &[DiffEntry], golden: &Value) -> String {
    let mut out = String::new();
    for d in diffs {
        let _ = write!(out, "  {}: golden {} != actual {}", d.path, d.golden, d.actual);
        if let Some(context) = table_cell_context(&d.path, golden) {
            let _ = write!(out, "   ({context})");
        }
        out.push('\n');
    }
    out
}

/// For a path of the form `$.tables[i].rows[r][c]`, looks up the table
/// title and the column header in the golden document.
fn table_cell_context(path: &str, golden: &Value) -> Option<String> {
    let rest = path.strip_prefix("$.tables[")?;
    let (i, rest) = rest.split_once(']')?;
    let table = golden.get("tables")?.as_arr()?.get(i.parse::<usize>().ok()?)?;
    let title = table.get("title")?.as_str()?;
    let Some(rest) = rest.strip_prefix(".rows[") else {
        return Some(format!("table {title:?}"));
    };
    let (r, rest) = rest.split_once(']')?;
    let Some(col) = rest.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return Some(format!("table {title:?}, row {r}"));
    };
    let header = table
        .get("headers")?
        .as_arr()?
        .get(col.parse::<usize>().ok()?)
        .map(brief)
        .unwrap_or_else(|| "?".to_owned());
    Some(format!("table {title:?}, row {r}, column {header}"))
}

/// Serializes a parsed document back to canonical JSON: sorted object
/// keys, two-space indentation, integers without a trailing `.0`. The
/// golden files on disk are exactly this rendering of the normalized
/// report, so regeneration is byte-stable.
pub fn to_canonical_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

fn fmt_num(n: f64) -> String {
    if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:?}")
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Num(n) => out.push_str(&fmt_num(*n)),
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Arr(items) => {
            // Leaf arrays (all scalars) stay on one line: table rows and
            // series points read like the report they came from.
            let leaf = items
                .iter()
                .all(|i| matches!(i, Value::Null | Value::Bool(_) | Value::Num(_) | Value::Str(_)));
            if leaf {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(item, indent, out);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_value(item, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
        }
        Value::Obj(m) if m.is_empty() => out.push_str("{}"),
        Value::Obj(m) => {
            out.push_str("{\n");
            for (i, (k, val)) in m.iter().enumerate() {
                let _ = write!(out, "{pad}  \"{}\": ", escape(k));
                write_value(val, indent + 1, out);
                out.push_str(if i + 1 < m.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
        }
    }
}

/// Outcome of a golden check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// Actual matched the checked-in snapshot.
    Matched,
    /// `UPDATE_GOLDEN` was set: the snapshot was (re)written.
    Updated,
}

/// Checks one rendered report against `dir/<id>.json`, honouring
/// `UPDATE_GOLDEN=1`.
///
/// # Errors
///
/// Returns a rendered, human-readable message on a missing snapshot
/// (without `UPDATE_GOLDEN`), a parse failure on either side, or any
/// field-level drift.
pub fn check_or_update(dir: &Path, id: &str, actual_json: &str) -> Result<GoldenOutcome, String> {
    let mut actual =
        parse(actual_json).map_err(|e| format!("{id}: actual report is not valid JSON: {e}"))?;
    normalize(&mut actual);
    let canonical = to_canonical_string(&actual);
    let path = dir.join(format!("{id}.json"));

    if update_requested() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{id}: mkdir {dir:?}: {e}"))?;
        std::fs::write(&path, canonical)
            .map_err(|e| format!("{id}: write {}: {e}", path.display()))?;
        return Ok(GoldenOutcome::Updated);
    }

    let golden_text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{id}: no golden snapshot at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    })?;
    let mut golden = parse(&golden_text)
        .map_err(|e| format!("{id}: golden snapshot {} is not valid JSON: {e}", path.display()))?;
    normalize(&mut golden);

    let diffs = diff(&golden, &actual, 0.0);
    if diffs.is_empty() {
        Ok(GoldenOutcome::Matched)
    } else {
        Err(format!(
            "{id}: report drifted from golden snapshot {} ({} field(s)):\n{}\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff.",
            path.display(),
            diffs.len(),
            explain(&diffs, &golden)
        ))
    }
}

/// Structural validation of one report document: every documented key
/// present with the right shape, tables rectangular, series points
/// `[x, y]` pairs, and the `all_claims_pass` rollup consistent with the
/// per-claim flags. Returns every problem found (empty = valid).
///
/// This is the check that makes a *corrupted* report fail loudly: a
/// claim flipped to `false` without the rollup following, a truncated
/// table, or a missing section all land here.
pub fn validate_report(v: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let Value::Obj(_) = v else {
        return vec!["report is not a JSON object".to_owned()];
    };

    for key in [
        "schema_version",
        "id",
        "title",
        "paper_anchor",
        "tags",
        "scale",
        "seed",
        "all_claims_pass",
        "tables",
        "series",
        "claims",
        "notes",
        "trace_artifacts",
    ] {
        if v.get(key).is_none() {
            problems.push(format!("missing key {key:?}"));
        }
    }
    if let Some(Value::Num(n)) = v.get("schema_version") {
        if *n != 1.0 {
            problems.push(format!("unsupported schema_version {n}"));
        }
    }

    if let Some(Value::Arr(tables)) = v.get("tables") {
        for (i, t) in tables.iter().enumerate() {
            let Some(Value::Arr(headers)) = t.get("headers") else {
                problems.push(format!("tables[{i}]: missing headers"));
                continue;
            };
            if let Some(Value::Arr(rows)) = t.get("rows") {
                for (r, row) in rows.iter().enumerate() {
                    match row {
                        Value::Arr(cells) if cells.len() == headers.len() => {}
                        Value::Arr(cells) => problems.push(format!(
                            "tables[{i}].rows[{r}]: {} cells under {} headers",
                            cells.len(),
                            headers.len()
                        )),
                        other => problems
                            .push(format!("tables[{i}].rows[{r}]: not an array: {}", brief(other))),
                    }
                }
            } else {
                problems.push(format!("tables[{i}]: missing rows"));
            }
        }
    }

    if let Some(Value::Arr(series)) = v.get("series") {
        for (i, s) in series.iter().enumerate() {
            if let Some(Value::Arr(points)) = s.get("points") {
                for (p, pt) in points.iter().enumerate() {
                    if !matches!(pt, Value::Arr(xy) if xy.len() == 2) {
                        problems.push(format!("series[{i}].points[{p}]: not an [x, y] pair"));
                    }
                }
            } else {
                problems.push(format!("series[{i}]: missing points"));
            }
        }
    }

    if let Some(Value::Arr(claims)) = v.get("claims") {
        let mut all = true;
        for (i, c) in claims.iter().enumerate() {
            for key in ["claim", "paper", "measured", "pass"] {
                if c.get(key).is_none() {
                    problems.push(format!("claims[{i}]: missing {key:?}"));
                }
            }
            if let Some(Value::Bool(pass)) = c.get("pass") {
                all &= pass;
            }
        }
        if let Some(Value::Bool(rollup)) = v.get("all_claims_pass") {
            if *rollup != all {
                problems.push(format!(
                    "all_claims_pass is {rollup} but the per-claim flags aggregate to {all}"
                ));
            }
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        parse(text).expect("test document parses")
    }

    #[test]
    fn normalize_strips_volatile_and_basenames_artifacts() {
        let mut v = doc(
            r#"{"wall_secs": 1.25, "threads": 8, "id": "E1",
                "trace_artifacts": ["artifacts/traces/E15_x.trace.jsonl"]}"#,
        );
        normalize(&mut v);
        assert!(v.get("wall_secs").is_none());
        assert!(v.get("threads").is_none());
        assert_eq!(v["trace_artifacts"].as_arr().unwrap()[0].as_str(), Some("E15_x.trace.jsonl"));
        assert_eq!(v["id"].as_str(), Some("E1"));
    }

    #[test]
    fn brief_rendering_is_compact() {
        assert_eq!(brief(&Value::Num(1.5)), "1.5");
        assert_eq!(brief(&Value::Str("a".into())), "\"a\"");
        assert_eq!(brief(&Value::Arr(vec![Value::Null; 3])), "[… 3 items]");
    }

    #[test]
    fn diff_reports_value_and_shape_changes() {
        let g = doc(r#"{"a": 1, "b": [1, 2], "c": "x"}"#);
        let a = doc(r#"{"a": 2, "b": [1], "d": true}"#);
        let d = diff(&g, &a, 0.0);
        let paths: Vec<&str> = d.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"$.a"));
        assert!(paths.contains(&"$.b"));
        assert!(paths.contains(&"$.c"), "removed key is a diff");
        assert!(paths.contains(&"$.d"), "added key is a diff");
    }

    #[test]
    fn diff_float_tolerance_is_relative_and_off_by_default() {
        let g = doc(r#"{"x": 100.0}"#);
        let a = doc(r#"{"x": 100.0001}"#);
        assert_eq!(diff(&g, &a, 0.0).len(), 1, "exact by default");
        assert!(diff(&g, &a, 1e-4).is_empty(), "within relative tolerance");
    }

    #[test]
    fn table_cell_diffs_carry_title_and_column() {
        let g = doc(
            r#"{"tables": [{"title": "Errors", "headers": ["year", "rate"],
                "rows": [[2013, 1.0], [2014, 2.0]]}]}"#,
        );
        let a = doc(
            r#"{"tables": [{"title": "Errors", "headers": ["year", "rate"],
                "rows": [[2013, 1.0], [2014, 9.0]]}]}"#,
        );
        let d = diff(&g, &a, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "$.tables[0].rows[1][1]");
        let text = explain(&d, &g);
        assert!(text.contains("table \"Errors\""), "{text}");
        assert!(text.contains("\"rate\""), "{text}");
        assert!(text.contains("2.0") && text.contains("9.0"), "{text}");
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let v = doc(r#"{"b": [1, 2.5, "x"], "a": {"nested": [[1, 2], [3, 4]]}, "n": null}"#);
        let text = to_canonical_string(&v);
        assert_eq!(doc(&text), v, "canonical text must re-parse to the same value");
        // Integers stay integers, keys are sorted.
        assert!(text.contains("[1, 2.5, \"x\"]"), "{text}");
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn validate_report_catches_inconsistent_rollup_and_ragged_tables() {
        let good = doc(
            r#"{"schema_version": 1, "id": "E1", "title": "t", "paper_anchor": "p",
                "tags": [], "scale": "quick", "seed": "0x1", "all_claims_pass": false,
                "tables": [{"title": "T", "headers": ["a", "b"], "rows": [[1, 2]]}],
                "series": [{"name": "s", "points": [[1, 2]]}],
                "claims": [{"claim": "c", "paper": "p", "measured": "m", "pass": false}],
                "notes": [], "trace_artifacts": []}"#,
        );
        assert!(validate_report(&good).is_empty(), "{:?}", validate_report(&good));

        let mut bad = good.clone();
        if let Value::Obj(m) = &mut bad {
            m.insert("all_claims_pass".into(), Value::Bool(true));
        }
        let problems = validate_report(&bad);
        assert!(
            problems.iter().any(|p| p.contains("all_claims_pass")),
            "corrupted rollup must fire: {problems:?}"
        );

        let ragged = doc(
            r#"{"schema_version": 1, "id": "E1", "title": "t", "paper_anchor": "p",
                "tags": [], "scale": "quick", "seed": "0x1", "all_claims_pass": true,
                "tables": [{"title": "T", "headers": ["a", "b"], "rows": [[1]]}],
                "series": [], "claims": [], "notes": [], "trace_artifacts": []}"#,
        );
        assert!(validate_report(&ragged).iter().any(|p| p.contains("1 cells under 2 headers")));
    }
}
