//! Hand-rolled JSON serialization of experiment reports (no external
//! dependencies, matching the vendored-crates constraint).
//!
//! One artifact per experiment (`artifacts/<id>.json`) carries the
//! *complete* [`ExperimentResult`] — tables with typed cells, series,
//! claim checks, notes — plus the run metadata (paper anchor, tags,
//! scale, seed, thread count, wall time). The schema is stable and flat
//! enough for a CI gate, a plotting script, or a fleet dashboard to
//! consume without this crate:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "id": "E1",
//!   "title": "...",
//!   "paper_anchor": "Figure 1, §II",
//!   "tags": ["dram", "rowhammer", "population"],
//!   "scale": "quick",
//!   "seed": "0xF161",
//!   "threads": 8,
//!   "wall_secs": 0.031,
//!   "all_claims_pass": true,
//!   "tables": [{"title": "...", "headers": ["..."], "rows": [["A", 2013, 1.0e5]]}],
//!   "series": [{"name": "...", "points": [[2013.2, 125.0]]}],
//!   "claims": [{"claim": "...", "paper": "...", "measured": "...", "pass": true}],
//!   "notes": ["..."],
//!   "trace_artifacts": ["artifacts/traces/E15_many_sided.trace.jsonl"]
//! }
//! ```
//!
//! Numeric cells serialize as JSON numbers (non-finite floats as `null`),
//! string cells as JSON strings; the seed is a hex string so it survives
//! parsers that read all numbers as `f64`. When the run carries a
//! `--mitigation` override, a `"mitigation"` key with the canonical
//! registry spec appears after `"seed"`; default runs omit the key
//! entirely, keeping their reports byte-identical to earlier schema
//! emissions.

use crate::experiments::{ExpContext, Experiment, ExperimentResult, Scale};
use densemem_stats::json::escape;
use densemem_stats::table::{Cell, Table};
use std::fmt::Write as _;

/// Formats an `f64` as a JSON value: a round-trippable number literal, or
/// `null` for NaN/infinities (which JSON cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting; it emits
        // `1.0`, `0.001`, `1e300` — all valid JSON number syntax.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn cell(c: &Cell) -> String {
    match c {
        Cell::Str(s) => format!("\"{}\"", escape(s)),
        Cell::Int(v) => v.to_string(),
        Cell::Uint(v) => v.to_string(),
        Cell::Float(v) | Cell::Sci(v) => number(*v),
    }
}

fn string_array(items: impl Iterator<Item = String>) -> String {
    let quoted: Vec<String> = items.map(|s| format!("\"{}\"", escape(&s))).collect();
    format!("[{}]", quoted.join(", "))
}

fn table(t: &Table, indent: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{indent}{{");
    let _ = writeln!(s, "{indent}  \"title\": \"{}\",", escape(t.title()));
    let _ = writeln!(
        s,
        "{indent}  \"headers\": {},",
        string_array(t.headers().iter().cloned())
    );
    let _ = writeln!(s, "{indent}  \"rows\": [");
    for (i, row) in t.rows().iter().enumerate() {
        let cells: Vec<String> = row.iter().map(cell).collect();
        let _ = writeln!(
            s,
            "{indent}    [{}]{}",
            cells.join(", "),
            if i + 1 < t.rows().len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "{indent}  ]");
    let _ = write!(s, "{indent}}}");
    s
}

/// Renders the complete structured report for one experiment run.
///
/// `exp` supplies the registry metadata (paper anchor, tags), `ctx` the
/// run parameters, and `wall_secs` the measured wall time (pass `0.0`
/// when not timed).
pub fn render(exp: &Experiment, result: &ExperimentResult, ctx: &ExpContext, wall_secs: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema_version\": 1,");
    let _ = writeln!(s, "  \"id\": \"{}\",", escape(result.id));
    let _ = writeln!(s, "  \"title\": \"{}\",", escape(result.title));
    let _ = writeln!(s, "  \"paper_anchor\": \"{}\",", escape(exp.paper_anchor));
    let _ = writeln!(s, "  \"tags\": {},", string_array(exp.tags.iter().map(|t| (*t).to_owned())));
    let _ = writeln!(
        s,
        "  \"scale\": \"{}\",",
        if ctx.scale == Scale::Quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"seed\": \"{:#x}\",", ctx.seed);
    if let Some(spec) = &ctx.mitigation {
        // Only present under a --mitigation override, so reports from
        // default runs (and their goldens) are byte-identical to before
        // the key existed.
        let _ = writeln!(s, "  \"mitigation\": \"{}\",", escape(spec));
    }
    let _ = writeln!(s, "  \"threads\": {},", ctx.par.threads());
    let _ = writeln!(s, "  \"wall_secs\": {},", number(wall_secs));
    let _ = writeln!(s, "  \"all_claims_pass\": {},", result.all_claims_pass());

    let _ = writeln!(s, "  \"tables\": [");
    for (i, t) in result.tables.iter().enumerate() {
        let _ = writeln!(
            s,
            "{}{}",
            table(t, "    "),
            if i + 1 < result.tables.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");

    let _ = writeln!(s, "  \"series\": [");
    for (i, series) in result.series.iter().enumerate() {
        let pts: Vec<String> =
            series.iter().map(|&(x, y)| format!("[{}, {}]", number(x), number(y))).collect();
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"points\": [{}]}}{}",
            escape(series.name()),
            pts.join(", "),
            if i + 1 < result.series.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");

    let _ = writeln!(s, "  \"claims\": [");
    for (i, c) in result.claims.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"claim\": \"{}\",", escape(&c.claim));
        let _ = writeln!(s, "      \"paper\": \"{}\",", escape(&c.paper));
        let _ = writeln!(s, "      \"measured\": \"{}\",", escape(&c.measured));
        let _ = writeln!(s, "      \"pass\": {}", c.pass);
        let _ = writeln!(s, "    }}{}", if i + 1 < result.claims.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");

    let _ = writeln!(s, "  \"notes\": {},", string_array(result.notes.iter().cloned()));
    let _ = writeln!(
        s,
        "  \"trace_artifacts\": {}",
        string_array(result.trace_artifacts.iter().cloned())
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{registry, ClaimCheck};
    use densemem_stats::series::Series;

    #[test]
    fn number_is_json_safe() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert!(number(1e300).parse::<f64>().is_ok() || number(1e300).contains('e'));
    }

    #[test]
    fn render_contains_all_sections() {
        let exp = registry::find("E1").unwrap();
        let mut r = ExperimentResult::new("E1", "demo");
        let mut t = Table::new("tbl", &["x", "label"]);
        t.row(vec![Cell::Float(1.5), Cell::from("a \"quoted\" str")]);
        r.tables.push(t);
        let mut series = Series::new("S");
        series.push(2013.0, 1e5);
        r.series.push(series);
        r.claims.push(ClaimCheck::new("c", "p", "m".into(), true));
        r.notes.push("note with, comma".into());
        r.trace_artifacts.push("artifacts/traces/E1_demo.trace.jsonl".into());
        let ctx = ExpContext::quick().with_threads(2).with_seed(0xF161);
        let json = render(exp, &r, &ctx, 0.5);
        for needle in [
            "\"schema_version\": 1",
            "\"id\": \"E1\"",
            "\"paper_anchor\": \"Figure 1, §II\"",
            "\"tags\": [\"dram\", \"rowhammer\", \"population\"]",
            "\"scale\": \"quick\"",
            "\"seed\": \"0xf161\"",
            "\"threads\": 2",
            "\"wall_secs\": 0.5",
            "\"all_claims_pass\": true",
            "[1.5, \"a \\\"quoted\\\" str\"]",
            "\"points\": [[2013.0, 100000.0]]",
            "\"pass\": true",
            "note with, comma",
            "\"trace_artifacts\": [\"artifacts/traces/E1_demo.trace.jsonl\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(
            !json.contains("\"mitigation\""),
            "no mitigation key without an override"
        );

        let ctx = ctx.with_mitigation("para").unwrap();
        let json = render(exp, &r, &ctx, 0.5);
        assert!(
            json.contains("\"mitigation\": \"para:p=0.001\""),
            "override renders canonical spec:\n{json}"
        );
    }
}
