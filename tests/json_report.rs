//! The workspace's JSON module (`densemem_stats::json`) and the report
//! artifacts written with it (`densemem::report::json`): the reader's
//! strictness table, escape and field-reader round trips, and the shape
//! of a rendered report as a strict external consumer sees it.
//!
//! These are root tests so that tier-1 (`cargo test -q`) runs them.

use densemem::experiments::{registry, ExpContext};
use densemem::report::json;
use densemem_stats::json::{escape, field, parse, parse_u64, Value};

/// The items of an array value; panics on anything else.
fn arr(v: &Value) -> &[Value] {
    v.as_arr().unwrap_or_else(|| panic!("expected an array, got {v:?}"))
}

/// Documents a strict consumer must refuse, each with what is wrong.
const MALFORMED: &[(&str, &str)] = &[
    ("", "empty input"),
    (" \n", "whitespace only"),
    ("{\"a\": 1,}", "trailing comma in an object"),
    ("[1, 2,]", "trailing comma in an array"),
    ("{'a': 1}", "single-quoted key"),
    ("['a']", "single-quoted string"),
    ("{\"a\": NaN}", "bare NaN"),
    ("[Infinity]", "bare Infinity"),
    ("{\"a\": \"\u{1}\"}", "raw control byte in a string"),
    ("\"a\tb\"", "raw tab in a string"),
    ("{\"a\": 1} x", "trailing garbage"),
    ("[1, 2", "unterminated array"),
    ("{\"a\" 1}", "missing colon"),
    ("{1: 2}", "non-string key"),
    ("\"unterminated", "unterminated string"),
    ("\"\\", "unterminated escape"),
    ("\"\\q\"", "unknown escape \\q"),
    ("\"\\u12\"", "short \\u escape"),
    ("\"\\u+041\"", "signed \\u escape"),
    ("\"\\ud83d\"", "unpaired high surrogate"),
    ("\"\\ude00\"", "unpaired low surrogate"),
    ("\"\\ud83d\\u0041\"", "high surrogate before a non-surrogate"),
    ("01", "leading zero"),
    ("1.", "fraction without digits"),
    ("-", "sign without digits"),
    ("1e+", "exponent without digits"),
    ("1e400", "number beyond the f64 range"),
    ("+1", "leading plus"),
    ("tru", "truncated literal"),
];

/// The reader's strictness table. Each row must fail on its own; the
/// well-formed neighbours below guard against a table that passes
/// because everything fails.
#[test]
fn parser_rejects_malformed_json() {
    for (text, why) in MALFORMED {
        assert!(parse(text).is_err(), "{why}: {text:?} parsed");
    }
    for text in ["{}", " [ ] ", "0", "-0.5e-3", "1E+2", "\"\\ud83d\\ude00\"", "{\"a\":1}"] {
        assert!(parse(text).is_ok(), "{text:?} must parse: {:?}", parse(text));
    }
}

/// Values decode as written, escapes and surrogate pairs included, and
/// `render_json` writes a document that parses back to the same value.
#[test]
fn parser_decodes_values_and_render_json_round_trips() {
    let doc = parse(
        r#"{"a": [1, -2.5, 1e3, {"b": "x\ny"}], "c": null, "d": true,
            "e": "\u00e9\ud83d\ude00", "f": "\b\f\/\t\r\"\\"}"#,
    )
    .unwrap();
    let a = arr(&doc["a"]);
    assert_eq!(a[1].as_num(), Some(-2.5));
    assert_eq!(a[2].as_num(), Some(1000.0));
    assert_eq!(a[3]["b"].as_str(), Some("x\ny"));
    assert_eq!(doc["c"], Value::Null);
    assert_eq!(doc["d"].as_bool(), Some(true));
    assert_eq!(doc["e"].as_str(), Some("é😀"));
    assert_eq!(doc["f"].as_str(), Some("\u{8}\u{c}/\t\r\"\\"));
    assert!(doc.get("missing").is_none());

    for text in [
        r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null,"d":true}"#,
        r#"{"serve_load":[{"fleet":1,"req_per_sec":12345.6}]}"#,
        "[]",
        r#""plain \"string\"""#,
    ] {
        let doc = parse(text).unwrap();
        let rendered = doc.render_json();
        assert_eq!(parse(&rendered).unwrap(), doc, "{text} → {rendered}");
    }
    let doc = parse(r#"{"a": 1}"#).unwrap();
    let lookup = std::panic::catch_unwind(|| doc["absent"].clone());
    assert!(lookup.is_err(), "indexing a missing key panics");
}

/// Whatever `escape` writes, both readers decode back: the whole-document
/// parser and the flat-line `field` reader the trace and pattern JSONL
/// formats use. Control bytes and non-ASCII included.
#[test]
fn escaped_strings_round_trip_through_parse_and_field() {
    assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
    assert_eq!(escape("\u{1}"), "\\u0001");
    for s in ["plain", "E15\tmany", "ctl\u{1}\u{8}\u{c}\u{1f}", "q\"b\\/", "é😀 ünï\r\n", ""] {
        let lit = escape(s);
        assert_eq!(parse(&format!("\"{lit}\"")).unwrap().as_str(), Some(s), "{lit}");
        let line = format!("{{\"n\":7,\"k\":\"{lit}\",\"m\":true}}");
        assert_eq!(field(&line, "k").as_deref(), Some(s), "{line}");
        assert_eq!(field(&line, "n").as_deref(), Some("7"));
        assert_eq!(field(&line, "m").as_deref(), Some("true"));
    }
    assert!(field(r#"{"k":"v"}"#, "absent").is_none());
    assert!(field(r#"{"kk":1,"k":2}"#, "k").is_some_and(|v| v == "2"), "whole keys only");
    assert!(field(r#"{"k":"\q"}"#, "k").is_none(), "a bad escape is no value");

    assert_eq!(parse_u64("0xF161"), Ok(0xF161));
    assert_eq!(parse_u64(" 61793 "), Ok(61793));
    assert_eq!(parse_u64("0XffffFFFFffffFFFF"), Ok(u64::MAX));
    for bad in ["0xnope", "-1", "", "1.5", "18446744073709551616"] {
        assert!(parse_u64(bad).is_err(), "{bad:?}");
    }
}

/// Renders E1 at quick scale and checks the full artifact shape: every
/// documented key present and of the right type, table rows as wide as
/// their headers, claim records complete, and the `all_claims_pass`
/// rollup consistent with the per-claim flags.
#[test]
fn e1_artifact_parses_and_has_documented_shape() {
    let exp = registry::find("E1").expect("registered");
    let ctx = ExpContext::quick().with_threads(2);
    let (result, wall) = exp.run_timed(&ctx);
    let text = json::render(exp, &result, &ctx, wall);
    let v = parse(&text).expect("artifact must be well-formed JSON");

    assert_eq!(v["schema_version"].as_num(), Some(1.0));
    assert_eq!(v["id"].as_str(), Some("E1"));
    assert_eq!(v["title"].as_str(), Some(exp.title));
    assert_eq!(v["paper_anchor"].as_str(), Some(exp.paper_anchor));
    assert_eq!(v["scale"].as_str(), Some("quick"));
    assert_eq!(v["seed"].as_str(), Some("0xf161"));
    assert_eq!(v["threads"].as_num(), Some(2.0));
    assert!(v["wall_secs"].as_num().is_some_and(|w| w >= 0.0));

    let tags: Vec<&str> = arr(&v["tags"]).iter().filter_map(Value::as_str).collect();
    assert_eq!(tags, exp.tags);

    let tables = arr(&v["tables"]);
    assert_eq!(tables.len(), result.tables.len());
    for (t_json, t) in tables.iter().zip(&result.tables) {
        assert_eq!(t_json["title"].as_str(), Some(t.title()));
        let headers = arr(&t_json["headers"]);
        assert_eq!(headers.len(), t.headers().len());
        for row in arr(&t_json["rows"]) {
            assert_eq!(arr(row).len(), headers.len(), "ragged row in {}", t.title());
        }
    }

    let series = arr(&v["series"]);
    assert_eq!(series.len(), result.series.len());
    for s in series {
        assert!(s["name"].as_str().is_some());
        for pt in arr(&s["points"]) {
            assert_eq!(arr(pt).len(), 2, "series points are [x, y] pairs");
        }
    }

    let claims = arr(&v["claims"]);
    assert_eq!(claims.len(), result.claims.len());
    assert!(!claims.is_empty(), "E1 must carry claim checks");
    let mut all_pass = true;
    for c in claims {
        for key in ["claim", "paper", "measured"] {
            assert!(c[key].as_str().is_some(), "claim {key} is a string");
        }
        all_pass &= c["pass"].as_bool().expect("pass is a bool");
    }
    assert_eq!(v["all_claims_pass"].as_bool(), Some(all_pass));
    assert_eq!(all_pass, result.all_claims_pass());

    assert_eq!(arr(&v["notes"]).len(), result.notes.len());
}

/// Hostile content round-trips: quotes, commas, newlines, control bytes,
/// and non-finite floats in cells must survive rendering + parsing.
#[test]
fn hostile_strings_and_non_finite_floats_round_trip() {
    use densemem::experiments::{ClaimCheck, ExperimentResult};
    use densemem_stats::table::{Cell, Table};

    let exp = registry::find("E1").expect("registered");
    let nasty = "a \"quoted\", comma\nnewline\ttab \u{1} control";
    let mut r = ExperimentResult::new("E1", "hostile");
    let mut t = Table::new(nasty, &["x", "y"]);
    t.row(vec![Cell::Str(nasty.to_owned()), Cell::Float(f64::NAN)]);
    t.row(vec![Cell::Int(-3), Cell::Float(f64::INFINITY)]);
    r.tables.push(t);
    r.claims.push(ClaimCheck::new(nasty, nasty, nasty.to_owned(), true));
    r.notes.push(nasty.to_owned());

    let ctx = ExpContext::quick();
    let text = json::render(exp, &r, &ctx, 0.0);
    let v = parse(&text).expect("hostile artifact must stay well-formed");

    let table = &arr(&v["tables"])[0];
    assert_eq!(table["title"].as_str(), Some(nasty));
    let rows = arr(&table["rows"]);
    assert_eq!(arr(&rows[0])[0].as_str(), Some(nasty));
    assert_eq!(arr(&rows[0])[1], Value::Null, "NaN must serialize as null");
    assert_eq!(arr(&rows[1])[1], Value::Null, "infinity must serialize as null");
    assert_eq!(arr(&rows[1])[0].as_num(), Some(-3.0));
    assert_eq!(arr(&v["claims"])[0]["measured"].as_str(), Some(nasty));
    assert_eq!(arr(&v["notes"])[0].as_str(), Some(nasty));
}

/// A truncated report file — interrupted write, partial download — must
/// be rejected as a parse error at *every* cut point, never silently
/// read as a shorter-but-valid report.
#[test]
fn truncated_artifact_is_rejected_at_every_prefix() {
    let exp = registry::find("E1").expect("registered");
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);
    assert!(parse(&text).is_ok(), "the full artifact parses");

    // Cut at a spread of points including deep cuts (mid-string, mid-
    // number) and a lost closing brace (trailing whitespace aside, the
    // artifact's last meaningful byte).
    let mut cuts: Vec<usize> =
        (1..8).map(|k| text.len() * k / 8).collect();
    cuts.push(text.trim_end().len() - 1);
    for mut cut in cuts {
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &text[..cut];
        assert!(parse(prefix).is_err(), "truncation to {cut}/{} bytes must not parse", text.len());
    }
}

/// A report carrying the wrong schema version header — or missing it —
/// must be flagged by the structural validator even though it is
/// perfectly well-formed JSON.
#[test]
fn wrong_version_header_is_flagged_by_the_validator() {
    use densemem_testkit::golden::validate_report;

    let exp = registry::find("E1").expect("registered");
    let ctx = ExpContext::quick();
    let result = exp.run(&ctx);
    let text = json::render(exp, &result, &ctx, 0.0);

    let good = parse(&text).expect("artifact parses");
    assert!(validate_report(&good).is_empty(), "pristine report validates clean");

    // Future (or corrupted) version number.
    let mut wrong = good.clone();
    if let Value::Obj(m) = &mut wrong {
        m.insert("schema_version".into(), Value::Num(2.0));
    }
    let problems = validate_report(&wrong);
    assert!(
        problems.iter().any(|p| p.contains("schema_version")),
        "version 2 must be rejected: {problems:?}"
    );

    // Missing header entirely.
    let mut missing = good;
    if let Value::Obj(m) = &mut missing {
        m.remove("schema_version");
    }
    let problems = validate_report(&missing);
    assert!(
        problems.iter().any(|p| p.contains("schema_version")),
        "absent version must be reported: {problems:?}"
    );
}

/// Non-finite floats never leak into the artifact as bare tokens: the
/// renderer's only spelling for NaN/inf is `null`, so the text contains
/// no token a strict JSON consumer would choke on.
#[test]
fn non_finite_floats_render_as_null_tokens_only() {
    use densemem::experiments::ExperimentResult;
    use densemem_stats::table::{Cell, Table};

    let exp = registry::find("E1").expect("registered");
    let mut r = ExperimentResult::new("E1", "non-finite");
    let mut t = Table::new("edge", &["v"]);
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        t.row(vec![Cell::Float(v)]);
    }
    r.tables.push(t);
    let ctx = ExpContext::quick();
    let text = json::render(exp, &r, &ctx, 0.0);

    assert!(!text.contains("NaN"), "bare NaN token leaked");
    assert!(!text.contains("Infinity"), "bare Infinity token leaked");
    let v = parse(&text).expect("well-formed despite non-finite inputs");
    for row in arr(&arr(&v["tables"])[0]["rows"]) {
        assert_eq!(arr(row)[0], Value::Null);
    }
}
