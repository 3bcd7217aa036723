//! Harness glue for the experiment binaries and criterion benches.
//!
//! Two binaries drive the registry (`densemem::experiments::registry`):
//!
//! * `exp` — the unified experiment CLI. `--list` enumerates the suite
//!   with paper anchors and tags; `--list-mitigations` enumerates the
//!   mitigation plugin registry (names, parameter schemas, defaults);
//!   `--only e1,e7`, `--skip e3`, and `--tag dram|flash|pcm` select
//!   subsets; `--quick` switches to the CI scale; `--json-dir DIR`
//!   writes per-experiment `DIR/<id>.json` + `DIR/<id>.csv` artifacts;
//!   `--threads N`, `--seed S`, and `--mitigation SPEC` override the
//!   execution context.
//! * `run_all_experiments` — the full-suite harness: serial-vs-parallel
//!   calibration of the E1+E2 hot path (explicit [`ExpContext`] thread
//!   policies, no environment mutation), a one-line verdict per
//!   experiment, `BENCH_harness.json`, and the full reports.
//!
//! Both go through [`HarnessArgs`] / [`write_artifacts`], so the verdict
//! table, the JSON artifacts, and the rendered reports all come from one
//! code path.
//!
//! The criterion benches under `benches/` measure the simulator itself
//! (kernel issue rate, scheduler, codec and flash throughput) and the
//! per-access cost of each mitigation — the "negligible overhead" claims.

use densemem::experiments::{registry, ExpContext, Experiment, ExperimentResult, Scale};
use densemem::report::{json, render_csv};
use densemem_stats::json::parse_u64;
use std::path::PathBuf;

/// Read-modify-write for a benchmark JSON artifact shared by several
/// binaries (`BENCH_serve.json` holds both `serve_throughput` and
/// `serve_load` sections). Returns the full document with `section`
/// replaced by `body` (a complete JSON value) and every other top-level
/// section preserved byte-equivalently (reparsed and re-rendered in
/// canonical key order). A pre-section legacy document — a bare object
/// with no `serve_*` keys — is adopted wholesale as `serve_throughput`.
/// Unreadable or unparseable files are treated as absent: benchmarks
/// must be able to regenerate their artifacts from scratch.
pub fn merge_bench_json(path: &std::path::Path, section: &str, body: &str) -> String {
    use densemem_stats::json::{parse, Value};
    let mut sections: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(Value::Obj(map)) = parse(&text) {
            if map.keys().any(|k| k.starts_with("serve_")) {
                for (k, v) in &map {
                    sections.insert(k.clone(), v.render_json());
                }
            } else if !map.is_empty() {
                sections.insert("serve_throughput".to_owned(), Value::Obj(map).render_json());
            }
        }
    }
    sections.insert(section.to_owned(), body.trim().to_owned());
    let mut out = String::from("{\n");
    for (i, (k, v)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parsed command-line options shared by the experiment harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// `--quick` → [`Scale::Quick`], otherwise [`Scale::Full`].
    pub quick: bool,
    /// `--list`: print the registry and exit.
    pub list: bool,
    /// `--json-dir DIR`: write per-experiment JSON + CSV artifacts.
    pub json_dir: Option<PathBuf>,
    /// `--threads N`: explicit thread count (otherwise `DENSEMEM_THREADS`
    /// or the machine's parallelism — the outermost default).
    pub threads: Option<usize>,
    /// `--seed S`: master seed override (decimal or `0x`-prefixed hex).
    pub seed: Option<u64>,
    /// `--trace-dir DIR`: trace-aware experiments write their recorded
    /// command streams as JSONL artifacts under DIR.
    pub trace_dir: Option<PathBuf>,
    /// `--mitigation SPEC`: mitigation override, stored in canonical
    /// registry form (validated at parse time).
    pub mitigation: Option<String>,
    /// `--list-mitigations`: print the mitigation plugin registry and
    /// exit.
    pub list_mitigations: bool,
    only: Vec<String>,
    skip: Vec<String>,
    tags: Vec<String>,
}

/// The `exp` binary's usage string.
pub const USAGE: &str = "usage: exp [--quick] [--list] [--list-mitigations] [--only e1,e7] \
[--skip e3] [--tag dram|flash|pcm] [--json-dir DIR] [--trace-dir DIR] [--threads N] [--seed S] \
[--mitigation name:key=val,...]";

fn split_csv(v: &str) -> Vec<String> {
    v.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect()
}

impl HarnessArgs {
    /// Parses an argument list (without the program name). Flags taking a
    /// value accept both `--flag value` and `--flag=value`; `--only`,
    /// `--skip`, and `--tag` accept comma lists and may repeat.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (arg, None),
            };
            let value = |it: &mut I::IntoIter| -> Result<String, String> {
                match inline.clone().or_else(|| it.next()) {
                    Some(v) => Ok(v),
                    None => Err(format!("{flag} needs a value")),
                }
            };
            match flag.as_str() {
                "--quick" => out.quick = true,
                "--list" => out.list = true,
                "--list-mitigations" => out.list_mitigations = true,
                "--mitigation" => {
                    let raw = value(&mut it)?;
                    let spec = densemem_ctrl::MitigationSpec::parse(&raw)
                        .map_err(|e| e.to_string())?;
                    out.mitigation = Some(spec.canonical());
                }
                "--only" => out.only.extend(split_csv(&value(&mut it)?)),
                "--skip" => out.skip.extend(split_csv(&value(&mut it)?)),
                "--tag" => out.tags.extend(split_csv(&value(&mut it)?)),
                "--json-dir" => out.json_dir = Some(PathBuf::from(value(&mut it)?)),
                "--trace-dir" => out.trace_dir = Some(PathBuf::from(value(&mut it)?)),
                "--threads" => out.threads = Some(parse_u64(&value(&mut it)?)? as usize),
                "--seed" => out.seed = Some(parse_u64(&value(&mut it)?)?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, printing usage and exiting with
    /// status 2 on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The experiment scale these arguments select.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Builds the execution context: scale plus any `--threads` /
    /// `--seed` overrides on top of the documented defaults.
    pub fn context(&self) -> ExpContext {
        let mut ctx = ExpContext::new(self.scale());
        if let Some(t) = self.threads {
            ctx = ctx.with_threads(t);
        }
        if let Some(s) = self.seed {
            ctx = ctx.with_seed(s);
        }
        if let Some(d) = &self.trace_dir {
            ctx = ctx.with_trace_dir(d.clone());
        }
        if let Some(m) = &self.mitigation {
            ctx = ctx.with_mitigation(m).expect("spec validated at parse time");
        }
        ctx
    }

    /// Resolves the selection flags against the registry, in registry
    /// order: start from `--only` (or everything), drop `--skip` ids,
    /// then keep experiments carrying at least one `--tag` (if given).
    /// Unknown ids or tags are errors, not silent no-ops.
    pub fn select(&self) -> Result<Vec<&'static Experiment>, String> {
        for id in self.only.iter().chain(&self.skip) {
            if registry::find(id).is_none() {
                return Err(format!("unknown experiment id {id:?} (see --list)"));
            }
        }
        let vocabulary = registry::tag_vocabulary();
        for tag in &self.tags {
            if !vocabulary.iter().any(|t| t.eq_ignore_ascii_case(tag)) {
                return Err(format!(
                    "unknown tag {tag:?} (vocabulary: {})",
                    vocabulary.join(", ")
                ));
            }
        }
        let selected: Vec<&'static Experiment> = registry::registry()
            .iter()
            .filter(|e| {
                self.only.is_empty() || self.only.iter().any(|id| e.id.eq_ignore_ascii_case(id))
            })
            .filter(|e| !self.skip.iter().any(|id| e.id.eq_ignore_ascii_case(id)))
            .filter(|e| self.tags.is_empty() || self.tags.iter().any(|t| e.has_tag(t)))
            .collect();
        if selected.is_empty() {
            return Err("selection matched no experiments".to_owned());
        }
        Ok(selected)
    }
}

/// Renders the registry as the `exp --list` table: id, paper anchor,
/// tags, and title for every experiment.
pub fn list_table() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<5} {:<18} {:<38} title\n", "id", "paper", "tags"));
    for e in registry::registry() {
        out.push_str(&format!(
            "{:<5} {:<18} {:<38} {}\n",
            e.id,
            e.paper_anchor,
            e.tags.join(","),
            e.title
        ));
    }
    out.push_str(&format!("\ntag vocabulary: {}\n", registry::tag_vocabulary().join(", ")));
    out
}

/// Renders the mitigation plugin registry as the `exp --list-mitigations`
/// table: name, parameter schema (key, default, inclusive range, help),
/// and description for every registered plugin. Compose specs with `+`
/// (e.g. `para+trr`); omitted parameters take the listed defaults.
pub fn list_mitigations_table() -> String {
    let mut out = String::new();
    out.push_str("mitigation plugin registry (spec grammar: name[:key=val,...][+name...])\n\n");
    for p in densemem_ctrl::mitigation::registry::registry() {
        out.push_str(&format!("{:<14} {}\n", p.name, p.description));
        for s in p.params {
            out.push_str(&format!(
                "{:<14}   {}={} (range {}..={}) — {}\n",
                "", s.key, s.default.render(), s.min, s.max, s.help
            ));
        }
    }
    out
}

/// Writes the structured artifacts for one experiment run: `<id>.json`
/// (complete report: tables, series, claims, notes, wall time) and
/// `<id>.csv` (RFC 4180 table bodies) under `dir`, creating it if needed.
/// Returns the JSON path.
pub fn write_artifacts(
    dir: &std::path::Path,
    exp: &Experiment,
    result: &ExperimentResult,
    ctx: &ExpContext,
    wall_secs: f64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{}.json", result.id));
    std::fs::write(&json_path, json::render(exp, result, ctx, wall_secs))?;
    std::fs::write(dir.join(format!("{}.csv", result.id)), render_csv(result))?;
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(args.iter().map(|s| (*s).to_owned())).expect("parse")
    }

    #[test]
    fn parse_and_select_only_skip() {
        let a = parse(&["--quick", "--only", "e1,E7", "--only=e3", "--skip", "e3"]);
        assert_eq!(a.scale(), Scale::Quick);
        let sel = a.select().unwrap();
        let ids: Vec<&str> = sel.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["E1", "E7"]);
    }

    #[test]
    fn select_by_tag() {
        let a = parse(&["--tag", "pcm"]);
        let ids: Vec<&str> = a.select().unwrap().iter().map(|e| e.id).collect();
        assert_eq!(ids, ["E19", "E20"]);
    }

    #[test]
    fn unknown_ids_tags_and_flags_are_errors() {
        assert!(parse(&["--only", "e99"]).select().is_err());
        assert!(parse(&["--tag", "nosuch"]).select().is_err());
        assert!(parse(&["--skip", "e1"]).select().is_ok());
        assert!(HarnessArgs::parse(["--frobnicate".to_owned()]).is_err());
        assert!(HarnessArgs::parse(["--only".to_owned()]).is_err());
    }

    #[test]
    fn context_overrides() {
        let a = parse(&["--threads", "3", "--seed", "0xBEEF", "--trace-dir", "artifacts/traces"]);
        let ctx = a.context();
        assert_eq!(ctx.par.threads(), 3);
        assert_eq!(ctx.seed, 0xBEEF);
        assert_eq!(ctx.scale, Scale::Full);
        assert_eq!(ctx.trace_dir.as_deref(), Some(std::path::Path::new("artifacts/traces")));
    }

    #[test]
    fn threads_zero_means_auto_detect_end_to_end() {
        // `--threads 0` must mean "auto-detect", same as no flag at all —
        // not a zero-thread (or panicking) pool. Regression test for the
        // ParConfig::with_threads(0) contract at the CLI boundary.
        let ctx = parse(&["--threads", "0"]).context();
        assert!(ctx.par.threads() >= 1);
        assert_eq!(
            ctx.par.threads(),
            densemem_stats::par::detected_parallelism(),
            "--threads 0 must resolve to the detected parallelism"
        );
    }

    #[test]
    fn default_selection_is_whole_registry() {
        let a = parse(&[]);
        assert_eq!(a.select().unwrap().len(), 27);
        let listing = list_table();
        assert!(listing.contains("E26"));
        assert!(listing.contains("Figure 1"));
    }

    #[test]
    fn mitigation_flag_canonicalizes_and_rejects_bad_specs() {
        let a = parse(&["--mitigation", "PARA"]);
        assert_eq!(a.mitigation.as_deref(), Some("para:p=0.001"));
        assert_eq!(a.context().mitigation.as_deref(), Some("para:p=0.001"));
        assert!(HarnessArgs::parse(["--mitigation".to_owned(), "warp-drive".to_owned()]).is_err());
        assert!(HarnessArgs::parse(["--mitigation".to_owned(), "para:p=2".to_owned()]).is_err());

        let listing = list_mitigations_table();
        for p in densemem_ctrl::mitigation::registry::registry() {
            assert!(listing.contains(p.name), "{} missing from listing", p.name);
        }
        assert!(listing.contains("p=0.001"));
    }

    #[test]
    fn merge_bench_json_preserves_other_sections_and_migrates_legacy() {
        let dir = std::env::temp_dir().join(format!("densemem_merge_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");

        // Missing file: the document is just the new section.
        let doc = merge_bench_json(&path, "serve_load", r#"{"clients": 200}"#);
        assert_eq!(doc, "{\n  \"serve_load\": {\"clients\": 200}\n}\n");

        // A legacy flat document is adopted as serve_throughput, then a
        // serve_load write must not disturb it.
        std::fs::write(&path, r#"{"warm_rounds": 50, "experiments": [{"id": "E1"}]}"#).unwrap();
        let doc = merge_bench_json(&path, "serve_load", r#"{"clients": 200}"#);
        std::fs::write(&path, &doc).unwrap();
        let parsed = densemem_serve::proto::parse(&doc).expect("merged doc parses");
        assert_eq!(
            parsed.get("serve_throughput").and_then(|v| v.get("warm_rounds")).and_then(
                densemem_serve::proto::Value::as_num
            ),
            Some(50.0)
        );
        assert!(parsed.get("serve_load").is_some());

        // And the reverse: a serve_throughput rewrite keeps serve_load.
        let doc = merge_bench_json(&path, "serve_throughput", r#"{"warm_rounds": 60}"#);
        let parsed = densemem_serve::proto::parse(&doc).expect("re-merged doc parses");
        assert_eq!(
            parsed.get("serve_load").and_then(|v| v.get("clients")).and_then(
                densemem_serve::proto::Value::as_num
            ),
            Some(200.0)
        );
        assert_eq!(
            parsed.get("serve_throughput").and_then(|v| v.get("warm_rounds")).and_then(
                densemem_serve::proto::Value::as_num
            ),
            Some(60.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_round_trip_to_disk() {
        let dir = std::env::temp_dir().join("densemem_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = registry::find("E10").unwrap();
        let ctx = ExpContext::quick();
        let (result, wall) = exp.run_timed(&ctx);
        let json_path = write_artifacts(&dir, exp, &result, &ctx, wall).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"id\": \"E10\""));
        assert!(dir.join("E10.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
