//! The per-layer metric catalogue: every name a traced run prints, with
//! its unit. `BENCHMARK.json`'s `per_layer` list must equal it (a unit
//! test holds the two together).
//!
//! A traced run prints the whole catalogue. A metric reads 0 on a
//! workload where the benchmark makes no call into that layer (see the
//! README's layer table for which workload measures what).

use densemem::experiments::registry;
use std::collections::BTreeMap;

/// The mitigation specs of the replay matrix: `(registry name, metric
/// name)`. `para+trr` composes two plugins into one `Stack` observer;
/// metric names cannot carry `+`.
pub const PLUGINS: [(&str, &str); 10] = [
    ("none", "none"),
    ("para", "para"),
    ("para-logical", "para-logical"),
    ("cra", "cra"),
    ("trr-sampler", "trr-sampler"),
    ("trr", "trr"),
    ("anvil", "anvil"),
    ("graphene", "graphene"),
    ("oracle", "oracle"),
    ("para+trr", "para-trr"),
];

/// The registry experiments serve-mix computes (its warm and never-seen
/// keys), in registry order: the experiments layer is timed on these.
pub fn served_experiments() -> Vec<&'static registry::Experiment> {
    registry::registry()
        .iter()
        .filter(|e| crate::serve_mix::WARM_EXPS.contains(&e.id))
        .collect()
}

/// The full per-layer catalogue, in print order.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| c.push((name.to_owned(), unit));
    add("attack.pattern.sample_us", "us");
    add("attack.pattern.kernel_self_ms", "ms");
    add("attack.pattern.spin_reads", "count");
    add("attack.pattern.pattern_reads", "count");
    add("ctrl.controller.requests_per_s", "1/s");
    add("ctrl.controller.requests", "count");
    add("ctrl.controller.activations", "count");
    add("ctrl.controller.commands_emitted", "count");
    add("ctrl.refresh.ns_per_request", "ns");
    add("ctrl.refresh.rows", "count");
    for (_, p) in PLUGINS {
        add(&format!("ctrl.observer.{p}.ns_per_event"), "ns");
        add(&format!("ctrl.observer.{p}.refreshes"), "count");
        add(&format!("replay.{p}.ms"), "ms");
    }
    add("ctrl.trace.encode_mb_per_s", "MB/s");
    add("ctrl.trace.decode_mb_per_s", "MB/s");
    add("ctrl.trace.events", "count");
    add("dram.module.build_ms", "ms");
    add("dram.device.ns_per_cmd", "ns");
    add("dram.bank.scan_ms", "ms");
    add("dram.population.build_s", "s");
    for e in served_experiments() {
        add(&format!("exp.{}_s", e.id), "s");
    }
    add("report.render_us", "us");
    add("serve.proto.parse_us", "us");
    add("serve.proto.escape_us", "us");
    add("serve.cache_key_us", "us");
    add("stats.hash.fnv_mb_per_s", "MB/s");
    add("serve.cache.mem_get_us", "us");
    add("serve.cache.disk_get_us", "us");
    add("serve.cache.disk_put_us", "us");
    add("serve.mem_hits", "count");
    add("serve.disk_hits", "count");
    add("serve.misses", "count");
    add("serve.engine.hit_us", "us");
    add("serve.engine.miss_ms", "ms");
    add("serve.engine.rss_kb_per_request", "KB");
    add("serve.transport.hit_us", "us");
    add("serve.hit_p50_us", "us");
    add("serve.hit_tail_us", "us");
    add("serve.miss_p50_ms", "ms");
    add("trace.overhead_pct", "%");
    c
}

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue (a benchmark bug).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            catalog().iter().any(|(n, _)| *n == name),
            "metric {name} is not catalogued"
        );
        self.values.insert(name, value);
    }

    /// The whole catalogue with the gathered values (0 where unset).
    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        catalog()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, in this order, with these units.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = densemem_serve::proto::parse(&text).expect("BENCHMARK.json parses");
        let Some(densemem_serve::proto::Value::Arr(listed)) = doc.get("per_layer") else {
            panic!("per_layer is a list");
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_owned();
                let unit = m
                    .get("unit")
                    .and_then(|v| v.as_str())
                    .expect("unit")
                    .to_owned();
                (name, unit)
            })
            .collect();
        let want: Vec<(String, String)> = catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed, want);
    }

    #[test]
    fn names_follow_the_metric_grammar() {
        for (name, unit) in catalog() {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
            assert!(unit.len() <= 16);
        }
        let mut names: Vec<String> = catalog().into_iter().map(|(n, _)| n).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        assert!(n <= 128);
    }
}
