//! String-keyed mitigation plugin registry.
//!
//! Mirrors the experiment registry one crate up: every mitigation is a
//! named plugin with a typed parameter schema (defaults, ranges) and a
//! constructor, so every layer that needs a mitigation — the `exp` CLI,
//! the trace-replay kit, the serving daemon — builds it from one spec
//! string instead of hand-calling constructors. The shape follows
//! ramulator2, where RowHammer defences are string-registered controller
//! plugins (`oracle_rh`, `graphene`, `para`, ...).
//!
//! # Spec grammar
//!
//! ```text
//! spec  := part ("+" part)*
//! part  := name [":" kv ("," kv)*]
//! kv    := key "=" value
//! ```
//!
//! Names and keys are lowercase kebab-case; values are decimal integers
//! or floats according to the parameter's declared type. Omitted
//! parameters take their defaults; `+` composes parts into a
//! [`Stack`]. [`MitigationSpec::canonical`] renders the fully-explicit
//! form (every parameter, declared order), which is what cache keys
//! fold in — `"para"` and `"para:p=0.001"` are the same cached entity.
//!
//! # Examples
//!
//! ```
//! use densemem_ctrl::mitigation::registry::MitigationSpec;
//! let spec = MitigationSpec::parse("para").unwrap();
//! assert_eq!(spec.canonical(), "para:p=0.001");
//! let m = spec.build(7).unwrap();
//! assert_eq!(m.name(), "PARA");
//! assert!(MitigationSpec::parse("para:p=2").is_err());
//! ```

use super::{Cra, Graphene, InDramTrr, NoMitigation, OracleRh, Para, ParaLogicalGuess, Stack,
            TrrSampler};
use crate::anvil::{AnvilConfig, AnvilDetector};
use crate::trace::CommandObserver;
use crate::CtrlError;

/// A typed parameter value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// A floating-point parameter (probabilities).
    Float(f64),
    /// An unsigned integer parameter (thresholds, table sizes, windows).
    UInt(u64),
}

impl ParamValue {
    /// The value as `f64` (exact for both variants).
    pub fn as_f64(self) -> f64 {
        match self {
            ParamValue::Float(v) => v,
            ParamValue::UInt(v) => v as f64,
        }
    }

    /// The value as `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a [`ParamValue::Float`] — plugin constructors only call
    /// this on parameters their own schema declares as `UInt`.
    pub fn as_u64(self) -> u64 {
        match self {
            ParamValue::UInt(v) => v,
            ParamValue::Float(v) => panic!("parameter is a float ({v}), not an integer"),
        }
    }

    /// Canonical text form (what [`MitigationSpec::canonical`] prints).
    pub fn render(self) -> String {
        match self {
            ParamValue::Float(v) => format!("{v}"),
            ParamValue::UInt(v) => format!("{v}"),
        }
    }

    /// Parses `text` as the same variant as `self` (the schema default
    /// fixes each parameter's type).
    fn parse_like(self, text: &str) -> Option<ParamValue> {
        match self {
            ParamValue::Float(_) => text.parse().ok().filter(|v: &f64| v.is_finite())
                .map(ParamValue::Float),
            ParamValue::UInt(_) => text.parse().ok().map(ParamValue::UInt),
        }
    }
}

/// One parameter of a plugin's schema.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Spec-string key (lowercase kebab-case).
    pub key: &'static str,
    /// Default value; its variant fixes the parameter's type.
    pub default: ParamValue,
    /// Inclusive lower bound (compared as `f64`).
    pub min: f64,
    /// Inclusive upper bound (compared as `f64`).
    pub max: f64,
    /// One-line description for `--list-mitigations`.
    pub help: &'static str,
}

/// Constructor shared by every plugin: resolved parameter values (one
/// per schema entry, in order) plus an RNG seed.
type Construct = fn(&[ParamValue], u64) -> Result<Box<dyn CommandObserver>, CtrlError>;

/// A registered mitigation plugin.
pub struct MitigationPlugin {
    /// Registry name (lowercase kebab-case, the spec-string head).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Parameter schema, in canonical order.
    pub params: &'static [ParamSpec],
    /// Builds the mitigation from resolved values (one per schema entry,
    /// in order) and an RNG seed.
    construct: Construct,
}

impl std::fmt::Debug for MitigationPlugin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MitigationPlugin")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

fn bad(reason: String) -> CtrlError {
    CtrlError::BadSpec(reason)
}

static REGISTRY: [MitigationPlugin; 9] = [
    MitigationPlugin {
        name: "none",
        description: "baseline: no mitigation",
        params: &[],
        construct: |_, _| Ok(Box::new(NoMitigation)),
    },
    MitigationPlugin {
        name: "para",
        description: "PARA via SPD adjacency: refresh true neighbours on PRE with probability p",
        params: &[ParamSpec {
            key: "p",
            default: ParamValue::Float(0.001),
            min: 0.0,
            max: 1.0,
            help: "per-precharge neighbour-refresh probability",
        }],
        construct: |v, seed| Ok(Box::new(Para::new(v[0].as_f64(), seed)?)),
    },
    MitigationPlugin {
        name: "para-logical",
        description: "PARA guessing logical +/-1 adjacency (fails on remapped devices, E16)",
        params: &[ParamSpec {
            key: "p",
            default: ParamValue::Float(0.002),
            min: 0.0,
            max: 1.0,
            help: "per-precharge neighbour-refresh probability",
        }],
        construct: |v, seed| Ok(Box::new(ParaLogicalGuess::new(v[0].as_f64(), seed)?)),
    },
    MitigationPlugin {
        name: "cra",
        description: "counter-based row activation: per-row counters, refresh at threshold",
        params: &[ParamSpec {
            key: "threshold",
            default: ParamValue::UInt(60_000),
            min: 1.0,
            max: 1e12,
            help: "activations of one row per window that trigger refresh",
        }],
        construct: |v, _| Ok(Box::new(Cra::new(v[0].as_u64())?)),
    },
    MitigationPlugin {
        name: "trr-sampler",
        description: "sampling TRR: record aggressors with probability p, serve on REF",
        params: &[
            ParamSpec {
                key: "p",
                default: ParamValue::Float(0.01),
                min: 0.0,
                max: 1.0,
                help: "per-activation sampling probability",
            },
            ParamSpec {
                key: "table",
                default: ParamValue::UInt(64),
                min: 1.0,
                max: 1e6,
                help: "captured-aggressor table entries",
            },
        ],
        construct: |v, seed| {
            Ok(Box::new(TrrSampler::new(v[0].as_f64(), v[1].as_u64() as usize, seed)?))
        },
    },
    MitigationPlugin {
        name: "trr",
        description: "DDR4-style in-DRAM TRR: tiny Misra-Gries table, fires on REF ticks",
        params: &[
            ParamSpec {
                key: "table",
                default: ParamValue::UInt(4),
                min: 1.0,
                max: 1e6,
                help: "tracked-aggressor table entries",
            },
            ParamSpec {
                key: "fire",
                default: ParamValue::UInt(32),
                min: 1.0,
                max: 1e12,
                help: "counted activations before a REF-tick refresh fires",
            },
        ],
        construct: |v, _| {
            Ok(Box::new(InDramTrr::new(v[0].as_u64() as usize, v[1].as_u64())?))
        },
    },
    MitigationPlugin {
        name: "anvil",
        description: "ANVIL-style software detector: per-interval activation-rate sampling",
        params: &[
            ParamSpec {
                key: "interval-ns",
                default: ParamValue::UInt(1_000_000),
                min: 1.0,
                max: 1e15,
                help: "sampling interval, nanoseconds",
            },
            ParamSpec {
                key: "threshold",
                default: ParamValue::UInt(2_000),
                min: 1.0,
                max: 1e12,
                help: "per-interval activations of one row that flag an aggressor",
            },
        ],
        construct: |v, _| {
            Ok(Box::new(AnvilDetector::new(AnvilConfig {
                sample_interval_ns: v[0].as_u64(),
                act_threshold: v[1].as_u64(),
            })))
        },
    },
    MitigationPlugin {
        name: "graphene",
        description: "Graphene: Misra-Gries frequent-row summary, refresh at count threshold",
        params: &[
            ParamSpec {
                key: "table",
                default: ParamValue::UInt(64),
                min: 1.0,
                max: 1e6,
                help: "frequent-row summary entries",
            },
            ParamSpec {
                key: "threshold",
                default: ParamValue::UInt(34_750),
                min: 1.0,
                max: 1e12,
                help: "summary count at which neighbours are refreshed",
            },
        ],
        construct: |v, _| {
            Ok(Box::new(Graphene::new(v[0].as_u64() as usize, v[1].as_u64())?))
        },
    },
    MitigationPlugin {
        name: "oracle",
        description: "OracleRH cost lower bound: exact per-row exposure, refresh just below threshold",
        params: &[ParamSpec {
            key: "threshold",
            default: ParamValue::UInt(139_000),
            min: 3.0,
            max: 1e12,
            help: "device hammer threshold the oracle protects against",
        }],
        construct: |v, _| Ok(Box::new(OracleRh::new(v[0].as_u64())?)),
    },
];

/// Every registered plugin, in listing order.
pub fn registry() -> &'static [MitigationPlugin] {
    &REGISTRY
}

/// Looks a plugin up by name (ASCII case-insensitive).
pub fn find(name: &str) -> Option<&'static MitigationPlugin> {
    REGISTRY.iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

fn known_names() -> String {
    REGISTRY.iter().map(|p| p.name).collect::<Vec<_>>().join(", ")
}

/// One parsed `name:key=val,...` part with every parameter resolved.
#[derive(Debug, Clone)]
struct SpecPart {
    plugin: &'static MitigationPlugin,
    values: Vec<ParamValue>,
}

impl SpecPart {
    fn parse(text: &str) -> Result<Self, CtrlError> {
        let (name, args) = match text.split_once(':') {
            Some((name, args)) => (name.trim(), Some(args)),
            None => (text.trim(), None),
        };
        if name.is_empty() {
            return Err(bad(format!("empty mitigation name (known: {})", known_names())));
        }
        let Some(plugin) = find(name) else {
            return Err(bad(format!("unknown mitigation {name:?} (known: {})", known_names())));
        };
        let mut values: Vec<Option<ParamValue>> = vec![None; plugin.params.len()];
        if let Some(args) = args {
            for kv in args.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    return Err(bad(format!("{name}: empty key=value pair")));
                }
                let Some((key, value)) = kv.split_once('=') else {
                    return Err(bad(format!("{name}: expected key=value, got {kv:?}")));
                };
                let (key, value) = (key.trim(), value.trim());
                let Some(idx) = plugin.params.iter().position(|p| p.key == key) else {
                    let keys =
                        plugin.params.iter().map(|p| p.key).collect::<Vec<_>>().join(", ");
                    return Err(bad(format!(
                        "{name}: unknown parameter {key:?} (schema: {keys})"
                    )));
                };
                if values[idx].is_some() {
                    return Err(bad(format!("{name}: duplicate parameter {key:?}")));
                }
                let spec = &plugin.params[idx];
                let Some(parsed) = spec.default.parse_like(value) else {
                    return Err(bad(format!("{name}: {key}={value:?} is not a valid number")));
                };
                let v = parsed.as_f64();
                if v < spec.min || v > spec.max {
                    return Err(bad(format!(
                        "{name}: {key}={value} out of range [{}, {}]",
                        spec.min, spec.max
                    )));
                }
                values[idx] = Some(parsed);
            }
        }
        let values = values
            .into_iter()
            .zip(plugin.params)
            .map(|(v, p)| v.unwrap_or(p.default))
            .collect();
        Ok(Self { plugin, values })
    }

    fn canonical(&self) -> String {
        if self.plugin.params.is_empty() {
            return self.plugin.name.to_owned();
        }
        let args = self
            .plugin
            .params
            .iter()
            .zip(&self.values)
            .map(|(p, v)| format!("{}={}", p.key, v.render()))
            .collect::<Vec<_>>()
            .join(",");
        format!("{}:{}", self.plugin.name, args)
    }
}

/// A validated mitigation spec: one or more plugin parts with every
/// parameter resolved against its schema.
#[derive(Debug, Clone)]
pub struct MitigationSpec {
    parts: Vec<SpecPart>,
}

impl MitigationSpec {
    /// Parses and validates a spec string (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// [`CtrlError::BadSpec`] on an unknown plugin or parameter, a
    /// malformed pair, a duplicate key, or an out-of-range value.
    pub fn parse(text: &str) -> Result<Self, CtrlError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(bad(format!("empty mitigation spec (known: {})", known_names())));
        }
        let parts = text.split('+').map(SpecPart::parse).collect::<Result<Vec<_>, _>>()?;
        Ok(Self { parts })
    }

    /// The fully-explicit canonical form: every parameter printed in
    /// schema order with its resolved value. Equal canonical strings
    /// mean equal configured mitigations — this is what cache keys use.
    pub fn canonical(&self) -> String {
        self.parts.iter().map(SpecPart::canonical).collect::<Vec<_>>().join("+")
    }

    /// The plugin names, in part order.
    pub fn names(&self) -> Vec<&'static str> {
        self.parts.iter().map(|p| p.plugin.name).collect()
    }

    /// Constructs the configured mitigation. Multi-part specs become a
    /// [`Stack`]; part `i` seeds its RNG (if any) from
    /// `seed.wrapping_add(i)`, so a single-part spec sees `seed`
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Propagates the plugin constructor's validation error.
    pub fn build(&self, seed: u64) -> Result<Box<dyn CommandObserver>, CtrlError> {
        let mut built = self
            .parts
            .iter()
            .enumerate()
            .map(|(i, part)| (part.plugin.construct)(&part.values, seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(if built.len() == 1 { built.pop().expect("one part") } else { Box::new(Stack::new(built)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceFilter;

    #[test]
    fn registry_names_are_unique_kebab_case() {
        let mut names: Vec<_> = registry().iter().map(|p| p.name).collect();
        assert!(names.len() >= 9);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate plugin name");
        for p in registry() {
            assert!(
                p.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{} is not kebab-case",
                p.name
            );
            for param in p.params {
                let d = param.default.as_f64();
                assert!(d >= param.min && d <= param.max, "{}:{} default out of range",
                    p.name, param.key);
            }
        }
    }

    #[test]
    fn defaults_fill_in_and_canonicalize() {
        let spec = MitigationSpec::parse("para").unwrap();
        assert_eq!(spec.canonical(), "para:p=0.001");
        assert_eq!(
            MitigationSpec::parse("para:p=0.001").unwrap().canonical(),
            spec.canonical(),
            "explicit default and omitted default canonicalize identically"
        );
        assert_eq!(MitigationSpec::parse("none").unwrap().canonical(), "none");
        assert_eq!(
            MitigationSpec::parse("trr:fire=8").unwrap().canonical(),
            "trr:table=4,fire=8",
            "parameters print in schema order regardless of spec order"
        );
        assert_eq!(
            MitigationSpec::parse("GRAPHENE:threshold=100,table=8").unwrap().canonical(),
            "graphene:table=8,threshold=100"
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for text in [
            "",
            "warp-drive",
            "para:q=1",
            "para:p",
            "para:p=nope",
            "para:p=2",
            "para:p=0.1,p=0.2",
            "para+",
            "cra:threshold=0",
            "oracle:threshold=2",
        ] {
            let err = MitigationSpec::parse(text).unwrap_err();
            assert!(
                matches!(err, CtrlError::BadSpec(_)),
                "{text:?} gave {err:?}, expected BadSpec"
            );
        }
    }

    #[test]
    fn build_constructs_every_registered_plugin_at_defaults() {
        for p in registry() {
            let spec = MitigationSpec::parse(p.name).unwrap();
            let m = spec.build(1).unwrap();
            assert!(!m.name().is_empty(), "{}", p.name);
            assert_eq!(m.filter(), TraceFilter::DeviceOnly, "{}", p.name);
        }
    }

    #[test]
    fn stack_composition_builds_and_canonicalizes() {
        let spec = MitigationSpec::parse("para:p=0.01+cra:threshold=500").unwrap();
        assert_eq!(spec.canonical(), "para:p=0.01+cra:threshold=500");
        assert_eq!(spec.names(), vec!["para", "cra"]);
        let m = spec.build(9).unwrap();
        assert_eq!(m.name(), "stack");
        assert_eq!(m.filter(), TraceFilter::DeviceOnly, "its children's union");
        assert!(m.storage_bits(1024, 2) > 0, "CRA's counters survive stacking");
    }

    #[test]
    fn registry_build_matches_direct_constructor_streams() {
        // The registry must hand the caller's seed to the constructor
        // unchanged: a registry-built PARA and a direct Para::new must
        // produce identical RNG decisions (goldens depend on this).
        use crate::stats::CtrlStats;
        use crate::trace::{CommandOrigin, MemCommand, ObserverCtx, TraceEvent};
        use densemem_dram::module::RowRemap;
        use densemem_dram::{BankGeometry, Manufacturer, Module, VintageProfile};

        let profile = VintageProfile::new(Manufacturer::A, 2013);
        let mut module = Module::new(1, BankGeometry::small(), profile, RowRemap::Identity, 5);
        let mut from_registry = MitigationSpec::parse("para:p=0.4").unwrap().build(405).unwrap();
        let mut direct: Box<dyn CommandObserver> =
            Box::new(super::super::Para::new(0.4, 405).unwrap());
        let mut stats_a = CtrlStats::default();
        let mut stats_b = CtrlStats::default();
        for i in 0..200 {
            let event = TraceEvent {
                at_ns: i,
                origin: CommandOrigin::Controller,
                cmd: MemCommand::Pre { bank: 0, row: 10 },
            };
            let mut ctx = ObserverCtx::new(&mut module, &mut stats_a, i);
            from_registry.observe(&event, &mut ctx);
            let mut ctx = ObserverCtx::new(&mut module, &mut stats_b, i);
            direct.observe(&event, &mut ctx);
        }
        assert_eq!(stats_a.mitigation_triggers, stats_b.mitigation_triggers);
        assert!(stats_a.mitigation_triggers > 0, "p=0.4 over 200 PREs must fire");
    }
}
