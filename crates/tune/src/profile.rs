//! Versioned machine profiles: the persistent artifact of calibration.
//!
//! A profile is a list of fitted [`ca_gpusim::PerfModel`] parameters plus
//! named achieved-rate curves ([`ca_gpusim::EffCurve`]). It serializes to
//! a deterministic JSON document — same profile, same bytes — so CI can
//! assert that re-running calibration reproduces the committed profile
//! bit for bit, and so the FNV-1a hash of the document identifies the
//! calibration in bench-run metadata.
//!
//! Floating point values are written with Rust's shortest round-trip
//! formatting (`{:?}`) and read back — by the workspace's one JSON reader,
//! [`ca_obs::Jv`] — with `str::parse::<f64>`, which restores the exact bit
//! pattern for every finite value.

use ca_gpusim::{EffCurve, PerfModel};
use ca_obs::metrics::json_string;
use ca_obs::Jv;

/// Identifies the document type in the JSON header.
pub const PROFILE_SCHEMA: &str = "ca-tune/machine-profile";
/// Bumped when the document layout changes incompatibly.
pub const PROFILE_VERSION: u64 = 1;

/// Where a parameter value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSource {
    /// Fitted from replayed micro-kernels.
    Fit,
    /// Copied from the hint model (not identifiable from replay alone —
    /// e.g. `net_bw` on a single-node machine, or one factor of a
    /// product of two parameters that only ever appears as the product).
    Hint,
}

impl ParamSource {
    fn as_str(self) -> &'static str {
        match self {
            ParamSource::Fit => "fit",
            ParamSource::Hint => "hint",
        }
    }
}

/// One `(name, value)` override for [`PerfModel::apply_overrides`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileParam {
    /// A name [`PerfModel::param`] accepts.
    pub name: String,
    /// Fitted (or carried-over) value.
    pub value: f64,
    /// Provenance.
    pub source: ParamSource,
}

/// A named achieved-rate curve (the Figure 11 analog: e.g. batched-GEMM
/// GFLOP/s as a function of the block width `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedCurve {
    /// Kernel family, e.g. `"gemm_batched"`.
    pub name: String,
    /// Unit of the knot ordinates, e.g. `"GFLOP/s"`.
    pub unit: String,
    /// The fitted curve.
    pub curve: EffCurve,
}

/// A fitted machine profile: parameter overrides plus efficiency curves.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Free-form machine label, e.g. `"sim-m2090-x3"`.
    pub machine: String,
    /// Parameter overrides in [`PerfModel::params`] order.
    pub params: Vec<ProfileParam>,
    /// Achieved-rate curves per kernel family.
    pub curves: Vec<NamedCurve>,
}

impl MachineProfile {
    /// A profile of every model parameter, in [`PerfModel::params`] order:
    /// fitted where `fit` names it, carried over from `hint` elsewhere.
    pub(crate) fn assemble(
        machine: &str,
        hint: &PerfModel,
        fit: &[(&'static str, f64)],
        curves: Vec<NamedCurve>,
    ) -> Self {
        let param = |(name, hinted): (&str, f64)| match fit.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => {
                ProfileParam { name: name.into(), value, source: ParamSource::Fit }
            }
            None => ProfileParam { name: name.into(), value: hinted, source: ParamSource::Hint },
        };
        let params = hint.params().into_iter().map(param).collect();
        Self { machine: machine.to_string(), params, curves }
    }

    /// Look up a parameter override by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|p| p.name == name).map(|p| p.value)
    }

    /// Look up a curve by kernel-family name.
    #[must_use]
    pub fn curve(&self, name: &str) -> Option<&EffCurve> {
        self.curves.iter().find(|c| c.name == name).map(|c| &c.curve)
    }

    /// Materialize a [`PerfModel`]: clone `hint`, then apply every
    /// parameter override — the loaded profile replaces the built-in
    /// constants. Returns the model and how many overrides matched.
    #[must_use]
    pub fn to_model(&self, hint: &PerfModel) -> (PerfModel, usize) {
        let mut m = hint.clone();
        let n = m.apply_overrides(self.params.iter().map(|p| (p.name.as_str(), p.value)));
        (m, n)
    }

    /// Deterministic canonical JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", json_string(PROFILE_SCHEMA)));
        s.push_str(&format!("  \"version\": {PROFILE_VERSION},\n"));
        s.push_str(&format!("  \"machine\": {},\n", json_string(&self.machine)));
        s.push_str("  \"params\": [\n");
        for (i, p) in self.params.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"value\": {:?}, \"source\": {}}}{}\n",
                json_string(&p.name),
                p.value,
                json_string(p.source.as_str()),
                if i + 1 < self.params.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"curves\": [\n");
        for (i, c) in self.curves.iter().enumerate() {
            let knots: Vec<String> =
                c.curve.knots().iter().map(|&(x, y)| format!("[{x:?}, {y:?}]")).collect();
            s.push_str(&format!(
                "    {{\"name\": {}, \"unit\": {}, \"knots\": [{}]}}{}\n",
                json_string(&c.name),
                json_string(&c.unit),
                knots.join(", "),
                if i + 1 < self.curves.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a profile from its JSON document.
    ///
    /// # Errors
    /// A human-readable message when the document is malformed, has the
    /// wrong schema tag, or a version this build does not understand.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Jv::parse(text)?;
        let obj = v.as_obj().ok_or("profile: top level is not an object")?;
        let schema = get(obj, "schema")?.as_str().ok_or("profile: schema is not a string")?;
        if schema != PROFILE_SCHEMA {
            return Err(format!("profile: unexpected schema {schema:?}"));
        }
        let version = get(obj, "version")?.as_f64().ok_or("profile: version is not a number")?;
        if version != PROFILE_VERSION as f64 {
            return Err(format!("profile: unsupported version {version}"));
        }
        let machine =
            get(obj, "machine")?.as_str().ok_or("profile: machine is not a string")?.to_string();
        let mut params = Vec::new();
        for pv in get(obj, "params")?.as_arr().ok_or("profile: params is not an array")? {
            let po = pv.as_obj().ok_or("profile: param entry is not an object")?;
            let source = match get(po, "source")?.as_str() {
                Some("fit") => ParamSource::Fit,
                Some("hint") => ParamSource::Hint,
                other => return Err(format!("profile: bad param source {other:?}")),
            };
            params.push(ProfileParam {
                name: get(po, "name")?
                    .as_str()
                    .ok_or("profile: param name is not a string")?
                    .to_string(),
                value: get(po, "value")?.as_f64().ok_or("profile: param value is not a number")?,
                source,
            });
        }
        let mut curves = Vec::new();
        for cv in get(obj, "curves")?.as_arr().ok_or("profile: curves is not an array")? {
            let co = cv.as_obj().ok_or("profile: curve entry is not an object")?;
            let mut knots = Vec::new();
            for kv in get(co, "knots")?.as_arr().ok_or("profile: knots is not an array")? {
                let pair = kv.as_arr().ok_or("profile: knot is not a pair")?;
                if pair.len() != 2 {
                    return Err("profile: knot is not a pair".into());
                }
                let x = pair[0].as_f64().ok_or("profile: knot x is not a number")?;
                let y = pair[1].as_f64().ok_or("profile: knot y is not a number")?;
                knots.push((x, y));
            }
            if knots.is_empty() {
                return Err("profile: curve has no knots".into());
            }
            curves.push(NamedCurve {
                name: get(co, "name")?
                    .as_str()
                    .ok_or("profile: curve name is not a string")?
                    .to_string(),
                unit: get(co, "unit")?
                    .as_str()
                    .ok_or("profile: curve unit is not a string")?
                    .to_string(),
                curve: EffCurve::from_knots(knots),
            });
        }
        Ok(Self { machine, params, curves })
    }

    /// FNV-1a hash of the canonical JSON document.
    #[must_use]
    pub fn hash(&self) -> u64 {
        ca_obs::fnv1a(self.to_json().as_bytes())
    }

    /// [`MachineProfile::hash`] as the fixed-width hex string bench
    /// metadata embeds.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }
}

fn get<'a>(obj: &'a [(String, Jv)], key: &str) -> Result<&'a Jv, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("profile: missing key {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MachineProfile {
        MachineProfile {
            machine: "sim-test".to_string(),
            params: vec![
                ProfileParam { name: "launch_s".into(), value: 7.125e-6, source: ParamSource::Fit },
                ProfileParam { name: "net_bw".into(), value: 4.5e9, source: ParamSource::Hint },
            ],
            curves: vec![NamedCurve {
                name: "gemm_batched".into(),
                unit: "GFLOP/s".into(),
                curve: EffCurve::from_knots(vec![(2.0, 11.5), (16.0, 98.0), (31.0, 141.25)]),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let p = sample();
        let text = p.to_json();
        let q = MachineProfile::from_json(&text).unwrap();
        assert_eq!(p, q);
        // canonical: serializing the parse reproduces the exact bytes
        assert_eq!(text, q.to_json());
        assert_eq!(p.hash(), q.hash());
    }

    #[test]
    fn awkward_f64_values_survive_round_trip() {
        // values whose decimal expansions exercise the shortest-repr
        // printer: subnormals, ulp-separated neighbors, huge magnitudes
        let vals =
            [f64::MIN_POSITIVE, 1.0 + f64::EPSILON, 0.1, 1e308, 5e-324, std::f64::consts::PI, -0.0];
        let p = MachineProfile {
            machine: "bits".into(),
            params: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| ProfileParam {
                    name: format!("p{i}"),
                    value: v,
                    source: ParamSource::Fit,
                })
                .collect(),
            curves: vec![],
        };
        let q = MachineProfile::from_json(&p.to_json()).unwrap();
        for (a, b) in p.params.iter().zip(&q.params) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }

    #[test]
    fn to_model_applies_overrides() {
        let hint = PerfModel::default();
        let mut p = sample();
        p.params[0].value = 1.5e-5; // launch_s
        let (m, matched) = p.to_model(&hint);
        assert_eq!(matched, 2);
        assert_eq!(m.param("launch_s"), Some(1.5e-5));
        // untouched parameters come from the hint
        assert_eq!(m.param("blas1_bw"), hint.param("blas1_bw"));
    }

    #[test]
    fn rejects_wrong_schema_and_version() {
        let good = sample().to_json();
        let bad = good.replace("ca-tune/machine-profile", "something-else");
        assert!(MachineProfile::from_json(&bad).is_err());
        let bad = good.replace("\"version\": 1", "\"version\": 99");
        assert!(MachineProfile::from_json(&bad).is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for text in ["", "{", "{\"schema\": }", "[1,2", "{\"a\": 1} x"] {
            assert!(MachineProfile::from_json(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn deeply_nested_document_is_refused() {
        // a profile whose machine name is buried under 200 000 arrays
        let text = format!("{{\"machine\": {}", "[".repeat(200_000));
        let err = MachineProfile::from_json(&text).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
