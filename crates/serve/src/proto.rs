//! The line-JSON wire protocol.
//!
//! One frame per line, every frame a flat-ish JSON object carrying a
//! `"v"` protocol version. Requests name a verb; responses either carry
//! `"ok": true` with a `"type"` tag or are typed error frames
//! (`"ok": false`, a stable machine-readable `"code"`, and a human
//! message). A malformed line is answered with a `bad-frame` error and
//! never kills the connection handler, let alone the server.
//!
//! ```text
//! → {"v":1,"verb":"submit","exp":"E1","scale":"quick","seed":"0xf161","wait":true}
//! ← {"v":1,"ok":true,"type":"result","job":3,"cache":"mem","payload":"{ …report… }","payload_fnv":"6ca1…"}
//! → {"v":1,"verb":"stats"}
//! ← {"v":1,"ok":true,"type":"stats","queue_depth":0, …}
//! ```
//!
//! Frames are read and written with [`densemem_stats::json`]; its
//! [`parse`], [`Value`] and [`escape`] are re-exported here for callers
//! that reach them through the protocol module.

use densemem_stats::json;
pub use densemem_stats::json::{escape, parse, Value};
use std::fmt::Write as _;

/// The wire protocol version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// Machine-readable error classes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid JSON object frame.
    BadFrame,
    /// The frame's `"v"` is newer than this server speaks.
    UnsupportedVersion,
    /// The `"verb"` is not one of the protocol's six.
    UnknownVerb,
    /// A required field is missing.
    MissingField,
    /// A field is present but unusable (wrong type, bad value).
    BadField,
    /// The experiment id is not in the registry.
    UnknownExperiment,
    /// The job id names no job this server ever issued.
    UnknownJob,
    /// The job id was issued, but the job has since left the bounded
    /// job table (see [`crate::engine::JOB_RETENTION`]).
    JobExpired,
    /// The job was cancelled before it produced a result.
    JobCancelled,
    /// The job's computation failed (panic caught and reported).
    JobFailed,
    /// Waiting for the result exceeded the server's patience.
    Timeout,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// A forwarded request landed on a shard that does not own the key
    /// (ring-epoch mismatch or stale routing). Single-hop rule: the
    /// receiving shard refuses instead of re-forwarding, and the
    /// originator computes locally.
    WrongShard,
    /// The owning shard could not be reached (connect/roundtrip
    /// failure). Surfaced in stats counters; clients never see it — the
    /// asked shard degrades to computing locally.
    PeerUnreachable,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::MissingField => "missing-field",
            ErrorCode::BadField => "bad-field",
            ErrorCode::UnknownExperiment => "unknown-experiment",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::JobExpired => "job-expired",
            ErrorCode::JobCancelled => "job-cancelled",
            ErrorCode::JobFailed => "job-failed",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::WrongShard => "wrong-shard",
            ErrorCode::PeerUnreachable => "peer-unreachable",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: code plus human context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The machine-readable class.
    pub code: ErrorCode,
    /// Human context for the error frame's `"msg"`.
    pub msg: String,
}

impl ProtoError {
    /// Creates an error.
    pub fn new(code: ErrorCode, msg: impl Into<String>) -> Self {
        Self { code, msg: msg.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.msg)
    }
}

impl std::error::Error for ProtoError {}

/// The six request verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Enqueue (or answer from cache) one experiment run.
    Submit,
    /// Report a job's state without blocking.
    Status,
    /// Block until a job finishes and return its report.
    Result,
    /// Cancel a queued job.
    Cancel,
    /// Metrics snapshot.
    Stats,
    /// Drain and stop the server.
    Shutdown,
}

impl Verb {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Submit => "submit",
            Verb::Status => "status",
            Verb::Result => "result",
            Verb::Cancel => "cancel",
            Verb::Stats => "stats",
            Verb::Shutdown => "shutdown",
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The verb.
    pub verb: Verb,
    /// `submit`: experiment id (registry spelling, case-insensitive).
    pub exp: Option<String>,
    /// `submit`: `"quick"` (default) or `"full"`.
    pub scale: ScaleArg,
    /// `submit`: master seed; defaults to the suite default.
    pub seed: Option<u64>,
    /// `submit`: scheduling priority (higher first, default 0).
    pub priority: i32,
    /// `submit`: when true the response is the blocking `result` frame.
    pub wait: bool,
    /// `submit`: optional mitigation override as a registry spec string
    /// (e.g. `"para:p=0.01"`). Validated and canonicalized by the
    /// engine, and folded into the report cache key.
    pub mitigation: Option<String>,
    /// `submit`: true when this request was forwarded by a fleet peer.
    /// Single-hop rule: a forwarded request is never forwarded again —
    /// a receiving shard that does not own the key answers with a typed
    /// `wrong-shard` error instead.
    pub fwd: bool,
    /// `submit`: the sender's ring epoch on forwarded requests. The
    /// receiving shard refuses (`wrong-shard`) when it disagrees, so two
    /// shards with mismatched ring configurations never trust each
    /// other's ownership math.
    pub epoch: Option<u64>,
    /// `status` / `result` / `cancel`: the job id.
    pub job: Option<u64>,
}

/// The requested scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleArg {
    /// CI scale.
    Quick,
    /// Published-number scale.
    Full,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] naming exactly what was wrong; the server
    /// turns it into a typed error frame.
    pub fn from_line(line: &str) -> Result<Self, ProtoError> {
        let v = parse(line).map_err(|e| ProtoError::new(ErrorCode::BadFrame, e))?;
        let Value::Obj(obj) = &v else {
            return Err(ProtoError::new(ErrorCode::BadFrame, "frame is not a JSON object"));
        };
        match obj.get("v") {
            Some(Value::Num(n)) if *n == PROTO_VERSION as f64 => {}
            Some(Value::Num(n)) => {
                return Err(ProtoError::new(
                    ErrorCode::UnsupportedVersion,
                    format!("protocol version {n} (this server speaks {PROTO_VERSION})"),
                ));
            }
            _ => return Err(ProtoError::new(ErrorCode::MissingField, "\"v\" (protocol version)")),
        }
        let verb = match obj.get("verb") {
            Some(Value::Str(s)) => match s.as_str() {
                "submit" => Verb::Submit,
                "status" => Verb::Status,
                "result" => Verb::Result,
                "cancel" => Verb::Cancel,
                "stats" => Verb::Stats,
                "shutdown" => Verb::Shutdown,
                other => {
                    return Err(ProtoError::new(ErrorCode::UnknownVerb, format!("{other:?}")))
                }
            },
            Some(_) => return Err(ProtoError::new(ErrorCode::BadField, "\"verb\" must be a string")),
            None => return Err(ProtoError::new(ErrorCode::MissingField, "\"verb\"")),
        };

        let mut req = Request {
            verb,
            exp: None,
            scale: ScaleArg::Quick,
            seed: None,
            priority: 0,
            wait: false,
            mitigation: None,
            fwd: false,
            epoch: None,
            job: None,
        };
        if let Some(v) = obj.get("exp") {
            match v {
                Value::Str(s) => req.exp = Some(s.clone()),
                _ => return Err(ProtoError::new(ErrorCode::BadField, "\"exp\" must be a string")),
            }
        }
        if let Some(v) = obj.get("scale") {
            match v {
                Value::Str(s) if s == "quick" => req.scale = ScaleArg::Quick,
                Value::Str(s) if s == "full" => req.scale = ScaleArg::Full,
                _ => {
                    return Err(ProtoError::new(
                        ErrorCode::BadField,
                        "\"scale\" must be \"quick\" or \"full\"",
                    ))
                }
            }
        }
        if let Some(v) = obj.get("seed") {
            req.seed = Some(u64_field("seed", v)?);
        }
        if let Some(v) = obj.get("priority") {
            match v {
                Value::Num(n) if n.fract() == 0.0 && (-1e9..=1e9).contains(n) => {
                    req.priority = *n as i32;
                }
                _ => {
                    return Err(ProtoError::new(
                        ErrorCode::BadField,
                        "\"priority\" must be a small integer",
                    ))
                }
            }
        }
        if let Some(v) = obj.get("wait") {
            match v {
                Value::Bool(b) => req.wait = *b,
                _ => return Err(ProtoError::new(ErrorCode::BadField, "\"wait\" must be a bool")),
            }
        }
        if let Some(v) = obj.get("mitigation") {
            match v {
                Value::Str(s) => req.mitigation = Some(s.clone()),
                _ => {
                    return Err(ProtoError::new(
                        ErrorCode::BadField,
                        "\"mitigation\" must be a registry spec string",
                    ))
                }
            }
        }
        if let Some(v) = obj.get("fwd") {
            match v {
                Value::Bool(b) => req.fwd = *b,
                _ => return Err(ProtoError::new(ErrorCode::BadField, "\"fwd\" must be a bool")),
            }
        }
        if let Some(v) = obj.get("epoch") {
            req.epoch = Some(u64_field("epoch", v)?);
        }
        if let Some(v) = obj.get("job") {
            match v {
                Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => req.job = Some(*n as u64),
                _ => {
                    return Err(ProtoError::new(
                        ErrorCode::BadField,
                        "\"job\" must be a non-negative integer",
                    ))
                }
            }
        }

        // Verb-specific required fields.
        match verb {
            Verb::Submit if req.exp.is_none() => {
                Err(ProtoError::new(ErrorCode::MissingField, "\"exp\" (submit)"))
            }
            Verb::Status | Verb::Result | Verb::Cancel if req.job.is_none() => {
                Err(ProtoError::new(ErrorCode::MissingField, format!("\"job\" ({})", verb.as_str())))
            }
            _ => Ok(req),
        }
    }

    /// Renders the request as a wire line (without the trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = format!("{{\"v\":{PROTO_VERSION},\"verb\":\"{}\"", self.verb.as_str());
        if let Some(exp) = &self.exp {
            let _ = write!(s, ",\"exp\":\"{}\"", escape(exp));
        }
        if self.verb == Verb::Submit {
            let scale = match self.scale {
                ScaleArg::Quick => "quick",
                ScaleArg::Full => "full",
            };
            let _ = write!(s, ",\"scale\":\"{scale}\"");
            if let Some(seed) = self.seed {
                let _ = write!(s, ",\"seed\":\"{seed:#x}\"");
            }
            if self.priority != 0 {
                let _ = write!(s, ",\"priority\":{}", self.priority);
            }
            if self.wait {
                s.push_str(",\"wait\":true");
            }
            if let Some(m) = &self.mitigation {
                let _ = write!(s, ",\"mitigation\":\"{}\"", escape(m));
            }
            if self.fwd {
                s.push_str(",\"fwd\":true");
            }
            if let Some(epoch) = self.epoch {
                let _ = write!(s, ",\"epoch\":\"{epoch:#x}\"");
            }
        }
        if let Some(job) = self.job {
            let _ = write!(s, ",\"job\":{job}");
        }
        s.push('}');
        s
    }
}

/// Reads a `seed` or `epoch` field: a JSON integer, or a decimal or
/// `"0x…"` string. Both are 64-bit (an epoch is an FNV digest), and only
/// the string spelling covers the full range (JSON numbers stop at 2^53).
fn u64_field(key: &str, v: &Value) -> Result<u64, ProtoError> {
    match v {
        Value::Str(s) => json::parse_u64(s)
            .map_err(|e| ProtoError::new(ErrorCode::BadField, format!("{key:?}: {e}"))),
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => Ok(*n as u64),
        _ => Err(ProtoError::new(
            ErrorCode::BadField,
            format!("{key:?} must be a non-negative integer or a \"0x…\" string"),
        )),
    }
}

/// The tail every result frame for `payload` ends with:
/// `,"payload_fnv":"<16 hex>","payload":"<escaped>"}`. A result frame is
/// its per-job header followed by this tail, so a report's tail is
/// rendered once and shared by every frame that carries it.
pub fn result_tail(payload: &str) -> std::sync::Arc<str> {
    std::sync::Arc::from(format!(
        ",\"payload_fnv\":\"{:016x}\",\"payload\":\"{}\"}}",
        densemem_stats::hash::fnv1a64(payload.as_bytes()),
        escape(payload)
    ))
}

/// Builds a typed error frame.
pub fn error_frame(err: &ProtoError) -> String {
    format!(
        "{{\"v\":{PROTO_VERSION},\"ok\":false,\"type\":\"error\",\"code\":\"{}\",\"msg\":\"{}\"}}",
        err.code,
        escape(&err.msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trip() {
        let line = r#"{"v":1,"verb":"submit","exp":"E1","scale":"quick","seed":"0xf161","priority":3,"wait":true}"#;
        let req = Request::from_line(line).unwrap();
        assert_eq!(req.verb, Verb::Submit);
        assert_eq!(req.exp.as_deref(), Some("E1"));
        assert_eq!(req.scale, ScaleArg::Quick);
        assert_eq!(req.seed, Some(0xF161));
        assert_eq!(req.priority, 3);
        assert!(req.wait);
        let rendered = req.to_line();
        assert_eq!(Request::from_line(&rendered).unwrap(), req);
    }

    #[test]
    fn submit_mitigation_round_trip() {
        let line = r#"{"v":1,"verb":"submit","exp":"E26","mitigation":"para:p=0.01","wait":true}"#;
        let req = Request::from_line(line).unwrap();
        assert_eq!(req.mitigation.as_deref(), Some("para:p=0.01"));
        let rendered = req.to_line();
        assert_eq!(Request::from_line(&rendered).unwrap(), req);

        let bad = r#"{"v":1,"verb":"submit","exp":"E26","mitigation":7}"#;
        assert_eq!(Request::from_line(bad).unwrap_err().code, ErrorCode::BadField);
    }

    #[test]
    fn verbs_with_job_ids() {
        for verb in ["status", "result", "cancel"] {
            let req =
                Request::from_line(&format!("{{\"v\":1,\"verb\":\"{verb}\",\"job\":42}}")).unwrap();
            assert_eq!(req.job, Some(42));
            let missing = Request::from_line(&format!("{{\"v\":1,\"verb\":\"{verb}\"}}"));
            assert_eq!(missing.unwrap_err().code, ErrorCode::MissingField);
        }
    }

    #[test]
    fn error_taxonomy() {
        let cases = [
            ("not json at all", ErrorCode::BadFrame),
            ("{\"v\":1,\"verb\":\"submit\",\"exp\"", ErrorCode::BadFrame), // truncated frame
            ("[1,2,3]", ErrorCode::BadFrame),
            ("{\"verb\":\"stats\"}", ErrorCode::MissingField),
            ("{\"v\":99,\"verb\":\"stats\"}", ErrorCode::UnsupportedVersion),
            ("{\"v\":1,\"verb\":\"frobnicate\"}", ErrorCode::UnknownVerb),
            ("{\"v\":1,\"verb\":\"submit\"}", ErrorCode::MissingField),
            ("{\"v\":1,\"verb\":\"submit\",\"exp\":7}", ErrorCode::BadField),
            ("{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"scale\":\"huge\"}", ErrorCode::BadField),
            (
                "{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":\"0xnope\"}",
                ErrorCode::BadField,
            ),
            ("{\"v\":1,\"verb\":\"cancel\",\"job\":-1}", ErrorCode::BadField),
        ];
        for (line, want) in cases {
            let err = Request::from_line(line).unwrap_err();
            assert_eq!(err.code, want, "line {line:?} → {err}");
        }
    }

    #[test]
    fn error_frames_are_parseable() {
        let frame = error_frame(&ProtoError::new(ErrorCode::BadFrame, "line 1: \"oops\""));
        let doc = parse(&frame).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("code").and_then(Value::as_str), Some("bad-frame"));
        assert_eq!(doc.get("msg").and_then(Value::as_str), Some("line 1: \"oops\""));
    }

    #[test]
    fn forwarded_submit_round_trip() {
        let line = r#"{"v":1,"verb":"submit","exp":"E15","seed":"0x7","fwd":true,"epoch":"0xdeadbeefcafef00d"}"#;
        let req = Request::from_line(line).unwrap();
        assert!(req.fwd);
        assert_eq!(req.epoch, Some(0xDEAD_BEEF_CAFE_F00D));
        let rendered = req.to_line();
        assert_eq!(Request::from_line(&rendered).unwrap(), req);

        // Plain submits carry neither field and default them off.
        let plain = Request::from_line(r#"{"v":1,"verb":"submit","exp":"E1"}"#).unwrap();
        assert!(!plain.fwd);
        assert_eq!(plain.epoch, None);

        for bad in [
            r#"{"v":1,"verb":"submit","exp":"E1","fwd":"yes"}"#,
            r#"{"v":1,"verb":"submit","exp":"E1","epoch":-3}"#,
            r#"{"v":1,"verb":"submit","exp":"E1","epoch":"0xzz"}"#,
        ] {
            assert_eq!(Request::from_line(bad).unwrap_err().code, ErrorCode::BadField, "{bad}");
        }
    }

    #[test]
    fn fleet_error_codes_have_stable_spellings() {
        assert_eq!(ErrorCode::WrongShard.as_str(), "wrong-shard");
        assert_eq!(ErrorCode::PeerUnreachable.as_str(), "peer-unreachable");
    }

    #[test]
    fn seed_spellings() {
        for (spelling, want) in
            [("\"0xF161\"", 0xF161u64), ("\"61793\"", 61793), ("61793", 61793)]
        {
            let req = Request::from_line(&format!(
                "{{\"v\":1,\"verb\":\"submit\",\"exp\":\"E1\",\"seed\":{spelling}}}"
            ))
            .unwrap();
            assert_eq!(req.seed, Some(want), "{spelling}");
        }
    }
}
