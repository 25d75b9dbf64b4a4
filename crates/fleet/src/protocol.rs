//! The fleet wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one **frame**: a 4-byte big-endian length followed
//! by that many bytes of UTF-8 JSON (the vendored `serde_json`
//! encoding; finite `f64`s use the shortest round-trip form, so
//! replay parts cross the wire bitwise). A connection speaks exactly
//! one exchange pattern:
//!
//! 1. client → [`Hello`], server → [`HelloReply`] (the fingerprint
//!    handshake; a refused handshake closes the connection);
//! 2. then any number of client → [`JobMsg`], server → [`JobReply`]
//!    pairs, in order, until either side closes.
//!
//! Schemas and retry semantics are documented for external
//! implementors in `docs/FLEET.md`.

use delta_model::{BackendFingerprint, LayerShape};
use delta_obs::{ArgValue, SpanEvent};
use delta_sim::{ColumnReplay, Measurement};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// Protocol revision. Bumped on any frame- or schema-incompatible
/// change; the handshake refuses a peer speaking a different revision.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame's payload length. A length prefix beyond
/// this is treated as a corrupt stream rather than an allocation
/// request — replay parts for even exhaustive replays are far smaller.
pub const MAX_FRAME: u32 = 256 << 20;

/// Default for the additive version fields: frames from peers built
/// before the field existed decode as an empty string.
fn no_version() -> String {
    String::new()
}

/// Default for [`JobMsg::corr`]: frames without the field decode as
/// correlation id 0 (untraced).
fn no_corr() -> u64 {
    0
}

/// Default for [`JobMsg::trace`]: span capture stays off unless asked.
fn no_trace() -> bool {
    false
}

/// Default for [`JobReply::spans`]: no executor spans attached.
fn no_spans() -> Vec<WireSpan> {
    Vec::new()
}

/// Handshake request: the coordinator announces its protocol revision
/// and the backend fingerprint its merge assumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// [`PROTOCOL_VERSION`] of the sender.
    pub protocol: u32,
    /// The coordinator's backend/GPU/sampling fingerprint. Results are
    /// only interchangeable between equal fingerprints, so the
    /// executor refuses a mismatch (same comparison as the engine's
    /// cache header guard).
    pub fingerprint: BackendFingerprint,
    /// The sender's crate version (`CARGO_PKG_VERSION`). Informational
    /// only — compatibility is decided by `protocol` — and additive:
    /// frames from older builds decode as the empty string.
    #[serde(default = "no_version")]
    pub version: String,
}

/// Handshake response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloReply {
    /// Whether the executor accepts jobs from this coordinator.
    pub ok: bool,
    /// On refusal, a structured explanation naming both fingerprints.
    pub error: Option<String>,
    /// The executor's own fingerprint, echoed so the coordinator can
    /// verify the match independently (and render both sides of a
    /// refusal).
    pub fingerprint: BackendFingerprint,
    /// The executor's crate version, echoed for diagnostics. Additive;
    /// empty when the executor predates the field.
    #[serde(default = "no_version")]
    pub version: String,
}

/// Job kind: which replay unit the executor runs through
/// [`Simulator::replay_unit`](delta_sim::Simulator::replay_unit). A
/// plain enum (not data-carrying) so the vendored derive handles it;
/// the unit coordinates live beside it in [`JobMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// Whole-layer sequential replay
    /// ([`ReplayUnit::Layer`](delta_sim::ReplayUnit::Layer)): the
    /// `Parallelism::Single` job. `col` is ignored.
    Sequential,
    /// One tile column
    /// ([`ReplayUnit::Columns`](delta_sim::ReplayUnit::Columns) of
    /// length one): the unit of every sharded and multi-device replay.
    Column,
}

/// One work unit: replay `kind` of the layer `shape` describes.
///
/// The shape is the **already-transformed** workload (the
/// coordinator applies the pass's dgrad/wgrad transform before
/// partitioning), so executors need no pass logic and both sides
/// derive the unit decomposition from the same layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMsg {
    /// Coordinator-chosen job id, echoed in the reply. Ids are unique
    /// within one distributed run; replies carrying an id the
    /// coordinator already recorded are dropped (idempotent duplicate
    /// handling).
    pub id: u64,
    /// The replayed layer's dimensions.
    pub shape: LayerShape,
    /// Which replay entry point to run.
    pub kind: JobKind,
    /// Tile column of the unit (`Column` kind).
    pub col: u64,
    /// Correlation id of the coordinator query this job belongs to, so
    /// executor-side spans stitch into the coordinator's trace. `0`
    /// means untraced; frames from older coordinators decode as 0.
    #[serde(default = "no_corr")]
    pub corr: u64,
    /// Whether the executor should record spans while running this job
    /// and attach them to the reply.
    #[serde(default = "no_trace")]
    pub trace: bool,
}

/// One job's result. Exactly one of the two payload fields is
/// populated on success, matching the request's [`JobKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReply {
    /// The request's id.
    pub id: u64,
    /// Whether the replay succeeded.
    pub ok: bool,
    /// On failure, why.
    pub error: Option<String>,
    /// `Sequential` result: the whole-layer measurement.
    pub sequential: Option<Measurement>,
    /// `Column` result: the column's serialized merge part.
    pub column: Option<ColumnReplay>,
    /// Spans the executor recorded while running the job (only when the
    /// request set [`JobMsg::trace`]). Additive: replies from older
    /// executors decode as empty.
    #[serde(default = "no_spans")]
    pub spans: Vec<WireSpan>,
}

impl JobReply {
    /// A failure reply for job `id`.
    pub fn failure(id: u64, error: String) -> JobReply {
        JobReply {
            id,
            ok: false,
            error: Some(error),
            sequential: None,
            column: None,
            spans: Vec::new(),
        }
    }

    /// An empty success skeleton for job `id` (callers fill exactly
    /// one payload field).
    pub fn success(id: u64) -> JobReply {
        JobReply {
            id,
            ok: true,
            error: None,
            sequential: None,
            column: None,
            spans: Vec::new(),
        }
    }
}

/// One completed executor span carried in a [`JobReply`]: a serde
/// mirror of [`delta_obs::SpanEvent`] with owned strings (the obs
/// crate is dependency-free, so its wire form lives here). Argument
/// values are rendered to strings for transport; the trace viewer
/// shows them identically either way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Span id, unique within the executor process.
    pub id: u64,
    /// Executor-side parent span id (`0` = root).
    pub parent: u64,
    /// Span site name, e.g. `fleet.execute`.
    pub name: String,
    /// Start offset in microseconds since the executor's trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Executor process id.
    pub pid: u32,
    /// Executor thread number (the obs crate's own numbering).
    pub tid: u64,
    /// Correlation id the span ran under.
    pub corr: u64,
    /// Span arguments, values rendered as strings.
    pub args: Vec<(String, String)>,
}

impl From<SpanEvent> for WireSpan {
    fn from(s: SpanEvent) -> WireSpan {
        WireSpan {
            id: s.id,
            parent: s.parent,
            name: s.name.into_owned(),
            ts_us: s.ts_us,
            dur_us: s.dur_us,
            pid: s.pid,
            tid: s.tid,
            corr: s.corr,
            args: s
                .args
                .into_iter()
                .map(|(k, v)| {
                    let rendered = match v {
                        ArgValue::U64(n) => n.to_string(),
                        ArgValue::I64(n) => n.to_string(),
                        ArgValue::F64(x) => x.to_string(),
                        ArgValue::Str(s) => s,
                    };
                    (k.into_owned(), rendered)
                })
                .collect(),
        }
    }
}

impl From<WireSpan> for SpanEvent {
    fn from(w: WireSpan) -> SpanEvent {
        SpanEvent {
            id: w.id,
            parent: w.parent,
            name: Cow::Owned(w.name),
            ts_us: w.ts_us,
            dur_us: w.dur_us,
            pid: w.pid,
            tid: w.tid,
            corr: w.corr,
            args: w
                .args
                .into_iter()
                .map(|(k, v)| (Cow::Owned(k), ArgValue::Str(v)))
                .collect(),
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the JSON payload.
///
/// # Errors
///
/// Propagates serialization and socket-write failures.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode frame: {e}")))?;
    let bytes = body.as_bytes();
    if bytes.len() as u64 > u64::from(MAX_FRAME) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame and decodes its JSON payload.
///
/// # Errors
///
/// Propagates socket-read failures (including timeouts configured via
/// `set_read_timeout`); returns [`io::ErrorKind::InvalidData`] for an
/// oversized length prefix, non-UTF-8 payload, or JSON that does not
/// decode as `T`.
pub fn read_frame<T: serde::Deserialize>(r: &mut impl Read) -> io::Result<T> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> LayerShape {
        LayerShape {
            batch: 2,
            in_channels: 16,
            in_height: 8,
            in_width: 8,
            out_channels: 32,
            filter_height: 3,
            filter_width: 3,
            stride: 1,
            pad: 1,
            kind: delta_model::LayerKind::Conv,
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let msg = JobMsg {
            id: 7,
            shape: shape(),
            kind: JobKind::Column,
            col: 1,
            corr: 42,
            trace: true,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        assert_eq!(
            u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        let back: JobMsg = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn oversized_and_truncated_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame::<JobMsg>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut truncated = Vec::new();
        write_frame(&mut truncated, &JobReply::failure(1, "x".into())).unwrap();
        truncated.pop();
        let err = read_frame::<JobReply>(&mut truncated.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Frames a hand-built JSON payload the way `write_frame` would.
    fn frame_raw(json: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
        buf.extend_from_slice(json.as_bytes());
        buf
    }

    #[test]
    fn a_deeply_nested_frame_is_refused_not_a_stack_overflow() {
        // Without the parser's depth limit, 400 KB of `[` would overflow
        // the executor's stack and abort the whole process.
        let deep = "[".repeat(400 * 1024);
        let err = read_frame::<JobMsg>(&mut frame_raw(&deep).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn frames_from_pre_observability_peers_decode_with_defaults() {
        // The observability fields (`corr`/`trace`, `spans`, `version`)
        // are additive: frames hand-built without them — as an older
        // build would send — must decode with the documented defaults,
        // not error.
        let shape_json = serde_json::to_string(&shape()).unwrap();
        let old_job = format!("{{\"id\":7,\"shape\":{shape_json},\"kind\":\"Column\",\"col\":1}}");
        let job: JobMsg = read_frame(&mut frame_raw(&old_job).as_slice()).unwrap();
        assert_eq!(job.id, 7);
        assert_eq!(job.corr, 0, "missing corr decodes as untraced");
        assert!(!job.trace, "missing trace decodes as off");

        let old_reply = "{\"id\":7,\"ok\":false,\"error\":\"boom\",\
                         \"sequential\":null,\"column\":null}";
        let reply: JobReply = read_frame(&mut frame_raw(old_reply).as_slice()).unwrap();
        assert_eq!(reply.id, 7);
        assert!(reply.spans.is_empty(), "missing spans decode as empty");

        let old_hello = "{\"protocol\":1,\"fingerprint\":{\"backend\":\"sim\",\
                         \"gpu\":\"TITAN Xp\",\"config\":\"{}\"}}";
        let hello: Hello = read_frame(&mut frame_raw(old_hello).as_slice()).unwrap();
        assert_eq!(hello.protocol, 1);
        assert!(hello.version.is_empty(), "missing version decodes empty");
    }

    /// Every object key in `v`, as dotted paths in document order.
    fn key_paths(v: &serde::Value, prefix: &str, out: &mut Vec<String>) {
        match v {
            serde::Value::Map(fields) => {
                for (k, child) in fields {
                    let path = format!("{prefix}{k}");
                    out.push(path.clone());
                    key_paths(child, &format!("{path}."), out);
                }
            }
            serde::Value::Seq(items) => {
                if let Some(first) = items.first() {
                    key_paths(first, &format!("{prefix}[]."), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn job_and_reply_frames_are_pinned() {
        // Revision 2 on the wire, byte for byte: a change to any of
        // these literals is a protocol change and bumps
        // PROTOCOL_VERSION.
        let frame = |msg: &JobMsg| {
            let mut buf = Vec::new();
            write_frame(&mut buf, msg).unwrap();
            let body = String::from_utf8(buf[4..].to_vec()).unwrap();
            assert_eq!(buf[..4], (body.len() as u32).to_be_bytes());
            body
        };
        let job = |kind, col| JobMsg {
            id: 7,
            shape: shape(),
            kind,
            col,
            corr: 42,
            trace: true,
        };
        assert_eq!(
            frame(&job(JobKind::Sequential, 0)),
            "{\"id\":7,\"shape\":{\"batch\":2,\"in_channels\":16,\"in_height\":8,\"in_width\":8,\
             \"out_channels\":32,\"filter_height\":3,\"filter_width\":3,\"stride\":1,\"pad\":1},\
             \"kind\":\"Sequential\",\"col\":0,\"corr\":42,\"trace\":true}"
        );
        assert_eq!(
            frame(&job(JobKind::Column, 3)),
            "{\"id\":7,\"shape\":{\"batch\":2,\"in_channels\":16,\"in_height\":8,\"in_width\":8,\
             \"out_channels\":32,\"filter_height\":3,\"filter_width\":3,\"stride\":1,\"pad\":1},\
             \"kind\":\"Column\",\"col\":3,\"corr\":42,\"trace\":true}"
        );
        assert_eq!(
            serde_json::to_string(&JobReply::failure(4, "boom".into())).unwrap(),
            "{\"id\":4,\"ok\":false,\"error\":\"boom\",\"sequential\":null,\"column\":null,\
             \"spans\":[]}"
        );
        assert_eq!(
            serde_json::to_string(&JobReply::success(5)).unwrap(),
            "{\"id\":5,\"ok\":true,\"error\":null,\"sequential\":null,\"column\":null,\
             \"spans\":[]}"
        );

        // A success reply carrying each payload: every field name the
        // merge reads, nested ones included.
        let sim = delta_sim::Simulator::new(
            delta_model::GpuSpec::titan_xp(),
            delta_sim::SimConfig::default(),
        );
        let layer = shape().to_layer().unwrap();
        let mut reply = JobReply::success(6);
        reply.sequential = Some(sim.run(&layer));
        let Ok(delta_sim::ReplayPart::Columns(mut column)) =
            sim.replay_unit(&delta_sim::ReplayUnit::Columns(&layer, 0..1))
        else {
            panic!("a column unit answers column parts");
        };
        reply.column = column.pop();
        reply.spans = vec![WireSpan {
            id: 1,
            parent: 0,
            name: "fleet.execute".into(),
            ts_us: 2,
            dur_us: 3,
            pid: 4,
            tid: 5,
            corr: 42,
            args: vec![("job".into(), "6".into())],
        }];
        let tree: serde::Value =
            serde_json::from_str(&serde_json::to_string(&reply).unwrap()).unwrap();
        let mut keys = Vec::new();
        key_paths(&tree, "", &mut keys);
        assert_eq!(
            keys.join(" "),
            "id ok error sequential sequential.l1_bytes sequential.l2_bytes \
             sequential.dram_read_bytes sequential.dram_write_bytes sequential.l1_miss_rate \
             sequential.l2_miss_rate sequential.cycles sequential.sampled \
             sequential.simulated_ctas sequential.total_ctas sequential.active_ctas column \
             column.col column.stats column.stats.[].traffic column.stats.[].traffic.l1_bytes \
             column.stats.[].traffic.l2_bytes column.stats.[].traffic.dram_bytes \
             column.stats.[].store_bytes column.stats.[].cycles column.stats.[].loop_extrapolated \
             column.simulated_ctas column.sampled column.extrapolated column.extrapolated.l1_bytes \
             column.extrapolated.l2_bytes column.extrapolated.dram_bytes \
             column.extrapolated.store_bytes column.snapshot column.snapshot.reads \
             column.snapshot.reads.l1_bytes column.snapshot.reads.l2_bytes \
             column.snapshot.reads.dram_bytes column.snapshot.l1 column.snapshot.l1.accesses \
             column.snapshot.l1.sector_hits column.snapshot.l1.sector_misses \
             column.snapshot.l1.evictions column.snapshot.l2 column.snapshot.l2.accesses \
             column.snapshot.l2.sector_hits column.snapshot.l2.sector_misses \
             column.snapshot.l2.evictions column.snapshot.l2_write_bytes \
             column.snapshot.dram_write_bytes column.snapshot.aged_l2_bytes column.cycles spans \
             spans.[].id spans.[].parent spans.[].name spans.[].ts_us spans.[].dur_us spans.[].pid \
             spans.[].tid spans.[].corr spans.[].args"
        );
    }

    #[test]
    fn hello_names_the_fingerprint() {
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: BackendFingerprint {
                backend: "sim".into(),
                gpu: "TITAN Xp".into(),
                config: "{}".into(),
            },
            version: env!("CARGO_PKG_VERSION").to_string(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello).unwrap();
        let back: Hello = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, hello);
    }
}
