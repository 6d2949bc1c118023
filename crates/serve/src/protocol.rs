//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every frame is one line of compact JSON (strings escape control
//! characters, so a frame never contains a raw newline). Requests carry
//! an `"op"` discriminator; responses carry `"ok"` plus either a
//! `"result"` payload or an `"error"` message. The full schema lives in
//! `docs/protocol.md`.
//!
//! `analyze`/`analyze_profile` requests negotiate the **advice schema
//! version** per call: `"schema": 2` selects the structured v2 report
//! ([`gpa_core::schema`]); absent (or `1`) keeps the flat v1 body, so
//! pre-v2 clients keep working unchanged. The same requests also carry
//! optional [`AdviceRequest`] options (`top`, `categories`,
//! `optimizers`, `min_speedup`, `hotspots`, `evidence`).

use gpa_core::{report, schema, AdviceReport, AdviceRequest, OptimizerCategory, OptimizerId};
use gpa_json::Json;
use gpa_pipeline::{advice_v1, outcome_envelope, AnalysisError, AnalysisJob, AnalysisOutcome};
use gpa_sampling::KernelProfile;

/// The default daemon address (`gpa serve` / `gpa request` without
/// `--addr`).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7070";

/// Advice schema versions the daemon can answer with.
pub const SCHEMA_VERSIONS: [u32; 2] = [1, 2];

/// The schema version used when a request does not negotiate one —
/// v1, so pre-v2 clients see unchanged bodies.
pub const DEFAULT_SCHEMA: u32 = 1;

/// Hard cap on one request line. Anything longer is rejected and the
/// connection closed: past this point the stream cannot be resynced.
pub const MAX_REQUEST_BYTES: u64 = 8 * 1024 * 1024;

/// Upper bound on the diagnostic `sleep` op, so a stray request cannot
/// park a worker indefinitely.
pub const MAX_SLEEP_MS: u64 = 5_000;

/// Upper bound on `analyze`'s `repeat` option: each repeat is a full
/// kernel re-simulation, so an uncapped value would let one frame pin a
/// worker indefinitely (the compute analogue of [`MAX_SLEEP_MS`]).
/// Sampling phases spread across one period, so repeats beyond the
/// period add nothing anyway.
pub const MAX_REPEAT: u32 = 64;

/// How many advice items the rendered report text includes (the CLI's
/// `analyze` default).
pub const REPORT_TOP: usize = 5;

/// Anti-entropy metadata piggybacked on cluster-internal frames: the
/// sender's roster epoch (`"epoch"`) and advertised address
/// (`"from"`). Both optional — plain client traffic never carries
/// them — and never part of a content address (they do not shape the
/// body). A receiver that is *ahead* of the sender answers normally
/// and rejects nothing; a receiver *behind* the sender schedules a
/// roster refresh from `from`; a forwarded analyze whose sender is
/// behind gets a [`stale_epoch_frame`] instead of a wrong-owner
/// answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerMeta {
    /// The sender's roster epoch.
    pub epoch: Option<u64>,
    /// The sender's advertised address, for refresh callbacks.
    pub from: Option<String>,
}

impl PeerMeta {
    /// Parses the optional anti-entropy fields of a frame.
    fn parse(doc: &Json) -> Result<PeerMeta, String> {
        let mut meta = PeerMeta::default();
        if let Some(v) = doc.get("epoch") {
            meta.epoch = Some(v.as_u64().map_err(|_| "`epoch` must be an unsigned integer")?);
        }
        if let Some(v) = doc.get("from") {
            meta.from = Some(v.as_str().map_err(|_| "`from` must be a string")?.to_string());
        }
        Ok(meta)
    }

    /// Appends the set fields to a wire frame object.
    fn extend_wire(&self, mut doc: Json) -> Json {
        if let Some(epoch) = self.epoch {
            doc = doc.with("epoch", epoch);
        }
        if let Some(from) = &self.from {
            doc = doc.with("from", from.clone());
        }
        doc
    }
}

/// Per-request advice options carried on the wire: the negotiated
/// schema version, the profiling repeat count, plus the
/// [`AdviceRequest`] the advisor runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOptions {
    /// Advice schema version for the response body (1 or 2).
    pub schema: u32,
    /// Profiling repeat count for `analyze`: the daemon replays the
    /// launch this many times with shifted sampling phases and advises
    /// on the merged profile (1 = plain single-launch profiling).
    pub repeat: u32,
    /// Cluster-internal marker (`"fwd": true` on the wire): this
    /// request was already routed by a peer shard, so the receiver must
    /// answer it locally and never forward it again — the loop guard
    /// for transiently disagreeing rings. Not part of the content
    /// address (it does not shape the body).
    pub forwarded: bool,
    /// Anti-entropy metadata on forwarded frames (sender epoch and
    /// address). Like `forwarded`, never part of the content address.
    pub meta: PeerMeta,
    /// Memory timing model for the simulation (`"mem": "hierarchy"` on
    /// the wire): `true` runs the kernel against the timed L1/L2/shared
    /// servers instead of the flat latency table. Part of the content
    /// address — the two models produce different profiles.
    pub hierarchy: bool,
    /// Advisor options for this call.
    pub request: AdviceRequest,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions {
            schema: DEFAULT_SCHEMA,
            repeat: 1,
            forwarded: false,
            meta: PeerMeta::default(),
            hierarchy: false,
            request: AdviceRequest::default(),
        }
    }
}

impl WireOptions {
    /// Options selecting the v2 schema with default advisor behavior.
    pub fn v2() -> Self {
        WireOptions { schema: 2, ..WireOptions::default() }
    }

    /// Parses the optional advice-option members of an
    /// `analyze`/`analyze_profile` frame — the one validator of every
    /// option value, whether it arrived on the wire or on `gpa`'s
    /// command line.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending member.
    pub fn parse(doc: &Json) -> Result<WireOptions, String> {
        let mut options = WireOptions::default();
        if let Some(v) = doc.get("schema") {
            options.schema = parse_schema(v)?;
        }
        if let Some(v) = doc.get("repeat") {
            let n = v.as_u64().map_err(|_| "`repeat` must be an unsigned integer")?;
            if n == 0 {
                return Err("`repeat` must be at least 1".to_string());
            }
            // Each repeat re-simulates the kernel; cap what one frame
            // can make a worker do.
            if n > u64::from(MAX_REPEAT) {
                return Err(format!("`repeat` exceeds the limit of {MAX_REPEAT}"));
            }
            options.repeat = n as u32;
        }
        if let Some(v) = doc.get("fwd") {
            options.forwarded = v.as_bool().map_err(|_| "`fwd` must be a boolean")?;
        }
        if let Some(v) = doc.get("mem") {
            let s = v.as_str().map_err(|_| "`mem` must be a string")?;
            options.hierarchy = match s {
                "flat" => false,
                "hierarchy" => true,
                other => {
                    return Err(format!(
                        "unknown memory model `{other}` (expected flat or hierarchy)"
                    ))
                }
            };
        }
        options.meta = PeerMeta::parse(doc)?;
        let mut request = AdviceRequest::default();
        if let Some(v) = doc.get("top") {
            let top = v.as_u64().map_err(|_| "`top` must be an unsigned integer")?;
            request.top = Some(usize::try_from(top).map_err(|_| "`top` out of range")?);
        }
        if let Some(v) = doc.get("categories") {
            for s in strings_of(v, "categories")? {
                let cat = OptimizerCategory::from_slug(&s).ok_or_else(|| {
                    format!(
                        "unknown category `{s}` \
                         (expected stall-elimination, latency-hiding or parallel)"
                    )
                })?;
                request.categories.push(cat);
            }
        }
        if let Some(v) = doc.get("optimizers") {
            for s in strings_of(v, "optimizers")? {
                let id =
                    OptimizerId::from_name(&s).ok_or_else(|| format!("unknown optimizer `{s}`"))?;
                request.optimizers.push(id);
            }
        }
        if let Some(v) = doc.get("min_speedup") {
            // `1e999` parses to infinity, which JSON cannot carry back
            // out: a forwarded copy would reach the owner as `null`.
            request.min_speedup = v.as_f64().map_err(|_| "`min_speedup` must be a number")?;
            if !request.min_speedup.is_finite() {
                return Err("`min_speedup` must be finite".to_string());
            }
        }
        if let Some(v) = doc.get("hotspots") {
            let n = v.as_u64().map_err(|_| "`hotspots` must be an unsigned integer")?;
            request.hotspots = usize::try_from(n).map_err(|_| "`hotspots` out of range")?;
        }
        if let Some(v) = doc.get("evidence") {
            request.evidence = v.as_bool().map_err(|_| "`evidence` must be a boolean")?;
        }
        options.request = request;
        Ok(options)
    }

    /// Appends the non-default option fields to a wire frame object.
    fn extend_wire(&self, mut doc: Json) -> Json {
        let defaults = AdviceRequest::default();
        if self.schema != DEFAULT_SCHEMA {
            doc = doc.with("schema", self.schema);
        }
        if self.repeat != 1 {
            doc = doc.with("repeat", self.repeat);
        }
        if self.hierarchy {
            doc = doc.with("mem", "hierarchy");
        }
        let r = &self.request;
        if let Some(top) = r.top {
            doc = doc.with("top", top);
        }
        if !r.categories.is_empty() {
            doc = doc.with(
                "categories",
                Json::Arr(r.categories.iter().map(|c| c.slug().into()).collect()),
            );
        }
        if !r.optimizers.is_empty() {
            doc = doc.with(
                "optimizers",
                Json::Arr(r.optimizers.iter().map(|o| o.slug().into()).collect()),
            );
        }
        if r.min_speedup != defaults.min_speedup {
            doc = doc.with("min_speedup", r.min_speedup);
        }
        if r.hotspots != defaults.hotspots {
            doc = doc.with("hotspots", r.hotspots);
        }
        if r.evidence != defaults.evidence {
            doc = doc.with("evidence", r.evidence);
        }
        if self.forwarded {
            doc = doc.with("fwd", true);
        }
        self.meta.extend_wire(doc)
    }

    /// A canonical rendering of everything in the options that shapes a
    /// response body — the options segment of the content address.
    /// Filter lists are sorted and deduplicated (membership filters are
    /// order-insensitive), so semantically identical requests share one
    /// store entry.
    fn cache_segment(&self) -> String {
        let r = &self.request;
        let mut cats: Vec<&str> = r.categories.iter().map(|c| c.slug()).collect();
        cats.sort_unstable();
        cats.dedup();
        let mut opts: Vec<&str> = r.optimizers.iter().map(|o| o.slug()).collect();
        opts.sort_unstable();
        opts.dedup();
        let mut seg = format!(
            "s{}|r{}|t{}|c{}|o{}|m{}|h{}|e{}",
            self.schema,
            self.repeat,
            r.top.map_or_else(|| "-".to_string(), |t| t.to_string()),
            cats.join(","),
            opts.join(","),
            r.min_speedup,
            r.hotspots,
            u8::from(r.evidence),
        );
        // Appended (rather than a fixed field) so every pre-existing
        // flat-model content address stays byte-identical.
        if self.hierarchy {
            seg.push_str("|Mh");
        }
        seg
    }
}

/// Parses a schema version: the integers 1/2 or the strings "v1"/"v2".
fn parse_schema(v: &Json) -> Result<u32, String> {
    let n = match v {
        Json::Str(s) => match s.as_str() {
            "v1" | "1" => 1,
            "v2" | "2" => 2,
            other => return Err(format!("unknown schema `{other}` (expected v1 or v2)")),
        },
        other => {
            let n = other.as_u64().map_err(|_| "`schema` must be 1, 2, \"v1\" or \"v2\"")?;
            u32::try_from(n).map_err(|_| "`schema` out of range")?
        }
    };
    if SCHEMA_VERSIONS.contains(&n) {
        Ok(n)
    } else {
        Err(format!("unsupported schema version {n} (supported: 1, 2)"))
    }
}

/// A string or an array of strings.
fn strings_of(v: &Json, field: &str) -> Result<Vec<String>, String> {
    match v {
        Json::Str(s) => Ok(vec![s.clone()]),
        Json::Arr(items) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .map_err(|_| format!("`{field}` entries must be strings"))
            })
            .collect(),
        _ => Err(format!("`{field}` must be a string or an array of strings")),
    }
}

/// One request line's top-level members: the control fields as a small
/// tree, the two bulk payloads (first occurrence) without one — an
/// uploaded `profile` decoded in the same pass, with its schema verdict
/// and its text; a replicated `body` as validated text.
struct Frame<'a> {
    doc: Json,
    profile: Option<(gpa_json::Result<KernelProfile>, &'a str)>,
    body: Option<&'a str>,
}

impl<'a> Frame<'a> {
    fn scan(line: &'a str) -> gpa_json::Result<Self> {
        let mut reader = gpa_json::Reader::new(line);
        let (mut profile, mut body) = (None, None);
        let doc = if reader.open(b'{')? {
            let mut fields = Vec::new();
            while let Some(key) = reader.key()? {
                match &*key {
                    "profile" if profile.is_none() => {
                        let start = reader.offset();
                        let decoded = KernelProfile::from_reader(&mut reader)?;
                        profile = Some((decoded, &line[start..reader.offset()]));
                    }
                    "body" if body.is_none() => body = Some(reader.skip()?),
                    "profile" | "body" => drop(reader.skip()?),
                    _ => fields.push((key.into_owned(), reader.value()?)),
                }
            }
            Json::Obj(fields)
        } else {
            reader.value()?
        };
        reader.finish()?;
        Ok(Frame { doc, profile, body })
    }
}

/// The wire ops: one row per op, in `status.ops` reporting order. The
/// row is the only place an op's name is spelled; [`Request::parse`]
/// matches the enum exhaustively and [`crate::Metrics`] counts by
/// discriminant, so a new row does not compile until it parses.
macro_rules! ops {
    ($($variant:ident = $name:literal,)*) => {
        /// Which op a request is: the `"op"` member of its frame.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $($variant,)*
        }

        impl Op {
            /// Every op, in `status.ops` reporting order (an op's
            /// discriminant is its index here).
            pub const ALL: [Op; [$($name),*].len()] = [$(Op::$variant,)*];

            /// The op as the wire spells it.
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$variant => $name,)*
                }
            }

            /// Inverse of [`Op::name`].
            pub fn from_name(name: &str) -> Option<Op> {
                Op::ALL.iter().copied().find(|op| op.name() == name)
            }
        }
    };
}

ops! {
    Analyze = "analyze",
    AnalyzeProfile = "analyze_profile",
    ProfileBegin = "profile_begin",
    ProfileChunk = "profile_chunk",
    ProfileEnd = "profile_end",
    ProfileAbort = "profile_abort",
    Status = "status",
    Shutdown = "shutdown",
    Sleep = "sleep",
    StoreGet = "store_get",
    StorePut = "store_put",
    Join = "join",
    Leave = "leave",
    RingStatus = "ring_status",
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Profile `(app, variant)` in the simulator and advise on it.
    Analyze {
        /// The app/variant to analyze.
        job: AnalysisJob,
        /// Negotiated schema version and advisor options.
        options: WireOptions,
    },
    /// Advise on a client-submitted profile (no simulation): the
    /// decoupled path a real CUPTI dump would take.
    AnalyzeProfile {
        /// The app/variant whose module artifacts to match against.
        job: AnalysisJob,
        /// The submitted sampling profile.
        profile: Box<KernelProfile>,
        /// Canonical (compact) rendering of the submitted profile,
        /// kept for content-addressing.
        canon: String,
        /// Negotiated schema version and advisor options.
        options: WireOptions,
    },
    /// Opens a chunked profile upload for `(app, variant)`: large
    /// client profiles stream in as several `profile_chunk` frames
    /// (each under the request size cap) instead of one giant
    /// `analyze_profile` frame. Answered with an `upload_id` scoped to
    /// this connection.
    ProfileBegin {
        /// The app/variant whose module artifacts to match against.
        job: AnalysisJob,
        /// Negotiated schema version and advisor options for the final
        /// advice.
        options: WireOptions,
    },
    /// Adds one profile chunk to an open upload. Chunks are full (but
    /// typically partial-coverage) `KernelProfile` documents; the daemon
    /// folds them together with `KernelProfile::merge`, so only the
    /// running merge is retained server-side.
    ProfileChunk {
        /// The id `profile_begin` returned.
        upload_id: u64,
        /// This chunk's profile document.
        profile: Box<KernelProfile>,
    },
    /// Closes an upload: the merged profile is advised on exactly like
    /// an `analyze_profile` submission of the merged document — same
    /// response body, same content-addressed cache entry.
    ProfileEnd {
        /// The id `profile_begin` returned.
        upload_id: u64,
    },
    /// Discards an open upload without analyzing it, freeing its
    /// per-connection slot — the recovery path when a chunk was
    /// rejected mid-upload.
    ProfileAbort {
        /// The id `profile_begin` returned.
        upload_id: u64,
    },
    /// Cluster-internal: look up a content address in the receiver's
    /// *local* report store (memory or disk tier only — never
    /// forwarded, never computed). A restarted shard uses this against
    /// its ring successor to warm owned entries from the replica set
    /// instead of recomputing.
    StoreGet {
        /// The canonical content address (a [`Request::cache_key`]).
        key: String,
    },
    /// Cluster-internal: admit a replicated response body into the
    /// receiver's report store. Sent by a key's owner to its ring
    /// successor after computing (and by the handoff scan after a
    /// membership change), so the right shard holds a warm copy.
    /// Replica admissions never re-replicate (no cascade).
    StorePut {
        /// The canonical content address (a [`Request::cache_key`]).
        key: String,
        /// The compact response body to store.
        body: String,
        /// The sender's epoch/address, for lazy anti-entropy.
        meta: PeerMeta,
    },
    /// Membership: add `addr` to the receiver's roster (bumping the
    /// epoch if it was absent) and answer with the receiver's full
    /// roster. A starting shard announces itself through one seed
    /// member with this op; the rest of the fleet learns lazily from
    /// epoch-tagged peer traffic.
    Join {
        /// The joining shard's advertised address.
        addr: String,
        /// The sender's epoch/address, for lazy anti-entropy.
        meta: PeerMeta,
    },
    /// Membership: remove a member from the roster. Without `addr` (or
    /// naming the receiver itself) this asks the *receiver* to drain:
    /// it leaves its own roster, hands its store slice off to the new
    /// owners, announces the departure, and keeps serving as a
    /// forwarding-only non-member. With a third-party `addr` it merely
    /// records that member's departure.
    Leave {
        /// The departing member (`None` = the receiver itself).
        addr: Option<String>,
        /// The sender's epoch/address, for lazy anti-entropy.
        meta: PeerMeta,
    },
    /// Membership: the receiver's roster view — epoch, members,
    /// successor, drain state. The anti-entropy refresh call, and an
    /// operator's ring inspector (`gpa request ring`).
    RingStatus,
    /// Daemon metrics snapshot.
    Status,
    /// Stop accepting work and exit cleanly.
    Shutdown,
    /// Diagnostic: occupy a worker for `ms` milliseconds (used by the
    /// backpressure tests).
    Sleep {
        /// Sleep duration in milliseconds (capped at [`MAX_SLEEP_MS`]).
        ms: u64,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing/unknown
    /// `op`, or invalid op arguments.
    pub fn parse(line: &str) -> Result<Request, String> {
        let Frame { doc, profile, body } =
            Frame::scan(line).map_err(|e| format!("malformed request: {e}"))?;
        let name = doc
            .get("op")
            .ok_or("missing `op` field")?
            .as_str()
            .map_err(|_| "`op` must be a string")?;
        let op = Op::from_name(name).ok_or_else(|| format!("unknown op `{name}`"))?;
        Ok(match op {
            Op::Analyze => {
                Request::Analyze { job: job_from(&doc)?, options: WireOptions::parse(&doc)? }
            }
            Op::AnalyzeProfile => {
                // Cheap validation (job, options) before the profile
                // document, which can be megabytes.
                let job = job_from(&doc)?;
                let options = no_repeat(WireOptions::parse(&doc)?, op)?;
                let (profile, text) = profile_from(profile)?;
                let canon = gpa_json::compact(text).map_err(|e| e.to_string())?;
                Request::AnalyzeProfile { job, profile, canon, options }
            }
            Op::ProfileBegin => Request::ProfileBegin {
                job: job_from(&doc)?,
                options: no_repeat(WireOptions::parse(&doc)?, op)?,
            },
            Op::ProfileChunk => {
                let upload_id = upload_id_from(&doc)?;
                Request::ProfileChunk { upload_id, profile: profile_from(profile)?.0 }
            }
            Op::ProfileEnd => Request::ProfileEnd { upload_id: upload_id_from(&doc)? },
            Op::ProfileAbort => Request::ProfileAbort { upload_id: upload_id_from(&doc)? },
            Op::StoreGet => Request::StoreGet { key: key_from(&doc)? },
            Op::StorePut => {
                let key = key_from(&doc)?;
                // The body is re-rendered compactly; compact JSON
                // round-trips byte-identically (gpa-json's proptests),
                // so the admitted replica equals the owner's bytes.
                let body = gpa_json::compact(body.ok_or("missing `body` field")?)
                    .map_err(|e| e.to_string())?;
                Request::StorePut { key, body, meta: PeerMeta::parse(&doc)? }
            }
            Op::Join => {
                let addr = doc
                    .get("addr")
                    .ok_or("missing `addr` field")?
                    .as_str()
                    .map_err(|_| "`addr` must be a string")?
                    .to_string();
                Request::Join { addr, meta: PeerMeta::parse(&doc)? }
            }
            Op::Leave => {
                let addr = match doc.get("addr") {
                    Some(v) => Some(v.as_str().map_err(|_| "`addr` must be a string")?.to_string()),
                    None => None,
                };
                Request::Leave { addr, meta: PeerMeta::parse(&doc)? }
            }
            Op::RingStatus => Request::RingStatus,
            Op::Status => Request::Status,
            Op::Shutdown => Request::Shutdown,
            Op::Sleep => {
                let ms = match doc.get("ms") {
                    Some(v) => v.as_u64().map_err(|_| "`ms` must be an unsigned integer")?,
                    None => 0,
                };
                Request::Sleep { ms: ms.min(MAX_SLEEP_MS) }
            }
        })
    }

    /// Which op this request is (what [`crate::Metrics`] counts it under).
    pub fn op(&self) -> Op {
        match self {
            Request::Analyze { .. } => Op::Analyze,
            Request::AnalyzeProfile { .. } => Op::AnalyzeProfile,
            Request::ProfileBegin { .. } => Op::ProfileBegin,
            Request::ProfileChunk { .. } => Op::ProfileChunk,
            Request::ProfileEnd { .. } => Op::ProfileEnd,
            Request::ProfileAbort { .. } => Op::ProfileAbort,
            Request::StoreGet { .. } => Op::StoreGet,
            Request::StorePut { .. } => Op::StorePut,
            Request::Join { .. } => Op::Join,
            Request::Leave { .. } => Op::Leave,
            Request::RingStatus => Op::RingStatus,
            Request::Status => Op::Status,
            Request::Shutdown => Op::Shutdown,
            Request::Sleep { .. } => Op::Sleep,
        }
    }

    /// Whether a peer shard already routed this request here (the
    /// receiver must answer locally). Ops without a forwarding path
    /// count as forwarded — they are always handled where they arrive.
    pub fn is_forwarded(&self) -> bool {
        match self {
            Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } => {
                options.forwarded
            }
            _ => true,
        }
    }

    /// A copy of this request marked [forwarded](Request::is_forwarded)
    /// — what a shard puts on the wire when relaying to the owner.
    /// Identity for ops that cannot be forwarded.
    pub fn to_forwarded(&self) -> Request {
        let mut request = self.clone();
        match &mut request {
            Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } => {
                options.forwarded = true;
            }
            _ => {}
        }
        request
    }

    /// The content-address of a cacheable request: a canonical string
    /// covering everything that determines the response body — including
    /// the negotiated schema and advice options, so a v1 and a v2 client
    /// asking for the same job occupy distinct store entries. `None`
    /// for ops whose responses must not be cached.
    pub fn cache_key(&self) -> Option<String> {
        match self {
            Request::Analyze { job, options } => {
                Some(format!("analyze\0{}\0{}\0{}", job.app, job.variant, options.cache_segment()))
            }
            Request::AnalyzeProfile { job, canon, options, .. } => Some(format!(
                "analyze_profile\0{}\0{}\0{}\0{canon}",
                job.app,
                job.variant,
                options.cache_segment()
            )),
            // Upload ops are connection-stateful; only the *merged*
            // profile is addressable, and `profile_end` reaches the
            // store through the synthesized `analyze_profile` request.
            Request::ProfileBegin { .. }
            | Request::ProfileChunk { .. }
            | Request::ProfileEnd { .. }
            | Request::ProfileAbort { .. } => None,
            // Peer store ops carry a content address as *payload*; they
            // are themselves reads/writes of the store, not cacheable
            // analyses.
            Request::StoreGet { .. } | Request::StorePut { .. } => None,
            // Membership ops mutate/inspect live cluster state.
            Request::Join { .. } | Request::Leave { .. } | Request::RingStatus => None,
            Request::Status | Request::Shutdown | Request::Sleep { .. } => None,
        }
    }

    /// Renders the request as its wire frame (without the trailing
    /// newline). Used by clients; servers only parse. Default options
    /// add no fields, so a default frame is byte-identical to a pre-v2
    /// client's.
    pub fn to_wire(&self) -> String {
        match self {
            Request::Analyze { job, options } | Request::ProfileBegin { job, options } => options
                .extend_wire(
                    Json::object()
                        .with("op", self.op().name())
                        .with("app", job.app.clone())
                        .with("variant", job.variant),
                )
                .compact(),
            Request::AnalyzeProfile { job, canon, options, .. } => {
                analyze_profile_frame(&job.app, job.variant, canon, options)
            }
            Request::ProfileChunk { upload_id, profile } => {
                profile_chunk_frame(*upload_id, &profile.to_doc().compact())
            }
            Request::ProfileEnd { upload_id } => {
                format!("{{\"op\":\"profile_end\",\"upload_id\":{upload_id}}}")
            }
            Request::ProfileAbort { upload_id } => {
                format!("{{\"op\":\"profile_abort\",\"upload_id\":{upload_id}}}")
            }
            Request::StoreGet { key } => {
                format!("{{\"op\":\"store_get\",\"key\":{}}}", Json::from(key.as_str()).compact())
            }
            Request::StorePut { key, body, meta } => {
                let extra = meta.extend_wire(Json::object()).compact();
                let extra = extra.trim_start_matches('{').trim_end_matches('}');
                let extra = if extra.is_empty() { String::new() } else { format!(",{extra}") };
                format!(
                    "{{\"op\":\"store_put\",\"key\":{},\"body\":{body}{extra}}}",
                    Json::from(key.as_str()).compact()
                )
            }
            Request::Join { addr, meta } => meta
                .extend_wire(Json::object().with("op", "join").with("addr", addr.clone()))
                .compact(),
            Request::Leave { addr, meta } => {
                let mut doc = Json::object().with("op", "leave");
                if let Some(addr) = addr {
                    doc = doc.with("addr", addr.clone());
                }
                meta.extend_wire(doc).compact()
            }
            Request::RingStatus => "{\"op\":\"ring_status\"}".to_string(),
            Request::Status => "{\"op\":\"status\"}".to_string(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
            Request::Sleep { ms } => format!("{{\"op\":\"sleep\",\"ms\":{ms}}}"),
        }
    }
}

/// The `analyze_profile` request frame for a canonically (compact)
/// rendered profile document — the one place its wire layout lives.
/// Option fields (schema, top, ...) precede the profile payload.
pub fn analyze_profile_frame(
    app: &str,
    variant: usize,
    profile_canon: &str,
    options: &WireOptions,
) -> String {
    let opts = options
        .extend_wire(Json::object())
        .compact()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .to_string();
    let opts = if opts.is_empty() { opts } else { format!("{opts},") };
    format!(
        "{{\"op\":\"analyze_profile\",\"app\":{},\"variant\":{variant},{opts}\"profile\":{profile_canon}}}",
        Json::from(app).compact()
    )
}

/// The `profile_chunk` request frame for a canonically (compact)
/// rendered chunk document.
pub fn profile_chunk_frame(upload_id: u64, profile_canon: &str) -> String {
    format!("{{\"op\":\"profile_chunk\",\"upload_id\":{upload_id},\"profile\":{profile_canon}}}")
}

/// Rejects a `repeat` option on ops that advise on an already-gathered
/// profile: repeat profiling happens during `analyze`'s simulation, so
/// here it could only be silently ignored — and since every option is
/// part of the content address, accepting it would also split
/// byte-identical bodies across store entries (breaking the documented
/// chunked/whole cache sharing).
fn no_repeat(options: WireOptions, op: Op) -> Result<WireOptions, String> {
    if options.repeat != 1 {
        let op = op.name();
        return Err(format!("`repeat` is not supported by `{op}` (use it on `analyze`)"));
    }
    Ok(options)
}

/// A frame's decoded profile document and its text (for canonicalising).
fn profile_from(
    profile: Option<(gpa_json::Result<KernelProfile>, &str)>,
) -> Result<(Box<KernelProfile>, &str), String> {
    let (decoded, text) = profile.ok_or("missing `profile` field")?;
    Ok((Box::new(decoded.map_err(|e| format!("bad `profile`: {e}"))?), text))
}

fn key_from(doc: &Json) -> Result<String, String> {
    Ok(doc
        .get("key")
        .ok_or("missing `key` field")?
        .as_str()
        .map_err(|_| "`key` must be a string")?
        .to_string())
}

fn upload_id_from(doc: &Json) -> Result<u64, String> {
    doc.get("upload_id")
        .ok_or("missing `upload_id` field")?
        .as_u64()
        .map_err(|_| "`upload_id` must be an unsigned integer".to_string())
}

fn job_from(doc: &Json) -> Result<AnalysisJob, String> {
    let app = doc
        .get("app")
        .ok_or("missing `app` field")?
        .as_str()
        .map_err(|_| "`app` must be a string")?;
    let variant = match doc.get("variant") {
        Some(v) => {
            usize::try_from(v.as_u64().map_err(|_| "`variant` must be an unsigned integer")?)
                .map_err(|_| "`variant` out of range")?
        }
        None => 0,
    };
    Ok(AnalysisJob::new(app, variant))
}

/// Wraps a stored/computed body into a success frame. `body` must be
/// compact JSON; it is spliced verbatim so cached responses stay
/// byte-identical to freshly computed ones.
pub fn ok_frame(cached: bool, body: &str) -> String {
    format!("{{\"ok\":true,\"cached\":{cached},\"result\":{body}}}")
}

/// An error frame.
pub fn error_frame(message: &str) -> String {
    Json::object().with("ok", false).with("error", message).compact()
}

/// The error frame a shard answers a forwarded request with when the
/// sender's roster epoch is behind its own. It embeds the receiver's
/// roster, so the one rejection doubles as the refresh — the sender
/// adopts it and re-routes instead of serving a wrong-owner answer.
pub fn stale_epoch_frame(epoch: u64, members: &[String]) -> String {
    Json::object()
        .with("ok", false)
        .with("error", format!("stale ring epoch: cluster is at {epoch}"))
        .with("stale_epoch", true)
        .with("ring", Json::object().with("epoch", epoch).with("members", members_json(members)))
        .compact()
}

/// A roster's member list as every emitter puts it on the wire.
pub(crate) fn members_json(members: &[String]) -> Json {
    Json::Arr(members.iter().map(|m| Json::from(m.as_str())).collect())
}

/// Reads a roster snapshot — `epoch` plus `members` — out of the JSON
/// object carrying it: the `result` of a `join`/`ring_status` reply or
/// the `ring` of a [`stale_epoch_frame`]. Emitters keep their own field
/// order; this is the one reader.
pub fn parse_roster(doc: &Json) -> Option<(u64, Vec<String>)> {
    let epoch = doc.get("epoch")?.as_u64().ok()?;
    let members = doc
        .get("members")?
        .as_array()
        .ok()?
        .iter()
        .filter_map(|m| m.as_str().ok().map(str::to_string))
        .collect();
    Some((epoch, members))
}

/// Recognizes a [`stale_epoch_frame`] response and extracts the
/// embedded roster. `None` for every other frame (including ordinary
/// errors).
pub fn parse_stale_epoch(frame: &str) -> Option<(u64, Vec<String>)> {
    let doc = Json::parse(frame).ok()?;
    if !doc.get("stale_epoch")?.as_bool().ok()? {
        return None;
    }
    parse_roster(doc.get("ring")?)
}

/// An error frame for a failed analysis, carrying the job identity like
/// [`AnalysisError::to_json`] does.
pub fn job_error_frame(err: &AnalysisError) -> String {
    Json::object()
        .with("ok", false)
        .with("app", err.job.app.clone())
        .with("variant", err.job.variant)
        .with("error", err.message.clone())
        .compact()
}

/// The deterministic `analyze` result body in the negotiated schema.
/// Deliberately excludes wall-clock time so the body is byte-identical
/// run to run (and hence cacheable by content address).
pub fn analyze_body(outcome: &AnalysisOutcome, schema: u32) -> Json {
    result_body(&outcome.job, &outcome.kernel, &outcome.profile, &outcome.report, schema)
}

/// The `analyze_profile` result body (same shape as [`analyze_body`]).
pub fn profile_body(
    job: &AnalysisJob,
    profile: &KernelProfile,
    report: &AdviceReport,
    schema: u32,
) -> Json {
    result_body(job, &profile.kernel, profile, report, schema)
}

fn result_body(
    job: &AnalysisJob,
    kernel: &str,
    profile: &KernelProfile,
    advice: &AdviceReport,
    schema: u32,
) -> Json {
    let envelope = outcome_envelope(job, kernel, profile.cycles, profile);
    let body = match schema {
        // v2: the versioned machine-readable report document.
        2 => envelope.with("schema", 2u64).with("report", schema::report_to_json(advice)),
        // v1: the flat advice summary every unversioned frame gets.
        _ => envelope.with("advice", advice_v1(advice)),
    };
    body.with("text", report::render(advice, REPORT_TOP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `Metrics::ops` is indexed by discriminant and `status.ops` is
    /// emitted in `ALL` order: row `i` must be the variant with
    /// discriminant `i`, and the order is the one `status` has always
    /// reported.
    #[test]
    fn the_op_table_is_indexed_by_discriminant_and_names_round_trip() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("explode"), None);
        assert_eq!(
            Op::ALL.map(Op::name).join(" "),
            "analyze analyze_profile profile_begin profile_chunk profile_end profile_abort \
             status shutdown sleep store_get store_put join leave ring_status"
        );
    }

    #[test]
    fn parses_the_documented_ops() {
        let r = Request::parse(r#"{"op":"analyze","app":"rodinia/nw","variant":1}"#).unwrap();
        match r {
            Request::Analyze { job, options } => {
                assert_eq!(job, AnalysisJob::new("rodinia/nw", 1));
                assert_eq!(options, WireOptions::default(), "absent options mean v1 defaults");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(Request::parse(r#"{"op":"status"}"#), Ok(Request::Status)));
        assert!(matches!(Request::parse(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown)));
        assert!(matches!(
            Request::parse(r#"{"op":"sleep","ms":99999}"#),
            Ok(Request::Sleep { ms: MAX_SLEEP_MS })
        ));
    }

    #[test]
    fn variant_defaults_to_baseline() {
        let r = Request::parse(r#"{"op":"analyze","app":"rodinia/nw"}"#).unwrap();
        match r {
            Request::Analyze { job, .. } => assert_eq!(job.variant, 0),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn negotiates_schema_and_options() {
        let line = r#"{"op":"analyze","app":"a","schema":2,"top":3,"categories":"parallel",
                       "optimizers":["block-increase","GPUThreadIncreaseOptimizer"],
                       "min_speedup":1.05,"hotspots":2,"evidence":false}"#
            .replace('\n', " ");
        let r = Request::parse(&line).unwrap();
        let Request::Analyze { options, .. } = r else { panic!("wrong parse") };
        assert_eq!(options.schema, 2);
        assert_eq!(options.request.top, Some(3));
        assert_eq!(options.request.categories, vec![gpa_core::OptimizerCategory::Parallel]);
        assert_eq!(
            options.request.optimizers,
            vec![gpa_core::OptimizerId::BlockIncrease, gpa_core::OptimizerId::ThreadIncrease]
        );
        assert_eq!(options.request.min_speedup, 1.05);
        assert_eq!(options.request.hotspots, 2);
        assert!(!options.request.evidence);
        // "v2" spelled as a string works too (what the CLI forwards).
        let r = Request::parse(r#"{"op":"analyze","app":"a","schema":"v2"}"#).unwrap();
        let Request::Analyze { options, .. } = r else { panic!("wrong parse") };
        assert_eq!(options.schema, 2);
    }

    #[test]
    fn rejects_bad_options_with_context() {
        for (line, needle) in [
            (r#"{"op":"analyze","app":"a","schema":3}"#, "unsupported schema"),
            (r#"{"op":"analyze","app":"a","schema":"v9"}"#, "unknown schema"),
            (r#"{"op":"analyze","app":"a","top":"all"}"#, "`top` must be"),
            (r#"{"op":"analyze","app":"a","categories":"warp-drive"}"#, "unknown category"),
            (r#"{"op":"analyze","app":"a","optimizers":["nope"]}"#, "unknown optimizer"),
            (r#"{"op":"analyze","app":"a","evidence":"yes"}"#, "`evidence` must be"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_a_non_finite_min_speedup_where_it_enters() {
        // `1e999` is valid JSON that parses to infinity and re-renders as
        // `null`: accepted here, the frame a non-owner forwards would be
        // refused by the owner, and the answer would depend on the shard.
        for op in ["analyze", "profile_begin"] {
            for literal in ["1e999", "-1e999"] {
                let line = format!(r#"{{"op":"{op}","app":"a","min_speedup":{literal}}}"#);
                assert_eq!(Request::parse(&line).unwrap_err(), "`min_speedup` must be finite");
            }
        }
        let largest = r#"{"op":"analyze","app":"a","min_speedup":1.7976931348623157e308}"#;
        assert!(Request::parse(largest).is_ok(), "every finite double is a threshold");
    }

    proptest! {
        /// A shard forwards `to_wire()` of what it parsed, so that frame
        /// must parse — on any shard — to the same options and the same
        /// content address, however the client spelled the line.
        #[test]
        fn parsed_requests_survive_their_own_wire_rendering(
            fields in 0u32..1 << 10,
            upload in 0u32..2,
            small in 0usize..1000,
            large in 0u64..u64::MAX,
            categories in 0usize..1 << 3,
            optimizers in 0usize..1 << 13,
            mantissa in -9.0f64..9.0,
            exponent in -330i32..330,
        ) {
            let on = |bit: u32| fields & (1 << bit) != 0;
            let picked = |mask: usize, slugs: Vec<&str>| {
                let picked = slugs.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0);
                Json::Arr(picked.map(|(_, s)| Json::from(*s)).collect()).compact()
            };
            let op = if upload == 1 { "profile_begin" } else { "analyze" };
            let mut line = format!(r#"{{"op":"{op}","app":"a/b","variant":{small}"#);
            let mut field = |on: bool, text: String| line.push_str(if on { &text } else { "" });
            field(on(0), format!(r#","schema":{}"#, ["1", "2", "\"v1\"", "\"v2\""][small % 4]));
            field(on(1) && upload == 0, format!(r#","repeat":{}"#, 1 + small % 64));
            field(on(2), format!(r#","mem":"{}""#, ["flat", "hierarchy"][small % 2]));
            field(on(3), format!(r#","top":{large}"#));
            let slugs = OptimizerCategory::ALL.iter().map(|c| c.slug()).collect();
            field(on(4), format!(r#","categories":{}"#, picked(categories, slugs)));
            let slugs = OptimizerId::ALL.iter().map(|o| o.slug()).collect();
            field(on(5), format!(r#","optimizers":{}"#, picked(optimizers, slugs)));
            field(on(6), format!(r#","min_speedup":{mantissa}e{exponent}"#));
            field(on(7), format!(r#","hotspots":{small}"#));
            field(on(8), format!(r#","evidence":{}"#, small % 3 == 0));
            field(on(9), format!(r#","fwd":true,"epoch":{large},"from":"s:{small}""#));
            line.push('}');

            let options = |r: &Request| match r {
                Request::Analyze { options, .. } | Request::ProfileBegin { options, .. } => {
                    options.clone()
                }
                other => panic!("{line}: parsed as {other:?}"),
            };
            let threshold: f64 = format!("{mantissa}e{exponent}").parse().unwrap();
            match Request::parse(&line) {
                Ok(parsed) => {
                    let wire = parsed.to_wire();
                    let again = Request::parse(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"));
                    prop_assert_eq!(options(&again), options(&parsed), "{}", wire);
                    prop_assert_eq!(again.cache_key(), parsed.cache_key(), "{}", wire);
                }
                Err(e) => prop_assert!(on(6) && threshold.is_infinite(), "{line}: {e}"),
            }
        }
    }

    #[test]
    fn default_wire_frames_carry_no_option_fields() {
        let r = Request::Analyze {
            job: AnalysisJob::new("rodinia/nw", 1),
            options: WireOptions::default(),
        };
        assert_eq!(r.to_wire(), r#"{"op":"analyze","app":"rodinia/nw","variant":1}"#);
        let r =
            Request::Analyze { job: AnalysisJob::new("rodinia/nw", 1), options: WireOptions::v2() };
        assert_eq!(r.to_wire(), r#"{"op":"analyze","app":"rodinia/nw","variant":1,"schema":2}"#);
        let frame = analyze_profile_frame("a", 0, "{}", &WireOptions::default());
        assert_eq!(frame, r#"{"op":"analyze_profile","app":"a","variant":0,"profile":{}}"#);
        let frame = analyze_profile_frame("a", 0, "{}", &WireOptions::v2());
        assert_eq!(
            frame,
            r#"{"op":"analyze_profile","app":"a","variant":0,"schema":2,"profile":{}}"#
        );
        // Frames with options parse back to the same options.
        let r = Request::parse(&frame).unwrap_err();
        assert!(r.contains("bad `profile`"), "empty profile rejected downstream: {r}");
    }

    #[test]
    fn parses_repeat_and_renders_it_on_the_wire() {
        let r = Request::parse(r#"{"op":"analyze","app":"a","repeat":4}"#).unwrap();
        let Request::Analyze { options, .. } = r else { panic!("wrong parse") };
        assert_eq!(options.repeat, 4);
        let opts = WireOptions { repeat: 4, ..WireOptions::default() };
        let r = Request::Analyze { job: AnalysisJob::new("a", 0), options: opts };
        assert_eq!(r.to_wire(), r#"{"op":"analyze","app":"a","variant":0,"repeat":4}"#);
        for (line, needle) in [
            (r#"{"op":"analyze","app":"a","repeat":0}"#, "`repeat` must be at least 1"),
            (r#"{"op":"analyze","app":"a","repeat":"thrice"}"#, "`repeat` must be"),
            (r#"{"op":"analyze","app":"a","repeat":65}"#, "exceeds the limit of 64"),
            (r#"{"op":"analyze","app":"a","repeat":4294967295}"#, "exceeds the limit"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parses_the_memory_model_and_renders_it_on_the_wire() {
        let r = Request::parse(r#"{"op":"analyze","app":"a","mem":"hierarchy"}"#).unwrap();
        let Request::Analyze { options, .. } = r else { panic!("wrong parse") };
        assert!(options.hierarchy);
        let wire = Request::Analyze { job: AnalysisJob::new("a", 0), options: options.clone() };
        assert_eq!(wire.to_wire(), r#"{"op":"analyze","app":"a","variant":0,"mem":"hierarchy"}"#);
        // `"mem": "flat"` is accepted and normalizes to the default —
        // so it vanishes from re-rendered frames and content addresses.
        let r = Request::parse(r#"{"op":"analyze","app":"a","mem":"flat"}"#).unwrap();
        let Request::Analyze { options: flat, .. } = r else { panic!("wrong parse") };
        assert!(!flat.hierarchy);
        let plain = Request::Analyze { job: AnalysisJob::new("a", 0), options: flat };
        assert_eq!(plain.to_wire(), r#"{"op":"analyze","app":"a","variant":0}"#);
        assert_ne!(plain.cache_key(), wire.cache_key(), "memory model shapes the body");
        assert!(!plain.cache_key().unwrap().contains("|M"), "flat addresses carry no model marker");
        for (line, needle) in [
            (r#"{"op":"analyze","app":"a","mem":"l3"}"#, "unknown memory model `l3`"),
            (r#"{"op":"analyze","app":"a","mem":7}"#, "`mem` must be a string"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parses_the_chunked_upload_ops() {
        let r =
            Request::parse(r#"{"op":"profile_begin","app":"a","variant":1,"schema":2}"#).unwrap();
        let Request::ProfileBegin { job, options } = r else { panic!("wrong parse") };
        assert_eq!(job, AnalysisJob::new("a", 1));
        assert_eq!(options.schema, 2);
        assert!(matches!(
            Request::parse(r#"{"op":"profile_end","upload_id":7}"#),
            Ok(Request::ProfileEnd { upload_id: 7 })
        ));
        for (line, needle) in [
            (r#"{"op":"profile_begin"}"#, "missing `app`"),
            (r#"{"op":"profile_chunk","profile":{}}"#, "missing `upload_id`"),
            (r#"{"op":"profile_chunk","upload_id":"x","profile":{}}"#, "`upload_id` must be"),
            (r#"{"op":"profile_chunk","upload_id":0}"#, "missing `profile`"),
            (r#"{"op":"profile_chunk","upload_id":0,"profile":{}}"#, "bad `profile`"),
            (r#"{"op":"profile_end"}"#, "missing `upload_id`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // Upload ops are never cached directly; the merged result joins
        // the store through the synthesized analyze_profile.
        let begin = Request::parse(r#"{"op":"profile_begin","app":"a"}"#).unwrap();
        assert!(begin.cache_key().is_none());
        assert!(Request::ProfileEnd { upload_id: 0 }.cache_key().is_none());
        assert_eq!(begin.op(), Op::ProfileBegin);
        assert_eq!(
            profile_chunk_frame(3, "{}"),
            r#"{"op":"profile_chunk","upload_id":3,"profile":{}}"#
        );
    }

    #[test]
    fn parses_the_peer_store_ops() {
        // Content addresses contain NUL separators; they must survive
        // the wire as escaped JSON strings.
        let key = "analyze\0rodinia/nw\x000\0s1|r1|t-|c|o|m1.001|h5|e1";
        let get = Request::StoreGet { key: key.to_string() };
        let parsed = Request::parse(&get.to_wire()).unwrap();
        let Request::StoreGet { key: parsed_key } = parsed else { panic!("wrong parse") };
        assert_eq!(parsed_key, key);
        let put = Request::StorePut {
            key: key.to_string(),
            body: "{\"v\":1}".to_string(),
            meta: PeerMeta::default(),
        };
        let parsed = Request::parse(&put.to_wire()).unwrap();
        let Request::StorePut { key: k2, body, meta } = parsed else { panic!("wrong parse") };
        assert_eq!((k2.as_str(), body.as_str()), (key, "{\"v\":1}"));
        assert_eq!(meta, PeerMeta::default(), "no meta on the wire, none parsed");
        assert!(put.cache_key().is_none(), "store ops are not themselves cacheable");
        assert_eq!(put.op(), Op::StorePut);
        for (line, needle) in [
            (r#"{"op":"store_get"}"#, "missing `key`"),
            (r#"{"op":"store_get","key":7}"#, "`key` must be a string"),
            (r#"{"op":"store_put","key":"k"}"#, "missing `body`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parses_the_membership_ops() {
        let meta = PeerMeta { epoch: Some(3), from: Some("127.0.0.1:7070".to_string()) };
        let join = Request::Join { addr: "127.0.0.1:7074".to_string(), meta: meta.clone() };
        assert_eq!(
            join.to_wire(),
            r#"{"op":"join","addr":"127.0.0.1:7074","epoch":3,"from":"127.0.0.1:7070"}"#
        );
        let parsed = Request::parse(&join.to_wire()).unwrap();
        let Request::Join { addr, meta: parsed_meta } = parsed else { panic!("wrong parse") };
        assert_eq!(addr, "127.0.0.1:7074");
        assert_eq!(parsed_meta, meta);

        // `leave` without an address asks the receiver to drain itself.
        let drain = Request::parse(r#"{"op":"leave"}"#).unwrap();
        assert!(matches!(drain, Request::Leave { addr: None, .. }));
        let third_party =
            Request::Leave { addr: Some("127.0.0.1:7074".to_string()), meta: meta.clone() };
        let parsed = Request::parse(&third_party.to_wire()).unwrap();
        let Request::Leave { addr: Some(addr), .. } = parsed else { panic!("wrong parse") };
        assert_eq!(addr, "127.0.0.1:7074");

        assert!(matches!(Request::parse(r#"{"op":"ring_status"}"#), Ok(Request::RingStatus)));
        assert_eq!(Request::RingStatus.to_wire(), r#"{"op":"ring_status"}"#);

        // Membership ops are handled where they arrive and never cached.
        for op in [
            Request::Join { addr: "a:1".to_string(), meta: PeerMeta::default() },
            Request::Leave { addr: None, meta: PeerMeta::default() },
            Request::RingStatus,
        ] {
            assert!(op.is_forwarded());
            assert!(op.cache_key().is_none());
        }
        for (line, needle) in [
            (r#"{"op":"join"}"#, "missing `addr`"),
            (r#"{"op":"join","addr":7}"#, "`addr` must be a string"),
            (r#"{"op":"join","addr":"a:1","epoch":"x"}"#, "`epoch` must be"),
            (r#"{"op":"leave","addr":7}"#, "`addr` must be a string"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn store_put_carries_the_senders_epoch_for_anti_entropy() {
        let put = Request::StorePut {
            key: "k".to_string(),
            body: "{}".to_string(),
            meta: PeerMeta { epoch: Some(9), from: Some("a:1".to_string()) },
        };
        assert_eq!(
            put.to_wire(),
            r#"{"op":"store_put","key":"k","body":{},"epoch":9,"from":"a:1"}"#
        );
        let Request::StorePut { meta, .. } = Request::parse(&put.to_wire()).unwrap() else {
            panic!("wrong parse")
        };
        assert_eq!(meta.epoch, Some(9));
        assert_eq!(meta.from.as_deref(), Some("a:1"));
    }

    #[test]
    fn stale_epoch_frames_round_trip_and_ordinary_errors_do_not_match() {
        let members = vec!["a:1".to_string(), "b:2".to_string()];
        let frame = stale_epoch_frame(7, &members);
        assert!(!frame.contains('\n'));
        let doc = Json::parse(&frame).unwrap();
        assert!(!doc.field("ok").unwrap().as_bool().unwrap(), "stale epoch is an error frame");
        let (epoch, parsed) = parse_stale_epoch(&frame).expect("recognized");
        assert_eq!(epoch, 7);
        assert_eq!(parsed, members);
        assert!(parse_stale_epoch(&error_frame("boom")).is_none());
        assert!(parse_stale_epoch(&ok_frame(false, "{}")).is_none());
        assert!(parse_stale_epoch("not json").is_none());
    }

    #[test]
    fn forwarded_frames_carry_the_senders_epoch_after_the_marker() {
        let mut options = WireOptions::v2();
        options.forwarded = true;
        options.meta = PeerMeta { epoch: Some(4), from: Some("s:1".to_string()) };
        let r = Request::Analyze { job: AnalysisJob::new("a", 0), options };
        assert_eq!(
            r.to_wire(),
            r#"{"op":"analyze","app":"a","variant":0,"schema":2,"fwd":true,"epoch":4,"from":"s:1"}"#
        );
        let parsed = Request::parse(&r.to_wire()).unwrap();
        let Request::Analyze { options, .. } = &parsed else { panic!("wrong parse") };
        assert_eq!(options.meta.epoch, Some(4));
        // The epoch/sender tags never split the content address: the
        // same request routed at different epochs is one store entry.
        let plain = Request::parse(r#"{"op":"analyze","app":"a","schema":2}"#).unwrap();
        assert_eq!(plain.cache_key(), parsed.cache_key());
    }

    #[test]
    fn forwarding_marker_round_trips_and_stays_out_of_the_address() {
        let plain = Request::parse(r#"{"op":"analyze","app":"a","schema":2}"#).unwrap();
        assert!(!plain.is_forwarded());
        let relayed = plain.to_forwarded();
        assert!(relayed.is_forwarded());
        assert_eq!(
            relayed.to_wire(),
            r#"{"op":"analyze","app":"a","variant":0,"schema":2,"fwd":true}"#
        );
        let parsed = Request::parse(&relayed.to_wire()).unwrap();
        assert!(parsed.is_forwarded(), "the marker survives the wire");
        // Forwarded and direct requests must land on ONE store entry —
        // the relay property depends on it.
        assert_eq!(plain.cache_key(), parsed.cache_key());
        // Ops with no forwarding path are always handled where they
        // arrive.
        assert!(Request::Status.is_forwarded());
        assert!(matches!(Request::Status.to_forwarded(), Request::Status));
    }

    #[test]
    fn repeat_is_part_of_the_content_address() {
        let plain = Request::parse(r#"{"op":"analyze","app":"a"}"#).unwrap();
        let repeated = Request::parse(r#"{"op":"analyze","app":"a","repeat":3}"#).unwrap();
        assert_ne!(plain.cache_key(), repeated.cache_key());
    }

    #[test]
    fn repeat_is_rejected_on_profile_submission_ops() {
        // Repeat profiling happens during `analyze`'s simulation; on the
        // submission ops it would be silently ignored *and* fragment the
        // content-addressed store, so the parser refuses it outright.
        for (line, op) in [
            (r#"{"op":"analyze_profile","app":"a","repeat":2,"profile":{}}"#, "analyze_profile"),
            (r#"{"op":"profile_begin","app":"a","repeat":2}"#, "profile_begin"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(&format!("`repeat` is not supported by `{op}`")), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_context() {
        for (line, needle) in [
            ("not json", "malformed request"),
            ("{}", "missing `op`"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"analyze"}"#, "missing `app`"),
            (r#"{"op":"analyze","app":7}"#, "`app` must be a string"),
            (r#"{"op":"analyze_profile","app":"x"}"#, "missing `profile`"),
            (r#"{"op":"analyze_profile","app":"x","profile":{}}"#, "bad `profile`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn cache_keys_separate_ops_variants_and_options() {
        let a = Request::parse(r#"{"op":"analyze","app":"a","variant":0}"#).unwrap();
        let b = Request::parse(r#"{"op":"analyze","app":"a","variant":1}"#).unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        let v2 = Request::parse(r#"{"op":"analyze","app":"a","variant":0,"schema":2}"#).unwrap();
        assert_ne!(a.cache_key(), v2.cache_key(), "negotiated schema is part of the address");
        let top = Request::parse(r#"{"op":"analyze","app":"a","variant":0,"top":1}"#).unwrap();
        assert_ne!(a.cache_key(), top.cache_key(), "options are part of the address");
        assert!(Request::Status.cache_key().is_none());
        assert!(Request::Sleep { ms: 1 }.cache_key().is_none());

        // Membership filters are order-insensitive, so permuted or
        // duplicated filter lists share one content address.
        let x = Request::parse(
            r#"{"op":"analyze","app":"a","categories":["parallel","latency-hiding"]}"#,
        )
        .unwrap();
        let y = Request::parse(
            r#"{"op":"analyze","app":"a","categories":["latency-hiding","parallel","parallel"]}"#,
        )
        .unwrap();
        assert_eq!(x.cache_key(), y.cache_key(), "equivalent filters, one store entry");
    }

    #[test]
    fn frames_are_single_line_json() {
        let ok = ok_frame(true, "{\"x\":1}");
        let doc = Json::parse(&ok).unwrap();
        assert!(doc.field("ok").unwrap().as_bool().unwrap());
        assert!(doc.field("cached").unwrap().as_bool().unwrap());
        assert_eq!(doc.field("result").unwrap().field("x").unwrap().as_u64().unwrap(), 1);
        let err = error_frame("bad\nthing");
        assert!(!err.contains('\n'), "frames must be newline-free");
        assert!(Json::parse(&err).is_ok());
    }
}
