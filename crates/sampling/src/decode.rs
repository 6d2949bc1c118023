//! The strict profile decoder: JSON text straight into a
//! [`KernelProfile`], no document tree.
//!
//! Uploaded profiles are the daemon's largest frames, and a tree of
//! twenty-seven numbers per PC costs several times what the profile itself
//! does. The decoder instead pulls the `pcs` table off a
//! [`gpa_json::Reader`] row by row, in the one pass that reads the
//! document (only the two dozen header scalars go through a small tree).
//! Two kinds of failure stay apart: a **syntax** error ends the
//! pass at once (the outer `Result`, exactly the error and byte offset
//! [`Json::parse`] gives), while a **schema** error is kept and the pass
//! goes on consuming the value, because text after it may still be
//! malformed and that has to win. What was kept is then judged in one
//! fixed order — `launch`, `occupancy`, the `pcs` table row by row, the
//! scalar fields as declared, unknown / repeated keys, then the kernel
//! totals — so a document's first defect earns one deterministic error
//! string. A value of the wrong type is handed to the tree accessors
//! once, only to word the error they would give.

use crate::profile::{limiter_from_str, KernelProfile, PcStats, N_REASONS};
use gpa_arch::{LaunchConfig, Occupancy};
use gpa_json::{Json, JsonError, Reader, Result};
use gpa_sim::StallReason;
use std::collections::BTreeMap;

pub(crate) const PROFILE_FIELDS: &[&str] = &[
    "kernel",
    "module_name",
    "arch",
    "period",
    "launch",
    "occupancy",
    "cycles",
    "issued",
    "pcs",
    "total_samples",
    "active_samples",
    "latency_samples",
    "mem_transactions",
    "l2_hits",
    "l2_misses",
    "icache_misses",
];
pub(crate) const LAUNCH_FIELDS: &[&str] =
    &["grid_blocks", "block_threads", "regs_per_thread", "smem_per_block"];
pub(crate) const OCCUPANCY_FIELDS: &[&str] =
    &["blocks_per_sm", "warps_per_sm", "warps_per_scheduler", "limiter", "ratio"];
pub(crate) const PC_FIELDS: &[&str] = &["total", "by_reason", "latency_by_reason"];

/// Rejects the first member of the object `doc` that is outside `known`
/// or repeats one, so schema typos, foreign data and ambiguous documents
/// are surfaced instead of silently dropped.
pub(crate) fn check_keys(doc: &Json, known: &[&str], what: &str) -> Result<()> {
    let entries = doc.entries()?;
    for (i, (key, _)) in entries.iter().enumerate() {
        let known_key = known.contains(&key.as_str());
        if !known_key || entries[..i].iter().any(|(k, _)| k == key) {
            return Err(key_error(key, known_key, known, what));
        }
    }
    Ok(())
}

/// The error for an unknown (or, when `known_key`, repeated) member.
fn key_error(key: &str, known_key: bool, known: &[&str], what: &str) -> JsonError {
    JsonError::from_msg(if known_key {
        format!("duplicate field `{key}` in {what}")
    } else {
        format!("unknown field `{key}` in {what} (expected one of: {})", known.join(", "))
    })
}

/// A schema verdict inside a syntax verdict (see the module docs).
type Kept<T> = Result<Result<T>>;

fn missing(key: &str) -> JsonError {
    JsonError::from_msg(format!("missing field `{key}`"))
}

/// Skips the next value and words the error the tree accessor `get`
/// gives it (a value of the wrong type).
fn mistyped<T, U>(reader: &mut Reader, get: impl Fn(&Json) -> Result<U>) -> Kept<T> {
    let wrong = Json::parse(reader.skip()?)?;
    Ok(Err(get(&wrong).err().unwrap_or_else(|| JsonError::from_msg("unexpected value"))))
}

/// The next value as an unsigned integer: plain digits directly, anything
/// else through the tree accessor (which accepts it or words the error).
fn unsigned(reader: &mut Reader) -> Kept<u64> {
    match reader.unsigned() {
        Some(v) => Ok(Ok(v)),
        None => Ok(Json::parse(reader.skip()?)?.as_u64()),
    }
}

/// A row of stall-reason counters: as `compact` writes it, in one step;
/// any other spelling through the token walk below, which alone words
/// the errors.
fn reason_array(reader: &mut Reader) -> Kept<[u64; N_REASONS]> {
    if let Some(row) = reader.counters() {
        return Ok(Ok(row));
    }
    if !reader.open(b'[')? {
        return mistyped(reader, |v| v.as_array().map(drop));
    }
    let (mut out, mut len, mut bad) = ([0u64; N_REASONS], 0, None);
    while reader.element()? {
        match (unsigned(reader)?, out.get_mut(len)) {
            (Ok(v), Some(slot)) => *slot = v,
            (Err(e), Some(_)) if bad.is_none() => bad = Some(e),
            _ => {}
        }
        len += 1;
    }
    Ok(match bad {
        _ if len != N_REASONS => Err(reason_count_error(len)),
        Some(e) => Err(e),
        None => Ok(out),
    })
}

pub(crate) fn reason_count_error(len: usize) -> JsonError {
    JsonError::from_msg(format!("expected {N_REASONS} stall-reason counters, got {len}"))
}

/// A `pcs` key: the PC's canonical decimal rendering, not seen before.
pub(crate) fn pc_of_key(key: &str, pcs: &BTreeMap<u64, PcStats>) -> Result<u64> {
    let canonical =
        key.bytes().all(|b| b.is_ascii_digit()) && (key == "0" || !key.starts_with('0'));
    let pc = key.parse::<u64>().ok().filter(|_| canonical);
    let pc = pc.ok_or_else(|| JsonError::from_msg(format!("bad pc key `{key}`")))?;
    if pcs.contains_key(&pc) {
        return Err(JsonError::from_msg(format!("duplicate pc `{pc}`")));
    }
    Ok(pc)
}

/// One row's own consistency: `total` is the sum of its counters and no
/// latency counter exceeds its all-sample counterpart.
pub(crate) fn check_pc(pc: u64, st: &PcStats) -> Result<()> {
    // Checked sum: a crafted document whose counters overflow u64 must
    // be rejected, not silently wrapped past the very consistency check
    // below.
    let sum = checked_sum(st.by_reason.iter().copied())
        .ok_or_else(|| JsonError::from_msg(format!("pc {pc}: stall-reason counters overflow")))?;
    if sum != st.total {
        return Err(JsonError::from_msg(format!(
            "pc {pc}: `total` is {} but its stall-reason counters sum to {sum}",
            st.total
        )));
    }
    for (i, (&all, &lat)) in st.by_reason.iter().zip(&st.latency_by_reason).enumerate() {
        if lat > all {
            let reason = StallReason::from_code(i as u8).expect("index within ALL");
            return Err(JsonError::from_msg(format!(
                "pc {pc}: {lat} latency samples exceed {all} total for reason `{reason}`"
            )));
        }
    }
    Ok(())
}

/// Kernel totals must agree with the per-PC table — a truncated or
/// hand-edited profile is rejected, not silently accepted. Sums are
/// checked: an overflowing table can never match a (necessarily
/// in-range) declared total.
pub(crate) fn check_totals(profile: &KernelProfile) -> Result<()> {
    let sum_text =
        |sum: Option<u64>| sum.map_or_else(|| "more than u64::MAX".to_string(), |t| t.to_string());
    let pc_total = checked_sum(profile.pcs.values().map(|s| s.total));
    if pc_total != Some(profile.total_samples) {
        return Err(JsonError::from_msg(format!(
            "`total_samples` is {} but the pcs table sums to {}",
            profile.total_samples,
            sum_text(pc_total),
        )));
    }
    // Each row's latency sum is bounded by its (in-range) total, so this
    // sum can only overflow if the check above already failed; it stays
    // checked for symmetry.
    let pc_latency = checked_sum(profile.pcs.values().map(PcStats::latency_total));
    if pc_latency != Some(profile.latency_samples) {
        return Err(JsonError::from_msg(format!(
            "`latency_samples` is {} but the pcs table sums to {}",
            profile.latency_samples,
            sum_text(pc_latency),
        )));
    }
    if profile.active_samples.checked_add(profile.latency_samples) != Some(profile.total_samples) {
        return Err(JsonError::from_msg(format!(
            "`active_samples` ({}) + `latency_samples` ({}) != `total_samples` ({})",
            profile.active_samples, profile.latency_samples, profile.total_samples
        )));
    }
    Ok(())
}

/// Overflow-checked sum for validating untrusted counter tables.
fn checked_sum(values: impl Iterator<Item = u64>) -> Option<u64> {
    let mut acc = 0u64;
    for v in values {
        acc = acc.checked_add(v)?;
    }
    Some(acc)
}

/// One row of the `pcs` table (a value that is not an object has no
/// fields).
fn pc_row(reader: &mut Reader) -> Kept<PcStats> {
    let (mut total, mut by_reason, mut latency, mut key_err) = (None, None, None, None);
    if !reader.open(b'{')? {
        reader.skip()?;
        return Ok(Err(missing("total")));
    }
    while let Some(key) = reader.key()? {
        match &*key {
            "total" if total.is_none() => total = Some(unsigned(reader)?),
            "by_reason" if by_reason.is_none() => by_reason = Some(reason_array(reader)?),
            "latency_by_reason" if latency.is_none() => latency = Some(reason_array(reader)?),
            key => {
                reader.skip()?;
                key_err.get_or_insert_with(|| {
                    key_error(key, PC_FIELDS.contains(&key), PC_FIELDS, "pc stats")
                });
            }
        }
    }
    Ok((|| {
        let st = PcStats {
            total: total.ok_or_else(|| missing("total"))??,
            by_reason: by_reason.ok_or_else(|| missing("by_reason"))??,
            latency_by_reason: latency.ok_or_else(|| missing("latency_by_reason"))??,
        };
        key_err.map_or(Ok(st), Err)
    })())
}

/// The `pcs` table; rows after the first bad one are only skipped.
fn pcs_table(reader: &mut Reader) -> Kept<BTreeMap<u64, PcStats>> {
    if !reader.open(b'{')? {
        return mistyped(reader, |v| v.entries().map(drop));
    }
    let (mut pcs, mut bad) = (BTreeMap::new(), None);
    while let Some(key) = reader.key()? {
        if bad.is_some() {
            reader.skip()?;
            continue;
        }
        let row = pc_row(reader)?;
        let row = pc_of_key(&key, &pcs).and_then(|pc| {
            let st = row?;
            check_pc(pc, &st)?;
            Ok((pc, st))
        });
        match row {
            Ok((pc, st)) => drop(pcs.insert(pc, st)),
            Err(e) => bad = Some(e),
        }
    }
    Ok(bad.map_or(Ok(pcs), Err))
}

impl KernelProfile {
    /// Decodes the profile document that is the reader's next value, in
    /// one pass — how the daemon reads the `profile` member of a frame
    /// without building it. The outer error is the frame's (malformed
    /// JSON, at the reader's offsets); the inner one is the document's,
    /// with [`KernelProfile::from_json`]'s checks and wording, reported
    /// only after the whole value was consumed.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn from_reader(reader: &mut Reader) -> Result<Result<Self>> {
        // Everything but the table is two dozen scalars: a small tree,
        // read with the tree's accessors (the table leaves a `null`).
        let (mut header, mut pcs) = (Vec::new(), None);
        if reader.open(b'{')? {
            while let Some(key) = reader.key()? {
                let value = if key == "pcs" && pcs.is_none() {
                    pcs = Some(pcs_table(reader)?);
                    Json::Null
                } else {
                    reader.value()?
                };
                header.push((key.into_owned(), value));
            }
        } else {
            reader.skip()?;
        }
        let doc = Json::Obj(header);
        Ok((|| {
            let launch = doc.field("launch")?;
            let occ = doc.field("occupancy")?;
            let pcs = pcs.ok_or_else(|| missing("pcs"))??;
            let profile = KernelProfile {
                kernel: doc.field("kernel")?.as_str()?.to_string(),
                module_name: doc.field("module_name")?.as_str()?.to_string(),
                arch: doc.field("arch")?.as_str()?.to_string(),
                period: doc.field("period")?.as_u32()?,
                launch: LaunchConfig {
                    grid_blocks: launch.field("grid_blocks")?.as_u32()?,
                    block_threads: launch.field("block_threads")?.as_u32()?,
                    regs_per_thread: launch.field("regs_per_thread")?.as_u32()?,
                    smem_per_block: launch.field("smem_per_block")?.as_u32()?,
                },
                occupancy: Occupancy {
                    blocks_per_sm: occ.field("blocks_per_sm")?.as_u32()?,
                    warps_per_sm: occ.field("warps_per_sm")?.as_u32()?,
                    warps_per_scheduler: occ.field("warps_per_scheduler")?.as_f64()?,
                    limiter: limiter_from_str(occ.field("limiter")?.as_str()?)?,
                    ratio: occ.field("ratio")?.as_f64()?,
                },
                cycles: doc.field("cycles")?.as_u64()?,
                issued: doc.field("issued")?.as_u64()?,
                pcs,
                total_samples: doc.field("total_samples")?.as_u64()?,
                active_samples: doc.field("active_samples")?.as_u64()?,
                latency_samples: doc.field("latency_samples")?.as_u64()?,
                mem_transactions: doc.field("mem_transactions")?.as_u64()?,
                l2_hits: doc.field("l2_hits")?.as_u64()?,
                l2_misses: doc.field("l2_misses")?.as_u64()?,
                icache_misses: doc.field("icache_misses")?.as_u64()?,
            };
            check_keys(&doc, PROFILE_FIELDS, "profile")?;
            check_keys(launch, LAUNCH_FIELDS, "launch")?;
            check_keys(occ, OCCUPANCY_FIELDS, "occupancy")?;
            check_totals(&profile)?;
            Ok(profile)
        })())
    }
}
