//! The server's wire format: JSON ↔ simulator types.
//!
//! Requests describe a [`SystemConfig`] and a catalog workload; responses
//! carry the full [`SimResult`] counter set. Every field of the config
//! objects is optional and defaults to the paper's machine, so
//! `{"trace": {"name": "mu3"}}` is a complete simulate request. Content
//! keys travel as 16-digit hex *strings* — JSON peers are not guaranteed
//! to keep 64-bit integers exact.

use cachetime::{FillPolicy, LevelTwoConfig};
use cachetime::{SimResult, SystemConfig};
use cachetime_cache::{
    CacheConfig, ReplacementPolicy, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy,
};
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_mmu::TranslationConfig;
use cachetime_trace::{catalog, WorkloadSpec};
use cachetime_types::{
    json_object, write_json_f64, Assoc, BlockWords, CacheSize, CycleTime, Json, Nanos,
};
use std::fmt::Write;

/// A content key rendered for the wire.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a wire content key.
///
/// # Errors
///
/// A human-readable message for a non-hex or oversized string.
pub fn parse_key_hex(s: &str) -> Result<u64, String> {
    if s.is_empty() || s.len() > 16 {
        return Err(format!("key must be 1-16 hex digits, got {:?}", s));
    }
    u64::from_str_radix(s, 16).map_err(|_| format!("key is not hexadecimal: {:?}", s))
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn field_bool(v: &Json, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a boolean")),
    }
}

fn field_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a number")),
    }
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a string")),
    }
}

/// Every key a cache-organization object may carry. Unknown keys are
/// rejected rather than ignored: a typo'd feature field (say
/// `victim_entires`) would otherwise silently simulate the wrong machine.
const CACHE_KEYS: &[&str] = &[
    "size_kib",
    "block_words",
    "fetch_words",
    "assoc",
    "replacement",
    "write_policy",
    "write_allocate",
    "virtual_tags",
    "rng_seed",
    "victim_entries",
    "way_prediction",
];

/// Rejects any key of `v` outside `allowed` ∪ [`CACHE_KEYS`].
fn reject_unknown_cache_keys(v: &Json, allowed_extra: &[&str]) -> Result<(), String> {
    if let Some(fields) = v.as_object() {
        for (k, _) in fields {
            if !CACHE_KEYS.contains(&k.as_str()) && !allowed_extra.contains(&k.as_str()) {
                return Err(format!("unknown cache config field {k:?}"));
            }
        }
    }
    Ok(())
}

/// Builds one cache organization from a JSON object; absent fields keep
/// the paper defaults.
fn cache_config_from_json(v: &Json) -> Result<CacheConfig, String> {
    let size =
        CacheSize::from_kib(field_u64(v, "size_kib")?.unwrap_or(64)).map_err(|e| e.to_string())?;
    let mut b = CacheConfig::builder(size);
    if let Some(words) = field_u64(v, "block_words")? {
        b.block(BlockWords::new(words as u32).map_err(|e| e.to_string())?);
    }
    if let Some(words) = field_u64(v, "fetch_words")? {
        b.fetch(BlockWords::new(words as u32).map_err(|e| e.to_string())?);
    }
    if let Some(ways) = field_u64(v, "assoc")? {
        b.assoc(Assoc::new(ways as u32).map_err(|e| e.to_string())?);
    }
    if let Some(name) = field_str(v, "replacement")? {
        b.replacement(match name {
            "random" => ReplacementPolicy::Random,
            "lru" => ReplacementPolicy::Lru,
            "fifo" => ReplacementPolicy::Fifo,
            "tree-plru" => ReplacementPolicy::TreePlru,
            other => return Err(format!("unknown replacement policy {other:?}")),
        });
    }
    if let Some(name) = field_str(v, "write_policy")? {
        b.write_policy(match name {
            "write-back" => WritePolicy::WriteBack,
            "write-through" => WritePolicy::WriteThrough,
            other => return Err(format!("unknown write policy {other:?}")),
        });
    }
    if let Some(allocate) = field_bool(v, "write_allocate")? {
        b.write_allocate(if allocate {
            WriteAllocate::Allocate
        } else {
            WriteAllocate::NoAllocate
        });
    }
    if let Some(vt) = field_bool(v, "virtual_tags")? {
        b.virtual_tags(vt);
    }
    if let Some(seed) = field_u64(v, "rng_seed")? {
        b.rng_seed(seed);
    }
    if let Some(entries) = field_u64(v, "victim_entries")? {
        b.victim_cache(VictimCacheConfig::new(entries as u32).map_err(|e| e.to_string())?);
    }
    if let Some(name) = field_str(v, "way_prediction")? {
        b.way_prediction(match name {
            "mru" => WayPrediction::Mru,
            "multi-column" => WayPrediction::MultiColumn,
            other => return Err(format!("unknown way prediction {other:?}")),
        });
    }
    b.build().map_err(|e| e.to_string())
}

fn level_config_from_json(v: &Json) -> Result<LevelTwoConfig, String> {
    reject_unknown_cache_keys(v, &["read_cycles", "write_cycles", "wb_depth"])?;
    let mut level = LevelTwoConfig::new(cache_config_from_json(v)?);
    if let Some(c) = field_u64(v, "read_cycles")? {
        level.read_cycles = c;
    }
    if let Some(c) = field_u64(v, "write_cycles")? {
        level.write_cycles = c;
    }
    if let Some(d) = field_u64(v, "wb_depth")? {
        level.wb_depth = d as u32;
    }
    Ok(level)
}

fn memory_config_from_json(v: &Json) -> Result<MemoryConfig, String> {
    let mut b = MemoryConfig::builder();
    if let Some(ns) = field_u64(v, "read_ns")? {
        b.read_op(Nanos(ns));
    }
    if let Some(ns) = field_u64(v, "write_ns")? {
        b.write_op(Nanos(ns));
    }
    if let Some(ns) = field_u64(v, "recovery_ns")? {
        b.recovery(Nanos(ns));
    }
    match (
        field_u64(v, "words_per_cycle")?,
        field_u64(v, "cycles_per_word")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("words_per_cycle and cycles_per_word are mutually exclusive".into())
        }
        (Some(n), None) => {
            b.transfer(TransferRate::WordsPerCycle(n as u32));
        }
        (None, Some(n)) => {
            b.transfer(TransferRate::CyclesPerWord(n as u32));
        }
        (None, None) => {}
    }
    if let Some(c) = field_u64(v, "addr_cycles")? {
        b.addr_cycles(c);
    }
    if let Some(d) = field_u64(v, "wb_depth")? {
        b.wb_depth(d as u32);
    }
    if let Some(c) = field_bool(v, "wb_coalesce")? {
        b.wb_coalesce(c);
    }
    if let Some(d) = field_u64(v, "wb_drain_delay")? {
        b.wb_drain_delay(d);
    }
    if let Some(p) = field_bool(v, "read_priority")? {
        b.read_priority(p);
    }
    b.build().map_err(|e| e.to_string())
}

/// Builds a full [`SystemConfig`] from the request's `config` object (or
/// the paper default for `null`/absent objects).
///
/// # Errors
///
/// A human-readable message naming the offending field; the server turns
/// it into a 400 response.
pub fn system_config_from_json(v: Option<&Json>) -> Result<SystemConfig, String> {
    let v = match v {
        None => return SystemConfig::paper_default().map_err(|e| e.to_string()),
        Some(Json::Null) => return SystemConfig::paper_default().map_err(|e| e.to_string()),
        Some(v) => v,
    };
    if v.as_object().is_none() {
        return Err("config must be an object".into());
    }
    let mut b = SystemConfig::builder();
    if let Some(ns) = field_u64(v, "cycle_time_ns")? {
        b.cycle_time(CycleTime::from_ns(ns as u32).map_err(|e| e.to_string())?);
    }
    if let Some(l1) = v.get("l1") {
        reject_unknown_cache_keys(l1, &[])?;
        b.l1_both(cache_config_from_json(l1)?);
    }
    if let Some(l1i) = v.get("l1i") {
        reject_unknown_cache_keys(l1i, &[])?;
        b.l1i(cache_config_from_json(l1i)?);
    }
    if let Some(l1d) = v.get("l1d") {
        reject_unknown_cache_keys(l1d, &[])?;
        b.l1d(cache_config_from_json(l1d)?);
    }
    if let Some(unified) = field_bool(v, "unified")? {
        b.unified(unified);
    }
    if let Some(l2) = v.get("l2") {
        if !l2.is_null() {
            b.l2(level_config_from_json(l2)?);
        }
    }
    if let Some(l3) = v.get("l3") {
        if !l3.is_null() {
            b.l3(level_config_from_json(l3)?);
        }
    }
    if let Some(m) = v.get("memory") {
        if !m.is_null() {
            b.memory(memory_config_from_json(m)?);
        }
    }
    if let Some(t) = v.get("translation") {
        if !t.is_null() {
            let mut tc = TranslationConfig::default();
            if let Some(w) = field_u64(t, "page_words")? {
                tc.page_words = w as u32;
            }
            if let Some(e) = field_u64(t, "tlb_entries")? {
                tc.tlb_entries = e as u32;
            }
            if let Some(a) = field_u64(t, "tlb_assoc")? {
                tc.tlb_assoc = a as u32;
            }
            if let Some(p) = field_u64(t, "miss_penalty")? {
                tc.miss_penalty = p;
            }
            b.translation(tc);
        }
    }
    if let Some(c) = field_u64(v, "read_hit_cycles")? {
        b.read_hit_cycles(c);
    }
    if let Some(c) = field_u64(v, "write_hit_cycles")? {
        b.write_hit_cycles(c);
    }
    if let Some(c) = field_u64(v, "way_slow_hit_cycles")? {
        b.way_slow_hit_cycles(c);
    }
    if let Some(c) = field_u64(v, "victim_swap_cycles")? {
        b.victim_swap_cycles(c);
    }
    if let Some(d) = field_bool(v, "dual_issue")? {
        b.dual_issue(d);
    }
    if let Some(name) = field_str(v, "fill_policy")? {
        b.fill_policy(match name {
            "wait" => FillPolicy::WaitWholeBlock,
            "early" => FillPolicy::EarlyContinuation,
            "forward" => FillPolicy::LoadForward,
            other => return Err(format!("unknown fill policy {other:?}")),
        });
    }
    b.build().map_err(|e| e.to_string())
}

/// Default trace scale when the request omits one: small enough that a
/// cold recording answers interactively, large enough to leave the warm
/// window non-trivial.
pub const DEFAULT_SCALE: f64 = 0.01;

/// Resolves the request's `trace` object (`{"name": "mu3", "scale": 0.01}`)
/// against the Table 1 catalog.
///
/// # Errors
///
/// A message naming the unknown trace or malformed field.
pub fn workload_from_json(v: Option<&Json>) -> Result<WorkloadSpec, String> {
    let v = v.ok_or("request needs a trace object, e.g. {\"name\": \"mu3\"}")?;
    let name = field_str(v, "name")?.ok_or("trace.name is required")?;
    let scale = field_f64(v, "scale")?.unwrap_or(DEFAULT_SCALE);
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("trace.scale must be in (0, 1], got {scale}"));
    }
    catalog::by_name(name, scale).ok_or_else(|| {
        format!("unknown trace {name:?}; catalog: mu3 mu6 mu10 savec rd1n3 rd2n4 rd1n5 rd2n7")
    })
}

/// What a simulate request's `trace` object names: a catalog workload
/// (`{"name": "mu3"}`) or a previously uploaded trace by content digest
/// (`{"upload": "<hex>"}`, as returned by `POST /v1/traces`).
#[derive(Debug)]
pub enum TraceSelector {
    /// A Table 1 catalog workload at some scale.
    Catalog(WorkloadSpec),
    /// An uploaded trace, by its content digest.
    Upload(u64),
}

/// Resolves the request's `trace` object into a [`TraceSelector`].
///
/// # Errors
///
/// A message for a missing object, an object naming both sources, a
/// malformed digest, or an unknown catalog trace.
pub fn trace_selector_from_json(v: Option<&Json>) -> Result<TraceSelector, String> {
    let obj = v.ok_or(
        "request needs a trace object, e.g. {\"name\": \"mu3\"} or {\"upload\": \"<hex>\"}",
    )?;
    match field_str(obj, "upload")? {
        Some(hex) => {
            if obj.get("name").is_some() {
                return Err("trace.name and trace.upload are mutually exclusive".into());
            }
            if obj.get("scale").is_some() {
                return Err("trace.scale does not apply to an upload (its length is fixed)".into());
            }
            parse_key_hex(hex).map(TraceSelector::Upload)
        }
        None => workload_from_json(v).map(TraceSelector::Catalog),
    }
}

fn cache_stats_json(s: &cachetime_cache::CacheStats) -> Json {
    json_object([
        ("reads", Json::from(s.reads)),
        ("read_misses", Json::from(s.read_misses)),
        ("writes", Json::from(s.writes)),
        ("write_misses", Json::from(s.write_misses)),
        ("fills", Json::from(s.fills)),
        ("fill_words", Json::from(s.fill_words)),
        ("evictions", Json::from(s.evictions)),
        ("dirty_evictions", Json::from(s.dirty_evictions)),
        ("write_back_words", Json::from(s.write_back_words)),
        (
            "dirty_words_written_back",
            Json::from(s.dirty_words_written_back),
        ),
        (
            "word_writes_downstream",
            Json::from(s.word_writes_downstream),
        ),
        ("victim_hits", Json::from(s.victim_hits)),
        ("way_first_hits", Json::from(s.way_first_hits)),
        ("way_slow_hits", Json::from(s.way_slow_hits)),
        ("way_probe_rounds", Json::from(s.way_probe_rounds)),
    ])
}

/// Serializes a [`SimResult`] with every counter intact, as a [`Json`]
/// tree.
///
/// This is the reference form of a result on the wire. The server does
/// not build it: it answers with [`write_sim_result`], whose bytes equal
/// this tree's `to_string()` exactly (a property test pins that). Callers
/// that check answers compare against this, either as parsed trees or as
/// bytes: `cachetime-bench serve-check` does both over the socket.
/// Deterministic for equal results, so serialized results may be
/// compared for bit-identity.
pub fn sim_result_to_json(r: &SimResult) -> Json {
    let buckets: Vec<Json> = (0..16).map(|i| Json::from(r.latency.bucket(i))).collect();
    json_object([
        ("cycle_time_ns", Json::from(r.cycle_time.ns() as u64)),
        ("cycles", Json::from(r.cycles.0)),
        ("refs", Json::from(r.refs)),
        ("couplets", Json::from(r.couplets)),
        ("exec_time_ns", Json::from(r.exec_time().0)),
        ("cycles_per_ref", Json::Float(r.cycles_per_ref())),
        ("time_per_ref_ns", Json::Float(r.time_per_ref_ns())),
        ("read_miss_ratio", Json::Float(r.read_miss_ratio())),
        ("stall_cycles", Json::from(r.stall_cycles.0)),
        ("stall_fraction", Json::Float(r.stall_fraction())),
        ("l1i", cache_stats_json(&r.l1i)),
        ("l1d", cache_stats_json(&r.l1d)),
        (
            "l2",
            r.l2.as_ref().map(cache_stats_json).unwrap_or(Json::Null),
        ),
        (
            "l3",
            r.l3.as_ref().map(cache_stats_json).unwrap_or(Json::Null),
        ),
        (
            "mem",
            json_object([
                ("reads", Json::from(r.mem.reads)),
                ("read_words", Json::from(r.mem.read_words)),
                ("writes", Json::from(r.mem.writes)),
                ("write_words", Json::from(r.mem.write_words)),
                ("read_match_stalls", Json::from(r.mem.read_match_stalls)),
                ("full_stalls", Json::from(r.mem.full_stalls)),
                ("coalesced_writes", Json::from(r.mem.coalesced_writes)),
            ]),
        ),
        (
            "mmu",
            r.mmu
                .as_ref()
                .map(|m| {
                    json_object([
                        ("accesses", Json::from(m.accesses)),
                        ("misses", Json::from(m.misses)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
        ("latency_buckets", Json::Array(buckets)),
    ])
}

/// Appends `r` to `out` as compact JSON, with no [`Json`] tree between:
/// exactly the bytes of `sim_result_to_json(r).to_string()`, with the
/// same keys in the same order and no whitespace.
///
/// Integers are written in decimal and floats by [`write_json_f64`], the
/// tree's own float rule. The server writes every result it answers with
/// this, straight into the response buffer.
pub fn write_sim_result(r: &SimResult, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"cycle_time_ns\":{},\"cycles\":{},\"refs\":{},\"couplets\":{},\
         \"exec_time_ns\":{},\"cycles_per_ref\":",
        r.cycle_time.ns(),
        r.cycles.0,
        r.refs,
        r.couplets,
        r.exec_time().0,
    );
    write_json_f64(r.cycles_per_ref(), out);
    out.push_str(",\"time_per_ref_ns\":");
    write_json_f64(r.time_per_ref_ns(), out);
    out.push_str(",\"read_miss_ratio\":");
    write_json_f64(r.read_miss_ratio(), out);
    let _ = write!(
        out,
        ",\"stall_cycles\":{},\"stall_fraction\":",
        r.stall_cycles.0
    );
    write_json_f64(r.stall_fraction(), out);
    out.push_str(",\"l1i\":");
    write_cache_stats(Some(&r.l1i), out);
    out.push_str(",\"l1d\":");
    write_cache_stats(Some(&r.l1d), out);
    out.push_str(",\"l2\":");
    write_cache_stats(r.l2.as_ref(), out);
    out.push_str(",\"l3\":");
    write_cache_stats(r.l3.as_ref(), out);
    let m = &r.mem;
    let _ = write!(
        out,
        ",\"mem\":{{\"reads\":{},\"read_words\":{},\"writes\":{},\"write_words\":{},\
         \"read_match_stalls\":{},\"full_stalls\":{},\"coalesced_writes\":{}}},\"mmu\":",
        m.reads,
        m.read_words,
        m.writes,
        m.write_words,
        m.read_match_stalls,
        m.full_stalls,
        m.coalesced_writes,
    );
    match &r.mmu {
        Some(m) => {
            let _ = write!(
                out,
                "{{\"accesses\":{},\"misses\":{}}}",
                m.accesses, m.misses
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"latency_buckets\":[");
    for i in 0..16 {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", r.latency.bucket(i));
    }
    out.push_str("]}");
}

/// [`cache_stats_json`]'s bytes, written straight into `out`; `None` is
/// `null`.
fn write_cache_stats(s: Option<&cachetime_cache::CacheStats>, out: &mut String) {
    let Some(s) = s else {
        out.push_str("null");
        return;
    };
    let _ = write!(
        out,
        "{{\"reads\":{},\"read_misses\":{},\"writes\":{},\"write_misses\":{},\"fills\":{},\
         \"fill_words\":{},\"evictions\":{},\"dirty_evictions\":{},\"write_back_words\":{},\
         \"dirty_words_written_back\":{},\"word_writes_downstream\":{},\"victim_hits\":{},\
         \"way_first_hits\":{},\"way_slow_hits\":{},\"way_probe_rounds\":{}}}",
        s.reads,
        s.read_misses,
        s.writes,
        s.write_misses,
        s.fills,
        s.fill_words,
        s.evictions,
        s.dirty_evictions,
        s.write_back_words,
        s.dirty_words_written_back,
        s.word_writes_downstream,
        s.victim_hits,
        s.way_first_hits,
        s.way_slow_hits,
        s.way_probe_rounds,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime::{CoupletHistogram, Simulator};
    use cachetime_cache::CacheStats;
    use cachetime_mem::MemStats;
    use cachetime_mmu::MmuStats;
    use cachetime_testkit::SplitMix64;
    use cachetime_types::Cycles;

    #[test]
    fn key_hex_round_trips() {
        for k in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_key_hex(&key_hex(k)).unwrap(), k);
        }
        assert!(parse_key_hex("").is_err());
        assert!(parse_key_hex("xyz").is_err());
        assert!(parse_key_hex("0123456789abcdef0").is_err());
    }

    #[test]
    fn absent_config_is_the_paper_machine() {
        let c = system_config_from_json(None).unwrap();
        assert_eq!(c, SystemConfig::paper_default().unwrap());
        let c = system_config_from_json(Some(&Json::Null)).unwrap();
        assert_eq!(c, SystemConfig::paper_default().unwrap());
    }

    #[test]
    fn config_fields_apply() {
        let v = Json::parse(
            r#"{
                "cycle_time_ns": 24,
                "l1": {"size_kib": 16, "assoc": 2, "replacement": "lru"},
                "dual_issue": false,
                "fill_policy": "early",
                "l2": {"size_kib": 512, "read_cycles": 5},
                "memory": {"read_ns": 120, "words_per_cycle": 2}
            }"#,
        )
        .unwrap();
        let c = system_config_from_json(Some(&v)).unwrap();
        assert_eq!(c.cycle_time().ns(), 24);
        assert_eq!(c.l1d().size().kib(), 16);
        assert_eq!(c.l1d().assoc().ways(), 2);
        assert!(!c.dual_issue());
        assert!(c.early_continuation());
        assert_eq!(c.l2().unwrap().read_cycles, 5);
        assert_eq!(c.memory().read_op(), Nanos(120));
    }

    #[test]
    fn bad_fields_name_themselves() {
        let v = Json::parse(r#"{"cycle_time_ns": "fast"}"#).unwrap();
        let err = system_config_from_json(Some(&v)).unwrap_err();
        assert!(err.contains("cycle_time_ns"), "{err}");
        let v = Json::parse(r#"{"l1": {"replacement": "psychic"}}"#).unwrap();
        let err = system_config_from_json(Some(&v)).unwrap_err();
        assert!(err.contains("psychic"), "{err}");
    }

    #[test]
    fn org_feature_fields_round_trip() {
        let v = Json::parse(
            r#"{
                "l1": {"size_kib": 8, "assoc": 2, "victim_entries": 8, "way_prediction": "mru"},
                "way_slow_hit_cycles": 2,
                "victim_swap_cycles": 3
            }"#,
        )
        .unwrap();
        let c = system_config_from_json(Some(&v)).unwrap();
        let features = c.l1d().features();
        assert_eq!(features.victim_cache().unwrap().entries(), 8);
        assert_eq!(features.way_prediction(), Some(WayPrediction::Mru));
        assert_eq!(c.way_slow_hit_cycles(), 2);
        assert_eq!(c.victim_swap_cycles(), 3);
        // Display mentions what JSON enabled — the human-readable half of
        // the round trip.
        let shown = c.l1d().to_string();
        assert!(shown.contains("victim:8"), "{shown}");
        assert!(shown.contains("way-pred:mru"), "{shown}");

        let v = Json::parse(r#"{"l1": {"way_prediction": "psychic"}}"#).unwrap();
        assert!(system_config_from_json(Some(&v))
            .unwrap_err()
            .contains("psychic"));
        let v = Json::parse(r#"{"l1": {"victim_entries": 1000}}"#).unwrap();
        assert!(system_config_from_json(Some(&v)).is_err());
    }

    #[test]
    fn unknown_cache_fields_are_rejected_not_ignored() {
        // Regression: a typo'd feature knob used to fall through silently
        // and simulate a machine without the feature.
        let v = Json::parse(r#"{"l1": {"victim_entires": 8}}"#).unwrap();
        let err = system_config_from_json(Some(&v)).unwrap_err();
        assert!(err.contains("victim_entires"), "{err}");
        let v = Json::parse(r#"{"l1d": {"way_predicton": "mru"}}"#).unwrap();
        assert!(system_config_from_json(Some(&v)).is_err());
        // Level objects allow their timing keys but nothing else.
        let v = Json::parse(r#"{"l2": {"size_kib": 512, "read_cycles": 5}}"#).unwrap();
        assert!(system_config_from_json(Some(&v)).is_ok());
        let v = Json::parse(r#"{"l2": {"size_kib": 512, "reed_cycles": 5}}"#).unwrap();
        assert!(system_config_from_json(Some(&v)).is_err());
    }

    #[test]
    fn workload_resolves_and_rejects() {
        let v = Json::parse(r#"{"name": "savec", "scale": 0.02}"#).unwrap();
        let w = workload_from_json(Some(&v)).unwrap();
        assert_eq!(w.name, "savec");
        let v = Json::parse(r#"{"name": "nonesuch"}"#).unwrap();
        assert!(workload_from_json(Some(&v))
            .unwrap_err()
            .contains("nonesuch"));
        let v = Json::parse(r#"{"name": "mu3", "scale": 0}"#).unwrap();
        assert!(workload_from_json(Some(&v)).is_err());
        assert!(workload_from_json(None).is_err());
    }

    #[test]
    fn result_serialization_is_deterministic_and_parseable() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.005).generate();
        let r = Simulator::new(&config).run(&trace);
        let a = sim_result_to_json(&r).to_string();
        let b = sim_result_to_json(&r).to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("cycles").and_then(Json::as_u64),
            Some(r.cycles.0)
        );
        assert_eq!(parsed.get("refs").and_then(Json::as_u64), Some(r.refs));
        assert!(parsed.get("mmu").unwrap().is_null());
    }

    /// A counter: zero, small, above `i64::MAX`, or anywhere in `u64`, so
    /// both integer forms of the tree (`Int` and `UInt`) show up.
    fn arb_count(rng: &mut SplitMix64) -> u64 {
        match rng.next_u64() % 4 {
            0 => 0,
            1 => rng.next_u64() % 1000,
            2 => i64::MAX as u64 + 1 + rng.next_u64() % (1 << 62),
            _ => rng.next_u64(),
        }
    }

    fn arb_cache_stats(rng: &mut SplitMix64) -> CacheStats {
        CacheStats {
            reads: arb_count(rng),
            read_misses: arb_count(rng),
            writes: arb_count(rng),
            write_misses: arb_count(rng),
            fills: arb_count(rng),
            fill_words: arb_count(rng),
            evictions: arb_count(rng),
            dirty_evictions: arb_count(rng),
            write_back_words: arb_count(rng),
            dirty_words_written_back: arb_count(rng),
            word_writes_downstream: arb_count(rng),
            victim_hits: arb_count(rng),
            way_first_hits: arb_count(rng),
            way_slow_hits: arb_count(rng),
            way_probe_rounds: arb_count(rng),
        }
    }

    /// A result with every field drawn at random. The derived ratios stay
    /// computable: `exec_time` and the summed L1 read counters cannot
    /// overflow. A quarter of the results have no references, and a
    /// quarter take a whole number of cycles per reference, so the
    /// ratios include `0.0` and integral floats like `1.0`.
    fn arb_sim_result(rng: &mut SplitMix64) -> SimResult {
        let ns = if rng.gen_bool(0.25) {
            1
        } else {
            1 + (rng.next_u64() % 200) as u32
        };
        let mut l1i = arb_cache_stats(rng);
        let mut l1d = arb_cache_stats(rng);
        l1i.reads = l1i.reads.min(u64::MAX - l1d.reads);
        l1i.read_misses = l1i.read_misses.min(u64::MAX - l1d.read_misses);
        if rng.gen_bool(0.25) {
            (l1i.reads, l1d.reads) = (0, 0);
        }
        let max_cycles = u64::MAX / u64::from(ns);
        let (refs, cycles) = match rng.next_u64() % 4 {
            0 => (0, arb_count(rng).min(max_cycles)),
            1 => {
                let per_ref = 1 + rng.next_u64() % 4;
                let refs = 1 + rng.next_u64() % (max_cycles / per_ref);
                (refs, refs * per_ref)
            }
            _ => (arb_count(rng), arb_count(rng).min(max_cycles)),
        };
        let mut latency = CoupletHistogram::default();
        for i in 0..16 {
            latency.record_n(1 << i, arb_count(rng));
        }
        SimResult {
            cycle_time: CycleTime::from_ns(ns).unwrap(),
            cycles: Cycles(cycles),
            refs,
            couplets: arb_count(rng),
            l1i,
            l1d,
            l2: rng.gen_bool(0.5).then(|| arb_cache_stats(rng)),
            l3: rng.gen_bool(0.5).then(|| arb_cache_stats(rng)),
            mem: MemStats {
                reads: arb_count(rng),
                read_words: arb_count(rng),
                writes: arb_count(rng),
                write_words: arb_count(rng),
                read_match_stalls: arb_count(rng),
                full_stalls: arb_count(rng),
                coalesced_writes: arb_count(rng),
            },
            mmu: rng.gen_bool(0.5).then(|| MmuStats {
                accesses: arb_count(rng),
                misses: arb_count(rng),
            }),
            latency,
            stall_cycles: Cycles(arb_count(rng)),
        }
    }

    #[test]
    fn writer_matches_the_tree_byte_for_byte() {
        use cachetime_testkit::{check, prop_assert_eq, shrink};
        check(
            "write_sim_result_matches_tree",
            arb_sim_result,
            shrink::none,
            |r| {
                let mut written = String::from("prefix:");
                write_sim_result(r, &mut written);
                let want = sim_result_to_json(r).to_string();
                prop_assert_eq!(&written["prefix:".len()..], want.as_str());
                Ok(())
            },
        );
        // The edges, each at least once: an all-zero result (no levels
        // below L1, no references), an all-maximum one with every level,
        // and a simulated one. A result with no references or no reads
        // prices its ratios at `0.0`, not NaN (`SimResult` guards each
        // division), so `null` never appears here; the float rule's
        // `null` is `cachetime_types`' own test.
        let zero = SimResult {
            cycle_time: CycleTime::from_ns(1).unwrap(),
            cycles: Cycles(0),
            refs: 0,
            couplets: 0,
            l1i: CacheStats::default(),
            l1d: CacheStats::default(),
            l2: None,
            l3: None,
            mem: MemStats::default(),
            mmu: None,
            latency: CoupletHistogram::default(),
            stall_cycles: Cycles(0),
        };
        let max = CacheStats {
            reads: u64::MAX / 2,
            read_misses: u64::MAX / 2,
            ..arb_cache_stats(&mut SplitMix64::from_seed(7))
        };
        let full = SimResult {
            cycles: Cycles(u64::MAX),
            refs: u64::MAX,
            couplets: u64::MAX,
            l1i: max,
            l1d: max,
            l2: Some(max),
            l3: Some(max),
            mmu: Some(MmuStats {
                accesses: u64::MAX,
                misses: u64::MAX,
            }),
            stall_cycles: Cycles(u64::MAX),
            ..zero
        };
        let config = SystemConfig::paper_default().unwrap();
        let simulated = Simulator::new(&config).run(&catalog::mu3(0.005).generate());
        for r in [zero, full, simulated] {
            let mut written = String::new();
            write_sim_result(&r, &mut written);
            assert_eq!(written, sim_result_to_json(&r).to_string());
        }
    }
}
