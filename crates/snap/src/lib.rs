//! # nfd-snap — crash-safe snapshots of compiled sessions.
//!
//! A versioned, length-prefixed, per-section CRC-checksummed binary
//! format for the compiled artifact of an NFD session: the schema and Σ
//! source texts, the empty-set policy, and per relation its rendered path
//! list and its saturated pool. A pool entry is stored as its derivation
//! (the rule and premises that produced it, a [`ProvSnap`]) and its
//! subsumption flag, never as its conclusion: the `nfd` facade's thaw
//! applies each rule again. That is exactly what a compile derives from
//! `(schema, Σ, policy)`, so one source always freezes to the same bytes.
//! Closures and the path tables' matrices are not stored, because the
//! kernel and the schema recompute them. Thawing a snapshot skips the
//! saturation search, so a huge schema cold-starts in the time it takes
//! to re-apply its pool's rules.
//!
//! The crate is deliberately *plain data*: [`Snapshot`] holds strings and
//! integers, and knows nothing about engines or path tables. The `nfd`
//! facade converts between this representation and the live compiled
//! structures (and proves bit-identity both ways in its differential
//! suite); this crate owns only the bytes.
//!
//! ## Durability contract
//!
//! * **Writes are crash-atomic.** [`write_atomic`] writes to a sibling
//!   temp file, flushes it to disk, then renames over the destination —
//!   a reader never observes a torn snapshot, only the old file or the
//!   new one.
//! * **Reads are strict by default.** [`decode`] verifies the magic, the
//!   format version, every section's CRC-32, the section ordering, and a
//!   whole-file CRC trailer; every malformed, truncated, bit-flipped or
//!   version-skewed input is a typed [`SnapError`] — never a panic, never
//!   a silently wrong artifact. The decoder is strictly bounds-checked:
//!   corrupt length fields are caught before any allocation is sized
//!   from them.
//! * **Salvage is explicit.** [`decode_lenient`] recovers what it can:
//!   if the text sections (schema, Σ, policy) are individually CRC-valid
//!   it returns them even when the compiled section is damaged, marking
//!   the result *degraded* so the caller can fall back to a fresh compile
//!   instead of rejecting outright. Degradation is a reported event, not
//!   a failure.
//!
//! ## Byte layout (format version 3)
//!
//! ```text
//! magic     8 bytes   b"NFDSNAP1"
//! version   u32 LE    FORMAT_VERSION
//! section*            tag u32 LE · len u64 LE · payload · crc32(payload) u32 LE
//! ```
//!
//! Sections appear in a fixed order — `SCHEMA`, `SIGMA`, `POLICY`,
//! `POOLS`, then `END`, whose payload is the CRC-32 of every preceding
//! byte of the file. Tags 4 (format 2's path-table matrices) and 6
//! (format 1's closure cache) are retired and are never reused. Within
//! payloads, integers are little-endian and strings and vectors are
//! `u64` length-prefixed. See `DESIGN.md` for the field-by-field
//! specification and the version-bump policy.
//!
//! Failpoint sites `snap::write`, `snap::rename`, `snap::read` and
//! `snap::verify` let the chaos harness inject torn writes and partial
//! reads; with the (never-default) `failpoints` feature off they vanish.

#![warn(missing_docs)]

use nfd_faults::fail_point;
use std::fmt;
use std::io::Write as _;

/// The 8-byte magic at offset 0 of every snapshot file.
pub const MAGIC: &[u8; 8] = b"NFDSNAP1";

/// The current format version. Bump on ANY change to the byte layout —
/// the decoder rejects other versions with
/// [`SnapError::UnsupportedVersion`] rather than guessing.
pub const FORMAT_VERSION: u32 = 3;

/// Hard ceiling on a single snapshot file (256 MiB). A corrupt length
/// field can claim anything; this bounds what the decoder will even
/// consider, so damage can never translate into an unbounded allocation.
pub const MAX_SNAPSHOT_BYTES: u64 = 256 * 1024 * 1024;

const TAG_SCHEMA: u32 = 1;
const TAG_SIGMA: u32 = 2;
const TAG_POLICY: u32 = 3;
const TAG_POOLS: u32 = 5;
const TAG_END: u32 = 7;

/// Why a snapshot could not be written, read, or accepted. Every
/// corruption mode maps onto one of these — the decoder has no panicking
/// paths (pinned by `tests/unwrap_guard.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Filesystem-level failure (open, write, flush, rename).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The input ended before the named field could be read.
    Truncated(String),
    /// A CRC-32 check failed for the named section (or the file trailer).
    Checksum(String),
    /// Structurally invalid content: bad tag, bad ordering, bad enum
    /// discriminant, an over-long length field, trailing garbage.
    Malformed(String),
    /// The snapshot decoded cleanly but does not match the world it is
    /// being thawed into (schema text, Σ, policy, a path list), or an
    /// entry's derivation does not re-apply.
    Mismatch(String),
    /// The path names a device, FIFO, directory or other non-regular
    /// file, which is never read as a snapshot.
    NotRegularFile(String),
    /// A `snap::*` failpoint injected this failure (chaos testing only).
    Injected,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (expected {FORMAT_VERSION})"
                )
            }
            SnapError::Truncated(what) => write!(f, "snapshot truncated at {what}"),
            SnapError::Checksum(what) => write!(f, "snapshot checksum mismatch in {what}"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapError::Mismatch(what) => write!(f, "snapshot does not match this session: {what}"),
            SnapError::NotRegularFile(path) => {
                write!(f, "snapshot path `{path}` is not a regular file")
            }
            SnapError::Injected => write!(f, "snapshot fault injected by failpoint"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The empty-set policy of a snapshotted session, as plain data.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum PolicySnap {
    /// `EmptySetPolicy::Forbidden`.
    #[default]
    Forbidden,
    /// `EmptySetPolicy::Annotated` with the sorted rendered rooted paths
    /// declared non-empty.
    Annotated(Vec<String>),
}

/// Provenance of one pool dependency, mirroring the engine's `Prov`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvSnap {
    /// Normalized form of the i-th NFD of Σ.
    Given(u64),
    /// Prefix-weakening of pool entry `dep`, shortening path `shortened`.
    Prefix {
        /// Pool index of the premise.
        dep: u64,
        /// Path id that was shortened.
        shortened: u32,
    },
    /// Full-locality of pool entry `dep` at prefix `x`.
    FullLocality {
        /// Pool index of the premise.
        dep: u64,
        /// Path id of the localized prefix.
        x: u32,
    },
    /// Resolution of `target` with `supplier` on path `on`.
    Resolve {
        /// Pool index of the rewritten dependency.
        target: u64,
        /// Pool index of the supplying dependency.
        supplier: u64,
        /// Path id that was discharged.
        on: u32,
    },
    /// Singleton introduction at set-valued path `x`.
    Singleton {
        /// Path id of the singleton set.
        x: u32,
    },
}

/// One dependency of a frozen pool, as its derivation: a thaw re-applies
/// the rule to recover the LHS and RHS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepSnap {
    /// How the dependency was derived.
    pub prov: ProvSnap,
    /// Subsumption flag at freeze time.
    pub subsumed: bool,
}

/// One relation's saturated pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolSnap {
    /// Relation label text.
    pub relation: String,
    /// The relation's rendered paths in id order (id `i` = `paths[i]`):
    /// the id space the provenance's path ids index.
    pub paths: Vec<String>,
    /// Pool entries in pool order.
    pub deps: Vec<DepSnap>,
}

/// A decoded snapshot: everything needed to reinstall a compiled session
/// without re-running saturation, plus the source texts needed to verify
/// it (or rebuild from scratch when verification fails).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Schema source text (the `nfd_model` grammar), as rendered by
    /// `Schema`'s `Display`.
    pub schema_text: String,
    /// Σ source text (`;`-separated NFDs), as rendered by `Nfd`'s
    /// `Display`.
    pub sigma_text: String,
    /// The empty-set policy the pools were saturated under.
    pub policy: PolicySnap,
    /// Per-relation saturated pools, sorted by relation text.
    pub pools: Vec<PoolSnap>,
}

/// Result of a lenient decode: the best [`Snapshot`] the bytes support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Salvaged {
    /// The recovered snapshot. When `degraded` is true its `pools` are
    /// empty and only the text sections should be trusted.
    pub snapshot: Snapshot,
    /// True when the compiled section (or the file trailer) failed
    /// verification and was dropped: the caller must fall back to a
    /// fresh compile from the embedded texts.
    pub degraded: bool,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// The CRC-32 (IEEE) of `bytes` — the checksum used for every section
/// and for the whole-file trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

fn encode_policy(e: &mut Enc, p: &PolicySnap) {
    match p {
        PolicySnap::Forbidden => e.u8(0),
        PolicySnap::Annotated(paths) => {
            e.u8(1);
            e.u64(paths.len() as u64);
            for p in paths {
                e.str(p);
            }
        }
    }
}

fn encode_prov(e: &mut Enc, p: &ProvSnap) {
    match p {
        ProvSnap::Given(i) => {
            e.u8(0);
            e.u64(*i);
        }
        ProvSnap::Prefix { dep, shortened } => {
            e.u8(1);
            e.u64(*dep);
            e.u32(*shortened);
        }
        ProvSnap::FullLocality { dep, x } => {
            e.u8(2);
            e.u64(*dep);
            e.u32(*x);
        }
        ProvSnap::Resolve {
            target,
            supplier,
            on,
        } => {
            e.u8(3);
            e.u64(*target);
            e.u64(*supplier);
            e.u32(*on);
        }
        ProvSnap::Singleton { x } => {
            e.u8(4);
            e.u32(*x);
        }
    }
}

fn encode_pools(e: &mut Enc, pools: &[PoolSnap]) {
    e.u64(pools.len() as u64);
    for pool in pools {
        e.str(&pool.relation);
        e.u64(pool.paths.len() as u64);
        for p in &pool.paths {
            e.str(p);
        }
        e.u64(pool.deps.len() as u64);
        for d in &pool.deps {
            encode_prov(e, &d.prov);
            e.u8(d.subsumed as u8);
        }
    }
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Serializes a snapshot to its on-disk byte representation. Encoding is
/// deterministic: the same snapshot value always yields the same bytes
/// (section order is fixed; the facade sorts relations before building
/// the [`Snapshot`]).
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

    let mut e = Enc { buf: Vec::new() };
    e.str(&snap.schema_text);
    push_section(&mut out, TAG_SCHEMA, &e.buf);

    e.buf.clear();
    e.str(&snap.sigma_text);
    push_section(&mut out, TAG_SIGMA, &e.buf);

    e.buf.clear();
    encode_policy(&mut e, &snap.policy);
    push_section(&mut out, TAG_POLICY, &e.buf);

    e.buf.clear();
    encode_pools(&mut e, &snap.pools);
    push_section(&mut out, TAG_POOLS, &e.buf);

    let file_crc = crc32(&out);
    push_section(&mut out, TAG_END, &file_crc.to_le_bytes());
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every read
/// names what it was reading so truncation errors are self-describing.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated(what.to_string()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Validates a decoded element count against the bytes actually
    /// available (`min_elem` bytes per element), so a corrupt count can
    /// never size an allocation beyond the input itself.
    fn count(&self, n: u64, min_elem: usize, what: &str) -> Result<usize, SnapError> {
        let cap = self.remaining() / min_elem.max(1);
        if n as usize > cap {
            return Err(SnapError::Malformed(format!(
                "{what} count {n} exceeds remaining input"
            )));
        }
        Ok(n as usize)
    }

    fn str(&mut self, what: &str) -> Result<String, SnapError> {
        let n = self.u64(what)?;
        let n = self.count(n, 1, what)?;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapError::Malformed(format!("{what} is not UTF-8")))
    }
}

fn decode_policy(c: &mut Cur<'_>) -> Result<PolicySnap, SnapError> {
    match c.u8("policy tag")? {
        0 => Ok(PolicySnap::Forbidden),
        1 => {
            let n = c.u64("policy path count")?;
            let n = c.count(n, 8, "policy paths")?;
            let mut paths = Vec::with_capacity(n);
            for _ in 0..n {
                paths.push(c.str("policy path")?);
            }
            Ok(PolicySnap::Annotated(paths))
        }
        t => Err(SnapError::Malformed(format!("unknown policy tag {t}"))),
    }
}

fn decode_prov(c: &mut Cur<'_>) -> Result<ProvSnap, SnapError> {
    match c.u8("provenance tag")? {
        0 => Ok(ProvSnap::Given(c.u64("given index")?)),
        1 => Ok(ProvSnap::Prefix {
            dep: c.u64("prefix dep")?,
            shortened: c.u32("prefix shortened")?,
        }),
        2 => Ok(ProvSnap::FullLocality {
            dep: c.u64("locality dep")?,
            x: c.u32("locality x")?,
        }),
        3 => Ok(ProvSnap::Resolve {
            target: c.u64("resolve target")?,
            supplier: c.u64("resolve supplier")?,
            on: c.u32("resolve on")?,
        }),
        4 => Ok(ProvSnap::Singleton {
            x: c.u32("singleton x")?,
        }),
        t => Err(SnapError::Malformed(format!("unknown provenance tag {t}"))),
    }
}

fn decode_pools(c: &mut Cur<'_>) -> Result<Vec<PoolSnap>, SnapError> {
    let n = c.u64("pool count")?;
    let n = c.count(n, 8, "pools")?;
    let mut pools = Vec::with_capacity(n);
    for _ in 0..n {
        let relation = c.str("pool relation")?;
        let paths_n = c.u64("pool path count")?;
        let paths_n = c.count(paths_n, 8, "pool paths")?;
        let mut paths = Vec::with_capacity(paths_n);
        for _ in 0..paths_n {
            paths.push(c.str("pool path")?);
        }
        let deps_n = c.u64("pool dep count")?;
        // The shortest entry is a singleton: tag, path id, flag.
        let deps_n = c.count(deps_n, 6, "pool deps")?;
        let mut deps = Vec::with_capacity(deps_n);
        for _ in 0..deps_n {
            let prov = decode_prov(c)?;
            let subsumed = match c.u8("dep subsumed flag")? {
                0 => false,
                1 => true,
                b => {
                    return Err(SnapError::Malformed(format!(
                        "subsumed flag byte {b} is not a bool"
                    )))
                }
            };
            deps.push(DepSnap { prov, subsumed });
        }
        pools.push(PoolSnap {
            relation,
            paths,
            deps,
        });
    }
    Ok(pools)
}

/// One framed section as sliced (and CRC-verified) out of the file.
struct Section<'a> {
    tag: u32,
    payload: &'a [u8],
    /// Byte offset of this section's tag within the whole file — the
    /// file-CRC trailer covers everything before the END section's tag.
    start: usize,
}

fn next_section<'a>(c: &mut Cur<'a>) -> Result<Section<'a>, SnapError> {
    let start = c.pos;
    let tag = c.u32("section tag")?;
    let len = c.u64("section length")?;
    // The +4 reserves the section's own CRC field, so a corrupt length
    // can never claim the trailing checksum bytes as payload.
    if (len as u128) + 4 > c.remaining() as u128 {
        return Err(SnapError::Truncated(format!("section {tag} payload")));
    }
    let payload = c.take(len as usize, "section payload")?;
    let stored = c.u32("section checksum")?;
    if crc32(payload) != stored {
        return Err(SnapError::Checksum(section_name(tag).to_string()));
    }
    Ok(Section {
        tag,
        payload,
        start,
    })
}

fn section_name(tag: u32) -> &'static str {
    match tag {
        TAG_SCHEMA => "SCHEMA",
        TAG_SIGMA => "SIGMA",
        TAG_POLICY => "POLICY",
        TAG_POOLS => "POOLS",
        TAG_END => "END",
        _ => "unknown section",
    }
}

/// Requires the payload cursor to be fully consumed — trailing garbage
/// inside a CRC-valid section still counts as malformed.
fn finish_payload(c: &Cur<'_>, tag: u32) -> Result<(), SnapError> {
    if c.remaining() != 0 {
        return Err(SnapError::Malformed(format!(
            "{} section has {} trailing byte(s)",
            section_name(tag),
            c.remaining()
        )));
    }
    Ok(())
}

fn decode_header(c: &mut Cur<'_>) -> Result<(), SnapError> {
    let magic = c.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = c.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Strictly decodes snapshot bytes: every section CRC, the fixed section
/// order, the whole-file trailer CRC, and full structural validation. Any
/// deviation is a typed [`SnapError`]; this function never panics.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapError> {
    fail_point!("snap::verify", Err(SnapError::Injected));
    if bytes.len() as u64 > MAX_SNAPSHOT_BYTES {
        return Err(SnapError::Malformed(format!(
            "snapshot of {} bytes exceeds the {MAX_SNAPSHOT_BYTES}-byte ceiling",
            bytes.len()
        )));
    }
    let mut c = Cur::new(bytes);
    decode_header(&mut c)?;

    let mut snap = Snapshot::default();
    let order = [TAG_SCHEMA, TAG_SIGMA, TAG_POLICY, TAG_POOLS];
    for &expect in &order {
        let s = next_section(&mut c)?;
        if s.tag != expect {
            return Err(SnapError::Malformed(format!(
                "expected {} section, found {}",
                section_name(expect),
                section_name(s.tag)
            )));
        }
        let mut p = Cur::new(s.payload);
        match expect {
            TAG_SCHEMA => snap.schema_text = p.str("schema text")?,
            TAG_SIGMA => snap.sigma_text = p.str("sigma text")?,
            TAG_POLICY => snap.policy = decode_policy(&mut p)?,
            _ => snap.pools = decode_pools(&mut p)?,
        }
        finish_payload(&p, expect)?;
    }

    let end = next_section(&mut c)?;
    if end.tag != TAG_END {
        return Err(SnapError::Malformed(format!(
            "expected END section, found {}",
            section_name(end.tag)
        )));
    }
    let mut p = Cur::new(end.payload);
    let stored_file_crc = p.u32("file checksum")?;
    finish_payload(&p, TAG_END)?;
    if crc32(&bytes[..end.start]) != stored_file_crc {
        return Err(SnapError::Checksum("file trailer".to_string()));
    }
    if c.remaining() != 0 {
        return Err(SnapError::Malformed(format!(
            "{} byte(s) of trailing garbage after END",
            c.remaining()
        )));
    }
    Ok(snap)
}

/// Leniently decodes snapshot bytes, salvaging what verification allows.
///
/// The header and the three text sections (SCHEMA, SIGMA, POLICY) are
/// mandatory — if any of them is damaged the snapshot is useless and the
/// error is returned. The compiled section (POOLS) and the file trailer
/// are best-effort: a failure in either drops the pools and marks the
/// result degraded, telling the caller to
/// fall back to a fresh compile from the embedded texts. Used by `serve`
/// `RESTORE`, where a damaged-but-salvageable snapshot should admit the
/// tenant cold rather than reject it.
pub fn decode_lenient(bytes: &[u8]) -> Result<Salvaged, SnapError> {
    fail_point!("snap::verify", Err(SnapError::Injected));
    // The strict path is also the fast path: fully valid bytes salvage
    // to themselves.
    match decode(bytes) {
        Ok(snapshot) => {
            return Ok(Salvaged {
                snapshot,
                degraded: false,
            })
        }
        Err(SnapError::Injected) => return Err(SnapError::Injected),
        Err(_) => {}
    }
    if bytes.len() as u64 > MAX_SNAPSHOT_BYTES {
        return Err(SnapError::Malformed(format!(
            "snapshot of {} bytes exceeds the {MAX_SNAPSHOT_BYTES}-byte ceiling",
            bytes.len()
        )));
    }
    let mut c = Cur::new(bytes);
    decode_header(&mut c)?;
    let mut snap = Snapshot::default();
    for &expect in &[TAG_SCHEMA, TAG_SIGMA, TAG_POLICY] {
        let s = next_section(&mut c)?;
        if s.tag != expect {
            return Err(SnapError::Malformed(format!(
                "expected {} section, found {}",
                section_name(expect),
                section_name(s.tag)
            )));
        }
        let mut p = Cur::new(s.payload);
        match expect {
            TAG_SCHEMA => snap.schema_text = p.str("schema text")?,
            TAG_SIGMA => snap.sigma_text = p.str("sigma text")?,
            _ => snap.policy = decode_policy(&mut p)?,
        }
        finish_payload(&p, expect)?;
    }
    // Text sections are intact; the strict decode failed somewhere after
    // them, so the compiled state is untrustworthy and is never read: the
    // snapshot keeps its default, empty pools — a half-trusted pool is
    // exactly the hybrid state thaw must never produce.
    Ok(Salvaged {
        snapshot: snap,
        degraded: true,
    })
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

/// Reads a snapshot file into memory, bounding the read at
/// [`MAX_SNAPSHOT_BYTES`]. Only regular files are read: a device or FIFO
/// reports length 0 and may never end (`/dev/zero`), so it is refused
/// with [`SnapError::NotRegularFile`] before it is opened. The read
/// itself is bounded too, since a file can grow after it was measured.
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, SnapError> {
    use std::io::Read as _;
    fail_point!(
        "snap::read",
        Err(SnapError::Io("injected read fault".to_string()))
    );
    let io = |e: std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    let meta = std::fs::metadata(path).map_err(io)?;
    if !meta.is_file() {
        return Err(SnapError::NotRegularFile(path.display().to_string()));
    }
    let too_big = |len: u64| {
        SnapError::Malformed(format!(
            "snapshot of {len} bytes exceeds the {MAX_SNAPSHOT_BYTES}-byte ceiling"
        ))
    };
    if meta.len() > MAX_SNAPSHOT_BYTES {
        return Err(too_big(meta.len()));
    }
    let mut bytes = Vec::with_capacity(meta.len() as usize);
    std::fs::File::open(path)
        .map_err(io)?
        .take(MAX_SNAPSHOT_BYTES + 1)
        .read_to_end(&mut bytes)
        .map_err(io)?;
    if bytes.len() as u64 > MAX_SNAPSHOT_BYTES {
        return Err(too_big(bytes.len() as u64));
    }
    Ok(bytes)
}

/// Writes snapshot bytes crash-atomically: a sibling temp file is
/// written, flushed and fsynced, then renamed over `path`. A crash (or
/// injected fault) at any point leaves either the old snapshot or the
/// new one — never a torn file. The temp file is cleaned up on failure,
/// best-effort.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = write_atomic_inner(path, &tmp, bytes);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_atomic_inner(
    path: &std::path::Path,
    tmp: &std::path::Path,
    bytes: &[u8],
) -> Result<(), SnapError> {
    fail_point!(
        "snap::write",
        Err(SnapError::Io("injected write fault".to_string()))
    );
    let mut f =
        std::fs::File::create(tmp).map_err(|e| SnapError::Io(format!("{}: {e}", tmp.display())))?;
    f.write_all(bytes)
        .map_err(|e| SnapError::Io(format!("{}: {e}", tmp.display())))?;
    f.sync_all()
        .map_err(|e| SnapError::Io(format!("{}: {e}", tmp.display())))?;
    drop(f);
    fail_point!(
        "snap::rename",
        Err(SnapError::Io("injected rename fault".to_string()))
    );
    std::fs::rename(tmp, path).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            schema_text: "R : {<A: int, B: int>};\n".to_string(),
            sigma_text: "R:[A -> B];".to_string(),
            policy: PolicySnap::Annotated(vec!["R:B".to_string()]),
            pools: vec![PoolSnap {
                relation: "R".to_string(),
                paths: vec!["A".to_string(), "B".to_string()],
                deps: vec![DepSnap {
                    prov: ProvSnap::Given(0),
                    subsumed: false,
                }],
            }],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let snap = sample();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes).unwrap(), snap);
        // Deterministic bytes.
        assert_eq!(encode(&snap), bytes);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            let err = decode(&bytes[..n]).expect_err("truncation must be rejected");
            assert!(
                matches!(
                    err,
                    SnapError::Truncated(_)
                        | SnapError::Checksum(_)
                        | SnapError::Malformed(_)
                        | SnapError::BadMagic
                        | SnapError::UnsupportedVersion(_)
                ),
                "truncation to {n} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(decode(&bad).is_err(), "flip at byte {i} was accepted");
        }
    }

    #[test]
    fn lenient_salvages_text_when_compiled_sections_are_damaged() {
        let snap = sample();
        let bytes = encode(&snap);
        // Find the POOLS payload and flip a byte inside it.
        let pools_section_start = bytes
            .windows(4)
            .position(|w| w == TAG_POOLS.to_le_bytes())
            .unwrap();
        let mut bad = bytes.clone();
        bad[pools_section_start + 12 + 4] ^= 0xFF; // inside the POOLS payload
        assert!(decode(&bad).is_err());
        let salvaged = decode_lenient(&bad).expect("text sections intact");
        assert!(salvaged.degraded);
        assert_eq!(salvaged.snapshot.schema_text, snap.schema_text);
        assert_eq!(salvaged.snapshot.sigma_text, snap.sigma_text);
        assert_eq!(salvaged.snapshot.policy, snap.policy);
        assert!(salvaged.snapshot.pools.is_empty());
    }

    #[test]
    fn lenient_rejects_damaged_text_sections() {
        let bytes = encode(&sample());
        // The schema payload starts right after the header + section
        // frame; flip a byte of the schema text itself.
        let off = MAGIC.len() + 4 + 4 + 8 + 8 + 2;
        let mut bad = bytes.clone();
        bad[off] ^= 0xFF;
        assert!(decode(&bad).is_err());
        assert!(decode_lenient(&bad).is_err());
    }

    #[test]
    fn lenient_on_clean_bytes_is_not_degraded() {
        let bytes = encode(&sample());
        let salvaged = decode_lenient(&bytes).unwrap();
        assert!(!salvaged.degraded);
        assert_eq!(salvaged.snapshot, sample());
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = encode(&sample());
        bytes[8] = 0xFE; // version field, little-endian low byte
        match decode(&bytes) {
            Err(SnapError::UnsupportedVersion(v)) => assert_eq!(v, 0xFE + (FORMAT_VERSION & !0xFF)),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(SnapError::BadMagic));
    }

    #[test]
    fn corrupt_count_fields_cannot_balloon_allocations() {
        // Craft a payload whose count field claims u64::MAX entries; the
        // decoder must reject it before sizing anything from it.
        let mut bytes = encode(&sample());
        // Find the POOLS section payload and smash its leading count.
        let pos = bytes
            .windows(4)
            .position(|w| w == TAG_POOLS.to_le_bytes())
            .unwrap();
        for b in &mut bytes[pos + 12..pos + 20] {
            *b = 0xFF;
        }
        let err = decode(&bytes).expect_err("ballooned count must be rejected");
        // The CRC catches it first (the count bytes are covered), which
        // is fine — the important property is "typed error, no panic,
        // no allocation".
        assert!(matches!(
            err,
            SnapError::Checksum(_) | SnapError::Malformed(_) | SnapError::Truncated(_)
        ));
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("nfd_snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.nfdsnap");
        let bytes = encode(&sample());
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(read_file(&path).unwrap(), bytes);
        // Overwrite with a different snapshot: the rename replaces.
        let mut other = sample();
        other.sigma_text.push_str(" R:[B -> A];");
        let bytes2 = encode(&other);
        write_atomic(&path, &bytes2).unwrap();
        assert_eq!(read_file(&path).unwrap(), bytes2);
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926; of "" it is 0.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn errors_render_human_readably() {
        for (err, needle) in [
            (SnapError::BadMagic, "magic"),
            (SnapError::UnsupportedVersion(9), "version 9"),
            (SnapError::Truncated("x".into()), "truncated"),
            (SnapError::Checksum("POOLS".into()), "POOLS"),
            (SnapError::Malformed("y".into()), "malformed"),
            (SnapError::Mismatch("z".into()), "does not match"),
            (
                SnapError::NotRegularFile("/dev/zero".into()),
                "not a regular file",
            ),
            (SnapError::Injected, "injected"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    /// A device reports length 0 and never ends; reading it must fail
    /// typed and at once, not run until allocation fails.
    #[cfg(unix)]
    #[test]
    fn read_file_rejects_dev_zero() {
        let err = read_file(std::path::Path::new("/dev/zero")).unwrap_err();
        assert_eq!(err, SnapError::NotRegularFile("/dev/zero".to_string()));
    }

    #[test]
    fn read_file_rejects_a_directory() {
        let dir = std::env::temp_dir();
        let err = read_file(&dir).unwrap_err();
        assert!(matches!(err, SnapError::NotRegularFile(_)), "{err:?}");
    }
}
