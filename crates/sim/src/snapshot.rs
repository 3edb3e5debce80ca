//! Versioned, self-describing binary snapshots of simulation state.
//!
//! A snapshot is a byte document: an 8-byte magic ([`SNAPSHOT_MAGIC`]), the
//! workspace [`SCHEMA_VERSION`](crate::SCHEMA_VERSION) as a little-endian
//! `u32`, then a sequence of *sections*, each framed as
//!
//! ```text
//! [tag: u8] [len: u64 le] [crc32: u32 le] [payload: len bytes]
//! ```
//!
//! Section payloads are produced by [`Snapshot::write`] into a [`SnapWriter`]
//! and decoded by [`Restorable::read`] from a [`SnapReader`]. Every scalar is
//! little-endian and fixed-width; `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]) so restoring is bit-exact; unordered containers
//! (`HashMap`/`HashSet`) are serialized in sorted key order so the same state
//! always produces the same bytes.
//!
//! Decoding never panics: a truncated, bit-flipped, or wrong-version snapshot
//! surfaces as a typed [`SnapshotError`]. The per-section CRC-32 is verified
//! before any payload byte is interpreted, so decoders may trust lengths they
//! read (they still bound speculative allocations).
//!
//! What is deliberately *not* serialized, and why, is catalogued in
//! DESIGN.md §17: sensor fields and trace sinks (pure functions of config /
//! host-side observers — the caller re-supplies them), the app factory
//! (contains arbitrary closures; re-supplied, and needed live because node
//! recovery rebuilds apps through it), and scratch buffers that are empty
//! between events.

use crate::energy::EnergyProfile;
use crate::engine::{OutputRecord, SimConfig};
use crate::faults::{CrashEvent, FaultPlan, LinkDegradation, RandomCrashes, RegionLossOverride};
use crate::radio::{Destination, MsgKind, RadioParams};
use crate::time::SimTime;
use crate::topology::{NodeId, Position};
use crate::trace::SCHEMA_VERSION;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use ttmqo_query::{
    AggOp, AggValue, Attribute, EpochAnswer, EpochDuration, PartialAgg, Predicate, PredicateSet,
    Query, QueryId, Readings, Region, Row, Selection,
};

/// First 8 bytes of every snapshot document.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TTMQOSNP";

/// Section tag of the engine state written by `Simulator::write_snapshot`.
pub const SECTION_SIMULATOR: u8 = 1;

/// Section tag reserved for the runner's session state (optimizer dynamics,
/// query ledger, repair monitor) written by `ttmqo-core`. Tag 2 carried the
/// layout that kept a timeline of whole user→synthetic maps; it is retired,
/// so a document written then fails as a missing section, not a misread one.
pub const SECTION_RUNNER: u8 = 3;

/// Why a snapshot could not be decoded. Every decoding failure — truncation,
/// bit flips, wrong version, impossible values — surfaces as one of these;
/// decoding never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The document does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The document was written under a different schema version.
    VersionMismatch {
        /// The version stamped in the snapshot header.
        found: u32,
        /// The version this library reads and writes
        /// ([`SCHEMA_VERSION`](crate::SCHEMA_VERSION)).
        expected: u32,
    },
    /// The document ends before the data it promises.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        section: u8,
    },
    /// The bytes decoded but describe an impossible state.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => {
                write!(f, "snapshot header magic mismatch: not a TTMQO snapshot")
            }
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot schema version {found} does not match this library's version {expected}"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} byte(s) but only {available} available"
            ),
            SnapshotError::ChecksumMismatch { section } => write!(
                f,
                "snapshot section 0x{section:02x} failed its CRC-32 check (corrupted bytes)"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot data corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise — snapshot framing
/// is not a hot path, so no table.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Sink for one section payload: fixed-width little-endian scalar encoders
/// that [`Snapshot::write`] implementations compose.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty payload buffer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are host-width independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends raw bytes (no length prefix; pair with [`SnapReader::bytes`]).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer into its payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over one section payload: the decoding counterpart of
/// [`SnapWriter`]. Every read is bounds-checked and returns
/// [`SnapshotError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.buf.len() - self.pos;
        if n > available {
            return Err(SnapshotError::Truncated {
                needed: n,
                available,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`); errors if it overflows the host.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Corrupt("usize overflows host width".into()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly; trailing bytes mean the
    /// encoder and decoder disagree on the format.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Types that can write their complete state into a snapshot section.
///
/// Implementations live in the module that defines the type (so private
/// fields stay private) and destructure `self` exhaustively — adding a field
/// without serializing it then fails to compile, which is the completeness
/// guarantee the snapshot test suite pins.
pub trait Snapshot {
    /// Appends this value's state to `w`.
    fn write(&self, w: &mut SnapWriter);
}

/// Types that can be rebuilt from a snapshot section written by their
/// [`Snapshot`] implementation.
pub trait Restorable: Sized {
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] — truncation, corruption — from the underlying
    /// reads; implementations never panic on untrusted bytes.
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// Assembles a snapshot document: header then checksummed sections.
#[derive(Debug)]
pub struct SnapshotBuilder {
    out: Vec<u8>,
}

impl SnapshotBuilder {
    /// A document containing just the magic + version header.
    pub fn new() -> Self {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        SnapshotBuilder { out }
    }

    /// Appends one section: tag, length, CRC-32, payload.
    pub fn section(&mut self, tag: u8, payload: &[u8]) {
        self.out.push(tag);
        self.out
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.out.extend_from_slice(&crc32(payload).to_le_bytes());
        self.out.extend_from_slice(payload);
    }

    /// The finished document bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

impl Default for SnapshotBuilder {
    fn default() -> Self {
        SnapshotBuilder::new()
    }
}

/// A parsed snapshot document: header verified, every section's length and
/// CRC-32 checked before any payload is handed out.
#[derive(Debug)]
pub struct SnapshotDocument<'a> {
    sections: Vec<(u8, &'a [u8])>,
}

impl<'a> SnapshotDocument<'a> {
    /// Parses and fully validates `bytes`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::VersionMismatch`] for a
    /// foreign or stale header, [`SnapshotError::Truncated`] if any frame
    /// runs past the end, [`SnapshotError::ChecksumMismatch`] if a payload
    /// was bit-flipped.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        if r.bytes(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let found = r.u32()?;
        if found != SCHEMA_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found,
                expected: SCHEMA_VERSION,
            });
        }
        let mut sections = Vec::new();
        while r.remaining() > 0 {
            let tag = r.u8()?;
            let len = r.usize()?;
            let crc = r.u32()?;
            let payload = r.bytes(len)?;
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: tag });
            }
            sections.push((tag, payload));
        }
        Ok(SnapshotDocument { sections })
    }

    /// A reader over the first section with tag `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if no such section exists.
    pub fn section(&self, tag: u8) -> Result<SnapReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| SnapReader::new(payload))
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing section 0x{tag:02x}")))
    }

    /// The tags present, in document order.
    pub fn tags(&self) -> impl Iterator<Item = u8> + '_ {
        self.sections.iter().map(|(t, _)| *t)
    }
}

/// Caps speculative `Vec` pre-allocation while decoding: lengths inside a
/// checksummed section are trustworthy, but growing incrementally past this
/// bound costs little and keeps a hand-corrupted length from aborting on
/// allocation before the decoder reaches the truncation error.
const PREALLOC_CAP: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

macro_rules! scalar_snapshot {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn write(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
        }
        impl Restorable for $ty {
            fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$get()
            }
        }
    };
}

scalar_snapshot!(u8, put_u8, u8);
scalar_snapshot!(u16, put_u16, u16);
scalar_snapshot!(u32, put_u32, u32);
scalar_snapshot!(u64, put_u64, u64);
scalar_snapshot!(i64, put_i64, i64);
scalar_snapshot!(usize, put_usize, usize);
scalar_snapshot!(f64, put_f64, f64);
scalar_snapshot!(bool, put_bool, bool);

impl Snapshot for String {
    fn write(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
}

impl Restorable for String {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 in string".into()))
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn write(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.write(w);
        }
    }
}

impl<T: Restorable> Restorable for Vec<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let mut v = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            v.push(T::read(r)?);
        }
        Ok(v)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn write(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.write(w);
            }
        }
    }
}

impl<T: Restorable> Restorable for Option<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            b => Err(SnapshotError::Corrupt(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for &T {
    fn write(&self, w: &mut SnapWriter) {
        (**self).write(w);
    }
}

impl<T: Snapshot> Snapshot for Box<T> {
    fn write(&self, w: &mut SnapWriter) {
        (**self).write(w);
    }
}

impl<T: Restorable> Restorable for Box<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::read(r)?))
    }
}

// Shared payloads deduplicate memory, not meaning: restoring clones of one
// `Arc` as independent allocations is observationally identical.
impl<T: Snapshot> Snapshot for Arc<T> {
    fn write(&self, w: &mut SnapWriter) {
        (**self).write(w);
    }
}

impl<T: Restorable> Restorable for Arc<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Arc::new(T::read(r)?))
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn write(&self, w: &mut SnapWriter) {
        self.0.write(w);
        self.1.write(w);
    }
}

impl<A: Restorable, B: Restorable> Restorable for (A, B) {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn write(&self, w: &mut SnapWriter) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
}

impl<A: Restorable, B: Restorable, C: Restorable> Restorable for (A, B, C) {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn write(&self, w: &mut SnapWriter) {
        for item in self {
            item.write(w);
        }
    }
}

impl<T: Restorable + Default + Copy, const N: usize> Restorable for [T; N] {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut arr = [T::default(); N];
        for slot in arr.iter_mut() {
            *slot = T::read(r)?;
        }
        Ok(arr)
    }
}

impl<K: Snapshot, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn write(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.write(w);
            v.write(w);
        }
    }
}

impl<K: Restorable + Ord, V: Restorable> Restorable for BTreeMap<K, V> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::read(r)?;
            let v = V::read(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Snapshot> Snapshot for BTreeSet<T> {
    fn write(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.write(w);
        }
    }
}

impl<T: Restorable + Ord> Restorable for BTreeSet<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let mut s = BTreeSet::new();
        for _ in 0..n {
            s.insert(T::read(r)?);
        }
        Ok(s)
    }
}

// Hash containers iterate in arbitrary order; snapshots sort so identical
// state always yields identical bytes.
impl<K: Snapshot + Ord, V: Snapshot> Snapshot for HashMap<K, V> {
    fn write(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.write(w);
            v.write(w);
        }
    }
}

impl<K: Restorable + Eq + std::hash::Hash, V: Restorable> Restorable for HashMap<K, V> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let mut m = HashMap::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            let k = K::read(r)?;
            let v = V::read(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Snapshot + Ord> Snapshot for HashSet<T> {
    fn write(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.put_usize(items.len());
        for item in items {
            item.write(w);
        }
    }
}

impl<T: Restorable + Eq + std::hash::Hash> Restorable for HashSet<T> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let mut s = HashSet::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            s.insert(T::read(r)?);
        }
        Ok(s)
    }
}

impl Snapshot for () {
    fn write(&self, _w: &mut SnapWriter) {}
}

impl Restorable for () {
    fn read(_r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Simulator types with public fields
// ---------------------------------------------------------------------------

impl Snapshot for NodeId {
    fn write(&self, w: &mut SnapWriter) {
        let NodeId(raw) = *self;
        w.put_u16(raw);
    }
}

impl Restorable for NodeId {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeId(r.u16()?))
    }
}

impl Snapshot for SimTime {
    fn write(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_ms());
    }
}

impl Restorable for SimTime {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_ms(r.u64()?))
    }
}

impl Snapshot for Position {
    fn write(&self, w: &mut SnapWriter) {
        let Position { x, y } = *self;
        w.put_f64(x);
        w.put_f64(y);
    }
}

impl Restorable for Position {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Position {
            x: r.f64()?,
            y: r.f64()?,
        })
    }
}

impl Snapshot for MsgKind {
    fn write(&self, w: &mut SnapWriter) {
        let idx = MsgKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("MsgKind::ALL covers every variant");
        w.put_u8(idx as u8);
    }
}

impl Restorable for MsgKind {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let idx = r.u8()? as usize;
        MsgKind::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("invalid MsgKind index {idx}")))
    }
}

impl Snapshot for Destination {
    fn write(&self, w: &mut SnapWriter) {
        match self {
            Destination::Broadcast => w.put_u8(0),
            Destination::Unicast(node) => {
                w.put_u8(1);
                node.write(w);
            }
            Destination::Multicast(nodes) => {
                w.put_u8(2);
                nodes.write(w);
            }
        }
    }
}

impl Restorable for Destination {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Destination::Broadcast),
            1 => Ok(Destination::Unicast(NodeId::read(r)?)),
            2 => Ok(Destination::Multicast(Vec::read(r)?)),
            b => Err(SnapshotError::Corrupt(format!(
                "invalid Destination tag {b}"
            ))),
        }
    }
}

impl Snapshot for RadioParams {
    fn write(&self, w: &mut SnapWriter) {
        let RadioParams {
            startup_ms,
            per_byte_ms,
            header_bytes,
            loss_rate,
            distance_loss,
            collisions,
            max_retries,
            csma_max_deferrals,
        } = *self;
        w.put_f64(startup_ms);
        w.put_f64(per_byte_ms);
        w.put_usize(header_bytes);
        w.put_f64(loss_rate);
        w.put_bool(distance_loss);
        w.put_bool(collisions);
        w.put_u32(max_retries);
        w.put_u32(csma_max_deferrals);
    }
}

impl Restorable for RadioParams {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RadioParams {
            startup_ms: r.f64()?,
            per_byte_ms: r.f64()?,
            header_bytes: r.usize()?,
            loss_rate: r.f64()?,
            distance_loss: r.bool()?,
            collisions: r.bool()?,
            max_retries: r.u32()?,
            csma_max_deferrals: r.u32()?,
        })
    }
}

impl Snapshot for EnergyProfile {
    fn write(&self, w: &mut SnapWriter) {
        let EnergyProfile {
            tx_mw,
            rx_mw,
            idle_mw,
            sleep_mw,
            sample_uj,
        } = *self;
        w.put_f64(tx_mw);
        w.put_f64(rx_mw);
        w.put_f64(idle_mw);
        w.put_f64(sleep_mw);
        w.put_f64(sample_uj);
    }
}

impl Restorable for EnergyProfile {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EnergyProfile {
            tx_mw: r.f64()?,
            rx_mw: r.f64()?,
            idle_mw: r.f64()?,
            sleep_mw: r.f64()?,
            sample_uj: r.f64()?,
        })
    }
}

impl Snapshot for SimConfig {
    fn write(&self, w: &mut SnapWriter) {
        let SimConfig {
            seed,
            maintenance_interval_ms,
            maintenance_bytes,
        } = *self;
        w.put_u64(seed);
        maintenance_interval_ms.write(w);
        w.put_usize(maintenance_bytes);
    }
}

impl Restorable for SimConfig {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimConfig {
            seed: r.u64()?,
            maintenance_interval_ms: Option::read(r)?,
            maintenance_bytes: r.usize()?,
        })
    }
}

impl<O: Snapshot> Snapshot for OutputRecord<O> {
    fn write(&self, w: &mut SnapWriter) {
        let OutputRecord { time, node, output } = self;
        time.write(w);
        node.write(w);
        output.write(w);
    }
}

impl<O: Restorable> Restorable for OutputRecord<O> {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(OutputRecord {
            time: SimTime::read(r)?,
            node: NodeId::read(r)?,
            output: O::read(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Fault-plan types (all-public fields)
// ---------------------------------------------------------------------------

impl Snapshot for CrashEvent {
    fn write(&self, w: &mut SnapWriter) {
        let CrashEvent {
            node,
            at_ms,
            recover_at_ms,
        } = *self;
        node.write(w);
        w.put_u64(at_ms);
        recover_at_ms.write(w);
    }
}

impl Restorable for CrashEvent {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CrashEvent {
            node: NodeId::read(r)?,
            at_ms: r.u64()?,
            recover_at_ms: Option::read(r)?,
        })
    }
}

impl Snapshot for RandomCrashes {
    fn write(&self, w: &mut SnapWriter) {
        let RandomCrashes {
            fraction,
            from_ms,
            until_ms,
            outage_ms,
        } = *self;
        w.put_f64(fraction);
        w.put_u64(from_ms);
        w.put_u64(until_ms);
        outage_ms.write(w);
    }
}

impl Restorable for RandomCrashes {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RandomCrashes {
            fraction: r.f64()?,
            from_ms: r.u64()?,
            until_ms: r.u64()?,
            outage_ms: Option::read(r)?,
        })
    }
}

impl Snapshot for LinkDegradation {
    fn write(&self, w: &mut SnapWriter) {
        let LinkDegradation {
            from_ms,
            until_ms,
            added_loss,
        } = *self;
        w.put_u64(from_ms);
        w.put_u64(until_ms);
        w.put_f64(added_loss);
    }
}

impl Restorable for LinkDegradation {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(LinkDegradation {
            from_ms: r.u64()?,
            until_ms: r.u64()?,
            added_loss: r.f64()?,
        })
    }
}

impl Snapshot for RegionLossOverride {
    fn write(&self, w: &mut SnapWriter) {
        let RegionLossOverride {
            x0,
            y0,
            x1,
            y1,
            from_ms,
            until_ms,
            loss_rate,
        } = *self;
        w.put_f64(x0);
        w.put_f64(y0);
        w.put_f64(x1);
        w.put_f64(y1);
        w.put_u64(from_ms);
        w.put_u64(until_ms);
        w.put_f64(loss_rate);
    }
}

impl Restorable for RegionLossOverride {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RegionLossOverride {
            x0: r.f64()?,
            y0: r.f64()?,
            x1: r.f64()?,
            y1: r.f64()?,
            from_ms: r.u64()?,
            until_ms: r.u64()?,
            loss_rate: r.f64()?,
        })
    }
}

impl Snapshot for FaultPlan {
    fn write(&self, w: &mut SnapWriter) {
        let FaultPlan {
            seed,
            crashes,
            random_crashes,
            degradations,
            region_overrides,
        } = self;
        w.put_u64(*seed);
        crashes.write(w);
        random_crashes.write(w);
        degradations.write(w);
        region_overrides.write(w);
    }
}

impl Restorable for FaultPlan {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultPlan {
            seed: r.u64()?,
            crashes: Vec::read(r)?,
            random_crashes: Option::read(r)?,
            degradations: Vec::read(r)?,
            region_overrides: Vec::read(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Query-model types (ttmqo-query re-exports; rebuilt through their validating
// constructors, mapping impossible combinations to `Corrupt`)
// ---------------------------------------------------------------------------

impl Snapshot for Attribute {
    fn write(&self, w: &mut SnapWriter) {
        let idx = Attribute::ALL
            .iter()
            .position(|a| a == self)
            .expect("Attribute::ALL covers every variant");
        w.put_u8(idx as u8);
    }
}

impl Restorable for Attribute {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let idx = r.u8()? as usize;
        Attribute::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("invalid Attribute index {idx}")))
    }
}

impl Snapshot for AggOp {
    fn write(&self, w: &mut SnapWriter) {
        let idx = AggOp::ALL
            .iter()
            .position(|o| o == self)
            .expect("AggOp::ALL covers every variant");
        w.put_u8(idx as u8);
    }
}

impl Restorable for AggOp {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let idx = r.u8()? as usize;
        AggOp::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("invalid AggOp index {idx}")))
    }
}

impl Snapshot for QueryId {
    fn write(&self, w: &mut SnapWriter) {
        let QueryId(raw) = *self;
        w.put_u64(raw);
    }
}

impl Restorable for QueryId {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(QueryId(r.u64()?))
    }
}

impl Snapshot for EpochDuration {
    fn write(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_ms());
    }
}

impl Restorable for EpochDuration {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let ms = r.u64()?;
        EpochDuration::from_ms(ms)
            .map_err(|_| SnapshotError::Corrupt(format!("invalid epoch duration {ms} ms")))
    }
}

impl Snapshot for Region {
    fn write(&self, w: &mut SnapWriter) {
        w.put_f64(self.x_min());
        w.put_f64(self.y_min());
        w.put_f64(self.x_max());
        w.put_f64(self.y_max());
    }
}

impl Restorable for Region {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let (x_min, y_min, x_max, y_max) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        Region::new(x_min, y_min, x_max, y_max)
            .map_err(|_| SnapshotError::Corrupt("degenerate region".into()))
    }
}

impl Snapshot for Predicate {
    fn write(&self, w: &mut SnapWriter) {
        self.attr().write(w);
        w.put_f64(self.min());
        w.put_f64(self.max());
    }
}

impl Restorable for Predicate {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let attr = Attribute::read(r)?;
        let (min, max) = (r.f64()?, r.f64()?);
        Predicate::new(attr, min, max)
            .map_err(|_| SnapshotError::Corrupt("invalid predicate bounds".into()))
    }
}

impl Snapshot for PredicateSet {
    fn write(&self, w: &mut SnapWriter) {
        let preds: Vec<Predicate> = self.iter().collect();
        preds.write(w);
    }
}

impl Restorable for PredicateSet {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let preds: Vec<Predicate> = Vec::read(r)?;
        Ok(PredicateSet::from_predicates(preds))
    }
}

impl Snapshot for Selection {
    fn write(&self, w: &mut SnapWriter) {
        match self {
            Selection::Attributes(attrs) => {
                w.put_u8(0);
                attrs.write(w);
            }
            Selection::Aggregates(aggs) => {
                w.put_u8(1);
                aggs.write(w);
            }
        }
    }
}

impl Restorable for Selection {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Selection::Attributes(Vec::read(r)?)),
            1 => Ok(Selection::Aggregates(Vec::read(r)?)),
            b => Err(SnapshotError::Corrupt(format!("invalid Selection tag {b}"))),
        }
    }
}

impl Snapshot for Query {
    fn write(&self, w: &mut SnapWriter) {
        self.id().write(w);
        self.selection().write(w);
        self.predicates().write(w);
        self.epoch().write(w);
        self.region().copied().write(w);
    }
}

impl Restorable for Query {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = QueryId::read(r)?;
        let selection = Selection::read(r)?;
        let predicates = PredicateSet::read(r)?;
        let epoch = EpochDuration::read(r)?;
        let region: Option<Region> = Option::read(r)?;
        let q = Query::from_parts(id, selection, predicates, epoch)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid query: {e:?}")))?;
        Ok(match region {
            Some(region) => q.with_region(region),
            None => q,
        })
    }
}

impl Snapshot for Readings {
    fn write(&self, w: &mut SnapWriter) {
        let pairs: Vec<(Attribute, f64)> = self.iter().collect();
        pairs.write(w);
    }
}

impl Restorable for Readings {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let pairs: Vec<(Attribute, f64)> = Vec::read(r)?;
        Ok(pairs.into_iter().collect())
    }
}

impl Snapshot for Row {
    fn write(&self, w: &mut SnapWriter) {
        let Row {
            node,
            time_ms,
            readings,
        } = self;
        w.put_u16(*node);
        w.put_u64(*time_ms);
        readings.write(w);
    }
}

impl Restorable for Row {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Row {
            node: r.u16()?,
            time_ms: r.u64()?,
            readings: Readings::read(r)?,
        })
    }
}

impl Snapshot for AggValue {
    fn write(&self, w: &mut SnapWriter) {
        let AggValue { op, attr, value } = self;
        op.write(w);
        attr.write(w);
        w.put_f64(*value);
    }
}

impl Restorable for AggValue {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(AggValue {
            op: AggOp::read(r)?,
            attr: Attribute::read(r)?,
            value: r.f64()?,
        })
    }
}

impl Snapshot for EpochAnswer {
    fn write(&self, w: &mut SnapWriter) {
        match self {
            EpochAnswer::Rows(rows) => {
                w.put_u8(0);
                rows.write(w);
            }
            EpochAnswer::Aggregates(values) => {
                w.put_u8(1);
                values.write(w);
            }
        }
    }
}

impl Restorable for EpochAnswer {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(EpochAnswer::Rows(Vec::read(r)?)),
            1 => Ok(EpochAnswer::Aggregates(Vec::read(r)?)),
            b => Err(SnapshotError::Corrupt(format!(
                "invalid EpochAnswer tag {b}"
            ))),
        }
    }
}

impl Snapshot for PartialAgg {
    fn write(&self, w: &mut SnapWriter) {
        match *self {
            PartialAgg::Min(v) => {
                w.put_u8(0);
                w.put_f64(v);
            }
            PartialAgg::Max(v) => {
                w.put_u8(1);
                w.put_f64(v);
            }
            PartialAgg::Sum(v) => {
                w.put_u8(2);
                w.put_f64(v);
            }
            PartialAgg::Count(c) => {
                w.put_u8(3);
                w.put_u64(c);
            }
            PartialAgg::Avg { sum, count } => {
                w.put_u8(4);
                w.put_f64(sum);
                w.put_u64(count);
            }
        }
    }
}

impl Restorable for PartialAgg {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(PartialAgg::Min(r.f64()?)),
            1 => Ok(PartialAgg::Max(r.f64()?)),
            2 => Ok(PartialAgg::Sum(r.f64()?)),
            3 => Ok(PartialAgg::Count(r.u64()?)),
            4 => Ok(PartialAgg::Avg {
                sum: r.f64()?,
                count: r.u64()?,
            }),
            b => Err(SnapshotError::Corrupt(format!(
                "invalid PartialAgg tag {b}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + Restorable + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = SnapWriter::new();
        value.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::read(&mut r).expect("roundtrip decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, value);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(std::f64::consts::PI);
        roundtrip("héllo".to_string());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        weird.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(f64::read(&mut r).unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u32));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip([5u64; 5]);
        roundtrip(BTreeMap::from([
            (1u32, "a".to_string()),
            (2, "b".to_string()),
        ]));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
        let hm: HashMap<u64, u64> = (0..100).map(|i| (i, i * i)).collect();
        roundtrip(hm);
        let hs: HashSet<u16> = (0..50).collect();
        roundtrip(hs);
    }

    #[test]
    fn hash_containers_serialize_in_sorted_order() {
        // Two maps with identical content but different insertion history
        // must produce identical bytes.
        let mut a: HashMap<u64, u64> = HashMap::new();
        let mut b: HashMap<u64, u64> = HashMap::with_capacity(1024);
        for i in 0..64 {
            a.insert(i, i + 1);
        }
        for i in (0..64).rev() {
            b.insert(i, i + 1);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.write(&mut wa);
        b.write(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn sim_type_roundtrips() {
        roundtrip(NodeId(513));
        roundtrip(SimTime::from_ms(123_456));
        roundtrip(Position { x: 20.0, y: 40.0 });
        for kind in MsgKind::ALL {
            roundtrip(kind);
        }
        roundtrip(Destination::Broadcast);
        roundtrip(Destination::Unicast(NodeId(3)));
        roundtrip(Destination::Multicast(vec![NodeId(1), NodeId(2)]));
        roundtrip(RadioParams::default());
        roundtrip(EnergyProfile::default());
        roundtrip(FaultPlan {
            seed: 9,
            crashes: vec![CrashEvent {
                node: NodeId(4),
                at_ms: 1000,
                recover_at_ms: Some(5000),
            }],
            random_crashes: Some(RandomCrashes {
                fraction: 0.1,
                from_ms: 0,
                until_ms: 10_000,
                outage_ms: None,
            }),
            degradations: vec![LinkDegradation {
                from_ms: 0,
                until_ms: 100,
                added_loss: 0.5,
            }],
            region_overrides: vec![RegionLossOverride {
                x0: 0.0,
                y0: 0.0,
                x1: 10.0,
                y1: 10.0,
                from_ms: 0,
                until_ms: 50,
                loss_rate: 1.0,
            }],
        });
    }

    #[test]
    fn query_type_roundtrips() {
        let q = ttmqo_query::parse_query(
            QueryId(7),
            "select light, temp where 100<light<300 and region(0, 0, 40, 40) epoch duration 4096",
        )
        .unwrap();
        roundtrip(q);
        let agg = ttmqo_query::parse_query(
            QueryId(8),
            "select max(temp), avg(light) where 2 <= nodeid <= 9 epoch duration 2048",
        )
        .unwrap();
        roundtrip(agg);
        roundtrip(PartialAgg::Avg {
            sum: 10.5,
            count: 3,
        });
        roundtrip(EpochAnswer::Rows(vec![Row {
            node: 5,
            time_ms: 2048,
            readings: [(Attribute::Light, 512.0)].into_iter().collect(),
        }]));
        roundtrip(EpochAnswer::Aggregates(vec![AggValue {
            op: AggOp::Max,
            attr: Attribute::Temp,
            value: 99.0,
        }]));
    }

    #[test]
    fn document_roundtrip_and_tags() {
        let mut payload = SnapWriter::new();
        42u64.write(&mut payload);
        let mut b = SnapshotBuilder::new();
        b.section(1, payload.as_bytes());
        b.section(9, &[]);
        let bytes = b.finish();
        let doc = SnapshotDocument::parse(&bytes).unwrap();
        assert_eq!(doc.tags().collect::<Vec<_>>(), vec![1, 9]);
        let mut r = doc.section(1).unwrap();
        assert_eq!(u64::read(&mut r).unwrap(), 42);
        r.finish().unwrap();
        assert!(matches!(doc.section(2), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut b = SnapshotBuilder::new();
        b.section(1, b"abc");
        let mut bytes = b.finish();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotDocument::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_mismatch_names_both_versions() {
        let mut bytes = SnapshotBuilder::new().finish();
        let stale = SCHEMA_VERSION + 41;
        bytes[8..12].copy_from_slice(&stale.to_le_bytes());
        let err = SnapshotDocument::parse(&bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                found: stale,
                expected: SCHEMA_VERSION
            }
        );
        let msg = err.to_string();
        assert!(msg.contains(&stale.to_string()), "{msg}");
        assert!(msg.contains(&SCHEMA_VERSION.to_string()), "{msg}");
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let mut payload = SnapWriter::new();
        vec![1u64, 2, 3].write(&mut payload);
        let mut b = SnapshotBuilder::new();
        b.section(1, payload.as_bytes());
        let bytes = b.finish();
        let header_len = SNAPSHOT_MAGIC.len() + 4;
        for cut in 0..bytes.len() {
            if cut == header_len {
                // A bare header is a valid zero-section document.
                assert!(SnapshotDocument::parse(&bytes[..cut]).is_ok());
                continue;
            }
            let err = SnapshotDocument::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let mut payload = SnapWriter::new();
        0xDEAD_BEEFu64.write(&mut payload);
        let mut b = SnapshotBuilder::new();
        b.section(3, payload.as_bytes());
        let pristine = b.finish();
        let payload_start = pristine.len() - 8;
        for byte in payload_start..pristine.len() {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[byte] ^= 1 << bit;
                assert_eq!(
                    SnapshotDocument::parse(&corrupt).unwrap_err(),
                    SnapshotError::ChecksumMismatch { section: 3 },
                    "flip at byte {byte} bit {bit} must be caught"
                );
            }
        }
    }

    #[test]
    fn decoding_garbage_never_panics() {
        // Hammer the container decoders with arbitrary bytes; everything must
        // come back as Ok or a typed error, never a panic or huge allocation.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for len in 0..64 {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                bytes.push((state >> 56) as u8);
            }
            let _ = Vec::<u64>::read(&mut SnapReader::new(&bytes));
            let _ = String::read(&mut SnapReader::new(&bytes));
            let _ = BTreeMap::<u64, u64>::read(&mut SnapReader::new(&bytes));
            let _ = Option::<Destination>::read(&mut SnapReader::new(&bytes));
            let _ = Query::read(&mut SnapReader::new(&bytes));
            let _ = SnapshotDocument::parse(&bytes);
        }
    }
}
