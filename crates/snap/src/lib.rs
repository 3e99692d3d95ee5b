//! Exact-roundtrip binary snapshots for checkpoint/restore.
//!
//! The checkpoint subsystem must restore a simulation (`gdisim-core`'s
//! `Simulation`) to a state whose continued run is **bit-identical** to the uninterrupted
//! one. JSON round-trips floats through decimal text and loses the
//! distinction between `-0.0` and `0.0` (and can perturb the last ulp),
//! so checkpoints use this little binary codec instead: every scalar is
//! written in a fixed-width little-endian encoding, floats travel as
//! their raw IEEE-754 bits, and collections carry explicit lengths.
//!
//! The [`Snap`] trait is deliberately symmetric — `save` and `load` are
//! always written next to each other (usually via [`snap_struct!`] /
//! [`snap_enum!`]) so a field added to one side cannot silently go
//! missing on the other: `load` consumes exactly the bytes `save`
//! produced or fails with a typed [`SnapError`].
//!
//! Unordered containers (`HashMap`, `HashSet`, `BinaryHeap`) are
//! serialized in sorted key order so the byte stream is canonical: two
//! equal states always produce identical checkpoint bytes, which lets
//! tests compare checkpoints directly.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Error produced when decoding a snapshot stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the value was complete.
    Eof {
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// An enum tag byte did not match any known variant.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix was implausibly large for the remaining stream.
    BadLength {
        /// The declared element count.
        len: u64,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A decoded value violated a domain constraint.
    Invalid(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof { needed, remaining } => write!(
                f,
                "snapshot stream truncated: needed {needed} bytes, {remaining} remain"
            ),
            SnapError::BadTag { ty, tag } => {
                write!(f, "unknown variant tag {tag} while decoding {ty}")
            }
            SnapError::BadLength { len, remaining } => write!(
                f,
                "implausible length {len} with only {remaining} bytes remaining"
            ),
            SnapError::BadUtf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapError::Invalid(what) => write!(f, "invalid snapshot value: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Sink for snapshot bytes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix (caller owns framing).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a collection length.
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Writes a borrowed optional value, encoded exactly as the owned
    /// `Option<T>` is.
    pub fn put_option<T: Snap>(&mut self, v: Option<&T>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                v.save(self);
            }
        }
    }
}

/// Cursor over snapshot bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a collection length, sanity-checking it against the bytes
    /// remaining (every element costs at least one byte).
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }
}

/// A type that can be saved to and restored from a snapshot stream with
/// exact (bit-identical) roundtrip fidelity.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Encodes a value into a standalone byte vector.
pub fn to_bytes<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte slice, requiring full consumption.
pub fn from_bytes<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = T::load(&mut r)?;
    if !r.is_done() {
        return Err(SnapError::Invalid("trailing bytes after value"));
    }
    Ok(v)
}

// ----- scalar impls --------------------------------------------------------

macro_rules! snap_uint {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_u64(*self as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.take_u64()?;
                <$ty>::try_from(v).map_err(|_| SnapError::Invalid(stringify!($ty)))
            }
        }
    )*};
}
snap_uint!(u16, u32, u64, usize);

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_u8()
    }
}

macro_rules! snap_int {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_u64(*self as i64 as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.take_u64()? as i64;
                <$ty>::try_from(v).map_err(|_| SnapError::Invalid(stringify!($ty)))
            }
        }
    )*};
}
snap_int!(i32, i64, isize);

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Snap for f32 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f32::from_bits(r.take_u32()?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        w.put_raw(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let bytes = r.take_raw(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadUtf8)
    }
}

// ----- container impls -----------------------------------------------------

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_option(self.as_ref());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(SnapError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

/// `Arc` snapshots by value: sharing is not preserved across a
/// checkpoint, which is fine for the engine's immutable shared payloads
/// (operation templates) — equal values behave identically.
impl<T: Snap> Snap for Arc<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for std::cmp::Reverse<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(std::cmp::Reverse(T::load(r)?))
    }
}

impl Snap for std::ops::Range<usize> {
    fn save(&self, w: &mut SnapWriter) {
        self.start.save(w);
        self.end.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(usize::load(r)?..usize::load(r)?)
    }
}

macro_rules! snap_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$n.save(w);)+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    )+};
}
snap_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Invalid("array length"))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// `HashMap` entries are written in sorted key order so equal maps
/// produce identical bytes regardless of hasher: a map decodes under any
/// hasher from the bytes of the same entries under another.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Eq + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort_unstable();
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = HashMap::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// `HashSet` members are written sorted, for the same canonical-bytes
/// reason as [`HashMap`].
impl<T, S> Snap for HashSet<T, S>
where
    T: Snap + Ord + Eq + Hash,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        let mut members: Vec<&T> = self.iter().collect();
        members.sort_unstable();
        for m in members {
            m.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = HashSet::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            out.insert(T::load(r)?);
        }
        Ok(out)
    }
}

/// `BinaryHeap` contents are written as a sorted vec; reloading pushes
/// them back, which rebuilds an equivalent heap (heaps compare by their
/// popped order, which only depends on the multiset of elements).
impl<T: Snap + Ord> Snap for BinaryHeap<T> {
    fn save(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.put_len(items.len());
        for v in items {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len()?;
        let mut out = BinaryHeap::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

// ----- gdisim-types impls --------------------------------------------------

macro_rules! snap_newtype_u32 {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_u32(self.0);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(Self(r.take_u32()?))
            }
        }
    )*};
}
snap_newtype_u32!(
    gdisim_types::DcId,
    gdisim_types::TierId,
    gdisim_types::ServerId,
    gdisim_types::AgentId,
    gdisim_types::LinkId,
    gdisim_types::AppId,
    gdisim_types::OpTypeId
);

impl Snap for gdisim_types::SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(gdisim_types::SimTime(r.take_u64()?))
    }
}

impl Snap for gdisim_types::SimDuration {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(gdisim_types::SimDuration(r.take_u64()?))
    }
}

impl Snap for gdisim_types::TierKind {
    fn save(&self, w: &mut SnapWriter) {
        let tag = match self {
            gdisim_types::TierKind::App => 0u8,
            gdisim_types::TierKind::Db => 1,
            gdisim_types::TierKind::Fs => 2,
            gdisim_types::TierKind::Idx => 3,
        };
        w.put_u8(tag);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(gdisim_types::TierKind::App),
            1 => Ok(gdisim_types::TierKind::Db),
            2 => Ok(gdisim_types::TierKind::Fs),
            3 => Ok(gdisim_types::TierKind::Idx),
            tag => Err(SnapError::BadTag {
                ty: "TierKind",
                tag,
            }),
        }
    }
}

impl Snap for gdisim_types::RVec {
    fn save(&self, w: &mut SnapWriter) {
        self.cycles.save(w);
        self.net_bytes.save(w);
        self.mem_bytes.save(w);
        self.disk_bytes.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(gdisim_types::RVec {
            cycles: f64::load(r)?,
            net_bytes: f64::load(r)?,
            mem_bytes: f64::load(r)?,
            disk_bytes: f64::load(r)?,
        })
    }
}

// ----- derive-style macros -------------------------------------------------

/// Implements [`Snap`] for a named-field struct by saving/loading each
/// listed field in order. Every field must be listed — a mismatch shows
/// up as a compile error (missing field in the constructor).
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::save(&self.$f, w); )*
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self {
                    $( $f: $crate::Snap::load(r)?, )*
                })
            }
        }
    };
}

/// Implements [`Snap`] for an enum whose variants are unit or
/// named-field. Each variant gets an explicit, stable tag byte.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty { $( $tag:literal => $variant:ident $( { $($f:ident),* $(,)? } )? ),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $( Self::$variant $( { $($f),* } )? => {
                        w.put_u8($tag);
                        $( $( $crate::Snap::save($f, w); )* )?
                    } )*
                }
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                match r.take_u8()? {
                    $( $tag => Ok(Self::$variant $( { $($f: $crate::Snap::load(r)?),* } )? ), )*
                    tag => Err($crate::SnapError::BadTag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::MIN_POSITIVE, 1e300] {
            let got: f64 = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
        let v = (u64::MAX, -5i64, true, String::from("héllo"));
        let got: (u64, i64, bool, String) = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn containers_roundtrip() {
        let mut m = HashMap::new();
        m.insert(3u32, vec![1.0f64, 2.0]);
        m.insert(1u32, vec![]);
        let got: HashMap<u32, Vec<f64>> = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(got, m);

        let mut h = BinaryHeap::new();
        h.push(std::cmp::Reverse((5u64, 1u64)));
        h.push(std::cmp::Reverse((2u64, 9u64)));
        let got: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = from_bytes(&to_bytes(&h)).unwrap();
        assert_eq!(
            got.into_sorted_vec(),
            vec![
                std::cmp::Reverse((5u64, 1u64)),
                std::cmp::Reverse((2u64, 9u64))
            ]
        );
    }

    #[test]
    fn hashmap_bytes_are_canonical() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..100u64 {
            a.insert(k, k * 2);
        }
        for k in (0..100u64).rev() {
            b.insert(k, k * 2);
        }
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn hasher_does_not_reach_the_bytes() {
        use gdisim_types::{IdMap, IdSet};
        let mut std_map = HashMap::new();
        let mut id_map = IdMap::default();
        let mut std_set = HashSet::new();
        let mut id_set = IdSet::default();
        for k in 0..200u64 {
            let key = k.wrapping_mul(0x1_0000_0001) ^ (k << 40);
            std_map.insert(key, (k as u32, -(k as f64)));
            id_map.insert(key, (k as u32, -(k as f64)));
            std_set.insert(key);
            id_set.insert(key);
        }
        let map_bytes = to_bytes(&std_map);
        assert_eq!(map_bytes, to_bytes(&id_map));
        let as_id: IdMap<u64, (u32, f64)> = from_bytes(&map_bytes).unwrap();
        assert_eq!(as_id, id_map);
        let as_std: HashMap<u64, (u32, f64)> = from_bytes(&to_bytes(&id_map)).unwrap();
        assert_eq!(as_std, std_map);

        let set_bytes = to_bytes(&std_set);
        assert_eq!(set_bytes, to_bytes(&id_set));
        let as_id: IdSet<u64> = from_bytes(&set_bytes).unwrap();
        assert_eq!(as_id, id_set);
        let as_std: HashSet<u64> = from_bytes(&to_bytes(&id_set)).unwrap();
        assert_eq!(as_std, std_set);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        let err = from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, SnapError::Eof { .. }));
    }

    #[test]
    fn bogus_length_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let err = from_bytes::<Vec<u64>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, SnapError::BadLength { .. }));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: Option<String>,
    }
    snap_struct!(Demo { a, b });

    #[derive(Debug, PartialEq)]
    enum DemoEnum {
        Unit,
        Named { x: u64, y: f64 },
    }
    snap_enum!(DemoEnum {
        0 => Unit,
        1 => Named { x, y },
    });

    #[test]
    fn macros_roundtrip() {
        let d = Demo {
            a: 7,
            b: Some("hi".into()),
        };
        assert_eq!(from_bytes::<Demo>(&to_bytes(&d)).unwrap(), d);
        for e in [DemoEnum::Unit, DemoEnum::Named { x: 1, y: -0.0 }] {
            let got = from_bytes::<DemoEnum>(&to_bytes(&e)).unwrap();
            match (&got, &e) {
                (DemoEnum::Named { y: g, .. }, DemoEnum::Named { y: w, .. }) => {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
                _ => assert_eq!(got, e),
            }
        }
    }
}
