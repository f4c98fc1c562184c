//! Stable 64-bit content hashing for configuration values.
//!
//! The simulation server addresses recorded event traces (the packed op
//! streams of the behavioral pass) by *what they are*: a 64-bit digest of the organization and
//! workload that produced them. That key must be **stable** — equal across
//! processes, platforms, and field-construction order — which rules out
//! `std::hash::Hash` (`DefaultHasher`'s keys are randomized per process
//! and its algorithm is explicitly unspecified). [`StableHash`] is the
//! in-tree replacement: a fixed SplitMix64-style mixing function over a
//! fixed field order, so a hash written into a client, a log, or a
//! `BENCH_*.json` file keeps meaning the same configuration forever.
//!
//! Two values of the same type hash equal iff their observable fields are
//! equal; the construction path (builder call order, `paper_default` vs an
//! equivalent hand-built value) never matters because hashing reads the
//! *final* fields in declaration order.
//!
//! ```
//! use cachetime_types::{stable_hash_of, CycleTime};
//!
//! let a = stable_hash_of(&CycleTime::from_ns(40)?);
//! let b = stable_hash_of(&CycleTime::from_ns(40)?);
//! let c = stable_hash_of(&CycleTime::from_ns(44)?);
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

/// The SplitMix64 increment ("golden gamma"); also used to seed the hasher
/// so an empty hash is not zero.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer: an invertible avalanche over one word.
#[inline]
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An accumulating 64-bit hasher with a fixed, documented algorithm.
///
/// Every ingested word passes through the SplitMix64 finalizer combined
/// with the running state, so field order matters (hashing `(a, b)` and
/// `(b, a)` differ) and streams of different lengths never collide by
/// framing (variable-length data must write its length first, which the
/// `str`/slice impls do).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A fresh hasher. Equal inputs through equal write sequences yield
    /// equal [`finish`](Self::finish) values — on any platform, in any
    /// process.
    pub const fn new() -> Self {
        StableHasher { state: GOLDEN }
    }

    /// Ingests one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state.wrapping_add(GOLDEN) ^ v);
    }

    /// Ingests raw bytes (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The digest of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        mix(self.state)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A type whose values can be digested into a stable 64-bit key.
///
/// Implementations must feed every field that affects observable behavior,
/// in a fixed order; two values comparing equal must hash equal. Enums
/// write a discriminant index before any payload.
pub trait StableHash {
    /// Feeds `self` into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// Digests one value: a fresh hasher, one `stable_hash`, one `finish`.
pub fn stable_hash_of<T: StableHash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    h.finish()
}

macro_rules! impl_stable_hash_int {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            #[inline]
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

impl_stable_hash_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StableHash for bool {
    #[inline]
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for f64 {
    /// Hashes the bit pattern; `0.0` and `-0.0` therefore differ, as do
    /// distinct NaN payloads — configuration values are never NaN and the
    /// bit pattern is the only representation stable enough to key on.
    #[inline]
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.to_bits());
    }
}

impl StableHash for str {
    #[inline]
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bytes(self.as_bytes());
    }
}

impl StableHash for String {
    #[inline]
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

// The vocabulary newtypes hash as their observable value.

impl StableHash for crate::CycleTime {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.ns() as u64);
    }
}

impl StableHash for crate::Nanos {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.0);
    }
}

impl StableHash for crate::Cycles {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.0);
    }
}

impl StableHash for crate::CacheSize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.bytes());
    }
}

impl StableHash for crate::BlockWords {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.words() as u64);
    }
}

impl StableHash for crate::Assoc {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.ways() as u64);
    }
}

impl StableHash for crate::Pid {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.0 as u64);
    }
}

impl StableHash for crate::WordAddr {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.value());
    }
}

impl StableHash for crate::AccessKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            crate::AccessKind::IFetch => 0,
            crate::AccessKind::Load => 1,
            crate::AccessKind::Store => 2,
        });
    }
}

impl StableHash for crate::MemRef {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.kind.stable_hash(h);
        self.addr.stable_hash(h);
        self.pid.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest of a fixed input is a cross-version stability contract:
    /// stored keys (server clients, logs) must keep resolving.
    #[test]
    fn digests_are_golden_stable() {
        assert_eq!(stable_hash_of(&0u64), 0xcd73_fe3d_e975_ac26);
        assert_eq!(stable_hash_of("cachetime"), 0xeda2_af8f_6480_2552);
        let mut h = StableHasher::new();
        1u64.stable_hash(&mut h);
        2u64.stable_hash(&mut h);
        assert_eq!(h.finish(), 0x1f28_2529_234b_b3eb);
    }

    #[test]
    fn field_order_matters() {
        let mut ab = StableHasher::new();
        1u64.stable_hash(&mut ab);
        2u64.stable_hash(&mut ab);
        let mut ba = StableHasher::new();
        2u64.stable_hash(&mut ba);
        1u64.stable_hash(&mut ba);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn byte_framing_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        "ab".stable_hash(&mut a);
        "c".stable_hash(&mut a);
        let mut b = StableHasher::new();
        "a".stable_hash(&mut b);
        "bc".stable_hash(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_none_differs_from_zero() {
        assert_ne!(
            stable_hash_of(&Option::<u64>::None),
            stable_hash_of(&Some(0u64))
        );
    }

    #[test]
    fn slices_hash_by_content_and_length() {
        assert_eq!(
            stable_hash_of(&vec![1u64, 2]),
            stable_hash_of(&[1u64, 2][..])
        );
        assert_ne!(stable_hash_of(&[1u64][..]), stable_hash_of(&[1u64, 0][..]));
        assert_ne!(
            stable_hash_of(&[][..] as &[u64]),
            stable_hash_of(&[0u64][..])
        );
    }

    #[test]
    fn small_inputs_spread_widely() {
        // 64 consecutive integers should produce 64 distinct digests with
        // no shared high or low 32-bit halves (a weak avalanche check).
        let digests: Vec<u64> = (0u64..64).map(|v| stable_hash_of(&v)).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a >> 32, b >> 32);
                assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff);
            }
        }
    }

    #[test]
    fn newtypes_hash_their_values() {
        let s64 = crate::CacheSize::from_kib(64).unwrap();
        let s128 = crate::CacheSize::from_kib(128).unwrap();
        assert_ne!(stable_hash_of(&s64), stable_hash_of(&s128));
        assert_eq!(
            stable_hash_of(&crate::CycleTime::from_ns(40).unwrap()),
            stable_hash_of(&crate::CycleTime::from_ns(40).unwrap())
        );
    }
}
