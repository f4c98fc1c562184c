//! The on-disk segment container: a checksummed header around one
//! codec-encoded [`EventTrace`](cachetime::EventTrace) payload.
//!
//! Layout (little-endian, 36-byte header):
//!
//! ```text
//! offset  size  field
//!      0     8  magic     b"CTSEG\r\n\x1a"
//!      8     4  version   container format version (currently 1)
//!     12     8  key       the trace's content key (matches the file name)
//!     20     8  len       payload length in bytes
//!     28     8  checksum  SplitMix64 digest of the payload bytes
//!     36   len  payload   cachetime::codec::encode output
//! ```
//!
//! The payload carries its own version byte (currently 2): the
//! organization and behavioral counters, the op count, then the trace's
//! packed op stream exactly as the trace holds it in memory. The
//! container version does not move with it. A payload version the codec
//! does not speak (version 1 held one fixed-width record per op) fails to
//! decode like any corrupt payload: the scan and `load` quarantine the
//! file by name, and the key is recorded again on its next request.
//!
//! The magic embeds `\r\n` and a DOS EOF byte (the PNG trick) so
//! text-mode transfer mangling is caught at the first eight bytes. The
//! checksum is a [`StableHasher`] digest — the same SplitMix64 mix that
//! keys the store — so the disk layer adds no second hash primitive.
//!
//! Parsing never trusts a length field before bounds-checking it against
//! the actual file size, and the payload is only handed to the codec
//! after the checksum matches; a segment that fails any step is reported
//! as [`SegmentError`] and the caller quarantines the file.

use cachetime_types::StableHasher;

/// First eight bytes of every segment file.
pub const MAGIC: [u8; 8] = *b"CTSEG\r\n\x1a";

/// Container format version written by [`seal`].
pub const VERSION: u32 = 1;

/// Header length in bytes.
pub const HEADER_LEN: usize = 36;

/// Why a segment file failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Shorter than a header, or shorter than the header's claimed length.
    Truncated,
    /// The first eight bytes are not [`MAGIC`].
    ForeignMagic,
    /// A magic match but an unknown container version.
    BadVersion(u32),
    /// The header key does not match the key the caller expected (a
    /// segment renamed to the wrong file, or a duplicate-key copy).
    KeyMismatch {
        /// Key in the header.
        header: u64,
        /// Key the caller derived from the file name.
        expected: u64,
    },
    /// Payload bytes do not hash to the header checksum.
    ChecksumMismatch,
    /// Checksum held but the payload failed to decode (codec-level
    /// corruption or version skew).
    Payload(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Truncated => f.write_str("segment truncated"),
            SegmentError::ForeignMagic => f.write_str("foreign magic"),
            SegmentError::BadVersion(v) => write!(f, "unknown segment version {v}"),
            SegmentError::KeyMismatch { header, expected } => {
                write!(f, "header key {header:016x} != file key {expected:016x}")
            }
            SegmentError::ChecksumMismatch => f.write_str("checksum mismatch"),
            SegmentError::Payload(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// SplitMix64 digest of the payload bytes (the header checksum).
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// Wraps an encoded payload in a sealed segment: header + payload,
/// ready to be written to `<key as 16 hex>.seg`.
pub fn seal(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a segment file image against the key its file name claims
/// and returns the payload slice.
///
/// # Errors
///
/// [`SegmentError`] describing the first check that failed; the order is
/// magic, version, key, length, checksum — cheapest first, so garbage
/// files are rejected without hashing.
pub fn open(expected_key: u64, bytes: &[u8]) -> Result<&[u8], SegmentError> {
    if bytes.len() < HEADER_LEN {
        return Err(SegmentError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SegmentError::ForeignMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SegmentError::BadVersion(version));
    }
    let key = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if key != expected_key {
        return Err(SegmentError::KeyMismatch {
            header: key,
            expected: expected_key,
        });
    }
    let len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(SegmentError::Truncated);
    }
    let want = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
    if checksum(payload) != want {
        return Err(SegmentError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let payload = b"not a real trace, but the container does not care";
        let sealed = seal(0xDEAD_BEEF_0BAD_F00D, payload);
        assert_eq!(
            open(0xDEAD_BEEF_0BAD_F00D, &sealed).unwrap(),
            payload.as_slice()
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(7, b"payload");
        for len in 0..sealed.len() {
            assert!(open(7, &sealed[..len]).is_err(), "prefix {len} accepted");
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let sealed = seal(7, b"payload");
        for byte in 0..sealed.len() {
            let mut copy = sealed.clone();
            copy[byte] ^= 1;
            assert!(open(7, &copy).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn key_mismatch_is_its_own_error() {
        let sealed = seal(7, b"payload");
        assert_eq!(
            open(8, &sealed),
            Err(SegmentError::KeyMismatch {
                header: 7,
                expected: 8
            })
        );
    }

    #[test]
    fn foreign_magic_is_detected_first() {
        let mut sealed = seal(7, b"payload");
        sealed[0] = b'X';
        assert_eq!(open(7, &sealed), Err(SegmentError::ForeignMagic));
    }
}
