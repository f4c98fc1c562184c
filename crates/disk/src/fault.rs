//! Deterministic I/O fault injection for crash-consistency tests.
//!
//! `cachetime-disk` sits below `cachetime-serve`, so it cannot use the
//! server's `FaultPlan` directly; instead the store accepts a hook —
//! a function from (operation, key) to a [`DiskFault`] — and the server
//! adapts its plan into one. Production stores run with no hook and pay
//! a single `Option` check per I/O.
//!
//! Write faults emulate a crash, not an error path: a torn or corrupted
//! write lands under the segment's **final** name with no fsync and no
//! temp-file detour, exactly the state a power cut mid-`write(2)` leaves
//! behind after the rename discipline is bypassed by the kernel losing
//! dirty pages. Recovery must quarantine these, which is what the
//! restart-chaos tests assert.

/// One injected failure for a single disk I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// No fault: the I/O proceeds normally.
    None,
    /// Keep only the first `keep` bytes (a torn or short write on the
    /// write side; a short read on the read side). `keep` is clamped to
    /// the actual length.
    Torn {
        /// Bytes that survive.
        keep: usize,
    },
    /// Flip one bit at byte `offset` (clamped into range) — silent media
    /// corruption.
    BitFlip {
        /// Byte whose lowest bit flips.
        offset: usize,
    },
    /// Fail the whole operation with an I/O error.
    Error,
}

/// Which store operation is about to touch the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// A spill ([`SegmentStore::store`](crate::SegmentStore::store)).
    Write,
    /// A read-through ([`SegmentStore::load`](crate::SegmentStore::load)).
    Read,
}

/// The injection hook: consulted once per store/load with the operation,
/// the trace key, and the I/O length in bytes (so a hook can tear at a
/// fraction of the image); returns the fault to apply.
pub type FaultHook = std::sync::Arc<dyn Fn(DiskOp, u64, usize) -> DiskFault + Send + Sync>;

/// Applies a fault to an in-memory I/O image, returning the bytes that
/// actually reach (or arrive from) the disk, or `None` for
/// [`DiskFault::Error`]. Public because the server reuses the same
/// mangling for injected peer-transfer faults (`peer.fetch` rules).
pub fn mangle(bytes: &[u8], fault: DiskFault) -> Option<Vec<u8>> {
    match fault {
        DiskFault::None => Some(bytes.to_vec()),
        DiskFault::Torn { keep } => Some(bytes[..keep.min(bytes.len())].to_vec()),
        DiskFault::BitFlip { offset } => {
            let mut out = bytes.to_vec();
            if let Some(b) = {
                let idx = if out.is_empty() {
                    0
                } else {
                    offset % out.len()
                };
                out.get_mut(idx)
            } {
                *b ^= 1;
            }
            Some(out)
        }
        DiskFault::Error => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangle_shapes() {
        assert_eq!(mangle(b"abcd", DiskFault::None).unwrap(), b"abcd");
        assert_eq!(mangle(b"abcd", DiskFault::Torn { keep: 2 }).unwrap(), b"ab");
        assert_eq!(
            mangle(b"abcd", DiskFault::Torn { keep: 99 }).unwrap(),
            b"abcd"
        );
        assert_eq!(
            mangle(b"abcd", DiskFault::BitFlip { offset: 1 }).unwrap(),
            b"a\x63cd"
        );
        assert_eq!(
            mangle(b"abcd", DiskFault::BitFlip { offset: 5 }).unwrap(),
            b"a\x63cd"
        );
        assert!(mangle(b"abcd", DiskFault::Error).is_none());
    }
}
