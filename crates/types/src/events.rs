//! The behavioral-event vocabulary of the two-phase engine.
//!
//! The simulator factors each run into a timing-free **behavioral pass**
//! (which caches hit, which blocks fill, which victims write back — a
//! function of the cache *organization* and the reference stream alone)
//! and a **timing replay** that prices those events under a particular
//! clock, memory, and buffer configuration. The types here are what the
//! two phases exchange: each recorded couplet is a [`RefEvent`] per half,
//! and a run of all-hit couplets is one count per [`CoupletClass`].
//!
//! The factoring is sound because nothing *above* the write buffers is
//! timing-dependent: cache lookup, replacement, and TLB state advance per
//! reference, never per cycle, so the same organization replayed under a
//! different cycle time or memory speed sees bit-identical hits, misses,
//! victims, and walk events.

use crate::addr::WordAddr;
use crate::refs::Pid;

/// A dirty block displaced by a fill, as seen by the level below:
/// `(first word, whole-block length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimBlock {
    /// First word of the victim block.
    pub addr: WordAddr,
    /// Words transferred on the write-back (the entire block).
    pub words: u32,
}

/// What one reference did to its first-level cache, timing-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEvent {
    /// Read (load or ifetch) hit.
    ReadHit,
    /// Read miss: `fill_words` words are fetched starting at `fetch_start`,
    /// displacing `victim` if it was dirty.
    ReadMiss {
        /// First word of the fetch region.
        fetch_start: WordAddr,
        /// Words fetched from the next level.
        fill_words: u32,
        /// Dirty victim displaced by the fill, if any.
        victim: Option<VictimBlock>,
    },
    /// Write hit; `through` sends the word downstream as well.
    WriteHit {
        /// `true` in a write-through cache.
        through: bool,
    },
    /// Write miss in a no-allocate cache: the word goes around the cache
    /// into the write buffer.
    WriteMissAround,
    /// Write miss in a write-allocate cache: the block is fetched first.
    WriteMissAllocate {
        /// First word of the fetch region.
        fetch_start: WordAddr,
        /// Words fetched for the allocation.
        fill_words: u32,
        /// Dirty victim displaced by the fill, if any.
        victim: Option<VictimBlock>,
        /// `true` in a write-through cache.
        through: bool,
    },
    /// Read hit in a way other than the predicted one: a second probe
    /// round was needed. Only produced by way-predicted organizations.
    ReadSlowHit,
    /// Read miss served by the victim buffer: the block swapped back in
    /// without touching the next level. Only produced by organizations
    /// with a victim cache.
    ReadVictimHit,
    /// Write miss served by the victim buffer; the write then proceeded
    /// as a hit. `through` sends the word downstream as well.
    WriteVictimHit {
        /// `true` in a write-through cache.
        through: bool,
    },
}

impl AccessEvent {
    /// Whether this event describes a store.
    pub const fn is_write(&self) -> bool {
        matches!(
            self,
            AccessEvent::WriteHit { .. }
                | AccessEvent::WriteMissAround
                | AccessEvent::WriteMissAllocate { .. }
                | AccessEvent::WriteVictimHit { .. }
        )
    }
}

/// One half of a recorded couplet: the (post-translation) reference plus
/// its behavioral outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEvent {
    /// The accessed word (physical if an MMU fronts the hierarchy).
    pub addr: WordAddr,
    /// Issuing process.
    pub pid: Pid,
    /// Cycles the TLB walk added before the access could issue (0 on a TLB
    /// hit or without an MMU).
    pub walk_cycles: u64,
    /// What the cache did.
    pub access: AccessEvent,
}

/// The shape of an all-hit couplet: enough to reprice it under any hit
/// costs and issue policy without knowing its addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoupletClass {
    /// An instruction fetch alone.
    Ifetch,
    /// A paired instruction fetch + load.
    IfetchLoad,
    /// A paired instruction fetch + store (write-back hit, nothing sent
    /// downstream).
    IfetchStore,
    /// A load alone.
    Load,
    /// A store alone (write-back hit).
    Store,
}

impl CoupletClass {
    /// Number of distinct classes (the length of a per-class count array).
    pub const COUNT: usize = 5;

    /// All classes, in index order.
    pub const ALL: [CoupletClass; Self::COUNT] = [
        CoupletClass::Ifetch,
        CoupletClass::IfetchLoad,
        CoupletClass::IfetchStore,
        CoupletClass::Load,
        CoupletClass::Store,
    ];

    /// This class's slot in a per-class count array.
    pub const fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_event_classifies_writes() {
        assert!(!AccessEvent::ReadHit.is_write());
        assert!(AccessEvent::WriteHit { through: false }.is_write());
        assert!(AccessEvent::WriteMissAround.is_write());
        assert!(AccessEvent::WriteMissAllocate {
            fetch_start: WordAddr::new(0),
            fill_words: 4,
            victim: None,
            through: true,
        }
        .is_write());
        assert!(!AccessEvent::ReadMiss {
            fetch_start: WordAddr::new(0),
            fill_words: 4,
            victim: Some(VictimBlock {
                addr: WordAddr::new(64),
                words: 4
            }),
        }
        .is_write());
        assert!(!AccessEvent::ReadSlowHit.is_write());
        assert!(!AccessEvent::ReadVictimHit.is_write());
        assert!(AccessEvent::WriteVictimHit { through: false }.is_write());
    }

    #[test]
    fn couplet_class_indices_are_dense() {
        for (i, class) in CoupletClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
