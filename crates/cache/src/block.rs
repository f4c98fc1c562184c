//! Per-frame metadata: the frame store and its per-word limb masks.
//!
//! A [`Frames`] store is struct-of-arrays. The hot array holds each
//! frame's tag, owner and valid bit (16 bytes), the only state a
//! whole-block read touches. The per-word valid and dirty masks live out
//! of line in one limb array, sized to the block: `ceil(block_words / 64)`
//! 64-bit limbs per mask, a frame's valid limbs immediately followed by
//! its dirty limbs. That array is allocated zeroed, so pages of sets a
//! trace never writes are never made resident.

use cachetime_types::Pid;

/// The largest supported block size in words.
///
/// 256 words (1 KB) comfortably covers the paper's block-size sweep; a
/// block of that size needs four 64-bit limbs per word mask.
pub const MAX_BLOCK_WORDS: u32 = 256;

/// Sets the bits for `count` consecutive words starting at `start` in a
/// limb mask, one limb at a time.
///
/// # Panics
///
/// Panics if the range runs past the mask's limbs.
#[inline]
pub(crate) fn set_words(mask: &mut [u64], start: u32, count: u32) {
    let end = start + count;
    let mut word = start;
    while word < end {
        let limb = word / 64;
        let lo = word % 64;
        let n = (end - limb * 64).min(64) - lo;
        let bits = if n == 64 {
            u64::MAX
        } else {
            ((1u64 << n) - 1) << lo
        };
        mask[limb as usize] |= bits;
        word += n;
    }
}

/// Returns whether the bit for word `word` is set.
#[inline]
pub(crate) fn has_word(mask: &[u64], word: u32) -> bool {
    mask[(word / 64) as usize] & (1u64 << (word % 64)) != 0
}

/// Returns the number of set bits.
#[inline]
pub(crate) fn count_words(mask: &[u64]) -> u32 {
    mask.iter().map(|l| l.count_ones()).sum()
}

/// Clears every limb that has a bit set. Limbs already zero are only
/// read, so a never-written page of a zero-allocated array stays
/// unmapped.
#[inline]
fn clear(mask: &mut [u64]) {
    for limb in mask {
        if *limb != 0 {
            *limb = 0;
        }
    }
}

/// The hot part of one cache frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// Tag: the block address bits above the set index.
    pub tag: u64,
    /// Owning process, compared only in virtual caches.
    pub owner: Pid,
    /// Whether the frame holds a block at all.
    pub valid: bool,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        owner: Pid(0),
        valid: false,
    };
}

/// Every frame of one cache, indexed by `set * ways + way`.
///
/// Invariant: an invalid frame's masks are all zero. Valid-word masks are
/// kept only by sub-block caches; in a whole-block cache a valid frame
/// has every word present and its valid limbs stay zero.
#[derive(Debug, Clone)]
pub(crate) struct Frames {
    lines: Vec<Line>,
    /// `2 * limbs` per frame: valid limbs, then dirty limbs.
    masks: Vec<u64>,
    limbs: usize,
}

impl Frames {
    /// An all-invalid store of `frames` frames of `block_words`-word
    /// blocks.
    pub(crate) fn new(frames: usize, block_words: u32) -> Self {
        let limbs = (block_words as usize).div_ceil(64);
        Frames {
            lines: vec![Line::INVALID; frames],
            masks: vec![0u64; frames * 2 * limbs],
            limbs,
        }
    }

    /// Limbs per word mask.
    pub(crate) fn limbs(&self) -> usize {
        self.limbs
    }

    /// The hot lines of frames `base..base + n` (one set).
    #[inline]
    pub(crate) fn lines(&self, base: usize, n: usize) -> &[Line] {
        &self.lines[base..base + n]
    }

    /// The hot line of frame `f`.
    #[inline]
    pub(crate) fn line(&self, f: usize) -> Line {
        self.lines[f]
    }

    /// Frame `f`'s valid-word limbs (meaningful in sub-block caches only).
    #[inline]
    pub(crate) fn valid_words(&self, f: usize) -> &[u64] {
        let at = f * 2 * self.limbs;
        &self.masks[at..at + self.limbs]
    }

    /// Mutable [`valid_words`](Self::valid_words).
    #[inline]
    pub(crate) fn valid_words_mut(&mut self, f: usize) -> &mut [u64] {
        let at = f * 2 * self.limbs;
        &mut self.masks[at..at + self.limbs]
    }

    /// Frame `f`'s dirty-word limbs.
    #[inline]
    pub(crate) fn dirty_words(&self, f: usize) -> &[u64] {
        let at = f * 2 * self.limbs + self.limbs;
        &self.masks[at..at + self.limbs]
    }

    /// Mutable [`dirty_words`](Self::dirty_words).
    #[inline]
    pub(crate) fn dirty_words_mut(&mut self, f: usize) -> &mut [u64] {
        let at = f * 2 * self.limbs + self.limbs;
        &mut self.masks[at..at + self.limbs]
    }

    /// Cleans frame `f`, returning how many of its words were dirty.
    #[inline]
    pub(crate) fn take_dirty(&mut self, f: usize) -> u32 {
        let dirty = self.dirty_words_mut(f);
        let count = count_words(dirty);
        clear(dirty);
        count
    }

    /// Makes frame `f` hold block `tag` of `owner` with no word valid
    /// (in a sub-block cache) and none dirty.
    #[inline]
    pub(crate) fn install(&mut self, f: usize, tag: u64, owner: Pid) {
        self.lines[f] = Line {
            tag,
            owner,
            valid: true,
        };
        let at = f * 2 * self.limbs;
        clear(&mut self.masks[at..at + 2 * self.limbs]);
    }

    /// Invalidates every frame.
    pub(crate) fn invalidate_all(&mut self) {
        self.lines.fill(Line::INVALID);
        clear(&mut self.masks);
    }

    /// Number of frames holding a block.
    pub(crate) fn valid_count(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    /// Bytes of frame state allocated on the heap.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.lines.capacity() * std::mem::size_of::<Line>()
            + self.masks.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMBS: usize = (MAX_BLOCK_WORDS as usize) / 64;

    #[test]
    fn empty_mask() {
        let m = [0u64; LIMBS];
        assert_eq!(count_words(&m), 0);
        assert!(!has_word(&m, 0));
        assert!(!has_word(&m, MAX_BLOCK_WORDS - 1));
    }

    #[test]
    fn set_get_count() {
        let mut m = [0u64; LIMBS];
        set_words(&mut m, 0, 1);
        set_words(&mut m, 63, 1);
        set_words(&mut m, 64, 1);
        set_words(&mut m, 255, 1);
        assert!(has_word(&m, 0) && has_word(&m, 63) && has_word(&m, 64) && has_word(&m, 255));
        assert!(!has_word(&m, 1) && !has_word(&m, 65));
        assert_eq!(count_words(&m), 4);
    }

    #[test]
    fn set_range_spans_limbs() {
        let mut m = [0u64; LIMBS];
        set_words(&mut m, 60, 10);
        assert_eq!(count_words(&m), 10);
        for w in 60..70 {
            assert!(has_word(&m, w));
        }
        assert!(!has_word(&m, 59) && !has_word(&m, 70));
        // Whole limbs, a range ending on a limb boundary, and nothing.
        let mut m = [0u64; LIMBS];
        set_words(&mut m, 64, 128);
        assert_eq!(m, [0, u64::MAX, u64::MAX, 0]);
        set_words(&mut m, 32, 32);
        assert_eq!(m[0], u64::MAX << 32);
        set_words(&mut m, 5, 0);
        assert_eq!(count_words(&m), 160);
    }

    #[test]
    fn clear_resets() {
        let mut f = Frames::new(2, MAX_BLOCK_WORDS);
        f.install(1, 7, Pid(3));
        set_words(f.valid_words_mut(1), 0, 256);
        set_words(f.dirty_words_mut(1), 0, 256);
        assert_eq!(count_words(f.valid_words(1)), 256);
        assert_eq!(f.take_dirty(1), 256);
        assert_eq!(f.take_dirty(1), 0, "taking cleans the frame");
        f.install(1, 8, Pid(3));
        assert_eq!(count_words(f.valid_words(1)), 0, "install starts empty");
    }

    #[test]
    fn invalid_block_is_clean() {
        let mut f = Frames::new(4, 128);
        assert_eq!(f.limbs(), 2);
        assert_eq!(f.valid_count(), 0);
        f.install(2, 1, Pid(0));
        set_words(f.dirty_words_mut(2), 100, 1);
        assert_eq!(f.valid_count(), 1);
        f.invalidate_all();
        assert_eq!(f.valid_count(), 0);
        assert!((0..4).all(|i| !f.line(i).valid && count_words(f.dirty_words(i)) == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_word_panics() {
        let mut m = [0u64; LIMBS];
        set_words(&mut m, MAX_BLOCK_WORDS, 1);
    }
}
