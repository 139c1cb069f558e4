//! The digest of a program's output arrays.
//!
//! [`WordDigest`] hashes a stream of 64-bit words, a memory pass at a
//! time: words go round-robin into `LANES` = 8 independent lanes, so the
//! multiplies of one block overlap instead of waiting on each other the
//! way a single running hash must. The digest is a function of the word
//! stream alone — not of how the stream was cut into [`WordDigest::write`]
//! and [`WordDigest::write_word`] calls — so a flat snapshot, the rows of
//! a padded layout and the windows of a contracted one all hash alike.
//!
//! Definition, over words `w[0..n]`:
//!
//! * lane `i` starts at `avalanche(i + 1)`;
//! * word `w[k]` steps lane `k % LANES`: `lane = ((lane ^ w) *
//!   MUL).rotate_left(ROT)`; a partial last block is padded with zero
//!   words;
//! * the result folds `n` and then the lanes, in index order, through the
//!   same step starting from `FOLD_SEED`, and finishes with `avalanche`
//!   (splitmix64's finalizer).
//!
//! The step is a bijection of the lane for a fixed word and of the word
//! for a fixed lane, and `avalanche` is a bijection, so changing any one
//! word always changes the digest. Every other difference (several
//! words, reordering, length) goes undetected with probability about
//! 2⁻⁶⁴; the function is not cryptographic and not order-independent.

/// Independent lanes a block of words is spread over.
const LANES: usize = 8;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const ROT: u32 = 29;
const FOLD_SEED: u64 = 0x243F_6A88_85A3_08D3;

#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MUL).rotate_left(ROT)
}

fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A streaming hash of 64-bit words (see the module documentation).
#[derive(Clone, Debug)]
pub struct WordDigest {
    lanes: [u64; LANES],
    /// The words of the block being filled; `fill` of them are set.
    block: [u64; LANES],
    fill: usize,
    words: u64,
}

impl WordDigest {
    /// The digest of the empty stream.
    pub fn new() -> Self {
        WordDigest {
            lanes: std::array::from_fn(|i| avalanche(i as u64 + 1)),
            block: [0; LANES],
            fill: 0,
            words: 0,
        }
    }

    /// Appends one word.
    #[inline]
    pub fn write_word(&mut self, word: u64) {
        self.block[self.fill] = word;
        self.fill += 1;
        self.words += 1;
        if self.fill == LANES {
            self.absorb_block();
        }
    }

    /// Appends the bit pattern of every value, in order.
    pub fn write(&mut self, values: &[f64]) {
        self.words += values.len() as u64;
        let mut values = values;
        if self.fill > 0 {
            let take = (LANES - self.fill).min(values.len());
            let (head, rest) = values.split_at(take);
            for (slot, v) in self.block[self.fill..].iter_mut().zip(head) {
                *slot = v.to_bits();
            }
            self.fill += take;
            if self.fill < LANES {
                return;
            }
            self.absorb_block();
            values = rest;
        }
        let mut blocks = values.chunks_exact(LANES);
        // A local copy, so the lanes stay in registers across the loop.
        let mut lanes = self.lanes;
        for block in &mut blocks {
            for (lane, v) in lanes.iter_mut().zip(block) {
                *lane = step(*lane, v.to_bits());
            }
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        for (slot, v) in self.block.iter_mut().zip(tail) {
            *slot = v.to_bits();
        }
        self.fill = tail.len();
    }

    fn absorb_block(&mut self) {
        for (lane, &w) in self.lanes.iter_mut().zip(&self.block) {
            *lane = step(*lane, w);
        }
        self.fill = 0;
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.fill > 0 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let w = if i < self.fill { self.block[i] } else { 0 };
                *lane = step(*lane, w);
            }
        }
        let folded = lanes
            .iter()
            .fold(step(FOLD_SEED, self.words), |h, &lane| step(h, lane));
        avalanche(folded)
    }
}

impl Default for WordDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// The digest of a program's output arrays, given as flat row-major
/// snapshots: the [`WordDigest`] of each array's length followed by the
/// bit patterns of its elements, array after array. Equal digests mean
/// bit-for-bit equal outputs. [`Memory::digest`](crate::Memory::digest)
/// hashes the same stream out of a live memory.
pub fn snapshot_digest(arrays: &[Vec<f64>]) -> u64 {
    let mut h = WordDigest::new();
    for a in arrays {
        h.write_word(a.len() as u64);
        h.write(a);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, a word at a time, with the arithmetic spelled out.
    fn reference(words: &[u64]) -> u64 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(i as u64 + 1);
        }
        let padded = words.len().div_ceil(8) * 8;
        for k in 0..padded {
            let w = words.get(k).copied().unwrap_or(0);
            lanes[k % 8] = ((lanes[k % 8] ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(29);
        }
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for w in std::iter::once(words.len() as u64).chain(lanes) {
            h = ((h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(29);
        }
        mix(h)
    }

    fn values(words: &[u64]) -> Vec<f64> {
        words.iter().map(|&w| f64::from_bits(w)).collect()
    }

    fn digest_of(words: &[u64]) -> u64 {
        let mut h = WordDigest::new();
        h.write(&values(words));
        h.finish()
    }

    fn ramp(n: u64) -> Vec<u64> {
        (0..n)
            .map(|k| k.wrapping_mul(0x0123_4567_89AB_CDEF))
            .collect()
    }

    #[test]
    fn the_blocked_path_equals_the_word_at_a_time_definition() {
        let ramp = ramp(10_000);
        for n in (0..=3 * LANES + 1).chain([ramp.len()]) {
            let words = &ramp[..n];
            assert_eq!(digest_of(words), reference(words), "{n} words, one write");
            let mut h = WordDigest::new();
            words.iter().for_each(|&w| h.write_word(w));
            assert_eq!(h.finish(), reference(words), "{n} words, word by word");
        }
    }

    /// As FNV has its published vectors: the function must not drift.
    #[test]
    fn pinned_vectors() {
        assert_eq!(digest_of(&[]), 0xadde_7b25_41fc_9e5d);
        assert_eq!(digest_of(&[1]), 0x3835_46dd_d48f_5b42);
        assert_eq!(digest_of(&ramp(10_000)), 0x6e9a_4e64_0f0d_fc16);
    }

    #[test]
    fn finish_does_not_disturb_the_stream() {
        let words = ramp(21);
        let mut h = WordDigest::new();
        h.write(&values(&words[..13]));
        let _ = h.finish();
        h.write(&values(&words[13..]));
        assert_eq!(h.finish(), reference(&words));
    }

    /// Three arrays whose 3 + 35 words end in a partial block.
    fn snapshot() -> Vec<Vec<f64>> {
        let mut k = 0;
        [5, 19, 11]
            .map(|n| {
                (0..n)
                    .map(|_| {
                        k += 1;
                        1.0 + 0.37 * k as f64
                    })
                    .collect()
            })
            .to_vec()
    }

    #[test]
    fn any_one_bit_of_any_one_element_changes_the_digest() {
        let base = snapshot();
        let want = snapshot_digest(&base);
        for a in 0..base.len() {
            for i in 0..base[a].len() {
                for bit in 0..64 {
                    let mut flipped = base.clone();
                    flipped[a][i] = f64::from_bits(base[a][i].to_bits() ^ (1 << bit));
                    assert_ne!(snapshot_digest(&flipped), want, "array {a}[{i}], bit {bit}");
                }
            }
        }
    }

    /// Neighbours sit in different lanes; elements `LANES` and `2 * LANES`
    /// apart share one.
    #[test]
    fn swapping_two_elements_changes_the_digest() {
        let base = snapshot();
        let want = snapshot_digest(&base);
        for distance in [1, LANES, 2 * LANES] {
            for i in 0..base[1].len() - distance {
                let mut swapped = base.clone();
                swapped[1].swap(i, i + distance);
                assert_ne!(snapshot_digest(&swapped), want, "{i} <-> {}", i + distance);
            }
        }
    }

    #[test]
    fn array_lengths_are_part_of_the_stream() {
        let base = snapshot();
        let mut moved = base.clone();
        let last = moved[0].pop().unwrap();
        moved[1].insert(0, last);
        assert_eq!(moved.concat(), base.concat(), "the same elements in order");
        assert_ne!(snapshot_digest(&moved), snapshot_digest(&base));

        let small = [vec![], vec![0.0], vec![-0.0], vec![0.0, 0.0]];
        let digests: Vec<u64> = small
            .iter()
            .map(|a| snapshot_digest(std::slice::from_ref(a)))
            .collect();
        for (i, x) in digests.iter().enumerate() {
            for (j, y) in digests.iter().enumerate().skip(i + 1) {
                assert_ne!(x, y, "{:?} vs {:?}", small[i], small[j]);
            }
        }
    }

    proptest! {
        /// Any cutting of a word stream into `write` and `write_word`
        /// calls gives the digest of the stream.
        #[test]
        fn every_partition_of_a_stream_gives_one_digest(
            words in prop::collection::vec(any::<u64>(), 0..80),
            cuts in prop::collection::vec((0usize..12, any::<bool>()), 0..40),
        ) {
            let want = reference(&words);
            let mut h = WordDigest::new();
            let mut rest = &words[..];
            for (len, word_wise) in cuts {
                let (piece, tail) = rest.split_at(len.min(rest.len()));
                if word_wise {
                    piece.iter().for_each(|&w| h.write_word(w));
                } else {
                    h.write(&values(piece));
                }
                rest = tail;
            }
            h.write(&values(rest));
            prop_assert_eq!(h.finish(), want);
        }
    }
}
