//! Seeded input generation: a SplitMix64 stream, a Fisher-Yates
//! shuffle, and a Zipf-weighted deck. The seed only ever reaches these; the
//! program under test sees the generated inputs.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and `stream` (so one benchmark seed
    /// feeds several independent streams).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// How often each of `n` ranks appears in a multiset of `len` items
/// weighted by Zipf with exponent `s` (rank `k` in proportion to
/// `1 / (k + 1)^s`), rounded by largest remainder so the counts sum to
/// `len` exactly.
pub fn zipf_counts(n: usize, s: f64, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| (exact[b].fract()).total_cmp(&exact[a].fract()));
    let short = len - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// An endless stream of ranks dealt from a Zipf-weighted deck that is
/// reshuffled every time it runs out.
///
/// Every full deck holds exactly the same multiset, so two streams of
/// equal length carry the same mix of ranks whatever their seeds: the
/// seed decides the order only. Independent draws would let the share of
/// the rare, expensive ranks wander by several percent from seed to
/// seed, and a throughput that the rare ranks dominate with it.
#[derive(Clone, Debug)]
pub struct Deck {
    rng: Rng,
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// A deck of `len` cards over `n` ranks, Zipf exponent `s`.
    pub fn new(rng: Rng, n: usize, s: f64, len: usize) -> Deck {
        let cards: Vec<usize> = zipf_counts(n, s, len)
            .iter()
            .enumerate()
            .flat_map(|(rank, &count)| std::iter::repeat_n(rank, count))
            .collect();
        let next = cards.len();
        Deck { rng, cards, next }
    }

    /// Deals the next `n` ranks.
    pub fn deal(&mut self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                if self.next == self.cards.len() {
                    self.rng.shuffle(&mut self.cards);
                    self.next = 0;
                }
                self.next += 1;
                self.cards[self.next - 1]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed, 1);
        let perm = rng.permutation(23);
        (perm, Deck::new(rng, 24, 1.0, 256).deal(500))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(draws(1995), draws(1995));
        let (p1, d1) = draws(1995);
        let (p2, d2) = draws(7);
        assert_ne!(p1, p2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3, 0).permutation(23);
        p.sort_unstable();
        assert_eq!(p, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_counts_sum_to_the_deck_and_fall_with_rank() {
        let counts = zipf_counts(24, 1.0, 256);
        assert_eq!(counts.iter().sum::<usize>(), 256);
        // 256 / H(24) = 67.8 for rank 0, half of that for rank 1.
        assert_eq!((counts[0], counts[1], counts[23]), (68, 34, 3));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn every_full_deck_holds_the_same_mix_under_any_seed() {
        let mix = |seed: u64, skip: usize| {
            let mut deck = Deck::new(Rng::new(seed, 0), 24, 1.0, 256);
            deck.deal(256 * skip);
            let mut cards = deck.deal(256);
            cards.sort_unstable();
            cards
        };
        assert_eq!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(1, 0), mix(1, 3));
    }
}
