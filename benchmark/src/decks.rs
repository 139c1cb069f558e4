//! The timed pass's log, and the yardstick its numbers are read against.
//!
//! The sandbox shares its cores. For seconds at a stretch the same code
//! runs 15-30 % slower, then fast again (a single-threaded loop of
//! dependent multiply-adds flips between 2.95 ms and 3.78 ms for hours),
//! so the median of ten seconds of ops says as much about the neighbours
//! as about the program: across ten runs of unchanged code the medians of
//! `compile-cold` spread by 21 % of their median.
//!
//! Every deck is therefore followed at once by a *reference*: code that no
//! layer under test contains and that loads the host the way the deck
//! does. What is logged is the deck's time over its reference's time,
//! times the reference's nominal time, a constant: milliseconds at
//! nominal host speed. Slow stretches last far longer than a deck, so deck
//! and reference share them and the ratio does not. On a quiet host the
//! corrected and the measured time are the same number.

use crate::stats::{median, quantile_of};
use std::hint::black_box;
use std::time::Instant;

/// The single-threaded reference: `iters` dependent multiply-adds.
/// Returns its wall time in ms.
pub fn spin_ms(iters: u64) -> f64 {
    let t = Instant::now();
    let mut x = 1.0f64;
    for i in 0..black_box(iters) {
        x = x * 1.000_000_1 + i as f64 * 1e-12;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Nominal cost of one [`spin_ms`] iteration on this sandbox's host with
/// the sibling hyperthread idle, in ms.
pub const SPIN_MS_PER_ITER: f64 = 2.95 / 2e6;

/// One entry per deck.
///
/// A deck is one pass over the workload's mix of ops, so every deck does
/// the same work: one run for the run workloads, one round of the 23
/// texts for `compile-cold`, one shuffled deck of 128 jobs for
/// `serve-mixed`. A few numbers per deck are kept, in storage reserved up
/// front, so that the log's own growth does not show up in
/// `peak_heap_mb`.
pub struct DeckLog {
    pub(crate) nominal_ref_ms: f64,
    /// Median op time within the deck, corrected, ms.
    pub(crate) mid_ms: Vec<f64>,
    /// Slowest op of the deck, corrected, ms.
    pub(crate) max_ms: Vec<f64>,
    /// Wall time of the deck, corrected, s.
    pub(crate) wall_s: Vec<f64>,
    /// Median op time within the deck as measured, ms.
    pub(crate) raw_mid_ms: Vec<f64>,
    /// The reference as measured, ms.
    pub(crate) ref_ms: Vec<f64>,
}

impl DeckLog {
    /// An empty log for a reference that nominally takes `nominal_ref_ms`.
    pub fn new(nominal_ref_ms: f64) -> DeckLog {
        const RESERVED: usize = 1 << 14;
        let reserved = || Vec::with_capacity(RESERVED);
        DeckLog {
            nominal_ref_ms,
            mid_ms: reserved(),
            max_ms: reserved(),
            wall_s: reserved(),
            raw_mid_ms: reserved(),
            ref_ms: reserved(),
        }
    }

    /// Logs a deck whose ops took `op_ms` each and `wall_s` together, with
    /// its reference at `ref_ms`.
    pub fn push(&mut self, op_ms: &[f64], wall_s: f64, ref_ms: f64) {
        let k = self.nominal_ref_ms / ref_ms;
        let mid = median(op_ms);
        self.mid_ms.push(mid * k);
        self.max_ms.push(quantile_of(op_ms, 100) * k);
        self.wall_s.push(wall_s * k);
        self.raw_mid_ms.push(mid);
        self.ref_ms.push(ref_ms);
    }

    /// Logs a deck that is a single op.
    pub fn push_op(&mut self, ms: f64, ref_ms: f64) {
        self.push(&[ms], ms / 1e3, ref_ms);
    }

    pub fn len(&self) -> usize {
        self.wall_s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wall_s.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_shared_with_the_reference_cancels() {
        let mut log = DeckLog::new(2.0);
        log.push(&[10.0, 30.0, 20.0], 0.060, 2.0);
        // The same deck while the host runs 1.3 times slower.
        log.push(&[13.0, 39.0, 26.0], 0.078, 2.6);
        assert!((log.mid_ms[0] - 20.0).abs() < 1e-9 && (log.mid_ms[1] - 20.0).abs() < 1e-9);
        assert!((log.max_ms[1] - 30.0).abs() < 1e-9);
        assert!((log.wall_s[1] - 0.060).abs() < 1e-9);
        assert_eq!(log.raw_mid_ms, vec![20.0, 26.0]);
    }

    #[test]
    fn the_spin_reference_grows_with_its_length() {
        let short = (0..5)
            .map(|_| spin_ms(20_000))
            .fold(f64::INFINITY, f64::min);
        let long = (0..5)
            .map(|_| spin_ms(400_000))
            .fold(f64::INFINITY, f64::min);
        assert!(long > 5.0 * short, "{short} ms vs {long} ms");
    }
}
