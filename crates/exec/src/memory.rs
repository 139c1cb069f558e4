//! Backing storage for program execution.
//!
//! One flat `Vec<f64>` holds every array of a sequence at the positions a
//! [`MemoryLayout`] dictates — padding and partitioning gaps physically
//! exist in the vector, so the addresses the interpreter emits are exactly
//! the addresses a compiled program would emit.

use crate::digest::WordDigest;
use sp_cache::{LayoutStrategy, MemoryLayout};
use sp_ir::{ArrayId, LoopSequence};
use std::mem::MaybeUninit;
use std::ops::Range;

/// A sequence's arrays materialized in one flat allocation.
#[derive(Clone, Debug)]
pub struct Memory {
    /// The layout mapping (array, index) to addresses/slots.
    pub layout: MemoryLayout,
    /// The flat element store.
    pub data: Vec<f64>,
}

impl Memory {
    /// Allocates (zero-initialized) memory for `seq`'s arrays under the
    /// given layout strategy.
    pub fn new(seq: &LoopSequence, strategy: LayoutStrategy) -> Self {
        Self::with_base(seq, strategy, 0)
    }

    /// Like [`Memory::new`] with an explicit base address for the first
    /// array (used by cache experiments that model allocator placement).
    pub fn with_base(seq: &LoopSequence, strategy: LayoutStrategy, base: u64) -> Self {
        let layout = MemoryLayout::build(&seq.arrays, std::mem::size_of::<f64>(), strategy, base);
        let data = vec![0.0; layout.total_elements()];
        Memory { layout, data }
    }

    /// [`Memory::new`] followed by [`Memory::init_deterministic`], bit for
    /// bit, in one pass over the store: each slot is written once, an
    /// element with its value and a layout gap with `0.0`, where the two
    /// calls zero-fill the whole store and then overwrite the elements.
    pub fn seeded(seq: &LoopSequence, strategy: LayoutStrategy, seed: u64) -> Self {
        let layout = MemoryLayout::build(&seq.arrays, std::mem::size_of::<f64>(), strategy, 0);
        Self::seeded_in(layout, seq, seed)
    }

    /// [`Memory::seeded`] on a layout the caller built (and may have
    /// contracted).
    fn seeded_in(layout: MemoryLayout, seq: &LoopSequence, seed: u64) -> Self {
        const ZERO: MaybeUninit<f64> = MaybeUninit::new(0.0);
        let isa = SeedIsa::detect();
        let n = layout.total_elements();
        let mut data = Vec::with_capacity(n);
        let store = &mut data.spare_capacity_mut()[..n];
        // Every slot below `end` has been written and none at or above it,
        // so a run that starts past `end` zeroes the gap before it, and one
        // that starts below (a contracted array's rows folding back onto
        // its window, a layout placing arrays out of order) overwrites
        // written slots in the order `init_deterministic` would.
        let mut end = 0;
        for_each_seed_run(&layout, seq, seed, |row_hash, k0, run| {
            if run.start > end {
                store[end..run.start].fill(ZERO);
            }
            end = end.max(run.end);
            // SAFETY: `isa` is what `detect` found.
            unsafe { seed_row(isa, row_hash, k0, &mut store[run]) };
        });
        store[end..].fill(ZERO);
        // SAFETY: the walk wrote every slot below `end`, the fill the rest.
        unsafe { data.set_len(n) };
        Memory { layout, data }
    }

    /// Reads `array[idx]`.
    #[inline]
    pub fn get(&self, array: ArrayId, idx: &[i64]) -> f64 {
        self.data[self.layout.slot(array, idx)]
    }

    /// Writes `array[idx]`.
    #[inline]
    pub fn set(&mut self, array: ArrayId, idx: &[i64], v: f64) {
        let slot = self.layout.slot(array, idx);
        self.data[slot] = v;
    }

    /// Fills one array from a function of its index vector.
    pub fn fill_with(&mut self, seq: &LoopSequence, array: ArrayId, f: impl Fn(&[i64]) -> f64) {
        let dims = seq.array(array).dims.clone();
        let space = sp_ir::IterSpace::new(
            dims.iter()
                .map(|&d| (0i64, d as i64 - 1))
                .collect::<Vec<_>>(),
        );
        space.for_each(|p| {
            let slot = self.layout.slot(array, p);
            self.data[slot] = f(p);
        });
    }

    /// Deterministically initializes every array of the sequence with
    /// smooth pseudo-random values (a tiny splitmix-style hash of the
    /// element coordinates and `seed`), so runs are reproducible across
    /// layouts and schedules.
    ///
    /// An element's value is the hash chain `h = salt; for c in coords
    /// { h = round(h, c) }` mapped into (0.5, 1.5). The chain over a
    /// row's outer coordinates is the same for the whole row, so it is
    /// computed once per row and each element costs one round, on the
    /// widest kernel [`SeedIsa::detect`] finds.
    pub fn init_deterministic(&mut self, seq: &LoopSequence, seed: u64) {
        self.init_on(SeedIsa::detect(), seq, seed);
    }

    /// [`Memory::init_deterministic`] on the kernel `isa` names, which
    /// stores the same bits on every ISA (benchmarks time one against the
    /// other).
    ///
    /// # Panics
    /// If `isa` is neither `Scalar` nor what [`SeedIsa::detect`] found.
    pub fn init_on(&mut self, isa: SeedIsa, seq: &LoopSequence, seed: u64) {
        assert!(
            isa == SeedIsa::Scalar || isa == SeedIsa::detect(),
            "{} seeding on a host without it",
            isa.name()
        );
        let Memory { layout, data } = self;
        let data: *mut [f64] = data.as_mut_slice();
        // SAFETY: the kernels store only initialized values, so the slots
        // may be lent out as `MaybeUninit` for the walk.
        let store = unsafe { &mut *(data as *mut [MaybeUninit<f64>]) };
        for_each_seed_run(layout, seq, seed, |row_hash, k0, run| {
            // SAFETY: `isa` is `Scalar` or what `detect` found (asserted).
            unsafe { seed_row(isa, row_hash, k0, &mut store[run]) };
        });
    }

    /// Snapshot of one array's logical contents in row-major order
    /// (independent of padding/gaps), for comparing results across
    /// layouts and schedules: one layout walk and one copy per inner row.
    pub fn snapshot(&self, seq: &LoopSequence, array: ArrayId) -> Vec<f64> {
        let mut out = Vec::with_capacity(seq.array(array).len());
        for_each_run(&self.layout, seq, array, |_, run| {
            out.extend_from_slice(&self.data[run])
        });
        out
    }

    /// Snapshots of all arrays, for whole-program result comparison.
    pub fn snapshot_all(&self, seq: &LoopSequence) -> Vec<Vec<f64>> {
        (0..seq.arrays.len())
            .map(|i| self.snapshot(seq, ArrayId(i as u32)))
            .collect()
    }

    /// The [`WordDigest`] of the word stream `snapshot_all` would hold —
    /// each array's length, then the bit pattern of every element in
    /// logical row-major order — read row by row out of the live store,
    /// so no copy of the arrays exists beside the memory itself. Equal
    /// digests mean bit-for-bit equal arrays.
    pub fn digest(&self, seq: &LoopSequence) -> u64 {
        let mut h = WordDigest::new();
        for (i, a) in seq.arrays.iter().enumerate() {
            h.write_word(a.len() as u64);
            for_each_run(&self.layout, seq, ArrayId(i as u32), |_, run| {
                h.write(&self.data[run])
            });
        }
        h.finish()
    }
}

/// One round of the element hash chain of [`Memory::init_deterministic`].
#[inline(always)]
fn round(h: u64, c: i64) -> u64 {
    let h =
        (h ^ (c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 27)
}

/// The value of the element at inner index `k` of a row whose outer
/// coordinates hash to `row_hash`, in (0.5, 1.5) to keep divisions
/// well-conditioned.
#[inline(always)]
fn seed_value(row_hash: u64, k: i64) -> f64 {
    0.5 + (round(row_hash, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeding walk: every array's runs in declaration and row-major
/// order, each with the hash of its outer coordinates and its first
/// inner index.
fn for_each_seed_run(
    layout: &MemoryLayout,
    seq: &LoopSequence,
    seed: u64,
    mut f: impl FnMut(u64, i64, Range<usize>),
) {
    for i in 0..seq.arrays.len() {
        let array_salt = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for_each_run(layout, seq, ArrayId(i as u32), |first, run| {
            let (&k0, outer) = first.split_last().expect("a run starts at an element");
            f(outer.iter().fold(array_salt, |h, &c| round(h, c)), k0, run);
        });
    }
}

/// Which compilation of the seeding kernel fills a row: the loop is
/// plain Rust compiled twice from `seed_value`, scalar and with
/// AVX-512 enabled for hosts that report it.
///
/// The two store the same bits. Every step of the per-element round is
/// exact at vector width: `vpmullq` keeps the low 64 bits of the
/// product, which is `wrapping_mul`; `h >> 11` is below 2⁵³, so its
/// conversion to f64 (`vcvtqq2pd`) is exact; dividing by 2⁵³ is exact, as
/// a multiplication by 2⁻⁵³ is; and `0.5 + x` is one IEEE addition,
/// rounded the same way in a lane as in a scalar register. Neither the
/// baseline ISA nor AVX2 has a 64-bit vector multiply or a vector
/// 64-bit integer → f64, which is why the fallback stays one element at
/// a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedIsa {
    /// One element at a time, on the build target's baseline.
    Scalar,
    /// AVX-512 F/DQ/VL loops; x86-64 hosts that report `avx512dq` and
    /// `avx512vl`.
    Avx512,
}

impl SeedIsa {
    /// What this host runs: AVX-512 where the CPU reports DQ and VL,
    /// else scalar.
    pub fn detect() -> SeedIsa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512dq") && std::is_x86_feature_detected!("avx512vl") {
            return SeedIsa::Avx512;
        }
        SeedIsa::Scalar
    }

    /// `avx512` or `scalar`, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            SeedIsa::Scalar => "scalar",
            SeedIsa::Avx512 => "avx512",
        }
    }
}

/// Seeds one run: `out[i]` gets the value of inner index `k0 + i`.
///
/// # Safety
/// `isa` must be `Scalar` or what [`SeedIsa::detect`] found.
#[inline(always)]
unsafe fn seed_row(isa: SeedIsa, row_hash: u64, k0: i64, out: &mut [MaybeUninit<f64>]) {
    #[cfg(target_arch = "x86_64")]
    if isa == SeedIsa::Avx512 {
        // SAFETY: forwarded from caller, who says the CPU has AVX-512.
        return unsafe { seed_row_avx512(row_hash, k0, out) };
    }
    let _ = isa;
    seed_row_scalar(row_hash, k0, out)
}

/// The scalar kernel. `black_box` keeps it one element at a time: the
/// two-lane emulation the baseline vectorizer otherwise picks costs
/// 1.4 ns a value against 1.0.
fn seed_row_scalar(row_hash: u64, k0: i64, out: &mut [MaybeUninit<f64>]) {
    for (i, v) in out.iter_mut().enumerate() {
        v.write(seed_value(row_hash, std::hint::black_box(k0 + i as i64)));
    }
}

/// The same loop compiled with AVX-512 enabled, for the vectorizer to
/// run eight lanes an instruction.
///
/// # Safety
/// The CPU must have AVX-512 F, DQ and VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn seed_row_avx512(row_hash: u64, k0: i64, out: &mut [MaybeUninit<f64>]) {
    for (i, v) in out.iter_mut().enumerate() {
        v.write(seed_value(row_hash, k0 + i as i64));
    }
}

/// The one row walker: visits `array`'s elements in row-major order as
/// runs of consecutive slots, calling `f(first, slots)` with the
/// coordinates of each run's first element — one layout walk per run
/// instead of one per element. Runs are slices of the store because the
/// innermost stride is 1 under every [`LayoutStrategy`]: padding extends
/// a row, it never spreads its elements.
///
/// An inner row is one run, except where the array is contracted *and*
/// one-dimensional: the fold applies to the outermost index, which is
/// then also the innermost, so the row's slots start over every `wrap`
/// elements and each window is a run of its own.
fn for_each_run(
    layout: &MemoryLayout,
    seq: &LoopSequence,
    array: ArrayId,
    mut f: impl FnMut(&[i64], Range<usize>),
) {
    let Some((&n, outer)) = seq.array(array).dims.split_last() else {
        return;
    };
    let place = &layout.placements[array.index()];
    assert_eq!(place.strides.last(), Some(&1), "rows are contiguous");
    if let (Some(wrap), true) = (place.wrap, outer.is_empty()) {
        for k0 in (0..n).step_by(wrap) {
            let first = [k0 as i64];
            let slot = layout.slot(array, &first);
            f(&first, slot..slot + wrap.min(n - k0));
        }
        return;
    }
    // Every row's first element: the inner index pinned at 0.
    let rows = sp_ir::IterSpace::new(
        outer
            .iter()
            .map(|&d| (0i64, d as i64 - 1))
            .chain([(0, 0)])
            .collect::<Vec<_>>(),
    );
    rows.for_each(|first| {
        let slot = layout.slot(array, first);
        f(first, slot..slot + n);
    });
}

/// An unsafe shared view of a [`Memory`] for the static-blocked parallel
/// runtime.
///
/// # Safety contract
///
/// The shift-and-peel schedule guarantees (Theorem 1, Appendix I of the
/// paper; enforced by `shift_peel_core::check_blocks`) that within one
/// parallel phase no two processors make *conflicting* accesses (no
/// write/write or read/write pair to the same element), and phases are
/// separated by barriers that order all cross-phase conflicts. Under that
/// schedule, concurrent use of `read`/`write` from multiple threads is
/// race-free. All access goes through raw pointers — no `&mut` aliasing
/// is created.
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    layout: &'a MemoryLayout,
    base: *mut f64,
    len: usize,
}

unsafe impl Send for MemView<'_> {}
unsafe impl Sync for MemView<'_> {}

impl<'a> MemView<'a> {
    /// Creates a shared view over `mem`. The caller must ensure all
    /// concurrent accesses through clones of the view follow the safety
    /// contract above.
    pub fn new(mem: &'a mut Memory) -> Self {
        MemView {
            layout: &mem.layout,
            base: mem.data.as_mut_ptr(),
            len: mem.data.len(),
        }
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &MemoryLayout {
        self.layout
    }

    /// Reads `array[idx]`.
    ///
    /// # Safety
    /// See the type-level contract: no concurrent conflicting write.
    #[inline]
    pub unsafe fn read(&self, array: ArrayId, idx: &[i64]) -> f64 {
        let slot = self.layout.slot(array, idx);
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) }
    }

    /// Writes `array[idx]`.
    ///
    /// # Safety
    /// See the type-level contract: no concurrent access to this element.
    #[inline]
    pub unsafe fn write(&self, array: ArrayId, idx: &[i64], v: f64) {
        let slot = self.layout.slot(array, idx);
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) = v }
    }

    /// Reads a precomputed flat element slot (the compiled-tape fast
    /// path; slots come from [`crate::tape::AccessPat`]s lowered against
    /// this view's layout).
    ///
    /// # Safety
    /// See the type-level contract; `slot` must be in bounds for the
    /// backing store.
    #[inline]
    pub unsafe fn read_slot(&self, slot: usize) -> f64 {
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) }
    }

    /// Writes a precomputed flat element slot (compiled-tape fast path).
    ///
    /// # Safety
    /// See the type-level contract; `slot` must be in bounds for the
    /// backing store.
    #[inline]
    pub unsafe fn write_slot(&self, slot: usize, v: f64) {
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) = v }
    }

    /// Pointer to the row of `n` consecutive slots starting at `slot`
    /// (the row runner reads and writes whole rows in place through it).
    ///
    /// # Safety
    /// `slot + n` must be in bounds for the backing store; every access
    /// through the pointer falls under the type-level contract.
    #[inline]
    pub unsafe fn row_ptr(&self, slot: usize, n: usize) -> *mut f64 {
        debug_assert!(slot + n <= self.len);
        unsafe { self.base.add(slot) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn seq() -> LoopSequence {
        let mut b = SeqBuilder::new("m");
        let a = b.array("a", [4, 4]);
        let c = b.array("c", [4, 4]);
        b.nest("L1", [(0, 3), (0, 3)], |x| {
            let r = x.ld(a, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        b.finish()
    }

    #[test]
    fn get_set_roundtrip() {
        let s = seq();
        let mut m = Memory::new(&s, LayoutStrategy::Contiguous);
        m.set(ArrayId(0), &[1, 2], 42.0);
        assert_eq!(m.get(ArrayId(0), &[1, 2]), 42.0);
        assert_eq!(m.get(ArrayId(1), &[1, 2]), 0.0);
    }

    #[test]
    fn snapshots_ignore_layout() {
        let s = seq();
        let mut m1 = Memory::new(&s, LayoutStrategy::Contiguous);
        let mut m2 = Memory::new(&s, LayoutStrategy::InnerPad(3));
        m1.init_deterministic(&s, 7);
        m2.init_deterministic(&s, 7);
        assert_eq!(m1.snapshot_all(&s), m2.snapshot_all(&s));
        // But the physical footprints differ.
        assert_ne!(m1.data.len(), m2.data.len());
    }

    /// One-, two- and three-dimensional arrays, two of each: the walker's
    /// cases are an array with no outer dimension, rows, and rows under
    /// more than one outer index.
    fn ranks() -> LoopSequence {
        let mut b = SeqBuilder::new("ranks");
        let v = b.array("v", [8]);
        let w = b.array("w", [8]);
        b.array("a", [4, 4]);
        b.array("c", [4, 4]);
        b.array("s", [3, 4, 5]);
        b.array("t", [3, 4, 5]);
        b.nest("L1", [(0, 7)], |x| {
            let r = x.ld(v, [0]);
            x.assign(w, [0], r);
        });
        b.finish()
    }

    /// Every layout strategy, with and without the first array of each
    /// rank contracted (the 1-D one to 3 of its 8 elements).
    fn layouts_of(s: &LoopSequence) -> Vec<(String, Memory)> {
        let strategies = [
            LayoutStrategy::Contiguous,
            LayoutStrategy::InnerPad(3),
            LayoutStrategy::CachePartition(sp_cache::CacheConfig::new(1024, 64, 1)),
        ];
        let mut out = Vec::new();
        for (strategy, contract) in strategies.into_iter().flat_map(|l| [(l, false), (l, true)]) {
            let mut m = Memory::new(s, strategy);
            if contract {
                for (array, wrap) in [(0, 3), (2, 3), (4, 2)] {
                    m.layout.contract(ArrayId(array), wrap);
                }
            }
            out.push((format!("{strategy:?}, contracted {contract}"), m));
        }
        out
    }

    fn points(dims: &[usize]) -> sp_ir::IterSpace {
        sp_ir::IterSpace::new(
            dims.iter()
                .map(|&d| (0i64, d as i64 - 1))
                .collect::<Vec<_>>(),
        )
    }

    /// The row-wise walk behind `snapshot` reads what an element-wise
    /// `get` walk reads, under padding, partitioning gaps and contraction
    /// — of a one-dimensional array too, whose inner index is the folded
    /// one.
    #[test]
    fn snapshot_matches_an_elementwise_walk_under_every_layout() {
        let s = ranks();
        for (what, mut m) in layouts_of(&s) {
            m.init_deterministic(&s, 7);
            for (i, decl) in s.arrays.iter().enumerate() {
                let id = ArrayId(i as u32);
                let mut want = Vec::new();
                points(&decl.dims).for_each(|p| want.push(m.get(id, p)));
                assert_eq!(m.snapshot(&s, id), want, "{what}, array {}", decl.name);
            }
        }
    }

    /// The digest read out of the live store is the digest of the
    /// snapshot, whatever rows the layout cuts the word stream into.
    #[test]
    fn digest_equals_the_snapshot_digest_under_every_layout() {
        let s = ranks();
        for (what, mut m) in layouts_of(&s) {
            m.init_deterministic(&s, 7);
            let want = crate::digest::snapshot_digest(&m.snapshot_all(&s));
            assert_eq!(m.digest(&s), want, "{what}");
        }
    }

    /// The row-wise initialization stores, slot for slot, the bits of its
    /// definition: every element, in row-major order, set to a hash chain
    /// over all its coordinates.
    #[test]
    fn init_matches_the_elementwise_definition() {
        let s = ranks();
        for seed in [0, 7, u64::MAX] {
            for (what, mut m) in layouts_of(&s) {
                let mut want = m.clone();
                for i in 0..s.arrays.len() {
                    let array_salt =
                        seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    want.fill_with(&s, ArrayId(i as u32), |p| {
                        let mut h = array_salt;
                        for &c in p {
                            h ^= (c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            h ^= h >> 27;
                        }
                        0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
                    });
                }
                m.init_deterministic(&s, seed);
                let bits = |m: &Memory| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&m), bits(&want), "{what}, seed {seed}");
            }
        }
    }

    /// Both seeding kernels, called directly so that each runs on a host
    /// that has the wide one, store the bits of the word-at-a-time
    /// definition: every run length up to 67 (every tail a 4- or 8-lane
    /// loop can leave, past a 32-wide unrolled body), offsets on both
    /// sides of zero, random row hashes.
    #[test]
    fn both_seeding_kernels_store_the_definition() {
        let want = |row_hash: u64, k: i64| {
            let mut h = row_hash ^ (k as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut state = 25;
        let isas = [SeedIsa::Scalar, SeedIsa::detect()];
        let mut out = vec![MaybeUninit::new(f64::NAN); 67];
        for len in 0..=67 {
            for k0 in [0, 1, 7, -3, 1 << 40, i64::MIN + 5] {
                let row_hash = crate::schedule::splitmix64(&mut state);
                for isa in isas {
                    let out = &mut out[..len];
                    // SAFETY: `Scalar` or what `detect` found.
                    unsafe { seed_row(isa, row_hash, k0, out) };
                    for (i, v) in out.iter().enumerate() {
                        // SAFETY: the kernel wrote all `len` slots.
                        let got = unsafe { v.assume_init() };
                        let want = want(row_hash, k0.wrapping_add(i as i64));
                        assert_eq!(got.to_bits(), want.to_bits(), "{isa:?}, len {len}, k0 {k0}");
                    }
                }
            }
        }
    }

    /// One pass stores what the zero fill and the seeding do in two, slot
    /// for slot, gaps included: contiguous, padded, partitioned, with and
    /// without contracted arrays (whose folded rows overwrite each other).
    #[test]
    fn seeded_equals_new_then_init_under_every_layout() {
        let s = ranks();
        let bits = |m: &Memory| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for seed in [0, 7, u64::MAX] {
            for (what, mut want) in layouts_of(&s) {
                let got = Memory::seeded_in(want.layout.clone(), &s, seed);
                want.init_deterministic(&s, seed);
                assert_eq!(bits(&got), bits(&want), "{what}, seed {seed}");
            }
            for strategy in [LayoutStrategy::Contiguous, LayoutStrategy::InnerPad(3)] {
                let mut want = Memory::new(&s, strategy);
                want.init_deterministic(&s, seed);
                assert_eq!(bits(&Memory::seeded(&s, strategy, seed)), bits(&want));
            }
        }
    }

    #[test]
    fn deterministic_init_is_stable() {
        let s = seq();
        let mut m1 = Memory::new(&s, LayoutStrategy::Contiguous);
        m1.init_deterministic(&s, 1);
        let mut m2 = Memory::new(&s, LayoutStrategy::Contiguous);
        m2.init_deterministic(&s, 1);
        assert_eq!(m1.data, m2.data);
        let mut m3 = Memory::new(&s, LayoutStrategy::Contiguous);
        m3.init_deterministic(&s, 2);
        assert_ne!(m1.data, m3.data);
        // Values live in (0.5, 1.5).
        assert!(m1
            .snapshot(&s, ArrayId(0))
            .iter()
            .all(|&v| v > 0.5 && v < 1.5));
    }

    #[test]
    fn memview_reads_and_writes() {
        let s = seq();
        let mut m = Memory::new(&s, LayoutStrategy::Contiguous);
        {
            let v = MemView::new(&mut m);
            unsafe {
                v.write(ArrayId(0), &[3, 3], 5.0);
                assert_eq!(v.read(ArrayId(0), &[3, 3]), 5.0);
            }
        }
        assert_eq!(m.get(ArrayId(0), &[3, 3]), 5.0);
    }
}
