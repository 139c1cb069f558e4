//! Allocation ratchet for the pair test and the sequence analysis,
//! counted by a thread-local counting allocator (so tests running in
//! parallel on other threads do not disturb the count).
//!
//! - A pair the closed form solves allocates once: its distance vector.
//! - `analyze_sequence` over each suite text allocates at most one
//!   vector per dependence and per nest, plus [`SLACK`].

use sp_dep::{analyze_sequence, ref_distance, PairDistance};
use sp_ir::{parse_sequence, AffineExpr, ArrayId, ArrayRef, LoopBounds, LoopNest, LoopSequence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` made on the
/// calling thread while [`COUNTING`] is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// What `analyze_sequence` may allocate beyond one vector per dependence
/// and per nest: the reference list and its per-nest starts, the pair
/// test's scratch distance, validation's bounds, the nest list, and the
/// dependence list's growth (one allocation per doubling). The suite
/// needs 6 to 9 (LL18: 30 dependences, so four for the growth).
const SLACK: u64 = 10;

fn nest(bounds: &[(i64, i64)]) -> LoopNest {
    let b: Vec<LoopBounds> = bounds
        .iter()
        .map(|&(lo, hi)| LoopBounds::new(lo, hi))
        .collect();
    LoopNest::new("L", b, vec![])
}

fn aref(subs: &[(Vec<i64>, i64)]) -> ArrayRef {
    ArrayRef::new(
        ArrayId(0),
        subs.iter()
            .map(|(h, c)| AffineExpr::new(h.clone(), *c))
            .collect(),
    )
}

#[test]
fn a_closed_form_pair_allocates_once_for_its_distance() {
    let (n1, n2) = (nest(&[(1, 30), (1, 30)]), nest(&[(2, 29), (1, 30)]));
    let cases = [
        // a[i0, i1] -> a[i0-1, i1+1]: distance (1, -1).
        (
            aref(&[(vec![1, 0], 0), (vec![0, 1], 0)]),
            aref(&[(vec![1, 0], -1), (vec![0, 1], 1)]),
            Some(vec![Some(1), Some(-1)]),
        ),
        // a[2*i0, 5] -> a[2*i0+1, 5]: parity differs, independent.
        (
            aref(&[(vec![2, 0], 0), (vec![0, 0], 5)]),
            aref(&[(vec![2, 0], 1), (vec![0, 0], 5)]),
            None,
        ),
        // a[i1] -> a[i1]: level 0 free.
        (
            aref(&[(vec![0, 1], 0)]),
            aref(&[(vec![0, 1], 0)]),
            Some(vec![None, Some(0)]),
        ),
    ];
    for (src, snk, want) in cases {
        let (got, n) = allocations(|| ref_distance(&src, &n1, &snk, &n2));
        let want = match want {
            Some(d) => PairDistance::Distance(d),
            None => PairDistance::Independent,
        };
        assert_eq!(got, want, "{src:?} -> {snk:?}");
        assert_eq!(n, 1, "{src:?} -> {snk:?}: {n} allocations");
    }
}

/// The 23 texts the front-end benchmark compiles: the paper's suite at
/// scale 0.125 and the example programs.
fn suite() -> Vec<(String, LoopSequence)> {
    let mut out = Vec::new();
    for entry in sp_kernels::all_programs() {
        for (i, seq) in (entry.build)(0.125).sequences.into_iter().enumerate() {
            out.push((format!("{}.seq{i}", entry.meta.name), seq));
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable program");
        let seq = parse_sequence(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path.file_name().expect("a file").to_string_lossy();
        out.push((name.into_owned(), seq));
    }
    out
}

#[test]
fn analysis_allocates_per_dependence_and_per_nest() {
    let texts = suite();
    assert_eq!(texts.len(), 23);
    let mut over = Vec::new();
    for (name, seq) in &texts {
        let (deps, n) = allocations(|| analyze_sequence(seq));
        let deps = deps.unwrap_or_else(|e| panic!("{name}: {e}"));
        let bound = (deps.inter.len() + seq.len()) as u64 + SLACK;
        if n > bound {
            over.push(format!(
                "{name}: {n} allocations for {} deps and {} nests (bound {bound})",
                deps.inter.len(),
                seq.len()
            ));
        }
    }
    assert!(over.is_empty(), "\n{}", over.join("\n"));
}
