//! The model checker evaluates its safety properties at every explored
//! state, so `Agreement` and `Validity` must not allocate when the state
//! is fine. A counting global allocator pins that: it counts the
//! allocations made on the current thread, and the checks run between two
//! readings of the counter.

use bne_core::mc::{Agreement, Property, StateView, Validity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn properties_do_not_allocate_on_a_good_state() {
    let agreement = Agreement::new(vec![0, 1, 2, 3, 4]);
    let validity = Validity::new(vec![0, 1, 2, 3, 4], [0, 1]);
    let decisions = [Some(1), None, Some(1), Some(1), None];
    let crashed = [false; 5];
    let view = StateView {
        decisions: &decisions,
        crashed: &crashed,
    };
    let mut verdicts = (None, None);
    let allocations = allocations_during(|| {
        verdicts = (agreement.check(&view), validity.check(&view));
    });
    assert_eq!(verdicts, (None, None), "the state is fine");
    assert_eq!(allocations, 0, "a passing check must not allocate");

    // the counter does see allocations: a violation words its witness
    let split = [Some(1), Some(0), None, None, None];
    let bad = StateView {
        decisions: &split,
        crashed: &crashed,
    };
    let mut witness = None;
    assert!(allocations_during(|| witness = agreement.check(&bad)) > 0);
    assert!(witness.is_some());
}
