//! Proof that the event hot path is allocation-free at steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; once the
//! simulation has warmed up (slab arena, heap vector, batch lane and free
//! list at capacity) the gate is flipped on and a schedule/execute/cancel
//! loop — including batch scheduling from a reused offsets buffer, whose
//! handler is copied as each entry fires — must perform **zero** heap
//! allocations for the default (inline) model event mix.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently while the gate is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use elc_simcore::time::SimDuration;
use elc_simcore::Simulation;

/// Counts allocations (alloc/alloc_zeroed/realloc) while armed. Frees are
/// never counted: releasing warm-up storage is not a hot-path allocation.
struct CountingAlloc;

// Armed per-thread: the libtest harness's main thread blocks on a channel
// while the test thread runs, and setting up its parker can allocate at
// an arbitrary moment inside the measured window. Only the thread driving
// the simulation is the hot path under proof. Const-initialized and
// Drop-free, so reading it inside `alloc` itself never allocates.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    ARMED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Capture-less tick: the smallest possible inline payload (ZST).
fn tick(_sim: &mut Simulation<u64>) {}

/// Model-style handler with a small capture (ids and indices, not cloned
/// structs), still comfortably inline.
fn schedule_captured(sim: &mut Simulation<u64>, delay: SimDuration) -> elc_simcore::queue::EventId {
    let vm: u32 = 17;
    let host: u32 = 3;
    sim.schedule_in(delay, move |s| {
        *s.state_mut() += u64::from(vm) + u64::from(host);
    })
}

/// One steady-state round: schedule two bursts (batches whose handler is
/// copied as each entry fires: a ZST, and one with a small capture) and
/// singles, cancel one, then drain. Identical during warm-up and
/// measurement.
fn round(sim: &mut Simulation<u64>, offsets: &[SimDuration]) {
    sim.schedule_batch(offsets, tick);
    let (course, weight) = (7u64, 2u32);
    sim.schedule_batch(offsets, move |s: &mut Simulation<u64>| {
        *s.state_mut() += course + u64::from(weight);
    });
    let victim = schedule_captured(sim, SimDuration::from_millis(7));
    schedule_captured(sim, SimDuration::from_millis(9));
    sim.schedule_in(SimDuration::from_millis(11), tick);
    assert!(sim.cancel(victim));
    while sim.step() {}
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    let mut sim = Simulation::new(42, 0u64);
    let offsets: Vec<SimDuration> = (0..32).map(SimDuration::from_millis).collect();

    // Warm up: grow the slab arena, heap vector and free list to the
    // working-set size the measured loop needs.
    for _ in 0..16 {
        round(&mut sim, &offsets);
    }

    // Measure: the same loop must now be allocation-free.
    let executed_before = sim.executed();
    ARMED.with(|a| a.set(true));
    for _ in 0..256 {
        round(&mut sim, &offsets);
    }
    ARMED.with(|a| a.set(false));

    let events = sim.executed() - executed_before;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        events >= 256 * 66,
        "loop did not execute the expected events"
    );
    assert_eq!(
        allocs, 0,
        "steady-state hot path allocated {allocs} times over {events} events"
    );
    // The whole mix stayed inline — nothing spilled to a Box.
    assert_eq!(sim.spilled_scheduled(), 0);
    assert!(*sim.state() > 0);
}
