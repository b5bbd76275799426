//! Arena slot recycling under a mixed inline/spilled event workload.
//!
//! The slab arena reuses slots; each slot owns a fixed-size inline payload
//! buffer (`elc_simcore::event`) whose occupant may be stored in place or
//! spilled to a `Box`. These tests drive slots through many reuses with
//! payloads straddling the inline threshold and check the two properties
//! that matter:
//!
//! * **no slot aliasing** — an event that reuses a slot fires with its own
//!   capture, never with the one an earlier occupant left behind;
//! * **exactly-once `Drop`** — every capture is released once, by its
//!   handler or with the simulation if it is still pending: no leak, no
//!   double-drop.
//!
//! Batch-scheduled events in time order wait in the queue's batch lane,
//! which stores each batch's handler once and copies it as each entry
//! fires; `batch_scheduled_captures_are_released_exactly_once` covers it.

use std::sync::Arc;
use std::sync::Mutex;

use elc_simcore::event::INLINE_EVENT_BYTES;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

/// Spills: one byte over the inline payload threshold.
const SPILL_PAD: usize = INLINE_EVENT_BYTES + 1;

#[test]
fn recycled_slots_fire_with_their_own_captures() {
    // Waves of events alternating inline and spilled payloads, each wave
    // fired before the next is scheduled, so every wave reuses the slots
    // the last one freed. The free list is LIFO, so a wave takes them in
    // reverse order: with twelve events a wave, a slot that held a spilled
    // payload in one wave holds an inline one in the next, and the other
    // way round. Each event must fire with exactly its own capture, and
    // release it once.
    let fired: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(11, ());

    for wave in 0..8u32 {
        let at = SimTime::from_secs(u64::from(wave) + 1);
        for k in 0..12u32 {
            let tag = wave * 100 + k;
            let log = Arc::clone(&fired);
            if k % 2 == 0 {
                sim.schedule_at(at, move |_s: &mut Simulation<()>| {
                    log.lock().unwrap().push(tag);
                });
            } else {
                let pad = [tag as u8; SPILL_PAD];
                sim.schedule_at(at, move |_s: &mut Simulation<()>| {
                    assert_eq!(std::hint::black_box(pad)[0], tag as u8);
                    log.lock().unwrap().push(tag);
                });
            }
        }
        let stats = sim.run();
        assert_eq!(stats.pending, 0, "wave {wave} left events pending");
        // Events at the same instant fire in schedule order.
        let expected: Vec<u32> = (0..12).map(|k| wave * 100 + k).collect();
        assert_eq!(
            std::mem::take(&mut *fired.lock().unwrap()),
            expected,
            "wave {wave} fired the wrong captures"
        );
    }
    assert_eq!(sim.executed(), 8 * 12);
    assert_eq!((sim.inline_scheduled(), sim.spilled_scheduled()), (48, 48));
    assert_eq!(
        Arc::strong_count(&fired),
        1,
        "firing leaked or double-freed a capture"
    );
}

#[test]
fn dropping_the_simulation_releases_pending_mixed_payloads() {
    let token = Arc::new(());
    {
        let mut sim = Simulation::new(5, ());
        for i in 0..10 {
            let keep = Arc::clone(&token);
            if i % 2 == 0 {
                sim.schedule_in(SimDuration::from_secs(1), move |_s| drop(keep));
            } else {
                let pad = [0u8; SPILL_PAD];
                sim.schedule_in(SimDuration::from_secs(1), move |_s| {
                    std::hint::black_box(&pad);
                    drop(keep);
                });
            }
        }
        assert_eq!(Arc::strong_count(&token), 11);
        // `sim` dropped here with all ten events still pending.
    }
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "dropping the queue must release every pending capture exactly once"
    );
}

/// Schedules two batches at 1–4 s whose handlers capture `token`: an
/// inline one, then a spilled one.
fn schedule_two_batches(sim: &mut Simulation<u32>, token: &Arc<()>) {
    let offsets: Vec<SimDuration> = (1..=4).map(SimDuration::from_secs).collect();
    let keep = Arc::clone(token);
    sim.schedule_batch(&offsets, move |s: &mut Simulation<u32>| {
        let _ = &keep;
        *s.state_mut() += 1;
    });
    let keep = Arc::clone(token);
    let pad = [0u8; SPILL_PAD];
    sim.schedule_batch(&offsets, move |s: &mut Simulation<u32>| {
        std::hint::black_box(&pad);
        let _ = &keep;
        *s.state_mut() += 1;
    });
}

#[test]
fn batch_scheduled_captures_are_released_exactly_once() {
    // A batch's handler is stored once, with the batch's entries in the
    // queue's batch lane, and copied as each entry fires; an entry that
    // precedes the lane's tail takes the heap with its own copy. So a
    // capture is held once per batch with entries still in the lane, plus
    // once per pending heap entry. Each copy must release its capture
    // after its handler, the batch's last entry consumes the handler
    // itself, and dropping the simulation releases every pending one
    // exactly once.
    let token = Arc::new(());
    // The token's strong count with `lane_batches` batches in the lane
    // and `heap_entries` entries in the heap.
    let held = |lane_batches: usize, heap_entries: usize| 1 + lane_batches + heap_entries;
    {
        let mut sim = Simulation::new(9, 0u32);
        // The first batch is sorted from an empty lane: all four entries
        // join it. The second starts before the lane's tail (4 s): its
        // entries at 1–3 s take the heap, and the one at 4 s joins the
        // lane.
        schedule_two_batches(&mut sim, &token);
        assert_eq!(sim.inline_scheduled(), 4);
        assert_eq!(sim.spilled_scheduled(), 4);
        assert_eq!(
            Arc::strong_count(&token),
            held(2, 3),
            "one capture per batch in the lane and per heap entry"
        );

        // Both batches' entries at 1 s and 2 s fire, each a copy. Still
        // pending: the first batch's at 3 s and 4 s in the lane, the
        // second's at 3 s in the heap and at 4 s in the lane.
        let stats = sim.run_until(SimTime::from_secs(2));
        assert_eq!((stats.executed, stats.pending), (4, 4));
        assert_eq!(
            Arc::strong_count(&token),
            held(2, 1),
            "fired entries kept captures"
        );
        // `sim` dropped here with four entries still pending.
    }
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "dropping the simulation must release every pending batch capture once"
    );

    // Run to the end: the copies release their captures as they fire, and
    // each batch's last entry consumes its handler.
    let mut sim = Simulation::new(9, 0u32);
    schedule_two_batches(&mut sim, &token);
    let stats = sim.run();
    assert_eq!((stats.executed, *sim.state()), (8, 8));
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "firing every entry leaked or double-freed a capture"
    );
}
