//! Arena slot recycling under a mixed inline/spilled event workload.
//!
//! The slab arena reuses slots; each slot now owns a fixed-size inline
//! payload buffer (`elc_simcore::event`) whose occupant may be stored in
//! place or spilled to a `Box`. These tests drive slots through many
//! generations with payloads straddling the inline threshold and check the
//! two properties that matter:
//!
//! * **no slot aliasing** — a stale `EventId` from an earlier generation
//!   never cancels (or observes) the event currently occupying the slot;
//! * **exactly-once `Drop`** — a cancelled spilled event releases its
//!   captures once: no leak, no double-drop.
//!
//! Batch-scheduled events in time order wait in the queue's batch lane,
//! which stores each batch's handler once and copies it as each entry
//! fires; `schedule_batch` returns no ids, so nothing cancels them. Single
//! events at or after the latest one wait in the push run, where a
//! cancelled entry stays as a tombstone until the run's front passes it:
//! `Simulation::cancel` reaches that path. The last two tests cover them.

use std::sync::Arc;
use std::sync::Mutex;

use elc_simcore::event::INLINE_EVENT_BYTES;
use elc_simcore::queue::EventId;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

/// Spills: one byte over the inline payload threshold.
const SPILL_PAD: usize = INLINE_EVENT_BYTES + 1;

fn slot_of(id: EventId) -> u32 {
    (id.as_u64() & 0xffff_ffff) as u32
}

fn generation_of(id: EventId) -> u32 {
    (id.as_u64() >> 32) as u32
}

#[test]
fn stale_ids_never_cancel_recycled_slots() {
    let mut sim = Simulation::new(7, 0u64);

    // Drive one slot through many generations, alternating the payload
    // across the inline threshold each time. Every retired id must stay
    // dead even though the slot index is being reused.
    let mut stale: Vec<EventId> = Vec::new();
    for round in 0..32u32 {
        let id = if round % 2 == 0 {
            let small = round; // 4 bytes: inline
            sim.schedule_in(SimDuration::from_secs(1), move |s: &mut Simulation<u64>| {
                *s.state_mut() += u64::from(small);
            })
        } else {
            let pad = [round as u8; SPILL_PAD]; // over threshold: spilled
            sim.schedule_in(SimDuration::from_secs(1), move |s: &mut Simulation<u64>| {
                *s.state_mut() += u64::from(std::hint::black_box(pad)[0]);
            })
        };

        if let Some(&prev) = stale.last() {
            // The freed slot is recycled LIFO, so consecutive rounds share
            // a slot index but never a generation.
            assert_eq!(
                slot_of(prev),
                slot_of(id),
                "round {round}: slot not recycled"
            );
            assert_ne!(
                generation_of(prev),
                generation_of(id),
                "round {round}: generation did not advance"
            );
        }

        // Every stale id must refuse to cancel the new occupant.
        for &old in &stale {
            assert!(!sim.cancel(old), "stale id {old:?} aliased a live slot");
        }
        assert!(sim.cancel(id), "fresh id must cancel its own event");
        assert!(!sim.cancel(id), "double-cancel must be a no-op");
        stale.push(id);
    }

    // Nothing should ever have fired.
    let stats = sim.run();
    assert_eq!(stats.executed, 0);
    assert_eq!(*sim.state(), 0);
    // 16 inline + 16 spilled were scheduled (then cancelled).
    assert_eq!(sim.inline_scheduled(), 16);
    assert_eq!(sim.spilled_scheduled(), 16);
}

#[test]
fn mixed_generations_fire_with_correct_payloads() {
    // Interleave inline and spilled events, cancel a third of them, and
    // check the survivors fire with exactly their own captures — a slot
    // that held a spilled payload in one generation and an inline payload
    // in the next must not mix them up.
    let fired: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(11, ());

    let mut expected: Vec<u32> = Vec::new();
    let mut pending: Vec<(u32, EventId)> = Vec::new();
    for wave in 0..8u32 {
        for k in 0..12u32 {
            let tag = wave * 100 + k;
            let at = SimTime::from_secs(u64::from(wave) + 1);
            let log = Arc::clone(&fired);
            let id = if k % 2 == 0 {
                sim.schedule_at(at, move |_s: &mut Simulation<()>| {
                    log.lock().unwrap().push(tag);
                })
            } else {
                let pad = [0u8; SPILL_PAD];
                sim.schedule_at(at, move |_s: &mut Simulation<()>| {
                    std::hint::black_box(&pad);
                    log.lock().unwrap().push(tag);
                })
            };
            pending.push((tag, id));
        }
        // Cancel every third event of the wave; recycled slots are refilled
        // by the next wave's mix.
        let mut idx = 0;
        pending.retain(|&(_, id)| {
            let keep = idx % 3 != 2;
            idx += 1;
            if !keep {
                assert!(sim.cancel(id));
            }
            keep
        });
        expected.extend(pending.drain(..).map(|(tag, _)| tag));
    }

    let stats = sim.run();
    assert_eq!(stats.executed as usize, expected.len());
    // Events at the same instant fire in schedule order, so the log is
    // exactly the per-wave survivor order.
    assert_eq!(*fired.lock().unwrap(), expected);
}

#[test]
fn cancelled_spilled_events_drop_captures_exactly_once() {
    let token = Arc::new(());
    let mut sim = Simulation::new(3, ());

    // One spilled and one inline event, both capturing the token.
    let keep = Arc::clone(&token);
    let pad = [0u8; SPILL_PAD];
    let spilled_id = sim.schedule_in(SimDuration::from_secs(1), move |_s| {
        std::hint::black_box(&pad);
        drop(keep);
    });
    let keep = Arc::clone(&token);
    let inline_id = sim.schedule_in(SimDuration::from_secs(1), move |_s| {
        drop(keep);
    });
    assert_eq!(sim.spilled_scheduled(), 1);
    assert_eq!(sim.inline_scheduled(), 1);
    assert_eq!(Arc::strong_count(&token), 3);

    // Cancelling the spilled event must free its Box and run the capture's
    // Drop exactly once.
    assert!(sim.cancel(spilled_id));
    assert_eq!(
        Arc::strong_count(&token),
        2,
        "cancel leaked the spilled capture"
    );
    assert!(!sim.cancel(spilled_id), "stale id must not double-drop");
    assert_eq!(Arc::strong_count(&token), 2);

    assert!(sim.cancel(inline_id));
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "cancel leaked the inline capture"
    );

    // Refill the recycled slots with firing events: captures are released
    // by the call itself, again exactly once.
    let keep = Arc::clone(&token);
    let pad = [0u8; SPILL_PAD];
    sim.schedule_in(SimDuration::from_secs(1), move |_s| {
        std::hint::black_box(&pad);
        drop(keep);
    });
    let stats = sim.run();
    assert_eq!(stats.executed, 1);
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "firing leaked or double-freed"
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
    // exactly once. An id retired before the batches must not cancel the
    // event that reuses its slot.
    let token = Arc::new(());
    // The token's strong count with `lane_batches` batches in the lane
    // and `heap_entries` entries in the heap.
    let held = |lane_batches: usize, heap_entries: usize| 1 + lane_batches + heap_entries;
    {
        let mut sim = Simulation::new(9, 0u32);
        let keep = Arc::clone(&token);
        let retired = sim.schedule_in(SimDuration::from_secs(1), move |_s| drop(keep));
        assert!(sim.cancel(retired));
        assert_eq!(Arc::strong_count(&token), 1);

        // The first batch is sorted from an empty lane: all four entries
        // join it. The second starts before the lane's tail (4 s): its
        // entries at 1–3 s take the heap, the first in the retired slot,
        // and the one at 4 s joins the lane.
        schedule_two_batches(&mut sim, &token);
        assert_eq!(sim.inline_scheduled(), 1 + 4);
        assert_eq!(sim.spilled_scheduled(), 4);
        assert_eq!(
            Arc::strong_count(&token),
            held(2, 3),
            "one capture per batch in the lane and per heap entry"
        );
        assert!(
            !sim.cancel(retired),
            "a retired id cancelled the heap entry reusing its slot"
        );
        assert_eq!(Arc::strong_count(&token), held(2, 3));

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

#[test]
fn cancelled_push_run_events_release_captures_once_and_recycle_slots() {
    // Single events at non-decreasing times all join the queue's push run,
    // so the two guarded events wait behind a live front and ahead of a
    // live tail: cancelling them leaves tombstones in the middle of the run.
    let token = Arc::new(());
    let mut sim = Simulation::new(13, 0u32);
    let front = sim.schedule_in(SimDuration::from_secs(1), |s: &mut Simulation<u32>| {
        *s.state_mut() += 1;
    });
    let keep = Arc::clone(&token);
    let inline = sim.schedule_in(SimDuration::from_secs(2), move |_s| drop(keep));
    let keep = Arc::clone(&token);
    let pad = [0u8; SPILL_PAD];
    let spilled = sim.schedule_in(SimDuration::from_secs(3), move |_s| {
        std::hint::black_box(&pad);
        drop(keep);
    });
    sim.schedule_in(SimDuration::from_secs(4), |s: &mut Simulation<u32>| {
        *s.state_mut() += 1;
    });
    assert_eq!((sim.inline_scheduled(), sim.spilled_scheduled()), (3, 1));
    assert_eq!(Arc::strong_count(&token), 3);
    assert_eq!(sim.pending(), 4);

    // Each cancel releases its capture at once, exactly once.
    assert!(sim.cancel(spilled));
    assert_eq!(
        Arc::strong_count(&token),
        2,
        "cancel kept the spilled capture"
    );
    assert!(!sim.cancel(spilled), "a second cancel must miss");
    assert_eq!(
        Arc::strong_count(&token),
        2,
        "a second cancel dropped again"
    );
    assert!(sim.cancel(inline));
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "cancel kept the inline capture"
    );
    assert_eq!(sim.pending(), 2, "tombstones counted as pending");

    // Until the front passes them, the tombstones keep their slots.
    let tombstones = [slot_of(inline), slot_of(spilled)];
    let early = sim.schedule_in(SimDuration::from_secs(5), |_s| {});
    assert!(
        !tombstones.contains(&slot_of(early)),
        "a tombstone's slot was reused before the front passed it"
    );
    assert!(sim.cancel(early));

    // Firing the front frees it and both tombstones behind it; the next
    // three events reuse those slots.
    let stats = sim.run_until(SimTime::from_secs(1));
    assert_eq!((stats.executed, stats.pending), (1, 1));
    assert!(!sim.cancel(front), "a fired event cannot be cancelled");
    let keep = Arc::clone(&token);
    let a = sim.schedule_in(SimDuration::from_secs(7), move |_s| drop(keep));
    let keep = Arc::clone(&token);
    let pad = [0u8; SPILL_PAD];
    let b = sim.schedule_in(SimDuration::from_secs(8), move |_s| {
        std::hint::black_box(&pad);
        drop(keep);
    });
    let c = sim.schedule_in(SimDuration::from_secs(9), |s: &mut Simulation<u32>| {
        *s.state_mut() += 1;
    });
    let mut reused = [slot_of(a), slot_of(b), slot_of(c)];
    reused.sort_unstable();
    let mut freed = [tombstones[0], tombstones[1], slot_of(front)];
    freed.sort_unstable();
    assert_eq!(reused, freed, "the freed slots were not reused");
    assert_eq!(sim.pending(), 4);

    // The stale ids cancel none of the new occupants of their slots.
    assert!(!sim.cancel(inline) && !sim.cancel(spilled));
    assert_eq!(sim.pending(), 4, "a stale id cancelled a live event");
    assert_eq!(Arc::strong_count(&token), 3);

    let stats = sim.run();
    assert_eq!(stats.executed, 1 + 4);
    assert_eq!(*sim.state(), 3);
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "firing the reused slots leaked or double-freed"
    );
}
