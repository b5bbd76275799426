//! The pending-event set: a slab-backed event arena.
//!
//! A classic discrete-event simulator is a loop around a priority queue of
//! timestamped events. Two properties matter for reproducibility:
//!
//! 1. **Deterministic tie-breaking** — events scheduled for the same instant
//!    fire in scheduling order (FIFO), enforced with a monotone sequence
//!    number in the key `(SimTime, seq)`.
//! 2. **Cancellation** — models cancel timers (e.g. an autoscaler probe after
//!    shutdown) without scanning the pending set.
//!
//! The implementation is built for the hot path (see DESIGN.md):
//!
//! * **Slab slots** — every pending event lives in a slot of one flat
//!   `Vec<Slot<E>>`. Fired and cancelled slots go on a free list and are
//!   reused, so a steady-state simulation performs no per-event heap
//!   allocation after warm-up.
//! * **Generation tags** — each slot carries a generation counter bumped on
//!   every release. An [`EventId`] is `(slot, generation)`, so a stale handle
//!   (the event already fired or was cancelled, even if the slot was reused)
//!   can never cancel the wrong event — `cancel` on it is a `false` no-op.
//! * **Three lanes** — a pending slot waits in one of three lanes, and every
//!   pop takes whichever lane front is smallest by `(time, seq)`:
//!   * two **sorted runs**, FIFOs of slot indices already in `(time, seq)`
//!     order, which take an event in O(1) whenever its time does not
//!     precede the run's tail, and pop it in O(1). The **batch run** takes
//!     the items of [`EventQueue::push_batch`], so a sorted batch — a tick
//!     of arrivals — never touches the heap. The **push run** takes the
//!     single [`EventQueue::push`]es: a model that schedules at a fixed
//!     delay from a clock that only moves forward (a service completion at
//!     `now + service_time`) pushes in time order, so every such push and
//!     pop is O(1);
//!   * the **indexed four-ary min-heap** holds everything else: the part of
//!     a batch that precedes the batch run's tail and single pushes that
//!     precede the push run's. It stores slot indices and every slot
//!     remembers its heap position, so cancellation removes the entry in
//!     O(log n) with no tombstone. Four-ary keeps the heap a level
//!     shallower than binary and sifts through cache-adjacent children.
//!
//!   A run entry cannot leave the middle of its FIFO: cancelling one drops
//!   its payload at once and leaves a tombstone that is skipped and freed
//!   when it reaches the front, so a run's front is always live. Push-run
//!   entries carry the [`EventId`] their push returned, so
//!   `Simulation::cancel` and `Deadline::disarm` reach this path.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Branching factor of the heap. Four children per node halves the depth of
/// a binary heap and keeps all children of a node in one or two cache lines.
const ARITY: usize = 4;

/// The `heap_pos` of a slot whose event waits in the batch run.
const IN_BATCH_RUN: u32 = u32::MAX;

/// The `heap_pos` of a slot whose event waits in the push run.
const IN_PUSH_RUN: u32 = u32::MAX - 1;

/// Identifies a scheduled event, for cancellation.
///
/// The id pairs the slot index with the slot's generation at scheduling
/// time, so ids stay unambiguous when slots are reused: once the event
/// fires or is cancelled the generation advances and the old id goes stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

impl EventId {
    /// The id packed into one integer (generation in the high half), for
    /// logging and map keys.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        ((self.generation as u64) << 32) | self.slot as u64
    }
}

/// One arena slot. `payload` is `Some` while the event is pending; `time`,
/// `seq` and `heap_pos` (or a run marker) are only meaningful then. A
/// cancelled run entry keeps its slot, with no payload, until it leaves
/// its run.
struct Slot<E> {
    generation: u32,
    heap_pos: u32,
    seq: u64,
    time: SimTime,
    payload: Option<E>,
}

/// The arena: every slot that has ever held an event, and the indices of
/// the released ones, ready for reuse (LIFO keeps hot slots hot).
struct Slab<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    /// Fills a free (or new) slot with a pending event at `heap_pos` and
    /// returns its id; the caller links the slot into its lane.
    #[inline(always)]
    fn occupy(&mut self, time: SimTime, seq: u64, heap_pos: u32, payload: E) -> EventId {
        // Fill the slot in one borrow: `heap_pos` is written and
        // `generation` read while the slot is already in hand, so the hot
        // loop touches `slots` exactly once per push.
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.time = time;
                s.seq = seq;
                s.heap_pos = heap_pos;
                s.payload = Some(payload);
                EventId {
                    slot,
                    generation: s.generation,
                }
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Slot {
                    generation: 0,
                    heap_pos,
                    seq,
                    time,
                    payload: Some(payload),
                });
                EventId {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    /// Bumps the slot's generation, retiring its id, and returns the slot
    /// to the free list.
    #[inline(always)]
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
    }

    /// True when the event in `slots[a]` fires before the one in `slots[b]`.
    #[inline]
    fn fires_before(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (&self.slots[a as usize], &self.slots[b as usize]);
        (sa.time, sa.seq) < (sb.time, sb.seq)
    }
}

/// A sorted run: a FIFO of slot indices in `(time, seq)` order. An event
/// may join at the back only if its time does not precede the tail's;
/// `seq` only grows, so that keeps the order. Its front is always live;
/// cancelled entries behind it stay as tombstones until they reach it.
struct Run {
    order: VecDeque<u32>,
    /// Tombstones in `order`.
    dead: usize,
    /// The time of the back entry, or zero while the run is empty: the
    /// earliest time the run accepts. Cached, so a push never reads the
    /// back entry's slot.
    tail: SimTime,
}

impl Run {
    const fn new() -> Self {
        Run {
            order: VecDeque::new(),
            dead: 0,
            tail: SimTime::ZERO,
        }
    }

    /// Live entries.
    fn len(&self) -> usize {
        self.order.len() - self.dead
    }

    #[inline(always)]
    fn front(&self) -> Option<u32> {
        self.order.front().copied()
    }

    /// True if an event at `time` may join at the back.
    #[inline(always)]
    fn accepts(&self, time: SimTime) -> bool {
        time >= self.tail
    }

    /// Appends `slot`, whose event fires at `time`; the caller has checked
    /// [`Run::accepts`].
    #[inline(always)]
    fn append(&mut self, slot: u32, time: SimTime) {
        self.tail = time;
        self.order.push_back(slot);
    }

    /// [`EventQueue::detach_at`] for the run's front, with the same
    /// contract. Inline: for a model whose next event is always its last
    /// push (a 1-pending event chain) this is the whole pop, and an out of
    /// line call here cost that chain ~10%. Only a tombstone at the new
    /// front leaves the fast path.
    #[inline(always)]
    fn detach_front<E>(&mut self, slab: &mut Slab<E>) -> u32 {
        let slot = self.order.pop_front().expect("run entry exists");
        slab.release(slot);
        match self.front() {
            None => self.tail = SimTime::ZERO,
            Some(front) if slab.slots[front as usize].payload.is_none() => self.purge_front(slab),
            Some(_) => {}
        }
        slot
    }

    /// Cancels the entry in `slot`. It cannot leave the middle of the run,
    /// so it stays there as a tombstone, payload dropped, until the front
    /// reaches it.
    fn cancel<E>(&mut self, slot: u32, slab: &mut Slab<E>) {
        slab.slots[slot as usize].payload = None;
        self.dead += 1;
        self.purge_front(slab);
    }

    /// Frees the tombstones at the front, so the front is live, and lets an
    /// emptied run accept any time again. Cold: only cancellations leave
    /// tombstones.
    #[cold]
    fn purge_front<E>(&mut self, slab: &mut Slab<E>) {
        while let Some(slot) = self.front() {
            if slab.slots[slot as usize].payload.is_some() {
                return;
            }
            self.order.pop_front();
            self.dead -= 1;
            slab.release(slot);
        }
        self.tail = SimTime::ZERO;
    }
}

/// The lane holding the earliest pending event.
#[derive(Clone, Copy)]
enum Lane {
    Heap,
    BatchRun,
    PushRun,
}

/// A time-ordered queue of pending events with O(log n) push, pop and
/// cancellation — O(1) for events that arrive in time order — backed by
/// a slab of reusable slots.
///
/// Three lanes hold the pending events (see the [module docs](self)): a
/// batch run for sorted [`EventQueue::push_batch`] items, a push run for
/// single [`EventQueue::push`]es that do not precede its tail, and a heap
/// for the rest. [`EventQueue::cancel`] on a run entry leaves a tombstone
/// that is freed when it reaches the run's front.
///
/// # Examples
///
/// ```
/// use elc_simcore::queue::EventQueue;
/// use elc_simcore::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "sooner"));
/// ```
pub struct EventQueue<E> {
    /// One slot per event that has ever been pending, reused via its free
    /// list.
    slab: Slab<E>,
    /// Four-ary min-heap of occupied slot indices, ordered by `(time, seq)`.
    heap: Vec<u32>,
    /// The sorted run `push_batch` appends to.
    batch_run: Run,
    /// The sorted run `push` appends to.
    push_run: Run,
    /// Next FIFO tie-break sequence number.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events before
    /// any slab growth.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slab: Slab {
                slots: Vec::with_capacity(capacity),
                free: Vec::new(),
            },
            heap: Vec::with_capacity(capacity),
            batch_run: Run::new(),
            push_run: Run::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time` and returns a handle for cancellation.
    ///
    /// An event whose time does not precede the push run's tail joins the
    /// run in O(1); any other takes the heap.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        // One `occupy` call for both lanes: the payload then moves into
        // its slot in a single copy, not staged on the stack for two.
        let to_run = self.push_run.accepts(time);
        let pos = if to_run {
            IN_PUSH_RUN
        } else {
            self.heap.len() as u32
        };
        let id = self.occupy(time, pos, payload);
        if to_run {
            self.push_run.append(id.slot, time);
        } else {
            self.heap.push(id.slot);
            self.sift_up(pos as usize);
        }
        id
    }

    /// Schedules a batch of events in one call.
    ///
    /// Equivalent to pushing each `(time, payload)` in iteration order (so
    /// FIFO tie-breaking follows the iterator), except for the lane an item
    /// waits in. Each item whose time does not precede the batch run's
    /// tail is appended to that run, so a batch in time order — the entry
    /// point bursty arrival models use via `Simulation::schedule_batch` —
    /// pushes and later pops in O(1) per item; any other item takes the
    /// heap. Slab space for the whole batch is reserved up front, and so
    /// is index space in every lane: in the batch run and the heap for the
    /// items, and in the push run for the single pushes their events go on
    /// to make, one each at most in a model like a service station. One
    /// reservation per batch spares the allocator the fragments that
    /// doubling steps leave: without the push run's, `exam_evening` in
    /// `elc-benchmark` peaked ~5% higher in resident memory.
    pub fn push_batch<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let items = items.into_iter();
        let (lower, _) = items.size_hint();
        let growth = lower.saturating_sub(self.slab.free.len());
        self.slab.slots.reserve(growth);
        self.batch_run.order.reserve(lower);
        self.push_run.order.reserve(lower);
        self.heap.reserve(lower);
        for (time, payload) in items {
            if self.batch_run.accepts(time) {
                let id = self.occupy(time, IN_BATCH_RUN, payload);
                self.batch_run.append(id.slot, time);
            } else {
                let _ = self.push_to_heap(time, payload);
            }
        }
    }

    /// Schedules `payload` at `time` in the heap.
    #[inline]
    fn push_to_heap(&mut self, time: SimTime, payload: E) -> EventId {
        let pos = self.heap.len() as u32;
        let id = self.occupy(time, pos, payload);
        self.heap.push(id.slot);
        self.sift_up(pos as usize);
        id
    }

    /// Takes the next sequence number and fills a slot with the event.
    #[inline(always)]
    fn occupy(&mut self, time: SimTime, heap_pos: u32, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slab.occupy(time, seq, heap_pos, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event — even one whose slot has since been
    /// reused by a newer event — returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let heap_pos = match self.slab.slots.get(id.slot as usize) {
            Some(s) if s.generation == id.generation && s.payload.is_some() => s.heap_pos,
            _ => return false,
        };
        // Drop the payload in place — a cancelled event's handler is never
        // moved out of the arena.
        match heap_pos {
            IN_BATCH_RUN => self.batch_run.cancel(id.slot, &mut self.slab),
            IN_PUSH_RUN => self.push_run.cancel(id.slot, &mut self.slab),
            pos => {
                let slot = self.detach_at(pos as usize);
                self.slab.slots[slot as usize].payload = None;
            }
        }
        true
    }

    /// True if the event behind `id` is still pending — not yet fired and
    /// not cancelled. A stale id (the slot was reused by a newer event)
    /// reports `false`, same as [`EventQueue::cancel`] on it would.
    #[must_use]
    pub fn contains(&self, id: EventId) -> bool {
        matches!(
            self.slab.slots.get(id.slot as usize),
            Some(s) if s.generation == id.generation && s.payload.is_some()
        )
    }

    /// Removes and returns the earliest pending event.
    ///
    /// Ties fire in scheduling (FIFO) order.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, lane) = self.first()?;
        Some(self.take_first(lane))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first()
            .map(|(slot, _)| self.slab.slots[slot as usize].time)
    }

    /// Removes and returns the earliest pending event if it fires strictly
    /// before `horizon`; otherwise leaves the queue untouched and returns
    /// `None`.
    ///
    /// The drain-until-horizon primitive of the sharded executor
    /// ([`crate::shard`]): a conservative time window `[t, t+L)` executes
    /// exactly the events below its end, so the check and the pop must be
    /// one operation — peeking and popping separately would compare the
    /// lane fronts twice.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (slot, lane) = self.first()?;
        if self.slab.slots[slot as usize].time >= horizon {
            return None;
        }
        Some(self.take_first(lane))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.batch_run.len() + self.push_run.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // A non-empty run has a live front.
        self.heap.is_empty() && self.batch_run.order.is_empty() && self.push_run.order.is_empty()
    }

    /// The earliest pending event's slot, and its lane.
    ///
    /// The push run's front is compared last, after the heap/batch-run
    /// pick: workloads that send few single pushes to it pay one more
    /// comparison per pop, and nothing else.
    #[inline(always)]
    fn first(&self) -> Option<(u32, Lane)> {
        let best = match (self.heap.first(), self.batch_run.front()) {
            (Some(&root), Some(front)) => {
                if self.slab.fires_before(front, root) {
                    Some((front, Lane::BatchRun))
                } else {
                    Some((root, Lane::Heap))
                }
            }
            (Some(&root), None) => Some((root, Lane::Heap)),
            (None, front) => front.map(|front| (front, Lane::BatchRun)),
        };
        match (best, self.push_run.front()) {
            (Some((slot, _)), Some(front)) if self.slab.fires_before(front, slot) => {
                Some((front, Lane::PushRun))
            }
            (None, Some(front)) => Some((front, Lane::PushRun)),
            (best, _) => best,
        }
    }

    /// Removes the earliest pending event, the front of `lane`, and
    /// returns it.
    #[inline(always)]
    fn take_first(&mut self, lane: Lane) -> (SimTime, E) {
        let slot = match lane {
            Lane::Heap => self.detach_at(0),
            Lane::BatchRun => self.batch_run.detach_front(&mut self.slab),
            Lane::PushRun => self.push_run.detach_front(&mut self.slab),
        };
        // The payload moves slot → caller here, in inlined code with no
        // intervening call site, so it is copied exactly once.
        let s = &mut self.slab.slots[slot as usize];
        let payload = s.payload.take().expect("pending slot holds a payload");
        (s.time, payload)
    }

    /// Detaches the heap entry at `pos`: removes it from the heap, bumps
    /// the slot generation and releases the slot index to the free list.
    /// Returns the slot; the *payload is left in the slot* for the caller
    /// to move out ([`EventQueue::pop`]) or drop in place
    /// ([`EventQueue::cancel`]). Keeping the payload out of this function
    /// means its one potentially allocating call (`free.push`) never has a
    /// live payload on the stack across it — the compiler then moves the
    /// payload slot → caller in a single copy. The caller guarantees `pos`
    /// is in bounds and must clear `payload` before the next push reuses
    /// the slot.
    #[inline(always)]
    fn detach_at(&mut self, pos: usize) -> u32 {
        let slot = self.heap[pos];
        let last = self.heap.pop().expect("heap entry exists at pos");
        if last != slot {
            // Move the former last element into the hole, then restore the
            // heap invariant around it.
            self.heap[pos] = last;
            self.slab.slots[last as usize].heap_pos = pos as u32;
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
        self.slab.release(slot);
        slot
    }

    /// Moves the element at `pos` up while it beats its parent. Returns
    /// whether it moved.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let mut moved = false;
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !self.slab.fires_before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.slab.slots[self.heap[pos] as usize].heap_pos = pos as u32;
            self.slab.slots[self.heap[parent] as usize].heap_pos = parent as u32;
            pos = parent;
            moved = true;
        }
        moved
    }

    /// Moves the element at `pos` down while any child beats it.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let first = ARITY * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(self.heap.len()) {
                if self.slab.fires_before(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if !self.slab.fires_before(self.heap[best], self.heap[pos]) {
                break;
            }
            self.heap.swap(pos, best);
            self.slab.slots[self.heap[pos] as usize].heap_pos = pos as u32;
            self.slab.slots[self.heap[best] as usize].heap_pos = best as u32;
            pos = best;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("slots", &self.slab.slots.len())
            .field("issued", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn contains_reflects_pending_fired_and_reused_slots() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "first");
        assert!(q.contains(id));
        let _ = q.pop();
        assert!(!q.contains(id), "fired event is gone");
        // The slot is reused with a bumped generation: the old id must
        // not match the new occupant.
        let id2 = q.push(SimTime::from_secs(2), "second");
        assert!(!q.contains(id));
        assert!(q.contains(id2));
        assert!(q.cancel(id2));
        assert!(!q.contains(id2));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "cancel me");
        q.push(SimTime::from_secs(2), "keep me");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keep me");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::ZERO, ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::ZERO, ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(id), "fired events cannot be cancelled");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut donor = EventQueue::new();
        let foreign = donor.push(SimTime::from_secs(99), ());
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn stale_id_does_not_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let old = q.push(SimTime::from_secs(1), "first");
        assert!(q.cancel(old));
        // The slot is reused by a new event with a bumped generation.
        let new = q.push(SimTime::from_secs(2), "second");
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(old), "stale id must be a no-op");
        assert_eq!(q.pop().unwrap().1, "second");
        assert!(!q.cancel(new));
    }

    #[test]
    fn event_ids_stay_unique_across_reuse() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, 1);
        q.pop();
        let b = q.push(SimTime::ZERO, 2);
        assert_ne!(a, b);
        assert_ne!(a.as_u64(), b.as_u64());
    }

    #[test]
    fn peek_time_tracks_cancellations() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "x");
        q.push(SimTime::from_secs(5), "y");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None);
    }

    #[test]
    fn pop_before_respects_the_horizon_exclusively() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        q.push(SimTime::from_secs(3), 'c');
        // The horizon itself is excluded: an event at t=2 stays pending
        // when the window ends at t=2.
        assert_eq!(q.pop_before(SimTime::from_secs(2)).unwrap().1, 'a');
        assert_eq!(q.pop_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 2, "excluded events stay pending");
        assert_eq!(q.pop_before(SimTime::from_secs(10)).unwrap().1, 'b');
        assert_eq!(q.pop_before(SimTime::from_secs(10)).unwrap().1, 'c');
        assert_eq!(q.pop_before(SimTime::from_secs(10)), None);
    }

    #[test]
    fn pop_before_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            q.push(t, i);
        }
        let horizon = SimTime::from_secs(2);
        let order: Vec<i32> =
            std::iter::from_fn(|| q.pop_before(horizon).map(|(_, e)| e)).collect();
        assert_eq!(order, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn push_batch_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 0);
        q.push_batch((1..5).map(|i| (t, i)));
        q.push(t, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn slab_reuses_slots_instead_of_growing() {
        let mut q = EventQueue::new();
        for round in 0..100u32 {
            q.push(SimTime::from_secs(u64::from(round)), round);
            q.pop();
        }
        assert_eq!(
            q.slab.slots.len(),
            1,
            "steady-state churn must reuse one slot"
        );
    }

    #[test]
    fn push_batch_sends_sorted_items_to_the_run_and_the_rest_to_the_heap() {
        let mut q = EventQueue::new();
        let secs = |v: &[u64]| {
            v.iter()
                .map(|&t| (SimTime::from_secs(t), t))
                .collect::<Vec<_>>()
        };
        let lanes = |q: &EventQueue<u64>| {
            (
                q.batch_run.order.len(),
                q.push_run.order.len(),
                q.heap.len(),
            )
        };
        q.push_batch(secs(&[1, 2, 2, 5]));
        assert_eq!(lanes(&q), (4, 0, 0), "a sorted batch fills the batch run");
        // Starts before the batch run's tail (5): 3 and 4 take the heap,
        // then the batch catches up with the tail and joins the run again.
        q.push_batch(secs(&[3, 4, 5, 7, 6]));
        assert_eq!(lanes(&q), (6, 0, 3));
        q.push(SimTime::from_secs(8), 8);
        q.push(SimTime::from_secs(8), 8);
        assert_eq!(lanes(&q), (6, 2, 3), "single pushes take the push run");
        q.push(SimTime::from_secs(6), 6);
        assert_eq!(
            lanes(&q),
            (6, 2, 4),
            "a push before the push run's tail takes the heap"
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8]);
        // An emptied run accepts any time again.
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(lanes(&q), (0, 1, 0));
    }

    /// The id of the pending event whose payload is `tag` (batch pushes
    /// return no ids).
    fn id_of(q: &EventQueue<u64>, tag: u64) -> EventId {
        let slot = q
            .slab
            .slots
            .iter()
            .position(|s| s.payload == Some(tag))
            .expect("tag is pending");
        EventId {
            slot: slot as u32,
            generation: q.slab.slots[slot].generation,
        }
    }

    /// Randomised interleavings of every queue operation against a naive
    /// reference model: single pushes (at random times, at a fixed delay
    /// after the last popped time as a service completion is, or before
    /// the push run's tail), batches (sorted, unsorted, all ties, or
    /// starting before the batch run's tail), cancels of heap entries, run
    /// entries (the push run's front, middle and tail among them) and
    /// stale ids, and `pop`, `pop_before`, `peek_time`, `contains` and
    /// `len` checked at every step. After the final drain every slot is
    /// free exactly once and every id is dead.
    #[test]
    fn cancellation_stress_matches_reference() {
        use std::collections::BTreeMap;

        /// Delay of a completion-like push after the last popped time.
        const SERVICE: u64 = 3;
        let secs = |t: u64| SimTime::from_secs(t);
        let whole_secs = |t: SimTime| t.as_nanos() / 1_000_000_000;
        // The time of a run's back entry, read from its slot.
        let back_secs = |q: &EventQueue<u64>, run: &Run| {
            run.order
                .back()
                .map_or(0, |&s| whole_secs(q.slab.slots[s as usize].time))
        };
        // Operation kinds that must each have happened across the seeds.
        let (mut run_cancels, mut tombstones, mut heap_cancels) = (0u32, [0u32; 2], 0u32);
        let (mut split_batches, mut lane_pops) = (0u32, [0u32; 3]);
        let mut push_run_cancels = [0u32; 3]; // front, mid-run, tail
        for seed in 0..32u64 {
            let mut rng = SimRng::seed(0xE1C2).derive_u64(seed);
            let mut q = EventQueue::new();
            // The model: pending `(time_s, tag)` keys; a tag is the
            // event's scheduling rank, so key order is `(time, seq)` order.
            let mut model: BTreeMap<(u64, u64), EventId> = BTreeMap::new();
            let mut stale: Vec<EventId> = Vec::new();
            let (mut tag, mut last_popped) = (0u64, 0u64);
            let retire = |model: &mut BTreeMap<(u64, u64), EventId>, stale: &mut Vec<_>, key| {
                stale.push(model.remove(&key).expect("model holds the key"));
            };
            // Cancels `id` (pending under `key`) and counts what it hit.
            let mut cancel = |q: &mut EventQueue<u64>,
                              model: &mut BTreeMap<(u64, u64), EventId>,
                              stale: &mut Vec<_>,
                              key,
                              id: EventId,
                              ctx: &str| {
                let s = &q.slab.slots[id.slot as usize];
                let run = match s.heap_pos {
                    IN_BATCH_RUN => Some((0, &q.batch_run)),
                    IN_PUSH_RUN => Some((1, &q.push_run)),
                    _ => None,
                };
                if let Some((lane, run)) = run {
                    run_cancels += 1;
                    tombstones[lane] += u32::from(run.front() != Some(id.slot));
                } else {
                    heap_cancels += 1;
                }
                assert!(q.cancel(id), "{ctx}: live cancel must hit");
                assert!(!q.contains(id), "{ctx}: cancelled id still pending");
                retire(model, stale, key);
            };

            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                let single = match rng.next_below(13) {
                    // In a small window, so ties are common.
                    0 | 1 => Some(rng.next_below(32)),
                    // A fixed delay after the last popped time.
                    2 => Some(last_popped + SERVICE),
                    // Before the push run's tail: the heap takes it.
                    3 => Some(back_secs(&q, &q.push_run).saturating_sub(1 + rng.next_below(4))),
                    _ => None,
                };
                if let Some(t) = single {
                    let id = q.push(secs(t), tag);
                    model.insert((t, tag), id);
                    tag += 1;
                } else {
                    match rng.next_below(9) {
                        // Batch push.
                        0 | 1 => {
                            let n = 1 + rng.next_below(8) as usize;
                            let mut times: Vec<u64> = (0..n).map(|_| rng.next_below(32)).collect();
                            match rng.next_below(4) {
                                0 => times.sort_unstable(),
                                1 => {} // unsorted, as drawn
                                2 => {
                                    let t = times[0];
                                    times.fill(t);
                                }
                                _ => {
                                    // Sorted, but starting before the batch
                                    // run's tail.
                                    let tail = back_secs(&q, &q.batch_run);
                                    times[0] = tail.saturating_sub(1 + rng.next_below(4));
                                    times.sort_unstable();
                                }
                            }
                            let heap_before = q.heap.len();
                            q.push_batch(
                                times
                                    .iter()
                                    .enumerate()
                                    .map(|(i, &t)| (secs(t), tag + i as u64)),
                            );
                            if q.heap.len() > heap_before && !q.batch_run.order.is_empty() {
                                split_batches += 1;
                            }
                            for t in times {
                                model.insert((t, tag), id_of(&q, tag));
                                tag += 1;
                            }
                        }
                        // Cancel a random pending event, in any lane.
                        2 if !model.is_empty() => {
                            let k = rng.next_below(model.len() as u64) as usize;
                            let (&key, &id) = model.iter().nth(k).expect("k < len");
                            cancel(&mut q, &mut model, &mut stale, key, id, &ctx);
                        }
                        // Cancel a live push-run entry: the front, one
                        // mid-run or the last.
                        3 if !q.push_run.order.is_empty() => {
                            let live: Vec<u32> = q
                                .push_run
                                .order
                                .iter()
                                .copied()
                                .filter(|&s| q.slab.slots[s as usize].payload.is_some())
                                .collect();
                            let at = rng.next_below(3) as usize;
                            let slot = match at {
                                0 => live[0],
                                1 => live[rng.next_below(live.len() as u64) as usize],
                                _ => live[live.len() - 1],
                            };
                            push_run_cancels[at] += 1;
                            let (&key, &id) = model
                                .iter()
                                .find(|(_, id)| id.slot == slot)
                                .expect("a live push-run entry is in the model");
                            cancel(&mut q, &mut model, &mut stale, key, id, &ctx);
                        }
                        // Replay a stale id: must be a no-op.
                        4 if !stale.is_empty() => {
                            let id = stale[rng.next_below(stale.len() as u64) as usize];
                            let before = q.len();
                            assert!(!q.contains(id), "{ctx}: stale id reported pending");
                            assert!(!q.cancel(id), "{ctx}: stale cancel must miss");
                            assert_eq!(q.len(), before);
                        }
                        // Pop before a random horizon.
                        5 => {
                            let horizon = rng.next_below(34);
                            let due = model.keys().next().filter(|&&(t, _)| t < horizon).copied();
                            let got = q.pop_before(secs(horizon));
                            assert_eq!(got, due.map(|(t, tg)| (secs(t), tg)), "{ctx}: pop_before");
                            if let Some(key) = due {
                                last_popped = key.0;
                                retire(&mut model, &mut stale, key);
                            }
                        }
                        // Peek, and probe a live id.
                        6 => {
                            let first = model.keys().next().map(|&(t, _)| secs(t));
                            assert_eq!(q.peek_time(), first, "{ctx}: peek_time");
                            if let Some(&id) = model.values().last() {
                                assert!(q.contains(id), "{ctx}: live id not pending");
                            }
                        }
                        // Pop.
                        _ => {
                            let expected = model.keys().next().copied();
                            if let Some((_, lane)) = q.first() {
                                lane_pops[lane as usize] += 1;
                            }
                            let got = q.pop();
                            assert_eq!(got, expected.map(|(t, tg)| (secs(t), tg)), "{ctx}: pop");
                            if let Some(key) = expected {
                                last_popped = key.0;
                                retire(&mut model, &mut stale, key);
                            }
                        }
                    }
                }
                assert_eq!(q.len(), model.len(), "{ctx}: length drifted");
                assert_eq!(q.is_empty(), model.is_empty(), "{ctx}: is_empty drifted");
            }

            let expected: Vec<(SimTime, u64)> =
                model.keys().map(|&(t, tg)| (secs(t), tg)).collect();
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, expected, "seed {seed}: drain order diverged");

            // Every slot is free exactly once: no tombstone leaked, none
            // released twice.
            for run in [&q.batch_run, &q.push_run] {
                assert_eq!((run.order.len(), run.dead, run.tail), (0, 0, SimTime::ZERO));
            }
            assert!(q.heap.is_empty());
            let mut free = q.slab.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(
                free.len(),
                q.slab.slots.len(),
                "seed {seed}: slot leaked or freed twice"
            );
            for id in model.into_values().chain(stale) {
                assert!(!q.cancel(id), "seed {seed}: id survived drain");
            }
        }
        assert!(run_cancels > 0 && heap_cancels > 0 && split_batches > 0);
        assert!(
            tombstones.iter().all(|&n| n > 0),
            "tombstones {tombstones:?}"
        );
        assert!(lane_pops.iter().all(|&n| n > 0), "lane pops {lane_pops:?}");
        assert!(
            push_run_cancels.iter().all(|&n| n > 0),
            "push-run cancels {push_run_cancels:?}"
        );
    }

    /// A cancelled run entry releases its capture at `cancel`, exactly
    /// once, inline or spilled; its slot is reused once the run has
    /// drained past it.
    #[test]
    fn cancelled_run_entries_release_captures_once_and_recycle_slots() {
        use std::sync::Arc;

        use crate::event::{EventFn, INLINE_EVENT_BYTES};
        use crate::sim::Simulation;

        let token = Arc::new(());
        let event = |spill: bool| -> EventFn<()> {
            let keep = Arc::clone(&token);
            if spill {
                let pad = [0u8; INLINE_EVENT_BYTES + 1];
                EventFn::new(move |_: &mut Simulation<()>| {
                    std::hint::black_box(&pad);
                    drop(keep);
                })
            } else {
                EventFn::new(move |_: &mut Simulation<()>| drop(keep))
            }
        };
        let mut q = EventQueue::new();
        q.push_batch((0..4).map(|t| (SimTime::from_secs(t), event(t % 2 == 1))));
        assert_eq!(q.batch_run.order.len(), 4, "a sorted batch fills the run");
        assert_eq!(Arc::strong_count(&token), 5);

        // Cancel the two entries behind the live front.
        let id_at = |q: &EventQueue<EventFn<()>>, k: usize| {
            let slot = q.batch_run.order[k];
            EventId {
                slot,
                generation: q.slab.slots[slot as usize].generation,
            }
        };
        let (spilled, inline) = (id_at(&q, 1), id_at(&q, 2));
        assert!(q.cancel(spilled));
        assert_eq!(
            Arc::strong_count(&token),
            4,
            "cancel kept the spilled capture"
        );
        assert!(!q.cancel(spilled), "a second cancel must not drop again");
        assert_eq!(Arc::strong_count(&token), 4);
        assert!(q.cancel(inline));
        assert_eq!(
            Arc::strong_count(&token),
            3,
            "cancel kept the inline capture"
        );
        assert_eq!(q.len(), 2);
        assert!(
            q.slab.free.is_empty(),
            "tombstones keep their slots until the front passes"
        );

        // Popping the front frees it and the two tombstones behind it.
        let (t, front) = q.pop().expect("front is live");
        assert_eq!(t, SimTime::ZERO);
        drop(front);
        assert_eq!(Arc::strong_count(&token), 2);
        let run = &q.batch_run;
        assert_eq!((run.order.len(), run.dead, q.slab.free.len()), (1, 0, 3));

        // The freed slots are reused, not grown, and the old ids stay dead.
        let slots = q.slab.slots.len();
        q.push_batch((10..13).map(|t| (SimTime::from_secs(t), event(t % 2 == 0))));
        assert_eq!(q.slab.slots.len(), slots, "freed slots must be reused");
        assert!(!q.cancel(spilled) && !q.cancel(inline));
        assert_eq!(Arc::strong_count(&token), 5);
        drop(q);
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "dropping the queue released every capture once"
        );
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert!(q.slab.slots.capacity() >= 64);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
