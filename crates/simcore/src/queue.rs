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
//! * **Slab slots** — every event pushed one at a time lives in a slot of
//!   one flat `Vec<Slot<E>>`. Fired and cancelled slots go on a free list
//!   and are reused, so a steady-state simulation performs no per-event
//!   heap allocation after warm-up.
//! * **Generation tags** — each slot carries a generation counter bumped on
//!   every release. An [`EventId`] is `(slot, generation)`, so a stale handle
//!   (the event already fired or was cancelled, even if the slot was reused)
//!   can never cancel the wrong event — `cancel` on it is a `false` no-op.
//! * **Three lanes** — a pending event waits in one of three lanes, and
//!   every pop takes whichever lane front is smallest by `(time, seq)`:
//!   * the **batch lane** takes each item of [`EventQueue::push_batch`]
//!     whose time does not precede the lane's tail, so a sorted batch — a
//!     tick of arrivals — never touches the heap or the slab. It holds a
//!     16-byte `(time, seq)` key per entry and each batch's payload once,
//!     with the copier that makes one per entry as it fires; its entries
//!     have no [`EventId`], so nothing can cancel them and the lane needs
//!     no tombstones;
//!   * the **push run**, a FIFO of slot indices already in `(time, seq)`
//!     order, takes each single [`EventQueue::push`] whose time does not
//!     precede its tail: a model that schedules at a fixed delay from a
//!     clock that only moves forward (a service completion at
//!     `now + service_time`) pushes in time order, so every such push and
//!     pop is O(1). An entry cannot leave the middle of the FIFO:
//!     cancelling one drops its payload at once and leaves a tombstone
//!     that is skipped and freed when it reaches the front, so the front
//!     is always live;
//!   * the **indexed four-ary min-heap** holds everything else: batch items
//!     that precede the batch lane's tail, each with its own copy of the
//!     payload, and single pushes that precede the push run's. It stores
//!     slot indices and every slot remembers its heap position, so
//!     cancellation removes the entry in O(log n) with no tombstone.
//!     Four-ary keeps the heap a level shallower than binary and sifts
//!     through cache-adjacent children.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Branching factor of the heap. Four children per node halves the depth of
/// a binary heap and keeps all children of a node in one or two cache lines.
const ARITY: usize = 4;

/// The `heap_pos` of a slot whose event waits in the push run.
const IN_PUSH_RUN: u32 = u32::MAX;

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
/// `seq` and `heap_pos` (or the push-run marker) are only meaningful then.
/// A cancelled push-run entry keeps its slot, with no payload, until it
/// leaves the run.
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

    /// Puts a batch entry's payload, fired at `time`, in a free slot for
    /// [`EventQueue::take_first`] to move out, so every lane hands its
    /// event over the same way: a separate return path for batch entries
    /// cost a 1-pending event chain 8–23% in paired runs. The slot stays
    /// on the free list: the entry never had an id to retire.
    #[inline(always)]
    fn stage(&mut self, time: SimTime, payload: E) -> u32 {
        let slot = match self.free.last() {
            Some(&slot) => slot,
            None => self.add_free_slot(),
        };
        let s = &mut self.slots[slot as usize];
        s.time = time;
        s.payload = Some(payload);
        slot
    }

    /// Grows the slab by one free slot.
    #[cold]
    fn add_free_slot(&mut self) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX slots");
        self.slots.push(Slot {
            generation: 0,
            heap_pos: 0,
            seq: 0,
            time: SimTime::ZERO,
            payload: None,
        });
        self.free.push(slot);
        slot
    }

    /// The `(time, seq)` key of the event in `slots[slot]`.
    #[inline(always)]
    fn key(&self, slot: u32) -> (SimTime, u64) {
        let s = &self.slots[slot as usize];
        (s.time, s.seq)
    }

    /// True when the event in `slots[a]` fires before the one in `slots[b]`.
    #[inline]
    fn fires_before(&self, a: u32, b: u32) -> bool {
        self.key(a) < self.key(b)
    }
}

/// One batch's payload, stored once for all of its entries in the batch
/// lane.
struct Batch<E> {
    proto: E,
    /// Makes each entry's copy of `proto`, all but the last's.
    repeat: fn(&E) -> E,
    /// The batch's entries still in the lane.
    left: usize,
}

/// The batch lane: the `(time, seq)` keys of its entries in order, and the
/// batches they belong to, in the same order. An entry may join at the
/// back only if its time does not precede the tail's; `seq` only grows, so
/// that keeps the order.
struct BatchLane<E> {
    keys: VecDeque<(SimTime, u64)>,
    batches: VecDeque<Batch<E>>,
    /// The time of the back entry, or zero while the lane is empty: the
    /// earliest time the lane accepts.
    tail: SimTime,
}

impl<E> BatchLane<E> {
    const fn new() -> Self {
        BatchLane {
            keys: VecDeque::new(),
            batches: VecDeque::new(),
            tail: SimTime::ZERO,
        }
    }

    /// Removes the front entry and returns its time and payload: a copy of
    /// its batch's `proto`, or `proto` itself for the batch's last entry.
    #[inline(always)]
    fn pop_front(&mut self) -> (SimTime, E) {
        let (time, _) = self.keys.pop_front().expect("batch lane entry exists");
        if self.keys.is_empty() {
            self.tail = SimTime::ZERO;
        }
        let batch = self.batches.front_mut().expect("every entry has its batch");
        batch.left -= 1;
        let payload = if batch.left == 0 {
            self.batches.pop_front().expect("batch exists").proto
        } else {
            (batch.repeat)(&batch.proto)
        };
        (time, payload)
    }
}

/// The push run: a FIFO of slot indices in `(time, seq)` order. An event
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
    Batch,
    PushRun,
}

/// A time-ordered queue of pending events with O(log n) push, pop and
/// cancellation — O(1) for events that arrive in time order — backed by
/// a slab of reusable slots.
///
/// Three lanes hold the pending events (see the [module docs](self)): a
/// batch lane for sorted [`EventQueue::push_batch`] items, which holds
/// their keys plus one payload per batch and has no ids or tombstones; a
/// push run for single [`EventQueue::push`]es that do not precede its
/// tail; and a heap for the rest. [`EventQueue::cancel`] on a push-run
/// entry leaves a tombstone that is freed when it reaches the run's front.
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
    /// The lane `push_batch` appends to.
    batch: BatchLane<E>,
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
            batch: BatchLane::new(),
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

    /// Schedules one event at each of `times`, all with the payload
    /// `proto`, in one call.
    ///
    /// Equivalent to pushing `repeat(&proto)` at each time in iteration
    /// order (so FIFO tie-breaking follows the iterator), except for where
    /// the payloads wait. Each item whose time does not precede the batch
    /// lane's tail joins that lane as a bare `(time, seq)` key, and the
    /// batch stores `proto` and `repeat` once: popping an entry yields
    /// `repeat(&proto)`, and the batch's last entry in the lane yields
    /// `proto` itself. So a batch in time order — the entry point bursty
    /// arrival models use via `Simulation::schedule_batch` — pushes and
    /// later pops in O(1) per item, 16 bytes each while pending. Any other
    /// item takes the heap with its own copy. The events have no ids, so
    /// they cannot be cancelled.
    ///
    /// Index space in the push run is reserved for the single pushes the
    /// batch's events go on to make, one each at most in a model like a
    /// service station. Without it, `exam_evening` in `elc-benchmark`
    /// peaked ~18% higher in resident memory; reserving the lane's keys as
    /// well raised the peak instead.
    pub fn push_batch<I>(&mut self, times: I, proto: E, repeat: fn(&E) -> E)
    where
        I: IntoIterator<Item = SimTime>,
    {
        let times = times.into_iter();
        self.push_run.order.reserve(times.size_hint().0);
        let mut left = 0;
        for time in times {
            if time >= self.batch.tail {
                self.batch.keys.push_back((time, self.next_seq));
                self.next_seq += 1;
                self.batch.tail = time;
                left += 1;
            } else {
                self.push_to_heap(time, repeat(&proto));
            }
        }
        if left > 0 {
            self.batch.batches.push_back(Batch {
                proto,
                repeat,
                left,
            });
        }
    }

    /// Schedules `payload` at `time` in the heap.
    #[inline]
    fn push_to_heap(&mut self, time: SimTime, payload: E) {
        let pos = self.heap.len() as u32;
        let id = self.occupy(time, pos, payload);
        self.heap.push(id.slot);
        self.sift_up(pos as usize);
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
    /// reports `false`, same as [`EventQueue::cancel`] on it would. The
    /// queue's differential tests observe cancellation through it.
    #[cfg(test)]
    fn contains(&self, id: EventId) -> bool {
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
        let lane = self.first()?;
        Some(self.take_first(lane))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|lane| self.front_time(lane))
    }

    /// Removes and returns the earliest pending event if it fires strictly
    /// before `horizon`; otherwise leaves the queue untouched and returns
    /// `None`.
    ///
    /// The drain-until-horizon step of `Simulation::run_until`, which
    /// executes exactly the events below its horizon, so the check and the
    /// pop are one operation — peeking and popping separately would
    /// compare the lane fronts twice.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let lane = self.first()?;
        if self.front_time(lane) >= horizon {
            return None;
        }
        Some(self.take_first(lane))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.batch.keys.len() + self.push_run.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // A non-empty run has a live front.
        self.heap.is_empty() && self.batch.keys.is_empty() && self.push_run.order.is_empty()
    }

    /// The lane holding the earliest pending event.
    ///
    /// The push run's front is compared last, after the heap/batch-lane
    /// pick: workloads that send few single pushes to it pay one more
    /// comparison per pop, and nothing else.
    #[inline(always)]
    fn first(&self) -> Option<Lane> {
        let (key, lane) = match (self.heap.first(), self.batch.keys.front()) {
            (Some(&root), Some(&front)) => {
                let root = self.slab.key(root);
                if front < root {
                    (front, Lane::Batch)
                } else {
                    (root, Lane::Heap)
                }
            }
            (Some(&root), None) => (self.slab.key(root), Lane::Heap),
            (None, Some(&front)) => (front, Lane::Batch),
            (None, None) => return self.push_run.front().map(|_| Lane::PushRun),
        };
        match self.push_run.front() {
            Some(front) if self.slab.key(front) < key => Some(Lane::PushRun),
            _ => Some(lane),
        }
    }

    /// The time of the front event of `lane`, which holds one.
    #[inline(always)]
    fn front_time(&self, lane: Lane) -> SimTime {
        match lane {
            Lane::Heap => self.slab.slots[self.heap[0] as usize].time,
            Lane::Batch => self.batch.keys[0].0,
            Lane::PushRun => self.slab.slots[self.push_run.order[0] as usize].time,
        }
    }

    /// Removes the earliest pending event, the front of `lane`, and
    /// returns it.
    #[inline(always)]
    fn take_first(&mut self, lane: Lane) -> (SimTime, E) {
        let slot = match lane {
            Lane::Heap => self.detach_at(0),
            Lane::Batch => {
                let (time, payload) = self.batch.pop_front();
                self.slab.stage(time, payload)
            }
            Lane::PushRun => self.push_run.detach_front(&mut self.slab),
        };
        // The payload moves slot → caller here, in inlined code with no
        // intervening call site, so it leaves the slot in a single copy.
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
        q.push_batch([t; 4], 1, |p: &i32| *p);
        q.push(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 1, 1, 1, 2]);
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
        let secs = |v: &[u64]| v.iter().map(|&t| SimTime::from_secs(t)).collect::<Vec<_>>();
        let lanes =
            |q: &EventQueue<u64>| (q.batch.keys.len(), q.push_run.order.len(), q.heap.len());
        // A copy of a batch's payload reads 100 more than the payload.
        let repeat = |p: &u64| p + 100;
        q.push_batch(secs(&[1, 2, 2, 5]), 10, repeat);
        assert_eq!(lanes(&q), (4, 0, 0), "a sorted batch fills the batch lane");
        assert!(q.slab.slots.is_empty(), "batch entries take no slots");
        // Starts before the lane's tail (5): 3 and 4 take the heap, then
        // the batch catches up with the tail and joins the lane again,
        // until 6 precedes the new tail (7).
        q.push_batch(secs(&[3, 4, 5, 7, 6]), 20, repeat);
        assert_eq!(lanes(&q), (6, 0, 3));
        assert_eq!(q.batch.batches.len(), 2, "one payload per batch");
        q.push(SimTime::from_secs(8), 8);
        q.push(SimTime::from_secs(8), 8);
        assert_eq!(lanes(&q), (6, 2, 3), "single pushes take the push run");
        q.push(SimTime::from_secs(6), 6);
        assert_eq!(
            lanes(&q),
            (6, 2, 4),
            "a push before the push run's tail takes the heap"
        );
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos() / 1_000_000_000, e))
            .collect();
        // Heap items are copies; each batch's last entry in the lane pops
        // its payload itself.
        assert_eq!(
            order,
            vec![
                (1, 110),
                (2, 110),
                (2, 110),
                (3, 120),
                (4, 120),
                (5, 10),
                (5, 120),
                (6, 120),
                (6, 6),
                (7, 20),
                (8, 8),
                (8, 8),
            ]
        );
        assert!(q.batch.batches.is_empty());
        // Emptied lanes accept any time again.
        q.push(SimTime::from_secs(1), 1);
        q.push_batch(secs(&[1]), 1, repeat);
        assert_eq!(lanes(&q), (1, 1, 0));
    }

    /// Randomised interleavings of every queue operation against a naive
    /// reference model: single pushes (at random times, at a fixed delay
    /// after the last popped time as a service completion is, or before
    /// the push run's tail), batches (sorted, unsorted, all ties, or
    /// starting before the batch lane's tail), cancels of heap entries,
    /// push-run entries (front, middle and tail) and stale ids, and `pop`,
    /// `pop_before`, `peek_time`, `contains` and `len` checked at every
    /// step. Batch entries have no ids: the model knows them by their
    /// batch's tag and keeps its own copy of the lane's admission rule, so
    /// it also checks which lane each pops from and that only a batch's
    /// last entry in the lane pops the batch's payload itself. After the
    /// final drain the lane holds nothing and every slot is free exactly
    /// once.
    #[test]
    fn cancellation_stress_matches_reference() {
        use std::collections::BTreeMap;

        /// Delay of a completion-like push after the last popped time.
        const SERVICE: u64 = 3;
        /// Marks a batch's payload, its tag; a single push's is its rank.
        const BATCH: u64 = 1 << 62;
        /// Marks a copy of a batch's payload.
        const COPY: u64 = 1 << 63;

        /// A pending event in the model.
        #[derive(Clone, Copy)]
        enum Entry {
            Single(EventId),
            Batch { tag: u64, in_lane: bool },
        }

        /// The reference: pending events keyed `(time_s, rank)`, where the
        /// rank is the scheduling order, so key order is `(time, seq)`
        /// order.
        #[derive(Default)]
        struct Model {
            pending: BTreeMap<(u64, u64), Entry>,
            /// Entries each batch still has in the lane, by tag.
            lane_left: BTreeMap<u64, usize>,
            lane_len: usize,
            lane_tail: u64,
            stale: Vec<EventId>,
            rank: u64,
        }

        impl Model {
            fn push(&mut self, t: u64, id: EventId) {
                self.pending.insert((t, self.rank), Entry::Single(id));
                self.rank += 1;
            }

            /// Adds a batch; returns its tag and whether it split between
            /// the lane and the heap.
            fn push_batch(&mut self, times: &[u64]) -> (u64, bool) {
                let tag = BATCH | self.rank;
                let mut in_lane_count = 0;
                for &t in times {
                    let in_lane = self.lane_len == 0 || t >= self.lane_tail;
                    if in_lane {
                        self.lane_len += 1;
                        self.lane_tail = t;
                        in_lane_count += 1;
                    }
                    self.pending
                        .insert((t, self.rank), Entry::Batch { tag, in_lane });
                    self.rank += 1;
                }
                if in_lane_count > 0 {
                    self.lane_left.insert(tag, in_lane_count);
                }
                (tag, 0 < in_lane_count && in_lane_count < times.len())
            }

            /// Removes the earliest event: its time, the payload the queue
            /// must pop for it, and whether it waits in the batch lane.
            fn pop(&mut self) -> Option<(u64, u64, bool)> {
                let ((t, rank), entry) = self.pending.pop_first()?;
                Some(match entry {
                    Entry::Single(id) => {
                        self.stale.push(id);
                        (t, rank, false)
                    }
                    Entry::Batch {
                        tag,
                        in_lane: false,
                    } => (t, tag | COPY, false),
                    Entry::Batch { tag, in_lane: true } => {
                        self.lane_len -= 1;
                        let left = self.lane_left.get_mut(&tag).expect("batch is in the lane");
                        *left -= 1;
                        if *left == 0 {
                            self.lane_left.remove(&tag);
                            (t, tag, true)
                        } else {
                            (t, tag | COPY, true)
                        }
                    }
                })
            }

            /// The pending single pushes.
            fn singles(&self) -> impl Iterator<Item = ((u64, u64), EventId)> + '_ {
                self.pending.iter().filter_map(|(&key, e)| match *e {
                    Entry::Single(id) => Some((key, id)),
                    Entry::Batch { .. } => None,
                })
            }
        }

        let secs = |t: u64| SimTime::from_secs(t);
        let whole_secs = |t: SimTime| t.as_nanos() / 1_000_000_000;
        // The time of the push run's back entry, read from its slot.
        let push_run_back = |q: &EventQueue<u64>| {
            q.push_run
                .order
                .back()
                .map_or(0, |&s| whole_secs(q.slab.slots[s as usize].time))
        };
        // Operation kinds that must each have happened across the seeds.
        let (mut run_cancels, mut tombstones, mut heap_cancels) = (0u32, 0u32, 0u32);
        let (mut split_batches, mut lane_pops) = (0u32, [0u32; 3]);
        let mut push_run_cancels = [0u32; 3]; // front, mid-run, tail
        for seed in 0..32u64 {
            let mut rng = SimRng::seed(0xE1C2).derive_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut last_popped = 0u64;
            // Cancels the single push `id`, pending under `key`, and
            // counts what it hit.
            let mut cancel =
                |q: &mut EventQueue<u64>, model: &mut Model, key, id: EventId, ctx: &str| {
                    if q.slab.slots[id.slot as usize].heap_pos == IN_PUSH_RUN {
                        run_cancels += 1;
                        tombstones += u32::from(q.push_run.front() != Some(id.slot));
                    } else {
                        heap_cancels += 1;
                    }
                    assert!(q.cancel(id), "{ctx}: live cancel must hit");
                    assert!(!q.contains(id), "{ctx}: cancelled id still pending");
                    assert!(matches!(model.pending.remove(&key), Some(Entry::Single(_))));
                    model.stale.push(id);
                };
            // Takes the model's next event, as the queue must pop it next,
            // after checking and counting the lane the queue holds it in.
            let mut expect_pop = |q: &EventQueue<u64>, model: &mut Model, ctx: &str| {
                let (t, payload, in_lane) = model.pop()?;
                let lane = q.first().expect("the queue holds the model's next event");
                assert_eq!(matches!(lane, Lane::Batch), in_lane, "{ctx}: lane");
                lane_pops[lane as usize] += 1;
                Some((secs(t), payload))
            };

            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                let single = match rng.next_below(13) {
                    // In a small window, so ties are common.
                    0 | 1 => Some(rng.next_below(32)),
                    // A fixed delay after the last popped time.
                    2 => Some(last_popped + SERVICE),
                    // Before the push run's tail: the heap takes it.
                    3 => Some(push_run_back(&q).saturating_sub(1 + rng.next_below(4))),
                    _ => None,
                };
                if let Some(t) = single {
                    let id = q.push(secs(t), model.rank);
                    model.push(t, id);
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
                                    // lane's tail.
                                    let tail = if model.lane_len == 0 {
                                        0
                                    } else {
                                        model.lane_tail
                                    };
                                    times[0] = tail.saturating_sub(1 + rng.next_below(4));
                                    times.sort_unstable();
                                }
                            }
                            let (tag, split) = model.push_batch(&times);
                            q.push_batch(times.iter().map(|&t| secs(t)), tag, |p| p | COPY);
                            split_batches += u32::from(split);
                        }
                        // Cancel a random pending single push, in either
                        // lane; batch entries have no ids.
                        2 => {
                            let singles: Vec<_> = model.singles().collect();
                            if !singles.is_empty() {
                                let k = rng.next_below(singles.len() as u64) as usize;
                                let (key, id) = singles[k];
                                cancel(&mut q, &mut model, key, id, &ctx);
                            }
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
                            let (key, id) = model
                                .singles()
                                .find(|(_, id)| id.slot == slot)
                                .expect("a live push-run entry is in the model");
                            cancel(&mut q, &mut model, key, id, &ctx);
                        }
                        // Replay a stale id: must be a no-op.
                        4 if !model.stale.is_empty() => {
                            let id = model.stale[rng.next_below(model.stale.len() as u64) as usize];
                            let before = q.len();
                            assert!(!q.contains(id), "{ctx}: stale id reported pending");
                            assert!(!q.cancel(id), "{ctx}: stale cancel must miss");
                            assert_eq!(q.len(), before);
                        }
                        // Pop before a random horizon.
                        5 => {
                            let horizon = rng.next_below(34);
                            let due = model
                                .pending
                                .keys()
                                .next()
                                .is_some_and(|&(t, _)| t < horizon);
                            let expected = if due {
                                expect_pop(&q, &mut model, &ctx)
                            } else {
                                None
                            };
                            assert_eq!(q.pop_before(secs(horizon)), expected, "{ctx}: pop_before");
                            if let Some((t, _)) = expected {
                                last_popped = whole_secs(t);
                            }
                        }
                        // Peek, and probe a live id.
                        6 => {
                            let first = model.pending.keys().next().map(|&(t, _)| secs(t));
                            assert_eq!(q.peek_time(), first, "{ctx}: peek_time");
                            if let Some((_, id)) = model.singles().last() {
                                assert!(q.contains(id), "{ctx}: live id not pending");
                            }
                        }
                        // Pop.
                        _ => {
                            let expected = expect_pop(&q, &mut model, &ctx);
                            assert_eq!(q.pop(), expected, "{ctx}: pop");
                            if let Some((t, _)) = expected {
                                last_popped = whole_secs(t);
                            }
                        }
                    }
                }
                assert_eq!(q.len(), model.pending.len(), "{ctx}: length drifted");
                assert_eq!(
                    q.is_empty(),
                    model.pending.is_empty(),
                    "{ctx}: is_empty drifted"
                );
                assert_eq!(q.next_seq, model.rank, "{ctx}: an item took no seq, or two");
                assert_eq!(
                    (q.batch.keys.len(), q.batch.batches.len()),
                    (model.lane_len, model.lane_left.len()),
                    "{ctx}: batch lane drifted"
                );
            }

            let ctx = format!("seed {seed} drain");
            loop {
                let expected = expect_pop(&q, &mut model, &ctx);
                assert_eq!(q.pop(), expected, "{ctx}");
                if expected.is_none() {
                    break;
                }
            }

            // The lanes hold nothing and every slot is free exactly once:
            // no tombstone leaked, none released twice.
            let batch = &q.batch;
            assert!(
                batch.keys.is_empty() && batch.batches.is_empty() && batch.tail == SimTime::ZERO
            );
            let run = &q.push_run;
            assert_eq!((run.order.len(), run.dead, run.tail), (0, 0, SimTime::ZERO));
            assert!(q.heap.is_empty());
            let mut free = q.slab.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(
                free.len(),
                q.slab.slots.len(),
                "seed {seed}: slot leaked or freed twice"
            );
            for id in model.stale {
                assert!(!q.cancel(id), "seed {seed}: id survived drain");
            }
        }
        assert!(run_cancels > 0 && tombstones > 0 && heap_cancels > 0 && split_batches > 0);
        assert!(lane_pops.iter().all(|&n| n > 0), "lane pops {lane_pops:?}");
        assert!(
            push_run_cancels.iter().all(|&n| n > 0),
            "push-run cancels {push_run_cancels:?}"
        );
    }

    /// A cancelled push-run entry releases its capture at `cancel`, exactly
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
        let ids: Vec<EventId> = (0..4)
            .map(|t| q.push(SimTime::from_secs(t), event(t % 2 == 1)))
            .collect();
        assert_eq!(
            q.push_run.order.len(),
            4,
            "pushes in time order fill the run"
        );
        assert_eq!(Arc::strong_count(&token), 5);

        // Cancel the two entries behind the live front.
        let (spilled, inline) = (ids[1], ids[2]);
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
        let run = &q.push_run;
        assert_eq!((run.order.len(), run.dead, q.slab.free.len()), (1, 0, 3));

        // The freed slots are reused, not grown, and the old ids stay dead.
        let slots = q.slab.slots.len();
        for t in 10..13 {
            q.push(SimTime::from_secs(t), event(t % 2 == 0));
        }
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
