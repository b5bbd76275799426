//! The pending-event set: a slab-backed event arena.
//!
//! A classic discrete-event simulator is a loop around a priority queue of
//! timestamped events. For reproducibility, events scheduled for the same
//! instant fire in scheduling order (FIFO), enforced with a monotone
//! sequence number in the key `(SimTime, seq)`.
//!
//! The implementation is built for the hot path (see DESIGN.md):
//!
//! * **Slab slots** — every event pushed one at a time lives in a slot of
//!   one flat `Vec<Slot<E>>`. Fired slots go on a free list and are
//!   reused, so a steady-state simulation performs no per-event heap
//!   allocation after warm-up.
//! * **Three lanes** — a pending event waits in one of three lanes, and
//!   every pop takes whichever lane front is smallest by `(time, seq)`:
//!   * the **batch lane** takes each item of [`EventQueue::push_batch`]
//!     whose time does not precede the lane's tail, so a sorted batch — a
//!     tick of arrivals — never touches the heap or the slab. It holds a
//!     16-byte `(time, seq)` key per entry and each batch's payload once,
//!     with the copier that makes one per entry as it fires;
//!   * the **push run**, a FIFO of slot indices already in `(time, seq)`
//!     order, takes each single [`EventQueue::push`] whose time does not
//!     precede its tail: a model that schedules at a fixed delay from a
//!     clock that only moves forward (a service completion at
//!     `now + service_time`) pushes in time order, so every such push and
//!     pop is O(1);
//!   * the **four-ary min-heap** of slot indices holds everything else:
//!     batch items that precede the batch lane's tail, each with its own
//!     copy of the payload, and single pushes that precede the push run's.
//!     Four-ary keeps the heap a level shallower than binary and sifts
//!     through cache-adjacent children.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Branching factor of the heap. Four children per node halves the depth of
/// a binary heap and keeps all children of a node in one or two cache lines.
const ARITY: usize = 4;

/// One arena slot. `payload` is `Some` while the event is pending; `time`
/// and `seq` are only meaningful then.
struct Slot<E> {
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
    /// Fills a free (or new) slot with a pending event and returns its
    /// index; the caller links the slot into its lane.
    #[inline(always)]
    fn occupy(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.time = time;
                s.seq = seq;
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Slot {
                    seq,
                    time,
                    payload: Some(payload),
                });
                slot
            }
        }
    }

    /// Returns the slot to the free list.
    #[inline(always)]
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Puts a batch entry's payload, fired at `time`, in a free slot for
    /// [`EventQueue::take_first`] to move out, so every lane hands its
    /// event over the same way: a separate return path for batch entries
    /// cost a 1-pending event chain 8–23% in paired runs. The slot stays
    /// on the free list.
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
/// `seq` only grows, so that keeps the order.
struct Run {
    order: VecDeque<u32>,
    /// The time of the back entry, or zero while the run is empty: the
    /// earliest time the run accepts. Cached, so a push never reads the
    /// back entry's slot.
    tail: SimTime,
}

impl Run {
    const fn new() -> Self {
        Run {
            order: VecDeque::new(),
            tail: SimTime::ZERO,
        }
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

    /// [`EventQueue::detach_root`] for the run's front, with the same
    /// contract. Inline: for a model whose next event is always its last
    /// push (a 1-pending event chain) this is the whole pop, and an out of
    /// line call here cost that chain ~10%.
    #[inline(always)]
    fn detach_front<E>(&mut self, slab: &mut Slab<E>) -> u32 {
        let slot = self.order.pop_front().expect("run entry exists");
        slab.release(slot);
        if self.order.is_empty() {
            self.tail = SimTime::ZERO;
        }
        slot
    }
}

/// The lane holding the earliest pending event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    Heap,
    Batch,
    PushRun,
}

/// A time-ordered queue of pending events with O(log n) push and pop —
/// O(1) for events that arrive in time order — backed by a slab of
/// reusable slots.
///
/// Three lanes hold the pending events (see the [module docs](self)): a
/// batch lane for sorted [`EventQueue::push_batch`] items, which holds
/// their keys plus one payload per batch; a push run for single
/// [`EventQueue::push`]es that do not precede its tail; and a heap for the
/// rest.
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
        EventQueue {
            slab: Slab {
                slots: Vec::new(),
                free: Vec::new(),
            },
            heap: Vec::new(),
            batch: BatchLane::new(),
            push_run: Run::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    ///
    /// An event whose time does not precede the push run's tail joins the
    /// run in O(1); any other takes the heap.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        // One `occupy` call for both lanes: the payload then moves into
        // its slot in a single copy, not staged on the stack for two.
        let slot = self.occupy(time, payload);
        if self.push_run.accepts(time) {
            self.push_run.append(slot, time);
        } else {
            self.heap_insert(slot);
        }
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
    /// item takes the heap with its own copy.
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
                let slot = self.occupy(time, repeat(&proto));
                self.heap_insert(slot);
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

    /// Takes the next sequence number and fills a slot with the event.
    #[inline(always)]
    fn occupy(&mut self, time: SimTime, payload: E) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slab.occupy(time, seq, payload)
    }

    /// Adds the occupied `slot` to the heap.
    #[inline]
    fn heap_insert(&mut self, slot: u32) {
        self.heap.push(slot);
        self.sift_up(self.heap.len() - 1);
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
        self.heap.len() + self.batch.keys.len() + self.push_run.order.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
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
            Lane::Heap => self.detach_root(),
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

    /// Detaches the heap's root: removes it from the heap and releases its
    /// slot index to the free list. Returns the slot; the *payload is left
    /// in the slot* for [`EventQueue::take_first`] to move out. Keeping the
    /// payload out of this function means its one potentially allocating
    /// call (`free.push`) never has a live payload on the stack across it —
    /// the compiler then moves the payload slot → caller in a single copy.
    /// The caller guarantees the heap is not empty and must clear
    /// `payload` before the next push reuses the slot.
    #[inline(always)]
    fn detach_root(&mut self) -> u32 {
        let slot = self.heap[0];
        let last = self.heap.pop().expect("heap has a root");
        if !self.heap.is_empty() {
            // Move the former last element into the hole, then restore the
            // heap invariant below it.
            self.heap[0] = last;
            self.sift_down();
        }
        self.slab.release(slot);
        slot
    }

    /// Moves the element at `pos` up while it beats its parent.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !self.slab.fires_before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Moves the root down while any child beats it.
    fn sift_down(&mut self) {
        let mut pos = 0;
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
    /// starting before the batch lane's tail), and `pop`, `pop_before`,
    /// `peek_time`, `len` and `is_empty` checked at every step. The model
    /// keeps its own copy of both lanes' admission rules, so it also
    /// checks which lane each event pops from and that only a batch's
    /// last entry in the lane pops the batch's payload itself. After the
    /// final drain the lanes hold nothing and every slot is free exactly
    /// once.
    #[test]
    fn random_walk_matches_reference() {
        use std::collections::BTreeMap;

        /// Delay of a completion-like push after the last popped time.
        const SERVICE: u64 = 3;
        /// Marks a batch's payload, its tag; a single push's is its rank.
        const BATCH: u64 = 1 << 62;
        /// Marks a copy of a batch's payload.
        const COPY: u64 = 1 << 63;

        /// A pending event in the model, with the lane it waits in.
        #[derive(Clone, Copy)]
        enum Entry {
            Single { in_run: bool },
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
            run_len: usize,
            run_tail: u64,
            rank: u64,
        }

        impl Model {
            fn push(&mut self, t: u64) {
                let in_run = self.run_len == 0 || t >= self.run_tail;
                if in_run {
                    self.run_len += 1;
                    self.run_tail = t;
                }
                self.pending
                    .insert((t, self.rank), Entry::Single { in_run });
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

            /// The earliest time the push run accepts.
            fn run_back(&self) -> u64 {
                if self.run_len == 0 {
                    0
                } else {
                    self.run_tail
                }
            }

            /// Removes the earliest event: its time, the payload the queue
            /// must pop for it, and the lane it waits in.
            fn pop(&mut self) -> Option<(u64, u64, Lane)> {
                let ((t, rank), entry) = self.pending.pop_first()?;
                Some(match entry {
                    Entry::Single { in_run: false } => (t, rank, Lane::Heap),
                    Entry::Single { in_run: true } => {
                        self.run_len -= 1;
                        (t, rank, Lane::PushRun)
                    }
                    Entry::Batch {
                        tag,
                        in_lane: false,
                    } => (t, tag | COPY, Lane::Heap),
                    Entry::Batch { tag, in_lane: true } => {
                        self.lane_len -= 1;
                        let left = self.lane_left.get_mut(&tag).expect("batch is in the lane");
                        *left -= 1;
                        if *left == 0 {
                            self.lane_left.remove(&tag);
                            (t, tag, Lane::Batch)
                        } else {
                            (t, tag | COPY, Lane::Batch)
                        }
                    }
                })
            }
        }

        let secs = |t: u64| SimTime::from_secs(t);
        let whole_secs = |t: SimTime| t.as_nanos() / 1_000_000_000;
        // Operation kinds that must each have happened across the seeds.
        let (mut split_batches, mut lane_pops) = (0u32, [0u32; 3]);
        for seed in 0..32u64 {
            let mut rng = SimRng::seed(0xE1C2).derive_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut last_popped = 0u64;
            // Takes the model's next event, as the queue must pop it next,
            // after checking and counting the lane the queue holds it in.
            let mut expect_pop = |q: &EventQueue<u64>, model: &mut Model, ctx: &str| {
                let (t, payload, lane) = model.pop()?;
                assert_eq!(q.first(), Some(lane), "{ctx}: lane");
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
                    3 => Some(model.run_back().saturating_sub(1 + rng.next_below(4))),
                    _ => None,
                };
                if let Some(t) = single {
                    q.push(secs(t), model.rank);
                    model.push(t);
                } else {
                    match rng.next_below(8) {
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
                        // Pop before a random horizon.
                        2 => {
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
                        // Peek.
                        3 => {
                            let first = model.pending.keys().next().map(|&(t, _)| secs(t));
                            assert_eq!(q.peek_time(), first, "{ctx}: peek_time");
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
                assert_eq!(
                    q.push_run.order.len(),
                    model.run_len,
                    "{ctx}: push run drifted"
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

            // The lanes hold nothing, accept any time again, and every
            // slot is free exactly once: none leaked, none released twice.
            let batch = &q.batch;
            assert!(
                batch.keys.is_empty() && batch.batches.is_empty() && batch.tail == SimTime::ZERO
            );
            let run = &q.push_run;
            assert_eq!((run.order.len(), run.tail), (0, SimTime::ZERO));
            assert!(q.heap.is_empty());
            let mut free = q.slab.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(
                free.len(),
                q.slab.slots.len(),
                "seed {seed}: slot leaked or freed twice"
            );
            assert_eq!(
                free.len(),
                q.slab.free.len(),
                "seed {seed}: slot freed twice"
            );
        }
        assert!(split_batches > 0);
        assert!(lane_pops.iter().all(|&n| n > 0), "lane pops {lane_pops:?}");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
