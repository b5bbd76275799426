//! Inline-payload event handlers: the small-closure optimization.
//!
//! Before this module existed, every scheduled event was an
//! `Box<dyn FnOnce(&mut Simulation<S>)>` — one heap allocation (and one
//! free) per event for any closure that captures so much as a single id.
//! At the millions-of-events scale the workload models run at, that malloc
//! pair *was* the hot path.
//!
//! [`EventFn`] removes it. Each value carries a fixed-size payload buffer
//! ([`INLINE_EVENT_BYTES`] bytes, 8-byte aligned); a closure whose size and
//! alignment fit is moved **into the buffer** and dispatched through a
//! monomorphized vtable (an `EventVTable`: `call` consumes the payload,
//! `drop_fn` destroys an unfired one, `copy` clones a repeatable one).
//! Oversized or over-aligned closures spill to a `Box<F>`, which is itself
//! stored in the buffer (a pointer always fits) and handled by the same
//! vtable functions, so the executive's slab arena stores one uniform
//! payload type either way. The vtable is a single `&'static` pointer, not
//! inline function pointers, which keeps the whole `EventFn` at 64 bytes —
//! one cache line per slot payload, and the size every pop/push copies.
//!
//! A handler built with `EventFn::repeatable` can also be copied
//! (`EventFn::repeat`): `Simulation::schedule_batch` stores a batch's
//! handler once and copies it as each entry fires.
//!
//! Whether a closure spills is a property of its *type*, decided at
//! monomorphization time — never of runtime data — so the inline/spilled
//! split cannot perturb determinism. `Simulation` counts both per run
//! (`RunStats::inline_scheduled` / `RunStats::spilled_scheduled`) so a
//! model crate that grows a capture past the threshold is visible in
//! stats, traces and the committed bench JSON rather than silently
//! re-introducing a malloc per event.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe` (the crate is
//! otherwise `#![deny(unsafe_code)]`). The invariants are local and small:
//!
//! * the buffer holds a valid `F` (inline) or a valid `Box<F>` (spilled)
//!   from construction until exactly one of `call` / `Drop` consumes it;
//!   `repeat` only reads it, to clone it into a new buffer;
//! * `call` takes `self` by value and forgets it via [`ManuallyDrop`], so
//!   the payload is moved out exactly once and `Drop` cannot run after it;
//! * the vtable is chosen once, at construction, by the only function that
//!   knows the concrete `F`, and a copy keeps the vtable of its original.
//!
//! The `straddles the inline threshold` integration test
//! (`tests/inline_spill_recycling.rs`) pins no-leak / no-double-drop
//! behaviour for both representations across arena slot recycling.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::sim::Simulation;

/// Inline payload capacity, in bytes. Sized so the steady-state event mix
/// of the model crates — captures of a few ids, indices, a `SimDuration`
/// and a ZST-or-small user closure — stays inline with headroom, while the
/// whole [`EventFn`] (payload plus vtable pointer) is exactly 64 bytes:
/// one cache line moved per push and per pop.
pub const INLINE_EVENT_BYTES: usize = 56;

/// The payload buffer. `align(8)` accommodates every capture the models
/// use (`u64`s, `f64`s, pointers, small structs); a closure with stricter
/// alignment (e.g. SIMD types) spills rather than being stored misaligned.
#[repr(C, align(8))]
struct PayloadBuf {
    bytes: MaybeUninit<[u8; INLINE_EVENT_BYTES]>,
}

impl PayloadBuf {
    #[inline]
    fn uninit() -> Self {
        PayloadBuf {
            bytes: MaybeUninit::uninit(),
        }
    }

    #[inline]
    fn as_mut_ptr(&mut self) -> *mut u8 {
        self.bytes.as_mut_ptr().cast::<u8>()
    }

    #[inline]
    fn as_ptr(&self) -> *const u8 {
        self.bytes.as_ptr().cast::<u8>()
    }
}

/// The boxed handler [`EventFn`] replaces. Handlers are `Send` so a whole
/// `Simulation` can move onto a shard worker thread (see [`crate::shard`]).
type Boxed<S> = Box<dyn FnOnce(&mut Simulation<S>) + Send>;

/// The manual vtable shared by every event of one closure type: how to run
/// the payload, how to destroy an unfired one, how to copy a repeatable
/// one, and which representation it uses. Stored behind one `&'static`
/// pointer per [`EventFn`].
///
/// The simulation parameter is erased (`*mut ()`) so the vtable type needs
/// no `S: 'static` bound; [`EventFn::call`] re-supplies the concrete
/// `&mut Simulation<S>`, which is sound because `EventFn<S>` only ever
/// holds vtables built for that same `S`.
struct EventVTable {
    /// Consumes the payload at `*buf` and runs it against the erased
    /// `*mut Simulation<S>`.
    call: unsafe fn(*mut u8, *mut ()),
    /// Destroys an unfired payload at `*buf`.
    drop_fn: unsafe fn(*mut u8),
    /// Clones the payload at the first buffer into the second, which is
    /// uninitialized. `None` unless built by `EventFn::repeatable`.
    copy: Option<unsafe fn(*const u8, *mut u8)>,
    /// Whether the payload is a spilled `Box` rather than an inline `F`.
    spilled: bool,
}

/// Const-promotable vtable instances for one `(S, F)` pair. Referencing an
/// associated `const` of this holder promotes it to a `'static`, exactly
/// like the `RawWakerVTable` pattern in async executors.
///
/// The `fn(..)`-wrapped phantom params keep the holder covariant-free and
/// `Send`/`Sync`-neutral without requiring `S: Sized + 'static` bounds.
#[allow(clippy::type_complexity)]
struct VTables<S, F>(PhantomData<(fn(S), fn(F))>);

impl<S, F: FnOnce(&mut Simulation<S>) + Send + 'static> VTables<S, F> {
    const INLINE: EventVTable = EventVTable {
        call: call_in_buf::<S, F>,
        drop_fn: drop_in_buf::<F>,
        copy: None,
        spilled: false,
    };
    const SPILLED: EventVTable = EventVTable {
        call: call_in_buf::<S, Box<F>>,
        drop_fn: drop_in_buf::<Box<F>>,
        copy: None,
        spilled: true,
    };
}

impl<S, F: Fn(&mut Simulation<S>) + Clone + Send + 'static> VTables<S, F> {
    const INLINE_REPEATABLE: EventVTable = EventVTable {
        copy: Some(copy_in_buf::<F>),
        ..Self::INLINE
    };
    const SPILLED_REPEATABLE: EventVTable = EventVTable {
        copy: Some(copy_in_buf::<Box<F>>),
        ..Self::SPILLED
    };
}

/// An event handler with inline payload storage.
///
/// Closures at or under [`INLINE_EVENT_BYTES`] bytes (and at most 8-byte
/// alignment) are stored in place — scheduling one performs **zero** heap
/// allocations. Larger closures transparently spill to a `Box`.
///
/// Constructed by `Simulation`'s scheduling methods; consumed by the
/// executive via [`EventFn::call`], or dropped in place when the event is
/// cancelled.
pub struct EventFn<S> {
    buf: PayloadBuf,
    vtable: &'static EventVTable,
    /// Every constructor requires a `Send` payload, so the type inherits
    /// `Send` from the boxed form it replaces — which is what lets the
    /// shard executor move whole simulations across worker threads.
    _marker: PhantomData<Boxed<S>>,
}

impl<S> EventFn<S> {
    /// Whether closures of type `F` are stored inline. A property of the
    /// type alone, so the answer is the same for every instance — which is
    /// what lets `Simulation`'s scheduling methods count a whole batch (or
    /// fold the counter branch away entirely) with one compile-time check.
    #[must_use]
    pub const fn stores_inline<F>() -> bool
    where
        F: FnOnce(&mut Simulation<S>) + Send + 'static,
    {
        size_of::<F>() <= INLINE_EVENT_BYTES && align_of::<F>() <= align_of::<PayloadBuf>()
    }

    /// Wraps `handler`, inline when it fits.
    #[inline]
    pub fn new<F>(handler: F) -> Self
    where
        F: FnOnce(&mut Simulation<S>) + Send + 'static,
    {
        // SAFETY: each vtable is built for the payload type stored under
        // it.
        #[allow(unsafe_code)]
        unsafe {
            if const { Self::stores_inline::<F>() } {
                Self::store(handler, &VTables::<S, F>::INLINE)
            } else {
                Self::store(Box::new(handler), &VTables::<S, F>::SPILLED)
            }
        }
    }

    /// Wraps `handler` like [`EventFn::new`], and also lets
    /// [`EventFn::repeat`] copy it.
    #[inline]
    pub(crate) fn repeatable<F>(handler: F) -> Self
    where
        F: Fn(&mut Simulation<S>) + Clone + Send + 'static,
    {
        // SAFETY: each vtable is built for the payload type stored under
        // it.
        #[allow(unsafe_code)]
        unsafe {
            if const { Self::stores_inline::<F>() } {
                Self::store(handler, &VTables::<S, F>::INLINE_REPEATABLE)
            } else {
                Self::store(Box::new(handler), &VTables::<S, F>::SPILLED_REPEATABLE)
            }
        }
    }

    /// Moves `payload` into a new buffer under `vtable`.
    ///
    /// # Safety
    ///
    /// `vtable` must be one [`VTables`] builds for `payload`'s type: for
    /// `F` if it is an inline `F`, for `F` if it is a spilled `Box<F>`.
    #[allow(unsafe_code)]
    #[inline(always)]
    unsafe fn store<T>(payload: T, vtable: &'static EventVTable) -> Self {
        // Folded away: both sides are constants.
        assert!(
            size_of::<T>() <= INLINE_EVENT_BYTES && align_of::<T>() <= align_of::<PayloadBuf>()
        );
        let mut buf = PayloadBuf::uninit();
        // SAFETY: size and alignment of `T` were checked against the
        // buffer; the write initializes the payload `vtable` reads as `T`.
        #[allow(unsafe_code)]
        unsafe {
            buf.as_mut_ptr().cast::<T>().write(payload);
        }
        EventFn {
            buf,
            vtable,
            _marker: PhantomData,
        }
    }

    /// A copy of this handler, inline or spilled as the original is: a
    /// clone of the closure, which runs and drops independently of it.
    ///
    /// # Panics
    ///
    /// Panics unless the handler was built by [`EventFn::repeatable`].
    #[inline]
    #[must_use]
    pub(crate) fn repeat(&self) -> Self {
        let copy = self
            .vtable
            .copy
            .expect("only a handler built by EventFn::repeatable can be copied");
        let mut buf = PayloadBuf::uninit();
        // SAFETY: `self` holds a live payload of the type `copy` was
        // monomorphized with (both come from one vtable), and `buf` is a
        // fresh buffer for the clone, which the same vtable then owns.
        #[allow(unsafe_code)]
        unsafe {
            copy(self.buf.as_ptr(), buf.as_mut_ptr());
        }
        EventFn {
            buf,
            vtable: self.vtable,
            _marker: PhantomData,
        }
    }

    /// Whether this event spilled to a heap allocation.
    #[inline]
    #[must_use]
    pub fn is_spilled(&self) -> bool {
        self.vtable.spilled
    }

    /// Runs the handler, consuming the event.
    #[inline]
    pub fn call(self, sim: &mut Simulation<S>) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the buffer holds a live payload (nothing consumed it
        // yet), and `ManuallyDrop` guarantees `Drop` will not run after
        // `call` moves the payload out — each payload is consumed once.
        // The erased pointer is a `&mut Simulation<S>` for the same `S`
        // the vtable was monomorphized with.
        #[allow(unsafe_code)]
        unsafe {
            (this.vtable.call)(this.buf.as_mut_ptr(), (sim as *mut Simulation<S>).cast());
        }
    }
}

impl<S> Drop for EventFn<S> {
    fn drop(&mut self) {
        // SAFETY: `Drop` only runs on events never passed to `call`
        // (cancelled or still pending at teardown), so the buffer still
        // holds a live payload for `drop_fn` to destroy — exactly once,
        // because `call` suppresses `Drop` via `ManuallyDrop`.
        #[allow(unsafe_code)]
        unsafe {
            (self.vtable.drop_fn)(self.buf.as_mut_ptr());
        }
    }
}

impl<S> std::fmt::Debug for EventFn<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventFn")
            .field("spilled", &self.is_spilled())
            .finish_non_exhaustive()
    }
}

/// Reads the handler `T` (an inline `F` or a spilled `Box<F>`) out of the
/// buffer and runs it.
#[allow(unsafe_code)]
unsafe fn call_in_buf<S, T: FnOnce(&mut Simulation<S>)>(buf: *mut u8, sim: *mut ()) {
    // SAFETY (caller): `buf` holds an initialized `T` that nothing else
    // will read or drop again, and `sim` is a live `&mut Simulation<S>`
    // erased by `EventFn::call`.
    let f = unsafe { buf.cast::<T>().read() };
    f(unsafe { &mut *sim.cast::<Simulation<S>>() });
}

/// Writes a clone of the payload of type `T` in `src` into `dst`.
#[allow(unsafe_code)]
unsafe fn copy_in_buf<T: Clone>(src: *const u8, dst: *mut u8) {
    // SAFETY (caller): `src` holds an initialized `T`, and `dst` is an
    // uninitialized buffer with room and alignment for one.
    unsafe { dst.cast::<T>().write((*src.cast::<T>()).clone()) }
}

/// Drops the payload of type `T` in place inside the buffer.
#[allow(unsafe_code)]
unsafe fn drop_in_buf<T>(buf: *mut u8) {
    // SAFETY (caller): `buf` holds an initialized `T` that nothing else
    // will read or drop again.
    unsafe { buf.cast::<T>().drop_in_place() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn event_fn_is_one_cache_line() {
        assert_eq!(size_of::<EventFn<u32>>(), 64);
        // The vtable reference provides a niche, so the arena's
        // `Option<EventFn>` slots pay no discriminant overhead.
        assert_eq!(size_of::<Option<EventFn<u32>>>(), 64);
    }

    #[test]
    fn zst_and_small_captures_stay_inline() {
        assert!(EventFn::<u32>::stores_inline::<fn(&mut Simulation<u32>)>());
        let ev = EventFn::<u32>::new(|s: &mut Simulation<u32>| *s.state_mut() += 1);
        assert!(!ev.is_spilled());
        let (a, b) = (1u64, 2u64);
        let ev = EventFn::<u32>::new(move |s: &mut Simulation<u32>| {
            *s.state_mut() += (a + b) as u32;
        });
        assert!(!ev.is_spilled(), "16-byte capture must stay inline");
        drop(ev);
    }

    #[test]
    fn capture_at_the_threshold_is_inline_and_over_it_spills() {
        let at = [0u8; INLINE_EVENT_BYTES];
        let ev = EventFn::<u32>::new(move |_s: &mut Simulation<u32>| {
            std::hint::black_box(at[0]);
        });
        assert!(!ev.is_spilled(), "exactly {INLINE_EVENT_BYTES} bytes fits");

        let over = [0u8; INLINE_EVENT_BYTES + 1];
        let ev = EventFn::<u32>::new(move |_s: &mut Simulation<u32>| {
            std::hint::black_box(over[0]);
        });
        assert!(ev.is_spilled(), "one byte over must spill");
    }

    #[test]
    fn over_aligned_capture_spills() {
        #[repr(align(32))]
        #[derive(Clone, Copy)]
        struct Wide(u8);
        let w = Wide(3);
        assert_eq!(w.0, 3);
        // Capture the whole struct (not the disjoint `w.0` field) so the
        // closure inherits its 32-byte alignment.
        let ev = EventFn::<u32>::new(move |_s: &mut Simulation<u32>| {
            std::hint::black_box(w);
        });
        assert!(ev.is_spilled(), "align 32 exceeds the buffer's align 8");
    }

    #[test]
    fn call_runs_the_handler_once() {
        let mut sim = Simulation::new(1, 0u32);
        EventFn::new(|s: &mut Simulation<u32>| *s.state_mut() += 5).call(&mut sim);
        assert_eq!(*sim.state(), 5);
    }

    #[test]
    fn dropping_unfired_events_releases_captures_once() {
        // An Arc's strong count observes drops exactly: leaking keeps it
        // elevated, double-dropping would abort or corrupt.
        let token = Arc::new(());

        // Inline representation.
        let held = Arc::clone(&token);
        let ev = EventFn::<u32>::new(move |_s: &mut Simulation<u32>| {
            let _ = &held;
        });
        assert!(!ev.is_spilled());
        assert_eq!(Arc::strong_count(&token), 2);
        drop(ev);
        assert_eq!(Arc::strong_count(&token), 1, "inline capture must drop");

        // Spilled representation (an array capture pushes the closure over
        // the threshold — a Vec would not, its 24-byte header is inline).
        let held = Arc::clone(&token);
        let big = [0u8; INLINE_EVENT_BYTES + 1];
        let ev = EventFn::<u32>::new(move |_s: &mut Simulation<u32>| {
            let _ = (&held, &big);
        });
        assert!(ev.is_spilled());
        assert_eq!(Arc::strong_count(&token), 2);
        drop(ev);
        assert_eq!(Arc::strong_count(&token), 1, "spilled capture must drop");
    }

    #[test]
    fn calling_releases_captures_exactly_once() {
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let mut sim = Simulation::new(1, 0u32);
        EventFn::new(move |s: &mut Simulation<u32>| {
            let _ = &held;
            *s.state_mut() += 1;
        })
        .call(&mut sim);
        assert_eq!(*sim.state(), 1);
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "capture must drop after the call"
        );
    }

    #[test]
    fn repeated_handlers_run_and_release_captures_independently() {
        let token = Arc::new(());
        let mut sim = Simulation::new(1, 0u32);
        let held = Arc::clone(&token);
        let inline = EventFn::<u32>::repeatable(move |s: &mut Simulation<u32>| {
            let _ = &held;
            *s.state_mut() += 1;
        });
        let held = Arc::clone(&token);
        let pad = [1u8; INLINE_EVENT_BYTES + 1];
        let spilled = EventFn::<u32>::repeatable(move |s: &mut Simulation<u32>| {
            let _ = &held;
            *s.state_mut() += u32::from(pad[0]);
        });
        for (proto, spills) in [(inline, false), (spilled, true)] {
            let held = Arc::strong_count(&token);
            let copy = proto.repeat();
            assert_eq!((proto.is_spilled(), copy.is_spilled()), (spills, spills));
            assert_eq!(
                Arc::strong_count(&token),
                held + 1,
                "a copy clones the capture"
            );
            copy.call(&mut sim);
            assert_eq!(Arc::strong_count(&token), held, "a copy releases its own");
            drop(proto.repeat());
            assert_eq!(Arc::strong_count(&token), held);
            proto.call(&mut sim);
            assert_eq!(Arc::strong_count(&token), held - 1);
        }
        assert_eq!(*sim.state(), 4);
    }

    #[test]
    #[should_panic(expected = "EventFn::repeatable")]
    fn only_repeatable_handlers_can_be_copied() {
        let _ = EventFn::<u32>::new(|_s: &mut Simulation<u32>| {}).repeat();
    }

    #[test]
    fn debug_shows_representation() {
        let ev = EventFn::<u32>::new(|_s: &mut Simulation<u32>| {});
        assert!(format!("{ev:?}").contains("spilled: false"));
    }
}
