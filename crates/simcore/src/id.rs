//! Typed entity identifiers.
//!
//! Every simulated entity (host, VM, student, session, …) is addressed by a
//! small integer id. Wrapping the integer in a per-entity newtype prevents
//! accidentally indexing the VM table with a student id (C-NEWTYPE).
//!
//! The [`define_id!`](crate::define_id) macro generates the newtype plus the standard trait
//! surface; [`IdGen`] hands out fresh ids deterministically.

use std::marker::PhantomData;

/// Declares a newtype id with the standard trait surface.
///
/// The generated type wraps a `u64`, implements the common traits
/// (`Copy`, `Ord`, `Hash`, `Debug`, `Display`, …), exposes
/// `new(u64)`/`as_u64()`, and converts from/to `u64` via `From`.
///
/// # Examples
///
/// ```
/// elc_simcore::define_id!(
///     /// Identifies a widget.
///     pub struct WidgetId("widget")
/// );
///
/// let w = WidgetId::new(7);
/// assert_eq!(w.as_u64(), 7);
/// assert_eq!(w.to_string(), "widget-7");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* pub struct $name:ident($tag:literal)) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw index.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw index.
            #[must_use]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// The raw index as a `usize`, for table indexing.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}-{}", $tag, self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}-{}", $tag, self.0)
            }
        }
    };
}

/// A deterministic generator of sequential ids of type `T`.
///
/// # Examples
///
/// ```
/// use elc_simcore::id::IdGen;
///
/// elc_simcore::define_id!(pub struct NodeId("node"));
///
/// let mut gen: IdGen<NodeId> = IdGen::new();
/// assert_eq!(gen.next_id(), NodeId::new(0));
/// assert_eq!(gen.next_id(), NodeId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct IdGen<T> {
    next: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T: From<u64>> IdGen<T> {
    /// Creates a generator starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        IdGen {
            next: 0,
            _marker: PhantomData,
        }
    }

    /// Issues the next id.
    pub fn next_id(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }
}

impl<T: From<u64>> Default for IdGen<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_id!(
        /// Test id.
        pub struct TestId("test")
    );
    define_id!(pub struct OtherId("other"));

    #[test]
    fn ids_are_sequential() {
        let mut gen: IdGen<TestId> = IdGen::new();
        let a = gen.next_id();
        let b = gen.next_id();
        assert_eq!(a, TestId::new(0));
        assert_eq!(b, TestId::new(1));
        assert!(a < b);
    }

    #[test]
    fn display_uses_tag() {
        assert_eq!(TestId::new(42).to_string(), "test-42");
        assert_eq!(format!("{:?}", OtherId::new(3)), "other-3");
    }

    #[test]
    fn conversions_round_trip() {
        let id = TestId::from(9);
        let raw: u64 = id.into();
        assert_eq!(raw, 9);
        assert_eq!(id.index(), 9);
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // This is a compile-time property; we just confirm both exist side by
        // side with the same raw value and stay distinct types.
        let t = TestId::new(1);
        let o = OtherId::new(1);
        assert_eq!(t.as_u64(), o.as_u64());
    }

    #[test]
    fn default_generator_starts_at_zero() {
        let mut gen: IdGen<TestId> = IdGen::default();
        assert_eq!(gen.next_id(), TestId::new(0));
        assert_eq!(gen.next_id(), TestId::new(1));
    }
}
