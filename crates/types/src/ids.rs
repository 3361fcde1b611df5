//! Strongly-typed identifiers for the entities flowing through the
//! pipeline.
//!
//! Every table in the pipeline (ELT, YET, YELT, YLT, YELLT) is keyed by
//! some combination of event, trial, layer and location. Using newtypes
//! instead of bare integers makes it impossible to, say, index an
//! event-loss table with a trial number — a bug class that is otherwise
//! invisible in columnar code.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $repr:ty) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $name(pub $repr);

        impl $name {
            /// Construct from the raw integer representation.
            #[inline]
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// The raw integer representation.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// The identifier as a `usize`, for indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$repr> for $name {
            #[inline]
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $repr {
            #[inline]
            fn from(id: $name) -> $repr {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Identifier of a stochastic catalogue event.
    EventId,
    u32
);
id_newtype!(
    /// Identifier of a simulation trial (one alternative realisation of the
    /// contractual year).
    TrialId,
    u32
);
id_newtype!(
    /// Identifier of a portfolio layer (a reinsurance contract).
    LayerId,
    u32
);
id_newtype!(
    /// Identifier of an exposed location (a site in the exposure database).
    LocationId,
    u32
);
id_newtype!(
    /// Identifier of a simulated cluster node (MapReduce substrate).
    NodeId,
    u16
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_raw() {
        let e = EventId::new(42);
        assert_eq!(e.raw(), 42);
        assert_eq!(e.index(), 42usize);
        assert_eq!(u32::from(e), 42);
        assert_eq!(EventId::from(42u32), e);
    }

    #[test]
    fn display_names_the_type() {
        assert_eq!(EventId::new(7).to_string(), "EventId(7)");
        assert_eq!(TrialId::new(0).to_string(), "TrialId(0)");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(LayerId::new(1) < LayerId::new(2));
        let mut v = vec![TrialId::new(3), TrialId::new(1), TrialId::new(2)];
        v.sort();
        assert_eq!(v, vec![TrialId::new(1), TrialId::new(2), TrialId::new(3)]);
    }

    #[test]
    fn hashable_in_sets() {
        #[expect(clippy::disallowed_types, reason = "the test is of the Hash impl")]
        let mut s = std::collections::HashSet::new();
        s.insert(LocationId::new(1));
        s.insert(LocationId::new(1));
        s.insert(LocationId::new(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(EventId::default().raw(), 0);
    }
}
