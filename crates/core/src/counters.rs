//! Counter sets declared once: the [`counter_set!`](crate::counter_set)
//! macro.
//!
//! A serving counter set is a block of shared atomics updated on the
//! hot path plus an owned, serializable snapshot of it that can be
//! merged across shards or nodes and differenced across time. Written
//! by hand, every counter has to be spelled at each of those sites —
//! field, constructor, accessor, snapshot field, `snapshot()`,
//! `merged()`, `delta()` — and a site someone forgets silently drops
//! the counter from an aggregate. [`counter_set!`](crate::counter_set)
//! takes each counter once, with its doc line and its kind, and
//! generates every site from that one declaration.

/// Declare a counter set once and generate its atomic struct, its
/// snapshot struct, and the aggregation between them.
///
/// The invocation names two structs. The first holds the live atomics
/// (plus any extra non-counter fields listed in its braces); the
/// second, always `pub`, is its owned snapshot, whose braces list the
/// counters, each as `kind name` under its doc comment:
///
/// | kind | atomic field | snapshot field | `merged` | `delta` |
/// |------|--------------|----------------|----------|---------|
/// | `sum` | `AtomicU64` | `u64` | sum | saturating difference |
/// | `max` (a high-water mark) | `AtomicU64` | `u64` | max | the later value |
/// | `per_index` | `Vec<AtomicU64>` | `Vec<u64>` | element-wise sum | element-wise saturating difference |
/// | `total name = reader` | `Vec<AtomicU64>` | `u64` from `self.reader()` | sum | saturating difference |
///
/// A `total` counter keeps per-index atomics whose owner adds more
/// state to the snapshot value (for example counts that live
/// elsewhere), so its accessor and its `reader` are written by hand;
/// every other kind gets a `pub fn name(&self)` accessor that loads
/// with `Relaxed` ordering.
///
/// Generated on the atomic struct:
/// - a private `new(len, extra fields...)` constructor sizing every
///   vector counter to `len` entries;
/// - the accessors and `pub fn snapshot(&self)`.
///
/// Generated on the snapshot struct (whose derives the caller lists
/// and which must include `serde::Serialize`/`Deserialize` and
/// `Default`):
/// - one `pub` field per counter, in declaration order, each
///   `#[serde(default)]` so frames lacking a counter still decode;
/// - `COUNTERS`, the declared `(name, kind)` pairs in order;
/// - `merged(self, other)` and a saturating `delta(&self, prev)`.
///
/// Hot-path code updates the atomic fields directly (they are
/// private to the invoking module).
///
/// # Examples
///
/// ```
/// use serde::{Deserialize, Serialize};
///
/// willump::counter_set! {
///     /// Live counters.
///     #[derive(Debug)]
///     pub struct Hits {}
///     /// Snapshot of [`Hits`].
///     #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
///     pub struct HitsSnapshot {
///         /// Requests served.
///         sum served,
///         /// Largest batch seen.
///         max peak_batch,
///         /// Requests per worker.
///         per_index per_worker,
///     }
/// }
///
/// let hits = Hits::new(2);
/// hits.served.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// hits.peak_batch.fetch_max(8, std::sync::atomic::Ordering::Relaxed);
/// hits.per_worker[1].fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// let before = HitsSnapshot::default();
/// let now = hits.snapshot();
/// assert_eq!(now.per_worker, vec![0, 3]);
/// assert_eq!(now.clone().merged(now.clone()).served, 6);
/// assert_eq!(now.delta(&before).peak_batch, 8);
/// assert_eq!(HitsSnapshot::COUNTERS[1], ("peak_batch", "max"));
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Atomic:ident {
            $( $(#[$xmeta:meta])* $xname:ident : $xty:ty ),* $(,)?
        }
        $(#[$smeta:meta])*
        pub struct $Snap:ident {
            $(
                $(#[doc = $doc:literal])*
                $kind:ident $name:ident $(= $reader:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Atomic {
            $( $name: $crate::counter_set!(@atomic $kind), )*
            $( $(#[$xmeta])* $xname: $xty, )*
        }

        impl $Atomic {
            /// Zeroed counters, each vector counter `len` entries long.
            #[allow(dead_code, unused_variables)]
            fn new(len: usize $(, $xname: $xty)*) -> $Atomic {
                $Atomic {
                    $( $name: $crate::counter_set!(@init $kind len), )*
                    $( $xname, )*
                }
            }

            $( $crate::counter_set!(@accessor [$(#[doc = $doc])*] $kind $name); )*

            #[doc = concat!(
                "A point-in-time copy of every counter (see [`",
                stringify!($Snap),
                "`]).",
            )]
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $name: $crate::counter_set!(@read self $kind $name $(= $reader)?), )*
                }
            }
        }

        $(#[$smeta])*
        pub struct $Snap {
            $(
                $(#[doc = $doc])*
                #[serde(default)]
                pub $name: $crate::counter_set!(@snapshot_ty $kind),
            )*
        }

        impl $Snap {
            /// The declared counters as `(name, kind)` pairs, in
            /// declaration (and serialization) order.
            pub const COUNTERS: &'static [(&'static str, &'static str)] =
                &[$( (stringify!($name), stringify!($kind)), )*];

            /// Field-wise combination with another snapshot (across
            /// shards or nodes): counters add, high-water marks take
            /// the max.
            #[must_use]
            pub fn merged(self, other: $Snap) -> $Snap {
                $Snap {
                    $( $name: $crate::counter_set!(@merged $kind self.$name, other.$name), )*
                }
            }

            /// The per-interval view between `prev` (earlier) and
            /// `self`: counters become saturating differences,
            /// high-water marks carry the later value.
            #[must_use]
            pub fn delta(&self, prev: &$Snap) -> $Snap {
                $Snap {
                    $( $name: $crate::counter_set!(@delta $kind &self.$name, &prev.$name), )*
                }
            }
        }
    };

    (@atomic sum) => { ::std::sync::atomic::AtomicU64 };
    (@atomic max) => { ::std::sync::atomic::AtomicU64 };
    (@atomic per_index) => { ::std::vec::Vec<::std::sync::atomic::AtomicU64> };
    (@atomic total) => { ::std::vec::Vec<::std::sync::atomic::AtomicU64> };

    (@snapshot_ty per_index) => { ::std::vec::Vec<u64> };
    (@snapshot_ty $kind:ident) => { u64 };

    (@init sum $len:ident) => { ::std::sync::atomic::AtomicU64::new(0) };
    (@init max $len:ident) => { ::std::sync::atomic::AtomicU64::new(0) };
    (@init $kind:ident $len:ident) => {
        (0..$len).map(|_| ::std::sync::atomic::AtomicU64::new(0)).collect()
    };

    (@accessor [$(#[doc = $doc:literal])*] per_index $name:ident) => {
        $(#[doc = $doc])*
        pub fn $name(&self) -> ::std::vec::Vec<u64> {
            self.$name
                .iter()
                .map(|c| c.load(::std::sync::atomic::Ordering::Relaxed))
                .collect()
        }
    };
    (@accessor [$(#[doc = $doc:literal])*] total $name:ident) => {};
    (@accessor [$(#[doc = $doc:literal])*] $kind:ident $name:ident) => {
        $(#[doc = $doc])*
        pub fn $name(&self) -> u64 {
            self.$name.load(::std::sync::atomic::Ordering::Relaxed)
        }
    };

    (@read $s:ident total $name:ident = $reader:ident) => { $s.$reader() };
    (@read $s:ident $kind:ident $name:ident) => { $s.$name() };

    (@merged max $a:expr, $b:expr) => { ::std::cmp::max($a, $b) };
    (@merged per_index $a:expr, $b:expr) => {{
        let (mut long, mut short) = ($a, $b);
        if long.len() < short.len() {
            ::std::mem::swap(&mut long, &mut short);
        }
        for (x, y) in long.iter_mut().zip(short) {
            *x += y;
        }
        long
    }};
    (@merged $kind:ident $a:expr, $b:expr) => { $a + $b };

    (@delta max $now:expr, $prev:expr) => { *$now };
    (@delta per_index $now:expr, $prev:expr) => {{
        let prev: &[u64] = $prev;
        $now.iter()
            .enumerate()
            .map(|(i, x)| x.saturating_sub(prev.get(i).copied().unwrap_or(0)))
            .collect()
    }};
    (@delta $kind:ident $now:expr, $prev:expr) => { $now.saturating_sub(*$prev) };
}
