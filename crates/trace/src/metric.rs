//! Self-describing metric registries.
//!
//! Every registry in the stack (the server's, the store's `io_`, the
//! memo's, the standing engine's, replication's) is declared once with
//! [`registry!`](crate::registry): each field carries its name, its
//! [`MetricKind`] and its doc comment. From that one declaration the
//! macro generates the live struct, the `u64` snapshot struct, the
//! `snapshot`/`reset`/`delta`/`accumulate` plumbing and an ordered
//! [`Metric`] descriptor list — so the `METRICS` verb, the `/metrics`
//! exposition and the metric catalog all render from the same source
//! and cannot drift from one another.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::Counter;

/// How a metric's value moves, which decides how exporters type it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Only ever grows while the process lives (Prometheus `counter`,
    /// exported with a `_total` suffix).
    Counter,
    /// A level that rises and falls (Prometheus `gauge`).
    Gauge,
    /// Computed at render time for `METRICS` only, e.g. a histogram
    /// quantile; `/metrics` exports the underlying histogram instead.
    Derived,
}

/// One metric's declaration: its key, kind and help text.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Key within its registry (exporters add the registry's prefix).
    pub name: &'static str,
    /// Counter, gauge or derived.
    pub kind: MetricKind,
    /// The field's doc comment, one entry per source line.
    pub doc: &'static [&'static str],
}

impl Metric {
    /// The doc comment as one line of help text.
    pub fn help(&self) -> String {
        let words: Vec<&str> = self
            .doc
            .iter()
            .flat_map(|line| line.split_whitespace())
            .collect();
        words.join(" ")
    }
}

/// A live metric cell a registry can read and zero.
pub trait Cell {
    /// Current value.
    fn read(&self) -> u64;
    /// Reset to zero.
    fn zero(&self);
}

impl Cell for AtomicU64 {
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.store(0, Ordering::Relaxed);
    }
}

impl Cell for Counter {
    fn read(&self) -> u64 {
        self.get()
    }

    fn zero(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Declare a metric registry.
///
/// `pub struct Live(Cell) => Snapshot { … }` declares the live struct
/// (every field a `Cell`, public when the struct is) and its snapshot.
/// Optional trailing blocks add non-metric live fields
/// (`extra { pub name: Type, }`) and [`MetricKind::Derived`] snapshot
/// fields computed from the live struct
/// (`derived |live| { /// doc \n name = expr, }`), which come last in
/// the descriptor order. The form `pub struct Snapshot { … }` declares
/// a snapshot-only registry, for values aggregated elsewhere. See
/// `rql-pagestore`'s `IoStats` for a complete declaration.
///
/// Each field's kind is `counter` or `gauge`; its doc comment is its
/// help text. Field order is the wire order of every rendering.
#[macro_export]
macro_rules! registry {
    (
        $(#[$attr:meta])*
        $vis:vis struct $Snap:ident {
            $( $(#[doc = $doc:literal])* $field:ident : $kind:ident, )*
        }
    ) => {
        $crate::registry!(@snapshot [$(#[$attr])*] $vis $Snap
            [$( [$($doc)*] $field $kind )*] []);
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $Live:ident($Cell:ty) =>
        $(#[$sattr:meta])*
        $Snap:ident {
            $( $(#[doc = $doc:literal])* $field:ident : $kind:ident, )*
        }
        $( extra { $( $(#[$xattr:meta])* $xvis:vis $xfield:ident : $xty:ty, )* } )?
        $( derived |$live:ident| {
            $( $(#[doc = $ddoc:literal])* $dfield:ident = $dexpr:expr, )*
        } )?
    ) => {
        $(#[$attr])*
        $vis struct $Live {
            $( $(#[doc = $doc])* $vis $field: $Cell, )*
            $( $( $(#[$xattr])* $xvis $xfield: $xty, )* )?
        }

        #[allow(dead_code)]
        impl $Live {
            /// Point-in-time copy of every metric (relaxed loads).
            $vis fn snapshot(&self) -> $Snap {
                $( $( let $dfield = { let $live = self; $dexpr }; )* )?
                $Snap {
                    $( $field: $crate::Cell::read(&self.$field), )*
                    $( $( $dfield, )* )?
                }
            }

            /// Reset every counter and gauge to zero.
            $vis fn reset(&self) {
                $( $crate::Cell::zero(&self.$field); )*
            }
        }

        $crate::registry!(@snapshot [$(#[$sattr])*] $vis $Snap
            [$( [$($doc)*] $field $kind )*]
            [$( $( [$($ddoc)*] $dfield )* )?]);
    };
    (@snapshot [$($attr:tt)*] $vis:vis $Snap:ident
        [$( [$($doc:literal)*] $field:ident $kind:ident )*]
        [$( [$($ddoc:literal)*] $dfield:ident )*]
    ) => {
        $($attr)*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[doc = $doc])* pub $field: u64, )*
            $( $(#[doc = $ddoc])* pub $dfield: u64, )*
        }

        #[allow(dead_code)]
        impl $Snap {
            /// Every metric's descriptor, in wire order.
            pub const METRICS: &'static [$crate::Metric] = &[
                $( $crate::Metric {
                    name: stringify!($field),
                    kind: $crate::registry!(@kind $kind),
                    doc: &[$($doc),*],
                }, )*
                $( $crate::Metric {
                    name: stringify!($dfield),
                    kind: $crate::MetricKind::Derived,
                    doc: &[$($ddoc),*],
                }, )*
            ];

            /// Every metric's value, aligned with [`Self::METRICS`].
            pub fn values(&self) -> Vec<u64> {
                vec![$( self.$field, )* $( self.$dfield, )*]
            }

            /// Field-wise `self - earlier` over the counters and gauges,
            /// for measuring an interval (derived fields keep `self`'s).
            pub fn delta(&self, earlier: &Self) -> Self {
                let mut d = *self;
                $( d.$field -= earlier.$field; )*
                d
            }

            /// Field-wise sum over the counters and gauges: merge
            /// another interval into this one.
            pub fn accumulate(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }
        }
    };
    (@kind counter) => { $crate::MetricKind::Counter };
    (@kind gauge) => { $crate::MetricKind::Gauge };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::registry! {
        #[derive(Debug, Default)]
        struct Live(Counter) =>
        Snap {
            /// First
            /// line.
            a: counter,
            /// Level.
            b: gauge,
        }
        extra {
            spare: u64,
        }
        derived |live| {
            /// Twice `a`.
            twice = live.a.get() * 2,
        }
    }

    #[test]
    fn declaration_drives_every_view() {
        let live = Live::default();
        live.a.add(3);
        live.b.inc();
        let snap = live.snapshot();
        assert_eq!((snap.a, snap.b, snap.twice), (3, 1, 6));
        assert_eq!(snap.values(), vec![3, 1, 6]);
        let names: Vec<&str> = Snap::METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b", "twice"]);
        let kinds: Vec<MetricKind> = Snap::METRICS.iter().map(|m| m.kind).collect();
        assert_eq!(
            kinds,
            [MetricKind::Counter, MetricKind::Gauge, MetricKind::Derived]
        );
        assert_eq!(Snap::METRICS[0].help(), "First line.");

        let mut sum = snap.delta(&Snap::default());
        sum.accumulate(&snap);
        assert_eq!((sum.a, sum.b, sum.twice), (6, 2, 6));
        live.reset();
        assert_eq!(live.snapshot(), Snap::default());
        assert_eq!(live.spare, 0);
    }
}
