//! Replication counters, exported through `rqld`'s METRICS verb.
//!
//! One struct serves both roles: a leader updates the shipping side, a
//! follower the applying side, and the unused counters stay zero. The
//! declaration's field order is wire-stable: `rqld` renders it verbatim
//! and the metric catalog golden test locks it, like the other
//! sections.

use std::sync::atomic::AtomicU64;

/// Replication role for the `role` gauge.
pub mod role {
    /// Replication not configured.
    pub const NONE: u64 = 0;
    /// Shipping segments to followers.
    pub const LEADER: u64 = 1;
    /// Applying segments from a leader.
    pub const FOLLOWER: u64 = 2;
}

/// Replication phase for the `phase` gauge.
pub mod phase {
    /// Not replicating (no followers / not connected).
    pub const IDLE: u64 = 0;
    /// A seed transfer is in progress.
    pub const SEEDING: u64 = 1;
    /// Live segment streaming.
    pub const STREAMING: u64 = 2;
}

rql_trace::registry! {
    /// Live replication counters (lock-free; shared across threads).
    #[derive(Default)]
    pub struct ReplMetrics(AtomicU64) =>
    /// Point-in-time copy of [`ReplMetrics`].
    ReplSnapshot {
        /// Replication role: 0 none, 1 leader, 2 follower.
        role: gauge,
        /// Replication phase: 0 idle, 1 seeding, 2 streaming.
        phase: gauge,
        /// Currently connected followers (leader side).
        followers: gauge,
        /// Full seeds completed (leader side).
        seeds_served: counter,
        /// Segment frames shipped to followers.
        segments_shipped: counter,
        /// Wire bytes shipped (seed + segments + heartbeats).
        bytes_shipped: counter,
        /// Slow followers disconnected by the bounded send window.
        sheds: counter,
        /// Segments applied into the local store (follower side).
        segments_applied: counter,
        /// Wire bytes applied (follower side).
        bytes_applied: counter,
        /// Seed bytes received (follower side).
        seed_bytes: counter,
        /// Reconnect attempts after a lost leader connection.
        reconnects: counter,
        /// Replication lag in WAL bytes (worst follower / behind leader).
        lag_bytes: gauge,
        /// Replication lag in declared snapshots.
        lag_snapshots: gauge,
        /// Replication time lag in microseconds (follower side): own wall
        /// clock at apply minus the leader's propagated commit wall clock.
        /// Zeroed by heartbeats when fully caught up.
        lag_micros: gauge,
    }
}

impl ReplMetrics {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}
