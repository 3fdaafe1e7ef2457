//! `emprof-store`: a pure-`std`, segmented, append-only, CRC-checked
//! delivered-event journal.
//!
//! This crate closes the at-most-once delivery gap in `emprof-serve`
//! (DESIGN.md §10): finalized stall events are journaled *before* they
//! are offered to a client, per-session delivery cursors are journaled
//! as the client acknowledges them, and recovery replays whatever the
//! cursor says was never acknowledged. Delivery becomes exactly-once
//! across reply loss *and* full server restarts.
//!
//! Layers, bottom-up:
//!
//! - [`crc`] — dependency-free CRC-32 (IEEE) for at-rest integrity.
//! - [`codec`] — the byte codec shared with the wire protocol: one
//!   bounds-checked reader, one string writer, and one encoding each for
//!   stall events, detector configs and sample batches.
//! - [`record`] — record kinds ([`Record`]) and their payloads.
//! - [`segment`] — on-disk framing: segment header + CRC-framed
//!   records, and the torn-tail scanner.
//! - [`journal`] — [`Journal`]: the multi-segment append log with
//!   longest-valid-prefix recovery and whole-segment compaction.
//! - [`session`] — [`SessionJournal`]: the serve-facing layer owning
//!   checkpoints, the delivery cursor, and ack-driven compaction.
//! - [`inspect`] — a strictly read-only health walk for
//!   `emprof journal-inspect`.
//! - [`flight`] — atomic persistence of per-session flight-recorder
//!   dumps next to the journals.
//! - [`cache`] — LRU+TTL cache of decoded sealed segments for the
//!   query path.
//! - [`query`] — the range-statistics engine (`emprof query`), with
//!   footer-driven segment pruning and the query-equals-replay
//!   invariant (DESIGN.md §16).
//!
//! ## Durability model
//!
//! [`Journal::open`] never panics and never refuses a damaged journal:
//! it recovers the longest valid prefix (torn tails truncated, segments
//! past the first anomaly dropped) and resumes appending after it. By
//! default appends are buffered writes without fsync — the guarantee
//! targets process crashes and restarts; set
//! [`JournalConfig::sync_on_append`] (or call sync at your own
//! barriers) for power-loss durability.
//!
//! Telemetry (via `emprof-obs`, all zero-cost when disabled):
//! `store.appends`, `store.bytes_written`, `store.segments_created`,
//! `store.compactions`, `store.recovered_truncations`,
//! `store.cache.hits`, `store.cache.misses`, `store.cache.evictions`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod crc;
pub mod flight;
pub mod inspect;
pub mod journal;
pub mod query;
pub mod record;
pub mod segment;
pub mod session;

pub use cache::{DecodedSegment, SegmentCache, SegmentCacheConfig};
pub use crc::{crc32, Crc32};
pub use flight::{remove_flight_dump, write_flight_dump};
pub use inspect::{inspect_dir, FooterStatus, JournalInspect, SegmentHealth};
pub use journal::{Journal, JournalConfig, JournalStats, Recovered, RecoveryReport};
pub use query::{
    query_journals, QueryAccounting, QueryAccumulator, QueryResult, QuerySessionRow, QuerySpec,
    MAX_TIMELINE_BUCKETS,
};
pub use record::{Record, RecordKind, SegmentFooter, SessionMeta, FOOTER_PAYLOAD_LEN};
pub use segment::read_segment_footer;
pub use session::{read_session, RecoveredSession, SessionJournal};
