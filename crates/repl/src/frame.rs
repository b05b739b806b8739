//! Length-prefixed, checksummed replication frames.
//!
//! Every frame is `[u32 len BE][u8 op][payload][u64 fnv1a LE]` where
//! `len` counts everything after itself (op + payload + checksum) and
//! the checksum covers the op byte and the payload. Multi-byte payload
//! integers are little-endian, matching the store's on-disk logs, so a
//! seed chunk or a segment page round-trips without re-encoding.
//!
//! The checksum is not paranoia: the stream crosses process and machine
//! boundaries, and a follower applies what it reads directly into its
//! durable store. A corrupt frame must fail loudly at the boundary, not
//! surface later as a diverged replica.

use std::io::{Read, Write};

use rql_pagestore::{fnv1a, CommittedSegment, Page, PageId};

use crate::{ReplError, Result};

/// Protocol version carried in [`Frame::Hello`]; bumped on any wire
/// change.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a single frame body. A segment frame carries one whole
/// committed transaction, so this is generous; anything larger indicates
/// a corrupt length prefix, not a real frame.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Seed sub-stream identifiers: which log a [`Frame::SeedChunk`] extends.
pub mod log_id {
    /// The write-ahead log.
    pub const WAL: u8 = 0;
    /// The Pagelog archive.
    pub const PAGELOG: u8 = 1;
    /// The Maplog index.
    pub const MAPLOG: u8 = 2;
}

/// Optional provenance trailer on [`Frame::Segment`] and [`Frame::Spt`]:
/// which leader commit produced the data and when, for cross-node trace
/// stitching and time-lag measurement.
///
/// Encoded as 16 trailing payload bytes (`[u64 span_id][u64 wall_micros]`,
/// little-endian). Decoders treat the trailer as optional, so a new
/// follower accepts frames from an old leader; upgrade followers before
/// leaders when rolling a cluster forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOrigin {
    /// The leader's commit span identifier: the committing transaction
    /// id, which is the `arg` of the leader's `commit` trace span.
    pub span_id: u64,
    /// Leader wall clock when the frame was shipped, in microseconds
    /// since the Unix epoch. Followers subtract this from their own
    /// clock to produce `repl_lag_seconds` (subject to clock skew,
    /// like any cross-machine lag measure).
    pub wall_micros: u64,
}

mod op {
    pub const HELLO: u8 = 0x01;
    pub const SEED_START: u8 = 0x02;
    pub const SEED_CHUNK: u8 = 0x03;
    pub const SEED_DONE: u8 = 0x04;
    pub const SEGMENT: u8 = 0x05;
    pub const SPT: u8 = 0x06;
    pub const HEARTBEAT: u8 = 0x07;
    pub const ACK: u8 = 0x08;
}

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Follower → leader greeting: who I am and where my WAL ends.
    /// `wal_len == 0` requests a full seed.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Length of the follower's durable WAL (resume point).
        wal_len: u64,
        /// Follower page size; must match the leader's.
        page_size: u32,
        /// Pagelog format tag (0 = raw); must match the leader's.
        format: u8,
    },
    /// Leader → follower: a snapshot-consistent seed follows, cut at
    /// these log lengths.
    SeedStart {
        /// WAL bytes that will be shipped.
        wal_len: u64,
        /// Pagelog bytes that will be shipped.
        pagelog_len: u64,
        /// Maplog bytes that will be shipped.
        maplog_len: u64,
        /// Snapshots declared within the cut.
        snapshot_count: u64,
    },
    /// One contiguous run of seed bytes for one log.
    SeedChunk {
        /// Which log (see [`log_id`]).
        log: u8,
        /// Offset of these bytes within the log.
        offset: u64,
        /// The raw log bytes.
        bytes: Vec<u8>,
    },
    /// Seed complete; live segments follow.
    SeedDone,
    /// One committed transaction, exactly as parsed off the leader WAL.
    Segment {
        /// Leader WAL offset of the segment's first record.
        start: u64,
        /// Leader WAL offset just past the commit record.
        end: u64,
        /// Transaction id to replay under (keeps WALs byte-identical).
        txn_id: u64,
        /// Declared snapshot id, if the commit declared one.
        snapshot: Option<u64>,
        /// Page after-images in log order.
        pages: Vec<(u64, Vec<u8>)>,
        /// Originating-commit trailer (absent on frames from leaders
        /// that predate it).
        origin: Option<CommitOrigin>,
    },
    /// Post-declaration verification: the follower must agree on the
    /// snapshot's page count before acking further work.
    Spt {
        /// The declared snapshot.
        snapshot_id: u64,
        /// Universe size the SPT covers on the leader.
        page_count: u64,
        /// Originating-commit trailer (absent on frames from leaders
        /// that predate it).
        origin: Option<CommitOrigin>,
    },
    /// Leader → follower liveness + lag reference when no commits flow.
    Heartbeat {
        /// Leader WAL length.
        wal_len: u64,
        /// Leader snapshot count.
        snapshot_count: u64,
    },
    /// Follower → leader progress: everything up to here is applied.
    Ack {
        /// Follower WAL length after apply.
        wal_len: u64,
        /// Follower snapshot count after apply.
        snapshot_count: u64,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_origin(buf: &mut Vec<u8>, origin: &Option<CommitOrigin>) {
    if let Some(o) = origin {
        put_u64(buf, o.span_id);
        put_u64(buf, o.wall_micros);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(ReplError::Protocol("truncated frame payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an optional [`CommitOrigin`] trailer: consumes the final 16
    /// bytes when present, returns `None` on frames from peers that
    /// predate it.
    fn maybe_origin(&mut self) -> Result<Option<CommitOrigin>> {
        if self.buf.len() - self.pos < 16 {
            return Ok(None);
        }
        Ok(Some(CommitOrigin {
            span_id: self.u64()?,
            wall_micros: self.u64()?,
        }))
    }

    fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(ReplError::Protocol("trailing bytes in frame".into()));
        }
        Ok(())
    }
}

impl Frame {
    fn op(&self) -> u8 {
        match self {
            Frame::Hello { .. } => op::HELLO,
            Frame::SeedStart { .. } => op::SEED_START,
            Frame::SeedChunk { .. } => op::SEED_CHUNK,
            Frame::SeedDone => op::SEED_DONE,
            Frame::Segment { .. } => op::SEGMENT,
            Frame::Spt { .. } => op::SPT,
            Frame::Heartbeat { .. } => op::HEARTBEAT,
            Frame::Ack { .. } => op::ACK,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Hello {
                proto,
                wal_len,
                page_size,
                format,
            } => {
                put_u32(&mut p, *proto);
                put_u64(&mut p, *wal_len);
                put_u32(&mut p, *page_size);
                p.push(*format);
            }
            Frame::SeedStart {
                wal_len,
                pagelog_len,
                maplog_len,
                snapshot_count,
            } => {
                put_u64(&mut p, *wal_len);
                put_u64(&mut p, *pagelog_len);
                put_u64(&mut p, *maplog_len);
                put_u64(&mut p, *snapshot_count);
            }
            Frame::SeedChunk { log, offset, bytes } => {
                p.push(*log);
                put_u64(&mut p, *offset);
                put_u32(&mut p, bytes.len() as u32);
                p.extend_from_slice(bytes);
            }
            Frame::SeedDone => {}
            Frame::Segment {
                start,
                end,
                txn_id,
                snapshot,
                pages,
                origin,
            } => {
                put_u64(&mut p, *start);
                put_u64(&mut p, *end);
                put_u64(&mut p, *txn_id);
                p.push(u8::from(snapshot.is_some()));
                put_u64(&mut p, snapshot.unwrap_or(0));
                put_u32(&mut p, pages.len() as u32);
                for (pid, bytes) in pages {
                    put_u64(&mut p, *pid);
                    put_u32(&mut p, bytes.len() as u32);
                    p.extend_from_slice(bytes);
                }
                put_origin(&mut p, origin);
            }
            Frame::Spt {
                snapshot_id,
                page_count,
                origin,
            } => {
                put_u64(&mut p, *snapshot_id);
                put_u64(&mut p, *page_count);
                put_origin(&mut p, origin);
            }
            Frame::Heartbeat {
                wal_len,
                snapshot_count,
            }
            | Frame::Ack {
                wal_len,
                snapshot_count,
            } => {
                put_u64(&mut p, *wal_len);
                put_u64(&mut p, *snapshot_count);
            }
        }
        p
    }

    fn parse(opcode: u8, payload: &[u8]) -> Result<Frame> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let frame = match opcode {
            op::HELLO => Frame::Hello {
                proto: c.u32()?,
                wal_len: c.u64()?,
                page_size: c.u32()?,
                format: c.u8()?,
            },
            op::SEED_START => Frame::SeedStart {
                wal_len: c.u64()?,
                pagelog_len: c.u64()?,
                maplog_len: c.u64()?,
                snapshot_count: c.u64()?,
            },
            op::SEED_CHUNK => {
                let log = c.u8()?;
                let offset = c.u64()?;
                let n = c.u32()? as usize;
                Frame::SeedChunk {
                    log,
                    offset,
                    bytes: c.take(n)?.to_vec(),
                }
            }
            op::SEED_DONE => Frame::SeedDone,
            op::SEGMENT => {
                let start = c.u64()?;
                let end = c.u64()?;
                let txn_id = c.u64()?;
                let has_snap = c.u8()? == 1;
                let sid = c.u64()?;
                let n = c.u32()? as usize;
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    let pid = c.u64()?;
                    let plen = c.u32()? as usize;
                    pages.push((pid, c.take(plen)?.to_vec()));
                }
                Frame::Segment {
                    start,
                    end,
                    txn_id,
                    snapshot: has_snap.then_some(sid),
                    pages,
                    origin: c.maybe_origin()?,
                }
            }
            op::SPT => Frame::Spt {
                snapshot_id: c.u64()?,
                page_count: c.u64()?,
                origin: c.maybe_origin()?,
            },
            op::HEARTBEAT => Frame::Heartbeat {
                wal_len: c.u64()?,
                snapshot_count: c.u64()?,
            },
            op::ACK => Frame::Ack {
                wal_len: c.u64()?,
                snapshot_count: c.u64()?,
            },
            other => {
                return Err(ReplError::Protocol(format!(
                    "unknown frame opcode 0x{other:02x}"
                )))
            }
        };
        c.done()?;
        Ok(frame)
    }

    /// Encoded size on the wire (length prefix included) — what the
    /// shipped-bytes metrics count.
    pub fn wire_size(&self) -> u64 {
        (4 + 1 + self.payload().len() + 8) as u64
    }

    /// Build a segment frame from a parsed WAL segment, stamped with
    /// its originating-commit trailer.
    pub fn from_segment(seg: &CommittedSegment, origin: Option<CommitOrigin>) -> Frame {
        Frame::Segment {
            start: seg.start,
            end: seg.end,
            txn_id: seg.txn_id,
            snapshot: seg.snapshot,
            pages: seg
                .pages
                .iter()
                .map(|(pid, page)| (pid.0, page.bytes().to_vec()))
                .collect(),
            origin,
        }
    }

    /// The originating-commit trailer, when this frame carries one.
    pub fn origin(&self) -> Option<CommitOrigin> {
        match self {
            Frame::Segment { origin, .. } | Frame::Spt { origin, .. } => *origin,
            _ => None,
        }
    }

    /// Recover the WAL segment a [`Frame::Segment`] carries.
    pub fn into_segment(self) -> Result<CommittedSegment> {
        let Frame::Segment {
            start,
            end,
            txn_id,
            snapshot,
            pages,
            origin: _,
        } = self
        else {
            return Err(ReplError::Protocol("expected SEGMENT frame".into()));
        };
        Ok(CommittedSegment {
            txn_id,
            snapshot,
            pages: pages
                .into_iter()
                .map(|(pid, bytes)| (PageId(pid), Page::from_bytes(bytes)))
                .collect(),
            start,
            end,
        })
    }
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    let payload = frame.payload();
    let len = (1 + payload.len() + 8) as u32;
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.push(frame.op());
    buf.extend_from_slice(&payload);
    let mut ck_input = Vec::with_capacity(1 + payload.len());
    ck_input.push(frame.op());
    ck_input.extend_from_slice(&payload);
    buf.extend_from_slice(&fnv1a(&ck_input).to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Read one frame, verifying its checksum.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(ReplError::Protocol(format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let (head, ck_buf) = body.split_at(len as usize - 8);
    let stored = u64::from_le_bytes(ck_buf.try_into().unwrap());
    if fnv1a(head) != stored {
        return Err(ReplError::Protocol("frame checksum mismatch".into()));
    }
    Frame::parse(head[0], &head[1..])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(frame.wire_size(), buf.len() as u64);
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame, got);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            proto: PROTO_VERSION,
            wal_len: 12345,
            page_size: 4096,
            format: 0,
        });
        roundtrip(Frame::SeedStart {
            wal_len: 1,
            pagelog_len: 2,
            maplog_len: 3,
            snapshot_count: 4,
        });
        roundtrip(Frame::SeedChunk {
            log: log_id::PAGELOG,
            offset: 777,
            bytes: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::SeedDone);
        roundtrip(Frame::Segment {
            start: 10,
            end: 99,
            txn_id: 7,
            snapshot: Some(3),
            pages: vec![(0, vec![0u8; 64]), (5, vec![9u8; 64])],
            origin: Some(CommitOrigin {
                span_id: 7,
                wall_micros: 1_723_000_000_000_000,
            }),
        });
        roundtrip(Frame::Segment {
            start: 0,
            end: 1,
            txn_id: 1,
            snapshot: None,
            pages: vec![],
            origin: None,
        });
        roundtrip(Frame::Spt {
            snapshot_id: 3,
            page_count: 40,
            origin: Some(CommitOrigin {
                span_id: 9,
                wall_micros: 42,
            }),
        });
        roundtrip(Frame::Spt {
            snapshot_id: 3,
            page_count: 40,
            origin: None,
        });
        roundtrip(Frame::Heartbeat {
            wal_len: 5,
            snapshot_count: 6,
        });
        roundtrip(Frame::Ack {
            wal_len: 5,
            snapshot_count: 6,
        });
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Heartbeat {
                wal_len: 5,
                snapshot_count: 6,
            },
        )
        .unwrap();
        // Flip one payload byte: checksum must catch it.
        let mut bad = buf.clone();
        bad[6] ^= 0xff;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ReplError::Protocol(_))
        ));
        // Truncated stream: an io error, not a hang.
        let short = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut &short[..]), Err(ReplError::Io(_))));
        // Absurd length prefix.
        let mut huge = buf;
        huge[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ReplError::Protocol(_))
        ));
    }

    #[test]
    fn segment_frame_converts_to_wal_segment() {
        let frame = Frame::Segment {
            start: 4,
            end: 200,
            txn_id: 9,
            snapshot: Some(2),
            pages: vec![(3, vec![7u8; 64])],
            origin: None,
        };
        let seg = frame.clone().into_segment().unwrap();
        assert_eq!(seg.txn_id, 9);
        assert_eq!(seg.snapshot, Some(2));
        assert_eq!(seg.pages.len(), 1);
        assert_eq!(seg.pages[0].0 .0, 3);
        assert_eq!(Frame::from_segment(&seg, None), frame);
    }

    #[test]
    fn pre_trailer_segment_and_spt_payloads_still_decode() {
        // A v0 peer encodes Segment/Spt without the 16-byte origin
        // trailer; decoding must yield `origin: None`, not an error.
        for frame in [
            Frame::Segment {
                start: 10,
                end: 99,
                txn_id: 7,
                snapshot: Some(3),
                pages: vec![(0, vec![0u8; 64])],
                origin: Some(CommitOrigin {
                    span_id: 7,
                    wall_micros: 55,
                }),
            },
            Frame::Spt {
                snapshot_id: 3,
                page_count: 40,
                origin: Some(CommitOrigin {
                    span_id: 7,
                    wall_micros: 55,
                }),
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            // Rebuild the frame body without the last 16 payload bytes,
            // fixing up the length prefix and checksum — byte-identical
            // to what a pre-trailer peer writes.
            let body_len = u32::from_be_bytes(buf[0..4].try_into().unwrap()) as usize;
            let head = &buf[4..4 + body_len - 8]; // op + payload
            let stripped_head = &head[..head.len() - 16];
            let mut legacy = Vec::new();
            legacy.extend_from_slice(&((stripped_head.len() + 8) as u32).to_be_bytes());
            legacy.extend_from_slice(stripped_head);
            legacy.extend_from_slice(&rql_pagestore::fnv1a(stripped_head).to_le_bytes());
            let got = read_frame(&mut legacy.as_slice()).unwrap();
            assert_eq!(got.origin(), None);
            match (&frame, &got) {
                (Frame::Segment { txn_id: a, .. }, Frame::Segment { txn_id: b, .. }) => {
                    assert_eq!(a, b);
                }
                (Frame::Spt { snapshot_id: a, .. }, Frame::Spt { snapshot_id: b, .. }) => {
                    assert_eq!(a, b);
                }
                other => panic!("frame kind changed: {other:?}"),
            }
        }
    }
}
