//! Message payloads, the delivery oracle, and per-message stage stamps.
//!
//! Every payload carries its publisher and per-publisher sequence
//! number plus a checksum over the seeded body, so the subscriber can
//! check each publisher's stream for FIFO order, gaps, duplicates and
//! corruption without trusting anything the system reports.

use bytes::Bytes;

/// Header bytes: kind, publisher, seq (u64 LE), checksum (u64 LE).
pub const HEADER: usize = 18;
/// A set-up probe: checked for integrity, not part of any stream.
pub const PROBE: u8 = 0;
/// A measured message.
pub const DATA: u8 = 1;

/// Seeded body bytes; message `seq` takes a seq-dependent slice.
#[derive(Debug)]
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    /// `len` pseudo-random bytes from `seed` (xorshift64*).
    pub fn new(seed: u64, len: usize) -> Pool {
        let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            bytes.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
        bytes.truncate(len);
        Pool { bytes }
    }

    /// The body of message `seq`, `len` bytes long (`len` < pool size).
    pub fn body(&self, seq: u64, len: usize) -> &[u8] {
        let span = self.bytes.len() - len;
        let off = (seq.wrapping_mul(8191) % span as u64) as usize;
        &self.bytes[off..off + len]
    }
}

/// FNV-1a over 8-byte words, keyed by publisher and seq.
pub fn checksum(publisher: u8, seq: u64, body: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ u64::from(publisher) ^ seq.rotate_left(17);
    h ^= body.len() as u64;
    for chunk in body.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a payload.
pub fn encode(kind: u8, publisher: u8, seq: u64, body: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(HEADER + body.len());
    v.push(kind);
    v.push(publisher);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&checksum(publisher, seq, body).to_le_bytes());
    v.extend_from_slice(body);
    Bytes::from(v)
}

/// Parses and verifies a payload: `(kind, publisher, seq)`.
pub fn decode(payload: &[u8]) -> Result<(u8, u8, u64), String> {
    if payload.len() < HEADER {
        return Err(format!("payload of {} bytes is too short", payload.len()));
    }
    let (kind, publisher) = (payload[0], payload[1]);
    let seq = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(payload[10..18].try_into().expect("8 bytes"));
    if kind != PROBE && kind != DATA {
        return Err(format!("unknown payload kind {kind}"));
    }
    if checksum(publisher, seq, &payload[HEADER..]) != sum {
        return Err(format!(
            "checksum mismatch on publisher {publisher} seq {seq}"
        ));
    }
    Ok((kind, publisher, seq))
}

/// A broken delivery guarantee: any of these fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Undecodable or corrupted payload, or one for an unknown stream.
    Malformed(String),
    /// A message delivered twice.
    Duplicate {
        /// Publisher index.
        publisher: usize,
        /// Sequence number.
        seq: u64,
    },
    /// A message delivered after a later one from the same publisher.
    Reorder {
        /// Publisher index.
        publisher: usize,
        /// The late message.
        seq: u64,
        /// The highest seq delivered before it.
        after: u64,
    },
    /// An accepted (never rejected) message skipped while later ones
    /// from the same publisher were delivered.
    Gap {
        /// Publisher index.
        publisher: usize,
        /// The skipped message.
        seq: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::Malformed(m) => write!(f, "malformed delivery: {m}"),
            Violation::Duplicate { publisher, seq } => {
                write!(f, "duplicate delivery of publisher {publisher} seq {seq}")
            }
            Violation::Reorder {
                publisher,
                seq,
                after,
            } => write!(
                f,
                "FIFO violation: publisher {publisher} seq {seq} delivered after seq {after}"
            ),
            Violation::Gap { publisher, seq } => write!(
                f,
                "gap: publisher {publisher} seq {seq} was never delivered nor rejected, \
                 but later messages were"
            ),
        }
    }
}

#[derive(Debug, Default)]
struct Stream {
    /// Highest seq published (seqs are dense from 1).
    published: u64,
    /// Highest seq delivered.
    last: u64,
    /// Seqs delivered or rejected.
    resolved: u64,
    delivered: Vec<bool>,
    rejected: Vec<bool>,
}

/// Per-publisher stream checker.
#[derive(Debug)]
pub struct Oracle {
    streams: Vec<Stream>,
}

/// Final tally over one publisher's published range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Delivered exactly once, in order.
    pub delivered: u64,
    /// Rejected by the service.
    pub rejected: u64,
    /// Neither delivered nor rejected by the drain deadline.
    pub lost: u64,
}

impl Oracle {
    /// A checker for `publishers` streams.
    pub fn new(publishers: usize) -> Oracle {
        Oracle {
            streams: (0..publishers).map(|_| Stream::default()).collect(),
        }
    }

    /// Records that `publisher` sent its next message; returns its seq.
    pub fn publish(&mut self, publisher: usize) -> u64 {
        let s = &mut self.streams[publisher];
        s.published += 1;
        s.delivered.push(false);
        s.rejected.push(false);
        s.published
    }

    /// Records a service-side rejection of `seq`.
    pub fn reject(&mut self, publisher: usize, seq: u64) {
        let s = &mut self.streams[publisher];
        let i = seq as usize - 1;
        if !s.delivered[i] && !s.rejected[i] {
            s.resolved += 1;
        }
        s.rejected[i] = true;
    }

    /// Checks one delivery.
    ///
    /// # Errors
    ///
    /// The violation, when the delivery breaks exactly-once or FIFO.
    pub fn deliver(&mut self, publisher: usize, seq: u64) -> Result<(), Violation> {
        let Some(s) = self.streams.get_mut(publisher) else {
            return Err(Violation::Malformed(format!(
                "unknown publisher {publisher}"
            )));
        };
        if seq == 0 || seq > s.published {
            return Err(Violation::Malformed(format!(
                "publisher {publisher} seq {seq} was never published"
            )));
        }
        let i = seq as usize - 1;
        if s.delivered[i] {
            return Err(Violation::Duplicate { publisher, seq });
        }
        if seq < s.last {
            return Err(Violation::Reorder {
                publisher,
                seq,
                after: s.last,
            });
        }
        if !s.rejected[i] {
            s.resolved += 1;
        }
        s.delivered[i] = true;
        s.last = seq;
        Ok(())
    }

    /// True once every published message is delivered or rejected.
    pub fn settled(&self) -> bool {
        self.streams.iter().all(|s| s.resolved == s.published)
    }

    /// Final check after the drain: every skipped message must have
    /// been rejected. Returns the tally of `publisher`'s seqs in
    /// `from..to`.
    ///
    /// # Errors
    ///
    /// [`Violation::Gap`] for an accepted message that was skipped.
    pub fn finish(&self, publisher: usize, from: u64, to: u64) -> Result<Tally, Violation> {
        let s = &self.streams[publisher];
        for seq in 1..s.last {
            let i = seq as usize - 1;
            if !s.delivered[i] && !s.rejected[i] {
                return Err(Violation::Gap { publisher, seq });
            }
        }
        let mut t = Tally::default();
        for seq in from..to {
            let i = seq as usize - 1;
            if s.delivered[i] {
                t.delivered += 1;
            } else if s.rejected[i] {
                t.rejected += 1;
            } else {
                t.lost += 1;
            }
        }
        Ok(t)
    }
}

/// Instants of one message's path, in ns since the run's epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamps {
    /// When the publish was due (open loop) or began (closed loop).
    pub due: u64,
    /// `try_publish` entry.
    pub start: u64,
    /// `try_publish` return.
    pub end: u64,
    /// `PublishOrdered` seen at the publisher.
    pub ordered: Option<u64>,
    /// `Deliver` seen at the subscriber.
    pub delivered: Option<u64>,
}

/// A message's end-to-end latency split at the benchmark's own calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stages {
    /// How late the generator called `try_publish`.
    pub lag: i64,
    /// Time inside `try_publish`.
    pub publish_call: i64,
    /// `try_publish` return to `PublishOrdered`.
    pub order_wait: i64,
    /// `PublishOrdered` to `Deliver`; negative when the subscriber's
    /// delivery is seen before the publisher's grant.
    pub order_to_deliver: i64,
}

impl Stages {
    /// The stages' sum.
    pub fn sum(&self) -> i64 {
        self.lag + self.publish_call + self.order_wait + self.order_to_deliver
    }
}

impl Stamps {
    /// End-to-end latency in ns, once delivered.
    pub fn e2e(&self) -> Option<i64> {
        self.delivered.map(|d| d as i64 - self.due as i64)
    }

    /// The stage split, once both ordered and delivered.
    pub fn stages(&self) -> Option<Stages> {
        let (ordered, delivered) = (self.ordered? as i64, self.delivered? as i64);
        Some(Stages {
            lag: self.start as i64 - self.due as i64,
            publish_call: self.end as i64 - self.start as i64,
            order_wait: ordered - self.end as i64,
            order_to_deliver: delivered - ordered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn published(n: u64) -> Oracle {
        let mut o = Oracle::new(2);
        for _ in 0..n {
            o.publish(0);
        }
        o
    }

    #[test]
    fn payload_roundtrip_and_corruption() {
        let pool = Pool::new(7, 4096);
        let p = encode(DATA, 1, 42, pool.body(42, 110));
        assert_eq!(p.len(), 128);
        assert_eq!(decode(&p), Ok((DATA, 1, 42)));
        let mut bad = p.to_vec();
        bad[HEADER + 5] ^= 1;
        assert!(decode(&bad).is_err());
        let mut bad_seq = p.to_vec();
        bad_seq[2] ^= 1;
        assert!(decode(&bad_seq).is_err());
        assert!(decode(&p[..10]).is_err());
    }

    #[test]
    fn seed_drives_the_body() {
        let (a, b) = (Pool::new(1, 4096), Pool::new(2, 4096));
        assert_eq!(a.body(3, 100), Pool::new(1, 4096).body(3, 100));
        assert_ne!(a.body(3, 100), b.body(3, 100));
        assert_ne!(a.body(3, 100), a.body(4, 100));
    }

    #[test]
    fn in_order_stream_passes() {
        let mut o = published(5);
        for seq in 1..=5 {
            o.deliver(0, seq).unwrap();
        }
        assert!(o.settled());
        let t = o.finish(0, 1, 6).unwrap();
        assert_eq!((t.delivered, t.rejected, t.lost), (5, 0, 0));
    }

    #[test]
    fn reordered_stream_is_a_violation() {
        let mut o = published(3);
        o.deliver(0, 2).unwrap();
        assert_eq!(
            o.deliver(0, 1),
            Err(Violation::Reorder {
                publisher: 0,
                seq: 1,
                after: 2
            })
        );
    }

    #[test]
    fn duplicated_delivery_is_a_violation() {
        let mut o = published(3);
        o.deliver(0, 1).unwrap();
        o.deliver(0, 2).unwrap();
        assert_eq!(
            o.deliver(0, 2),
            Err(Violation::Duplicate {
                publisher: 0,
                seq: 2
            })
        );
        assert_eq!(
            o.deliver(0, 1),
            Err(Violation::Duplicate {
                publisher: 0,
                seq: 1
            })
        );
    }

    #[test]
    fn unpublished_or_unknown_stream_is_malformed() {
        let mut o = published(2);
        assert!(matches!(o.deliver(0, 3), Err(Violation::Malformed(_))));
        assert!(matches!(o.deliver(0, 0), Err(Violation::Malformed(_))));
        assert!(matches!(o.deliver(5, 1), Err(Violation::Malformed(_))));
    }

    #[test]
    fn missing_messages_are_gaps_unless_rejected() {
        // An accepted message skipped mid-stream breaks the guarantee.
        let mut o = published(4);
        o.deliver(0, 1).unwrap();
        o.deliver(0, 3).unwrap();
        assert!(!o.settled());
        assert_eq!(
            o.finish(0, 1, 5),
            Err(Violation::Gap {
                publisher: 0,
                seq: 2
            })
        );
        // A rejected one may be skipped; it counts as failed.
        o.reject(0, 2);
        let t = o.finish(0, 1, 5).unwrap();
        assert_eq!((t.delivered, t.rejected, t.lost), (2, 1, 1));
        // A missing tail is a loss, not a violation.
        let mut tail = published(3);
        tail.deliver(0, 1).unwrap();
        let t = tail.finish(0, 1, 4).unwrap();
        assert_eq!((t.delivered, t.lost), (1, 2));
        assert!(!tail.settled());
    }

    #[test]
    fn stages_sum_to_end_to_end_latency() {
        let cases = [
            (100, 150, 170, 900, 1000),
            // The subscriber's delivery seen before the grant.
            (0, 0, 30, 2_000, 1_500),
            (5, 4_000, 4_020, 4_021, 9_999_999),
        ];
        for (due, start, end, ordered, delivered) in cases {
            let s = Stamps {
                due,
                start,
                end,
                ordered: Some(ordered),
                delivered: Some(delivered),
            };
            let st = s.stages().unwrap();
            assert_eq!(st.sum(), s.e2e().unwrap());
        }
        let pending = Stamps {
            ordered: Some(3),
            ..Stamps::default()
        };
        assert_eq!((pending.e2e(), pending.stages()), (None, None));
    }
}
