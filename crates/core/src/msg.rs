//! Protocol messages and their wire codec.
//!
//! Both runtimes hand [`Msg`] values to the handlers. The DES moves the
//! values themselves: a point list is an `Arc`, so a flood, relay or
//! filter broadcast copies no points. The live runtime moves the bytes of
//! a small hand-rolled binary format. The *volume of transferred data* —
//! one of the three metrics of the paper's evaluation — is the size of
//! that format: [`Wire::wire_bytes`] computes it from the layout without
//! encoding, and [`Wire::encode`] writes exactly that many bytes into a
//! buffer allocated once. Three checks keep the metric honest: the size
//! property test below, a debug assertion on every encode, and the DES's
//! debug-build oracle, which encodes every sent message and checks its
//! round trip and length. A payload whose length differs from the layout
//! of what it decodes to is rejected.
//!
//! Result points travel with their full-space coordinates and global ids,
//! ordered ascending by `(f(p), id)` as Algorithm 2 expects; the `f` values
//! themselves are not encoded but recomputed by the decoder (they are
//! derivable, so shipping them would inflate volume for nothing). A list
//! that arrives in that order is wrapped as it is; any other order is
//! re-sorted, so a decoded list never depends on the sender's honesty.

use std::sync::Arc;

use bytes::{Buf, BufMut};
use skypeer_netsim::des::Wire;
use skypeer_skyline::{f_value, Dominance, PointSet, SortedDataset, Subspace, MAX_DIM};

use crate::variants::Variant;

/// Compact wire encoding of the dominance flavour a query runs under.
fn flavour_to_wire(flavour: Dominance) -> u8 {
    match flavour {
        Dominance::Standard => 0,
        Dominance::Extended => 1,
    }
}

/// Decodes [`flavour_to_wire`].
fn flavour_from_wire(v: u8) -> Option<Dominance> {
    match v {
        0 => Some(Dominance::Standard),
        1 => Some(Dominance::Extended),
        _ => None,
    }
}

/// One protocol message between super-peers (or a super-peer and itself,
/// for the deferred-computation trick in `FT*` modes).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// The query `q(U, t)` of Algorithm 3, flooded over the backbone.
    Query {
        /// Query identifier.
        qid: u32,
        /// Requested subspace `U`.
        subspace: Subspace,
        /// Threshold `t` (`f64::INFINITY` for the naive baseline).
        threshold: f64,
        /// Execution strategy.
        variant: Variant,
        /// Dominance flavour every kernel along the way applies.
        /// [`Dominance::Standard`] is the ordinary protocol;
        /// [`Dominance::Extended`] makes the distributed run produce the
        /// global *extended* subspace skyline — the cacheable superset
        /// that can later answer any contained subspace locally.
        flavour: Dominance,
    },
    /// A result list flowing back toward the initiator. `done` marks the
    /// single final message of a child's subtree; `FT*M`/naive relays may
    /// precede it with `done = false` messages.
    Answer {
        /// Query identifier.
        qid: u32,
        /// Whether the sending subtree is finished sending.
        done: bool,
        /// Whether every super-peer of the subtree actually contributed.
        /// `false` once any node abandoned a timed-out child (the
        /// fault-tolerance extension): the result may then be missing
        /// skyline points from failed subtrees.
        complete: bool,
        /// The result points, `f`-ascending.
        points: Arc<SortedDataset>,
    },
    /// "I already received this query from elsewhere" — the receiver is
    /// not a child of the sender; the sender must not await its results.
    DupAck {
        /// Query identifier.
        qid: u32,
    },
    /// Self-addressed marker used by `FT*`/naive modes to run the local
    /// skyline computation *after* forwarding the query (so propagation is
    /// not serialized behind computation). Never crosses the wire; size 0.
    ComputeLocal {
        /// Query identifier.
        qid: u32,
    },
    /// Round 1 of the sampling backend (Zhang & Zhang, arXiv 1611.00423):
    /// the coordinator broadcasts the query together with a pruning
    /// `filter` — its own local subspace skyline — directly to every
    /// other super-peer. Receivers drop locally-stored points dominated
    /// by any filter point before replying.
    SampleQuery {
        /// Query identifier.
        qid: u32,
        /// Requested subspace `U`.
        subspace: Subspace,
        /// Dominance flavour every kernel of the query applies.
        flavour: Dominance,
        /// The coordinator's local subspace skyline, shipped as the
        /// pruning filter (`f`-ascending).
        filter: Arc<SortedDataset>,
    },
    /// Round 2 of the sampling backend: a super-peer's surviving local
    /// skyline candidates, sent straight back to the coordinator.
    Candidates {
        /// Query identifier.
        qid: u32,
        /// Whether this peer's contribution is trustworthy (always `true`
        /// today; reserved for fault-tolerant extensions).
        complete: bool,
        /// The surviving candidate points, `f`-ascending.
        points: Arc<SortedDataset>,
    },
}

/// Encoded length of [`encode_points`]' layout.
fn points_len(points: &SortedDataset) -> usize {
    1 + 4 + points.len() * (8 + 8 * points.dim())
}

/// Appends the shared point-list layout: `dim: u8`, `count: u32`, then
/// `count` × (`id: u64`, `dim` × `coord: f64`).
fn encode_points(b: &mut Vec<u8>, points: &SortedDataset) {
    let set = points.points();
    b.put_u8(set.dim() as u8);
    b.put_u32(set.len() as u32);
    for (_, id, coords) in set.iter() {
        b.put_u64(id);
        for &v in coords {
            b.put_f64(v);
        }
    }
}

/// Decodes [`encode_points`], applying the same hostile-payload rejection
/// rules as the `Answer` path (bounded dim, finite non-negative coords,
/// declared count backed by actual payload).
///
/// Reads the points and their `f` values in one pass. A list that is
/// non-decreasing in `(f, id)` — the order [`SortedDataset::from_set`]
/// sorts into, and the order every honest sender ships — is wrapped as it
/// is; any other list is re-sorted by `from_set`. Either way the result
/// equals `from_set` of the decoded points.
fn decode_points(buf: &mut &[u8]) -> Option<SortedDataset> {
    if buf.remaining() < 1 + 4 {
        return None;
    }
    let dim = buf.get_u8() as usize;
    let n = buf.get_u32() as usize;
    if dim == 0 || dim > MAX_DIM {
        return None;
    }
    if n.checked_mul(8 + 8 * dim).is_none_or(|need| buf.remaining() < need) {
        return None;
    }
    let mut set = PointSet::with_capacity(dim, n);
    let mut f = Vec::with_capacity(n);
    let mut coords = [0.0; MAX_DIM];
    let coords = &mut coords[..dim];
    let mut prev = (f64::NEG_INFINITY, 0);
    let mut in_order = true;
    for _ in 0..n {
        let id = buf.get_u64();
        for c in coords.iter_mut() {
            *c = buf.get_f64();
        }
        // Reject rather than panic on hostile payloads: the value domain
        // is finite non-negative reals.
        if coords.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return None;
        }
        let key = (f_value(coords), id);
        in_order &= prev <= key;
        prev = key;
        set.push(coords, id);
        f.push(key.0);
    }
    Some(if in_order {
        SortedDataset::from_sorted_parts(set, f)
    } else {
        SortedDataset::from_set(&set)
    })
}

impl Msg {
    /// Length of this message's encoding, from the layout `encode` writes:
    /// the tag byte, the fixed header fields, then any point list.
    fn encoded_len(&self) -> usize {
        match self {
            Msg::Query { .. } => 1 + 4 + 4 + 8 + 1 + 1,
            Msg::Answer { points, .. } => 1 + 4 + 1 + 1 + points_len(points),
            Msg::DupAck { .. } | Msg::ComputeLocal { .. } => 1 + 4,
            Msg::SampleQuery { filter, .. } => 1 + 4 + 4 + 1 + points_len(filter),
            Msg::Candidates { points, .. } => 1 + 4 + 1 + points_len(points),
        }
    }
}

impl Wire for Msg {
    /// On-wire size in bytes, computed from the layout without encoding:
    /// the length `encode` returns, except that [`Msg::ComputeLocal`] is
    /// free (it never crosses the network).
    fn wire_bytes(&self) -> u64 {
        match self {
            Msg::ComputeLocal { .. } => 0,
            _ => self.encoded_len() as u64,
        }
    }

    /// Serializes into a buffer allocated once, at the exact length. The
    /// buffer length is the message's wire size, except for
    /// [`Msg::ComputeLocal`], which is sent with 0 bytes.
    fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut b = Vec::with_capacity(len);
        match self {
            Msg::Query { qid, subspace, threshold, variant, flavour } => {
                b.put_u8(1);
                b.put_u32(*qid);
                b.put_u32(subspace.mask());
                b.put_f64(*threshold);
                b.put_u8(variant.to_wire());
                b.put_u8(flavour_to_wire(*flavour));
            }
            Msg::Answer { qid, done, complete, points } => {
                b.put_u8(2);
                b.put_u32(*qid);
                b.put_u8(u8::from(*done));
                b.put_u8(u8::from(*complete));
                encode_points(&mut b, points);
            }
            Msg::DupAck { qid } => {
                b.put_u8(3);
                b.put_u32(*qid);
            }
            Msg::ComputeLocal { qid } => {
                b.put_u8(4);
                b.put_u32(*qid);
            }
            Msg::SampleQuery { qid, subspace, flavour, filter } => {
                b.put_u8(5);
                b.put_u32(*qid);
                b.put_u32(subspace.mask());
                b.put_u8(flavour_to_wire(*flavour));
                encode_points(&mut b, filter);
            }
            Msg::Candidates { qid, complete, points } => {
                b.put_u8(6);
                b.put_u32(*qid);
                b.put_u8(u8::from(*complete));
                encode_points(&mut b, points);
            }
        }
        debug_assert_eq!(b.len(), len, "encoding disagrees with the layout length");
        b
    }

    /// Deserializes; returns `None` on malformed input, including a payload
    /// whose length differs from the layout length of what it decodes to
    /// (trailing bytes).
    fn decode(payload: &[u8]) -> Option<Msg> {
        let mut buf = payload;
        if buf.remaining() < 1 {
            return None;
        }
        let msg = match buf.get_u8() {
            1 => {
                if buf.remaining() < 4 + 4 + 8 + 1 + 1 {
                    return None;
                }
                let qid = buf.get_u32();
                let mask = buf.get_u32();
                if mask == 0 {
                    return None;
                }
                let threshold = buf.get_f64();
                // Thresholds are min-dist values: non-negative, possibly
                // +∞ (no pruning). Anything else is a hostile payload.
                if threshold.is_nan() || threshold < 0.0 {
                    return None;
                }
                let variant = Variant::from_wire(buf.get_u8())?;
                let flavour = flavour_from_wire(buf.get_u8())?;
                Msg::Query { qid, subspace: Subspace::from_mask(mask), threshold, variant, flavour }
            }
            2 => {
                if buf.remaining() < 4 + 1 + 1 {
                    return None;
                }
                let qid = buf.get_u32();
                let done = buf.get_u8() != 0;
                let complete = buf.get_u8() != 0;
                let points = Arc::new(decode_points(&mut buf)?);
                Msg::Answer { qid, done, complete, points }
            }
            3 => {
                if buf.remaining() < 4 {
                    return None;
                }
                Msg::DupAck { qid: buf.get_u32() }
            }
            4 => {
                if buf.remaining() < 4 {
                    return None;
                }
                Msg::ComputeLocal { qid: buf.get_u32() }
            }
            5 => {
                if buf.remaining() < 4 + 4 + 1 {
                    return None;
                }
                let qid = buf.get_u32();
                let mask = buf.get_u32();
                if mask == 0 {
                    return None;
                }
                let flavour = flavour_from_wire(buf.get_u8())?;
                let filter = Arc::new(decode_points(&mut buf)?);
                Msg::SampleQuery { qid, subspace: Subspace::from_mask(mask), flavour, filter }
            }
            6 => {
                if buf.remaining() < 4 + 1 {
                    return None;
                }
                let qid = buf.get_u32();
                let complete = buf.get_u8() != 0;
                let points = Arc::new(decode_points(&mut buf)?);
                Msg::Candidates { qid, complete, points }
            }
            _ => return None,
        };
        (msg.encoded_len() == payload.len()).then_some(msg)
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn sample_points() -> Arc<SortedDataset> {
        let mut s = PointSet::new(3);
        s.push(&[1.0, 2.0, 3.0], 7);
        s.push(&[0.5, 4.0, 4.0], 9);
        Arc::new(SortedDataset::from_set(&s))
    }

    fn empty_points() -> Arc<SortedDataset> {
        Arc::new(SortedDataset::empty(3))
    }

    #[test]
    fn query_roundtrip() {
        for flavour in [Dominance::Standard, Dominance::Extended] {
            let m = Msg::Query {
                qid: 42,
                subspace: Subspace::from_dims(&[1, 3, 5]),
                threshold: 0.75,
                variant: Variant::Rtpm,
                flavour,
            };
            assert_eq!(Msg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn bad_flavour_byte_rejected() {
        let mut q = Msg::Query {
            qid: 0,
            subspace: Subspace::from_mask(1),
            threshold: 1.0,
            variant: Variant::Ftfm,
            flavour: Dominance::Standard,
        }
        .encode();
        let flavour_off = q.len() - 1;
        for bad in [2u8, 255] {
            q[flavour_off] = bad;
            assert_eq!(Msg::decode(&q), None, "flavour byte {bad} must be rejected");
        }
    }

    #[test]
    fn answer_roundtrip_preserves_points_and_order() {
        let m = Msg::Answer { qid: 1, done: true, complete: true, points: sample_points() };
        let d = Msg::decode(&m.encode()).expect("decodes");
        let Msg::Answer { points, done, complete, qid } = d else { panic!() };
        assert!(done);
        assert!(complete);
        assert_eq!(qid, 1);
        assert_eq!(points.len(), 2);
        assert_eq!(points.points().id(0), 9, "f=0.5 point first");
        assert_eq!(points.points().point(0), &[0.5, 4.0, 4.0]);
    }

    #[test]
    fn dupack_and_compute_roundtrip() {
        for m in [Msg::DupAck { qid: 3 }, Msg::ComputeLocal { qid: 8 }] {
            assert_eq!(Msg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn wire_size_tracks_point_count() {
        let empty = Msg::Answer { qid: 0, done: true, complete: true, points: empty_points() };
        let full = Msg::Answer { qid: 0, done: true, complete: true, points: sample_points() };
        // Two 3-d points cost 2 × (8 id + 24 coords) = 64 extra bytes.
        assert_eq!(full.wire_bytes(), empty.wire_bytes() + 64);
        assert_eq!(Msg::ComputeLocal { qid: 0 }.wire_bytes(), 0, "self message is free");
    }

    #[test]
    fn malformed_input_rejected() {
        assert_eq!(Msg::decode(&[]), None);
        assert_eq!(Msg::decode(&[9, 0, 0]), None);
        assert_eq!(Msg::decode(&[1, 0, 0]), None, "truncated query");
        // Query with an empty subspace mask.
        let mut bad = Msg::Query {
            qid: 0,
            subspace: Subspace::from_mask(1),
            threshold: 1.0,
            variant: Variant::Ftfm,
            flavour: Dominance::Standard,
        }
        .encode();
        bad[5..9].fill(0);
        assert_eq!(Msg::decode(&bad), None);
        // Answer whose declared count exceeds the payload.
        let mut ans =
            Msg::Answer { qid: 0, done: false, complete: true, points: sample_points() }.encode();
        ans.truncate(ans.len() - 8);
        assert_eq!(Msg::decode(&ans), None);
        // One trailing byte after an otherwise valid message.
        assert_eq!(Msg::decode(&[3, 0, 0, 0, 1, 99]), None, "trailing byte after a DupAck");
        for m in [
            Msg::Query {
                qid: 0,
                subspace: Subspace::from_mask(1),
                threshold: 1.0,
                variant: Variant::Ftfm,
                flavour: Dominance::Standard,
            },
            Msg::Answer { qid: 0, done: true, complete: true, points: sample_points() },
            Msg::DupAck { qid: 1 },
        ] {
            let mut long = m.encode();
            long.push(0);
            assert_eq!(Msg::decode(&long), None, "trailing byte after {m:?}");
        }
    }

    /// `(id, coordinates)` of 2-d points, in the order a sender ships them.
    type RawPoints = [(u64, [f64; 2])];

    /// Hand-builds an `Answer` payload that ships `points` in the given
    /// order, whatever that order is.
    fn raw_answer(points: &RawPoints) -> Vec<u8> {
        let mut b = vec![2, 0, 0, 0, 1, 1, 1, 2]; // tag, qid, done, complete, dim
        b.put_u32(points.len() as u32);
        for (id, coords) in points {
            b.put_u64(*id);
            for &v in coords {
                b.put_f64(v);
            }
        }
        b
    }

    #[test]
    fn decoded_lists_equal_from_set_in_any_order() {
        let cases: [(&str, &RawPoints); 4] = [
            ("descending f", &[(1, [3.0, 5.0]), (2, [2.0, 5.0]), (3, [1.0, 5.0])]),
            ("equal f, descending ids", &[(9, [1.0, 4.0]), (5, [1.0, 2.0]), (2, [3.0, 1.0])]),
            ("repeated (f, id)", &[(1, [0.5, 0.5]), (4, [1.0, 3.0]), (4, [1.0, 2.0])]),
            ("honest order", &[(3, [0.5, 9.0]), (1, [1.0, 1.0]), (2, [4.0, 1.0]), (7, [2.0, 2.0])]),
        ];
        for (name, points) in cases {
            let Some(Msg::Answer { points: decoded, .. }) = Msg::decode(&raw_answer(points)) else {
                panic!("{name}: payload must decode");
            };
            let mut set = PointSet::new(2);
            for (id, coords) in points {
                set.push(coords, *id);
            }
            assert_eq!(*decoded, SortedDataset::from_set(&set), "{name}");
        }
    }

    #[test]
    fn hostile_payloads_are_rejected_not_panicking() {
        // Negative coordinate inside an Answer.
        let mut ans =
            Msg::Answer { qid: 0, done: true, complete: true, points: sample_points() }.encode();
        let coord_off = ans.len() - 8;
        ans[coord_off..].copy_from_slice(&(-1.0f64).to_be_bytes());
        assert_eq!(Msg::decode(&ans), None, "negative coordinate must be rejected");
        // NaN coordinate.
        let mut nan =
            Msg::Answer { qid: 0, done: true, complete: true, points: sample_points() }.encode();
        nan[coord_off..].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(Msg::decode(&nan), None, "NaN coordinate must be rejected");
        // NaN threshold in a Query.
        let mut q = Msg::Query {
            qid: 0,
            subspace: Subspace::from_mask(1),
            threshold: 1.0,
            variant: Variant::Ftfm,
            flavour: Dominance::Standard,
        }
        .encode();
        q[9..17].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(Msg::decode(&q), None, "NaN threshold must be rejected");
        // Oversized declared dimensionality.
        let mut big =
            Msg::Answer { qid: 0, done: true, complete: true, points: empty_points() }.encode();
        big[7] = 255; // dim byte (tag + qid + done + complete precede it)
        assert_eq!(Msg::decode(&big), None, "dim > MAX_DIM must be rejected");
    }

    #[test]
    fn sample_query_and_candidates_roundtrip() {
        for flavour in [Dominance::Standard, Dominance::Extended] {
            let m = Msg::SampleQuery {
                qid: 11,
                subspace: Subspace::from_dims(&[0, 2]),
                flavour,
                filter: sample_points(),
            };
            assert_eq!(Msg::decode(&m.encode()), Some(m));
        }
        for complete in [true, false] {
            let m = Msg::Candidates { qid: 12, complete, points: sample_points() };
            assert_eq!(Msg::decode(&m.encode()), Some(m));
        }
        // Empty point lists survive too (a peer may have nothing left
        // after filtering).
        let m = Msg::Candidates { qid: 0, complete: true, points: empty_points() };
        assert_eq!(Msg::decode(&m.encode()), Some(m));
    }

    #[test]
    fn sampling_messages_reject_hostile_payloads() {
        // Empty subspace mask in a SampleQuery.
        let mut bad = Msg::SampleQuery {
            qid: 0,
            subspace: Subspace::from_mask(1),
            flavour: Dominance::Standard,
            filter: empty_points(),
        }
        .encode();
        bad[5..9].fill(0);
        assert_eq!(Msg::decode(&bad), None, "empty mask must be rejected");
        // Negative coordinate inside a Candidates list.
        let mut ans = Msg::Candidates { qid: 0, complete: true, points: sample_points() }.encode();
        let coord_off = ans.len() - 8;
        ans[coord_off..].copy_from_slice(&(-1.0f64).to_be_bytes());
        assert_eq!(Msg::decode(&ans), None, "negative coordinate must be rejected");
        // Truncated Candidates payload.
        let mut trunc =
            Msg::Candidates { qid: 0, complete: true, points: sample_points() }.encode();
        trunc.truncate(trunc.len() - 8);
        assert_eq!(Msg::decode(&trunc), None, "declared count must be backed by payload");
    }

    #[test]
    fn sampling_wire_size_tracks_point_count() {
        let empty = Msg::SampleQuery {
            qid: 0,
            subspace: Subspace::from_mask(5),
            flavour: Dominance::Standard,
            filter: empty_points(),
        };
        let full = Msg::SampleQuery {
            qid: 0,
            subspace: Subspace::from_mask(5),
            flavour: Dominance::Standard,
            filter: sample_points(),
        };
        // Two 3-d points cost 2 × (8 id + 24 coords) = 64 extra bytes.
        assert_eq!(full.wire_bytes(), empty.wire_bytes() + 64);
        assert_eq!(full.wire_bytes(), full.encode().len() as u64);
    }

    #[test]
    fn infinity_threshold_survives_roundtrip() {
        let m = Msg::Query {
            qid: 0,
            subspace: Subspace::from_mask(1),
            threshold: f64::INFINITY,
            variant: Variant::Naive,
            flavour: Dominance::Standard,
        };
        let Some(Msg::Query { threshold, .. }) = Msg::decode(&m.encode()) else { panic!() };
        assert!(threshold.is_infinite());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Arbitrary byte soup never panics the decoder.
            #[test]
            fn prop_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
                let _ = Msg::decode(&bytes);
            }

            /// Single-byte corruption of a valid message never panics, and
            /// whatever still decodes re-encodes without panicking.
            #[test]
            fn prop_bitflips_never_panic(pos in 0usize..64, val in any::<u8>()) {
                let valid = Msg::Answer {
                    qid: 7,
                    done: true,
                    complete: true,
                    points: sample_points(),
                }
                .encode();
                let mut corrupted = valid.clone();
                let idx = pos % corrupted.len();
                corrupted[idx] = val;
                if let Some(m) = Msg::decode(&corrupted) {
                    let _ = m.encode();
                }
            }

            /// Round-trip identity over every message kind, and the declared
            /// wire size is the bytes actually on the wire (0 for the
            /// self-addressed `ComputeLocal`). `wire_bytes` computes the
            /// size from the layout without encoding, so this is what keeps
            /// the volume metric honest.
            #[test]
            fn prop_every_kind_roundtrips_at_its_wire_size(
                qid in any::<u32>(),
                mask in 1u32..=0xFF,
                threshold in prop_oneof![(0.0f64..1e12), Just(f64::INFINITY)],
                variant_idx in 0usize..5,
                flavour_idx in 0usize..2,
                done in any::<bool>(),
                complete in any::<bool>(),
                dim in 1usize..=8,
                n in 0usize..=16,
                // Grid values make f ties, and so id tie-breaks, common.
                coords in prop::collection::vec(
                    prop_oneof![(0.0f64..100.0), (0u32..4).prop_map(f64::from)],
                    16 * 8,
                ),
                ids in prop::collection::vec(any::<u64>(), 16),
            ) {
                let mut set = PointSet::new(dim);
                for (p, &id) in coords.chunks(dim).zip(&ids).take(n) {
                    set.push(p, id);
                }
                let points = Arc::new(SortedDataset::from_set(&set));
                let subspace = Subspace::from_mask(mask);
                let variant = Variant::ALL[variant_idx];
                let flavour = [Dominance::Standard, Dominance::Extended][flavour_idx];
                for m in [
                    Msg::Query { qid, subspace, threshold, variant, flavour },
                    Msg::Answer { qid, done, complete, points: points.clone() },
                    Msg::DupAck { qid },
                    Msg::ComputeLocal { qid },
                    Msg::SampleQuery { qid, subspace, flavour, filter: points.clone() },
                    Msg::Candidates { qid, complete, points },
                ] {
                    let bytes = m.encode();
                    let size = match m {
                        Msg::ComputeLocal { .. } => 0,
                        _ => bytes.len() as u64,
                    };
                    prop_assert_eq!(m.wire_bytes(), size);
                    prop_assert_eq!(Msg::decode(&bytes), Some(m));
                }
            }
        }
    }
}
