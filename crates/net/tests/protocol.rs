//! Property tests for the wire protocol: every frame type round-trips
//! exactly (encode ≡ decode), and malformed bytes — truncations,
//! oversized length declarations, garbage — are rejected with a protocol
//! error, never a panic.

use hrdm_core::prelude::*;
use hrdm_net::{
    decode_frame_traced, encode_frame_into, encode_frame_traced, read_frame_traced, Frame,
    FrameError, ServerStats, WireError, WireEvent, WriteOp, MAX_FRAME_BYTES, PROTO_VERSION,
    WIRE_VERSION,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Model-object strategies (valid by construction, so decoding's model
// validation accepts them and equality is exact).
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(|f| Value::float(f).expect("finite")),
        "[a-zA-Z0-9 ]{0,10}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        (-100_000i64..100_000).prop_map(Value::time),
    ]
}

fn lifespan_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((-300i64..300, 0i64..30), 0..5).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, lo + len)),
        )
    })
}

fn temporal_strategy() -> impl Strategy<Value = TemporalValue> {
    prop::collection::vec(((0i64..150), 0i64..8, value_strategy()), 0..5).prop_map(|raw| {
        let mut segs = Vec::new();
        let mut cursor = 0i64;
        let mut sorted = raw;
        sorted.sort_by_key(|(lo, _, _)| *lo);
        for (lo, len, v) in sorted {
            let lo = lo.max(cursor);
            let hi = lo + len;
            segs.push((Interval::of(lo, hi), v));
            cursor = hi + 2;
        }
        TemporalValue::from_segments(segs).expect("disjoint by construction")
    })
}

/// A valid scheme: one constant key attribute spanning the era plus 0–2
/// value attributes whose lifespans sit inside it (the key-lifespan
/// covenant holds by construction).
fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    (
        0i64..50,
        50i64..400,
        prop::collection::vec((0usize..4, 0i64..40, 1i64..50), 0..3),
    )
        .prop_map(|(lo, len, attrs)| {
            let era = Lifespan::interval(lo, lo + len);
            let mut b = Scheme::builder().key_attr("K", ValueKind::Int, era.clone());
            for (i, (kind, off, alen)) in attrs.into_iter().enumerate() {
                let kind = match kind {
                    0 => HistoricalDomain::int(),
                    1 => HistoricalDomain::new(ValueKind::Str),
                    2 => HistoricalDomain::new(ValueKind::Bool),
                    _ => HistoricalDomain::new(ValueKind::Float),
                };
                let a_lo = lo + off.min(len);
                let a_hi = (a_lo + alen).min(lo + len);
                b = b.attr(
                    format!("A{i}"),
                    kind,
                    Lifespan::interval(a_lo, a_hi.max(a_lo)),
                );
            }
            b.build().expect("valid by construction")
        })
}

/// An arbitrary well-formed tuple (decode does not re-validate a lone
/// tuple against a scheme, so any lifespan + temporal-value map works).
fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        lifespan_strategy(),
        prop::collection::vec(("[A-Z]{1,4}", temporal_strategy()), 0..4),
    )
        .prop_map(|(life, vals)| {
            let mut map = std::collections::BTreeMap::new();
            for (name, tv) in vals {
                map.insert(Attribute::new(name), tv);
            }
            Tuple::from_parts(life, map)
        })
}

fn write_op_strategy() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        ("[a-z]{1,8}", scheme_strategy())
            .prop_map(|(name, scheme)| WriteOp::CreateRelation { name, scheme }),
        ("[a-z]{1,8}", tuple_strategy())
            .prop_map(|(relation, tuple)| WriteOp::Insert { relation, tuple }),
        ("[a-z]{1,8}", "[a-zA-Z0-9 ()=]{0,30}")
            .prop_map(|(name, query)| { WriteOp::Materialize { name, query } }),
    ]
}

fn wire_error_strategy() -> impl Strategy<Value = WireError> {
    prop_oneof![
        "[ -~]{0,40}".prop_map(WireError::Protocol),
        "[ -~]{0,40}".prop_map(WireError::Parse),
        ("[A-Za-z]{1,20}", "[ -~]{0,40}")
            .prop_map(|(variant, message)| WireError::Model { variant, message }),
        ("[A-Za-z]{1,20}", "[ -~]{0,40}")
            .prop_map(|(variant, message)| WireError::Db { variant, message }),
        Just(WireError::Cancelled),
        "[ -~]{0,40}".prop_map(WireError::Limit),
        "[ -~]{0,40}".prop_map(WireError::Unavailable),
        "[ -~]{0,40}".prop_map(WireError::Unsupported),
    ]
}

fn stats_strategy() -> impl Strategy<Value = ServerStats> {
    (
        prop::collection::vec(any::<u64>(), 26),
        prop::collection::vec(("[a-z]{1,8}", any::<u64>()), 0..4),
        prop::collection::vec(("[a-z]{1,8}", any::<u64>()), 0..4),
    )
        .prop_map(|(n, relations, top_streamed)| ServerStats {
            connections_accepted: n[0],
            connections_active: n[1],
            frames_in: n[2],
            frames_out: n[3],
            requests: n[4],
            cancelled: n[5],
            plan_ns: n[6],
            exec_ns: n[7],
            commit_batches: n[8],
            commit_ops: n[9],
            commit_max_batch: n[10],
            commit_last_batch: n[11],
            snapshot_version: n[12],
            bytes_in: n[13],
            bytes_out: n[14],
            request_p50_ns: n[15],
            request_p95_ns: n[16],
            request_p99_ns: n[17],
            rows_streamed: n[18],
            batches_streamed: n[19],
            qps_milli_60s: n[20],
            p50_60s_ns: n[21],
            p99_60s_ns: n[22],
            pool_hit_permille_60s: n[23],
            uptime_secs: n[24],
            top_streamed,
            relations,
        })
}

/// `u128` has no `Arbitrary` impl in this proptest; build one from two
/// u64 halves.
fn u128_strategy() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo))
}

fn wire_event_strategy() -> impl Strategy<Value = WireEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        u128_strategy(),
        "[a-z-]{1,16}",
        "[ -~]{0,40}",
    )
        .prop_map(|(seq, unix_ms, trace, kind, detail)| WireEvent {
            seq,
            unix_ms,
            trace,
            kind,
            detail,
        })
}

/// Every frame type, with payloads drawn from the model strategies. The
/// exhaustiveness match in `all_kinds_covered` pins this list to the
/// `Frame` enum — adding a variant without a strategy fails that test.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        ("[ -~]{0,16}").prop_map(|client| Frame::Hello {
            version: PROTO_VERSION,
            client
        }),
        "[ -~]{0,40}".prop_map(|text| Frame::Query { text }),
        write_op_strategy().prop_map(|op| Frame::Execute { op }),
        "[ -~]{0,40}".prop_map(|text| Frame::Prepare { text }),
        Just(Frame::Checkpoint),
        Just(Frame::Stats),
        Just(Frame::Cancel),
        Just(Frame::Metrics),
        ("[ -~]{0,16}").prop_map(|server| Frame::HelloAck {
            version: PROTO_VERSION,
            server
        }),
        (scheme_strategy(), any::<u64>())
            .prop_map(|(scheme, rows)| Frame::RelationHeader { scheme, rows }),
        prop::collection::vec(tuple_strategy(), 0..4).prop_map(|tuples| Frame::RowChunk { tuples }),
        any::<u64>().prop_map(|rows| Frame::Done { rows }),
        lifespan_strategy().prop_map(|lifespan| Frame::LifespanResult { lifespan }),
        temporal_strategy().prop_map(|value| Frame::FunctionResult { value }),
        "[ -~]{0,60}".prop_map(|text| Frame::PlanText { text }),
        any::<u64>().prop_map(|rows| Frame::Ack { rows }),
        stats_strategy().prop_map(|stats| Frame::StatsResult { stats }),
        "[ -~]{0,60}".prop_map(|text| Frame::MetricsResult { text }),
        wire_error_strategy().prop_map(|error| Frame::Error { error }),
        any::<u64>().prop_map(|limit| Frame::Events { limit }),
        prop::collection::vec(wire_event_strategy(), 0..4)
            .prop_map(|events| Frame::EventsResult { events }),
    ]
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    /// encode ≡ decode for every frame type and request id.
    #[test]
    fn every_frame_round_trips(req in any::<u64>(), frame in frame_strategy()) {
        let bytes = encode_frame_traced(req, 0, &frame);
        let (got_req, _, got) = decode_frame_traced(&bytes[4..]).expect("round trip decodes");
        prop_assert_eq!(got_req, req);
        prop_assert_eq!(got, frame);
    }

    /// The trace id in the frame header round-trips for every frame
    /// type.
    #[test]
    fn trace_ids_round_trip(
        req in any::<u64>(),
        trace in u128_strategy(),
        frame in frame_strategy(),
    ) {
        let bytes = encode_frame_traced(req, trace, &frame);
        let (got_req, got_trace, got) =
            decode_frame_traced(&bytes[4..]).expect("traced round trip decodes");
        prop_assert_eq!(got_req, req);
        prop_assert_eq!(got_trace, trace);
        prop_assert_eq!(got, frame);
    }

    /// Encoding in place onto a buffer that already holds bytes keeps
    /// them and appends exactly `encode_frame_traced`'s bytes, whose
    /// length prefix counts the rest of the frame.
    #[test]
    fn encode_frame_into_appends_exactly_the_traced_bytes(
        prefix in prop::collection::vec(any::<u8>(), 1..48),
        req in any::<u64>(),
        trace in u128_strategy(),
        frame in frame_strategy(),
    ) {
        let mut out = prefix.clone();
        encode_frame_into(&mut out, req, trace, &frame);
        let expected = encode_frame_traced(req, trace, &frame);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &expected[..]);
        let declared = u32::from_be_bytes(expected[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(declared, expected.len() - 4);
    }

    /// The stream reader agrees with the in-memory decoder, including on
    /// back-to-back frames.
    #[test]
    fn streamed_frames_round_trip(frames in prop::collection::vec(frame_strategy(), 1..4)) {
        let mut bytes = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame_traced(i as u64, 0, f));
        }
        let mut cursor = std::io::Cursor::new(bytes);
        for (i, f) in frames.iter().enumerate() {
            let (req, _, got) = read_frame_traced(&mut cursor).expect("stream decodes");
            prop_assert_eq!(req, i as u64);
            prop_assert_eq!(&got, f);
        }
    }

    /// Every truncation of a valid frame is an error — never a panic, and
    /// never a bogus success.
    #[test]
    fn truncations_are_errors(frame in frame_strategy()) {
        let bytes = encode_frame_traced(7, 0, &frame);
        for cut in 0..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            prop_assert!(
                read_frame_traced(&mut cursor).is_err(),
                "cut at {} of {} decoded successfully", cut, bytes.len()
            );
        }
    }

    /// Random garbage after a plausible length prefix is rejected with a
    /// protocol error (or an io error when the declared length outruns
    /// the bytes), never a panic.
    #[test]
    fn garbage_bodies_are_rejected(body in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame_traced(&mut cursor) {
            // A random body that happens to decode must at least carry a
            // valid version byte and kind tag.
            Ok(_) => {
                prop_assert!(body.len() >= 26);
                prop_assert_eq!(body[0], WIRE_VERSION);
            }
            Err(FrameError::Io(_)) | Err(FrameError::Protocol(_)) => {}
        }
    }

    /// Flipping the version byte of any valid frame is a protocol error.
    #[test]
    fn version_flips_are_rejected(frame in frame_strategy(), flip in 1u8..255) {
        let mut bytes = encode_frame_traced(1, 0, &frame);
        bytes[4] = bytes[4].wrapping_add(flip);
        prop_assert!(matches!(
            decode_frame_traced(&bytes[4..]),
            Err(FrameError::Protocol(_))
        ));
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

/// The strategy list above covers every `Frame` variant: generate a pile
/// of frames and check all 21 kind tags eventually show up.
#[test]
fn all_kinds_covered_by_the_strategy() {
    // The match is the real assertion: adding a `Frame` variant without
    // extending the strategy fails to compile here.
    fn kind_index(f: &Frame) -> usize {
        match f {
            Frame::Hello { .. } => 0,
            Frame::Query { .. } => 1,
            Frame::Execute { .. } => 2,
            Frame::Prepare { .. } => 3,
            Frame::Checkpoint => 4,
            Frame::Stats => 5,
            Frame::Cancel => 6,
            Frame::Metrics => 7,
            Frame::HelloAck { .. } => 8,
            Frame::RelationHeader { .. } => 9,
            Frame::RowChunk { .. } => 10,
            Frame::Done { .. } => 11,
            Frame::LifespanResult { .. } => 12,
            Frame::FunctionResult { .. } => 13,
            Frame::PlanText { .. } => 14,
            Frame::Ack { .. } => 15,
            Frame::StatsResult { .. } => 16,
            Frame::MetricsResult { .. } => 17,
            Frame::Error { .. } => 18,
            Frame::Events { .. } => 19,
            Frame::EventsResult { .. } => 20,
        }
    }
    let strategy = frame_strategy();
    let mut rng = proptest::test_runner::TestRng::from_name("all_kinds_covered");
    let mut seen = [false; 21];
    for _ in 0..2000 {
        let f = Strategy::generate(&strategy, &mut rng);
        seen[kind_index(&f)] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "strategy never produced kinds {:?}",
        seen.iter()
            .enumerate()
            .filter(|(_, s)| !**s)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    );
}

/// A declared length beyond the cap is refused before any allocation.
#[test]
fn oversized_length_declaration_is_a_protocol_error() {
    let mut bytes = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 32]);
    let mut cursor = std::io::Cursor::new(bytes);
    match read_frame_traced(&mut cursor) {
        Err(FrameError::Protocol(m)) => assert!(m.contains("cap"), "{m}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
}

/// A declared length too short to hold the fixed header is refused.
#[test]
fn undersized_length_declaration_is_a_protocol_error() {
    let mut bytes = 4u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[WIRE_VERSION, 0x06, 0, 0]);
    let mut cursor = std::io::Cursor::new(bytes);
    assert!(matches!(
        read_frame_traced(&mut cursor),
        Err(FrameError::Protocol(_))
    ));
}

/// Unknown kind tags and trailing payload bytes are protocol errors.
#[test]
fn unknown_kind_and_trailing_bytes_are_protocol_errors() {
    let mut bytes = encode_frame_traced(1, 0, &Frame::Stats);
    bytes[5] = 0x7f; // no such kind
    assert!(matches!(
        decode_frame_traced(&bytes[4..]),
        Err(FrameError::Protocol(m)) if m.contains("kind")
    ));

    let mut bytes = encode_frame_traced(1, 0, &Frame::Stats).split_off(4);
    bytes.push(0xee); // trailing garbage inside the declared length
    assert!(matches!(
        decode_frame_traced(&bytes),
        Err(FrameError::Protocol(m)) if m.contains("trailing")
    ));
}
