//! Property tests for the RPC wire codec: encoding is a lossless,
//! canonical identity on arbitrary valid messages over the full range
//! of every field, and the checksummed binary form rejects every
//! single-byte corruption, every truncation, and any trailing garbage —
//! the same integrity standard the kernel-artifact format is pinned to.

use ctgauss_rpc_core::{
    decode_request, decode_response, encode_request, encode_response, CodecKind, ErrorKind,
    ReplayAudit, Request, RequestBody, Response, ResponseBody, WireError, WireFailure, WireHealth,
    WireOutcome, WireProfile, WireShard, WireShardState, WireTraceEntry,
};
use proptest::prelude::*;

/// Sample counts stay in the codec's legal range without ever asking a
/// generator to materialize 2^22-element vectors.
const MAX_COUNT: u32 = 1 << 22;

/// Printable ASCII including quote and backslash, so string escaping is
/// exercised without betting the test on exotic-unicode handling.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII is UTF-8"))
}

/// Non-empty labels within the codec's length bound (`check_sigma`
/// demands at least one byte).
fn arb_sigma() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 1..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII is UTF-8"))
}

fn arb_request_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        (any::<u32>(), 1u32..=MAX_COUNT, any::<u32>()).prop_map(|(profile, count, deadline_ms)| {
            RequestBody::Sample {
                profile,
                count,
                deadline_ms,
            }
        }),
        Just(RequestBody::Health),
        Just(RequestBody::Stats),
        Just(RequestBody::ReplayAudit),
        Just(RequestBody::Ping),
        Just(RequestBody::Profiles),
        (arb_sigma(), 1u32..=u32::MAX)
            .prop_map(|(sigma, precision)| RequestBody::AddProfile { sigma, precision }),
        any::<u32>().prop_map(|profile| RequestBody::RetireProfile { profile }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), arb_request_body()).prop_map(|(id, body)| Request { id, body })
}

fn arb_error() -> impl Strategy<Value = WireError> {
    (0..ErrorKind::ALL.len(), any::<bool>(), arb_text()).prop_map(|(kind, retryable, message)| {
        WireError {
            kind: ErrorKind::ALL[kind],
            retryable,
            message,
        }
    })
}

/// Shard states with the canonical-zero rule the codec enforces: a dead
/// shard's epoch is 0 by construction.
fn arb_shard() -> impl Strategy<Value = WireShard> {
    (0u8..3, 1..=u64::MAX, any::<u32>(), any::<u64>()).prop_map(
        |(state, epoch, restarts, abandoned)| {
            let (state, epoch) = match state {
                0 => (WireShardState::Alive, epoch),
                1 => (WireShardState::Restarting, epoch),
                _ => (WireShardState::Dead, 0),
            };
            WireShard {
                state,
                epoch,
                restarts,
                abandoned,
            }
        },
    )
}

/// Failures with the strict invariants a decoder demands: abandoned
/// seqs strictly sorted, `new_epoch` zero unless the outcome restarted.
fn arb_failure() -> impl Strategy<Value = WireFailure> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..6),
        0u8..3,
        1..=u64::MAX,
        arb_text(),
    )
        .prop_map(
            |(worker, epoch, fulfilled, mut abandoned, outcome, new_epoch, cause)| {
                let (outcome, new_epoch) = match outcome {
                    0 => (WireOutcome::Restarted, new_epoch),
                    1 => (WireOutcome::Exhausted, 0),
                    _ => (WireOutcome::ShuttingDown, 0),
                };
                // The codec demands strictly sorted abandoned seqs.
                abandoned.sort_unstable();
                abandoned.dedup();
                WireFailure {
                    worker,
                    epoch,
                    fulfilled,
                    abandoned,
                    outcome,
                    new_epoch,
                    cause,
                }
            },
        )
}

fn arb_audit() -> impl Strategy<Value = ReplayAudit> {
    (
        1u32..64,
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        proptest::collection::vec((any::<u32>(), 1u32..=MAX_COUNT), 0..12),
        proptest::collection::vec(arb_failure(), 0..4),
    )
        .prop_map(|(threads, width_lanes, trace, failures)| {
            let trace: Vec<WireTraceEntry> = trace
                .into_iter()
                .map(|(profile, count)| WireTraceEntry { profile, count })
                .collect();
            ReplayAudit {
                threads,
                width_lanes,
                submitted: trace.len() as u64,
                trace,
                failures,
            }
        })
}

fn arb_profile() -> impl Strategy<Value = WireProfile> {
    (any::<u32>(), arb_text(), any::<u32>(), any::<bool>()).prop_map(
        |(index, label, precision, retired)| WireProfile {
            index,
            label,
            precision,
            retired,
        },
    )
}

fn arb_response_body() -> impl Strategy<Value = ResponseBody> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<i32>(), 1..200),
        )
            .prop_map(|(seq, latency_ns, samples)| ResponseBody::Samples {
                seq,
                latency_ns,
                samples,
            }),
        proptest::collection::vec(arb_shard(), 0..8)
            .prop_map(|shards| ResponseBody::Health(WireHealth { shards })),
        arb_text().prop_map(|json| ResponseBody::Stats { json }),
        arb_audit().prop_map(ResponseBody::ReplayAudit),
        any::<bool>().prop_map(|draining| ResponseBody::Pong { draining }),
        proptest::collection::vec(arb_profile(), 0..6).prop_map(ResponseBody::Profiles),
        any::<u32>().prop_map(|profile| ResponseBody::ProfileAdded { profile }),
        any::<u32>().prop_map(|profile| ResponseBody::ProfileRetired { profile }),
        arb_error().prop_map(ResponseBody::Error),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    (any::<u64>(), arb_response_body()).prop_map(|(id, body)| Response { id, body })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// encode → decode is the identity for requests, and re-encoding is
    /// byte-identical (canonical form).
    #[test]
    fn prop_request_round_trip_is_identity(request in arb_request()) {
        let bytes = encode_request(CodecKind::Binary, &request);
        let back = decode_request(CodecKind::Binary, &bytes).expect("own bytes decode");
        prop_assert_eq!(&back, &request);
        prop_assert_eq!(encode_request(CodecKind::Binary, &back), bytes);
    }

    /// encode → decode is the identity for responses, and re-encoding
    /// is byte-identical.
    #[test]
    fn prop_response_round_trip_is_identity(response in arb_response()) {
        let bytes = encode_response(CodecKind::Binary, &response);
        let back = decode_response(CodecKind::Binary, &bytes).expect("own bytes decode");
        prop_assert_eq!(&back, &response);
        prop_assert_eq!(encode_response(CodecKind::Binary, &back), bytes);
    }

    /// Every single-byte corruption of a binary request is rejected —
    /// exhaustive over byte positions, corruption value drawn per case.
    /// (FNV-1a absorbs each byte through a bijective step, so one
    /// substituted byte always lands in a different final state.)
    #[test]
    fn prop_binary_request_corruption_is_rejected(
        request in arb_request(),
        flip in 1u8..=255,
    ) {
        let bytes = encode_request(CodecKind::Binary, &request);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            prop_assert!(
                decode_request(CodecKind::Binary, &corrupt).is_err(),
                "corruption at byte {}/{} (xor {:#04x}) was accepted",
                pos,
                bytes.len(),
                flip
            );
        }
    }

    /// Same exhaustive standard for binary responses. Sample vectors are
    /// kept small here so positions × cases stays fast; the checksum
    /// argument is position-independent.
    #[test]
    fn prop_binary_response_corruption_is_rejected(
        response in arb_response(),
        flip in 1u8..=255,
    ) {
        let bytes = encode_response(CodecKind::Binary, &response);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            prop_assert!(
                decode_response(CodecKind::Binary, &corrupt).is_err(),
                "corruption at byte {}/{} (xor {:#04x}) was accepted",
                pos,
                bytes.len(),
                flip
            );
        }
    }

    /// No truncation of a binary payload is accepted, and appended
    /// garbage is rejected; both hold for requests and responses.
    #[test]
    fn prop_binary_truncation_and_extension_are_rejected(
        request in arb_request(),
        response in arb_response(),
        cut in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let req = encode_request(CodecKind::Binary, &request);
        let resp = encode_response(CodecKind::Binary, &response);
        let keep_req = (cut % req.len() as u64) as usize;
        let keep_resp = (cut % resp.len() as u64) as usize;
        prop_assert!(decode_request(CodecKind::Binary, &req[..keep_req]).is_err());
        prop_assert!(decode_response(CodecKind::Binary, &resp[..keep_resp]).is_err());
        let mut req_ext = req.clone();
        req_ext.extend_from_slice(&tail);
        let mut resp_ext = resp.clone();
        resp_ext.extend_from_slice(&tail);
        prop_assert!(decode_request(CodecKind::Binary, &req_ext).is_err());
        prop_assert!(decode_response(CodecKind::Binary, &resp_ext).is_err());
    }
}
