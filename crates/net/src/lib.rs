//! Scatter-gather multi-node serving for durable top-k queries.
//!
//! This crate lifts the workspace's single-process serving stack onto a
//! cluster of engines, each hosting a contiguous slice of one global
//! timeline:
//!
//! - [`wire`] — the versioned, dependency-free binary codec every
//!   connection speaks (length-prefixed frames, little-endian fields,
//!   typed decode errors, never panics on malformed input).
//! - [`Node`] — one cluster member: query in local coordinates, report
//!   serving stats, describe the owned range. [`LocalNode`] wraps an
//!   in-process [`ServeEngine`](durable_topk::ServeEngine);
//!   [`RemoteNode`] reaches a peer over TCP with connect/read timeouts
//!   and bounded transport retries.
//! - [`NodeServer`] — hosts one engine behind a `std::net::TcpListener`
//!   (no HTTP, no async runtime) so remote peers can query it.
//! - [`Coordinator`] — routes `I ∩ owned-range` pieces to their nodes,
//!   scatters on the shared worker pool, and merges per-node answers into
//!   the exact single-engine result (see the exactness note on
//!   [`Coordinator`]).
//!
//! Every lock the layer takes carries a
//! [`LockClass`](durable_topk::check::LockClass) rank above the engine
//! stack's, and no lock is ever held across a socket operation that the
//! engine side could be waiting on.

pub mod coordinator;
pub mod error;
pub mod node;
pub mod remote;
pub mod server;
pub mod wire;

pub use coordinator::{Coordinator, CoordinatorStats, NodePerf};
pub use error::NetError;
pub use node::{LocalNode, Node, NodeAnswer, NodeIdentity, NodeRanges};
pub use remote::{RemoteNode, RemoteOptions};
pub use server::{NodeServer, NodeServerOptions};
pub use wire::{
    decode_message, encode_message, read_message, write_message, Message, WireError, WIRE_VERSION,
};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use durable_topk::{
        Algorithm, DurableQuery, FallbackReason, QueryError, QueryStats, ScorerError, ScorerSpec,
        ServeError, ServeRequest, ServeResponse, ServeStats, Window,
    };
    use proptest::prelude::*;

    use crate::node::NodeRanges;
    use crate::wire::{
        decode_message, encode_message, Message, WireError, HEADER_LEN, WIRE_VERSION,
    };

    fn roundtrip(msg: &Message) -> Message {
        let bytes = encode_message(msg).expect("encodable message");
        let (decoded, used) = decode_message(&bytes).expect("decodable frame");
        assert_eq!(used, bytes.len(), "frame self-describes its length");
        decoded
    }

    fn sample_request(alg: Algorithm, scorer: ScorerSpec) -> ServeRequest {
        ServeRequest {
            alg,
            query: DurableQuery { k: 7, tau: 19, interval: Window::new(3, 411) },
            scorer,
        }
    }

    #[test]
    fn request_roundtrips_every_algorithm_and_scorer() {
        let scorers = [
            ScorerSpec::Uniform,
            ScorerSpec::Linear(vec![0.25, -1.5, f64::NAN]),
            ScorerSpec::Cosine(vec![1.0, 0.0]),
        ];
        for alg in Algorithm::ALL {
            for scorer in &scorers {
                let req = sample_request(alg, scorer.clone());
                let Message::Query(out) = roundtrip(&Message::Query(req.clone())) else {
                    panic!("kind preserved");
                };
                assert_eq!(out.alg, req.alg);
                assert_eq!(out.query, req.query);
                match (&out.scorer, &req.scorer) {
                    (ScorerSpec::Uniform, ScorerSpec::Uniform) => {}
                    (ScorerSpec::Linear(a), ScorerSpec::Linear(b))
                    | (ScorerSpec::Cosine(a), ScorerSpec::Cosine(b)) => {
                        // NaN-safe bit-exact comparison.
                        let a: Vec<u64> = a.iter().map(|w| w.to_bits()).collect();
                        let b: Vec<u64> = b.iter().map(|w| w.to_bits()).collect();
                        assert_eq!(a, b);
                    }
                    _ => panic!("scorer variant preserved"),
                }
            }
        }
    }

    #[test]
    fn custom_scorer_is_rejected_at_encode() {
        use durable_topk::LinearScorer;
        let req = sample_request(
            Algorithm::SHop,
            ScorerSpec::Custom(std::sync::Arc::new(LinearScorer::uniform(2))),
        );
        match encode_message(&Message::Query(req)) {
            Err(WireError::OpaqueScorer) => {}
            other => panic!("expected OpaqueScorer, got {other:?}"),
        }
    }

    #[test]
    fn response_and_errors_roundtrip() {
        let resp = ServeResponse {
            records: vec![0, 5, 17, 4096],
            stats: QueryStats {
                durability_checks: 11,
                refill_queries: 3,
                candidates: 400,
                blocked_skips: 2,
                cold_page_hits: 1,
                cache_hits: 9,
                cache_misses: 4,
                fallback: Some(FallbackReason::SkybandBoundExceeded),
            },
            queued: Duration::from_micros(15),
            service: Duration::from_millis(3),
        };
        let Message::QueryOk(out) = roundtrip(&Message::QueryOk(resp.clone())) else {
            panic!("kind preserved");
        };
        assert_eq!(out, resp);
        // Tags 0–3 are the whole fallback vocabulary: 4 is unknown.
        let mut frame = encode_message(&Message::QueryOk(resp.clone())).expect("encodable");
        frame[HEADER_LEN + 4 + 4 * resp.records.len() + 7 * 8] = 4;
        assert!(matches!(
            decode_message(&frame),
            Err(WireError::UnknownTag { what: "fallback", tag: 4 })
        ));

        let errors = [
            ServeError::QueueFull,
            ServeError::ShuttingDown,
            ServeError::Query(QueryError::ZeroK),
            ServeError::Query(QueryError::IntervalOutOfRange { start: 9, last: 4 }),
            ServeError::Query(QueryError::TauExceedsOverlap { tau: 99, max_tau: 64 }),
            ServeError::Query(QueryError::Arity { expected: 4, got: 2 }),
            ServeError::Query(QueryError::InvalidScorer(ScorerError::Empty)),
            ServeError::Query(QueryError::InvalidScorer(ScorerError::InvalidWeight)),
            ServeError::Query(QueryError::InvalidScorer(ScorerError::NoDirection)),
            ServeError::Query(QueryError::NonFinite { attribute: 3 }),
            ServeError::Panicked("boom — unicode: τ".to_string()),
        ];
        for err in errors {
            let Message::QueryErr(out) = roundtrip(&Message::QueryErr(err.clone())) else {
                panic!("kind preserved");
            };
            assert_eq!(out, err);
        }
    }

    #[test]
    fn stats_and_ranges_roundtrip() {
        let stats = ServeStats {
            enqueued: 100,
            completed: 90,
            rejected: 4,
            failed: 6,
            depth: 3,
            max_depth: 17,
            total_queued: Duration::from_millis(120),
            total_service: Duration::from_secs(2),
            cold_page_hits: 8,
            subscriptions: 2,
            refreshes: 40,
            fast_path_skips: 33,
            full_recomputes: 5,
            max_refresh_inflight: 2,
            cache_hits: 12,
            cache_misses: 7,
            cache_evictions: 1,
            cache_bytes: 65_536,
        };
        let Message::Stats(out) = roundtrip(&Message::Stats(stats)) else {
            panic!("kind preserved");
        };
        assert_eq!(out, stats);

        let ranges = NodeRanges {
            ext_lo: 936,
            lo: 1000,
            hi: 1999,
            max_tau: 64,
            dim: 2,
            shards: vec![(936, 1499), (1500, 1999)],
        };
        let Message::Ranges(out) = roundtrip(&Message::Ranges(ranges.clone())) else {
            panic!("kind preserved");
        };
        assert_eq!(out, ranges);

        for msg in [Message::StatsRequest, Message::RangesRequest] {
            let out = roundtrip(&msg);
            assert_eq!(out.kind_name(), msg.kind_name());
        }
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let req = sample_request(Algorithm::SBand, ScorerSpec::Linear(vec![0.5, 0.5]));
        let frame = encode_message(&Message::Query(req)).expect("encodable");
        for len in 0..frame.len() {
            match decode_message(&frame[..len]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {len} bytes decoded as a full frame"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut frame = encode_message(&Message::StatsRequest).expect("encodable");
        frame[4] = (WIRE_VERSION as u8).wrapping_add(1);
        match decode_message(&frame) {
            Err(WireError::UnsupportedVersion { got }) => {
                assert_eq!(got, WIRE_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_unknown_kind_and_trailing_bytes_are_rejected() {
        let mut frame = encode_message(&Message::RangesRequest).expect("encodable");
        frame[0] = b'X';
        assert!(matches!(decode_message(&frame), Err(WireError::BadMagic)));

        let mut frame = encode_message(&Message::RangesRequest).expect("encodable");
        frame[6] = 250;
        assert!(matches!(decode_message(&frame), Err(WireError::UnknownKind(250))));

        // Declare one more payload byte than the message needs.
        let mut frame = encode_message(&Message::StatsRequest).expect("encodable");
        frame[8] = 1;
        frame.push(0);
        assert!(matches!(decode_message(&frame), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn inverted_window_is_rejected() {
        let req = sample_request(Algorithm::TBase, ScorerSpec::Uniform);
        let mut frame = encode_message(&Message::Query(req)).expect("encodable");
        // Payload layout: alg u8, k u64, tau u32, start u32, end u32.
        // Overwrite `end` (offset 12 + 1 + 8 + 4 + 4) with start − 1.
        let end_at = HEADER_LEN + 1 + 8 + 4 + 4;
        frame[end_at..end_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(decode_message(&frame), Err(WireError::InvalidField(_))));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate_or_panic() {
        // A scorer length prefix far beyond the actual payload.
        let req = sample_request(Algorithm::SHop, ScorerSpec::Linear(vec![1.0]));
        let mut frame = encode_message(&Message::Query(req)).expect("encodable");
        let scorer_len_at = HEADER_LEN + 1 + 8 + 4 + 4 + 4 + 1;
        frame[scorer_len_at..scorer_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_message(&frame).is_err());

        // A frame header declaring more than MAX_PAYLOAD.
        let mut frame = encode_message(&Message::StatsRequest).expect("encodable");
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_message(&frame), Err(WireError::LengthOverflow(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_requests_roundtrip(
            alg_tag in 0usize..6,
            k in 1usize..10_000,
            tau in 1u32..100_000,
            start in 0u32..1_000_000,
            span in 0u32..1_000_000,
            scorer_tag in 0usize..3,
            weights in prop::collection::vec((-2_000_000i64..2_000_000).prop_map(|m| m as f64 / 1_000.0), 0..6),
        ) {
            let scorer = match scorer_tag {
                0 => ScorerSpec::Uniform,
                1 => ScorerSpec::Linear(weights.clone()),
                _ => ScorerSpec::Cosine(weights.clone()),
            };
            let req = ServeRequest {
                alg: Algorithm::ALL[alg_tag],
                query: DurableQuery {
                    k,
                    tau,
                    interval: Window::new(start, start.saturating_add(span)),
                },
                scorer,
            };
            let bytes = encode_message(&Message::Query(req.clone())).expect("encodable");
            let (decoded, used) = decode_message(&bytes).expect("decodable");
            prop_assert_eq!(used, bytes.len());
            let Message::Query(out) = decoded else { panic!("kind preserved") };
            prop_assert_eq!(out.alg, req.alg);
            prop_assert_eq!(out.query, req.query);
            let out_bits: Vec<u64> = match &out.scorer {
                ScorerSpec::Uniform => Vec::new(),
                ScorerSpec::Linear(w) | ScorerSpec::Cosine(w) => {
                    w.iter().map(|x| x.to_bits()).collect()
                }
                ScorerSpec::Custom(_) => panic!("custom cannot decode"),
            };
            let want_bits: Vec<u64> = if scorer_tag == 0 {
                Vec::new()
            } else {
                weights.iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(out_bits, want_bits);
        }

        #[test]
        fn random_byte_soup_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
            // Any outcome is fine; the decoder just must not panic.
            let _ = decode_message(&bytes);
        }

        #[test]
        fn corrupted_real_frames_never_panic(
            flip_at in 0usize..64,
            flip_to in 0u8..=255,
            cut in 0usize..64,
        ) {
            let req = sample_request(Algorithm::SHopTop1, ScorerSpec::Cosine(vec![0.5, 0.5]));
            let mut frame = encode_message(&Message::Query(req)).expect("encodable");
            let at = flip_at % frame.len();
            frame[at] = flip_to;
            let keep = frame.len().saturating_sub(cut % frame.len());
            let _ = decode_message(&frame[..keep]);
        }
    }
}
