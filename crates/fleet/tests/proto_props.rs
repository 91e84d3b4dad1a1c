//! Property tests for the fleet wire protocol: encode → decode is the
//! identity for arbitrary requests and responses, and the frame reader
//! never mangles or loses frame boundaries.

use lkas_fleet::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorKind, Event,
    FrameRead, JobState, JobStatus, Request, RequestOp, Response, StatusInfo, SubmitRequest,
    WireError,
};
use proptest::prelude::*;
use serde::Value;
use std::io::Cursor;

/// Builds a printable-ASCII string from generated bytes (the protocol
/// carries arbitrary JSON strings; printable ASCII exercises quoting
/// without tripping on the stand-in serde's escape support).
fn text(bytes: &[u16]) -> String {
    bytes.iter().map(|&b| (32 + (b % 94) as u8) as char).collect()
}

/// Deterministically expands generated integers into one of every
/// request shape.
fn request_from(selector: u16, id: u64, priority: u16, flag: bool, label: &str) -> Request {
    let priority = priority as u8;
    let op = match selector % 5 {
        0 => RequestOp::Status,
        1 => RequestOp::Watch { job: id },
        2 => RequestOp::Cancel { job: id },
        3 => RequestOp::Shutdown,
        _ => RequestOp::Submit(SubmitRequest {
            tenant: flag.then(|| label.to_string()),
            priority,
            wait: !flag,
            spec: Value::Object(vec![
                ("kind".to_string(), Value::Str(label.to_string())),
                ("id".to_string(), Value::I64(id as i64)),
            ]),
        }),
    };
    Request::new(op)
}

/// Deterministically expands generated integers into one of every
/// response shape.
fn response_from(selector: u16, id: u64, count: u64, flag: bool, label: &str) -> Response {
    let event = match selector % 10 {
        0 => Event::Accepted {
            job: id,
            key: label.to_string(),
            config_hash: format!("{count:016x}"),
        },
        1 => Event::Rejected {
            reason: label.to_string(),
            queued: count as usize % 1000,
            capacity: count as usize % 1000 + 1,
        },
        2 => Event::Progress { job: id, completed: count, total: count + 1 },
        3 => Event::CycleDelta { job: id, delta: Value::Str(label.to_string()) },
        4 => Event::Result { job: id, cached: flag, payload: Value::Str(label.to_string()) },
        5 => Event::Failed { job: id, message: label.to_string() },
        6 => Event::Cancelled { job: id },
        7 => Event::Status(StatusInfo {
            queued: count as usize % 100,
            capacity: 64,
            workers: 2,
            cache_entries: count as usize % 10,
            jobs: vec![JobStatus {
                job: id,
                key: label.to_string(),
                tenant: flag.then(|| "t".to_string()),
                priority: selector as u8,
                state: if flag { JobState::Done } else { JobState::Queued },
                started_order: flag.then_some(count),
                cached: flag,
            }],
            counters: vec![("cycles".to_string(), count)],
        }),
        8 => Event::Error(WireError::new(
            match selector % 5 {
                0 => ErrorKind::MalformedJson,
                1 => ErrorKind::OversizedLine,
                2 => ErrorKind::TruncatedRequest,
                3 => ErrorKind::UnsupportedSchema,
                _ => ErrorKind::BadRequest,
            },
            label,
        )),
        _ => Event::ShuttingDown,
    };
    Response::new(event)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any request survives an encode → decode round trip unchanged.
    #[test]
    fn request_round_trips(
        selector in 0u16..256,
        id in 0u64..1_000_000,
        priority in 0u16..256,
        flag in proptest::collection::vec(0u8..2, 1),
        label_bytes in proptest::collection::vec(0u16..256, 12),
    ) {
        let request =
            request_from(selector, id, priority, flag[0] == 1, &text(&label_bytes));
        let line = encode_request(&request);
        prop_assert!(line.ends_with('\n'));
        prop_assert!(!line.trim_end().contains('\n'));
        let back = decode_request(line.trim_end());
        prop_assert_eq!(back.as_ref().ok(), Some(&request));
    }

    /// Any response survives an encode → decode round trip unchanged.
    #[test]
    fn response_round_trips(
        selector in 0u16..256,
        id in 0u64..1_000_000,
        count in 0u64..1_000_000,
        flag in proptest::collection::vec(0u8..2, 1),
        label_bytes in proptest::collection::vec(0u16..256, 12),
    ) {
        let response =
            response_from(selector, id, count, flag[0] == 1, &text(&label_bytes));
        let line = encode_response(&response);
        prop_assert!(line.ends_with('\n'));
        let back = decode_response(line.trim_end());
        prop_assert_eq!(back.as_ref().ok(), Some(&response));
    }

    /// A stream of encoded frames reads back frame-for-frame: the
    /// reader neither merges, splits, nor reorders them.
    #[test]
    fn frame_reader_preserves_boundaries(
        selectors in proptest::collection::vec(0u16..256, 6),
        ids in proptest::collection::vec(0u64..1000, 6),
    ) {
        let requests: Vec<Request> = selectors
            .iter()
            .zip(&ids)
            .map(|(&s, &id)| request_from(s, id, s, s % 2 == 0, "frame"))
            .collect();
        let wire: String = requests.iter().map(encode_request).collect();
        let mut cursor = Cursor::new(wire.into_bytes());
        for request in &requests {
            match read_frame(&mut cursor, 1 << 20).unwrap() {
                FrameRead::Frame(line) => {
                    prop_assert_eq!(&decode_request(&line).unwrap(), request);
                }
                other => prop_assert!(false, "expected frame, got {:?}", other),
            }
        }
        prop_assert_eq!(read_frame(&mut cursor, 1 << 20).unwrap(), FrameRead::Eof);
    }
}
