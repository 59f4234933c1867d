//! Protocol robustness under hostile input: random malformed, truncated,
//! mutated, and oversized request lines — plus `cancel` for ids that were
//! never in flight — must always produce a structured protocol response
//! (or a clean connection close), never a panic, a hang, or a connection
//! whose next request misbehaves.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::frontend::MAX_REQUEST_BYTES;
use adhls_explore::server::{protocol, Frontend, Server};
use adhls_reslib::tsmc90;
use proptest::prelude::*;

fn server() -> Server {
    Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    ))
}

/// Feeds one raw line (plus a trailing `ping` probe) through a fresh
/// connection and returns the response lines. The probe proves the
/// connection state survived the hostile line.
fn serve_lines(srv: &Server, raw: &str) -> Vec<String> {
    let mut input = Vec::new();
    input.extend_from_slice(raw.as_bytes());
    input.extend_from_slice(b"\n{\"id\":\"probe\",\"cmd\":\"ping\"}\n");
    let mut out = Vec::new();
    srv.serve_connection(input.as_slice(), &mut out)
        .expect("in-memory serve cannot fail on I/O");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Every response line must be a parseable protocol message: valid JSON
/// with an `event` of `round` or `result`, and `result` lines carry `ok`.
fn assert_structured(lines: &[String], context: &str) {
    assert!(!lines.is_empty(), "no response at all to {context}");
    for l in lines {
        let v = Value::parse(l)
            .unwrap_or_else(|e| panic!("unparseable response to {context}: {l}\n{e}"));
        match v.get("event").and_then(Value::as_str) {
            Some("round") => {}
            Some("result") => assert!(
                matches!(v.get("ok"), Some(Value::Bool(_))),
                "result without ok to {context}: {l}"
            ),
            other => panic!("response with event {other:?} to {context}: {l}"),
        }
    }
}

/// The trailing probe must have been answered: the hostile line cannot
/// poison the connection for the next request.
fn assert_probe_answered(lines: &[String], context: &str) {
    let probe = lines
        .iter()
        .rev()
        .find(|l| l.contains("\"id\":\"probe\""))
        .unwrap_or_else(|| panic!("connection died before the probe after {context}: {lines:#?}"));
    assert!(
        probe.contains("\"ok\":true"),
        "probe ping failed after {context}: {probe}"
    );
}

/// Byte soup that still forms UTF-8 lines: drawn from a protocol-flavored
/// alphabet so mutations hit interesting parser paths far more often than
/// pure noise would.
fn fuzz_line(bytes: &[u8]) -> String {
    const ALPHABET: &[u8] =
        br#"{}[]"':,.0123456789-+eE nultrfasid cmd wrkload sweep refine cancel target \"#;
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_request` totals: any input string yields an id/command or a
    /// message, never a panic.
    #[test]
    fn parse_request_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let line = fuzz_line(&bytes);
        let (_, cmd) = protocol::parse_request(&line);
        if let Err(msg) = cmd {
            prop_assert!(!msg.is_empty(), "error without a message for {line:?}");
        }
    }
}

proptest! {
    // Full-connection cases run real dispatch, so fewer of them.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single hostile line gets a structured answer and leaves the
    /// connection usable.
    #[test]
    fn hostile_lines_get_structured_errors(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let line = fuzz_line(&bytes);
        let srv = server();
        let lines = serve_lines(&srv, &line);
        assert_structured(&lines, &format!("{line:?}"));
        assert_probe_answered(&lines, &format!("{line:?}"));
    }

    /// Truncating a *valid* request at any byte still yields structured
    /// errors — half a JSON object must never wedge the framing.
    #[test]
    fn truncated_valid_requests_stay_structured(cut in 1usize..96) {
        let full = r#"{"id":7,"cmd":"refine","workload":"idct","clocks":[2200,3000],"cycles":[12,16],"gap_tol":0.5}"#;
        prop_assume!(cut < full.len());
        let truncated = &full[..cut];
        let srv = server();
        let lines = serve_lines(&srv, truncated);
        assert_structured(&lines, &format!("truncated at {cut}: {truncated:?}"));
        assert_probe_answered(&lines, &format!("truncated at {cut}"));
    }

    /// `cancel` for an id that is not in flight — any shape of id — is a
    /// structured `ok:false` error, not a panic or a hang.
    #[test]
    fn cancel_for_unknown_ids_is_a_structured_error(
        bytes in prop::collection::vec(any::<u8>(), 0..24),
        numeric in any::<bool>(),
        target_num in 0i64..1000,
    ) {
        let target = if numeric {
            target_num.to_string()
        } else {
            format!("{:?}", fuzz_line(&bytes).replace('"', ""))
        };
        let line = format!(r#"{{"id":1,"cmd":"cancel","target":{target}}}"#);
        let srv = server();
        let lines = serve_lines(&srv, &line);
        assert_structured(&lines, &line);
        let first = Value::parse(&lines[0]).expect("structured above");
        prop_assert_eq!(first.get("ok"), Some(&Value::Bool(false)));
        prop_assert!(
            first.get("error").and_then(Value::as_str)
                .is_some_and(|e| e.contains("no in-flight request")),
            "unexpected cancel error shape: {}", lines[0]
        );
        assert_probe_answered(&lines, &line);
    }

    /// Interleaving hostile lines with valid requests on one connection:
    /// every valid request still gets its correct answer.
    #[test]
    fn garbage_between_valid_requests_does_not_corrupt_state(
        bytes in prop::collection::vec(any::<u8>(), 1..80),
    ) {
        let garbage = fuzz_line(&bytes);
        let srv = server();
        let input = format!(
            "{{\"id\":1,\"cmd\":\"ping\"}}\n{garbage}\n{{\"id\":2,\"cmd\":\"stats\"}}\n"
        );
        let mut out = Vec::new();
        srv.serve_connection(input.as_bytes(), &mut out).expect("in-memory serve");
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_structured(&lines, &format!("interleaved {garbage:?}"));
        prop_assert!(
            lines.iter().any(|l| l.contains("\"id\":1") && l.contains("\"ok\":true")),
            "ping before the garbage lost its answer: {lines:#?}"
        );
        prop_assert!(
            lines.iter().any(|l| l.contains("\"id\":2") && l.contains("\"ok\":true")),
            "stats after the garbage lost its answer: {lines:#?}"
        );
    }
}

/// An over-cap request line is refused with a structured error and the
/// connection is closed (framing is unrecoverable past the cap) — never a
/// hang or unbounded buffering. A final line cut short by EOF, by
/// contrast, is still a request and gets its answer.
#[test]
fn oversized_lines_are_refused_with_a_structured_error() {
    let mut line = String::with_capacity(MAX_REQUEST_BYTES + 64);
    line.push_str("{\"id\":1,\"cmd\":\"ping\",\"pad\":\"");
    line.push_str(&"x".repeat(MAX_REQUEST_BYTES));
    line.push_str("\"}");
    let srv = server();
    let mut out = Vec::new();
    srv.serve_connection(format!("{line}\n").as_bytes(), &mut out)
        .expect("oversized line is an application error, not an I/O error");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let first = Value::parse(text.lines().next().expect("one refusal line"))
        .expect("refusal is structured JSON");
    assert_eq!(first.get("ok"), Some(&Value::Bool(false)));
    assert!(
        first
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "refusal should name the size cap: {text}"
    );
    assert_unterminated_line_is_answered(&srv);
}

/// Feeds one request with no trailing newline and checks it is answered.
fn assert_unterminated_line_is_answered(front: &impl Frontend) {
    let mut out = Vec::new();
    front
        .serve_connection(&br#"{"id":"eof","cmd":"ping"}"#[..], &mut out)
        .expect("in-memory serve");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    assert!(
        text.contains("\"id\":\"eof\"") && text.contains("\"ok\":true"),
        "unterminated final line went unanswered: {text:?}"
    );
}

/// The same refusal through the router: an oversized line at the router
/// front-end is refused before any worker sees it, and an unterminated
/// final line is answered just as a single server answers it.
#[test]
fn oversized_lines_are_refused_by_the_router_too() {
    use adhls_explore::server::{in_process_factory, Router, RouterOptions};
    let router = Router::new(
        in_process_factory(|_| {
            EvaluatorPool::new(
                tsmc90::library(),
                HlsOptions::default(),
                PoolOptions {
                    threads: 1,
                    skip_infeasible: true,
                    ..Default::default()
                },
            )
        }),
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let mut line = String::with_capacity(MAX_REQUEST_BYTES + 64);
    line.push_str("{\"cmd\":\"sweep\",\"pad\":\"");
    line.push_str(&"y".repeat(MAX_REQUEST_BYTES));
    line.push_str("\"}");
    let mut out = Vec::new();
    router
        .serve_connection(format!("{line}\n").as_bytes(), &mut out)
        .expect("refusal, not I/O failure");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    assert!(
        text.contains("\"ok\":false") && text.contains("exceeds"),
        "router refusal missing: {text}"
    );
    assert_unterminated_line_is_answered(&router);
}
