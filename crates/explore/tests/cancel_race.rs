//! Cancellation semantics, from the refine layer up through a live
//! two-connection race: a cancelled refinement stops at a round boundary
//! and everything already streamed — rows, trace, round events — is a
//! byte-valid prefix of what the uncancelled run would have produced.
//! Cancellation may *lose* the race (the refine finishes first); that
//! outcome must be indistinguishable from no cancel at all.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine_with_progress, CancelToken, RefineOptions};
use adhls_explore::server::protocol::parse_request;
use adhls_explore::server::worker::pipe;
use adhls_explore::server::{workload_grid, Command, Frontend, Server};
use adhls_reslib::tsmc90;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

/// Same multi-round fixture as the fault drills: an 8×4 interpolation
/// grid whose seed covers only part of the space, so several rounds
/// stream before the terminal result.
const REFINE: &str = r#"{"id":42,"cmd":"refine","workload":"interpolation","clocks":[1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[3,4,5,6],"gap_tol":0.0}"#;

fn fresh_pool() -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

fn fixture_spec() -> adhls_explore::server::WorkloadSpec {
    let (_, cmd) = parse_request(REFINE);
    let Ok(Command::Refine { spec, .. }) = cmd else {
        panic!("fixture parses as refine")
    };
    spec
}

/// The refine layer, deterministically: firing the token from the round
/// observer guarantees the cancel lands between rounds, and the result
/// must be flagged cancelled with a trace that is an exact prefix of the
/// uncancelled run's.
#[test]
fn a_cancelled_refinement_is_an_exact_prefix_of_the_uncancelled_run() {
    let spec = fixture_spec();
    let pool = fresh_pool();

    let (grid, prefix, build) = workload_grid(&spec).expect("fixture grid builds");
    let full = refine_with_progress(
        &pool,
        &grid,
        &prefix,
        build,
        &RefineOptions {
            gap_tol: 0.0,
            ..Default::default()
        },
        |_| {},
    )
    .expect("uncancelled refinement runs");
    assert!(full.trace.len() >= 2, "fixture must be multi-round");
    assert!(!full.cancelled);

    let token = CancelToken::new();
    let trigger = token.clone();
    let (grid, prefix, build) = workload_grid(&spec).expect("fixture grid builds");
    let cancelled = refine_with_progress(
        &pool,
        &grid,
        &prefix,
        build,
        &RefineOptions {
            gap_tol: 0.0,
            cancel: Some(token),
            ..Default::default()
        },
        |_| trigger.cancel(),
    )
    .expect("cancelled refinement still returns a result");

    assert!(cancelled.cancelled, "token fired after round 0 must stick");
    assert_eq!(
        cancelled.trace.len(),
        1,
        "cancel observed at the first boundary stops after the seed round"
    );
    assert_eq!(
        cancelled.trace[..],
        full.trace[..cancelled.trace.len()],
        "the cancelled trace must be an exact prefix of the uncancelled one"
    );
    assert_eq!(
        cancelled.rows[..],
        full.rows[..cancelled.rows.len()],
        "integrated rows must be an exact prefix too — no torn round"
    );
}

/// One client connection to a shared server, driven line-by-line over
/// in-memory pipes.
struct Conn {
    tx: adhls_explore::server::worker::PipeWriter,
    rx: BufReader<adhls_explore::server::worker::PipeReader>,
}

impl Conn {
    fn open(server: &Arc<Server>) -> Conn {
        let (req_tx, req_rx) = pipe();
        let (resp_tx, resp_rx) = pipe();
        let srv = Arc::clone(server);
        std::thread::spawn(move || {
            let _ = srv.serve_connection(BufReader::new(req_rx), resp_tx);
        });
        Conn {
            tx: req_tx,
            rx: BufReader::new(resp_rx),
        }
    }

    fn send(&mut self, line: &str) {
        self.tx
            .write_all(format!("{line}\n").as_bytes())
            .expect("request write");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        assert_ne!(
            self.rx.read_line(&mut line).expect("response read"),
            0,
            "connection closed mid-request"
        );
        line.trim_end().to_string()
    }
}

/// The live race: connection A streams a refine, connection B cancels A's
/// id after the first round event. Whichever way the race resolves, A's
/// stream must be a byte-prefix of the uncancelled reference stream, and
/// a winning cancel must be acknowledged on B with a truncated, flagged
/// result on A.
#[test]
fn a_concurrent_cancel_yields_a_valid_prefix_stream() {
    // The uncancelled reference, same id and request bytes.
    let reference = {
        let srv = Server::new(fresh_pool());
        let mut out = Vec::new();
        srv.serve_connection(format!("{REFINE}\n").as_bytes(), &mut out)
            .expect("reference serve");
        String::from_utf8(out).expect("responses are UTF-8")
    };
    let ref_lines: Vec<&str> = reference.lines().collect();
    let ref_rounds: Vec<&str> = ref_lines
        .iter()
        .copied()
        .filter(|l| l.contains("\"event\":\"round\""))
        .collect();
    assert!(ref_rounds.len() >= 2, "fixture must be multi-round");

    let server = Arc::new(Server::new(fresh_pool()));
    let mut a = Conn::open(&server);
    let mut b = Conn::open(&server);

    a.send(REFINE);
    let first = a.recv();
    assert!(
        first.contains("\"event\":\"round\""),
        "refine must stream its seed round first: {first}"
    );

    // Cancel from the *other* connection — the registry is server-wide.
    b.send(r#"{"id":"killer","cmd":"cancel","target":42}"#);
    let ack = Value::parse(&b.recv()).expect("cancel response is JSON");

    // Drain A to its terminal result.
    let mut streamed = vec![first];
    loop {
        let line = a.recv();
        let terminal = line.contains("\"event\":\"result\"");
        streamed.push(line);
        if terminal {
            break;
        }
    }

    // Prefix property holds regardless of who won the race.
    let rounds: Vec<&String> = streamed
        .iter()
        .filter(|l| l.contains("\"event\":\"round\""))
        .collect();
    assert!(rounds.len() <= ref_rounds.len());
    for (got, want) in rounds.iter().zip(&ref_rounds) {
        assert_eq!(
            got.as_str(),
            *want,
            "streamed rounds must be byte-identical to the reference prefix"
        );
    }

    let terminal = streamed.last().expect("terminal recorded");
    if terminal.contains("\"cancelled\":true") {
        // Cancel won: B must have been told so, the result is still ok
        // (a truncated answer, not an error), and the stream is shorter.
        assert_eq!(
            ack.get("ok"),
            Some(&Value::Bool(true)),
            "a cancel that landed must be acknowledged: {ack:?}"
        );
        assert_eq!(ack.get("cmd").and_then(Value::as_str), Some("cancel"));
        assert!(
            terminal.contains("\"ok\":true"),
            "cancelled is not an error"
        );
        assert!(
            rounds.len() < ref_rounds.len(),
            "a cancelled run must stop before the reference's last round"
        );
    } else {
        // Cancel lost: the whole stream is byte-identical to the
        // reference, and B saw either a late ack or a no-in-flight error.
        assert_eq!(
            streamed.iter().map(String::as_str).collect::<Vec<_>>(),
            ref_lines,
            "an uncancelled run through the race must match the reference exactly"
        );
    }
}
