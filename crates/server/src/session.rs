//! The v1 JSON-lines session: every protocol decision of one v1 peer,
//! with no I/O.
//!
//! Both transports drive the same [`LineSession`]: [`crate::serve_lines`]
//! over blocking stdio, and the reactor ([`crate::reactor`]) over
//! nonblocking TCP. A driver cuts its input into pieces (at the first
//! newline, or after `MAX_FRAME_PAYLOAD + 1` bytes of a longer line),
//! hands each piece to [`LineSession::line`], submits the jobs it gets
//! back, reports finished jobs with [`LineSession::done`] and writes
//! whatever [`LineSession::next_due`] yields. The session owns line
//! decoding, the out-of-band answers to probes and protocol errors,
//! submission-order emission of job responses, and the shutdown endgame.

use std::collections::{BTreeMap, VecDeque};

use asynd_net::frame::MAX_FRAME_PAYLOAD;

use crate::protocol::{JobRequest, LookupRequest, Request, Response};
use crate::server::ScheduleServer;
use crate::ServerError;

/// The answers a session gives in-line, without queueing a job.
/// [`ScheduleServer`] gives the real ones; unit tests stub them, so the
/// session runs without a server's worker threads.
pub(crate) trait Probes {
    /// Answers a `lookup` op.
    fn lookup(&self, request: &LookupRequest) -> Response;
    /// Answers a `metrics` op.
    fn metrics(&self, id: &str) -> Response;
}

impl Probes for ScheduleServer {
    fn lookup(&self, request: &LookupRequest) -> Response {
        ScheduleServer::lookup(self, request)
    }

    fn metrics(&self, id: &str) -> Response {
        ScheduleServer::metrics(self, id)
    }
}

/// One v1 peer's protocol state.
///
/// Probe answers and protocol errors are due at once, out of band of job
/// order; job responses are due strictly in submission order; after
/// `{"op":"shutdown"}` nothing more is read, and the ack is due once the
/// last owed response has been handed out.
#[derive(Default)]
pub(crate) struct LineSession {
    /// Sequence number handed to the next submitted job.
    next_seq: u64,
    /// Sequence number whose response is due next.
    emit_seq: u64,
    /// Finished jobs waiting for their turn.
    ready: BTreeMap<u64, Response>,
    /// Probe answers and protocol errors, due before any job response.
    out_of_band: VecDeque<Response>,
    /// The peer sent `{"op":"shutdown"}`.
    shutdown: bool,
    /// The shutdown ack has been handed out.
    acked: bool,
}

impl LineSession {
    /// Takes one piece of input: a line with or without its newline, or
    /// the first `MAX_FRAME_PAYLOAD + 1` bytes of a longer one. Returns the
    /// job to submit, tagged with the sequence number [`LineSession::done`]
    /// expects; everything else is answered through
    /// [`LineSession::next_due`]. Pieces after a shutdown are ignored.
    pub(crate) fn line(&mut self, raw: &[u8], probes: &dyn Probes) -> Option<(u64, JobRequest)> {
        if self.shutdown {
            return None;
        }
        let mut body = raw;
        while let [rest @ .., b'\n' | b'\r'] = body {
            body = rest;
        }
        let parsed = if body.len() > MAX_FRAME_PAYLOAD {
            Err(ServerError::Protocol {
                reason: format!("request line exceeds {MAX_FRAME_PAYLOAD} bytes"),
            })
        } else {
            match std::str::from_utf8(body) {
                Ok(text) if text.trim().is_empty() => return None,
                Ok(text) => Request::parse(text),
                // Answered in-band: one garbage line must not tear down
                // the stream and the pipelined jobs behind it.
                Err(_) => Err(ServerError::Protocol {
                    reason: "request line is not valid UTF-8".to_string(),
                }),
            }
        };
        let answer = match parsed {
            Ok(Request::Synthesize(request)) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                return Some((seq, request));
            }
            Ok(Request::Lookup(request)) => probes.lookup(&request),
            Ok(Request::Metrics(id)) => probes.metrics(&id),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Shutdown) => {
                self.shutdown = true;
                return None;
            }
            Err(e) => Response::Error { id: String::new(), error: e.to_string() },
        };
        self.out_of_band.push_back(answer);
        None
    }

    /// Records the response of the job submitted as `seq`.
    pub(crate) fn done(&mut self, seq: u64, response: Response) {
        self.ready.insert(seq, response);
    }

    /// The next response owed to the peer: probe and error answers
    /// first, then finished jobs in submission order, then the shutdown
    /// ack once nothing else is owed.
    pub(crate) fn next_due(&mut self) -> Option<Response> {
        if let Some(answer) = self.out_of_band.pop_front() {
            return Some(answer);
        }
        if let Some(response) = self.ready.remove(&self.emit_seq) {
            self.emit_seq += 1;
            return Some(response);
        }
        if self.shutdown && !self.acked && self.emit_seq == self.next_seq {
            self.acked = true;
            return Some(Response::ShuttingDown);
        }
        None
    }

    /// Whether the peer asked for shutdown: the driver reads no further.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Whether every submitted job's response has been handed out.
    pub(crate) fn drained(&self) -> bool {
        self.emit_seq == self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers probes without a server.
    struct Stub;

    impl Probes for Stub {
        fn lookup(&self, request: &LookupRequest) -> Response {
            Response::Error { id: request.id.clone(), error: "stub lookup".to_string() }
        }

        fn metrics(&self, id: &str) -> Response {
            Response::Error { id: id.to_string(), error: "stub metrics".to_string() }
        }
    }

    fn job_line(id: &str) -> String {
        format!(
            "{{\"id\":{id:?},\"code\":{{\"family\":\"rotated-surface\"}},\
             \"noise\":\"brisbane\",\"strategy\":\"lowest-depth\",\
             \"budget\":8,\"shots\":120,\"seed\":3}}\n"
        )
    }

    /// A finished job's response, told apart by `id`.
    fn finished(id: &str) -> Response {
        Response::Error { id: id.to_string(), error: "finished".to_string() }
    }

    fn due(session: &mut LineSession) -> Vec<Response> {
        std::iter::from_fn(|| session.next_due()).collect()
    }

    fn submit(session: &mut LineSession, id: &str) -> u64 {
        let (seq, request) = session.line(job_line(id).as_bytes(), &Stub).expect("a job");
        assert_eq!(request.id, id);
        seq
    }

    #[test]
    fn out_of_order_completions_come_out_in_submission_order() {
        let mut session = LineSession::default();
        let seqs: Vec<u64> = ["a", "b", "c"].iter().map(|id| submit(&mut session, id)).collect();
        assert_eq!(seqs, [0, 1, 2]);
        session.done(seqs[2], finished("c"));
        session.done(seqs[1], finished("b"));
        assert!(due(&mut session).is_empty(), "b and c wait for a");
        assert!(!session.drained());
        session.done(seqs[0], finished("a"));
        assert_eq!(due(&mut session), [finished("a"), finished("b"), finished("c")]);
        assert!(session.drained());
    }

    #[test]
    fn probes_and_protocol_errors_are_answered_out_of_band() {
        let mut session = LineSession::default();
        let seq = submit(&mut session, "a");
        let lookup = "{\"op\":\"lookup\",\"id\":\"l\",\"code\":{\"family\":\"bb\"},\
                      \"noise\":\"brisbane\",\"shots\":100}";
        for line in ["{\"op\":\"ping\"}", "not json", lookup, "{\"op\":\"metrics\",\"id\":\"m\"}"] {
            assert!(session.line(line.as_bytes(), &Stub).is_none());
        }
        let answers = due(&mut session);
        assert_eq!(answers.len(), 4, "{answers:?}");
        assert_eq!(answers[0], Response::Pong);
        assert!(
            matches!(&answers[1], Response::Error { id, error } if id.is_empty() && error.contains("protocol error")),
            "{answers:?}"
        );
        assert!(
            matches!(&answers[2], Response::Error { id, error } if id == "l" && error == "stub lookup"),
            "{answers:?}"
        );
        assert_eq!(answers[3], Stub.metrics("m"));
        // The job still owed does not hold the probes back, and is due
        // once it finishes.
        session.done(seq, finished("a"));
        assert_eq!(due(&mut session), [finished("a")]);
    }

    #[test]
    fn blank_lines_are_skipped_and_non_utf8_lines_are_answered() {
        let mut session = LineSession::default();
        for blank in [&b""[..], b"\n", b"\r\n", b"   \t \r\n"] {
            assert!(session.line(blank, &Stub).is_none());
        }
        assert!(due(&mut session).is_empty(), "blank lines get no answer");
        assert!(session.line(b"\xff\xfe not utf-8 \xff\n", &Stub).is_none());
        match due(&mut session).as_slice() {
            [Response::Error { id, error }] => {
                assert!(id.is_empty());
                assert!(error.contains("UTF-8"), "{error}");
            }
            other => panic!("expected one error: {other:?}"),
        }
        // CR/LF endings are trimmed before parsing.
        assert!(session.line(b"{\"op\":\"ping\"}\r\n", &Stub).is_none());
        assert_eq!(due(&mut session), [Response::Pong]);
    }

    #[test]
    fn over_long_pieces_are_refused_and_the_stream_goes_on() {
        let mut session = LineSession::default();
        // The most a driver hands over without a newline.
        let piece = vec![b'x'; MAX_FRAME_PAYLOAD + 1];
        assert!(session.line(&piece, &Stub).is_none());
        // A line of exactly the cap is parsed: refused as JSON, not for
        // its length.
        let mut at_cap = vec![b'y'; MAX_FRAME_PAYLOAD];
        at_cap.extend_from_slice(b"\r\n");
        assert!(session.line(&at_cap, &Stub).is_none());
        assert!(session.line(b"{\"op\":\"ping\"}\n", &Stub).is_none());
        match due(&mut session).as_slice() {
            [Response::Error { error: too_long, .. }, Response::Error { error: not_json, .. }, Response::Pong] =>
            {
                assert!(too_long.contains("exceeds"), "{too_long}");
                assert!(!not_json.contains("exceeds"), "{not_json}");
            }
            other => panic!("expected two refusals then pong: {other:?}"),
        }
    }

    #[test]
    fn nothing_is_read_after_shutdown_and_the_ack_comes_last() {
        let mut session = LineSession::default();
        let first = submit(&mut session, "a");
        let second = submit(&mut session, "b");
        assert!(session.line(b"{\"op\":\"shutdown\"}\n", &Stub).is_none());
        assert!(session.shutdown_requested());
        // Nothing after the shutdown is read: no job, no answer.
        assert!(session.line(job_line("late").as_bytes(), &Stub).is_none());
        assert!(session.line(b"{\"op\":\"ping\"}\n", &Stub).is_none());
        assert!(due(&mut session).is_empty(), "the ack waits for both jobs");
        session.done(second, finished("b"));
        assert!(due(&mut session).is_empty(), "the ack waits for a");
        session.done(first, finished("a"));
        assert_eq!(due(&mut session), [finished("a"), finished("b"), Response::ShuttingDown]);
        assert!(due(&mut session).is_empty(), "the ack is handed out once");
    }
}
