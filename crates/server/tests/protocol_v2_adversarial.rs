//! Adversarial protocol-v2 sessions against a live reactor: truncated
//! frames, oversized declared lengths, wrong-direction frame kinds,
//! interleaved cancellation and mid-stream disconnects. The invariant
//! throughout: one misbehaving connection gets a structured `Goodbye`
//! (or a silent close) and the server keeps serving everyone else.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use asynd_net::frame::{Frame, FrameDecoder, FrameKind, FRAME_MAGIC};
use asynd_server::protocol::{CancelRequest, ProgressUpdate, Response};
use asynd_server::{serve_tcp, ScheduleServer, ServerConfig};

/// Runs `session` against a freshly served single-reactor instance, then
/// shuts the server down over a clean v1 connection.
fn with_server(workers: usize, session: impl FnOnce(std::net::SocketAddr)) {
    let server = ScheduleServer::start(ServerConfig { workers, ..ServerConfig::default() });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let address = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server_ref = &server;
        let acceptor = scope.spawn(move || serve_tcp(server_ref, listener));
        session(address);
        let mut stream = TcpStream::connect(address).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        stream.read_to_string(&mut ack).unwrap();
        assert!(ack.contains("\"op\":\"shutdown\""), "no shutdown ack: {ack:?}");
        acceptor.join().unwrap().expect("reactor loop failed");
    });
    server.shutdown();
}

fn request_frame(json: &str) -> Vec<u8> {
    Frame::new(FrameKind::Request, json.as_bytes().to_vec()).encode().unwrap()
}

fn synthesize_json(id: &str, budget: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"code\":{{\"family\":\"rotated-surface\",\"index\":0}},\
         \"noise\":{{\"kind\":\"scaled\",\"p\":0.004}},\"strategy\":\"beam\",\"budget\":{budget},\
         \"shots\":100,\"seed\":5}}"
    )
}

/// Reads frames until EOF and returns them; panics on a decode error
/// (the server must never send malformed bytes).
fn read_frames_to_eof(stream: &mut TcpStream) -> Vec<Frame> {
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("read from server");
        if n == 0 {
            break;
        }
        decoder.feed(&buf[..n]);
        while let Some(frame) = decoder.next_frame().expect("server sent a malformed frame") {
            frames.push(frame);
        }
    }
    assert_eq!(decoder.buffered(), 0, "server sent a trailing partial frame");
    frames
}

/// The server still answers a fresh, well-behaved connection.
fn assert_still_serving(address: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(address).unwrap();
    stream.write_all(&request_frame("{\"op\":\"ping\"}")).unwrap();
    stream.write_all(&Frame::new(FrameKind::Goodbye, b"{}".to_vec()).encode().unwrap()).unwrap();
    let frames = read_frames_to_eof(&mut stream);
    assert_eq!(frames.len(), 1, "expected exactly the pong: {frames:?}");
    assert!(matches!(
        Response::parse(std::str::from_utf8(&frames[0].payload).unwrap()),
        Ok(Response::Pong)
    ));
}

fn goodbye_detail(frame: &Frame) -> String {
    assert_eq!(frame.kind, FrameKind::Goodbye, "expected a Goodbye: {frame:?}");
    let payload = serde_json::from_str(std::str::from_utf8(&frame.payload).unwrap()).unwrap();
    payload.get("error").and_then(|v| v.as_str()).unwrap_or_default().to_string()
}

#[test]
fn oversized_declared_length_gets_a_goodbye_and_a_close() {
    with_server(1, |address| {
        let mut stream = TcpStream::connect(address).unwrap();
        // A header declaring a 16 MiB payload (cap: 4 MiB). No payload
        // bytes need follow — the header alone is fatal.
        let mut header = vec![FRAME_MAGIC, 0x01];
        header.extend_from_slice(&(16u32 * 1024 * 1024).to_le_bytes());
        stream.write_all(&header).unwrap();
        let frames = read_frames_to_eof(&mut stream);
        assert_eq!(frames.len(), 1, "expected exactly one Goodbye: {frames:?}");
        let detail = goodbye_detail(&frames[0]);
        assert!(detail.contains("exceeds"), "unhelpful goodbye detail: {detail:?}");
        assert_still_serving(address);
    });
}

#[test]
fn bad_magic_mid_stream_gets_a_goodbye_and_a_close() {
    with_server(1, |address| {
        let mut stream = TcpStream::connect(address).unwrap();
        let mut bytes = request_frame("{\"op\":\"ping\"}");
        bytes.extend_from_slice(b"\x00garbage after a valid frame");
        stream.write_all(&bytes).unwrap();
        let frames = read_frames_to_eof(&mut stream);
        assert_eq!(frames.len(), 2, "expected pong then Goodbye: {frames:?}");
        assert_eq!(frames[0].kind, FrameKind::Response);
        let detail = goodbye_detail(&frames[1]);
        assert!(detail.contains("magic"), "unhelpful goodbye detail: {detail:?}");
        assert_still_serving(address);
    });
}

#[test]
fn client_sent_server_frame_kinds_are_rejected() {
    with_server(1, |address| {
        let mut stream = TcpStream::connect(address).unwrap();
        stream
            .write_all(&Frame::new(FrameKind::Progress, b"{}".to_vec()).encode().unwrap())
            .unwrap();
        let frames = read_frames_to_eof(&mut stream);
        assert_eq!(frames.len(), 1, "expected exactly one Goodbye: {frames:?}");
        let detail = goodbye_detail(&frames[0]);
        assert!(detail.contains("client-sent"), "unhelpful goodbye detail: {detail:?}");
        assert_still_serving(address);
    });
}

#[test]
fn truncated_frame_then_disconnect_is_harmless() {
    with_server(1, |address| {
        {
            let mut stream = TcpStream::connect(address).unwrap();
            let mut bytes = request_frame("{\"op\":\"ping\"}");
            // Half of a second request frame, then a hard disconnect.
            let partial = request_frame(&synthesize_json("never-arrives", 8));
            bytes.extend_from_slice(&partial[..partial.len() / 2]);
            stream.write_all(&bytes).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let frames = read_frames_to_eof(&mut stream);
            assert_eq!(frames.len(), 1, "expected exactly the pong: {frames:?}");
            assert_eq!(frames[0].kind, FrameKind::Response);
        }
        assert_still_serving(address);
    });
}

#[test]
fn mid_stream_disconnect_leaves_other_connections_serving() {
    with_server(1, |address| {
        // Connection A submits a job and vanishes without reading.
        let stream = TcpStream::connect(address).unwrap();
        (&stream).write_all(&request_frame(&synthesize_json("abandoned", 8))).unwrap();
        drop(stream);

        // Connection B's session is unaffected.
        let mut stream = TcpStream::connect(address).unwrap();
        stream.write_all(&request_frame(&synthesize_json("survivor", 8))).unwrap();
        stream
            .write_all(&Frame::new(FrameKind::Goodbye, b"{}".to_vec()).encode().unwrap())
            .unwrap();
        let frames = read_frames_to_eof(&mut stream);
        let response = frames
            .iter()
            .filter(|f| f.kind == FrameKind::Response)
            .map(|f| Response::parse(std::str::from_utf8(&f.payload).unwrap()).unwrap())
            .next()
            .expect("survivor got no response");
        match response {
            Response::Ok(outcome) => assert_eq!(outcome.id, "survivor"),
            other => panic!("survivor's job failed: {other:?}"),
        }
    });
}

#[test]
fn cancellation_interleaves_with_pipelined_jobs() {
    // One worker: job c-1 occupies it while c-2 and c-3 sit in the queue,
    // so the cancels race nothing.
    with_server(1, |address| {
        let mut stream = TcpStream::connect(address).unwrap();
        let mut bytes = Vec::new();
        for id in ["c-1", "c-2", "c-3"] {
            bytes.extend_from_slice(&request_frame(&synthesize_json(id, 16)));
        }
        // Same burst: cancel the still-queued c-3 and an unknown id.
        let cancel = |id: &str| {
            let payload =
                serde_json::to_string(&CancelRequest { id: id.into() }.to_json()).unwrap();
            Frame::new(FrameKind::Cancel, payload.into_bytes()).encode().unwrap()
        };
        bytes.extend_from_slice(&cancel("c-3"));
        bytes.extend_from_slice(&cancel("nobody"));
        stream.write_all(&bytes).unwrap();

        // Collect frames until all three jobs have answered.
        let mut decoder = FrameDecoder::new();
        let mut stages: Vec<(String, String)> = Vec::new();
        let mut responses: Vec<Response> = Vec::new();
        let mut buf = [0u8; 4096];
        while responses.len() < 3 {
            let n = stream.read(&mut buf).expect("read from server");
            assert!(n > 0, "server closed early; so far: {stages:?} {responses:?}");
            decoder.feed(&buf[..n]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                match frame.kind {
                    FrameKind::Progress => {
                        let update = ProgressUpdate::parse(&frame.payload).unwrap();
                        stages.push((update.id, update.stage));
                    }
                    FrameKind::Response => {
                        let text = std::str::from_utf8(&frame.payload).unwrap();
                        responses.push(Response::parse(text).unwrap());
                    }
                    other => panic!("unexpected frame kind {other:?}"),
                }
            }
        }

        let stage_of = |id: &str, stage: &str| stages.iter().any(|(i, s)| i == id && s == stage);
        assert!(stage_of("c-3", "cancelled"), "no cancelled ack for c-3: {stages:?}");
        assert!(stage_of("nobody", "cancel-unknown"), "no cancel-unknown ack: {stages:?}");
        for id in ["c-1", "c-2"] {
            let ok =
                responses.iter().any(|r| matches!(r, Response::Ok(outcome) if outcome.id == id));
            assert!(ok, "{id} did not complete normally: {responses:?}");
        }
        let c3_error = responses.iter().any(|r| {
            matches!(r, Response::Error { id, error } if id == "c-3" && error.contains("cancel"))
        });
        assert!(c3_error, "c-3 was not answered with a cancellation error: {responses:?}");

        // Completed jobs are forgotten: cancelling c-1 now is "unknown".
        stream.write_all(&cancel("c-1")).unwrap();
        let ack = wait_for_ack(&mut stream, &mut decoder, "c-1", &mut Vec::new());
        assert_eq!(ack, "cancel-unknown", "finished job should be forgotten");

        // A job observed *running* (its `started` progress event arrived)
        // is past the point of no return: the ack is cancel-too-late —
        // or cancel-unknown if it finished in the round-trip window —
        // and the job still completes normally.
        stream.write_all(&request_frame(&synthesize_json("c-4", 32))).unwrap();
        // Every frame read along the way is kept: c-4 may finish inside
        // the same read that carries its `started` event.
        let mut late_frames: Vec<Frame> = Vec::new();
        let mut started = false;
        while !started {
            let n = stream.read(&mut buf).expect("read from server");
            assert!(n > 0, "server closed before c-4 started");
            decoder.feed(&buf[..n]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                if frame.kind == FrameKind::Progress {
                    let update = ProgressUpdate::parse(&frame.payload).unwrap();
                    if update.id == "c-4" && update.stage == "started" {
                        started = true;
                    }
                }
                late_frames.push(frame);
            }
        }
        stream.write_all(&cancel("c-4")).unwrap();
        let ack = wait_for_ack(&mut stream, &mut decoder, "c-4", &mut late_frames);
        assert!(ack == "cancel-too-late" || ack == "cancel-unknown", "running job acked {ack:?}");
        let mut c4_ok = late_frames
            .iter()
            .filter(|f| f.kind == FrameKind::Response)
            .map(|f| Response::parse(std::str::from_utf8(&f.payload).unwrap()).unwrap())
            .any(|r| matches!(r, Response::Ok(outcome) if outcome.id == "c-4"));
        while !c4_ok {
            let n = stream.read(&mut buf).expect("read from server");
            assert!(n > 0, "server closed before c-4's response");
            decoder.feed(&buf[..n]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                if frame.kind == FrameKind::Response {
                    let text = std::str::from_utf8(&frame.payload).unwrap();
                    if matches!(Response::parse(text).unwrap(),
                        Response::Ok(outcome) if outcome.id == "c-4")
                    {
                        c4_ok = true;
                    }
                }
            }
        }
        stream
            .write_all(&Frame::new(FrameKind::Goodbye, b"{}".to_vec()).encode().unwrap())
            .unwrap();
        let rest = read_frames_to_eof(&mut stream);
        assert!(rest.is_empty(), "frames after the goodbye: {rest:?}");
    });
}

/// Reads frames until a cancellation ack (any `cancel*`/`cancelled`
/// stage) for `id` arrives; every other frame is pushed to `spill`.
fn wait_for_ack(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    id: &str,
    spill: &mut Vec<Frame>,
) -> String {
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("read from server");
        assert!(n > 0, "server closed while waiting for {id}'s cancellation ack");
        decoder.feed(&buf[..n]);
        while let Some(frame) = decoder.next_frame().unwrap() {
            if frame.kind == FrameKind::Progress {
                let update = ProgressUpdate::parse(&frame.payload).unwrap();
                if update.id == id && update.stage.starts_with("cancel") {
                    return update.stage;
                }
            }
            spill.push(frame);
        }
    }
}
