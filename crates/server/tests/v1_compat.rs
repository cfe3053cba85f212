//! Protocol v1 compatibility: a JSON-lines client talking to the reactor
//! (`serve_tcp`) must receive byte-identical response lines, in the same
//! order, as the same script run through the stdio transport
//! (`serve_lines`) — modulo the explicitly-volatile observability fields
//! (`wall_ms`, `cache`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use asynd_net::frame::MAX_FRAME_PAYLOAD;
use asynd_server::protocol::Response;
use asynd_server::{serve_lines, serve_tcp, ScheduleServer, ServerConfig};
use serde_json::{Map, Value};

/// A session exercising every v1 shape: probes, a pipelined pair of jobs,
/// a parse error, a blank line and a non-UTF-8 line mid-stream, a lookup
/// miss, and a final shutdown.
fn script() -> Vec<u8> {
    let job = |id: &str, seed: u64| {
        format!(
            "{{\"id\":\"{id}\",\"code\":{{\"family\":\"rotated-surface\",\"index\":0}},\
             \"noise\":{{\"kind\":\"scaled\",\"p\":0.004}},\"strategy\":\"beam\",\"budget\":12,\
             \"shots\":100,\"seed\":{seed}}}"
        )
    };
    let mut script = [
        b"{\"op\":\"ping\"}".to_vec(),
        job("compat-1", 11).into_bytes(),
        b"this is not json".to_vec(),
        Vec::new(),
        b"\xff not utf-8 \xfe".to_vec(),
        job("compat-2", 12).into_bytes(),
        b"{\"op\":\"lookup\",\"id\":\"probe\",\"code\":{\"family\":\"rotated-surface\",\
          \"index\":0},\"noise\":{\"kind\":\"scaled\",\"p\":0.004},\"shots\":100}"
            .to_vec(),
        b"{\"op\":\"shutdown\"}".to_vec(),
    ]
    .join(&b'\n');
    script.push(b'\n');
    script
}

/// Re-serializes a response line with the volatile fields removed. The
/// vendored `serde_json` preserves insertion order, so everything else —
/// key order included — must match byte for byte.
fn normalize(line: &str) -> String {
    fn strip(value: &Value) -> Value {
        match value {
            Value::Object(map) => {
                let mut out = Map::new();
                for (key, entry) in map.iter() {
                    if key == "wall_ms" || key == "cache" {
                        continue;
                    }
                    out.insert(key.as_str(), strip(entry));
                }
                Value::Object(out)
            }
            other => other.clone(),
        }
    }
    let parsed = serde_json::from_str(line).expect("response line must be valid JSON");
    serde_json::to_string(&strip(&parsed)).unwrap()
}

fn run_through_serve_lines() -> Vec<String> {
    let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut output: Vec<u8> = Vec::new();
    serve_lines(&script()[..], &mut output, &server).expect("serve_lines failed");
    server.shutdown();
    String::from_utf8(output).unwrap().lines().map(normalize).collect()
}

fn run_through_reactor() -> Vec<String> {
    let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let address = listener.local_addr().unwrap();
    let lines = std::thread::scope(|scope| {
        let server_ref = &server;
        let acceptor = scope.spawn(move || serve_tcp(server_ref, listener));
        let stream = TcpStream::connect(address).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(&script()).unwrap();
        writer.flush().unwrap();
        let lines: Vec<String> =
            BufReader::new(&stream).lines().map(|line| normalize(&line.unwrap())).collect();
        acceptor.join().unwrap().expect("reactor loop failed");
        lines
    });
    server.shutdown();
    lines
}

#[test]
fn v1_clients_get_byte_identical_responses_from_the_reactor() {
    let reference = run_through_serve_lines();
    let reactor = run_through_reactor();
    // 2 probes + 2 jobs + 2 refused lines + 1 shutdown ack; the blank
    // line gets no answer.
    assert_eq!(reference.len(), 7, "reference session shape changed: {reference:?}");
    assert_eq!(reactor, reference, "reactor v1 responses diverge from serve_lines");
}

/// A line longer than the frame cap is refused in-band on both
/// transports, and the stream goes on: the ping behind it is answered.
/// The read timeout turns a server that buffers the line whole (and so
/// never answers the ping) into a failure instead of a hang.
#[test]
fn over_long_lines_are_refused_and_the_stream_goes_on() {
    let mut input = vec![b'x'; MAX_FRAME_PAYLOAD + 1];
    input.extend_from_slice(b"{\"op\":\"ping\"}\n");
    let check = |transport: &str, lines: &[String]| {
        let answers: Vec<Response> = lines.iter().map(|l| Response::parse(l).unwrap()).collect();
        match answers.as_slice() {
            [Response::Error { error, .. }, Response::Pong] => {
                assert!(error.contains("exceeds"), "{transport}: {error}");
            }
            other => panic!("{transport}: expected the refusal then pong: {other:?}"),
        }
    };
    let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut output: Vec<u8> = Vec::new();
    serve_lines(&input[..], &mut output, &server).expect("serve_lines failed");
    let stdio: Vec<String> = String::from_utf8(output).unwrap().lines().map(String::from).collect();
    check("stdio", &stdio);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let address = listener.local_addr().unwrap();
    let tcp = std::thread::scope(|scope| {
        let server_ref = &server;
        let acceptor = scope.spawn(move || serve_tcp(server_ref, listener));
        let stream = TcpStream::connect(address).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(&input).unwrap();
        let mut reader = BufReader::new(&stream);
        let answers: std::io::Result<Vec<String>> = (0..2)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).map(|_| line.trim_end().to_string())
            })
            .collect();
        // Stop the server whatever came back, so a failure cannot hang
        // the scope on a reactor that never exits.
        drop(reader);
        drop((writer, stream));
        let mut stopper = TcpStream::connect(address).unwrap();
        stopper.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        stopper.read_to_end(&mut Vec::new()).unwrap();
        acceptor.join().unwrap().expect("reactor loop failed");
        answers.expect("no answer within the read timeout")
    });
    check("tcp", &tcp);
    server.shutdown();
}
