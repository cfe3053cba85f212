//! The `Client` that `asynd metrics --watch` holds across polls must
//! reuse one TCP connection for every scrape — the reactor's
//! per-reactor accept counter is the witness — and must surface a
//! clean, reconnectable error when the server goes away.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use asynd_server::{serve_tcp, Client, ScheduleServer, ServerConfig};
use asynd_telemetry::MetricsRegistry;

#[test]
fn watch_scrapes_share_one_connection() {
    let telemetry = Arc::new(MetricsRegistry::new());
    let server = ScheduleServer::start_with(
        ServerConfig { workers: 1, ..ServerConfig::default() },
        None,
        Arc::clone(&telemetry),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let address = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server_ref = &server;
        let acceptor = scope.spawn(move || serve_tcp(server_ref, listener));

        let mut client = Client::new(address.to_string());
        assert!(!client.connected(), "nothing connects before the first scrape");
        for scrape in 0..3 {
            if let Err(e) = client.metrics("asynd-metrics") {
                panic!("scrape {scrape} failed: {e}");
            }
            assert!(client.connected());
        }
        // Three scrapes, one accept: the reactor counted exactly one
        // connection from the client (plus none from anyone else).
        let accepted = telemetry
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("asynd_reactor_accepted_total"))
            .map(|(_, value)| *value)
            .sum::<u64>();
        assert_eq!(accepted, 1, "watch mode must not reconnect per poll");

        drop(client); // half of the shutdown handshake below
        let mut stream = TcpStream::connect(address).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        stream.read_to_string(&mut ack).unwrap();
        acceptor.join().unwrap().expect("reactor loop failed");
    });
    server.shutdown();
}

#[test]
fn a_lost_server_yields_a_reconnect_hint_not_a_wedged_client() {
    // Bind, learn the address, and immediately close the listener: the
    // first scrape must fail with a message that names the address.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let address = listener.local_addr().unwrap().to_string();
    drop(listener);
    let mut client = Client::new(address.clone());
    let error =
        client.metrics("asynd-metrics").expect_err("scrape against a dead server must fail");
    let error = error.to_string();
    assert!(error.contains(&address), "error does not name the address: {error}");
    assert!(!client.connected(), "a failed scrape must drop the connection");
}
