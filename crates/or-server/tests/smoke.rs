//! End-to-end smoke test: a real `Server` on an ephemeral port, concurrent
//! HTTP clients driving `/query`, `/stats`, and `/healthz`, then a graceful
//! `POST /shutdown` that must let `serve()` return cleanly.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use or_server::{Json, Server, ServerConfig};

/// A deliberately tiny HTTP/1.1 client: send one request, read the whole
/// response (the server closes the connection), return (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn query_body(db: &str, statement: &str) -> String {
    Json::obj([("db", Json::str(db)), ("statement", Json::str(statement))]).to_string()
}

#[test]
fn concurrent_clients_then_graceful_shutdown() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    server
        .load_db(
            "example",
            "let people = { (1, 10), (2, 20), (3, 30), (4, 40) }\n\
             let ages = { snd(p) | p <- people }",
        )
        .expect("load example db");
    let addr = server.local_addr().expect("local addr");
    let serving = serve_in_background(server);

    // several client threads hammer all three read endpoints concurrently,
    // sharing the one frozen snapshot
    let failures = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                for round in 0..5 {
                    let (status, body) = match (i + round) % 3 {
                        0 => http(
                            addr,
                            "POST",
                            "/query",
                            &query_body("example", "{ fst(p) | p <- people, snd(p) <= 30 }"),
                        ),
                        1 => http(addr, "GET", "/stats", ""),
                        _ => http(addr, "GET", "/healthz", ""),
                    };
                    if status != 200 {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("client {i} round {round}: {status} {body}"));
                    } else if (i + round) % 3 == 0 && !body.contains("{1, 2, 3}") {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("client {i} round {round}: bad value: {body}"));
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(
        failures.lock().unwrap().is_empty(),
        "{:?}",
        failures.lock().unwrap()
    );

    // a write, visible to subsequent readers
    let (status, body) = http(
        addr,
        "POST",
        "/query",
        &query_body("example", "let adults = { p | p <- people, snd(p) >= 20 }"),
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(
        addr,
        "POST",
        "/query",
        &query_body("example", "{ fst(p) | p <- adults }"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("{2, 3, 4}"), "{body}");

    // budget admission control over the wire
    let over_budget = r#"{"db": "example", "statement": "{ p | p <- people }",
                          "budget": {"time_ms": 0}}"#;
    let (status, body) = http(addr, "POST", "/query", over_budget);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("time budget"), "{body}");

    // stats reflect the traffic
    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).expect("stats json");
    let example = parsed
        .get("dbs")
        .and_then(|d| d.get("example"))
        .expect("example stats");
    assert!(example.get("queries").and_then(Json::as_u64).unwrap() >= 12);
    assert_eq!(example.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(example.get("relations").and_then(Json::as_u64), Some(3));

    // unknown endpoints and unknown databases are client errors
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/query", &query_body("nope", "1"));
    assert_eq!(status, 404);

    // graceful shutdown: the endpoint acknowledges, serve() returns Ok
    let (status, body) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("shutting down"), "{body}");
    expect_stopped(serving, "POST /shutdown after the clients");
    // and the listener is really gone (give the OS a beat to close it)
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}

/// Run `serve()` on its own thread and hand back a receiver for its
/// outcome, so a test waits with a deadline instead of hanging when a
/// shutdown wake is lost.
fn serve_in_background(server: Server) -> mpsc::Receiver<io::Result<()>> {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.serve());
    });
    // let the loop reach its blocking `accept`, so the wake is what ends it
    std::thread::sleep(Duration::from_millis(50));
    outcome
}

fn expect_stopped(outcome: mpsc::Receiver<io::Result<()>>, what: &str) {
    match outcome.recv_timeout(Duration::from_secs(10)) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{what}: serve() failed: {e}")),
        Err(_) => panic!("{what}: serve() did not return within 10 s"),
    }
}

/// An idle server blocks in `accept`; both shutdown paths must wake it and
/// let `serve()` return.  The wildcard bind exercises the loopback mapping
/// of the wake connection.
#[test]
fn idle_servers_stop_promptly_on_shutdown() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(bind, ServerConfig::default()).expect("bind");
        let handle = server.handle();
        let outcome = serve_in_background(server);
        handle.shutdown();
        expect_stopped(outcome, &format!("{bind}, ServerHandle::shutdown"));

        let server = Server::bind(bind, ServerConfig::default()).expect("bind");
        let port = server.local_addr().expect("local addr").port();
        let outcome = serve_in_background(server);
        let (status, body) = http(
            SocketAddr::from((Ipv4Addr::LOCALHOST, port)),
            "POST",
            "/shutdown",
            "",
        );
        assert_eq!(status, 200, "{body}");
        expect_stopped(outcome, &format!("{bind}, POST /shutdown"));
    }
}
