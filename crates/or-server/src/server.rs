//! The or-database service: named databases resident as frozen
//! [`SessionCore`] snapshots, served over HTTP by a small thread pool.
//!
//! ## Concurrency model
//!
//! Each database is one `RwLock<Arc<SessionCore>>` plus a writer mutex:
//!
//! * **Reads** (expression statements) clone the `Arc` out of the lock —
//!   held for nanoseconds — and then evaluate entirely lock-free:
//!   [`SessionCore::evaluate`] takes `&self`, and every engine-served
//!   query chains a private overlay arena on the core's frozen snapshot
//!   base.  Any number of queries run concurrently against one snapshot.
//! * **Writes** (`let` statements) serialize on the writer mutex, evaluate
//!   against the latest core, commit into a *clone* of it, and swap the
//!   `Arc` — copy-on-write at session granularity.  The clone copies
//!   `Arc`s, not bindings, and the snapshot layer shares the interned
//!   relation rows underneath.  In-flight readers keep the core they
//!   started with; new readers see the new one.
//!
//! Each statement is parsed once, and the answer's text goes from the
//! engine's arenas, JSON-escaped, straight into the response body: a read
//! builds no `Value`, and a write decodes its answer once, for the
//! binding it commits.
//!
//! Statement evaluation is atomic (eval-then-commit, see
//! `or_lang::session`), so a failed statement — budget rejection, engine
//! error, worker panic — publishes nothing and corrupts nothing; the
//! client can simply retry.
//!
//! ## The accept loop
//!
//! [`Server::serve`] blocks in `accept` and hands each connection to the
//! pool the moment it arrives.  An `accept` error that concerns one
//! connection only (interrupted, aborted or reset by the peer) is skipped;
//! any other error stops the loop, drains the pool and is returned.
//!
//! ## Graceful shutdown
//!
//! `POST /shutdown` (or [`ServerHandle::shutdown`]) sets the shutdown flag
//! and then wakes the blocked `accept` by connecting once to the
//! listener's own address (a wildcard bind address, `0.0.0.0` or `[::]`,
//! is reached through the matching loopback address).  The loop drops the
//! connection it accepted once the flag is set; already-accepted
//! connections drain through the pool, the workers are joined, and
//! [`Server::serve`] returns.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use or_engine::ExecConfig;
use or_lang::parser::{parse_statement, Statement};
use or_lang::session::{
    Answer, EngineStats, Evaluated, ExecMode, QueryBudget, Route, ScriptError, Session,
    SessionCore, SessionError,
};

use crate::http::{read_request, write_response, Request};
use crate::json::{Json, ObjectWriter};

/// Recover a lock guard even when a previous holder panicked.  Every
/// shared structure behind these locks is updated atomically (the per-db
/// core is swapped whole under the writer protocol; stats records are
/// plain counters), so a poisoned guard still holds consistent data — a
/// panicking handler thread must not wedge every later request.
fn relock<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// HTTP worker threads (each serves one connection at a time; engine
    /// queries may fan out further via `exec.workers`).
    pub http_workers: usize,
    /// How statements are executed ([`ExecMode::Engine`] by default).
    pub mode: ExecMode,
    /// Engine configuration for every query, including the server-wide
    /// default budgets ([`ExecConfig::or_budget`],
    /// [`ExecConfig::time_budget`]); per-request budgets tighten these,
    /// never loosen them.
    pub exec: ExecConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            http_workers: 4,
            mode: ExecMode::Engine,
            exec: ExecConfig::default(),
        }
    }
}

/// One resident database.
struct Db {
    /// The serving snapshot.  Readers clone the `Arc` and evaluate
    /// lock-free; writers swap in a new core.
    core: RwLock<Arc<SessionCore>>,
    /// Serializes writers (`let` statements) so commits never race.
    write: Mutex<()>,
    /// Engine/fallback routing counters, recorded only for statements that
    /// fully succeeded.
    stats: Mutex<EngineStats>,
    queries: AtomicU64,
    errors: AtomicU64,
}

struct State {
    dbs: RwLock<BTreeMap<String, Arc<Db>>>,
    config: ServerConfig,
    shutdown: Arc<Shutdown>,
    started: Instant,
}

/// The stop signal shared by the accept loop, every [`ServerHandle`] and
/// `POST /shutdown`.
#[derive(Debug)]
struct Shutdown {
    requested: AtomicBool,
    /// Where one connection reaches the listener: its own address, with a
    /// wildcard IP replaced by loopback.
    wake: SocketAddr,
}

impl Shutdown {
    /// Set the flag, then wake the accept loop blocked in `accept`.  A
    /// refused connect means the listener is already closed, so the loop
    /// has stopped anyway.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake);
    }

    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// The address a client on this host connects to in order to reach a
/// listener bound to `bound`: wildcard IPs accept on every interface, so
/// they are reached through the matching loopback address.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Whether an `accept` error concerns only the one connection being
/// accepted — a signal interrupted the call, or the peer gave up before
/// the handshake finished — so the loop should keep serving.
fn is_transient_accept_error(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    )
}

/// A handle that can stop a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<Shutdown>,
}

impl ServerHandle {
    /// Request a graceful shutdown: the accept loop stops, in-flight
    /// connections drain, [`Server::serve`] returns.
    pub fn shutdown(&self) {
        self.shutdown.request();
    }
}

/// The or-database HTTP service.  See the module docs for the concurrency
/// model and `docs/SERVER.md` for the endpoint reference.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:7171"`, or port `0` for an
    /// ephemeral port — see [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shutdown = Shutdown {
            requested: AtomicBool::new(false),
            wake: wake_addr(listener.local_addr()?),
        };
        Ok(Server {
            listener,
            state: Arc::new(State {
                dbs: RwLock::new(BTreeMap::new()),
                config,
                shutdown: Arc::new(shutdown),
                started: Instant::now(),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.state.shutdown),
        }
    }

    /// Load (or replace) a named database from an OrQL script (one
    /// statement per line, `--` comments).  The script runs in a private
    /// session under the server's mode/config; its final bindings become
    /// the database's first serving snapshot.
    pub fn load_db(&self, name: &str, script: &str) -> Result<(), ScriptError> {
        let mut session = Session::from_core(
            SessionCore::new(),
            self.state.config.mode,
            self.state.config.exec,
        );
        session.run_script(script)?;
        let db = Arc::new(Db {
            core: RwLock::new(Arc::new(session.into_core())),
            write: Mutex::new(()),
            stats: Mutex::new(EngineStats::default()),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        relock(self.state.dbs.write()).insert(name.to_string(), db);
        Ok(())
    }

    /// Names of the resident databases.
    pub fn db_names(&self) -> Vec<String> {
        relock(self.state.dbs.read()).keys().cloned().collect()
    }

    /// Serve until shutdown is requested, then drain and return.  Blocks
    /// the calling thread; use [`Server::handle`] (or `POST /shutdown`)
    /// from elsewhere to stop it.
    pub fn serve(self) -> io::Result<()> {
        let Server { listener, state } = self;
        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..state.config.http_workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || loop {
                    let next = relock(rx.lock()).recv();
                    match next {
                        Ok((stream, accepted)) => handle_connection(&state, stream, accepted),
                        // the accept loop dropped the sender: shutdown
                        Err(_) => break,
                    }
                })
            })
            .collect();

        let outcome = loop {
            let accepted = listener.accept();
            // a shutdown request wakes this loop with a connection of its
            // own; whatever was accepted after the flag is dropped
            if state.shutdown.is_requested() {
                break Ok(());
            }
            match accepted {
                Ok((stream, _)) => {
                    // workers only exit when the channel closes, so the
                    // send cannot fail while this loop runs
                    let _ = tx.send((stream, Instant::now()));
                }
                Err(e) if is_transient_accept_error(e.kind()) => {}
                Err(e) => break Err(e),
            }
        };
        // graceful drain: close the queue, let every worker finish its
        // in-flight connection, then join
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        outcome
    }
}

/// How long a client has, from accept, to send its whole request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A reader over a socket that gives the whole request one deadline:
/// before each read it sets the socket's read timeout to the time left, so
/// a client trickling bytes cannot hold a pool worker past `deadline`.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // checked first: `set_read_timeout` rejects a zero duration
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Serve one connection: parse, route, respond, close.
fn handle_connection(state: &State, mut stream: TcpStream, accepted: Instant) {
    // a wedged client must not hold a pool worker hostage
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let reader = DeadlineReader {
        stream: &stream,
        deadline: accepted + REQUEST_DEADLINE,
    };
    let request = match read_request(reader) {
        Ok(request) => request,
        Err(_) => {
            let body = error_body("malformed request");
            let _ = write_response(&mut stream, 400, &body);
            return;
        }
    };
    let (status, body) = route(state, &request);
    let _ = write_response(&mut stream, status, &body);
}

fn error_body(message: &str) -> String {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))]).to_string()
}

fn route(state: &State, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stats") => stats(state),
        ("POST", "/query") => query(state, &request.body),
        ("POST", "/shutdown") => {
            state.shutdown.request();
            (
                200,
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("status", Json::str("shutting down")),
                ])
                .to_string(),
            )
        }
        ("GET" | "POST", _) => (404, error_body("no such endpoint")),
        _ => (405, error_body("method not allowed")),
    }
}

fn healthz(state: &State) -> (u16, String) {
    let dbs = relock(state.dbs.read()).len();
    let body = Json::obj([
        ("ok", Json::Bool(true)),
        ("status", Json::str("serving")),
        ("dbs", Json::int(dbs as u64)),
        (
            "uptime_ms",
            Json::int(state.started.elapsed().as_millis() as u64),
        ),
    ]);
    (200, body.to_string())
}

fn stats(state: &State) -> (u16, String) {
    let dbs = relock(state.dbs.read());
    let mut entries: Vec<(String, Json)> = Vec::with_capacity(dbs.len());
    for (name, db) in dbs.iter() {
        let engine_stats = relock(db.stats.lock()).clone();
        let core = relock(db.core.read()).clone();
        entries.push((
            name.clone(),
            Json::Obj(vec![
                (
                    "queries".into(),
                    Json::int(db.queries.load(Ordering::Relaxed)),
                ),
                (
                    "errors".into(),
                    Json::int(db.errors.load(Ordering::Relaxed)),
                ),
                ("engine".into(), Json::int(engine_stats.engine)),
                ("fallback".into(), Json::int(engine_stats.fallback)),
                (
                    "plan_cache_hits".into(),
                    Json::int(engine_stats.plan_cache_hits),
                ),
                (
                    "plan_cache_misses".into(),
                    Json::int(engine_stats.plan_cache_misses),
                ),
                (
                    "columnar_batches".into(),
                    Json::int(engine_stats.columnar_batches),
                ),
                (
                    "scalar_fallback_batches".into(),
                    Json::int(engine_stats.scalar_fallback_batches),
                ),
                (
                    "fallback_reasons".into(),
                    Json::Arr(
                        engine_stats
                            .fallback_reasons
                            .iter()
                            .map(Json::str)
                            .collect(),
                    ),
                ),
                ("relations".into(), Json::int(core.snapshot().len() as u64)),
                ("arena_nodes".into(), Json::int(core.arena_nodes() as u64)),
            ]),
        ));
    }
    let body = Json::obj([("ok", Json::Bool(true)), ("dbs", Json::Obj(entries))]);
    (200, body.to_string())
}

/// `POST /query` body: `{"db": name, "statement": orql, "budget":
/// {"denotations": n, "time_ms": n}}` (budget optional, tightens the
/// server defaults).
fn query(state: &State, body: &str) -> (u16, String) {
    let parsed = match Json::parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return (400, error_body(&format!("invalid request body: {e}"))),
    };
    let Some(db_name) = parsed.get("db").and_then(Json::as_str) else {
        return (400, error_body("missing string field `db`"));
    };
    let Some(statement) = parsed.get("statement").and_then(Json::as_str) else {
        return (400, error_body("missing string field `statement`"));
    };
    let mut budget = QueryBudget::unlimited();
    if let Some(raw) = parsed.get("budget") {
        if let Some(denotations) = raw.get("denotations").and_then(Json::as_u64) {
            budget = budget.with_denotations(denotations);
        }
        if let Some(time_ms) = raw.get("time_ms").and_then(Json::as_u64) {
            budget = budget.with_time(Duration::from_millis(time_ms));
        }
    }
    let db = {
        let dbs = relock(state.dbs.read());
        match dbs.get(db_name) {
            Some(db) => Arc::clone(db),
            None => return (404, error_body(&format!("unknown database `{db_name}`"))),
        }
    };
    db.queries.fetch_add(1, Ordering::Relaxed);
    match run_statement(state, &db, db_name, statement, budget) {
        Ok(body) => (200, body),
        Err(e) => {
            db.errors.fetch_add(1, Ordering::Relaxed);
            (422, error_body(&e.to_string()))
        }
    }
}

/// Evaluate one statement against a database, with reads lock-free and
/// writes serialized + copy-on-write (see the module docs), and return the
/// response body.  The statement is parsed once, here, and the answer's
/// text goes from the engine's arenas straight into the body: a read
/// builds no `Value`, and a write decodes its answer once, for the
/// binding.
fn run_statement(
    state: &State,
    db: &Db,
    db_name: &str,
    source: &str,
    budget: QueryBudget,
) -> Result<String, SessionError> {
    let config = state.config;
    let statement = parse_statement(source)?;
    if matches!(statement, Statement::Bind(..)) {
        // Writer path: the mutex serializes `let` statements, so this
        // evaluation runs against the latest core with no competing commit
        // (readers are unaffected — they hold their own `Arc`).
        let guard = relock(db.write.lock());
        let core = relock(db.core.read()).clone();
        let evaluated = core.evaluate(source, statement, config.mode, config.exec, budget)?;
        // render from the interned rows before decoding them for the binding
        let body = answer_body(db_name, &evaluated);
        let evaluated = evaluated.into_value();
        let route = evaluated.route.clone();
        let mut next = (*core).clone();
        next.commit(evaluated);
        *relock(db.core.write()) = Arc::new(next);
        drop(guard);
        relock(db.stats.lock()).record(&route);
        Ok(body)
    } else {
        // Reader path: grab the current snapshot and evaluate lock-free.
        let core = relock(db.core.read()).clone();
        let evaluated = core.evaluate(source, statement, config.mode, config.exec, budget)?;
        relock(db.stats.lock()).record(&evaluated.route);
        Ok(answer_body(db_name, &evaluated))
    }
}

/// The `200` body for an evaluated statement: the members
/// `ok, db, value, type, route, bound`, with the value's text rendered
/// and JSON-escaped straight into the body.
fn answer_body(db_name: &str, evaluated: &Evaluated<Answer>) -> String {
    let route = match &evaluated.route {
        Route::Engine { .. } => "engine",
        Route::Interp => "interp",
        Route::Fallback { .. } => "fallback",
    };
    let bound = evaluated.bound.as_deref().map_or(Json::Null, Json::str);
    let mut body = String::new();
    // writing into a `String` does not fail
    let _ = ObjectWriter::new(&mut body).and_then(|mut object| {
        object.member("ok", &Json::Bool(true))?;
        object.member("db", &Json::str(db_name))?;
        object.str_member("value", |text| evaluated.value.write_text(text))?;
        object.member("type", &Json::str(evaluated.ty.to_string()))?;
        object.member("route", &Json::str(route))?;
        object.member("bound", &bound)?;
        object.end()
    });
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_query_and_stats_without_http() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server
            .load_db(
                "example",
                "let db = { (1, 10), (2, 20), (3, 30) }\n\
                 let options = { (1, (<|1, 2|>, <|10|>)), (2, (<|3|>, <|30, 40|>)) }",
            )
            .unwrap();
        assert_eq!(server.db_names(), vec!["example".to_string()]);
        let request = r#"{"db": "example", "statement": "{ fst(p) | p <- db, snd(p) <= 20 }"}"#;
        let (status, body) = query(&server.state, request);
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("value").unwrap().as_str(), Some("{1, 2}"));
        assert_eq!(parsed.get("route").unwrap().as_str(), Some("engine"));
        // the repeat hits the statement-shape plan cache
        let (status, body) = query(&server.state, request);
        assert_eq!(status, 200, "{body}");
        let (status, body) = stats(&server.state);
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).unwrap();
        let example = parsed.get("dbs").unwrap().get("example").unwrap();
        assert_eq!(example.get("queries").unwrap().as_u64(), Some(2));
        assert_eq!(example.get("engine").unwrap().as_u64(), Some(2));
        assert_eq!(example.get("plan_cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(example.get("plan_cache_hits").unwrap().as_u64(), Some(1));
        // the benchmark-shaped filter+project runs fully columnar
        assert!(example.get("columnar_batches").unwrap().as_u64() >= Some(1));
        assert_eq!(
            example.get("scalar_fallback_batches").unwrap().as_u64(),
            Some(0)
        );
        // and so does an `ormember` scan, through the fused membership step
        let columnar = example.get("columnar_batches").unwrap().as_u64();
        let request = r#"{"db": "example", "statement": "{ fst(r) | r <- options, ormember(1, fst(snd(r))) }"}"#;
        let (status, body) = query(&server.state, request);
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("value").unwrap().as_str(), Some("{1}"));
        assert_eq!(parsed.get("route").unwrap().as_str(), Some("engine"));
        let (_, body) = stats(&server.state);
        let parsed = Json::parse(&body).unwrap();
        let example = parsed.get("dbs").unwrap().get("example").unwrap();
        assert!(example.get("columnar_batches").unwrap().as_u64() > columnar);
        assert_eq!(
            example.get("scalar_fallback_batches").unwrap().as_u64(),
            Some(0)
        );
    }

    /// A `200` body is byte for byte what the server built before answers
    /// were rendered from the engine's arenas — `Json::obj` over
    /// `Json::str(value.to_string())` — for reads and `let`s, engine-served
    /// and interpreted, over strings that need escaping, or-sets and empty
    /// results.  The values come from an interpreter session.
    #[test]
    fn answer_bodies_hold_the_json_of_the_displayed_value() {
        let script = "let names = { (1, \"back\\slash\"), (2, \"café 😀\"), (3, \"\") }\n\
                      let alts = { (1, (<|1, 2|>, <|\"x\\y\", \"z\"|>)), (2, (<|3|>, <|\"w\"|>)) }";
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", script).unwrap();
        let mut oracle = Session::new();
        oracle.run_script(script).unwrap();
        let statements = [
            ("{ snd(n) | n <- names, fst(n) <= 2 }", "engine"),
            ("{ n | n <- names, fst(n) > 9 }", "engine"),
            ("{ w | r <- alts, w <- toset(normalize(r)) }", "engine"),
            ("{ (snd(r), fst(r)) | r <- alts }", "engine"),
            (
                "let picked = { snd(n) | n <- names, fst(n) >= 2 }",
                "engine",
            ),
            ("{ (x, x) | x <- picked }", "engine"),
            ("normalize(alts)", "fallback"),
            ("let tabbed = { (1, \"tab\there\") }", "fallback"),
            ("{ snd(t) | t <- tabbed }", "engine"),
        ];
        for (statement, route) in statements {
            let request = Json::obj([("db", Json::str("d")), ("statement", Json::str(statement))]);
            let (status, body) = query(&server.state, &request.to_string());
            assert_eq!(status, 200, "{body}");
            let want = oracle.run(statement).unwrap();
            let expected = Json::obj([
                ("ok", Json::Bool(true)),
                ("db", Json::str("d")),
                ("value", Json::str(want.value.to_string())),
                ("type", Json::str(want.ty.to_string())),
                ("route", Json::str(route)),
                ("bound", want.bound.map_or(Json::Null, Json::str)),
            ]);
            assert_eq!(body, expected.to_string(), "{statement}");
        }
    }

    #[test]
    fn bind_statements_swap_the_core_and_readers_keep_theirs() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", "let db = { 1, 2, 3 }").unwrap();
        let db = {
            let dbs = server.state.dbs.read().unwrap();
            Arc::clone(dbs.get("d").unwrap())
        };
        // a reader captures the pre-write snapshot
        let old_core = db.core.read().unwrap().clone();
        let (status, body) = query(
            &server.state,
            r#"{"db": "d", "statement": "let extra = { x + 10 | x <- db }"}"#,
        );
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("bound").unwrap().as_str(), Some("extra"));
        // new queries see the new binding …
        let (status, body) = query(
            &server.state,
            r#"{"db": "d", "statement": "{ x | x <- extra }"}"#,
        );
        assert_eq!(status, 200, "{body}");
        // … while the captured reader core does not (snapshot isolation)
        assert!(old_core.value("extra").is_none());
        assert!(old_core.value("db").is_some());
    }

    #[test]
    fn budget_rejections_are_errors_not_corruption() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", "let db = { 1, 2, 3 }").unwrap();
        let body = r#"{"db": "d", "statement": "let out = { x | x <- db }",
                       "budget": {"time_ms": 0}}"#;
        let (status, response) = query(&server.state, body);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("time budget"), "{response}");
        // the failed bind left nothing behind; the same statement retries
        let retry = r#"{"db": "d", "statement": "let out = { x | x <- db }"}"#;
        let (status, response) = query(&server.state, retry);
        assert_eq!(status, 200, "{response}");
        let (_, response) = query(
            &server.state,
            r#"{"db": "d", "statement": "{ x | x <- out }"}"#,
        );
        assert!(response.contains("{1, 2, 3}"), "{response}");
    }

    /// A denotation budget — per request or server-wide (`--or-budget`) —
    /// rejects an α-expansion whose rows denote more worlds, with 422.
    #[test]
    fn denotation_budgets_reject_oversized_expansions() {
        let db = "let alts = { (1, (<|1, 2, 3|>, <|4, 5|>)), (2, (<|6, 7|>, <|8, 9|>)) }";
        let statement = "{ w | r <- alts, w <- toset(normalize(r)), fst(w) < 2 }";
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", db).unwrap();
        let request =
            format!(r#"{{"db": "d", "statement": "{statement}", "budget": {{"denotations": 1}}}}"#);
        let (status, response) = query(&server.state, &request);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("or-expansion budget"), "{response}");
        // within budget, the surviving row's six worlds come back
        let request = format!(r#"{{"db": "d", "statement": "{statement}"}}"#);
        let (status, response) = query(&server.state, &request);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("(1, (3, 5))"), "{response}");

        let config = ServerConfig {
            exec: ExecConfig::default().with_or_budget(4),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        server.load_db("d", db).unwrap();
        let (status, response) = query(&server.state, &request);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("or-expansion budget"), "{response}");
        // a head that reads the row is no `OrExpand`; the budget holds too
        let reads_row = "{ (fst(r), w) | r <- alts, w <- toset(normalize(r)) }";
        let request = format!(r#"{{"db": "d", "statement": "{reads_row}"}}"#);
        let (status, response) = query(&server.state, &request);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("or-expansion budget"), "{response}");
    }

    /// Regression: planning a guard that is a long `let` chain — each link
    /// reading the last twice — takes time linear in the statement, not
    /// exponential, before the expansion and after it.
    #[test]
    fn let_chain_guards_are_served() {
        // as deep as the build's parser nesting limit allows
        let depth = if cfg!(debug_assertions) { 12 } else { 30 };
        let guard = |x: &str| {
            let mut guard = format!("let a0 = fst({x}) in ");
            for k in 1..=depth {
                guard += &format!("let a{k} = a{j} + a{j} in ", j = k - 1);
            }
            guard + &format!("a{depth} < 1")
        };
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server
            .load_db(
                "d",
                "let alts = { (0, (<|1, 2|>, <|3|>)), (1, (<|4|>, <|5|>)) }",
            )
            .unwrap();
        for statement in [
            format!(
                "{{ w | r <- alts, {}, w <- toset(normalize(r)) }}",
                guard("r")
            ),
            format!(
                "{{ w | r <- alts, w <- toset(normalize(r)), {} }}",
                guard("w")
            ),
        ] {
            let request = format!(r#"{{"db": "d", "statement": "{statement}"}}"#);
            let (status, response) = query(&server.state, &request);
            assert_eq!(status, 200, "{response}");
            assert!(
                response.contains("{(0, (1, 3)), (0, (2, 3))}"),
                "{response}"
            );
            assert!(response.contains(r#""route":"engine""#), "{response}");
        }
    }

    /// Errors that concern one connection keep the accept loop serving;
    /// anything else (say, the process ran out of descriptors) stops it.
    #[test]
    fn only_per_connection_accept_errors_are_transient() {
        use io::ErrorKind::*;
        for kind in [Interrupted, ConnectionAborted, ConnectionReset] {
            assert!(is_transient_accept_error(kind), "{kind:?}");
        }
        for kind in [
            WouldBlock,
            PermissionDenied,
            InvalidInput,
            OutOfMemory,
            Other,
        ] {
            assert!(!is_transient_accept_error(kind), "{kind:?}");
        }
    }

    #[test]
    fn wildcard_binds_are_woken_through_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7171"), "127.0.0.1:7171");
        assert_eq!(wake("[::]:7171"), "[::1]:7171");
        assert_eq!(wake("127.0.0.1:80"), "127.0.0.1:80");
        assert_eq!(wake("192.0.2.7:80"), "192.0.2.7:80");
    }

    /// A client that trickles bytes faster than any one read could time out
    /// still loses its request at the deadline: the deadline bounds the
    /// whole request, not each read.
    #[test]
    fn trickling_clients_fail_at_the_request_deadline() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let client = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for byte in b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" {
                    if stop.load(Ordering::Relaxed) || stream.write_all(&[*byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let reader = DeadlineReader {
            stream: &stream,
            deadline: start + Duration::from_millis(150),
        };
        let outcome = read_request(reader);
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        client.join().unwrap();
        assert!(outcome.is_err(), "a trickled request must not complete");
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_millis(500),
            "failed after {elapsed:?}"
        );
    }

    /// Deep nesting is rejected by the parsers, on a worker-sized stack:
    /// a 100 000-deep JSON body is a 400 and a 100 000-deep statement a
    /// 422, and neither aborts the process.
    #[test]
    fn deeply_nested_bodies_and_statements_are_client_errors() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", "let db = { 1, 2, 3 }").unwrap();
        let deep_json = "[".repeat(100_000);
        let deep_statement = Json::obj([
            ("db", Json::str("d")),
            (
                "statement",
                Json::str(format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000))),
            ),
        ])
        .to_string();
        let statuses = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(scope, || {
                    [
                        query(&server.state, &deep_json).0,
                        query(&server.state, &deep_statement).0,
                    ]
                })
                .unwrap()
                .join()
                .unwrap()
        });
        assert_eq!(statuses, [400, 422]);
    }

    /// A few hundred bytes of doubling `let`s (as deep as the parser
    /// accepts, up to 40) are answered by the interpreter: planning stops at
    /// the first computed value instead of building 2^k-node trees.
    #[test]
    fn doubling_let_chains_are_answered_promptly() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.load_db("d", "let db = { 1, 2, 3 }").unwrap();
        let chain = |depth: usize| {
            let lets: String = (1..=depth)
                .map(|k| format!("let a{k} = a{j} + a{j} in ", j = k - 1))
                .collect();
            format!("let a0 = 1 in {lets}{{ x | x <- db }}")
        };
        let depth = (1..=40)
            .take_while(|&n| parse_statement(&chain(n)).is_ok())
            .last()
            .unwrap();
        let request = Json::obj([
            ("db", Json::str("d")),
            ("statement", Json::str(chain(depth))),
        ]);
        let (status, response) = query(&server.state, &request.to_string());
        assert_eq!(status, 200, "{response}");
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("route").unwrap().as_str(), Some("fallback"));
        assert_eq!(parsed.get("value").unwrap().as_str(), Some("{1, 2, 3}"));
    }

    #[test]
    fn unknown_db_and_bad_bodies_are_client_errors() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let (status, _) = query(&server.state, r#"{"db": "nope", "statement": "1"}"#);
        assert_eq!(status, 404);
        let (status, _) = query(&server.state, "not json");
        assert_eq!(status, 400);
        let (status, _) = query(&server.state, r#"{"statement": "1"}"#);
        assert_eq!(status, 400);
    }
}
