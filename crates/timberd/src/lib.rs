//! `timberd`: the TIMBER reproduction as a server.
//!
//! One process owns a [`TimberDb`]; any number of TCP connections issue
//! queries and mutations over the `timber-client` wire protocol. The
//! concurrency model is the store's single-writer / multi-reader MVCC:
//!
//! - **Mutations** (`insert`, `delete`, `replace`, `checkpoint`) go to
//!   the shared handle. They serialize on the store's internal commit
//!   lock and publish a new immutable snapshot (epoch) on commit.
//! - **Queries** run against a pinned snapshot. By default each request
//!   pins the latest committed state for its own duration; a session
//!   that sends `SNAPSHOT` pins one epoch across requests until
//!   `RELEASE`, so a sequence of grouped queries reads one consistent
//!   database no matter how many writers commit in between.
//!
//! Readers never block behind writers and never observe a half-applied
//! transaction — a response is always the bytes some committed state
//! would produce.
//!
//! The front end is deliberately simple: thread-per-connection, blocking
//! I/O, one request in flight per connection. [`Server::spawn`] returns
//! a handle whose [`ServerHandle::shutdown`] unblocks and joins every
//! connection thread, so embedders (tests, the benchmark) get a clean
//! single-owner [`TimberDb`] back after a stop. The accept loop reaps
//! finished connections as it goes, so a long-running server holds one
//! descriptor per *live* connection, not per connection ever accepted.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use timber::{PlanMode, TimberDb};
use timber_client::proto::{self, Mode, Opcode, STATUS_ERR, STATUS_OK};

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    db: Arc<TimberDb>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running until process
/// exit.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<ConnTable>,
}

/// Live-connection bookkeeping shared between the accept loop and the
/// shutdown path: per connection, a clone of its socket (so shutdown can
/// unblock its read) and its thread's join handle.
type ConnTable = Mutex<Vec<(TcpStream, JoinHandle<()>)>>;

impl Server {
    /// Bind the listener. Pass `port 0` to let the OS pick one (see
    /// [`Server::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, db: Arc<TimberDb>) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            db,
        })
    }

    /// The address the listener bound to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the accept loop on a background thread and return a control
    /// handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ConnTable::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(self.listener, self.db, stop, shared))
        };
        Ok(ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            shared,
        })
    }

    /// Serve on the calling thread until the process dies — the binary's
    /// main loop.
    pub fn run(self) -> std::io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ConnTable::default());
        accept_loop(self.listener, self.db, stop, shared);
        Ok(())
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, force every open connection's blocked read to
    /// fail, and join all server threads. After this returns no server
    /// thread holds the `Arc<TimberDb>` any more.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(): poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *lock(&self.shared));
        for (sock, _) in &conns {
            let _ = sock.shutdown(Shutdown::Both);
        }
        for (_, thread) in conns {
            let _ = thread.join();
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn accept_loop(
    listener: TcpListener,
    db: Arc<TimberDb>,
    stop: Arc<AtomicBool>,
    shared: Arc<ConnTable>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Without a clone, shutdown could not unblock the connection.
        let Ok(sock) = stream.try_clone() else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let db = Arc::clone(&db);
        let thread = std::thread::spawn(move || handle_conn(db, stream));
        let mut conns = lock(&shared);
        // Dropping a finished connection's entry closes its socket clone.
        conns.retain(|(_, thread)| !thread.is_finished());
        conns.push((sock, thread));
    }
}

/// One connection = one session. `session` holds the pinned snapshot
/// between `SNAPSHOT` and `RELEASE`; queries otherwise pin the latest
/// committed state per request.
fn handle_conn(db: Arc<TimberDb>, mut stream: TcpStream) {
    let mut session: Option<TimberDb> = None;
    loop {
        let frame = match proto::read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return, // disconnect (or forced shutdown)
        };
        if write_reply(&mut stream, dispatch(&db, &mut session, &frame)).is_err() {
            return;
        }
    }
}

/// Write one reply frame, the length with the status byte and then the
/// payload, without copying it; a result over the cap is a typed error.
fn write_reply(w: &mut impl std::io::Write, reply: Result<Vec<u8>, String>) -> std::io::Result<()> {
    let cap = proto::MAX_FRAME as usize;
    let (status, payload) = match reply {
        Ok(p) if p.len() < cap => (STATUS_OK, p),
        Ok(p) => {
            let size = p.len() + 1;
            let msg = format!("a {size}-byte reply exceeds the {cap}-byte frame cap");
            (STATUS_ERR, msg.into_bytes())
        }
        Err(msg) => (STATUS_ERR, msg.into_bytes()),
    };
    let [a, b, c, d] = (payload.len() as u32 + 1).to_le_bytes();
    w.write_all(&[a, b, c, d, status])?;
    w.write_all(&payload)?;
    w.flush()
}

fn plan_mode(m: Mode) -> PlanMode {
    match m {
        Mode::Direct => PlanMode::Direct,
        Mode::Grouped => PlanMode::GroupByRewrite,
    }
}

fn parse_mode_body(body: &[u8]) -> Result<(Mode, &str), String> {
    let (mode, query) = body.split_first().ok_or("missing mode byte")?;
    let mode = Mode::from_u8(*mode).ok_or_else(|| format!("unknown mode byte {mode}"))?;
    let query = std::str::from_utf8(query).map_err(|_| "query is not UTF-8".to_owned())?;
    Ok((mode, query))
}

fn dispatch(
    db: &Arc<TimberDb>,
    session: &mut Option<TimberDb>,
    frame: &[u8],
) -> Result<Vec<u8>, String> {
    let (op, body) = frame.split_first().ok_or("empty request frame")?;
    let op = Opcode::from_u8(*op).ok_or_else(|| format!("unknown opcode {op}"))?;
    // Reads answer from the session snapshot when one is pinned;
    // mutations always go to the live handle.
    let view = session.as_ref().unwrap_or(db);
    match op {
        Opcode::Query => {
            let (mode, query) = parse_mode_body(body)?;
            // Pin one snapshot for execution *and* serialization, so the
            // response bytes are exactly one committed state's answer.
            let snap = view.snapshot();
            let result = snap.query(query, plan_mode(mode)).map_err(err)?;
            let xml = result.to_xml_on(snap.store()).map_err(err)?;
            Ok(xml.into_bytes())
        }
        Opcode::Explain => {
            let (mode, query) = parse_mode_body(body)?;
            let snap = view.snapshot();
            let analysis = snap.explain_analyze(query, plan_mode(mode)).map_err(err)?;
            Ok(analysis.render().into_bytes())
        }
        Opcode::Insert => {
            let xml = std::str::from_utf8(body).map_err(|_| "document is not UTF-8")?;
            let id = db.insert_xml(xml).map_err(err)?;
            Ok(id.to_le_bytes().to_vec())
        }
        Opcode::Delete => {
            let id = parse_u64(body)?;
            db.delete_document(id).map_err(err)?;
            Ok(Vec::new())
        }
        Opcode::Replace => {
            let (id, xml) = body.split_at_checked(8).ok_or("missing doc id")?;
            let id = parse_u64(id)?;
            let xml = std::str::from_utf8(xml).map_err(|_| "document is not UTF-8")?;
            let new_id = db.replace_xml(id, xml).map_err(err)?;
            Ok(new_id.to_le_bytes().to_vec())
        }
        Opcode::Checkpoint => {
            db.checkpoint().map_err(err)?;
            Ok(Vec::new())
        }
        Opcode::Stats => {
            let mut out = Vec::new();
            let io = view.io_stats();
            let _ = writeln!(
                out,
                "epoch={} docs={} nodes={} pages={} page_requests={} disk_reads={} \
                 pool_resident={} pool_capacity={}",
                view.epoch(),
                view.documents().len(),
                view.store().node_count(),
                view.store().total_pages(),
                io.page_requests(),
                io.disk.reads,
                view.store().pool_resident_pages(),
                view.store().pool_capacity(),
            );
            if let Some(w) = view.wal_stats() {
                let _ = writeln!(
                    out,
                    "wal_records={} wal_flushes={} wal_checkpoints={}",
                    w.records, w.flushes, w.checkpoints
                );
            }
            Ok(out)
        }
        Opcode::Snapshot => {
            let snap = db.snapshot();
            let epoch = snap.epoch();
            *session = Some(snap);
            Ok(epoch.to_le_bytes().to_vec())
        }
        Opcode::Release => {
            *session = None;
            Ok(Vec::new())
        }
        Opcode::Docs => {
            let mut out = Vec::new();
            for (id, nodes) in view.documents() {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&nodes.to_le_bytes());
            }
            Ok(out)
        }
    }
}

fn parse_u64(body: &[u8]) -> Result<u64, String> {
    let bytes: [u8; 8] = body.try_into().map_err(|_| "expected a u64 body")?;
    Ok(u64::from_le_bytes(bytes))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use timber_client::Client;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author></article>\
    </bib>";

    const QUERY: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {count($t)} </authorpubs>
    "#;

    fn boot() -> (ServerHandle, Client) {
        let db = Arc::new(TimberDb::create(&StoreOptions::in_memory()).unwrap());
        let server = Server::bind("127.0.0.1:0", db).unwrap();
        let handle = server.spawn().unwrap();
        let client = Client::connect(handle.local_addr()).unwrap();
        (handle, client)
    }

    #[test]
    fn round_trip_query_matches_embedded() {
        let (handle, mut c) = boot();
        let id = c.insert_xml(SAMPLE).unwrap();
        let served = c.query(QUERY, Mode::Grouped).unwrap();
        let embedded = {
            let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
            db.insert_xml(SAMPLE).unwrap();
            let r = db.query(QUERY, timber::PlanMode::GroupByRewrite).unwrap();
            r.to_xml_on(db.store()).unwrap()
        };
        assert_eq!(served, embedded);
        assert_eq!(c.docs().unwrap().len(), 1);
        c.delete(id).unwrap();
        assert!(c.docs().unwrap().is_empty());
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn session_snapshot_pins_across_commits() {
        let (handle, mut c) = boot();
        c.insert_xml(SAMPLE).unwrap();
        let mut pinned = Client::connect(handle.local_addr()).unwrap();
        pinned.snapshot().unwrap();
        let before = pinned.query(QUERY, Mode::Grouped).unwrap();
        // A commit on another connection must not leak into the session.
        c.insert_xml("<bib><article><title>New</title><author>Zed</author></article></bib>")
            .unwrap();
        assert_eq!(pinned.query(QUERY, Mode::Grouped).unwrap(), before);
        assert_eq!(pinned.docs().unwrap().len(), 1);
        pinned.release().unwrap();
        assert_eq!(pinned.docs().unwrap().len(), 2);
        assert_ne!(pinned.query(QUERY, Mode::Grouped).unwrap(), before);
        drop(c);
        drop(pinned);
        handle.shutdown();
    }

    #[test]
    fn errors_come_back_typed_not_as_disconnects() {
        let (handle, mut c) = boot();
        let e = c.delete(99).unwrap_err();
        assert!(matches!(e, timber_client::ClientError::Server(_)), "{e}");
        // The connection survives the error.
        c.insert_xml(SAMPLE).unwrap();
        assert_eq!(c.docs().unwrap().len(), 1);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn closed_connections_are_reaped_on_accept() {
        let (handle, mut c) = boot();
        c.insert_xml(SAMPLE).unwrap();
        let addr = handle.local_addr();
        for _ in 0..300 {
            let mut short = Client::connect(addr).unwrap();
            short.docs().unwrap();
        }
        let eventually = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let held = || lock(&handle.shared).len();
        let running = || {
            lock(&handle.shared)
                .iter()
                .filter(|(_, t)| !t.is_finished())
                .count()
        };
        eventually("short connections never finished", &|| running() <= 1);
        let mut last = Client::connect(addr).unwrap();
        assert_eq!(last.docs().unwrap().len(), 1);
        // Accepting `last` reaps every finished entry.
        eventually("closed connections still held", &|| held() <= 2);
        // The two live connections still get unblocked and joined.
        drop(c);
        handle.shutdown();
        drop(last);
    }

    #[test]
    fn a_reply_over_the_frame_cap_is_a_typed_error() {
        let mut wire = Vec::new();
        let big = vec![b'x'; proto::MAX_FRAME as usize];
        write_reply(&mut wire, Ok(big)).unwrap();
        let frame = proto::read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(frame[0], STATUS_ERR);
        let text = String::from_utf8(frame[1..].to_vec()).unwrap();
        let size = proto::MAX_FRAME + 1;
        assert!(text.contains(&size.to_string()), "{text}");
        assert!(text.contains(&proto::MAX_FRAME.to_string()), "{text}");
        // Under the cap, the reply is the status byte and the payload.
        wire.clear();
        write_reply(&mut wire, Ok(b"<a/>".to_vec())).unwrap();
        let frame = proto::read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(frame, b"\0<a/>");
    }

    #[test]
    fn shutdown_unblocks_connected_clients() {
        let (handle, c) = boot();
        // The client is idle (server blocked reading its socket);
        // shutdown must still join the connection thread.
        handle.shutdown();
        drop(c);
    }
}
