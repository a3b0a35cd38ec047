//! `ViewServer` — one node's engine and store, exposed over TCP.
//!
//! An accept thread hands connections to a **bounded worker pool** (no
//! thread-per-connection: a burst of trainers cannot fork the node to
//! death); each worker owns one connection at a time and serves its
//! requests sequentially. Backpressure is the bounded hand-off channel —
//! when every worker is busy, further connections queue in the channel
//! (and then in the listener backlog) instead of spawning.
//!
//! Each connection gets a **private fd table** mirroring the in-process
//! VFS (lowest free descriptor from 3), so fds never leak across
//! trainers and a dropped connection releases every view it held —
//! `provider.released()` fires for each, exactly like a local `close`.
//! The table holds at most [`MAX_OPEN_VIEWS`] descriptors: an `Open`
//! past it is answered with an error and the connection keeps serving.
//! `Read` is positional (`offset` in the request), which makes a retry
//! on a fresh connection idempotent: there is no server-side cursor to
//! desynchronize.
//!
//! Shutdown is cooperative: workers use short socket read timeouts to
//! poll the stop flag between frames, and `shutdown()` pokes the
//! listener with a throwaway connection to unblock `accept`.

use crate::wire::{self, err_code, PutObject, Request, Response};
use crate::{NetError, Result};
use sand_storage::{ObjectMeta, ObjectStore, Tier};
use sand_telemetry::{NetMetrics, Telemetry};
use sand_vfs::{VfsError, ViewPath, ViewProvider};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket read timeout — the stop-flag polling interval, not a request
/// deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Open descriptors one connection may hold at once.
pub const MAX_OPEN_VIEWS: usize = 1024;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { workers: 4 }
    }
}

/// A running server; dropping it shuts the listener and workers down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains workers, joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; if the listener is already gone the
        // connect fails, which is just as good.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-node RPC server.
pub struct ViewServer;

struct Shared {
    provider: Arc<dyn ViewProvider>,
    store: Option<Arc<ObjectStore>>,
    metrics: NetMetrics,
    stop: Arc<AtomicBool>,
}

impl ViewServer {
    /// Binds `addr` and serves `provider` (and `store`, when given, for
    /// the object-exchange verbs) until the handle is shut down.
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        provider: Arc<dyn ViewProvider>,
        store: Option<Arc<ObjectStore>>,
        config: ServerConfig,
        telemetry: &Telemetry,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        Self::serve_on(listener, provider, store, config, telemetry)
    }

    /// Serves on an already-bound listener. Binding first lets a cluster
    /// assembler learn every node's address (port 0) before any engine
    /// or remote tier is constructed.
    pub fn serve_on(
        listener: TcpListener,
        provider: Arc<dyn ViewProvider>,
        store: Option<Arc<ObjectStore>>,
        config: ServerConfig,
        telemetry: &Telemetry,
    ) -> Result<ServerHandle> {
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            provider,
            store,
            metrics: NetMetrics::register(telemetry),
            stop: Arc::clone(&stop),
        });

        let workers = config.workers.max(1);
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(workers * 2);
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let rx = rx.clone();
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sand-net-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .map_err(|e| NetError::Io {
                        what: format!("spawn worker: {e}"),
                    })?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sand-net-accept".to_string())
                    .spawn(move || accept_loop(&listener, &tx, &shared))
                    .map_err(|e| NetError::Io {
                        what: format!("spawn acceptor: {e}"),
                    })?,
            );
        }
        Ok(ServerHandle {
            local_addr,
            stop,
            threads,
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &crossbeam::channel::Sender<TcpStream>,
    shared: &Shared,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_nodelay(true);
        if tx.send(stream).is_err() {
            return;
        }
    }
}

fn worker_loop(rx: &crossbeam::channel::Receiver<TcpStream>, shared: &Shared) {
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(stream) => serve_connection(stream, shared),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One open descriptor on one connection.
struct OpenEntry {
    path: ViewPath,
    content: Arc<Vec<u8>>,
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let mut fds: BTreeMap<u64, OpenEntry> = BTreeMap::new();
    // Anything but a whole frame — clean EOF, shutdown, or a transport/
    // protocol failure — means the connection is done.
    while let Ok(Some(payload)) = read_frame_interruptible(&mut stream, shared) {
        let m = &shared.metrics;
        m.server_requests.inc();
        m.bytes_rx.add(payload.len() as u64);
        let response = match Request::decode(&payload) {
            Ok(req) => handle_request(req, &mut fds, shared),
            Err(e) => Response::Error {
                code: err_code::PROTOCOL,
                what: e.to_string(),
            },
        };
        if let Response::Error { .. } = &response {
            m.server_errors.inc();
        }
        let encoded = match response.encode() {
            Ok(e) => e,
            Err(_) => break,
        };
        shared.metrics.bytes_tx.add(encoded.len() as u64);
        if wire::write_frame(&mut stream, &encoded).is_err() {
            break;
        }
    }
    // Dropped connection ≡ close of everything it held.
    for (_, entry) in fds {
        shared.provider.released(&entry.path);
    }
}

/// Reads one frame, polling the stop flag across read-timeout ticks.
/// `Ok(None)` is clean EOF at a frame boundary.
fn read_frame_interruptible(stream: &mut TcpStream, shared: &Shared) -> Result<Option<Vec<u8>>> {
    wire::read_frame_with(wire::MAX_FRAME, |buf| {
        read_exact_polling(stream, buf, shared)
    })
}

/// Fills `buf` (or stops at EOF), treating read timeouts as stop-flag
/// polling points rather than errors.
fn read_exact_polling(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Err(NetError::Io {
                        what: "server shutting down".to_string(),
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

fn vfs_error_response(e: &VfsError) -> Response {
    let (code, what) = match e {
        VfsError::NoSuchView { .. } => (err_code::NO_SUCH_VIEW, e.to_string()),
        VfsError::Io { .. } => (err_code::IO, e.to_string()),
        VfsError::BadFd { .. } => (err_code::BAD_FD, e.to_string()),
        VfsError::NoAttr { .. } => (err_code::NO_ATTR, e.to_string()),
    };
    Response::Error { code, what }
}

/// Lowest free descriptor from 3, mirroring the in-process VFS.
fn alloc_fd(fds: &BTreeMap<u64, OpenEntry>) -> u64 {
    let mut fd = 3;
    while fds.contains_key(&fd) {
        fd += 1;
    }
    fd
}

/// Stores every object of a `Put`; the first failure is the answer.
fn put_objects(store: &ObjectStore, objects: Vec<PutObject>) -> Response {
    let mut failed = None;
    for o in objects {
        let meta = ObjectMeta {
            deadline: o.deadline,
            future_uses: o.future_uses,
        };
        if let Err(e) = store.put(&o.key, o.bytes, meta) {
            failed.get_or_insert_with(|| format!("put {}: {e}", o.key));
        }
    }
    match failed {
        None => Response::PutOk,
        Some(what) => Response::Error {
            code: err_code::IO,
            what,
        },
    }
}

/// A `Fetch`'s entries, in request order. A key the store cannot produce,
/// and an object that would push the reply past [`wire::MAX_FRAME`], is
/// `None`: a miss is always a correct answer.
fn found_objects(store: &ObjectStore, keys: &[String]) -> Vec<Option<Vec<u8>>> {
    // The tag and one presence byte per entry always fit: a request of
    // `keys.len()` keys fit in a frame.
    let mut room = (wire::MAX_FRAME as usize).saturating_sub(1 + keys.len());
    keys.iter()
        .map(|key| {
            let bytes = store.get(key).ok()?;
            let cost = 4 + bytes.len();
            if cost > room {
                return None;
            }
            room -= cost;
            Some(bytes.as_ref().clone())
        })
        .collect()
}

fn handle_request(req: Request, fds: &mut BTreeMap<u64, OpenEntry>, shared: &Shared) -> Response {
    match req {
        Request::Open { path } => {
            let parsed = match ViewPath::parse(&path) {
                Some(p) => p,
                None => {
                    return Response::Error {
                        code: err_code::NO_SUCH_VIEW,
                        what: format!("no such view: {path}"),
                    }
                }
            };
            if fds.len() >= MAX_OPEN_VIEWS {
                return Response::Error {
                    code: err_code::IO,
                    what: format!("{MAX_OPEN_VIEWS} views already open on this connection"),
                };
            }
            match shared.provider.fetch(&parsed) {
                Ok(content) => {
                    let fd = alloc_fd(fds);
                    let size = content.len() as u64;
                    fds.insert(
                        fd,
                        OpenEntry {
                            path: parsed,
                            content,
                        },
                    );
                    Response::Opened { fd, size }
                }
                Err(e) => vfs_error_response(&e),
            }
        }
        Request::Read { fd, offset, len } => match fds.get(&fd) {
            Some(entry) => {
                let total = entry.content.len();
                let start = usize::try_from(offset).unwrap_or(usize::MAX).min(total);
                let end = start.saturating_add(len as usize).min(total);
                Response::Data {
                    bytes: entry.content[start..end].to_vec(),
                    eof: end == total,
                }
            }
            None => vfs_error_response(&VfsError::BadFd { fd }),
        },
        Request::GetXattr { fd, name } => match fds.get(&fd) {
            Some(entry) => match shared.provider.metadata(&entry.path, &name) {
                Ok(value) => Response::Xattr { value },
                Err(e) => vfs_error_response(&e),
            },
            None => vfs_error_response(&VfsError::BadFd { fd }),
        },
        Request::Close { fd } => match fds.remove(&fd) {
            Some(entry) => {
                shared.provider.released(&entry.path);
                Response::Closed
            }
            None => vfs_error_response(&VfsError::BadFd { fd }),
        },
        Request::Put { objects } => match &shared.store {
            Some(store) => put_objects(store, objects),
            None => Response::Error {
                code: err_code::IO,
                what: "node serves no object store".to_string(),
            },
        },
        Request::Fetch { keys } => Response::Found {
            objects: match &shared.store {
                Some(store) => found_objects(store, &keys),
                None => vec![None; keys.len()],
            },
        },
        Request::Stat { key } => match &shared.store {
            Some(store) => match store.tier_of(&key) {
                Some(tier) => {
                    // Only a memory-resident object's size is cheaply
                    // known; a disk read just to report a size is not
                    // worth the I/O on a probe verb.
                    let (tier_code, size) = match tier {
                        Tier::Memory => (1u8, store.get(&key).map(|b| b.len() as u64).unwrap_or(0)),
                        Tier::Disk => (2u8, 0),
                    };
                    Response::Stat {
                        present: true,
                        tier: tier_code,
                        size,
                    }
                }
                None => Response::Stat {
                    present: false,
                    tier: 0,
                    size: 0,
                },
            },
            None => Response::Stat {
                present: false,
                tier: 0,
                size: 0,
            },
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ViewClient};
    use crate::remote::{PeerSpec, RemoteTier, RemoteTierConfig};
    use sand_storage::StoreConfig;
    use sand_telemetry::TelemetryConfig;
    use std::io::Write as _;

    /// A node with no views: the frame cap is checked before any request
    /// reaches a provider.
    struct NoViews;

    impl ViewProvider for NoViews {
        fn fetch(&self, path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
            Err(VfsError::NoSuchView {
                path: path.to_string(),
            })
        }

        fn metadata(&self, _path: &ViewPath, name: &str) -> sand_vfs::Result<String> {
            Err(VfsError::NoAttr {
                name: name.to_string(),
            })
        }
    }

    /// A header announcing one byte more than `wire::MAX_FRAME` ends the
    /// exchange before the server reads a payload: the client gets a
    /// protocol error or a closed connection, never a read timeout (which
    /// is what waiting for the unsent payload would look like).
    #[test]
    fn oversized_request_frame_is_rejected_before_reading_a_payload() {
        let mut server = ViewServer::serve(
            "127.0.0.1:0",
            Arc::new(NoViews),
            None,
            ServerConfig { workers: 1 },
            &Telemetry::disabled(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(wire::MAX_FRAME + 1).to_le_bytes());
        stream.write_all(&header).unwrap();
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            Err(e) => panic!("the server neither answered nor closed the connection: {e}"),
        }
        if !reply.is_empty() {
            let payload = wire::read_frame(&mut reply.as_slice(), wire::MAX_FRAME)
                .unwrap()
                .unwrap();
            assert!(matches!(
                Response::decode(&payload).unwrap(),
                Response::Error {
                    code: err_code::PROTOCOL,
                    ..
                }
            ));
        }
        server.shutdown();
    }

    /// Every view path is the same sixteen bytes.
    struct AnyView;

    impl ViewProvider for AnyView {
        fn fetch(&self, _path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
            Ok(Arc::new(vec![7; 16]))
        }

        fn metadata(&self, _path: &ViewPath, name: &str) -> sand_vfs::Result<String> {
            Err(VfsError::NoAttr {
                name: name.to_string(),
            })
        }
    }

    fn client(server: &ServerHandle) -> ViewClient {
        let config = ClientConfig {
            timeout: Duration::from_secs(5),
            retries: 0,
        };
        ViewClient::new(server.local_addr(), config, &Telemetry::disabled())
    }

    #[test]
    fn a_connection_holds_at_most_max_open_views() {
        let provider = Arc::new(AnyView);
        let config = ServerConfig { workers: 1 };
        let telemetry = Telemetry::disabled();
        let mut server =
            ViewServer::serve("127.0.0.1:0", provider, None, config, &telemetry).unwrap();
        // One pooled connection carries every call.
        let c = client(&server);
        let fds: Vec<u64> = (0..MAX_OPEN_VIEWS)
            .map(|_| c.open("/train/video0001/frame1").unwrap().0)
            .collect();
        match c.open("/train/video0001/frame1") {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, err_code::IO),
            other => panic!("open past the cap answered {other:?}"),
        }
        // The connection still serves: a close frees a descriptor.
        c.close(fds[5]).unwrap();
        assert_eq!(c.open("/train/video0001/frame1").unwrap().0, fds[5]);
        server.shutdown();
    }

    #[test]
    fn a_fetch_reply_never_passes_max_frame() {
        let store = ObjectStore::memory_only(StoreConfig {
            memory_budget: 256 << 20,
            ..Default::default()
        })
        .unwrap();
        let store = Arc::new(store);
        // Two objects that fit one frame only one at a time (one
        // allocation, stored under both keys).
        let big = Arc::new(vec![1u8; (wire::MAX_FRAME as usize / 2) + 1024]);
        for key in ["big0", "big1"] {
            store
                .put(key, Arc::clone(&big), ObjectMeta::default())
                .unwrap();
        }
        store
            .put("small", Arc::new(vec![2; 8]), ObjectMeta::default())
            .unwrap();
        let provider = Arc::new(NoViews);
        let config = ServerConfig { workers: 1 };
        let telemetry = Telemetry::disabled();
        let mut server =
            ViewServer::serve("127.0.0.1:0", provider, Some(store), config, &telemetry).unwrap();
        let keys = ["big0", "big1", "small", "absent"]
            .map(String::from)
            .to_vec();
        let found = match client(&server).call(&Request::Fetch { keys }).unwrap() {
            Response::Found { objects } => objects,
            other => panic!("fetch answered {other:?}"),
        };
        let present: Vec<bool> = found.iter().map(Option::is_some).collect();
        assert_eq!(present, [true, false, true, false]);
        assert_eq!(found[0].as_deref(), Some(&big[..]));
        assert_eq!(found[2].as_deref(), Some(&[2u8; 8][..]));
        server.shutdown();
    }

    #[test]
    fn a_fetch_of_many_keys_is_one_request_per_owner() {
        let store = Arc::new(ObjectStore::memory_only(StoreConfig::default()).unwrap());
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let provider = Arc::new(NoViews);
        let config = ServerConfig { workers: 1 };
        let shared = Some(Arc::clone(&store));
        let mut server =
            ViewServer::serve("127.0.0.1:0", provider, shared, config, &telemetry).unwrap();
        let tier = RemoteTier::new(
            RemoteTierConfig {
                node_id: "a".to_string(),
                peers: vec![PeerSpec {
                    node_id: "b".to_string(),
                    addr: server.local_addr(),
                }],
                ..RemoteTierConfig::default()
            },
            &Telemetry::disabled(),
        );
        // Keys of both owners, interleaved; b holds every other one of its own.
        let keys: Vec<String> = (0..16).map(|i| format!("obj/{i}")).collect();
        let mut expected = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let held = tier.is_remote(key) && i % 2 == 0;
            if held {
                store
                    .put(
                        key,
                        Arc::new(key.as_bytes().to_vec()),
                        ObjectMeta::default(),
                    )
                    .unwrap();
            }
            expected.push(held.then(|| key.as_bytes().to_vec()));
        }
        assert!(keys.iter().any(|k| tier.is_remote(k)) && keys.iter().any(|k| !tier.is_remote(k)));
        let asked: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(tier.fetch(&asked), expected);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("net.server_requests"), Some(1));
        server.shutdown();
    }
}
