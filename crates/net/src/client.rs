//! `ViewClient` — pooled, retrying RPC client, plus the
//! [`RemoteProvider`] adapter that mounts a remote node like a local
//! engine.
//!
//! Retry contract: only **transport** failures are retried (connect,
//! timeout, torn frame), always on a **fresh connection**, after a 5 ms
//! sleep that doubles per retry. That is safe because the protocol was
//! shaped for it — `Read` is positional, `Put` is idempotent, and fd
//! tables are per-connection, so a retried `Open` on a new connection
//! cannot collide with state the dead one held. A [`Response::Error`]
//! from the peer is *not* retried: the peer answered; repeating the
//! question would not change the answer.

use crate::wire::{self, err_code, PutObject, Request, Response};
use crate::{NetError, Result};
use sand_sanitizer::TrackedMutex;
use sand_telemetry::{NetMetrics, Telemetry};
use sand_vfs::{VfsError, ViewPath, ViewProvider};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Sleep before the first retry; doubles per subsequent retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Idle connections kept pooled per peer.
const POOL: usize = 2;

/// Client tunables.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-attempt timeout: connect, and each socket read or write.
    pub timeout: Duration,
    /// Additional attempts after the first (0 = fail fast).
    pub retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_millis(500),
            retries: 2,
        }
    }
}

/// Connection-pooled RPC client for one peer.
pub struct ViewClient {
    addr: SocketAddr,
    config: ClientConfig,
    pool: TrackedMutex<Vec<TcpStream>>,
    metrics: Option<NetMetrics>,
}

impl std::fmt::Debug for ViewClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewClient")
            .field("addr", &self.addr)
            .field("config", &self.config)
            .finish()
    }
}

impl ViewClient {
    /// Creates a client for `addr`. No connection is made until the
    /// first call.
    pub fn new(addr: SocketAddr, config: ClientConfig, telemetry: &Telemetry) -> Self {
        Self {
            addr,
            config,
            pool: TrackedMutex::new("net.client.pool", Vec::new()),
            metrics: NetMetrics::register(telemetry),
        }
    }

    /// The peer this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self) -> Result<TcpStream> {
        if let Some(s) = self.pool.lock().pop() {
            return Ok(s);
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.timeout)?;
        stream.set_read_timeout(Some(self.config.timeout))?;
        stream.set_write_timeout(Some(self.config.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < POOL {
            pool.push(stream);
        }
    }

    fn attempt(&self, req: &Request) -> Result<Response> {
        let payload = req.encode()?;
        let mut stream = self.checkout()?;
        if let Some(m) = &self.metrics {
            m.bytes_tx.add(payload.len() as u64);
        }
        wire::write_frame(&mut stream, &payload)?;
        let raw = wire::read_frame(&mut stream, wire::MAX_FRAME)?.ok_or_else(|| NetError::Io {
            what: "peer closed before responding".to_string(),
        })?;
        if let Some(m) = &self.metrics {
            m.bytes_rx.add(raw.len() as u64);
        }
        let resp = Response::decode(&raw)?;
        self.checkin(stream);
        Ok(resp)
    }

    /// One RPC round-trip with bounded retry-with-backoff on transport
    /// failure. Returns the peer's response verbatim (including
    /// [`Response::Error`]).
    pub fn call(&self, req: &Request) -> Result<Response> {
        let mut backoff = RETRY_BACKOFF;
        let mut last: Option<NetError> = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                if let Some(m) = &self.metrics {
                    m.retries.inc();
                }
                // Stale pooled connections (peer restarted) are the
                // common cause — drop them all before redialing.
                self.pool.lock().clear();
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match self.attempt(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| NetError::Io {
            what: "no attempt made".to_string(),
        }))
    }

    fn unexpected(req: &str, resp: &Response) -> NetError {
        NetError::Unexpected {
            what: format!("{req} answered with {resp:?}"),
        }
    }

    /// Table-2 `open`: returns `(fd, size)`.
    pub fn open(&self, path: &str) -> Result<(u64, u64)> {
        match self.call(&Request::Open {
            path: path.to_string(),
        })? {
            Response::Opened { fd, size } => Ok((fd, size)),
            Response::Error { code, what } => Err(NetError::Remote { code, what }),
            other => Err(Self::unexpected("open", &other)),
        }
    }

    /// Positional read: returns `(bytes, eof)`.
    pub fn read(&self, fd: u64, offset: u64, len: u32) -> Result<(Vec<u8>, bool)> {
        match self.call(&Request::Read { fd, offset, len })? {
            Response::Data { bytes, eof } => Ok((bytes, eof)),
            Response::Error { code, what } => Err(NetError::Remote { code, what }),
            other => Err(Self::unexpected("read", &other)),
        }
    }

    /// Table-2 `getxattr`.
    pub fn getxattr(&self, fd: u64, name: &str) -> Result<String> {
        match self.call(&Request::GetXattr {
            fd,
            name: name.to_string(),
        })? {
            Response::Xattr { value } => Ok(value),
            Response::Error { code, what } => Err(NetError::Remote { code, what }),
            other => Err(Self::unexpected("getxattr", &other)),
        }
    }

    /// Table-2 `close`.
    pub fn close(&self, fd: u64) -> Result<()> {
        match self.call(&Request::Close { fd })? {
            Response::Closed => Ok(()),
            Response::Error { code, what } => Err(NetError::Remote { code, what }),
            other => Err(Self::unexpected("close", &other)),
        }
    }

    /// Pushes an object into the peer's store: a one-object `Put`.
    pub fn put(
        &self,
        key: &str,
        deadline: Option<u64>,
        future_uses: u32,
        bytes: &[u8],
    ) -> Result<()> {
        let objects = vec![PutObject {
            key: key.to_string(),
            deadline,
            future_uses,
            bytes: Arc::new(bytes.to_vec()),
        }];
        stored(self.call(&Request::Put { objects })?)
    }

    /// Fetches a cached object from the peer with a one-key `Fetch`;
    /// `Ok(None)` is a clean miss.
    pub fn fetch(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let keys = vec![key.to_string()];
        let found = objects_found(self.call(&Request::Fetch { keys })?, 1)?;
        Ok(found.into_iter().next().flatten())
    }

    /// Probes presence/tier: `Ok(Some((tier, size)))` when cached.
    pub fn stat(&self, key: &str) -> Result<Option<(u8, u64)>> {
        match self.call(&Request::Stat {
            key: key.to_string(),
        })? {
            Response::Stat {
                present: true,
                tier,
                size,
            } => Ok(Some((tier, size))),
            Response::Stat { present: false, .. } => Ok(None),
            Response::Error { code, what } => Err(NetError::Remote { code, what }),
            other => Err(Self::unexpected("stat", &other)),
        }
    }

    /// Convenience: `open` + chunked positional `read`s to EOF + `close`.
    pub fn read_view(&self, path: &str) -> Result<Vec<u8>> {
        const CHUNK: u32 = 256 << 10;
        let (fd, size) = self.open(path)?;
        let mut out = Vec::with_capacity(usize::try_from(size).unwrap_or(0));
        let mut offset = 0u64;
        loop {
            let (bytes, eof) = match self.read(fd, offset, CHUNK) {
                Ok(r) => r,
                Err(e) => {
                    let _ = self.close(fd);
                    return Err(e);
                }
            };
            offset += bytes.len() as u64;
            let stalled = bytes.is_empty();
            out.extend_from_slice(&bytes);
            if eof || stalled {
                break;
            }
        }
        self.close(fd)?;
        Ok(out)
    }
}

/// The answer to a `Fetch` of `asked` keys: one entry per key, in request
/// order. Any other entry count is a protocol error.
pub(crate) fn objects_found(resp: Response, asked: usize) -> Result<Vec<Option<Vec<u8>>>> {
    match resp {
        Response::Found { objects } if objects.len() == asked => Ok(objects),
        Response::Found { objects } => Err(NetError::Protocol {
            what: format!(
                "fetch of {asked} keys answered with {} entries",
                objects.len()
            ),
        }),
        Response::Error { code, what } => Err(NetError::Remote { code, what }),
        other => Err(ViewClient::unexpected("fetch", &other)),
    }
}

/// The answer to a `Put`: every object stored, or the peer's error.
pub(crate) fn stored(resp: Response) -> Result<()> {
    match resp {
        Response::PutOk => Ok(()),
        Response::Error { code, what } => Err(NetError::Remote { code, what }),
        other => Err(ViewClient::unexpected("put", &other)),
    }
}

/// Adapts a [`ViewClient`] back into a [`ViewProvider`]: a trainer
/// process mounts a remote SAND node exactly like a local engine —
/// `SandVfs::new(Arc::new(RemoteProvider::new(client)))`.
pub struct RemoteProvider {
    client: ViewClient,
}

impl RemoteProvider {
    pub fn new(client: ViewClient) -> Self {
        Self { client }
    }
}

fn to_vfs_error(path: &ViewPath, e: NetError) -> VfsError {
    match e {
        NetError::Remote { code, what } => match code {
            err_code::NO_SUCH_VIEW => VfsError::NoSuchView {
                path: path.to_string(),
            },
            err_code::BAD_FD => VfsError::Io { what },
            err_code::NO_ATTR => {
                // The attribute name rides in `what`; the caller-facing
                // variant wants just a name, so keep the description.
                VfsError::NoAttr { name: what }
            }
            _ => VfsError::Io { what },
        },
        other => VfsError::Io {
            what: other.to_string(),
        },
    }
}

impl ViewProvider for RemoteProvider {
    fn fetch(&self, path: &ViewPath) -> std::result::Result<Arc<Vec<u8>>, VfsError> {
        self.client
            .read_view(&path.to_string())
            .map(Arc::new)
            .map_err(|e| to_vfs_error(path, e))
    }

    fn metadata(&self, path: &ViewPath, name: &str) -> std::result::Result<String, VfsError> {
        let p = path.to_string();
        let (fd, _) = self.client.open(&p).map_err(|e| to_vfs_error(path, e))?;
        let value = self.client.getxattr(fd, name);
        let _ = self.client.close(fd);
        value.map_err(|e| match e {
            NetError::Remote {
                code: err_code::NO_ATTR,
                ..
            } => VfsError::NoAttr {
                name: name.to_string(),
            },
            other => to_vfs_error(path, other),
        })
    }
}
