//! The SAND view filesystem.
//!
//! The paper exposes views as paths in a FUSE filesystem accessed with
//! POSIX calls (its Tables 1 and 2). This crate reproduces the programming
//! model in-process: [`ViewPath`] implements the path scheme, and
//! [`SandVfs`] implements the verb set — `open`, `read`, `getxattr`,
//! `close` — against a pluggable [`ViewProvider`] backend (the SAND engine
//! in `sand-core`, or anything else that can materialize view bytes).
//!
//! The file-descriptor semantics follow POSIX closely: `open` allocates
//! the lowest free descriptor, `read` consumes sequentially from an
//! offset, `close` releases the descriptor, and operations on closed or
//! never-opened descriptors fail with [`VfsError::BadFd`] (EBADF).

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod path;

pub use path::ViewPath;

use parking_lot::Mutex;
use sand_telemetry::{Telemetry, VfsMetrics};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors produced by the VFS layer (POSIX-flavoured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The path does not parse as any view (ENOENT).
    NoSuchView {
        /// The offending path.
        path: String,
    },
    /// The provider could not materialize the object (EIO).
    Io {
        /// Human-readable description.
        what: String,
    },
    /// Operation on an invalid descriptor (EBADF).
    BadFd {
        /// The offending descriptor.
        fd: u64,
    },
    /// Unknown extended attribute (ENODATA).
    NoAttr {
        /// The attribute name.
        name: String,
    },
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NoSuchView { path } => write!(f, "no such view: {path}"),
            VfsError::Io { what } => write!(f, "io error: {what}"),
            VfsError::BadFd { fd } => write!(f, "bad file descriptor: {fd}"),
            VfsError::NoAttr { name } => write!(f, "no such attribute: {name}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, VfsError>;

/// The backend that materializes view contents and metadata.
///
/// `sand-core`'s engine implements this; tests use simple mocks.
pub trait ViewProvider: Send + Sync {
    /// Materializes (or loads) the bytes of a view.
    ///
    /// Returns the content as an `Arc` so a provider backed by an object
    /// store can hand out the stored allocation itself: decoder → store →
    /// open descriptor → `read` then share one buffer with no copies.
    fn fetch(&self, path: &ViewPath) -> Result<Arc<Vec<u8>>>;

    /// Returns the value of an extended attribute for a view.
    fn metadata(&self, path: &ViewPath, name: &str) -> Result<String>;

    /// Notifies the backend that a view's descriptor was closed, so it can
    /// release memory (the paper's `close()` semantics).
    fn released(&self, _path: &ViewPath) {}
}

/// One open descriptor.
struct OpenFile {
    path: ViewPath,
    content: Arc<Vec<u8>>,
    offset: usize,
}

/// The in-process SAND filesystem.
pub struct SandVfs {
    provider: Arc<dyn ViewProvider>,
    files: Mutex<BTreeMap<u64, OpenFile>>,
    metrics: VfsMetrics,
}

impl SandVfs {
    /// Mounts the VFS over a provider, counting into a registry of its
    /// own.
    pub fn new(provider: Arc<dyn ViewProvider>) -> Self {
        Self::with_metrics(provider, VfsMetrics::register(&Telemetry::disabled()))
    }

    /// Mounts the VFS over a provider, timing each fetch into `metrics`.
    pub fn with_metrics(provider: Arc<dyn ViewProvider>, metrics: VfsMetrics) -> Self {
        SandVfs {
            provider,
            files: Mutex::new(BTreeMap::new()),
            metrics,
        }
    }

    /// Opens a view path, materializing its content, and returns a
    /// descriptor (lowest free, starting at 3 as stdin/out/err are taken).
    pub fn open(&self, path: &str) -> Result<u64> {
        let view = ViewPath::parse(path).ok_or_else(|| VfsError::NoSuchView {
            path: path.to_string(),
        })?;
        let t0 = Instant::now();
        let content = self.provider.fetch(&view)?;
        self.metrics.fetch_us.observe_duration(t0.elapsed());
        self.metrics.fetches.inc();
        let mut files = self.files.lock();
        let mut fd = 3;
        while files.contains_key(&fd) {
            fd += 1;
        }
        files.insert(
            fd,
            OpenFile {
                path: view,
                content,
                offset: 0,
            },
        );
        Ok(fd)
    }

    /// Reads up to `buf.len()` bytes at the descriptor's offset, advancing
    /// it. Returns 0 at end of file.
    pub fn read(&self, fd: u64, buf: &mut [u8]) -> Result<usize> {
        let mut files = self.files.lock();
        let file = files.get_mut(&fd).ok_or(VfsError::BadFd { fd })?;
        let remaining = file.content.len().saturating_sub(file.offset);
        let n = remaining.min(buf.len());
        buf[..n].copy_from_slice(&file.content[file.offset..file.offset + n]);
        file.offset += n;
        Ok(n)
    }

    /// Reads the entire remaining content of a descriptor.
    ///
    /// A descriptor at offset 0 that holds the only reference to its
    /// content (every batch view: `fetch` wraps a freshly served buffer)
    /// hands that buffer over instead of copying it. Content shared with
    /// anyone else, such as a frame object the store still holds, is
    /// copied. Either way the descriptor is at end of file afterwards.
    pub fn read_to_end(&self, fd: u64) -> Result<Vec<u8>> {
        let mut files = self.files.lock();
        let file = files.get_mut(&fd).ok_or(VfsError::BadFd { fd })?;
        let out = match Arc::get_mut(&mut file.content) {
            Some(content) if file.offset == 0 => std::mem::take(content),
            _ => file.content[file.offset..].to_vec(),
        };
        file.offset = file.content.len();
        Ok(out)
    }

    /// Returns an extended attribute of the open view (Table 2's
    /// `getxattr`); e.g. frame timestamps or batch shapes.
    pub fn getxattr(&self, fd: u64, name: &str) -> Result<String> {
        let path = {
            let files = self.files.lock();
            files.get(&fd).ok_or(VfsError::BadFd { fd })?.path.clone()
        };
        self.provider.metadata(&path, name)
    }

    /// Path-based `getxattr` (no descriptor required).
    pub fn getxattr_path(&self, path: &str, name: &str) -> Result<String> {
        let view = ViewPath::parse(path).ok_or_else(|| VfsError::NoSuchView {
            path: path.to_string(),
        })?;
        self.provider.metadata(&view, name)
    }

    /// Closes a descriptor, releasing its content reference.
    pub fn close(&self, fd: u64) -> Result<()> {
        let file = self
            .files
            .lock()
            .remove(&fd)
            .ok_or(VfsError::BadFd { fd })?;
        self.provider.released(&file.path);
        Ok(())
    }

    /// Number of currently open descriptors.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.files.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MockProvider;

    impl ViewProvider for MockProvider {
        fn fetch(&self, path: &ViewPath) -> Result<Arc<Vec<u8>>> {
            match path {
                ViewPath::Batch {
                    epoch, iteration, ..
                } => Ok(Arc::new(format!("batch-{epoch}-{iteration}").into_bytes())),
                ViewPath::Frame { index, .. } => Ok(Arc::new(vec![*index as u8; 8])),
                _ => Ok(Arc::new(b"data".to_vec())),
            }
        }

        fn metadata(&self, _path: &ViewPath, name: &str) -> Result<String> {
            match name {
                "timestamps" => Ok("0,33333,66666".to_string()),
                _ => Err(VfsError::NoAttr {
                    name: name.to_string(),
                }),
            }
        }
    }

    fn vfs() -> SandVfs {
        SandVfs::new(Arc::new(MockProvider))
    }

    #[test]
    fn open_read_close_lifecycle() {
        let v = vfs();
        let fd = v.open("/train/0/5/view").unwrap();
        assert_eq!(fd, 3);
        let mut buf = [0u8; 64];
        let n = v.read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"batch-0-5");
        // EOF.
        assert_eq!(v.read(fd, &mut buf).unwrap(), 0);
        v.close(fd).unwrap();
        assert_eq!(v.open_count(), 0);
    }

    #[test]
    fn partial_reads_advance_offset() {
        let v = vfs();
        let fd = v.open("/train/0/12/view").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(v.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"batc");
        assert_eq!(v.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"h-0-");
        let rest = v.read_to_end(fd).unwrap();
        assert_eq!(rest, b"12");
        v.close(fd).unwrap();
    }

    #[test]
    fn lowest_free_fd_reused() {
        let v = vfs();
        let a = v.open("/t/0/0/view").unwrap();
        let b = v.open("/t/0/1/view").unwrap();
        assert_eq!((a, b), (3, 4));
        v.close(a).unwrap();
        let c = v.open("/t/0/2/view").unwrap();
        assert_eq!(c, 3);
        v.close(b).unwrap();
        v.close(c).unwrap();
    }

    #[test]
    fn bad_fd_rejected() {
        let v = vfs();
        let mut buf = [0u8; 1];
        assert_eq!(v.read(99, &mut buf), Err(VfsError::BadFd { fd: 99 }));
        assert_eq!(v.close(99), Err(VfsError::BadFd { fd: 99 }));
        assert_eq!(
            v.getxattr(99, "timestamps"),
            Err(VfsError::BadFd { fd: 99 })
        );
        let fd = v.open("/t/0/0/view").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.close(fd), Err(VfsError::BadFd { fd }));
    }

    #[test]
    fn unparseable_path_is_enoent() {
        let v = vfs();
        assert!(matches!(
            v.open("not a path"),
            Err(VfsError::NoSuchView { .. })
        ));
        assert!(matches!(
            v.open("/only/two"),
            Err(VfsError::NoSuchView { .. })
        ));
    }

    #[test]
    fn xattr_by_fd_and_path() {
        let v = vfs();
        let fd = v.open("/t/video0001/frame3").unwrap();
        assert_eq!(v.getxattr(fd, "timestamps").unwrap(), "0,33333,66666");
        assert!(matches!(
            v.getxattr(fd, "nope"),
            Err(VfsError::NoAttr { .. })
        ));
        assert_eq!(
            v.getxattr_path("/t/video0001/frame3", "timestamps")
                .unwrap(),
            "0,33333,66666"
        );
        v.close(fd).unwrap();
    }

    #[test]
    fn fetch_latency_is_recorded() {
        let telemetry = Telemetry::disabled();
        let metrics = VfsMetrics::register(&telemetry);
        let v = SandVfs::with_metrics(Arc::new(MockProvider), metrics);
        let a = v.open("/t/0/0/view").unwrap();
        let b = v.open("/t/0/1/view").unwrap();
        v.close(a).unwrap();
        v.close(b).unwrap();
        // Failed opens (unparseable path) never reach the provider and
        // must not count as fetches.
        assert!(v.open("nope").is_err());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("vfs.fetches"), Some(2));
        assert_eq!(snap.histogram("vfs.fetch_us").map(|h| h.count), Some(2));
    }

    #[test]
    fn read_to_end_hands_over_what_chunked_reads_copy() {
        let v = vfs();
        let path = "/train/3/14/view";
        let (a, b) = (v.open(path).unwrap(), v.open(path).unwrap());
        let mut chunked = Vec::new();
        let mut buf = [0u8; 3];
        loop {
            let n = v.read(a, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            chunked.extend_from_slice(&buf[..n]);
        }
        assert_eq!(v.read_to_end(b).unwrap(), chunked);
        // Handed over or not, the descriptor is at end of file.
        assert_eq!(v.read(b, &mut buf).unwrap(), 0);
        assert!(v.read_to_end(b).unwrap().is_empty());
        v.close(a).unwrap();
        v.close(b).unwrap();
    }

    /// Serves one buffer it keeps a reference to, as a store does.
    struct SharedProvider(Arc<Vec<u8>>);

    impl ViewProvider for SharedProvider {
        fn fetch(&self, _path: &ViewPath) -> Result<Arc<Vec<u8>>> {
            Ok(Arc::clone(&self.0))
        }

        fn metadata(&self, _path: &ViewPath, name: &str) -> Result<String> {
            Err(VfsError::NoAttr {
                name: name.to_string(),
            })
        }
    }

    #[test]
    fn read_to_end_copies_content_it_shares() {
        let provider = Arc::new(SharedProvider(Arc::new(b"stored frame".to_vec())));
        let v = SandVfs::new(Arc::clone(&provider) as Arc<dyn ViewProvider>);
        let fd = v.open("/t/video0001/frame2").unwrap();
        assert_eq!(v.read_to_end(fd).unwrap(), b"stored frame");
        let mut buf = [0u8; 4];
        assert_eq!(v.read(fd, &mut buf).unwrap(), 0);
        v.close(fd).unwrap();
        assert_eq!(provider.0.as_slice(), b"stored frame");
    }

    #[test]
    fn frame_views_fetch_frame_content() {
        let v = vfs();
        let fd = v.open("/t/video0001/frame7").unwrap();
        let bytes = v.read_to_end(fd).unwrap();
        assert_eq!(bytes, vec![7u8; 8]);
        v.close(fd).unwrap();
    }
}
