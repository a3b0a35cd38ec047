//! The `sand-net` wire format: length-prefixed, checksummed frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! The CRC is IEEE CRC-32 over the payload bytes, computed by the value
//! log's own [`sand_storage::vlog::crc32`], so a truncated or bit-flipped
//! frame is rejected before any field is parsed — the receiver never sees
//! a torn message. `payload_len` is validated against [`MAX_FRAME`] *before*
//! allocating, so a corrupt length prefix cannot drive an allocation.
//!
//! The payload is a tag byte followed by fixed-order fields: integers are
//! little-endian, strings and byte blobs are `u32` length + bytes,
//! `Option<u64>` is a presence byte + value. Decoding demands exact
//! consumption — trailing bytes are a protocol error, not slack.
//!
//! Requests carry the Table-2 verb set (`Open`/`Read`/`GetXattr`/`Close`)
//! plus the inter-node object-exchange verbs (`Put`/`Fetch`/`Stat`).
//! `Read` is positional (explicit `offset`) rather than cursor-based so a
//! retried read on a fresh connection is idempotent.
//!
//! `Fetch` and `Put` carry a list: their entries repeat to the end of the
//! payload, at least one, with no count prefix, so a one-entry request is
//! byte for byte the single-key request it replaced. `Found` answers a
//! `Fetch` with one presence byte (and, when present, the bytes) per key,
//! in request order.

use crate::{NetError, Result};
use sand_storage::vlog::crc32;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;

/// The largest frame payload a node sends or accepts (64 MiB); guards
/// against a corrupt or hostile length prefix.
pub const MAX_FRAME: u32 = 64 << 20;

/// Error codes carried by [`Response::Error`]. They mirror
/// `sand_vfs::VfsError` so a remote VFS error round-trips losslessly.
pub mod err_code {
    /// The path does not parse or materialize as any view (ENOENT).
    pub const NO_SUCH_VIEW: u8 = 1;
    /// Provider or store I/O failure (EIO).
    pub const IO: u8 = 2;
    /// Operation on an fd this connection never opened (EBADF).
    pub const BAD_FD: u8 = 3;
    /// Unknown extended attribute (ENODATA).
    pub const NO_ATTR: u8 = 4;
    /// The peer sent a frame this side could not parse.
    pub const PROTOCOL: u8 = 5;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (header + payload) to `w` in one vectored write, so a
/// frame leaves a `TCP_NODELAY` socket as one segment, not two; the loop
/// only resumes a partial write.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| NetError::Protocol {
        what: format!("frame payload of {} bytes overflows u32", payload.len()),
    })?;
    if len > MAX_FRAME {
        return Err(NetError::Protocol {
            what: format!("frame payload of {len} bytes exceeds cap of {MAX_FRAME}"),
        });
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, enforcing `cap` (never above [`MAX_FRAME`])
/// before allocating and rejecting any payload whose checksum does not
/// match.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// between messages); EOF anywhere inside a frame is a protocol error —
/// a torn frame is never surfaced as data.
pub fn read_frame<R: Read>(r: &mut R, cap: u32) -> Result<Option<Vec<u8>>> {
    read_frame_with(cap, |buf| read_full(r, buf))
}

/// [`read_frame`] over any filler: `fill` reads until its buffer is full
/// or EOF and returns the byte count read. Every frame reader (this
/// module's and the server's stop-polling one) validates through here, in
/// one order: the header arrived whole, the length is within `cap`, the
/// payload arrived whole, its checksum matches.
pub(crate) fn read_frame_with<F>(cap: u32, mut fill: F) -> Result<Option<Vec<u8>>>
where
    F: FnMut(&mut [u8]) -> Result<usize>,
{
    let mut header = [0u8; 8];
    match fill(&mut header)? {
        0 => return Ok(None),
        8 => {}
        n => {
            return Err(NetError::Protocol {
                what: format!("connection closed mid-header ({n}/8 bytes)"),
            })
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let cap = cap.min(MAX_FRAME);
    if len > cap {
        return Err(NetError::Protocol {
            what: format!("frame of {len} bytes exceeds cap of {cap}"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    let got = fill(&mut payload)?;
    if got != payload.len() {
        return Err(NetError::Protocol {
            what: format!("connection closed mid-frame ({got}/{len} bytes)"),
        });
    }
    if crc32(&payload) != crc {
        return Err(NetError::Protocol {
            what: "frame checksum mismatch".to_string(),
        });
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns the byte count read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a view path; the server materializes it and returns an fd
    /// scoped to this connection.
    Open { path: String },
    /// Positional read of `len` bytes at `offset` from an open view.
    Read { fd: u64, offset: u64, len: u32 },
    /// Extended attribute of an open view.
    GetXattr { fd: u64, name: String },
    /// Release a descriptor (the paper's `close()` semantics).
    Close { fd: u64 },
    /// Store objects in the serving node's object store (owner push).
    Put { objects: Vec<PutObject> },
    /// Fetch cached objects by key from the serving node's store.
    Fetch { keys: Vec<String> },
    /// Probe an object's presence and tier without moving bytes.
    Stat { key: String },
}

/// One object of a [`Request::Put`], with the store metadata it is kept
/// under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutObject {
    pub key: String,
    pub deadline: Option<u64>,
    pub future_uses: u32,
    pub bytes: Arc<Vec<u8>>,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `Open` succeeded: the fd and the view's total byte size.
    Opened { fd: u64, size: u64 },
    /// `Read` result; `eof` is set when the read reached the view's end.
    Data { bytes: Vec<u8>, eof: bool },
    /// `GetXattr` result.
    Xattr { value: String },
    /// `Close` acknowledged.
    Closed,
    /// `Put` acknowledged: every object is stored.
    PutOk,
    /// `Fetch` answer: one entry per requested key, in request order;
    /// `None` is a miss.
    Found { objects: Vec<Option<Vec<u8>>> },
    /// `Stat` result. `tier` is 1 (memory) or 2 (disk) when present, 0
    /// otherwise; `size` is the byte length when cheaply known (memory
    /// tier), else 0.
    Stat { present: bool, tier: u8, size: u64 },
    /// The operation failed remotely; `code` is one of [`err_code`].
    Error { code: u8, what: String },
}

const TAG_OPEN: u8 = 1;
const TAG_READ: u8 = 2;
const TAG_GETXATTR: u8 = 3;
const TAG_CLOSE: u8 = 4;
const TAG_PUT: u8 = 5;
const TAG_FETCH: u8 = 6;
const TAG_STAT: u8 = 7;

const TAG_OPENED: u8 = 128;
const TAG_DATA: u8 = 129;
const TAG_XATTR: u8 = 130;
const TAG_CLOSED: u8 = 131;
const TAG_PUT_OK: u8 = 132;
// 133 and 134 stay unassigned, so a peer that still answers a fetch with
// them gets a protocol error, not a misread.
const TAG_STAT_R: u8 = 135;
const TAG_ERROR: u8 = 136;
const TAG_FOUND: u8 = 137;

/// A list message needs at least one entry: without a count prefix, an
/// empty list would be a bare tag.
fn non_empty(len: usize, what: &str) -> Result<()> {
    if len == 0 {
        return Err(NetError::Protocol {
            what: format!("{what} with no entries"),
        });
    }
    Ok(())
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        Self { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.buf.push(1);
                self.u64(v);
            }
            None => self.buf.push(0),
        }
    }
    fn bytes(&mut self, v: &[u8]) -> Result<()> {
        let len = u32::try_from(v.len()).map_err(|_| NetError::Protocol {
            what: "field longer than u32".to_string(),
        })?;
        self.u32(len);
        self.buf.extend_from_slice(v);
        Ok(())
    }
    fn str(&mut self, v: &str) -> Result<()> {
        self.bytes(v.as_bytes())
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn short(&self, what: &str) -> NetError {
        NetError::Protocol {
            what: format!("truncated field: {what}"),
        }
    }
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short(what))?;
        if end > self.buf.len() {
            return Err(self.short(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn opt_u64(&mut self, what: &str) -> Result<Option<u64>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            f => Err(NetError::Protocol {
                what: format!("bad presence flag {f} for {what}"),
            }),
        }
    }
    fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            f => Err(NetError::Protocol {
                what: format!("bad bool {f} for {what}"),
            }),
        }
    }
    fn bytes(&mut self, what: &str) -> Result<Vec<u8>> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }
    fn str(&mut self, what: &str) -> Result<String> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw).map_err(|_| NetError::Protocol {
            what: format!("non-UTF-8 string for {what}"),
        })
    }
    /// Parses entries with `entry` until the payload ends: at least one.
    fn entries<T>(&mut self, mut entry: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![entry(self)?];
        while self.pos < self.buf.len() {
            out.push(entry(self)?);
        }
        Ok(out)
    }
    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(NetError::Protocol {
                what: format!("{} trailing bytes after message", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

impl Request {
    /// Serializes to a payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut e;
        match self {
            Request::Open { path } => {
                e = Enc::new(TAG_OPEN);
                e.str(path)?;
            }
            Request::Read { fd, offset, len } => {
                e = Enc::new(TAG_READ);
                e.u64(*fd);
                e.u64(*offset);
                e.u32(*len);
            }
            Request::GetXattr { fd, name } => {
                e = Enc::new(TAG_GETXATTR);
                e.u64(*fd);
                e.str(name)?;
            }
            Request::Close { fd } => {
                e = Enc::new(TAG_CLOSE);
                e.u64(*fd);
            }
            Request::Put { objects } => {
                non_empty(objects.len(), "put")?;
                e = Enc::new(TAG_PUT);
                for o in objects {
                    e.str(&o.key)?;
                    e.opt_u64(o.deadline);
                    e.u32(o.future_uses);
                    e.bytes(&o.bytes)?;
                }
            }
            Request::Fetch { keys } => {
                non_empty(keys.len(), "fetch")?;
                e = Enc::new(TAG_FETCH);
                for key in keys {
                    e.str(key)?;
                }
            }
            Request::Stat { key } => {
                e = Enc::new(TAG_STAT);
                e.str(key)?;
            }
        }
        Ok(e.buf)
    }

    /// Parses a payload; demands exact consumption.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let tag = d.u8("request tag")?;
        let req = match tag {
            TAG_OPEN => Request::Open {
                path: d.str("open.path")?,
            },
            TAG_READ => Request::Read {
                fd: d.u64("read.fd")?,
                offset: d.u64("read.offset")?,
                len: d.u32("read.len")?,
            },
            TAG_GETXATTR => Request::GetXattr {
                fd: d.u64("getxattr.fd")?,
                name: d.str("getxattr.name")?,
            },
            TAG_CLOSE => Request::Close {
                fd: d.u64("close.fd")?,
            },
            TAG_PUT => Request::Put {
                objects: d.entries(|d| {
                    Ok(PutObject {
                        key: d.str("put.key")?,
                        deadline: d.opt_u64("put.deadline")?,
                        future_uses: d.u32("put.future_uses")?,
                        bytes: Arc::new(d.bytes("put.bytes")?),
                    })
                })?,
            },
            TAG_FETCH => Request::Fetch {
                keys: d.entries(|d| d.str("fetch.key"))?,
            },
            TAG_STAT => Request::Stat {
                key: d.str("stat.key")?,
            },
            t => {
                return Err(NetError::Protocol {
                    what: format!("unknown request tag {t}"),
                })
            }
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes to a payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut e;
        match self {
            Response::Opened { fd, size } => {
                e = Enc::new(TAG_OPENED);
                e.u64(*fd);
                e.u64(*size);
            }
            Response::Data { bytes, eof } => {
                e = Enc::new(TAG_DATA);
                e.u8(u8::from(*eof));
                e.bytes(bytes)?;
            }
            Response::Xattr { value } => {
                e = Enc::new(TAG_XATTR);
                e.str(value)?;
            }
            Response::Closed => e = Enc::new(TAG_CLOSED),
            Response::PutOk => e = Enc::new(TAG_PUT_OK),
            Response::Found { objects } => {
                non_empty(objects.len(), "found")?;
                e = Enc::new(TAG_FOUND);
                for object in objects {
                    match object {
                        Some(bytes) => {
                            e.u8(1);
                            e.bytes(bytes)?;
                        }
                        None => e.u8(0),
                    }
                }
            }
            Response::Stat {
                present,
                tier,
                size,
            } => {
                e = Enc::new(TAG_STAT_R);
                e.u8(u8::from(*present));
                e.u8(*tier);
                e.u64(*size);
            }
            Response::Error { code, what } => {
                e = Enc::new(TAG_ERROR);
                e.u8(*code);
                e.str(what)?;
            }
        }
        Ok(e.buf)
    }

    /// Parses a payload; demands exact consumption.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let tag = d.u8("response tag")?;
        let resp = match tag {
            TAG_OPENED => Response::Opened {
                fd: d.u64("opened.fd")?,
                size: d.u64("opened.size")?,
            },
            TAG_DATA => Response::Data {
                eof: d.bool("data.eof")?,
                bytes: d.bytes("data.bytes")?,
            },
            TAG_XATTR => Response::Xattr {
                value: d.str("xattr.value")?,
            },
            TAG_CLOSED => Response::Closed,
            TAG_PUT_OK => Response::PutOk,
            TAG_FOUND => Response::Found {
                objects: d.entries(|d| {
                    Ok(match d.bool("found.present")? {
                        true => Some(d.bytes("found.bytes")?),
                        false => None,
                    })
                })?,
            },
            TAG_STAT_R => Response::Stat {
                present: d.bool("stat.present")?,
                tier: d.u8("stat.tier")?,
                size: d.u64("stat.size")?,
            },
            TAG_ERROR => Response::Error {
                code: d.u8("error.code")?,
                what: d.str("error.what")?,
            },
            t => {
                return Err(NetError::Protocol {
                    what: format!("unknown response tag {t}"),
                })
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = req.encode().unwrap();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let enc = resp.encode().unwrap();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    #[test]
    fn messages_roundtrip() {
        roundtrip_req(Request::Open {
            path: "/train/v0.mp4".into(),
        });
        roundtrip_req(Request::Read {
            fd: 3,
            offset: 4096,
            len: 65536,
        });
        roundtrip_req(Request::GetXattr {
            fd: 3,
            name: "user.sand.label".into(),
        });
        roundtrip_req(Request::Close { fd: 3 });
        roundtrip_req(Request::Put {
            objects: vec![PutObject {
                key: "obj/7".into(),
                deadline: Some(42),
                future_uses: 2,
                bytes: Arc::new(vec![1, 2, 3]),
            }],
        });
        roundtrip_req(Request::Put {
            objects: vec![
                PutObject {
                    key: String::new(),
                    deadline: None,
                    future_uses: 0,
                    bytes: Arc::new(Vec::new()),
                },
                PutObject {
                    key: "obj/8".into(),
                    deadline: Some(1),
                    future_uses: 3,
                    bytes: Arc::new(vec![4; 9]),
                },
            ],
        });
        roundtrip_req(Request::Fetch {
            keys: vec!["obj/7".into()],
        });
        roundtrip_req(Request::Fetch {
            keys: vec!["obj/7".into(), String::new(), "obj/9".into()],
        });
        roundtrip_req(Request::Stat {
            key: "obj/7".into(),
        });
        roundtrip_resp(Response::Opened { fd: 3, size: 9000 });
        roundtrip_resp(Response::Data {
            bytes: vec![0; 17],
            eof: true,
        });
        roundtrip_resp(Response::Xattr {
            value: "cat".into(),
        });
        roundtrip_resp(Response::Closed);
        roundtrip_resp(Response::PutOk);
        roundtrip_resp(Response::Found {
            objects: vec![Some(vec![9; 5])],
        });
        roundtrip_resp(Response::Found {
            objects: vec![None, Some(Vec::new()), Some(vec![1, 2]), None],
        });
        roundtrip_resp(Response::Stat {
            present: true,
            tier: 1,
            size: 123,
        });
        roundtrip_resp(Response::Error {
            code: err_code::NO_SUCH_VIEW,
            what: "nope".into(),
        });
    }

    #[test]
    fn frame_roundtrips_through_a_buffer() {
        let payload = Request::Fetch {
            keys: vec!["k".into()],
        }
        .encode()
        .unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        let got = read_frame(&mut r, 1 << 20).unwrap().unwrap();
        assert_eq!(got, payload);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut r, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut &buf[..], 1 << 20).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
    }

    #[test]
    fn bit_flip_is_rejected() {
        let payload = Request::Open {
            path: "/t/v.mp4".into(),
        }
        .encode()
        .unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        for i in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x10;
            let framed = read_frame(&mut &flipped[..], 1 << 20);
            let torn = match framed {
                Err(NetError::Protocol { .. }) => true,
                Ok(Some(p)) => {
                    // A flip confined to the length prefix can still frame
                    // (shorter/longer read) but must then fail the CRC or
                    // the decoder — never parse back to the original.
                    Request::decode(&p).is_err()
                }
                _ => true,
            };
            assert!(torn, "bit flip at byte {i} survived");
        }
    }

    /// One-entry `Fetch` and `Put` payloads are the single-key requests
    /// they replaced, byte for byte (constants from the single-key
    /// encoder).
    #[test]
    fn a_one_entry_request_encodes_as_before() {
        let fetch = Request::Fetch {
            keys: vec!["video0003/frame5".into()],
        };
        let expected: [u8; 21] = [
            6, 16, 0, 0, 0, 118, 105, 100, 101, 111, 48, 48, 48, 51, 47, 102, 114, 97, 109, 101, 53,
        ];
        assert_eq!(fetch.encode().unwrap(), expected);
        let put = Request::Put {
            objects: vec![PutObject {
                key: "video0003/frame5/r0".into(),
                deadline: None,
                future_uses: 7,
                bytes: Arc::new(vec![9, 8, 7, 6]),
            }],
        };
        let expected: [u8; 37] = [
            5, 19, 0, 0, 0, 118, 105, 100, 101, 111, 48, 48, 48, 51, 47, 102, 114, 97, 109, 101,
            53, 47, 114, 48, 0, 7, 0, 0, 0, 4, 0, 0, 0, 9, 8, 7, 6,
        ];
        assert_eq!(put.encode().unwrap(), expected);
    }

    #[test]
    fn an_empty_list_is_a_protocol_error() {
        let empty = [
            Request::Fetch { keys: Vec::new() }.encode(),
            Request::Put {
                objects: Vec::new(),
            }
            .encode(),
            Response::Found {
                objects: Vec::new(),
            }
            .encode(),
        ];
        for encoded in empty {
            assert!(matches!(encoded, Err(NetError::Protocol { .. })));
        }
        for tag in [TAG_FETCH, TAG_PUT] {
            assert!(Request::decode(&[tag]).is_err());
        }
        assert!(Response::decode(&[TAG_FOUND]).is_err());
    }

    #[test]
    fn trailing_bytes_are_a_protocol_error() {
        let mut enc = Request::Close { fd: 3 }.encode().unwrap();
        enc.push(0);
        assert!(matches!(
            Request::decode(&enc),
            Err(NetError::Protocol { .. })
        ));
    }

    /// The bytes of two frames, fixed before the checksum kernel changed:
    /// nodes built before and after it still talk to each other.
    #[test]
    fn written_frame_bytes_are_fixed() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf[..8], [0xe8, 0x03, 0x00, 0x00, 0x1e, 0x16, 0x02, 0x89]);
        assert_eq!(buf[8..], payload[..]);

        let put = Request::Put {
            objects: vec![PutObject {
                key: "obj/7".into(),
                deadline: Some(42),
                future_uses: 2,
                bytes: Arc::new(vec![1, 2, 3]),
            }],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &put.encode().unwrap()).unwrap();
        let expected: [u8; 38] = [
            0x1e, 0x00, 0x00, 0x00, 0x6f, 0x8a, 0xa6, 0xe7, 0x05, 0x05, 0x00, 0x00, 0x00, 0x6f,
            0x62, 0x6a, 0x2f, 0x37, 0x01, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03,
        ];
        assert_eq!(buf, expected);
    }
}
