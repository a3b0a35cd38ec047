//! The custom-augmentation service (Sec. 5.5 of the paper).
//!
//! SAND ships a default operator library, but specialized transformations
//! live outside it. The paper's answer is an RPC mechanism: custom
//! functions execute in a separate process so external libraries and
//! runtimes cannot conflict with the engine core. This module reproduces
//! the *protocol* of that design in-process: custom ops run on a
//! dedicated service thread, requests and responses cross a channel
//! boundary, and — crucially — frames are **serialized** across it (the
//! self-describing cache format), exactly as bytes would cross a process
//! boundary. The engine never shares memory with custom code.
//!
//! Custom operations must be dimension-preserving (the planner tracks
//! output geometry statically); the service enforces this at runtime.

use crate::{CoreError, Result};
use crossbeam::channel::{unbounded, Receiver, Sender};
use sand_frame::{compress_frame, decompress_frame, Frame};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::thread::JoinHandle;

/// A user-provided frame transformation.
///
/// Implementations receive an owned decoded frame and return the
/// transformed frame with identical dimensions and format.
pub trait CustomOp: Send {
    /// Applies the transformation.
    fn apply(&self, frame: Frame) -> std::result::Result<Frame, String>;
}

impl<F> CustomOp for F
where
    F: Fn(Frame) -> std::result::Result<Frame, String> + Send,
{
    fn apply(&self, frame: Frame) -> std::result::Result<Frame, String> {
        self(frame)
    }
}

/// One serialized request: op name + frame bytes. The service's channel
/// carries `Option<Request>`; `None` stops the service.
struct Request {
    op: String,
    frame_bytes: Vec<u8>,
    reply: Sender<std::result::Result<Vec<u8>, String>>,
}

/// Handle to a running augmentation service. Cloneable; every clone talks
/// to the same service thread.
#[derive(Clone)]
pub struct AugClient {
    tx: Sender<Option<Request>>,
}

impl std::fmt::Debug for AugClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AugClient").finish_non_exhaustive()
    }
}

impl AugClient {
    /// Applies the named custom op to a frame, round-tripping it through
    /// the service boundary.
    pub fn apply(&self, op: &str, frame: &Frame) -> Result<Frame> {
        let (reply_tx, reply_rx) = unbounded();
        let request = Request {
            op: op.to_string(),
            frame_bytes: compress_frame(frame),
            reply: reply_tx,
        };
        self.tx.send(Some(request)).map_err(|_| CoreError::State {
            what: "augmentation service is down".into(),
        })?;
        let bytes = reply_rx
            .recv()
            .map_err(|_| CoreError::State {
                what: "augmentation service dropped reply".into(),
            })?
            .map_err(|e| CoreError::State {
                what: format!("custom op failed: {e}"),
            })?;
        let out = decompress_frame(&bytes)?;
        if out.width() != frame.width()
            || out.height() != frame.height()
            || out.format() != frame.format()
        {
            return Err(CoreError::State {
                what: format!("custom op `{op}` changed frame geometry"),
            });
        }
        Ok(out)
    }
}

/// The augmentation service: owns the registry and its worker thread.
pub struct AugService {
    client: AugClient,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AugService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AugService").finish_non_exhaustive()
    }
}

fn service_loop(rx: Receiver<Option<Request>>, registry: HashMap<String, Box<dyn CustomOp>>) {
    while let Ok(Some(req)) = rx.recv() {
        let result = (|| -> std::result::Result<Vec<u8>, String> {
            let op = registry
                .get(&req.op)
                .ok_or_else(|| format!("unknown custom op `{}`", req.op))?;
            let frame =
                decompress_frame(&req.frame_bytes).map_err(|e| format!("bad frame bytes: {e}"))?;
            // A panicking op fails its own request, not the service: the
            // thread lives on for every later one.
            let mut out = panic::catch_unwind(AssertUnwindSafe(|| op.apply(frame)))
                .map_err(|_| format!("custom op `{}` panicked", req.op))??;
            out.meta.aug_depth += 1;
            Ok(compress_frame(&out))
        })();
        // Client may have given up; that is not a service error.
        let _ = req.reply.send(result);
    }
}

impl AugService {
    /// Starts the service with the given registry.
    #[must_use]
    pub fn start(registry: HashMap<String, Box<dyn CustomOp>>) -> Self {
        let (tx, rx) = unbounded();
        let handle = std::thread::Builder::new()
            .name("sand-aug-service".into())
            .spawn(move || service_loop(rx, registry))
            .expect("spawn augmentation service");
        AugService {
            client: AugClient { tx },
            handle: Some(handle),
        }
    }

    /// A builder-style helper for registering ops.
    #[must_use]
    pub fn builder() -> AugServiceBuilder {
        AugServiceBuilder {
            registry: HashMap::new(),
        }
    }

    /// Handle for submitting requests.
    #[must_use]
    pub fn client(&self) -> AugClient {
        self.client.clone()
    }
}

impl Drop for AugService {
    fn drop(&mut self) {
        // Stop the loop, then join. Dropping this handle's sender alone
        // would not end it while a client lives (an engine holds one),
        // and the join would wait forever. Requests queued before the
        // stop are answered; a client's later ones fail.
        let _ = self.client.tx.send(None);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Builder collecting custom op registrations.
#[derive(Default)]
pub struct AugServiceBuilder {
    registry: HashMap<String, Box<dyn CustomOp>>,
}

impl AugServiceBuilder {
    /// Registers an op under `name`.
    #[must_use]
    pub fn register(mut self, name: &str, op: Box<dyn CustomOp>) -> Self {
        self.registry.insert(name.to_string(), op);
        self
    }

    /// Starts the service.
    #[must_use]
    pub fn start(self) -> AugService {
        AugService::start(self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_frame::PixelFormat;

    fn sepia(mut frame: Frame) -> std::result::Result<Frame, String> {
        for px in frame.as_bytes_mut().chunks_exact_mut(3) {
            let (r, g, b) = (f32::from(px[0]), f32::from(px[1]), f32::from(px[2]));
            px[0] = (0.393 * r + 0.769 * g + 0.189 * b).min(255.0) as u8;
            px[1] = (0.349 * r + 0.686 * g + 0.168 * b).min(255.0) as u8;
            px[2] = (0.272 * r + 0.534 * g + 0.131 * b).min(255.0) as u8;
        }
        Ok(frame)
    }

    #[test]
    fn custom_op_roundtrips_through_service() {
        let service = AugService::builder()
            .register("sepia", Box::new(sepia))
            .start();
        let client = service.client();
        let mut f = Frame::zeroed(4, 4, PixelFormat::Rgb8).unwrap();
        f.set_pixel(0, 0, &[100, 100, 100]).unwrap();
        let out = client.apply("sepia", &f).unwrap();
        assert_eq!(out.pixel(0, 0).unwrap(), &[135, 120, 93]);
        assert_eq!(out.meta.aug_depth, f.meta.aug_depth + 1);
    }

    #[test]
    fn unknown_op_is_an_error() {
        let service = AugService::builder().start();
        let client = service.client();
        let f = Frame::zeroed(2, 2, PixelFormat::Rgb8).unwrap();
        assert!(matches!(
            client.apply("nope", &f),
            Err(CoreError::State { .. })
        ));
    }

    #[test]
    fn geometry_changing_op_rejected() {
        let shrink = |f: Frame| -> std::result::Result<Frame, String> {
            Frame::zeroed(f.width() / 2, f.height(), f.format()).map_err(|e| e.to_string())
        };
        let service = AugService::builder()
            .register("shrink", Box::new(shrink))
            .start();
        let client = service.client();
        let f = Frame::zeroed(4, 4, PixelFormat::Rgb8).unwrap();
        assert!(matches!(
            client.apply("shrink", &f),
            Err(CoreError::State { .. })
        ));
    }

    #[test]
    fn op_failure_propagates() {
        let bomb = |_: Frame| -> std::result::Result<Frame, String> { Err("boom".into()) };
        let service = AugService::builder()
            .register("bomb", Box::new(bomb))
            .start();
        let client = service.client();
        let f = Frame::zeroed(2, 2, PixelFormat::Rgb8).unwrap();
        let err = client.apply("bomb", &f).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn a_panicking_op_fails_its_request_and_the_service_lives_on() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let flaky = move |f: Frame| -> std::result::Result<Frame, String> {
            if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 0 {
                panic!("first call fails");
            }
            sepia(f)
        };
        let service = AugService::builder()
            .register("flaky", Box::new(flaky))
            .start();
        let client = service.client();
        let mut f = Frame::zeroed(4, 4, PixelFormat::Rgb8).unwrap();
        f.set_pixel(0, 0, &[100, 100, 100]).unwrap();
        let err = client.apply("flaky", &f).unwrap_err();
        assert!(
            err.to_string().contains("custom op `flaky` panicked"),
            "{err}"
        );
        let out = client.apply("flaky", &f).unwrap();
        assert_eq!(out.pixel(0, 0).unwrap(), &[135, 120, 93]);
    }

    #[test]
    fn dropping_the_service_stops_it_while_a_client_lives() {
        let service = AugService::builder()
            .register("sepia", Box::new(sepia))
            .start();
        let client = service.client();
        let f = Frame::zeroed(4, 4, PixelFormat::Rgb8).unwrap();
        client.apply("sepia", &f).unwrap();
        // Returns, although `client` still holds the channel open.
        drop(service);
        let err = client.apply("sepia", &f).unwrap_err();
        assert!(err.to_string().contains("augmentation service"), "{err}");
    }

    #[test]
    fn concurrent_clients_share_one_service() {
        let service = AugService::builder()
            .register("id", Box::new(|f: Frame| Ok(f)))
            .start();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let client = service.client();
            handles.push(std::thread::spawn(move || {
                let f = Frame::zeroed(8, 8, PixelFormat::Rgb8).unwrap();
                for _ in 0..20 {
                    client.apply("id", &f).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
