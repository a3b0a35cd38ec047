//! `RemoteTier` — the cluster cache tier below mem/disk.
//!
//! On a local store miss the engine consults the [`Placement`] ring: if
//! another node owns the key, fetch the compressed object from it before
//! falling back to materialization. Conversely, when this node
//! materializes an object *owned elsewhere* (it needed the bytes now and
//! the owner didn't have them yet), it pushes the result to the owner so
//! the next consumer anywhere in the cluster hits. Together the two
//! paths give the cluster-wide invariant the single process already has:
//! **a shared-ancestor object materializes at most once** — modulo
//! races, which cost duplicate work, never wrong bytes.
//!
//! ## Failure contract
//!
//! Every method here is infallible by signature: a timeout, refused
//! connection, or protocol error after bounded retries surfaces as
//! "not available remotely" (`None`) and the caller materializes
//! locally. A per-peer consecutive-failure breaker then holds the peer
//! **down** for a cooldown window, so a dead node costs one timed-out
//! request per window instead of one per object.
//!
//! `fetch` and `offer` take lists and send one request per owning peer:
//! a job asks for all the keys it lacks in one round trip and pushes
//! what it computed in one more. The breaker counts one outcome per
//! request. The ring itself never
//! changes shape on failure — keys do not migrate during an outage, so
//! recovery finds the cache where it was left.
//!
//! Time spent in this tier is charged to the dedicated `remote` stall
//! segment (the tenth of the exact-sum breakdown), never mixed into
//! `store_io` — the telemetry consumer can tell network stalls from
//! disk stalls at a glance.

use crate::client::{self, ClientConfig, ViewClient};
use crate::placement::Placement;
use crate::wire::{PutObject, Request};
use crate::Result;
use sand_sanitizer::TrackedMutex;
use sand_telemetry::{record_stage, NetMetrics, Stage, Telemetry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Virtual nodes per physical node on the placement ring.
const VNODES: usize = 64;

/// One peer node: its ring identity and dial address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerSpec {
    /// Ring identity; must be unique and agreed cluster-wide.
    pub node_id: String,
    /// TCP address of the peer's [`crate::ViewServer`].
    pub addr: SocketAddr,
}

/// Remote-tier configuration, carried by `EngineConfig::remote`.
#[derive(Clone, Debug)]
pub struct RemoteTierConfig {
    /// This node's ring identity.
    pub node_id: String,
    /// The *other* nodes (self is implied on the ring).
    pub peers: Vec<PeerSpec>,
    /// Per-attempt timeout for remote fetches and pushes.
    pub fetch_timeout: Duration,
    /// Additional attempts after the first.
    pub retries: u32,
    /// Push locally-materialized, remotely-owned objects to their owner.
    pub push_to_owner: bool,
    /// Consecutive failures before a peer is held down.
    pub failure_threshold: u32,
    /// How long a down peer is skipped before being probed again.
    pub failure_cooldown: Duration,
}

impl Default for RemoteTierConfig {
    fn default() -> Self {
        Self {
            node_id: "node0".to_string(),
            peers: Vec::new(),
            fetch_timeout: Duration::from_millis(250),
            retries: 1,
            push_to_owner: true,
            failure_threshold: 2,
            failure_cooldown: Duration::from_secs(1),
        }
    }
}

/// Per-peer circuit-breaker state.
struct Health {
    consecutive_failures: u32,
    down_until: Option<Instant>,
}

struct Peer {
    client: ViewClient,
    health: TrackedMutex<Health>,
}

/// The cluster cache tier. Cheap to share (`Arc` it once in the engine).
pub struct RemoteTier {
    config: RemoteTierConfig,
    placement: Placement,
    peers: HashMap<String, Peer>,
    metrics: NetMetrics,
}

impl std::fmt::Debug for RemoteTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteTier")
            .field("node_id", &self.config.node_id)
            .field("peers", &self.peers.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl RemoteTier {
    pub fn new(config: RemoteTierConfig, telemetry: &Telemetry) -> Self {
        let mut ids: Vec<String> = config.peers.iter().map(|p| p.node_id.clone()).collect();
        ids.push(config.node_id.clone());
        let placement = Placement::new(&ids, VNODES);
        let client_config = ClientConfig {
            timeout: config.fetch_timeout,
            retries: config.retries,
        };
        let peers = config
            .peers
            .iter()
            .map(|p| {
                (
                    p.node_id.clone(),
                    Peer {
                        client: ViewClient::new(p.addr, client_config.clone(), telemetry),
                        health: TrackedMutex::new(
                            "net.remote.health",
                            Health {
                                consecutive_failures: 0,
                                down_until: None,
                            },
                        ),
                    },
                )
            })
            .collect();
        Self {
            metrics: NetMetrics::register(telemetry),
            config,
            placement,
            peers,
        }
    }

    /// This node's ring identity.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// Peers on the ring besides this node.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The ring owner of `key`.
    pub fn owner_of(&self, key: &str) -> Option<&str> {
        self.placement.owner_of(key)
    }

    /// Whether `key` is owned by some *other* node.
    pub fn is_remote(&self, key: &str) -> bool {
        self.owner_of(key)
            .map(|o| o != self.config.node_id)
            .unwrap_or(false)
    }

    /// Peers currently held down by the failure breaker.
    pub fn peers_down(&self) -> usize {
        let now = Instant::now();
        self.peers
            .values()
            .filter(|p| {
                p.health
                    .lock()
                    .down_until
                    .map(|until| now < until)
                    .unwrap_or(false)
            })
            .count()
    }

    /// The peer that owns `key` on the ring; `None` when this node does.
    fn owner_peer(&self, key: &str) -> Option<&Peer> {
        let owner = self.owner_of(key)?;
        if owner == self.config.node_id {
            return None;
        }
        self.peers.get(owner)
    }

    /// Whether `peer` may be dialed right now; expired cooldowns clear.
    fn peer_usable(&self, peer: &Peer) -> bool {
        let mut h = peer.health.lock();
        match h.down_until {
            Some(until) if Instant::now() < until => false,
            Some(_) => {
                // Cooldown over — allow one probe; failures re-arm it.
                h.down_until = None;
                drop(h);
                self.publish_peers_down();
                true
            }
            None => true,
        }
    }

    fn mark_success(&self, peer: &Peer) {
        let mut h = peer.health.lock();
        h.consecutive_failures = 0;
        if h.down_until.take().is_some() {
            drop(h);
            self.publish_peers_down();
        }
    }

    fn mark_failure(&self, peer: &Peer) {
        let mut h = peer.health.lock();
        h.consecutive_failures += 1;
        if h.consecutive_failures >= self.config.failure_threshold.max(1) {
            h.down_until = Some(Instant::now() + self.config.failure_cooldown);
            drop(h);
            self.publish_peers_down();
        }
    }

    fn publish_peers_down(&self) {
        self.metrics.peers_down.set(self.peers_down() as i64);
    }

    /// `items` grouped by the peer that owns each one's key, in first-seen
    /// order; self-owned keys are left out.
    fn by_owner<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        key: impl Fn(&T) -> &str,
    ) -> Vec<(&Peer, Vec<T>)> {
        let mut groups: Vec<(&Peer, Vec<T>)> = Vec::new();
        for item in items {
            let Some(peer) = self.owner_peer(key(&item)) else {
                continue;
            };
            match groups.iter_mut().find(|(p, _)| std::ptr::eq(*p, peer)) {
                Some((_, group)) => group.push(item),
                None => groups.push((peer, vec![item])),
            }
        }
        groups
    }

    /// Consults the ring and fetches `keys` from their owners, one
    /// `Fetch` per owning peer; the answer has one entry per key, in
    /// order.
    ///
    /// `None` means "not available remotely" for *any* reason — self-
    /// owned key, owner down or unreachable, clean miss — and the caller
    /// should materialize locally. Self-owned keys and keys of down
    /// peers cost no dial. Network time is charged to the `remote` stall
    /// segment once per request; hits, misses and errors are counted per
    /// key, `fetch_us` per request.
    ///
    /// Collapsing concurrent misses for a key is the caller's job (the
    /// engine fetches under its per-key flight claims).
    pub fn fetch(&self, keys: &[&str]) -> Vec<Option<Vec<u8>>> {
        let mut found = vec![None; keys.len()];
        for (peer, asked) in self.by_owner(keys.iter().copied().enumerate(), |k| k.1) {
            if !self.peer_usable(peer) {
                continue;
            }
            let request = Request::Fetch {
                keys: asked.iter().map(|(_, k)| k.to_string()).collect(),
            };
            let start = Instant::now();
            let outcome = peer
                .client
                .call(&request)
                .and_then(|resp| client::objects_found(resp, asked.len()));
            let spent = start.elapsed();
            record_stage(Stage::Remote, spent);
            match outcome {
                Ok(objects) => {
                    self.mark_success(peer);
                    let m = &self.metrics;
                    let hits = objects.iter().filter(|o| o.is_some()).count() as u64;
                    m.fetch_hits.add(hits);
                    m.fetch_misses.add(objects.len() as u64 - hits);
                    m.fetch_us.observe_duration(spent);
                    for ((i, _), object) in asked.into_iter().zip(objects) {
                        found[i] = object;
                    }
                }
                Err(_) => {
                    self.mark_failure(peer);
                    self.metrics.fetch_errors.add(asked.len() as u64);
                }
            }
        }
        found
    }

    /// Best-effort push of locally-materialized objects to their ring
    /// owners, one `Put` per owning peer. Self-owned keys, down owners
    /// and a disabled push are skipped; a failed push leaves the objects
    /// local and is never an error.
    pub fn offer(&self, objects: Vec<PutObject>) {
        if !self.config.push_to_owner {
            return;
        }
        for (peer, objects) in self.by_owner(objects, |o| o.key.as_str()) {
            if !self.peer_usable(peer) {
                continue;
            }
            let pushed = objects.len() as u64;
            let start = Instant::now();
            let outcome = peer
                .client
                .call(&Request::Put { objects })
                .and_then(client::stored);
            record_stage(Stage::Remote, start.elapsed());
            match outcome {
                Ok(()) => {
                    self.mark_success(peer);
                    self.metrics.pushes.add(pushed);
                }
                Err(_) => {
                    self.mark_failure(peer);
                    self.metrics.push_errors.add(pushed);
                }
            }
        }
    }

    /// Direct probe of the owner's cache (diagnostics; not on the serve
    /// path).
    pub fn stat(&self, key: &str) -> Result<Option<(u8, u64)>> {
        match self.owner_peer(key) {
            Some(peer) => peer.client.stat(key),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn self_owned_keys_never_dial() {
        let tier = RemoteTier::new(
            RemoteTierConfig {
                node_id: "only".to_string(),
                ..RemoteTierConfig::default()
            },
            &Telemetry::disabled(),
        );
        assert_eq!(tier.peer_count(), 0);
        assert!(!tier.is_remote("any/key"));
        assert_eq!(tier.fetch(&["any/key"]), [None]);
        tier.offer(vec![PutObject {
            key: "any/key".to_string(),
            deadline: None,
            future_uses: 1,
            bytes: Arc::new(b"bytes".to_vec()),
        }]);
    }

    #[test]
    fn unreachable_owner_degrades_and_breaks() {
        // Port 9 on localhost: connection refused, immediately.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let tier = RemoteTier::new(
            RemoteTierConfig {
                node_id: "a".to_string(),
                peers: vec![PeerSpec {
                    node_id: "b".to_string(),
                    addr,
                }],
                fetch_timeout: Duration::from_millis(50),
                retries: 0,
                failure_threshold: 2,
                failure_cooldown: Duration::from_secs(60),
                ..RemoteTierConfig::default()
            },
            &Telemetry::disabled(),
        );
        // Some key must be owned by b; find one.
        let key = (0..1000)
            .map(|i| format!("obj/{i}"))
            .find(|k| tier.is_remote(k))
            .expect("two-node ring leaves b some keys");
        assert_eq!(tier.fetch(&[&key]), [None], "refused connect degrades");
        assert_eq!(tier.fetch(&[&key]), [None]);
        assert_eq!(tier.peers_down(), 1, "breaker opened after 2 failures");
        // While down, fetches skip the peer entirely (still None).
        assert_eq!(tier.fetch(&[&key]), [None]);
    }
}
