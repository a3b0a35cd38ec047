//! A pass's round trips to the ring owners: what a job lacks is asked
//! for in one `Fetch` per owner before it materializes anything, and what
//! it computed for other owners is pushed in one `Put` per owner before
//! it delivers. The per-key path, `Inner::lookup`, is what is left for
//! keys nobody asked for ahead.

use crate::chunk::Chunk;
use crate::engine::Inner;
use crate::flight::Claim;
use crate::materialize::{Object, Scratch};
use sand_graph::NodeId;
use std::sync::Arc;

impl Inner {
    /// Asks the ring owners, in one `Fetch` per owner, for every target
    /// the memo and the store lack and a peer owns. Each is claimed on the
    /// engine flight without blocking, and claims are held only across
    /// the request. A hit is validated and adopted — into the store if
    /// the plan caches it, into the memo, and to its claim's joiners; a
    /// miss releases its claim and is remembered, so no lookup of this
    /// pass asks the owner again.
    pub(crate) fn fetch_ahead(&self, chunk: &Chunk, targets: &[NodeId], memo: &Scratch) {
        let Some(remote) = &self.remote else {
            return;
        };
        let mut claimed: Vec<(NodeId, Claim<'_, String, Object>)> = Vec::new();
        for &id in targets {
            let key = chunk.key(id);
            // A target listed twice fails its second claim: this pass
            // holds the first.
            if memo.get(id).is_some()
                || !memo.may_ask(id)
                || !remote.is_remote(key)
                || self.store.contains(key)
            {
                continue;
            }
            if let Some(claim) = self.flight.try_claim(key) {
                claimed.push((id, claim));
            }
        }
        if claimed.is_empty() {
            return;
        }
        let keys: Vec<&str> = claimed.iter().map(|c| chunk.key(c.0)).collect();
        for ((id, claim), bytes) in claimed.into_iter().zip(remote.fetch(&keys)) {
            let adopt = chunk.graph.nodes[id].cached.then(|| chunk.meta(id));
            match bytes.and_then(|bytes| self.adopt(chunk.key(id), bytes, adopt)) {
                Some(object) => {
                    memo.insert(id, Arc::clone(&object.frame));
                    claim.publish(object, false);
                }
                // Remembered before the claim drops, so a pass-mate that
                // joined it and now runs for it does not ask again.
                None => memo.note_asked(id),
            }
        }
    }

    /// Pushes the remotely owned objects `memo`'s pass computed to their
    /// owners, one `Put` per owner. A job calls it before it delivers, so
    /// whoever reads next, on any node, finds them at the owner.
    pub(crate) fn push_queued(&self, memo: &Scratch) {
        let objects = memo.take_pushes();
        if let (Some(remote), false) = (&self.remote, objects.is_empty()) {
            remote.offer(objects);
        }
    }
}
