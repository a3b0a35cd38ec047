//! Concurrency-configuration analyses (`SL032`–`SL040`).
//!
//! These catch configurations whose concurrent machinery is wired up but
//! cannot help — or actively hurts. They need no graph: everything is
//! decidable from [`LintOptions`] alone, so the family runs even when dry
//! planning fails.

use crate::{Diagnostic, LintOptions, Severity};

/// Lints the concurrency-relevant corners of the engine configuration.
#[must_use]
pub fn lint_concurrency(opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_single_shard_prefetch(opts, &mut out);
    lint_sanitize_in_release(opts, &mut out);
    lint_persistent_without_budget(opts, &mut out);
    lint_remote_without_peers(opts, &mut out);
    lint_remote_timeout_vs_budget(opts, &mut out);
    lint_fleet_weights_and_budget(opts, &mut out);
    lint_fleet_without_telemetry(opts, &mut out);
    out
}

/// `SL032`: prefetching into a single-shard store.
///
/// With `store_shards == 1`, every prefetch worker, the demand path, and
/// the coordinated Algorithm-1 sweep all serialize on one shard lock.
/// The prefetcher's back-pressure check (`pending x batch bytes` vs. the
/// memory budget) then measures a window it can never fill faster than
/// the demand path drains it — the speculative jobs mostly wait in line
/// behind the consumer they are meant to hide latency from.
fn lint_single_shard_prefetch(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    if opts.prefetch_depth > 0 && opts.store_shards <= 1 {
        out.push(Diagnostic {
            code: "SL032",
            severity: Severity::Warn,
            location: "store.shards".into(),
            message: format!(
                "prefetch_depth = {} with a single store shard: prefetch \
                 workers, the demand path, and the budget sweep all \
                 serialize on one shard lock, so speculation mostly queues \
                 behind the consumer it should be hiding latency from",
                opts.prefetch_depth
            ),
            help: "raise store.shards (e.g. to the worker count) so \
                   prefetch jobs and demand reads can touch the store \
                   concurrently, or set prefetch_depth = 0"
                .into(),
        });
    }
}

/// `SL033`: sanitizer instrumentation compiled into a release build.
///
/// The `sanitize` feature swaps every engine lock for a tracked wrapper
/// that records acquisition order and lockset state on each operation.
/// That is the point in tests — and pure overhead in a release binary,
/// where it also skews any benchmark numbers collected from the run.
fn lint_sanitize_in_release(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    if opts.sanitize && opts.release_build {
        out.push(Diagnostic {
            code: "SL033",
            severity: Severity::Warn,
            location: "features.sanitize".into(),
            message: "the `sanitize` feature is enabled in a release build: \
                      every lock operation records order-graph and lockset \
                      state, distorting throughput and benchmark numbers"
                .into(),
            help: "reserve `--features sanitize` for test and CI runs; \
                   build release binaries without it"
                .into(),
        });
    }
}

/// `SL036`: a persistent tier with a zero disk budget.
///
/// With `disk_budget == 0` the watermark is also zero, so the
/// Algorithm-1 sweep evicts every object the instant a put lands on the
/// disk tier: the store pays the value-log append (and its fsync-adjacent
/// latency, counted as `persist` stall) for objects that can never
/// survive to a restart, and spills from the memory tier have nowhere to
/// land. The configuration says "durable" and delivers neither
/// durability nor capacity — deny it up front.
fn lint_persistent_without_budget(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    if opts.persistent && opts.disk_budget == 0 {
        out.push(Diagnostic {
            code: "SL036",
            severity: Severity::Deny,
            location: "store.disk_budget".into(),
            message: "the persistent tier is enabled with disk_budget = 0: \
                      every put pays the value-log append, then the budget \
                      sweep immediately evicts the object, so nothing is \
                      ever durable and spills have nowhere to land"
                .into(),
            help: "set store.disk_budget to the local SSD capacity you want \
                   the tier to use, or disable the persistent tier (no \
                   store directory)"
                .into(),
        });
    }
}

/// `SL037`: a remote tier with no dialable peers.
///
/// A one-node "cluster" (no peers) leaves the ring with a single
/// reachable owner: self. Every fetch short-circuits to `None`, every
/// offer is a no-op, yet the configuration claims cluster-wide
/// at-most-once materialization. The config cannot do what it says —
/// deny it up front, like SL036.
fn lint_remote_without_peers(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let Some(remote) = &opts.remote else {
        return;
    };
    if remote.peers == 0 {
        out.push(Diagnostic {
            code: "SL037",
            severity: Severity::Deny,
            location: "remote.peers".into(),
            message: "the remote tier is enabled with an empty peer list: \
                      the placement ring degenerates to this node alone, so \
                      every remote fetch short-circuits to a local \
                      materialization and the tier is pure overhead"
                .into(),
            help: "list at least one reachable peer (node_id + host:port of \
                   its view server), or drop EngineConfig::remote for \
                   single-process runs"
                .into(),
        });
    }
}

/// `SL038`: worst-case remote wait at or beyond the stall budget.
///
/// A remote fetch blocks the demand path for up to
/// `fetch_timeout x (retries + 1)` before falling back to local
/// materialization. When that worst case already meets the telemetry
/// stall budget, a single down peer makes *every* cross-node miss a
/// reported stall — the degradation contract ("never a wrong answer")
/// still holds, but the latency goal cannot. Only decidable when
/// telemetry is on with a nonzero budget.
fn lint_remote_timeout_vs_budget(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let Some(remote) = &opts.remote else {
        return;
    };
    let Some(t) = &opts.telemetry else {
        return;
    };
    if t.stall_budget_us == 0 {
        return;
    }
    let worst_ms = remote.fetch_timeout_ms * (u64::from(remote.retries) + 1);
    let budget_ms = t.stall_budget_us / 1000;
    if worst_ms >= budget_ms {
        out.push(Diagnostic {
            code: "SL038",
            severity: Severity::Warn,
            location: "remote.fetch_timeout".into(),
            message: format!(
                "worst-case remote wait {worst_ms} ms ({} ms x {} attempts) \
                 meets or exceeds the {budget_ms} ms stall budget: one down \
                 peer turns every cross-node miss into a reported stall \
                 before the local fallback even starts",
                remote.fetch_timeout_ms,
                u64::from(remote.retries) + 1
            ),
            help: "lower remote.fetch_timeout / retries so the fallback \
                   path fits inside the stall budget, or raise \
                   telemetry.stall_budget_us"
                .into(),
        });
    }
}

/// `SL039`: a fleet whose QoS or admission configuration is vacuous.
///
/// Three unfixable-at-runtime mistakes: no tenants at all (the fleet
/// front-end is pure overhead), tenant weights that are missing or sum
/// to zero (the weighted scheduler degenerates — every tenant's virtual
/// time is charged against a clamped weight of 1, so the configured
/// priorities are silently ignored), and an admission budget larger
/// than the store's memory budget (admission control promises capacity
/// the store does not have, so every "admitted" working set can still
/// thrash the cache). All three mean the configuration cannot do what
/// it says — deny.
fn lint_fleet_weights_and_budget(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let Some(fleet) = &opts.fleet else {
        return;
    };
    if fleet.tenants == 0 {
        out.push(Diagnostic {
            code: "SL039",
            severity: Severity::Deny,
            location: "fleet.tenants".into(),
            message: "the fleet front-end is enabled with zero tenants: \
                      nothing can be admitted or scheduled, so the \
                      multi-tenant machinery is pure overhead"
                .into(),
            help: "declare at least one tenant, or use the engine \
                   directly for single-job runs"
                .into(),
        });
        return;
    }
    if fleet.weights.is_empty() || fleet.weights.iter().sum::<u64>() == 0 {
        let what = if fleet.weights.is_empty() {
            "no tenant weights".to_string()
        } else {
            format!("{} weights summing to zero", fleet.weights.len())
        };
        out.push(Diagnostic {
            code: "SL039",
            severity: Severity::Deny,
            location: "fleet.weights".into(),
            message: format!(
                "the fleet declares {} tenant(s) with {what}: the weighted \
                 scheduler clamps every weight to 1, so the configured QoS \
                 shares are silently ignored and all tenants get equal \
                 service",
                fleet.tenants
            ),
            help: "give every tenant a positive weight (relative demand-band \
                   share)"
                .into(),
        });
    }
    if fleet.admission_budget > opts.memory_budget {
        out.push(Diagnostic {
            code: "SL039",
            severity: Severity::Deny,
            location: "fleet.admission_budget".into(),
            message: format!(
                "admission budget {} B exceeds the store's memory budget \
                 {} B: admission control will admit working sets the memory \
                 tier cannot hold, so \"admitted\" tenants can still thrash \
                 the cache the control was meant to protect",
                fleet.admission_budget, opts.memory_budget
            ),
            help: "lower fleet.admission_budget to at most \
                   store.memory_budget (leave headroom for shared \
                   ancestors), or raise the store budget"
                .into(),
        });
    }
}

/// `SL040`: a fleet with telemetry disabled.
///
/// The fleet still schedules and dedups correctly without telemetry,
/// but per-tenant attribution — `tenant.<id>.*` counters, the tenant
/// sections of the stall report, the dedup win/adoption counters — all
/// read from the metric registry. Operating a multi-tenant engine
/// blind is almost certainly unintended, but it is servable: warn.
fn lint_fleet_without_telemetry(opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    if opts.fleet.is_some() && opts.telemetry.is_none() {
        out.push(Diagnostic {
            code: "SL040",
            severity: Severity::Warn,
            location: "fleet".into(),
            message: "the fleet front-end is enabled but telemetry is off: \
                      per-tenant attribution (tenant.<id>.* counters, the \
                      tenant sections of the stall report, dedup counters) \
                      is unavailable, so tenants cannot be billed or \
                      debugged individually"
                .into(),
            help: "set EngineConfig::telemetry = Some(TelemetryConfig { .. }) \
                   so each tenant's service is attributable"
                .into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetLint, RemoteLint};

    #[test]
    fn sl032_single_shard_prefetch_warns() {
        let opts = LintOptions {
            prefetch_depth: 2,
            store_shards: 1,
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL032");
        assert_eq!(out[0].severity, Severity::Warn);
        assert!(out[0].message.contains("single store shard"), "{out:?}");
    }

    #[test]
    fn sl032_silent_when_sharded_or_not_prefetching() {
        for (depth, shards) in [(0, 1), (0, 8), (4, 8)] {
            let opts = LintOptions {
                prefetch_depth: depth,
                store_shards: shards,
                ..Default::default()
            };
            assert!(
                lint_concurrency(&opts).is_empty(),
                "depth {depth} shards {shards}"
            );
        }
    }

    #[test]
    fn sl033_sanitize_in_release_warns() {
        let opts = LintOptions {
            sanitize: true,
            release_build: true,
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL033");
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn sl036_persistent_zero_budget_denies() {
        let opts = LintOptions {
            persistent: true,
            disk_budget: 0,
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL036");
        assert_eq!(out[0].severity, Severity::Deny);
        assert_eq!(out[0].location, "store.disk_budget");
    }

    #[test]
    fn sl036_silent_with_budget_or_without_tier() {
        for (persistent, budget) in [(true, 1u64 << 20), (false, 0), (false, 1 << 20)] {
            let opts = LintOptions {
                persistent,
                disk_budget: budget,
                ..Default::default()
            };
            assert!(
                lint_concurrency(&opts).is_empty(),
                "persistent {persistent} budget {budget}"
            );
        }
    }

    fn remote(peers: usize, timeout_ms: u64, retries: u32) -> RemoteLint {
        RemoteLint {
            peers,
            fetch_timeout_ms: timeout_ms,
            retries,
        }
    }

    #[test]
    fn sl037_empty_peer_set_denies() {
        let opts = LintOptions {
            remote: Some(remote(0, 250, 1)),
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL037");
        assert_eq!(out[0].severity, Severity::Deny);
        assert_eq!(out[0].location, "remote.peers");
    }

    #[test]
    fn sl037_silent_with_a_peer_or_without_remote() {
        let opts = LintOptions {
            remote: Some(remote(2, 250, 1)),
            ..Default::default()
        };
        assert!(lint_concurrency(&opts).is_empty());
        assert!(lint_concurrency(&LintOptions::default()).is_empty());
    }

    #[test]
    fn sl038_timeout_at_or_over_stall_budget_warns() {
        // 250 ms x 2 attempts = 500 ms worst case vs. a 400 ms budget.
        let opts = LintOptions {
            remote: Some(remote(2, 250, 1)),
            telemetry: Some(sand_telemetry::TelemetryConfig {
                stall_budget_us: 400_000,
                ..Default::default()
            }),
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL038");
        assert_eq!(out[0].severity, Severity::Warn);
        assert!(out[0].message.contains("500 ms"), "{out:?}");
    }

    #[test]
    fn sl038_silent_when_fallback_fits_or_budget_unset() {
        // 50 ms x 2 attempts = 100 ms, well inside a 400 ms budget.
        let fits = LintOptions {
            remote: Some(remote(2, 50, 1)),
            telemetry: Some(sand_telemetry::TelemetryConfig {
                stall_budget_us: 400_000,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(lint_concurrency(&fits).is_empty());
        // Budget 0 = "report every batch", not a latency goal.
        let no_budget = LintOptions {
            remote: Some(remote(2, 250, 3)),
            telemetry: Some(sand_telemetry::TelemetryConfig::default()),
            ..Default::default()
        };
        assert!(lint_concurrency(&no_budget).is_empty());
        // Telemetry off: not decidable, stay silent.
        let no_telemetry = LintOptions {
            remote: Some(remote(2, 250, 3)),
            ..Default::default()
        };
        assert!(lint_concurrency(&no_telemetry).is_empty());
    }

    fn fleet(tenants: usize, weights: &[u64], admission_budget: u64) -> FleetLint {
        FleetLint {
            tenants,
            weights: weights.to_vec(),
            admission_budget,
        }
    }

    /// Telemetry on so SL040 stays quiet and the SL039 cases are isolated.
    fn fleet_opts(f: FleetLint) -> LintOptions {
        LintOptions {
            fleet: Some(f),
            telemetry: Some(sand_telemetry::TelemetryConfig::default()),
            memory_budget: 64 << 20,
            ..Default::default()
        }
    }

    #[test]
    fn sl039_empty_or_zero_sum_weights_deny() {
        for f in [
            fleet(0, &[], 1 << 20),
            fleet(2, &[], 1 << 20),
            fleet(2, &[0, 0], 1 << 20),
        ] {
            let opts = fleet_opts(f.clone());
            let out = lint_concurrency(&opts);
            assert_eq!(out.len(), 1, "{f:?}: {out:?}");
            assert_eq!(out[0].code, "SL039");
            assert_eq!(out[0].severity, Severity::Deny);
        }
    }

    #[test]
    fn sl039_admission_budget_over_store_budget_denies() {
        let opts = fleet_opts(fleet(2, &[1, 3], (64 << 20) + 1));
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL039");
        assert_eq!(out[0].severity, Severity::Deny);
        assert_eq!(out[0].location, "fleet.admission_budget");
    }

    #[test]
    fn sl039_silent_on_sane_fleet() {
        let opts = fleet_opts(fleet(3, &[1, 2, 4], 32 << 20));
        assert!(lint_concurrency(&opts).is_empty());
        assert!(lint_concurrency(&LintOptions::default()).is_empty());
    }

    #[test]
    fn sl040_fleet_without_telemetry_warns() {
        let opts = LintOptions {
            fleet: Some(fleet(2, &[1, 2], 1 << 20)),
            telemetry: None,
            ..Default::default()
        };
        let out = lint_concurrency(&opts);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SL040");
        assert_eq!(out[0].severity, Severity::Warn);
        assert_eq!(out[0].location, "fleet");
    }

    #[test]
    fn sl040_silent_with_telemetry() {
        let opts = fleet_opts(fleet(2, &[1, 2], 1 << 20));
        assert!(lint_concurrency(&opts).is_empty());
    }

    #[test]
    fn sl033_silent_in_debug_or_without_sanitize() {
        for (sanitize, release) in [(true, false), (false, true), (false, false)] {
            let opts = LintOptions {
                sanitize,
                release_build: release,
                ..Default::default()
            };
            assert!(
                lint_concurrency(&opts).is_empty(),
                "sanitize {sanitize} release {release}"
            );
        }
    }
}
