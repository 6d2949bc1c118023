//! Deterministic fault injection for the peer path.
//!
//! A [`FaultPlan`] is a script of failures — drop a call, delay
//! it, or sever a peer's pooled connections — evaluated every time the
//! daemon dials a peer. Chaos tests (and operators reproducing an
//! outage) gate it through [`ServerConfig::faults`] (`gpa serve
//! --faults SPEC`); production runs carry no plan and pay one branch
//! per peer call.
//!
//! The spec grammar is a `;`-separated list of rules:
//!
//! ```text
//! deny:127.0.0.1:7072:after=3,count=5;delay:*:ms=10;sever:*:count=1
//! ```
//!
//! Each rule names an action (`deny`, `delay`, `sever`), a peer
//! address (or `*` for every peer), and optional parameters:
//! `op=CLASS` restricts the rule to one class of peer call (`forward`,
//! `store`, `heartbeat`, `membership`; absent or `*` = all — see
//! [`PeerOp`]), `after=N` skips the first N matching calls, `count=N`
//! limits the rule to N firings (0 = unlimited), and `ms=N` sets the
//! delay. Background calls (heartbeats, replication) run on wall-clock
//! ticks, so a plan that scripts *user-visible* failures by count should
//! name the class it means. The
//! address/parameter split is positional — the last `:`-segment is
//! parameters exactly when it contains `=`, so bare `host:port`
//! addresses need no escaping. Rules are checked in order; the first
//! one whose window covers the call fires.
//!
//! [`ServerConfig::faults`]: crate::server::ServerConfig::faults

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an active fault rule does to the current peer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the call outright (as a refused connection).
    Deny,
    /// Sleep this many milliseconds before proceeding.
    Delay(u64),
    /// Drop the peer's pooled connections and fail the call (as a
    /// reset connection).
    Sever,
}

/// What a peer call is for: the class a rule's `op=` parameter filters
/// on. Every wire line a daemon sends a peer belongs to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerOp {
    /// A user request forwarded to its owner.
    Forward,
    /// `store_get` / `store_put`: replication and warm-from-replica.
    Store,
    /// The periodic liveness probe, which is also a tripped peer's
    /// half-open probe once its cooldown elapses.
    Heartbeat,
    /// `join` / `leave` announcements and roster refreshes.
    Membership,
}

impl PeerOp {
    fn parse(name: &str) -> Option<PeerOp> {
        Some(match name {
            "forward" => PeerOp::Forward,
            "store" => PeerOp::Store,
            "heartbeat" => PeerOp::Heartbeat,
            "membership" => PeerOp::Membership,
            _ => return None,
        })
    }
}

#[derive(Debug)]
struct FaultRule {
    action: FaultAction,
    /// Peer address the rule applies to; `*` matches every peer.
    peer: String,
    /// Call class the rule applies to; `None` matches every class.
    op: Option<PeerOp>,
    /// Matching calls to let through before the rule starts firing.
    after: u64,
    /// Firings before the rule burns out (0 = unlimited).
    count: u64,
    /// Matching calls seen so far (shared across plan clones).
    seen: AtomicU64,
}

impl FaultRule {
    /// Whether the rule fires for this (matching) call, advancing its
    /// window.
    fn fire(&self) -> bool {
        let seen = self.seen.fetch_add(1, Ordering::Relaxed);
        seen >= self.after && (self.count == 0 || seen < self.after + self.count)
    }
}

/// A scripted set of peer-path faults.
///
/// Cloning shares the counters (an [`Arc`]), so the daemon's threads
/// consume one global window per rule — "fail the first 5 forwards"
/// means 5 across the process, not 5 per thread.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Arc<[FaultRule]>,
    /// Calls the plan faulted, however many rules matched each.
    fired: Arc<AtomicU64>,
}

impl FaultPlan {
    /// Parses a plan from the spec grammar above.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed part.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (action_name, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec: `{part}` is not `action:peer[:params]`"))?;
            // The last `:`-segment is parameters exactly when it
            // contains `=`; everything before it is the peer address
            // (which legitimately contains `:`).
            let (peer, params) = match rest.rsplit_once(':') {
                Some((peer, params)) if params.contains('=') => (peer, params),
                _ => (rest, ""),
            };
            let valid_peer = peer == "*"
                || peer.rsplit_once(':').is_some_and(|(host, port)| {
                    !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit())
                });
            if !valid_peer {
                return Err(format!(
                    "fault spec: `{peer}` is not a peer address (`host:port` or `*`)"
                ));
            }
            let (mut after, mut count, mut ms, mut op) = (0u64, 0u64, None, None);
            for param in params.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| format!("fault spec: parameter `{param}` is not key=value"))?;
                if key == "op" {
                    if value != "*" {
                        op =
                            Some(PeerOp::parse(value).ok_or_else(|| {
                                format!("fault spec: unknown op class `{value}`")
                            })?);
                    }
                    continue;
                }
                let value: u64 = value
                    .parse()
                    .map_err(|_| format!("fault spec: `{key}` expects a number, got `{value}`"))?;
                match key {
                    "after" => after = value,
                    "count" => count = value,
                    "ms" => ms = Some(value),
                    other => return Err(format!("fault spec: unknown parameter `{other}`")),
                }
            }
            let action = match action_name {
                "deny" => FaultAction::Deny,
                "delay" => FaultAction::Delay(
                    ms.ok_or_else(|| format!("fault spec: `{part}` needs ms=N"))?,
                ),
                "sever" => FaultAction::Sever,
                other => return Err(format!("fault spec: unknown action `{other}`")),
            };
            if action_name != "delay" && ms.is_some() {
                return Err(format!("fault spec: ms= only applies to delay, not {action_name}"));
            }
            rules.push(FaultRule {
                action,
                peer: peer.to_string(),
                op,
                after,
                count,
                seen: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Err("fault spec: no rules (expected `action:peer[:params]` parts)".to_string());
        }
        Ok(FaultPlan { rules: rules.into(), fired: Arc::default() })
    }

    /// Evaluates the plan for one `op`-class call to `peer`: the first
    /// rule whose window covers this call decides. Counters advance
    /// only on rules that match the peer and the class, so a rule's
    /// window is stable no matter how other peers are trafficked or
    /// when background calls of another class happen to run.
    pub fn check(&self, peer: &str, op: PeerOp) -> Option<FaultAction> {
        let mut fired = None;
        for rule in self.rules.iter() {
            if (rule.peer != "*" && rule.peer != peer) || rule.op.is_some_and(|o| o != op) {
                continue;
            }
            if rule.fire() && fired.is_none() {
                fired = Some(rule.action);
            }
        }
        if fired.is_some() {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Calls the plan has faulted so far — surfaced in `status` so a
    /// chaos run can assert its plan actually fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_seed_windows_and_wildcards() {
        let plan = FaultPlan::parse("deny:127.0.0.1:7072:after=1,count=2;delay:*:ms=10").unwrap();
        // First call to the denied peer is within `after`, so the
        // wildcard delay (unlimited) fires instead.
        assert_eq!(plan.check("127.0.0.1:7072", PeerOp::Forward), Some(FaultAction::Delay(10)));
        // The next two are denied (rule order wins over the wildcard).
        assert_eq!(plan.check("127.0.0.1:7072", PeerOp::Forward), Some(FaultAction::Deny));
        assert_eq!(plan.check("127.0.0.1:7072", PeerOp::Forward), Some(FaultAction::Deny));
        // The window is spent; back to the delay.
        assert_eq!(plan.check("127.0.0.1:7072", PeerOp::Forward), Some(FaultAction::Delay(10)));
        // Other peers only see the wildcard and never burn the deny
        // window.
        assert_eq!(plan.check("127.0.0.1:7073", PeerOp::Forward), Some(FaultAction::Delay(10)));
        assert_eq!(plan.fired(), 5, "one per faulted call, not one per matching rule");

        // Overlapping windows: the first two calls match both rules, the
        // last two match neither.
        let plan = FaultPlan::parse("deny:*:count=2;delay:*:ms=1,count=2").unwrap();
        for expected in [Some(FaultAction::Deny), Some(FaultAction::Deny), None, None] {
            assert_eq!(plan.check("a", PeerOp::Forward), expected);
        }
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn windows_are_shared_across_clones() {
        let plan = FaultPlan::parse("sever:*:count=1").unwrap();
        let replica = plan.clone();
        assert_eq!(replica.check("a", PeerOp::Forward), Some(FaultAction::Sever));
        assert_eq!(plan.check("a", PeerOp::Forward), None, "the clone burned the only firing");
    }

    #[test]
    fn quiet_peers_pass_through() {
        let plan = FaultPlan::parse("deny:127.0.0.1:1:count=1").unwrap();
        assert_eq!(plan.check("127.0.0.1:2", PeerOp::Forward), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        for spec in [
            "",
            "seed=1", // not action:peer
            "explode:*",
            "deny",
            "delay:*",          // delay needs ms=
            "deny:*:ms=5",      // ms= is delay-only
            "deny::after=1",    // empty peer
            "deny:*:after=x",   // non-numeric
            "deny:*:jitter=1",  // unknown key
            "deny:*:after",     // not key=value
            "deny:*:op=gossip", // unknown class
            "deny:*:op",        // not key=value
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "spec `{spec}` should be rejected");
        }
    }

    #[test]
    fn op_class_filters_which_calls_a_rule_sees() {
        let plan = FaultPlan::parse("deny:*:op=forward,count=2").unwrap();
        // Background classes pass through and never burn the window,
        // however many of them run between the two forwards.
        for op in [PeerOp::Heartbeat, PeerOp::Store, PeerOp::Membership, PeerOp::Heartbeat] {
            assert_eq!(plan.check("a", op), None);
        }
        assert_eq!(plan.check("a", PeerOp::Forward), Some(FaultAction::Deny));
        assert_eq!(plan.check("b", PeerOp::Heartbeat), None);
        assert_eq!(plan.check("b", PeerOp::Forward), Some(FaultAction::Deny));
        assert_eq!(plan.check("a", PeerOp::Forward), None, "both firings went to forwards");
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn op_star_and_absent_match_every_class() {
        for spec in ["sever:*:op=*,count=4", "sever:*:count=4"] {
            let plan = FaultPlan::parse(spec).unwrap();
            for op in [PeerOp::Forward, PeerOp::Store, PeerOp::Heartbeat, PeerOp::Membership] {
                assert_eq!(plan.check("a", op), Some(FaultAction::Sever), "{spec} / {op:?}");
            }
            assert_eq!(plan.check("a", PeerOp::Forward), None, "{spec}: window spent");
        }
    }

    #[test]
    fn after_windows_count_matching_classes_only() {
        let plan =
            FaultPlan::parse("delay:*:op=store,after=1,count=1,ms=5;deny:*:op=heartbeat").unwrap();
        assert_eq!(plan.check("a", PeerOp::Heartbeat), Some(FaultAction::Deny));
        assert_eq!(plan.check("a", PeerOp::Store), None, "first store call is within `after`");
        assert_eq!(plan.check("a", PeerOp::Heartbeat), Some(FaultAction::Deny));
        assert_eq!(plan.check("a", PeerOp::Store), Some(FaultAction::Delay(5)));
        assert_eq!(plan.check("a", PeerOp::Store), None);
        assert_eq!(plan.check("a", PeerOp::Forward), None, "no rule names forwards");
    }
}
