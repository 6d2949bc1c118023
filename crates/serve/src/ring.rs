//! Consistent hashing over the cluster's members: which shard owns
//! which content address.
//!
//! Every member is projected onto a `u64` ring at `VNODES` points
//! (virtual nodes smooth the keyspace split); a key belongs to the
//! member owning the first point at or clockwise-after the key's hash.
//! All shards build the ring from the same sorted member list, so they
//! agree on ownership without any coordination traffic — and because
//! the hash is over member *addresses* and content *addresses* only,
//! adding a member remaps just the slices it takes over (the classic
//! consistent-hashing property, pinned by a test below).
//!
//! Replication is placed by key, like ownership: [`Ring::replica`] is
//! the key's next distinct member clockwise (Dynamo's preference list,
//! cut at two). With two or more members every key has exactly one
//! replica holder besides its owner, and consistent hashing makes that
//! holder the right one through every roster change — remove the owner
//! and the holder *is* the new owner; add a member and, for every key
//! it takes, the old owner becomes the key's replica. So a body never
//! has to be shipped because the roster moved.

use crate::store::fingerprint;

/// Virtual nodes per member. 64 points keeps the largest/smallest
/// ownership share within a small factor for realistic cluster sizes
/// while the ring stays a few hundred entries — binary-searched, so
/// lookup cost is irrelevant next to a single request parse.
pub(crate) const VNODES: usize = 64;

/// A ring point for `key`: the FNV fingerprint pushed through a
/// splitmix64-style finalizer. FNV-1a alone barely diffuses its last
/// few input bytes into the high bits, and ring ordering is dominated
/// by exactly those bits — sequential vnode labels (`addr#0`,
/// `addr#1`, …) then clump together and ownership shares swing wildly
/// (a 2-member ring could strand one member with almost no keyspace).
/// The finalizer's avalanche spreads the points evenly, and it is a
/// pure function of the fingerprint, so every shard still derives the
/// identical ring from the same roster.
fn point(key: &str) -> u64 {
    let mut h = fingerprint(key);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The hash ring: sorted points mapping to member indices.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, member index)` sorted by point.
    points: Vec<(u64, usize)>,
    /// Member addresses, sorted and deduplicated — the canonical
    /// cluster roster every shard must share.
    members: Vec<String>,
}

impl Ring {
    /// Builds the ring over the given member addresses. Members are
    /// sorted and deduplicated first, so every shard that was handed
    /// the same roster (in any order) builds the identical ring.
    pub fn new(members: impl IntoIterator<Item = String>) -> Ring {
        let mut members: Vec<String> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (idx, member) in members.iter().enumerate() {
            for vnode in 0..VNODES {
                points.push((point(&format!("{member}#{vnode}")), idx));
            }
        }
        // Ties (two members hashing a vnode to the same point) resolve
        // by member index, i.e. lexicographic address order — still
        // deterministic on every shard.
        points.sort_unstable();
        Ring { points, members }
    }

    /// The canonical (sorted, deduplicated) member roster.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member owning `key`: the first ring point at or after the
    /// key's hash, wrapping at the top of the `u64` space.
    ///
    /// # Panics
    ///
    /// On an empty ring (a cluster has at least its own shard).
    pub fn owner(&self, key: &str) -> &str {
        &self.members[self.points[self.owning_point(key)].1]
    }

    /// Where `key`'s replica lives: the member of the first point after
    /// the key's owning point that belongs to a different member,
    /// wrapping. `None` on a ring with fewer than two members.
    pub fn replica(&self, key: &str) -> Option<&str> {
        if self.members.len() < 2 {
            return None;
        }
        let at = self.owning_point(key);
        let owner = self.points[at].1;
        let next = (1..self.points.len())
            .map(|step| self.points[(at + step) % self.points.len()].1)
            .find(|&member| member != owner)?;
        Some(&self.members[next])
    }

    /// Index of the first point at or after `key`'s hash, wrapping past
    /// the top of the `u64` space.
    fn owning_point(&self, key: &str) -> usize {
        assert!(!self.points.is_empty(), "ownership query on an empty ring");
        match self.points.binary_search(&(point(key), 0)) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        }
    }
}

/// The live, epoch-versioned membership roster a [`Ring`] is derived
/// from.
///
/// Every mutation ([`Roster::join`], [`Roster::leave`]) bumps a
/// monotonic epoch; [`Roster::adopt`] merges a peer's view by a simple
/// newest-wins rule, so shards that exchange rosters in any order
/// converge on the same member list without a coordinator. Equal
/// epochs tie-break on the lexicographically larger member list —
/// arbitrary, but identical on every shard, which is all convergence
/// needs (a shard that lost the tie re-adds itself, bumping the epoch
/// past the tie).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Roster {
    epoch: u64,
    /// Sorted, deduplicated member addresses.
    members: Vec<String>,
}

impl Roster {
    /// A fresh roster at epoch 1 over the given members (sorted and
    /// deduplicated, like [`Ring::new`]).
    pub fn new(members: impl IntoIterator<Item = String>) -> Roster {
        let mut members: Vec<String> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Roster { epoch: 1, members }
    }

    /// The current epoch. Strictly increases across every local
    /// mutation and never decreases across [`Roster::adopt`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The canonical (sorted, deduplicated) member list.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Whether `addr` is a member.
    pub fn contains(&self, addr: &str) -> bool {
        self.members.binary_search_by(|m| m.as_str().cmp(addr)).is_ok()
    }

    /// Adds a member; bumps the epoch and returns `true` only if the
    /// roster actually changed.
    pub fn join(&mut self, addr: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(addr)) {
            Ok(_) => false,
            Err(at) => {
                self.members.insert(at, addr.to_string());
                self.epoch += 1;
                true
            }
        }
    }

    /// Removes a member; bumps the epoch and returns `true` only if the
    /// roster actually changed.
    pub fn leave(&mut self, addr: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(addr)) {
            Ok(at) => {
                self.members.remove(at);
                self.epoch += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Merges a peer's roster view: a strictly newer epoch wins
    /// outright; an equal epoch with a lexicographically larger member
    /// list wins the tie. Returns `true` if this roster changed.
    ///
    /// The epoch after an adopt is `max(local, remote)` — never
    /// smaller — which keeps [`Roster::epoch`] monotonic on every
    /// shard no matter the gossip order.
    pub(crate) fn adopt(&mut self, epoch: u64, members: &[String]) -> bool {
        let mut theirs: Vec<String> = members.to_vec();
        theirs.sort_unstable();
        theirs.dedup();
        let wins = epoch > self.epoch || epoch == self.epoch && theirs > self.members;
        if !wins {
            return false;
        }
        self.epoch = self.epoch.max(epoch);
        self.members = theirs;
        true
    }

    /// The consistent-hash ring over the current members.
    pub fn ring(&self) -> Ring {
        Ring::new(self.members.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("analyze\0app-{i}\00\0s1")).collect()
    }

    #[test]
    fn every_key_has_exactly_one_owner_and_all_members_own_something() {
        let members = ["127.0.0.1:7071", "127.0.0.1:7072", "127.0.0.1:7073"];
        let ring = Ring::new(members.iter().map(ToString::to_string));
        let mut counts = std::collections::HashMap::new();
        for key in keys(1000) {
            *counts.entry(ring.owner(&key).to_string()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), members.len(), "every member owns a slice: {counts:?}");
        for (member, count) in &counts {
            assert!(*count >= 100, "{member} owns a degenerate share: {counts:?}");
        }
    }

    #[test]
    fn ownership_shares_stay_balanced_across_port_varied_rosters() {
        // Regression: without the finalizing mixer over the FNV
        // fingerprint, sequential vnode labels clump and some 2-member
        // rings strand one side with a near-empty keyspace share.
        let sample = keys(64);
        for port in (30000..30200).step_by(7) {
            let a = format!("127.0.0.1:{port}");
            let b = format!("127.0.0.1:{}", port + 1);
            let ring = Ring::new([a.clone(), b.clone()]);
            let owned = sample.iter().filter(|k| ring.owner(k) == a).count();
            assert!((6..=58).contains(&owned), "{a}/{b}: degenerate split {owned}/64");
        }
    }

    #[test]
    fn roster_order_and_duplicates_do_not_change_the_ring() {
        let a = Ring::new(["b".to_string(), "a".to_string(), "c".to_string()]);
        let b = Ring::new(["c".to_string(), "a".to_string(), "b".to_string(), "a".to_string()]);
        assert_eq!(a.members(), b.members());
        for key in keys(200) {
            assert_eq!(a.owner(&key), b.owner(&key));
        }
    }

    #[test]
    fn adding_a_member_only_remaps_keys_onto_the_new_member() {
        let old = Ring::new(["a".to_string(), "b".to_string(), "c".to_string()]);
        let new = Ring::new(["a".to_string(), "b".to_string(), "c".to_string(), "d".to_string()]);
        let (mut moved, mut stayed) = (0usize, 0usize);
        for key in keys(1000) {
            let (before, after) = (old.owner(&key), new.owner(&key));
            if before == after {
                stayed += 1;
            } else {
                assert_eq!(after, "d", "a remapped key may only move to the new member");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new member took over some keys");
        assert!(stayed > moved, "most keys did not move");
    }

    #[test]
    fn replica_is_a_distinct_member_and_every_member_holds_some() {
        let ring = Ring::new(["a".to_string(), "b".to_string(), "c".to_string()]);
        let mut holders = std::collections::HashSet::new();
        for key in keys(200) {
            let replica = ring.replica(&key).expect("multi-member rings place replicas");
            assert_ne!(replica, ring.owner(&key));
            holders.insert(replica);
        }
        assert_eq!(holders.len(), ring.len(), "every member holds some replica");
    }

    #[test]
    fn degenerate_rings() {
        let solo = Ring::new(["only".to_string()]);
        assert_eq!(solo.owner("anything"), "only");
        assert!(solo.replica("anything").is_none(), "nobody to replicate to");
        assert!(!solo.is_empty());
        assert!(Ring::new(std::iter::empty()).is_empty());
    }

    #[test]
    fn roster_mutations_bump_the_epoch_only_on_change() {
        let mut roster = Roster::new(["a".to_string(), "b".to_string()]);
        assert_eq!(roster.epoch(), 1);
        assert!(roster.join("c"));
        assert_eq!(roster.epoch(), 2);
        assert!(!roster.join("c"), "re-joining a member is a no-op");
        assert_eq!(roster.epoch(), 2);
        assert!(roster.leave("a"));
        assert_eq!(roster.epoch(), 3);
        assert!(!roster.leave("a"), "leaving twice is a no-op");
        assert_eq!(roster.epoch(), 3);
        assert_eq!(roster.members(), ["b", "c"]);
    }

    #[test]
    fn one_member_ring_after_a_leave_owns_everything() {
        let mut roster = Roster::new(["a".to_string(), "b".to_string()]);
        assert!(roster.leave("b"));
        let ring = roster.ring();
        for key in keys(50) {
            assert_eq!(ring.owner(&key), "a");
        }
        assert!(ring.replica("k").is_none(), "a solo survivor has no replication target");
        // Even the last member can drain; the derived ring is empty and
        // ownership queries must be guarded by the caller.
        assert!(roster.leave("a"));
        assert!(roster.ring().is_empty());
        assert_eq!(roster.epoch(), 3);
    }

    #[test]
    fn adopt_takes_newer_epochs_and_breaks_ties_deterministically() {
        let mut roster = Roster::new(["a".to_string(), "b".to_string()]);
        // Older and identical views are ignored.
        assert!(!roster.adopt(0, &["z".to_string()]));
        assert!(!roster.adopt(1, &["a".to_string(), "b".to_string()]));
        assert_eq!(roster.epoch(), 1);
        // A newer epoch wins outright.
        assert!(roster.adopt(4, &["a".to_string(), "c".to_string()]));
        assert_eq!(roster.epoch(), 4);
        assert_eq!(roster.members(), ["a", "c"]);
        // An equal epoch tie-breaks on the larger member list, the same
        // way on both sides of the exchange.
        let mut left = Roster::new(["a".to_string(), "x".to_string()]);
        let mut right = Roster::new(["a".to_string(), "y".to_string()]);
        let (le, lm) = (left.epoch(), left.members().to_vec());
        let (re, rm) = (right.epoch(), right.members().to_vec());
        assert!(left.adopt(re, &rm), "the smaller list adopts");
        assert!(!right.adopt(le, &lm), "the larger list stands");
        assert_eq!(left.members(), right.members());
    }

    /// The convergence protocol the server runs: adopt the peer's view,
    /// then re-add yourself if the adopted roster dropped you.
    fn exchange(mine: &mut Roster, me: &str, theirs: &Roster) {
        mine.adopt(theirs.epoch(), theirs.members());
        if !mine.contains(me) {
            mine.join(me);
        }
    }

    #[test]
    fn concurrent_joins_converge_after_an_exchange() {
        let base = ["a".to_string(), "b".to_string()];
        let mut at_a = Roster::new(base.clone());
        let mut at_b = Roster::new(base);
        at_a.join("x"); // x joined through a...
        at_b.join("y"); // ...while y joined through b
        for _ in 0..3 {
            let (snap_a, snap_b) = (at_a.clone(), at_b.clone());
            exchange(&mut at_a, "x", &snap_b);
            exchange(&mut at_b, "y", &snap_a);
        }
        assert_eq!(at_a, at_b);
        assert_eq!(at_a.members(), ["a", "b", "x", "y"]);
    }

    proptest! {
        /// Key-placed replicas over random 2–6 member rosters: the
        /// replica is a member other than the owner, removing the owner
        /// makes the replica holder the owner, and for every key a
        /// joining member takes, the old owner becomes the replica — so
        /// no roster change leaves a body where the ring will not look.
        #[test]
        fn replica_placement_survives_every_roster_change(n in 2usize..7, port in 1024u16..60000) {
            let ring = Ring::new((0..n as u16).map(|i| format!("10.0.0.1:{}", port + 7 * i)));
            let without: Vec<Ring> = ring
                .members()
                .iter()
                .map(|gone| Ring::new(ring.members().iter().filter(|m| *m != gone).cloned()))
                .collect();
            let joiner = format!("10.0.0.2:{port}");
            let grown = Ring::new(ring.members().iter().cloned().chain([joiner.clone()]));
            prop_assert!(Ring::new([joiner.clone()]).replica("k").is_none(), "1-member ring");
            for key in keys(64) {
                let owner = ring.owner(&key);
                let replica = ring.replica(&key).expect("two or more members");
                prop_assert!(replica != owner && ring.members().iter().any(|m| m == replica));
                let at = ring.members().iter().position(|m| m == owner).expect("a member");
                prop_assert_eq!(without[at].owner(&key), replica, "the holder inherits the key");
                if grown.owner(&key) == joiner {
                    prop_assert_eq!(grown.replica(&key), Some(owner), "the old owner is the replica");
                }
            }
        }

        /// Random join/leave churn: the epoch strictly increases on
        /// every change, the member list stays sorted and unique, and
        /// every key has exactly one owner in every epoch (two replicas
        /// of the roster derive identical ownership).
        #[test]
        fn epoch_monotone_and_ownership_unambiguous_under_churn(seed in 0u64..u64::MAX) {
            let mut lcg = seed | 1;
            let mut draw = || {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut roster = Roster::new(["s0".to_string(), "s1".to_string()]);
            for _ in 0..12 {
                let epoch_before = roster.epoch();
                let member = format!("s{}", draw() % 6);
                let changed = if draw() % 2 == 0 {
                    roster.join(&member)
                } else {
                    roster.leave(&member)
                };
                prop_assert!(if changed {
                    roster.epoch() == epoch_before + 1
                } else {
                    roster.epoch() == epoch_before
                });
                let members = roster.members().to_vec();
                let mut sorted = members.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(&members, &sorted, "members stay sorted and unique");
                if members.is_empty() {
                    continue;
                }
                let (ring, replica) = (roster.ring(), roster.clone().ring());
                for key in keys(20) {
                    let owner = ring.owner(&key);
                    prop_assert!(members.iter().any(|m| m == owner));
                    prop_assert_eq!(owner, replica.owner(&key), "replicas agree on ownership");
                }
            }
        }
    }
}
