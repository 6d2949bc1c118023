//! [`TimedServer`]: the one bounded in-flight queue of the machine.
//!
//! A `TimedServer` is a bounded pool of in-flight requests ordered by
//! completion time. Three things in an SM are one: the LSU in-flight
//! limit (every launch), and the hierarchy model's MSHR file and L2
//! request queue ([`gpa_arch::MemModel::Hierarchy`]). When one is full,
//! memory instructions cannot issue.
//!
//! The design constraint is the event core's bound validity: occupancy
//! may only *rise* from new issues (which happen under the scheduler's
//! eye) and *fall* at completion times that were fixed at admission.
//! [`TimedServer::clear_time`] is therefore a pure prefix scan over
//! frozen state, so cached `sched_next_ready` bounds built from it stay
//! valid lower bounds and dense vs. event scheduling stays
//! byte-identical under either memory model.

/// A bounded pool of in-flight requests, each occupying `n` slots until
/// a completion time fixed at admission.
#[derive(Debug, Clone)]
pub struct TimedServer {
    /// In-flight entries `(done_at, slots)`, sorted by completion time.
    occ: Vec<(u64, u32)>,
    /// Total occupied slots (sum of the `slots` fields).
    count: u32,
    /// Slot capacity; at or above it the server back-pressures issue.
    capacity: u32,
    /// Earliest completion among `occ` (`u64::MAX` when empty) so the
    /// per-cycle retire sweep is a cheap comparison in the common case.
    next_done: u64,
}

impl TimedServer {
    /// An empty server with `capacity` slots.
    pub fn new(capacity: u32) -> Self {
        TimedServer { occ: Vec::new(), count: 0, capacity, next_done: u64::MAX }
    }

    /// Occupied slots.
    pub fn occupancy(&self) -> u32 {
        self.count
    }

    /// Whether admission is currently blocked.
    pub fn is_full(&self) -> bool {
        self.count >= self.capacity
    }

    /// Releases every entry whose completion time has passed. Occupancy
    /// after this call is a pure function of (admission history, `now`),
    /// which is what makes dense and event stepping agree at jump targets.
    pub fn retire(&mut self, now: u64) {
        if self.next_done > now {
            return;
        }
        let mut next = u64::MAX;
        let count = &mut self.count;
        self.occ.retain(|&(done, n)| {
            if done <= now {
                *count -= n;
                false
            } else {
                next = next.min(done);
                true
            }
        });
        self.next_done = next;
    }

    /// Admits `n` slots completing at `done_at` (sorted insert, so
    /// [`TimedServer::clear_time`] stays a prefix scan). Admission is
    /// allowed while full — the *next* request is what stalls.
    pub fn admit(&mut self, done_at: u64, n: u32) {
        if n == 0 {
            return;
        }
        let pos = self.occ.partition_point(|&(d, _)| d <= done_at);
        self.occ.insert(pos, (done_at, n));
        self.count += n;
        self.next_done = self.next_done.min(done_at);
    }

    /// Earliest cycle occupancy drops below capacity assuming no new
    /// admissions (frozen machine): 0 when not full, else the completion
    /// time of the prefix that frees enough slots.
    pub fn clear_time(&self) -> u64 {
        if !self.is_full() {
            return 0;
        }
        let mut count = self.count;
        for &(done, n) in &self.occ {
            count -= n;
            if count < self.capacity {
                return done;
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_and_retirement() {
        let mut s = TimedServer::new(4);
        assert!(!s.is_full());
        assert_eq!(s.clear_time(), 0);
        s.admit(10, 3);
        s.admit(5, 1);
        assert_eq!(s.occupancy(), 4);
        assert!(s.is_full());
        // The earliest completion that frees a slot is cycle 5.
        assert_eq!(s.clear_time(), 5);
        s.retire(4);
        assert!(s.is_full(), "nothing completes before cycle 5");
        s.retire(5);
        assert_eq!(s.occupancy(), 3);
        assert!(!s.is_full());
        s.retire(100);
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn clear_time_scans_past_insufficient_prefixes() {
        let mut s = TimedServer::new(2);
        s.admit(7, 1);
        s.admit(9, 1);
        s.admit(3, 0); // no-op
        assert_eq!(s.occupancy(), 2);
        // Freeing one slot at cycle 7 already drops below capacity.
        assert_eq!(s.clear_time(), 7);
        s.admit(8, 2);
        // Now 4 occupied with capacity 2: freeing at 7 leaves 3, at 8
        // leaves 1 < 2.
        assert_eq!(s.clear_time(), 8);
    }

    #[test]
    fn retirement_is_a_function_of_now_not_of_step_count() {
        // Dense stepping (retire every cycle) and event stepping (retire
        // only at jump targets) must observe identical occupancy.
        let mut dense = TimedServer::new(8);
        let mut event = TimedServer::new(8);
        for s in [&mut dense, &mut event] {
            s.admit(3, 2);
            s.admit(11, 1);
            s.admit(20, 4);
        }
        for c in 0..=15u64 {
            dense.retire(c);
        }
        event.retire(15);
        assert_eq!(dense.occupancy(), event.occupancy());
        assert_eq!(dense.clear_time(), event.clear_time());
    }
}
