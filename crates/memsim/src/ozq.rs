//! The OzQ: the bounded queue of outstanding memory requests.

/// Models the out-of-order memory-request queue between L1 and L2 on the
/// Itanium 2 ("at least 48 outstanding requests can be active throughout
/// the memory hierarchy without stalling the execution pipeline", paper
/// Sec. 2). Every load, store and prefetch allocates an entry at issue and
/// frees it when the request completes; if the queue is full at issue, the
/// pipeline stalls until an entry retires — the `BE_L1D_FPU_BUBBLE`
/// component of Fig. 10.
#[derive(Debug, Clone)]
pub(crate) struct Ozq {
    capacity: usize,
    /// Completion times of outstanding requests (unsorted; small).
    outstanding: Vec<u64>,
    /// The earliest of them (`u64::MAX` when empty): nothing retires
    /// before it, so draining earlier is skipped.
    next_retire: u64,
}

impl Ozq {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "OzQ capacity must be positive");
        Ozq {
            capacity: capacity as usize,
            outstanding: Vec::with_capacity(capacity as usize),
            next_retire: u64::MAX,
        }
    }

    /// Retires entries that complete at or before `now`.
    fn drain(&mut self, now: u64) {
        if now < self.next_retire {
            return;
        }
        self.outstanding.retain(|&t| t > now);
        self.next_retire = self.outstanding.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// True when no request could be accepted at `now`.
    pub(crate) fn is_full_at(&mut self, now: u64) -> bool {
        self.drain(now);
        self.outstanding.len() >= self.capacity
    }

    /// Waits (logically) until a slot is free at or after `now`, returning
    /// the cycle at which issue can proceed. Does not allocate.
    pub(crate) fn wait_for_slot(&mut self, now: u64) -> u64 {
        self.drain(now);
        if self.outstanding.len() < self.capacity {
            return now;
        }
        let earliest = self.next_retire;
        self.drain(earliest);
        earliest
    }

    /// Records an outstanding request completing at `completion`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the queue is already at capacity — call
    /// [`Ozq::wait_for_slot`] first.
    pub(crate) fn push_completion(&mut self, completion: u64) {
        debug_assert!(
            self.outstanding.len() < self.capacity,
            "OzQ overflow: wait_for_slot before pushing"
        );
        self.outstanding.push(completion);
        self.next_retire = self.next_retire.min(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issues a request at `now` that completes `latency` cycles after
    /// it issues; returns the issue cycle.
    fn issue(q: &mut Ozq, now: u64, latency: u32) -> u64 {
        let at = q.wait_for_slot(now);
        q.push_completion(at + u64::from(latency));
        at
    }

    #[test]
    fn fills_then_stalls_until_retirement() {
        let mut q = Ozq::new(2);
        assert_eq!(issue(&mut q, 0, 100), 0);
        assert_eq!(issue(&mut q, 1, 50), 1);
        assert!(q.is_full_at(2));
        // Third request at t=2 must wait for the t=51 retirement.
        assert_eq!(issue(&mut q, 2, 10), 51);
        assert_eq!(q.outstanding.len(), 2);
    }

    #[test]
    fn drain_retires_completed() {
        let mut q = Ozq::new(4);
        issue(&mut q, 0, 10);
        issue(&mut q, 0, 20);
        q.drain(15);
        assert_eq!(q.outstanding.len(), 1);
        q.drain(25);
        assert!(q.outstanding.is_empty());
    }

    #[test]
    fn no_stall_when_space() {
        let mut q = Ozq::new(48);
        for i in 0..48 {
            assert_eq!(issue(&mut q, i, 1000), i);
        }
        assert!(q.is_full_at(48));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Ozq::new(0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The OzQ never admits more than its capacity, and
        /// `wait_for_slot` returns a time at which a slot is genuinely
        /// free.
        #[test]
        fn ozq_capacity_respected(
            cap in 1u32..16,
            reqs in proptest::collection::vec((0u64..100, 1u32..200), 1..64),
        ) {
            let mut q = Ozq::new(cap);
            let mut now = 0u64;
            for (delay, lat) in reqs {
                now += delay;
                let issue = q.wait_for_slot(now);
                proptest::prop_assert!(issue >= now);
                proptest::prop_assert!(q.outstanding.len() < cap as usize);
                q.push_completion(issue + u64::from(lat));
                now = issue;
            }
        }
    }
}
