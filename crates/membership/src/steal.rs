//! A hand-rolled work-stealing scheduler for planned batch groups.
//!
//! The batch planner ([`crate::Reasoner::implies_batch`])
//! produces a fixed set of groups before any worker starts, which makes
//! the scheduling problem much simpler than a general deque: no work is
//! ever *produced* during execution, so the scheduler only drains. That
//! lets three plain mutex-guarded `VecDeque`s do the whole job with zero
//! dependencies and no lock-free subtleties:
//!
//! * a shared **injector** seeded with the cache-warm groups — warm
//!   groups answer from the cache in microseconds, so contention on one
//!   shared queue is irrelevant and draining it first preserves the
//!   planner's warm-before-cold policy under any thread count;
//! * one **local queue per worker**, seeded with the cold groups by
//!   *cache-shard affinity*: a cold group whose LHS hashes to shard `s`
//!   goes to worker `s % workers`, so the worker that computes a basis
//!   is the one whose subsequent inserts and probes touch that shard —
//!   under `shard count == worker count` (the defaults) a worker's
//!   entire local queue maps to its own shard and cross-shard lock
//!   traffic only happens on steals;
//! * **stealing** from the *back* of a victim's queue (FIFO locally,
//!   LIFO when stolen), round-robin from the thief's right-hand
//!   neighbour, so an unlucky static partition no longer serialises the
//!   batch — an idle worker always finds remaining work.
//!
//! Determinism is unaffected by scheduling order: every group is popped
//! exactly once (the queues hand out each index under a lock), each
//! group's result lands in per-item `OnceLock` slots, and group
//! computation itself is independent of which worker runs it. The
//! `steals`/`local_hits` tallies feed the `batch_steals` /
//! `batch_local_hits` observability counters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Drain-only work-stealing queues over group indices. See the module
/// docs for the seeding and popping policy.
pub(crate) struct StealScheduler {
    /// Cache-warm groups, shared by all workers, drained first.
    injector: Mutex<VecDeque<usize>>,
    /// Cold groups, one queue per worker, seeded by shard affinity.
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// Groups taken from another worker's local queue.
    steals: AtomicU64,
    /// Groups a worker took from its own local queue.
    local_hits: AtomicU64,
}

impl StealScheduler {
    /// An empty scheduler for `workers` workers (`workers ≥ 1`).
    pub(crate) fn new(workers: usize) -> Self {
        StealScheduler {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
            local_hits: AtomicU64::new(0),
        }
    }

    /// Seeds a warm group onto the shared injector (drained first, in
    /// plan order).
    pub(crate) fn push_shared(&self, group: usize) {
        self.injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(group);
    }

    /// Seeds a cold group onto `worker`'s local queue (drained in plan
    /// order by its owner, stolen newest-first by others).
    pub(crate) fn push_local(&self, worker: usize, group: usize) {
        self.locals[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(group);
    }

    /// Takes the next group for worker `me`: shared injector first, then
    /// the front of `me`'s own queue, then the back of each other
    /// worker's queue starting from `me + 1`. Returns `None` only when
    /// every queue is empty — nothing is pushed after seeding, so `None`
    /// is final and the worker can exit.
    pub(crate) fn pop(&self, me: usize) -> Option<usize> {
        if let Some(g) = self
            .injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some(g);
        }
        if let Some(g) = self.locals[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            self.local_hits.fetch_add(1, Ordering::Relaxed);
            return Some(g);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(g) = self.locals[victim]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(g);
            }
        }
        None
    }

    /// Groups taken from another worker's queue so far.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Groups workers took from their own queues so far.
    pub(crate) fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::StealScheduler;

    #[test]
    fn drains_injector_then_local_then_steals() {
        let s = StealScheduler::new(2);
        s.push_shared(0);
        s.push_local(0, 1);
        s.push_local(0, 2);
        s.push_local(1, 3);
        // worker 0: injector first, then its own queue front-to-back
        assert_eq!(s.pop(0), Some(0));
        assert_eq!(s.pop(0), Some(1));
        // worker 1: own queue, then steals from the back of worker 0's
        assert_eq!(s.pop(1), Some(3));
        assert_eq!(s.pop(1), Some(2));
        assert_eq!(s.steals(), 1);
        assert_eq!(s.local_hits(), 2);
        assert_eq!(s.pop(0), None);
        assert_eq!(s.pop(1), None);
    }

    #[test]
    fn every_group_claimed_exactly_once_under_contention() {
        let s = StealScheduler::new(4);
        for g in 0..97 {
            if g % 5 == 0 {
                s.push_shared(g);
            } else {
                s.push_local(g % 4, g);
            }
        }
        let claimed: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(g) = s.pop(w) {
                            mine.push(g);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..97).collect::<Vec<_>>());
        // every non-injected group was either a local hit or a steal
        assert_eq!(s.steals() + s.local_hits(), 97 - 20);
    }
}
