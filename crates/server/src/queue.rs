//! The bounded job queue underneath the schedule server.
//!
//! [`ShardedQueue`] keeps per-shard locks so submitters and workers on
//! different shards never contend, a single atomic occupancy counter
//! enforcing the global bound, and *targeted* wakeups: the notify syscall
//! is skipped entirely unless a waiter is registered, so a busy server
//! with spinning workers never pays a wakeup herd.
//!
//! The queue counts every condvar notification it issues
//! ([`WakeupStats`]); the contention regression tests pin the no-herd
//! property to those counters. The bound is the server's backpressure: a
//! caller either blocks (`push`) or gets an immediate refusal
//! (`try_push_to`) instead of queueing unbounded work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many condvar notifications a queue has issued — the observable
/// half of the targeted-wakeup contract. A queue that notified less
/// often than it moved items provably never herded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeupStats {
    /// Notifications aimed at consumers waiting for work.
    pub work_notifies: u64,
    /// Notifications aimed at producers waiting for space.
    pub space_notifies: u64,
}

/// A closeable MPMC queue spread over independently locked shards with
/// one global capacity bound.
///
/// Producers spread pushes round-robin (or pin them with
/// [`ShardedQueue::push_to`]); consumers pop from a *home shard* first
/// and scan outward, so a worker keeps cache-warm affinity with the
/// reactor that feeds its shard while still stealing anything available.
///
/// FIFO order holds **per shard**, not globally — the serving layer's
/// determinism contract makes job results independent of dequeue order,
/// which is exactly what licenses this relaxation.
///
/// # Wakeup protocol
///
/// The blocking paths use one gate mutex shared by all shards, but the
/// notify syscall is issued only when the matching waiter counter is
/// nonzero. The counters and the occupancy counter are all `SeqCst`, and
/// both sides write-then-read in opposite orders (producer: publish item,
/// read waiters; consumer: publish waiter, read occupancy), so in the
/// single total order either the producer observes the waiter or the
/// consumer observes the item — a lost wakeup would require both reads to
/// miss, which `SeqCst` forbids.
#[derive(Debug)]
pub struct ShardedQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Global occupancy; reserved by CAS *before* the item lands in a
    /// shard, so the capacity bound is exact.
    size: AtomicUsize,
    capacity: usize,
    open: AtomicBool,
    gate: Mutex<()>,
    work: Condvar,
    space: Condvar,
    work_waiters: AtomicUsize,
    space_waiters: AtomicUsize,
    work_notifies: AtomicU64,
    space_notifies: AtomicU64,
    round_robin: AtomicUsize,
}

impl<T> ShardedQueue<T> {
    /// A queue of `shards` independently locked lanes (minimum 1)
    /// holding at most `capacity` items in total (minimum 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        ShardedQueue {
            shards: (0..shards.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            size: AtomicUsize::new(0),
            capacity: capacity.max(1),
            open: AtomicBool::new(true),
            gate: Mutex::new(()),
            work: Condvar::new(),
            space: Condvar::new(),
            work_waiters: AtomicUsize::new(0),
            space_waiters: AtomicUsize::new(0),
            work_notifies: AtomicU64::new(0),
            space_notifies: AtomicU64::new(0),
            round_robin: AtomicUsize::new(0),
        }
    }

    /// Items currently queued across all shards.
    pub fn len(&self) -> usize {
        self.size.load(Ordering::SeqCst)
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Condvar notifications issued so far.
    pub fn wakeup_stats(&self) -> WakeupStats {
        WakeupStats {
            work_notifies: self.work_notifies.load(Ordering::Relaxed),
            space_notifies: self.space_notifies.load(Ordering::Relaxed),
        }
    }

    /// Enqueues round-robin across shards, blocking while the queue is
    /// full. Returns the item back if the queue closed first.
    pub fn push(&self, item: T) -> Result<(), T> {
        let shard = self.round_robin.fetch_add(1, Ordering::Relaxed);
        self.push_to(shard, item)
    }

    /// As [`ShardedQueue::push`], pinned to shard `shard_hint` modulo the
    /// shard count (how a reactor keeps its connections' jobs on its
    /// workers' home shard).
    pub fn push_to(&self, shard_hint: usize, item: T) -> Result<(), T> {
        loop {
            if !self.open.load(Ordering::SeqCst) {
                return Err(item);
            }
            if self.try_reserve() {
                self.insert(shard_hint, item);
                return Ok(());
            }
            // Full: park until a pop frees a slot (or the queue closes).
            let gate = self.gate.lock().expect("queue gate poisoned");
            self.space_waiters.fetch_add(1, Ordering::SeqCst);
            if self.size.load(Ordering::SeqCst) < self.capacity || !self.open.load(Ordering::SeqCst)
            {
                self.space_waiters.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let gate = self.space.wait(gate).expect("queue gate poisoned");
            self.space_waiters.fetch_sub(1, Ordering::SeqCst);
            drop(gate);
        }
    }

    /// Enqueues into shard `shard_hint` (modulo the shard count) without
    /// blocking. Returns the item back when the queue is full or closed.
    pub fn try_push_to(&self, shard_hint: usize, item: T) -> Result<(), T> {
        if !self.open.load(Ordering::SeqCst) || !self.try_reserve() {
            return Err(item);
        }
        self.insert(shard_hint, item);
        Ok(())
    }

    /// Dequeues, preferring shard `home_shard` modulo the shard count and
    /// scanning outward, blocking while all shards are empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self, home_shard: usize) -> Option<T> {
        loop {
            // Fast path: occupancy says an item exists (or is about to —
            // a producer reserves before inserting, so a miss here only
            // lasts as long as that producer's shard push).
            while self.size.load(Ordering::SeqCst) > 0 {
                if let Some(item) = self.scan_pop(home_shard) {
                    self.size.fetch_sub(1, Ordering::SeqCst);
                    if self.space_waiters.load(Ordering::SeqCst) > 0 {
                        let _gate = self.gate.lock().expect("queue gate poisoned");
                        self.space_notifies.fetch_add(1, Ordering::Relaxed);
                        self.space.notify_one();
                    }
                    return Some(item);
                }
                std::thread::yield_now();
            }
            let gate = self.gate.lock().expect("queue gate poisoned");
            self.work_waiters.fetch_add(1, Ordering::SeqCst);
            if self.size.load(Ordering::SeqCst) > 0 {
                self.work_waiters.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if !self.open.load(Ordering::SeqCst) {
                self.work_waiters.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            let gate = self.work.wait(gate).expect("queue gate poisoned");
            self.work_waiters.fetch_sub(1, Ordering::SeqCst);
            drop(gate);
        }
    }

    /// Dequeues without blocking (same shard affinity as
    /// [`ShardedQueue::pop`]).
    pub fn try_pop(&self, home_shard: usize) -> Option<T> {
        while self.size.load(Ordering::SeqCst) > 0 {
            if let Some(item) = self.scan_pop(home_shard) {
                self.size.fetch_sub(1, Ordering::SeqCst);
                if self.space_waiters.load(Ordering::SeqCst) > 0 {
                    let _gate = self.gate.lock().expect("queue gate poisoned");
                    self.space_notifies.fetch_add(1, Ordering::Relaxed);
                    self.space.notify_one();
                }
                return Some(item);
            }
            if !self.open.load(Ordering::SeqCst) {
                // A racing pop drained the reservation we observed.
                return None;
            }
            std::thread::yield_now();
        }
        None
    }

    /// Closes the queue: producers fail fast, consumers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        let _gate = self.gate.lock().expect("queue gate poisoned");
        self.open.store(false, Ordering::SeqCst);
        self.work.notify_all();
        self.space.notify_all();
    }

    fn try_reserve(&self) -> bool {
        let mut size = self.size.load(Ordering::SeqCst);
        loop {
            if size >= self.capacity {
                return false;
            }
            match self.size.compare_exchange_weak(
                size,
                size + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => size = actual,
            }
        }
    }

    fn insert(&self, shard_hint: usize, item: T) {
        let shard = shard_hint % self.shards.len();
        self.shards[shard].lock().expect("queue shard poisoned").push_back(item);
        if self.work_waiters.load(Ordering::SeqCst) > 0 {
            let _gate = self.gate.lock().expect("queue gate poisoned");
            self.work_notifies.fetch_add(1, Ordering::Relaxed);
            self.work.notify_one();
        }
    }

    fn scan_pop(&self, home_shard: usize) -> Option<T> {
        let n = self.shards.len();
        let home = home_shard % n;
        for i in 0..n {
            let shard = &self.shards[(home + i) % n];
            if let Some(item) = shard.lock().expect("queue shard poisoned").pop_front() {
                return Some(item);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sharded_fifo_holds_within_a_shard() {
        let queue = ShardedQueue::new(4, 64);
        for i in 0..8 {
            queue.try_push_to(1, i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(queue.pop(1), Some(i));
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn sharded_pop_steals_from_other_shards() {
        let queue = ShardedQueue::new(4, 64);
        queue.try_push_to(3, 'x').unwrap();
        assert_eq!(queue.pop(0), Some('x'), "home shard 0 scans outward to shard 3");
    }

    #[test]
    fn sharded_capacity_is_global_and_hard() {
        let queue = ShardedQueue::new(4, 2);
        queue.try_push_to(0, 1).unwrap();
        queue.try_push_to(1, 2).unwrap();
        assert_eq!(queue.try_push_to(2, 3), Err(3), "capacity spans shards");
        assert_eq!(queue.pop(2), Some(1));
        queue.try_push_to(2, 3).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn sharded_close_drains_then_stops() {
        let queue = ShardedQueue::new(2, 8);
        queue.try_push_to(0, 1).unwrap();
        queue.try_push_to(1, 2).unwrap();
        queue.close();
        assert_eq!(queue.try_push_to(0, 3), Err(3));
        assert_eq!(queue.push(4), Err(4));
        let mut drained = vec![queue.pop(0).unwrap(), queue.pop(0).unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(queue.pop(0), None);
        assert_eq!(queue.try_pop(0), None);
    }

    #[test]
    fn sharded_close_unblocks_waiting_consumers() {
        let queue = Arc::new(ShardedQueue::<u32>::new(4, 8));
        let consumers: Vec<_> = (0..3)
            .map(|shard| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.pop(shard))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        queue.close();
        for consumer in consumers {
            assert_eq!(consumer.join().unwrap(), None);
        }
    }

    #[test]
    fn sharded_blocking_push_waits_for_space() {
        let queue = Arc::new(ShardedQueue::new(2, 1));
        queue.push(0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(queue.pop(0), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(0), Some(1));
    }

    #[test]
    fn sharded_pushes_with_nobody_waiting_never_notify() {
        let queue = ShardedQueue::new(4, 64);
        for i in 0..50 {
            queue.try_push_to(i, i).unwrap();
        }
        for _ in 0..50 {
            queue.pop(0).unwrap();
        }
        assert_eq!(queue.wakeup_stats(), WakeupStats::default());
    }

    /// The sharded contention regression pin: many producers and
    /// consumers hammering a small queue stay within one notify per item
    /// in each direction.
    #[test]
    fn sharded_queue_wakeups_are_bounded_under_contention() {
        const ITEMS_PER_PRODUCER: u64 = 500;
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        let queue = Arc::new(ShardedQueue::new(4, 8));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|shard| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = 0u64;
                    while queue.pop(shard).is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|shard| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..ITEMS_PER_PRODUCER {
                        queue.push_to(shard, i).unwrap();
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        queue.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let pushed = ITEMS_PER_PRODUCER * PRODUCERS as u64;
        assert_eq!(total, pushed);
        let stats = queue.wakeup_stats();
        assert!(
            stats.work_notifies <= pushed,
            "work wakeups ({}) exceed items pushed ({pushed}): herd regression",
            stats.work_notifies
        );
        assert!(
            stats.space_notifies <= pushed,
            "space wakeups ({}) exceed items popped ({pushed}): herd regression",
            stats.space_notifies
        );
    }

    /// No lost wakeups: tiny capacity, tiny bursts, many rounds — every
    /// item pushed is eventually popped even though most notifies are
    /// skipped.
    #[test]
    fn sharded_queue_never_loses_a_wakeup() {
        const ROUNDS: u64 = 3_000;
        let queue = Arc::new(ShardedQueue::new(2, 1));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut got = 0u64;
                while queue.pop(0).is_some() {
                    got += 1;
                }
                got
            })
        };
        for i in 0..ROUNDS {
            queue.push(i).unwrap();
        }
        queue.close();
        assert_eq!(consumer.join().unwrap(), ROUNDS);
    }
}
