//! A deterministic time-ordered event queue, and a slot-indexed
//! next-event index built on it.

use crate::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap of `(key, payload)` events with FIFO tie-breaking.
///
/// Events pushed at the same key pop in insertion order, which keeps
/// the simulator deterministic regardless of heap internals. The key
/// defaults to [`Time`] but any `Ord + Copy` type works — the serving
/// engine keys its replica index with `(f64-total-order, replica)`
/// pairs, for example.
///
/// # Examples
///
/// ```
/// use ianus_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), 'b');
/// q.push(Time::from_ns(5), 'c');
/// q.push(Time::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E, K: Ord + Copy = Time> {
    heap: BinaryHeap<Entry<E, K>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E, K: Ord + Copy> {
    key: Reverse<(K, u64)>,
    event: E,
}

impl<E, K: Ord + Copy> PartialEq for Entry<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E, K: Ord + Copy> Eq for Entry<E, K> {}
impl<E, K: Ord + Copy> PartialOrd for Entry<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E, K: Ord + Copy> Ord for Entry<E, K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E, K: Ord + Copy> EventQueue<E, K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at key `at`.
    pub fn push(&mut self, at: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((at, seq)),
            event,
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(K, E)> {
        self.heap.pop().map(|e| ((e.key.0).0, e.event))
    }

    /// Key and payload of the earliest pending event.
    pub fn peek(&self) -> Option<(K, &E)> {
        self.heap.peek().map(|e| ((e.key.0).0, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E, K: Ord + Copy> Default for EventQueue<E, K> {
    fn default() -> Self {
        Self::new()
    }
}

/// A next-event index over a fixed set of dense integer *slots*
/// (replicas, channels, …), supporting O(log n) reschedule by **lazy
/// invalidation**: rescheduling or cancelling a slot bumps its stamp,
/// and stale heap entries are skipped when they surface.
///
/// Ties on equal keys resolve to the **lowest slot index** — the order
/// a linear `for slot in 0..n` scan with a strict `<` would pick —
/// which is what lets an event-driven engine replace a per-step scan
/// bit-identically.
///
/// # Examples
///
/// ```
/// use ianus_sim::SlotQueue;
/// let mut q = SlotQueue::new(3);
/// q.schedule(2, 10u64);
/// q.schedule(0, 10);
/// q.schedule(1, 5);
/// q.schedule(1, 20); // reschedule: the old entry is invalidated
/// assert_eq!(q.pop(), Some((10, 0))); // slot order breaks the 10-tie
/// assert_eq!(q.pop(), Some((10, 2)));
/// assert_eq!(q.pop(), Some((20, 1)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct SlotQueue<K: Ord + Copy> {
    /// Heap of `((key, slot), stamp)`; an entry is live iff its stamp
    /// matches the slot's current stamp.
    heap: EventQueue<u64, (K, usize)>,
    /// Per-slot `(stamp, scheduled key)`.
    state: Vec<(u64, Option<K>)>,
    scheduled: usize,
}

impl<K: Ord + Copy> SlotQueue<K> {
    /// Creates an index over `slots` slots, none scheduled.
    pub fn new(slots: usize) -> Self {
        SlotQueue {
            heap: EventQueue::new(),
            state: vec![(0, None); slots],
            scheduled: 0,
        }
    }

    /// Schedules (or reschedules) `slot` at `key`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn schedule(&mut self, slot: usize, key: K) {
        let (stamp, entry) = &mut self.state[slot];
        *stamp += 1;
        if entry.is_none() {
            self.scheduled += 1;
        }
        *entry = Some(key);
        self.heap.push((key, slot), *stamp);
    }

    /// Cancels `slot`'s pending entry, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn cancel(&mut self, slot: usize) {
        let (stamp, entry) = &mut self.state[slot];
        if entry.take().is_some() {
            *stamp += 1;
            self.scheduled -= 1;
        }
    }

    /// The key `slot` is currently scheduled at, if any.
    pub fn key_of(&self, slot: usize) -> Option<K> {
        self.state[slot].1
    }

    /// Key and slot of the earliest live entry, pruning stale entries.
    pub fn peek(&mut self) -> Option<(K, usize)> {
        while let Some(((key, slot), &stamp)) = self.heap.peek() {
            if self.state[slot].0 == stamp {
                debug_assert!(self.state[slot].1.is_some());
                return Some((key, slot));
            }
            self.heap.pop();
        }
        None
    }

    /// Removes and returns the earliest live entry.
    pub fn pop(&mut self) -> Option<(K, usize)> {
        let (key, slot) = self.peek()?;
        self.heap.pop();
        let (stamp, entry) = &mut self.state[slot];
        *stamp += 1;
        *entry = None;
        self.scheduled -= 1;
        Some((key, slot))
    }

    /// Number of scheduled slots.
    pub fn len(&self) -> usize {
        self.scheduled
    }

    /// Whether no slot is scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.push(Time::from_ns(4), ());
        q.push(Time::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((Time::from_ns(2), &())));
    }

    #[test]
    fn generic_keys() {
        // A non-Time key: (u64, usize) pairs order lexicographically.
        let mut q: EventQueue<&str, (u64, usize)> = EventQueue::new();
        q.push((5, 2), "late");
        q.push((5, 1), "early");
        assert_eq!(q.pop(), Some(((5, 1), "early")));
        assert_eq!(q.pop(), Some(((5, 2), "late")));
    }

    #[test]
    fn slot_queue_orders_and_ties_by_slot() {
        let mut q = SlotQueue::new(4);
        q.schedule(3, 7u64);
        q.schedule(1, 7);
        q.schedule(2, 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some((3, 2)));
        assert_eq!(q.pop(), Some((3, 2)));
        // Equal keys pop in slot order, not insertion order.
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_queue_reschedule_invalidates() {
        let mut q = SlotQueue::new(2);
        q.schedule(0, 1u64);
        q.schedule(1, 2);
        q.schedule(0, 9); // move slot 0 later
        assert_eq!(q.key_of(0), Some(9));
        assert_eq!(q.pop(), Some((2, 1)));
        assert_eq!(q.pop(), Some((9, 0)));
        assert_eq!(q.pop(), None);
        // Reschedule to the *same* key also invalidates the old entry.
        q.schedule(0, 5);
        q.schedule(0, 5);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_queue_cancel() {
        let mut q = SlotQueue::new(3);
        q.schedule(0, 4u64);
        q.schedule(1, 1);
        q.cancel(1);
        q.cancel(2); // cancelling an unscheduled slot is a no-op
        assert_eq!(q.len(), 1);
        assert_eq!(q.key_of(1), None);
        assert_eq!(q.pop(), Some((4, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_queue_heavy_churn_stays_consistent() {
        // Reschedule every slot many times; the queue must always pop
        // the live minimum despite the pile of stale entries.
        let mut q = SlotQueue::new(8);
        let mut keys = [0u64; 8];
        let mut x = 0x12345678u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (x >> 33) as usize % 8;
            let key = x % 1000;
            q.schedule(slot, key);
            keys[slot] = key;
        }
        let mut live: Vec<(u64, usize)> = keys.iter().enumerate().map(|(s, &k)| (k, s)).collect();
        live.sort();
        for want in live {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
    }
}
