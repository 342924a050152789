//! Deterministic event queue.
//!
//! A binary heap keyed by `(time, insertion sequence)`. Ties on the clock
//! are broken by insertion order, so a simulation run is a pure function of
//! the events pushed — never of hash ordering or allocation addresses.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered queue of simulation events with payloads of type `E`.
///
/// # Example
///
/// ```
/// use naspipe_sim::event::EventQueue;
/// use naspipe_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(20), "late");
/// q.push(SimTime::from_us(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_us(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past is allowed (the event fires "immediately" at
    /// its stated time but after already-queued earlier events); this keeps
    /// the queue monotone via [`pop`](Self::pop).
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    ///
    /// The clock never moves backwards: an event scheduled before the
    /// current time is delivered at the current time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = self.now.max(entry.time);
        Some((self.now, entry.payload))
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(30), 3);
        q.push(SimTime::from_us(10), 1);
        q.push(SimTime::from_us(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(50), "a");
        q.push(SimTime::from_us(10), "b");
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1.as_us(), 10);
        // Event scheduled in the "past" after time advanced:
        q.push(SimTime::from_us(60), "c");
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2.as_us(), 50);
        q.push(SimTime::from_us(1), "late");
        let (t3, p) = q.pop().unwrap();
        assert_eq!(p, "late");
        assert_eq!(t3.as_us(), 50, "clock must not run backwards");
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
