//! Deterministic time-ordered event queue.
//!
//! Implemented as a calendar queue: a fixed wheel of per-cycle buckets
//! covering the near future, with a binary-heap overflow for events
//! scheduled beyond the wheel's horizon. Discrete-event simulators
//! schedule almost exclusively a few tens to hundreds of cycles ahead
//! (component latencies), so nearly every event takes the O(1)
//! bucket path; the heap only sees rare far-future timers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Log2 of the wheel size. 1024 cycles comfortably covers every
/// component latency in the simulated machine (the slowest single hop,
/// uncontended DRAM plus network, is well under 300 CPU cycles), so the
/// overflow heap is cold in practice.
const WHEEL_BITS: u32 = 10;
/// Cycles (and buckets) covered by the wheel window `[base, base+SPAN)`.
const WHEEL_SPAN: Cycle = 1 << WHEEL_BITS;
/// Maps an absolute cycle to its bucket index.
const WHEEL_MASK: Cycle = WHEEL_SPAN - 1;

/// A deterministic discrete-event queue.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the same cycle are delivered in the order they were scheduled (FIFO).
/// This makes every simulation run bit-for-bit reproducible.
///
/// The payload type `E` is chosen by the simulator that owns the queue; the
/// engine itself attaches no meaning to it.
///
/// # Example
///
/// ```
/// let mut q = ccn_sim::EventQueue::new();
/// q.schedule(20, "b");
/// q.schedule(10, "a");
/// q.schedule(20, "c");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b")));
/// assert_eq!(q.pop(), Some((20, "c")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// # Invariants
///
/// * Every bucketed event's timestamp lies in `[base, base + SPAN)`, so a
///   bucket only ever holds events of a single absolute cycle and needs no
///   per-event timestamp or ordering key — insertion order *is* FIFO order.
/// * Every overflow event's timestamp is `>= base + SPAN` (restored by
///   migration at the top of each [`pop`](Self::pop)). Because migration
///   runs before any later `schedule` call can add a same-cycle event to a
///   bucket, migrated (earlier-scheduled) events always land in front:
///   global FIFO order is preserved without storing sequence numbers in
///   the wheel.
/// * `now <= `(every pending timestamp), enforced by the scheduling
///   assertion, so sliding `base` up to `now` never strands an event
///   behind the window.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `SPAN` buckets; bucket `t & MASK` holds the events for cycle `t`
    /// as a `(head, tail)` intrusive FIFO through `slab` (`NIL` = empty).
    ///
    /// One shared slab instead of a `VecDeque` per bucket: bursty
    /// workloads pile thousands of same-cycle events into whichever
    /// bucket the burst lands on, and per-bucket buffers would each have
    /// to be sized for the worst burst (megabytes of mostly-idle
    /// capacity) to keep the steady state allocation-free. The slab is
    /// sized once for the *total* pending high-water mark, which every
    /// bucket shares.
    wheel: Box<[(u32, u32)]>,
    /// Node storage for the wheel's intrusive lists.
    slab: Vec<Slot<E>>,
    /// Head of the free list through `slab` (`NIL` = empty).
    free: u32,
    /// Events in the wheel (the buckets' total length).
    wheel_len: usize,
    /// Start of the wheel's window; only ever advances.
    base: Cycle,
    /// Events at or beyond `base + SPAN`, ordered by `(time, seq)`.
    overflow: BinaryHeap<Far<E>>,
    /// Scheduling sequence number; doubles as the lifetime event count.
    seq: u64,
    /// High-water mark of concurrently pending events, for capacity
    /// planning (the zero-alloc gate needs buckets sized past this).
    max_pending: usize,
    now: Cycle,
}

/// Sentinel for "no slot" in the wheel's intrusive lists.
const NIL: u32 = u32::MAX;

/// One slab slot: an event plus the link to the next slot of its bucket
/// (or of the free list). `None` while on the free list.
#[derive(Debug)]
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

/// An overflow (far-future) event. The sequence number breaks timestamp
/// ties so same-cycle events migrate to their bucket in FIFO order.
#[derive(Debug)]
struct Far<E> {
    key: Reverse<(Cycle, u64)>,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at cycle zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `events` concurrently
    /// pending events, so neither warm-up (e.g. scheduling every
    /// processor's initial resume at cycle zero) nor a steady state
    /// that stays under the high-water mark ever reallocates. The
    /// shared slab means the bound covers any distribution of those
    /// events across cycles, including all of them landing on one.
    pub fn with_capacity(events: usize) -> Self {
        EventQueue {
            wheel: vec![(NIL, NIL); WHEEL_SPAN as usize].into_boxed_slice(),
            slab: Vec::with_capacity(events),
            free: NIL,
            wheel_len: 0,
            base: 0,
            overflow: BinaryHeap::with_capacity(events.min(64)),
            seq: 0,
            max_pending: 0,
            now: 0,
        }
    }

    /// Takes a slab slot for `event` and returns its index, reusing the
    /// free list when possible.
    fn alloc_slot(&mut self, event: E) -> u32 {
        let idx = self.free;
        if idx == NIL {
            assert!(self.slab.len() < NIL as usize, "event slab full");
            self.slab.push(Slot {
                event: Some(event),
                next: NIL,
            });
            self.slab.len() as u32 - 1
        } else {
            let slot = &mut self.slab[idx as usize];
            self.free = slot.next;
            slot.event = Some(event);
            slot.next = NIL;
            idx
        }
    }

    /// Appends `event` to the bucket for absolute cycle `time` (which
    /// must be inside the wheel window).
    fn push_bucket(&mut self, time: Cycle, event: E) {
        let idx = self.alloc_slot(event);
        let b = (time & WHEEL_MASK) as usize;
        let (_, tail) = self.wheel[b];
        if tail == NIL {
            self.wheel[b] = (idx, idx);
        } else {
            self.slab[tail as usize].next = idx;
            self.wheel[b].1 = idx;
        }
        self.wheel_len += 1;
    }

    /// Removes and returns the first event of `bucket`, if any,
    /// returning its slot to the free list.
    fn pop_bucket(&mut self, bucket: usize) -> Option<E> {
        let (head, _) = self.wheel[bucket];
        if head == NIL {
            return None;
        }
        let slot = &mut self.slab[head as usize];
        let next = slot.next;
        let event = slot.event.take().expect("occupied bucket slot");
        slot.next = self.free;
        self.free = head;
        if next == NIL {
            self.wheel[bucket] = (NIL, NIL);
        } else {
            self.wheel[bucket].0 = next;
        }
        self.wheel_len -= 1;
        Some(event)
    }

    /// Schedules `event` to fire at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before the last popped event); a
    /// simulator that schedules into the past has a causality bug and must
    /// fail loudly rather than silently reorder history.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "event scheduled at cycle {time} but the clock is already at {}",
            self.now
        );
        self.seq += 1;
        self.max_pending = self
            .max_pending
            .max(self.wheel_len + self.overflow.len() + 1);
        // `time >= now >= base` outside of `pop`, so this subtraction
        // cannot wrap.
        if time - self.base < WHEEL_SPAN {
            self.push_bucket(time, event);
        } else {
            self.overflow.push(Far {
                key: Reverse((time, self.seq)),
                event,
            });
        }
    }

    /// Removes and returns the next event as `(time, event)`, advancing the
    /// clock to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.wheel_len == 0 {
            // Either empty, or everything pending is far-future: jump the
            // window straight to the earliest overflow timestamp.
            let &Far {
                key: Reverse((first, _)),
                ..
            } = self.overflow.peek()?;
            self.base = first;
        } else if self.base < self.now {
            // Slide the window forward. Buckets for cycles before `now`
            // are necessarily empty (their events would be in the past),
            // so no wheel entry is stranded.
            self.base = self.now;
        }
        // Pull newly-in-window overflow events into their buckets. Heap
        // order is (time, seq), so same-cycle events arrive FIFO.
        while let Some(&Far {
            key: Reverse((t, _)),
            ..
        }) = self.overflow.peek()
        {
            if t - self.base >= WHEEL_SPAN {
                break;
            }
            let far = self.overflow.pop().expect("peeked entry");
            self.push_bucket(t, far.event);
        }
        // The earliest pending event is now in the wheel, at or after
        // max(base, now) and before base + SPAN. Empty buckets behind
        // `now` are never rescanned, so the scan cost amortizes to
        // O(time advanced) across a run.
        let mut t = self.base.max(self.now);
        loop {
            debug_assert!(t < self.base + WHEEL_SPAN, "scan ran past the window");
            if let Some(event) = self.pop_bucket((t & WHEEL_MASK) as usize) {
                self.now = t;
                return Some((t, event));
            }
            t += 1;
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.wheel_len > 0 {
            // The wheel's minimum beats everything in overflow (which is
            // entirely at or beyond base + SPAN).
            let mut t = self.base.max(self.now);
            loop {
                debug_assert!(t < self.base + WHEEL_SPAN, "peek ran past the window");
                if self.wheel[(t & WHEEL_MASK) as usize].0 != NIL {
                    return Some(t);
                }
                t += 1;
            }
        }
        self.overflow.peek().map(|far| far.key.0 .0)
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.overflow.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.seq
    }

    /// High-water mark of concurrently pending events over the queue's
    /// lifetime.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 'a');
        q.schedule(3, 'b');
        q.schedule(9, 'c');
        assert_eq!(q.pop(), Some((3, 'b')));
        assert_eq!(q.pop(), Some((5, 'a')));
        assert_eq!(q.pop(), Some((9, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(10, ());
        q.schedule(20, ());
        q.pop();
        assert_eq!(q.now(), 10);
        q.schedule(15, ()); // future relative to 10: fine
        q.pop();
        assert_eq!(q.now(), 15);
    }

    #[test]
    #[should_panic(expected = "scheduled at cycle")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn counts_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(4, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.total_scheduled(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_overflow_path() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window, plus a near event.
        q.schedule(5, "near");
        q.schedule(1_000_000, "far-b");
        q.schedule(1_000_000, "far-c"); // same-cycle tie across overflow
        q.schedule(999_999, "far-a");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((5, "near")));
        // The wheel is empty: the window must jump, not scan a million slots.
        assert_eq!(q.peek_time(), Some(999_999));
        assert_eq!(q.pop(), Some((999_999, "far-a")));
        assert_eq!(q.pop(), Some((1_000_000, "far-b")));
        assert_eq!(q.pop(), Some((1_000_000, "far-c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn migrated_and_direct_events_interleave_fifo() {
        let mut q = EventQueue::new();
        let target = 3 * WHEEL_SPAN; // starts out beyond the window
        q.schedule(target, "scheduled-first");
        // Walk the clock forward until `target` is inside the window,
        // then schedule a same-cycle event directly into the bucket.
        let mut t = 0;
        while t + WHEEL_SPAN <= target {
            q.schedule(t + 1, "tick");
            let (pt, _) = q.pop().unwrap();
            t = pt;
        }
        q.schedule(target, "scheduled-second");
        assert_eq!(q.pop(), Some((target, "scheduled-first")));
        assert_eq!(q.pop(), Some((target, "scheduled-second")));
    }

    #[test]
    fn window_boundary_events_classify_correctly() {
        let mut q = EventQueue::new();
        q.schedule(WHEEL_SPAN - 1, "last-in-window");
        q.schedule(WHEEL_SPAN, "first-beyond");
        assert_eq!(q.pop(), Some((WHEEL_SPAN - 1, "last-in-window")));
        assert_eq!(q.pop(), Some((WHEEL_SPAN, "first-beyond")));
        assert_eq!(q.pop(), None);
    }
}
