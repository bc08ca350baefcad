//! Deterministic event queue: a calendar of one-cycle buckets in front of a
//! binary heap ([`EventQueue`]), whose explored pop lets an
//! [`EventChooser`] pick which of several near-simultaneous events fires
//! next, selecting it in place.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// A pluggable source of scheduling decisions for exploration mode (see
/// [`crate::explore`]).
///
/// When [`EventQueue::pop_explored`] finds more than one event eligible to
/// fire, it asks the chooser which one goes first. Index `0` is always the
/// event the plain FIFO queue would have fired, so a chooser that constantly
/// answers `0` reproduces [`EventQueue::pop`] exactly.
pub trait EventChooser {
    /// Choose among `n >= 2` eligible events, ordered by `(time, seq)`.
    /// The return value is clamped to `n - 1` by the caller.
    fn choose(&mut self, n: usize) -> usize;
}

/// An entry: ordered by time, then by insertion sequence so that events
/// scheduled for the same cycle pop in FIFO order. `BinaryHeap` is a
/// max-heap, so comparisons are reversed.
struct Entry<E> {
    time: Cycle,
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
        // Reverse: the smallest (time, seq) must be the heap maximum.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default number of calendar buckets, one simulated cycle each. Covers the
/// overwhelmingly common small-delta schedules (cache hits, network hops,
/// NACK retries) with O(1) push/pop; anything scheduled further out takes
/// the heap fallback and migrates into the calendar as the window slides.
/// Scaled-out systems (more in-flight events, longer latency tails) can
/// widen the window via [`EventQueue::with_buckets`].
pub const DEFAULT_BUCKETS: usize = 256;

/// Sentinel index terminating intrusive node lists (and the freelist).
const NIL: u32 = u32::MAX;

/// An arena slot: one pending event threaded into its bucket's singly
/// linked list, or a slot parked on the freelist. A node carries no time
/// or seq: its bucket names its time, and its place in the list its seq.
struct Node<E> {
    /// Next node in this bucket's seq-ordered list, or next free slot.
    next: u32,
    /// The event. Popping copies it out and leaves the stale copy in the
    /// slot until the slot is reused.
    payload: E,
}

/// A priority queue of timestamped events with deterministic ordering.
///
/// Events pop in nondecreasing [`Cycle`] order; events scheduled for the same
/// cycle pop in the order they were pushed (stable FIFO tie-breaking). This
/// determinism is load-bearing: the whole LogTM-SE evaluation relies on runs
/// being exactly reproducible from `(config, seed)`.
///
/// # Implementation
///
/// A bucketed calendar queue fronts a binary heap. Buckets cover the sliding
/// window `[window_start, window_start + 256)` at one-cycle granularity, so
/// the hot path (small scheduling deltas) is an append to a ring slot and a
/// bitmap scan — no sift. Events outside the window land in the heap and are
/// migrated into buckets as the window advances; each event migrates at most
/// once. The observable order is **exactly** the `(time, seq)` order the
/// plain heap produced, including [`EventQueue::pop_explored`] semantics —
/// the differential tests below pin this down.
///
/// The window only ever advances to the time of a global-minimum event, and
/// every pop fires at that time, so no pending event is ever behind the
/// window: bucketed events lie inside it, heap events at or past its end.
/// Every event in a bucket therefore precedes every event in the heap, and a
/// bucket's list is in seq order by construction (a push carries the largest
/// seq so far, and a time's heap entries migrate before any push at that
/// time can reach its bucket).
///
/// Storage is a node **arena with a freelist**: each bucket is a 4-byte head
/// index into one shared slab of intrusive singly linked nodes, so pushing
/// and popping never allocates after warm-up and the bucket header array
/// stays small enough to sit in cache even at the 4096-bucket windows
/// 256-context systems use (a `VecDeque` per bucket cost 32 bytes of header
/// per slot plus a separate heap block each — the dominant per-event cost at
/// scale before this layout). A node is only its `next` link and its `Copy`
/// payload, so a push writes the payload straight into its slot and a pop
/// copies it out; a node's bucket gives its time and its list position its
/// seq, so neither is stored.
///
/// A pop first looks at the bucket for `now`, since the window starts at
/// `now` and most events fire at the time of the one before them; only
/// when that bucket is empty does it scan the occupancy bitmap, one bit per
/// bucket, from the window start. The simulator's windows are 256 to 4096
/// buckets, so that is 4 to 64 words; a second-level summary over the words
/// measured no faster, even at 4096 buckets.
///
/// [`EventQueue::pop_explored`] selects in place: it counts the eligible
/// events by walking the buckets in `(time, seq)` order and unlinks only the
/// chosen one, so the unchosen candidates never move. Only a horizon that
/// reaches past the bucket window pops heap candidates, into a local buffer,
/// and pushes the unchosen ones back.
///
/// # Example
///
/// ```
/// use ltse_sim::{Cycle, EventQueue};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Ev { Tick, Tock }
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(2), Ev::Tock);
/// q.push(Cycle(1), Ev::Tick);
/// assert_eq!(q.pop(), Some((Cycle(1), Ev::Tick)));
/// assert_eq!(q.pop(), Some((Cycle(2), Ev::Tock)));
/// ```
pub struct EventQueue<E> {
    /// Ring of one-cycle buckets; slot `t & mask` holds the head of the
    /// seq-ordered intrusive list of entries for time `t` while `t` lies
    /// inside the window.
    heads: Vec<u32>,
    /// Per-bucket list tails, for O(1) appends. Only meaningful while the
    /// bucket is non-empty.
    tails: Vec<u32>,
    /// Node arena backing every bucket list; freed slots chain through
    /// [`Node::next`] from `free`.
    nodes: Vec<Node<E>>,
    /// Freelist head into `nodes`, or [`NIL`].
    free: u32,
    /// `heads.len() - 1`; the length is a power of two.
    mask: u64,
    /// Occupancy bitmap over buckets, for O(words) next-event scans.
    occ: Vec<u64>,
    /// Total entries across all buckets.
    bucket_len: usize,
    /// Start of the bucket window. Only ever advances, and only to the
    /// timestamp of a global-minimum event, so it always equals `now`.
    window_start: Cycle,
    /// Events at or beyond the end of the window.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue positioned at cycle 0 with
    /// [`DEFAULT_BUCKETS`] calendar buckets.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates an empty queue with `n` calendar buckets (a one-cycle slot
    /// each, so the calendar window spans `n` cycles). Larger systems keep
    /// more events in flight over longer latency tails; widening the window
    /// keeps them on the O(1) bucket path instead of the heap fallback.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 64 (one occupancy
    /// word).
    pub fn with_buckets(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 64,
            "bucket count must be a power of two >= 64, got {n}"
        );
        EventQueue {
            heads: vec![NIL; n],
            tails: vec![NIL; n],
            nodes: Vec::new(),
            free: NIL,
            mask: n as u64 - 1,
            occ: vec![0; n / 64],
            bucket_len: 0,
            window_start: Cycle::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Grabs an arena slot for `payload` (reusing the freelist when
    /// possible) and returns its index. The node's `next` is left as
    /// [`NIL`].
    #[inline(always)]
    fn alloc_node(&mut self, payload: E) -> u32 {
        let node = Node { next: NIL, payload };
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event arena exhausted");
            self.nodes.push(node);
            idx
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time (events may
    /// not be scheduled in the past).
    #[inline(always)]
    pub fn push(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // `now` equals the window start, so `at` is never behind the window.
        if at.0 - self.window_start.0 < self.heads.len() as u64 {
            self.bucket_insert(at, payload);
        } else {
            self.heap.push(Entry {
                time: at,
                seq,
                payload,
            });
        }
    }

    /// Schedules `payload` to fire `delay` cycles after the current time.
    #[inline]
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        self.push(self.now + delay, payload);
    }

    /// Appends an event for `time` to the bucket ring. Appends always
    /// carry the largest seq of their bucket (see the type-level docs), so
    /// the list stays in seq order.
    #[inline(always)]
    fn bucket_insert(&mut self, time: Cycle, payload: E) {
        let idx = (time.0 & self.mask) as usize;
        let node = self.alloc_node(payload);
        let tail = self.tails[idx];
        if tail == NIL {
            self.heads[idx] = node;
            self.occ[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.nodes[tail as usize].next = node;
        }
        self.tails[idx] = node;
        self.bucket_len += 1;
    }

    /// Unlinks `node`, whose predecessor in the list of bucket `idx` is
    /// `prev` ([`NIL`] at the head), and returns its payload.
    #[inline(always)]
    fn unlink(&mut self, idx: usize, prev: u32, node: u32) -> E {
        let slot = &mut self.nodes[node as usize];
        let (payload, next) = (slot.payload, slot.next);
        slot.next = self.free;
        self.free = node;
        if prev == NIL {
            self.heads[idx] = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tails[idx] = prev;
            if prev == NIL {
                self.occ[idx / 64] &= !(1u64 << (idx % 64));
            }
        }
        self.bucket_len -= 1;
        payload
    }

    /// First occupied bucket bit in `[lo, hi)`, if any.
    fn first_occupied_in(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let last_w = (hi - 1) / 64;
        // Partial first word: mask off bits below `lo`.
        let mut w = lo / 64;
        let mut masked = self.occ[w] & (!0u64 << (lo % 64));
        loop {
            if w == last_w {
                let top = hi - w * 64;
                if top < 64 {
                    masked &= (1u64 << top) - 1;
                }
            }
            if masked != 0 {
                return Some(w * 64 + masked.trailing_zeros() as usize);
            }
            if w == last_w {
                return None;
            }
            w += 1;
            masked = self.occ[w];
        }
    }

    /// The time of the first occupied bucket in `[from, to]`, a span inside
    /// the window, scanning the occupancy bitmap with wraparound.
    fn first_bucket_in(&self, from: Cycle, to: Cycle) -> Option<Cycle> {
        debug_assert!(from >= self.window_start && to.0 - self.window_start.0 <= self.mask);
        if self.bucket_len == 0 {
            return None;
        }
        let f = (from.0 & self.mask) as usize;
        let l = (to.0 & self.mask) as usize;
        let p = if f <= l {
            self.first_occupied_in(f, l + 1)
        } else {
            self.first_occupied_in(f, self.heads.len())
                .or_else(|| self.first_occupied_in(0, l + 1))
        }?;
        Some(Cycle(from.0 + (p.wrapping_sub(f) as u64 & self.mask)))
    }

    /// The last cycle the bucket window covers.
    fn window_end(&self) -> Cycle {
        Cycle(self.window_start.0.saturating_add(self.mask))
    }

    /// Slides the window start forward to `t` (the time of a global-minimum
    /// event) and migrates newly covered heap entries into buckets. The heap
    /// drains in `(time, seq)` order, so per-bucket seq order is preserved.
    fn advance_window(&mut self, t: Cycle) {
        debug_assert!(t >= self.window_start, "window moved backwards");
        self.window_start = t;
        let horizon = t.0.saturating_add(self.heads.len() as u64);
        while let Some(top) = self.heap.peek() {
            if top.time.0 >= horizon {
                break;
            }
            let e = self.heap.pop().expect("peeked entry");
            self.bucket_insert(e.time, e.payload);
        }
    }

    /// Slides the window to the earliest pending event and returns its time
    /// (`None` when the queue is empty). Bucketed events all precede the
    /// heap's, so the heap only matters when the buckets are empty; the
    /// event itself then heads its bucket.
    #[inline(always)]
    fn advance_to_min(&mut self) -> Option<Cycle> {
        let t = match self.first_bucket_in(self.window_start, self.window_end()) {
            Some(t) => t,
            None => self.heap.peek()?.time,
        };
        self.advance_window(t);
        Some(t)
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp. Returns `None` when the queue is empty.
    ///
    /// The window starts at `now`, so a non-empty bucket for `now` holds
    /// the earliest events and its head fires without a scan or a window
    /// move.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let mut t = self.now;
        let mut idx = (t.0 & self.mask) as usize;
        let mut head = self.heads[idx];
        if head == NIL {
            t = self.advance_to_min()?;
            idx = (t.0 & self.mask) as usize;
            head = self.heads[idx];
        }
        let payload = self.unlink(idx, NIL, head);
        self.now = t;
        Some((t, payload))
    }

    /// The `k`-th bucketed event (0-based) in `(time, seq)` order among
    /// those at or before `cutoff`, as its bucket time, predecessor and
    /// node; or, when there are not that many, how many there are.
    fn nth_bucketed(&self, cutoff: Cycle, k: usize) -> Result<(Cycle, u32, u32), usize> {
        let last = cutoff.min(self.window_end());
        let mut from = self.window_start;
        let mut passed = 0;
        while from <= last {
            let Some(t) = self.first_bucket_in(from, last) else { break };
            let (mut prev, mut cur) = (NIL, self.heads[(t.0 & self.mask) as usize]);
            while cur != NIL {
                if passed == k {
                    return Ok((t, prev, cur));
                }
                passed += 1;
                prev = cur;
                cur = self.nodes[cur as usize].next;
            }
            from = Cycle(t.0 + 1);
        }
        Err(passed)
    }

    /// Like [`EventQueue::pop`], but lets `chooser` reorder events that are
    /// *almost* simultaneous: all pending events within `horizon` cycles of
    /// the earliest one (up to `window` of them) are eligible, and the chosen
    /// event fires **at the earliest candidate's timestamp**. Unchosen
    /// candidates keep their original `(time, seq)` and stay pending.
    ///
    /// This deliberately trades timing fidelity for ordering control: in
    /// exploration mode the simulator no longer claims cycle-accurate
    /// latencies, only that the chosen interleaving is one the event system
    /// could produce under perturbed timing. Choosing index 0 everywhere
    /// (or passing `window <= 1`) degenerates to `pop`, so the all-zero
    /// schedule is byte-identical to a normal run.
    pub fn pop_explored(
        &mut self,
        chooser: &mut dyn EventChooser,
        horizon: Cycle,
        window: usize,
    ) -> Option<(Cycle, E)> {
        if window <= 1 {
            return self.pop();
        }
        let fire_at = self.advance_to_min()?;
        let cutoff = fire_at + horizon;
        let in_buckets = match self.nth_bucketed(cutoff, window - 1) {
            Ok(_) => window,
            Err(n) => n,
        };
        // A horizon reaching past the bucket window continues into the
        // heap, whose entries all follow the bucketed ones.
        let mut from_heap = Vec::new();
        while in_buckets + from_heap.len() < window {
            match self.heap.peek() {
                Some(e) if e.time <= cutoff => {
                    from_heap.push(self.heap.pop().expect("peeked entry"));
                }
                _ => break,
            }
        }
        let eligible = in_buckets + from_heap.len();
        let pick = if eligible > 1 {
            chooser.choose(eligible).min(eligible - 1)
        } else {
            0
        };
        let payload = if pick < in_buckets {
            let (t, prev, node) = self
                .nth_bucketed(cutoff, pick)
                .expect("the pick is a bucketed candidate");
            self.unlink((t.0 & self.mask) as usize, prev, node)
        } else {
            from_heap.swap_remove(pick - in_buckets).payload
        };
        self.heap.extend(from_heap);
        self.now = fire_at;
        Some((fire_at, payload))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.first_bucket_in(self.window_start, self.window_end())
            .or_else(|| self.heap.peek().map(|e| e.time))
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (cycle 0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucket_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        if self.bucket_len > 0 {
            self.heads.fill(NIL);
            self.tails.fill(NIL);
        }
        self.nodes.clear();
        self.free = NIL;
        self.occ.fill(0);
        self.bucket_len = 0;
        self.heap.clear();
    }
}

impl<E: Copy> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 'c');
        q.push(Cycle(10), 'a');
        q.push(Cycle(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.push(Cycle(7), ());
        q.pop();
        assert_eq!(q.now(), Cycle(7));
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1);
        q.pop();
        q.push_after(Cycle(5), 2);
        assert_eq!(q.pop(), Some((Cycle(15), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), ());
        q.pop();
        q.push(Cycle(5), ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Cycle(9), ());
        assert_eq!(q.peek_time(), Some(Cycle(9)));
        assert_eq!(q.now(), Cycle::ZERO);
    }

    /// A chooser that replays a fixed list of picks, then picks 0.
    struct Fixed(Vec<usize>, usize);

    impl EventChooser for Fixed {
        fn choose(&mut self, _n: usize) -> usize {
            let c = self.0.get(self.1).copied().unwrap_or(0);
            self.1 += 1;
            c
        }
    }

    #[test]
    fn pop_explored_all_zero_matches_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, p) in [(3, 'x'), (1, 'y'), (1, 'z'), (9, 'w')] {
            a.push(Cycle(t), p);
            b.push(Cycle(t), p);
        }
        let mut chooser = Fixed(vec![], 0);
        loop {
            let via_pop = a.pop();
            let via_explored = b.pop_explored(&mut chooser, Cycle(100), 4);
            assert_eq!(via_pop, via_explored);
            if via_pop.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_explored_reorders_within_horizon() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(2), 'b');
        q.push(Cycle(50), 'c');
        // Pick index 1: 'b' fires first, *at* cycle 1. 'c' is outside the
        // horizon and must not be eligible.
        let mut chooser = Fixed(vec![1], 0);
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(1), 'b')));
        // 'a' kept its original timestamp.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(1), 'a')));
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(50), 'c')));
        assert_eq!(q.now(), Cycle(50));
    }

    #[test]
    fn pop_explored_window_caps_eligibility() {
        let mut q = EventQueue::new();
        for (i, p) in ['a', 'b', 'c', 'd'].into_iter().enumerate() {
            q.push(Cycle(i as u64), p);
        }
        // window=2: only 'a' and 'b' are eligible; an out-of-range pick is
        // clamped to the last eligible event.
        let mut chooser = Fixed(vec![7], 0);
        assert_eq!(q.pop_explored(&mut chooser, Cycle(100), 2), Some((Cycle(0), 'b')));
    }

    #[test]
    fn pop_explored_never_regresses_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(8), 'b');
        let mut chooser = Fixed(vec![1], 0);
        // 'b' (scheduled for 8) fires early at 5; 'a' then fires at its own
        // time, which is still >= now.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(5), 'b')));
        assert_eq!(q.now(), Cycle(5));
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(5), 'a')));
        // Scheduling after the reordering still works (no past-event panic).
        q.push_after(Cycle(1), 'c');
        assert_eq!(q.pop(), Some((Cycle(6), 'c')));
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 1);
        q.push(Cycle(100), 100);
        assert_eq!(q.pop(), Some((Cycle(1), 1)));
        q.push(Cycle(50), 50);
        q.push(Cycle(2), 2);
        assert_eq!(q.pop(), Some((Cycle(2), 2)));
        assert_eq!(q.pop(), Some((Cycle(50), 50)));
        assert_eq!(q.pop(), Some((Cycle(100), 100)));
    }

    #[test]
    fn far_future_events_take_the_heap_fallback_and_migrate() {
        let mut q = EventQueue::new();
        // Far beyond the 256-cycle calendar window.
        q.push(Cycle(10_000), 'z');
        q.push(Cycle(10_000), 'y'); // FIFO at the same far time
        q.push(Cycle(3), 'a');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        // Window slides to 10_000; both migrate preserving FIFO.
        assert_eq!(q.pop(), Some((Cycle(10_000), 'z')));
        assert_eq!(q.pop(), Some((Cycle(10_000), 'y')));
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_straddle_keeps_order() {
        let mut q = EventQueue::new();
        // One event in-window, one exactly at the boundary, one just past.
        q.push(Cycle(255), 'a');
        q.push(Cycle(256), 'b');
        q.push(Cycle(257), 'c');
        assert_eq!(q.pop(), Some((Cycle(255), 'a')));
        assert_eq!(q.pop(), Some((Cycle(256), 'b')));
        assert_eq!(q.pop(), Some((Cycle(257), 'c')));
    }

    #[test]
    fn same_time_split_across_heap_and_bucket_pops_in_seq_order() {
        let mut q = EventQueue::new();
        // seq 0 at t=300 goes to the heap (outside the initial window).
        q.push(Cycle(300), 0);
        // Drain an early event so the window slides to 100: t=300 is now
        // inside [100, 356) — but it's already in the heap.
        q.push(Cycle(100), -1);
        assert_eq!(q.pop(), Some((Cycle(100), -1)));
        // seq 2 at t=300 lands in the bucket directly.
        q.push(Cycle(300), 1);
        // Both must pop at t=300 in push (seq) order.
        assert_eq!(q.pop(), Some((Cycle(300), 0)));
        assert_eq!(q.pop(), Some((Cycle(300), 1)));
    }

    #[test]
    fn ring_wraparound_reuses_slots_correctly() {
        let mut q = EventQueue::new();
        // March time forward well past several window lengths with a busy
        // schedule that reuses every slot.
        let mut expect = Vec::new();
        for i in 0..2000u64 {
            q.push(Cycle(i * 3), i);
            expect.push((Cycle(i * 3), i));
        }
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
    }

    #[test]
    fn pop_explored_chooses_from_the_heap_past_the_bucket_window() {
        // A horizon longer than the bucket window makes heap events eligible
        // too: the chosen one leaves the heap, the unchosen ones go back to
        // it, and the bucketed candidate stays where it was.
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(300), 'b'); // heap at push time
        q.push(Cycle(301), 'c');
        // Window big enough to gather all three; horizon covers them too.
        let mut chooser = Fixed(vec![2], 0);
        // 'c' fires at cycle 5; 'a' (t=5) and 'b' (t=300) stay pending.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(1000), 4), Some((Cycle(5), 'c')));
        q.assert_window_invariant();
        assert_eq!(q.pop(), Some((Cycle(5), 'a')));
        assert_eq!(q.pop(), Some((Cycle(300), 'b')));
        // New pushes still work and order correctly afterwards.
        q.push(Cycle(300), 'd');
        q.push(Cycle(600), 'e');
        assert_eq!(q.pop(), Some((Cycle(300), 'd')));
        assert_eq!(q.pop(), Some((Cycle(600), 'e')));
    }

    #[test]
    fn pop_explored_unlinks_mid_list_and_tail_candidates() {
        // Three events share cycle 4's bucket. Taking the middle one, then
        // the tail, must leave the list (and its tail pointer) intact for
        // later appends.
        let mut q = EventQueue::new();
        for p in ['a', 'b', 'c'] {
            q.push(Cycle(4), p);
        }
        let mut chooser = Fixed(vec![1, 1], 0);
        assert_eq!(q.pop_explored(&mut chooser, Cycle(0), 4), Some((Cycle(4), 'b')));
        q.assert_window_invariant();
        assert_eq!(q.pop_explored(&mut chooser, Cycle(0), 4), Some((Cycle(4), 'c')));
        q.assert_window_invariant();
        q.push(Cycle(4), 'd');
        assert_eq!(q.pop(), Some((Cycle(4), 'a')));
        assert_eq!(q.pop(), Some((Cycle(4), 'd')));
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_widths_agree_on_pop_order() {
        // The bucket count is a pure performance knob: any width, up to the
        // 4096 buckets of a 256-context system, must produce the identical
        // pop sequence.
        let mut queues: Vec<EventQueue<u64>> = [64, 256, 1024, 4096]
            .into_iter()
            .map(EventQueue::with_buckets)
            .collect();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut t = 0u64;
        for i in 0..500u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += state >> 56; // deltas 0..255, occasionally past narrow windows
            for q in &mut queues {
                q.push(Cycle(t), i);
            }
        }
        loop {
            let got: Vec<_> = queues.iter_mut().map(|q| q.pop()).collect();
            for other in &got[1..] {
                assert_eq!(&got[0], other);
            }
            if got[0].is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_buckets_rejects_non_power_of_two() {
        let _ = EventQueue::<()>::with_buckets(96);
    }

    #[test]
    #[should_panic(expected = ">= 64")]
    fn with_buckets_rejects_tiny_counts() {
        let _ = EventQueue::<()>::with_buckets(32);
    }

    impl<E: Copy> EventQueue<E> {
        /// Checks the layout invariants: every listed node lies in a bucket
        /// inside the window (a node's time is its bucket's cycle) and off
        /// the freelist, every arena slot is either listed or free, the
        /// tails, occupancy bits and count agree with the lists, every heap
        /// event lies at or past the window's end, and the window start is
        /// `now`. Seq order within a bucket is pinned by the `RefQueue`
        /// differential tests below.
        fn assert_window_invariant(&self) {
            let n = self.heads.len() as u64;
            let ws = self.window_start.0;
            assert_eq!(self.window_start, self.now, "the window start is now");
            let mut free = vec![false; self.nodes.len()];
            let mut cur = self.free;
            while cur != NIL {
                assert!(!free[cur as usize], "freelist cycles through {cur}");
                free[cur as usize] = true;
                cur = self.nodes[cur as usize].next;
            }
            let mut count = 0;
            for (idx, &head) in self.heads.iter().enumerate() {
                let occupied = self.occ[idx / 64] & (1u64 << (idx % 64)) != 0;
                assert_eq!(occupied, head != NIL, "occupancy bit of bucket {idx}");
                let time = ws + ((idx as u64).wrapping_sub(ws) & self.mask);
                assert!(time - ws < n, "bucket {idx} maps outside the window");
                let (mut prev, mut cur) = (NIL, head);
                while cur != NIL {
                    assert!(!free[cur as usize], "listed node {cur} is on the freelist");
                    count += 1;
                    prev = cur;
                    cur = self.nodes[cur as usize].next;
                }
                if head != NIL {
                    assert_eq!(self.tails[idx], prev, "tail of bucket {idx} (time {time})");
                }
            }
            assert_eq!(count, self.bucket_len);
            let free_slots = free.iter().filter(|&&f| f).count();
            assert_eq!(
                count + free_slots,
                self.nodes.len(),
                "every slot is listed or free"
            );
            for e in self.heap.iter() {
                assert!(
                    e.time.0 >= ws + n,
                    "heap event at {} inside or behind the window [{ws}, {})",
                    e.time,
                    ws + n
                );
            }
        }
    }

    /// Reference implementation: the plain `BinaryHeap` queue this calendar
    /// queue replaced. Kept verbatim (minus exploration) as a test oracle.
    struct RefQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> RefQueue<E> {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Cycle::ZERO,
            }
        }

        fn push(&mut self, at: Cycle, payload: E) {
            assert!(at >= self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time: at,
                seq,
                payload,
            });
        }

        fn pop(&mut self) -> Option<(Cycle, E)> {
            let e = self.heap.pop()?;
            self.now = e.time;
            Some((e.time, e.payload))
        }

        fn pop_explored(
            &mut self,
            chooser: &mut dyn EventChooser,
            horizon: Cycle,
            window: usize,
        ) -> Option<(Cycle, E)> {
            if window <= 1 {
                return self.pop();
            }
            let first = self.heap.pop()?;
            let fire_at = first.time;
            let cutoff = fire_at + horizon;
            let mut eligible = vec![first];
            while eligible.len() < window {
                match self.heap.peek() {
                    Some(e) if e.time <= cutoff => {
                        eligible.push(self.heap.pop().expect("peeked entry"));
                    }
                    _ => break,
                }
            }
            let pick = if eligible.len() > 1 {
                chooser.choose(eligible.len()).min(eligible.len() - 1)
            } else {
                0
            };
            let chosen = eligible.swap_remove(pick);
            for entry in eligible {
                self.heap.push(entry);
            }
            self.now = fire_at;
            Some((fire_at, chosen.payload))
        }
    }

    /// Differential property: under random push/pop workloads with mixed
    /// near/far deltas, the calendar queue pops exactly what the reference
    /// heap pops.
    #[test]
    fn differential_random_push_pop_matches_reference() {
        crate::check::cases(60, 0x5EED_CA1E, |rng| {
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut refq: RefQueue<u32> = RefQueue::new();
            let mut next_payload = 0u32;
            for _ in 0..400 {
                let action = rng.gen_range(0, 3);
                if action < 2 || cal.is_empty() {
                    // Push with a delta drawn from a spread of scales so we
                    // exercise buckets, the boundary, and the heap fallback.
                    let delta = match rng.gen_range(0, 4) {
                        0 => rng.gen_range(0, 4),
                        1 => rng.gen_range(0, 64),
                        2 => 200 + rng.gen_range(0, 120), // straddles the boundary
                        _ => rng.gen_range(0, 5_000),
                    };
                    let at = Cycle(cal.now().0 + delta);
                    cal.push(at, next_payload);
                    refq.push(at, next_payload);
                    next_payload += 1;
                } else {
                    let expect = refq.pop();
                    assert_eq!(cal.pop(), expect);
                }
                assert_eq!(cal.len(), refq.heap.len());
                assert_eq!(cal.peek_time(), refq.heap.peek().map(|e| e.time));
            }
            while !cal.is_empty() {
                let expect = refq.pop();
                assert_eq!(cal.pop(), expect);
            }
            assert!(refq.heap.is_empty());
        });
    }

    /// Differential property: `pop_explored` with a shared random chooser
    /// behaves identically on both implementations, at windows 1–8 and at
    /// horizons both inside the 256-bucket window (the bucket walk) and past
    /// it (the heap continuation). No event ever falls behind the window.
    #[test]
    fn differential_random_pop_explored_matches_reference() {
        crate::check::cases(60, 0xE0E0_57AC, |rng| {
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut refq: RefQueue<u32> = RefQueue::new();
            let mut next_payload = 0u32;
            // Both sides must see the same choice sequence.
            let picks: Vec<usize> =
                (0..200).map(|_| rng.gen_range(0, 10) as usize).collect();
            let mut c1 = Fixed(picks.clone(), 0);
            let mut c2 = Fixed(picks, 0);
            for _ in 0..400 {
                let action = rng.gen_range(0, 4);
                if action < 2 || cal.is_empty() {
                    let delta = match rng.gen_range(0, 4) {
                        0 => rng.gen_range(0, 8),
                        1 => 240 + rng.gen_range(0, 40),
                        2 => 400 + rng.gen_range(0, 300),
                        _ => rng.gen_range(0, 2_000),
                    };
                    let at = Cycle(cal.now().0 + delta);
                    cal.push(at, next_payload);
                    refq.push(at, next_payload);
                    next_payload += 1;
                } else if action == 2 {
                    let expect = refq.pop();
                    assert_eq!(cal.pop(), expect);
                } else {
                    let horizon = Cycle(rng.gen_range(0, 600));
                    let window = 1 + rng.gen_range(0, 8) as usize;
                    let expect = refq.pop_explored(&mut c2, horizon, window);
                    assert_eq!(cal.pop_explored(&mut c1, horizon, window), expect);
                    assert_eq!(c1.1, c2.1, "choosers must be consulted identically");
                }
                assert_eq!(cal.len(), refq.heap.len());
                assert_eq!(cal.peek_time(), refq.heap.peek().map(|e| e.time));
                cal.assert_window_invariant();
            }
            while !cal.is_empty() {
                let expect = refq.pop();
                assert_eq!(cal.pop(), expect);
            }
        });
    }

    /// Dense same-cycle bursts: many events per bucket, so explored picks
    /// unlink from the head, the middle and the tail of long lists, and
    /// every window size from 1 to 8 walks across several buckets.
    #[test]
    fn differential_pop_explored_on_crowded_buckets_matches_reference() {
        crate::check::cases(40, 0xC20_4DED, |rng| {
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut refq: RefQueue<u32> = RefQueue::new();
            let mut next_payload = 0u32;
            let picks: Vec<usize> = (0..400).map(|_| rng.gen_range(0, 8) as usize).collect();
            let mut c1 = Fixed(picks.clone(), 0);
            let mut c2 = Fixed(picks, 0);
            for _ in 0..400 {
                if rng.gen_range(0, 2) == 0 || cal.is_empty() {
                    let at = Cycle(cal.now().0 + rng.gen_range(0, 3));
                    for _ in 0..rng.gen_range(1, 5) {
                        cal.push(at, next_payload);
                        refq.push(at, next_payload);
                        next_payload += 1;
                    }
                } else {
                    let horizon = Cycle(rng.gen_range(0, 4));
                    let window = 1 + rng.gen_range(0, 8) as usize;
                    let expect = refq.pop_explored(&mut c2, horizon, window);
                    assert_eq!(cal.pop_explored(&mut c1, horizon, window), expect);
                }
                cal.assert_window_invariant();
            }
            while !cal.is_empty() {
                assert_eq!(cal.pop(), refq.pop());
            }
        });
    }

    /// Free slots keep a stale copy of the payload last popped from them.
    /// Under heavy slot reuse (the pending set stays small while tens of
    /// thousands of events pass through) every unique payload must still
    /// pop exactly once, from `pop` and from explored pops alike.
    #[test]
    fn unique_payloads_pop_exactly_once_under_slot_reuse() {
        crate::check::cases(16, 0xF2EE_115E, |rng| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut chooser = Fixed(
                (0..4_000).map(|_| rng.gen_range(0, 4) as usize).collect(),
                0,
            );
            const TOTAL: u64 = 20_000;
            let mut popped = vec![false; TOTAL as usize];
            let mut next = 0u64;
            let mut take = |got: Option<(Cycle, u64)>| {
                let (_, p) = got.expect("a pending event");
                assert!(
                    !std::mem::replace(&mut popped[p as usize], true),
                    "payload {p} popped twice"
                );
            };
            while next < TOTAL {
                for _ in 0..rng.gen_range(1, 4) {
                    let delta = match rng.gen_range(0, 8) {
                        0 => 300 + rng.gen_range(0, 300), // the heap fallback
                        _ => rng.gen_range(0, 3),
                    };
                    if next < TOTAL {
                        q.push(Cycle(q.now().0 + delta), next);
                        next += 1;
                    }
                }
                while q.len() > 8 {
                    if rng.gen_bool(0.5) {
                        take(q.pop());
                    } else {
                        take(q.pop_explored(&mut chooser, Cycle(4), 4));
                    }
                }
            }
            while !q.is_empty() {
                take(q.pop());
            }
            assert!(
                q.nodes.len() < 64,
                "slots are reused: {} allocated",
                q.nodes.len()
            );
            q.assert_window_invariant();
            assert!(popped.iter().all(|&p| p), "every payload popped");
        });
    }

    /// No event is ever behind the window, whatever mix of `pop` and
    /// `pop_explored` drives the queue, at every bucket count.
    #[test]
    fn no_event_is_ever_behind_the_window() {
        crate::check::cases(24, 0xB3_41ED, |rng| {
            for buckets in [64, 256, 1024] {
                let mut q: EventQueue<u32> = EventQueue::with_buckets(buckets);
                let mut chooser = Fixed((0..300).map(|_| rng.gen_range(0, 8) as usize).collect(), 0);
                for i in 0..300u32 {
                    match rng.gen_range(0, 5) {
                        0 | 1 => {
                            let delta = match rng.gen_range(0, 3) {
                                0 => rng.gen_range(0, 4),
                                1 => rng.gen_range(0, buckets as u64 + 64),
                                _ => rng.gen_range(0, 4 * buckets as u64),
                            };
                            q.push(Cycle(q.now().0 + delta), i);
                        }
                        2 => {
                            q.pop();
                        }
                        _ => {
                            let horizon = Cycle(rng.gen_range(0, 2 * buckets as u64));
                            q.pop_explored(&mut chooser, horizon, 1 + rng.gen_range(0, 8) as usize);
                        }
                    }
                    q.assert_window_invariant();
                }
            }
        });
    }
}
