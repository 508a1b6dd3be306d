//! Allocation-bucketed ready queue for Algorithm 1.
//!
//! The scheduler's waiting queue must support two operations at every
//! decision point: insert a released task in policy-key order, and
//! start *every* waiting task whose allocation fits in the free
//! processors, scanning in key order (list scheduling, Algorithm 1
//! lines 7–11).
//!
//! Algorithm 2 caps every allocation at `⌈μP⌉`, so the waiting tasks
//! fall into at most `⌈μP⌉` allocation values. Keys are unique (the
//! release sequence breaks ties), so the first task in key order with
//! `alloc ≤ free` is the smallest head key among the buckets of
//! allocations `0..=free`. [`IndexedQueue`] keeps exactly that:
//!
//! * **Buckets.** One per allocation value seen: a sorted run plus a
//!   min-heap. A push whose key is not below the run's tail appends to
//!   the run, any other push goes to the heap, and the bucket's head is
//!   the smaller of the two fronts. Under FIFO, narrow-first and
//!   wide-first the keys inside one bucket only grow, so only LPT and
//!   SPT reach the heap, and even then every operation is O(log m) for
//!   a bucket of m tasks.
//! * **Index.** A flat bottom-up segment tree over allocation values
//!   `0..A`, where leaf `a` names allocation `a`'s bucket and each
//!   inner node the bucket with the smallest head key in its range.
//!   First fit is the root when the root's allocation fits (FIFO's
//!   common case), else one prefix query over `0..=free`: O(log A).
//!   `A` grows by doubling from the largest allocation seen; the index
//!   costs 8 bytes per allocation value and bucket storage exists only
//!   for allocations seen, so nothing is sized from `P` up front.
//!
//! Repeatedly popping the first fit until none remains is equivalent
//! to one in-order scan that starts every fitting task, because `free`
//! only decreases while scanning: a task skipped at some point in key
//! order stays infeasible for the rest of that decision point.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use moldable_graph::TaskId;

/// One waiting task: identity, capped allocation, policy sort key, and
/// the duration the batched core needs at start time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyItem {
    /// The waiting task.
    pub task: TaskId,
    /// Capped allocation `p'_j` from Algorithm 2.
    pub alloc: u32,
    /// Policy sort key (primary, release-sequence tiebreak) — unique
    /// per item because the sequence number is.
    pub key: (f64, u64),
    /// Execution time on `alloc` processors, `t_j(p'_j)` — computed
    /// once at release (the policy key needs it anyway) and carried
    /// through the queue so starting the task re-reads no model.
    pub dur: f64,
}

/// Head rank of a bucket holding nothing: above every real key's rank
/// (it would take a NaN primary *and* sequence number `u64::MAX` to
/// reach it).
const EMPTY: u128 = u128::MAX;

/// A key as one integer with the same order: the primary's
/// [`f64::total_cmp`] order in the high word (flip every bit of a
/// negative, only the sign bit of a positive), the sequence below.
fn rank((primary, seq): (f64, u64)) -> u128 {
    let bits = primary.to_bits();
    let ord = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(ord) << 64 | u128::from(seq)
}

/// A waiting item with its rank, ordered by rank alone.
#[derive(Debug, Clone, Copy)]
struct Entry {
    rank: u128,
    item: ReadyItem,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// The waiting items of one allocation value: a run sorted by rank
/// plus a min-heap for pushes that would break the run's order.
#[derive(Debug, Default)]
struct Bucket {
    alloc: u32,
    run: VecDeque<Entry>,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl Bucket {
    fn push(&mut self, e: Entry) {
        if self.run.back().is_none_or(|tail| tail.rank < e.rank) {
            self.run.push_back(e);
        } else {
            self.heap.push(Reverse(e));
        }
    }

    /// Rank of the head (the smaller front), [`EMPTY`] if none.
    fn head(&self) -> u128 {
        let run = self.run.front().map_or(EMPTY, |e| e.rank);
        let heap = self.heap.peek().map_or(EMPTY, |Reverse(e)| e.rank);
        run.min(heap)
    }

    /// Remove the head of a non-empty bucket.
    fn pop(&mut self) -> ReadyItem {
        let heap = self.heap.peek().map_or(EMPTY, |Reverse(e)| e.rank);
        let e = match self.run.front() {
            Some(front) if front.rank < heap => self.run.pop_front(),
            _ => self.heap.pop().map(|Reverse(e)| e),
        };
        e.expect("pop from a non-empty bucket").item
    }
}

/// Ready queue bucketed by allocation and indexed by a segment tree
/// over allocation values (see the module docs). O(log m) push and
/// O(log A + log m) first-fit pop, for `m` tasks in the touched bucket
/// and `A` the largest allocation seen.
#[derive(Debug)]
pub struct IndexedQueue {
    /// Slot 0 is an always-empty sentinel; slot `s > 0` holds the
    /// bucket of one allocation value seen.
    buckets: Vec<Bucket>,
    /// `heads[s]` is `buckets[s].head()`, kept beside the buckets so
    /// the index compares without touching them.
    heads: Vec<u128>,
    /// Flat segment tree over allocations `0..width`, `width` being
    /// half its length: leaf `width + a` holds the slot of allocation
    /// `a` (0 if never seen), inner node `i` the one of its children's
    /// slots with the smaller head.
    tree: Vec<u32>,
    len: usize,
}

impl Default for IndexedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexedQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![Bucket::default()],
            heads: vec![EMPTY],
            tree: Vec::new(),
            len: 0,
        }
    }

    /// Number of waiting tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn width(&self) -> usize {
        self.tree.len() / 2
    }

    /// The slot with the smallest head among allocations `lo..hi`, and
    /// that head ([`EMPTY`] if none of them holds anything).
    fn min_in(&self, lo: usize, hi: usize) -> (usize, u128) {
        let w = self.width();
        let (mut l, mut r) = (lo + w, hi + w);
        let mut best = (0, EMPTY);
        let mut take = |node: usize| {
            let s = self.tree[node] as usize;
            if self.heads[s] < best.1 {
                best = (s, self.heads[s]);
            }
        };
        while l < r {
            if l & 1 == 1 {
                take(l);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                take(r);
            }
            l >>= 1;
            r >>= 1;
        }
        best
    }

    /// End of the allocation range that fits in `free` processors.
    fn fit_end(&self, free: u32) -> usize {
        (free as usize + 1).min(self.width())
    }

    /// The slot whose head is the first item in key order with
    /// `alloc ≤ free`.
    fn first_fit(&self, free: u32) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // The root holds the smallest head of all, so it is non-empty.
        let root = self.tree[1] as usize;
        if self.buckets[root].alloc <= free {
            return Some(root);
        }
        let (slot, head) = self.min_in(0, self.fit_end(free));
        (head != EMPTY).then_some(slot)
    }

    /// Re-read slot `s`'s head and repair the inner nodes above its
    /// leaf, carrying the subtree minimum up so each level reads only
    /// the sibling. A node that neither held nor now holds `s` and did
    /// not change ends the walk: nothing above it depends on `s`.
    fn refresh(&mut self, s: usize) {
        let mut head = self.buckets[s].head();
        self.heads[s] = head;
        let slot = u32::try_from(s).expect("slot fits u32");
        let mut v = slot;
        let mut i = self.width() + self.buckets[s].alloc as usize;
        while i > 1 {
            let sibling = self.tree[i ^ 1];
            if self.heads[sibling as usize] < head {
                (v, head) = (sibling, self.heads[sibling as usize]);
            }
            i /= 2;
            if self.tree[i] == v && v != slot {
                break;
            }
            self.tree[i] = v;
        }
    }

    /// Widen the index to cover allocation values `0..need`, at least
    /// doubling it.
    fn grow(&mut self, need: usize) {
        let (old, w) = (self.width(), need.max(2 * self.width()));
        let mut tree = vec![0; 2 * w];
        tree[w..w + old].copy_from_slice(&self.tree[old..]);
        self.tree = tree;
        for i in (1..w).rev() {
            let (l, r) = (self.tree[2 * i], self.tree[2 * i + 1]);
            self.tree[i] = if self.heads[r as usize] < self.heads[l as usize] {
                r
            } else {
                l
            };
        }
    }

    /// Insert a released task (its key must be unique).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct allocation values are
    /// seen.
    pub fn push(&mut self, item: ReadyItem) {
        let a = item.alloc as usize;
        if a >= self.width() {
            self.grow(a + 1);
        }
        let leaf = self.width() + a;
        let mut s = self.tree[leaf] as usize;
        if s == 0 {
            s = self.buckets.len();
            self.buckets.push(Bucket {
                alloc: item.alloc,
                ..Bucket::default()
            });
            self.heads.push(EMPTY);
            self.tree[leaf] = u32::try_from(s).expect("allocation values fit u32");
        }
        let e = Entry {
            rank: rank(item.key),
            item,
        };
        self.buckets[s].push(e);
        self.len += 1;
        if e.rank < self.heads[s] {
            self.refresh(s);
        }
    }

    /// Remove and return the first task in key order with
    /// `alloc ≤ free`, if any.
    pub fn pop_first_fit(&mut self, free: u32) -> Option<ReadyItem> {
        let s = self.first_fit(free)?;
        let item = self.buckets[s].pop();
        self.len -= 1;
        self.refresh(s);
        Some(item)
    }

    /// Drain *every* item a full list-scheduling decision point would
    /// start: repeatedly the first item in key order with
    /// `alloc ≤ free`, with `free` shrinking as items are taken.
    /// Exactly equivalent to looping [`IndexedQueue::pop_first_fit`].
    ///
    /// A bucket that yields twice in a row is drained as a run: it keeps
    /// yielding while its head fits and beats the runner-up, the best
    /// head among the other fitting buckets, found once. `free` only
    /// shrinks, so the runner-up can only get worse during the run and
    /// the bound stays valid: the index is touched once per run, not
    /// once per start. Waiting for the second start spares the two
    /// runner-up queries where buckets take turns, as on small graphs.
    pub fn pop_fits_into(&mut self, free: &mut u32, out: &mut Vec<ReadyItem>) {
        let mut prev = None;
        while let Some(s) = self.first_fit(*free) {
            let alloc = self.buckets[s].alloc;
            // Outside a run the bound is 0: no head lies below it, so the
            // bucket yields once.
            let bound = if prev == Some(s) {
                let (a, end) = (alloc as usize, self.fit_end(*free));
                self.min_in(0, a).1.min(self.min_in(a + 1, end).1)
            } else {
                0
            };
            loop {
                out.push(self.buckets[s].pop());
                *free -= alloc;
                self.len -= 1;
                if alloc > *free || self.buckets[s].head() >= bound {
                    break;
                }
            }
            self.refresh(s);
            prev = Some(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueuePolicy;
    use moldable_model::rng::{Rng, StdRng};

    fn item(seq: u64, alloc: u32, primary: f64) -> ReadyItem {
        ReadyItem {
            task: TaskId(u32::try_from(seq).unwrap()),
            alloc,
            key: (primary, seq),
            dur: primary.abs(),
        }
    }

    fn drain(q: &mut IndexedQueue, free: u32) -> Vec<u64> {
        let (mut free, mut out) = (free, Vec::new());
        q.pop_fits_into(&mut free, &mut out);
        out.iter().map(|it| it.key.1).collect()
    }

    #[test]
    fn pops_in_key_order_when_everything_fits() {
        let mut q = IndexedQueue::new();
        for seq in [3u64, 1, 4, 0, 2] {
            q.push(item(seq, 1, 0.0));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_first_fit(8))
            .map(|it| it.key.1)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn skips_items_that_do_not_fit() {
        let mut q = IndexedQueue::new();
        q.push(item(0, 5, 0.0));
        q.push(item(1, 2, 0.0));
        q.push(item(2, 5, 0.0));
        q.push(item(3, 1, 0.0));
        // Only 3 free: the first fit in key order is seq 1, then seq 3.
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 1);
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 3);
        assert_eq!(q.pop_first_fit(3), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 0);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 2);
        assert_eq!(q.pop_first_fit(u32::MAX), None);
    }

    #[test]
    fn rank_orders_like_total_cmp() {
        let mut rng = StdRng::seed_from_u64(0x4A4B);
        let mut keys: Vec<(f64, u64)> = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ]
        .iter()
        .flat_map(|&x| [(x, 0), (x, 1), (x, u64::MAX - 1)])
        .collect();
        keys.extend((0..200).map(|i| (rng.gen_range(-1e9..1e9), i % 3)));
        for &a in &keys {
            for &b in &keys {
                let want = a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
                assert_eq!(rank(a).cmp(&rank(b)), want, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn batch_drain_matches_repeated_pops() {
        // Drive one queue with pop_fits_into and a twin with the
        // pop_first_fit loop it claims to equal, across random
        // push/drain interleavings.
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut a = IndexedQueue::new();
        let mut b = IndexedQueue::new();
        let mut seq = 0u64;
        let mut drained: Vec<ReadyItem> = Vec::new();
        for _ in 0..6_000 {
            if rng.gen_bool(0.7) || a.is_empty() {
                // Mixed keys: FIFO-style appends fill the sorted runs,
                // out-of-order keys the heaps.
                let primary = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(-10.0..10.0)
                };
                let it = item(seq, rng.gen_range(1u32..12), primary);
                seq += 1;
                a.push(it);
                b.push(it);
            } else {
                let budget = rng.gen_range(0u32..30);
                let mut free = budget;
                drained.clear();
                a.pop_fits_into(&mut free, &mut drained);
                let mut free_b = budget;
                for got in &drained {
                    let want = b.pop_first_fit(free_b).expect("twin pops too");
                    assert_eq!(*got, want);
                    free_b -= want.alloc;
                }
                assert_eq!(b.pop_first_fit(free_b), None, "twin had more fits");
                assert_eq!(free, free_b);
                assert_eq!(a.len(), b.len());
            }
        }
    }

    #[test]
    fn drain_hands_over_when_the_runner_up_overtakes_mid_run() {
        // Allocation 1 holds seqs 0, 1, 2, 5, 6; allocation 2 holds
        // 3, 4. The run on allocation 1 must stop at seq 3, the run on
        // allocation 2 at seq 5, and so on.
        let build = || {
            let mut q = IndexedQueue::new();
            for (seq, alloc) in [(0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 1), (6, 1)] {
                q.push(item(seq, alloc, 0.0));
            }
            q
        };
        assert_eq!(drain(&mut build(), 10), [0, 1, 2, 3, 4, 5, 6]);
        // Six free: after 0, 1, 2 and 3 one processor is left, so 4
        // no longer fits and the runner-up (5) takes over.
        let mut q = build();
        assert_eq!(drain(&mut q, 6), [0, 1, 2, 3, 5]);
        assert_eq!(drain(&mut q, 3), [4, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn lpt_keys_go_through_the_bucket_heap_in_key_order() {
        // LPT keys within one allocation are not monotone in release
        // order: every push below the run's tail lands in the heap.
        let durs = [5.0, 9.0, 1.0, 7.0, 7.0, 3.0, 8.0, 2.0];
        let mut q = IndexedQueue::new();
        for (seq, &d) in (0u64..).zip(&durs) {
            let mut it = item(seq, 4, 0.0);
            it.key = QueuePolicy::LongestFirst.key(d, 4, seq);
            it.dur = d;
            q.push(it);
        }
        let bucket = &q.buckets[q.tree[q.width() + 4] as usize];
        assert!(!bucket.heap.is_empty() && !bucket.run.is_empty());
        let order: Vec<f64> = std::iter::from_fn(|| q.pop_first_fit(4))
            .map(|it| it.dur)
            .collect();
        assert_eq!(order, [9.0, 8.0, 7.0, 7.0, 5.0, 3.0, 2.0, 1.0]);
        assert_eq!(q.pop_first_fit(3), None);
    }

    #[test]
    fn the_index_costs_at_most_16_bytes_per_allocation_value() {
        // The widest allocation a serve request can produce: P = 2^20
        // at the largest admissible μ.
        let alloc = crate::mu_cap(1 << 20, moldable_model::MU_MAX);
        let mut q = IndexedQueue::new();
        q.push(item(0, alloc, 0.0));
        let index = q.tree.capacity() * std::mem::size_of::<u32>();
        assert!(index <= 16 * alloc as usize, "{index} B for {alloc} values");
        assert_eq!(q.buckets.len(), 2, "storage for one allocation only");
        assert_eq!(q.pop_first_fit(alloc - 1), None);
        assert_eq!(q.pop_first_fit(alloc).unwrap().key.1, 0);
    }
}
