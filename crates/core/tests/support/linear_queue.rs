//! The reference ready queue: a `Vec` kept sorted by key and scanned
//! linearly — the executable specification of
//! [`moldable_core::IndexedQueue`]'s behaviour.

use moldable_core::ReadyItem;

fn key_lt(a: (f64, u64), b: (f64, u64)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// Sorted-`Vec` ready queue.
#[derive(Debug, Default)]
pub struct LinearQueue {
    items: Vec<ReadyItem>,
}

impl LinearQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a released task (its key must be unique).
    pub fn push(&mut self, item: ReadyItem) {
        let pos = self.items.partition_point(|it| !key_lt(item.key, it.key));
        self.items.insert(pos, item);
    }

    /// Remove and return the first task in key order with
    /// `alloc ≤ free`, if any.
    pub fn pop_first_fit(&mut self, free: u32) -> Option<ReadyItem> {
        let pos = self.items.iter().position(|it| it.alloc <= free)?;
        Some(self.items.remove(pos))
    }

    /// Number of waiting tasks.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}
