//! Cache-line padding for shared hot words.

use std::ops::Deref;

/// Aligns `T` to 128 bytes, so it shares no cache line with its
/// neighbours: a word one worker writes for every item stays off the
/// lines its teammates read or write for theirs. 128 rather than 64:
/// adjacent-line prefetchers pull lines in pairs.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use dacpara_galois::CachePadded;
///
/// let counters = [CachePadded::new(AtomicU64::new(0)), CachePadded::new(AtomicU64::new(0))];
/// counters[1].fetch_add(1, Ordering::Relaxed);
/// assert_eq!(std::mem::align_of_val(&counters[0]), 128);
/// ```
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pads `value`.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}
