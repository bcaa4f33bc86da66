//! The parallel-iterator surface, executed on the work-stealing pool.
//!
//! [`Par`] wraps a [`Chunk`]: a splittable description of work that can be
//! cut into independent pieces, each of which lowers to an ordinary
//! sequential [`Iterator`] on a worker thread. Consumers (`for_each`,
//! `fold`/`reduce`, `collect`, `count`, `sum`) split the chunk into
//! `O(threads)` pieces, run them on the pool via `pool::execute_batch`,
//! and reassemble results **in piece
//! order**, which preserves rayon's ordering guarantees for indexed
//! parallel iterators (`collect`, `zip`, `enumerate`).
//!
//! When the effective thread count is 1 (no pool installed, ambient size 1,
//! or the input is too small to split) every consumer runs the exact
//! single-chunk sequential code path on the calling thread — bit-identical
//! to the historical sequential shim.

use crate::pool::{self, Plan};

/// A splittable unit of parallel work.
///
/// Adaptors (`map`, `filter`, ...) wrap chunks in further chunks; the
/// closure travels with the chunk (hence `Clone` bounds on adaptor
/// closures) so the mapping work itself runs on worker threads.
pub trait Chunk: Sized + Send {
    /// Item yielded when the chunk is lowered to a sequential iterator.
    type Item: Send;
    /// The sequential iterator a single piece lowers to.
    type SeqIter: Iterator<Item = Self::Item>;

    /// Number of underlying positions. For filtering chunks this is an
    /// upper bound (the pre-filter length), used only to decide splits.
    fn len(&self) -> usize;
    /// True when [`Chunk::len`] is zero.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The number of elements the work spans, which plans the split:
    /// [`Chunk::len`] for every chunk but a chunks iterator, whose
    /// positions are windows of several elements, and the adaptors over
    /// one.
    fn elements(&self) -> usize {
        self.len()
    }
    /// Splits at position `mid` (`0 < mid < len`) into `[0, mid)` and
    /// `[mid, len)`.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Lowers this piece to a sequential iterator.
    fn into_seq(self) -> Self::SeqIter;
}

/// Marker for length-preserving chunks: `len` is exact and every position
/// yields exactly one item. Required by order-sensitive pairing adaptors
/// (`zip`, `enumerate`), mirroring rayon's `IndexedParallelIterator`.
/// `filter`/`filter_map` chunks deliberately do not implement it.
pub trait IndexedChunk: Chunk {}

/// Recursively split `chunk` into at most `pieces` contiguous pieces of
/// near-equal length, appended to `out` in left-to-right order.
fn split_pieces<C: Chunk>(chunk: C, pieces: usize, out: &mut Vec<C>) {
    if pieces <= 1 || chunk.len() < 2 {
        out.push(chunk);
        return;
    }
    let left = pieces / 2;
    let mid = (chunk.len() * left / pieces).clamp(1, chunk.len() - 1);
    let (l, r) = chunk.split_at(mid);
    split_pieces(l, left, out);
    split_pieces(r, pieces - left, out);
}

/// A parallel iterator: a splittable [`Chunk`] plus the consumer methods
/// that execute it on the shim's work-stealing pool.
pub struct Par<C> {
    chunk: C,
}

/// Conversion into a [`Par`] iterator (mirrors
/// `rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The type of item this iterator yields.
    type Item: Send;
    /// The underlying splittable chunk type.
    type Iter: Chunk<Item = Self::Item>;
    /// Converts `self` into a [`Par`] iterator.
    fn into_par_iter(self) -> Par<Self::Iter>;
}

impl<C: Chunk> IntoParallelIterator for Par<C> {
    type Item = C::Item;
    type Iter = C;
    fn into_par_iter(self) -> Par<C> {
        self
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Chunk over a half-open integer range.
#[derive(Debug, Clone, Copy)]
pub struct RangeChunk<T> {
    start: T,
    end: T,
}

macro_rules! range_chunk {
    ($ty:ty) => {
        impl Chunk for RangeChunk<$ty> {
            type Item = $ty;
            type SeqIter = std::ops::Range<$ty>;
            fn len(&self) -> usize {
                (self.end - self.start) as usize
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let m = self.start + mid as $ty;
                (
                    RangeChunk {
                        start: self.start,
                        end: m,
                    },
                    RangeChunk {
                        start: m,
                        end: self.end,
                    },
                )
            }
            fn into_seq(self) -> Self::SeqIter {
                self.start..self.end
            }
        }

        impl IndexedChunk for RangeChunk<$ty> {}

        impl IntoParallelIterator for std::ops::Range<$ty> {
            type Item = $ty;
            type Iter = RangeChunk<$ty>;
            fn into_par_iter(self) -> Par<Self::Iter> {
                // Normalize inverted ranges to empty so `len` can't wrap.
                let end = self.end.max(self.start);
                Par {
                    chunk: RangeChunk {
                        start: self.start,
                        end,
                    },
                }
            }
        }
    };
}

range_chunk!(u32);
range_chunk!(u64);
range_chunk!(usize);

/// Chunk over an owned vector (splits by `split_off`).
#[derive(Debug)]
pub struct VecChunk<T>(Vec<T>);

impl<T: Send> Chunk for VecChunk<T> {
    type Item = T;
    type SeqIter = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let right = self.0.split_off(mid);
        (self, VecChunk(right))
    }
    fn into_seq(self) -> Self::SeqIter {
        self.0.into_iter()
    }
}

impl<T: Send> IndexedChunk for VecChunk<T> {}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecChunk<T>;
    fn into_par_iter(self) -> Par<Self::Iter> {
        Par {
            chunk: VecChunk(self),
        }
    }
}

/// Chunk over a shared slice, yielding `&T`.
#[derive(Debug)]
pub struct SliceChunk<'a, T>(&'a [T]);

impl<'a, T: Sync> Chunk for SliceChunk<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(mid);
        (SliceChunk(l), SliceChunk(r))
    }
    fn into_seq(self) -> Self::SeqIter {
        self.0.iter()
    }
}

impl<T: Sync> IndexedChunk for SliceChunk<'_, T> {}

/// Chunk over an exclusive slice, yielding `&mut T`.
#[derive(Debug)]
pub struct SliceMutChunk<'a, T>(&'a mut [T]);

impl<'a, T: Send> Chunk for SliceMutChunk<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        // UFCS by-value call: consumes the owned `&'a mut [T]` so the
        // halves keep the full `'a` lifetime (no reborrow shortening).
        let (l, r) = <[T]>::split_at_mut(self.0, mid);
        (SliceMutChunk(l), SliceMutChunk(r))
    }
    fn into_seq(self) -> Self::SeqIter {
        self.0.iter_mut()
    }
}

impl<T: Send> IndexedChunk for SliceMutChunk<'_, T> {}

/// Chunk over fixed-size windows of a slice, yielding `&[T]`.
#[derive(Debug)]
pub struct ChunksChunk<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Chunk for ChunksChunk<'a, T> {
    type Item = &'a [T];
    type SeqIter = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn elements(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        // Split on a window boundary so window contents are unchanged.
        let (l, r) = self.slice.split_at(mid * self.size);
        (
            ChunksChunk {
                slice: l,
                size: self.size,
            },
            ChunksChunk {
                slice: r,
                size: self.size,
            },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks(self.size)
    }
}

impl<T: Sync> IndexedChunk for ChunksChunk<'_, T> {}

/// `par_iter` on slices (mirrors `rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// The type of shared reference yielded.
    type Item: Send + 'a;
    /// The underlying splittable chunk type.
    type Iter: Chunk<Item = Self::Item>;
    /// Iterates `&self` in parallel.
    fn par_iter(&'a self) -> Par<Self::Iter>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceChunk<'a, T>;
    fn par_iter(&'a self) -> Par<Self::Iter> {
        Par {
            chunk: SliceChunk(self),
        }
    }
}

/// `par_iter_mut` on slices (mirrors
/// `rayon::iter::IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'a> {
    /// The type of exclusive reference yielded.
    type Item: Send + 'a;
    /// The underlying splittable chunk type.
    type Iter: Chunk<Item = Self::Item>;
    /// Iterates `&mut self` in parallel.
    fn par_iter_mut(&'a mut self) -> Par<Self::Iter>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = SliceMutChunk<'a, T>;
    fn par_iter_mut(&'a mut self) -> Par<Self::Iter> {
        Par {
            chunk: SliceMutChunk(self),
        }
    }
}

/// `par_chunks` on slices (mirrors `rayon::slice::ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Iterates over `chunk_size`-sized windows in parallel.
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksChunk<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksChunk<'_, T>> {
        assert!(chunk_size > 0, "par_chunks: chunk_size must be non-zero");
        Par {
            chunk: ChunksChunk {
                slice: self,
                size: chunk_size,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptor chunks
// ---------------------------------------------------------------------------

/// Chunk adaptor applying a mapping closure per item.
#[derive(Debug)]
pub struct MapChunk<C, F> {
    base: C,
    f: F,
}

impl<C, R, F> Chunk for MapChunk<C, F>
where
    C: Chunk,
    R: Send,
    F: Fn(C::Item) -> R + Clone + Send,
{
    type Item = R;
    type SeqIter = std::iter::Map<C::SeqIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn elements(&self) -> usize {
        self.base.elements()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            MapChunk {
                base: l,
                f: self.f.clone(),
            },
            MapChunk { base: r, f: self.f },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        self.base.into_seq().map(self.f)
    }
}

impl<C, R, F> IndexedChunk for MapChunk<C, F>
where
    C: IndexedChunk,
    R: Send,
    F: Fn(C::Item) -> R + Clone + Send,
{
}

/// Chunk adaptor keeping items that satisfy a predicate. Not indexed:
/// its post-filter length is unknowable without running the predicate.
#[derive(Debug)]
pub struct FilterChunk<C, P> {
    base: C,
    pred: P,
}

impl<C, P> Chunk for FilterChunk<C, P>
where
    C: Chunk,
    P: Fn(&C::Item) -> bool + Clone + Send,
{
    type Item = C::Item;
    type SeqIter = std::iter::Filter<C::SeqIter, P>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn elements(&self) -> usize {
        self.base.elements()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            FilterChunk {
                base: l,
                pred: self.pred.clone(),
            },
            FilterChunk {
                base: r,
                pred: self.pred,
            },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        self.base.into_seq().filter(self.pred)
    }
}

/// Chunk adaptor mapping and filtering in one pass. Not indexed.
#[derive(Debug)]
pub struct FilterMapChunk<C, F> {
    base: C,
    f: F,
}

impl<C, R, F> Chunk for FilterMapChunk<C, F>
where
    C: Chunk,
    R: Send,
    F: Fn(C::Item) -> Option<R> + Clone + Send,
{
    type Item = R;
    type SeqIter = std::iter::FilterMap<C::SeqIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn elements(&self) -> usize {
        self.base.elements()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            FilterMapChunk {
                base: l,
                f: self.f.clone(),
            },
            FilterMapChunk { base: r, f: self.f },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        self.base.into_seq().filter_map(self.f)
    }
}

/// Chunk adaptor pairing two indexed chunks positionally.
#[derive(Debug)]
pub struct ZipChunk<A, B> {
    a: A,
    b: B,
}

impl<A, B> Chunk for ZipChunk<A, B>
where
    A: IndexedChunk,
    B: IndexedChunk,
{
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn elements(&self) -> usize {
        self.a.elements().max(self.b.elements())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(mid);
        let (bl, br) = self.b.split_at(mid);
        (ZipChunk { a: al, b: bl }, ZipChunk { a: ar, b: br })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

impl<A: IndexedChunk, B: IndexedChunk> IndexedChunk for ZipChunk<A, B> {}

/// Chunk adaptor attaching global item indices.
#[derive(Debug)]
pub struct EnumerateChunk<C> {
    base: C,
    offset: usize,
}

/// Sequential iterator for [`EnumerateChunk`]: like `Iterator::enumerate`
/// but starting at the piece's global offset.
#[derive(Debug)]
pub struct EnumSeq<I> {
    inner: I,
    idx: usize,
}

impl<I: Iterator> Iterator for EnumSeq<I> {
    type Item = (usize, I::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let i = self.idx;
        self.idx += 1;
        Some((i, item))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<C: IndexedChunk> Chunk for EnumerateChunk<C> {
    type Item = (usize, C::Item);
    type SeqIter = EnumSeq<C::SeqIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn elements(&self) -> usize {
        self.base.elements()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            EnumerateChunk {
                base: l,
                offset: self.offset,
            },
            EnumerateChunk {
                base: r,
                offset: self.offset + mid,
            },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        EnumSeq {
            inner: self.base.into_seq(),
            idx: self.offset,
        }
    }
}

impl<C: IndexedChunk> IndexedChunk for EnumerateChunk<C> {}

// ---------------------------------------------------------------------------
// Adaptors + consumers on Par
// ---------------------------------------------------------------------------

impl<C: Chunk> Par<C> {
    /// Splits into pieces per the pool plan, runs `work` on each piece (the
    /// whole chunk when sequential), and returns results in piece order.
    /// The plan counts elements, so a chunks iterator splits down to
    /// single windows, as rayon's does.
    fn drive<T, W>(self, work: W) -> Vec<T>
    where
        T: Send,
        W: Fn(C) -> T + Sync,
    {
        match pool::plan(self.chunk.elements()) {
            Plan::Seq => vec![work(self.chunk)],
            Plan::Par(p, pieces) => {
                let mut parts = Vec::with_capacity(pieces);
                split_pieces(self.chunk, pieces, &mut parts);
                pool::execute_batch(&p, parts, &|_idx, c| work(c))
            }
        }
    }

    /// Maps each item through `f`.
    pub fn map<R, F>(self, f: F) -> Par<MapChunk<C, F>>
    where
        R: Send,
        F: Fn(C::Item) -> R + Clone + Send,
    {
        Par {
            chunk: MapChunk {
                base: self.chunk,
                f,
            },
        }
    }

    /// Keeps items satisfying `pred`.
    pub fn filter<P>(self, pred: P) -> Par<FilterChunk<C, P>>
    where
        P: Fn(&C::Item) -> bool + Clone + Send,
    {
        Par {
            chunk: FilterChunk {
                base: self.chunk,
                pred,
            },
        }
    }

    /// Maps and filters in one pass.
    pub fn filter_map<R, F>(self, f: F) -> Par<FilterMapChunk<C, F>>
    where
        R: Send,
        F: Fn(C::Item) -> Option<R> + Clone + Send,
    {
        Par {
            chunk: FilterMapChunk {
                base: self.chunk,
                f,
            },
        }
    }

    /// Pairs items with those of another parallel iterator, in order.
    /// Both sides must be indexed (length-preserving) chunks.
    pub fn zip<Other>(self, other: Other) -> Par<ZipChunk<C, Other::Iter>>
    where
        C: IndexedChunk,
        Other: IntoParallelIterator,
        Other::Iter: IndexedChunk,
    {
        Par {
            chunk: ZipChunk {
                a: self.chunk,
                b: other.into_par_iter().chunk,
            },
        }
    }

    /// Attaches the global item index. Requires an indexed chunk so piece
    /// offsets are exact.
    pub fn enumerate(self) -> Par<EnumerateChunk<C>>
    where
        C: IndexedChunk,
    {
        Par {
            chunk: EnumerateChunk {
                base: self.chunk,
                offset: 0,
            },
        }
    }

    /// Folds items into per-piece accumulators. Rayon yields one
    /// accumulator per task; this shim yields one per piece (exactly one
    /// when sequential), which `reduce` then merges in piece order.
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Par<VecChunk<T>>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, C::Item) -> T + Sync,
    {
        let accs = self.drive(|c| c.into_seq().fold(identity(), &fold_op));
        Par {
            chunk: VecChunk(accs),
        }
    }

    /// Reduces all items with `op`. Each piece folds from `identity()`;
    /// piece results are merged left-to-right in piece order.
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> C::Item
    where
        ID: Fn() -> C::Item + Sync,
        F: Fn(C::Item, C::Item) -> C::Item + Sync,
    {
        self.drive(|c| c.into_seq().fold(identity(), &op))
            .into_iter()
            .reduce(&op)
            .unwrap_or_else(identity)
    }

    /// Calls `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(C::Item) + Sync,
    {
        self.drive(|c| c.into_seq().for_each(&f));
    }

    /// Calls `f` on every item with a per-piece state created by `init`
    /// (one state total when sequential).
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, C::Item) + Sync,
    {
        self.drive(|c| {
            let mut state = init();
            c.into_seq().for_each(|item| f(&mut state, item));
        });
    }

    /// Number of items (post-filter).
    pub fn count(self) -> usize {
        self.drive(|c| c.into_seq().count()).into_iter().sum()
    }

    /// Sum of all items (per-piece partial sums, then summed).
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<C::Item> + std::iter::Sum<S> + Send,
    {
        self.drive(|c| c.into_seq().sum::<S>()).into_iter().sum()
    }

    /// Collects into `B`, preserving item order (as rayon does for indexed
    /// iterators): each piece collects locally and the per-piece buffers
    /// are concatenated in piece order.
    pub fn collect<B: FromIterator<C::Item>>(self) -> B {
        self.drive(|c| c.into_seq().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_reduce_matches_rayon_semantics() {
        let v: Vec<u32> = (0..100u32)
            .into_par_iter()
            .fold(Vec::new, |mut acc, x| {
                acc.push(x);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn collect_preserves_order() {
        let v: Vec<usize> = (0..50usize)
            .into_par_iter()
            .filter(|x| x % 2 == 0)
            .collect();
        assert_eq!(v, (0..50).filter(|x| x % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn zip_enumerate() {
        let mut a = vec![0u32; 4];
        let b = vec![10u32, 20, 30, 40];
        a.par_iter_mut()
            .zip(b.into_par_iter())
            .enumerate()
            .for_each(|(i, (slot, val))| *slot = val + i as u32);
        assert_eq!(a, vec![10, 21, 32, 43]);
    }

    #[test]
    fn chunks_and_for_each_init() {
        let data: Vec<u32> = (0..10).collect();
        let sums: Vec<u64> = data
            .par_chunks(3)
            .map(|c| c.iter().map(|&x| x as u64).sum())
            .collect();
        assert_eq!(sums, vec![3, 12, 21, 9]);

        let total = std::sync::atomic::AtomicU64::new(0);
        (0..10u64).into_par_iter().for_each_init(
            || &total,
            |t, x| {
                t.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 45);
    }

    #[test]
    fn chunks_plan_by_elements() {
        // Two windows of 500 elements: too few positions for a piece of
        // 32 each, but rayon splits a chunks iterator down to single
        // windows, and so does the plan.
        let data = vec![1u32; 1000];
        let pieces: Vec<u64> = on_pool(2, || {
            data.par_chunks(500)
                .map(|c| c.len() as u64)
                .fold(|| 0, |a, n| a + n)
                .collect()
        });
        assert_eq!(pieces, [500, 500]);
    }

    #[test]
    fn pool_install_runs() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.current_num_threads(), 4);
    }

    /// The same consumers, but forced through a real multi-thread pool so
    /// the parallel code paths (split, steal, reassemble) are exercised.
    fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(f)
    }

    #[test]
    fn parallel_collect_preserves_order_large() {
        let v: Vec<u64> = on_pool(4, || {
            (0..10_000u64).into_par_iter().map(|x| x * 3).collect()
        });
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn parallel_filter_collect_preserves_order() {
        let v: Vec<u32> = on_pool(4, || {
            (0..5_000u32)
                .into_par_iter()
                .filter(|x| x % 7 == 0)
                .collect()
        });
        assert_eq!(v, (0..5_000).filter(|x| x % 7 == 0).collect::<Vec<u32>>());
    }

    #[test]
    fn parallel_fold_reduce_associative_sum() {
        let total: u64 = on_pool(8, || {
            (0..100_000u64)
                .into_par_iter()
                .fold(|| 0u64, |acc, x| acc + x)
                .reduce(|| 0u64, |a, b| a + b)
        });
        assert_eq!(total, 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn parallel_sum_and_count() {
        let (s, c) = on_pool(4, || {
            let s: u64 = (0..10_000u64).into_par_iter().sum();
            let c = (0..10_000u32)
                .into_par_iter()
                .filter(|x| x % 2 == 1)
                .count();
            (s, c)
        });
        assert_eq!(s, 10_000u64 * 9_999 / 2);
        assert_eq!(c, 5_000);
    }

    #[test]
    fn parallel_zip_enumerate_mut_slice() {
        let mut a = vec![0u64; 4096];
        let b: Vec<u64> = (0..4096u64).collect();
        on_pool(4, || {
            a.par_iter_mut()
                .zip(b.into_par_iter())
                .enumerate()
                .for_each(|(i, (slot, val))| *slot = val + i as u64);
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn parallel_for_each_init_flushes_all_pieces() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        on_pool(4, || {
            (0..50_000u64).into_par_iter().for_each_init(
                || 0u64,
                |local, _x| {
                    // Accumulate into piece-local state occasionally flushed.
                    *local += 1;
                    if *local == 1 {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
        });
        // One init per piece, at least one piece.
        assert!(total.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn panic_in_parallel_task_propagates() {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            on_pool(4, || {
                (0..10_000u32).into_par_iter().for_each(|x| {
                    if x == 7_777 {
                        panic!("deliberate test panic");
                    }
                });
            })
        }));
        assert!(res.is_err());
    }

    #[test]
    fn sequential_when_single_thread_pool_installed() {
        // num_threads=1 must take the pure sequential path.
        let v: Vec<u32> = on_pool(1, || (0..1_000u32).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(v, (1..=1_000).collect::<Vec<u32>>());
    }
}
