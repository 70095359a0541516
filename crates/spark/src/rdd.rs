//! A native mini-RDD engine.
//!
//! This is the genuinely-executing analytics core of the Spark integration:
//! typed, lazily-evaluated resilient distributed datasets with narrow
//! transformations (`map`, `filter`, `flat_map`, `map_partitions`), one wide
//! transformation (`reduce_by_key`, which materialises a hash shuffle) and
//! actions (`collect`, `count`, `reduce`, `fold`). Partitions evaluate in
//! parallel on scoped threads (`rp_sim::par`); `cache()` memoises partition
//! results the way Spark's storage layer retains RDDs in executor memory.
//!
//! Evaluation is push-based. A partition is evaluated by handing its
//! lineage a sink, and elements flow through every narrow stage (`map`,
//! `filter`, `flat_map`) into the action or the shuffle's map side, as
//! Spark pipelines the narrow stages of one stage. They move in batches of
//! up to `BATCH` elements: a stage crosses its `dyn` boundary once per
//! batch, and runs its closure on each element of the batch in a direct,
//! inlinable loop. Only `map_partitions`, `cache` and the shuffle
//! materialise a whole partition.
//! The shuffle combines map-side into one `HashMap` per input partition and
//! merges those in partition order, so each key's values fold in the same
//! order on every run.

use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use rp_sim::par::{default_threads, even_ranges, parallel_map_indexed};

/// Elements a stage hands downstream at a time.
const BATCH: usize = 256;

/// A downstream stage: takes a batch of elements, in order. What it leaves
/// in the `Vec` is dropped.
type Sink<'a, T> = dyn FnMut(&mut Vec<T>) + 'a;

/// Partition evaluator: the lineage graph behind an [`Rdd`].
trait RddNode<T>: Send + Sync {
    fn num_partitions(&self) -> usize;
    /// Push every element of partition `part`, in order and in batches,
    /// into `sink`.
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, T>);
    /// Partition `part`, if this node already holds it in memory. `cache()`
    /// keeps this shared partition instead of materialising a copy.
    fn stored(&self, _part: usize) -> Option<Stored<T>> {
        None
    }
}

/// One partition held in memory: a range of a shared buffer. Cloning it
/// clones the `Arc`, not the elements.
#[derive(Clone)]
struct Stored<T> {
    data: Arc<Vec<T>>,
    range: Range<usize>,
}

/// Push clones of `items`, in order, as batches of up to [`BATCH`].
fn push_cloned<T: Clone>(items: &[T], sink: &mut Sink<'_, T>) {
    let mut batch = Vec::with_capacity(BATCH.min(items.len()));
    for chunk in items.chunks(BATCH) {
        batch.extend_from_slice(chunk);
        sink(&mut batch);
        batch.clear();
    }
}

/// Feed every element of partition `part` to `f`, in order.
fn for_each<T>(node: &dyn RddNode<T>, part: usize, mut f: impl FnMut(T)) {
    node.for_each_batch(part, &mut |batch| batch.drain(..).for_each(&mut f));
}

/// Materialise one partition.
fn collect_part<T>(node: &dyn RddNode<T>, part: usize) -> Vec<T> {
    let mut out = Vec::new();
    node.for_each_batch(part, &mut |batch| out.append(batch));
    out
}

impl<T> Stored<T> {
    fn whole(data: Vec<T>) -> Stored<T> {
        Stored {
            range: 0..data.len(),
            data: Arc::new(data),
        }
    }

    fn as_slice(&self) -> &[T] {
        &self.data[self.range.clone()]
    }
}

/// A typed, lazy, partitioned dataset.
#[derive(Clone)]
pub struct Rdd<T> {
    node: Arc<dyn RddNode<T>>,
}

/// Entry point, mirroring `SparkContext`.
#[derive(Clone)]
pub struct SparkContext {
    default_parallelism: usize,
}

impl SparkContext {
    pub fn new(default_parallelism: usize) -> Self {
        assert!(default_parallelism >= 1);
        SparkContext {
            default_parallelism,
        }
    }

    pub fn default_parallelism(&self) -> usize {
        self.default_parallelism
    }

    /// Distribute a local collection into `partitions` slices.
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        self.parallelize_shared(Arc::new(data), partitions)
    }

    /// Distribute a shared collection without copying it: each of the
    /// `partitions` slices is a contiguous range of `data`, cut as
    /// [`split_even`](rp_sim::par::split_even) cuts a `Vec`. The caller
    /// may keep reading `data` alongside the RDD.
    pub fn parallelize_shared<T: Clone + Send + Sync + 'static>(
        &self,
        data: Arc<Vec<T>>,
        partitions: usize,
    ) -> Rdd<T> {
        let parts = even_ranges(data.len(), partitions)
            .into_iter()
            .map(|range| Stored {
                data: data.clone(),
                range,
            })
            .collect();
        Rdd {
            node: Arc::new(Parallelize { parts }),
        }
    }
}

struct Parallelize<T> {
    parts: Vec<Stored<T>>,
}

impl<T: Clone + Send + Sync> RddNode<T> for Parallelize<T> {
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, T>) {
        push_cloned(self.parts[part].as_slice(), sink);
    }
    fn stored(&self, part: usize) -> Option<Stored<T>> {
        Some(self.parts[part].clone())
    }
}

/// `map`, `filter` and `flat_map`: one element in, its outputs pushed to
/// the downstream sink. The stage's closure `F` is a type parameter, so the
/// loop over a batch calls it directly.
struct Pipe<T, F> {
    parent: Arc<dyn RddNode<T>>,
    f: F,
}

impl<T, U, F> RddNode<U> for Pipe<T, F>
where
    T: Send + Sync,
    U: Send + Sync,
    F: Fn(T, &mut dyn FnMut(U)) + Send + Sync,
{
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, U>) {
        let mut out = Vec::with_capacity(BATCH);
        self.parent.for_each_batch(part, &mut |batch| {
            for x in batch.drain(..) {
                (self.f)(x, &mut |u| out.push(u));
                // `flat_map` may emit many outputs for one input.
                if out.len() >= BATCH {
                    sink(&mut out);
                    out.clear();
                }
            }
        });
        if !out.is_empty() {
            sink(&mut out);
        }
    }
}

struct MapPartitions<T, U> {
    parent: Arc<dyn RddNode<T>>,
    f: Arc<dyn Fn(Vec<T>) -> Vec<U> + Send + Sync>,
}

impl<T: Send + Sync, U: Send + Sync> RddNode<U> for MapPartitions<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, U>) {
        sink(&mut (self.f)(collect_part(&*self.parent, part)));
    }
}

/// Wide dependency: combine parent output by key, then hash-partition the
/// merged keys. The shuffle (all parent partitions) materialises once, on
/// first access, like Spark's shuffle files. The reducer `F` is a type
/// parameter, so the map-side combine calls it directly.
struct ShuffleReduce<K, V, F> {
    parent: Arc<dyn RddNode<(K, V)>>,
    reducer: F,
    num_out: usize,
    buckets: OnceLock<Vec<Vec<(K, V)>>>,
}

fn bucket_of<K: Hash>(key: &K, buckets: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % buckets as u64) as usize
}

/// The shuffle's per-key accumulator. Its hash order never reaches the
/// output: partitions merge in partition order, and each output bucket is
/// sorted by key.
#[expect(
    clippy::disallowed_types,
    reason = "hash-combining is the shuffle's hot path; no output depends on its order"
)]
type Combiner<K, V> = std::collections::HashMap<K, Option<V>, BuildHasherDefault<MulHasher>>;

/// The combiner's hasher: one rotate, xor and multiply per integer, or
/// per byte of other keys (the scheme of rustc's `FxHasher`). It is
/// deterministic and far cheaper than std's SipHash on the small keys a
/// shuffle carries. It is not DoS-resistant, which an in-process combiner
/// does not need. Only the combiner uses it: `bucket_of` decides
/// partition contents and keeps SipHash.
#[derive(Default, Clone, Copy)]
struct MulHasher(u64);

impl MulHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fold `v` into `k`'s accumulator: one probe when `k` is already present.
/// Values sit in an `Option` only so the reducer can take the accumulator
/// by value; every stored slot is `Some`.
#[inline]
fn combine_into<K: Hash + Eq, V>(
    acc: &mut Combiner<K, V>,
    k: K,
    v: V,
    reducer: &impl Fn(V, V) -> V,
) {
    match acc.get_mut(&k) {
        Some(slot) => *slot = slot.take().map(|prev| reducer(prev, v)),
        None => {
            acc.insert(k, Some(v));
        }
    }
}

impl<K, V, F> ShuffleReduce<K, V, F>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: Fn(V, V) -> V + Send + Sync,
{
    fn materialise(&self) -> &Vec<Vec<(K, V)>> {
        self.buckets.get_or_init(|| {
            let n_in = self.parent.num_partitions();
            let threads = default_threads(n_in);
            // Map side: stream each parent partition into one combiner
            // map, folding each key's values in arrival order.
            let per_part: Vec<Combiner<K, V>> = parallel_map_indexed(n_in, threads, |p| {
                let mut combined = Combiner::default();
                for_each(&*self.parent, p, |(k, v)| {
                    combine_into(&mut combined, k, v, &self.reducer)
                });
                combined
            });
            // Reduce side: merge the partitions' partials in partition
            // order. Each key occurs once per partition, so the hash order
            // within one partition cannot change any key's fold order.
            let mut merged: Combiner<K, V> = Combiner::default();
            for part in per_part {
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "each key occurs once per partition"
                )]
                for (k, v) in part {
                    if let Some(v) = v {
                        combine_into(&mut merged, k, v, &self.reducer);
                    }
                }
            }
            let mut out: Vec<Vec<(K, V)>> = (0..self.num_out).map(|_| Vec::new()).collect();
            #[expect(
                clippy::iter_over_hash_type,
                reason = "drained into buckets, each sorted by key below"
            )]
            for (k, v) in merged {
                if let Some(v) = v {
                    out[bucket_of(&k, self.num_out)].push((k, v));
                }
            }
            // Sort by key so reduce output is deterministic: HashMap
            // drain order must not leak into partition contents.
            for bucket in &mut out {
                bucket.sort_by(|a, b| a.0.cmp(&b.0));
            }
            out
        })
    }
}

impl<K, V, F> RddNode<(K, V)> for ShuffleReduce<K, V, F>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: Fn(V, V) -> V + Send + Sync,
{
    fn num_partitions(&self) -> usize {
        self.num_out
    }
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, (K, V)>) {
        push_cloned(&self.materialise()[part], sink);
    }
}

/// Memoising layer: partition results computed once, retained in memory.
/// A partition the parent already holds in memory is shared, not copied.
struct CacheNode<T> {
    parent: Arc<dyn RddNode<T>>,
    slots: Vec<OnceLock<Stored<T>>>,
}

impl<T: Clone + Send + Sync> CacheNode<T> {
    /// The memoised partition; the first caller computes it, and
    /// concurrent callers wait for that one computation.
    fn slot(&self, part: usize) -> &Stored<T> {
        self.slots[part].get_or_init(|| {
            self.parent
                .stored(part)
                .unwrap_or_else(|| Stored::whole(collect_part(&*self.parent, part)))
        })
    }
}

impl<T: Clone + Send + Sync> RddNode<T> for CacheNode<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn for_each_batch(&self, part: usize, sink: &mut Sink<'_, T>) {
        push_cloned(self.slot(part).as_slice(), sink);
    }
    fn stored(&self, part: usize) -> Option<Stored<T>> {
        Some(self.slot(part).clone())
    }
}

impl<T: Clone + Send + Sync + 'static> Rdd<T> {
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// Narrow transformation over whole partitions.
    pub fn map_partitions<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd {
            node: Arc::new(MapPartitions {
                parent: self.node.clone(),
                f: Arc::new(f),
            }),
        }
    }

    /// Per-element narrow stage shared by `map`, `filter` and `flat_map`.
    fn pipe<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T, &mut dyn FnMut(U)) + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd {
            node: Arc::new(Pipe {
                parent: self.node.clone(),
                f,
            }),
        }
    }

    pub fn map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.pipe(move |x, sink| sink(f(x)))
    }

    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        self.pipe(move |x, sink| {
            if f(&x) {
                sink(x)
            }
        })
    }

    pub fn flat_map<U: Clone + Send + Sync + 'static, I: IntoIterator<Item = U>>(
        &self,
        f: impl Fn(T) -> I + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.pipe(move |x, sink| f(x).into_iter().for_each(sink))
    }

    /// Memoise partition results (Spark `.cache()`).
    pub fn cache(&self) -> Rdd<T> {
        let n = self.node.num_partitions();
        Rdd {
            node: Arc::new(CacheNode {
                parent: self.node.clone(),
                slots: (0..n).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    /// Action: evaluate all partitions in parallel and concatenate.
    pub fn collect(&self) -> Vec<T> {
        let n = self.node.num_partitions();
        parallel_map_indexed(n, default_threads(n), |p| collect_part(&*self.node, p))
            .into_iter()
            .flatten()
            .collect()
    }

    pub fn count(&self) -> usize {
        let n = self.node.num_partitions();
        parallel_map_indexed(n, default_threads(n), |p| {
            let mut c = 0;
            for_each(&*self.node, p, |_| c += 1);
            c
        })
        .into_iter()
        .sum()
    }

    /// Action: associative reduction across all elements. Returns `None`
    /// for an empty RDD.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync) -> Option<T> {
        let n = self.node.num_partitions();
        let partials: Vec<Option<T>> = parallel_map_indexed(n, default_threads(n), |p| {
            let mut acc = None;
            for_each(&*self.node, p, |x| {
                acc = Some(match acc.take() {
                    Some(a) => f(a, x),
                    None => x,
                })
            });
            acc
        });
        partials.into_iter().flatten().reduce(&f)
    }

    /// Action: fold with a per-partition zero (like Spark's `fold`, the
    /// zero must be neutral).
    pub fn fold<A: Clone + Send + Sync>(
        &self,
        zero: A,
        f: impl Fn(A, T) -> A + Send + Sync,
        combine: impl Fn(A, A) -> A,
    ) -> A {
        let n = self.node.num_partitions();
        // The accumulator sits in an `Option` only so `f` can take it by
        // value; it is `Some` between elements.
        let partials: Vec<Option<A>> = parallel_map_indexed(n, default_threads(n), |p| {
            let mut acc = Some(zero.clone());
            for_each(&*self.node, p, |x| acc = acc.take().map(|a| f(a, x)));
            acc
        });
        partials.into_iter().flatten().fold(zero, combine)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Wide transformation: merge values per key with `f` across the whole
    /// dataset, producing `num_out` hash partitions.
    pub fn reduce_by_key_with_partitions(
        &self,
        num_out: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        assert!(num_out >= 1);
        Rdd {
            node: Arc::new(ShuffleReduce {
                parent: self.node.clone(),
                reducer: f,
                num_out,
                buckets: OnceLock::new(),
            }),
        }
    }

    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Rdd<(K, V)> {
        self.reduce_by_key_with_partitions(self.node.num_partitions(), f)
    }

    /// Action: collect into a map (keys must be unique post-reduce).
    pub fn collect_as_map(&self) -> BTreeMap<K, V> {
        self.collect().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> SparkContext {
        SparkContext::new(4)
    }

    #[test]
    fn map_filter_collect_matches_iterators() {
        let sc = ctx();
        let rdd = sc.parallelize((0..100i64).collect(), 7);
        let got = rdd.map(|x| x * 3).filter(|x| x % 2 == 0).collect();
        let want: Vec<i64> = (0..100).map(|x| x * 3).filter(|x| x % 2 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn flat_map_expands() {
        let sc = ctx();
        let rdd = sc.parallelize(vec!["a b", "c", "d e f"], 2);
        let words = rdd
            .flat_map(|s| s.split(' ').map(str::to_owned).collect::<Vec<_>>())
            .collect();
        assert_eq!(words, vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn count_and_reduce() {
        let sc = ctx();
        let rdd = sc.parallelize((1..=100u64).collect(), 9);
        assert_eq!(rdd.count(), 100);
        assert_eq!(rdd.reduce(|a, b| a + b), Some(5050));
    }

    #[test]
    fn reduce_empty_is_none() {
        let sc = ctx();
        let rdd = sc.parallelize(Vec::<u32>::new(), 3);
        assert_eq!(rdd.reduce(|a, b| a + b), None);
        assert_eq!(rdd.count(), 0);
    }

    #[test]
    fn fold_sums() {
        let sc = ctx();
        let rdd = sc.parallelize((1..=10i64).collect(), 3);
        let s = rdd.fold(0i64, |acc, x| acc + x, |a, b| a + b);
        assert_eq!(s, 55);
    }

    #[test]
    fn word_count_via_reduce_by_key() {
        let sc = ctx();
        let text = vec!["a b a", "b a", "c"];
        let counts = sc
            .parallelize(text, 2)
            .flat_map(|l| l.split(' ').map(str::to_owned).collect::<Vec<_>>())
            .map(|w| (w, 1u64))
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
    }

    #[test]
    fn reduce_by_key_partition_count() {
        let sc = ctx();
        let rdd = sc
            .parallelize((0..1000u64).map(|i| (i % 10, 1u64)).collect(), 8)
            .reduce_by_key_with_partitions(3, |a, b| a + b);
        assert_eq!(rdd.num_partitions(), 3);
        let m = rdd.collect_as_map();
        assert_eq!(m.len(), 10);
        assert!(m.values().all(|&v| v == 100));
    }

    #[test]
    fn cache_computes_each_partition_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let sc = ctx();
        let rdd = sc
            .parallelize((0..40u64).collect(), 4)
            .map(|x| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                x * 2
            })
            .cache();
        let a = rdd.collect();
        let calls_after_first = CALLS.load(Ordering::Relaxed);
        let b = rdd.collect();
        let calls_after_second = CALLS.load(Ordering::Relaxed);
        assert_eq!(a, b);
        assert_eq!(calls_after_first, 40);
        assert_eq!(calls_after_second, 40, "cache must prevent recompute");
    }

    #[test]
    fn lineage_recomputes_without_cache() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let sc = ctx();
        let rdd = sc.parallelize((0..10u64).collect(), 2).map(|x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x
        });
        rdd.collect();
        rdd.collect();
        assert_eq!(CALLS.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn narrow_chain_calls_each_closure_once_per_element_per_action() {
        let counters: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let (c0, c1, c2) = (counters.clone(), counters.clone(), counters.clone());
        let sc = ctx();
        let rdd = sc
            .parallelize((0..60u64).collect(), 4)
            .map(move |x| {
                c0[0].fetch_add(1, Ordering::Relaxed);
                x + 1
            })
            .filter(move |x| {
                c1[1].fetch_add(1, Ordering::Relaxed);
                x % 3 == 0
            })
            .map(move |x| {
                c2[2].fetch_add(1, Ordering::Relaxed);
                x * 10
            });
        let calls = || counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(rdd.collect().len(), 20);
        assert_eq!(calls(), [60, 60, 20]);
        assert_eq!(rdd.count(), 20);
        assert_eq!(calls(), [120, 120, 40]);
    }

    #[test]
    fn cached_rdd_feeding_two_shuffles_computes_parent_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let sc = ctx();
        let cached = sc
            .parallelize((0..100u64).collect(), 5)
            .map(move |x| {
                c.fetch_add(1, Ordering::Relaxed);
                x
            })
            .cache();
        let by_mod = cached
            .map(|x| (x % 7, x))
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        let by_div = cached
            .map(|x| (x / 10, 1u64))
            .reduce_by_key_with_partitions(3, |a, b| a + b)
            .collect_as_map();
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(by_mod.values().sum::<u64>(), (0..100).sum());
        assert_eq!(by_div.len(), 10);
        assert!(by_div.values().all(|&n| n == 10));
    }

    #[test]
    fn parallelize_cuts_partitions_as_split_even_does() {
        let sc = ctx();
        for n in 0..20usize {
            for parts in 1..6 {
                let data: Vec<usize> = (0..n).collect();
                let got = sc
                    .parallelize(data.clone(), parts)
                    .map_partitions(|p| vec![p])
                    .collect();
                assert_eq!(
                    got,
                    rp_sim::par::split_even(data, parts),
                    "n {n} parts {parts}"
                );
            }
        }
    }

    #[test]
    fn cached_parallelize_shares_its_buffer() {
        let sc = ctx();
        let data = Arc::new((0..100u64).collect::<Vec<_>>());
        let rdd = sc.parallelize_shared(data.clone(), 4).cache();
        assert_eq!(rdd.collect(), *data);
        // One reference here, one per partition of the parallelize and one
        // per cached partition: the cache holds no copy of its own.
        assert_eq!(Arc::strong_count(&data), 1 + 4 + 4);
    }

    #[test]
    fn iterative_kmeans_like_loop_converges() {
        // Tiny end-to-end sanity: mean of clustered points via RDD ops.
        let sc = ctx();
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    (0.0 + (i as f64 % 5.0) * 0.01, 0.0)
                } else {
                    (10.0 + (i as f64 % 5.0) * 0.01, 10.0)
                }
            })
            .collect();
        let rdd = sc.parallelize(points, 8).cache();
        let mut centroids = vec![(1.0, 1.0), (9.0, 9.0)];
        for _ in 0..5 {
            let c = centroids.clone();
            let sums = rdd
                .map(move |p| {
                    let d0 = (p.0 - c[0].0).powi(2) + (p.1 - c[0].1).powi(2);
                    let d1 = (p.0 - c[1].0).powi(2) + (p.1 - c[1].1).powi(2);
                    let k = usize::from(d1 < d0);
                    (k, (p.0, p.1, 1u64))
                })
                .reduce_by_key(|a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
                .collect_as_map();
            for (k, (sx, sy, n)) in sums {
                centroids[k] = (sx / n as f64, sy / n as f64);
            }
        }
        assert!(centroids[0].0 < 1.0 && centroids[1].0 > 9.0);
    }
}
