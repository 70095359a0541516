//! Hadoop-style MapReduce programming API.
//!
//! `Mapper` and `Reducer` are the user-facing traits; the
//! [`crate::local`] runner executes them for real on threads, and
//! [`crate::simjob`] reuses the same job *shape* with calibrated cost
//! models inside the discrete-event simulation.

use std::hash::{Hash, Hasher};

/// Collects key/value pairs emitted by a map invocation.
#[derive(Debug)]
pub struct Emitter<K, V> {
    out: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    pub fn new() -> Self {
        Emitter { out: Vec::new() }
    }

    pub fn emit(&mut self, key: K, value: V) {
        self.out.push((key, value));
    }

    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.out
    }

    pub fn len(&self) -> usize {
        self.out.len()
    }

    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Emitter::new()
    }
}

/// Map phase: one record in, any number of intermediate pairs out.
pub trait Mapper<KI, VI, KO, VO>: Send + Sync {
    fn map(&self, key: KI, value: VI, emitter: &mut Emitter<KO, VO>);
}

/// Reduce phase: one key and all its values, any number of outputs.
pub trait Reducer<K, VI, VO>: Send + Sync {
    fn reduce(&self, key: K, values: Vec<VI>, out: &mut Vec<VO>);
}

/// Blanket impls so closures can be used directly as mappers/reducers.
impl<KI, VI, KO, VO, F> Mapper<KI, VI, KO, VO> for F
where
    F: Fn(KI, VI, &mut Emitter<KO, VO>) + Send + Sync,
{
    fn map(&self, key: KI, value: VI, emitter: &mut Emitter<KO, VO>) {
        self(key, value, emitter)
    }
}

impl<K, VI, VO, F> Reducer<K, VI, VO> for F
where
    F: Fn(K, Vec<VI>, &mut Vec<VO>) + Send + Sync,
{
    fn reduce(&self, key: K, values: Vec<VI>, out: &mut Vec<VO>) {
        self(key, values, out)
    }
}

/// Stable hash partitioner (Hadoop `HashPartitioner`).
pub fn partition_of<K: Hash>(key: &K, num_reducers: usize) -> usize {
    assert!(num_reducers >= 1);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % num_reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_in_order() {
        let mut e = Emitter::new();
        e.emit("a", 1);
        e.emit("b", 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![("a", 1), ("b", 2)]);
    }

    #[test]
    fn closures_are_mappers() {
        let m = |_k: u32, v: u32, e: &mut Emitter<u32, u32>| e.emit(v % 3, v);
        let mut e = Emitter::new();
        m.map(0, 7, &mut e);
        assert_eq!(e.into_pairs(), vec![(1, 7)]);
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for k in 0..1000u64 {
            let p = partition_of(&k, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(&k, 7));
        }
    }

    #[test]
    fn partitioner_spreads_keys() {
        let mut counts = [0usize; 4];
        for k in 0..10_000u64 {
            counts[partition_of(&k, 4)] += 1;
        }
        for &c in &counts {
            assert!((1_500..4_000).contains(&c), "skewed: {counts:?}");
        }
    }
}
