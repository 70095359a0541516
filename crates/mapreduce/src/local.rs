//! Native multi-threaded MapReduce runner.
//!
//! Executes a job for real: map tasks in parallel over input splits,
//! hash shuffle, reduce tasks in parallel.
//! Output within each reduce partition is ordered by key so runs are
//! deterministic regardless of thread interleaving.

use std::collections::BTreeMap;

use rp_sim::par::{default_threads, parallel_map_mut};

use crate::api::{partition_of, Emitter, Mapper, Reducer};

/// Run a MapReduce job natively.
///
/// * `splits` — the input, one `Vec` of records per map task.
/// * `num_reducers` — number of output partitions.
///
/// Returns one `Vec<RO>` per reduce partition (key-ordered within each).
pub fn run_local<KI, VI, KO, VO, RO>(
    mut splits: Vec<Vec<(KI, VI)>>,
    mapper: &dyn Mapper<KI, VI, KO, VO>,
    reducer: &dyn Reducer<KO, VO, RO>,
    num_reducers: usize,
) -> Vec<Vec<RO>>
where
    KI: Send,
    VI: Send,
    KO: Clone + Ord + std::hash::Hash + Send,
    VO: Send,
    RO: Send,
{
    assert!(num_reducers >= 1);
    let n_maps = splits.len();
    let threads = default_threads(n_maps.max(num_reducers));

    // ---- map phase (parallel over splits) ----
    // Each map task produces per-reducer buckets.
    let map_outputs: Vec<Vec<BTreeMap<KO, Vec<VO>>>> =
        parallel_map_mut(&mut splits, threads, |split| {
            let mut emitter = Emitter::new();
            for (k, v) in std::mem::take(split) {
                mapper.map(k, v, &mut emitter);
            }
            // Group by key first, so the partitioner hashes each distinct
            // key once rather than once per pair. Each key's values keep
            // their emit order.
            let mut grouped: BTreeMap<KO, Vec<VO>> = BTreeMap::new();
            for (k, v) in emitter.into_pairs() {
                grouped.entry(k).or_default().push(v);
            }
            let mut buckets: Vec<BTreeMap<KO, Vec<VO>>> =
                (0..num_reducers).map(|_| BTreeMap::new()).collect();
            for (k, vs) in grouped {
                let p = partition_of(&k, num_reducers);
                buckets[p].insert(k, vs);
            }
            buckets
        });

    // ---- shuffle: transpose map outputs into per-reducer groups ----
    let mut per_reducer: Vec<BTreeMap<KO, Vec<VO>>> =
        (0..num_reducers).map(|_| BTreeMap::new()).collect();
    for m in map_outputs {
        for (r, bucket) in m.into_iter().enumerate() {
            let tgt = &mut per_reducer[r];
            for (k, mut vs) in bucket {
                tgt.entry(k).or_default().append(&mut vs);
            }
        }
    }

    // ---- reduce phase (parallel over partitions) ----
    parallel_map_mut(&mut per_reducer, threads, |grouped| {
        let mut out = Vec::new();
        for (k, vs) in std::mem::take(grouped) {
            reducer.reduce(k, vs, &mut out);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Emitter;

    struct WordCountMapper;
    impl Mapper<u64, String, String, u64> for WordCountMapper {
        fn map(&self, _k: u64, line: String, e: &mut Emitter<String, u64>) {
            for w in line.split_whitespace() {
                e.emit(w.to_string(), 1);
            }
        }
    }

    struct SumReducer;
    impl Reducer<String, u64, (String, u64)> for SumReducer {
        fn reduce(&self, key: String, values: Vec<u64>, out: &mut Vec<(String, u64)>) {
            out.push((key, values.into_iter().sum()));
        }
    }

    fn wc_input() -> Vec<Vec<(u64, String)>> {
        vec![
            vec![
                (0, "the quick brown fox".into()),
                (1, "the lazy dog".into()),
            ],
            vec![(2, "the end".into())],
        ]
    }

    #[test]
    fn word_count_without_combiner() {
        let out = run_local(wc_input(), &WordCountMapper, &SumReducer, 3);
        let all: std::collections::BTreeMap<String, u64> = out.into_iter().flatten().collect();
        assert_eq!(all["the"], 3);
        assert_eq!(all["quick"], 1);
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn output_is_key_ordered_per_partition() {
        let out = run_local(wc_input(), &WordCountMapper, &SumReducer, 1);
        let keys: Vec<&String> = out[0].iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn empty_input_yields_empty_partitions() {
        let out = run_local(
            Vec::<Vec<(u64, String)>>::new(),
            &WordCountMapper,
            &SumReducer,
            4,
        );
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn closures_as_mapper_and_reducer() {
        let splits = vec![vec![(0u64, 5u64), (0, 6)], vec![(0, 7)]];
        let out = run_local(
            splits,
            &|_k: u64, v: u64, e: &mut Emitter<u64, u64>| e.emit(v % 2, v),
            &|k: u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| out.push((k, vs.into_iter().sum())),
            2,
        );
        let m: std::collections::BTreeMap<u64, u64> = out.into_iter().flatten().collect();
        assert_eq!(m[&0], 6);
        assert_eq!(m[&1], 12);
    }
}
