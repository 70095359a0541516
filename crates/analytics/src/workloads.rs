//! Reusable MapReduce workloads: the classic Hadoop kernels, implemented
//! against the [`rp_mapreduce`] API so examples/tests have realistic jobs
//! beyond K-Means, plus a MapReduce formulation of the trajectory RMSD
//! analysis (the paper's "MapReduce based solutions in HPC environments",
//! ref \[11\]).

use rp_mapreduce::{run_local, Combiner, Emitter, Mapper, Reducer};
use rp_sim::par::split_even;

use crate::dataset::Frame;
use crate::trajectory::rmsd;

// ---- word count ----

/// Tokenising word-count mapper (lowercases, strips non-alphanumerics).
pub struct WordCountMapper;

impl Mapper<u64, String, String, u64> for WordCountMapper {
    fn map(&self, _k: u64, line: String, e: &mut Emitter<String, u64>) {
        for token in line.split(|c: char| !c.is_alphanumeric()) {
            if !token.is_empty() {
                e.emit(token.to_lowercase(), 1);
            }
        }
    }
}

/// Sums counts; usable as both combiner and reducer.
pub struct CountSum;

impl Combiner<String, u64> for CountSum {
    fn combine(&self, _k: &String, values: Vec<u64>) -> u64 {
        values.into_iter().sum()
    }
}

impl Reducer<String, u64, (String, u64)> for CountSum {
    fn reduce(&self, key: String, values: Vec<u64>, out: &mut Vec<(String, u64)>) {
        out.push((key, values.into_iter().sum()));
    }
}

/// Count words across `lines`, with `splits` map tasks and `reducers`
/// partitions, using the native runner (with map-side combining).
pub fn word_count(lines: Vec<String>, splits: usize, reducers: usize) -> Vec<(String, u64)> {
    let input: Vec<Vec<(u64, String)>> = split_even(
        lines
            .into_iter()
            .enumerate()
            .map(|(i, l)| (i as u64, l))
            .collect(),
        splits,
    );
    let mut out: Vec<(String, u64)> = run_local(
        input,
        &WordCountMapper,
        Some(&CountSum),
        &CountSum,
        reducers,
    )
    .into_iter()
    .flatten()
    .collect();
    out.sort();
    out
}

// ---- grep ----

/// Emits `(line_no, line)` for lines containing the pattern.
pub struct GrepMapper {
    pub pattern: String,
}

impl Mapper<u64, String, u64, String> for GrepMapper {
    fn map(&self, line_no: u64, line: String, e: &mut Emitter<u64, String>) {
        if line.contains(&self.pattern) {
            e.emit(line_no, line);
        }
    }
}

/// Distributed grep: matching `(line_no, line)` pairs in line order.
pub fn grep(lines: Vec<String>, pattern: &str, splits: usize) -> Vec<(u64, String)> {
    let input: Vec<Vec<(u64, String)>> = split_even(
        lines
            .into_iter()
            .enumerate()
            .map(|(i, l)| (i as u64, l))
            .collect(),
        splits,
    );
    let mapper = GrepMapper {
        pattern: pattern.to_string(),
    };
    let identity = |k: u64, mut vs: Vec<String>, out: &mut Vec<(u64, String)>| {
        out.push((k, vs.remove(0)));
    };
    let mut out: Vec<(u64, String)> = run_local(input, &mapper, None, &identity, 1)
        .into_iter()
        .flatten()
        .collect();
    out.sort();
    out
}

// ---- inverted index ----

/// Emits `(term, doc_id)` pairs.
pub struct IndexMapper;

impl Mapper<u64, String, String, u64> for IndexMapper {
    fn map(&self, doc: u64, text: String, e: &mut Emitter<String, u64>) {
        let mut seen = std::collections::BTreeSet::new();
        for token in text.split(|c: char| !c.is_alphanumeric()) {
            if !token.is_empty() && seen.insert(token.to_lowercase()) {
                e.emit(token.to_lowercase(), doc);
            }
        }
    }
}

/// Build an inverted index: term → sorted unique document ids.
pub fn inverted_index(docs: Vec<String>, splits: usize) -> Vec<(String, Vec<u64>)> {
    let input: Vec<Vec<(u64, String)>> = split_even(
        docs.into_iter()
            .enumerate()
            .map(|(i, d)| (i as u64, d))
            .collect(),
        splits,
    );
    let reducer = |term: String, mut docs: Vec<u64>, out: &mut Vec<(String, Vec<u64>)>| {
        docs.sort_unstable();
        docs.dedup();
        out.push((term, docs));
    };
    let mut out: Vec<(String, Vec<u64>)> = run_local(input, &IndexMapper, None, &reducer, 4)
        .into_iter()
        .flatten()
        .collect();
    out.sort();
    out
}

// ---- trajectory RMSD as MapReduce ----

/// Map phase: each task computes RMSD-vs-reference for its frames; reduce
/// phase bins the values into a histogram (the "terascale trajectory
/// analysis" decomposition of the paper's ref \[11\]).
pub fn rmsd_histogram_mapreduce(
    trajectory: Vec<Frame>,
    reference: Frame,
    bin_width: f64,
    splits: usize,
) -> Vec<(u64, u64)> {
    assert!(bin_width > 0.0);
    let input: Vec<Vec<(u64, Frame)>> = split_even(
        trajectory
            .into_iter()
            .enumerate()
            .map(|(i, f)| (i as u64, f))
            .collect(),
        splits,
    );
    struct RmsdMapper {
        reference: Frame,
        bin_width: f64,
    }
    impl Mapper<u64, Frame, u64, u64> for RmsdMapper {
        fn map(&self, _i: u64, frame: Frame, e: &mut Emitter<u64, u64>) {
            let r = rmsd(&frame, &self.reference);
            e.emit((r / self.bin_width) as u64, 1);
        }
    }
    let mapper = RmsdMapper {
        reference,
        bin_width,
    };
    let reducer = |bin: u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| {
        out.push((bin, vs.into_iter().sum()));
    };
    let mut out: Vec<(u64, u64)> = run_local(input, &mapper, None, &reducer, 2)
        .into_iter()
        .flatten()
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::md_trajectory;

    fn lines() -> Vec<String> {
        vec![
            "the quick brown Fox".into(),
            "jumps over the lazy dog!".into(),
            "THE fox again".into(),
        ]
    }

    #[test]
    fn word_count_is_case_insensitive_and_complete() {
        let out = word_count(lines(), 2, 3);
        let m: std::collections::BTreeMap<_, _> = out.into_iter().collect();
        assert_eq!(m["the"], 3);
        assert_eq!(m["fox"], 2);
        assert_eq!(m["dog"], 1);
    }

    #[test]
    fn word_count_invariant_to_splits_and_reducers() {
        let a = word_count(lines(), 1, 1);
        let b = word_count(lines(), 3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn grep_finds_matches_in_order() {
        let out = grep(lines(), "fox", 2);
        assert_eq!(out.len(), 1); // only lowercase "fox" matches line 2
        assert_eq!(out[0].0, 2);
        let out = grep(lines(), "o", 3);
        assert_eq!(out.iter().map(|x| x.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn inverted_index_unique_sorted_docs() {
        let idx = inverted_index(lines(), 2);
        let m: std::collections::BTreeMap<_, _> = idx.into_iter().collect();
        assert_eq!(m["the"], vec![0, 1, 2]);
        assert_eq!(m["fox"], vec![0, 2]);
        assert_eq!(m["dog"], vec![1]);
    }

    #[test]
    fn rmsd_histogram_counts_all_frames() {
        let traj = md_trajectory(50, 120, 0.3, 9);
        let reference = traj[0].clone();
        let hist = rmsd_histogram_mapreduce(traj, reference, 0.5, 4);
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 120);
        // Random walk: later frames drift, so multiple bins are occupied.
        assert!(hist.len() >= 2, "{hist:?}");
    }

    #[test]
    fn rmsd_histogram_matches_direct_computation() {
        let traj = md_trajectory(30, 40, 0.4, 3);
        let reference = traj[0].clone();
        let hist = rmsd_histogram_mapreduce(traj.clone(), reference.clone(), 1.0, 3);
        let mut expect = std::collections::BTreeMap::new();
        for f in &traj {
            let bin = (rmsd(f, &reference) / 1.0) as u64;
            *expect.entry(bin).or_insert(0u64) += 1;
        }
        assert_eq!(hist, expect.into_iter().collect::<Vec<_>>());
    }
}
