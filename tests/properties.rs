//! Property-style tests of core invariants across the stack, driven by
//! deterministic seeded case generation (no external proptest dependency:
//! each test loops over `SimRng`-generated cases with fixed seeds).

use hadoop_hpc::hdfs::split_blocks;
use hadoop_hpc::mapreduce::{partition_of, run_local, Emitter};
use hadoop_hpc::sim::par::split_even;
use hadoop_hpc::sim::{Engine, FairLink, SimDuration, SimRng, SimTime};
use hadoop_hpc::spark::SparkContext;

// ---- fair-share bandwidth model ----

/// Every flow completes, bytes are conserved, and the link never finishes
/// earlier than physically possible (total/capacity).
#[test]
fn fairlink_conserves_bytes_and_respects_capacity() {
    let mut rng = SimRng::new(0xFA17);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 23) as usize;
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform(1.0, 5e6)).collect();
        let starts: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 5_000_000)).collect();
        let capacity = rng.uniform(1e3, 1e8);
        let mut e = Engine::new(1);
        let link = FairLink::new("p", capacity);
        let done = std::rc::Rc::new(std::cell::RefCell::new(0usize));
        for (&bytes, &start) in sizes.iter().zip(&starts) {
            let link = link.clone();
            let done = done.clone();
            e.schedule_at(SimTime(start), move |eng| {
                let done = done.clone();
                link.transfer(eng, bytes, f64::INFINITY, move |_| {
                    *done.borrow_mut() += 1;
                });
            });
        }
        let end = e.run();
        assert_eq!(*done.borrow(), n, "case {case}");
        let total: f64 = sizes.iter().sum();
        assert!(
            (link.total_bytes() - total).abs() < total * 1e-6 + 1.0,
            "case {case}"
        );
        // Lower bound: remaining work at full capacity can't beat
        // total/capacity from t=0.
        let min_end = total / capacity;
        assert!(
            end.as_secs_f64() + 1e-6 >= min_end.min(end.as_secs_f64() + 1.0) - 1e-6,
            "case {case}"
        );
        // Busy time never exceeds the makespan.
        assert!(
            link.busy_time().as_secs_f64() <= end.as_secs_f64() + 1e-9,
            "case {case}"
        );
    }
}

/// The engine executes events in non-decreasing time order regardless of
/// insertion order.
#[test]
fn engine_event_order_is_monotone() {
    let mut rng = SimRng::new(0x02D32);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let mut e = Engine::new(1);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for &t in &times {
            let seen = seen.clone();
            e.schedule_at(SimTime(t), move |eng| seen.borrow_mut().push(eng.now()));
        }
        e.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), times.len(), "case {case}");
        for w in seen.windows(2) {
            assert!(w[0] <= w[1], "case {case}");
        }
    }
}

// ---- HDFS block math ----

#[test]
fn split_blocks_partitions_exactly() {
    let mut rng = SimRng::new(0xB10C);
    for case in 0..256 {
        let size = rng.uniform_u64(0, 1u64 << 40);
        let block = rng.uniform_u64(1, 1u64 << 30);
        let blocks = split_blocks(size, block);
        assert_eq!(blocks.iter().sum::<u64>(), size, "case {case}");
        assert!(blocks.iter().all(|&b| b <= block), "case {case}");
        // Only the last block may be partial.
        for &b in &blocks[..blocks.len().saturating_sub(1)] {
            assert_eq!(b, block, "case {case}");
        }
    }
}

// ---- MapReduce ----

#[test]
fn partitioner_in_range() {
    let mut rng = SimRng::new(0x9A27);
    for _ in 0..128 {
        let k = rng.next_u64() as i64;
        let parts = rng.uniform_u64(1, 31) as usize;
        assert!(partition_of(&k, parts) < parts);
    }
}

/// Native MapReduce word count == sequential BTreeMap reference, for
/// arbitrary inputs, split counts and reducer counts.
#[test]
fn mapreduce_matches_sequential_reference() {
    let mut rng = SimRng::new(0x3A9C0);
    for case in 0..48 {
        let n_words = rng.uniform_u64(0, 199) as usize;
        let words: Vec<String> = (0..n_words)
            .map(|_| {
                let len = rng.uniform_u64(1, 3) as usize;
                (0..len)
                    .map(|_| char::from(b'a' + rng.uniform_u64(0, 3) as u8))
                    .collect()
            })
            .collect();
        let splits = rng.uniform_u64(1, 7) as usize;
        let reducers = rng.uniform_u64(1, 5) as usize;
        // Reference.
        let mut expect = std::collections::BTreeMap::<String, u64>::new();
        for w in &words {
            *expect.entry(w.clone()).or_default() += 1;
        }
        // MapReduce over arbitrary split boundaries.
        let chunk = words.len().div_ceil(splits).max(1);
        let split_input: Vec<Vec<(u64, String)>> = words
            .chunks(chunk)
            .map(|c| {
                c.iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, w)| (i as u64, w))
                    .collect()
            })
            .collect();
        let out = run_local(
            split_input,
            &|_k: u64, w: String, e: &mut Emitter<String, u64>| e.emit(w, 1),
            None,
            &|k: String, vs: Vec<u64>, out: &mut Vec<(String, u64)>| {
                out.push((k, vs.into_iter().sum()))
            },
            reducers,
        );
        let got: std::collections::BTreeMap<String, u64> = out.into_iter().flatten().collect();
        assert_eq!(got, expect, "case {case}");
    }
}

// ---- RDD engine ----

/// Narrow chains on the RDD engine ≡ the same pipelines on iterators:
/// map/filter, and flat_map unioned with a cached RDD, then cached again,
/// under every action (`collect`, `count`, `fold`, `reduce`).
#[test]
fn rdd_matches_iterator_semantics() {
    let mut rng = SimRng::new(0x12DD);
    for case in 0..32 {
        let n = rng.uniform_u64(0, 499) as usize;
        let xs: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
        let m = rng.uniform_u64(0, 99) as usize;
        let ys: Vec<i32> = (0..m).map(|_| rng.next_u64() as i32).collect();
        let parts = rng.uniform_u64(1, 8) as usize;
        let other_parts = rng.uniform_u64(1, 8) as usize;
        let sc = SparkContext::new(parts);
        let got = sc
            .parallelize(xs.clone(), parts)
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .collect();
        let want: Vec<i32> = xs
            .iter()
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .collect();
        assert_eq!(got, want, "case {case}");

        let repeat = |x: i32| vec![x; (x & 3) as usize];
        let cached_side = sc
            .parallelize(ys.clone(), other_parts)
            .map(|y| y ^ 0x55)
            .cache();
        let rdd = sc
            .parallelize(xs.clone(), parts)
            .flat_map(repeat)
            .union(&cached_side)
            .filter(|x| x % 3 != 0)
            .cache()
            .map(|x| x.wrapping_add(7));
        let want: Vec<i32> = xs
            .iter()
            .flat_map(|&x| repeat(x))
            .chain(ys.iter().map(|y| y ^ 0x55))
            .filter(|x| x % 3 != 0)
            .map(|x| x.wrapping_add(7))
            .collect();
        assert_eq!(rdd.num_partitions(), parts + other_parts, "case {case}");
        assert_eq!(rdd.collect(), want, "case {case}");
        assert_eq!(rdd.count(), want.len(), "case {case}");
        assert_eq!(
            rdd.fold(0i64, |a, x| a + i64::from(x), |a, b| a + b),
            want.iter().map(|&x| i64::from(x)).sum::<i64>(),
            "case {case}"
        );
        assert_eq!(
            rdd.reduce(i32::wrapping_add),
            want.iter().copied().reduce(i32::wrapping_add),
            "case {case}"
        );
    }
}

/// reduce_by_key sums match a BTreeMap fold for arbitrary pairs.
#[test]
fn rdd_reduce_by_key_matches_reference() {
    let mut rng = SimRng::new(0x12DD + 1);
    for case in 0..32 {
        let n = rng.uniform_u64(0, 299) as usize;
        let pairs: Vec<(u8, u64)> = (0..n)
            .map(|_| (rng.uniform_u64(0, 15) as u8, rng.uniform_u64(1, 99)))
            .collect();
        let parts = rng.uniform_u64(1, 5) as usize;
        let sc = SparkContext::new(parts);
        let got = sc
            .parallelize(pairs.clone(), parts)
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        let mut want = std::collections::BTreeMap::<u8, u64>::new();
        for (k, v) in &pairs {
            *want.entry(*k).or_default() += v;
        }
        assert_eq!(got, want, "case {case}");
    }
}

/// `reduce_by_key` over `f64` folds in one fixed order, bit for bit:
/// within an input partition in element order, then across input
/// partitions in ascending order, whatever the output partition count.
/// The reducers are not associative, so any other order shows.
#[test]
fn rdd_reduce_by_key_f64_fold_order_is_fixed() {
    let reducers: [fn(f64, f64) -> f64; 2] = [|a, b| a + b, |a, b| 0.5 * a + b];
    let mut rng = SimRng::new(0xF01D);
    for parts in 1..=8usize {
        for case in 0..4 {
            let n = rng.uniform_u64(0, 400) as usize;
            let pairs: Vec<(u8, f64)> = (0..n)
                .map(|_| {
                    let scale = 10f64.powi(rng.uniform_u64(0, 12) as i32);
                    (rng.uniform_u64(0, 11) as u8, rng.uniform(-1.0, 1.0) * scale)
                })
                .collect();
            for f in reducers {
                let mut want = std::collections::BTreeMap::<u8, f64>::new();
                for chunk in split_even(pairs.clone(), parts) {
                    let mut partial = std::collections::BTreeMap::<u8, f64>::new();
                    for (k, v) in chunk {
                        fold_into(&mut partial, k, v, f);
                    }
                    for (k, v) in partial {
                        fold_into(&mut want, k, v, f);
                    }
                }
                let sc = SparkContext::new(parts);
                let rdd = sc.parallelize(pairs.clone(), parts);
                let bits = |m: std::collections::BTreeMap<u8, f64>| {
                    m.into_iter()
                        .map(|(k, v)| (k, v.to_bits()))
                        .collect::<Vec<_>>()
                };
                let want = bits(want);
                // Default output count (= input partitions), then a different one.
                for reduced in [
                    rdd.reduce_by_key(f),
                    rdd.reduce_by_key_with_partitions(parts % 3 + parts + 1, f),
                ] {
                    let got = bits(reduced.collect().into_iter().collect());
                    assert_eq!(got, want, "parts {parts} case {case}");
                }
            }
        }
    }
}

fn fold_into(acc: &mut std::collections::BTreeMap<u8, f64>, k: u8, v: f64, f: fn(f64, f64) -> f64) {
    match acc.get_mut(&k) {
        Some(a) => *a = f(*a, v),
        None => {
            acc.insert(k, v);
        }
    }
}

// ---- K-Means ----

/// Lloyd cost is monotonically non-increasing in the iteration count.
#[test]
fn kmeans_cost_monotone() {
    for seed in 0..12u64 {
        let k = 2 + (seed as usize % 4);
        let pts = hadoop_hpc::analytics::gaussian_blobs(600, k, 3.0, seed);
        let mut last = f64::INFINITY;
        for iters in 1..5u32 {
            let r = hadoop_hpc::analytics::lloyd(&pts, k, iters);
            assert!(
                r.cost <= last + 1e-6,
                "iters {}: {} > {}",
                iters,
                r.cost,
                last
            );
            last = r.cost;
        }
    }
}

// ---- batch scheduler: no oversubscription under random job streams ----

#[test]
fn batch_never_oversubscribes() {
    use hadoop_hpc::hpc::{BatchSystem, Cluster, JobRequest, MachineSpec};
    let mut rng = SimRng::new(0xBA7C);
    for case in 0..32 {
        let n_jobs = rng.uniform_u64(1, 29) as usize;
        let jobs: Vec<(u32, u64, u64)> = (0..n_jobs)
            .map(|_| {
                (
                    rng.uniform_u64(1, 4) as u32,
                    rng.uniform_u64(5, 199),
                    rng.uniform_u64(0, 99),
                )
            })
            .collect();
        let mut spec = MachineSpec::localhost();
        spec.submit_latency_s = (0.0, 0.0);
        let total_nodes = spec.nodes as i64;
        let batch = BatchSystem::new(Cluster::new(spec));
        let mut e = Engine::new(1);
        let in_use = std::rc::Rc::new(std::cell::RefCell::new(0i64));
        let peak = std::rc::Rc::new(std::cell::RefCell::new(0i64));
        for (nodes, wall, submit_at) in jobs {
            let b = batch.clone();
            let in_use2 = in_use.clone();
            let peak2 = peak.clone();
            e.schedule_at(SimTime::from_secs_f64(submit_at as f64), move |eng| {
                let in_use3 = in_use2.clone();
                let in_use4 = in_use2.clone();
                let peak3 = peak2.clone();
                b.submit_with_end(
                    eng,
                    JobRequest {
                        name: "j".into(),
                        nodes,
                        walltime: SimDuration::from_secs(wall),
                    },
                    move |_, alloc| {
                        let mut u = in_use3.borrow_mut();
                        *u += alloc.nodes.len() as i64;
                        let mut p = peak3.borrow_mut();
                        *p = (*p).max(*u);
                    },
                    move |_, _| {
                        // Approximation: all our jobs end via walltime and
                        // held their full allocation until then.
                        *in_use4.borrow_mut() -= nodes as i64;
                    },
                );
            });
        }
        e.run();
        assert!(
            *peak.borrow() <= total_nodes,
            "case {case}: peak {} > {total_nodes}",
            peak.borrow()
        );
        assert_eq!(*in_use.borrow(), 0, "case {case}");
    }
}
