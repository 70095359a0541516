//! Fig. 6: K-Means time-to-completion, RADICAL-Pilot vs RP-YARN, and the
//! extension that adds RP-Spark as a third system.

use std::collections::BTreeMap;

use rp_analytics::{
    fig6_session_config, nodes_for_tasks, run_rp_kmeans, run_rp_spark_kmeans, run_rp_yarn_kmeans,
    KMeansCalibration, SCENARIOS,
};
use rp_hpc::MachineSpec;
use rp_pilot::Session;
use rp_sim::{aggregate_roots, pilot_utilization, Engine, RunReport};

use super::Outcome;
use crate::{ShapeChecks, Table};

/// The full sweep: 3 scenarios (10k pts/5k clusters, 100k/500, 1M/50;
/// 3-D points, constant compute) × {8, 16, 32} tasks on {1, 2, 3} nodes ×
/// both machines × both systems; 2 K-Means iterations, 3 seeds. RP-YARN
/// runtimes include the YARN cluster download/startup (as in the paper);
/// plain-RP runtimes start at pilot activation.
pub fn kmeans() -> Outcome {
    let reps: u64 = 3;
    let cal = KMeansCalibration::default();

    let mut out = String::from("== Fig. 6: K-Means time-to-completion (2 iterations) ==\n");
    let machines = ["xsede.stampede", "xsede.wrangler"];
    let task_counts = [8u32, 16, 32];

    // results[(machine, scenario, tasks)] = (rp_mean, yarn_mean)
    let mut results: BTreeMap<(usize, usize, u32), (f64, f64)> = BTreeMap::new();

    for (mi, machine) in machines.iter().enumerate() {
        for (si, scenario) in SCENARIOS.iter().enumerate() {
            out.push_str(&format!("\n-- {machine} · {} --\n", scenario.label));
            let mut table = Table::new(vec![
                "tasks",
                "nodes",
                "RADICAL-Pilot (s)",
                "RP-YARN (s)",
                "RP speedup",
                "YARN speedup",
            ]);
            let mut rp_base = 0.0;
            let mut yarn_base = 0.0;
            for &tasks in &task_counts {
                let mut rp_sum = 0.0;
                let mut yarn_sum = 0.0;
                for rep in 0..reps {
                    let seed = 10_000 + rep * 7919 + tasks as u64;
                    let mut e = Engine::new(seed);
                    let session = Session::new(fig6_session_config());
                    rp_sum += run_rp_kmeans(&mut e, &session, machine, tasks, *scenario, &cal)
                        .time_to_completion;
                    let mut e = Engine::new(seed + 1);
                    let session = Session::new(fig6_session_config());
                    yarn_sum +=
                        run_rp_yarn_kmeans(&mut e, &session, machine, tasks, *scenario, &cal)
                            .time_to_completion;
                }
                let rp = rp_sum / reps as f64;
                let yarn = yarn_sum / reps as f64;
                if tasks == task_counts[0] {
                    rp_base = rp;
                    yarn_base = yarn;
                }
                results.insert((mi, si, tasks), (rp, yarn));
                table.row(vec![
                    tasks.to_string(),
                    nodes_for_tasks(tasks).to_string(),
                    format!("{rp:8.1}"),
                    format!("{yarn:8.1}"),
                    format!("{:5.2}", rp_base / rp),
                    format!("{:5.2}", yarn_base / yarn),
                ]);
            }
            out.push_str(&table.render());
        }
    }

    // Profiler view of one representative cell (1M-points scenario, 32
    // tasks): aggregate unit.run phase breakdown per machine × system,
    // plus each pilot's core utilization over its active window. Traced
    // runs are bit-identical to the untraced sweep above.
    let mut report = RunReport::new(
        "Fig. 6 unit phase breakdown (1M pts, 32 tasks, aggregated over units, seconds)",
    );
    out.push('\n');
    for machine in &machines {
        let scenario = SCENARIOS[2];
        let seed = 10_000 + 32u64;
        let spec = MachineSpec::by_name(machine).expect("machine spec");
        let cores = nodes_for_tasks(32) * spec.cores_per_node;
        let mut e = Engine::with_trace(seed);
        let session = Session::new(fig6_session_config());
        run_rp_kmeans(&mut e, &session, machine, 32, scenario, &cal);
        report.push(
            format!("{machine} RADICAL-Pilot"),
            aggregate_roots(&e.trace, "unit.run"),
        );
        let util: Vec<String> = e
            .trace
            .roots_named("pilot.run")
            .map(|s| format!("{:.0}%", 100.0 * pilot_utilization(&e.trace, s.id, cores)))
            .collect();
        out.push_str(&format!(
            "{machine} RADICAL-Pilot pilot utilization: {}\n",
            util.join(", ")
        ));
        let mut e = Engine::with_trace(seed + 1);
        let session = Session::new(fig6_session_config());
        run_rp_yarn_kmeans(&mut e, &session, machine, 32, scenario, &cal);
        report.push(
            format!("{machine} RP-YARN"),
            aggregate_roots(&e.trace, "unit.run"),
        );
    }
    out.push('\n');
    out.push_str(&report.render_table());

    // ---- shape checks against the paper's observations ----
    let mut checks = ShapeChecks::new();

    // 1. Runtimes decrease with the number of tasks, everywhere.
    let mut monotone = true;
    for mi in 0..machines.len() {
        for si in 0..SCENARIOS.len() {
            let series: Vec<f64> = task_counts
                .iter()
                .map(|&t| results[&(mi, si, t)].0)
                .collect();
            monotone &= series[0] > series[1] && series[1] > series[2];
            let series: Vec<f64> = task_counts
                .iter()
                .map(|&t| results[&(mi, si, t)].1)
                .collect();
            monotone &= series[0] > series[1] && series[1] > series[2];
        }
    }
    checks.check("runtimes decrease with task count (both systems)", monotone);

    // 2. YARN overhead visible at 8 tasks (YARN ≥ RP at 8 tasks).
    let mut yarn_slower_at_8 = 0;
    for mi in 0..machines.len() {
        for si in 0..SCENARIOS.len() {
            let (rp, yarn) = results[&(mi, si, 8)];
            if yarn > rp {
                yarn_slower_at_8 += 1;
            }
        }
    }
    checks.check(
        format!("YARN overhead visible at 8 tasks ({yarn_slower_at_8}/6 cells)"),
        yarn_slower_at_8 >= 4,
    );

    // 3. RP-YARN faster "in particular for larger number of tasks": mean
    //    advantage over the 32-task cells (paper: on average 13%).
    let mut advantages = Vec::new();
    for mi in 0..machines.len() {
        for si in 0..SCENARIOS.len() {
            let (rp, yarn) = results[&(mi, si, 32)];
            advantages.push((rp - yarn) / rp);
        }
    }
    let mean_adv = advantages.iter().sum::<f64>() / advantages.len() as f64 * 100.0;
    checks.check(
        format!("RP-YARN faster at 32 tasks, mean advantage {mean_adv:.0}% (paper: 13%)"),
        mean_adv > 5.0,
    );

    // 4. Wrangler 1M-points speedups: YARN above RP (paper: 3.2 vs 2.4).
    let rp_speedup = results[&(1, 2, 8)].0 / results[&(1, 2, 32)].0;
    let yarn_speedup = results[&(1, 2, 8)].1 / results[&(1, 2, 32)].1;
    checks.check(
        format!("Wrangler 1M-pts 32-task speedup: YARN {yarn_speedup:.2} > RP {rp_speedup:.2} (paper: 3.2 vs 2.4)"),
        yarn_speedup > rp_speedup,
    );

    // 5. Wrangler beats Stampede cell-by-cell (better CPUs/memory).
    let mut wrangler_wins = 0;
    for si in 0..SCENARIOS.len() {
        for &t in &task_counts {
            if results[&(1, si, t)].0 < results[&(0, si, t)].0 {
                wrangler_wins += 1;
            }
        }
    }
    checks.check(
        format!("Wrangler outperforms Stampede ({wrangler_wins}/9 RP cells)"),
        wrangler_wins >= 8,
    );

    // 6. Stampede YARN speedup declines as points grow (I/O saturation);
    //    Wrangler shows no such decline.
    let sp = |mi: usize, si: usize| results[&(mi, si, 8)].1 / results[&(mi, si, 32)].1;
    let stampede_decline = sp(0, 0) > sp(0, 2);
    checks.check(
        format!(
            "Stampede YARN speedup declines with points ({:.2} → {:.2}); Wrangler {:.2} → {:.2}",
            sp(0, 0),
            sp(0, 2),
            sp(1, 0),
            sp(1, 2)
        ),
        stampede_decline,
    );

    Outcome::new(out, checks)
}

/// K-Means on a third system, RP-Spark (Mode I standalone Spark with
/// cached RDDs), against RP and RP-YARN. This quantifies the §V
/// future-work claim that in-memory runtimes are the right substrate "for
/// iterative algorithms": Spark reads the input once, keeps it cached
/// across iterations, and map-side-combines the shuffle — while each
/// MapReduce iteration is a fresh job that re-reads HDFS and pays the AM
/// path.
pub fn spark_kmeans() -> Outcome {
    let cal = KMeansCalibration::default();
    let scenario = SCENARIOS[2]; // 1M points / 50 clusters
    let mut out = format!(
        "== Extension: K-Means on RP vs RP-YARN vs RP-Spark ==\n   \
         ({}, 2 iterations, Wrangler; bootstraps included)\n\n",
        scenario.label
    );

    let mut table = Table::new(vec![
        "tasks",
        "RADICAL-Pilot (s)",
        "RP-YARN (s)",
        "RP-Spark (s)",
        "Spark vs YARN",
    ]);
    let mut results = Vec::new();
    for tasks in [8u32, 16, 32] {
        let seed = 500 + tasks as u64;
        let mut e = Engine::new(seed);
        let session = Session::new(fig6_session_config());
        let rp = run_rp_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
            .time_to_completion;
        let mut e = Engine::new(seed + 1);
        let session = Session::new(fig6_session_config());
        let yarn = run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
            .time_to_completion;
        let mut e = Engine::new(seed + 2);
        let session = Session::new(fig6_session_config());
        let spark = run_rp_spark_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
            .time_to_completion;
        table.row(vec![
            tasks.to_string(),
            format!("{rp:8.1}"),
            format!("{yarn:8.1}"),
            format!("{spark:8.1}"),
            format!("{:5.2}x", yarn / spark),
        ]);
        results.push((tasks, rp, yarn, spark));
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    let all_spark_wins = results.iter().all(|&(_, _, yarn, spark)| spark < yarn);
    checks.check(
        "cached-RDD Spark beats per-iteration MapReduce at every task count",
        all_spark_wins,
    );
    let (_, rp32, _, spark32) = results[2];
    checks.check(
        format!("at 32 tasks Spark also beats plain RP ({spark32:.0}s vs {rp32:.0}s)"),
        spark32 < rp32,
    );
    Outcome::new(out, checks)
}
