//! Every fault-plan generator's schedule for seeds 1–3, pinned as its
//! `{:?}`. The three generators share one body; a change to it that
//! moves any draw shows up here as a changed line.

use rp_sim::{FaultPlan, SimDuration};

#[test]
fn generated_schedules_match_the_golden() {
    let h = SimDuration::from_secs(1_800);
    let mut got = String::new();
    for seed in 1..=3u64 {
        let plan = FaultPlan::generate(seed, h, 4, 6);
        got += &format!("generate {seed}: {plan:?}\n");
    }
    for seed in 1..=3u64 {
        let plan = FaultPlan::generate_mixed(seed, h, 3, 2, 8);
        got += &format!("generate_mixed {seed}: {plan:?}\n");
    }
    for seed in 1..=3u64 {
        let plan = FaultPlan::generate_partitioned(seed, h, 3, 2, 6);
        got += &format!("generate_partitioned {seed}: {plan:?}\n");
    }
    let want = include_str!("fault_plans.golden.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "schedule line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
