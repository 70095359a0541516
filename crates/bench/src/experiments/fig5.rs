//! Fig. 5: pilot startup (main plot) and Compute-Unit startup (inset).
//!
//! All numbers come from the span-based phase profiler: each run is traced,
//! the pilot's `pilot.run` (or the unit's `unit.run`) span tree is
//! profiled, and the table columns are phase sums — there are no bespoke
//! timers here.

use std::collections::BTreeMap;

use rp_pilot::SessionConfig;
use rp_sim::{mean_breakdown, Phase, RunReport};

use super::Outcome;
use crate::{
    mean_std, profile_pilot_startup, profile_unit_startup, repeat, ShapeChecks, Table, Variant,
};

const REPS: u64 = 8;

/// Pilot startup on Stampede and Wrangler for RADICAL-Pilot, RP-YARN
/// Mode I (Hadoop on HPC) and RP-YARN Mode II (dedicated Hadoop
/// environment, Wrangler only). The paper's observations: Mode I adds
/// 50–85 s of YARN download/config/daemon startup, and Mode II startup is
/// comparable to plain RADICAL-Pilot.
pub fn pilot_startup() -> Outcome {
    let mut out = String::from("== Fig. 5 (main): Pilot startup time ==\n\n");
    let mut table = Table::new(vec![
        "machine",
        "variant",
        "startup (s)",
        "framework bootstrap (s)",
        "min",
        "max",
    ]);

    let mut results = BTreeMap::new();
    let mut report = RunReport::new("Fig. 5 phase breakdown (profiler, mean over reps, seconds)");
    let cases: Vec<(&str, Variant)> = vec![
        ("xsede.stampede", Variant::Rp),
        ("xsede.stampede", Variant::RpYarnModeI),
        ("xsede.wrangler", Variant::Rp),
        ("xsede.wrangler", Variant::RpYarnModeI),
        ("xsede.wrangler", Variant::RpYarnModeII),
    ];
    for (machine, variant) in cases {
        let mut boots = Vec::new();
        let mut phases = Vec::new();
        let s = repeat(REPS, |seed| {
            let p = profile_pilot_startup(machine, variant, 1, seed, SessionConfig::default());
            boots.push(p.framework_bootstrap_s);
            phases.push(p.phases);
            p.startup_s
        });
        let boot_mean = boots.iter().sum::<f64>() / boots.len() as f64;
        table.row(vec![
            machine.to_string(),
            variant.label().to_string(),
            mean_std(&s),
            format!("{boot_mean:7.1}"),
            format!("{:7.1}", s.min),
            format!("{:7.1}", s.max),
        ]);
        report.push(
            format!("{machine} {}", variant.label()),
            mean_breakdown(&phases),
        );
        results.insert((machine, variant.label()), (s.mean, boot_mean));
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&report.render_table());

    let mut checks = ShapeChecks::new();
    let rp_s = results[&("xsede.stampede", "RADICAL-Pilot")].0;
    let yarn_s = results[&("xsede.stampede", "RP-YARN (Mode I)")].0;
    let rp_w = results[&("xsede.wrangler", "RADICAL-Pilot")].0;
    let yarn_w = results[&("xsede.wrangler", "RP-YARN (Mode I)")].0;
    let mode2_w = results[&("xsede.wrangler", "RP-YARN (Mode II)")].0;
    let boot_s = results[&("xsede.stampede", "RP-YARN (Mode I)")].1;
    let boot_w = results[&("xsede.wrangler", "RP-YARN (Mode I)")].1;

    checks.check(
        format!("Mode I bootstrap in the paper's 50-85 s band (stampede {boot_s:.0}s, wrangler {boot_w:.0}s)"),
        (45.0..95.0).contains(&boot_s) && (45.0..95.0).contains(&boot_w),
    );
    checks.check(
        format!(
            "Mode I startup exceeds plain RP on both machines (+{:.0}s / +{:.0}s)",
            yarn_s - rp_s,
            yarn_w - rp_w
        ),
        yarn_s > rp_s + 40.0 && yarn_w > rp_w + 40.0,
    );
    checks.check(
        format!("Mode II ≈ plain RP on Wrangler ({mode2_w:.0}s vs {rp_w:.0}s)"),
        (mode2_w - rp_w).abs() < 10.0,
    );
    // Profiler invariants: the Mode I YARN+HDFS phases are exactly the
    // framework bootstrap the table reports, and Mode II charges its
    // connect handshake to yarn_startup without an hdfs_startup phase.
    let phase_boot_s = report
        .rows()
        .iter()
        .find(|(l, _)| l == "xsede.stampede RP-YARN (Mode I)")
        .map(|(_, b)| b.sum_secs(&[Phase::YarnStartup, Phase::HdfsStartup]))
        .expect("Mode I row in the phase report");
    checks.check(
        format!("profiler YARN+HDFS phases match framework bootstrap ({phase_boot_s:.0}s vs {boot_s:.0}s)"),
        (phase_boot_s - boot_s).abs() < 1.0,
    );
    Outcome::new(out, checks)
}

/// Compute-Unit startup on Stampede, plain RADICAL-Pilot vs RP-YARN. Every
/// YARN CU pays a two-stage allocation (AM container first, then the task
/// container, each gated on heartbeats and container launches), so CU
/// startup is an order of magnitude above the plain fork path — a
/// bottleneck for short-running jobs.
pub fn unit_startup() -> Outcome {
    let mut out = String::from("== Fig. 5 (inset): Compute-Unit startup time on Stampede ==\n\n");
    let mut table = Table::new(vec!["variant", "unit startup (s)", "min", "max"]);
    let mut means = Vec::new();
    let mut report =
        RunReport::new("Fig. 5 inset phase breakdown (profiler, mean over reps, seconds)");
    let mut alloc_means = Vec::new();
    for variant in [Variant::Rp, Variant::RpYarnModeI] {
        let mut phases = Vec::new();
        let s = repeat(REPS, |seed| {
            let p = profile_unit_startup("xsede.stampede", variant, seed, SessionConfig::default());
            phases.push(p.phases);
            p.startup_s
        });
        table.row(vec![
            variant.label().to_string(),
            mean_std(&s),
            format!("{:6.1}", s.min),
            format!("{:6.1}", s.max),
        ]);
        let mean = mean_breakdown(&phases);
        alloc_means.push(mean.sum_secs(&[Phase::AmAllocation, Phase::ContainerAllocation]));
        report.push(variant.label(), mean);
        means.push(s.mean);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&report.render_table());

    let mut checks = ShapeChecks::new();
    let (rp, yarn) = (means[0], means[1]);
    checks.check(
        format!("plain RP CU startup is seconds-scale ({rp:.1}s)"),
        rp < 10.0,
    );
    checks.check(
        format!("YARN CU startup is tens of seconds ({yarn:.1}s)"),
        (15.0..60.0).contains(&yarn),
    );
    checks.check(
        format!("YARN CU startup ≫ plain ({:.1}×)", yarn / rp),
        yarn / rp > 4.0,
    );
    checks.check(
        format!(
            "two-stage allocation dominates the YARN CU startup ({:.1}s of {yarn:.1}s)",
            alloc_means[1]
        ),
        alloc_means[1] > (yarn - rp) * 0.5 && alloc_means[0] < 1.0,
    );
    Outcome::new(out, checks)
}
