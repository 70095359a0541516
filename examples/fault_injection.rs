//! Fault injection with a deterministic schedule: build a `FaultPlan`,
//! install it against a pilot, and watch the recovery paths —
//! heartbeat-driven dead-node detection, capped-backoff retries, staged
//! link degradation, cross-pilot failover — keep the workload at 100%
//! completion.
//!
//! ```text
//! cargo run --example fault_injection [seed] [intensity] [--pilot-kill] [--partition <dur_s>]
//! ```
//!
//! With `--pilot-kill`, runs the pilot-loss case instead: two pilots with
//! failover enabled, the first killed mid-run, every unit re-bound to
//! the survivor. With `--partition <dur_s>`, runs the split-brain case:
//! lease-based ownership, pilot 0 partitioned from the coordination
//! store for a timed window, fencing epochs rejecting the healed
//! zombie's stale writes.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};

const HELP: &str = "\
fault_injection — deterministic fault schedules against a pilot workload

usage: cargo run --example fault_injection [seed] [intensity] [--pilot-kill] [--partition <dur_s>]

  seed          RNG seed for engine and fault plan (default 11)
  intensity     number of scheduled faults (default 6)
  --pilot-kill  pilot-loss case: 2 pilots with cross-pilot failover,
                pilot 0 killed mid-run, units re-bound to the survivor
  --partition <dur_s>
                split-brain case: 2 pilots with lease-based ownership,
                pilot 0 partitioned from the store for dur_s seconds;
                it self-fences, the lease is revoked (fencing epoch
                bump), units re-bind, and the healed zombie's stale
                writes are rejected at the store
  --help        this text

fault kinds:
  NodeCrash      permanently kill a node; running work requeues elsewhere
  NodeSlowdown   degrade a node's compute speed for a while, then restore
  ContainerKill  kill running executions (preemption-style; work restarts)
  LinkDegrade    scale shared-filesystem capacity down for a while
  StagingError   fail the next staging directive once (retried after backoff)
  PilotKill      kill a whole pilot allocation; unfinished units fail over
  Partition      cut a pilot's agent off from the coordination store for a
                 timed window (symmetric or asymmetric), then heal
";

/// Reject a bad command line: the reason and the usage go to stderr and
/// the process exits with status 2, so a typo never runs a default case.
fn usage_error(msg: &str) -> ! {
    eprintln!("fault_injection: {msg}\n");
    eprint!("{HELP}");
    std::process::exit(2);
}

/// Parse positional `what` as a number, or reject the command line.
fn parse_arg<T: std::str::FromStr>(what: &str, arg: &str) -> T {
    let msg = || format!("{what} must be a non-negative integer, got {arg:?}");
    arg.parse().unwrap_or_else(|_| usage_error(&msg()))
}

/// The `--pilot-kill` case: a `PilotKill` fault against a 2-pilot session
/// with failover enabled. The workload must finish on the survivor.
fn run_pilot_kill(seed: u64) {
    let mut engine = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::default());
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(
                &mut engine,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(4 * 3600)),
            )
            .expect("pilot")
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut engine,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(180.0),
            kind: FaultKind::PilotKill { pilot: 0 },
        }],
    };
    println!("pilot-kill plan (seed {seed}):");
    for ev in &plan.events {
        println!("  {:>10}  {:?}", format!("{}", ev.at), ev.kind);
    }
    install_faults_multi(&mut engine, &plan, &pilots);
    let units = um.submit_units(
        &mut engine,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("work-{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(300)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(engine.step(), "stalled");
    }
    for p in &pilots {
        if !p.state().is_final() {
            pm.cancel(&mut engine, p);
        }
    }
    engine.run();
    let done = units
        .iter()
        .filter(|u| u.state() == UnitState::Done)
        .count();
    println!(
        "\npilot 0 {:?}; {done}/{} units Done on the survivor, {} re-bound",
        pilots[0].state(),
        units.len(),
        um.rebinds()
    );
    for u in &units {
        println!(
            "  {:<8} {:?} attempts={} pilot={:?}",
            u.name(),
            u.state(),
            u.attempts(),
            u.pilot()
        );
    }
}

/// The `--partition <dur_s>` case: lease-based ownership against a timed
/// split-brain. Pilot 0 keeps computing while cut off from the store —
/// its completions are held by the partition, its lease lapses and it
/// self-fences; the Unit-Manager revokes the lease (bumping the fencing
/// epoch) and re-binds to the survivor. When the window heals, the
/// zombie's held writes arrive under the stale epoch and are rejected, so
/// every unit completes exactly once.
fn run_partition(seed: u64, dur_s: u64) {
    let mut engine = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::default());
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(
                &mut engine,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(4 * 3600)),
            )
            .expect("pilot")
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut engine,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(120.0),
            kind: FaultKind::Partition {
                pilot: 0,
                duration: SimDuration::from_secs(dur_s),
                symmetric: false,
            },
        }],
    };
    println!("partition plan (seed {seed}, window {dur_s} s):");
    for ev in &plan.events {
        println!("  {:>10}  {:?}", format!("{}", ev.at), ev.kind);
    }
    install_faults_multi(&mut engine, &plan, &pilots);
    // Staggered sleeps: the first wave completes inside the
    // partition-to-fence window, so those completions are sent under the
    // soon-to-be-stale epoch and held by the partition.
    let units = um.submit_units(
        &mut engine,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("work-{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(90 + (i % 4) * 10)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(engine.step(), "stalled");
    }
    for p in &pilots {
        if !p.state().is_final() {
            pm.cancel(&mut engine, p);
        }
    }
    // Run past the heal so the zombie's held messages are delivered (and
    // fenced) instead of left in the queue.
    engine.run();
    let store = session.store();
    let done = units
        .iter()
        .filter(|u| u.state() == UnitState::Done)
        .count();
    println!(
        "\npartition healed; {done}/{} units Done, {} re-bound, \
         {} stale-epoch writes fenced, {} lease renewals",
        units.len(),
        um.rebinds(),
        store.fence_rejections(),
        store.lease_renewals()
    );
    for u in &units {
        println!(
            "  {:<8} {:?} attempts={} pilot={:?}",
            u.name(),
            u.state(),
            u.attempts(),
            u.pilot()
        );
    }
    println!("\n-- ownership trace --");
    for e in engine.trace.events() {
        if e.message.contains("lease")
            || e.message.contains("fenced")
            || e.message.contains("partition")
            || e.message.contains("rejected")
            || e.message.contains("lost (")
        {
            println!(
                "{:>10} [{:<5}] {}",
                format!("{}", e.time),
                e.category,
                e.message
            );
        }
    }
}

fn main() {
    let (mut seed, mut intensity, mut pilot_kill) = (11u64, 6usize, false);
    let mut partition: Option<u64> = None;
    let mut positionals = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pilot-kill" => pilot_kill = true,
            "--partition" => {
                let dur = args
                    .next()
                    .unwrap_or_else(|| usage_error("--partition takes a duration in seconds"));
                partition = Some(parse_arg("--partition duration", &dur));
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown option {flag:?}")),
            _ => {
                match positionals {
                    0 => seed = parse_arg("seed", &a),
                    1 => intensity = parse_arg("intensity", &a),
                    _ => usage_error(&format!("unexpected argument {a:?}")),
                }
                positionals += 1;
            }
        }
    }

    if let Some(dur_s) = partition {
        run_partition(seed, dur_s);
        return;
    }
    if pilot_kill {
        run_pilot_kill(seed);
        return;
    }

    let mut engine = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::default());
    let pm = PilotManager::new(&session);

    let pilot = pm
        .submit(
            &mut engine,
            PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(4 * 3600)),
        )
        .expect("pilot");

    // The plan is generated from its own RNG stream: the same (seed,
    // intensity) pair always yields the same schedule, and the engine's
    // randomness is untouched.
    let plan = FaultPlan::generate(seed, SimDuration::from_secs(1800), 4, intensity);
    println!("fault plan (seed {seed}, intensity {intensity}):");
    for ev in &plan.events {
        println!("  {:>10}  {:?}", format!("{}", ev.at), ev.kind);
    }
    let injector = install_faults(&mut engine, &plan, &pilot);

    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut engine,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("work-{i}"),
                    8,
                    WorkSpec::Compute {
                        core_seconds: 3200.0,
                        read_mb: 64.0,
                        write_mb: 16.0,
                        io: UnitIoTarget::Lustre,
                    },
                )
                .stage_in(StagingDirective {
                    bytes: 32.0 * 1024.0 * 1024.0,
                    from: StageEndpoint::Lustre,
                    to: StageEndpoint::ExecNode,
                })
            })
            .collect(),
    );

    while units.iter().any(|u| !u.state().is_final()) {
        assert!(engine.step(), "stalled");
    }
    engine.run();

    let agent = pilot.agent().unwrap();
    let done = units
        .iter()
        .filter(|u| u.state() == UnitState::Done)
        .count();
    let retried = units.iter().filter(|u| u.attempts() > 1).count();

    println!(
        "\n{} faults injected; {done}/{} units Done, {retried} retried",
        injector.injected(),
        units.len()
    );
    println!(
        "pilot degraded: {}, dead nodes: {:?}",
        agent.is_degraded(),
        agent.dead_nodes()
    );
    for u in &units {
        println!(
            "  {:<8} {:?} attempts={} nodes={:?}{}",
            u.name(),
            u.state(),
            u.attempts(),
            u.exec_nodes(),
            u.failure().map(|f| format!("  ({f})")).unwrap_or_default()
        );
    }

    println!("\n-- fault & recovery trace --");
    for e in engine.trace.events() {
        if e.category == "fault"
            || e.message.contains("lost (")
            || e.message.contains("crashed")
            || e.message.contains("faulted")
            || e.message.contains("degraded")
        {
            println!(
                "{:>10} [{:<5}] {}",
                format!("{}", e.time),
                e.category,
                e.message
            );
        }
    }
}
