//! The paper's motivating application (§I): couple HPC simulation stages
//! with data-intensive analysis under one resource-management layer.
//!
//! A pilot runs a set of (simulated-time) molecular-dynamics "simulation"
//! Compute-Units; as each generation completes, the example performs
//! *real* trajectory analytics — RMSD series, position moments and PCA —
//! natively on scoped threads (`WorkSpec::Native`), then uses the
//! analysis to decide the next generation's parameters, exactly the
//! simulate → analyse → steer loop the paper targets.
//!
//! ```text
//! cargo run --release --example md_coupled_pipeline
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use hadoop_hpc::analytics::{md_trajectory, moments, pca, rmsd_series};
use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration};

const GENERATIONS: u32 = 3;
const REPLICAS: u32 = 6;

fn main() {
    let mut engine = Engine::new(2026);
    let session = Session::new(SessionConfig::default());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut engine,
            PilotDescription::new("xsede.wrangler", 2, SimDuration::from_secs(4 * 3600)),
        )
        .expect("pilot");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    let mut step_size = 0.4_f64;
    for generation in 0..GENERATIONS {
        println!("── generation {generation} (step size {step_size:.3}) ──");

        // 1. Simulation stage: REPLICAS MPI-style MD units (virtual time).
        let sims = um.submit_units(
            &mut engine,
            (0..REPLICAS)
                .map(|r| {
                    ComputeUnitDescription::new(
                        format!("md-g{generation}-r{r}"),
                        16,
                        WorkSpec::Compute {
                            core_seconds: 3_200.0,
                            read_mb: 50.0,
                            write_mb: 400.0, // trajectory output
                            io: UnitIoTarget::Lustre,
                        },
                    )
                    .with_mpi()
                })
                .collect(),
        );
        while sims.iter().any(|u| !u.state().is_final()) {
            assert!(engine.step());
        }
        assert!(sims.iter().all(|u| u.state() == UnitState::Done));
        println!("  {} simulation units done at {}", REPLICAS, engine.now());

        // 2. Analysis stage: a Native unit that really computes. The
        //    closure runs on host threads; its wall time becomes the
        //    unit's virtual execution time.
        #[expect(
            clippy::type_complexity,
            reason = "the analysis result slot, filled by the closure"
        )]
        let analysis_out: Rc<RefCell<Option<(f64, f64, [f64; 3])>>> = Rc::new(RefCell::new(None));
        let out = analysis_out.clone();
        let seed = 90 + generation as u64;
        let step = step_size;
        let analysis = um.submit_units(
            &mut engine,
            vec![ComputeUnitDescription::new(
                format!("analysis-g{generation}"),
                8,
                WorkSpec::Native(Rc::new(move || {
                    // Synthetic stand-in for the trajectory the simulation
                    // stage "wrote": same step size, same generation seed.
                    let traj = md_trajectory(400, 250, step, seed);
                    let series = rmsd_series(&traj, 0);
                    let drift = series.last().copied().unwrap_or(0.0);
                    let m = moments(&traj);
                    let p = pca(&traj);
                    *out.borrow_mut() = Some((drift, m.variance[0], p.eigenvalues));
                })),
            )],
        );
        while analysis.iter().any(|u| !u.state().is_final()) {
            assert!(engine.step());
        }
        let (drift, var_x, eigs) = analysis_out
            .borrow_mut()
            .take()
            .expect("analysis unit ran the closure");
        println!(
            "  analysis: final RMSD {drift:.2}, var(x) {var_x:.2}, PCA eigenvalues [{:.1}, {:.1}, {:.1}]",
            eigs[0], eigs[1], eigs[2]
        );

        // 3. Steering: shrink the step when the walk drifts too far
        //    (adaptive sampling — "the data generated needs to be analyzed
        //    so as to determine the next set of simulation configurations").
        if drift > 10.0 {
            step_size *= 0.5;
            println!("  drift high → halving step size");
        } else {
            step_size *= 1.1;
            println!("  drift acceptable → relaxing step size");
        }
    }

    pm.cancel(&mut engine, &pilot);
    engine.run();
    println!("\npipeline finished at {}", engine.now());
}
