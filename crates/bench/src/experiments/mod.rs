//! The paper's evaluation as a registry: Fig. 5 (pilot and CU startup),
//! Fig. 6 (K-Means), the ablations of the design claims and the RP-Spark
//! extension. Each entry renders its tables into a string and returns the
//! shape checks it made; nothing here prints. The `paper` binary prints
//! the entries and `tests/paper_experiments.rs` asserts every check.

mod ablations;
mod fig5;
mod fig6;

use crate::ShapeChecks;

/// What one experiment produced.
pub struct Outcome {
    /// Everything the experiment reports, ending with its check report.
    pub text: String,
    pub checks: ShapeChecks,
}

impl Outcome {
    /// Appends the check report to `text`.
    fn new(mut text: String, checks: ShapeChecks) -> Outcome {
        text.push_str(&checks.render());
        Outcome { text, checks }
    }
}

/// One registered experiment.
pub struct Experiment {
    pub name: &'static str,
    /// Where in the paper the claim it checks is made.
    pub section: &'static str,
    pub run: fn() -> Outcome,
}

/// Every experiment, in the order `paper` runs them.
pub const REGISTRY: [Experiment; 11] = [
    Experiment {
        name: "fig5_startup",
        section: "§IV Fig. 5 (main)",
        run: fig5::pilot_startup,
    },
    Experiment {
        name: "fig5_unit_startup",
        section: "§IV Fig. 5 (inset)",
        run: fig5::unit_startup,
    },
    Experiment {
        name: "fig6_kmeans",
        section: "§IV Fig. 6",
        run: fig6::kmeans,
    },
    Experiment {
        name: "ablation_am_reuse",
        section: "§III-C future work",
        run: ablations::am_reuse,
    },
    Experiment {
        name: "ablation_docker",
        section: "§V future work",
        run: ablations::docker,
    },
    Experiment {
        name: "ablation_polling",
        section: "§III architecture (U.2–U.3)",
        run: ablations::polling,
    },
    Experiment {
        name: "ablation_shuffle_backend",
        section: "§II, §V discussion",
        run: ablations::shuffle_backend,
    },
    Experiment {
        name: "ablation_spark_deploy",
        section: "§III-D",
        run: ablations::spark_deploy,
    },
    Experiment {
        name: "ablation_speculative",
        section: "beyond the paper (Hadoop speculation)",
        run: ablations::speculative,
    },
    Experiment {
        name: "ablation_stage_coupling",
        section: "§V discussion",
        run: ablations::stage_coupling,
    },
    Experiment {
        name: "extension_spark_kmeans",
        section: "§V in-memory future work",
        run: fig6::spark_kmeans,
    },
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|x| x.name == name)
}
