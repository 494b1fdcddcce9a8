//! The experiment table `reproduce` runs: one `(name, run)` row per
//! experiment, in report order. The names double as the canonical list
//! of the bench record ([`crate::CANONICAL_EXPERIMENTS`]).

use ltsp_machine::MachineModel;
use ltsp_telemetry::Telemetry;

use crate::{
    adaptive_gap, balanced_recurrence_experiment, boost_magnitude_ablation, compile_time, fig10,
    fig5, fig7, fig8, fig9, issue_width_ablation, mcf_case_study, miss_sampling_experiment,
    mve_code_size_ablation, no_prefetch_headroom, oracle_gap, ozq_capacity_ablation, regstats,
    versioning_experiment, GainExperiment,
};

/// What every experiment run sees: the machine, the entry scale, the
/// worker count, the output format of gain tables, and the telemetry
/// sink of the run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentCtx<'a> {
    /// The machine model.
    pub machine: &'a MachineModel,
    /// Multiplier on each loop's simulated entry count.
    pub scale: f64,
    /// Worker threads for the experiments that take them explicitly.
    pub jobs: usize,
    /// Render gain tables as CSV instead of text.
    pub csv: bool,
    /// The run's telemetry sink.
    pub tel: &'a Telemetry,
}

impl ExperimentCtx<'_> {
    fn table(&self, e: &GainExperiment) -> String {
        if self.csv {
            e.to_csv()
        } else {
            e.render()
        }
    }
}

/// One experiment: its name and a run returning the text blocks to print,
/// in order.
pub type Experiment = (&'static str, fn(&ExperimentCtx) -> Vec<String>);

/// Every experiment `reproduce` can run, in report order.
pub const EXPERIMENTS: [Experiment; 15] = [
    ("fig5", |_| vec![fig5().render()]),
    ("fig7", |c| {
        let (f06, f00) = fig7(c.machine, c.scale);
        vec![c.table(&f06), c.table(&f00)]
    }),
    ("fig8", |c| {
        let (f06, f00) = fig8(c.machine, c.scale);
        vec![c.table(&f06), c.table(&f00)]
    }),
    ("fig9", |c| vec![c.table(&fig9(c.machine, c.scale))]),
    ("fig10", |c| vec![fig10(c.machine, c.scale).render()]),
    ("mcf", |c| {
        let entries = ((900.0 * c.scale) as u32).max(50);
        vec![mcf_case_study(c.machine, entries).render()]
    }),
    ("regstats", |c| vec![regstats(c.machine, c.scale).render()]),
    ("compiletime", |c| {
        vec![compile_time(c.machine, c.scale).render()]
    }),
    ("noprefetch", |c| {
        vec![c.table(&no_prefetch_headroom(c.machine, c.scale))]
    }),
    ("versioning", |c| {
        vec![c.table(&versioning_experiment(c.machine, c.scale))]
    }),
    ("sampling", |c| {
        vec![c.table(&miss_sampling_experiment(c.machine, c.scale))]
    }),
    ("balanced", |c| {
        let entries = ((800.0 * c.scale) as u32).max(100);
        vec![balanced_recurrence_experiment(c.machine, entries).render()]
    }),
    ("oracle", |c| {
        vec![oracle_gap(c.machine, c.tel, c.jobs).render()]
    }),
    ("adaptive", |c| {
        vec![adaptive_gap(c.machine, c.tel, c.jobs).render()]
    }),
    ("ablations", |c| {
        let ozq = ozq_capacity_ablation(c.machine).render();
        let (missing, warm) = boost_magnitude_ablation(c.machine);
        let mve = mve_code_size_ablation(c.machine).render();
        let (width_gain, width_k) = issue_width_ablation();
        vec![
            ozq,
            missing.render(),
            warm.render(),
            mve,
            width_gain.render(),
            width_k.render(),
        ]
    }),
];
