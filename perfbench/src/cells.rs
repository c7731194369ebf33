//! Shared plumbing of the grid workloads (`storage_cc`, `whatif_grid`):
//! the same public calls the sweep executors make, issued one at a time
//! so each layer can be timed from outside.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use atlahs_bench::scenario::{cell_seed, CellResult, FaultSpec, ScenarioCell};
use atlahs_bench::sweep::SweepReport;
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig, NetStats};
use atlahs_htsim::topology::Topology;

use crate::percentile;
use crate::trace::{count, span};

/// Build each distinct (workload, seed) once, as the sweep executors do.
/// Returns the job sets and, per cell, the index of its set.
pub fn unique_jobs(cells: &[ScenarioCell]) -> (Vec<Vec<Arc<GoalSchedule>>>, Vec<usize>) {
    span("sweep.build_jobs_s", || {
        let mut keys: Vec<(String, u64)> = Vec::new();
        let mut jobs = Vec::new();
        let idx = cells
            .iter()
            .map(|c| {
                let key = (c.workload.label(), c.seed);
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    jobs.push(c.workload.build_jobs(c.seed));
                    jobs.len() - 1
                })
            })
            .collect();
        (jobs, idx)
    })
}

/// The packet backend of a straight (non-branched) cell, configured as
/// `scenario::run_cell_prepared` configures it.
pub fn htsim_backend(cell: &ScenarioCell, cc: atlahs_htsim::CcAlgo, spray: bool) -> HtsimBackend {
    span("htsim.build_s", || {
        let topo_cfg = cell.topology.config();
        let mut cfg = HtsimConfig::new(topo_cfg.clone(), cc);
        cfg.seed = cell.seed;
        cfg.spray = spray;
        cfg.collect_flows = cell.collect_flows;
        if cell.fault != FaultSpec::None {
            let fault_seed = cell_seed(cell.seed, &cell.fault.label());
            if let Some(model) = cell.fault.link_model(fault_seed) {
                cfg.link_model = model;
            } else {
                cfg.faults = cell.fault.port_faults(&Topology::build(topo_cfg), fault_seed);
            }
        }
        HtsimBackend::new(cfg)
    })
}

/// Count the packet engine's work.
pub fn net_counters(net: &NetStats) {
    count("htsim.events", net.internal_events as f64);
    count("eventq.pops", net.internal_events as f64);
    count("htsim.packets", net.packets_sent as f64);
    count("htsim.rtx", net.retransmissions as f64);
    count("htsim.timeouts", net.timeouts as f64);
    count("htsim.stochastic_draws", net.stochastic_draws as f64);
}

/// Record the executor's per-cell wall times (kept by the library
/// outside its reports).
pub fn cell_walls(results: &[CellResult]) {
    let ms: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    count("sweep.cell_wall_s", ms.iter().sum::<f64>() / 1e3);
    count("sweep.cell_samples", ms.len() as f64);
    count("sweep.cell_p50_ms", percentile(ms.clone(), 50));
    count("sweep.cell_p90_ms", percentile(ms, 90));
}

/// The deterministic report of a set of results, wall times excluded.
pub fn results_json(seed: u64, results: &[CellResult]) -> String {
    SweepReport { seed, results: results.to_vec(), branch: None }.to_json().pretty()
}

/// Claim-index parallel map over `threads` scoped workers; results keep
/// item order.
pub fn pool_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return mine;
                        }
                        mine.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark worker must not panic"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}
