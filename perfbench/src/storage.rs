//! `storage_cc`: the §7.1 storage case study (Fig. 11) through the sweep
//! path. A Direct Drive OLTP trace runs on the 8:1 oversubscribed storage
//! fat tree under MPRDMA, NDP and DCTCP, each clean and with per-packet
//! loss (`loss:20000`). htsim forwarding, CC, retransmission and the
//! event queue do nearly all the work; LGS and the matcher almost none.

use std::sync::Arc;
use std::time::Instant;

use atlahs_bench::scenario::{
    prepare_goal, storage_layout, storage_service_params, BackendFamily, BackendSpec, CellResult,
    FaultSpec, PlacementSpec, ScenarioCell, ScenarioGrid, TopologySpec, WorkloadSpec,
};
use atlahs_bench::sweep::{self, SweepReport};
use atlahs_bench::workloads::storage_trace_at_load;
use atlahs_core::Simulation;
use atlahs_goal::{binary, GoalBuilder, GoalSchedule};
use atlahs_htsim::CcAlgo;

use crate::cells::{cell_walls, htsim_backend, net_counters, unique_jobs};
use crate::trace::{self, span, Timed};
use crate::{median, threads, write_report, Checks, Iter, Workload, SETUP_REPS};

const OPS: usize = 5_000;
const GAP_NS: u64 = 50;
const COMPRESS: u64 = 12;

pub struct StorageCc {
    grid: ScenarioGrid,
    ops_per_cell: usize,
    bytes_per_op: f64,
    reference: Option<String>,
}

impl StorageCc {
    pub fn new(seed: u64) -> Self {
        let grid = ScenarioGrid {
            topologies: vec![TopologySpec::StorageFatTree {
                hosts: storage_layout().total_ranks(),
                oversub: 8,
            }],
            workloads: vec![WorkloadSpec::Storage { ops: OPS, gap_ns: GAP_NS, compress: COMPRESS }],
            ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp, CcAlgo::Dctcp],
            placements: vec![PlacementSpec::Packed],
            backends: vec![BackendFamily::Htsim],
            faults: vec![
                FaultSpec::None,
                FaultSpec::parse("loss:20000").expect("a valid loss token"),
            ],
            seed,
            collect_flows: true,
        };
        let cells = grid.expand();
        let goal = &cells[0].workload.build_jobs(cells[0].seed)[0];
        let bytes_per_op = binary::encode(goal).len() as f64 / goal.total_tasks() as f64;
        StorageCc { grid, ops_per_cell: goal.total_tasks(), bytes_per_op, reference: None }
    }

    /// The set-up stages of the sweep path, run on their own: grid
    /// expansion, workload lowering, and per cell placement plus backend
    /// construction.
    fn setup_pass(&self) -> f64 {
        let t0 = Instant::now();
        let cells = self.grid.expand();
        let (jobs, idx) = unique_jobs(&cells);
        for (cell, &j) in cells.iter().zip(&idx) {
            let prepared = prepare_goal(cell, &jobs[j]);
            let BackendSpec::Htsim { cc, spray } = cell.backend else { unreachable!() };
            std::hint::black_box((prepared.goal(&jobs[j]), htsim_backend(cell, cc, spray)));
        }
        t0.elapsed().as_secs_f64()
    }

    /// Traced only: every cell again, one layer call at a time, checked
    /// against the sweep's results.
    fn replica(
        &self,
        cells: &[ScenarioCell],
        lib: &[CellResult],
        first: bool,
        checks: &mut Checks,
    ) {
        let cell0 = &cells[0];
        let goal = span("directdrive.lower_s", || storage_goal(cell0.seed));
        if first {
            let built = cell0.workload.build_jobs(cell0.seed);
            checks.check(*built[0] == goal, || "storage: lowering differs from build_jobs".into());
        }
        let jobs = vec![Arc::new(goal)];
        for (cell, lib) in cells.iter().zip(lib) {
            let prepared = span("sweep.prepare_s", || prepare_goal(cell, &jobs));
            let goal = prepared.goal(&jobs);
            let BackendSpec::Htsim { cc, spray } = cell.backend else { unreachable!() };
            let mut backend = Timed::new(htsim_backend(cell, cc, spray));
            let report = span("core.sim_s", || {
                let r = Simulation::new(goal).run(&mut backend);
                backend.charge_to("htsim.busy_s");
                r
            });
            let net = backend.inner.net_stats();
            net_counters(&net);
            checks.check(
                report.as_ref().is_ok_and(|r| r.makespan == lib.makespan) && Some(net) == lib.net,
                || format!("{}: traced run differs from the sweep", cell.key()),
            );
        }
    }
}

/// `WorkloadSpec::Storage` lowering through public functions: OLTP trace
/// synthesis, arrival compression, Direct Drive lowering.
fn storage_goal(seed: u64) -> GoalSchedule {
    let layout = storage_layout();
    let mut trace = storage_trace_at_load(OPS, GAP_NS, seed);
    for rec in &mut trace.records {
        rec.ts_ns /= COMPRESS;
    }
    let mut b = GoalBuilder::new(layout.total_ranks());
    atlahs_directdrive::trace_to_goal(&trace, &layout, &storage_service_params(), &mut b);
    b.build().expect("storage GOAL must build")
}

impl Workload for StorageCc {
    fn iteration(&mut self, first: bool, corrupt: bool, checks: &mut Checks) -> Iter {
        let setup_s = if trace::enabled() {
            0.0
        } else {
            median((0..SETUP_REPS).map(|_| self.setup_pass()).collect())
        };

        let t0 = Instant::now();
        let cells = span("sweep.expand_s", || self.grid.expand());
        let mut results = span("sweep.execute_s", || sweep::execute(&cells, threads()));
        if corrupt {
            let i = (self.grid.seed as usize) % results.len();
            results[i].makespan += 1;
        }
        let text = span("report.json_s", || {
            let doc = SweepReport { seed: self.grid.seed, results: results.clone(), branch: None };
            let text = write_report("storage_cc.json", &doc.to_json());
            trace::count("report.bytes", text.len() as f64);
            text
        });
        let wall_s = t0.elapsed().as_secs_f64();

        for r in &results {
            checks.check(r.tasks == self.ops_per_cell, || {
                format!("{}: {} of {} ops completed", r.key, r.tasks, self.ops_per_cell)
            });
        }
        if first {
            self.reference = Some(text);
        } else {
            checks.check(self.reference.as_deref() == Some(text.as_str()), || {
                "storage_cc: report differs from the warm-up run".into()
            });
        }
        if trace::enabled() {
            cell_walls(&results);
            self.replica(&cells, &results, first, checks);
        }
        Iter { wall_s, setup_s, ops: results.iter().map(|r| r.tasks as u64).sum() }
    }

    fn goal_bytes_per_op(&self) -> f64 {
        self.bytes_per_op
    }
}
