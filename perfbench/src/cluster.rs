//! `cluster_online`: the dynamic multi-tenant cluster engine
//! (`cluster::run_grid`) over Poisson arrivals at two rates × FIFO /
//! smallest-first × three placements × LGS/htsim × no faults / job
//! failure with restart. It measures the third runner
//! (`cluster::simulate`), its admission/backfill loop and `NodePool`.

use std::collections::BTreeMap;
use std::time::Instant;

use atlahs_bench::cluster::{
    run_grid, ArrivalSpec, ClusterFaultSpec, ClusterGrid, ClusterReport, ClusterSpec,
    QueueDiscipline,
};
use atlahs_bench::scenario::{
    cell_seed, lgs_params_for, BackendFamily, BackendSpec, PlacementSpec, TopologySpec,
    WorkloadSpec,
};
use atlahs_goal::binary;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs_htsim::CcAlgo;
use atlahs_lgs::LgsBackend;

use crate::trace::{self, count, span};
use crate::{median, threads, write_report, Checks, Iter, Workload, SETUP_REPS};

const JOBS: usize = 16;

pub struct ClusterOnline {
    grid: ClusterGrid,
    /// GOAL ops of each catalog workload, by label.
    ops_of: BTreeMap<String, usize>,
    bytes_per_op: f64,
    reference: Option<String>,
}

impl ClusterOnline {
    pub fn new(seed: u64) -> Self {
        let kib = |k: u64| k << 10;
        let grid = ClusterGrid {
            topology: TopologySpec::AiFatTree { nodes: 32, oversub: 4 },
            catalog: vec![
                WorkloadSpec::Ring { ranks: 8, bytes: kib(256), laps: 1 },
                WorkloadSpec::Incast { ranks: 9, bytes: kib(256), repeat: 1 },
                WorkloadSpec::MoeAllToAll {
                    ranks: 8,
                    group: 8,
                    bytes: kib(32),
                    layers: 1,
                    compute_ns: 5_000,
                },
                WorkloadSpec::PipelineLlm {
                    stages: 4,
                    microbatches: 4,
                    bytes: kib(64),
                    compute_ns: 2_000,
                },
            ],
            arrivals: vec![
                ArrivalSpec::Poisson { jobs: JOBS, mean_gap_ns: 20_000 },
                ArrivalSpec::Poisson { jobs: JOBS, mean_gap_ns: 100_000 },
            ],
            queues: vec![QueueDiscipline::Fifo, QueueDiscipline::SmallestFirst],
            placements: vec![
                PlacementSpec::Packed,
                PlacementSpec::Random,
                PlacementSpec::RoundRobin,
            ],
            ccs: vec![CcAlgo::Mprdma],
            backends: vec![BackendFamily::Lgs, BackendFamily::Htsim],
            faults: vec![
                ClusterFaultSpec::None,
                ClusterFaultSpec::JobFail { pct: 30, at_pct: 50, retries: 2 },
            ],
            seed,
        };
        // These catalog generators are seed-independent, so one build
        // gives every job instance's op count.
        let mut ops_of = BTreeMap::new();
        let (mut bytes, mut ops) = (0usize, 0usize);
        for w in &grid.catalog {
            let n: usize = w.build_jobs(seed).iter().map(|g| g.total_tasks()).sum();
            bytes += w.build_jobs(seed).iter().map(|g| binary::encode(g).len()).sum::<usize>();
            ops += n;
            ops_of.insert(w.label(), n);
        }
        ClusterOnline { grid, ops_of, bytes_per_op: bytes as f64 / ops as f64, reference: None }
    }

    /// The set-up stages, run on their own: grid expansion, and per cell
    /// the arrival draw, one lowering per arriving job and backend
    /// construction.
    fn setup_pass(&self) -> f64 {
        let t0 = Instant::now();
        let (cells, _) = expand(&self.grid);
        for cell in &cells {
            std::hint::black_box(cell.arrivals.times(cell.seed));
            let catalog = &self.grid.catalog;
            for i in 0..cell.arrivals.num_jobs() {
                std::hint::black_box(catalog[i % catalog.len()].build_jobs(cell.seed));
            }
            match cell.backend {
                BackendSpec::Htsim { cc, .. } => {
                    std::hint::black_box(HtsimBackend::new(HtsimConfig::new(
                        cell.topology.config(),
                        cc,
                    )));
                }
                _ => {
                    std::hint::black_box(LgsBackend::new(lgs_params_for(&cell.topology)));
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Expand the grid and give every cell an arrival stream of its own, so
/// a run averages over many independent job streams instead of one per
/// arrival rate.
fn expand(grid: &ClusterGrid) -> (Vec<ClusterSpec>, Vec<String>) {
    let (mut cells, dropped) = grid.expand_counted();
    for c in &mut cells {
        c.seed = cell_seed(grid.seed, &c.key());
    }
    (cells, dropped)
}

impl Workload for ClusterOnline {
    fn iteration(&mut self, first: bool, corrupt: bool, checks: &mut Checks) -> Iter {
        let setup_s = if trace::enabled() {
            0.0
        } else {
            median((0..SETUP_REPS).map(|_| self.setup_pass()).collect())
        };

        let t0 = Instant::now();
        let (cells, dropped) = span("sweep.expand_s", || expand(&self.grid));
        let mut results = span("cluster.run_s", || run_grid(&cells, threads()));
        if corrupt {
            let i = (self.grid.seed as usize) % results.len();
            results[i].jobs.pop();
        }
        let text = span("report.json_s", || {
            let report = ClusterReport { seed: self.grid.seed, results: results.clone() };
            let text = write_report("cluster_online.json", &report.to_json());
            count("report.bytes", text.len() as f64);
            text
        });
        let wall_s = t0.elapsed().as_secs_f64();

        checks.check(dropped.is_empty(), || format!("catalog entries dropped: {dropped:?}"));
        let mut ops = 0u64;
        for (cell, r) in cells.iter().zip(&results) {
            let complete = r.jobs.len() == cell.arrivals.num_jobs()
                && r.jobs.iter().all(|j| {
                    j.duration_ns > 0
                        && j.finish_ns == j.start_ns + j.duration_ns
                        && j.finish_ns <= r.makespan_ns
                        && j.nodes.len() == j.ranks
                });
            checks.check(complete, || format!("{}: not every job completed", r.key));
            for j in &r.jobs {
                ops += self.ops_of.get(&j.workload).copied().unwrap_or(0) as u64;
            }
            count("cluster.jobs", r.jobs.len() as f64);
        }
        if first {
            self.reference = Some(text);
        } else {
            checks.check(self.reference.as_deref() == Some(text.as_str()), || {
                "cluster_online: report differs from the warm-up run".into()
            });
        }
        Iter { wall_s, setup_s, ops }
    }

    fn goal_bytes_per_op(&self) -> f64 {
        self.bytes_per_op
    }
}
