//! `whatif_grid`: the multi-tenant what-if grid (§7.2 placement study
//! plus branch-and-continue). Single- and multi-job workloads on an
//! oversubscribed AI fat tree × packed/random/roundrobin placement ×
//! htsim (MPRDMA, NDP)/LGS/Ideal × fault overrides, run by
//! `execute_branched` at a fixed branch time. Many short cells, so the
//! bench-side work dominates: compose/placement, backend construction,
//! checkpoint/restore, the thread pool and JSON.

use std::sync::Arc;
use std::time::Instant;

use atlahs_bench::branch::{execute_branched, run_cell_branched_straight};
use atlahs_bench::scenario::{
    cell_seed, lgs_params_for, prepare_goal, BackendFamily, BackendSpec, CellResult, FaultSpec,
    PlacementSpec, ScenarioCell, ScenarioGrid, TopologySpec, WorkloadSpec,
};
use atlahs_bench::sweep::SweepReport;
use atlahs_core::backends::IdealBackend;
use atlahs_core::{Backend, SimDriver, SimReport, Snapshot};
use atlahs_goal::{binary, GoalSchedule};
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs_htsim::topology::Topology;
use atlahs_htsim::CcAlgo;
use atlahs_lgs::LgsBackend;

use crate::cells::{cell_walls, net_counters, pool_map, results_json, unique_jobs};
use crate::trace::{self, count, span, Timed};
use crate::{median, threads, write_report, Checks, Iter, Workload, SETUP_REPS};

/// Simulated time (ns) at which every group branches.
const BRANCH_AT: u64 = 60_000;

pub struct WhatIf {
    grid: ScenarioGrid,
    /// Distinct (topology, workload, placement, backend) prefixes.
    groups: usize,
    bytes_per_op: f64,
    reference: Option<String>,
}

fn prefix_key(c: &ScenarioCell) -> String {
    format!(
        "{}/{}/{}/{}",
        c.topology.label(),
        c.workload.label(),
        c.placement.label(),
        c.backend.label()
    )
}

impl WhatIf {
    pub fn new(seed: u64) -> Self {
        let kib = |k: u64| k << 10;
        let grid = ScenarioGrid {
            topologies: vec![TopologySpec::AiFatTree { nodes: 32, oversub: 4 }],
            workloads: vec![
                WorkloadSpec::MoeAllToAll {
                    ranks: 16,
                    group: 16,
                    bytes: kib(64),
                    layers: 1,
                    compute_ns: 20_000,
                },
                WorkloadSpec::MultiJob {
                    jobs: vec![
                        WorkloadSpec::Ring { ranks: 8, bytes: kib(256), laps: 2 },
                        WorkloadSpec::MoeAllToAll {
                            ranks: 8,
                            group: 8,
                            bytes: kib(64),
                            layers: 2,
                            compute_ns: 5_000,
                        },
                    ],
                },
                WorkloadSpec::MultiJob {
                    jobs: vec![
                        WorkloadSpec::PipelineLlm {
                            stages: 8,
                            microbatches: 4,
                            bytes: kib(64),
                            compute_ns: 2_000,
                        },
                        WorkloadSpec::Ring { ranks: 8, bytes: kib(128), laps: 2 },
                        WorkloadSpec::Incast { ranks: 8, bytes: kib(64), repeat: 2 },
                    ],
                },
            ],
            ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp],
            placements: vec![
                PlacementSpec::Packed,
                PlacementSpec::Random,
                PlacementSpec::RoundRobin,
            ],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![
                FaultSpec::None,
                FaultSpec::LinkFlap { links: 2, down_ns: 70_000, up_ns: 140_000 },
                FaultSpec::Degrade {
                    links: 2,
                    bw_pct: 25,
                    lat_pct: 300,
                    from_ns: 60_000,
                    to_ns: 250_000,
                },
                FaultSpec::Markov { links: 2, up_ns: 20_000, down_ns: 20_000, horizon_ns: 300_000 },
                FaultSpec::Straggler { prob_pct: 50, factor_pct: 300, spread_pct: 0, shape: 1 },
                FaultSpec::parse("loss:20000").expect("a valid loss token"),
            ],
            seed,
            collect_flows: true,
        };
        let cells = expand(&grid);
        let mut keys: Vec<String> = cells.iter().map(prefix_key).collect();
        keys.sort();
        keys.dedup();
        let (jobs, _) = unique_jobs(&cells);
        let all: Vec<&Arc<GoalSchedule>> = jobs.iter().flatten().collect();
        let bytes: usize = all.iter().map(|g| binary::encode(g).len()).sum();
        let ops: usize = all.iter().map(|g| g.total_tasks()).sum();
        WhatIf {
            grid,
            groups: keys.len(),
            bytes_per_op: bytes as f64 / ops as f64,
            reference: None,
        }
    }

    /// The set-up stages of the branched path, run on their own: grid
    /// expansion, workload lowering, and per prefix group placement plus
    /// backend construction.
    fn setup_pass(&self) -> f64 {
        let t0 = Instant::now();
        let cells = expand(&self.grid);
        let (jobs, idx) = unique_jobs(&cells);
        let mut seen: Vec<String> = Vec::new();
        for (cell, &j) in cells.iter().zip(&idx) {
            let key = prefix_key(cell);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let prepared = prepare_goal(cell, &jobs[j]);
            std::hint::black_box(prepared.goal(&jobs[j]));
            match cell.backend {
                BackendSpec::Htsim { cc, spray } => {
                    std::hint::black_box(clean_htsim(cell, cc, spray));
                }
                BackendSpec::Lgs => {
                    std::hint::black_box(LgsBackend::new(lgs_params_for(&cell.topology)));
                }
                BackendSpec::Ideal => {
                    std::hint::black_box(ideal(cell));
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }

    /// The straight-through oracle on every cell, `threads` wide.
    fn straight(&self, cells: &[ScenarioCell]) -> Vec<CellResult> {
        span("branch.straight_s", || {
            let (jobs, idx) = unique_jobs(cells);
            let items: Vec<usize> = (0..cells.len()).collect();
            pool_map(&items, threads(), |&i| {
                run_cell_branched_straight(&cells[i], &jobs[idx[i]], BRANCH_AT)
            })
        })
    }

    /// Traced only: each prefix group again, one layer call at a time —
    /// prefix, checkpoint, then per cell restore, override, finish —
    /// checked against the branched results.
    fn replica(&self, cells: &[ScenarioCell], lib: &[CellResult], checks: &mut Checks) {
        let (jobs, idx) = unique_jobs(cells);
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let key = prefix_key(c);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for (_, members) in &groups {
            let lead = &cells[members[0]];
            let jobs = &jobs[idx[members[0]]];
            let prepared = span("sweep.prepare_s", || prepare_goal(lead, jobs));
            let goal = prepared.goal(jobs);
            let reports = match lead.backend {
                BackendSpec::Htsim { cc, spray } => {
                    let topo = span("htsim.build_s", || Topology::build(lead.topology.config()));
                    let backend = clean_htsim(lead, cc, spray);
                    fan_out(
                        backend,
                        goal,
                        cells,
                        members,
                        "htsim",
                        |b, cell| htsim_override(b, cell, &topo),
                        |b| net_counters(&b.net_stats()),
                    )
                }
                BackendSpec::Lgs => {
                    let backend = LgsBackend::new(lgs_params_for(&lead.topology));
                    fan_out(backend, goal, cells, members, "lgs", lgs_override, |b| {
                        let s = b.stats();
                        count("lgs.messages", s.messages as f64);
                        count("lgs.rendezvous", s.rendezvous_messages as f64);
                    })
                }
                BackendSpec::Ideal => {
                    fan_out(ideal(lead), goal, cells, members, "ideal", |_, _| {}, |_| {})
                }
            };
            for (&i, report) in members.iter().zip(reports) {
                checks.check(
                    report.as_ref().is_ok_and(|r| {
                        r.makespan == lib[i].makespan && r.completed == lib[i].tasks
                    }),
                    || format!("{}: traced run differs from the branched sweep", cells[i].key()),
                );
            }
        }
    }
}

/// Expand the grid and give every prefix group a seed of its own, so a
/// run averages over many independent placements, ECMP salts and fault
/// draws instead of one per workload.
fn expand(grid: &ScenarioGrid) -> Vec<ScenarioCell> {
    let mut cells = grid.expand();
    for c in &mut cells {
        c.seed = cell_seed(grid.seed, &prefix_key(c));
    }
    cells
}

fn clean_htsim(cell: &ScenarioCell, cc: CcAlgo, spray: bool) -> HtsimBackend {
    span("htsim.build_s", || {
        let mut cfg = HtsimConfig::new(cell.topology.config(), cc);
        cfg.seed = cell.seed;
        cfg.spray = spray;
        cfg.collect_flows = cell.collect_flows;
        HtsimBackend::new(cfg)
    })
}

fn ideal(cell: &ScenarioCell) -> IdealBackend {
    let link = cell.topology.edge_link();
    IdealBackend::new(link.bytes_per_ns(), link.latency_ns)
}

fn fault_seed(cell: &ScenarioCell) -> u64 {
    cell_seed(cell.seed, &cell.fault.label())
}

/// A cell's override on a restored packet backend, as the branched
/// executor applies it.
fn htsim_override(backend: &mut HtsimBackend, cell: &ScenarioCell, topo: &Topology) {
    if cell.fault == FaultSpec::None {
        return;
    }
    if let Some(model) = cell.fault.link_model(fault_seed(cell)) {
        backend.set_link_model(model);
        return;
    }
    for f in cell.fault.port_faults(topo, fault_seed(cell)) {
        backend.inject_fault(f);
    }
}

fn lgs_override(backend: &mut LgsBackend, cell: &ScenarioCell) {
    if cell.fault == FaultSpec::None {
        return;
    }
    if let Some(spec) = cell.fault.straggler_spec(fault_seed(cell)) {
        backend.apply_straggler_now(spec);
    }
}

/// Simulate the prefix once, checkpoint, and run every member from the
/// checkpoint; `observe` sees the backend after each member finishes.
fn fan_out<B: Backend + Snapshot>(
    backend: B,
    goal: &GoalSchedule,
    cells: &[ScenarioCell],
    members: &[usize],
    name: &'static str,
    mut apply: impl FnMut(&mut B, &ScenarioCell),
    mut observe: impl FnMut(&B),
) -> Vec<Result<SimReport, String>> {
    let (ckpt_span, restore_span, busy) = match name {
        "htsim" => ("snapshot.htsim.checkpoint_s", "snapshot.htsim.restore_s", "htsim.busy_s"),
        "lgs" => ("snapshot.lgs.checkpoint_s", "snapshot.lgs.restore_s", "lgs.busy_s"),
        _ => ("snapshot.ideal.checkpoint_s", "snapshot.ideal.restore_s", "core.ideal_busy_s"),
    };
    let mut b = Timed::new(backend);
    let prefix = span("core.sim_s", || {
        let mut driver = SimDriver::start(goal, &mut b);
        let r = driver.run_until(&mut b, BRANCH_AT).map(|_| driver);
        b.charge_to(busy);
        r
    });
    let driver = match prefix {
        Ok(d) => d,
        Err(e) => return members.iter().map(|_| Err(e.to_string())).collect(),
    };
    let snapshot = span(ckpt_span, || b.checkpoint());
    members
        .iter()
        .map(|&i| {
            span(restore_span, || b.restore(&snapshot));
            span("branch.apply_s", || apply(&mut b.inner, &cells[i]));
            let report = span("core.sim_s", || {
                let r = driver.clone().finish(&mut b);
                b.charge_to(busy);
                r
            });
            observe(&b.inner);
            report.map_err(|e| e.to_string())
        })
        .collect()
}

impl Workload for WhatIf {
    fn iteration(&mut self, first: bool, corrupt: bool, checks: &mut Checks) -> Iter {
        let setup_s = if trace::enabled() {
            0.0
        } else {
            median((0..SETUP_REPS).map(|_| self.setup_pass()).collect())
        };

        let t0 = Instant::now();
        let cells = span("sweep.expand_s", || expand(&self.grid));
        let (mut results, stats) =
            span("branch.branched_s", || execute_branched(&cells, BRANCH_AT, threads()));
        if corrupt {
            let i = (self.grid.seed as usize) % results.len();
            results[i].makespan += 1;
        }
        let text = span("report.json_s", || {
            let doc =
                SweepReport { seed: self.grid.seed, results: results.clone(), branch: Some(stats) };
            let text = write_report("whatif_grid.json", &doc.to_json());
            count("report.bytes", text.len() as f64);
            text
        });
        let wall_s = t0.elapsed().as_secs_f64();

        checks.check(stats.prefix_runs == self.groups, || {
            format!("prefix_runs {} != {} prefix groups", stats.prefix_runs, self.groups)
        });
        count("branch.prefix_runs", stats.prefix_runs as f64);
        if first || corrupt || trace::enabled() {
            let straight = self.straight(&cells);
            for (b, s) in results.iter().zip(&straight) {
                checks.check(
                    results_json(0, std::slice::from_ref(b))
                        == results_json(0, std::slice::from_ref(s)),
                    || format!("{}: branched != straight", b.key),
                );
            }
        }
        if first {
            self.reference = Some(text);
        } else {
            checks.check(self.reference.as_deref() == Some(text.as_str()), || {
                "whatif_grid: report differs from the warm-up run".into()
            });
        }
        if trace::enabled() {
            cell_walls(&results);
            self.replica(&cells, &results, checks);
        }
        Iter { wall_s, setup_s, ops: results.iter().map(|r| r.tasks as u64).sum() }
    }

    fn goal_bytes_per_op(&self) -> f64 {
        self.bytes_per_op
    }
}
