//! `trace_replay`: the paper's toolchain path on LGS at trace scale.
//!
//! Two traced applications go trace text → `tracers` parse → `schedgen`
//! lowering → GOAL binary encode + decode → `Simulation::run` on
//! `LgsBackend` → JSON report: a Llama-7B DP16 training iteration (NCCL
//! trace, lowering-dominated) and a 512-rank HPCG run (MPI trace,
//! simulation-dominated). htsim does no work here.

use std::time::Instant;

use atlahs_bench::json::Json;
use atlahs_bench::workloads::{ai_lgs_params, hpc_lgs_params};
use atlahs_core::{SimReport, Simulation};
use atlahs_goal::{binary, stats, text, GoalSchedule};
use atlahs_lgs::{LgsBackend, LogGopsParams};
use atlahs_schedgen::{mpi2goal, nccl2goal};
use atlahs_tracers::mpi::{self, HpcAppConfig, MpiTrace, Scaling};
use atlahs_tracers::nccl::{presets, trace_llm, NsysReport};

use crate::trace::{count, span, Timed};
use crate::{write_report, Checks, Iter, Workload};

/// Model scale of the Llama-7B DP16 trace (1.0 is the paper's size).
const LLM_SCALE: f64 = 0.5;
const HPC_RANKS: usize = 512;
const HPC_ITERATIONS: u32 = 8;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Nccl,
    Mpi,
}

struct TraceInput {
    name: &'static str,
    kind: Kind,
    text: String,
    lgs: LogGopsParams,
    /// Reference outputs recorded by the warm-up iteration.
    goal: Option<GoalSchedule>,
    report: Option<String>,
}

pub struct Replay {
    traces: Vec<TraceInput>,
    bytes_per_op: f64,
}

impl Replay {
    pub fn new(seed: u64) -> Self {
        let mut llm = presets::llama7b_dp16(LLM_SCALE);
        llm.seed = seed;
        llm.iterations = 1;
        let nodes = llm.nodes() as usize;
        let hpc = HpcAppConfig {
            ranks: HPC_RANKS,
            iterations: HPC_ITERATIONS,
            scaling: Scaling::Weak,
            compute_ns: 200_000,
            halo_bytes: 64 << 10,
            noise: 0.02,
            seed,
        };
        let traces = vec![
            TraceInput {
                name: "llama7b-dp16",
                kind: Kind::Nccl,
                text: trace_llm(&llm).to_text(),
                lgs: ai_lgs_params(nodes),
                goal: None,
                report: None,
            },
            TraceInput {
                name: "hpcg-512",
                kind: Kind::Mpi,
                text: mpi::hpcg(&hpc).to_text(),
                lgs: hpc_lgs_params(),
                goal: None,
                report: None,
            },
        ];
        Replay { traces, bytes_per_op: 0.0 }
    }
}

/// Parse and lower one trace; returns the schedule or the error text.
fn lower(input: &TraceInput) -> Result<GoalSchedule, String> {
    count("tracers.trace_bytes", input.text.len() as f64);
    let goal = match input.kind {
        Kind::Nccl => {
            let report = span("tracers.parse_s", || NsysReport::parse(&input.text))?;
            span("schedgen.lower_s", || {
                nccl2goal::convert(&report, &nccl2goal::NcclToGoalConfig::default())
            })
        }
        Kind::Mpi => {
            let trace = span("tracers.parse_s", || MpiTrace::parse(&input.text))?;
            span("schedgen.lower_s", || {
                mpi2goal::convert(&trace, &mpi2goal::MpiToGoalConfig::default())
            })
        }
    };
    let goal = goal.map_err(|e| e.to_string())?;
    count("schedgen.ops_out", goal.total_tasks() as f64);
    count("goal.arena_bytes", goal.task_arena_bytes() as f64);
    Ok(goal)
}

fn report_json(name: &str, report: &SimReport, ops: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("perfbench-trace-replay-v1".into()));
    doc.set("trace", Json::Str(name.into()));
    doc.set("backend", Json::Str("lgs".into()));
    doc.set("ops", Json::Num(ops as f64));
    doc.set("completed", Json::Num(report.completed as f64));
    doc.set("makespan_ns", Json::Num(report.makespan as f64));
    doc.set(
        "rank_finish_ns",
        Json::Arr(report.rank_finish.iter().map(|&t| Json::Num(t as f64)).collect()),
    );
    doc
}

impl Workload for Replay {
    fn iteration(&mut self, first: bool, corrupt: bool, checks: &mut Checks) -> Iter {
        let mut it = Iter { wall_s: 0.0, setup_s: 0.0, ops: 0 };
        let mut bin_bytes = 0usize;
        let mut total_ops = 0usize;
        for input in &mut self.traces {
            let t0 = Instant::now();
            let goal = match lower(input) {
                Ok(g) => g,
                Err(e) => {
                    checks.check(false, || format!("{}: lowering failed: {e}", input.name));
                    continue;
                }
            };
            let mut bin = span("goal.encode_s", || binary::encode(&goal));
            count("goal.bin_bytes", bin.len() as f64);
            if corrupt && input.kind == Kind::Mpi {
                // A flipped byte inside the task section: decodes, but to
                // a different schedule.
                let i = bin.len() / 2;
                bin[i] ^= 0x01;
            }
            let decoded = span("goal.decode_s", || binary::decode(&bin));
            let mut backend = Timed::new(LgsBackend::new(input.lgs));
            it.setup_s += t0.elapsed().as_secs_f64();

            let run = decoded.map_err(|e| e.to_string()).and_then(|decoded| {
                span("core.sim_s", || {
                    let r = Simulation::new(&decoded).run(&mut backend);
                    backend.charge_to("lgs.busy_s");
                    r
                })
                .map(|r| (decoded, r))
                .map_err(|e| e.to_string())
            });
            let lgs = backend.inner.stats();
            count("lgs.messages", lgs.messages as f64);
            count("lgs.rendezvous", lgs.rendezvous_messages as f64);
            let (decoded, report) = match run {
                Ok(x) => x,
                Err(e) => {
                    checks.check(false, || {
                        format!("{}: decode or simulation failed: {e}", input.name)
                    });
                    it.wall_s += t0.elapsed().as_secs_f64();
                    continue;
                }
            };
            let text = span("report.json_s", || {
                let text = write_report(
                    &format!("trace_replay-{}.json", input.name),
                    &report_json(input.name, &report, decoded.total_tasks()),
                );
                count("report.bytes", text.len() as f64);
                text
            });
            it.wall_s += t0.elapsed().as_secs_f64();
            it.ops += report.completed as u64;
            bin_bytes += bin.len();
            total_ops += goal.total_tasks();

            // Output checks, outside the timed path.
            checks.check(true, String::new); // the simulation itself
            checks.check(decoded == goal, || {
                format!("{}: binary decode(encode(goal)) != goal", input.name)
            });
            checks.check(report.completed == goal.total_tasks(), || {
                format!(
                    "{}: {} of {} ops completed",
                    input.name,
                    report.completed,
                    goal.total_tasks()
                )
            });
            if first {
                input.report = Some(text);
                input.goal = Some(goal);
            } else {
                checks.check(input.report.as_deref() == Some(text.as_str()), || {
                    format!("{}: report differs from the warm-up run", input.name)
                });
            }
        }
        if first {
            self.bytes_per_op = bin_bytes as f64 / total_ops.max(1) as f64;
        }
        it
    }

    fn goal_bytes_per_op(&self) -> f64 {
        self.bytes_per_op
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        for input in &self.traces {
            // The trace codec: parse(text) renders back to the same text.
            let again = match input.kind {
                Kind::Nccl => NsysReport::parse(&input.text).map(|r| r.to_text()),
                Kind::Mpi => MpiTrace::parse(&input.text).map(|t| t.to_text()),
            };
            checks.check(again.as_deref() == Ok(input.text.as_str()), || {
                format!("{}: trace parse(to_text) is not the identity", input.name)
            });
            let Some(goal) = &input.goal else {
                checks.check(false, || format!("{}: no reference schedule", input.name));
                continue;
            };
            checks.check(stats::check_matching(goal).is_ok(), || {
                format!("{}: unmatched send/recv pairs", input.name)
            });
            if input.kind == Kind::Mpi {
                // The GOAL text codec, timed on the smaller schedule.
                let back = span("goal.text_roundtrip_s", || text::parse(&text::to_text(goal)));
                checks.check(back.as_ref() == Ok(goal), || {
                    format!("{}: GOAL text parse(to_text) != goal", input.name)
                });
            }
        }
    }
}
