//! The four-stage NCCL-trace → GOAL pipeline (paper §3.1.2, Fig. 5).
//!
//! * **Stage 1** — profiling — is the tracer (`atlahs_tracers::nccl`): nsys
//!   reports with per-stream NCCL kernels and NVTX communicator info.
//! * **Stage 2** — per-GPU stream DAGs: kernels on one CUDA stream are
//!   linked sequentially; the timestamp gap between consecutive kernels
//!   becomes inferred computation; distinct streams get distinct GOAL
//!   compute streams so they overlap in simulation.
//! * **Stage 3** — collective decomposition: every kernel instance is
//!   replaced by its NCCL schedule (ring/tree × protocol × channels) from
//!   `atlahs_collectives::nccl`; instance correspondence uses NCCL's
//!   ordering guarantee (the k-th collective on a communicator is the same
//!   instance on every member).
//! * **Stage 4** — GPU→node grouping: GPU DAGs merge into one DAG per node
//!   (each GPU keeps a private compute-stream range); sends/recvs between
//!   GPUs of the same node are replaced by `calc` vertices costed from the
//!   intra-node (NVLink-class) bandwidth, with an explicit dependency edge
//!   preserving the data flow. Passing a different `gpus_per_node`
//!   restructures the job for "what-if" studies.

use std::collections::{BTreeMap, HashMap};

use atlahs_collectives::nccl::{self as nc, NcclConfig};
use atlahs_eventq::hash::FastBuildHasher;
use atlahs_goal::{GoalBuilder, GoalError, GoalSchedule, Rank, Task, TaskId, TaskKind};
use atlahs_tracers::nccl::{KernelRecord, NcclKernel, NsysReport};

/// Converter configuration.
#[derive(Debug, Clone)]
pub struct NcclToGoalConfig {
    /// NCCL schedule parameters (algorithm, protocol, channels, chunking).
    pub nccl: NcclConfig,
    /// Override the report's GPUs-per-node for what-if restructuring.
    pub gpus_per_node: Option<u32>,
    /// Intra-node transfer cost: base + per-byte (NVLink-class default:
    /// 150 GB/s ≈ 0.0067 ns/B).
    pub intra_base_ns: u64,
    // det-lint: allow(float) — NVLink ns/B cost parameter, one fixed-order multiply then integer cast
    pub intra_ns_per_byte: f64,
    /// Allreduces on communicators larger than this switch from Ring to
    /// Tree, mirroring NCCL's own size-based `NCCL_ALGO` heuristic
    /// (rings over very large communicators pay O(k) latency per chunk
    /// and O(k²) schedule size). `0` disables the switch.
    pub tree_threshold: usize,
}

impl Default for NcclToGoalConfig {
    fn default() -> Self {
        NcclToGoalConfig {
            nccl: NcclConfig::default(),
            gpus_per_node: None,
            intra_base_ns: 1_000,
            // det-lint: allow(float) — NVLink ns/B cost parameter, one fixed-order multiply then integer cast
            intra_ns_per_byte: 1.0 / 150.0,
            // Disabled by default: the bandwidth-regime buckets the LLM
            // tracers emit keep NCCL in its ring regime; set a threshold
            // for latency-bound workloads with very large communicators.
            tree_threshold: 0,
        }
    }
}

/// Stream-id stride separating GPUs merged onto one node (Stage 4).
const STREAM_STRIDE: u32 = 16;

/// Convert an nsys report into a node-level GOAL schedule.
pub fn convert(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalSchedule, GoalError> {
    let gpu_goal = gpu_level(report, cfg)?;
    let gpn = cfg.gpus_per_node.unwrap_or(report.gpus_per_node).max(1);
    let mapping: Vec<u32> = (0..report.num_gpus() as u32).map(|g| g / gpn).collect();
    group_gpus(&gpu_goal, &mapping, cfg)
}

/// Stages 2+3: a GOAL schedule with one rank per **GPU**.
pub fn gpu_level(report: &NsysReport, cfg: &NcclToGoalConfig) -> Result<GoalSchedule, GoalError> {
    let ngpus = report.num_gpus();
    let mut b = GoalBuilder::new(ngpus);
    // ports[gpu][record index] = (entry, exit) vertices of its decomposition.
    let mut ports: Vec<Vec<Option<(TaskId, TaskId)>>> =
        report.gpus.iter().map(|g| vec![None; g.records.len()]).collect();
    let mut next_tag: u32 = 0;

    // ---- Stage 3a: collective instances per communicator ----
    let comm_members: HashMap<u32, &[u32], FastBuildHasher> =
        report.comms.iter().map(|c| (c.id, c.gpus.as_slice())).collect();
    // comm id -> per-member ordered record indices. Iterated below, so
    // ordered: builder vertex ids must not depend on bucket layout.
    let mut instances: BTreeMap<u32, Vec<Vec<usize>>> = BTreeMap::new();
    for (gi, g) in report.gpus.iter().enumerate() {
        for (ri, rec) in g.records.iter().enumerate() {
            if matches!(rec.kernel, NcclKernel::Send { .. } | NcclKernel::Recv { .. }) {
                continue;
            }
            let members = comm_members.get(&rec.comm).ok_or_else(|| GoalError::Compose {
                msg: format!("record references unknown communicator {}", rec.comm),
            })?;
            let pos =
                members.iter().position(|&m| m == gi as u32).ok_or_else(|| GoalError::Compose {
                    msg: format!("gpu {gi} not a member of communicator {}", rec.comm),
                })?;
            let lists =
                instances.entry(rec.comm).or_insert_with(|| vec![Vec::new(); members.len()]);
            lists[pos].push(ri);
        }
    }
    for (&comm, lists) in &instances {
        let members = comm_members[&comm];
        let count = lists[0].len();
        if lists.iter().any(|l| l.len() != count) {
            return Err(GoalError::Compose {
                msg: format!("communicator {comm}: members disagree on collective count"),
            });
        }
        for i in 0..count {
            // The member records of this instance.
            let recs: Vec<&KernelRecord> = members
                .iter()
                .zip(lists.iter())
                .map(|(&g, list)| &report.gpus[g as usize].records[list[i]])
                .collect();
            let k0 = recs[0].kernel;
            if recs.iter().any(|r| std::mem::discriminant(&r.kernel) != std::mem::discriminant(&k0))
            {
                return Err(GoalError::Compose {
                    msg: format!("communicator {comm}: instance {i} kernel mismatch"),
                });
            }
            let mut ncfg = cfg.nccl;
            ncfg.stream = recs[0].stream;
            if cfg.tree_threshold > 0 && members.len() > cfg.tree_threshold {
                ncfg.algorithm = nc::NcclAlgo::Tree;
            }
            let tag = alloc_tag(&mut next_tag);
            let bytes = recs[0].bytes;
            let p = match k0 {
                NcclKernel::AllReduce => nc::allreduce(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::Broadcast { root } => {
                    let root_pos = members.iter().position(|&m| m == root).unwrap_or(0);
                    nc::broadcast(&mut b, members, bytes, root_pos, tag, &ncfg)
                }
                NcclKernel::AllGather => nc::allgather(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::ReduceScatter => nc::reduce_scatter(&mut b, members, bytes, tag, &ncfg),
                NcclKernel::AllToAll => {
                    nc::alltoall(&mut b, members, bytes / members.len() as u64, tag, &ncfg)
                }
                NcclKernel::Send { .. } | NcclKernel::Recv { .. } => unreachable!(),
            };
            for (m, &g) in members.iter().enumerate() {
                ports[g as usize][lists[m][i]] = Some((p.entry[m], p.exit[m]));
            }
        }
    }

    // ---- Stage 3b: point-to-point kernel pairs ----
    // (src, dst) -> (ordered send record idxs, ordered recv record idxs),
    // ordered because the pairs are walked to mint tags and vertices.
    let mut p2p: BTreeMap<(u32, u32), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (gi, g) in report.gpus.iter().enumerate() {
        for (ri, rec) in g.records.iter().enumerate() {
            match rec.kernel {
                NcclKernel::Send { peer } => {
                    p2p.entry((gi as u32, peer)).or_default().0.push(ri);
                }
                NcclKernel::Recv { peer } => {
                    p2p.entry((peer, gi as u32)).or_default().1.push(ri);
                }
                _ => {}
            }
        }
    }
    for (&(src, dst), (sends, recvs)) in &p2p {
        if sends.len() != recvs.len() {
            return Err(GoalError::Compose {
                msg: format!("p2p {src}->{dst}: {} sends but {} recvs", sends.len(), recvs.len()),
            });
        }
        for (&sk, &rk) in sends.iter().zip(recvs) {
            let bytes = report.gpus[src as usize].records[sk].bytes;
            let mut ncfg = cfg.nccl;
            ncfg.stream = report.gpus[src as usize].records[sk].stream;
            ncfg.launch_ns = 0; // launch charged via the stream-gap calc
            let tag = alloc_tag(&mut next_tag);
            let (se, sx, re, rx) = nc::p2p(&mut b, src, dst, bytes, tag, &ncfg);
            ports[src as usize][sk] = Some((se, sx));
            ports[dst as usize][rk] = Some((re, rx));
        }
    }

    // ---- Stage 2: stream chains with inferred computation ----
    for (gi, g) in report.gpus.iter().enumerate() {
        // last (exit, tend) per stream; lookup-only, never iterated
        let mut last: HashMap<u32, (TaskId, u64), FastBuildHasher> =
            HashMap::with_hasher(FastBuildHasher::default());
        for (ri, (rec, port)) in g.records.iter().zip(&ports[gi]).enumerate() {
            let (entry, exit) = port.ok_or_else(|| GoalError::Compose {
                msg: format!("gpu {gi} record {ri} lost its ports"),
            })?;
            match last.get(&rec.stream) {
                Some(&(prev_exit, prev_end)) => {
                    let gap = rec.tstart.saturating_sub(prev_end);
                    if gap > 0 {
                        let c = b.calc_on(gi as Rank, gap, rec.stream);
                        b.requires(gi as Rank, c, prev_exit);
                        b.requires(gi as Rank, entry, c);
                    } else {
                        b.requires(gi as Rank, entry, prev_exit);
                    }
                }
                None => {
                    // Leading computation before the stream's first kernel.
                    if rec.tstart > 0 {
                        let c = b.calc_on(gi as Rank, rec.tstart, rec.stream);
                        b.requires(gi as Rank, entry, c);
                    }
                }
            }
            last.insert(rec.stream, (exit, rec.tend));
        }
    }

    b.build()
}

fn alloc_tag(next: &mut u32) -> u32 {
    let t = *next;
    *next += 64; // room for per-channel tag offsets
    t
}

/// Stage 4: merge GPU ranks into node ranks.
///
/// `mapping[g]` is the node of GPU `g`. Streams are offset per GPU so they
/// stay independent; intra-node sends/recvs become calc vertices joined by
/// an explicit dependency edge (the NVLink copy).
///
/// GPUs are visited in order and each GPU's tasks are appended to its node
/// contiguously, so GPU task `i` becomes node task `base + i`, where `base`
/// is the node's task count when the GPU starts: the remap is arithmetic.
pub fn group_gpus(
    gpu_goal: &GoalSchedule,
    mapping: &[u32],
    cfg: &NcclToGoalConfig,
) -> Result<GoalSchedule, GoalError> {
    let ngpus = gpu_goal.num_ranks();
    assert_eq!(mapping.len(), ngpus, "mapping must cover every GPU");
    let nnodes = mapping.iter().copied().max().map_or(0, |m| m as usize + 1);
    // GPUs merged into each node so far: the next one's local index.
    let mut merged = vec![0u32; nnodes];

    let mut b = GoalBuilder::new(nnodes);
    // Intra-node transfer ends as ((src_gpu, dst_gpu, tag), new id), in
    // visit order; paired after the merge.
    let mut intra_sends: Vec<((u32, u32, u32), TaskId)> = Vec::new();
    let mut intra_recvs: Vec<((u32, u32, u32), TaskId)> = Vec::new();

    for g in 0..ngpus {
        let node = mapping[g];
        let sched = gpu_goal.rank(g as Rank);
        let base = b.num_tasks(node) as u32;
        let local = merged[node as usize];
        merged[node as usize] += 1;
        for (ti, t) in sched.tasks().enumerate() {
            let id = TaskId(base + ti as u32);
            let task = match t.kind {
                TaskKind::Calc { cost } => Task::calc(cost),
                TaskKind::Send { bytes, dst, tag } if mapping[dst as usize] == node => {
                    intra_sends.push(((g as u32, dst, tag), id));
                    // NVLink copy: sender-side cost carries the transfer.
                    // det-lint: allow(float) — NVLink ns/B cost parameter, one fixed-order multiply then integer cast
                    Task::calc(cfg.intra_base_ns + (bytes as f64 * cfg.intra_ns_per_byte) as u64)
                }
                // Tags gain the source GPU's low bits so merged node pairs
                // don't cross-match different GPU pairs.
                TaskKind::Send { bytes, dst, tag } => {
                    Task::send(mapping[dst as usize], bytes, (tag << 3) | (g as u32 & 7))
                }
                TaskKind::Recv { src, tag, .. } if mapping[src as usize] == node => {
                    intra_recvs.push(((src, g as u32, tag), id));
                    Task::calc(0)
                }
                TaskKind::Recv { bytes, src, tag } => {
                    Task::recv(mapping[src as usize], bytes, (tag << 3) | (src & 7))
                }
            };
            let added = b.add_task(node, task.on_stream(local * STREAM_STRIDE + t.stream));
            debug_assert_eq!(added, id, "a GPU's tasks are appended to its node contiguously");
        }
        // Intra-GPU dependency edges, shifted by `base`. Edge order fixes
        // the CSR layout: each node lists its GPUs' edges in GPU order,
        // then the intra-node data-flow edges below.
        for (a, dep, kind) in sched.dep_edges() {
            let (na, nb) = (TaskId(base + a.0), TaskId(base + dep.0));
            match kind {
                atlahs_goal::DepKind::Full => b.requires(node, na, nb),
                atlahs_goal::DepKind::Start => b.irequires(node, na, nb),
            }
        }
    }

    // Data-flow edges for intra-node transfers: keys in ascending order,
    // FIFO within a key. The sorts are stable, so within a key both sides
    // keep visit order and the k-th send pairs with the k-th recv. Recv
    // keys without a send are skipped.
    intra_sends.sort_by_key(|&(key, _)| key);
    intra_recvs.sort_by_key(|&(key, _)| key);
    let (mut sends, mut recvs) = (intra_sends.as_slice(), intra_recvs.as_slice());
    while let Some(&(key, _)) = sends.first() {
        let ns = sends.partition_point(|&(k, _)| k == key);
        recvs = &recvs[recvs.partition_point(|&(k, _)| k < key)..];
        let nr = recvs.partition_point(|&(k, _)| k == key);
        if nr == 0 {
            return Err(GoalError::Compose {
                msg: format!("intra-node send {key:?} has no matching recv"),
            });
        }
        if nr != ns {
            return Err(GoalError::Compose {
                msg: format!("intra-node pair {key:?}: send/recv count mismatch"),
            });
        }
        let node = mapping[key.0 as usize];
        for (&(_, s), &(_, r)) in sends[..ns].iter().zip(&recvs[..nr]) {
            b.requires(node, r, s);
        }
        (sends, recvs) = (&sends[ns..], &recvs[nr..]);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_goal::stats::check_matching;
    use atlahs_tracers::nccl::{presets, trace_llm};

    fn small_llama() -> NsysReport {
        let mut cfg = presets::llama7b_dp16(0.01);
        cfg.iterations = 1;
        cfg.batch = 16;
        trace_llm(&cfg)
    }

    fn run(goal: &GoalSchedule) -> atlahs_core::SimReport {
        let mut be = IdealBackend::new(25.0, 1000);
        Simulation::new(goal).run(&mut be).expect("no deadlock")
    }

    #[test]
    fn gpu_level_matches_and_completes() {
        let rep = small_llama();
        let goal = gpu_level(&rep, &NcclToGoalConfig::default()).unwrap();
        assert_eq!(goal.num_ranks(), 16);
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn node_level_has_node_ranks() {
        let rep = small_llama();
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        assert_eq!(goal.num_ranks(), 4, "16 GPUs / 4 per node");
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn what_if_regrouping_changes_node_count() {
        let rep = small_llama();
        let cfg = NcclToGoalConfig { gpus_per_node: Some(2), ..NcclToGoalConfig::default() };
        let goal = convert(&rep, &cfg).unwrap();
        assert_eq!(goal.num_ranks(), 8, "16 GPUs / 2 per node");
        run(&goal);
    }

    #[test]
    fn intra_node_traffic_becomes_calc() {
        // All 16 GPUs on ONE node: no sends should remain.
        let rep = small_llama();
        let cfg = NcclToGoalConfig { gpus_per_node: Some(16), ..NcclToGoalConfig::default() };
        let goal = convert(&rep, &cfg).unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        assert_eq!(stats.sends, 0, "single node: everything is NVLink");
        assert_eq!(goal.num_ranks(), 1);
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn fewer_gpus_per_node_means_more_wire_bytes() {
        let rep = small_llama();
        let bytes_at = |gpn: u32| {
            let cfg = NcclToGoalConfig { gpus_per_node: Some(gpn), ..NcclToGoalConfig::default() };
            let goal = convert(&rep, &cfg).unwrap();
            atlahs_goal::ScheduleStats::of(&goal).bytes_sent
        };
        assert!(bytes_at(1) >= bytes_at(4));
        assert!(bytes_at(4) >= bytes_at(8));
    }

    #[test]
    fn pp_traces_convert() {
        let mut c = presets::mistral8x7b(0.01);
        c.iterations = 1;
        c.batch = 8;
        let rep = trace_llm(&c);
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        check_matching(&goal).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
        assert_eq!(goal.num_ranks(), 16);
    }

    #[test]
    fn moe_traces_convert_with_tp_and_ep() {
        let mut c = presets::moe8x13b(0.01);
        c.iterations = 1;
        c.batch = 8;
        let rep = trace_llm(&c);
        let goal = convert(&rep, &NcclToGoalConfig::default()).unwrap();
        let r = run(&goal);
        assert_eq!(r.completed, goal.total_tasks());
    }

    #[test]
    fn stream_gaps_become_compute() {
        let rep = small_llama();
        let goal = gpu_level(&rep, &NcclToGoalConfig::default()).unwrap();
        let stats = atlahs_goal::ScheduleStats::of(&goal);
        // The backward-pass gaps recorded by the tracer must surface.
        assert!(stats.calc_ns > 1_000_000, "calc_ns = {}", stats.calc_ns);
    }

    #[test]
    fn conversion_is_byte_stable_across_runs() {
        // The converter walks several maps while minting tags, vertices
        // and dependency edges; all of them are ordered or lookup-only,
        // so two conversions of one report must encode identically.
        let rep = small_llama();
        let cfg = NcclToGoalConfig::default();
        let a = atlahs_goal::binary::encode(&convert(&rep, &cfg).unwrap());
        let b = atlahs_goal::binary::encode(&convert(&rep, &cfg).unwrap());
        assert_eq!(a, b, "node-level conversion must be byte-stable");
        let ga = atlahs_goal::binary::encode(&gpu_level(&rep, &cfg).unwrap());
        let gb = atlahs_goal::binary::encode(&gpu_level(&rep, &cfg).unwrap());
        assert_eq!(ga, gb, "gpu-level conversion must be byte-stable");
    }

    /// Stage 4 of a hand-built two-GPU schedule with both GPUs on node 0.
    fn group_on_one_node(gpus: impl FnOnce(&mut GoalBuilder)) -> Result<GoalSchedule, GoalError> {
        let mut b = GoalBuilder::new(2);
        gpus(&mut b);
        group_gpus(&b.build().unwrap(), &[0, 0], &NcclToGoalConfig::default())
    }

    fn compose_error(r: Result<GoalSchedule, GoalError>) -> String {
        match r {
            Err(GoalError::Compose { msg }) => msg,
            other => panic!("expected a Compose error, got {other:?}"),
        }
    }

    fn edges(goal: &GoalSchedule) -> Vec<(u32, u32)> {
        goal.rank(0).dep_edges().map(|(a, b, _)| (a.0, b.0)).collect()
    }

    #[test]
    fn same_key_nvlink_transfers_pair_in_fifo_order() {
        let goal = group_on_one_node(|b| {
            b.send(0, 1, 150_000, 5); // node task 0: 1 µs NVLink copy
            b.send(0, 1, 300_000, 5); // node task 1: 2 µs
            b.recv(1, 0, 150_000, 5); // node task 2
            b.recv(1, 0, 300_000, 5); // node task 3
        })
        .unwrap();
        let node = goal.rank(0);
        let costs: Vec<_> = node.tasks().map(|t| (t.kind, t.stream)).collect();
        assert_eq!(
            costs,
            [
                (TaskKind::Calc { cost: 2_000 }, 0),
                (TaskKind::Calc { cost: 3_000 }, 0),
                (TaskKind::Calc { cost: 0 }, STREAM_STRIDE),
                (TaskKind::Calc { cost: 0 }, STREAM_STRIDE),
            ]
        );
        assert_eq!(edges(&goal), [(2, 0), (3, 1)], "k-th recv waits for the k-th send");
    }

    #[test]
    fn intra_node_send_without_recv_is_rejected() {
        let err = compose_error(group_on_one_node(|b| {
            b.send(0, 1, 64, 5);
            b.recv(1, 0, 64, 6);
        }));
        assert_eq!(err, "intra-node send (0, 1, 5) has no matching recv");
    }

    #[test]
    fn intra_node_recv_without_send_stays_unpaired() {
        // Only sends drive pairing, so a recv key with no send (here tag 4,
        // sorting first) gets no edge.
        let goal = group_on_one_node(|b| {
            b.send(0, 1, 64, 5);
            b.recv(1, 0, 64, 4);
            b.recv(1, 0, 64, 5);
        })
        .unwrap();
        assert_eq!(edges(&goal), [(2, 0)]);
    }

    #[test]
    fn intra_node_count_mismatch_is_rejected() {
        let err = compose_error(group_on_one_node(|b| {
            b.send(0, 1, 64, 5);
            b.send(0, 1, 64, 5);
            b.recv(1, 0, 64, 5);
        }));
        assert_eq!(err, "intra-node pair (0, 1, 5): send/recv count mismatch");
        let err = compose_error(group_on_one_node(|b| {
            b.send(0, 1, 64, 5);
            b.recv(1, 0, 64, 5);
            b.recv(1, 0, 64, 5);
        }));
        assert_eq!(err, "intra-node pair (0, 1, 5): send/recv count mismatch");
    }

    #[test]
    fn interleaved_keys_pair_as_sorted_per_key_fifo() {
        let goal = group_on_one_node(|b| {
            // GPU 0 → node tasks 0..=6
            for tag in [2, 1, 2, 1, 3] {
                b.send(0, 1, 64, tag);
            }
            b.recv(0, 1, 64, 1);
            b.recv(0, 1, 64, 1);
            // GPU 1 → node tasks 7..=13
            for tag in [1, 1, 2, 3, 2] {
                b.recv(1, 0, 64, tag);
            }
            let s = b.send(1, 0, 64, 1);
            b.send(1, 0, 64, 1);
            b.requires(1, s, TaskId(0)); // GPU-local edge: node 12 requires node 7
        })
        .unwrap();
        // Per key in ascending order, FIFO within the key.
        let mut want = vec![
            (7, 1),  // (0, 1, 1) #1
            (8, 3),  // (0, 1, 1) #2
            (9, 0),  // (0, 1, 2) #1
            (11, 2), // (0, 1, 2) #2
            (10, 4), // (0, 1, 3)
            (5, 12), // (1, 0, 1) #1
            (6, 13), // (1, 0, 1) #2
            (12, 7), // the GPU-local edge, shifted by GPU 1's base
        ];
        want.sort_unstable();
        assert_eq!(edges(&goal), want);
    }

    #[test]
    fn protocol_choice_alters_wire_volume() {
        use atlahs_collectives::nccl::NcclProtocol;
        let rep = small_llama();
        let vol = |proto: NcclProtocol| {
            let mut cfg = NcclToGoalConfig::default();
            cfg.nccl.protocol = proto;
            let goal = convert(&rep, &cfg).unwrap();
            atlahs_goal::ScheduleStats::of(&goal).bytes_sent
        };
        assert!(vol(NcclProtocol::Ll) > vol(NcclProtocol::Simple) * 3 / 2);
    }
}
