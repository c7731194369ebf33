//! Compact binary GOAL encoding.
//!
//! GOAL schedules are "stored and executed in a compact binary format"
//! (paper §2.1). This module implements a varint-based encoding optimized for
//! the structure of real schedules:
//!
//! * LEB128 varints for all integers (sizes, peers, costs),
//! * one header byte per task with kind + presence flags for tag/stream,
//! * dependency edges grouped per dependent task, delta-encoded
//!   (`a` is non-decreasing; `a - b` is usually a small positive number).
//!
//! The trace-size results of Table 1 / Fig. 9 are measured on this encoding.

use bytes::{Buf, BufMut};

use crate::error::GoalError;
use crate::schedule::{GoalSchedule, RankSchedule};
use crate::task::{DepKind, Rank, Task, TaskId, TaskKind};

const MAGIC: &[u8; 8] = b"GOALB1\0\0";

const KIND_CALC: u8 = 0;
const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const FLAG_TAG: u8 = 1 << 2;
const FLAG_STREAM: u8 = 1 << 3;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8], offset: &mut usize) -> Result<u64, GoalError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(GoalError::Decode { offset: *offset, msg: "truncated varint".into() });
        }
        if shift >= 64 {
            return Err(GoalError::Decode { offset: *offset, msg: "varint overflow".into() });
        }
        let byte = buf.get_u8();
        *offset += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A varint that must fit a `u32` field (peer, tag, stream); `what` names
/// the field in the error.
#[inline]
fn get_u32(buf: &mut &[u8], offset: &mut usize, what: &str) -> Result<u32, GoalError> {
    let at = *offset;
    let v = get_varint(buf, offset)?;
    u32::try_from(v).map_err(|_| too_wide(at, what, v))
}

#[cold]
fn too_wide(offset: usize, what: &str, v: u64) -> GoalError {
    GoalError::Decode { offset, msg: format!("{what} {v} exceeds u32") }
}

/// Capacity for `count` decoded items of at least `min_bytes` each: never
/// more than the remaining input can hold, so a corrupt count cannot
/// trigger a huge allocation before the input runs out.
fn bounded_capacity(count: u64, buf: &[u8], min_bytes: usize) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX).min(buf.remaining() / min_bytes)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a schedule into the compact binary format.
pub fn encode(goal: &GoalSchedule) -> Vec<u8> {
    // Rough pre-size: ~6 bytes per task + ~3 per edge.
    let cap =
        16 + goal.ranks().iter().map(|r| 6 * r.num_tasks() + 3 * r.num_deps() + 10).sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(MAGIC);
    put_varint(&mut out, goal.num_ranks() as u64);
    for sched in goal.ranks() {
        put_varint(&mut out, sched.num_tasks() as u64);
        for t in sched.tasks() {
            encode_task(&mut out, &t);
        }
        put_varint(&mut out, sched.num_deps() as u64);
        let mut prev_a = 0u64;
        for (a, b, k) in sched.dep_edges() {
            // dep_edges yields edges grouped by `a` in increasing order.
            let a = a.0 as u64;
            put_varint(&mut out, a - prev_a);
            prev_a = a;
            let diff = zigzag(a as i64 - b.0 as i64);
            let kind_bit = match k {
                DepKind::Full => 0,
                DepKind::Start => 1,
            };
            put_varint(&mut out, (diff << 1) | kind_bit);
        }
    }
    out
}

fn encode_task(out: &mut Vec<u8>, t: &Task) {
    let (kind, tag) = match t.kind {
        TaskKind::Calc { .. } => (KIND_CALC, 0),
        TaskKind::Send { tag, .. } => (KIND_SEND, tag),
        TaskKind::Recv { tag, .. } => (KIND_RECV, tag),
    };
    let mut header = kind;
    if tag != 0 {
        header |= FLAG_TAG;
    }
    if t.stream != 0 {
        header |= FLAG_STREAM;
    }
    out.put_u8(header);
    match t.kind {
        TaskKind::Calc { cost } => put_varint(out, cost),
        TaskKind::Send { bytes, dst, .. } => {
            put_varint(out, bytes);
            put_varint(out, dst as u64);
        }
        TaskKind::Recv { bytes, src, .. } => {
            put_varint(out, bytes);
            put_varint(out, src as u64);
        }
    }
    if tag != 0 {
        put_varint(out, tag as u64);
    }
    if t.stream != 0 {
        put_varint(out, t.stream as u64);
    }
}

/// Decode a schedule from the compact binary format.
pub fn decode(data: &[u8]) -> Result<GoalSchedule, GoalError> {
    let mut buf = data;
    let mut offset = 0usize;
    if buf.remaining() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(GoalError::Decode { offset: 0, msg: "bad magic".into() });
    }
    buf.advance(MAGIC.len());
    offset += MAGIC.len();

    // Every rank, task and edge takes at least 2 bytes (a rank: its task
    // and edge counts; a task: header + payload; an edge: two varints).
    let num_ranks = get_varint(&mut buf, &mut offset)?;
    let mut ranks = Vec::with_capacity(bounded_capacity(num_ranks, buf, 2));
    for r in 0..num_ranks {
        let num_tasks = get_varint(&mut buf, &mut offset)?;
        let mut tasks = Vec::with_capacity(bounded_capacity(num_tasks, buf, 2));
        for _ in 0..num_tasks {
            tasks.push(decode_task(&mut buf, &mut offset)?);
        }
        let num_deps = get_varint(&mut buf, &mut offset)?;
        let mut deps = Vec::with_capacity(bounded_capacity(num_deps, buf, 2));
        let mut prev_a = 0u64;
        for _ in 0..num_deps {
            let a = prev_a.saturating_add(get_varint(&mut buf, &mut offset)?);
            prev_a = a;
            let packed = get_varint(&mut buf, &mut offset)?;
            let kind = if packed & 1 == 1 { DepKind::Start } else { DepKind::Full };
            if a > u32::MAX as u64 {
                return Err(GoalError::Decode { offset, msg: "edge index out of range".into() });
            }
            // |diff| <= 2^62 and a < 2^32, so this cannot overflow.
            let b = a as i64 - unzigzag(packed >> 1);
            if b < 0 || b > u32::MAX as i64 {
                return Err(GoalError::Decode { offset, msg: "edge index out of range".into() });
            }
            deps.push((TaskId(a as u32), TaskId(b as u32), kind));
        }
        ranks.push(RankSchedule::from_parts(r as Rank, tasks, &deps)?);
    }
    if buf.has_remaining() {
        return Err(GoalError::Decode { offset, msg: "trailing bytes".into() });
    }
    Ok(GoalSchedule::new(ranks))
}

fn decode_task(buf: &mut &[u8], offset: &mut usize) -> Result<Task, GoalError> {
    if !buf.has_remaining() {
        return Err(GoalError::Decode { offset: *offset, msg: "truncated task header".into() });
    }
    let header = buf.get_u8();
    *offset += 1;
    let kind_code = header & 0x3;
    let kind = match kind_code {
        KIND_CALC => {
            let cost = get_varint(buf, offset)?;
            TaskKind::Calc { cost }
        }
        KIND_SEND => {
            let bytes = get_varint(buf, offset)?;
            let dst = get_u32(buf, offset, "peer")?;
            TaskKind::Send { bytes, dst, tag: 0 }
        }
        KIND_RECV => {
            let bytes = get_varint(buf, offset)?;
            let src = get_u32(buf, offset, "peer")?;
            TaskKind::Recv { bytes, src, tag: 0 }
        }
        _ => {
            return Err(GoalError::Decode {
                offset: *offset,
                msg: format!("unknown task kind {kind_code}"),
            })
        }
    };
    let tag = if header & FLAG_TAG != 0 { get_u32(buf, offset, "tag")? } else { 0 };
    let stream = if header & FLAG_STREAM != 0 { get_u32(buf, offset, "stream")? } else { 0 };
    let kind = match kind {
        TaskKind::Send { bytes, dst, .. } => TaskKind::Send { bytes, dst, tag },
        TaskKind::Recv { bytes, src, .. } => TaskKind::Recv { bytes, src, tag },
        c => c,
    };
    Ok(Task { kind, stream })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoalBuilder;

    fn sample() -> GoalSchedule {
        let mut b = GoalBuilder::new(3);
        let c0 = b.calc(0, 1_000_000);
        let s0 = b.send(0, 1, 4096, 7);
        b.requires(0, s0, c0);
        let r1 = b.recv(1, 0, 4096, 7);
        let s1 = b.send_on(1, 2, 128, 0, 3);
        b.irequires(1, s1, r1);
        b.recv(2, 1, 128, 0);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip() {
        let goal = sample();
        let data = encode(&goal);
        let back = decode(&data).unwrap();
        assert_eq!(goal, back);
    }

    #[test]
    fn magic_checked() {
        let mut data = encode(&sample());
        data[0] = b'X';
        assert!(matches!(decode(&data), Err(GoalError::Decode { .. })));
    }

    #[test]
    fn truncation_detected() {
        let data = encode(&sample());
        for cut in [3, 9, data.len() - 1] {
            assert!(decode(&data[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut data = encode(&sample());
        data.push(0);
        assert!(matches!(decode(&data), Err(GoalError::Decode { .. })));
    }

    #[test]
    fn empty_schedule_roundtrips() {
        let goal = GoalBuilder::new(4).build().unwrap();
        let back = decode(&encode(&goal)).unwrap();
        assert_eq!(goal, back);
    }

    #[test]
    fn compactness_small_tasks() {
        // A calc with small cost should take 2 bytes (header + varint).
        let mut b = GoalBuilder::new(1);
        b.calc(0, 5);
        let goal = b.build().unwrap();
        let data = encode(&goal);
        // magic(8) + num_ranks(1) + num_tasks(1) + task(2) + num_deps(1)
        assert_eq!(data.len(), 13);
    }

    /// `MAGIC` followed by `rest`.
    fn framed(rest: &[u8]) -> Vec<u8> {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(rest);
        data
    }

    fn decode_error(data: &[u8]) -> (usize, String) {
        match decode(data) {
            Err(GoalError::Decode { offset, msg }) => (offset, msg),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn huge_counts_fail_cleanly_instead_of_allocating() {
        // 17 bytes: a 9-byte varint claiming ~2^63 ranks, then nothing.
        let data = framed(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(data.len(), 17);
        assert_eq!(decode_error(&data), (17, "truncated varint".into()));
        // One rank claiming ~2^49 tasks.
        let data = framed(&[1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(decode_error(&data), (16, "truncated task header".into()));
        // One rank, no tasks, ~2^42 edges.
        let data = framed(&[1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(decode_error(&data), (16, "truncated varint".into()));
    }

    #[test]
    fn u32_fields_reject_wider_varints() {
        let too_wide = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
                                                       // A send to peer 2^32 (header SEND, 1 byte, peer).
        let mut rest = vec![1, 1, KIND_SEND, 1];
        rest.extend_from_slice(&too_wide);
        assert_eq!(decode_error(&framed(&rest)), (12, "peer 4294967296 exceeds u32".into()));
        // A calc carrying tag 2^32, and one on stream 2^32.
        let mut rest = vec![1, 1, KIND_CALC | FLAG_TAG, 5];
        rest.extend_from_slice(&too_wide);
        assert_eq!(decode_error(&framed(&rest)), (12, "tag 4294967296 exceeds u32".into()));
        let mut rest = vec![1, 1, KIND_CALC | FLAG_STREAM, 5];
        rest.extend_from_slice(&too_wide);
        assert_eq!(decode_error(&framed(&rest)), (12, "stream 4294967296 exceeds u32".into()));
    }

    #[test]
    fn overflowing_edge_deltas_fail_cleanly() {
        // Two tasks; the second edge's delta pushes `a` past u64::MAX.
        let mut rest = vec![1, 2, KIND_CALC, 1, KIND_CALC, 1, 2, 1, 2];
        rest.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        rest.push(2);
        let (offset, msg) = decode_error(&framed(&rest));
        assert_eq!((offset, msg.as_str()), (28, "edge index out of range"));
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            let mut off = 0;
            assert_eq!(get_varint(&mut slice, &mut off).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
