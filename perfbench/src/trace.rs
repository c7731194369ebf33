//! Spans and counters recorded from the benchmark side of each layer
//! boundary, plus the timing [`Backend`] adapter.
//!
//! A span times one call into a layer's public function. Its *self time*
//! is its duration minus the part covered by nested spans (or by backend
//! busy time charged inside it with [`charge`]). Everything is kept per
//! thread in memory; the workload drivers call spans only from the main
//! thread, so per-iteration self times add up to the iteration's wall.
//! When tracing is off, [`span`] is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use atlahs_core::api::{Completion, EventKind};
use atlahs_core::{Backend, OpRef, Snapshot, Time};
use atlahs_goal::{Rank, Tag};

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

#[derive(Default)]
struct Recorder {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<Duration>,
    self_s: BTreeMap<&'static str, Duration>,
    total_s: BTreeMap<&'static str, Duration>,
    counters: BTreeMap<&'static str, f64>,
}

/// What one traced iteration recorded.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub self_s: BTreeMap<&'static str, f64>,
    pub total_s: BTreeMap<&'static str, f64>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Sample {
    pub fn total(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span's self time: the part of the iteration the
    /// layers account for.
    pub fn covered(&self) -> f64 {
        self.self_s.values().sum()
    }
}

pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Time `f` as span `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    REC.with(|r| r.borrow_mut().open.push(Duration::ZERO));
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let child = r.open.pop().expect("span stack is balanced");
        *r.self_s.entry(name).or_default() += dur.saturating_sub(child);
        *r.total_s.entry(name).or_default() += dur;
        if let Some(parent) = r.open.last_mut() {
            *parent += dur;
        }
    });
    out
}

/// Book `dur`, measured inside the innermost open span, as self time of
/// layer `name` instead of that span's.
pub fn charge(name: &'static str, dur: Duration) {
    if !enabled() {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        *r.self_s.entry(name).or_default() += dur;
        *r.total_s.entry(name).or_default() += dur;
        if let Some(parent) = r.open.last_mut() {
            *parent += dur;
        }
    });
}

/// Add `v` to counter `name`.
pub fn count(name: &'static str, v: f64) {
    if enabled() {
        REC.with(|r| *r.borrow_mut().counters.entry(name).or_default() += v);
    }
}

/// Take everything recorded since the last call.
pub fn take() -> Sample {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() inside an open span");
        let secs = |m: &mut BTreeMap<&'static str, Duration>| {
            std::mem::take(m).into_iter().map(|(k, v)| (k, v.as_secs_f64())).collect()
        };
        Sample {
            self_s: secs(&mut r.self_s),
            total_s: secs(&mut r.total_s),
            counters: std::mem::take(&mut r.counters),
        }
    })
}

/// The first `EXACT_CALLS` backend calls of a simulation are all timed;
/// after that one in `SAMPLE_EVERY` is (chosen by a fixed xorshift
/// stream, so periodic call patterns cannot alias with it) and the
/// sampled time is scaled up. Timing every call of a long simulation
/// would cost about as much as a fast backend call itself.
const EXACT_CALLS: u64 = 4096;
const SAMPLE_EVERY: u64 = 8;

/// The cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// every timed call: the minimum over back-to-back pairs.
fn timer_cost() -> Duration {
    thread_local! {
        static COST: Duration = (0..2_000)
            .map(|_| Instant::now().elapsed())
            .min()
            .unwrap_or(Duration::ZERO);
    }
    COST.with(|c| *c)
}

/// A [`Backend`] wrapper that times the calls into the backend (all of
/// the first [`EXACT_CALLS`], a random sample after) and counts issues
/// and completions. The scheduler's own time is the enclosing span minus
/// the estimated busy time. With tracing off it only forwards.
pub struct Timed<B> {
    pub inner: B,
    on: bool,
    exact: Duration,
    sampled: Duration,
    calls: u64,
    timed: u64,
    rng: u64,
    cost: Duration,
    issues: u64,
    completions: u64,
}

impl<B> Timed<B> {
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            on: enabled(),
            exact: Duration::ZERO,
            sampled: Duration::ZERO,
            calls: 0,
            timed: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            cost: timer_cost(),
            issues: 0,
            completions: 0,
        }
    }

    /// Estimated time spent inside the backend so far.
    pub fn busy(&self) -> Duration {
        let rest = self.calls.saturating_sub(EXACT_CALLS);
        if self.timed == 0 {
            return self.exact;
        }
        self.exact + self.sampled.mul_f64(rest as f64 / self.timed as f64)
    }

    /// Book the backend time as layer `layer` and the counts as `core.*`,
    /// then start counting afresh.
    pub fn charge_to(&mut self, layer: &'static str) {
        charge(layer, self.busy());
        count("core.issues", self.issues as f64);
        count("core.completions", self.completions as f64);
        (self.exact, self.sampled) = (Duration::ZERO, Duration::ZERO);
        (self.calls, self.timed, self.issues, self.completions) = (0, 0, 0, 0);
    }

    fn timed_call<T>(&mut self, f: impl FnOnce(&mut B) -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        (out, t0.elapsed().saturating_sub(self.cost))
    }

    #[inline]
    fn call<T>(&mut self, f: impl FnOnce(&mut B) -> T) -> T {
        if !self.on {
            return f(&mut self.inner);
        }
        self.calls += 1;
        if self.calls <= EXACT_CALLS {
            let (out, d) = self.timed_call(f);
            self.exact += d;
            return out;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if !self.rng.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let (out, d) = self.timed_call(f);
        self.sampled += d;
        self.timed += 1;
        out
    }
}

impl<B: Backend> Backend for Timed<B> {
    fn simulation_setup(&mut self, num_ranks: usize) {
        if !self.on {
            return self.inner.simulation_setup(num_ranks);
        }
        let (_, d) = self.timed_call(|b| b.simulation_setup(num_ranks));
        self.exact += d;
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
        self.issues += 1;
        self.call(|b| b.send(op, dst, bytes, tag));
    }

    fn recv(&mut self, op: OpRef, src: Rank, bytes: u64, tag: Tag) {
        self.issues += 1;
        self.call(|b| b.recv(op, src, bytes, tag));
    }

    fn calc(&mut self, op: OpRef, cost: u64) {
        self.issues += 1;
        self.call(|b| b.calc(op, cost));
    }

    fn next_event(&mut self) -> Option<Completion> {
        let ev = self.call(|b| b.next_event());
        if matches!(ev, Some(Completion { kind: EventKind::Done, .. })) {
            self.completions += 1;
        }
        ev
    }
}

impl<B: Snapshot> Snapshot for Timed<B> {
    type State = B::State;

    fn checkpoint(&self) -> B::State {
        self.inner.checkpoint()
    }

    fn restore(&mut self, state: &B::State) {
        self.inner.restore(state)
    }
}
