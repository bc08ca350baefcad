//! Spans recorded by the benchmark around its calls into each layer, their
//! self times, and the [`Timed`] program wrapper that attributes the time
//! spent generating operations to the `workloads` layer.
//!
//! Spans are taken from outside the crates: each one brackets a call the
//! benchmark makes (`System::run`, `explore_jobs`, `figure4`, ...). Time a
//! layer spends inside such a call shows up as that span's self time.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use logtm_se::{Op, ProgCtx, ThreadProgram};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One bracketed call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.run`; the part before the dot is the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, shared by every thread of a traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<TracerState>,
}

#[derive(Debug, Default)]
struct TracerState {
    rep: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::default(),
        }
    }
}

impl Tracer {
    fn state(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Later spans belong to repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.state().rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.origin))
    }

    /// Records a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        let rep = st.rep;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
        });
        st.spans.len() - 1
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.state().spans[id].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Runs `f` inside a span named `name` when `tracer` is set; `f` receives
/// the span's id to parent its own spans on.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, parent);
            let out = f(Some(id));
            t.close(id);
            out
        }
    }
}

/// Each span's duration minus the part of it that its children cover
/// (children clipped to the parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Host time of one wrapped program, collected when the program is dropped.
#[derive(Debug, Clone, Default)]
pub struct ProgramTimes {
    /// Start of the first `next_op` call and end of the last one.
    pub first: Option<Instant>,
    pub last: Option<Instant>,
    /// Time spent inside the wrapped program's `next_op`.
    pub next_op_ns: u64,
    pub next_op_calls: u64,
    /// Host time from a transaction's first `TxBegin` (retries included)
    /// to the call after its commit succeeded.
    pub commit_latency_ns: Vec<u64>,
}

/// Where [`Timed`] programs deliver their [`ProgramTimes`].
pub type TimesSink = Arc<Mutex<Vec<ProgramTimes>>>;

/// Forwards every call to the wrapped program and times `next_op`.
pub struct Timed {
    inner: Box<dyn ThreadProgram>,
    sink: TimesSink,
    times: ProgramTimes,
    depth: usize,
    tx_start: Option<Instant>,
    committing: bool,
}

impl Timed {
    pub fn wrap(inner: Box<dyn ThreadProgram>, sink: &TimesSink) -> Box<dyn ThreadProgram> {
        Box::new(Timed {
            inner,
            sink: Arc::clone(sink),
            times: ProgramTimes::default(),
            depth: 0,
            tx_start: None,
            committing: false,
        })
    }
}

impl ThreadProgram for Timed {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        let start = Instant::now();
        // Without an abort since the commit was issued, the commit held.
        if std::mem::take(&mut self.committing) {
            if let Some(begun) = self.tx_start.take() {
                self.times
                    .commit_latency_ns
                    .push(nanos(start.saturating_duration_since(begun)));
            }
        }
        let op = self.inner.next_op(t);
        let end = Instant::now();
        self.times.next_op_ns += nanos(end.saturating_duration_since(start));
        self.times.next_op_calls += 1;
        self.times.first.get_or_insert(start);
        self.times.last = Some(end);
        match op {
            Op::TxBegin | Op::TxBeginOpen => {
                if self.depth == 0 {
                    self.tx_start.get_or_insert(end);
                }
                self.depth += 1;
            }
            Op::TxCommit => {
                self.depth = self.depth.saturating_sub(1);
                self.committing = self.depth == 0;
            }
            _ => {}
        }
        op
    }

    fn on_tx_abort(&mut self, t: &mut ProgCtx) {
        // The retry re-issues TxBegin; `tx_start` stays, so latency spans retries.
        self.depth = 0;
        self.committing = false;
        self.inner.on_tx_abort(t);
    }

    fn on_partial_abort(&mut self, t: &mut ProgCtx, remaining_depth: usize) -> bool {
        let rewound = self.inner.on_partial_abort(t, remaining_depth);
        if rewound {
            self.depth = remaining_depth;
        }
        rewound
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned sink means a worker already panicked; that run fails
        // on its own, so its times are dropped rather than panicking here.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.times));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logtm_se::substrates::sim::rng::Xoshiro256StarStar;
    use logtm_se::{Cycle, ScriptOp, TxScript, WordAddr};

    fn mk(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            mk("sim.explore", 0, 100, None),
            mk("core.run", 10, 40, Some(0)),
            // Overlaps the first child: the overlap counts once.
            mk("core.run", 30, 60, Some(0)),
            // Runs past its parent's end: only the inside part counts.
            mk("mem.oracle_finish", 90, 120, Some(0)),
            mk("workloads.next_op", 10, 15, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 30, 5]);
        assert_eq!(spans[4].layer(), "workloads");
    }

    #[test]
    fn span_helper_nests_and_is_free_when_off() {
        let t = Tracer::default();
        t.set_rep(3);
        let inner = span(Some(&t), "core.run", None, |id| {
            span(Some(&t), "core.build", id, |child| child)
        });
        let spans = t.spans();
        assert_eq!(inner, Some(1));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert_eq!(span(None, "core.run", None, |id| id), None);
    }

    fn drive(p: &mut dyn ThreadProgram, last_value: u64) -> Op {
        let mut rng = Xoshiro256StarStar::new(0);
        let mut ctx = ProgCtx {
            thread_id: 0,
            last_value,
            now: Cycle(0),
            rng: &mut rng,
        };
        p.next_op(&mut ctx)
    }

    fn abort(p: &mut dyn ThreadProgram) {
        let mut rng = Xoshiro256StarStar::new(0);
        let mut ctx = ProgCtx {
            thread_id: 0,
            last_value: 0,
            now: Cycle(0),
            rng: &mut rng,
        };
        p.on_tx_abort(&mut ctx);
    }

    #[test]
    fn timed_forwards_every_call_and_counts_commits() {
        let script = || {
            TxScript::new(vec![
                vec![
                    ScriptOp::AddTo(WordAddr(8), 2),
                    ScriptOp::Read(WordAddr(16)),
                ],
                vec![ScriptOp::FetchAdd(WordAddr(8), 1)],
            ])
        };
        let sink = TimesSink::default();
        let mut plain = script();
        let mut timed = Timed::wrap(Box::new(script()), &sink);
        // Abort the first transaction after its first read, in both.
        for p in [&mut plain as &mut dyn ThreadProgram, timed.as_mut()] {
            assert_eq!(drive(p, 0), Op::TxBegin);
            assert_eq!(drive(p, 0), Op::Read(WordAddr(8)));
            abort(p);
        }
        let mut ops = Vec::new();
        loop {
            let (a, b) = (drive(&mut plain, 40), drive(timed.as_mut(), 40));
            assert_eq!(a, b, "the wrapper changes no operation");
            ops.push(a);
            if a == Op::Done {
                break;
            }
        }
        assert_eq!(ops.iter().filter(|&&o| o == Op::TxCommit).count(), 2);
        drop(timed);
        let times = sink.lock().unwrap();
        assert_eq!(times.len(), 1);
        assert_eq!(times[0].next_op_calls, 2 + ops.len() as u64);
        assert_eq!(
            times[0].commit_latency_ns.len(),
            2,
            "one latency per commit, retries folded in"
        );
        assert!(times[0].first.unwrap() <= times[0].last.unwrap());
    }
}
