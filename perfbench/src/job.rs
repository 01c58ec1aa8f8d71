//! One job: source text → restructured, loaded program → pool run →
//! verified answer, with every public call wrapped in a span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use curare::analysis::analyze_program;
use curare::lisp::{vm_stats, Engine, Heap, Interp, Lowerer};
use curare::obs::{self, Profile, Tracer};
use curare::runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare::transform::{Curare, CurareOutput, Device};

use crate::workload::{self, Answer, Spec};

/// Pool servers per job.
pub const SERVERS: usize = 2;
/// Per-lane trace ring capacity for traced jobs (events).
const RING_CAPACITY: usize = 1 << 18;

/// Span names, in pipeline order. `lower` and `analyze` run only in
/// traced jobs: they time, through the layers' own public functions,
/// the lowering and analysis `transform` performs internally.
/// `tracer` and `profile` (traced jobs only) allocate the trace rings
/// and rebuild the causal profile from them.
pub const SPAN_NAMES: [&str; 13] = [
    "parse",
    "lower",
    "analyze",
    "transform",
    "unparse",
    "load",
    "inputs",
    "tracer",
    "pool_start",
    "run",
    "pool_drop",
    "profile",
    "verify",
];

/// One closed interval inside a job, in nanoseconds from the job start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The spans of one job; all share the job's id.
pub struct Spans {
    pub job: u64,
    t0: Instant,
    pub list: Vec<Span>,
    pub end_ns: u64,
}

impl Spans {
    fn new(job: u64) -> Spans {
        Spans { job, t0: Instant::now(), list: Vec::with_capacity(SPAN_NAMES.len()), end_ns: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        self.list.push(Span { name, start_ns, end_ns: self.now_ns() });
        out
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.list.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Job wall time, source text to verified answer.
    pub fn job_ms(&self) -> f64 {
        self.end_ns as f64 / 1e6
    }

    /// Parse → transform → unparse → load.
    pub fn compile_ms(&self) -> f64 {
        ["parse", "transform", "unparse", "load"].iter().map(|n| self.ms(n)).sum()
    }

    /// Time inside the job span that no child span covers.
    pub fn job_self_ms(&self) -> f64 {
        self.job_ms() - self.list.iter().map(Span::ms).sum::<f64>()
    }
}

/// Functions given each device by the restructurer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Devices {
    pub cri: u64,
    pub lock: u64,
    pub delay: u64,
    pub reorder: u64,
    pub dps: u64,
    pub speculate: u64,
    pub refused: u64,
}

impl Devices {
    fn of(out: &CurareOutput) -> Devices {
        let mut d = Devices::default();
        for r in &out.reports {
            let has = |p: fn(&Device) -> bool| u64::from(r.devices.iter().any(p));
            d.cri += has(|x| matches!(x, Device::Cri(_)));
            d.lock += has(|x| matches!(x, Device::Locks(_)));
            d.delay += has(|x| matches!(x, Device::Delay(_)));
            d.reorder += has(|x| matches!(x, Device::Reorder(_)));
            d.dps += has(|x| matches!(x, Device::Dps));
            d.speculate += has(|x| matches!(x, Device::Speculate));
            d.refused +=
                u64::from(!r.converted && r.verdict != curare::analysis::Verdict::NotRecursive);
        }
        d
    }
}

/// What a traced job adds to an untraced one.
pub struct TraceData {
    pub profile: Profile,
    pub dropped: u64,
}

/// Everything one job measured.
pub struct JobRecord {
    /// `None` when the answer was verified; the failure otherwise.
    pub failure: Option<String>,
    pub spans: Spans,
    pub stats: PoolStats,
    pub devices: Devices,
    pub out_bytes: u64,
    pub dispatched_ops: u64,
    pub fused_ops: u64,
    pub typed_ops: u64,
    pub conses: u64,
    pub trace: Option<TraceData>,
}

/// The pool configuration every job uses.
pub fn runtime_config(spec: &Spec) -> RuntimeConfig {
    RuntimeConfig {
        mode: SchedMode::Sharded,
        steal: true,
        speculate: spec.speculate,
        ..RuntimeConfig::default()
    }
}

/// Run one job and verify its answer against `expected`. A wrong
/// answer, a Lisp error and a panic all come back as a record with a
/// failure; nothing is retried.
pub fn run_job(spec: &Spec, expected: &Answer, job: u64, traced: bool) -> JobRecord {
    let mut rec = JobRecord {
        failure: None,
        spans: Spans::new(job),
        stats: PoolStats::default(),
        devices: Devices::default(),
        out_bytes: 0,
        dispatched_ops: 0,
        fused_ops: 0,
        typed_ops: 0,
        conses: 0,
        trace: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| job_body(spec, expected, traced, &mut rec)));
    if traced {
        // A panic may have skipped the uninstall in `job_body`.
        obs::install(None);
        obs::set_profiling(false);
    }
    rec.failure = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(panic) => Some(format!(
            "panic: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    };
    rec.spans.end_ns = rec.spans.now_ns();
    rec
}

fn job_body(
    spec: &Spec,
    expected: &Answer,
    traced: bool,
    rec: &mut JobRecord,
) -> Result<(), String> {
    let sp = &mut rec.spans;
    let forms = sp.time("parse", || workload::parse(&spec.source))?;
    if traced {
        let heap = Heap::new();
        let prog = sp
            .time("lower", || Lowerer::new(&heap).lower_program(&forms))
            .map_err(|e| format!("lower: {e}"))?;
        sp.time("analyze", || analyze_program(&prog)).map_err(|e| format!("analyze: {e}"))?;
    }
    let mut curare = Curare::new().with_speculation(spec.speculate);
    let out = sp
        .time("transform", || curare.transform_forms(&forms))
        .map_err(|e| format!("transform: {e}"))?;
    let text = sp.time("unparse", || out.source());
    let interp = sp.time("load", || -> Result<Arc<Interp>, String> {
        let interp = Arc::new(Interp::new());
        interp.set_engine(Some(Engine::Vm));
        interp.load_str(&text).map_err(|e| format!("load: {e}"))?;
        Ok(interp)
    })?;
    let list = sp.time("inputs", || spec.input_list(&interp));

    let tracer = traced.then(|| {
        sp.time("tracer", || {
            let t = Tracer::with_capacity(SERVERS, RING_CAPACITY);
            obs::set_profiling(true);
            obs::install(Some(Arc::clone(&t)));
            t
        })
    });
    let vm0 = vm_stats();
    let conses0 = interp.heap().stats().conses;
    let rt = sp.time("pool_start", || {
        CriRuntime::with_config(Arc::clone(&interp), SERVERS, runtime_config(spec))
    });
    let run = sp.time("run", || rt.run(spec.entry, &[list]));
    let stats = rt.stats();
    sp.time("pool_drop", || drop(rt));
    let vm1 = vm_stats();
    let trace = tracer.map(|t| {
        obs::install(None);
        obs::set_profiling(false);
        sp.time("profile", || {
            let snaps = t.snapshot();
            TraceData { profile: Profile::from_trace(&snaps), dropped: obs::dropped_total(&snaps) }
        })
    });
    let verified = run
        .map_err(|e| format!("run: {e}"))
        .and_then(|()| sp.time("verify", || verify(spec, expected, &interp, list, &stats)));

    rec.stats = stats;
    rec.trace = trace;
    rec.out_bytes = text.len() as u64;
    rec.devices = Devices::of(&out);
    rec.dispatched_ops = vm1.dispatched_ops - vm0.dispatched_ops;
    rec.fused_ops = vm1.fused_ops - vm0.fused_ops;
    rec.typed_ops = vm1.typed_ops - vm0.typed_ops;
    rec.conses = interp.heap().stats().conses - conses0;
    verified
}

/// Compare a finished run's answer with the reference.
fn verify(
    spec: &Spec,
    expected: &Answer,
    interp: &Interp,
    list: curare::lisp::Value,
    stats: &PoolStats,
) -> Result<(), String> {
    let got = spec.read_answer(interp, list)?;
    if &got != expected {
        return Err(format!("wrong answer: {}", describe_mismatch(expected, &got)));
    }
    if let Some(tasks) = spec.expected_tasks {
        if stats.tasks != tasks {
            return Err(format!("ran {} tasks, a correct run runs {tasks}", stats.tasks));
        }
    }
    Ok(())
}

fn describe_mismatch(want: &Answer, got: &Answer) -> String {
    match (want, got) {
        (Answer::List(w), Answer::List(g)) if w.len() != g.len() => {
            format!("list of {} elements, want {}", g.len(), w.len())
        }
        (Answer::List(w), Answer::List(g)) => {
            let bad = w.iter().zip(g).filter(|(a, b)| a != b).count();
            let (i, (a, b)) =
                w.iter().zip(g).enumerate().find(|(_, (a, b))| a != b).expect("lists differ");
            format!("{bad} cells differ, first at {i}: got {b}, want {a}")
        }
        _ => format!("got {got:?}, want {want:?}"),
    }
}
