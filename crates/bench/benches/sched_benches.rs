//! Scheduler-contention benchmarks (DESIGN.md §4): the paper-faithful
//! central single-mutex queue vs the sharded low-contention scheduler
//! (per-site locks, batched submit, task chaining), across server
//! counts on a tiny-grain workload, plus the TLAB allocation path.
//!
//! Requires the off-by-default `bench-ext` feature (the external
//! `criterion` crate is unavailable offline).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use curare::lisp::arena::AtomicArena;
use curare::prelude::*;
use curare_bench::{int_list, padded_walker, transformed_interp};

/// Central vs sharded scheduling on the tiniest-grain walker, where
/// per-task submit cost dominates.
fn sched_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_contention");
    g.sample_size(10);
    let n = 5_000i64;

    for servers in [1usize, 2, 4, 8] {
        for (label, mode) in [("central", SchedMode::Central), ("sharded", SchedMode::Sharded)] {
            g.bench_with_input(BenchmarkId::new(label, servers), &servers, |b, &servers| {
                let (interp, _) = transformed_interp(&padded_walker(0));
                let rt = CriRuntime::with_mode(Arc::clone(&interp), servers, mode);
                b.iter(|| {
                    let l = int_list(&interp, n);
                    rt.run("padded", &[l]).expect("run");
                })
            });
        }
    }
    g.finish();
}

/// The cost of instrumentation when no tracer is installed: the same
/// tiny-grain pool run with tracing disabled (the shipping default)
/// vs enabled. The disabled column must sit within noise of the
/// pre-instrumentation baseline — `curare_obs::record` is one relaxed
/// load and a branch per event (see `disabled_record_is_cheap` for
/// the per-call bound; this measures the end-to-end <2% budget).
fn trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    let n = 5_000i64;

    for (label, traced) in [("disabled", false), ("enabled", true)] {
        g.bench_function(label, |b| {
            let tracer = traced.then(|| {
                let t = curare::obs::Tracer::new(4);
                curare::obs::install(Some(Arc::clone(&t)));
                t
            });
            let (interp, _) = transformed_interp(&padded_walker(0));
            let rt = CriRuntime::new(Arc::clone(&interp), 4);
            b.iter(|| {
                let l = int_list(&interp, n);
                rt.run("padded", &[l]).expect("run");
            });
            drop(rt);
            if tracer.is_some() {
                curare::obs::install(None);
            }
        });
    }
    g.finish();
}

/// The cost of the heap-access log: the same tiny-grain pool run with
/// the log disarmed (the shipping default: one relaxed load per heap
/// access) vs armed, recording every car/cdr read and write as a
/// sanitized run does.
fn sanitizer_overhead(c: &mut Criterion) {
    use curare::lisp::accesslog;

    let mut g = c.benchmark_group("sanitizer_overhead");
    g.sample_size(10);
    let n = 5_000i64;

    for (label, sanitized) in [("disabled", false), ("enabled", true)] {
        g.bench_function(label, |b| {
            let (interp, _) = transformed_interp(&padded_walker(0));
            let rt = CriRuntime::new(Arc::clone(&interp), 4);
            b.iter(|| {
                let l = int_list(&interp, n);
                if sanitized {
                    accesslog::arm(false);
                }
                rt.run("padded", &[l]).expect("run");
                accesslog::take()
            });
            drop(rt);
        });
    }
    g.finish();
}

/// The cost of the chaos harness: the same tiny-grain pool run on a
/// binary without the `chaos` feature ("compiled_out": the injection
/// sites do not exist), with the feature but no plan installed
/// ("disarmed": one relaxed load and a branch per site), and with a
/// quiet plan armed ("armed_quiet": the full decision stream at zero
/// injection rates). Build with `--features bench-ext,chaos` for the
/// latter two; with `bench-ext` alone all columns measure the
/// compiled-out baseline — the E8 acceptance bound is that
/// `compiled_out` sits within noise of the pre-chaos baseline.
fn chaos_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("chaos_overhead");
    g.sample_size(10);
    let n = 5_000i64;

    #[cfg(feature = "chaos")]
    let variants: &[&str] = &["disarmed", "armed_quiet"];
    #[cfg(not(feature = "chaos"))]
    let variants: &[&str] = &["compiled_out"];
    for &label in variants {
        g.bench_function(label, |b| {
            #[cfg(feature = "chaos")]
            if label == "armed_quiet" {
                use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};
                chaos::install(Some(FaultPlan::new(0, ChaosProfile::quiet("bench"))));
            }
            let (interp, _) = transformed_interp(&padded_walker(0));
            let rt = CriRuntime::new(Arc::clone(&interp), 4);
            b.iter(|| {
                let l = int_list(&interp, n);
                rt.run("padded", &[l]).expect("run");
            });
            drop(rt);
            #[cfg(feature = "chaos")]
            if label == "armed_quiet" {
                curare::runtime::chaos::install(None);
            }
        });
    }
    g.finish();
}

/// The cost of the causal profiler: the same tiny-grain pool run with
/// profiling off (the shipping default — invocation-id allocation and
/// every Spawn/InvStart/InvStop/TouchWake site reduce to one relaxed
/// load and a branch) vs armed with a tracer installed (full DAG
/// event stream). On a `--features bench-ext,profile-ops` build a
/// third column times the run with per-opcode VM counters on too;
/// without the feature the opcode path is compiled out entirely. The
/// acceptance bound is that `disabled` sits within noise of the
/// pre-profiler baseline.
fn profile_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile_overhead");
    g.sample_size(10);
    let n = 5_000i64;

    #[cfg(feature = "profile-ops")]
    let variants: &[&str] = &["disabled", "enabled", "enabled_op_counts"];
    #[cfg(not(feature = "profile-ops"))]
    let variants: &[&str] = &["disabled", "enabled"];
    for &label in variants {
        g.bench_function(label, |b| {
            let tracer = (label != "disabled").then(|| {
                let t = curare::obs::Tracer::with_capacity(4, 1 << 16);
                curare::obs::install(Some(Arc::clone(&t)));
                curare::obs::set_profiling(true);
                curare::lisp::set_op_profiling(label == "enabled_op_counts");
                t
            });
            let (interp, _) = transformed_interp(&padded_walker(0));
            let rt = CriRuntime::new(Arc::clone(&interp), 4);
            b.iter(|| {
                let l = int_list(&interp, n);
                rt.run("padded", &[l]).expect("run");
            });
            drop(rt);
            if tracer.is_some() {
                curare::lisp::set_op_profiling(false);
                curare::obs::set_profiling(false);
                curare::obs::install(None);
            }
        });
    }
    g.finish();
}

/// Tree-walking evaluator vs the register bytecode VM on the
/// invocation hot path: tiny-grain tail recursion (the E8 shape) and
/// call-heavy non-tail recursion, single-threaded so only the engine
/// differs. `experiments interp` records the same comparison without
/// the criterion dependency.
fn eval_vs_vm(c: &mut Criterion) {
    use curare::lisp::{Engine, Interp, Value};

    let mut g = c.benchmark_group("eval_vs_vm");
    g.sample_size(20);

    let cases: [(&str, &str, &str); 3] = [
        ("bare_walk", "(defun w (l) (when l (w (cdr l))))", "w"),
        ("sum", "(defun s (l acc) (if l (s (cdr l) (+ acc (car l))) acc))", "s"),
        ("padded_8", &padded_walker(8), "padded"),
    ];
    let n = 5_000i64;
    for (name, src, entry) in cases {
        for (label, engine) in [("tree", Engine::Tree), ("vm", Engine::Vm)] {
            g.bench_with_input(BenchmarkId::new(name, label), &engine, |b, &engine| {
                let interp = Interp::new();
                interp.set_engine(Some(engine));
                interp.load_str(src).expect("program loads");
                let args: Vec<Value> = if entry == "s" {
                    vec![int_list(&interp, n), Value::int(0)]
                } else {
                    vec![int_list(&interp, n)]
                };
                b.iter(|| interp.call(entry, &args).expect("call"))
            });
        }
    }
    g.finish();
}

/// TLAB-buffered arena allocation vs the shared fetch-add path.
fn tlab_allocation(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlab_allocation");
    g.sample_size(10);
    const ALLOCS: u64 = 50_000;
    const THREADS: u64 = 4;

    for (label, tlab) in [("tlab", true), ("shared_fetch_add", false)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let a: Arc<AtomicArena<u64>> = Arc::new(AtomicArena::new());
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        let a = Arc::clone(&a);
                        s.spawn(move || {
                            for _ in 0..ALLOCS / THREADS {
                                let idx = if tlab { a.alloc_tlab() } else { a.alloc() };
                                std::hint::black_box(idx);
                            }
                        });
                    }
                });
                std::hint::black_box(a.len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    sched_contention,
    trace_overhead,
    sanitizer_overhead,
    chaos_overhead,
    profile_overhead,
    eval_vs_vm,
    tlab_allocation
);
criterion_main!(benches);
