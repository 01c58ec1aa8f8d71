//! The traced run's per-layer metrics, aggregated over traced jobs.

use crate::job::{JobRecord, SPAN_NAMES};
use crate::probe;
use crate::stats::{median, ratio};
use crate::Metric;

/// Which workload each layer probe belongs to: the one where that
/// layer does most of the run.
pub const PROBE_HOME: [(&str, &str); 3] = [
    ("runtime.queue", "spread-zipf"),
    ("runtime.locktable", "walk-locked"),
    ("lisp.heap", "walk-tail"),
];

/// Times that are 0 on every run of some workload (no future waits and
/// no lock waits on the critical path anywhere, no lock waits at all
/// outside walk-locked). They are printed with the report but left out
/// of the result line, where a time must vary from run to run.
pub const PRINT_ONLY: [&str; 3] =
    ["runtime.lock_wait_ms", "obs.profile.cp_future_wait_ms", "obs.profile.cp_lock_wait_ms"];

/// Median over traced jobs of one per-job quantity.
fn med(jobs: &[&JobRecord], f: impl Fn(&JobRecord) -> f64) -> f64 {
    median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>())
}

/// Baselines the traced run reports its layers against.
pub struct Context {
    pub seq_call_ms: f64,
    /// `run_ms_p50` of the untraced jobs interleaved with the traced ones.
    pub untraced_run_ms_p50: f64,
    pub concurrency_bound: f64,
    pub predicted_speedup: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order (with [`PRINT_ONLY`]
/// in place).
pub fn metrics(traced: &[&JobRecord], ctx: &Context) -> Vec<Metric> {
    let stats = |f: fn(&JobRecord) -> f64| med(traced, f);
    let mut m = Vec::new();
    let mut put =
        |name: &str, unit: &'static str, value: f64| m.push(Metric::new(name, unit, value));

    put("sexpr.parse_ms", "ms", stats(|j| j.spans.ms("parse")));
    put("lisp.lower_ms", "ms", stats(|j| j.spans.ms("lower")));
    put("analysis.analyze_ms", "ms", stats(|j| j.spans.ms("analyze")));
    put("transform.transform_ms", "ms", stats(|j| j.spans.ms("transform")));
    put("transform.unparse_ms", "ms", stats(|j| j.spans.ms("unparse")));
    put("lisp.load_ms", "ms", stats(|j| j.spans.ms("load")));
    put("transform.out_bytes", "bytes", stats(|j| j.out_bytes as f64));

    put("transform.devices.cri", "count", stats(|j| j.devices.cri as f64));
    put("transform.devices.lock", "count", stats(|j| j.devices.lock as f64));
    put("transform.devices.delay", "count", stats(|j| j.devices.delay as f64));
    put("transform.devices.reorder", "count", stats(|j| j.devices.reorder as f64));
    put("transform.devices.dps", "count", stats(|j| j.devices.dps as f64));
    put("transform.devices.speculate", "count", stats(|j| j.devices.speculate as f64));
    put("transform.devices.refused", "count", stats(|j| j.devices.refused as f64));

    put("lisp.vm.dispatched_ops", "count", stats(|j| j.dispatched_ops as f64));
    put("lisp.vm.fused_ops", "count", stats(|j| j.fused_ops as f64));
    put("lisp.vm.typed_ops", "count", stats(|j| j.typed_ops as f64));
    put("lisp.heap.conses", "count", stats(|j| j.conses as f64));
    put("lisp.tlab_refills", "count", stats(|j| j.stats.tlab_refills as f64));
    put("lisp.seq_call_ms", "ms", ctx.seq_call_ms);

    put("runtime.start_ms", "ms", stats(|j| j.spans.ms("pool_start")));
    put("runtime.stop_ms", "ms", stats(|j| j.spans.ms("pool_drop")));

    put("runtime.tasks", "count", stats(|j| j.stats.tasks as f64));
    put(
        "runtime.chained_ratio",
        "ratio",
        stats(|j| ratio(j.stats.chained_tasks as f64, j.stats.tasks as f64)),
    );
    put("runtime.batched_submits", "count", stats(|j| j.stats.batched_submits as f64));
    put("runtime.sched_lock_waits", "count", stats(|j| j.stats.sched_lock_waits as f64));
    put("runtime.peak_queue", "count", stats(|j| j.stats.peak_queue as f64));
    put("runtime.steal_attempts", "count", stats(|j| j.stats.steal_attempts as f64));
    put(
        "runtime.steal_success_ratio",
        "ratio",
        stats(|j| ratio(j.stats.steal_successes as f64, j.stats.steal_attempts as f64)),
    );
    put("runtime.sites_migrated", "count", stats(|j| j.stats.sites_migrated as f64));
    put("runtime.parks", "count", stats(|j| j.stats.parks as f64));
    put("runtime.park_ms", "ms", stats(|j| j.stats.park_ns as f64 / 1e6));
    put("runtime.peak_idle_servers", "count", stats(|j| j.stats.peak_idle_servers as f64));

    put("runtime.lock_acquisitions", "count", stats(|j| j.stats.lock_acquisitions as f64));
    put(
        "runtime.lock_shared_ratio",
        "ratio",
        stats(|j| ratio(j.stats.lock_shared_acquisitions as f64, j.stats.lock_acquisitions as f64)),
    );
    put("runtime.lock_contended", "count", stats(|j| j.stats.lock_contended as f64));
    put("runtime.lock_wait_ms", "ms", stats(|j| j.stats.lock_wait_total_ns as f64 / 1e6));

    put("runtime.spec_commits", "count", stats(|j| j.stats.spec_commits as f64));
    put(
        "runtime.spec_clean_ratio",
        "ratio",
        stats(|j| ratio(j.stats.spec_clean as f64, j.stats.spec_commits as f64)),
    );
    put("runtime.spec_aborts", "count", stats(|j| j.stats.spec_aborts as f64));
    put("runtime.spec_replays", "count", stats(|j| j.stats.spec_replays as f64));
    let escalated = traced.iter().filter(|j| j.stats.spec_escalated).count();
    put("runtime.spec_escalated", "ratio", ratio(escalated as f64, traced.len() as f64));

    let prof = |f: fn(&curare::obs::Profile) -> f64| {
        med(traced, |j| j.trace.as_ref().map_or(0.0, |t| f(&t.profile)))
    };
    put("obs.profile.work_ms", "ms", prof(|p| p.work_ns as f64 / 1e6));
    put("obs.profile.span_ms", "ms", prof(|p| p.span_ns as f64 / 1e6));
    put("obs.profile.parallelism", "x", prof(|p| p.parallelism));
    put("obs.profile.cp_exec_ms", "ms", prof(|p| p.critical_path.exec_ns as f64 / 1e6));
    put("obs.profile.cp_queue_ms", "ms", prof(|p| p.critical_path.queue_ns as f64 / 1e6));
    put(
        "obs.profile.cp_future_wait_ms",
        "ms",
        prof(|p| p.critical_path.future_wait_ns as f64 / 1e6),
    );
    put("obs.profile.cp_lock_wait_ms", "ms", prof(|p| p.critical_path.lock_wait_ns as f64 / 1e6));
    let dropped: u64 = traced.iter().filter_map(|j| j.trace.as_ref()).map(|t| t.dropped).sum();
    put("obs.trace_dropped", "count", dropped as f64);
    let traced_run = stats(|j| j.spans.ms("run"));
    put("obs.trace_overhead", "x", ratio(traced_run, ctx.untraced_run_ms_p50));

    put("runtime.queue.push_pop_ns", "ns", probe::queue_push_pop_ns());
    put("runtime.queue.steal_ns", "ns", probe::queue_steal_ns());
    put("runtime.locktable.shared_ns", "ns", probe::locktable_ns(false));
    put("runtime.locktable.exclusive_ns", "ns", probe::locktable_ns(true));
    let (cons, car, set_car) = probe::heap_ns();
    put("lisp.heap.cons_ns", "ns", cons);
    put("lisp.heap.car_ns", "ns", car);
    put("lisp.heap.set_car_ns", "ns", set_car);

    put("analysis.concurrency_bound", "x", ctx.concurrency_bound);
    put("sim.predicted_speedup", "x", ctx.predicted_speedup);
    put("speedup_vs_seq", "x", ratio(ctx.seq_call_ms, ctx.untraced_run_ms_p50));
    m
}

/// Median self time per span name over traced jobs (a span's duration
/// minus the part its children cover; only the job span has children).
pub fn self_times(traced: &[&JobRecord]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> =
        SPAN_NAMES.iter().map(|&n| (n, med(traced, |j| j.spans.ms(n)))).collect();
    out.push(("job (self)", med(traced, |j| j.spans.job_self_ms())));
    out
}

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
pub const SPAN_DIR: &str = "perfbench-out";

/// Write every traced job's spans as JSON lines, one job per line, all
/// its spans under the job's id: `{"job": 7, "failed": false,
/// "end_ns": N, "spans": [["parse", start_ns, end_ns], ...]}`.
pub fn write_spans(traced: &[&JobRecord], file: &str) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{file}");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for j in traced {
        let spans: Vec<String> = j
            .spans
            .list
            .iter()
            .map(|s| format!("[\"{}\", {}, {}]", s.name, s.start_ns, s.end_ns))
            .collect();
        writeln!(
            out,
            "{{\"job\": {}, \"failed\": {}, \"end_ns\": {}, \"spans\": [{}]}}",
            j.spans.job,
            j.failure.is_some(),
            j.spans.end_ns,
            spans.join(", ")
        )?;
    }
    out.flush()?;
    Ok(path)
}
