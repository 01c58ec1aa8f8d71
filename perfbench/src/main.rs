//! Source-to-answer benchmark of the Curare restructurer.
//!
//! ```text
//! perfbench --workload <walk-tail|walk-locked|spread-zipf|speculate>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A closed loop with one client: each job takes the workload's source
//! text, restructures and loads it into a fresh interpreter, runs it on
//! a fresh two-server CRI pool and checks the answer against a reference
//! computed without the restructurer. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` interleaves traced jobs with untraced ones and
//! reports the per-layer metrics. The last line of standard output is
//! the result as one JSON object.

mod host;
mod job;
mod layers;
mod probe;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use curare::analysis::analyze_program;
use curare::lisp::{Heap, Lowerer};
use curare::sim::{formula, FunctionModel};

use job::{run_job, JobRecord, SERVERS};
use stats::percentile;
use workload::{Answer, Spec, Workload};

/// Timed jobs a run needs at least, so each p90 has ten samples beyond
/// it. `peak_rss_mb` is read after this many timed jobs, so it measures
/// a fixed amount of work however fast the jobs run.
const MIN_JOBS: usize = 100;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untimed jobs at the end of each set-up.
const WARMUP_JOBS: usize = 3;
/// Sequential calls per set-up; the baseline is their median.
const SEQ_CALLS: usize = 3;
/// A job running longer than this is a stall: the run stops.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit, value }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed needs a whole number".to_string())?;
    let seconds: u64 =
        get("--seconds")?.parse().map_err(|_| "--seconds needs a whole number".to_string())?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Jobs attempted and failed, over warm-up and timed jobs alike.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, rec: &JobRecord) {
        self.attempted += 1;
        if let Some(why) = &rec.failure {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("perfbench: job {} failed: {why}", rec.spans.job);
            }
        }
    }

    fn fail_ratio(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The paper's predictions for the workload's entry function.
struct Predicted {
    concurrency_bound: f64,
    speedup: f64,
}

/// CRI concurrency bound of the entry function, and the §4.1 model's
/// speedup at [`SERVERS`] servers over one, capped by that bound.
fn predict(spec: &Spec) -> Result<Predicted, String> {
    let heap = Heap::new();
    let forms = workload::parse(&spec.source)?;
    let prog = Lowerer::new(&heap).lower_program(&forms).map_err(|e| format!("lower: {e}"))?;
    let analyses = analyze_program(&prog).map_err(|e| format!("analyze: {e}"))?;
    let a = analyses
        .iter()
        .find(|a| a.name == spec.entry)
        .ok_or(format!("no analysis for {}", spec.entry))?;
    let model = FunctionModel::from_analysis(a);
    let d = spec.input.len() as u64;
    let one = formula::total_time(d, 1, model.head, model.tail) as f64;
    let many = formula::total_time(d, SERVERS as u64, model.head, model.tail) as f64;
    let bound = a.concurrency_bound();
    Ok(Predicted { concurrency_bound: bound, speedup: (one / many).min(bound) })
}

/// Median wall time of the untransformed program on the VM, called
/// sequentially; its answer must match the reference.
fn sequential_ms(spec: &Spec, expected: &Answer) -> Result<f64, String> {
    workload::with_big_stack(|| {
        let mut samples = Vec::new();
        for _ in 0..SEQ_CALLS {
            let interp = spec.sequential_interp()?;
            let list = spec.input_list(&interp);
            let t0 = Instant::now();
            interp.call(spec.entry, &[list]).map_err(|e| format!("sequential run: {e}"))?;
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if &spec.read_answer(&interp, list)? != expected {
                return Err("the sequential VM run disagrees with the reference".into());
            }
        }
        Ok(stats::median(&samples))
    })
}

struct Setup {
    spec: Spec,
    expected: Answer,
    seq_ms: f64,
    predicted: Predicted,
    /// Seconds per set-up; the first also counts process start-up.
    seconds: Vec<f64>,
}

/// Generate the program and input, compute the reference answer, the
/// sequential baseline and the predictions, and warm up; `reps` times.
fn set_up(
    w: Workload,
    seed: u64,
    reps: usize,
    started: Instant,
    tally: &mut Tally,
    watch: &Watchdog,
) -> Result<Setup, String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let spec = Spec::generate(w, seed);
        let expected = spec.reference()?;
        let seq_ms = sequential_ms(&spec, &expected)?;
        let predicted = predict(&spec)?;
        for _ in 0..WARMUP_JOBS {
            let rec = watch.job(|id| run_job(&spec, &expected, id, false));
            tally.count(&rec);
        }
        seconds.push(t0.elapsed().as_secs_f64());
        last = Some((spec, expected, seq_ms, predicted));
    }
    let (spec, expected, seq_ms, predicted) = last.expect("at least one set-up");
    Ok(Setup { spec, expected, seq_ms, predicted, seconds })
}

/// Ends the process when a job stalls, so a hung pool cannot hang the
/// benchmark.
struct Watchdog {
    started: Instant,
    /// Milliseconds since `started` at which the current job began, or
    /// `u64::MAX` between jobs.
    job_since_ms: Arc<AtomicU64>,
    next_id: AtomicU64,
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(started: Instant) -> Watchdog {
        let job_since_ms = Arc::new(AtomicU64::new(u64::MAX));
        let done = Arc::new(AtomicBool::new(false));
        let (since, stop) = (Arc::clone(&job_since_ms), Arc::clone(&done));
        let thread = std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                let began = since.load(Ordering::Acquire);
                let now = started.elapsed().as_millis() as u64;
                if began != u64::MAX && now.saturating_sub(began) > STALL_LIMIT.as_millis() as u64 {
                    eprintln!(
                        "perfbench: a job ran longer than {} s (a stall); run stopped",
                        STALL_LIMIT.as_secs()
                    );
                    std::process::exit(3);
                }
            }
        });
        Watchdog { started, job_since_ms, next_id: AtomicU64::new(1), done, thread: Some(thread) }
    }

    fn job(&self, f: impl FnOnce(u64) -> JobRecord) -> JobRecord {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.job_since_ms.store(self.started.elapsed().as_millis() as u64, Ordering::Release);
        let rec = f(id);
        self.job_since_ms.store(u64::MAX, Ordering::Release);
        rec
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn fmt_metric(m: &Metric) -> String {
    let value = if m.value.is_finite() { m.value } else { 0.0 };
    format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics.iter().map(fmt_metric).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn fingerprint(args: &Args, setup: &Setup, timed_jobs: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"commit\": \"{}\", \"features\": \"{}\", \"engine\": \"vm\", \
         \"servers\": {SERVERS}, \"scheduler\": \"sharded+steal\", \"speculate\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"jobs_per_run\": {timed_jobs}, \"input_len\": {}, \"load\": \"closed loop, 1 client\"}}",
        host::nproc(),
        host::commit(),
        host::features(),
        setup.spec.speculate,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup.spec.input.len(),
    )
}

fn print_prediction(setup: &Setup, run_ms_p50: f64) {
    println!(
        "prediction: speedup_vs_seq {:.3}x (lisp.seq_call_ms {:.3} / run_ms_p50 {:.3}); \
         analysis.concurrency_bound {:.3}; sim.predicted_speedup {:.3} at {SERVERS} servers",
        stats::ratio(setup.seq_ms, run_ms_p50),
        setup.seq_ms,
        run_ms_p50,
        setup.predicted.concurrency_bound,
        setup.predicted.speedup,
    );
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let watch = Watchdog::start(started);
    let mut tally = Tally::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let setup = set_up(args.workload, args.seed, reps, started, &mut tally, &watch)?;
    let budget = Duration::from_secs(args.seconds);
    // Bounded so a run that cannot reach MIN_JOBS still ends in time.
    let hard_stop = budget + Duration::from_secs(30);

    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    let mut recs: Vec<JobRecord> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while (t0.elapsed() < budget || recs.len() < MIN_JOBS) && t0.elapsed() < hard_stop {
        // Traced runs alternate untraced and traced jobs, so both see
        // the same drift; the untraced ones are the overhead's base.
        let traced = args.trace && recs.len() % 2 == 1;
        let rec = watch.job(|id| run_job(&setup.spec, &setup.expected, id, traced));
        tally.count(&rec);
        recs.push(rec);
        if recs.len() == MIN_JOBS {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = host::cpu_ms() - cpu0;
    drop(watch);

    let (untraced, traced): (Vec<&JobRecord>, Vec<&JobRecord>) =
        recs.iter().partition(|r| r.trace.is_none());
    let col = |jobs: &[&JobRecord], f: fn(&JobRecord) -> f64| {
        jobs.iter().map(|j| f(j)).collect::<Vec<f64>>()
    };
    let job_ms = col(&untraced, |j| j.spans.job_ms());
    let run_ms = col(&untraced, |j| j.spans.ms("run"));
    let compile_ms = col(&untraced, |j| j.spans.compile_ms());
    let run_ms_p50 = percentile(&run_ms, 50.0)?;

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint(args, &setup, recs.len()));
    println!(
        "fail_ratio {:.4} ({} of {} jobs failed, warm-up included)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    );
    print_prediction(&setup, run_ms_p50);

    let metrics = if args.trace {
        for (layer, home) in layers::PROBE_HOME {
            println!("probe {layer}.* belongs to workload {home}");
        }
        println!("self time per span (median ms over {} traced jobs):", traced.len());
        for (name, ms) in layers::self_times(&traced) {
            println!("  {name:<12} {ms:10.4}");
        }
        let file = format!("{}-seed{}-spans.jsonl", args.workload.name(), args.seed);
        match layers::write_spans(&traced, &file) {
            Ok(path) => println!("spans of {} traced jobs written to {path}", traced.len()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
        let ctx = layers::Context {
            seq_call_ms: setup.seq_ms,
            untraced_run_ms_p50: run_ms_p50,
            concurrency_bound: setup.predicted.concurrency_bound,
            predicted_speedup: setup.predicted.speedup,
        };
        layers::metrics(&traced, &ctx)
    } else {
        let n = recs.len() as f64;
        vec![
            Metric::new("setup_s", "s", stats::median(&setup.seconds)),
            Metric::new("job_ms_p50", "ms", percentile(&job_ms, 50.0)?),
            Metric::new("job_ms_p90", "ms", percentile(&job_ms, 90.0)?),
            Metric::new("compile_ms_p50", "ms", percentile(&compile_ms, 50.0)?),
            Metric::new("run_ms_p50", "ms", run_ms_p50),
            Metric::new("run_ms_p90", "ms", percentile(&run_ms, 90.0)?),
            Metric::new("jobs_per_s", "1/s", n / wall_s),
            Metric::new("cpu_ms_per_job", "ms", cpu_ms / n),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        ]
    };
    for m in &metrics {
        let idle = if args.trace && m.value == 0.0 { "  (idle: not applicable)" } else { "" };
        println!("{:<34} {:>14.4} {}{idle}", m.name, m.value, m.unit);
    }
    let reported: Vec<Metric> =
        metrics.into_iter().filter(|m| !layers::PRINT_ONLY.contains(&m.name.as_str())).collect();
    println!("{}", result_line(&tally, &reported));
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_answer_is_counted_as_a_failure() {
        let spec = Spec::generate(Workload::WalkTail, 5);
        let expected = spec.reference().expect("reference runs");
        let mut tally = Tally::default();
        tally.count(&run_job(&spec, &expected, 1, false));
        assert_eq!((tally.attempted, tally.failed), (1, 0), "the true answer verifies");

        let Answer::List(mut cells) = expected else { panic!("walk-tail answers with a list") };
        cells[17] += 1;
        let rec = run_job(&spec, &Answer::List(cells), 2, false);
        assert!(rec.failure.as_deref().is_some_and(|f| f.contains("wrong answer")));
        tally.count(&rec);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_ratio(), 0.5);
        let line = result_line(&tally, &[]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"), "{line}");
    }

    #[test]
    fn a_traced_job_reports_its_layers() {
        let spec = Spec::generate(Workload::WalkLocked, 5);
        let expected = spec.reference().expect("reference runs");
        let rec = run_job(&spec, &expected, 1, true);
        assert_eq!(rec.failure, None);
        assert!(rec.trace.is_some() && rec.stats.lock_acquisitions > 0);
        assert!(rec.spans.ms("lower") > 0.0 && rec.spans.ms("analyze") > 0.0);
        assert_eq!(rec.devices.lock, 1);
    }
}
