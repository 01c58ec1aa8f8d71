//! The four workloads: program text, seeded inputs, and reference
//! answers computed without the restructurer.
//!
//! Every program is generated here, not borrowed from the repository's
//! experiment harness, so the benchmark's inputs change only when this
//! file does. The restructurer sees only the generated source text and
//! the input list built from the seed.

use std::sync::Arc;

use curare::lisp::{Engine, Interp, Value};
use curare::sexpr::parse_all;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Conflict-free tail walker: VM dispatch and heap do the work.
    WalkTail,
    /// Read-window walker under synthesized rw locks: the lock table
    /// and the front end do the work.
    WalkLocked,
    /// Two-task-per-step spreader over Zipf sites: queues, stealing
    /// and parking do the work.
    SpreadZipf,
    /// ⊤-write walker under speculation: journal, validation and
    /// replay do the work.
    Speculate,
}

pub const ALL: [Workload; 4] =
    [Workload::WalkTail, Workload::WalkLocked, Workload::SpreadZipf, Workload::Speculate];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WalkTail => "walk-tail",
            Workload::WalkLocked => "walk-locked",
            Workload::SpreadZipf => "spread-zipf",
            Workload::Speculate => "speculate",
        }
    }
}

/// Busywork additions in `crunch` (walk-tail and speculate).
pub const CRUNCH_PAD: usize = 256;
/// Input list length of the three walkers.
pub const WALK_N: usize = 2000;
/// Conflict distance and read statements of the window walker.
pub const WINDOW_K: usize = 2;
pub const WINDOW_READS: usize = 8;
/// Loads summed by each read statement of the window walker.
pub const WINDOW_TERMS: usize = 16;
/// Spreader size: elements, leaf sites and leaf busywork.
pub const SPREAD_N: usize = 20_000;
pub const SPREAD_SITES: usize = 8;
pub const SPREAD_PAD: usize = 4;
/// One cell in this many redirects its write in the speculate workload.
pub const REDIRECT_EVERY: u64 = 64;

/// What a job must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The input list's contents after the run.
    List(Vec<i64>),
    /// The value of a global after the run.
    Global(&'static str, i64),
}

/// One workload instance: everything a job needs, fixed by the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// The untransformed program text.
    pub source: String,
    /// The function a job calls with the input list.
    pub entry: &'static str,
    /// The input list's elements.
    pub input: Vec<i64>,
    /// Run the pool (and the restructurer) in speculation mode.
    pub speculate: bool,
    /// Tasks a correct run executes, when the program fixes it.
    pub expected_tasks: Option<u64>,
}

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn pad(n: usize) -> String {
    "(setq x (+ x 1)) ".repeat(n)
}

fn cdrs(k: usize, of: &str) -> String {
    (0..k).fold(of.to_string(), |acc, _| format!("(cdr {acc})"))
}

fn walk_tail_source() -> String {
    format!(
        "(defun crunch (v)
  (let ((x v)) {} x))
(defun walk (l)
  (when (consp l)
    (walk (cdr l))
    (setf (car l) (crunch (car l)))))
",
        pad(CRUNCH_PAD)
    )
}

/// Each invocation doubles its own car and sums the cars `k` and
/// `k + 1` cells ahead, the words later invocations write: conflict
/// distance `k`, placed as one exclusive and two shared locks.
fn walk_locked_source() -> String {
    let near = cdrs(WINDOW_K, "l");
    let far = format!("(cdr {near})");
    let sum_of = |word: &str| format!("(+{}) ", format!(" (car {word})").repeat(WINDOW_TERMS));
    let mut body = String::new();
    for _ in 0..WINDOW_READS.div_ceil(2) {
        for word in [&near, &near, &far, &far] {
            body.push_str(&sum_of(word));
        }
    }
    format!(
        "(curare-declare (reorderable *))
(defun fw (l)
  (when {far}
    (fw (cdr l))
    (setf (car l) (* (car l) 2))
    {body}))
"
    )
}

/// Every step publishes its leaf on site `v + 1` and its continuation
/// on site 0, a two-task batch that cannot chain.
fn spread_source() -> String {
    let arms: String = (0..SPREAD_SITES)
        .map(|v| format!("((= v {v}) (cri-enqueue {} leaf v))\n", v + 1))
        .collect();
    format!(
        "(defparameter *skew-sum* 0)
(defun spread (l)
  (when l
    (let ((v (car l)))
      (cond {arms} (t nil)))
    (cri-enqueue 0 spread (cdr l))))
(defun leaf (v)
  (let ((x 0)) {} x)
  (atomic-incf *skew-sum* (+ v 1)))
",
        pad(SPREAD_PAD)
    )
}

/// The write root passes through `veil`, which the analysis cannot see
/// through (a ⊤ write), so only speculation admits the walker. Cells
/// whose car is a multiple of [`REDIRECT_EVERY`] redirect their write
/// to the next cell.
fn speculate_source() -> String {
    format!(
        "(defun veil (l)
  (if (and (= (mod (car l) {REDIRECT_EVERY}) 0) (consp (cdr l))) (cdr l) l))
(defun crunch (v)
  (let ((x v)) {} x))
(defun scrub (l)
  (when (consp l)
    (scrub (cdr l))
    (setf (car (veil l)) (crunch (car l)))))
",
        pad(CRUNCH_PAD)
    )
}

/// Zipf(1) site shares: site `i` gets a share proportional to
/// `1 / (i + 1)`, remainders dealt round-robin from site 0.
fn zipf_counts(n: usize, k: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let sum: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| (w / sum * n as f64) as usize).collect();
    let mut i = 0;
    while counts.iter().sum::<usize>() < n {
        counts[i % k] += 1;
        i += 1;
    }
    counts
}

impl Spec {
    /// The workload instance for `seed`: the same seed always yields
    /// the same program text and input.
    pub fn generate(workload: Workload, seed: u64) -> Spec {
        let mut rng = Rng::new(seed);
        let (source, entry, input, speculate, expected_tasks) = match workload {
            Workload::WalkTail => {
                let input = (0..WALK_N).map(|_| rng.below(1_000_000) as i64).collect();
                (walk_tail_source(), "walk", input, false, None)
            }
            Workload::WalkLocked => {
                let input = (0..WALK_N).map(|_| rng.below(1_000_000) as i64 - 500_000).collect();
                (walk_locked_source(), "fw", input, false, None)
            }
            Workload::SpreadZipf => {
                let mut input: Vec<i64> = zipf_counts(SPREAD_N, SPREAD_SITES)
                    .into_iter()
                    .enumerate()
                    .flat_map(|(v, c)| std::iter::repeat_n(v as i64, c))
                    .collect();
                for i in (1..input.len()).rev() {
                    input.swap(i, rng.below(i as u64 + 1) as usize);
                }
                // One root, one continuation and one leaf per element.
                let tasks = 2 * SPREAD_N as u64 + 1;
                (spread_source(), "spread", input, false, Some(tasks))
            }
            Workload::Speculate => {
                let input = (0..WALK_N)
                    .map(|_| {
                        let base = 1 + rng.below(1 << 20) as i64;
                        if rng.below(REDIRECT_EVERY) == 0 {
                            base * REDIRECT_EVERY as i64
                        } else if base % REDIRECT_EVERY as i64 == 0 {
                            base + 1
                        } else {
                            base
                        }
                    })
                    .collect();
                (speculate_source(), "scrub", input, true, None)
            }
        };
        Spec { workload, source, entry, input, speculate, expected_tasks }
    }

    /// Build the input list in `interp`'s heap.
    pub fn input_list(&self, interp: &Interp) -> Value {
        let heap = interp.heap();
        self.input.iter().rev().fold(Value::NIL, |l, &v| heap.cons(Value::int(v), l))
    }

    /// Read this workload's answer back out of `interp` after a run on
    /// `list`.
    pub fn read_answer(&self, interp: &Interp, list: Value) -> Result<Answer, String> {
        match self.workload {
            Workload::SpreadZipf => {
                let sym = interp.heap().intern("*skew-sum*");
                let v = interp.get_global(sym).map_err(|e| e.to_string())?;
                let n = v.as_int().ok_or_else(|| format!("*skew-sum* is not an integer: {v:?}"))?;
                Ok(Answer::Global("*skew-sum*", n))
            }
            _ => {
                let items = interp.heap().list_to_vec(list).map_err(|e| e.to_string())?;
                let ints: Option<Vec<i64>> = items.iter().map(|v| v.as_int()).collect();
                ints.map(Answer::List).ok_or_else(|| "result list holds a non-integer".into())
            }
        }
    }

    /// The closed form of the answer, where the program has one.
    pub fn closed_form(&self) -> Option<Answer> {
        match self.workload {
            Workload::WalkTail => {
                Some(Answer::List(self.input.iter().map(|v| v + CRUNCH_PAD as i64).collect()))
            }
            Workload::SpreadZipf => {
                Some(Answer::Global("*skew-sum*", self.input.iter().map(|v| v + 1).sum()))
            }
            Workload::WalkLocked | Workload::Speculate => None,
        }
    }

    /// The reference answer: the untransformed source run sequentially
    /// on the tree-walking engine, cross-checked against the closed form
    /// where one exists. Never uses the restructurer's output.
    pub fn reference(&self) -> Result<Answer, String> {
        let oracle = with_big_stack(|| -> Result<Answer, String> {
            let interp = Interp::new();
            interp.set_engine(Some(Engine::Tree));
            // The untransformed programs recurse once per element.
            interp.set_recursion_limit(4 * SPREAD_N);
            interp.load_str(&self.source).map_err(|e| format!("reference load: {e}"))?;
            let list = self.input_list(&interp);
            interp.call(self.entry, &[list]).map_err(|e| format!("reference run: {e}"))?;
            self.read_answer(&interp, list)
        })?;
        match self.closed_form() {
            Some(closed) if closed != oracle => Err(format!(
                "{}: tree-walker reference disagrees with the closed form",
                self.workload.name()
            )),
            _ => Ok(oracle),
        }
    }

    /// An interpreter with the untransformed source loaded on the VM,
    /// for the sequential baseline.
    pub fn sequential_interp(&self) -> Result<Arc<Interp>, String> {
        let interp = Arc::new(Interp::new());
        interp.set_engine(Some(Engine::Vm));
        interp.set_recursion_limit(4 * SPREAD_N);
        interp.load_str(&self.source).map_err(|e| format!("sequential load: {e}"))?;
        Ok(interp)
    }
}

/// Run `f` on a thread with a large native stack: the untransformed
/// programs recurse once per list element.
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    const STACK: usize = 512 << 20;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(scope, || {
                curare::lisp::set_thread_stack_budget(STACK - (16 << 20));
                f()
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

/// Parse the source, for callers that time the parse separately.
pub fn parse(source: &str) -> Result<Vec<curare::sexpr::Sexpr>, String> {
    parse_all(source).map_err(|e| format!("parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_programs_and_inputs() {
        for w in ALL {
            let (a, b) = (Spec::generate(w, 42), Spec::generate(w, 42));
            assert_eq!(a.source.as_bytes(), b.source.as_bytes(), "{}", w.name());
            assert_eq!(a.input, b.input, "{}", w.name());
            assert!(parse(&a.source).is_ok(), "{} source parses", w.name());
            assert_ne!(a.input, Spec::generate(w, 43).input, "{}: the seed matters", w.name());
        }
    }

    #[test]
    fn inputs_have_the_stated_shape() {
        let spread = Spec::generate(Workload::SpreadZipf, 7);
        assert_eq!(spread.input.len(), SPREAD_N);
        let mut counts = vec![0usize; SPREAD_SITES];
        spread.input.iter().for_each(|&v| counts[v as usize] += 1);
        assert_eq!(counts, zipf_counts(SPREAD_N, SPREAD_SITES), "a shuffle keeps the Zipf split");
        let spec = Spec::generate(Workload::Speculate, 7);
        let redirects = spec.input.iter().filter(|&&v| v % REDIRECT_EVERY as i64 == 0).count();
        assert!(
            (10..=60).contains(&redirects),
            "about 1 in 64 of 2000 cells redirect: {redirects}"
        );
    }

    #[test]
    fn reference_agrees_with_closed_forms() {
        for w in [Workload::WalkTail, Workload::SpreadZipf] {
            let spec = Spec::generate(w, 3);
            assert_eq!(spec.reference(), Ok(spec.closed_form().expect("closed form")));
        }
    }
}
