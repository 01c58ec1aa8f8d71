//! The test corpus the analysis oracle tests and the transform
//! snapshot test share: every shipped example program, the paper's
//! E1 figures, programs with declared inverse accessors (the
//! canonical path), programs that reach each synchronization device,
//! and a grid of generated read-window walkers.
//!
//! `curare-transform` includes this file by path from its own tests,
//! so both crates test the same programs.

use std::path::PathBuf;

/// The paper's Figures 3–5 (experiment E1).
const FIGURES: [(&str, &str); 3] = [
    ("figure-3", "(defun f (l) (when l (print (car l)) (f (cdr l))))"),
    ("figure-4", "(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))"),
    (
        "figure-5",
        "(defun f (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f (cdr l)))))",
    ),
];

/// A backward writer under `(inverse succ pred)`: its conflict only
/// shows once `succ.pred` cancels.
const INVERSE_WRITER: &str = "(curare-declare (inverse succ pred))
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))
    (print (dl-value (dl-succ n)))
    (walk (dl-succ n))))";

/// Programs that take the pipeline through delay, future
/// synchronization, lock rescue after a delay, and speculation.
const DEVICE_PROGRAMS: [(&str, &str); 5] = [
    (
        "delay-then-future-sync",
        "(defun f (acc l)
  (when l
    (f acc (cdr l))
    (setf (car l) 0)
    (setf (car acc) (+ (car acc) (car l)))))",
    ),
    (
        "delay-then-locks",
        "(curare-declare (reorderable *))
(defun fw (l)
  (when (cdr (cdr l))
    (fw (cdr l))
    (print (car l))
    (setf (car l) (* (car l) 2))
    (+ (car (cdr l)) (car (cdr (cdr l))))))",
    ),
    (
        "rotate",
        "(defun rotate (l)
  (when l
    (rotate (cdr l))
    (setf (cdr l) (car l))))",
    ),
    (
        "cross-root-mix",
        "(defun mix (a b)
  (when (consp b)
    (mix (cddr a) (cdr b))
    (setf (car b) (car a))))",
    ),
    (
        "inverse-delay",
        "(curare-declare (inverse succ pred))
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (walk (dl-succ n))
    (print (dl-value n))
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))))",
    ),
];

fn cdrs(k: usize, of: &str) -> String {
    (0..k).fold(of.to_string(), |acc, _| format!("(cdr {acc})"))
}

/// A walker that doubles its own car after the recursive call and
/// then runs `reads` statements, each summing `terms` loads of the car
/// `k` (two of every four statements) or `k + 1` cells ahead: conflict
/// distance `k`, rescued by synthesized rw locks.
fn window_walker(k: usize, reads: usize, terms: usize) -> String {
    let near = cdrs(k, "l");
    let far = format!("(cdr {near})");
    let body: String = (0..reads)
        .map(|i| {
            let word = if i % 4 < 2 { &near } else { &far };
            format!("(+{}) ", format!(" (car {word})").repeat(terms))
        })
        .collect();
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

fn lisp_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lisp"))
        .collect();
    files.sort();
    files
}

/// Every corpus program as `(name, source)`, in a fixed order.
pub(crate) fn programs() -> Vec<(String, String)> {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp");
    let mut out: Vec<(String, String)> = Vec::new();
    for dir in [examples.clone(), examples.join("fixtures")] {
        for file in lisp_files(&dir) {
            let name = file.strip_prefix(&examples).expect("under examples").display().to_string();
            let src = std::fs::read_to_string(&file).expect("readable example");
            out.push((name, src));
        }
    }
    out.extend(FIGURES.iter().map(|(n, s)| (n.to_string(), s.to_string())));
    out.push(("inverse-writer".to_string(), INVERSE_WRITER.to_string()));
    out.extend(DEVICE_PROGRAMS.iter().map(|(n, s)| (n.to_string(), s.to_string())));
    // The benchmark's walk-locked shape: k = 2, 16 statements of 16 loads.
    out.push(("walk-locked".to_string(), window_walker(2, 16, 16)));
    for k in 1..=4 {
        for reads in 1..=16 {
            out.push((format!("window-k{k}-r{reads}"), window_walker(k, reads, 2)));
        }
    }
    out
}
