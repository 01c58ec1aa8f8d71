//! Conflict detection between recursive invocations (paper §2).
//!
//! A structure modification `M = ⟨A₁, v⟩` in invocation `i` conflicts
//! with an access `⟨A₂, v⟩` in invocation `i+d` when `A₁ ≤ τ^d ∘ A₂`
//! (the written location lies on the later access's path), and
//! symmetrically when the later reference is the modification. The
//! *distance* of a conflict is the number of invocations separating
//! the references; the minimum distance bounds the concurrency that
//! locking can retain (§3.2.1: "the maximum concurrency of f is no
//! more than min(d₁ … d_u)").

use crate::access::{collect_accesses, AccessSummary};
use crate::path::Path;
use crate::transfer::{transfer_functions, Transfer, TransferSummary};
use curare_lisp::ast::Func;

/// Whether a conflict involves two writes or a write and a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencyKind {
    /// Flow or anti dependency (one write, one read — which is which
    /// depends on execution order the flow-insensitive analysis does
    /// not track).
    WriteRead,
    /// Output dependency.
    WriteWrite,
}

/// One detected conflict between invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Parameter the conflicting paths are rooted at.
    pub root: usize,
    /// The modification path.
    pub write_path: Path,
    /// The other access's path.
    pub other_path: Path,
    /// Kind of dependency.
    pub kind: DependencyKind,
    /// Minimum distance (in invocations) at which the conflict occurs.
    pub distance: usize,
    /// True if the conflict recurs at every distance ≥ `distance`
    /// (e.g. a write through an invariant pointer).
    pub persistent: bool,
}

/// The conflict analysis of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// All conflicts, deduplicated by (root, paths, kind).
    pub conflicts: Vec<Conflict>,
    /// The smallest conflict distance, if any conflict exists.
    pub min_distance: Option<usize>,
    /// Writes whose roots the analysis could not resolve; a nonzero
    /// count means the function cannot be proven safe.
    pub unknown_writes: usize,
    /// Unresolvable reads (informational).
    pub unknown_reads: usize,
}

impl ConflictReport {
    /// True when no conflicts and no unknown writes exist: invocations
    /// may run fully concurrently without synchronization.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.is_empty() && self.unknown_writes == 0
    }

    /// Stable single-line JSON (schema `curare-conflicts/1`), so
    /// `experiments validate` can gate analysis output the way it
    /// gates BENCH_sched.json.
    pub fn to_json(&self) -> curare_obs::Json {
        let conflicts: Vec<curare_obs::Json> = self
            .conflicts
            .iter()
            .map(|c| {
                curare_obs::Json::obj()
                    .set("root", c.root)
                    .set("write_path", c.write_path.to_string())
                    .set("other_path", c.other_path.to_string())
                    .set(
                        "kind",
                        match c.kind {
                            DependencyKind::WriteRead => "write-read",
                            DependencyKind::WriteWrite => "write-write",
                        },
                    )
                    .set("distance", c.distance)
                    .set("persistent", c.persistent)
            })
            .collect();
        let mut doc = curare_obs::Json::obj()
            .set("schema", "curare-conflicts/1")
            .set("conflict_free", self.is_conflict_free())
            .set("conflicts", conflicts)
            .set("unknown_writes", self.unknown_writes)
            .set("unknown_reads", self.unknown_reads);
        if let Some(d) = self.min_distance {
            doc = doc.set("min_distance", d);
        }
        doc
    }
}

/// Largest distance probed when a conflict's persistence is checked.
fn distance_bound(write: &Path, other: &Path, tau: &Transfer) -> usize {
    match tau.min_step_len() {
        // Unknown τ: distance 1 already conflicts; no need to search.
        None => 1,
        Some(0) => write.len().max(other.len()) + 2,
        Some(step) => (write.len() + other.len()) / step + 2,
    }
}

/// Detect conflicts between `write` and `other` under `tau`, returning
/// the minimal distance and persistence.
///
/// Two orientations, because the flow-insensitive analysis does not
/// know which frame runs first:
///
/// - **write earlier** (`A₁ ≤ τ^d ∘ A₂`, `A₁` the modification): the
///   write lands on — or strictly above, on the traversal of — the
///   path the invocation `d` frames later accesses.
/// - **write later**: the word the later invocation writes, seen from
///   the earlier frame, is `τ^d ∘ write`; it conflicts when it IS the
///   earlier access's word or a pointer word on its traversal — i.e.
///   some word of `τ^d ∘ write` equals a (non-strict) prefix of
///   `other`. A *strictly shorter* earlier read of a pointer whose
///   subtree is later written names a different word and is no
///   conflict (the deeper traversal-read case is the swapped pair's
///   write-earlier orientation).
fn pair_conflict(write: &Path, other: &Path, tau: &Transfer) -> Option<(usize, bool)> {
    let bound = distance_bound(write, other, tau);
    let hits = |d: usize| {
        let step = tau.regex_at_distance(d);
        if step.clone().then(crate::regex::PathRegex::literal(other)).has_prefix(write) {
            return true;
        }
        let written = step.then(crate::regex::PathRegex::literal(write));
        (1..=other.len()).any(|k| written.matches(&Path::from(other.accessors()[..k].to_vec())))
    };
    let d0 = (1..=bound).find(|&d| hits(d))?;
    // Persistence: by the prefix-stability argument (once d·|τ|min
    // exceeds |write|, the reachable prefixes stop changing), testing
    // one distance past the bound decides all larger distances.
    Some((d0, hits(bound + 1)))
}

/// Run the full conflict analysis for `func`.
pub fn analyze_conflicts(func: &Func) -> ConflictReport {
    let accesses = collect_accesses(func);
    let transfers = transfer_functions(func);
    conflicts_from_parts(&accesses, &transfers)
}

/// Conflict analysis from precomputed accesses and transfers.
///
/// The test `A₁ ≤ τᵈ ∘ A₂` reads only each record's root, path and
/// write flag, so it runs once per pair of distinct access classes
/// ([`AccessSummary::classes`]). Each class pair yields at most one
/// conflict and distinct pairs yield distinct conflicts, and classes
/// keep first-occurrence order, so the report equals the one every
/// record pair would give, in the same order.
pub fn conflicts_from_parts(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
) -> ConflictReport {
    let classes = accesses.classes();
    let mut conflicts: Vec<Conflict> = Vec::new();
    for w in classes.iter().filter(|r| r.write) {
        let Some(tau) = transfers.per_param.get(w.root) else { continue };
        // No pair is skipped, the write's own class included: a write
        // through a τ that never moves names the same location in
        // every invocation, which IS a conflict.
        for o in classes.iter().filter(|o| o.root == w.root) {
            if let Some((distance, persistent)) = pair_conflict(&w.path, &o.path, tau) {
                let kind =
                    if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
                conflicts.push(Conflict {
                    root: w.root,
                    write_path: w.path.clone(),
                    other_path: o.path.clone(),
                    kind,
                    distance,
                    persistent,
                });
            }
        }
    }
    conflicts.sort_by_key(|c| (c.distance, c.root));
    let min_distance = conflicts.first().map(|c| c.distance);
    ConflictReport {
        conflicts,
        min_distance,
        unknown_writes: accesses.unknown_writes,
        unknown_reads: accesses.unknown_reads,
    }
}

/// The all-record-pairs loop [`conflicts_from_parts`] replaced, kept
/// as the oracle it is tested against.
#[cfg(test)]
pub(crate) fn all_pairs_reference(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
) -> ConflictReport {
    let mut conflicts: Vec<Conflict> = Vec::new();
    let mut consider = |w: &crate::access::AccessRecord,
                        o: &crate::access::AccessRecord,
                        tau: &Transfer| {
        if let Some((distance, persistent)) = pair_conflict(&w.path, &o.path, tau) {
            let kind = if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
            let c = Conflict {
                root: w.root,
                write_path: w.path.clone(),
                other_path: o.path.clone(),
                kind,
                distance,
                persistent,
            };
            if !conflicts.contains(&c) {
                conflicts.push(c);
            }
        }
    };
    for w in accesses.writes() {
        let Some(tau) = transfers.per_param.get(w.root) else { continue };
        for o in &accesses.records {
            if o.root != w.root {
                continue;
            }
            consider(w, o, tau);
        }
    }
    conflicts.sort_by_key(|c| (c.distance, c.root));
    let min_distance = conflicts.first().map(|c| c.distance);
    ConflictReport {
        conflicts,
        min_distance,
        unknown_writes: accesses.unknown_writes,
        unknown_reads: accesses.unknown_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn report_of(src: &str) -> ConflictReport {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        analyze_conflicts(&prog.funcs[0])
    }

    #[test]
    fn figure_3_is_conflict_free() {
        let r = report_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert!(r.is_conflict_free(), "{r:?}");
        assert_eq!(r.min_distance, None);
    }

    #[test]
    fn figure_4_conflict_at_distance_1() {
        // "the distance of the conflict is 1 since the location written
        // in an invocation is read in the subsequent one" (§2.1).
        let r = report_of("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        assert_eq!(r.min_distance, Some(1), "{r:?}");
        let c = &r.conflicts[0];
        assert_eq!(c.write_path.to_string(), "cdr.car");
        assert_eq!(c.kind, DependencyKind::WriteRead);
    }

    #[test]
    fn figure_5_conflicts() {
        // §2.2: A2 ⊙₁ A3 (cdr.car vs car); A2 does not conflict with A1.
        let r = report_of(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        assert_eq!(r.min_distance, Some(1));
        // The write cdr.car conflicts with read car at distance 1...
        assert!(r.conflicts.iter().any(|c| c.write_path.to_string() == "cdr.car"
            && c.other_path.to_string() == "car"
            && c.distance == 1));
        // ...but never with the read of cdr (cdr⁺.car is never a
        // prefix of all-cdr strings).
        assert!(!r
            .conflicts
            .iter()
            .any(|c| c.write_path.to_string() == "cdr.car" && c.other_path.to_string() == "cdr"));
    }

    #[test]
    fn skip_two_conflict_distance_two() {
        // Write one cell ahead but recurse two: conflict at distance...
        // write path cdr.car, τ = cdr.cdr, read path car:
        // cdr.car ≤ (cdr.cdr)^d.car? d=1: cdr.cdr.car no (needs
        // cdr.car prefix → second letter car vs cdr: no). So no
        // conflict with car. But write cdr.car vs read cdr.car:
        // (cdr.cdr)^d.cdr.car: d=1 gives cdr.cdr.cdr.car; prefix
        // cdr.car fails. Self-pair: cdr.car vs cdr.car at d where
        // τ^d = ε? never. So conflict-free!
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (cadr l) (car l))
                 (f (cddr l))))",
        );
        assert!(r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn write_two_ahead_read_current_distance_two() {
        // (setf (caddr l) (car l)), τ = cdr: write cdr.cdr.car; read
        // car. cdr.cdr.car ≤ cdr^d.car ⇔ d = 2.
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (caddr l) (car l))
                 (f (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(2), "{r:?}");
    }

    #[test]
    fn invariant_pointer_write_is_persistent_distance_1() {
        // Writing through an unchanged parameter hits the same cell in
        // every invocation: conflict at every distance.
        let r = report_of(
            "(defun f (acc l)
               (when l
                 (setf (car acc) (+ (car acc) (car l)))
                 (f acc (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(1));
        assert!(r.conflicts.iter().any(|c| c.persistent), "{r:?}");
        // Output dependency with itself is among them.
        assert!(r.conflicts.iter().any(|c| c.kind == DependencyKind::WriteWrite));
    }

    #[test]
    fn unknown_tau_forces_conflict() {
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (car l) 1)
                 (f (reverse l))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
    }

    #[test]
    fn unknown_write_blocks() {
        let r = report_of("(defun f (l) (setf (car *global*) 1) (f (cdr l)))");
        assert!(!r.is_conflict_free());
        assert_eq!(r.unknown_writes, 1);
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn pure_reader_state_never_conflicts() {
        let r = report_of("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
        assert!(r.is_conflict_free());
    }

    #[test]
    fn writes_on_different_parameters_do_not_interact() {
        // Without aliasing declarations the analysis treats distinct
        // parameters as distinct SAPP roots (the paper's no-alias
        // assumption, which declarations assert).
        let r = report_of(
            "(defun f (a b)
               (when a
                 (setf (car a) (car b))
                 (f (cdr a) (cdr b))))",
        );
        // write car (root a) vs read car (root b): different roots.
        // write car vs τ^d.car on root a: car ≤ cdr^d.car fails.
        assert!(r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn dps_output_writes_have_distance_conflicts_only_via_dest() {
        // remq-d writes (cdr dest) where dest's τ is unknown-ish: dest
        // is rebound to a fresh cell at some sites and itself at
        // others. The blank-slate analysis must find a potential
        // conflict (paper §5: "CURARE's conflict-detection algorithm is
        // flow-insensitive and hence the function would need
        // synchronization code").
        let r = report_of(
            "(defun remq-d (dest obj lst)
               (cond ((null lst) (setf (cdr dest) nil))
                     ((eq obj (car lst)) (remq-d dest obj (cdr lst)))
                     (t (let ((cell (cons (car lst) nil)))
                          (remq-d cell obj (cdr lst))
                          (setf (cdr dest) cell)))))",
        );
        assert!(!r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn shallow_write_conflicts_with_deeper_read_ahead() {
        // The write happens in the *later* frame: invocation i reads
        // (car (cdr l)) — the word invocation i+1 writes with
        // (setf (car l) ...). τ∘car = cdr.car = the read path exactly.
        let r = report_of(
            "(defun fw (l)
               (when (cdr l)
                 (fw (cdr l))
                 (setf (car l) (* (car l) 2))
                 (car (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
        assert!(r.conflicts.iter().any(|c| c.write_path.to_string() == "car"
            && c.other_path.to_string() == "cdr.car"
            && c.kind == DependencyKind::WriteRead));
        // The guard's pure-cdr read names spine pointers, not the
        // written car word: no conflict with it.
        assert!(!r.conflicts.iter().any(|c| c.other_path.to_string() == "cdr"));
    }

    #[test]
    fn read_window_conflict_distance_is_window_depth() {
        // Reads k=2 cells ahead of the write: the later frame's write,
        // seen from the reading frame, is cdr^d.car; it equals the
        // read path cdr.cdr.car only at d = 2.
        let r = report_of(
            "(defun fw (l)
               (when (cdr (cdr l))
                 (fw (cdr l))
                 (setf (car l) (* (car l) 2))
                 (car (cdr (cdr l)))))",
        );
        assert!(
            r.conflicts.iter().any(|c| c.write_path.to_string() == "car"
                && c.other_path.to_string() == "cdr.cdr.car"
                && c.distance == 2),
            "{r:?}"
        );
    }

    #[test]
    fn shorter_pointer_read_is_not_a_conflict_with_deeper_write() {
        // Invocation i reads the pointer word cdr; invocation i+d
        // writes cdr^{d+1}.car — a different word. The traversal-read
        // direction (later frame reads what an earlier frame wrote) is
        // the forward orientation and fires only when the write is a
        // prefix of the translated access, which all-cdr strings never
        // let cdr.car be.
        let r = report_of(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (cadr l) 1)))",
        );
        assert!(!r.conflicts.iter().any(|c| c.other_path.to_string() == "cdr"), "{r:?}");
    }

    #[test]
    fn report_json_round_trips() {
        let r = report_of("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        let text = r.to_json().to_string();
        assert!(!text.contains('\n'), "single line: {text}");
        let doc = curare_obs::Json::parse(&text).expect("round-trip");
        assert_eq!(
            doc.get("schema").and_then(curare_obs::Json::as_str),
            Some("curare-conflicts/1")
        );
        assert_eq!(doc.get("min_distance").and_then(curare_obs::Json::as_u64), Some(1));
        let cs = doc.get("conflicts").and_then(curare_obs::Json::as_arr).unwrap();
        assert_eq!(cs.len(), r.conflicts.len());
        assert_eq!(cs[0].get("write_path").and_then(curare_obs::Json::as_str), Some("cdr.car"));
        assert_eq!(cs[0].get("kind").and_then(curare_obs::Json::as_str), Some("write-read"));
    }

    #[test]
    fn conflict_free_report_json_has_no_min_distance() {
        let r = report_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        let doc = curare_obs::Json::parse(&r.to_json().to_string()).unwrap();
        assert!(doc.get("min_distance").is_none());
        assert_eq!(doc.get("conflict_free").and_then(curare_obs::Json::as_bool), Some(true));
    }

    #[test]
    fn struct_recursion_conflicts() {
        let r = report_of(
            "(defstruct node next value)
             (defun bump (n)
               (when n
                 (setf (node-value (node-next n)) (node-value n))
                 (bump (node-next n))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
    }
}
