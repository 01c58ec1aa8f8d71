//! Conflict detection modulo canonicalization (paper §2.1).
//!
//! With declared inverse accessors (`(curare-declare (inverse succ
//! pred))`), two textually different paths can name one location:
//! a *backward* write `pred.value` in invocation *i* is, in invocation
//! *i−1*'s coordinates, `succ.pred.value` — which canonicalizes to
//! `value`, that invocation's own read. The plain string-prefix test
//! misses this; the canonical test enumerates the (finite, for literal
//! transfer functions) strings of `τᵈ ∘ A`, canonicalizes each, and
//! compares against the canonicalized other path.

use std::collections::BTreeSet;

use crate::access::AccessSummary;
use crate::canon::Canonicalizer;
use crate::conflict::{Conflict, ConflictReport, DependencyKind};
use crate::path::Path;
use crate::transfer::{Transfer, TransferSummary};

/// Cap on enumerated composition strings (alternation fan-out).
const MAX_STRINGS: usize = 4096;

/// All strings of `τ^d ∘ suffix` for a literal transfer function;
/// `None` when the enumeration exceeds the cap or τ is unknown.
fn compose_strings(tau: &Transfer, d: usize, suffix: &Path) -> Option<BTreeSet<Path>> {
    let Transfer::Literal(steps) = tau else { return None };
    if steps.is_empty() {
        // No recursive site: τ ≈ ε.
        return Some(std::iter::once(suffix.clone()).collect());
    }
    let mut fronts: BTreeSet<Path> = std::iter::once(Path::empty()).collect();
    for _ in 0..d {
        let mut next = BTreeSet::new();
        for f in &fronts {
            for s in steps {
                next.insert(f.concat(s));
                if next.len() > MAX_STRINGS {
                    return None;
                }
            }
        }
        fronts = next;
    }
    Some(fronts.into_iter().map(|f| f.concat(suffix)).collect())
}

/// Direction 1 — the write happens in the *earlier* invocation: does
/// its destination coincide (canonically) with any location the later
/// invocation's traversal `τ^d ∘ later` reads? The traversal reads the
/// location named by each nonempty prefix of its path.
fn earlier_write_hits_later_access(
    write: &Path,
    tau: &Transfer,
    later: &Path,
    d: usize,
    canon: &Canonicalizer,
) -> Option<bool> {
    let strings = compose_strings(tau, d, later)?;
    let dest = canon.canonicalize(write);
    Some(strings.iter().any(|w| {
        (1..=w.len()).any(|k| {
            let prefix = Path::from(w.accessors()[..k].to_vec());
            canon.canonicalize(&prefix) == dest
        })
    }))
}

/// Direction 2 — the write happens in the *later* invocation: its
/// destination, re-expressed in the earlier invocation's coordinates,
/// is the full string set `τ^d ∘ write`; conflict if any such string
/// canonically equals a location the earlier access's own traversal
/// reads (a nonempty prefix of `earlier`).
fn later_write_hits_earlier_access(
    write: &Path,
    tau: &Transfer,
    earlier: &Path,
    d: usize,
    canon: &Canonicalizer,
) -> Option<bool> {
    let strings = compose_strings(tau, d, write)?;
    let dests: BTreeSet<Path> = strings.iter().map(|w| canon.canonicalize(w)).collect();
    Some((1..=earlier.len()).any(|k| {
        let prefix = Path::from(earlier.accessors()[..k].to_vec());
        dests.contains(&canon.canonicalize(&prefix))
    }))
}

/// Largest distance worth probing: once `d · min-step` exceeds the
/// combined path lengths, prefixes stabilize (see `conflict.rs`); the
/// cancellation of inverse pairs can only *shorten* strings, so a
/// small extra margin covers detours.
fn bound(write: &Path, other: &Path, tau: &Transfer) -> usize {
    match tau.min_step_len() {
        None => 1,
        Some(0) => write.len().max(other.len()) + 2,
        Some(step) => (write.len() + other.len()) / step + 4,
    }
}

/// Conflict analysis with a canonicalizer: like
/// [`crate::conflict::conflicts_from_parts`], plus detection of
/// canonical aliases in *both* temporal directions (the later
/// invocation's access re-expressed in the earlier one's coordinates).
/// Like the plain test it runs once per pair of distinct access
/// classes, which gives the report every record pair would.
pub fn conflicts_with_canon(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
    canon: &Canonicalizer,
) -> ConflictReport {
    // Start from the plain (string-prefix) analysis...
    let mut report = crate::conflict::conflicts_from_parts(accesses, transfers);

    // ...then add canonical-alias conflicts.
    let classes = accesses.classes();
    for w in classes.iter().filter(|r| r.write) {
        let Some(tau) = transfers.per_param.get(w.root) else { continue };
        for o in classes.iter().filter(|o| o.root == w.root) {
            let kind = if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
            let b = bound(&w.path, &o.path, tau);
            for d in 1..=b {
                let hit1 = earlier_write_hits_later_access(&w.path, tau, &o.path, d, canon)
                    .unwrap_or(false);
                let hit2 = later_write_hits_earlier_access(&w.path, tau, &o.path, d, canon)
                    .unwrap_or(false);
                if hit1 || hit2 {
                    let c = Conflict {
                        root: w.root,
                        write_path: w.path.clone(),
                        other_path: o.path.clone(),
                        kind,
                        distance: d,
                        persistent: false,
                    };
                    if !report.conflicts.iter().any(|e| {
                        e.root == c.root
                            && e.write_path == c.write_path
                            && e.other_path == c.other_path
                            && e.kind == c.kind
                            && e.distance <= c.distance
                    }) {
                        report.conflicts.push(c);
                    }
                    break;
                }
            }
        }
    }
    report.conflicts.sort_by_key(|c| (c.distance, c.root));
    report.min_distance = report.conflicts.first().map(|c| c.distance);
    report
}

/// The all-record-pairs loop [`conflicts_with_canon`] replaced, kept
/// as the oracle it is tested against.
#[cfg(test)]
pub(crate) fn all_pairs_reference(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
    canon: &Canonicalizer,
) -> ConflictReport {
    let mut report = crate::conflict::all_pairs_reference(accesses, transfers);
    for w in accesses.writes() {
        let Some(tau) = transfers.per_param.get(w.root) else { continue };
        for o in accesses.records.iter().filter(|o| o.root == w.root) {
            let kind = if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
            let b = bound(&w.path, &o.path, tau);
            for d in 1..=b {
                let hit1 = earlier_write_hits_later_access(&w.path, tau, &o.path, d, canon)
                    .unwrap_or(false);
                let hit2 = later_write_hits_earlier_access(&w.path, tau, &o.path, d, canon)
                    .unwrap_or(false);
                if hit1 || hit2 {
                    let c = Conflict {
                        root: w.root,
                        write_path: w.path.clone(),
                        other_path: o.path.clone(),
                        kind,
                        distance: d,
                        persistent: false,
                    };
                    if !report.conflicts.iter().any(|e| {
                        e.root == c.root
                            && e.write_path == c.write_path
                            && e.other_path == c.other_path
                            && e.kind == c.kind
                            && e.distance <= c.distance
                    }) {
                        report.conflicts.push(c);
                    }
                    break;
                }
            }
        }
    }
    report.conflicts.sort_by_key(|c| (c.distance, c.root));
    report.min_distance = report.conflicts.first().map(|c| c.distance);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::collect_accesses;
    use crate::declare::DeclDb;
    use crate::transfer::transfer_functions;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::{parse_all, parse_one};

    fn analyze_with_decl(src: &str, decl: Option<&str>) -> ConflictReport {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let func = prog.funcs.iter().find(|f| f.is_recursive()).expect("a recursive function");
        let accesses = collect_accesses(func);
        let transfers = transfer_functions(func);
        let canon = match decl {
            Some(d) => {
                let mut db = DeclDb::new();
                db.add_toplevel(&parse_one(d).unwrap()).unwrap();
                Canonicalizer::from_decls(&db, &heap)
            }
            None => Canonicalizer::identity(),
        };
        conflicts_with_canon(&accesses, &transfers, &canon)
    }

    fn analyze(src: &str, with_inverse: bool) -> ConflictReport {
        analyze_with_decl(src, with_inverse.then_some("(curare-declare (inverse succ pred))"))
    }

    const BACKWARD_WRITER: &str = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))
    (walk (dl-succ n))))";

    #[test]
    fn backward_write_found_only_with_canonicalization() {
        // Writing the *previous* node's value: invocation i's write
        // aliases invocation i-1's read, but only the canonical test
        // sees it (succ.pred cancels).
        let plain = analyze(BACKWARD_WRITER, false);
        assert!(
            !plain.conflicts.iter().any(|c| c.distance == 1
                && c.kind == DependencyKind::WriteRead
                && c.write_path.to_string().contains("f0.1")),
            "plain analysis should miss the canonical alias: {plain:?}"
        );
        let canonical = analyze(BACKWARD_WRITER, true);
        assert_eq!(canonical.min_distance, Some(1), "{canonical:?}");
    }

    #[test]
    fn forward_writer_unchanged_by_canonicalization() {
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (setf (dl-value (dl-succ n)) (dl-value n))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        let canonical = analyze(src, true);
        assert_eq!(plain.min_distance, Some(1));
        assert_eq!(canonical.min_distance, Some(1));
    }

    #[test]
    fn conflict_free_stays_conflict_free() {
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (print (dl-value n))
    (walk (dl-succ n))))";
        let canonical = analyze(src, true);
        assert!(canonical.is_conflict_free(), "{canonical:?}");
    }

    #[test]
    fn double_backward_write_cancels_at_distance_two() {
        // Writing two nodes back: invocation i's destination is, in
        // invocation i-2's coordinates, succ.succ.pred.pred.value —
        // both inverse pairs must cancel for the alias to surface.
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred (dl-pred n))) (dl-value n)))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        assert!(plain.is_conflict_free(), "plain prefix test must miss it: {plain:?}");
        let canonical = analyze(src, true);
        assert_eq!(canonical.min_distance, Some(2), "{canonical:?}");
    }

    #[test]
    fn mixed_cons_struct_paths_cancel_through_fields() {
        // The alias detour runs through struct fields (succ.pred
        // cancels) but the conflicting location is a cons word hanging
        // off the struct: the canonical paths mix field and car
        // letters.
        let src = "
(defstruct dl succ pred items)
(defun walk (n)
  (when n
    (print (car (dl-items n)))
    (when (dl-pred n)
      (setf (car (dl-items (dl-pred n))) 0))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        assert!(
            !plain.conflicts.iter().any(|c| c.kind == DependencyKind::WriteRead),
            "plain analysis should miss the mixed-path alias: {plain:?}"
        );
        let canonical = analyze(src, true);
        assert_eq!(canonical.min_distance, Some(1), "{canonical:?}");
        assert!(
            canonical.conflicts.iter().any(|c| c.kind == DependencyKind::WriteRead),
            "{canonical:?}"
        );
    }

    #[test]
    fn partial_cancellation_must_not_merge_distinct_cells() {
        // Recursing two succ steps while writing one node back: the
        // written nodes are the odd positions, the read ones even.
        // τ^d ∘ write = succ^{2d}.pred.value cancels only partially
        // (to succ^{2d-1}.value ≠ value), so canonicalization must
        // *fail* to merge the paths and report conflict-freedom.
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) 0))
    (print (dl-value n))
    (walk (dl-succ (dl-succ n)))))";
        let canonical = analyze(src, true);
        assert!(canonical.is_conflict_free(), "{canonical:?}");
    }

    #[test]
    fn unresolvable_inverse_pair_leaves_paths_uncanonicalized() {
        // (inverse fwd bwd) names accessors no struct defines: the
        // canonicalizer resolves nothing and silently degenerates to
        // the identity, so the backward-write alias is missed. This is
        // the blind spot `curare check` C003 reports.
        let degenerate =
            analyze_with_decl(BACKWARD_WRITER, Some("(curare-declare (inverse fwd bwd))"));
        assert!(degenerate.is_conflict_free(), "{degenerate:?}");
        let proper = analyze(BACKWARD_WRITER, true);
        assert_eq!(proper.min_distance, Some(1));
    }

    #[test]
    fn compose_strings_enumerates_alternations() {
        use crate::path::parse_list_path;
        let tau = Transfer::Literal(
            [parse_list_path("car").unwrap(), parse_list_path("cdr").unwrap()]
                .into_iter()
                .collect(),
        );
        let s = compose_strings(&tau, 2, &Path::empty()).unwrap();
        assert_eq!(s.len(), 4); // {car,cdr}²
        let s3 = compose_strings(&tau, 3, &parse_list_path("car").unwrap()).unwrap();
        assert_eq!(s3.len(), 8);
        assert!(s3.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn unknown_tau_is_left_to_the_plain_analysis() {
        let tau = Transfer::Unknown;
        assert!(compose_strings(&tau, 1, &Path::empty()).is_none());
    }
}
