//! The Curare driver: analysis → device selection → CRI conversion.
//!
//! For each `defun` of a program the pipeline picks the cheapest
//! correctness device the paper describes, in the §3.2 cost order
//! (locking is most general and most expensive, delays cheaper,
//! reordering cheapest):
//!
//! 1. **reorder** (§3.2.3) — declared-commutative accumulations become
//!    atomic updates before anything else runs;
//! 2. conflict analysis (§2) over the (possibly rewritten) function;
//! 3. if the function's conflicting accesses all precede its recursive
//!    calls, the sequential execution of heads already orders them —
//!    no synchronization is inserted;
//! 4. otherwise **delay** (§3.2.2) tries to move the offending
//!    statements into the head;
//! 5. otherwise **locks** (§3.2.1) are inserted;
//! 6. finally the recursive calls become queue insertions (**CRI**,
//!    §3.1/§4), ready for the server-pool runtime.
//!
//! Functions blocked because they consume recursive results go through
//! the §5 enabling transformations: destination-passing style when the
//! result is list construction, with the DPS provenance guarantee
//! letting the pipeline skip conflict synthesis on the fresh
//! destination cells.

use std::borrow::Cow;

use curare_analysis::analyze::{analyze_function, analyze_function_with_canon};
use curare_analysis::{BlockReason, Canonicalizer, DeclDb, Verdict};
use curare_lisp::Heap;
use curare_sexpr::{parse_all, pretty, Sexpr};

use crate::cri::cri_convert;
use crate::delay::{delay_transform, has_tail_statements};
use crate::dps::dps_transform;
use crate::fold::fold_to_walker;
use crate::futuresync::future_sync;
use crate::locks::{analyze_defun, lock_rescue, lower_defun, LockSpec};
use crate::reorder::reorder_transform;

/// Which device(s) the pipeline applied to a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Device {
    /// Commutative updates rewritten to atomic ones (count).
    Reorder(usize),
    /// Conflicts resolved by sequential head execution; nothing added.
    HeadOrdering,
    /// Statements moved into the head (count).
    Delay(usize),
    /// Locks inserted (the standalone §3.2.1 transform; the pipeline
    /// itself prefers the order-correct devices below).
    Locks(Vec<LockSpec>),
    /// Post-call statements synchronized with `(touch (future …))`
    /// (count of wrapped call sites).
    FutureSync(usize),
    /// Rewritten to destination-passing style.
    Dps,
    /// Rewritten from a linear reduction to an accumulating walker
    /// (§5, Huet–Lang-style; requires a reorderable operator).
    Fold,
    /// Admitted to optimistic execution under `SpecMode`: conflicts
    /// are statically unproven (⊤-write, unsyncable tail, or
    /// alias-contingent cross-parameter accesses), so the invocations
    /// run in parallel journaled, and the runtime's commit-time
    /// validator aborts/replays any that contradict sequential order.
    Speculate,
    /// Converted to CRI enqueue form (call-site count).
    Cri(usize),
}

/// Per-function outcome.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Analysis verdict (after reorder rewrites).
    pub verdict: Verdict,
    /// Devices applied, in order.
    pub devices: Vec<Device>,
    /// Whether the function was converted for concurrent execution.
    pub converted: bool,
    /// §6-style feedback text.
    pub feedback: String,
    /// Provenance for diagnostics: true when order-sensitive post-call
    /// statements survived delay but future synchronization refused
    /// them, leaving the function unconverted (C005).
    pub unsynced_tail: bool,
}

/// The whole transformation's output.
#[derive(Debug, Clone)]
pub struct CurareOutput {
    /// Transformed top-level forms, in input order.
    pub forms: Vec<Sexpr>,
    /// One report per input defun.
    pub reports: Vec<FunctionReport>,
}

impl CurareOutput {
    /// Pretty-printed transformed program.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for f in &self.forms {
            out.push_str(&pretty(f));
            out.push_str("\n\n");
        }
        out
    }

    /// The report for `name`, if that function existed.
    pub fn report(&self, name: &str) -> Option<&FunctionReport> {
        self.reports.iter().find(|r| r.name == name)
    }
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Source did not parse.
    Parse(String),
    /// Declarations were malformed.
    Decl(String),
    /// A transform failed unexpectedly.
    Transform(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(m) => write!(f, "parse error: {m}"),
            PipelineError::Decl(m) => write!(f, "declaration error: {m}"),
            PipelineError::Transform(m) => write!(f, "transform error: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The Curare transformer.
pub struct Curare {
    heap: Heap,
    decls: DeclDb,
    coalesce_locks: bool,
    speculate: bool,
}

impl Default for Curare {
    fn default() -> Self {
        Self::new()
    }
}

impl Curare {
    /// A transformer with an empty declaration database.
    pub fn new() -> Self {
        Curare { heap: Heap::new(), decls: DeclDb::new(), coalesce_locks: false, speculate: false }
    }

    /// Merge adjacent lock brackets with identical lock sets when the
    /// lock device applies (coarser critical sections, fewer
    /// acquisitions; exclusion is unchanged). Off by default.
    pub fn with_coalesced_locks(mut self, on: bool) -> Self {
        self.coalesce_locks = on;
        self
    }

    /// Admit statically unprovable functions to optimistic execution
    /// (`SpecMode`, `curare run --speculate`): instead of refusing a
    /// ⊤-write or an unsyncable tail, convert to plain CRI form and
    /// mark the function [`Device::Speculate`] — the runtime journals
    /// its heap accesses and aborts/replays conflicting invocations at
    /// commit time. Proven devices (head ordering, certified locks,
    /// future synchronization) are still preferred where they apply.
    /// Off by default.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculate = on;
        self
    }

    /// The declaration database (for inspection).
    pub fn decls(&self) -> &DeclDb {
        &self.decls
    }

    /// Transform a whole program's source text.
    pub fn transform_source(&mut self, src: &str) -> Result<CurareOutput, PipelineError> {
        let forms = parse_all(src).map_err(|e| PipelineError::Parse(e.to_string()))?;
        self.transform_forms(&forms)
    }

    /// Transform parsed top-level forms.
    pub fn transform_forms(&mut self, forms: &[Sexpr]) -> Result<CurareOutput, PipelineError> {
        // Pass 1: register struct types and collect declarations, so
        // later defuns see accessors and constraints regardless of
        // order.
        {
            let mut lw = curare_lisp::Lowerer::new(&self.heap);
            let prog = lw.lower_program(forms).map_err(|e| PipelineError::Parse(e.to_string()))?;
            self.decls =
                DeclDb::from_program(&prog).map_err(|e| PipelineError::Decl(e.to_string()))?;
        }

        let mut out_forms = Vec::new();
        let mut reports = Vec::new();
        for form in forms {
            if form.is_call("defun") {
                let (mut produced, report) = self.transform_defun(form)?;
                out_forms.append(&mut produced);
                reports.push(report);
            } else {
                out_forms.push(form.clone());
            }
        }
        Ok(CurareOutput { forms: out_forms, reports })
    }

    /// Transform one defun; may emit several forms (DPS emits the
    /// `-d` function plus a wrapper).
    fn transform_defun(
        &mut self,
        form: &Sexpr,
    ) -> Result<(Vec<Sexpr>, FunctionReport), PipelineError> {
        let name = form.nth(1).and_then(Sexpr::as_symbol).unwrap_or("<anonymous>").to_string();
        let mut devices = Vec::new();

        // Device: reorder (cheapest, applied first).
        let reordered = reorder_transform(&self.heap, form, &self.decls);
        let mut current = reordered.form;
        if reordered.atomic_rewrites > 0 {
            devices.push(Device::Reorder(reordered.atomic_rewrites));
        }

        // Declared inverse accessors: the verdict comes from the
        // canonical conflict test, so benign-alias detours are seen
        // (§2.1). Delay and lock rescue read the plain analysis.
        let func = lower_defun(&self.heap, &current)
            .map_err(|e| PipelineError::Transform(e.to_string()))?;
        let canon = (!self.decls.inverse_pairs().is_empty())
            .then(|| Canonicalizer::from_decls(&self.decls, &self.heap));
        let analysis = analyze_function_with_canon(&func, &self.decls, canon.as_ref());
        let verdict = analysis.verdict.clone();
        let feedback = analysis.explain();

        match &verdict {
            Verdict::NotRecursive => {
                return Ok((
                    vec![current],
                    FunctionReport {
                        name,
                        verdict,
                        devices,
                        converted: false,
                        feedback,
                        unsynced_tail: false,
                    },
                ));
            }
            Verdict::Blocked => {
                // §5 enabling transformation: DPS for cons-shaped
                // result users.
                if analysis.reasons.contains(&BlockReason::UsesCallResult) {
                    if let Ok(dps) = dps_transform(&current) {
                        devices.push(Device::Dps);
                        // Provenance: the destination writes are
                        // per-invocation fresh cells — skip conflict
                        // synthesis and convert directly.
                        let cri = cri_convert(&dps.dps_form)
                            .map_err(|e| PipelineError::Transform(e.to_string()))?;
                        devices.push(Device::Cri(cri.sites));
                        let report = FunctionReport {
                            name,
                            verdict,
                            devices,
                            converted: true,
                            feedback: format!(
                                "{feedback}  applied destination-passing style (provenance-safe)\n"
                            ),
                            unsynced_tail: false,
                        };
                        return Ok((vec![cri.form, dps.wrapper], report));
                    }
                    // §5 again: a declared-reorderable linear reduction
                    // becomes an accumulating walker, whose update the
                    // reorder pass then makes atomic.
                    if let Ok(fold) = fold_to_walker(&current, &self.decls) {
                        devices.push(Device::Fold);
                        let walker = reorder_transform(&self.heap, &fold.walker, &self.decls);
                        if walker.atomic_rewrites > 0 {
                            devices.push(Device::Reorder(walker.atomic_rewrites));
                        }
                        let cri = cri_convert(&walker.form)
                            .map_err(|e| PipelineError::Transform(e.to_string()))?;
                        devices.push(Device::Cri(cri.sites));
                        let report = FunctionReport {
                            name,
                            verdict,
                            devices,
                            converted: true,
                            feedback: format!(
                                "{feedback}  applied reduction restructuring (operator {})\n",
                                fold.operator
                            ),
                            unsynced_tail: false,
                        };
                        return Ok((vec![cri.form, fold.wrapper], report));
                    }
                }
                // SpecMode admission, case A: blocked *only* by writes
                // the analysis cannot resolve (⊤-write). The static
                // refusal is a may-conflict, not a will-conflict: run
                // the invocations optimistically and let the runtime
                // validator catch any real collision.
                if self.speculate
                    && !analysis.reasons.is_empty()
                    && analysis.reasons.iter().all(|r| matches!(r, BlockReason::UnknownWrite))
                {
                    if let Ok(cri) = cri_convert(&current) {
                        devices.push(Device::Speculate);
                        devices.push(Device::Cri(cri.sites));
                        let report = FunctionReport {
                            name,
                            verdict,
                            devices,
                            converted: true,
                            feedback: format!(
                                "{feedback}  admitted to speculative execution (unproven write roots)\n"
                            ),
                            unsynced_tail: false,
                        };
                        return Ok((vec![cri.form], report));
                    }
                }
                return Ok((
                    vec![current],
                    FunctionReport {
                        name,
                        verdict,
                        devices,
                        converted: false,
                        feedback,
                        unsynced_tail: false,
                    },
                ));
            }
            Verdict::ConflictFree | Verdict::NeedsSynchronization { .. } => {}
        }

        // SpecMode admission, case C: a conflict-free verdict whose
        // accesses span several parameter roots rests on the
        // single-access-path premise that the roots never alias. Under
        // speculation mark such functions so the journaled run is
        // validated — under-declared aliasing then aborts and replays
        // instead of silently diverging from the sequential answer.
        if self.speculate && matches!(verdict, Verdict::ConflictFree) {
            let roots: std::collections::BTreeSet<usize> =
                analysis.accesses.records.iter().map(|r| r.root).collect();
            if analysis.accesses.writes().next().is_some() && roots.len() >= 2 {
                devices.push(Device::Speculate);
            }
        }

        // Synchronization device selection for real conflicts. The
        // ordering fact that drives it: in sequential recursion,
        // statements *before* the recursive call execute in invocation
        // order, while statements *after* it execute in reverse
        // (unwind) order. Head ordering and delay serve the first
        // class; future synchronization reproduces the second.
        if matches!(verdict, Verdict::NeedsSynchronization { .. }) {
            if !has_tail_statements(&current, &name) {
                // All conflicting accesses precede the spawns: the
                // sequential execution of heads orders them (§3.2.2's
                // "the only inherent ordering").
                devices.push(Device::HeadOrdering);
            } else {
                // Device: delay. Each version of the form is analysed
                // once: the verdict's analysis serves when it is the
                // plain one, and only a form delay rewrote is analysed
                // again (one that does not lower gets no lock rescue).
                let plain = match canon {
                    None => Cow::Borrowed(&analysis),
                    Some(_) => Cow::Owned(analyze_function(&func, &self.decls)),
                };
                let plain = match delay_transform(&self.heap, &current, &plain) {
                    Some(delayed) => {
                        devices.push(Device::Delay(delayed.moved));
                        current = delayed.form;
                        analyze_defun(&self.heap, &current, &self.decls).ok().map(Cow::Owned)
                    }
                    None => Some(plain),
                };
                if has_tail_statements(&current, &name) {
                    // Device: synthesized lock placement (§3.2.1).
                    // Future sync serializes the tails completely;
                    // when the conflict report certifies a minimal
                    // rw placement AND the tails are provably
                    // order-insensitive (or the programmer declared a
                    // placement), statement-scoped lock brackets keep
                    // the tails parallel instead.
                    if let Some(locked) = plain.as_deref().and_then(|a| {
                        lock_rescue(&self.heap, &current, &self.decls, a, self.coalesce_locks)
                    }) {
                        devices.push(Device::Locks(locked.locks.clone()));
                        current = locked.form;
                    } else {
                        // Device: future synchronization (§3.1) — tails
                        // must run in unwind order.
                        match future_sync(&current) {
                            Some(synced) => {
                                devices.push(Device::FutureSync(synced.wrapped));
                                current = synced.form;
                            }
                            None => {
                                // SpecMode admission, case B: the tail
                                // is order-sensitive and future sync
                                // refused it — run it optimistically
                                // instead of sequentially.
                                if self.speculate {
                                    devices.push(Device::Speculate);
                                } else {
                                    return Ok((
                                        vec![current],
                                        FunctionReport {
                                            name,
                                            verdict,
                                            devices,
                                            converted: false,
                                            feedback: format!(
                                                "{feedback}  post-call conflicting statements could not be synchronized\n"
                                            ),
                                            unsynced_tail: true,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }

        // CRI conversion.
        match cri_convert(&current) {
            Ok(cri) => {
                devices.push(Device::Cri(cri.sites));
                Ok((
                    vec![cri.form],
                    FunctionReport {
                        name,
                        verdict,
                        devices,
                        converted: true,
                        feedback,
                        unsynced_tail: false,
                    },
                ))
            }
            Err(e) => Ok((
                vec![current],
                FunctionReport {
                    name,
                    verdict,
                    devices,
                    converted: false,
                    feedback: format!("{feedback}  CRI conversion failed: {e}\n"),
                    unsynced_tail: false,
                },
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> CurareOutput {
        Curare::new().transform_source(src).unwrap()
    }

    #[test]
    fn figure_3_converts_without_synchronization() {
        let out = run("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        let r = out.report("f").unwrap();
        assert!(r.converted);
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Cri(1))));
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Locks(_))));
        assert!(out.source().contains("cri-enqueue"));
    }

    #[test]
    fn figure_5_conflicts_resolved_by_head_ordering() {
        // The setf precedes the recursive call: head execution order
        // already serializes the conflicting accesses.
        let out = run("(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert_eq!(r.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
        assert!(r.devices.contains(&Device::HeadOrdering), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Locks(_))));
    }

    #[test]
    fn order_sensitive_accumulator_uses_future_sync() {
        // The stationary accumulator's post-call update conflicts at
        // every distance AND is order-sensitive (unwind order), so
        // delay must refuse and future-sync must take over.
        let out = run("(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Delay(_))), "{:?}", r.devices);
    }

    #[test]
    fn commutative_tail_rmws_get_synthesized_lock_placement() {
        // Post-call writes at depths 0 and 1 conflict across
        // invocations, but both are declared-commutative RMWs: the
        // synthesized rw placement keeps the tails parallel instead of
        // future-sync serializing them.
        let out = run("(curare-declare (reorderable *))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (cadr l) (* (cadr l) 3))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        let locks = r.devices.iter().find_map(|d| match d {
            Device::Locks(l) => Some(l.clone()),
            _ => None,
        });
        let locks = locks.unwrap_or_else(|| panic!("expected Device::Locks: {:?}", r.devices));
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert!(!r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))), "{:?}", r.devices);
        assert!(out.source().contains("cri-lock"), "{}", out.source());
        assert!(out.source().contains("cri-enqueue"), "{}", out.source());
    }

    #[test]
    fn coalesced_locks_emit_fewer_brackets_same_placement() {
        let src = "(curare-declare (reorderable *))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (car l) (* (car l) 3))
                 (setf (cadr l) (* (cadr l) 5))))";
        let fine = run(src);
        let fused = Curare::new().with_coalesced_locks(true).transform_source(src).unwrap();
        for out in [&fine, &fused] {
            let r = out.report("f").unwrap();
            assert!(r.devices.iter().any(|d| matches!(d, Device::Locks(_))), "{:?}", r.devices);
        }
        let brackets = |out: &CurareOutput| out.source().matches("(cri-lock ").count();
        assert!(brackets(&fused) < brackets(&fine), "{} !< {}", brackets(&fused), brackets(&fine));
    }

    #[test]
    fn declared_lock_placement_is_applied_by_pipeline() {
        // The order-sensitive accumulator normally future-syncs; a
        // declared placement overrides that (and `curare check --locks`
        // is where the declaration gets audited).
        let out = run("(curare-declare (locks f (exclusive l car) (exclusive l cdr.car)))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Locks(_))), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))), "{:?}", r.devices);
    }

    #[test]
    fn delay_moves_only_conflict_free_tail_statements() {
        // Mixed tail: a conflict-free write (car l) moves into the
        // head; the conflicting accumulator write stays and gets
        // future-synced.
        let out = run("(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car l) 0)
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Delay(1))), "{:?}", r.devices);
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        let text = out.source();
        // The moved write precedes the future-wrapped call.
        let w = text.find("(setf (car l) 0)").expect("kept");
        let call = text.find("(touch (future").expect("synced");
        assert!(w < call, "{text}");
    }

    #[test]
    fn conflict_free_post_call_write_needs_nothing() {
        // Writing (car l) after recursing on (cdr l) touches a cell no
        // other invocation touches: conflict-free, no devices beyond
        // CRI conversion.
        let out = run("(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (car l) 0)))");
        let r = out.report("f").unwrap();
        assert!(r.converted);
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert_eq!(r.devices, vec![Device::Cri(1)]);
    }

    #[test]
    fn unmovable_post_call_write_gets_future_sync() {
        // The write overlaps the call argument, so delay refuses;
        // unwind order must be reproduced with future + touch.
        let out = run("(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) (car l))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        let text = out.source();
        assert!(text.contains("(touch (future (f (cdr l))))"), "{text}");
    }

    #[test]
    fn commutative_cell_update_becomes_atomic_and_parallel() {
        // A post-call commutative accumulation into a shared cell:
        // the declaration dissolves the conflict entirely (§3.2.3) —
        // no future-sync, full CRI concurrency.
        let out = run("(curare-declare (reorderable +))
             (defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Reorder(1))), "{:?}", r.devices);
        assert!(
            !r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))),
            "conflict should be dissolved: {:?}",
            r.devices
        );
        let text = out.source();
        assert!(text.contains("atomic-incf-cell"), "{text}");
        assert!(text.contains("cri-enqueue"), "{text}");
    }

    #[test]
    fn remq_goes_through_dps() {
        let out = run("(defun remq (obj lst)
               (cond ((null lst) nil)
                     ((eq obj (car lst)) (remq obj (cdr lst)))
                     (t (cons (car lst) (remq obj (cdr lst))))))");
        let r = out.report("remq").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.contains(&Device::Dps));
        let text = out.source();
        assert!(text.contains("remq-d"), "{text}");
        assert!(text.contains("cri-enqueue"), "{text}");
        // Both the -d function and the wrapper are emitted.
        assert_eq!(out.forms.len(), 2);
    }

    #[test]
    fn sum_fold_stays_blocked_with_feedback() {
        let out = run("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
        let r = out.report("sum").unwrap();
        assert!(!r.converted);
        assert_eq!(r.verdict, Verdict::Blocked);
        assert!(r.feedback.contains("verdict"), "{}", r.feedback);
        // Output is the unchanged function.
        assert!(out.source().contains("(sum (cdr l))"));
    }

    #[test]
    fn reorderable_global_sum_converts() {
        let out = run("(curare-declare (reorderable +))
             (defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))");
        let r = out.report("walk").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Reorder(1))), "{:?}", r.devices);
        assert!(out.source().contains("atomic-incf"));
    }

    #[test]
    fn without_declaration_global_sum_blocked() {
        let out = run("(defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))");
        let r = out.report("walk").unwrap();
        assert!(!r.converted);
        assert!(r.feedback.contains("*sum*"), "{}", r.feedback);
    }

    #[test]
    fn dont_transform_respected() {
        let out = run("(curare-declare (dont-transform f))
             (defun f (l) (when l (print (car l)) (f (cdr l))))");
        let r = out.report("f").unwrap();
        assert!(!r.converted);
        assert!(!out.source().contains("cri-enqueue"));
    }

    #[test]
    fn non_defun_forms_pass_through() {
        let out = run("(defparameter *x* 5)
             (defstruct node next value)
             (curare-declare (reorderable +))
             (defun g (x) (* x x))");
        assert_eq!(out.forms.len(), 4);
        assert!(out.source().contains("defparameter"));
        assert!(out.source().contains("defstruct"));
    }

    #[test]
    fn transformed_program_runs_equivalently_sequentially() {
        // End-to-end: transform Figure 5 and run both versions under
        // sequential hooks; results must agree (sequentializability).
        let src = "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))";
        let out = run(src);
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let xformed = curare_lisp::Interp::new();
        xformed.load_str(&out.source()).unwrap();
        let driver = "(let ((d (list 1 1 1 1 1))) (f d) d)";
        let a = orig.load_str(driver).unwrap();
        let b = xformed.load_str(driver).unwrap();
        assert_eq!(orig.heap().display(a), xformed.heap().display(b));
    }

    #[test]
    fn speculation_admits_unknown_write_roots() {
        // `(car (frob l))` hides the write root behind a call: ⊤-write,
        // Blocked without speculation, plain CRI + Speculate with it.
        let src = "(defun frob (l) l)
             (defun scrub (l)
               (when (consp l)
                 (scrub (cdr l))
                 (setf (car (frob l)) 0)))";
        let plain = run(src);
        assert!(!plain.report("scrub").unwrap().converted);
        let out = Curare::new().with_speculation(true).transform_source(src).unwrap();
        let r = out.report("scrub").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert_eq!(r.verdict, Verdict::Blocked);
        assert!(r.devices.contains(&Device::Speculate), "{:?}", r.devices);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Cri(1))), "{:?}", r.devices);
        assert!(out.source().contains("cri-enqueue"), "{}", out.source());
        // No synchronization device rides along: speculation runs the
        // body as-is and the runtime validator carries correctness.
        assert!(!out.source().contains("future"), "{}", out.source());
        assert!(!out.source().contains("cri-lock"), "{}", out.source());
    }

    #[test]
    fn speculation_marks_alias_contingent_conflict_free_functions() {
        // Cross-parameter write/read: conflict-free only under the
        // no-aliasing premise, so SpecMode marks it for validation.
        let src = "(defun mix (a b)
               (when (consp b)
                 (mix (cddr a) (cdr b))
                 (setf (car b) (car a))))";
        let out = Curare::new().with_speculation(true).transform_source(src).unwrap();
        let r = out.report("mix").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert!(r.devices.contains(&Device::Speculate), "{:?}", r.devices);
        // Single-root conflict-free functions stay unmarked.
        let out2 = Curare::new()
            .with_speculation(true)
            .transform_source("(defun f (l) (when l (f (cdr l)) (setf (car l) 0)))")
            .unwrap();
        assert!(!out2.report("f").unwrap().devices.contains(&Device::Speculate));
    }

    #[test]
    fn speculation_leaves_blocked_value_users_alone() {
        // UsesCallResult is not a may-conflict — speculation cannot
        // run a consumer before its producer's value exists (DPS/fold
        // already serve this class), so `sum` stays blocked.
        let out = Curare::new()
            .with_speculation(true)
            .transform_source("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))")
            .unwrap();
        let r = out.report("sum").unwrap();
        assert!(!r.devices.contains(&Device::Speculate), "{:?}", r.devices);
    }

    #[test]
    fn speculation_keeps_proven_devices() {
        // Future sync applies and is certified: speculation must not
        // displace it.
        let out = Curare::new()
            .with_speculation(true)
            .transform_source(
                "(defun f (l)
                   (when l
                     (f (cdr l))
                     (setf (cdr l) (car l))))",
            )
            .unwrap();
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
    }

    #[test]
    fn struct_program_transforms() {
        let out = run("(defstruct node next value)
             (defun bump-all (n)
               (when n
                 (setf (node-value n) (1+ (node-value n)))
                 (bump-all (node-next n))))");
        let r = out.report("bump-all").unwrap();
        assert!(r.converted, "{}", r.feedback);
        assert!(out.source().contains("cri-enqueue"));
    }
}
