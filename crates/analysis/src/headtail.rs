//! The head/tail partition and CRI concurrency estimate (paper §3.1).
//!
//! - *tail*: statements that are not recursive calls and are dominated
//!   by a recursive call;
//! - *head*: everything else, including the recursive calls;
//! - concurrency of the CRI execution: `(|H| + |T|) / |H|` — the head
//!   is the serial prefix each invocation must finish before spawning
//!   the next, so a smaller head means more overlap.

use curare_lisp::ast::{Expr, Func};

use crate::cfg::{Cfg, NodeKind, ENTRY};

/// The partition of a function body with its size measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadTail {
    /// Summed size of head operations (|H|), ≥ 1 for nonempty bodies.
    pub head_size: usize,
    /// Summed size of tail operations (|T|).
    pub tail_size: usize,
    /// Number of self-recursive call sites.
    pub recursive_calls: usize,
    /// True if every self-recursive call is in tail position (the
    /// returned value is the call's value).
    pub tail_recursive: bool,
    /// Number of *free* call sites: self-calls whose value is unused.
    pub free_calls: usize,
    /// Self-calls whose value feeds another computation (neither free
    /// nor tail); these block CRI conversion.
    pub value_position_calls: usize,
}

impl HeadTail {
    /// The CRI concurrency estimate `(|H|+|T|)/|H|` (§3.1). Returns 1.0
    /// for non-recursive functions (no overlap to exploit).
    pub fn concurrency(&self) -> f64 {
        if self.recursive_calls == 0 || self.head_size == 0 {
            return 1.0;
        }
        (self.head_size + self.tail_size) as f64 / self.head_size as f64
    }
}

/// Compute the head/tail partition of `func` via CFG dominance.
///
/// A node is tail when it is not a recursive call and some recursive
/// call strictly dominates it, i.e. sits on its dominator-tree path to
/// the entry. That is a recursive call at its immediate dominator or
/// above it, and reverse postorder visits every immediate dominator
/// before the nodes it dominates, so one pass decides every node.
pub fn head_tail(func: &Func) -> HeadTail {
    let cfg = Cfg::build(func);
    let idom = cfg.immediate_dominators();
    let is_call = |n: usize| matches!(cfg.nodes[n], NodeKind::Op { recursive_call: true, .. });
    let mut below_call = vec![false; cfg.nodes.len()];
    let mut head_size = 0usize;
    let mut tail_size = 0usize;
    for n in cfg.rpo() {
        if n == ENTRY {
            continue;
        }
        let up = idom[n];
        below_call[n] = is_call(up) || below_call[up];
        let NodeKind::Op { size, recursive_call, .. } = cfg.nodes[n] else { continue };
        if !recursive_call && below_call[n] {
            tail_size += size;
        } else {
            head_size += size;
        }
    }
    let positions = classify_calls(func);
    HeadTail {
        head_size,
        tail_size,
        recursive_calls: cfg.recursive_call_nodes().len(),
        tail_recursive: is_tail_recursive(func),
        free_calls: positions.free,
        value_position_calls: positions.value,
    }
}

/// The per-node, per-call [`Cfg::dominates`] walk [`head_tail`]
/// replaced, kept as the oracle it is tested against.
#[cfg(test)]
pub(crate) fn dominates_reference(func: &Func) -> HeadTail {
    let cfg = Cfg::build(func);
    let idom = cfg.immediate_dominators();
    let rec_nodes = cfg.recursive_call_nodes();
    let mut head_size = 0usize;
    let mut tail_size = 0usize;
    for (n, kind) in cfg.nodes.iter().enumerate() {
        let NodeKind::Op { size, recursive_call, .. } = kind else { continue };
        if n == ENTRY || n == crate::cfg::EXIT || idom[n] == usize::MAX {
            continue;
        }
        let dominated =
            !recursive_call && rec_nodes.iter().any(|&c| c != n && cfg.dominates(&idom, c, n));
        if dominated {
            tail_size += size;
        } else {
            head_size += size;
        }
    }
    let positions = classify_calls(func);
    HeadTail {
        head_size,
        tail_size,
        recursive_calls: rec_nodes.len(),
        tail_recursive: is_tail_recursive(func),
        free_calls: positions.free,
        value_position_calls: positions.value,
    }
}

/// True if every self-recursive call sits in tail position.
pub fn is_tail_recursive(func: &Func) -> bool {
    let mut all_tail = true;
    let mut any = false;
    // Visit body forms: only the last is in tail position.
    if let Some((last, init)) = func.body.split_last() {
        for e in init {
            check(e, func, false, &mut all_tail, &mut any);
        }
        check(last, func, true, &mut all_tail, &mut any);
    }
    return any && all_tail;

    fn check(e: &Expr, func: &Func, tail: bool, all_tail: &mut bool, any: &mut bool) {
        match e {
            Expr::Call { name, args, .. } if *name == func.name_sym => {
                *any = true;
                if !tail {
                    *all_tail = false;
                }
                for a in args {
                    check(a, func, false, all_tail, any);
                }
            }
            Expr::If(c, t, f) => {
                check(c, func, false, all_tail, any);
                check(t, func, tail, all_tail, any);
                check(f, func, tail, all_tail, any);
            }
            Expr::Progn(es) | Expr::And(es) | Expr::Or(es) => {
                if let Some((last, init)) = es.split_last() {
                    for s in init {
                        // and/or non-final elements are tested, their
                        // value *is* used, so a call there is not tail.
                        check(s, func, false, all_tail, any);
                    }
                    check(last, func, tail, all_tail, any);
                }
            }
            Expr::Let { bindings, body, .. } => {
                for (_, _, init) in bindings {
                    check(init, func, false, all_tail, any);
                }
                if let Some((last, init)) = body.split_last() {
                    for s in init {
                        check(s, func, false, all_tail, any);
                    }
                    check(last, func, tail, all_tail, any);
                }
            }
            other => other.for_children(&mut |c| check(c, func, false, all_tail, any)),
        }
    }
}

/// How a function's self-recursive call sites sit in its body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallPositions {
    /// Calls whose value is discarded (free calls, §3.1).
    pub free: usize,
    /// Calls in tail position (the value, if any, is the function's
    /// own return value — CRI-convertible).
    pub tail: usize,
    /// Calls whose value feeds another computation; these block CRI
    /// until a §5 enabling transformation removes them.
    pub value: usize,
}

/// Classify every self-call site by position.
pub fn classify_calls(func: &Func) -> CallPositions {
    let mut out = CallPositions::default();
    if let Some((last, init)) = func.body.split_last() {
        for e in init {
            walk(e, func, false, true, &mut out);
        }
        walk(last, func, true, false, &mut out);
    }
    return out;

    fn walk(e: &Expr, func: &Func, tail: bool, discarded: bool, out: &mut CallPositions) {
        match e {
            Expr::Call { name, args, .. } if *name == func.name_sym => {
                if discarded {
                    out.free += 1;
                } else if tail {
                    out.tail += 1;
                } else {
                    out.value += 1;
                }
                for a in args {
                    walk(a, func, false, false, out);
                }
            }
            Expr::Enqueue { name, args, .. } | Expr::Future { name, args, .. }
                if *name == func.name_sym =>
            {
                // Enqueues never yield a value; futures are non-strict
                // by construction. Both count as free.
                out.free += 1;
                for a in args {
                    walk(a, func, false, false, out);
                }
            }
            Expr::Progn(es) => {
                if let Some((last, init)) = es.split_last() {
                    for s in init {
                        walk(s, func, false, true, out);
                    }
                    walk(last, func, tail, discarded, out);
                }
            }
            Expr::And(es) | Expr::Or(es) => {
                if let Some((last, init)) = es.split_last() {
                    for s in init {
                        // Non-final and/or elements are tested: used.
                        walk(s, func, false, false, out);
                    }
                    walk(last, func, tail, discarded, out);
                }
            }
            Expr::Let { bindings, body, .. } => {
                for (_, _, init) in bindings {
                    walk(init, func, false, false, out);
                }
                if let Some((last, init)) = body.split_last() {
                    for s in init {
                        walk(s, func, false, true, out);
                    }
                    walk(last, func, tail, discarded, out);
                }
            }
            Expr::If(c, t, f) => {
                walk(c, func, false, false, out);
                walk(t, func, tail, discarded, out);
                walk(f, func, tail, discarded, out);
            }
            Expr::While(c, body) => {
                walk(c, func, false, false, out);
                for s in body {
                    walk(s, func, false, true, out);
                }
            }
            other => other.for_children(&mut |c| walk(c, func, false, false, out)),
        }
    }
}

/// Count self-call sites whose value is discarded (free calls, §3.1:
/// "if f does not use the result returned by one of these calls, say
/// Cᵢ, then Cᵢ is a free call").
pub fn count_free_calls(func: &Func) -> usize {
    classify_calls(func).free
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn ht(src: &str) -> HeadTail {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        head_tail(&prog.funcs[0])
    }

    #[test]
    fn head_recursive_has_large_tail() {
        // Recursive call first, work after: big tail, small head,
        // high concurrency (the shape §3.1 favors).
        let h = ht("(defun f (l)
                      (when l
                        (f (cdr l))
                        (print (car l))
                        (print (car l))
                        (print (car l))))");
        assert!(h.tail_size > 0, "{h:?}");
        assert!(h.concurrency() > 1.5, "{h:?}");
        assert_eq!(h.recursive_calls, 1);
        assert_eq!(h.free_calls, 1);
        assert!(!h.tail_recursive);
    }

    #[test]
    fn tail_recursive_has_empty_tail() {
        // Everything executes before the recursive call: tail empty,
        // concurrency (h+0)/h = 1 per unit... i.e. minimal.
        let h = ht("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(h.tail_size, 0, "{h:?}");
        assert!((h.concurrency() - 1.0).abs() < f64::EPSILON);
        assert!(h.tail_recursive);
    }

    #[test]
    fn non_recursive_concurrency_is_one() {
        let h = ht("(defun f (l) (car l))");
        assert_eq!(h.recursive_calls, 0);
        assert_eq!(h.concurrency(), 1.0);
        assert!(!h.tail_recursive);
    }

    #[test]
    fn statements_in_untaken_branch_are_head() {
        // The print in the else-branch is not dominated by the call.
        let h = ht("(defun f (l) (if l (f (cdr l)) (print l)))");
        assert_eq!(h.tail_size, 0, "{h:?}");
    }

    #[test]
    fn remq_is_not_tail_recursive_but_remq_tail_version_is() {
        let h = ht("(defun remq (obj lst)
                      (cond ((null lst) nil)
                            ((eq obj (car lst)) (remq obj (cdr lst)))
                            (t (cons (car lst) (remq obj (cdr lst))))))");
        assert!(!h.tail_recursive, "the cons-wrapped call is not tail");
        assert_eq!(h.recursive_calls, 2);

        let h2 = ht("(defun walk (l) (if (null l) nil (walk (cdr l))))");
        assert!(h2.tail_recursive);
    }

    #[test]
    fn free_calls_counted() {
        let h = ht("(defun f (l)
                      (when l
                        (f (car l))
                        (f (cdr l))))");
        // First call's value discarded; second is the return value.
        assert_eq!(h.free_calls, 1);
        assert_eq!(h.recursive_calls, 2);
    }

    #[test]
    fn enqueue_is_always_free() {
        let h = ht("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))");
        assert_eq!(h.free_calls, 1);
    }

    #[test]
    fn concurrency_grows_with_tail_work() {
        let small = ht("(defun f (l) (when l (f (cdr l)) (print l)))");
        let big = ht("(defun f (l)
                        (when l
                          (f (cdr l))
                          (print l) (print l) (print l) (print l)
                          (print l) (print l) (print l) (print l)))");
        assert!(big.concurrency() > small.concurrency(), "{small:?} vs {big:?}");
    }
}
