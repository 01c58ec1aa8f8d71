//! Delays (paper §3.2.2): code motion into the head.
//!
//! In the CRI model "the only inherent ordering on statement execution
//! is that heads of functions execute sequentially". A statement that
//! conflicts with later invocations is therefore correctly ordered iff
//! it executes *before* the recursive call spawns them. This pass
//! moves statements that follow a self-recursive call to just before
//! the first self-call of their sequence — enlarging the head and
//! paying concurrency for synchronization-free correctness, "less
//! expensive than locking" when it applies.
//!
//! A statement may move only when doing so preserves the program's
//! semantics:
//! - it contains no self-call itself;
//! - its structure writes do not overlap the locations the crossed
//!   calls' argument expressions read (checked with the access-path
//!   machinery, not syntax);
//! - **its writes take part in no cross-invocation conflict**: moving
//!   an order-sensitive write across the spawn would replace the
//!   sequential *unwind* order with invocation order and change the
//!   result — such statements are left for future synchronization;
//! - nothing unmovable sits between it and the call (relative order
//!   with unmoved effectful statements is preserved by stopping at the
//!   first blocker).
//!
//! The net effect is the paper's trade: the head grows (less
//! concurrency) but the moved statements need no synchronization.

use std::collections::BTreeSet;

use curare_analysis::{collect_accesses, AccessSummary, FunctionAnalysis, Path};
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::Sexpr;

use crate::sx;

/// Output of the delay pass.
#[derive(Debug, Clone)]
pub struct DelayResult {
    /// The rewritten defun.
    pub form: Sexpr,
    /// Number of statements moved into the head.
    pub moved: usize,
}

/// Move post-call statements into the head where safe. `analysis` is
/// the caller's analysis of `form`.
pub fn delay_transform(
    heap: &Heap,
    form: &Sexpr,
    analysis: &FunctionAnalysis,
) -> Option<DelayResult> {
    let parts = sx::parse_defun(form)?;
    let fname = parts.name.to_string();
    let params: Vec<String> = parts.params.iter().map(|p| p.to_string()).collect();

    // Locations involved in cross-invocation conflicts: statements
    // writing them are order-sensitive and must not move.
    let conflicting: BTreeSet<(usize, Path)> = analysis
        .conflicts
        .conflicts
        .iter()
        .flat_map(|c| [(c.root, c.write_path.clone()), (c.root, c.other_path.clone())])
        .collect();

    let mut moved = 0usize;
    let ctx = Ctx { fname: &fname, params: &params, conflicting: &conflicting };
    let new_body: Vec<Sexpr> = reorder_seq(
        heap,
        &ctx,
        &parts.body.iter().map(|&b| b.clone()).collect::<Vec<_>>(),
        &mut moved,
    );
    if moved == 0 {
        return None;
    }
    Some(DelayResult { form: sx::make_defun(&fname, &params, &parts.declares, new_body), moved })
}

/// Shared context for the motion walk.
struct Ctx<'a> {
    fname: &'a str,
    params: &'a [String],
    conflicting: &'a BTreeSet<(usize, Path)>,
}

/// Access summary of arbitrary forms, obtained by lowering a probe
/// function with the same parameter list.
pub(crate) fn probe_accesses(
    heap: &Heap,
    params: &[String],
    forms: &[Sexpr],
) -> Option<AccessSummary> {
    let mut items = vec![
        sx::sym("defun"),
        sx::sym("%curare-probe"),
        Sexpr::List(params.iter().map(sx::sym).collect()),
    ];
    items.extend(forms.iter().cloned());
    let mut lw = Lowerer::new(heap);
    let prog = lw.lower_program(&[Sexpr::List(items)]).ok()?;
    Some(collect_accesses(prog.funcs.first()?))
}

/// Do any of `a`'s writes overlap `b`'s accesses (same parameter root,
/// one path a prefix of the other)?
fn writes_overlap(a: &AccessSummary, b: &AccessSummary) -> bool {
    let overlap = |p: &Path, q: &Path| p.is_prefix_of(q) || q.is_prefix_of(p);
    a.writes().any(|w| b.records.iter().any(|r| r.root == w.root && overlap(&w.path, &r.path)))
        || b.writes()
            .any(|w| a.records.iter().any(|r| r.root == w.root && overlap(&w.path, &r.path)))
}

/// Can `stmt` move before the self-calls whose argument expressions
/// are `call_args`?
fn movable(heap: &Heap, ctx: &Ctx, stmt: &Sexpr, call_args: &[Sexpr]) -> bool {
    // Atoms have no effects; leaving them in place is always right.
    if !matches!(stmt, Sexpr::List(items) if !items.is_empty()) {
        return false;
    }
    if sx::mentions_call(stmt, ctx.fname) {
        return false;
    }
    let Some(stmt_acc) = probe_accesses(heap, ctx.params, std::slice::from_ref(stmt)) else {
        return false;
    };
    // Unanalyzable effects: refuse to move.
    if stmt_acc.unknown_writes > 0 || !stmt_acc.globals_written.is_empty() {
        return false;
    }
    // Order-sensitive writes (cross-invocation conflicts) must keep
    // their unwind-order position; future-sync will handle them.
    if stmt_acc.writes().any(|w| ctx.conflicting.contains(&(w.root, w.path.clone()))) {
        return false;
    }
    let Some(args_acc) = probe_accesses(heap, ctx.params, call_args) else {
        return false;
    };
    !writes_overlap(&stmt_acc, &args_acc)
}

/// Arguments of every self-call in a statement.
fn self_call_args(form: &Sexpr, fname: &str) -> Vec<Sexpr> {
    let mut out = Vec::new();
    fn walk(form: &Sexpr, fname: &str, out: &mut Vec<Sexpr>) {
        if let Some(items) = form.as_list() {
            if items.first().is_some_and(|h| h.is_symbol("quote")) {
                return;
            }
            if items.first().is_some_and(|h| h.is_symbol(fname)) {
                out.extend(items[1..].iter().cloned());
            }
            for i in items {
                walk(i, fname, out);
            }
        }
    }
    walk(form, fname, &mut out);
    out
}

/// Reorder one statement sequence and recurse into nested sequences.
fn reorder_seq(heap: &Heap, ctx: &Ctx, stmts: &[Sexpr], moved: &mut usize) -> Vec<Sexpr> {
    // First recurse into each statement's own nested sequences.
    let stmts: Vec<Sexpr> = stmts.iter().map(|s| reorder_inner(heap, ctx, s, moved)).collect();

    let Some(first_call) = stmts.iter().position(|s| sx::mentions_call(s, ctx.fname)) else {
        return stmts;
    };
    let call_args: Vec<Sexpr> =
        stmts[first_call..].iter().flat_map(|s| self_call_args(s, ctx.fname)).collect();

    let mut head: Vec<Sexpr> = stmts[..first_call].to_vec();
    let mut hoisted: Vec<Sexpr> = Vec::new();
    let mut rest: Vec<Sexpr> = Vec::new();
    let mut blocked = false;
    let mut last_was_hoisted = false;
    for (i, s) in stmts[first_call..].iter().enumerate() {
        let is_last = first_call + i + 1 == stmts.len();
        if sx::mentions_call(s, ctx.fname) {
            rest.push(s.clone());
            last_was_hoisted = false;
        } else if !blocked && movable(heap, ctx, s, &call_args) {
            hoisted.push(s.clone());
            *moved += 1;
            last_was_hoisted = is_last;
        } else {
            blocked = true;
            rest.push(s.clone());
            last_was_hoisted = false;
        }
    }
    if last_was_hoisted {
        // The hoisted statement was the sequence's value. Preserve it
        // by binding: (let ((%curare-delayed S)) rest... %curare-delayed).
        let value_stmt = hoisted.pop().expect("last_was_hoisted implies nonempty");
        let tmp = format!("%curare-delayed{}", *moved);
        head.extend(hoisted);
        let mut let_form = vec![
            sx::sym("let"),
            Sexpr::List(vec![Sexpr::List(vec![sx::sym(tmp.clone()), value_stmt])]),
        ];
        let_form.extend(rest);
        let_form.push(sx::sym(tmp));
        head.push(Sexpr::List(let_form));
    } else {
        head.extend(hoisted);
        head.extend(rest);
    }
    head
}

/// Recurse into the sequence-bearing positions of one statement.
fn reorder_inner(heap: &Heap, ctx: &Ctx, form: &Sexpr, moved: &mut usize) -> Sexpr {
    let Some(items) = form.as_list() else { return form.clone() };
    let Some(head) = items.first().and_then(Sexpr::as_symbol) else {
        return form.clone();
    };
    match head {
        "progn" | "when" | "unless" | "while" | "let" | "let*" => {
            let fixed = if head == "progn" { 1 } else { 2 };
            if items.len() <= fixed {
                return form.clone();
            }
            let mut out = items[..fixed].to_vec();
            out.extend(reorder_seq(heap, ctx, &items[fixed..], moved));
            Sexpr::List(out)
        }
        "cond" => {
            let mut out = vec![items[0].clone()];
            for clause in &items[1..] {
                match clause.as_list() {
                    Some(cl) if cl.len() > 1 => {
                        let mut new_cl = vec![cl[0].clone()];
                        new_cl.extend(reorder_seq(heap, ctx, &cl[1..], moved));
                        out.push(Sexpr::List(new_cl));
                    }
                    _ => out.push(clause.clone()),
                }
            }
            Sexpr::List(out)
        }
        "if" => {
            let mut out = vec![items[0].clone()];
            for a in &items[1..] {
                out.push(reorder_inner(heap, ctx, a, moved));
            }
            Sexpr::List(out)
        }
        _ => form.clone(),
    }
}

/// Is there any statement following a self-call in some sequence of
/// the body? (Used by the pipeline to decide whether head ordering
/// already resolves all conflicts.)
pub fn has_tail_statements(form: &Sexpr, fname: &str) -> bool {
    let Some(parts) = sx::parse_defun(form) else { return false };
    /// Atoms and quoted data touch no heap locations: a trailing
    /// variable reference (e.g. the value binding the delay transform
    /// introduces) is not tail *work*.
    fn harmless(s: &Sexpr) -> bool {
        match s {
            Sexpr::List(items) => {
                items.is_empty() || items.first().is_some_and(|h| h.is_symbol("quote"))
            }
            _ => true,
        }
    }
    fn seq_has_tail(stmts: &[&Sexpr], fname: &str) -> bool {
        let mut seen_call = false;
        for s in stmts {
            if seen_call && !harmless(s) {
                return true;
            }
            if sx::mentions_call(s, fname) {
                // Inspect nested sequences inside the call-bearing
                // statement too.
                if stmt_has_tail(s, fname) {
                    return true;
                }
                seen_call = true;
            }
        }
        false
    }
    fn stmt_has_tail(form: &Sexpr, fname: &str) -> bool {
        let Some(items) = form.as_list() else { return false };
        let Some(head) = items.first().and_then(Sexpr::as_symbol) else { return false };
        match head {
            "quote" => false,
            "progn" | "when" | "unless" | "while" | "let" | "let*" => {
                let fixed = if head == "progn" { 1 } else { 2 };
                if items.len() <= fixed {
                    return false;
                }
                seq_has_tail(&items[fixed..].iter().collect::<Vec<_>>(), fname)
            }
            "cond" => items[1..].iter().any(|clause| match clause.as_list() {
                Some(cl) if cl.len() > 1 => {
                    seq_has_tail(&cl[1..].iter().collect::<Vec<_>>(), fname)
                }
                _ => false,
            }),
            "if" => items[1..].iter().any(|a| stmt_has_tail(a, fname)),
            h if h == fname => false,
            _ => {
                // A self-call nested in argument position of another
                // operator means work happens after it returns — that
                // is tail work (and usually a value-position call the
                // CRI pass will reject anyway).
                items[1..].iter().any(|a| sx::mentions_call(a, fname))
            }
        }
    }
    seq_has_tail(&parts.body, fname)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::analyze_defun;
    use curare_analysis::DeclDb;
    use curare_sexpr::parse_one;

    fn delay(src: &str) -> Option<DelayResult> {
        let heap = Heap::new();
        let form = parse_one(src).unwrap();
        let analysis = analyze_defun(&heap, &form, &DeclDb::new()).unwrap();
        delay_transform(&heap, &form, &analysis)
    }

    #[test]
    fn post_call_write_moves_into_head() {
        // Head-recursive: write after the call; the write (car l) does
        // not overlap the call's argument read (cdr l).
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (car l) 0)))",
        )
        .expect("should move");
        assert_eq!(r.moved, 1);
        let text = r.form.to_string();
        let write = text.find("(setf (car l) 0)").expect("write kept");
        let call = text.find("(f (cdr l))").expect("call kept");
        assert!(write < call, "write should precede the call: {text}");
    }

    #[test]
    fn overlapping_write_does_not_move() {
        // The write hits (cdr l), which the call argument reads:
        // moving it would change the spawned invocation's argument.
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) nil)))",
        );
        assert!(r.is_none(), "{r:?}");
    }

    #[test]
    fn no_tail_statements_no_motion() {
        assert!(delay("(defun f (l) (when l (print (car l)) (f (cdr l))))").is_none());
    }

    #[test]
    fn semantics_preserved_after_motion() {
        let src = "(defun f (l)
                     (when l
                       (f (cdr l))
                       (setf (car l) (* 2 (car l)))))";
        let r = delay(src).expect("moves");
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let moved = curare_lisp::Interp::new();
        moved.load_str(&r.form.to_string()).unwrap();
        for init in ["(list 1 2 3)", "nil", "(list 5)"] {
            let run = format!("(let ((d {init})) (f d) d)");
            let a = orig.load_str(&run).unwrap();
            let b = moved.load_str(&run).unwrap();
            assert_eq!(orig.heap().display(a), moved.heap().display(b), "{run}");
        }
    }

    #[test]
    fn order_sensitive_conflicting_write_does_not_move() {
        // The accumulator cell is written by *every* invocation
        // (distance-1 persistent conflict). Sequentially the updates
        // happen in unwind order; hoisting would reverse them, so the
        // statement must stay put (future-sync will order it).
        let r = delay(
            "(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (cons (car l) (car acc)))))",
        );
        assert!(r.is_none(), "{r:?}");
    }

    #[test]
    fn global_writer_does_not_move() {
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setq *count* (+ *count* 1))))",
        );
        assert!(r.is_none());
    }

    #[test]
    fn value_position_final_statement_is_let_bound() {
        // The final statement is the sequence's value: hoisting must
        // preserve it through a let binding.
        let src = "(defun f (l)
               (when l
                 (f (cdr l))
                 (car l)))";
        let r = delay(src).expect("should move with a binding");
        let text = r.form.to_string();
        assert!(text.contains("%curare-delayed"), "{text}");
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let moved = curare_lisp::Interp::new();
        moved.load_str(&r.form.to_string()).unwrap();
        for call in ["(f (list 1 2 3))", "(f nil)"] {
            let a = orig.load_str(call).unwrap();
            let b = moved.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), moved.heap().display(b), "{call}\n{text}");
        }
    }

    #[test]
    fn multiple_post_call_writes_move_in_order() {
        let r = delay(
            "(defun f (l)
               (when l
                 (f (cddr l))
                 (setf (car l) 1)
                 (setf (cadr l) 2)
                 nil))",
        )
        .expect("should move both writes");
        assert_eq!(r.moved, 2);
        let text = r.form.to_string();
        let w1 = text.find("(setf (car l) 1)").expect("w1");
        let w2 = text.find("(setf (cadr l) 2)").expect("w2");
        let call = text.find("(f (cddr l))").expect("call");
        assert!(w1 < w2 && w2 < call, "{text}");
    }

    #[test]
    fn has_tail_statements_detects_shapes() {
        let yes = parse_one("(defun f (l) (when l (f (cdr l)) (print l)))").unwrap();
        assert!(has_tail_statements(&yes, "f"));
        let no = parse_one("(defun f (l) (when l (print l) (f (cdr l))))").unwrap();
        assert!(!has_tail_statements(&no, "f"));
        let nested =
            parse_one("(defun f (l) (cond ((null l) nil) (t (f (cdr l)) (setf (car l) 1))))")
                .unwrap();
        assert!(has_tail_statements(&nested, "f"));
        let value_pos = parse_one("(defun f (l) (cons 1 (f (cdr l))))").unwrap();
        assert!(has_tail_statements(&value_pos, "f"));
    }
}
