//! Lock insertion (paper §3.2.1).
//!
//! For every conflict the analysis found, the invocation must hold a
//! lock on the conflicting location before any later invocation can
//! reach it. Because the head of invocation *i* executes before any
//! part of invocation *i+1* (CRI spawns at the recursive call), taking
//! all locks at the very top of the body and releasing them at the end
//! implements the paper's scheme: `Lock(M)` in the head, `Unlock(M)`
//! after all uses, two-phase by construction.
//!
//! Two devices live here:
//!
//! - [`insert_locks`]: the original whole-body bracket — every lock is
//!   taken at the top of the body and released at the end. Simple and
//!   maximally conservative; kept as the standalone §3.2.1 transform.
//! - [`insert_placement`] / [`lock_rescue`]: statement-scoped brackets
//!   driven by a certified [`Placement`] from
//!   `curare_analysis::locksynth`. Each statement that touches a
//!   location the placement covers is wrapped in its own
//!   acquire/statement/release bracket, so independent invocations
//!   only serialize for the duration of the conflicting access — this
//!   is what the pipeline uses to rescue order-insensitive tails that
//!   would otherwise fall back to full future synchronization.
//!
//! Refinements implemented from the paper:
//! - *coalescing*: a lock path that is a prefix of another covers it;
//! - *read–write locks*: locations only read by the conflicting side
//!   take shared locks;
//! - both sides of a conflict lock the *same physical cell*: the
//!   writer locks its write destination, the accessor locks the prefix
//!   `q` of its path with `A₁ = τ^d ∘ q`, which is the same location
//!   seen d invocations later.

use std::collections::BTreeSet;
use std::sync::Arc;

use curare_analysis::locksynth::{
    declared_placement, synthesize, LockMode, OrderingContext, PairOrder, Placement,
};
use curare_analysis::{analyze_function, DeclDb, FunctionAnalysis, Path, PathRegex, Transfer};
use curare_lisp::ast::Func;
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::Sexpr;

use crate::delay::probe_accesses;
use crate::sx;

/// One lock the transform inserted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockSpec {
    /// Parameter index the location is rooted at.
    pub root: usize,
    /// Parameter name.
    pub root_name: String,
    /// Path to the locked location (last letter = field).
    pub path: Path,
    /// Exclusive (write) or shared (read) lock.
    pub exclusive: bool,
}

/// Result of the locking transform.
#[derive(Debug, Clone)]
pub struct LockResult {
    /// The rewritten `defun`.
    pub form: Sexpr,
    /// The locks inserted, in acquisition order.
    pub locks: Vec<LockSpec>,
}

/// Errors the transform can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The input was not a well-formed defun.
    NotADefun,
    /// Lowering/analysis failed.
    Analysis(String),
    /// The function is not transformable and locking cannot help
    /// (e.g. unanalyzable writes).
    CannotLock(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NotADefun => write!(f, "not a defun form"),
            TransformError::Analysis(m) => write!(f, "analysis failed: {m}"),
            TransformError::CannotLock(m) => write!(f, "cannot lock: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Lower a standalone defun form.
pub(crate) fn lower_defun(heap: &Heap, form: &Sexpr) -> Result<Arc<Func>, TransformError> {
    let mut lw = Lowerer::new(heap);
    let prog = lw
        .lower_program(std::slice::from_ref(form))
        .map_err(|e| TransformError::Analysis(e.to_string()))?;
    prog.funcs.first().cloned().ok_or(TransformError::NotADefun)
}

/// Analyze a standalone defun form (helper shared by the transforms).
pub fn analyze_defun(
    heap: &Heap,
    form: &Sexpr,
    decls: &DeclDb,
) -> Result<FunctionAnalysis, TransformError> {
    let func = lower_defun(heap, form)?;
    Ok(analyze_function(&func, decls))
}

/// Compute the lock set of an analyzed function.
pub fn lock_set(analysis: &FunctionAnalysis, params: &[&str]) -> Vec<LockSpec> {
    let mut paths: BTreeSet<(usize, Path)> = BTreeSet::new();
    for c in &analysis.conflicts.conflicts {
        // The writer's own location.
        paths.insert((c.root, c.write_path.clone()));
        // The accessor-side location: prefixes q of other_path with
        // A1 ∈ L(τ^d ∘ q) for some d.
        if let Some(tau) = analysis.transfers.per_param.get(c.root) {
            for plen in 0..=c.other_path.len() {
                let q = Path::from(c.other_path.accessors()[..plen].to_vec());
                if prefix_coincides(&c.write_path, tau, &q) {
                    paths.insert((c.root, q));
                }
            }
        }
    }

    // Coalesce: drop any path that has a strict prefix in the set for
    // the same root (locking the prefix location covers it).
    let minimal: Vec<(usize, Path)> = paths
        .iter()
        .filter(|(root, p)| {
            !paths
                .iter()
                .any(|(r2, p2)| r2 == root && p2 != p && !p2.is_empty() && p2.is_prefix_of(p))
        })
        .filter(|(_, p)| !p.is_empty()) // ε names the root value, not a location
        .cloned()
        .collect();

    // Exclusive iff this location can be a write destination: it
    // coincides with some write path (possibly across invocations).
    let mut out = Vec::new();
    for (root, p) in minimal {
        let exclusive = analysis.conflicts.conflicts.iter().any(|c| {
            c.root == root && {
                let tau = &analysis.transfers.per_param[root];
                c.write_path == p
                    || p.is_prefix_of(&c.write_path)
                    || prefix_coincides(&c.write_path, tau, &p)
            }
        });
        out.push(LockSpec {
            root,
            root_name: params.get(root).map(|s| s.to_string()).unwrap_or_default(),
            path: p,
            exclusive,
        });
    }
    out.sort();
    out
}

/// Is there a distance `d ≥ 1` with `write ∈ L(τ^d ∘ q)` — i.e. does
/// the location `q` of a later invocation coincide with this
/// invocation's write destination?
fn prefix_coincides(write: &Path, tau: &Transfer, q: &Path) -> bool {
    let bound = match tau.min_step_len() {
        None => return true, // unknown τ: assume coincidence
        Some(0) => write.len().max(q.len()) + 2,
        Some(step) => (write.len() + q.len()) / step + 2,
    };
    for d in 1..=bound {
        let lang = tau.regex_at_distance(d).then(PathRegex::literal(q));
        if lang.matches(write) {
            return true;
        }
    }
    false
}

/// Insert locks into `form` (a defun) based on its conflict analysis.
/// Conflict-free functions are returned unchanged with an empty lock
/// list.
pub fn insert_locks(
    heap: &Heap,
    form: &Sexpr,
    decls: &DeclDb,
) -> Result<LockResult, TransformError> {
    let analysis = analyze_defun(heap, form, decls)?;
    let parts = sx::parse_defun(form).ok_or(TransformError::NotADefun)?;
    if analysis.conflicts.unknown_writes > 0 {
        return Err(TransformError::CannotLock(format!(
            "{} write(s) with unanalyzable roots",
            analysis.conflicts.unknown_writes
        )));
    }
    let locks = lock_set(&analysis, &parts.params);
    if locks.is_empty() {
        return Ok(LockResult { form: form.clone(), locks });
    }

    // Bind each lock base cell once, then lock/unlock around the body:
    //
    // (defun f (l)
    //   (let* ((%curare-lock0 (cdr l)))
    //     (cri-lock %curare-lock0 'car)
    //     <body>
    //     (cri-unlock %curare-lock0 'car)))
    //
    // The unlocks follow the body, so the locked function returns nil:
    // like every CRI conversion, it executes for effect (§3.1 "changing
    // the single return that produces a value into an assignment").
    // Keeping the recursive calls out of binding initializers is what
    // lets cri-convert accept the output.
    let mut bindings = Vec::new();
    let mut lock_forms = Vec::new();
    let mut unlock_forms = Vec::new();
    for (i, spec) in locks.iter().enumerate() {
        let cell_path = spec.path.cell_prefix().expect("ε filtered out of lock set");
        let field = spec.path.last().expect("nonempty");
        let tmp = format!("%curare-lock{i}");
        bindings.push(Sexpr::List(vec![
            sx::sym(tmp.clone()),
            sx::path_to_expr(&spec.root_name, &cell_path, heap),
        ]));
        let (lock_head, unlock_head) = if spec.exclusive {
            ("cri-lock", "cri-unlock")
        } else {
            ("cri-lock-read", "cri-unlock-read")
        };
        lock_forms.push(sx::call(lock_head, vec![sx::sym(tmp.clone()), sx::field_operand(field)]));
        unlock_forms.push(sx::call(unlock_head, vec![sx::sym(tmp), sx::field_operand(field)]));
    }

    let mut outer = vec![sx::sym("let*"), Sexpr::List(bindings)];
    outer.extend(lock_forms);
    outer.extend(parts.body.iter().map(|&b| b.clone()));
    outer.extend(unlock_forms);

    let new_form =
        sx::make_defun(parts.name, &parts.params, &parts.declares, vec![Sexpr::List(outer)]);
    Ok(LockResult { form: new_form, locks })
}

/// Convert a synthesized placement's locks to the transform's
/// [`LockSpec`] form, in acquisition order (sorted by root then path,
/// which is the deadlock-freedom order: every bracket acquires its
/// subset of the placement in this global order).
pub fn placement_specs(placement: &Placement) -> Vec<LockSpec> {
    let mut out: Vec<LockSpec> = placement
        .locks
        .iter()
        .filter(|l| !l.path.is_empty())
        .map(|l| LockSpec {
            root: l.root,
            root_name: l.root_name.clone(),
            path: l.path.clone(),
            exclusive: matches!(l.mode, LockMode::Exclusive),
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// State for the statement-bracket walk.
struct PlaceCtx<'a> {
    heap: &'a Heap,
    fname: &'a str,
    params: Vec<String>,
    specs: &'a [LockSpec],
    /// Merge adjacent same-lock-set brackets (see [`insert_placement`]).
    coalesce: bool,
    /// Unique suffix for `%curare-plockN` temporaries.
    counter: usize,
    /// Accesses the brackets could not cover (statement probes that
    /// failed, or covered accesses inside call-bearing statements and
    /// guard positions, which the bracket walk never wraps).
    violations: Vec<String>,
}

impl PlaceCtx<'_> {
    /// Locks covering any access of `forms` (ε-free specs; a lock
    /// covers an access to `p` when its path is a prefix of `p`).
    fn covering(&self, forms: &[Sexpr]) -> Option<Vec<LockSpec>> {
        let probe = probe_accesses(self.heap, &self.params, forms)?;
        let mut out = Vec::new();
        for spec in self.specs {
            let hit = probe
                .records
                .iter()
                .any(|r| r.root == spec.root && spec.path.is_prefix_of(&r.path));
            if hit {
                out.push(spec.clone());
            }
        }
        Some(out)
    }

    /// Record a violation if `form` (a guard test, binding initializer
    /// or call-bearing statement — positions the walk cannot bracket)
    /// touches a covered location.
    fn audit_unbracketed(&mut self, form: &Sexpr, what: &str) {
        if atom_or_quoted(form) {
            return;
        }
        match self.covering(std::slice::from_ref(form)) {
            Some(covered) if covered.is_empty() => {}
            Some(covered) => self.violations.push(format!(
                "{what} `{form}` touches locked location(s) {} but cannot be bracketed",
                covered
                    .iter()
                    .map(|s| format!("{}:{}", s.root_name, s.path))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            None => self.violations.push(format!("{what} `{form}` is not analyzable")),
        }
    }

    /// Wrap one statement in its covering locks:
    ///
    /// ```lisp
    /// (let* ((%curare-plock0 (cdr l)))
    ///   (cri-lock %curare-plock0 'car)
    ///   <stmt>
    ///   (cri-unlock %curare-plock0 'car))
    /// ```
    ///
    /// The bracket's value is nil — like every CRI conversion the
    /// result executes for effect only.
    fn wrap(&mut self, stmt: Sexpr, covered: &[LockSpec]) -> Sexpr {
        let mut bindings = Vec::new();
        let mut lock_forms = Vec::new();
        let mut unlock_forms = Vec::new();
        for spec in covered {
            let cell_path = spec.path.cell_prefix().expect("ε filtered out of placement");
            let field = spec.path.last().expect("nonempty");
            let tmp = format!("%curare-plock{}", self.counter);
            self.counter += 1;
            bindings.push(Sexpr::List(vec![
                sx::sym(tmp.clone()),
                sx::path_to_expr(&spec.root_name, &cell_path, self.heap),
            ]));
            let (lock_head, unlock_head) = if spec.exclusive {
                ("cri-lock", "cri-unlock")
            } else {
                ("cri-lock-read", "cri-unlock-read")
            };
            lock_forms
                .push(sx::call(lock_head, vec![sx::sym(tmp.clone()), sx::field_operand(field)]));
            unlock_forms.push(sx::call(unlock_head, vec![sx::sym(tmp), sx::field_operand(field)]));
        }
        unlock_forms.reverse();
        let mut outer = vec![sx::sym("let*"), Sexpr::List(bindings)];
        outer.extend(lock_forms);
        outer.push(stmt);
        outer.extend(unlock_forms);
        Sexpr::List(outer)
    }

    /// Is `form` a bracketable leaf statement, and which locks cover
    /// it? `None` for control shapes, call-bearing statements and
    /// unanalyzable or uncovered leaves — those take the ordinary
    /// [`Self::place_stmt`] route (which audits them as needed).
    fn leaf_covering(&self, form: &Sexpr) -> Option<Vec<LockSpec>> {
        if atom_or_quoted(form) {
            return None;
        }
        let items = form.as_list()?;
        let head = items.first().and_then(Sexpr::as_symbol).unwrap_or_default();
        if matches!(head, "progn" | "when" | "unless" | "while" | "let" | "let*" | "cond" | "if") {
            return None;
        }
        if sx::mentions_call(form, self.fname) {
            return None;
        }
        self.covering(std::slice::from_ref(form)).filter(|c| !c.is_empty())
    }

    /// Bracket the statements of one sequence. With coalescing on,
    /// maximal runs of consecutive leaf statements covered by the
    /// *identical* lock set share one acquire/release bracket — the
    /// critical section gets coarser (fewer acquisitions), never
    /// weaker, and no spawn can sit inside a merged bracket because
    /// call-bearing statements are never part of a run.
    fn place_seq(&mut self, stmts: &[Sexpr]) -> Vec<Sexpr> {
        if !self.coalesce {
            return stmts.iter().map(|s| self.place_stmt(s)).collect();
        }
        let mut out = Vec::new();
        let mut run: Vec<Sexpr> = Vec::new();
        let mut run_specs: Vec<LockSpec> = Vec::new();
        macro_rules! flush {
            () => {
                if !run.is_empty() {
                    let stmt = if run.len() == 1 {
                        run.pop().expect("nonempty")
                    } else {
                        let mut p = vec![sx::sym("progn")];
                        p.append(&mut run);
                        Sexpr::List(p)
                    };
                    run.clear();
                    let specs = std::mem::take(&mut run_specs);
                    out.push(self.wrap(stmt, &specs));
                }
            };
        }
        for s in stmts {
            match self.leaf_covering(s) {
                Some(covered) => {
                    if !run.is_empty() && run_specs != covered {
                        flush!();
                    }
                    run_specs = covered;
                    run.push(s.clone());
                }
                None => {
                    flush!();
                    out.push(self.place_stmt(s));
                }
            }
        }
        flush!();
        out
    }

    /// Bracket one statement, recursing into sequence-bearing shapes.
    fn place_stmt(&mut self, form: &Sexpr) -> Sexpr {
        if atom_or_quoted(form) {
            return form.clone();
        }
        let items = form.as_list().expect("atoms handled above");
        let head = items.first().and_then(Sexpr::as_symbol).unwrap_or_default();
        match head {
            "progn" | "when" | "unless" | "while" | "let" | "let*" => {
                let fixed = if head == "progn" { 1 } else { 2 };
                if items.len() <= fixed {
                    return form.clone();
                }
                // The test / bindings cannot be bracketed; audit them.
                for f in &items[1..fixed] {
                    match head {
                        "let" | "let*" => {
                            for b in f.as_list().unwrap_or(&[]) {
                                if let Some(bl) = b.as_list() {
                                    if bl.len() == 2 {
                                        self.audit_unbracketed(&bl[1], "binding initializer");
                                    }
                                }
                            }
                        }
                        _ => self.audit_unbracketed(f, "guard expression"),
                    }
                }
                let mut out = items[..fixed].to_vec();
                out.extend(self.place_seq(&items[fixed..]));
                Sexpr::List(out)
            }
            "cond" => {
                let mut out = vec![items[0].clone()];
                for clause in &items[1..] {
                    match clause.as_list() {
                        Some(cl) if !cl.is_empty() => {
                            self.audit_unbracketed(&cl[0], "cond test");
                            let mut new_cl = vec![cl[0].clone()];
                            new_cl.extend(self.place_seq(&cl[1..]));
                            out.push(Sexpr::List(new_cl));
                        }
                        _ => out.push(clause.clone()),
                    }
                }
                Sexpr::List(out)
            }
            "if" => {
                let mut out = vec![items[0].clone()];
                if let Some(test) = items.get(1) {
                    self.audit_unbracketed(test, "if test");
                    out.push(test.clone());
                }
                for a in items.iter().skip(2) {
                    out.push(self.place_stmt(a));
                }
                Sexpr::List(out)
            }
            _ => {
                // A leaf effect statement. Self-call-bearing statements
                // are the spawn points — never bracket them (the lock
                // would be held across the enqueue); instead audit that
                // they touch nothing the placement covers.
                if sx::mentions_call(form, self.fname) {
                    self.audit_unbracketed(form, "recursive-call statement");
                    return form.clone();
                }
                match self.covering(std::slice::from_ref(form)) {
                    Some(covered) if covered.is_empty() => form.clone(),
                    Some(covered) => self.wrap(form.clone(), &covered),
                    None => {
                        self.violations.push(format!("statement `{form}` is not analyzable"));
                        form.clone()
                    }
                }
            }
        }
    }
}

/// Atoms, empty lists and quoted data touch no heap locations.
fn atom_or_quoted(form: &Sexpr) -> bool {
    match form {
        Sexpr::List(items) => {
            items.is_empty() || items.first().is_some_and(|h| h.is_symbol("quote"))
        }
        _ => true,
    }
}

/// Insert statement-scoped lock brackets into `form` (a defun),
/// driven by a synthesized or declared [`Placement`].
///
/// Every statement (head or tail — an unordered conflict can pair a
/// tail write of invocation *i* with a *head* read of invocation
/// *i+1*, which runs concurrently with it) that touches a location the
/// placement covers is wrapped in an acquire/statement/release
/// bracket; brackets acquire in the global (root, path) order, so two
/// brackets can never deadlock. Fails with [`TransformError::CannotLock`]
/// if some covered access sits in a position a bracket cannot guard
/// (a guard test, binding initializer or recursive-call statement) —
/// the pipeline then falls back to future synchronization.
///
/// With `coalesce` on, consecutive statements covered by the identical
/// lock set share one bracket: the same locks are held across the run
/// (exclusion is preserved — the critical section only gets coarser),
/// but acquire/release traffic drops.
pub fn insert_placement(
    heap: &Heap,
    form: &Sexpr,
    placement: &Placement,
    coalesce: bool,
) -> Result<LockResult, TransformError> {
    let parts = sx::parse_defun(form).ok_or(TransformError::NotADefun)?;
    let specs = placement_specs(placement);
    if specs.is_empty() {
        return Ok(LockResult { form: form.clone(), locks: specs });
    }
    let mut ctx = PlaceCtx {
        heap,
        fname: parts.name,
        params: parts.params.iter().map(|p| p.to_string()).collect(),
        specs: &specs,
        coalesce,
        counter: 0,
        violations: Vec::new(),
    };
    let owned: Vec<Sexpr> = parts.body.iter().map(|&b| b.clone()).collect();
    let body: Vec<Sexpr> = ctx.place_seq(&owned);
    if !ctx.violations.is_empty() {
        return Err(TransformError::CannotLock(ctx.violations.join("; ")));
    }
    if ctx.counter == 0 {
        // No statement touched a covered location — the placement does
        // not correspond to this body (e.g. declared for other code).
        return Err(TransformError::CannotLock(
            "placement covers no statement of this body".to_string(),
        ));
    }
    let new_form = sx::make_defun(parts.name, &parts.params, &parts.declares, body);
    Ok(LockResult { form: new_form, locks: specs })
}

/// Does this form contain a `setq` anywhere outside quoted data?
fn contains_setq(form: &Sexpr) -> bool {
    match form {
        Sexpr::List(items) => {
            if items.first().is_some_and(|h| h.is_symbol("quote")) {
                return false;
            }
            items.first().is_some_and(|h| h.is_symbol("setq")) || items.iter().any(contains_setq)
        }
        _ => false,
    }
}

/// Tail statements and the guard expressions that govern them.
#[derive(Default)]
struct TailParts {
    stmts: Vec<Sexpr>,
    guards: Vec<Sexpr>,
    /// A recursive call appeared in a tail leaf (value-position call
    /// after a spawn) — not a shape locks can rescue.
    call_in_tail_leaf: bool,
}

fn collect_tail_seq(stmts: &[&Sexpr], fname: &str, in_tail: bool, out: &mut TailParts) {
    let mut seen_call = false;
    for s in stmts {
        collect_tail_stmt(s, fname, in_tail || seen_call, out);
        if sx::mentions_call(s, fname) {
            seen_call = true;
        }
    }
}

fn collect_tail_stmt(form: &Sexpr, fname: &str, in_tail: bool, out: &mut TailParts) {
    if atom_or_quoted(form) {
        return;
    }
    let items = form.as_list().expect("atoms handled above");
    let head = items.first().and_then(Sexpr::as_symbol).unwrap_or_default();
    match head {
        "progn" | "when" | "unless" | "while" | "let" | "let*" => {
            let fixed = if head == "progn" { 1 } else { 2 };
            if items.len() <= fixed {
                return;
            }
            if in_tail {
                match head {
                    "let" | "let*" => {
                        for b in items[1].as_list().unwrap_or(&[]) {
                            if let Some(bl) = b.as_list() {
                                if bl.len() == 2 {
                                    out.guards.push(bl[1].clone());
                                }
                            }
                        }
                    }
                    "progn" => {}
                    _ => out.guards.push(items[1].clone()),
                }
            }
            collect_tail_seq(&items[fixed..].iter().collect::<Vec<_>>(), fname, in_tail, out);
        }
        "cond" => {
            for clause in &items[1..] {
                if let Some(cl) = clause.as_list() {
                    if !cl.is_empty() {
                        if in_tail {
                            out.guards.push(cl[0].clone());
                        }
                        collect_tail_seq(&cl[1..].iter().collect::<Vec<_>>(), fname, in_tail, out);
                    }
                }
            }
        }
        "if" => {
            if in_tail {
                if let Some(test) = items.get(1) {
                    out.guards.push(test.clone());
                }
            }
            for a in items.iter().skip(2) {
                collect_tail_stmt(a, fname, in_tail, out);
            }
        }
        h if h == fname => {} // a spawn, not tail work
        _ => {
            if in_tail {
                if sx::mentions_call(form, fname) {
                    out.call_in_tail_leaf = true;
                } else {
                    out.stmts.push(form.clone());
                }
            }
        }
    }
}

/// Is `stmt` a guarded commutative read-modify-write
/// `(setf PLACE (op PLACE e))` (either operand order) with `op`
/// declared reorderable? Returns the independent operand `e` when so.
fn commutative_rmw<'a>(stmt: &'a Sexpr, decls: &DeclDb) -> Option<&'a Sexpr> {
    let items = stmt.as_list()?;
    if items.len() != 3 || !items[0].is_symbol("setf") {
        return None;
    }
    let place = &items[1];
    let rhs = items[2].as_list()?;
    if rhs.len() != 3 {
        return None;
    }
    let op = rhs[0].as_symbol()?;
    if !decls.is_reorderable(op) {
        return None;
    }
    let place_text = place.to_string();
    if rhs[1].to_string() == place_text {
        Some(&rhs[2])
    } else if rhs[2].to_string() == place_text {
        Some(&rhs[1])
    } else {
        None
    }
}

/// The order-insensitivity gate for synthesized placements.
///
/// Locks establish *mutual exclusion*, not *order*: under CRI the
/// tails of different invocations interleave arbitrarily, whereas
/// sequentially they run in unwind order. A lock rescue is therefore
/// only sound when every tail statement's effect is order-insensitive:
///
/// - a write-free statement (a discarded read — the bracket makes the
///   read atomic, and no one observes in which order reads happen), or
/// - a commutative read-modify-write `(setf PLACE (op PLACE e))` with
///   `op` declared `reorderable` and `e` independent of every
///   conflicting location (so each invocation's contribution is the
///   same under any interleaving).
///
/// Guard expressions governing tail statements run *outside* the
/// brackets, so they must not touch any conflicting location at all.
fn tails_are_order_insensitive(
    heap: &Heap,
    params: &[String],
    body: &[&Sexpr],
    fname: &str,
    decls: &DeclDb,
    placement: &Placement,
) -> bool {
    let mut tails = TailParts::default();
    collect_tail_seq(body, fname, false, &mut tails);
    if tails.call_in_tail_leaf {
        return false;
    }
    // Conflicting locations of unordered pairs (both sides).
    let conflicting: BTreeSet<(usize, Path)> = placement
        .pairs
        .iter()
        .filter(|p| p.order == PairOrder::Unordered)
        .flat_map(|p| {
            [
                (p.conflict.root, p.conflict.write_path.clone()),
                (p.conflict.root, p.conflict.other_path.clone()),
            ]
        })
        .collect();
    let overlaps_conflict = |probe: &curare_analysis::AccessSummary| {
        probe.records.iter().any(|r| {
            conflicting.iter().any(|(root, p)| {
                *root == r.root && (p.is_prefix_of(&r.path) || r.path.is_prefix_of(p))
            })
        })
    };
    for g in &tails.guards {
        if atom_or_quoted(g) {
            continue;
        }
        let Some(probe) = probe_accesses(heap, params, std::slice::from_ref(g)) else {
            return false;
        };
        if probe.unknown_writes > 0
            || !probe.globals_written.is_empty()
            || probe.writes().next().is_some()
            || contains_setq(g)
            || overlaps_conflict(&probe)
        {
            return false;
        }
    }
    for s in &tails.stmts {
        if let Some(e) = commutative_rmw(s, decls) {
            if atom_or_quoted(e) {
                continue;
            }
            let Some(probe) = probe_accesses(heap, params, std::slice::from_ref(e)) else {
                return false;
            };
            if probe.unknown_writes > 0
                || !probe.globals_written.is_empty()
                || probe.writes().next().is_some()
                || overlaps_conflict(&probe)
            {
                return false;
            }
            continue;
        }
        // Not an RMW: must be a pure discarded read.
        let Some(probe) = probe_accesses(heap, params, std::slice::from_ref(s)) else {
            return false;
        };
        if probe.unknown_writes > 0
            || !probe.globals_written.is_empty()
            || probe.writes().next().is_some()
            || contains_setq(s)
        {
            return false;
        }
    }
    true
}

/// Try to rescue a function whose post-call statements conflict, by
/// bracketing them with a synthesized (or declared) lock placement
/// instead of fully serializing the tails with future
/// synchronization.
///
/// `analysis` is the caller's analysis of `form`. Returns `None` —
/// fall back to future sync — unless:
/// - the conflict analysis is complete (no unanalyzable writes), and
/// - either the programmer declared a placement for this function
///   (`(curare-declare (locks f (exclusive v path)...))`; applied as
///   written — `curare check --locks` audits it with C007/C008), or
///   the synthesized CRI placement is certifier-clean *and* every tail
///   statement passes the order-insensitivity gate
///   ([`tails_are_order_insensitive`]), and
/// - every covered access sits in a bracketable statement position.
pub fn lock_rescue(
    heap: &Heap,
    form: &Sexpr,
    decls: &DeclDb,
    analysis: &FunctionAnalysis,
    coalesce: bool,
) -> Option<LockResult> {
    let parts = sx::parse_defun(form)?;
    if analysis.conflicts.unknown_writes > 0 || analysis.conflicts.conflicts.is_empty() {
        return None;
    }
    let params: Vec<String> = parts.params.iter().map(|p| p.to_string()).collect();
    let placement = match decls.lock_placement(parts.name) {
        Some(declared) => {
            declared_placement(analysis, &parts.params, declared, OrderingContext::cri())
        }
        None => {
            let p = synthesize(analysis, &parts.params, OrderingContext::cri());
            if !p.is_certified_clean()
                || !tails_are_order_insensitive(heap, &params, &parts.body, parts.name, decls, &p)
            {
                return None;
            }
            p
        }
    };
    if placement.locks.is_empty() {
        return None;
    }
    insert_placement(heap, form, &placement, coalesce).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    /// [`lock_rescue`] on the analysis the pipeline would pass it.
    fn rescue(heap: &Heap, form: &Sexpr, decls: &DeclDb, coalesce: bool) -> Option<LockResult> {
        let analysis = analyze_defun(heap, form, decls).unwrap();
        lock_rescue(heap, form, decls, &analysis, coalesce)
    }

    fn run_locks(src: &str) -> LockResult {
        let heap = Heap::new();
        insert_locks(&heap, &parse_one(src).unwrap(), &DeclDb::new()).unwrap()
    }

    #[test]
    fn conflict_free_function_is_unchanged() {
        let src = "(defun f (l) (when l (print (car l)) (f (cdr l))))";
        let r = run_locks(src);
        assert!(r.locks.is_empty());
        assert_eq!(r.form.to_string(), parse_one(src).unwrap().to_string());
    }

    #[test]
    fn figure_5_gets_two_locks() {
        let r = run_locks(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        // Write destination cdr.car and the coinciding read location
        // car (this invocation's l.car is the previous one's l.cdr.car).
        let paths: Vec<String> = r.locks.iter().map(|l| l.path.to_string()).collect();
        assert!(paths.contains(&"cdr.car".to_string()), "{paths:?}");
        assert!(paths.contains(&"car".to_string()), "{paths:?}");
        let text = r.form.to_string();
        assert!(text.contains("(cri-lock"), "{text}");
        assert!(text.contains("(cri-unlock"), "{text}");
        // Locks precede the original body; unlocks follow it.
        let lock_pos = text.find("cri-lock").expect("lock present");
        let body_pos = text.find("setf").expect("body present");
        let unlock_pos = text.find("cri-unlock").expect("unlock present");
        assert!(lock_pos < body_pos && body_pos < unlock_pos, "{text}");
    }

    #[test]
    fn locked_form_still_executes_correctly() {
        // Under sequential hooks the locked function must compute the
        // same result as the original (locks are no-ops).
        let heap_src = "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) nil)
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))";
        let locked = run_locks(heap_src).form.to_string();
        let it = curare_lisp::Interp::new();
        it.load_str(&locked).unwrap();
        let v = it.load_str("(let ((d (list 1 1 1 1))) (f d) d)").unwrap();
        assert_eq!(it.heap().display(v), "(1 2 3 4)");
    }

    #[test]
    fn coalescing_drops_covered_paths() {
        // Writes to car and car.car with τ = car: both conflict across
        // invocations, but locking l.car covers l.car.car (the paper's
        // coalescing example collapses {l.car, l.car.cdr, l.car.cdr.car}
        // to l.car the same way).
        use curare_analysis::path::parse_list_path;
        let heap = Heap::new();
        let form = parse_one(
            "(defun f (l)
               (when l
                 (setf (car l) (caar l))
                 (setf (car (car l)) 2)
                 (f (car l))))",
        )
        .unwrap();
        let analysis = analyze_defun(&heap, &form, &DeclDb::new()).unwrap();
        assert!(!analysis.conflicts.conflicts.is_empty(), "premise: conflicts exist");
        let locks = lock_set(&analysis, &["l"]);
        let paths: Vec<Path> = locks.iter().map(|l| l.path.clone()).collect();
        assert!(paths.contains(&parse_list_path("car").unwrap()), "{paths:?}");
        assert!(
            !paths.contains(&parse_list_path("car.car").unwrap()),
            "car covers car.car: {paths:?}"
        );
    }

    #[test]
    fn read_side_gets_shared_lock_when_never_written() {
        // Write to cdr.car conflicts with read of car: the read-side
        // location IS the write destination one invocation later, so
        // both must be exclusive here.
        let r = run_locks("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        assert!(r.locks.iter().all(|l| l.exclusive), "{:?}", r.locks);
    }

    #[test]
    fn unanalyzable_write_is_an_error() {
        let heap = Heap::new();
        let form = parse_one("(defun f (l) (setf (car *g*) 1) (f (cdr l)))").unwrap();
        let err = insert_locks(&heap, &form, &DeclDb::new()).unwrap_err();
        assert!(matches!(err, TransformError::CannotLock(_)));
    }

    #[test]
    fn locked_output_reparses_and_relowers() {
        let r = run_locks("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(&[parse_one(&r.form.to_string()).unwrap()])
            .expect("locked output must re-lower");
        assert_eq!(prog.funcs.len(), 1);
    }

    /// Build a DeclDb from declaration forms (the pipeline does the
    /// same via `DeclDb::from_program`).
    fn db_from(src: &str) -> DeclDb {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&curare_sexpr::parse_all(src).unwrap()).unwrap();
        DeclDb::from_program(&prog).unwrap()
    }

    /// Two commutative RMWs at different depths: invocation i's
    /// `(cadr l)` is invocation i+1's `(car l)`, so the writes collide
    /// across invocations — but multiplications commute, so
    /// statement-scoped locks preserve the sequential result.
    const TAIL_RMWS: &str = "(defun f (l)
           (when (cdr l)
             (f (cdr l))
             (setf (car l) (* (car l) 2))
             (setf (cadr l) (* (cadr l) 3))))";

    #[test]
    fn lock_rescue_brackets_order_insensitive_tail_rmws() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        let form = parse_one(TAIL_RMWS).unwrap();
        let r = rescue(&heap, &form, &db, false).expect("commutative tail RMWs are rescuable");
        let paths: Vec<String> = r.locks.iter().map(|l| l.path.to_string()).collect();
        assert_eq!(paths, ["car", "cdr.car"], "{paths:?}");
        assert!(r.locks.iter().all(|l| l.exclusive), "both locations are written");
        let text = r.form.to_string();
        assert!(text.contains("%curare-plock"), "{text}");
        assert!(text.contains("(cri-lock "), "{text}");
        assert!(text.contains("(cri-unlock "), "{text}");
        // Each setf gets its own bracket, not one whole-body bracket.
        assert_eq!(text.matches("(cri-lock ").count(), 2, "{text}");

        // Sequential execution (locks are no-ops) must be unchanged:
        // cell i is doubled by invocation i and tripled by i-1.
        let it = curare_lisp::Interp::new();
        it.load_str(&text).unwrap();
        let v = it.load_str("(let ((d (list 1 1 1 1))) (f d) d)").unwrap();
        assert_eq!(it.heap().display(v), "(2 6 6 3)");
    }

    #[test]
    fn coalesced_rescue_merges_same_lockset_brackets() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        // Two consecutive RMWs on the SAME location share a covering
        // lock set; coalescing fuses their brackets into one.
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (car l) (* (car l) 3))
                 (setf (cadr l) (* (cadr l) 5))))",
        )
        .unwrap();
        let fine = rescue(&heap, &form, &db, false).expect("rescuable");
        let fused = rescue(&heap, &form, &db, true).expect("rescuable");
        assert_eq!(fine.locks, fused.locks, "same placement either way");
        let fine_brackets = fine.form.to_string().matches("(cri-lock ").count();
        let fused_brackets = fused.form.to_string().matches("(cri-lock ").count();
        assert!(fused_brackets < fine_brackets, "{fused_brackets} !< {fine_brackets}");
        assert!(fused.form.to_string().contains("progn"), "{}", fused.form);

        // Sequentially identical results.
        for r in [&fine, &fused] {
            let it = curare_lisp::Interp::new();
            it.load_str(&r.form.to_string()).unwrap();
            let v = it.load_str("(let ((d (list 1 1 1))) (f d) d)").unwrap();
            assert_eq!(it.heap().display(v), "(6 30 5)", "{}", r.form);
        }
    }

    #[test]
    fn lock_rescue_gives_pure_readers_shared_locks() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable *))");
        // Tail RMW on (cadr l) plus a discarded tail read of (car l):
        // the read-side location coincides with the write one
        // invocation later, but is itself never written — shared mode.
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (car l)
                 (setf (cadr l) (* (cadr l) 2))))",
        )
        .unwrap();
        let r = rescue(&heap, &form, &db, false).expect("read side is order-insensitive");
        let shared: Vec<&LockSpec> = r.locks.iter().filter(|l| !l.exclusive).collect();
        assert_eq!(shared.len(), 1, "{:?}", r.locks);
        assert_eq!(shared[0].path.to_string(), "car");
        assert!(r.form.to_string().contains("cri-lock-read"), "{}", r.form);
    }

    #[test]
    fn lock_rescue_refuses_order_sensitive_tail() {
        let heap = Heap::new();
        // The running-sum chain: (cadr l) ← (car l) + (cadr l). Without
        // a reorderable declaration this is not an RMW the gate
        // accepts; locks would change the result.
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &DeclDb::new(), false).is_none());
    }

    #[test]
    fn lock_rescue_rejects_rmw_whose_operand_reads_a_conflicting_cell() {
        let heap = Heap::new();
        let db = db_from("(curare-declare (reorderable +))");
        // (setf (cadr l) (+ (cadr l) (car l))) is shaped like an RMW,
        // but the independent operand reads (car l) — a location
        // another invocation writes. The value added depends on the
        // interleaving: mutual exclusion cannot make this
        // order-insensitive.
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (cadr l) (car l)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &db, false).is_none());
    }

    #[test]
    fn declared_placement_applies_without_the_gate() {
        let heap = Heap::new();
        // The programmer declares the placement for the
        // order-sensitive accumulator: applied as written (the static
        // certifier, not the transform, is where declared placements
        // are audited).
        let db = db_from("(curare-declare (locks g (exclusive l car) (exclusive l cdr.car)))");
        let form = parse_one(
            "(defun g (l)
               (when (cdr l)
                 (g (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))",
        )
        .unwrap();
        let r = rescue(&heap, &form, &db, false).expect("declared placement must apply");
        assert_eq!(r.locks.len(), 2, "{:?}", r.locks);
        assert!(r.locks.iter().all(|l| l.exclusive));
        assert!(r.form.to_string().contains("cri-lock"), "{}", r.form);
    }

    #[test]
    fn placement_audit_refuses_unbracketable_guard_reads() {
        let heap = Heap::new();
        // The declared placement covers (car l), but a tail *guard*
        // reads it — guards run outside any bracket, so the placement
        // cannot be implemented faithfully and the rescue refuses.
        let db = db_from("(curare-declare (locks f (shared l car) (exclusive l cdr.car)))");
        let form = parse_one(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (when (car l)
                   (setf (cadr l) (quote x)))))",
        )
        .unwrap();
        assert!(rescue(&heap, &form, &db, false).is_none());
    }

    #[test]
    fn struct_locks_use_field_indices() {
        let heap = Heap::new();
        // Register the struct type by lowering the defstruct first.
        let mut lw = Lowerer::new(&heap);
        lw.lower_program(&[parse_one("(defstruct node next value)").unwrap()]).unwrap();
        let form = parse_one(
            "(defun bump (n)
               (when n
                 (setf (node-value (node-next n)) (node-value n))
                 (bump (node-next n))))",
        )
        .unwrap();
        let r = insert_locks(&heap, &form, &DeclDb::new()).unwrap();
        assert!(!r.locks.is_empty());
        let text = r.form.to_string();
        assert!(text.contains("cri-lock"), "{text}");
        assert!(text.contains("node-"), "{text}");
    }
}
