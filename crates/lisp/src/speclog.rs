//! Commit-time validation, undo and replay for `SpecMode`: the online
//! consumer of the [`crate::accesslog`].
//!
//! The paper's pipeline forces sequential ordering the moment a
//! conflict cannot be *proven* absent (a ⊤-write verdict, or aliasing
//! the single-access-path premise cannot rule out). `SpecMode` is the
//! optimistic alternative: such invocations run in parallel anyway
//! with the access log armed, and after the run quiesces [`resolve`]
//! decides whether the interleaving that actually happened is
//! equivalent to the sequential execution. When it is not, the
//! offending invocations are aborted (their writes undone from the
//! log) and replayed in sequential order; after `spec_retry_limit`
//! rounds, or on any surprise the replay machinery cannot express, the
//! run falls back to the sequential-degradation ladder: roll back
//! *everything* and rerun the roots inline, which returns the exact
//! sequential answer by construction.
//!
//! # Sequential ranks
//!
//! The validator walks the log's spawn tree and assigns every
//! *segment* (the span of an invocation between two of its spawns) its
//! position in the sequential execution: an invocation's segment
//! before its k-th spawn runs before the k-th child's whole subtree,
//! which runs before the next segment. This is exactly the order
//! `SequentialHooks` would have executed — heads in spawn order, tails
//! in unwind order. A run commits iff, for every pair the log's
//! conflict finder reports, the epoch order agrees with the rank
//! order. Overlapping brackets mean the race was too close to call and
//! count as a violation — the conservative direction, since a spurious
//! abort only costs a replay.
//!
//! A violation aborts the sequentially later invocation, and also the
//! earlier one when it read what the later one wrote: that reader saw
//! a value the sequential run never produces.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;

use crate::accesslog::{self, Access, Inv, Log, Op};
use crate::error::Result;
use crate::interp::Interp;
use crate::value::{FuncId, Value};
use curare_obs::EventKind;

thread_local! {
    /// Nonzero while this thread is replaying that invocation inline.
    static REPLAYING: Cell<u64> = const { Cell::new(0) };
}

/// Park a body error: in `SpecMode` a task error does not abort the
/// run (the inputs it read may be a misspeculation); the validator
/// escalates to the sequential rerun, which reproduces any genuine
/// error exactly.
pub fn record_error(inv: u64) {
    if let Some(e) = accesslog::lock().as_mut().and_then(|log| log.invs.get_mut(&inv)) {
        e.errored = true;
    }
}

/// True while the calling thread is replaying an aborted invocation
/// (spawns are suppressed and checked against the original run).
#[inline]
pub fn replaying() -> bool {
    REPLAYING.with(Cell::get) != 0
}

/// Force escalation: the replay machinery hit a structure it cannot
/// reproduce (e.g. a future whose original value was already consumed
/// by its toucher). The current round finishes; the next resolution
/// pass rolls everything back and falls to the sequential rerun.
pub fn escalate_now() {
    if let Some(log) = accesslog::lock().as_mut() {
        log.escalate = true;
    }
}

/// A suppressed spawn inside a replayed body: check it against the
/// original run's record and refresh the segment boundary. Returns
/// `false` (and flags escalation) when the replayed body diverged —
/// different callee, different arguments, a future where an enqueue
/// was, or more spawns than before.
pub fn replay_spawn(fid: FuncId, args: &[Value], future: bool) -> bool {
    let inv = REPLAYING.with(Cell::get);
    let mut g = accesslog::lock();
    let Some(log) = g.as_mut() else { return false };
    let expected = log.invs.get(&inv).and_then(|e| {
        let s = e.spawns.get(e.replay_idx)?;
        let child = log.invs.get(&s.child)?;
        (child.fid == fid && child.args == args && s.future.is_some() == future)
            .then_some(e.replay_idx)
    });
    let Some(i) = expected else {
        log.escalate = true;
        return false;
    };
    let e = log.invs.get_mut(&inv).expect("checked above");
    e.spawns[i].epoch = accesslog::tick();
    e.replay_idx = i + 1;
    true
}

/// Per-invocation segment boundaries (spawn epochs, ascending) and the
/// sequential rank of each segment.
struct InvRanks {
    boundaries: Vec<u64>,
    seg_ranks: Vec<u64>,
}

fn roots(log: &Log) -> impl Iterator<Item = (&u64, &Inv)> {
    log.invs.iter().filter(|(_, e)| e.parent == 0 || !log.invs.contains_key(&e.parent))
}

/// Assign sequential ranks by iterative DFS over the spawn tree (the
/// chains these programs build can be tens of thousands of invocations
/// deep, so no recursion).
fn compute_ranks(log: &Log) -> HashMap<u64, InvRanks> {
    let mut ranks: HashMap<u64, InvRanks> = HashMap::with_capacity(log.invs.len());
    let mut counter: u64 = 0;
    let enter = |inv: u64, rank: u64| InvRanks {
        boundaries: log.invs[&inv].spawns.iter().map(|s| s.epoch).collect(),
        seg_ranks: vec![rank],
    };
    let roots: Vec<u64> = roots(log).map(|(&inv, _)| inv).collect();
    for root in roots {
        if ranks.contains_key(&root) {
            continue; // defensive: malformed parent links
        }
        counter += 1;
        ranks.insert(root, enter(root, counter));
        // (invocation, index of the next spawn to descend into)
        let mut stack: Vec<(u64, usize)> = vec![(root, 0)];
        while let Some(&mut (inv, ref mut idx)) = stack.last_mut() {
            let spawns = &log.invs[&inv].spawns;
            counter += 1;
            if *idx < spawns.len() {
                let child = spawns[*idx].child;
                *idx += 1;
                if log.invs.contains_key(&child) && !ranks.contains_key(&child) {
                    ranks.insert(child, enter(child, counter));
                    stack.push((child, 0));
                } else {
                    // Child never registered (or duplicate link):
                    // still open the parent's next segment.
                    ranks.get_mut(&inv).expect("entered").seg_ranks.push(counter);
                }
            } else {
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    ranks.get_mut(&parent).expect("entered").seg_ranks.push(counter);
                }
            }
        }
    }
    ranks
}

fn rank_of(ranks: &HashMap<u64, InvRanks>, inv: u64, epoch: u64) -> Option<u64> {
    let r = ranks.get(&inv)?;
    let seg = r.boundaries.partition_point(|&b| b <= epoch);
    Some(r.seg_ranks.get(seg).copied().unwrap_or_else(|| *r.seg_ranks.last().unwrap_or(&0)))
}

/// The invocations that must abort, mapped to the smallest sequential
/// rank at which they violated (the replay order key).
fn validate(log: &Log, ranks: &HashMap<u64, InvRanks>) -> BTreeMap<u64, u64> {
    let mut aborts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut abort = |inv: u64, rank: u64| {
        let slot = aborts.entry(inv).or_insert(rank);
        *slot = (*slot).min(rank);
    };
    accesslog::for_each_conflict(&log.accesses, |a, b| {
        let (Some(ra), Some(rb)) = (rank_of(ranks, a.inv, a.lo), rank_of(ranks, b.inv, b.lo))
        else {
            return ControlFlow::Continue(());
        };
        // Epoch order: strict bracket separation, else the race was
        // too close to call.
        let consistent = if a.hi < b.lo {
            ra < rb
        } else if b.hi < a.lo {
            rb < ra
        } else {
            false
        };
        if !consistent {
            let ((earlier, re), (later, rl)) =
                if ra > rb { ((b, rb), (a, ra)) } else { ((a, ra), (b, rb)) };
            abort(later.inv, rl);
            if later.write() && !earlier.write() {
                abort(earlier.inv, re);
            }
        }
        ControlFlow::Continue(())
    });
    aborts
}

/// Undo the logged writes of `abort_set`: per touched location, walk
/// the log backwards from the current word to the pre-run value, then
/// re-apply only the surviving writes forward. Exact for any
/// interleaving because the log's write order is store order.
fn undo_writes(log: &mut Log, interp: &Interp, abort_set: &BTreeSet<u64>) {
    let mut by_loc: HashMap<u64, Vec<&Access>> = HashMap::new();
    for w in log.accesses.iter().filter(|a| a.write()) {
        by_loc.entry(w.loc).or_default().push(w);
    }
    for (loc, writes) in by_loc {
        if !writes.iter().any(|w| abort_set.contains(&w.inv)) {
            continue;
        }
        let global;
        let cell = match accesslog::global_sym(loc) {
            Some(sym) => {
                global = interp.global_cell(sym);
                &*global
            }
            None => interp.heap().loc_cell(loc),
        };
        let mut val = cell.load(Ordering::Acquire);
        for w in writes.iter().rev() {
            match w.op {
                Op::Store { old, .. } => val = old,
                Op::Add { delta } => val = add_bits(val, -delta),
                Op::Read => {}
            }
        }
        for w in writes.iter().filter(|w| !abort_set.contains(&w.inv)) {
            match w.op {
                Op::Store { new, .. } => val = new,
                Op::Add { delta } => val = add_bits(val, delta),
                Op::Read => {}
            }
        }
        cell.store(val, Ordering::Release);
    }
    log.accesses.retain(|a| !abort_set.contains(&a.inv));
    log.output.retain(|o| !abort_set.contains(&o.0));
    for &inv in abort_set {
        if let Some(e) = log.invs.get_mut(&inv) {
            e.errored = false;
            e.aborted = true;
            e.replay_idx = 0;
        }
    }
}

fn add_bits(bits: u64, delta: i64) -> u64 {
    match Value::from_bits(bits).as_int() {
        Some(i) => Value::int_checked(i + delta).map(|v| v.bits()).unwrap_or(bits),
        None => bits,
    }
}

/// What [`resolve`] decided.
#[derive(Default)]
pub struct Resolution {
    /// Invocations committed (0 when escalated).
    pub committed: u64,
    /// Total invocation aborts across replay rounds.
    pub aborts: u64,
    /// Replays executed.
    pub replays: u64,
    /// Invocations that committed without ever aborting.
    pub clean: u64,
    /// The run fell back to the sequential-degradation ladder: all
    /// logged writes were rolled back and the caller must rerun
    /// `roots` inline, sequentially, in order.
    pub escalated: bool,
    /// Root invocations (re-execution recipes) in spawn order.
    pub roots: Vec<(FuncId, Vec<Value>)>,
    /// Committed printed lines, in sequential order.
    pub output: Vec<String>,
}

/// Validate the quiesced run, replaying aborted invocations through
/// `run_body` (which must execute one function body under the caller's
/// hooks, with spawns routed to [`replay_spawn`]). Disarms the log
/// before returning. Must only be called when no task is in flight.
pub fn resolve(
    interp: &Interp,
    retry_limit: u32,
    run_body: &mut dyn FnMut(FuncId, Vec<Value>) -> Result<Value>,
) -> Resolution {
    let mut rounds: u32 = 0;
    loop {
        // Decide this round's fate under the lock, then release it for
        // any replays.
        let replays = {
            let mut g = accesslog::lock();
            let Some(log) = g.as_mut() else {
                drop(g);
                accesslog::take();
                return Resolution::default();
            };
            let ranks = compute_ranks(log);
            let aborts = if log.escalate { BTreeMap::new() } else { validate(log, &ranks) };
            // A future-valued invocation's result may already have been
            // consumed by its toucher; an abort cannot retract that
            // value, so the whole run falls back to the sequential rerun.
            let future_aborted = log.invs.values().any(|e| {
                e.spawns.iter().any(|s| s.future.is_some() && aborts.contains_key(&s.child))
            });
            let escalate = log.escalate
                || if aborts.is_empty() {
                    log.invs.values().any(|e| e.errored)
                } else {
                    rounds >= retry_limit || future_aborted
                };
            if escalate {
                let all: BTreeSet<u64> = log.invs.keys().copied().collect();
                undo_writes(log, interp, &all);
                drop(g);
                return finish(accesslog::take(), None);
            }
            if aborts.is_empty() {
                drop(g);
                return finish(accesslog::take(), Some(ranks));
            }
            // Abort now (undo under the lock), replay after.
            let set: BTreeSet<u64> = aborts.keys().copied().collect();
            log.aborts += set.len() as u64;
            for &inv in &set {
                curare_obs::record(EventKind::SpecAbort, inv);
            }
            undo_writes(log, interp, &set);
            let mut order: Vec<(u64, u64)> =
                aborts.iter().map(|(&inv, &rank)| (rank, inv)).collect();
            order.sort_unstable();
            order
        };
        rounds += 1;
        for (_, inv) in replays {
            let recipe = accesslog::lock().as_mut().and_then(|log| {
                log.replays += 1;
                log.invs.get(&inv).map(|e| (e.fid, e.args.clone()))
            });
            let Some((fid, args)) = recipe else { continue };
            curare_obs::record(EventKind::SpecReplay, inv);
            REPLAYING.with(|r| r.set(inv));
            let prev = curare_obs::set_invocation(inv);
            let res = run_body(fid, args);
            curare_obs::set_invocation(prev);
            REPLAYING.with(|r| r.set(0));
            accesslog::flush_reads();
            if let Some(log) = accesslog::lock().as_mut() {
                if let Some(e) = log.invs.get_mut(&inv) {
                    e.errored |= res.is_err();
                    log.escalate |= e.replay_idx != e.spawns.len();
                }
            }
        }
    }
}

/// The resolution of a disarmed log: a commit when `ranks` is given
/// (output released in sequential order), else an escalation (every
/// write already undone; the roots must rerun).
fn finish(log: Option<Log>, ranks: Option<HashMap<u64, InvRanks>>) -> Resolution {
    let log = log.unwrap_or_default();
    let mut res = Resolution {
        aborts: log.aborts,
        replays: log.replays,
        escalated: ranks.is_none(),
        ..Resolution::default()
    };
    let Some(ranks) = ranks else {
        res.roots = roots(&log).map(|(_, e)| (e.fid, e.args.clone())).collect();
        return res;
    };
    let mut out: Vec<(u64, u64, String)> = log
        .output
        .into_iter()
        .map(|(inv, epoch, line)| (rank_of(&ranks, inv, epoch).unwrap_or(u64::MAX), epoch, line))
        .collect();
    out.sort_by_key(|a| (a.0, a.1));
    res.output = out.into_iter().map(|(_, _, l)| l).collect();
    res.committed = log.invs.len() as u64;
    res.clean = log.invs.values().filter(|e| !e.aborted).count() as u64;
    for &inv in log.invs.keys() {
        curare_obs::record(EventKind::SpecCommit, inv);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // The access log is a process-global; serialize tests that arm it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm a speculative log and register `(inv, parent, fid)` in order.
    fn arm_with(invs: &[(u64, u64, FuncId)]) {
        accesslog::arm(true);
        for &(inv, parent, fid) in invs {
            curare_obs::set_invocation(parent);
            accesslog::spawn(parent, inv, fid, &[], None);
        }
        curare_obs::set_invocation(0);
    }

    #[test]
    fn clean_single_writer_run_commits() {
        let _g = guard();
        let interp = Interp::new();
        let heap = interp.heap();
        let a = heap.cons(Value::int(1), Value::NIL);
        let b = heap.cons(Value::int(2), Value::NIL);
        arm_with(&[(1, 0, 0)]);
        // inv 1 head writes a, spawns 2; inv 2 writes b. Disjoint.
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(10)).unwrap();
        accesslog::spawn(1, 2, 0, &[], None);
        curare_obs::set_invocation(2);
        heap.set_car(b, Value::int(20)).unwrap();
        curare_obs::set_invocation(0);
        accesslog::flush_reads();
        let r = resolve(&interp, 4, &mut |_, _| Ok(Value::NIL));
        assert!(!r.escalated);
        assert_eq!(r.committed, 2);
        assert_eq!(r.clean, 2);
        assert_eq!(r.aborts, 0);
        assert_eq!(heap.car(a).unwrap(), Value::int(10));
        assert_eq!(heap.car(b).unwrap(), Value::int(20));
    }

    #[test]
    fn stale_read_aborts_and_replays() {
        let _g = guard();
        let interp = Interp::new();
        let heap = interp.heap();
        let x = heap.cons(Value::int(1), Value::NIL);
        let dst = heap.cons(Value::int(0), Value::NIL);
        // Sequential order: head(1), head+tail(2), tail(1). inv 1's
        // *tail* should see inv 2's write of x — but inv 1 reads x
        // before inv 2 writes it (stale), then copies it into dst.
        arm_with(&[(1, 0, 0), (2, 1, 0)]);
        curare_obs::set_invocation(1);
        let stale = heap.car(x).unwrap(); // tail read, epoch-early
        heap.set_car(dst, stale).unwrap();
        curare_obs::set_invocation(2);
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(0);
        accesslog::flush_reads();
        // Replay of inv 1 re-runs its body: spawn (suppressed and
        // matched against the record), then read x, write dst.
        let r = resolve(&interp, 4, &mut |_, _| {
            assert!(replay_spawn(0, &[], false));
            let v = heap.car(x)?;
            heap.set_car(dst, v)?;
            Ok(Value::NIL)
        });
        assert!(!r.escalated, "replay should converge");
        assert!(r.aborts >= 1);
        assert!(r.replays >= 1);
        assert_eq!(heap.car(dst).unwrap(), Value::int(42), "tail must see conflictor's write");
    }

    #[test]
    fn dirty_read_aborts_the_earlier_reader() {
        let _g = guard();
        let interp = Interp::new();
        let heap = interp.heap();
        let x = heap.cons(Value::int(1), Value::NIL);
        let y = heap.cons(Value::int(0), Value::NIL);
        // Sequential order: head(1), head+tail(2), tail(1). inv 1's
        // tail writes x *before* inv 2 reads it, so inv 2 copies a
        // value the sequential run never shows it into y.
        arm_with(&[(1, 0, 0), (2, 1, 1)]);
        curare_obs::set_invocation(1);
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(2);
        let dirty = heap.car(x).unwrap();
        heap.set_car(y, dirty).unwrap();
        curare_obs::set_invocation(0);
        accesslog::flush_reads();
        let r = resolve(&interp, 4, &mut |fid, _| {
            if fid == 0 {
                assert!(replay_spawn(1, &[], false));
                heap.set_car(x, Value::int(42))?;
            } else {
                let v = heap.car(x)?;
                heap.set_car(y, v)?;
            }
            Ok(Value::NIL)
        });
        assert!(!r.escalated, "replay should converge");
        assert_eq!(heap.car(y).unwrap(), Value::int(1), "y must hold x's pre-run value");
        assert_eq!(heap.car(x).unwrap(), Value::int(42));
    }

    #[test]
    fn escalation_rolls_everything_back() {
        let _g = guard();
        let interp = Interp::new();
        let heap = interp.heap();
        let a = heap.cons(Value::int(1), Value::NIL);
        accesslog::arm(true);
        accesslog::spawn(0, 1, 7, &[a], None);
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(99)).unwrap();
        curare_obs::set_invocation(0);
        accesslog::flush_reads();
        record_error(1); // parked body error forces escalation
        let r = resolve(&interp, 4, &mut |_, _| Ok(Value::NIL));
        assert!(r.escalated);
        assert_eq!(r.roots, vec![(7, vec![a])]);
        assert_eq!(heap.car(a).unwrap(), Value::int(1), "rolled back to pre-run value");
    }

    #[test]
    fn atomic_adds_undo_by_compensation() {
        let _g = guard();
        let interp = Interp::new();
        let heap = interp.heap();
        let c = heap.cons(Value::int(10), Value::NIL);
        arm_with(&[(1, 0, 0), (2, 0, 0)]);
        curare_obs::set_invocation(1);
        heap.atomic_add_field(c, 0, 5).unwrap();
        curare_obs::set_invocation(2);
        heap.atomic_add_field(c, 0, 3).unwrap();
        curare_obs::set_invocation(0);
        assert_eq!(heap.car(c).unwrap(), Value::int(18));
        {
            let mut g = accesslog::lock();
            let log = g.as_mut().unwrap();
            assert_eq!(log.accesses.iter().filter(|a| a.atomic()).count(), 2);
            let set: BTreeSet<u64> = [1u64].into_iter().collect();
            undo_writes(log, &interp, &set);
        }
        assert_eq!(heap.car(c).unwrap(), Value::int(13), "only inv 1's delta compensated");
        accesslog::take();
    }

    #[test]
    fn output_commits_in_sequential_order() {
        let _g = guard();
        let interp = Interp::new();
        // Tail prints run in unwind order: inv 2's line precedes
        // inv 1's even though inv 1 printed first by the clock.
        arm_with(&[(1, 0, 0), (2, 1, 0)]);
        curare_obs::set_invocation(1);
        assert!(accesslog::divert_emit("tail-of-1"));
        curare_obs::set_invocation(2);
        assert!(accesslog::divert_emit("tail-of-2"));
        curare_obs::set_invocation(0);
        let r = resolve(&interp, 4, &mut |_, _| Ok(Value::NIL));
        assert_eq!(r.output, vec!["tail-of-2".to_string(), "tail-of-1".to_string()]);
    }
}
