//! The heap-access log: one record of what every CRI invocation read
//! and wrote, with the spawn and touch edges that order invocations,
//! and the one conflict finder its two consumers share.
//!
//! The paper's §2 analysis predicts which cross-invocation accesses
//! can conflict. This log records which ones a run actually made:
//!
//! - the sanitizer (`curare-check`) arms it for one run and, offline,
//!   orders the conflicting pairs by happens-before and diffs them
//!   against the static prediction;
//! - speculation ([`crate::speclog`]) arms it for one `SpecMode` run
//!   and, at quiescence, orders the same pairs by epoch against
//!   sequential rank, aborting and replaying invocations that ran out
//!   of order (writes carry the undo data for that).
//!
//! # Records
//!
//! An access is `(invocation, location, accessor tag, op, [lo, hi])`.
//! `[lo, hi]` is an epoch bracket from one SeqCst clock: `lo` ticks
//! before the heap load/store, `hi` after. Writes perform the store
//! *inside* the log lock, so the log's write order is exactly the
//! heap's store order per location. Reads buffer in a thread-local
//! and flush into the log at task boundaries ([`flush_reads`]). Each
//! invocation's record holds its spawns (child, future, epoch) and
//! touches (future, epoch); one invocation runs on one thread, so its
//! epochs are its program order.
//!
//! # Locations
//!
//! A location is one mutable word, packed once here: cons cell `id`
//! packs its car as `id << 1` and its cdr as `id << 1 | 1`, struct
//! slot `s` as `STRUCT_LOC_BIT | s`, global `sym` as
//! `GLOBAL_LOC_BIT | sym`. The accessor tag is the §2 accessor code
//! (0 = car, 1 = cdr, 2+k = struct field k; 0 for globals). Vectors and
//! hash tables are not logged, and neither are initializing stores of
//! fresh cells: a fresh cell is invisible to other invocations until
//! it is published through a logged write.
//!
//! # Cost
//!
//! Each heap accessor makes one hook call. While the log is disarmed
//! that call is one relaxed load and a branch. Accesses outside any
//! invocation (the driving thread's list building, result display)
//! are never logged. Exactly one log may be armed per process at a
//! time: callers serialize armed runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::Result;
use crate::value::{ConsId, FuncId, SymId, Value};

/// Marks a packed location as a struct slot.
pub const STRUCT_LOC_BIT: u64 = 1 << 63;
/// Marks a packed location as a global variable's cell.
pub const GLOBAL_LOC_BIT: u64 = 1 << 62;

/// The packed location of field `field` (0 = car, 1 = cdr) of cons `id`.
#[inline]
pub const fn cons_loc(id: ConsId, field: u64) -> u64 {
    id << 1 | field
}

/// The packed location of struct slot `slot`.
#[inline]
pub const fn slot_loc(slot: u64) -> u64 {
    STRUCT_LOC_BIT | slot
}

/// The packed location of global `sym`.
#[inline]
pub const fn global_loc(sym: SymId) -> u64 {
    GLOBAL_LOC_BIT | sym as u64
}

/// What an access did to its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load.
    Read,
    /// A plain store: undo restores `old`, redo restores `new`.
    Store {
        /// The word before the store.
        old: u64,
        /// The word stored.
        new: u64,
    },
    /// An atomic read-modify-write adding `delta` (undo subtracts it,
    /// so concurrent increments are never lost). Two atomic writes to
    /// one word never conflict.
    Add {
        /// The integer added.
        delta: i64,
    },
}

/// One logged heap access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The invocation that made it (never 0).
    pub inv: u64,
    /// Packed location (see module docs).
    pub loc: u64,
    /// Accessor code: 0 = car, 1 = cdr, 2+k = struct field k.
    pub tag: u64,
    /// What it did.
    pub op: Op,
    /// Epoch before the access.
    pub lo: u64,
    /// Epoch after the access.
    pub hi: u64,
}

impl Access {
    /// True for stores and atomic adds.
    pub fn write(&self) -> bool {
        self.op != Op::Read
    }

    /// True for atomic adds.
    pub fn atomic(&self) -> bool {
        matches!(self.op, Op::Add { .. })
    }
}

/// One spawn made by an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spawn {
    /// The spawn point (a replay refreshes it).
    pub epoch: u64,
    /// The spawned invocation.
    pub child: u64,
    /// The future the spawn created, if any.
    pub future: Option<u64>,
}

/// One invocation's record.
#[derive(Debug, Clone, Default)]
pub struct Inv {
    /// The spawning invocation (0 for a root).
    pub parent: u64,
    /// The function it runs (its re-execution recipe, with `args`).
    pub fid: FuncId,
    /// Its arguments.
    pub args: Vec<Value>,
    /// Its spawns, in program order.
    pub spawns: Vec<Spawn>,
    /// `(epoch, future)` for each future it observed resolved.
    pub touches: Vec<(u64, u64)>,
    pub(crate) replay_idx: usize,
    pub(crate) errored: bool,
    pub(crate) aborted: bool,
}

/// The log of one armed run.
#[derive(Debug, Default)]
pub struct Log {
    /// Every invocation spawned while the log was armed.
    pub invs: BTreeMap<u64, Inv>,
    /// Every logged access; writes appear in store order.
    pub accesses: Vec<Access>,
    /// Printed lines held back until commit, as `(inv, epoch, line)`
    /// (speculative runs only).
    pub(crate) output: Vec<(u64, u64, String)>,
    pub(crate) speculative: bool,
    pub(crate) aborts: u64,
    pub(crate) replays: u64,
    /// Set when a replay hit something it cannot reproduce.
    pub(crate) escalate: bool,
}

impl Log {
    /// Record that `parent` spawned `child` running `(fid args...)` at
    /// `epoch`, with `future` set when the spawn created one.
    pub fn push_spawn(
        &mut self,
        parent: u64,
        child: u64,
        fid: FuncId,
        args: &[Value],
        future: Option<u64>,
        epoch: u64,
    ) {
        self.invs.insert(child, Inv { parent, fid, args: args.to_vec(), ..Inv::default() });
        if let Some(p) = self.invs.get_mut(&parent) {
            p.spawns.push(Spawn { epoch, child, future });
        }
    }

    /// Record that `inv` observed `future` resolved at `epoch`.
    pub fn push_touch(&mut self, inv: u64, future: u64, epoch: u64) {
        if let Some(e) = self.invs.get_mut(&inv) {
            e.touches.push((epoch, future));
        }
    }

    /// Spawns, touches and accesses recorded.
    pub fn records(&self) -> usize {
        let edges: usize = self.invs.values().map(|e| e.spawns.len() + e.touches.len()).sum();
        edges + self.accesses.len()
    }
}

/// The conflict finder: visit, location by location, every pair of
/// accesses from different invocations that conflict — same location,
/// at least one write, not both atomic. `visit` breaks to stop early.
pub fn for_each_conflict<'a>(
    accesses: impl IntoIterator<Item = &'a Access>,
    mut visit: impl FnMut(&'a Access, &'a Access) -> ControlFlow<()>,
) {
    let mut by_loc: BTreeMap<u64, Vec<&'a Access>> = BTreeMap::new();
    for a in accesses {
        by_loc.entry(a.loc).or_default().push(a);
    }
    for accs in by_loc.values().filter(|accs| accs.iter().any(|a| a.write())) {
        for (i, a) in accs.iter().enumerate() {
            for b in &accs[i + 1..] {
                if a.inv != b.inv
                    && (a.write() || b.write())
                    && !(a.atomic() && b.atomic())
                    && visit(a, b).is_break()
                {
                    return;
                }
            }
        }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
/// The epoch clock. SeqCst so that a bracket that ends before another
/// begins really did happen first.
static CLOCK: AtomicU64 = AtomicU64::new(1);
static LOG: Mutex<Option<Log>> = Mutex::new(None);

thread_local! {
    static READ_BUF: RefCell<Vec<Access>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn lock() -> MutexGuard<'static, Option<Log>> {
    LOG.lock().unwrap_or_else(PoisonError::into_inner)
}

#[inline]
pub(crate) fn tick() -> u64 {
    CLOCK.fetch_add(1, Ordering::SeqCst)
}

/// Arm a fresh log for one run. A `speculative` log also holds back
/// printed output until commit ([`divert_emit`]).
pub fn arm(speculative: bool) {
    let mut log = lock();
    CLOCK.store(1, Ordering::SeqCst);
    *log = Some(Log { speculative, ..Log::default() });
    READ_BUF.with(|b| b.borrow_mut().clear());
    ARMED.store(true, Ordering::Release);
}

/// Disarm and return the log. Call only once no task is in flight.
pub fn take() -> Option<Log> {
    ARMED.store(false, Ordering::Release);
    READ_BUF.with(|b| b.borrow_mut().clear());
    lock().take()
}

/// True while a log is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The invocation to log an access against, or 0 to skip it.
#[inline]
fn active_inv() -> u64 {
    if !armed() {
        return 0;
    }
    curare_obs::current_invocation()
}

/// The read hook: load `cell` (location `loc`) and log the read.
#[inline]
pub fn read(cell: &AtomicU64, loc: u64, tag: u64) -> u64 {
    match active_inv() {
        0 => cell.load(Ordering::Acquire),
        inv => read_logged(cell, inv, loc, tag),
    }
}

#[cold]
fn read_logged(cell: &AtomicU64, inv: u64, loc: u64, tag: u64) -> u64 {
    let lo = tick();
    let bits = cell.load(Ordering::Acquire);
    let hi = tick();
    READ_BUF.with(|b| b.borrow_mut().push(Access { inv, loc, tag, op: Op::Read, lo, hi }));
    bits
}

/// The store hook: store `bits` into `cell` (location `loc`) and log
/// the old and new words.
#[inline]
pub fn store(cell: &AtomicU64, loc: u64, tag: u64, bits: u64) {
    match active_inv() {
        0 => cell.store(bits, Ordering::Release),
        inv => store_logged(cell, inv, loc, tag, bits),
    }
}

#[cold]
fn store_logged(cell: &AtomicU64, inv: u64, loc: u64, tag: u64, bits: u64) {
    let mut log = lock();
    let lo = tick();
    let old = cell.load(Ordering::Acquire);
    cell.store(bits, Ordering::Release);
    let hi = tick();
    if let Some(log) = log.as_mut() {
        log.accesses.push(Access { inv, loc, tag, op: Op::Store { old, new: bits }, lo, hi });
    }
}

/// The atomic-add hook: run `rmw` (a CAS loop adding `delta` to
/// location `loc`) and log it when it succeeds. The log lock is held
/// across the loop so the log's order is the word's update order.
#[inline]
pub fn add<T>(loc: u64, tag: u64, delta: i64, rmw: impl FnOnce() -> Result<T>) -> Result<T> {
    match active_inv() {
        0 => rmw(),
        inv => add_logged(inv, loc, tag, delta, rmw),
    }
}

#[cold]
fn add_logged<T>(
    inv: u64,
    loc: u64,
    tag: u64,
    delta: i64,
    rmw: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let mut log = lock();
    let lo = tick();
    let res = rmw();
    let hi = tick();
    if let (Ok(_), Some(log)) = (&res, log.as_mut()) {
        log.accesses.push(Access { inv, loc, tag, op: Op::Add { delta }, lo, hi });
    }
    res
}

/// Log that the current invocation, `parent`, spawned `child` running
/// `(fid args...)` (with `future` when the spawn created one).
pub fn spawn(parent: u64, child: u64, fid: FuncId, args: &[Value], future: Option<u64>) {
    if !armed() {
        return;
    }
    if let Some(log) = lock().as_mut() {
        log.push_spawn(parent, child, fid, args, future, tick());
    }
}

/// Log that the current invocation observed `future` resolved.
pub fn touch(future: u64) {
    let inv = active_inv();
    if inv == 0 {
        return;
    }
    if let Some(log) = lock().as_mut() {
        log.push_touch(inv, future, tick());
    }
}

/// Move the calling thread's buffered reads into the log. The pool
/// calls this after every task, so a quiesced run's reads are all in.
pub fn flush_reads() {
    if !armed() {
        return;
    }
    let buf = READ_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if buf.is_empty() {
        return;
    }
    if let Some(log) = lock().as_mut() {
        log.accesses.extend(buf);
    }
}

/// Hold a printed line back in a speculative log; returns `false` when
/// the caller should append it to the ordinary output instead.
/// Committed lines are released in sequential order.
pub fn divert_emit(line: &str) -> bool {
    let inv = active_inv();
    if inv == 0 {
        return false;
    }
    match lock().as_mut() {
        Some(log) if log.speculative => {
            log.output.push((inv, tick(), line.to_string()));
            true
        }
        _ => false,
    }
}

/// The word behind a global location is not in the heap; callers that
/// resolve locations (undo) need to tell the two apart.
#[inline]
pub(crate) fn global_sym(loc: u64) -> Option<SymId> {
    (loc & GLOBAL_LOC_BIT != 0).then_some((loc & !GLOBAL_LOC_BIT) as SymId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(inv: u64, loc: u64, op: Op) -> Access {
        Access { inv, loc, tag: 0, op, lo: 0, hi: 0 }
    }

    fn pairs(accs: &[Access]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for_each_conflict(accs, |a, b| {
            out.push((a.inv, b.inv));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn conflicts_need_a_write_two_invocations_and_not_two_atomics() {
        let w = Op::Store { old: 0, new: 1 };
        let add = Op::Add { delta: 1 };
        assert_eq!(pairs(&[acc(1, 8, Op::Read), acc(2, 8, w)]), vec![(1, 2)]);
        assert!(pairs(&[acc(1, 8, Op::Read), acc(2, 8, Op::Read)]).is_empty());
        assert!(pairs(&[acc(1, 8, w), acc(1, 8, Op::Read)]).is_empty());
        assert!(pairs(&[acc(1, 8, add), acc(2, 8, add)]).is_empty());
        assert_eq!(pairs(&[acc(1, 8, add), acc(2, 8, Op::Read)]), vec![(1, 2)]);
        assert!(pairs(&[acc(1, 8, w), acc(2, 9, w)]).is_empty());
    }

    #[test]
    fn a_break_stops_the_scan() {
        let w = Op::Store { old: 0, new: 1 };
        let accs = [acc(1, 8, w), acc(2, 8, w), acc(3, 8, w)];
        let mut seen = 0;
        for_each_conflict(&accs, |_, _| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn location_packing_keeps_kinds_apart() {
        assert_eq!(cons_loc(5, 0), 10);
        assert_eq!(cons_loc(5, 1), 11);
        assert_ne!(slot_loc(10), 10);
        assert_eq!(global_sym(global_loc(7)), Some(7));
        assert_eq!(global_sym(slot_loc(7)), None);
    }
}
