//! Layer probes: single-threaded loops over one layer's public
//! functions, reported as nanoseconds per operation (median batch).

use std::hint::black_box;
use std::time::Instant;

use curare::lisp::{Heap, Value};
use curare::runtime::queue::ShardedQueues;
use curare::runtime::{Location, LockTable, Task};

/// Operations per timed batch.
const OPS: usize = 50_000;
/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 7;

fn per_op_ns(mut batch: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES).map(|_| batch() / OPS as f64).collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

fn task(site: usize) -> Task {
    Task { fid: 0, args: Vec::new(), site, future: None, inv: 0, parent: 0, attempts: 0 }
}

/// One push and one owner pop on a two-group sharded queue set.
pub fn queue_push_pop_ns() -> f64 {
    let q = ShardedQueues::with_servers(2, true);
    let owner = q.owner_of(1);
    per_op_ns(|| {
        let t0 = Instant::now();
        for _ in 0..OPS {
            q.push(task(1));
            black_box(q.pop_local(owner).expect("task just pushed"));
        }
        t0.elapsed().as_nanos() as f64
    })
}

/// One successful steal of a task from a victim with a single
/// non-empty site.
pub fn queue_steal_ns() -> f64 {
    let q = ShardedQueues::with_servers(2, true);
    let victim = q.owner_of(2);
    let thief = 1 - victim;
    let mut rng = 0x2545_F491_4F6C_DD1D_u64;
    per_op_ns(|| {
        q.push_batch((0..OPS).map(|_| task(2)).collect());
        let t0 = Instant::now();
        for _ in 0..OPS {
            black_box(q.steal(thief, &mut rng).expect("victim holds work"));
        }
        t0.elapsed().as_nanos() as f64
    })
}

/// One uncontended lock + unlock of a location in the given mode.
pub fn locktable_ns(exclusive: bool) -> f64 {
    let heap = Heap::new();
    let cell = heap.cons(Value::int(1), Value::NIL);
    let table = LockTable::new();
    let loc = Location::new(cell, 0);
    per_op_ns(|| {
        let t0 = Instant::now();
        for _ in 0..OPS {
            table.lock(black_box(loc), exclusive);
            assert!(table.unlock(black_box(loc), exclusive), "lock just taken");
        }
        t0.elapsed().as_nanos() as f64
    })
}

/// Heap accessors: (cons, car, set_car) ns per call over a fresh list.
pub fn heap_ns() -> (f64, f64, f64) {
    let heap = Heap::new();
    let mut cells = Vec::with_capacity(OPS);
    let cons = per_op_ns(|| {
        cells.clear();
        let mut l = Value::NIL;
        let t0 = Instant::now();
        for i in 0..OPS {
            l = heap.cons(Value::int(i as i64), l);
            cells.push(l);
        }
        t0.elapsed().as_nanos() as f64
    });
    let car = per_op_ns(|| {
        let t0 = Instant::now();
        for &c in &cells {
            black_box(heap.car(black_box(c)).expect("cons cell"));
        }
        t0.elapsed().as_nanos() as f64
    });
    let set_car = per_op_ns(|| {
        let t0 = Instant::now();
        for (i, &c) in cells.iter().enumerate() {
            heap.set_car(black_box(c), Value::int(i as i64)).expect("cons cell");
        }
        t0.elapsed().as_nanos() as f64
    });
    (cons, car, set_car)
}
