//! Property tests (in-tree `mspgemm_rt::testkit` harness) for the
//! bounded submission queue: random submit / cancel / pop / drop
//! schedules — replayed both single-threaded and across racing threads —
//! must never deadlock, never leak a queue slot, and always leave the
//! queue drainable to depth zero.
//!
//! The queue's unit tests (in `src/submit.rs`) pin the *policy* —
//! deficit round-robin, deadline tie-breaks. These
//! properties pin the *accounting*: for every generated op schedule,
//!
//! * `depth()` equals (admitted − cancelled − popped) at every step;
//! * a refused push leaves the depth untouched and reports the real
//!   capacity;
//! * cancelling an id at most once succeeds, and never resurrects an
//!   entry that was already popped;
//! * after the schedule runs, `close()` + `pop_batch` drains the queue
//!   to exactly depth zero — no slot is leaked, no entry is lost.

use mspgemm_rt::testkit::{check, vec_of};
use mspgemm_sched::{CancelOutcome, QueueTag, RefusalReason, SubmitQueue};
use std::collections::HashSet;

/// Matches the former proptest config: 64 cases per property
/// (`MSPGEMM_TESTKIT_CASES` overrides).
const CASES: usize = 64;

/// One schedule step: `kind` selects submit / cancel / pop, the other
/// fields parameterize it. Kept as a flat tuple so testkit shrinking
/// minimises schedules generically.
type Op = (u32, u32, u32);

fn ops(max_len: usize) -> mspgemm_rt::testkit::VecStrategy<(
    std::ops::Range<u32>,
    std::ops::Range<u32>,
    std::ops::Range<u32>,
)> {
    // kind 0..=2: submit / cancel / pop; tenant 0..4; size 0..4 (a pop
    // takes 1 + size % 2 entries)
    vec_of((0..3u32, 0..4u32, 0..4u32), 0..=max_len)
}

fn tag(tenant: u32) -> QueueTag {
    QueueTag { tenant, deadline: None }
}

#[test]
fn schedules_never_leak_slots_or_entries() {
    check("schedules_never_leak_slots_or_entries", CASES, ops(48), |schedule| {
        const CAPACITY: usize = 4;
        let queue: SubmitQueue<u64> = SubmitQueue::new(CAPACITY);
        let mut live: Vec<u64> = Vec::new(); // admitted, not yet cancelled/popped
        let mut admitted = 0u64;
        let mut removed = 0u64; // cancelled + popped
        let mut popped_ids: HashSet<u64> = HashSet::new();
        let mut out = Vec::new();

        for &(kind, tenant, size) in &schedule {
            match kind {
                0 => match queue.try_push(admitted, tag(tenant)) {
                    Ok(id) => {
                        live.push(id);
                        admitted += 1;
                    }
                    Err(refused) => {
                        assert_eq!(queue.depth(), CAPACITY, "refusal below capacity");
                        match refused.reason {
                            RefusalReason::Full { capacity } => assert_eq!(capacity, CAPACITY),
                            RefusalReason::Closed => panic!("queue was never closed"),
                        }
                    }
                },
                1 => {
                    if live.is_empty() {
                        // cancel of an already-popped id must be a no-op
                        if let Some(&id) = popped_ids.iter().next() {
                            assert!(
                                !matches!(queue.cancel(id), CancelOutcome::Removed(_)),
                                "popped id resurrected"
                            );
                        }
                    } else {
                        let id = live.remove(tenant as usize % live.len());
                        let entry = queue.cancel(id);
                        assert!(
                            matches!(entry, CancelOutcome::Removed(_)),
                            "live id {id} not cancellable"
                        );
                        removed += 1;
                    }
                }
                _ => {
                    let n = queue.try_pop_batch(1 + (size as usize % 2), &mut out);
                    assert_eq!(n, out.len());
                    for entry in out.drain(..) {
                        assert!(
                            live.iter().any(|&id| id == entry.id),
                            "popped id {} was not live",
                            entry.id
                        );
                        live.retain(|&id| id != entry.id);
                        popped_ids.insert(entry.id);
                        removed += 1;
                    }
                }
            }
            assert_eq!(
                queue.depth() as u64,
                admitted - removed,
                "depth diverged from admitted − removed"
            );
        }

        // final drain: close, then pop until the queue reports
        // closed-and-empty — depth must land on exactly zero
        queue.close();
        while queue.pop_batch(8, &mut out) {
            for entry in out.drain(..) {
                live.retain(|&id| id != entry.id);
            }
        }
        assert_eq!(queue.depth(), 0, "queue not drained to zero");
        assert!(live.is_empty(), "admitted entries lost: {live:?}");
    });
}

#[test]
fn racing_submitters_and_poppers_never_deadlock_or_leak() {
    check("racing_submitters_and_poppers_never_deadlock_or_leak", CASES, ops(40), |schedule| {
        let queue: SubmitQueue<u64> = SubmitQueue::new(3);
        let popped = std::sync::Mutex::new(Vec::<u64>::new());
        let mut pushed_total = 0u64;
        let mut cancelled_total = 0u64;

        std::thread::scope(|scope| {
            // dedicated popper: blocking pop_batch until closed + drained —
            // the deadlock check is that this join returns at all
            let popper = scope.spawn(|| {
                let mut out = Vec::new();
                while queue.pop_batch(2, &mut out) {
                    let mut seen = popped.lock().unwrap_or_else(|e| e.into_inner());
                    for entry in out.drain(..) {
                        seen.push(entry.id);
                    }
                }
            });

            // two producers replay interleaved halves of the schedule,
            // racing the popper; cancels race dispatch and may miss
            let halves: [Vec<Op>; 2] = [
                schedule.iter().copied().step_by(2).collect(),
                schedule.iter().skip(1).copied().step_by(2).collect(),
            ];
            let counts: Vec<(u64, u64)> = std::thread::scope(|inner| {
                let handles: Vec<_> = halves
                    .iter()
                    .map(|half| {
                        let queue = queue.clone();
                        inner.spawn(move || {
                            let mut pushed = 0u64;
                            let mut cancelled = 0u64;
                            let mut mine: Vec<u64> = Vec::new();
                            for &(kind, tenant, _) in half {
                                match kind {
                                    0 => {
                                        if let Ok(id) = queue.try_push(0, tag(tenant)) {
                                            mine.push(id);
                                            pushed += 1;
                                        }
                                    }
                                    1 => {
                                        if !mine.is_empty() {
                                            let id = mine.remove(tenant as usize % mine.len());
                                            if matches!(
                                                queue.cancel(id),
                                                CancelOutcome::Removed(_)
                                            ) {
                                                cancelled += 1;
                                            }
                                        }
                                    }
                                    _ => std::thread::yield_now(),
                                }
                            }
                            (pushed, cancelled)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("producer panicked")).collect()
            });
            for (p, c) in counts {
                pushed_total += p;
                cancelled_total += c;
            }

            queue.close();
            popper.join().expect("popper panicked");
        });

        let popped = popped.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(queue.depth(), 0, "queue not drained to zero after close");
        assert_eq!(
            popped.len() as u64 + cancelled_total,
            pushed_total,
            "entries leaked or duplicated: {} popped + {} cancelled != {} pushed",
            popped.len(),
            cancelled_total,
            pushed_total
        );
        let unique: HashSet<&u64> = popped.iter().collect();
        assert_eq!(unique.len(), popped.len(), "an entry was popped twice");
    });
}
