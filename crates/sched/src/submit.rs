//! Submission machinery for the concurrent executor service: one-shot
//! completion [`Ticket`]s and a bounded, fairness-aware [`SubmitQueue`].
//!
//! The service shape the roadmap targets — many tenants submitting small
//! masked products against one persistent pool — needs exactly two
//! primitives under it, and the hermetic build rules out pulling in an
//! async runtime for either:
//!
//! * a **one-shot channel**: the submitter gets a [`Ticket`] back
//!   immediately and blocks (or polls) on it; the dispatcher completes it
//!   through the matching [`TicketWriter`]. Dropping the writer without
//!   completing — service shutdown, cancellation — surfaces as
//!   [`TicketLost`], never a hang;
//! * an **admission queue with backpressure**: [`SubmitQueue::try_push`]
//!   either enqueues or returns the job to the caller with a structured
//!   refusal ([`PushRefused`]). Nothing about submission ever blocks; the
//!   only blocking operation is the dispatcher's [`SubmitQueue::pop_batch`].
//!
//! # Fairness
//!
//! [`SubmitQueue::pop_batch`] does not pop FIFO. Each slot goes to the
//! queued entry that wins on, in order: the tenant with the fewest pops
//! so far (deficit round-robin, so a tenant submitting 10× faster than
//! its neighbour cannot starve it); then the earliest
//! [`QueueTag::deadline`]; then submission order. The per-tenant pop
//! counts are the fairness state — a tenant's share of dispatch slots
//! while it has queued work is at least `1/k` with `k` active tenants,
//! which is the bound the fairness regression test asserts (with slack)
//! downstream.
//!
//! # Allocation discipline
//!
//! The queue's steady state allocates nothing per operation beyond what
//! the caller hands in: entries live in a ring buffer, batches are written
//! into a caller-owned `Vec`, and the per-tenant fairness table only grows
//! when a never-seen tenant id appears.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The writer side of a ticket was dropped before completing: the job was
/// cancelled, or its service shut down, before a result existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TicketLost;

impl std::fmt::Display for TicketLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket lost: the job was dropped before a result was produced")
    }
}

impl std::error::Error for TicketLost {}

enum TicketState<T> {
    Pending,
    Ready(T),
    Lost,
}

struct TicketInner<T> {
    state: Mutex<TicketState<T>>,
    cv: Condvar,
}

/// The consumer side of a one-shot completion channel. Obtained from
/// [`ticket`]; resolved by the matching [`TicketWriter`].
pub struct Ticket<T> {
    inner: Arc<TicketInner<T>>,
}

/// The producer side of a one-shot completion channel. [`complete`]
/// (consuming) delivers the value; dropping the writer un-completed marks
/// the ticket [`TicketLost`] so a waiter can never hang.
///
/// [`complete`]: TicketWriter::complete
pub struct TicketWriter<T> {
    inner: Arc<TicketInner<T>>,
    delivered: bool,
}

/// Create a connected one-shot channel pair.
pub fn ticket<T>() -> (TicketWriter<T>, Ticket<T>) {
    let inner = Arc::new(TicketInner {
        state: Mutex::new(TicketState::Pending),
        cv: Condvar::new(),
    });
    (TicketWriter { inner: Arc::clone(&inner), delivered: false }, Ticket { inner })
}

impl<T> TicketWriter<T> {
    /// Deliver the value and wake the waiter.
    pub fn complete(mut self, value: T) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = TicketState::Ready(value);
        self.delivered = true;
        drop(st);
        self.inner.cv.notify_all();
    }
}

impl<T> Drop for TicketWriter<T> {
    fn drop(&mut self) {
        if !self.delivered {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(*st, TicketState::Pending) {
                *st = TicketState::Lost;
            }
            drop(st);
            self.inner.cv.notify_all();
        }
    }
}

impl<T> Ticket<T> {
    /// Block until the value is delivered (or the writer is dropped).
    pub fn wait(self) -> Result<T, TicketLost> {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *st, TicketState::Lost) {
                TicketState::Ready(v) => return Ok(v),
                TicketState::Lost => return Err(TicketLost),
                TicketState::Pending => {
                    *st = TicketState::Pending;
                    st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Block up to `timeout`; on expiry the (still pending) ticket is
    /// handed back so the caller can keep waiting or drop it.
    ///
    /// Edge cases are pinned by tests: a zero (or already-elapsed) timeout
    /// never blocks — it checks the state once and hands the ticket back
    /// if still pending; a `timeout` too large to represent as an absolute
    /// `Instant` (e.g. `Duration::MAX`) degrades to an unbounded wait
    /// instead of panicking on `Instant` overflow. Spurious condvar
    /// wakeups are absorbed by the loop: every wakeup re-inspects the
    /// state and the remaining budget, so a spurious wakeup can only
    /// shorten one sleep, never produce a premature expiry or a lost
    /// delivery.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<T, TicketLost>, Self> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *st, TicketState::Lost) {
                TicketState::Ready(v) => return Ok(Ok(v)),
                TicketState::Lost => return Ok(Err(TicketLost)),
                TicketState::Pending => {
                    *st = TicketState::Pending;
                    let Some(deadline) = deadline else {
                        // Unrepresentable deadline: wait without a bound,
                        // exactly like `wait` (the writer side guarantees
                        // resolution or loss, so this cannot hang forever).
                        st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                        continue;
                    };
                    let now = Instant::now();
                    if now >= deadline {
                        drop(st);
                        return Err(self);
                    }
                    let (guard, _) = self
                        .inner
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// `true` once a wait would return immediately (delivered or lost).
    pub fn is_resolved(&self) -> bool {
        !matches!(
            *self.inner.state.lock().unwrap_or_else(|e| e.into_inner()),
            TicketState::Pending
        )
    }
}

/// Scheduling hints attached to one submission.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueTag {
    /// Tenant identity — the unit of fairness accounting.
    pub tenant: u32,
    /// Optional deadline hint: among equal fairness standing, the
    /// earliest deadline dispatches first (`None` sorts last).
    pub deadline: Option<Instant>,
}

/// One queued submission, as handed to the dispatcher by
/// [`SubmitQueue::pop_batch`].
pub struct Entry<J> {
    /// The queued payload.
    pub job: J,
    /// The submission's scheduling hints.
    pub tag: QueueTag,
    /// Unique id assigned at admission; the handle for [`SubmitQueue::cancel`].
    pub id: u64,
    /// When the entry was admitted (queue-delay measurements subtract it).
    pub enqueued: Instant,
}

/// Why [`SubmitQueue::try_push`] refused, with the job handed back.
///
/// `Debug` shows only the reason — the payload need not be `Debug`.
pub struct PushRefused<J> {
    /// The rejected payload, returned untouched.
    pub job: J,
    /// Whether the refusal is backpressure or shutdown.
    pub reason: RefusalReason,
}

impl<J> std::fmt::Debug for PushRefused<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PushRefused").field("reason", &self.reason).finish_non_exhaustive()
    }
}

/// The two reasons a push can be refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefusalReason {
    /// The queue held `capacity` entries. Retry later.
    Full {
        /// The configured capacity at rejection time.
        capacity: usize,
    },
    /// [`SubmitQueue::close`] was called; the queue accepts nothing more.
    Closed,
}

/// What [`SubmitQueue::cancel`] found for the id. Distinguishes "withdrawn
/// before dispatch" from "the dispatcher already popped it" — the latter
/// routes the caller to cooperative in-flight cancellation instead of the
/// old silent `None`.
pub enum CancelOutcome<J> {
    /// The entry was still queued and is handed back; it will never
    /// dispatch. The payload is returned so the caller can release any
    /// resources it carries (e.g. complete its ticket).
    Removed(Entry<J>),
    /// The dispatcher already popped the entry and has not yet settled it:
    /// the job is (or is about to be) running. Cancel it cooperatively —
    /// via its cancel token — rather than through the queue.
    InFlight,
    /// The id was never admitted, was already cancelled, or its job
    /// already settled (completed/failed). Nothing to do.
    Unknown,
}

impl<J> std::fmt::Debug for CancelOutcome<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelOutcome::Removed(e) => {
                f.debug_struct("Removed").field("id", &e.id).finish_non_exhaustive()
            }
            CancelOutcome::InFlight => write!(f, "InFlight"),
            CancelOutcome::Unknown => write!(f, "Unknown"),
        }
    }
}

struct QueueState<J> {
    entries: VecDeque<Entry<J>>,
    /// Pops per tenant — the deficit-fairness standing.
    served: HashMap<u32, u64>,
    /// Ids popped by a dispatcher and not yet [`settled`](SubmitQueue::settle):
    /// the in-flight set [`SubmitQueue::cancel`] consults to tell
    /// [`CancelOutcome::InFlight`] from [`CancelOutcome::Unknown`].
    dispatched: HashSet<u64>,
    next_id: u64,
    closed: bool,
}

struct QueueInner<J> {
    state: Mutex<QueueState<J>>,
    /// Poppers park here while the queue is empty and open.
    nonempty: Condvar,
}

/// A bounded multi-producer admission queue with deficit-round-robin
/// tenant fairness. Cloning shares the queue; all clones see the same
/// entries, capacity and fairness state.
pub struct SubmitQueue<J> {
    inner: Arc<QueueInner<J>>,
    capacity: usize,
}

impl<J> Clone for SubmitQueue<J> {
    fn clone(&self) -> Self {
        SubmitQueue { inner: Arc::clone(&self.inner), capacity: self.capacity }
    }
}

impl<J> SubmitQueue<J> {
    /// An empty open queue holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        SubmitQueue {
            inner: Arc::new(QueueInner {
                state: Mutex::new(QueueState {
                    entries: VecDeque::with_capacity(capacity.max(1)),
                    served: HashMap::new(),
                    dispatched: HashSet::new(),
                    next_id: 1,
                    closed: false,
                }),
                nonempty: Condvar::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<J>> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently queued (admitted, not yet popped or cancelled).
    pub fn depth(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` after [`close`](Self::close).
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Admit a job, or refuse immediately — never blocks. On success the
    /// returned id cancels the entry while it is still queued.
    pub fn try_push(&self, job: J, tag: QueueTag) -> Result<u64, PushRefused<J>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushRefused { job, reason: RefusalReason::Closed });
        }
        if st.entries.len() >= self.capacity {
            return Err(PushRefused {
                job,
                reason: RefusalReason::Full { capacity: self.capacity },
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.entries.push_back(Entry { job, tag, id, enqueued: Instant::now() });
        drop(st);
        self.inner.nonempty.notify_one();
        Ok(id)
    }

    /// Cancel an admitted entry by id, reporting what happened as a
    /// structured [`CancelOutcome`]:
    ///
    /// * still queued → [`Removed`](CancelOutcome::Removed), the entry
    ///   will never dispatch and is handed back;
    /// * popped by a dispatcher but not yet [`settle`](Self::settle)d →
    ///   [`InFlight`](CancelOutcome::InFlight), the caller must cancel
    ///   cooperatively (the queue no longer owns the job);
    /// * anything else (never existed, double cancel, already settled) →
    ///   [`Unknown`](CancelOutcome::Unknown).
    pub fn cancel(&self, id: u64) -> CancelOutcome<J> {
        let mut st = self.lock();
        if let Some(idx) = st.entries.iter().position(|e| e.id == id) {
            match st.entries.remove(idx) {
                Some(e) => CancelOutcome::Removed(e),
                None => CancelOutcome::Unknown,
            }
        } else if st.dispatched.contains(&id) {
            CancelOutcome::InFlight
        } else {
            CancelOutcome::Unknown
        }
    }

    /// Mark a previously popped entry as settled: its job completed (in
    /// any way — result delivered, failed, cancelled in flight), so a
    /// later [`cancel`](Self::cancel) of the id reports
    /// [`Unknown`](CancelOutcome::Unknown) rather than
    /// [`InFlight`](CancelOutcome::InFlight). Dispatchers call this once
    /// per popped entry after completing its ticket. Returns whether the
    /// id was in the in-flight set.
    pub fn settle(&self, id: u64) -> bool {
        self.lock().dispatched.remove(&id)
    }

    /// The index of the entry the fairness policy dispatches next — the
    /// selection documented at module level — or `None` on empty.
    fn pick(st: &QueueState<J>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in st.entries.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let cur = &st.entries[b];
                    let served_e = st.served.get(&e.tag.tenant).copied().unwrap_or(0);
                    let served_c = st.served.get(&cur.tag.tenant).copied().unwrap_or(0);
                    // tenant deficit asc, deadline asc (None last),
                    // admission order asc
                    (served_e, e.tag.deadline.is_none(), e.tag.deadline, e.id)
                        < (served_c, cur.tag.deadline.is_none(), cur.tag.deadline, cur.id)
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// Pop up to `max` entries into `out` (cleared first) without
    /// blocking, honouring the fairness policy. Returns how many.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Entry<J>>) -> usize {
        out.clear();
        let mut st = self.lock();
        while out.len() < max {
            let Some(i) = Self::pick(&st) else { break };
            let Some(entry) = st.entries.remove(i) else { break };
            *st.served.entry(entry.tag.tenant).or_insert(0) += 1;
            st.dispatched.insert(entry.id);
            out.push(entry);
        }
        out.len()
    }

    /// Block until at least one entry is available, then pop up to `max`
    /// into `out` (cleared first) under the fairness policy. Returns
    /// `false` — with `out` empty — only when the queue is closed *and*
    /// fully drained: the dispatcher's exit condition.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Entry<J>>) -> bool {
        out.clear();
        let mut st = self.lock();
        while st.entries.is_empty() {
            if st.closed {
                return false;
            }
            st = self.inner.nonempty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        while out.len() < max {
            let Some(i) = Self::pick(&st) else { break };
            let Some(entry) = st.entries.remove(i) else { break };
            *st.served.entry(entry.tag.tenant).or_insert(0) += 1;
            st.dispatched.insert(entry.id);
            out.push(entry);
        }
        true
    }

    /// Remove every queued entry into `out` (cleared first), bypassing
    /// fairness — the shutdown/poison drain.
    pub fn drain(&self, out: &mut Vec<Entry<J>>) {
        out.clear();
        let mut st = self.lock();
        while let Some(e) = st.entries.pop_front() {
            out.push(e);
        }
    }

    /// Refuse all future pushes and wake every parked popper. Queued
    /// entries stay poppable until drained.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.inner.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_roundtrip_and_loss() {
        let (w, t) = ticket::<u32>();
        w.complete(7);
        assert_eq!(t.wait(), Ok(7));

        let (w, t) = ticket::<u32>();
        drop(w);
        assert_eq!(t.wait(), Err(TicketLost), "dropped writer must not hang the waiter");
    }

    #[test]
    fn ticket_wait_crosses_threads() {
        let (w, t) = ticket::<String>();
        let h = std::thread::spawn(move || t.wait());
        std::thread::sleep(Duration::from_millis(5));
        w.complete("done".to_string());
        assert_eq!(h.join().unwrap(), Ok("done".to_string()));
    }

    #[test]
    fn ticket_wait_timeout_returns_the_ticket() {
        let (w, t) = ticket::<u32>();
        let t = match t.wait_timeout(Duration::from_millis(5)) {
            Err(pending) => pending,
            Ok(v) => panic!("nothing was delivered yet: {v:?}"),
        };
        w.complete(3);
        assert_eq!(t.wait(), Ok(3));
    }

    #[test]
    fn push_respects_capacity_and_returns_the_job() {
        let q = SubmitQueue::new(2);
        assert!(q.try_push(10, QueueTag::default()).is_ok());
        assert!(q.try_push(11, QueueTag::default()).is_ok());
        let refused = q.try_push(12, QueueTag::default()).unwrap_err();
        assert_eq!(refused.job, 12, "the job comes back on refusal");
        assert_eq!(refused.reason, RefusalReason::Full { capacity: 2 });
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_refuses_and_drains() {
        let q = SubmitQueue::new(4);
        q.try_push(1, QueueTag::default()).unwrap();
        q.close();
        let refused = q.try_push(2, QueueTag::default()).unwrap_err();
        assert_eq!(refused.reason, RefusalReason::Closed);
        let mut out = Vec::new();
        assert!(q.pop_batch(8, &mut out), "queued entries survive close until drained");
        assert_eq!(out.len(), 1);
        assert!(!q.pop_batch(8, &mut out), "closed + empty ends the dispatcher loop");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn cancel_reports_removed_in_flight_and_unknown() {
        let q = SubmitQueue::new(4);
        let id = q.try_push(5, QueueTag::default()).unwrap();
        match q.cancel(id) {
            CancelOutcome::Removed(e) => assert_eq!(e.job, 5, "queued entry handed back"),
            other => panic!("expected Removed, got {other:?}"),
        }
        assert_eq!(q.depth(), 0);
        assert!(
            matches!(q.cancel(id), CancelOutcome::Unknown),
            "double cancel is Unknown"
        );
        assert!(
            matches!(q.cancel(9999), CancelOutcome::Unknown),
            "a never-admitted id is Unknown"
        );

        let id2 = q.try_push(6, QueueTag::default()).unwrap();
        let mut out = Vec::new();
        q.try_pop_batch(1, &mut out);
        assert!(
            matches!(q.cancel(id2), CancelOutcome::InFlight),
            "a popped, unsettled entry is InFlight — not a silent no-op"
        );
        assert!(q.settle(id2), "settle removes the id from the in-flight set");
        assert!(
            matches!(q.cancel(id2), CancelOutcome::Unknown),
            "after settle the id is Unknown"
        );
        assert!(!q.settle(id2), "double settle reports the id was gone");
    }

    #[test]
    fn blocking_pop_also_marks_entries_in_flight() {
        let q = SubmitQueue::new(4);
        let id = q.try_push(7, QueueTag::default()).unwrap();
        let mut out = Vec::new();
        assert!(q.pop_batch(1, &mut out));
        assert!(matches!(q.cancel(id), CancelOutcome::InFlight));
        q.settle(id);
    }

    #[test]
    fn wait_timeout_zero_never_blocks() {
        let (w, t) = ticket::<u32>();
        let start = Instant::now();
        let t = match t.wait_timeout(Duration::ZERO) {
            Err(pending) => pending,
            Ok(v) => panic!("nothing was delivered yet: {v:?}"),
        };
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "a zero timeout must return without blocking"
        );
        w.complete(1);
        assert_eq!(t.wait(), Ok(1), "the handed-back ticket still works");
    }

    #[test]
    fn wait_timeout_huge_duration_does_not_panic() {
        // Duration::MAX overflows `Instant::now() + timeout`; the wait
        // must degrade to an unbounded wait, not panic.
        let (w, t) = ticket::<u32>();
        let h = std::thread::spawn(move || t.wait_timeout(Duration::MAX));
        std::thread::sleep(Duration::from_millis(5));
        w.complete(42);
        assert_eq!(h.join().unwrap().map_err(|_| ()), Ok(Ok(42)));
    }

    #[test]
    fn wait_timeout_survives_spurious_wakeups() {
        // A notify that does not change the state is exactly what a
        // spurious wakeup looks like to the waiter: the loop must treat
        // it as a non-event and keep waiting out its budget.
        let (w, t) = ticket::<u32>();
        let inner = Arc::clone(&t.inner);
        let noise = std::thread::spawn(move || {
            for _ in 0..20 {
                inner.cv.notify_all();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let start = Instant::now();
        let t = match t.wait_timeout(Duration::from_millis(40)) {
            Err(pending) => pending,
            Ok(v) => panic!("nothing was delivered yet: {v:?}"),
        };
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "spurious wakeups must not shorten the overall timeout"
        );
        noise.join().unwrap();
        w.complete(9);
        assert_eq!(t.wait(), Ok(9));
    }

    #[test]
    fn deadline_orders_within_a_fairness_round() {
        let q = SubmitQueue::new(8);
        let now = Instant::now();
        q.try_push("late", QueueTag { deadline: Some(now + Duration::from_secs(9)), tenant: 1 })
            .unwrap();
        q.try_push("none", QueueTag { deadline: None, tenant: 2 }).unwrap();
        q.try_push("soon", QueueTag { deadline: Some(now + Duration::from_secs(1)), tenant: 3 })
            .unwrap();
        let mut out = Vec::new();
        q.try_pop_batch(3, &mut out);
        assert_eq!(out[0].job, "soon");
        assert_eq!(out[1].job, "late");
        assert_eq!(out[2].job, "none", "no deadline sorts last");
    }

    #[test]
    fn tenant_deficit_round_robin_interleaves_a_flooding_tenant() {
        let q = SubmitQueue::new(32);
        for _ in 0..10 {
            q.try_push("flood", QueueTag { tenant: 1, ..QueueTag::default() }).unwrap();
        }
        q.try_push("minor", QueueTag { tenant: 2, ..QueueTag::default() }).unwrap();
        q.try_push("minor", QueueTag { tenant: 2, ..QueueTag::default() }).unwrap();
        let mut out = Vec::new();
        q.try_pop_batch(4, &mut out);
        let minors = out.iter().filter(|e| e.job == "minor").count();
        assert_eq!(
            minors, 2,
            "both minority jobs dispatch within the first two fairness rounds: {:?}",
            out.iter().map(|e| e.job).collect::<Vec<_>>()
        );
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_on_close() {
        let q = SubmitQueue::new(4);
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            let mut out = Vec::new();
            let alive = q2.pop_batch(1, &mut out);
            (alive, out.len())
        });
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(1, QueueTag::default()).unwrap();
        assert_eq!(h.join().unwrap(), (true, 1));

        let q3 = q.clone();
        let h = std::thread::spawn(move || {
            let mut out = Vec::new();
            q3.pop_batch(1, &mut out)
        });
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(!h.join().unwrap(), "close wakes a parked popper with `false`");
    }

    #[test]
    fn drain_empties_the_queue_regardless_of_tags() {
        let q = SubmitQueue::new(8);
        for t in 0..5u32 {
            let deadline = (t % 2 == 0).then(|| Instant::now() + Duration::from_secs(u64::from(t)));
            q.try_push(t, QueueTag { tenant: t, deadline }).unwrap();
        }
        let mut out = Vec::new();
        q.drain(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(q.depth(), 0);
    }
}
