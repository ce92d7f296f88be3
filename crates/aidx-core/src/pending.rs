//! The pending-update side structure for concurrent adaptive indexes.
//!
//! Section 4 of the paper extends the latch protocols from read-only
//! queries to workloads that *mutate* the indexed column: updates are
//! collected in a pending side structure and reconciled with the adaptive
//! index as queries touch the affected key ranges. [`PendingDelta`]
//! implements that side structure for the cracker family:
//!
//! * **Inserts** stay in the delta as rows, each carrying the **row id**
//!   its table assigned (tuple identity, kept through every later physical
//!   move). The cracker array is allocated once and never grows (that
//!   fixed footprint is what makes the piece-latch `unsafe` contract of
//!   [`SharedCrackerArray`](crate::SharedCrackerArray) sound), so every
//!   query folds the qualifying pending rows into its answer with an
//!   `O(log n + k)` range probe.
//! * **Deletes** are resolved against the *cracked* main structure: a
//!   delete first refines the index at the deleted key's bounds under the
//!   normal latch protocol (merge-on-crack — the delete pays for the
//!   refinement exactly like a query would), learns precisely *which*
//!   main-array rows carry the key, and marks each doomed row id as a
//!   *tombstone*. Because cracking never changes the array's multiset of
//!   (value, row id) pairs, the tombstoned set stays exact forever after —
//!   and a physical sweep removes exactly the doomed rows, never a
//!   same-valued row inserted later.
//!
//! # One row ledger
//!
//! The delta is one map `value → rows`. A row is a row id with a
//! logical lifetime and a physical place: `born` (its insert epoch, 0 for
//! a base row of the main array), `died` (its delete epoch, or alive) and
//! `in_main` (whether the main array physically holds it). Every write is
//! stamped with a monotonically increasing **column epoch**; a reader
//! that wants a frozen view registers a snapshot at the current epoch and
//! reads *as of* it.
//!
//! * **Visibility rule.** A row is visible at epoch `e` iff
//!   `born <= e < died`. A read at `e` (a live read uses the current
//!   epoch) scans the main array, hides the in-main rows not visible at
//!   `e` and adds the off-main rows visible at `e`
//!   ([`PendingDelta::adjust`] folds that into counts and sums,
//!   [`PendingDelta::pair_view`] into row ids). A pending insert is an
//!   off-main row visible now, a tombstone an in-main row hidden now.
//! * **Transitions.** A delete sets `died`. A reconciliation that places
//!   a row in the main array (incremental compaction, a full rebuild)
//!   sets `in_main`; one that removes it (a piece shrink, a full rebuild)
//!   clears it. Nothing else changes a row, and a row id has at most one
//!   row.
//! * **Keep rule.** A row stays in the ledger iff some reader still needs
//!   it: its visibility differs from `in_main` at the current epoch or at
//!   a live snapshot epoch. Pending inserts and tombstones are needed now;
//!   any other row only while a live snapshot sees it differently from
//!   the main array (deleted after the snapshot and since swept out of
//!   main, or placed in main after the snapshot). A row born and killed
//!   between two snapshot epochs is invisible to both and goes at once,
//!   so a hot key churning under a pinned snapshot keeps O(1) history,
//!   not O(writes).
//!
//! Since the main multiset changes only through epoch-guarded
//! reconciliations, a query needs one consistent view of the delta (a
//! single short mutex) plus the shrink-epoch validation to be
//! linearizable.

use aidx_latch::dcheck;
use aidx_latch::facade::{Mutex, MutexGuard};
use aidx_storage::RowId;
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Aggregate adjustments the delta contributes to one range query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaAdjust {
    /// Off-main rows visible at the read epoch with values in the range
    /// (pending inserts, and rows reconciled out of main since a snapshot).
    pub insert_count: u64,
    /// Sum of those rows' values.
    pub insert_sum: i128,
    /// Main-array rows in the range hidden at the read epoch (tombstones,
    /// and rows placed into main after a snapshot).
    pub tombstone_count: u64,
    /// Sum of those rows' values.
    pub tombstone_sum: i128,
}

/// The delta's contribution to one row range read: main-array rows to
/// hide plus delta-resident `(key, rowid)` rows to add. Produced in one
/// consistent snapshot of the delta state ([`PendingDelta::pair_view`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairView {
    /// Row ids the main-array scan must suppress: in-main rows not visible
    /// at the read epoch.
    pub hidden: HashSet<RowId>,
    /// `(key, rowid)` rows the scan must add: off-main rows visible at the
    /// read epoch. Keyed because the ledger indexes by value — no
    /// main-array probe needed.
    pub extra: Vec<(i64, RowId)>,
}

/// Sentinel for "row still alive" in [`Row::died`].
const ALIVE: u64 = u64::MAX;

/// One row of the ledger (see the module docs).
#[derive(Debug)]
struct Row {
    rowid: RowId,
    /// Insert epoch; 0 for a base row of the main array.
    born: u64,
    /// Delete epoch; [`ALIVE`] until a delete.
    died: u64,
    /// Whether the main array physically holds the row.
    in_main: bool,
}

impl Row {
    /// The visibility rule.
    fn visible(&self, epoch: u64) -> bool {
        self.born <= epoch && epoch < self.died
    }

    /// True when a read at `epoch` must correct the main-array scan for
    /// this row: hide it (in main, not visible) or add it (off main,
    /// visible).
    fn differs(&self, epoch: u64) -> bool {
        self.visible(epoch) != self.in_main
    }
}

/// Every epoch a read can ask at.
#[derive(Debug, Default)]
struct Readers {
    /// Epoch of the most recent write (0 = nothing written yet): what a
    /// live read, or a snapshot registered now, reads at.
    epoch: u64,
    /// snapshot epoch → number of live snapshot handles registered at it.
    snapshots: BTreeMap<u64, usize>,
}

impl Readers {
    /// The keep rule: some reader (the current epoch or a live snapshot)
    /// still needs `row`.
    fn need(&self, row: &Row) -> bool {
        std::iter::once(self.epoch)
            .chain(self.snapshots.keys().copied())
            .any(|epoch| row.differs(epoch))
    }
}

#[derive(Debug, Default)]
struct DeltaState {
    readers: Readers,
    /// value → the ledger rows with that value, at most one per row id,
    /// in arrival order.
    rows: BTreeMap<i64, Vec<Row>>,
    /// Pending inserted rows (off main, alive).
    pending_inserts: u64,
    /// Tombstoned rows (in main, deleted).
    tombstoned_rows: u64,
}

impl DeltaState {
    /// Runs one transition over `value`'s rows, then applies the keep
    /// rule to them.
    fn update<R>(&mut self, value: i64, transition: impl FnOnce(&mut Vec<Row>) -> R) -> R {
        let rows = self.rows.entry(value).or_default();
        let out = transition(rows);
        rows.retain(|row| self.readers.need(row));
        if rows.is_empty() {
            self.rows.remove(&value);
        }
        out
    }

    /// Applies the keep rule to every row (after a release shrinks the
    /// reader set, or a drain reconciles every value at once).
    fn gc(&mut self) {
        self.rows.retain(|_, rows| {
            rows.retain(|row| self.readers.need(row));
            !rows.is_empty()
        });
    }

    /// The delete transition at a fresh epoch: adds a base-row entry for
    /// each main row id in `main` the ledger does not hold yet, then sets
    /// `died` on every alive row of `value` that `doomed` selects. Returns
    /// `(pending rows killed, main rows tombstoned)`.
    fn delete(&mut self, value: i64, main: &[RowId], doomed: impl Fn(&Row) -> bool) -> (u64, u64) {
        self.readers.epoch += 1;
        let died = self.readers.epoch;
        let (pending, tombstoned) = self.update(value, |rows| {
            if !main.is_empty() {
                let known: HashSet<RowId> = rows.iter().map(|row| row.rowid).collect();
                let fresh = main.iter().filter(|rowid| !known.contains(rowid));
                rows.extend(fresh.map(|&rowid| Row {
                    rowid,
                    born: 0,
                    died: ALIVE,
                    in_main: true,
                }));
            }
            let (mut pending, mut tombstoned) = (0, 0);
            for row in rows.iter_mut() {
                if row.died == ALIVE && doomed(row) {
                    row.died = died;
                    if row.in_main {
                        tombstoned += 1;
                    } else {
                        pending += 1;
                    }
                }
            }
            (pending, tombstoned)
        });
        self.pending_inserts -= pending;
        self.tombstoned_rows += tombstoned;
        (pending, tombstoned)
    }

    /// The one read: visits every row of `[low, high)` a read at `at` (the
    /// current epoch for a live read) must hide or add.
    fn read(&self, low: i64, high: i64, at: Option<u64>, mut visit: impl FnMut(i64, &Row)) {
        let epoch = at.unwrap_or(self.readers.epoch);
        for (&value, rows) in self.rows.range(low..high) {
            for row in rows.iter().filter(|row| row.differs(epoch)) {
                visit(value, row);
            }
        }
    }
}

/// Everything a [`PendingDelta`] held, taken in one atomic step by a
/// compaction (see [`PendingDelta::drain`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainedDelta {
    /// Pending inserted rows as `(value, rowid)` pairs, ascending by
    /// value (insertion order within a value).
    pub inserts: Vec<(i64, RowId)>,
    /// Row ids of the tombstoned main-array rows to drop.
    pub doomed: HashSet<RowId>,
}

impl DrainedDelta {
    /// True when the drained delta held no pending work at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.doomed.is_empty()
    }
}

/// Latch-protected pending inserts and tombstones for one shared index,
/// epoch-windowed so snapshot readers can reconstruct earlier states and
/// keyed by row id so physical reorganisation never loses tuple identity.
#[derive(Debug, Default)]
pub struct PendingDelta {
    state: Mutex<DeltaState>,
    /// Lock-free mirror of `tombstoned_rows` (always updated while the
    /// state lock is held): lets the crack hot path skip the delta lock
    /// entirely when there is nothing to shrink, which is the steady state
    /// of read-only workloads. A stale read only makes a shrink
    /// opportunistic — it can never corrupt the exact counts inside.
    tombstoned_hint: AtomicU64,
    /// Process-unique id tagging the state lock in `dcheck`'s witness
    /// graph, assigned lazily on first lock (0 = unassigned, so the
    /// derived `Default` stays usable).
    instance: AtomicUsize,
}

impl PendingDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the delta state, tracked at dcheck level `Delta` (between the
    /// shrink-serial mutex and the TOC in the global latch order).
    fn lock_state(&self) -> dcheck::Tracked<MutexGuard<'_, DeltaState>> {
        let mut id = self.instance.load(Ordering::Relaxed);
        if id == 0 {
            // `instance_id` starts at 1, so 0 is a safe "unassigned" mark;
            // a lost race just burns one id.
            let fresh = dcheck::instance_id();
            id =
                match self
                    .instance
                    .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => fresh,
                    Err(winner) => winner,
                };
        }
        dcheck::Tracked::new(dcheck::Level::Delta, id, "delta-state", self.state.lock())
    }

    /// The epoch of the most recent stamped write (the epoch a snapshot
    /// registered *now* would read at).
    pub fn current_epoch(&self) -> u64 {
        self.lock_state().readers.epoch
    }

    /// Registers a snapshot at the current epoch and returns that epoch.
    /// While registered, the keep rule retains every row a read at the
    /// epoch needs, so [`PendingDelta::adjust`] and
    /// [`PendingDelta::pair_view`] at it stay answerable; every
    /// registration must be paired with a
    /// [`PendingDelta::release_snapshot`].
    pub fn register_snapshot(&self) -> u64 {
        let mut state = self.lock_state();
        let epoch = state.readers.epoch;
        *state.readers.snapshots.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases one snapshot registration at `epoch` and drops every row
    /// no remaining reader needs.
    pub fn release_snapshot(&self, epoch: u64) {
        let mut state = self.lock_state();
        match state.readers.snapshots.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                state.readers.snapshots.remove(&epoch);
            }
            None => debug_assert!(false, "released an unregistered snapshot epoch"),
        }
        state.gc();
    }

    /// Number of live snapshot registrations (diagnostics/tests).
    pub fn live_snapshots(&self) -> usize {
        self.lock_state().readers.snapshots.values().sum()
    }

    /// Retained history: rows only a live snapshot needs (pending inserts
    /// and tombstones are real state, not history). Stays O(rows changed
    /// since the oldest live snapshot that some snapshot can tell apart),
    /// no matter how hot a key churns under a pinned snapshot.
    pub fn history_len(&self) -> usize {
        let state = self.lock_state();
        let epoch = state.readers.epoch;
        state
            .rows
            .values()
            .flatten()
            .filter(|row| !row.differs(epoch))
            .count()
    }

    /// Records one pending inserted row `(value, rowid)`, returning the
    /// delta's total row count (pending inserts plus tombstones) after the
    /// insert — the caller's compaction trigger can use it without a
    /// second lock acquisition.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> u64 {
        let mut state = self.lock_state();
        state.readers.epoch += 1;
        let born = state.readers.epoch;
        state.rows.entry(value).or_default().push(Row {
            rowid,
            born,
            died: ALIVE,
            in_main: false,
        });
        state.pending_inserts += 1;
        state.pending_inserts + state.tombstoned_rows
    }

    /// Applies one delete of `value` to the delta in a single atomic step:
    /// drops every pending inserted row with the value and tombstones
    /// exactly the given main-array rows (the caller collected every live
    /// main row carrying the value under its latch protocol). Returns
    /// `(pending rows removed, main rows newly suppressed)`.
    pub fn apply_delete(&self, value: i64, main_rowids: &[RowId]) -> (u64, u64) {
        self.apply_delete_validated(value, main_rowids, || true)
            .expect("validation closure always passes")
    }

    /// As [`PendingDelta::apply_delete`], but the delete only applies if
    /// `validate` returns true *while the delta lock is held*; otherwise
    /// nothing changes and `None` is returned.
    ///
    /// This is the hook for the piece-shrinking seqlock: a physical
    /// reclamation (which moves rows between the main multiset and the
    /// delta domain) bumps the index's shrink epoch before touching the
    /// delta, so a delete whose `main_rowids` were collected against a
    /// since-reclaimed main state validates the epoch under this lock and
    /// retries instead of tombstoning stale rows.
    pub fn apply_delete_validated(
        &self,
        value: i64,
        main_rowids: &[RowId],
        validate: impl FnOnce() -> bool,
    ) -> Option<(u64, u64)> {
        let mut state = self.lock_state();
        if !validate() {
            return None;
        }
        let listed: HashSet<RowId> = main_rowids.iter().copied().collect();
        let removed = state.delete(value, main_rowids, |row| {
            !row.in_main || listed.contains(&row.rowid)
        });
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        Some(removed)
    }

    /// Deletes one specific row `(value, rowid)`: if `in_main` the row is
    /// tombstoned (unless already), otherwise the matching alive pending
    /// row is killed. Returns how many rows were removed (0 or 1), or
    /// `None` if `validate` failed under the delta lock. This is the
    /// positional delete a table engine issues against every non-driving
    /// column of a doomed tuple.
    pub fn apply_delete_row_validated(
        &self,
        value: i64,
        rowid: RowId,
        in_main: bool,
        validate: impl FnOnce() -> bool,
    ) -> Option<u64> {
        let mut state = self.lock_state();
        if !validate() {
            return None;
        }
        let main: &[RowId] = if in_main { &[rowid] } else { &[] };
        let (pending, tombstoned) = state.delete(value, main, |row| {
            row.rowid == rowid && row.in_main == in_main
        });
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        Some(pending + tombstoned)
    }

    /// Takes the delta's entire *current* contents in one atomic step,
    /// leaving it logically empty: every pending row moves into the main
    /// array and every tombstoned row out of it. Compaction calls this
    /// while holding the index's quiesce gate, folds the result into the
    /// rebuilt main array, and any insert that lands after the drain
    /// simply waits for the next compaction. Live snapshots keep the rows
    /// they still need, so pre-drain snapshots stay answerable against the
    /// rebuilt array.
    pub fn drain(&self) -> DrainedDelta {
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let epoch = state.readers.epoch;
        let mut drained = DrainedDelta::default();
        for (&value, rows) in &mut state.rows {
            for row in rows.iter_mut().filter(|row| row.differs(epoch)) {
                if row.in_main {
                    drained.doomed.insert(row.rowid);
                } else {
                    drained.inserts.push((value, row.rowid));
                }
                row.in_main = !row.in_main;
            }
        }
        state.pending_inserts = 0;
        state.tombstoned_rows = 0;
        state.gc();
        self.tombstoned_hint.store(0, Ordering::Release);
        drained
    }

    /// Snapshot of the tombstoned rows whose values fall inside a piece's
    /// key interval (`low = None` means unbounded below, `high = None`
    /// unbounded above — matching [`aidx_cracking::Piece`] bounds):
    /// `value → doomed row ids`. Used by delete-aware piece shrinking to
    /// find the exact rows a crack can physically reclaim while it already
    /// holds the piece's write latch.
    pub fn tombstone_rows_in(
        &self,
        low: Option<i64>,
        high: Option<i64>,
    ) -> BTreeMap<i64, Vec<RowId>> {
        let state = self.lock_state();
        let epoch = state.readers.epoch;
        state
            .rows
            .range(piece_range(low, high))
            .map(|(&value, rows)| {
                let doomed = rows.iter().filter(|row| row.in_main && row.differs(epoch));
                (value, doomed.map(|row| row.rowid).collect::<Vec<_>>())
            })
            .filter(|(_, doomed)| !doomed.is_empty())
            .collect()
    }

    /// Retires tombstones whose rows were physically removed from the
    /// main array: every tombstoned `(value, rowid)` pair in `removed`
    /// leaves the main array. Live snapshots that predate the delete keep
    /// the row (now off main) and still *see* it. Returns the number of
    /// rows retired.
    pub fn retire_tombstones(&self, removed: &[(i64, RowId)]) -> u64 {
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let epoch = state.readers.epoch;
        // Group per value so each value's rows are walked once: a sweep
        // that reclaims k duplicates of one hot key costs O(k), not O(k²)
        // under the delta lock.
        let mut by_value: BTreeMap<i64, HashSet<RowId>> = BTreeMap::new();
        for &(value, rowid) in removed {
            by_value.entry(value).or_default().insert(rowid);
        }
        let mut retired = 0u64;
        for (value, ids) in by_value {
            retired += state.update(value, |rows| {
                let mut hit = 0;
                for row in rows.iter_mut() {
                    if row.in_main && row.differs(epoch) && ids.contains(&row.rowid) {
                        row.in_main = false;
                        hit += 1;
                    }
                }
                hit
            });
        }
        state.tombstoned_rows -= retired;
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        retired
    }

    /// Takes up to `max_rows` currently-pending inserted rows whose values
    /// fall in the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]) into the main array, for
    /// physical placement into that piece's holes by incremental
    /// compaction. Returns the taken `(value, rowid)` pairs. Live snapshots
    /// that predate an insert keep its row (now in main) and go on hiding
    /// it.
    pub fn take_inserts_in(
        &self,
        low: Option<i64>,
        high: Option<i64>,
        max_rows: u64,
    ) -> Vec<(i64, RowId)> {
        if max_rows == 0 {
            return Vec::new();
        }
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let epoch = state.readers.epoch;
        let pending = |row: &Row| !row.in_main && row.differs(epoch);
        let values: Vec<i64> = state
            .rows
            .range(piece_range(low, high))
            .filter(|(_, rows)| rows.iter().any(pending))
            .map(|(&value, _)| value)
            .collect();
        let mut taken = Vec::new();
        for value in values {
            let budget = max_rows as usize - taken.len();
            if budget == 0 {
                break;
            }
            state.update(value, |rows| {
                for row in rows.iter_mut().filter(|row| pending(row)).take(budget) {
                    row.in_main = true;
                    taken.push((value, row.rowid));
                }
            });
        }
        state.pending_inserts -= taken.len() as u64;
        taken
    }

    /// Lock-free probe: could any tombstoned rows exist right now? A
    /// `false` may be momentarily stale against a concurrent delete (its
    /// caller treats reclamation as opportunistic); a `true` only sends
    /// the caller to the exact, locked snapshot.
    pub fn has_tombstones(&self) -> bool {
        self.tombstoned_hint.load(Ordering::Acquire) != 0
    }

    /// Every distinct value currently in the delta with its row count
    /// (pending inserts plus tombstones), ascending by value. The
    /// incremental compactor's density-driven steering groups these by
    /// piece — `O(delta)` work against the *bounded* delta, instead of
    /// `O(pieces)` probes against the unbounded piece count.
    pub fn value_counts(&self) -> Vec<(i64, u64)> {
        let state = self.lock_state();
        let epoch = state.readers.epoch;
        state
            .rows
            .iter()
            .map(|(&value, rows)| {
                let current = rows.iter().filter(|row| row.differs(epoch)).count();
                (value, current as u64)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Current delta rows (pending inserts plus tombstones) whose values
    /// fall inside the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]): how much of a piece's key
    /// interval is still unreconciled.
    pub fn rows_in(&self, low: Option<i64>, high: Option<i64>) -> u64 {
        let state = self.lock_state();
        let epoch = state.readers.epoch;
        state
            .rows
            .range(piece_range(low, high))
            .flat_map(|(_, rows)| rows)
            .filter(|row| row.differs(epoch))
            .count() as u64
    }

    /// One consistent snapshot of the delta's contribution to a count or
    /// sum over `[low, high)` — current, or *as of* snapshot epoch `at`
    /// (which must be registered): hidden main rows on the tombstone side
    /// of the returned [`DeltaAdjust`], added off-main rows on the insert
    /// side, so callers combine both kinds alike.
    pub fn adjust(&self, low: i64, high: i64, at: Option<u64>) -> DeltaAdjust {
        let mut adjust = DeltaAdjust::default();
        if low >= high {
            return adjust;
        }
        self.lock_state().read(low, high, at, |value, row| {
            if row.in_main {
                adjust.tombstone_count += 1;
                adjust.tombstone_sum += value as i128;
            } else {
                adjust.insert_count += 1;
                adjust.insert_sum += value as i128;
            }
        });
        adjust
    }

    /// The delta's contribution to a row read over `[low, high)` — current,
    /// or *as of* snapshot epoch `at` (which must be registered) — in one
    /// consistent snapshot under a single lock acquisition: main rows to
    /// hide and `(key, rowid)` rows to add.
    pub fn pair_view(&self, low: i64, high: i64, at: Option<u64>) -> PairView {
        let mut view = PairView::default();
        if low >= high {
            return view;
        }
        self.lock_state().read(low, high, at, |value, row| {
            if row.in_main {
                view.hidden.insert(row.rowid);
            } else {
                view.extra.push((value, row.rowid));
            }
        });
        view
    }

    /// One consistent snapshot of both counters — `(pending inserts,
    /// tombstoned rows)` — under a single lock acquisition, so a logical
    /// row count derived from them can never tear against a concurrent
    /// [`PendingDelta::apply_delete`] (which moves both at once).
    pub fn counters(&self) -> (u64, u64) {
        let state = self.lock_state();
        (state.pending_inserts, state.tombstoned_rows)
    }

    /// Number of rows currently pending insertion.
    pub fn pending_inserts(&self) -> u64 {
        self.counters().0
    }

    /// Number of main-array rows currently tombstoned.
    pub fn tombstoned_rows(&self) -> u64 {
        self.counters().1
    }

    /// True when the delta holds no pending work at all.
    pub fn is_empty(&self) -> bool {
        self.counters() == (0, 0)
    }

    /// Ledger self-check, valid at any time (it runs under the delta
    /// lock): the counters equal the ledger's pending and tombstoned rows,
    /// no row id has two rows, and the lock-free tombstone hint mirrors
    /// the tombstone counter.
    pub fn check_ledger_invariants(&self) -> bool {
        let state = self.lock_state();
        let epoch = state.readers.epoch;
        let mut seen = HashSet::new();
        let mut current = [0u64; 2];
        for row in state.rows.values().flatten() {
            if !seen.insert(row.rowid) {
                return false;
            }
            if row.differs(epoch) {
                current[row.in_main as usize] += 1;
            }
        }
        current == [state.pending_inserts, state.tombstoned_rows]
            && self.tombstoned_hint.load(Ordering::Acquire) == state.tombstoned_rows
    }
}

/// A piece key interval `[low, high)` (`None` = unbounded) as a map range.
fn piece_range(low: Option<i64>, high: Option<i64>) -> (Bound<i64>, Bound<i64>) {
    (
        low.map_or(Bound::Unbounded, Bound::Included),
        high.map_or(Bound::Unbounded, Bound::Excluded),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand for one pending insert.
    fn ins(delta: &PendingDelta, value: i64, rowid: RowId) {
        delta.insert_row(value, rowid);
    }

    /// A [`PairView`] with the keys of the added rows dropped.
    struct RowidView {
        hidden: HashSet<RowId>,
        extra: Vec<RowId>,
    }

    /// The delta's row-id contribution to `[low, high)` (see
    /// [`PendingDelta::pair_view`]).
    fn rowid_view(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> RowidView {
        let view = delta.pair_view(low, high, at);
        RowidView {
            hidden: view.hidden,
            extra: view.extra.into_iter().map(|(_, rowid)| rowid).collect(),
        }
    }

    #[test]
    fn fresh_delta_adjusts_nothing() {
        let delta = PendingDelta::new();
        assert!(delta.is_empty());
        assert_eq!(
            delta.adjust(i64::MIN, i64::MAX, None),
            DeltaAdjust::default()
        );
        assert_eq!(delta.pending_inserts(), 0);
        assert_eq!(delta.tombstoned_rows(), 0);
        assert_eq!(delta.current_epoch(), 0);
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn inserts_accumulate_and_range_probe_respects_bounds() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 100);
        ins(&delta, 5, 101);
        ins(&delta, 10, 102);
        assert_eq!(delta.pending_inserts(), 3);
        let a = delta.adjust(5, 6, None);
        assert_eq!(a.insert_count, 2);
        assert_eq!(a.insert_sum, 10);
        let a = delta.adjust(0, 11, None);
        assert_eq!(a.insert_count, 3);
        assert_eq!(a.insert_sum, 20);
        // Exclusive upper bound: value 10 is outside [5, 10).
        assert_eq!(delta.adjust(5, 10, None).insert_count, 2);
        // Inverted range contributes nothing.
        assert_eq!(delta.adjust(10, 5, None), DeltaAdjust::default());
        // Rowid view returns the pending rows.
        let view = rowid_view(&delta, 0, 11, None);
        assert!(view.hidden.is_empty());
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![100, 101, 102]);
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn tombstones_are_idempotent_per_row() {
        let delta = PendingDelta::new();
        assert_eq!(delta.apply_delete(7, &[1, 2, 3]), (0, 3));
        assert_eq!(
            delta.apply_delete(7, &[1, 2, 3]),
            (0, 0),
            "repeat delete suppresses 0"
        );
        assert_eq!(delta.tombstoned_rows(), 3);
        let a = delta.adjust(7, 8, None);
        assert_eq!(a.tombstone_count, 3);
        assert_eq!(a.tombstone_sum, 21);
        // The tombstoned rowids are hidden from rowid reads.
        let view = rowid_view(&delta, 0, 10, None);
        assert_eq!(view.hidden.len(), 3);
        assert!(view.hidden.contains(&2));
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn delete_reclaims_pending_inserts_and_tombstones_atomically() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 10);
        ins(&delta, 4, 11);
        assert_eq!(delta.apply_delete(4, &[0]), (2, 1));
        assert_eq!(delta.apply_delete(4, &[0]), (0, 0));
        assert!(delta.pending_inserts() == 0);
        let a = delta.adjust(0, 10, None);
        assert_eq!(a.insert_count, 0);
        assert_eq!(a.tombstone_count, 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert!(view.extra.is_empty(), "pending rows died");
        assert!(view.hidden.contains(&0));
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn targeted_row_delete_kills_exactly_one_row() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 10);
        ins(&delta, 4, 11);
        // Kill the pending row 11 only.
        assert_eq!(
            delta.apply_delete_row_validated(4, 11, false, || true),
            Some(1)
        );
        assert_eq!(delta.pending_inserts(), 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert_eq!(view.extra, vec![10]);
        // Tombstone main row 3; repeating is a no-op.
        assert_eq!(
            delta.apply_delete_row_validated(4, 3, true, || true),
            Some(1)
        );
        assert_eq!(
            delta.apply_delete_row_validated(4, 3, true, || true),
            Some(0)
        );
        assert_eq!(delta.tombstoned_rows(), 1);
        // A failed validation changes nothing.
        assert_eq!(delta.apply_delete_row_validated(4, 9, true, || false), None);
        assert_eq!(delta.tombstoned_rows(), 1);
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn drain_takes_everything_atomically() {
        let delta = PendingDelta::new();
        ins(&delta, 1, 20);
        ins(&delta, 1, 21);
        ins(&delta, 9, 22);
        delta.apply_delete(5, &[7, 8]);
        let drained = delta.drain();
        assert!(!drained.is_empty());
        assert_eq!(drained.inserts.len(), 3);
        assert_eq!(drained.doomed.len(), 2);
        assert_eq!(drained.inserts, vec![(1, 20), (1, 21), (9, 22)]);
        assert_eq!(drained.doomed, HashSet::from([7, 8]));
        assert!(delta.is_empty(), "the delta is empty after a drain");
        assert!(delta.drain().is_empty());
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn tombstone_rows_in_respects_piece_bounds() {
        let delta = PendingDelta::new();
        delta.apply_delete(5, &[50]);
        delta.apply_delete(10, &[60, 61]);
        delta.apply_delete(20, &[70, 71, 72]);
        assert_eq!(delta.tombstone_rows_in(None, None).len(), 3);
        let mid = delta.tombstone_rows_in(Some(10), Some(20));
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.get(&10), Some(&vec![60, 61]));
        assert_eq!(delta.tombstone_rows_in(Some(6), None).len(), 2);
        assert_eq!(delta.tombstone_rows_in(None, Some(10)).len(), 1);
    }

    #[test]
    fn retire_tombstones_drops_reclaimed_rows() {
        let delta = PendingDelta::new();
        delta.apply_delete(7, &[1, 2, 3]);
        delta.apply_delete(8, &[4]);
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 3), (99, 5)]), 2);
        assert_eq!(delta.tombstoned_rows(), 2);
        assert_eq!(delta.adjust(7, 8, None).tombstone_count, 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert!(view.hidden.contains(&2), "unretired tombstone still hides");
        assert!(!view.hidden.contains(&1), "retired rows are gone from main");
        // Retiring an already-retired row is a no-op.
        assert_eq!(delta.retire_tombstones(&[(7, 1)]), 0);
        assert_eq!(delta.retire_tombstones(&[(7, 2)]), 1);
        assert_eq!(delta.adjust(7, 8, None).tombstone_count, 0);
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn apply_delete_validated_refuses_on_failed_validation() {
        let delta = PendingDelta::new();
        ins(&delta, 3, 30);
        assert_eq!(delta.apply_delete_validated(3, &[0], || false), None);
        assert_eq!(delta.pending_inserts(), 1, "nothing changed");
        assert_eq!(delta.apply_delete_validated(3, &[0], || true), Some((1, 1)));
        assert_eq!(delta.pending_inserts(), 0);
    }

    #[test]
    fn insert_after_delete_of_same_value_survives() {
        let delta = PendingDelta::new();
        delta.apply_delete(9, &[5]);
        ins(&delta, 9, 90);
        let a = delta.adjust(9, 10, None);
        assert_eq!(a.insert_count, 1);
        assert_eq!(a.tombstone_count, 1);
        // The new row is visible, the doomed main row hidden.
        let view = rowid_view(&delta, 9, 10, None);
        assert_eq!(view.extra, vec![90]);
        assert!(view.hidden.contains(&5));
        assert!(delta.check_ledger_invariants());
    }

    // ----- epochs, snapshots, and the keep rule -----------------------------

    #[test]
    fn epochs_advance_with_every_write() {
        let delta = PendingDelta::new();
        assert_eq!(delta.current_epoch(), 0);
        ins(&delta, 5, 1);
        assert_eq!(delta.current_epoch(), 1);
        delta.apply_delete(5, &[]);
        assert_eq!(delta.current_epoch(), 2);
        ins(&delta, 6, 2);
        assert_eq!(delta.current_epoch(), 3);
    }

    #[test]
    fn snapshot_sees_only_writes_at_or_before_its_epoch() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let epoch = delta.register_snapshot();
        ins(&delta, 5, 2);
        ins(&delta, 7, 3);
        // Current view: three pending rows.
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
        // Snapshot view: only the pre-snapshot insert.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 1);
        assert_eq!(at.insert_sum, 5);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        assert_eq!(view.extra, vec![1], "only the pre-snapshot row");
        delta.release_snapshot(epoch);
        assert_eq!(delta.live_snapshots(), 0);
    }

    #[test]
    fn snapshot_ignores_later_deletes_of_earlier_inserts() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 1);
        ins(&delta, 4, 2);
        let epoch = delta.register_snapshot();
        delta.apply_delete(4, &[9]); // negates the pending rows + tombstones main
        assert_eq!(delta.adjust(0, 10, None).insert_count, 0);
        assert_eq!(delta.adjust(0, 10, None).tombstone_count, 1);
        // The snapshot still sees both pending rows and no tombstone.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 2);
        assert_eq!(at.tombstone_count, 0);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2]);
        assert!(!view.hidden.contains(&9), "delete is after the snapshot");
        delta.release_snapshot(epoch);
    }

    #[test]
    fn retired_tombstones_compensate_older_snapshots() {
        let delta = PendingDelta::new();
        let before = delta.register_snapshot();
        delta.apply_delete(7, &[1, 2]);
        let after = delta.register_snapshot();
        // Physically reclaim both rows (as a piece shrink would).
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 2)]), 2);
        assert_eq!(delta.tombstoned_rows(), 0);
        // The pre-delete snapshot must count the two removed rows as
        // ghosts; the post-delete snapshot must not.
        let at = delta.adjust(0, 10, Some(before));
        assert_eq!(at.insert_count, 2, "ghost rows restored");
        assert_eq!(at.insert_sum, 14);
        let view = rowid_view(&delta, 0, 10, Some(before));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2], "ghost rowids restored");
        let at = delta.adjust(0, 10, Some(after));
        assert_eq!(at.insert_count, 0);
        assert_eq!(at.tombstone_count, 0);
        assert!(rowid_view(&delta, 0, 10, Some(after)).extra.is_empty());
        delta.release_snapshot(before);
        delta.release_snapshot(after);
    }

    #[test]
    fn taken_inserts_compensate_older_snapshots() {
        let delta = PendingDelta::new();
        let before = delta.register_snapshot();
        ins(&delta, 5, 1);
        ins(&delta, 5, 2);
        ins(&delta, 9, 3);
        // Incremental compaction moves the value-5 rows into main.
        let taken = delta.take_inserts_in(Some(0), Some(6), 10);
        assert_eq!(taken, vec![(5, 1), (5, 2)]);
        assert_eq!(delta.pending_inserts(), 1);
        // Current view: one pending row (9). A pre-insert snapshot must
        // subtract the two physically placed rows it never saw.
        assert_eq!(delta.adjust(0, 10, None).insert_count, 1);
        let at = delta.adjust(0, 10, Some(before));
        assert_eq!(at.insert_count, 0);
        assert_eq!(at.tombstone_count, 2, "merged rows suppressed");
        assert_eq!(at.tombstone_sum, 10);
        // And the rowid view hides the physically placed rows.
        let view = rowid_view(&delta, 0, 10, Some(before));
        assert!(view.hidden.contains(&1));
        assert!(view.hidden.contains(&2));
        assert!(view.extra.is_empty());
        delta.release_snapshot(before);
    }

    #[test]
    fn take_inserts_respects_bounds_and_budget() {
        let delta = PendingDelta::new();
        for (i, v) in [1, 3, 3, 5, 8].into_iter().enumerate() {
            ins(&delta, v, i as RowId);
        }
        assert_eq!(
            delta.take_inserts_in(Some(2), Some(6), 2),
            vec![(3, 1), (3, 2)]
        );
        assert_eq!(delta.take_inserts_in(Some(2), Some(6), 10), vec![(5, 3)]);
        assert_eq!(delta.take_inserts_in(None, Some(2), 10), vec![(1, 0)]);
        assert_eq!(delta.take_inserts_in(Some(6), None, 0), Vec::new());
        assert_eq!(delta.pending_inserts(), 1, "8 remains");
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn drain_keeps_pre_drain_snapshots_answerable() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let epoch = delta.register_snapshot();
        ins(&delta, 5, 2);
        delta.apply_delete(7, &[9]);
        // Full compaction drains everything into the main array.
        let drained = delta.drain();
        assert_eq!(drained.inserts.len(), 2);
        assert_eq!(drained.doomed.len(), 1);
        assert!(delta.is_empty());
        // After the rebuild, main holds both 5s and no 7. The snapshot
        // (epoch between the two inserts, before the delete) must net:
        // one 5 fewer than main, one 7 more.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 1, "the ghost 7");
        assert_eq!(at.insert_sum, 7);
        assert_eq!(at.tombstone_count, 1, "the unseen second 5");
        assert_eq!(at.tombstone_sum, 5);
        // Rowid view: row 2 (placed after the snapshot) hidden, ghost 9
        // restored; row 1 is just a main row now (placed before the
        // snapshot — no entry needed).
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        assert!(view.hidden.contains(&2));
        assert!(!view.hidden.contains(&1));
        assert_eq!(view.extra, vec![9]);
        delta.release_snapshot(epoch);
    }

    #[test]
    fn history_is_collapsed_without_live_snapshots() {
        let delta = PendingDelta::new();
        for i in 0..100 {
            ins(&delta, 5, i);
        }
        assert_eq!(delta.pending_inserts(), 100);
        assert_eq!(delta.history_len(), 0, "no snapshots: no history");
        // With a snapshot live, history stays answerable; releasing GCs.
        let epoch = delta.register_snapshot();
        for i in 100..110 {
            ins(&delta, 5, i);
        }
        assert_eq!(delta.adjust(0, 10, Some(epoch)).insert_count, 100);
        delta.release_snapshot(epoch);
        assert_eq!(delta.history_len(), 0);
    }

    #[test]
    fn release_gc_respects_the_oldest_live_snapshot() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let old = delta.register_snapshot();
        ins(&delta, 5, 2);
        let young = delta.register_snapshot();
        ins(&delta, 5, 3);
        delta.release_snapshot(young);
        // The old snapshot still distinguishes write 1 from writes 2-3.
        assert_eq!(delta.adjust(0, 10, Some(old)).insert_count, 1);
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
        delta.release_snapshot(old);
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
    }

    #[test]
    fn stacked_snapshots_at_the_same_epoch_refcount() {
        let delta = PendingDelta::new();
        ins(&delta, 1, 1);
        let a = delta.register_snapshot();
        let b = delta.register_snapshot();
        assert_eq!(a, b);
        assert_eq!(delta.live_snapshots(), 2);
        delta.release_snapshot(a);
        assert_eq!(delta.live_snapshots(), 1);
        ins(&delta, 1, 2);
        assert_eq!(delta.adjust(0, 10, Some(b)).insert_count, 1);
        delta.release_snapshot(b);
        assert_eq!(delta.live_snapshots(), 0);
    }

    // ----- the keep rule bounds the ledger ----------------------------------

    #[test]
    fn hot_key_churn_under_a_live_snapshot_keeps_history_bounded() {
        // A long-lived snapshot pins epoch e; a hot key then churns
        // (insert + delete) thousands of times. Every post-snapshot row's
        // visibility window misses e, so the keep rule drops it as soon as
        // it dies — the retained history must stay O(1), not O(writes).
        let delta = PendingDelta::new();
        ins(&delta, 42, 0);
        let epoch = delta.register_snapshot();
        for i in 1..2000u32 {
            ins(&delta, 42, i);
            delta.apply_delete(42, &[]);
        }
        let history = delta.history_len();
        assert!(
            history <= 8,
            "hot-key churn must stay bounded under a live snapshot, got {history}"
        );
        // The snapshot still answers exactly: one pending row (rowid 0).
        assert_eq!(delta.adjust(0, 100, Some(epoch)).insert_count, 1);
        assert_eq!(rowid_view(&delta, 0, 100, Some(epoch)).extra, vec![0]);
        // Current view: the last churn iteration's delete killed all.
        assert_eq!(delta.adjust(0, 100, None).insert_count, 0);
        delta.release_snapshot(epoch);
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn churn_with_retirement_keeps_the_compensation_ledger_bounded() {
        // Physical-reconciliation pressure: tombstone + retire in a loop
        // while a snapshot is pinned. The removed rows are *real* state
        // here (the pinned snapshot must still see each one), so exactly
        // one off-main row per removed row may remain — and nothing more.
        let delta = PendingDelta::new();
        let epoch = delta.register_snapshot();
        for i in 0..1000u32 {
            delta.apply_delete(7, &[i]);
            assert_eq!(delta.retire_tombstones(&[(7, i)]), 1);
        }
        let history = delta.history_len();
        assert!(
            history <= 1000 + 4,
            "one row per removed row, got {history}"
        );
        // The snapshot predates every delete: the removed rows were main
        // rows at its epoch, so the off-main rows restore all 1000 to the
        // count and to the rowid read.
        assert_eq!(delta.adjust(0, 100, Some(epoch)).insert_count, 1000);
        assert_eq!(rowid_view(&delta, 0, 100, Some(epoch)).extra.len(), 1000);
        delta.release_snapshot(epoch);
        assert_eq!(delta.history_len(), 0, "release drops everything");
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn ghost_rows_visible_to_a_pinned_snapshot_survive_compression() {
        let delta = PendingDelta::new();
        let epoch = delta.register_snapshot();
        // Rows 1..=3 existed at the snapshot; delete + retire them after.
        delta.apply_delete(7, &[1, 2, 3]);
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 2), (7, 3)]), 3);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2, 3], "ghosts the snapshot must still see");
        delta.release_snapshot(epoch);
        // With the snapshot gone the ghosts are garbage.
        assert_eq!(delta.history_len(), 0);
    }
}
