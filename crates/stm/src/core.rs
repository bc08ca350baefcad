//! The TL2 protocol core: a global version clock, striped versioned
//! write-locks, and transactions with lazy write buffering and commit-time
//! read validation.
//!
//! This is the classic Transactional Locking II algorithm (Dice, Shalev,
//! Shavit, DISC 2006), the canonical software counterpart to the paper's
//! hardware design:
//!
//! * every transaction samples the global clock at begin (`rv`);
//! * reads sample the address's stripe lock, load the value, and re-sample —
//!   a locked stripe or a version newer than `rv` aborts the read;
//! * writes buffer locally until commit;
//! * commit acquires the write-set's stripe locks in address order (one
//!   attempt each — contention aborts rather than deadlocks), reserves a
//!   table slot per written word, takes a fresh clock value `wv`,
//!   re-validates every read stripe against `rv`, writes the buffer back,
//!   and releases the locks stamped with `wv`.
//!
//! Where LogTM-SE is *eager* (old values to a log, conflicts detected at
//! access time via signatures and NACKs), TL2 is *lazy* (new values to a
//! buffer, conflicts detected at commit time via versions). Both histories
//! must serialize in commit order, which is exactly what the shared
//! [`ltse_mem::SerializabilityOracle`] checks — making the two
//! implementations differential tests of each other.
//!
//! # Buffers
//!
//! A [`Tx`] owns its read-stripe list, its write buffer and its commit
//! scratch (the sorted write stripes, the locks taken, the reserved table
//! slots). [`Stm::begin`] hands out a `Tx` with empty buffers, which is
//! right for one-shot callers. The executor instead keeps one `Tx` per
//! worker for its transactions and one for its single-op minis, and
//! restarts each for every attempt, ordinary or serial: the vectors keep
//! their capacity, so once they have grown to the workload's largest
//! transaction an attempt allocates nothing.
//!
//! Commit probes the shared table once per written word: the slot returned
//! by [`Table::reserve`] is the one the write-back stores into (see
//! `crate::table`).
//!
//! # Memory orderings
//!
//! Every access to the clock and the stripe words is `SeqCst` except the
//! unlock that restores or restamps a stripe at the end of a commit, which
//! is `Release`, as is the table's write-back value store. A reader's three
//! loads (stripe, value, stripe) are `SeqCst`, hence acquiring, and the
//! table's module docs give why the two `Release` stores keep the read
//! check sound. Commit-time validation needs no more. The lock CASes and
//! validation loads stay in the single `SeqCst` order, so of two committers
//! whose read and write sets cross, at least one sees the other's lock or
//! new version when it validates. A lock aborts it. A new version aborts it
//! unless the version is within its `rv`, and then its reads already saw
//! the other's writes: its stripe samples came after the other's clock
//! bump, and a reader that sees a new version synchronizes with the unlock.
//!
//! # Progress: the serial fallback
//!
//! TL2 alone can livelock under pathological contention. The executor layer
//! bounds retries: after [`StmConfig::max_retries`] consecutive aborts a
//! transaction re-runs under the global *serial token* — the write half of
//! an `RwLock` whose read half every ordinary writer commit briefly holds.
//! With the token held no other transaction can commit, so no stripe version
//! can advance and no stripe can be (or become) locked: the serial attempt
//! cannot fail, giving starvation freedom.

use std::sync::atomic::Ordering::{Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use logtm_se::{BackoffKind, ContentionPolicy};

use crate::table::{Table, TableFull};

/// Bit marking a stripe lock word as held by a committing writer. The low
/// 63 bits always carry the stripe's last committed version, locked or not,
/// so validation against `rv` works in either state.
const LOCKED: u64 = 1 << 63;

/// Tuning and test knobs for the STM runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmConfig {
    /// Number of lock stripes (rounded up to a power of two). Word numbers
    /// map to stripes by low bits, so two words collide iff they are equal
    /// modulo the stripe count — tests shrink this to force aliasing.
    pub n_stripes: usize,
    /// Capacity of the shared word table (distinct addresses).
    pub mem_slots: usize,
    /// Consecutive aborts of one transaction before it escalates to the
    /// serial fallback. `0` makes every transaction serial.
    pub max_retries: u32,
    /// Base spin count for post-abort exponential backoff.
    pub backoff_base: u64,
    /// Cap on the backoff spin count.
    pub backoff_cap: u64,
    /// Contention policy, shared vocabulary with the simulator. TL2 has no
    /// NACK matrix, so each policy translates to the STM's two real levers:
    /// the backoff family a loser waits under and the serial-escalation
    /// threshold (see the executor's `policy_levers`).
    pub contention: ContentionPolicy,
    /// Backoff family used by policies that do not force one of their own
    /// ([`ContentionPolicy::RequesterStalls`] / `Karma`).
    pub backoff_kind: BackoffKind,
    /// Pins [`ContentionPolicy::Adaptive`] to one static policy's levers —
    /// for tests that prove pinned-adaptive ≡ static. Ignored otherwise.
    pub adaptive_pin: Option<ContentionPolicy>,
    /// Watchdog: a single thread issuing more ops than this fails the run
    /// with a clean error instead of hanging a wedged workload forever.
    pub max_ops_per_thread: u64,
    /// Test-only injected bug: the first writer commit in the run silently
    /// skips its final write-back entry (the lazy-versioning analogue of the
    /// simulator's `fault_skip_one_undo`). Exists to prove the oracle
    /// detects a broken STM; never enable outside tests.
    pub fault_skip_one_writeback: bool,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            n_stripes: 1 << 14,
            mem_slots: 1 << 18,
            max_retries: 32,
            backoff_base: 32,
            backoff_cap: 1 << 14,
            contention: ContentionPolicy::RequesterStalls,
            backoff_kind: BackoffKind::RandExp,
            adaptive_pin: None,
            max_ops_per_thread: 50_000_000,
            fault_skip_one_writeback: false,
        }
    }
}

/// Why a transactional operation could not proceed. All variants except
/// [`Conflict::TableFull`] are transient: abort, back off, retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// A stripe needed by a read or commit was locked by another committer.
    Locked {
        /// Stripe index.
        stripe: usize,
    },
    /// A stripe's version advanced past the transaction's read timestamp:
    /// some other transaction committed a write the snapshot missed.
    Stale {
        /// Stripe index.
        stripe: usize,
    },
    /// The shared word table is out of slots — permanent; retrying cannot
    /// help. Surfaced as a run error by the executor.
    TableFull,
}

impl From<TableFull> for Conflict {
    fn from(_: TableFull) -> Self {
        Conflict::TableFull
    }
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conflict::Locked { stripe } => write!(f, "stripe {stripe} locked by a committer"),
            Conflict::Stale { stripe } => write!(f, "stripe {stripe} newer than read timestamp"),
            Conflict::TableFull => f.write_str("word table full"),
        }
    }
}

/// What a successful commit looked like, for stats and oracle recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The transaction's serialization timestamp: the new write version for
    /// writers, the read timestamp `rv` for read-only transactions.
    pub version: u64,
    /// Whether the transaction wrote anything.
    pub writer: bool,
    /// Whether it ran under the serial fallback token.
    pub serial: bool,
}

/// Exclusive commit permission used by the serial fallback. While any thread
/// holds one, no ordinary transaction can commit a write; transactions begun
/// with [`Stm::begin_serial`] therefore run free of conflicts.
pub struct SerialToken<'a>(#[allow(dead_code)] RwLockWriteGuard<'a, ()>);

impl std::fmt::Debug for SerialToken<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SerialToken")
    }
}

/// The shared STM state: clock, stripes, memory, and the serial-fallback
/// gate. One instance per [`crate::StmSystem`]; threads share it by
/// reference (it is `Sync` — every field is an atomic or a lock).
#[derive(Debug)]
pub struct Stm {
    cfg: StmConfig,
    /// The global version clock. Incremented by every writer commit; its
    /// value after increment is that commit's unique write version.
    clock: AtomicU64,
    /// Versioned write-locks, one per stripe (see [`LOCKED`]).
    stripes: Box<[AtomicU64]>,
    /// The shared word store.
    mem: Table,
    /// Serial-fallback gate: writer commits hold the read side across their
    /// write-back window; a starving transaction takes the write side and
    /// becomes the only thread able to commit.
    serial: RwLock<()>,
    /// One-shot trigger for [`StmConfig::fault_skip_one_writeback`].
    fault_armed: AtomicBool,
}

impl Stm {
    /// Builds the shared state for `cfg`.
    pub fn new(cfg: StmConfig) -> Self {
        let n = cfg.n_stripes.max(2).next_power_of_two();
        Stm {
            clock: AtomicU64::new(0),
            stripes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mem: Table::new(cfg.mem_slots),
            serial: RwLock::new(()),
            fault_armed: AtomicBool::new(cfg.fault_skip_one_writeback),
            cfg,
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &StmConfig {
        &self.cfg
    }

    /// Number of lock stripes (a power of two).
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe guarding `word`.
    pub fn stripe_of(&self, word: u64) -> usize {
        word as usize & (self.stripes.len() - 1)
    }

    /// Current clock value (the version the next writer commit will exceed).
    pub fn clock_now(&self) -> u64 {
        self.clock.load(SeqCst)
    }

    /// Reads a word directly, outside any transaction. Used for memory
    /// initialization, post-run inspection, and escape-action loads (which
    /// the oracle deliberately does not check).
    pub fn read_word_raw(&self, word: u64) -> u64 {
        self.mem.load(word)
    }

    /// Seeds a word before the run starts. Not thread-safe against running
    /// transactions — initialization only.
    pub fn poke_word_raw(&self, word: u64, value: u64) -> Result<(), TableFull> {
        self.mem.store(word, value)
    }

    /// Starts an ordinary (speculative) transaction.
    pub fn begin(&self) -> Tx<'_> {
        Tx::new(self, None)
    }

    /// Acquires the serial-fallback token, blocking until every in-flight
    /// writer commit drains. See the module docs for the progress argument.
    pub fn serial_token(&self) -> SerialToken<'_> {
        SerialToken(self.serial.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Starts a transaction under the serial token. The token proves no
    /// other thread can commit, so this transaction's commit cannot fail
    /// with a transient conflict. Borrowing the token (rather than a flag)
    /// makes "serial tx without the token" unrepresentable.
    pub fn begin_serial<'a>(&'a self, token: &SerialToken<'a>) -> Tx<'a> {
        Tx::new(self, Some(token))
    }

    /// Samples stripe `s` and checks it against read timestamp `rv`.
    fn stripe_ok(&self, s: usize, rv: u64) -> Result<u64, Conflict> {
        let w = self.stripes[s].load(SeqCst);
        if w & LOCKED != 0 {
            return Err(Conflict::Locked { stripe: s });
        }
        if w > rv {
            return Err(Conflict::Stale { stripe: s });
        }
        Ok(w)
    }

    /// Unlocks `locked` stripes: restoring their pre-lock versions on abort
    /// (`None`) or stamping the new write version on success. `Release`:
    /// a reader or validator that sees the new version also sees every
    /// value stored before it (see the module docs).
    fn release(&self, locked: &[(usize, u64)], new_version: Option<u64>) {
        for &(s, old) in locked {
            self.stripes[s].store(new_version.unwrap_or(old), Release);
        }
    }
}

/// A transaction and the buffers it runs in. Dropping it without
/// [`Tx::commit`] is an abort: writes were only ever buffered, so there is
/// nothing to undo.
///
/// The executor keeps one `Tx` per worker and restarts it for every
/// attempt, so the vectors below keep their capacity from one attempt to
/// the next and a steady-state attempt allocates nothing.
#[derive(Debug)]
pub struct Tx<'a> {
    stm: &'a Stm,
    /// Read timestamp: the clock at begin.
    rv: u64,
    /// Stripes sampled by reads, in read order (duplicates kept — cheap to
    /// append, and commit-time validation tolerates re-checks).
    read_stripes: Vec<usize>,
    /// Write buffer in program order; later writes to the same word
    /// supersede earlier ones.
    writes: Vec<(u64, u64)>,
    /// Begun via [`Stm::begin_serial`].
    serial: bool,
    /// Commit scratch: the write set's stripes, sorted and deduplicated.
    wstripes: Vec<usize>,
    /// Commit scratch: stripes this commit locked, with their pre-lock
    /// versions.
    locked: Vec<(usize, u64)>,
    /// Commit scratch: the table slot of each entry of `writes`.
    slots: Vec<usize>,
}

impl<'a> Tx<'a> {
    /// Begins a transaction in empty buffers, under the serial token if
    /// one is given.
    pub(crate) fn new(stm: &'a Stm, token: Option<&SerialToken<'a>>) -> Self {
        let mut tx = Tx {
            stm,
            rv: 0,
            read_stripes: Vec::new(),
            writes: Vec::new(),
            serial: false,
            wstripes: Vec::new(),
            locked: Vec::new(),
            slots: Vec::new(),
        };
        tx.restart(token);
        tx
    }

    /// Begins a fresh attempt in this transaction's buffers, discarding
    /// whatever the previous attempt read and wrote. `Some(token)` begins
    /// it under the serial token, as [`Stm::begin_serial`] does.
    pub(crate) fn restart(&mut self, token: Option<&SerialToken<'a>>) {
        // A serial transaction validates against u64::MAX — i.e. not at all.
        // Sound because the held token excludes every other committer: the
        // only versions that can advance during the transaction are those
        // its own thread publishes (escape-action minis under the same
        // token), and those the thread must be allowed to observe.
        self.serial = token.is_some();
        self.rv = if self.serial {
            u64::MAX
        } else {
            self.stm.clock.load(SeqCst)
        };
        self.read_stripes.clear();
        self.writes.clear();
    }

    /// The transaction's read timestamp.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// Number of buffered writes (not deduplicated).
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Transactional load of `word`.
    pub fn read(&mut self, word: u64) -> Result<u64, Conflict> {
        // Read-own-writes: the buffer is the newest state for this tx.
        if let Some(v) = self.peek_buffered(word) {
            return Ok(v);
        }
        let s = self.stm.stripe_of(word);
        let before = self.stm.stripe_ok(s, self.rv)?;
        let value = self.stm.mem.load(word);
        // Re-sample: if the stripe moved (locked or re-versioned) while we
        // loaded, the value may be torn relative to the snapshot. All three
        // loads are SeqCst, so they occur in program order; the table's
        // module docs give why the writer's Release stores suffice.
        let after = self.stm.stripes[s].load(SeqCst);
        if after != before {
            return Err(if after & LOCKED != 0 {
                Conflict::Locked { stripe: s }
            } else {
                Conflict::Stale { stripe: s }
            });
        }
        self.read_stripes.push(s);
        Ok(value)
    }

    /// Transactional store: buffered until commit.
    pub fn write(&mut self, word: u64, value: u64) {
        self.writes.push((word, value));
    }

    /// The transaction's own buffered value for `word`, if it wrote one.
    /// Escape-action reads use this to mimic eager hardware, where an
    /// enclosing transaction's stores are visible in place.
    pub fn peek_buffered(&self, word: u64) -> Option<u64> {
        self.writes.iter().rev().find(|&&(w, _)| w == word).map(|&(_, v)| v)
    }

    /// Attempts to commit. On `Ok` all buffered writes are globally visible,
    /// stamped with the returned version. On `Err` nothing happened (lazy
    /// versioning: there is never anything to undo) — drop the `Tx` and
    /// retry or escalate.
    pub fn commit(mut self) -> Result<CommitInfo, Conflict> {
        self.try_commit()
    }

    /// [`Tx::commit`] without giving up the buffers: the caller restarts
    /// this `Tx` for its next attempt, whatever the outcome.
    pub(crate) fn try_commit(&mut self) -> Result<CommitInfo, Conflict> {
        let stm = self.stm;
        if self.writes.is_empty() {
            // Read-only: every read already validated against rv at read
            // time, so the snapshot at rv is consistent — serialize there.
            // A serial transaction's rv is the MAX sentinel; it serializes
            // at the current clock (nothing else committed since begin, so
            // that is exactly what its reads observed).
            let version = if self.serial {
                stm.clock_now()
            } else {
                self.rv
            };
            return Ok(CommitInfo {
                version,
                writer: false,
                serial: self.serial,
            });
        }

        // Writer commits exclude the serial fallback (never the reverse:
        // a serial transaction IS the write side of this lock).
        let _commit_permit: Option<RwLockReadGuard<'_, ()>> = if self.serial {
            None
        } else {
            Some(stm.serial.read().unwrap_or_else(|e| e.into_inner()))
        };

        // Lock the write-set's stripes in ascending order (deadlock-free
        // against all other committers), one CAS attempt each.
        self.wstripes.clear();
        self.wstripes
            .extend(self.writes.iter().map(|&(w, _)| stm.stripe_of(w)));
        self.wstripes.sort_unstable();
        self.wstripes.dedup();
        self.locked.clear();
        for &s in &self.wstripes {
            let w = stm.stripes[s].load(SeqCst);
            if w & LOCKED != 0
                || stm.stripes[s]
                    .compare_exchange(w, w | LOCKED, SeqCst, SeqCst)
                    .is_err()
            {
                stm.release(&self.locked, None);
                return Err(Conflict::Locked { stripe: s });
            }
            self.locked.push((s, w));
        }

        // Reserve table slots *before* taking wv: a full table must abort
        // without publishing anything. A freshly reserved slot reads 0,
        // identical to the absent key it replaces, so readers are unaffected.
        self.slots.clear();
        for &(w, _) in &self.writes {
            match stm.mem.reserve(w) {
                Ok(slot) => self.slots.push(slot),
                Err(_) => {
                    stm.release(&self.locked, None);
                    return Err(Conflict::TableFull);
                }
            }
        }

        // Fresh write version. fetch_add returns the old value; ours is +1.
        let wv = stm.clock.fetch_add(1, SeqCst) + 1;

        // Validate the read-set: every stripe we read must still be at a
        // version ≤ rv and unlocked — except by us, where the pre-lock
        // version (still visible in the low bits) stands in.
        for &s in &self.read_stripes {
            let w = stm.stripes[s].load(SeqCst);
            let effective = if w & LOCKED != 0 {
                match self.locked.iter().find(|&&(ls, _)| ls == s) {
                    Some(&(_, old)) => old,
                    None => {
                        stm.release(&self.locked, None);
                        return Err(Conflict::Locked { stripe: s });
                    }
                }
            } else {
                w
            };
            if effective > self.rv {
                stm.release(&self.locked, None);
                return Err(Conflict::Stale { stripe: s });
            }
        }

        // Write back through the reserved slots: no second probe, and no
        // store can fail.
        let mut n = self.writes.len();
        if stm.cfg.fault_skip_one_writeback && stm.fault_armed.swap(false, SeqCst) {
            n -= 1;
        }
        for (&(_, v), &slot) in self.writes[..n].iter().zip(&self.slots) {
            stm.mem.store_at(slot, v);
        }

        // Release every locked stripe stamped with the new version.
        stm.release(&self.locked, Some(wv));
        Ok(CommitInfo {
            version: wv,
            writer: true,
            serial: self.serial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Stm {
        Stm::new(StmConfig {
            n_stripes: 16,
            mem_slots: 64,
            ..StmConfig::default()
        })
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let stm = tiny();
        let mut tx = stm.begin();
        assert_eq!(tx.read(8).unwrap(), 0, "fresh memory reads zero");
        tx.write(8, 42);
        assert_eq!(tx.read(8).unwrap(), 42, "read-own-writes");
        let info = tx.commit().unwrap();
        assert!(info.writer);
        assert_eq!(info.version, 1, "first writer gets version 1");
        assert_eq!(stm.read_word_raw(8), 42);
    }

    #[test]
    fn read_only_commit_serializes_at_rv_without_advancing_the_clock() {
        let stm = tiny();
        let mut tx = stm.begin();
        let _ = tx.read(8).unwrap();
        let info = tx.commit().unwrap();
        assert!(!info.writer);
        assert_eq!(info.version, 0);
        assert_eq!(stm.clock_now(), 0);
    }

    #[test]
    fn dropped_transaction_leaves_no_trace() {
        let stm = tiny();
        let mut tx = stm.begin();
        tx.write(8, 99);
        drop(tx);
        assert_eq!(stm.read_word_raw(8), 0);
        assert_eq!(stm.clock_now(), 0);
        // Stripes all unlocked at version 0.
        let mut tx2 = stm.begin();
        assert_eq!(tx2.read(8).unwrap(), 0);
        tx2.commit().unwrap();
    }

    #[test]
    fn stale_read_set_aborts_the_writer_at_commit() {
        let stm = tiny();
        // T1 reads word 8, then T2 commits a write to it, then T1 tries to
        // commit a write elsewhere: T1's snapshot is stale and must die.
        let mut t1 = stm.begin();
        assert_eq!(t1.read(8).unwrap(), 0);
        let mut t2 = stm.begin();
        t2.write(8, 7);
        t2.commit().unwrap();
        t1.write(9, 1);
        let err = t1.commit().unwrap_err();
        assert!(matches!(err, Conflict::Stale { .. }), "got {err:?}");
        assert_eq!(stm.read_word_raw(9), 0, "failed commit published nothing");
    }

    #[test]
    fn read_after_newer_commit_aborts_immediately() {
        let stm = tiny();
        let mut t1 = stm.begin();
        let mut t2 = stm.begin();
        t2.write(8, 7);
        t2.commit().unwrap();
        assert!(matches!(t1.read(8), Err(Conflict::Stale { .. })));
    }

    #[test]
    fn blind_writers_to_the_same_word_both_commit() {
        let stm = tiny();
        let mut t1 = stm.begin();
        let mut t2 = stm.begin();
        t1.write(8, 1);
        t2.write(8, 2);
        t1.commit().unwrap();
        // No reads → nothing to validate; versions just advance.
        let info = t2.commit().unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(stm.read_word_raw(8), 2);
    }

    #[test]
    fn serial_transaction_commits_and_releases_the_gate() {
        let stm = tiny();
        {
            let token = stm.serial_token();
            let mut tx = stm.begin_serial(&token);
            let v = tx.read(8).unwrap();
            tx.write(8, v + 5);
            let info = tx.commit().unwrap();
            assert!(info.serial && info.writer);
        }
        // Gate released: an ordinary writer can commit again.
        let mut tx = stm.begin();
        tx.write(16, 1);
        assert!(tx.commit().unwrap().writer);
    }

    #[test]
    fn table_full_at_commit_aborts_cleanly() {
        let stm = Stm::new(StmConfig {
            n_stripes: 4,
            mem_slots: 8, // exactly 8 slots
            ..StmConfig::default()
        });
        for w in 0..8u64 {
            stm.poke_word_raw(w, 1).unwrap();
        }
        let mut tx = stm.begin();
        tx.write(0, 2); // existing word: fine
        tx.write(100, 1); // new word: no slot left
        assert_eq!(tx.commit().unwrap_err(), Conflict::TableFull);
        assert_eq!(stm.read_word_raw(0), 1, "no partial write-back");
        // Stripes were released: a tx over existing words still commits.
        let mut tx = stm.begin();
        tx.write(0, 3);
        tx.commit().unwrap();
        assert_eq!(stm.read_word_raw(0), 3);
    }

    #[test]
    fn fault_flag_drops_exactly_one_writeback() {
        let stm = Stm::new(StmConfig {
            n_stripes: 16,
            mem_slots: 64,
            fault_skip_one_writeback: true,
            ..StmConfig::default()
        });
        let mut tx = stm.begin();
        tx.write(8, 1);
        tx.write(16, 2); // the last entry: this one is dropped
        tx.commit().unwrap();
        assert_eq!(stm.read_word_raw(8), 1);
        assert_eq!(stm.read_word_raw(16), 0, "injected fault ate the write");
        // One-shot: the next commit is honest.
        let mut tx = stm.begin();
        tx.write(16, 3);
        tx.commit().unwrap();
        assert_eq!(stm.read_word_raw(16), 3);
    }

    #[test]
    fn commit_conflict_on_locked_stripe_restores_old_version() {
        // Force both words onto one stripe so t2's commit finds it locked…
        // except we cannot hold a lock mid-commit from safe code here, so
        // instead check release-on-abort via the stale path: after a failed
        // commit the stripe version must be unchanged.
        let stm = tiny();
        let mut t1 = stm.begin();
        assert_eq!(t1.read(8).unwrap(), 0);
        let mut t2 = stm.begin();
        t2.write(8, 7);
        t2.commit().unwrap();
        let v_before = stm.clock_now();
        t1.write(24, 1);
        assert!(t1.commit().is_err());
        assert_eq!(stm.clock_now(), v_before + 1, "failed commit burned a tick");
        let mut t3 = stm.begin();
        assert_eq!(t3.read(24).unwrap(), 0, "stripe 24 released at old version");
        t3.commit().unwrap();
    }
}
