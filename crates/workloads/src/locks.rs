//! Spinlocks simulated through the memory system.
//!
//! The lock baseline of Figure 4 must pay real coherence costs: a contended
//! test-and-test-and-set lock ping-pongs its cache block between cores
//! exactly as the original pthread-mutex programs did. [`LockDriver`] is a
//! small resumable state machine a [`crate::CsProgram`] delegates ops to.

use logtm_se::{Op, WordAddr};
use ltse_sim::rng::Xoshiro256StarStar;

/// What the lock driver wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Issue this op and feed the result back via [`LockDriver::step`].
    Issue(Op),
    /// The lock is held by this thread; proceed into the critical section.
    Acquired,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Read-spin until the lock word looks free.
    SpinRead,
    /// Saw it free; attempt the CAS.
    TryCas,
    /// Post-CAS: check whether we won.
    CheckCas,
    /// Backoff work issued after a lost CAS.
    Backoff,
}

/// A test-and-test-and-set (TATAS) spinlock acquire/release driver.
///
/// Acquire protocol: spin with plain loads while the word is nonzero (cheap
/// shared-state spinning), CAS 0→1 when it looks free, brief randomized
/// backoff on a lost race.
///
/// ```
/// use logtm_se::{Op, WordAddr};
/// use ltse_workloads::{LockDriver, LockOutcome};
/// use ltse_sim::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::new(1);
/// let mut lock = LockDriver::new(WordAddr(100));
/// // First step wants to read the lock word:
/// let LockOutcome::Issue(Op::Read(a)) = lock.step(0, &mut rng) else { panic!() };
/// assert_eq!(a, WordAddr(100));
/// // The word is free (0) → CAS attempt:
/// let LockOutcome::Issue(Op::Cas { .. }) = lock.step(0, &mut rng) else { panic!() };
/// // CAS returned old value 0 → we won:
/// assert_eq!(lock.step(0, &mut rng), LockOutcome::Acquired);
/// assert_eq!(lock.release(), Op::Write(WordAddr(100), 0));
/// ```
#[derive(Debug, Clone)]
pub struct LockDriver {
    addr: WordAddr,
    phase: Phase,
    acquires: u64,
    spins: u64,
    /// Consecutive lost CAS races; drives exponential backoff so a
    /// thundering herd cannot convoy forever.
    losses: u32,
}

impl LockDriver {
    /// Creates a driver for the lock word at `addr`.
    pub fn new(addr: WordAddr) -> Self {
        LockDriver {
            addr,
            phase: Phase::SpinRead,
            acquires: 0,
            spins: 0,
            losses: 0,
        }
    }

    /// Resets the driver for a fresh acquire of (possibly) another lock.
    pub fn start(&mut self, addr: WordAddr) {
        self.addr = addr;
        self.phase = Phase::SpinRead;
    }

    /// Advances the acquire state machine. `last_value` is the result of
    /// the previously issued op (the loaded word or the CAS's old value);
    /// pass anything on the first call.
    #[inline(always)]
    pub fn step(&mut self, last_value: u64, rng: &mut Xoshiro256StarStar) -> LockOutcome {
        match self.phase {
            Phase::SpinRead => {
                self.phase = Phase::TryCas;
                LockOutcome::Issue(Op::Read(self.addr))
            }
            Phase::TryCas => {
                if last_value == 0 {
                    self.phase = Phase::CheckCas;
                    LockOutcome::Issue(Op::Cas {
                        addr: self.addr,
                        expected: 0,
                        new: 1,
                    })
                } else {
                    // Still held: keep read-spinning (with a tiny pause so
                    // the spin loop costs cycles like a real one).
                    self.spins += 1;
                    self.phase = Phase::TryCas;
                    LockOutcome::Issue(Op::Read(self.addr))
                }
            }
            Phase::CheckCas => {
                if last_value == 0 {
                    self.acquires += 1;
                    self.losses = 0;
                    self.phase = Phase::SpinRead; // armed for the next use
                    LockOutcome::Acquired
                } else {
                    // Lost the race; exponential randomized backoff, then
                    // spin again.
                    self.spins += 1;
                    self.losses += 1;
                    self.phase = Phase::Backoff;
                    let window = 40u64 << self.losses.min(5);
                    LockOutcome::Issue(Op::Work(rng.gen_range(10, window)))
                }
            }
            Phase::Backoff => {
                self.phase = Phase::TryCas;
                LockOutcome::Issue(Op::Read(self.addr))
            }
        }
    }

    /// The release store.
    pub fn release(&self) -> Op {
        Op::Write(self.addr, 0)
    }

    /// `(successful acquires, spin iterations)` for contention diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.acquires, self.spins)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketPhase {
    TakeTicket,
    SpinServing,
    CheckServing,
}

/// A ticket (FIFO) spinlock driver: `fetch-add` the ticket counter, then
/// spin on the now-serving word. Fair by construction — heavily contended
/// TATAS locks can starve unlucky threads; tickets cannot.
///
/// Layout: the lock occupies two words of one block — `addr` holds the
/// next-ticket counter, `addr + 1` the now-serving counter.
///
/// ```
/// use logtm_se::{Op, WordAddr};
/// use ltse_workloads::{TicketLockDriver, LockOutcome};
/// use ltse_sim::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::new(1);
/// let mut lock = TicketLockDriver::new(WordAddr(64));
/// // Take a ticket:
/// let LockOutcome::Issue(Op::FetchAdd(a, 1)) = lock.step(0, &mut rng) else { panic!() };
/// assert_eq!(a, WordAddr(64));
/// // FetchAdd returned old=0 → our ticket is 0; read now-serving:
/// let LockOutcome::Issue(Op::Read(s)) = lock.step(0, &mut rng) else { panic!() };
/// assert_eq!(s, WordAddr(65));
/// // Now-serving reads 0 == our ticket → acquired:
/// assert_eq!(lock.step(0, &mut rng), LockOutcome::Acquired);
/// // Release bumps now-serving:
/// assert_eq!(lock.release(), Op::Write(WordAddr(65), 1));
/// ```
#[derive(Debug, Clone)]
pub struct TicketLockDriver {
    next: WordAddr,
    serving: WordAddr,
    phase: TicketPhase,
    my_ticket: u64,
    acquires: u64,
    spins: u64,
}

impl TicketLockDriver {
    /// Creates a driver for the two-word ticket lock at `addr`.
    pub fn new(addr: WordAddr) -> Self {
        TicketLockDriver {
            next: addr,
            serving: WordAddr(addr.as_u64() + 1),
            phase: TicketPhase::TakeTicket,
            my_ticket: 0,
            acquires: 0,
            spins: 0,
        }
    }

    /// Re-arms the driver for a fresh acquire of (possibly) another lock.
    pub fn start(&mut self, addr: WordAddr) {
        self.next = addr;
        self.serving = WordAddr(addr.as_u64() + 1);
        self.phase = TicketPhase::TakeTicket;
    }

    /// Advances the acquire machine; same contract as [`LockDriver::step`].
    #[inline(always)]
    pub fn step(&mut self, last_value: u64, rng: &mut Xoshiro256StarStar) -> LockOutcome {
        match self.phase {
            TicketPhase::TakeTicket => {
                self.phase = TicketPhase::SpinServing;
                LockOutcome::Issue(Op::FetchAdd(self.next, 1))
            }
            TicketPhase::SpinServing => {
                self.my_ticket = last_value; // the fetch-add's old value
                self.phase = TicketPhase::CheckServing;
                LockOutcome::Issue(Op::Read(self.serving))
            }
            TicketPhase::CheckServing => {
                if last_value == self.my_ticket {
                    self.acquires += 1;
                    self.phase = TicketPhase::TakeTicket;
                    LockOutcome::Acquired
                } else {
                    self.spins += 1;
                    // Proportional backoff: the further our ticket, the
                    // longer we can safely wait before re-reading.
                    let ahead = self.my_ticket.saturating_sub(last_value).max(1);
                    self.phase = TicketPhase::CheckServing;
                    let wait = rng.gen_range(1, ahead * 30 + 2);
                    // Re-read after the wait; modelled as one Work then the
                    // Read on the next step.
                    LockOutcome::Issue(if wait > 4 {
                        Op::Work(wait)
                    } else {
                        Op::Read(self.serving)
                    })
                }
            }
        }
    }

    /// The release store: bump now-serving to hand off FIFO.
    pub fn release(&self) -> Op {
        Op::Write(self.serving, self.my_ticket + 1)
    }

    /// `(successful acquires, spin iterations)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.acquires, self.spins)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierPhase {
    Arrive,
    CheckArrival,
    SpinSense,
    CheckSense,
}

/// A sense-reversing centralized barrier driven through the simulated
/// memory system (SPLASH programs separate their phases with exactly this
/// structure; the paper "retain[s] barriers and other synchronization
/// mechanisms" when transactifying them).
///
/// Layout: `addr` holds the arrival counter, `addr + 1` the global sense.
/// The last arriver resets the counter and flips the sense; everyone else
/// spins on the sense word (which is cache-resident while they wait).
///
/// ```
/// use logtm_se::{Op, WordAddr};
/// use ltse_workloads::{BarrierDriver, LockOutcome};
/// use ltse_sim::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::new(1);
/// let mut b = BarrierDriver::new(WordAddr(32), 2);
/// // Arrive:
/// let LockOutcome::Issue(Op::FetchAdd(a, 1)) = b.step(0, &mut rng) else { panic!() };
/// assert_eq!(a, WordAddr(32));
/// // Old count 1 == participants-1 ⇒ we are last: reset counter…
/// let LockOutcome::Issue(Op::Write(c, 0)) = b.step(1, &mut rng) else { panic!() };
/// assert_eq!(c, WordAddr(32));
/// // …flip the sense, and pass.
/// let LockOutcome::Issue(Op::Write(s, 1)) = b.step(0, &mut rng) else { panic!() };
/// assert_eq!(s, WordAddr(33));
/// assert_eq!(b.step(0, &mut rng), LockOutcome::Acquired);
/// ```
#[derive(Debug, Clone)]
pub struct BarrierDriver {
    counter: WordAddr,
    sense: WordAddr,
    participants: u64,
    my_sense: u64,
    phase: BarrierPhase,
    last_arriver_step: u8,
    crossings: u64,
}

impl BarrierDriver {
    /// Creates a barrier driver over the two words at `addr` for
    /// `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn new(addr: WordAddr, participants: u64) -> Self {
        assert!(participants > 0, "a barrier needs participants");
        BarrierDriver {
            counter: addr,
            sense: WordAddr(addr.as_u64() + 1),
            participants,
            my_sense: 1,
            phase: BarrierPhase::Arrive,
            last_arriver_step: 0,
            crossings: 0,
        }
    }

    /// Advances the barrier machine; same contract as [`LockDriver::step`].
    /// `LockOutcome::Acquired` here means "passed the barrier".
    #[inline(always)]
    pub fn step(&mut self, last_value: u64, rng: &mut Xoshiro256StarStar) -> LockOutcome {
        match self.phase {
            BarrierPhase::Arrive => {
                self.phase = BarrierPhase::CheckArrival;
                self.last_arriver_step = 0;
                LockOutcome::Issue(Op::FetchAdd(self.counter, 1))
            }
            BarrierPhase::CheckArrival => {
                // `last_value` is the fetch-add's old count on the first
                // visit; once the last-arriver sub-machine has started,
                // later results are from its own writes.
                if self.last_arriver_step > 0 || last_value + 1 == self.participants {
                    // Last arriver: reset the counter, then release by
                    // flipping the sense.
                    match self.last_arriver_step {
                        0 => {
                            self.last_arriver_step = 1;
                            LockOutcome::Issue(Op::Write(self.counter, 0))
                        }
                        1 => {
                            self.last_arriver_step = 2;
                            LockOutcome::Issue(Op::Write(self.sense, self.my_sense))
                        }
                        _ => {
                            self.pass();
                            LockOutcome::Acquired
                        }
                    }
                } else {
                    self.phase = BarrierPhase::SpinSense;
                    LockOutcome::Issue(Op::Read(self.sense))
                }
            }
            BarrierPhase::SpinSense => {
                // The read result arrives in the next step.
                self.phase = BarrierPhase::CheckSense;
                LockOutcome::Issue(Op::Read(self.sense))
            }
            BarrierPhase::CheckSense => {
                if last_value == self.my_sense {
                    self.pass();
                    LockOutcome::Acquired
                } else {
                    self.phase = BarrierPhase::CheckSense;
                    // Brief pause between spin reads.
                    LockOutcome::Issue(if rng.gen_bool(0.5) {
                        Op::Work(rng.gen_range(5, 40))
                    } else {
                        Op::Read(self.sense)
                    })
                }
            }
        }
    }

    fn pass(&mut self) {
        self.crossings += 1;
        self.my_sense = 1 - self.my_sense; // sense reversal
        self.phase = BarrierPhase::Arrive;
    }

    /// How many times this thread has crossed the barrier.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(7)
    }

    #[test]
    fn fast_path_three_steps() {
        let mut r = rng();
        let mut l = LockDriver::new(WordAddr(5));
        assert!(matches!(l.step(0, &mut r), LockOutcome::Issue(Op::Read(_))));
        assert!(matches!(
            l.step(0, &mut r),
            LockOutcome::Issue(Op::Cas { expected: 0, new: 1, .. })
        ));
        assert_eq!(l.step(0, &mut r), LockOutcome::Acquired);
        assert_eq!(l.stats().0, 1);
    }

    #[test]
    fn spins_while_held() {
        let mut r = rng();
        let mut l = LockDriver::new(WordAddr(5));
        l.step(0, &mut r); // issue read
        // Lock reads as held (1) repeatedly → keeps issuing reads.
        for _ in 0..10 {
            assert!(matches!(l.step(1, &mut r), LockOutcome::Issue(Op::Read(_))));
        }
        assert!(l.stats().1 >= 10);
        // Finally free → CAS.
        assert!(matches!(l.step(0, &mut r), LockOutcome::Issue(Op::Cas { .. })));
    }

    #[test]
    fn lost_cas_backs_off_then_respins() {
        let mut r = rng();
        let mut l = LockDriver::new(WordAddr(5));
        l.step(0, &mut r); // read issued
        l.step(0, &mut r); // free → CAS issued
        // CAS old value = 1: someone beat us.
        let out = l.step(1, &mut r);
        assert!(matches!(out, LockOutcome::Issue(Op::Work(_))));
        // After backoff: read again.
        assert!(matches!(l.step(0, &mut r), LockOutcome::Issue(Op::Read(_))));
    }

    #[test]
    fn release_writes_zero() {
        let l = LockDriver::new(WordAddr(9));
        assert_eq!(l.release(), Op::Write(WordAddr(9), 0));
    }

    #[test]
    fn ticket_fast_path() {
        let mut r = rng();
        let mut l = TicketLockDriver::new(WordAddr(8));
        assert!(matches!(l.step(0, &mut r), LockOutcome::Issue(Op::FetchAdd(_, 1))));
        assert!(matches!(l.step(3, &mut r), LockOutcome::Issue(Op::Read(_))));
        // Now serving 3 == my ticket 3 → acquired.
        assert_eq!(l.step(3, &mut r), LockOutcome::Acquired);
        assert_eq!(l.release(), Op::Write(WordAddr(9), 4));
    }

    #[test]
    fn ticket_spins_until_served() {
        let mut r = rng();
        let mut l = TicketLockDriver::new(WordAddr(8));
        l.step(0, &mut r); // fetch-add issued
        l.step(5, &mut r); // my ticket = 5; read serving issued
        // Serving 2: keep waiting (work or re-read) until serving == 5.
        for _ in 0..20 {
            match l.step(2, &mut r) {
                LockOutcome::Issue(Op::Work(_)) | LockOutcome::Issue(Op::Read(_)) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(l.step(5, &mut r), LockOutcome::Acquired);
    }

    #[test]
    fn barrier_last_arriver_releases() {
        let mut r = rng();
        let mut b = BarrierDriver::new(WordAddr(0), 3);
        b.step(0, &mut r); // fetch-add issued
        // Old count 2 → we are the 3rd of 3: reset, flip, pass.
        assert!(matches!(b.step(2, &mut r), LockOutcome::Issue(Op::Write(_, 0))));
        assert!(matches!(b.step(0, &mut r), LockOutcome::Issue(Op::Write(_, 1))));
        assert_eq!(b.step(0, &mut r), LockOutcome::Acquired);
        assert_eq!(b.crossings(), 1);
    }

    #[test]
    fn barrier_waiter_spins_until_sense_flips() {
        let mut r = rng();
        let mut b = BarrierDriver::new(WordAddr(0), 3);
        b.step(0, &mut r); // fetch-add
        // Old count 0 → waiter; spins on the sense word.
        assert!(matches!(b.step(0, &mut r), LockOutcome::Issue(Op::Read(_))));
        b.step(0, &mut r); // first read result pending
        for _ in 0..10 {
            match b.step(0, &mut r) {
                LockOutcome::Issue(Op::Read(_)) | LockOutcome::Issue(Op::Work(_)) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(b.step(1, &mut r), LockOutcome::Acquired, "sense flipped");
    }

    #[test]
    fn barrier_sense_reverses_each_crossing() {
        let mut r = rng();
        let mut b = BarrierDriver::new(WordAddr(0), 1); // solo barrier
        // Sole participant: every arrival is the last arrival.
        for expected_sense in [1u64, 0, 1] {
            b.step(0, &mut r); // fetch-add
            assert!(matches!(b.step(0, &mut r), LockOutcome::Issue(Op::Write(_, 0))));
            match b.step(0, &mut r) {
                LockOutcome::Issue(Op::Write(_, s)) => assert_eq!(s, expected_sense),
                other => panic!("{other:?}"),
            }
            assert_eq!(b.step(0, &mut r), LockOutcome::Acquired);
        }
        assert_eq!(b.crossings(), 3);
    }

    #[test]
    fn restart_targets_new_address() {
        let mut r = rng();
        let mut l = LockDriver::new(WordAddr(1));
        l.start(WordAddr(2));
        match l.step(0, &mut r) {
            LockOutcome::Issue(Op::Read(a)) => assert_eq!(a, WordAddr(2)),
            other => panic!("{other:?}"),
        }
    }
}
