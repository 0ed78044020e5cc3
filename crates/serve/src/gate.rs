//! A counting admission gate — the backpressure primitive behind
//! `E_QUEUE_FULL`.
//!
//! At most `slots` holders run at once. Up to `cap` more wait for a slot
//! in arrival order (a ticket line); anyone past that gets `None` from
//! [`Gate::enter`] immediately and turns it into a structured
//! reject-with-retry-after, instead of stacking unbounded latency. A slot
//! is held by a [`Permit`] and released when the permit drops — including
//! on unwind, so a panicking holder cannot leak its slot.

use std::sync::{Condvar, Mutex};

struct Line {
    /// Holders currently inside the gate.
    running: usize,
    /// Tickets handed out so far; `issued - admitted` are waiting.
    issued: u64,
    /// Tickets admitted so far; the next one in is ticket `admitted`.
    admitted: u64,
}

impl Line {
    fn waiting(&self) -> usize {
        (self.issued - self.admitted) as usize
    }
}

/// `slots` concurrent holders, a FIFO line of at most `cap` waiters.
pub struct Gate {
    line: Mutex<Line>,
    turn: Condvar,
    slots: usize,
    cap: usize,
}

/// One held slot of a [`Gate`]; dropping it lets the next waiter in.
pub struct Permit<'g> {
    gate: &'g Gate,
}

impl Gate {
    pub fn new(slots: usize, cap: usize) -> Self {
        assert!(slots > 0, "a zero-slot gate admits nothing");
        Gate {
            line: Mutex::new(Line {
                running: 0,
                issued: 0,
                admitted: 0,
            }),
            turn: Condvar::new(),
            slots,
            cap,
        }
    }

    /// Take a slot, waiting in FIFO order behind earlier arrivals. Returns
    /// the permit and the waiting-line position at arrival (`0` when a
    /// slot was free). `None` — without blocking — when `cap` requests are
    /// already waiting.
    pub fn enter(&self) -> Option<(Permit<'_>, usize)> {
        let mut line = self.line.lock().unwrap();
        let ahead = line.waiting();
        let free = ahead == 0 && line.running < self.slots;
        if !free && ahead >= self.cap {
            return None;
        }
        let ticket = line.issued;
        line.issued += 1;
        while line.admitted != ticket || line.running == self.slots {
            line = self.turn.wait(line).unwrap();
        }
        line.admitted += 1;
        line.running += 1;
        // The next ticket may have checked (and gone back to sleep) before
        // this one moved up; wake it if a slot is still free.
        let next_may_fit = line.waiting() > 0 && line.running < self.slots;
        drop(line);
        if next_may_fit {
            self.turn.notify_all();
        }
        Some((Permit { gate: self }, if free { 0 } else { ahead + 1 }))
    }

    /// Requests waiting for a slot right now.
    pub fn waiting(&self) -> usize {
        self.line.lock().unwrap().waiting()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.line.lock().unwrap().running -= 1;
        self.gate.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    /// Spin until `n` requests wait in `gate`'s line.
    fn until_waiting(gate: &Gate, n: usize) {
        while gate.waiting() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn full_gate_rejects_without_blocking() {
        let gate = Gate::new(1, 1);
        let (held, pos) = gate.enter().unwrap();
        assert_eq!(pos, 0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter().map(|(_, pos)| pos));
            until_waiting(&gate, 1);
            // One holder, one waiter: the next arrival is turned away at once.
            assert!(gate.enter().is_none());
            drop(held);
            assert_eq!(waiter.join().unwrap(), Some(1));
        });
        assert_eq!(gate.enter().map(|(_, pos)| pos), Some(0));
    }

    #[test]
    fn at_most_slots_holders_run_under_contention() {
        const SLOTS: usize = 3;
        // Room in line for every thread, so no arrival is turned away.
        let gate = Gate::new(SLOTS, 8);
        let (inside, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let _permit = gate.enter().unwrap();
                        peak.fetch_max(inside.fetch_add(1, SeqCst) + 1, SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(SeqCst) <= SLOTS, "peak {}", peak.load(SeqCst));
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Gate::new(1, 8);
        let order = Mutex::new(Vec::new());
        let (held, _) = gate.enter().unwrap();
        std::thread::scope(|s| {
            for i in 0..5 {
                s.spawn(|| {
                    let (_permit, pos) = gate.enter().unwrap();
                    order.lock().unwrap().push(pos);
                });
                // Arrival order is the order the line grows in.
                until_waiting(&gate, i + 1);
            }
            drop(held);
        });
        // Each waiter records its arrival position once admitted.
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panicking_holder_releases_its_slot() {
        // No line: `enter` admits at once iff the slot is free.
        let gate = Gate::new(1, 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.enter().unwrap();
            assert!(gate.enter().is_none());
            panic!("holder fails mid-request");
        }));
        assert!(unwound.is_err());
        assert!(gate.enter().is_some());
    }
}
