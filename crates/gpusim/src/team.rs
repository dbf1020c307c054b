//! The device team behind [`MultiGpu::run_map`](crate::multi::MultiGpu::run_map):
//! persistent host workers that take whole devices from the caller's
//! cursor, and that help the owners of the devices still running with
//! pieces of their kernels once no device is left to take.
//!
//! Two primitives carry everything. A [`Loan`] lends a borrowed closure to
//! other threads for as long as one call lasts; [`share`] runs a kernel body
//! over an iterator of disjoint pieces (row windows, output blocks) on
//! whichever threads borrow it. Each piece is computed whole by one thread
//! with the arithmetic of the sequential loop, so what a kernel computes
//! does not depend on who helped (DESIGN.md, "Host threads").

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker polls for the next launch before it parks: about
/// four times what a spawn plus join cost on the 2-core ledger box (49 µs,
/// the cost this team replaces), so a launch that follows its predecessor
/// within a few host kernels finds the worker awake, and an idle machine
/// (set-up, host-side factorizations, a service between jobs) costs a
/// parked thread.
const SPIN: Duration = Duration::from_micros(200);

/// Polls between two yields of a thread that waits for a piece or a borrower.
const POLLS: u32 = 64;

/// A lock whose data stays consistent across a panic: nothing that can
/// panic runs while one of these is held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One round of waiting: a spin hint, and now and then a yield.
fn pause(polls: &mut u32) {
    *polls += 1;
    if (*polls).is_multiple_of(POLLS) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// A closure lent to other threads, its lifetime erased by [`Loan::lend`].
type Task = &'static (dyn Fn() + Sync);

/// A slot through which one thread lends a borrowed closure to others for
/// as long as a call of [`Loan::lend`] lasts.
#[derive(Default)]
pub(crate) struct Loan {
    /// Whether a task is lent: read without the lock by idle borrowers.
    open: AtomicBool,
    task: Mutex<Option<Task>>,
    /// Borrowers running the task. Raised under the `task` lock while the
    /// task is lent, lowered (release) when a borrower is done with it.
    holders: AtomicUsize,
}

impl std::fmt::Debug for Loan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loan").field("open", &self.open).finish_non_exhaustive()
    }
}

impl Loan {
    /// Lend `task` to [`Loan::borrow`] while `body` runs on this thread,
    /// then take it back: no borrow starts after `body` ends, and this
    /// call neither returns nor unwinds before every borrower has returned
    /// the task.
    pub(crate) fn lend<R>(&self, task: &(dyn Fn() + Sync), body: impl FnOnce() -> R) -> R {
        // SAFETY: the `'static` reference lives in `self.task` and in the
        // borrowers that copied it out, and nowhere else. `Reclaim` (which
        // runs when `body` returns and when it unwinds) empties the slot
        // under its lock, so no borrower copies it out afterwards, and then
        // waits for `holders` to reach zero; every borrower raised `holders`
        // under that lock before it copied the reference out, and lowers it
        // (release, paired with the acquire load) only after its last use.
        // So every use of the reference happens before this call returns,
        // inside the borrow `task` was given for.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(task) };
        *lock(&self.task) = Some(erased);
        self.open.store(true, Ordering::Release);
        let _reclaim = Reclaim(self);
        body()
    }

    /// Run the lent task, if there is one. Whether it ran.
    pub(crate) fn borrow(&self) -> bool {
        if !self.open.load(Ordering::Acquire) {
            return false;
        }
        let task = {
            let slot = lock(&self.task);
            let Some(task) = *slot else { return false };
            self.holders.fetch_add(1, Ordering::Relaxed);
            task
        };
        struct GiveBack<'a>(&'a AtomicUsize);
        impl Drop for GiveBack<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Release);
            }
        }
        let _give_back = GiveBack(&self.holders);
        task();
        true
    }
}

/// Takes a lent task back: see [`Loan::lend`].
struct Reclaim<'a>(&'a Loan);

impl Drop for Reclaim<'_> {
    fn drop(&mut self) {
        let loan = self.0;
        loan.open.store(false, Ordering::Relaxed);
        *lock(&loan.task) = None;
        let mut polls = 0;
        while loan.holders.load(Ordering::Acquire) > 0 {
            pause(&mut polls);
        }
    }
}

/// Run `work` on every piece of `pieces`, each piece whole on one thread:
/// on this thread alone when there is no `crew`, and otherwise on this
/// thread and whichever idle team members borrow the work from `crew`
/// meanwhile. Returns when every piece is done.
pub(crate) fn share<I>(crew: Option<&Loan>, pieces: I, work: impl Fn(I::Item) + Sync)
where
    I: Iterator + Send,
{
    let queue = Mutex::new(pieces);
    let drain = || loop {
        // the guard is a temporary of this statement: `work` runs unlocked
        let Some(piece) = lock(&queue).next() else { return };
        work(piece);
    };
    match crew {
        Some(crew) => crew.lend(&drain, drain),
        None => drain(),
    }
}

/// Where the dispatcher posts launches and the workers wait for them.
#[derive(Default)]
struct Board {
    /// Launches posted so far: a worker that sees it move borrows `job`.
    launches: AtomicU64,
    quit: AtomicBool,
    /// Parked workers, counted under the lock the condition variable uses.
    parked: Mutex<usize>,
    bell: Condvar,
    /// The launch in progress.
    job: Loan,
}

impl std::fmt::Debug for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Board").field("launches", &self.launches).finish_non_exhaustive()
    }
}

impl Board {
    /// The next launch after `seen`, polling for [`SPIN`] and then parked;
    /// `None` when the team is dismissed.
    fn next_launch(&self, seen: u64) -> Option<u64> {
        let posted = || {
            let n = self.launches.load(Ordering::Acquire);
            (n != seen).then_some(n)
        };
        let start = Instant::now();
        while start.elapsed() < SPIN {
            if self.quit.load(Ordering::Acquire) {
                return None;
            }
            if let Some(n) = posted() {
                return Some(n);
            }
            for _ in 0..POLLS {
                std::hint::spin_loop();
            }
        }
        let mut parked = lock(&self.parked);
        loop {
            if self.quit.load(Ordering::Acquire) {
                return None;
            }
            if let Some(n) = posted() {
                return Some(n);
            }
            *parked += 1;
            parked = self.bell.wait(parked).unwrap_or_else(PoisonError::into_inner);
            *parked -= 1;
        }
    }

    /// Post a launch (or the dismissal): wake whoever is parked.
    fn ring(&self) {
        self.launches.fetch_add(1, Ordering::Release);
        if *lock(&self.parked) > 0 {
            self.bell.notify_all();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Teams this thread has started.
    pub(crate) static STARTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Kernel tasks a participant with no device left has run a piece of.
#[cfg(test)]
pub(crate) static HELPED: AtomicUsize = AtomicUsize::new(0);

/// `workers` host threads that serve one machine's launches, and one
/// [`Loan`] per device through which the device's owner lends pieces of its
/// kernels to the participants that have no device left.
#[derive(Debug)]
pub(crate) struct Team {
    board: Arc<Board>,
    workers: Vec<JoinHandle<()>>,
    /// One per device, also held by the device (`Device::crew`).
    pub(crate) slots: Vec<Arc<Loan>>,
}

impl Team {
    /// Start `workers` threads for a machine of `devices` devices.
    pub(crate) fn start(workers: usize, devices: usize) -> Self {
        #[cfg(test)]
        STARTS.with(|n| n.set(n.get() + 1));
        let board = Arc::new(Board::default());
        let spawn = |_| {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                let mut seen = 0;
                while let Some(launch) = board.next_launch(seen) {
                    seen = launch;
                    board.job.borrow();
                }
            })
        };
        let workers = (0..workers).map(spawn).collect();
        let slots = (0..devices).map(|_| Arc::default()).collect();
        Self { board, workers, slots }
    }

    /// Worker threads.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `work` on this thread and on every worker that picks the launch
    /// up while it runs, and return once all of them are done with it. A
    /// panic on a worker resumes here, with its own payload, after that; a
    /// panic on this thread unwinds from here after that.
    pub(crate) fn launch(&self, work: &(dyn Fn() + Sync)) {
        let payload = Mutex::new(None);
        let caught = || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(work)) {
                lock(&payload).get_or_insert(p);
            }
        };
        self.board.job.lend(&caught, || {
            self.board.ring();
            work();
        });
        if let Some(p) = payload.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(p);
        }
    }

    /// Help the owners of the devices still running until `done` reaches
    /// `devices`: run a piece of whatever kernel one of them lends.
    pub(crate) fn help(&self, done: &AtomicUsize, devices: usize) {
        let mut polls = 0;
        while done.load(Ordering::Acquire) < devices {
            if self.slots.iter().any(|s| s.borrow()) {
                #[cfg(test)]
                HELPED.fetch_add(1, Ordering::Relaxed);
            } else {
                pause(&mut polls);
            }
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.board.quit.store(true, Ordering::Release);
        self.board.ring();
        for w in self.workers.drain(..) {
            // a worker catches every panic of a job, so it ends normally
            let _ = w.join();
        }
    }
}
