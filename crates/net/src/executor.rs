//! The event executor: every rank is a stackful coroutine on one thread.
//!
//! [`run_event`] drives the ranks cooperatively: a scheduler repeatedly
//! resumes the runnable task at the top of its heap, and a task runs
//! until it blocks on a receive with no queued match, finishes, or
//! panics. Blocking receives become yield points — `Ctx::recv` parks
//! the task with its match [`Pattern`] — so a 100k-rank world costs 100k
//! small stacks instead of 100k threads. No receive has a timeout: if
//! the heap empties while a task is still parked, no message it waits
//! for can ever be sent, and the run panics as a deadlock naming every
//! parked receive.
//!
//! ## Matching: posted receives and unexpected messages
//!
//! Every send goes through one [`EventRt::deliver`]. If the destination
//! is parked on exactly the envelope's `(src, tag)`, the envelope is
//! handed to it — stored in its task slot — and the task is pushed
//! runnable; otherwise the envelope is queued in the destination's
//! [`Mailbox`] as an unexpected message, which the next receive on that
//! pair probes before it parks. Each task owns its mailbox for the
//! length of the run, so nothing needs a lock and nothing a run leaves
//! behind outlives it.
//!
//! The handoff wakes exactly the tasks that queueing every message and
//! re-probing after each delivery would wake, at the same points. A
//! parked receiver has no queued match, or it would not have parked, so
//! "the new envelope matches the parked pattern" is exactly "a match is
//! queued after delivery"; the receiver is pushed with the clock bits it
//! parked with, so heap keys, wake sequence numbers and exploration
//! preemption points depend on the program alone, not on which path a
//! message took. Per-pair FIFO holds because a handoff only happens
//! while no envelope of that pair is queued.
//!
//! ## Canonical schedule and schedule exploration
//!
//! Virtual-time results are schedule-invariant by construction (receives
//! name their sources, clock math is pure), so every legal schedule must
//! reproduce the same times, reports and bytes bit for bit. The
//! canonical mode (`ExecutorKind::Event`) fixes *one* schedule: the
//! runnable heap is ordered by `(clock bits, rank, wake-seq)`, which
//! makes execution order itself reproducible across platforms and runs.
//!
//! Exploration mode (`ExecutorKind::Explore(seed)`) runs *other* legal
//! schedules, chosen by seed, so differential suites can test the
//! invariance instead of assuming it. It changes two things:
//!
//! * **seeded pick** — the heap key is `splitmix64(seed, wake-seq)`
//!   instead of the clock bits, so any runnable task may run next;
//! * **preempt on send** — every send is a preemption point: the sender
//!   re-queues itself under a fresh seeded key and yields.
//!
//! Seeded pick alone only reorders tasks at blocking receives; a root's
//! send loop never blocks, so its receivers would always observe its
//! sends (and any shared state it changes between them) in one order.
//! Preempting on send lets a receiver run between any two sends.
//!
//! ## Resume cost
//!
//! A pass's flat collectives resume every rank in turn, and thousands
//! of parked frames do not fit in L2, so a resume would stall on its
//! task's stack lines. A prefetch ([`prefetch_next`]) keeps it from
//! stalling without changing which task runs when: while one task runs,
//! the parked frames and slot of the task at the top of the heap after
//! it are loaded.
//!
//! ## Stacks
//!
//! Task stacks are carved out of one private anonymous mapping (100k
//! separate mappings would exhaust `vm.max_map_count`), a base-page
//! [`mccio_sim::vmem::Reservation`] that commits only the pages tasks
//! touch, sized by `MCCIO_STACK_KIB` (default 128 KiB, min 64, rounded
//! up to whole 4 KiB pages). The stack tops are page-aligned and the
//! executor writes nothing but each top's seeded frame, so a task whose
//! frames stay within 4 KiB of its top commits exactly one page. On the
//! perfbench `ior-5k` workload (5,040 ranks, release) the deepest park
//! is 3.4 KiB down and 4,696 tasks commit one page; aggregators, whose
//! storage hops run deeper, commit two or three. The frames on the park
//! path are kept small for this: work that never yields (root pricing,
//! traces, fault-ladder rungs, storage hops, schedule builds) runs in
//! frames of its own that are gone before the task parks.
//!
//! Overflow has two checks, neither of which commits a page:
//!
//! * **the red zone** — at every switch out of a task, the scheduler
//!   compares the task's saved stack pointer with its stack's low end
//!   and panics, naming the rank, if it is within [`RED_ZONE`] of it,
//!   before any other task runs. The same comparison records the
//!   deepest park ([`SlabStats::deepest_park`]);
//! * **the tripwire** — a stack's low word is never written, so after
//!   the run it must still read zero; only low words on resident pages
//!   are read, so the check faults nothing in.
//!
//! The slab has no guard pages: a frame that steps over the low word
//! without writing it, and returns before the next switch, is caught by
//! neither. The default is about 4× the deepest task measured across
//! the workspace's test suite (32.7 KiB, debug). `MAP_NORESERVE` keeps
//! the slab out of the kernel's overcommit accounting: 49 GiB, what
//! 100,800 ranks at 512 KiB reserve, maps on a 16 GiB host with
//! `vm.overcommit_memory=0`, where a zeroed allocation was refused.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mccio_sim::hostprof::{self, HostPhase};
use mccio_sim::rng::splitmix64;
use mccio_sim::vmem;
use mccio_sim::VTime;

use crate::engine::{Ctx, World};
use crate::mailbox::{Envelope, Mailbox, Pattern};

/// Default per-task stack size when `MCCIO_STACK_KIB` is unset: about
/// 4× the deepest task measured (see the module docs).
const DEFAULT_STACK_KIB: usize = 128;
/// Smallest accepted stack; below this even the entry thunk is unsafe.
const MIN_STACK_KIB: usize = 64;
/// Stack sizes round up to whole pages of this many KiB, so every stack
/// top is page-aligned and a task that stays in its top page commits
/// exactly one.
const PAGE_KIB: usize = 4;
/// A task that switches out with its saved stack pointer this close to
/// its stack's low end panics: its next excursion could run off the end.
const RED_ZONE: usize = 16 * 1024;

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("mccio-net's rank executor has a context switch for x86_64 and aarch64 only");

// ---------------------------------------------------------------------
// Context switch: save callee-saved state on the current stack, store
// the stack pointer through `save`, load one from `load`, restore, ret.
// ---------------------------------------------------------------------

/// x86_64 SysV: rbp, rbx, r12-r15 are callee-saved, plus the MXCSR and
/// x87 control words. The seeded frame "returns" into `ctx_entry_thunk`.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_swap(_save: *mut usize, _load: *const usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every task. `init_stack` seeds r12 with the task-data
/// pointer and r13 with the entry function; the `sub` re-establishes the
/// 16-byte call alignment the SysV ABI requires at `call`.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_entry_thunk() {
    core::arch::naked_asm!("sub rsp, 8", "mov rdi, r12", "call r13", "ud2")
}

/// AAPCS64: x19-x28, fp (x29), lr (x30) and d8-d15 are callee-saved.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_swap(_save: *mut usize, _load: *const usize) {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// First frame of every task: x19 = task data, x20 = entry function.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_entry_thunk() {
    core::arch::naked_asm!("mov x0, x19", "blr x20", "brk #1")
}

type EntryFn = extern "C" fn(*mut u8);

/// Seeds a fresh stack so the first `ctx_swap` into it lands in
/// `ctx_entry_thunk` with `data`/`entry` in the thunk's registers.
/// Returns the initial saved stack pointer.
///
/// Layout (both arches): the words just below `top` (page-aligned, so
/// 16-byte aligned) hold the seeded callee-saved frame; everything below
/// is free stack.
///
/// # Safety
/// The `< 200` bytes below `top` must be writable stack memory that no
/// live task uses.
unsafe fn init_stack(top: usize, entry: EntryFn, data: *mut u8) -> usize {
    let mut sp = top;
    #[cfg(target_arch = "x86_64")]
    {
        // Words are pushed high-to-low, mirroring ctx_swap's restore
        // order (low-to-high: mxcsr/fcw, r15, r14, r13, r12, rbx, rbp,
        // return address). Within-bounds by construction: the frame is
        // < 200 bytes and MIN_STACK_KIB is 64.
        let push = |sp: &mut usize, word: usize| {
            *sp -= size_of::<usize>();
            unsafe { (*sp as *mut usize).write(word) };
        };
        push(&mut sp, 0); // terminator / alignment slot
        push(&mut sp, ctx_entry_thunk as *const () as usize); // return address -> thunk
        push(&mut sp, 0); // rbp
        push(&mut sp, 0); // rbx
        push(&mut sp, data as usize); // r12
        push(&mut sp, entry as usize); // r13
        push(&mut sp, 0); // r14
        push(&mut sp, 0); // r15
                          // MXCSR (0x1F80) and x87 CW (0x037F) power-on defaults, packed
                          // into one slot exactly as ctx_swap's stmxcsr/fnstcw pair lays
                          // them out.
        push(&mut sp, (0x037F_usize << 32) | 0x1F80);
    }
    #[cfg(target_arch = "aarch64")]
    {
        sp -= 160;
        let frame = sp as *mut usize;
        for i in 0..20 {
            unsafe { frame.add(i).write(0) };
        }
        unsafe {
            frame.add(0).write(data as usize); // x19
            frame.add(1).write(entry as usize); // x20
            frame.add(11).write(ctx_entry_thunk as usize); // x30 (lr)
        }
    }
    sp
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

#[derive(Debug)]
enum TaskState {
    /// Queued in the runnable heap (or about to be).
    Runnable,
    /// Currently on the CPU.
    Running,
    /// Parked on a receive of this pattern with no queued match.
    Blocked(Pattern),
    /// Was parked; a send handed it this matching envelope and pushed it
    /// runnable. The receive that parked takes it on resume.
    Handed(Envelope),
    /// Finished (result stored or panic recorded). Never resumed.
    Done,
}

#[derive(Debug)]
struct TaskSlot {
    state: TaskState,
    /// The task's virtual clock when it last yielded; the canonical
    /// heap key uses it so the smallest-clock task always runs next.
    clock_bits: u64,
    /// The task's unexpected messages: envelopes that arrived while it
    /// was not parked on their pair.
    mailbox: Mailbox,
}

/// Shared scheduler core. One per `run_event` call; tasks hold it via
/// [`TaskHandle`] inside their `Ctx`.
pub(crate) struct EventRt {
    slots: RefCell<Vec<TaskSlot>>,
    /// Min-heap of runnable tasks keyed `(key, rank, wake seq)`. The
    /// canonical key is the clock bits — non-negative f64 bit patterns
    /// order exactly like the values, and the `(rank, seq)` tie-break
    /// pins one schedule; an exploring run keys by seeded hash.
    runnable: RefCell<BinaryHeap<Reverse<(u64, usize, u64)>>>,
    /// `Some(seed)` in exploration mode: seeded heap keys and a
    /// preemption point at every send.
    explore: Option<u64>,
    /// Monotone wake-sequence counter (satellite of the heap key).
    wake_seq: Cell<u64>,
    /// Saved stack pointers: one per task plus the scheduler's own at
    /// index `n`. UnsafeCell because ctx_swap writes through raw
    /// pointers into it while Rust-level borrows are not active.
    sps: UnsafeCell<Vec<usize>>,
    /// First panic payload from any task; the scheduler stops and
    /// rethrows it on the main thread.
    panic: RefCell<Option<Box<dyn std::any::Any + Send + 'static>>>,
    n_done: Cell<usize>,
}

impl std::fmt::Debug for EventRt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRt").finish_non_exhaustive()
    }
}

/// A task's handle back into the scheduler, carried by `Ctx`.
#[derive(Debug, Clone)]
pub(crate) struct TaskHandle {
    rt: Rc<EventRt>,
    rank: usize,
}

impl EventRt {
    fn new(n: usize, explore: Option<u64>) -> Rc<EventRt> {
        Rc::new(EventRt {
            slots: RefCell::new(
                (0..n)
                    .map(|_| TaskSlot {
                        state: TaskState::Runnable,
                        clock_bits: 0,
                        mailbox: Mailbox::default(),
                    })
                    .collect(),
            ),
            runnable: RefCell::new(BinaryHeap::with_capacity(n)),
            explore,
            wake_seq: Cell::new(0),
            sps: UnsafeCell::new(vec![0; n + 1]),
            panic: RefCell::new(None),
            n_done: Cell::new(0),
        })
    }

    fn n(&self) -> usize {
        self.slots.borrow().len()
    }

    fn next_seq(&self) -> u64 {
        let s = self.wake_seq.get();
        self.wake_seq.set(s + 1);
        s
    }

    fn push_runnable(&self, rank: usize, clock_bits: u64) {
        let seq = self.next_seq();
        let key = match self.explore {
            None => clock_bits,
            Some(seed) => splitmix64(seed, seq),
        };
        self.runnable.borrow_mut().push(Reverse((key, rank, seq)));
    }

    /// Swap pointers for entering task `rank` from the scheduler, or
    /// (with the roles flipped) for leaving it.
    fn sp_ptrs(&self, save_idx: usize, load_idx: usize) -> (*mut usize, *const usize) {
        let v = self.sps.get();
        unsafe {
            let base = (*v).as_mut_ptr();
            (base.add(save_idx), base.add(load_idx) as *const usize)
        }
    }

    /// Delivers `env` to `dst`: hands it over if `dst` is parked on
    /// exactly this `(src, tag)` — pushing `dst` runnable — and queues
    /// it as an unexpected message otherwise. The one delivery path of
    /// every send.
    fn deliver(&self, dst: usize, env: Envelope) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[dst];
        if let TaskState::Blocked(pattern) = slot.state {
            if pattern.src == env.src && pattern.tag == env.tag {
                slot.state = TaskState::Handed(env);
                let clock_bits = slot.clock_bits;
                drop(slots);
                self.push_runnable(dst, clock_bits);
                return;
            }
        }
        slot.mailbox.push(env);
    }

    /// Takes the earliest queued match for `pattern`, or parks the
    /// current task on it. `None` means the task parked and the caller
    /// must yield.
    fn take_or_park(&self, rank: usize, pattern: Pattern, clock: VTime) -> Option<Envelope> {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[rank];
        if let Some(env) = slot.mailbox.take(pattern) {
            return Some(env);
        }
        slot.clock_bits = clock.as_secs().to_bits();
        slot.state = TaskState::Blocked(pattern);
        None
    }

    /// Resumes a parked receive: the envelope a send handed over.
    fn take_handoff(&self, rank: usize) -> Envelope {
        let state = &mut self.slots.borrow_mut()[rank].state;
        match std::mem::replace(state, TaskState::Running) {
            TaskState::Handed(env) => env,
            other => unreachable!("parked receive resumed in state {other:?}"),
        }
    }

    /// Blocking receive: the earliest queued match, or park until a
    /// send hands one over. All RefCell borrows are released before
    /// switching.
    fn recv(&self, rank: usize, pattern: Pattern, clock: VTime) -> Envelope {
        if let Some(env) = self.take_or_park(rank, pattern, clock) {
            return env;
        }
        self.yield_to_scheduler(rank);
        self.take_handoff(rank)
    }

    /// Asserts every task's mailbox drained — a queued leftover is a
    /// protocol bug in the caller. Run at clean shutdown.
    fn check_drained(&self) {
        for (rank, slot) in self.slots.borrow().iter().enumerate() {
            assert_eq!(
                slot.mailbox.pending(),
                0,
                "rank {rank} exited with unmatched messages queued"
            );
        }
    }

    /// Exploration mode's preemption point: re-queues the running task
    /// under a fresh seeded key and yields. A no-op on the canonical
    /// schedule.
    fn preempt(&self, rank: usize, clock: VTime) {
        if self.explore.is_none() {
            return;
        }
        let clock_bits = clock.as_secs().to_bits();
        {
            let mut slots = self.slots.borrow_mut();
            slots[rank].state = TaskState::Runnable;
            slots[rank].clock_bits = clock_bits;
        }
        self.push_runnable(rank, clock_bits);
        self.yield_to_scheduler(rank);
    }

    fn yield_to_scheduler(&self, rank: usize) {
        let n = self.n();
        let (save, load) = self.sp_ptrs(rank, n);
        unsafe { ctx_swap(save, load) };
    }

    /// Marks the current task finished and switches away forever.
    fn finish(&self, rank: usize) {
        self.slots.borrow_mut()[rank].state = TaskState::Done;
        self.n_done.set(self.n_done.get() + 1);
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut p = self.panic.borrow_mut();
        if p.is_none() {
            *p = Some(payload);
        }
    }
}

impl TaskHandle {
    /// Delivers `env` to `dst` (see [`EventRt::deliver`]).
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        self.rt.deliver(dst, env);
    }

    /// Blocking receive of the earliest message matching `pattern`.
    pub(crate) fn recv(&self, pattern: Pattern, clock: VTime) -> Envelope {
        self.rt.recv(self.rank, pattern, clock)
    }

    /// Called by senders last: yields here when exploring schedules.
    pub(crate) fn preempt(&self, clock: VTime) {
        self.rt.preempt(self.rank, clock);
    }
}

// ---------------------------------------------------------------------
// Task entry and the scheduler loop
// ---------------------------------------------------------------------

/// Everything a task needs, boxed and passed through the entry thunk as
/// a raw pointer. The raw `f`/`result` pointers outlive the task: both
/// point into `run_event`'s frame, which cannot return before every
/// task is `Done`.
struct TaskData<F, R> {
    rank: usize,
    world: Arc<World>,
    rt: Rc<EventRt>,
    f: *const F,
    result: *mut Option<R>,
}

/// Runs on the task's own stack; never returns (the final swap leaves
/// the coroutine forever).
extern "C" fn task_entry<F, R>(raw: *mut u8)
where
    F: Fn(&mut Ctx) -> R,
{
    let data: Box<TaskData<F, R>> = unsafe { Box::from_raw(raw.cast()) };
    let rank = data.rank;
    let rt = Rc::clone(&data.rt);
    {
        let handle = TaskHandle {
            rt: Rc::clone(&rt),
            rank,
        };
        let mut ctx = Ctx::for_event_task(rank, &data.world, handle);
        let f: &F = unsafe { &*data.f };
        match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(r) => unsafe { *data.result = Some(r) },
            Err(payload) => rt.record_panic(payload),
        }
    }
    drop(data);
    rt.finish(rank);
    let n = rt.n();
    let (save, load) = rt.sp_ptrs(rank, n);
    // The swap targets live in run_event's Rc; drop ours first so the
    // coroutine holds nothing when it parks for good.
    drop(rt);
    unsafe { ctx_swap(save, load) };
    unreachable!("finished task was resumed");
}

fn stack_size_bytes() -> usize {
    stack_kib(std::env::var("MCCIO_STACK_KIB").ok().as_deref()) * 1024
}

/// The task stack size in KiB for a raw `MCCIO_STACK_KIB` value: the
/// default when unset or blank, never below the minimum, rounded up to
/// whole pages.
///
/// # Panics
/// Panics naming the variable and the value when it is not a whole
/// number of KiB (`256k` or `1M` would otherwise silently fall back to
/// the default and keep overflowing).
fn stack_kib(raw: Option<&str>) -> usize {
    match raw.map(str::trim) {
        None | Some("") => DEFAULT_STACK_KIB,
        Some(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("MCCIO_STACK_KIB must be a whole number of KiB, got {v:?}"))
            .max(MIN_STACK_KIB)
            .next_multiple_of(PAGE_KIB),
    }
}

/// Stacks whose pages came from the thread's cached slab vs stacks that
/// required a fresh (zeroed, to-be-faulted) slab mapping, process
/// cumulative; the deepest any task parked; and the task resumes. See
/// [`slab_stats`].
static STACKS_REUSED: AtomicU64 = AtomicU64::new(0);
static STACKS_FRESH: AtomicU64 = AtomicU64::new(0);
static DEEPEST_PARK: AtomicU64 = AtomicU64::new(0);
static RESUMES: AtomicU64 = AtomicU64::new(0);

/// Process-cumulative slab counters; see [`slab_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Task stacks carved from a previously committed slab.
    pub reused: u64,
    /// Task stacks that came from a fresh mapping (first-touch page
    /// faults still ahead of them).
    pub fresh: u64,
    /// The deepest any task has switched out, in bytes from its stack
    /// top to its saved stack pointer: the lowest saved stack pointer,
    /// measured at every switch, over every run of the process.
    pub deepest_park: u64,
    /// Task resumes: scheduler iterations that switched into a task,
    /// over every run of the process.
    pub resumes: u64,
}

/// How many task stacks were served from a recycled slab versus freshly
/// mapped, cumulative over the process, the deepest park and the number
/// of task resumes. The event executor keeps one slab per driving thread
/// and reuses it across `World::run` calls at the same stack size
/// whenever it holds enough stacks, so repeated runs (benchmarks, test
/// suites, multi-phase jobs) stop paying the slab's first-touch page
/// faults after the first run.
#[must_use]
pub fn slab_stats() -> SlabStats {
    SlabStats {
        reused: STACKS_REUSED.load(Ordering::Relaxed),
        fresh: STACKS_FRESH.load(Ordering::Relaxed),
        deepest_park: DEEPEST_PARK.load(Ordering::Relaxed),
        resumes: RESUMES.load(Ordering::Relaxed),
    }
}

/// The addresses of the calling thread's cached stack slab, or `None`
/// before its first clean run. The mapping's `Rss` in
/// `/proc/self/smaps` is what its stacks committed.
#[must_use]
pub fn thread_slab() -> Option<Range<usize>> {
    SLAB_CACHE.with(|c| {
        c.borrow()
            .as_ref()
            .map(|s| s.map.base() as usize..s.map.base() as usize + s.map.size())
    })
}

/// Every task stack of a run, back to back in one [`vmem::Reservation`]
/// mapping: each stack commits only the pages its task touches, and the
/// executor writes nothing but each stack's seeded top frame.
struct Slab {
    map: vmem::Reservation,
    /// Bytes per stack, a whole number of pages.
    stack: usize,
}

impl Slab {
    fn map(stacks: usize, stack: usize) -> Slab {
        let len = stacks.checked_mul(stack).expect("stack slab size overflow");
        let map = vmem::Reservation::new(len, false)
            .unwrap_or_else(|e| panic!("cannot map {stacks} task stacks of {stack} bytes: {e}"));
        Slab { map, stack }
    }

    /// Whether this slab can serve `stacks` stacks of `stack` bytes.
    /// Only at the same stack size: elsewhere a stale frame of an
    /// earlier run could sit on a stack's low word.
    fn fits(&self, stacks: usize, stack: usize) -> bool {
        self.stack == stack && self.map.size() / stack >= stacks
    }

    /// The low end of `rank`'s stack; its top is one stack higher.
    fn low(&self, rank: usize) -> usize {
        self.map.base() as usize + rank * self.stack
    }

    /// The low word of `rank`'s stack. The executor never writes it, so
    /// it reads zero unless a frame ran past the stack's end. Reading an
    /// untouched page maps the kernel's shared zero page: it commits
    /// nothing, but costs a page fault.
    fn tripwire(&self, rank: usize) -> u64 {
        // SAFETY: inside the mapping, aligned, and no task is running.
        unsafe { (self.low(rank) as *const u64).read_volatile() }
    }

    /// The first of stacks `0..n` whose tripwire is not zero. A low word
    /// on a page the process holds no frame for was never written, so
    /// only low words on resident pages are read (one `mincore` per
    /// 1,024 stacks): the check faults in nothing. A page swapped out
    /// since its task wrote it would go unread; the red zone at every
    /// switch is the check that does not depend on paging.
    fn first_tripped(&self, n: usize) -> Option<usize> {
        const CHUNK: usize = 1024;
        // SAFETY: no arguments; returns the system page size.
        let page = unsafe { vmem::getpagesize() } as usize;
        let mut resident = Vec::new();
        for first in (0..n).step_by(CHUNK) {
            let ranks = first..n.min(first + CHUNK);
            let start = self.low(first) & !(page - 1);
            let len = self.low(ranks.end - 1) + 8 - start;
            resident.clear();
            resident.resize(len.div_ceil(page), 0u8);
            // SAFETY: `start` is page-aligned and `[start, start + len)`
            // lies in the mapping; `resident` holds a byte per page.
            let queried =
                unsafe { vmem::mincore(start as *mut _, len, resident.as_mut_ptr().cast()) } == 0;
            let hit = ranks.clone().find(|&rank| {
                let mapped = !queried || resident[(self.low(rank) - start) / page] & 1 != 0;
                mapped && self.tripwire(rank) != 0
            });
            if hit.is_some() {
                return hit;
            }
        }
        None
    }
}

thread_local! {
    /// The thread's cached stack slab (committed pages from the last
    /// `run_event` on this thread). Taken at entry, returned on the
    /// clean exit path; runs that panic abandon their slab because
    /// suspended sibling stacks inside it were leaked mid-frame.
    static SLAB_CACHE: RefCell<Option<Slab>> = const { RefCell::new(None) };
}

/// Runs `f` once per rank as cooperative tasks over virtual time —
/// on the canonical schedule, or on the one `explore`'s seed picks —
/// and returns the per-rank results in rank order. Panics from rank
/// code are rethrown on the calling thread (suspended sibling stacks are
/// abandoned on that path, leaking their live objects — acceptable for
/// a failing run).
pub(crate) fn run_event<F, R>(world: &Arc<World>, f: F, explore: Option<u64>) -> Vec<R>
where
    F: Fn(&mut Ctx) -> R + Send + Sync,
    R: Send,
{
    run_on_stacks(world, f, explore, stack_size_bytes())
}

/// [`run_event`] with `stack` bytes per task stack (a whole number of
/// pages, at least [`RED_ZONE`] plus the seeded frame).
fn run_on_stacks<F, R>(world: &Arc<World>, f: F, explore: Option<u64>, stack: usize) -> Vec<R>
where
    F: Fn(&mut Ctx) -> R + Send + Sync,
    R: Send,
{
    let n = world.n_ranks();
    let rt = EventRt::new(n, explore);
    // A slab that served an earlier run on this thread at this stack
    // size is reused as-is: its pages are already committed, so repeat
    // runs skip the first-touch faults. Stale bytes in it are fine:
    // `init_stack` writes every word a resumed task reads.
    let cached = SLAB_CACHE.with(|c| c.take());
    let slab = match cached {
        Some(s) if s.fits(n, stack) => {
            STACKS_REUSED.fetch_add(n as u64, Ordering::Relaxed);
            s
        }
        other => {
            drop(other);
            STACKS_FRESH.fetch_add(n as u64, Ordering::Relaxed);
            Slab::map(n, stack)
        }
    };
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();

    for (rank, result) in results.iter_mut().enumerate() {
        let data = Box::new(TaskData::<F, R> {
            rank,
            world: Arc::clone(world),
            rt: Rc::clone(&rt),
            f: &raw const f,
            result: &raw mut *result,
        });
        // SAFETY: the top of `rank`'s stack, which no task uses yet.
        let sp = unsafe {
            init_stack(
                slab.low(rank) + stack,
                task_entry::<F, R>,
                Box::into_raw(data).cast(),
            )
        };
        // No task is running yet: the exclusive reference cannot alias
        // a ctx_swap-held pointer.
        unsafe { (&mut *rt.sps.get())[rank] = sp };
        rt.push_runnable(rank, 0);
    }

    let (mut deepest, mut resumes) = (0, 0);
    loop {
        // Scheduler work (heap pop and slot bookkeeping) is
        // host-profiled per iteration; the guard drops before the switch
        // so the task's own run time is not charged.
        let sched_t = hostprof::timer(HostPhase::ExecSchedule);
        let next = rt.runnable.borrow_mut().pop();
        let Some(Reverse((_, rank, _))) = next else {
            if rt.n_done.get() == n {
                break;
            }
            // Nothing can run and some task is parked: no message it
            // waits for can ever be sent.
            deadlock_panic(&rt);
        };
        {
            let mut slots = rt.slots.borrow_mut();
            match slots[rank].state {
                TaskState::Done => continue,
                // A handed-off receiver keeps its state: the parked
                // receive reads it on resume.
                TaskState::Handed(_) => {}
                ref mut s => *s = TaskState::Running,
            }
        }
        prefetch_next(&rt, &slab);
        let (save, load) = rt.sp_ptrs(n, rank);
        drop(sched_t);
        resumes += 1;
        unsafe { ctx_swap(save, load) };
        // The task just switched out: its saved stack pointer is how
        // deep it sits. Checked before any other task runs, and without
        // loading anything from the task's stack.
        let depth = slab.low(rank) + stack - unsafe { *load };
        deepest = deepest.max(depth);
        assert!(
            depth <= stack - RED_ZONE,
            "rank {rank} switched out {depth} bytes deep in its {stack}-byte task stack, \
             inside the {RED_ZONE}-byte red zone at its low end; raise MCCIO_STACK_KIB"
        );
        if rt.panic.borrow().is_some() {
            break;
        }
    }
    DEEPEST_PARK.fetch_max(deepest as u64, Ordering::Relaxed);
    RESUMES.fetch_add(resumes, Ordering::Relaxed);
    if let Some(rank) = slab.first_tripped(n) {
        panic!("rank {rank} overflowed its {stack}-byte task stack; raise MCCIO_STACK_KIB");
    }
    if let Some(payload) = rt.panic.borrow_mut().take() {
        resume_unwind(payload);
    }
    // Clean exit: every task unwound its own stack, so the slab holds
    // nothing live and its committed pages can serve the next run.
    SLAB_CACHE.with(|c| *c.borrow_mut() = Some(slab));
    rt.check_drained();
    results
        .into_iter()
        .map(|r| r.expect("every rank produced a result"))
        .collect()
}

/// Starts loading what the task after the one about to run will touch
/// first when resumed — its parked frames, from its saved stack pointer
/// up to its stack top, and its task slot — so the loads overlap the
/// current task's run instead of stalling the next resume. A parked
/// frame was written by its task, so the range lies in committed pages
/// above the low word. If the current task wakes a task that sorts
/// earlier, the hint is only wasted.
fn prefetch_next(rt: &EventRt, slab: &Slab) {
    let Some(&Reverse((_, next, _))) = rt.runnable.borrow().peek() else {
        return;
    };
    // SAFETY: no task is running, so no ctx_swap writes the vector.
    let sp = unsafe { (&*rt.sps.get())[next] };
    prefetch(sp.max(slab.low(next))..slab.low(next) + slab.stack);
    let slot = &raw const rt.slots.borrow()[next] as usize;
    prefetch(slot..slot + size_of::<TaskSlot>());
}

/// Prefetches the cache lines of `range` into L2, where they wait
/// without displacing the running task's L1 working set: a hint that
/// neither faults nor writes memory. A no-op off x86_64.
#[inline]
fn prefetch(range: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    for line in (range.start & !63..range.end).step_by(64) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        // SAFETY: a prefetch never faults, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T1>(line as *const i8) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = range;
}

fn deadlock_panic(rt: &EventRt) -> ! {
    let slots = rt.slots.borrow();
    let blocked: Vec<String> = slots
        .iter()
        .enumerate()
        .filter_map(|(rank, s)| match &s.state {
            TaskState::Blocked(pattern) => Some(format!(
                "rank {rank} waiting on (src {}, tag {:#x})",
                pattern.src, pattern.tag
            )),
            _ => None,
        })
        .collect();
    panic!(
        "event executor deadlock: {} of {} tasks blocked with no runnable task: [{}]",
        blocked.len(),
        slots.len(),
        blocked.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;

    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    use super::*;

    const KIB: usize = 1024;

    fn world(ranks: usize) -> Arc<World> {
        let cluster = test_cluster(ranks.div_ceil(12), 12);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        World::new(CostModel::new(cluster), placement)
    }

    /// Parks at a barrier with `PAD` bytes of its own frame live, which
    /// puts the saved stack pointer at least that deep.
    #[inline(never)]
    fn park_under<const PAD: usize>(ctx: &mut Ctx) {
        let mut pad = [0u8; PAD];
        black_box(&mut pad);
        ctx.barrier();
        black_box(&pad);
    }

    /// Dirties `PAD` bytes of stack below the caller without parking.
    #[inline(never)]
    fn dirty<const PAD: usize>() {
        black_box(&mut [0xA5u8; PAD]);
    }

    #[test]
    fn stack_kib_parses_whole_kib_with_a_floor() {
        assert_eq!(stack_kib(None), DEFAULT_STACK_KIB);
        assert_eq!(stack_kib(Some(" ")), DEFAULT_STACK_KIB);
        assert_eq!(stack_kib(Some(" 2048 ")), 2048);
        assert_eq!(stack_kib(Some("8")), MIN_STACK_KIB);
        // Whole pages: every stack top stays page-aligned.
        assert_eq!(stack_kib(Some("65")), 68);
        assert_eq!(stack_kib(Some("130")), 132);
        assert_eq!(stack_kib(Some("132")), 132);
    }

    #[test]
    fn a_task_parked_in_the_red_zone_panics_naming_its_rank() {
        for explore in [None, Some(1)] {
            let err = catch_unwind(|| {
                run_on_stacks(
                    &world(4),
                    |ctx| {
                        if ctx.rank() == 2 {
                            // 52 KiB of 64: inside the 16 KiB red zone.
                            park_under::<{ 52 * 1024 }>(ctx);
                        } else {
                            ctx.barrier();
                        }
                    },
                    explore,
                    64 * KIB,
                )
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.starts_with("rank 2 switched out") && msg.contains("red zone"),
                "{explore:?}: got panic {msg:?}"
            );
        }
    }

    #[test]
    fn a_task_parked_above_the_red_zone_runs_clean() {
        for explore in [None, Some(1)] {
            run_on_stacks(&world(4), park_under::<{ 24 * 1024 }>, explore, 64 * KIB);
        }
    }

    #[test]
    fn runs_at_different_stack_sizes_on_one_thread_report_no_overflow() {
        // The 128 KiB run leaves 80 KiB of stale bytes under each stack
        // top: with a 64 KiB stride, every other stack's low word would
        // sit in them if the slab were reused across sizes.
        let deep = |_: &mut Ctx| dirty::<{ 80 * 1024 }>();
        run_on_stacks(&world(8), deep, None, 128 * KIB);
        run_on_stacks(&world(16), |ctx| ctx.barrier(), None, 64 * KIB);
        run_on_stacks(&world(8), deep, None, 128 * KIB);
        run_on_stacks(&world(4), |ctx| ctx.barrier(), None, 128 * KIB);
    }

    #[test]
    fn no_stack_low_word_is_written_by_a_1008_rank_run() {
        run_on_stacks(&world(1008), |ctx| ctx.barrier(), None, 64 * KIB);
        SLAB_CACHE.with(|c| {
            let cache = c.borrow();
            let slab = cache.as_ref().expect("a clean run caches its slab");
            assert!(slab.fits(1008, 64 * KIB));
            for rank in 0..1008 {
                assert_eq!(slab.tripwire(rank), 0, "rank {rank}'s low word");
            }
        });
    }

    #[test]
    fn stack_kib_rejects_units_naming_the_variable_and_value() {
        for bad in ["256k", "1M", "-1"] {
            let err = std::panic::catch_unwind(|| stack_kib(Some(bad))).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("MCCIO_STACK_KIB") && msg.contains(bad),
                "got panic: {msg}"
            );
        }
    }
}
