//! Rank-scaling benchmark and the deterministic regression record.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin scale -- record <out.json>
//! cargo run --release -p mccio-bench --bin scale -- regress <record.json>
//! cargo run --release -p mccio-bench --bin scale -- [full|ci|fig7|10k|100k|obs|causal] [--obs]
//! ```
//!
//! **The record.** `record` measures a fixed table and writes it as a
//! `mccio_bench::record` document; `regress` measures the same table
//! again and exits nonzero unless every field equals the recorded one
//! bit for bit. The table has no options:
//!
//! * **24 ranks** — `mccio_bench::ior_config("ci")`, both paper
//!   strategies, three passes: obs off; a buffered `ObsSink` with the
//!   host profiler on; and causal tracing under
//!   `mccio_bench::causal_plan`;
//! * **1,008 ranks** (`ci` below), memory-conscious: canonical; the
//!   first explored schedule; and a streaming sink with the profiler on;
//! * **10,080 ranks** (`10k` below), memory-conscious: canonical and
//!   streaming obs on.
//!
//! Each row holds the virtual write/read seconds, the `OpMetrics`
//! round, shuffle, storage and memory fields and the traffic scalars;
//! obs-on passes add the stream (or event) counters and every host
//! phase's *call count* but the recycler's (no producer); the causal pass
//! adds its virtual times, the blame-chain count, total hops and one
//! hash over every chain's segments. Nothing comes from the wall clock.
//! Checked live instead of recorded: obs on and off give bit-identical
//! virtual times; the explored schedule measures exactly what the
//! canonical one does; a fresh write+read plans once and builds one
//! schedule per rank; obs allocations fit the fixed 64 MiB budget
//! (printed, not recorded: they are allocation sizes chosen by std);
//! causal chains tile their ops. The 1,008-rank streamed trace is
//! rendered to `trace_obs/scale_obs_1008.html`.
//!
//! **Wall clock.** The other modes print the simulator's wall clock per
//! point on a fig7-shaped platform (testbed nodes of 12 cores, 8 OSTs,
//! Normal(320 MiB, 64 MiB) per-node memory, IOR interleaved, the
//! per-rank volume shrinking as ranks grow so the axis measures executor
//! overhead), and on stderr its allocations, the minor page faults the
//! process took during it, the process's peak resident set (`VmHWM`, a
//! running maximum: the point's own peak only for the first point of a
//! run), and the executor's task resumes per rank with the pass's host
//! wall per resume:
//!
//! * `full` (default) — 120 / 1008 / 10080 / 100800 ranks;
//! * `ci`, `fig7`, `10k`, `100k` — one of those points (the 1008- and
//!   120-rank points also run one explored schedule, whose virtual times
//!   must equal the canonical ones bit for bit);
//! * `obs` (10k and 100k) and `--obs` on any mode — the streaming-
//!   observability overhead check: one warm-up, then ABAB-interleaved
//!   obs-off/obs-on pairs, printing every pair and, at 10k ranks and
//!   up, failing unless the median host-wall overhead is under 10%;
//! * `causal` (10k) — the same check with causal tracing armed under
//!   the causal plan, plus non-degenerate cross-rank blame chains.
//!
//! The wall modes write only HTML reports under `trace_obs/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mccio_bench::record::{self, chain_hash, Record, Row, Value};
use mccio_bench::{
    causal_health, causal_plan, ior_config, paper_pair, run_with, Platform, RunResult,
};
use mccio_core::prelude::Strategy;
use mccio_net::ExecutorKind;
use mccio_obs::{analyze, report, BlameChain, ObsSink, StreamConfig};
use mccio_sim::fault::FaultPlan;
use mccio_sim::hostprof::{self, HostPhase, HostProfile};
use mccio_sim::units::{KIB, MIB};
use mccio_workloads::{data, Ior};

/// Counting wrapper around the system allocator: the obs allocation
/// budget is measured with it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    // Forward instead of inheriting the defaults: the default
    // `alloc_zeroed` is alloc + memset, which defeats lazily-zeroed
    // calloc mappings and would charge giant one-shot buffers (the
    // coroutine stack slab, the file image) with an eager fault storm
    // the real program never pays.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The process's minor page faults so far (`/proc/self/stat` field
/// 10); 0 without procfs.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, starting at field 3.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// The process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`) in MiB; 0 without procfs.
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib / 1024)
}

/// The bytes the calling thread's coroutine stack slab has committed:
/// its mapping's `Rss` in `/proc/self/smaps`, which leaves out pages
/// only read (they map the kernel's shared zero page); 0 without procfs
/// or before the thread's first run.
fn slab_committed() -> u64 {
    let Some(slab) = mccio_net::thread_slab() else {
        return 0;
    };
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
    let mut in_slab = false;
    for line in smaps.lines() {
        // A mapping's header line starts with its `start-end` range.
        let head = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = head.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                in_slab = (lo..hi).contains(&slab.start);
                continue;
            }
        }
        if let Some(kib) = line.strip_prefix("Rss:").filter(|_| in_slab) {
            return kib
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .unwrap_or(0)
                * 1024;
        }
    }
    0
}

/// Fixed budget for observability allocations in an obs-on run: the
/// streaming sink, its aggregation cells, and the exemplar lanes must
/// fit in this regardless of rank count — the bound that makes
/// 100k-rank observability feasible. Measured as the allocated-bytes
/// difference between an obs-on run and an obs-off run of one shape.
const OBS_ALLOC_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// Median host-wall overhead allowed for observability at 10k+ ranks.
const OBS_MAX_OVERHEAD: f64 = 0.10;

/// ABAB-interleaved obs-off/obs-on pairs per point: off-on, on-off,
/// off-on, so run order cancels in the median.
const OBS_PAIRS: usize = 3;

/// Exemplar rank lanes the streaming sink keeps at full fidelity.
const OBS_EXEMPLARS: u32 = 8;

/// A fig7-shaped point on the rank axis. Volume shrinks as ranks grow:
/// group analysis memory is O(ranks) per rank, and the axis measures
/// executor overhead, not aggregate bandwidth.
struct Shape {
    platform: Platform,
    workload: Ior,
    /// The memory-conscious half of the paper pair — the paper's subject.
    name: String,
    strategy: Box<dyn Strategy>,
}

impl Shape {
    fn new(ranks: usize, per_rank_kib: u64, segments: u64) -> Self {
        let platform = Platform::testbed(ranks / 12, ranks, 8).with_memory(320 * MIB, 64 * MIB);
        let workload = Ior::interleaved_total(per_rank_kib * KIB, segments);
        let [_, (name, strategy)] = paper_pair(&platform, 4 * MIB);
        Shape {
            platform,
            workload,
            name,
            strategy,
        }
    }

    fn pass(&self, executor: ExecutorKind, sink: &ObsSink, plan: Option<FaultPlan>) -> Pass {
        Pass::run(
            &self.platform,
            &self.workload,
            &*self.strategy,
            executor,
            sink,
            plan,
        )
    }
}

/// The wall-clock modes' points: `(ranks, KiB per rank, segments)`.
fn points(mode: &str) -> Vec<(usize, u64, u64)> {
    match mode {
        // The fig7 config, then three decades up it.
        "full" => vec![(120, 4096, 16), CI, TEN_K, (100_800, 16, 1)],
        "ci" => vec![CI],
        "fig7" => vec![(120, 4096, 16)],
        "10k" | "causal" => vec![TEN_K],
        "100k" => vec![(100_800, 16, 1)],
        "obs" => vec![TEN_K, (100_800, 16, 1)],
        other => {
            eprintln!(
                "scale: unknown mode {other:?} \
                 (use record|regress|full|ci|fig7|10k|100k|obs|causal)"
            );
            exit(2);
        }
    }
}

/// Stack bytes a task commits, on average, on a fresh slab at the `ci`
/// point: measured 5.07 KiB in release on x86_64 (most tasks commit
/// their stack's top page, aggregators two or three), rounded up to
/// whole pages. A frame regression that pushes the tasks that park
/// past a page boundary fails here instead of silently adding 4 KiB
/// per rank.
const CI_STACK_BYTES_PER_RANK: u64 = 8 * KIB;

/// The 1,008-rank point: the `ci` mode and the record's middle row.
const CI: (usize, u64, u64) = (1008, 256, 4);
/// The 10,080-rank point: the `10k` mode and the record's last row.
const TEN_K: (usize, u64, u64) = (10_080, 64, 2);

fn main() {
    eprintln!("scale: byte kernel build {}", data::kernel_build());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let obs_flag = args.iter().any(|a| a == "--obs");
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--obs")
        .collect();
    let path = || {
        args.get(1).map_or_else(
            || {
                eprintln!("scale {}: missing <record.json> argument", args[0]);
                exit(2);
            },
            |p| (*p).to_string(),
        )
    };
    match args.first().copied().unwrap_or("full") {
        "record" => {
            let out = path();
            let text = measure_record().render().unwrap_or_else(|e| {
                eprintln!("scale record: {e}");
                exit(1);
            });
            std::fs::write(&out, &text).expect("write record");
            eprintln!("scale: wrote {out}");
        }
        "regress" => {
            let path = path();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("scale regress: read {path}: {e}");
                exit(2);
            });
            let recorded = Record::parse(&text).unwrap_or_else(|e| {
                eprintln!("scale regress: {path}: {e}");
                exit(1);
            });
            let measured = measure_record();
            let diffs = record::compare(&recorded, &measured);
            for d in &diffs {
                eprintln!("REGRESS FAIL {d}");
            }
            if !diffs.is_empty() {
                exit(1);
            }
            println!(
                "regress: ok ({} rows, every field bit-identical to {path})",
                recorded.rows.len()
            );
        }
        mode if obs_flag || mode == "obs" || mode == "causal" => {
            run_obs(mode, mode == "causal");
        }
        mode => run_scale(mode),
    }
}

/// One run of a shape: its result, host wall, allocations, host memory
/// and — when the sink records — the host profile.
struct Pass {
    result: RunResult,
    wall: f64,
    allocs: (u64, u64),
    /// Minor page faults the process took during the pass.
    minflt: u64,
    /// The process's peak resident set after the pass: the pass's own
    /// peak on a run's first (or only) point, a running maximum after.
    peak_rss_mib: u64,
    /// Bytes the stack slab has committed after the pass; see
    /// [`slab_committed`].
    stack_committed: u64,
    /// Task resumes the executor made during the pass.
    resumes: u64,
    profile: HostProfile,
}

impl Pass {
    /// Runs `workload` on a fresh world and environment; the host
    /// profiler is on exactly while an enabled `sink` records.
    fn run(
        platform: &Platform,
        workload: &Ior,
        strategy: &dyn Strategy,
        executor: ExecutorKind,
        sink: &ObsSink,
        plan: Option<FaultPlan>,
    ) -> Pass {
        hostprof::reset();
        hostprof::set_enabled(sink.is_enabled());
        let a0 = alloc_snapshot();
        let f0 = minor_faults();
        let r0 = mccio_net::slab_stats().resumes;
        let t0 = Instant::now();
        let result = run_with(
            &platform.world(executor),
            &platform.env(sink, plan),
            workload,
            strategy,
        );
        let wall = t0.elapsed().as_secs_f64();
        let a1 = alloc_snapshot();
        let minflt = minor_faults() - f0;
        let resumes = mccio_net::slab_stats().resumes - r0;
        hostprof::set_enabled(false);
        let mut profile = hostprof::snapshot();
        profile.wall_secs = wall;
        profile.virtual_secs = result.write_secs + result.read_secs;
        Pass {
            result,
            wall,
            allocs: (a1.0 - a0.0, a1.1 - a0.1),
            minflt,
            peak_rss_mib: peak_rss_mib(),
            stack_committed: slab_committed(),
            resumes,
            profile,
        }
    }

    fn calls(&self, phase: HostPhase) -> u64 {
        self.profile.phases[phase as usize].calls
    }

    /// Asserts `other` (the same shape with obs on) moved no virtual
    /// time, and returns its extra allocations `(count, bytes)`.
    fn obs_delta(&self, other: &Pass, what: &str) -> (u64, u64) {
        assert_eq!(
            (
                self.result.write_secs.to_bits(),
                self.result.read_secs.to_bits()
            ),
            (
                other.result.write_secs.to_bits(),
                other.result.read_secs.to_bits()
            ),
            "{what}: observability moved virtual time"
        );
        (
            other.allocs.0.saturating_sub(self.allocs.0),
            other.allocs.1.saturating_sub(self.allocs.1),
        )
    }

    /// Persistent collective ops: a fresh write+read plans once and
    /// builds one schedule per rank; the read reuses all of them.
    fn assert_persistent(&self, ranks: usize) {
        assert_eq!(
            self.calls(HostPhase::PlanBuild),
            1,
            "{ranks} ranks: the read must reuse the write's plan"
        );
        assert_eq!(
            self.calls(HostPhase::ScheduleBuild),
            ranks as u64,
            "{ranks} ranks: the read must reuse every rank's schedule"
        );
    }
}

fn assert_in_budget(ranks: usize, (allocs, bytes): (u64, u64)) {
    eprintln!("  obs allocs {allocs} ({bytes} B)");
    assert!(
        bytes <= OBS_ALLOC_BUDGET_BYTES,
        "{ranks} ranks: obs allocations {bytes} B exceed the fixed \
         {OBS_ALLOC_BUDGET_BYTES} B budget"
    );
}

/// Measures the record's fixed table; see the module docs.
fn measure_record() -> Record {
    // Each thread caches its largest coroutine stack slab. One empty run
    // at the largest point caches it up front, so every measured pass
    // reuses it and obs allocation deltas compare like with like.
    let largest = Platform::testbed(TEN_K.0 / 12, TEN_K.0, 8);
    largest.world(ExecutorKind::Event).run(|_| ());
    let mut rows = Vec::new();

    let (platform, workload, buffer) = ior_config("ci").expect("the ci config exists");
    for (name, strategy) in paper_pair(&platform, buffer) {
        let ranks = platform.n_ranks;
        eprintln!("record: {ranks} ranks, {name} ...");
        let run = |sink: &ObsSink, plan| {
            Pass::run(
                &platform,
                &workload,
                &*strategy,
                ExecutorKind::Event,
                sink,
                plan,
            )
        };
        let mut row = Row::new(ranks as u64, &name);
        let off = run(&ObsSink::disabled(), None);
        push_run(&mut row, &off.result);
        let sink = ObsSink::enabled();
        let on = run(&sink, None);
        off.obs_delta(&on, &format!("{ranks} ranks / {name}"));
        push_obs(&mut row, "obs.", &sink, &on);
        let sink = ObsSink::enabled().with_causal();
        let causal = run(&sink, Some(causal_plan()));
        let chains = causal_health(&sink).unwrap_or_else(|e| panic!("{ranks} ranks: {e}"));
        push_virtual(&mut row, "causal.", &causal.result);
        push_obs(&mut row, "causal.", &sink, &causal);
        row.push("causal.chains", Value::Count(chains.len() as u64));
        let hops = chains.iter().map(BlameChain::hops).sum::<usize>();
        row.push("causal.hops", Value::Count(hops as u64));
        row.push("causal.chain_hash", Value::Hash(chain_hash(&chains)));
        rows.push(row);
    }

    for (ranks, per_rank_kib, segments) in [CI, TEN_K] {
        let shape = Shape::new(ranks, per_rank_kib, segments);
        eprintln!("record: {ranks} ranks, {} ...", shape.name);
        let mut row = Row::new(ranks as u64, &shape.name);
        let off = shape.pass(ExecutorKind::Event, &ObsSink::disabled(), None);
        push_run(&mut row, &off.result);
        if ranks == CI.0 {
            // The explored schedule must measure exactly what the
            // canonical one does.
            let kind = ExecutorKind::EXPLORED[0];
            let explored = shape.pass(kind, &ObsSink::disabled(), None);
            let mut x = Row::new(ranks as u64, &shape.name);
            push_run(&mut x, &explored.result);
            let diffs = record::compare(
                &Record {
                    rows: vec![row.clone()],
                },
                &Record { rows: vec![x] },
            );
            assert!(
                diffs.is_empty(),
                "{kind:?} disagrees with the canonical schedule: {diffs:?}"
            );
        }
        let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, OBS_EXEMPLARS));
        let on = shape.pass(ExecutorKind::Event, &sink, None);
        assert_in_budget(ranks, off.obs_delta(&on, &format!("{ranks} ranks")));
        on.assert_persistent(ranks);
        push_obs(&mut row, "obs.", &sink, &on);
        if ranks == CI.0 {
            write_report(
                &sink,
                &on,
                &format!("scale --obs — {ranks} ranks / {}", shape.name),
                &format!("trace_obs/scale_obs_{ranks}.html"),
            );
        }
        rows.push(row);
    }
    Record { rows }
}

/// Records the virtual write and read seconds under `prefix`.
fn push_virtual(row: &mut Row, prefix: &str, r: &RunResult) {
    row.push(format!("{prefix}write_secs"), Value::Real(r.write_secs));
    row.push(format!("{prefix}read_secs"), Value::Real(r.read_secs));
}

/// Records the virtual times, the `OpMetrics` round, shuffle, storage
/// and memory fields and the traffic scalars. The buffer-pool fields
/// are left out: they read zero, kept only for the benchmark package.
fn push_run(row: &mut Row, r: &RunResult) {
    push_virtual(row, "", r);
    let m = &r.metrics;
    let t = &r.traffic;
    for (name, value) in [
        ("metrics.rounds", Value::Count(m.rounds)),
        ("metrics.shuffle_bytes", Value::Count(m.shuffle_bytes)),
        ("metrics.storage_requests", Value::Count(m.storage_requests)),
        ("metrics.storage_bytes", Value::Count(m.storage_bytes)),
        ("metrics.mem_peak_mean", Value::Real(m.mem_peak_mean)),
        ("metrics.mem_peak_max", Value::Real(m.mem_peak_max)),
        ("metrics.mem_peak_cov", Value::Real(m.mem_peak_cov)),
        ("traffic.intra_bytes", Value::Count(t.intra_bytes)),
        ("traffic.inter_bytes", Value::Count(t.inter_bytes)),
        ("traffic.data_msgs", Value::Count(t.data_msgs)),
        ("traffic.ctl_msgs", Value::Count(t.ctl_msgs)),
    ] {
        row.push(name, value);
    }
}

/// Records what an obs-on pass observed under `prefix`: the stream
/// counters (or the event count of a buffered sink) and every host
/// phase's call count but the recycler's, which have no producer —
/// never its time.
fn push_obs(row: &mut Row, prefix: &str, sink: &ObsSink, pass: &Pass) {
    if let Some(agg) = sink.stream_stats() {
        row.push(
            format!("{prefix}stream_cells"),
            Value::Count(agg.cell_count() as u64),
        );
        row.push(
            format!("{prefix}events_folded"),
            Value::Count(agg.folded_events),
        );
        row.push(
            format!("{prefix}events_retained"),
            Value::Count(agg.retained_events),
        );
    } else {
        row.push(format!("{prefix}events"), Value::Count(sink.len() as u64));
    }
    for p in &pass.profile.phases {
        if !p.name.starts_with("recycle.") {
            row.push(format!("{prefix}calls.{}", p.name), Value::Count(p.calls));
        }
    }
}

/// Renders the sink's trace, with `pass`'s host profile, as an HTML
/// report at `path`.
fn write_report(sink: &ObsSink, pass: &Pass, title: &str, path: &str) {
    let analysis = analyze::TraceAnalysis::of_sink(sink)
        .expect("streamed trace analyzes")
        .with_host_profile(pass.profile.clone());
    if sink.is_causal() {
        assert!(
            !analysis.ops.is_empty() && analysis.ops.iter().all(|op| op.chain.is_some()),
            "{title}: an op carries no blame chain"
        );
    }
    let html = sink
        .with_events(|events| report::render(&format!("mccio {title}"), events, &analysis, None));
    std::fs::create_dir_all("trace_obs").expect("create trace_obs");
    std::fs::write(path, &html).expect("write obs report");
    eprintln!("  wrote {path} ({} bytes)", html.len());
}

/// The wall-clock modes: each point on the canonical schedule (and, up
/// to 1,008 ranks, one explored schedule that must agree bit for bit).
fn run_scale(mode: &str) {
    for (ranks, per_rank_kib, segments) in points(mode) {
        let shape = Shape::new(ranks, per_rank_kib, segments);
        let mut executors = vec![ExecutorKind::Event];
        if ranks <= CI.0 {
            executors.push(ExecutorKind::EXPLORED[0]);
        }
        let mut canonical: Option<(u64, u64)> = None;
        for executor in executors {
            eprintln!(
                "scale[{mode}]: {ranks} ranks x {per_rank_kib} KiB, {}, {executor:?} ...",
                shape.name
            );
            let p = shape.pass(executor, &ObsSink::disabled(), None);
            let (r, m) = (&p.result, &p.result.metrics);
            println!(
                "{ranks} ranks {executor:?}: {:.3}s wall, virtual write {:.9}s read {:.9}s \
                 ({:.1} / {:.1} MB/s)",
                p.wall,
                r.write_secs,
                r.read_secs,
                r.write_mbps(),
                r.read_mbps()
            );
            let stack_per_rank = p.stack_committed as f64 / ranks as f64;
            eprintln!(
                "  allocs {} ({} MiB), peak rss {} MiB, minflt {}, rounds {}, shuffle {} MiB, \
                 msgs {}, deepest park {} B, stacks {:.2} KiB/rank, \
                 resumes {:.1}/rank at {:.0} ns of host wall each",
                p.allocs.0,
                p.allocs.1 / MIB,
                p.peak_rss_mib,
                p.minflt,
                m.rounds,
                m.shuffle_bytes / MIB,
                r.traffic.data_msgs + r.traffic.ctl_msgs,
                mccio_net::slab_stats().deepest_park,
                stack_per_rank / KIB as f64,
                p.resumes as f64 / ranks as f64,
                p.wall * 1e9 / p.resumes.max(1) as f64
            );
            if (ranks, per_rank_kib, segments) == CI && canonical.is_none() {
                assert!(
                    p.stack_committed <= CI_STACK_BYTES_PER_RANK * ranks as u64,
                    "{ranks} ranks: task stacks committed {stack_per_rank:.0} B per rank, \
                     over the {CI_STACK_BYTES_PER_RANK} B bound: a frame on the park path grew"
                );
            }
            let bits = (r.write_secs.to_bits(), r.read_secs.to_bits());
            let want = *canonical.get_or_insert(bits);
            assert_eq!(
                want, bits,
                "{ranks} ranks: {executor:?} disagrees with the canonical schedule on \
                 virtual write/read time"
            );
        }
    }
}

/// The observability overhead check (`obs`, `causal`, `--obs`); see
/// the module docs.
fn run_obs(mode: &str, causal: bool) {
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (ranks, per_rank_kib, segments) in points(mode) {
        let shape = Shape::new(ranks, per_rank_kib, segments);
        let tag = if causal { "causal" } else { "obs" };
        eprintln!(
            "scale[{mode}, {tag} on]: {ranks} ranks x {per_rank_kib} KiB, {}, Event ...",
            shape.name
        );
        let plan = || causal.then(causal_plan);
        let off = || shape.pass(ExecutorKind::Event, &ObsSink::disabled(), plan());
        let on = || {
            let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, OBS_EXEMPLARS));
            let sink = if causal { sink.with_causal() } else { sink };
            let pass = shape.pass(ExecutorKind::Event, &sink, plan());
            (sink, pass)
        };

        // Warm-up: commit the coroutine stack slab and allocator pools so
        // no measured run pays first-touch faults another skips.
        let _ = off();
        let mut overheads = Vec::with_capacity(OBS_PAIRS);
        let mut last = None;
        for pair in 0..OBS_PAIRS {
            let (o, (sink, n)) = if pair % 2 == 0 {
                let o = off();
                (o, on())
            } else {
                let n = on();
                (off(), n)
            };
            let delta = o.obs_delta(&n, &format!("{ranks} ranks, pair {pair}"));
            let overhead = (n.wall - o.wall) / o.wall;
            eprintln!(
                "  pair {pair}: off {:.3}s, {tag} {:.3}s ({:+.1}%)",
                o.wall,
                n.wall,
                overhead * 100.0
            );
            assert_in_budget(ranks, delta);
            n.assert_persistent(ranks);
            if causal {
                causal_health(&sink).unwrap_or_else(|e| panic!("{ranks} ranks: {e}"));
            }
            overheads.push(overhead);
            last = Some((sink, n));
        }
        overheads.sort_by(f64::total_cmp);
        let median = overheads[OBS_PAIRS / 2];
        eprintln!("  median {tag} overhead {:+.1}%", median * 100.0);
        if ranks >= 10_000 {
            assert!(
                median < OBS_MAX_OVERHEAD,
                "{ranks} ranks: median {tag} host-wall overhead {:.1}% exceeds {:.0}%",
                median * 100.0,
                OBS_MAX_OVERHEAD * 100.0
            );
        }

        let (sink, pass) = last.expect("at least one pair");
        let agg = sink
            .stream_stats()
            .expect("streaming sink has an aggregate");
        assert!(agg.folded_events > 0, "streaming sink folded nothing");
        eprintln!(
            "  stream: {} folded into {} cells, {} retained; virtual write {:.9}s",
            agg.folded_events,
            agg.cell_count(),
            agg.retained_events,
            pass.result.write_secs
        );
        if causal {
            let chains = sink.causal_chains();
            eprintln!(
                "  causal: {} chain(s), {} hop(s)",
                chains.len(),
                chains.iter().map(BlameChain::hops).sum::<usize>()
            );
        }
        for p in pass.profile.phases.iter().filter(|p| p.calls > 0) {
            eprintln!(
                "  host {}: {} calls, {:.3} ms",
                p.name,
                p.calls,
                p.secs() * 1e3
            );
        }
        write_report(
            &sink,
            &pass,
            &format!("scale {tag} — {ranks} ranks / {}", shape.name),
            &format!("trace_obs/scale_{tag}_{ranks}.html"),
        );
        cells.push((ranks, agg.cell_count()));
    }

    // The fixed budget bounds each point; across points the aggregate
    // cell count must not scale with ranks either.
    if let (Some(&(r0, c0)), Some(&(r1, c1))) = (cells.first(), cells.last()) {
        if r1 > r0 {
            assert!(
                (c1 as f64) < c0 as f64 * (r1 as f64 / r0 as f64) / 2.0,
                "stream cells scale with ranks: {c1} cells at {r1} ranks vs {c0} at {r0}"
            );
        }
    }
}
