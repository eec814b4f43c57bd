//! `trace` — run a figure-scale collective I/O config with the
//! observability layer enabled and emit its artifacts: a Chrome
//! `trace_event` JSON per strategy (loadable in Perfetto /
//! `chrome://tracing`), a JSONL event stream, and a metrics summary
//! table.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin trace -- [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- gate <perf_smoke.json>
//! cargo run --release -p mccio-bench --bin trace -- report [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- causal [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- regress <bench.json> \
//!     [--wall-threshold F] [--inject-wall F]
//! ```
//!
//! * `ci` — the bounded 24-rank config (CI artifact validation);
//! * `fig7` (default) — the fig7-scale config (120 ranks, IOR
//!   interleaved);
//! * `gate <perf_smoke.json>` — the tracing-overhead gate: re-runs the
//!   JSON's mode with the sink *disabled* and fails if wall time
//!   regressed past noise against the recorded smoke numbers, then runs
//!   it *enabled* and fails unless every virtual time is bit-identical;
//! * `report` — runs both paper strategies traced, analyzes each trace
//!   (critical path, occupancy timelines), and writes one self-contained
//!   HTML report per strategy — the second carries the A/B diff against
//!   the first. Exits nonzero unless every op's critical-path total is
//!   bit-identical to its op span and the JSONL artifact replays into a
//!   bit-identical analysis;
//! * `causal` — root-cause analysis: runs both paper strategies with
//!   message-causality tracing under a deterministic 5 µs control-plane
//!   latency (so clocks genuinely diverge and blame chains hop ranks),
//!   on the canonical rank schedule and 8 explored ones. Exits nonzero
//!   unless the blame chains are bit-identical across schedules, every
//!   chain tiles its op span
//!   to the bit, the live DP frontier stayed bounded, and the
//!   flow-annotated Chrome trace validates. Writes one causal HTML
//!   report and one flow-annotated Chrome trace per strategy, and
//!   prints each op's blame chain and what-if projections;
//! * `regress <bench.json>` — the perf-regression gate: re-runs the
//!   baseline's mode, requires every deterministic counter to match
//!   exactly, virtual bandwidths to match at print precision, and total
//!   wall time to stay within `--wall-threshold` (default 0.15) of the
//!   recording. `--inject-wall F` scales the measured wall by `F` to
//!   prove the gate trips. A `scale-obs` baseline (`BENCH_PR9.json`)
//!   dispatches to the streaming-observability check instead: the
//!   recorded virtual times, stream cell/fold/retain counts, and the
//!   obs allocation budget are re-verified against a live re-run.
//!
//! Every emitted artifact is validated before the binary exits 0, so CI
//! can treat "trace ran" as "trace is loadable".

use std::process::exit;
use std::time::Instant;

use mccio_bench::{paper_pair, run, run_traced, run_with, Platform};
use mccio_net::ExecutorKind;
use mccio_obs::{analyze, export, json, report, ObsSink, StreamConfig};
use mccio_sim::fault::FaultPlan;
use mccio_sim::time::VDuration;
use mccio_sim::units::{KIB, MIB};
use mccio_workloads::Ior;

/// Wall-clock noise allowance for the gate: simulator wall time on a
/// shared machine jitters; a zero-cost disabled path stays well inside
/// this, an accidentally-hot instrumentation path does not.
const GATE_NOISE_FACTOR: f64 = 1.6;

/// `(nodes, ranks, MiB per rank, aggregation-buffer MiB)` for a mode —
/// the same configs `perf_smoke` times.
fn config(mode: &str) -> (usize, usize, u64, u64) {
    match mode {
        "ci" => (4, 24, 2, 4),
        "fig7" => (10, 120, 4, 16),
        other => {
            eprintln!("trace: unknown mode {other:?} (use ci|fig7|gate|report|causal|regress)");
            exit(2);
        }
    }
}

fn platform_for(mode: &str) -> (Platform, Ior, u64) {
    let (n_nodes, n_ranks, per_rank_mib, buffer_mib) = config(mode);
    let platform = Platform::testbed(n_nodes, n_ranks, 8).with_memory(320 * MIB, 64 * MIB);
    let workload = Ior::interleaved_total(per_rank_mib * MIB, 16);
    (platform, workload, buffer_mib * MIB)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") => {
            let baseline = args.get(1).unwrap_or_else(|| {
                eprintln!("trace gate: missing <perf_smoke.json> argument");
                exit(2);
            });
            gate(baseline);
        }
        Some("report") => {
            let mode = args.get(1).cloned().unwrap_or_else(|| "fig7".to_string());
            let outdir = args.get(2).cloned().unwrap_or_else(|| ".".to_string());
            report_mode(&mode, &outdir);
        }
        Some("causal") => {
            let mode = args.get(1).cloned().unwrap_or_else(|| "fig7".to_string());
            let outdir = args.get(2).cloned().unwrap_or_else(|| ".".to_string());
            causal_mode(&mode, &outdir);
        }
        Some("regress") => {
            let baseline = args.get(1).cloned().unwrap_or_else(|| {
                eprintln!("trace regress: missing <bench.json> argument");
                exit(2);
            });
            let mut wall_threshold = 0.15;
            let mut inject_wall = 1.0;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--wall-threshold" => {
                        wall_threshold = args
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| {
                                eprintln!("trace regress: --wall-threshold wants a number");
                                exit(2);
                            });
                        i += 2;
                    }
                    "--inject-wall" => {
                        inject_wall =
                            args.get(i + 1)
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| {
                                    eprintln!("trace regress: --inject-wall wants a number");
                                    exit(2);
                                });
                        i += 2;
                    }
                    other => {
                        eprintln!("trace regress: unknown option {other:?}");
                        exit(2);
                    }
                }
            }
            regress(&baseline, wall_threshold, inject_wall);
        }
        mode => {
            let mode = mode.unwrap_or("fig7").to_string();
            let outdir = args.get(1).cloned().unwrap_or_else(|| ".".to_string());
            emit(&mode, &outdir);
        }
    }
}

/// Runs both paper strategies with tracing enabled and writes the
/// artifacts into `outdir`, validating each before exit.
fn emit(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let obs = ObsSink::enabled();
        let result = run_traced(&workload, &*strategy, &platform, &obs);
        // Exporters read the event list in place — no O(events) clone.
        let (n_events, chrome, jsonl) = obs.with_events(|events| {
            (
                events.len(),
                export::chrome_trace(events),
                export::jsonl(events),
            )
        });
        println!(
            "{name}: write {:.1} MB/s, read {:.1} MB/s, {n_events} events recorded",
            result.write_mbps(),
            result.read_mbps(),
        );

        let chrome_path = format!("{outdir}/trace_{name}.json");
        std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
        match export::validate_chrome_trace(&chrome) {
            Ok(summary) => {
                println!(
                    "  {chrome_path}: {} events on {} tracks, ends at {:.1} virtual ms",
                    summary.events,
                    summary.tracks,
                    summary.end_ts / 1e3
                );
                // The operation must be covered end to end: plan →
                // prologue → rounds (shuffle/storage) → settle → op.
                for required in ["op", "schedule", "prologue", "round", "storage", "settle"] {
                    if !summary.has(required) {
                        eprintln!("  MISSING span {required:?} in {chrome_path}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("  INVALID {chrome_path}: {e}");
                failures += 1;
            }
        }

        let jsonl_path = format!("{outdir}/events_{name}.jsonl");
        std::fs::write(&jsonl_path, &jsonl).expect("write jsonl");
        match export::validate_jsonl(&jsonl) {
            Ok(n) => println!("  {jsonl_path}: {n} lines"),
            Err(e) => {
                eprintln!("  INVALID {jsonl_path}: {e}");
                failures += 1;
            }
        }

        println!("metrics [{name}]:");
        print!("{}", obs.metrics().summary_table());
    }
    if failures > 0 {
        eprintln!("trace: {failures} artifact validation failure(s)");
        exit(1);
    }
}

/// The overhead gate; see the module docs.
fn gate(baseline_path: &str) {
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("trace gate: read {baseline_path}: {e}"));
    let baseline = json::parse(&doc).unwrap_or_else(|e| panic!("trace gate: parse baseline: {e}"));
    let mode = baseline
        .get("mode")
        .and_then(json::Value::as_str)
        .expect("baseline json has a \"mode\"")
        .to_string();
    let recorded_wall: f64 = baseline
        .get("strategies")
        .and_then(json::Value::as_arr)
        .expect("baseline json has \"strategies\"")
        .iter()
        .map(|s| {
            s.get("wall_secs")
                .and_then(json::Value::as_f64)
                .expect("strategy row has wall_secs")
        })
        .sum();

    let (platform, workload, buffer) = platform_for(&mode);
    let mut disabled_wall = 0.0;
    let mut ok = true;
    for (name, strategy) in paper_pair(&platform, buffer) {
        // Tracing disabled: the sink must cost nothing.
        let t0 = Instant::now();
        let plain = run(&workload, &*strategy, &platform);
        disabled_wall += t0.elapsed().as_secs_f64();
        // Tracing enabled: virtual time must not move by a bit.
        let traced = run_traced(&workload, &*strategy, &platform, &ObsSink::enabled());
        if plain.write_secs.to_bits() != traced.write_secs.to_bits()
            || plain.read_secs.to_bits() != traced.read_secs.to_bits()
        {
            eprintln!(
                "GATE FAIL [{name}]: tracing moved virtual time \
                 (write {} vs {}, read {} vs {})",
                plain.write_secs, traced.write_secs, plain.read_secs, traced.read_secs
            );
            ok = false;
        }
    }
    println!(
        "gate[{mode}]: disabled-tracing wall {disabled_wall:.3}s vs recorded {recorded_wall:.3}s \
         (allowance x{GATE_NOISE_FACTOR})"
    );
    if disabled_wall > recorded_wall * GATE_NOISE_FACTOR {
        eprintln!(
            "GATE FAIL: wall time with tracing disabled exceeds the recorded smoke numbers \
             beyond noise — the disabled sink is not free"
        );
        ok = false;
    }
    if !ok {
        exit(1);
    }
    println!("gate: ok (virtual time bit-identical with tracing on/off; disabled path at speed)");
}

/// Runs both paper strategies traced, analyzes each trace, and writes
/// one self-contained HTML report per strategy (the second carrying the
/// A/B diff against the first). Fails unless the analysis is exact: the
/// critical-path total must equal the op span's virtual duration to the
/// bit, the phase tiling must close, and the JSONL artifact must replay
/// into a bit-identical analysis.
fn report_mode(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    let mut first: Option<analyze::TraceAnalysis> = None;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let obs = ObsSink::enabled();
        let result = run_traced(&workload, &*strategy, &platform, &obs);
        let analysis = analyze::TraceAnalysis::of_sink(&obs).unwrap_or_else(|e| {
            eprintln!("report[{name}]: analysis failed: {e}");
            exit(1);
        });

        // Acceptance invariant 1: the critical-path total is the op
        // span's priced duration, bit for bit. Cross-check against the
        // events independently of how the analyzer stored it.
        let events = obs.events();
        let op_durs: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "op")
            .map(|e| e.end().as_secs() - e.kind.at().as_secs())
            .collect();
        let virt = [result.write_secs, result.read_secs];
        for (i, op) in analysis.ops.iter().enumerate() {
            if op.total.as_secs().to_bits() != virt[i.min(1)].to_bits() {
                eprintln!(
                    "report[{name}]: op {i} critical-path total {} != measured virtual {}",
                    op.total.as_secs(),
                    virt[i.min(1)]
                );
                failures += 1;
            }
            if op_durs
                .get(i)
                .is_none_or(|d| d.to_bits() != op.total.as_secs().to_bits())
            {
                eprintln!("report[{name}]: op {i} total does not match its span event");
                failures += 1;
            }
            if op.tiling_error.abs() > analyze::TILING_EPS * op.rounds.len().max(1) as f64 {
                eprintln!(
                    "report[{name}]: op {i} tiling error {} over {} rounds",
                    op.tiling_error,
                    op.rounds.len()
                );
                failures += 1;
            }
        }
        // Acceptance invariant 2: the JSONL artifact replays into an
        // identical set of critical paths — every segment, decoded round
        // and per-phase attribution.
        let replayed = analyze::from_jsonl(&export::jsonl(&events))
            .and_then(|evs| analyze::TraceAnalysis::from_events(&evs))
            .unwrap_or_else(|e| {
                eprintln!("report[{name}]: JSONL replay failed: {e}");
                exit(1);
            });
        if replayed.ops != analysis.ops {
            eprintln!("report[{name}]: JSONL replay is not bit-identical to the live analysis");
            failures += 1;
        }

        let diff = first.as_ref().map(|a| a.diff(&analysis));
        let title = format!("mccio trace report — {mode} / {name}");
        let html = report::render(&title, &events, &analysis, diff.as_ref());
        if !html.starts_with("<!DOCTYPE html>") || !html.ends_with("</html>\n") {
            eprintln!("report[{name}]: malformed HTML envelope");
            failures += 1;
        }
        let path = format!("{outdir}/report_{mode}_{name}.html");
        std::fs::write(&path, &html).expect("write report");
        for op in &analysis.ops {
            println!(
                "report[{name}]: {} op {:.6}s over {} rounds, dominant {}, top straggler {}",
                op.dir,
                op.total.as_secs(),
                op.rounds.len(),
                op.attribution.dominant().name(),
                op.top_straggler()
                    .map_or("none".to_string(), |(r, n)| format!(
                        "rank {r} ({n} rounds)"
                    )),
            );
        }
        for tl in &analysis.memory {
            println!(
                "report[{name}]: node {} peak {} B of ceiling, balance {} B, overflow windows {}",
                tl.node,
                tl.peak,
                tl.final_occupancy,
                tl.overflow.len()
            );
        }
        println!("  wrote {path} ({} bytes)", html.len());
        first = Some(analysis);
    }
    if failures > 0 {
        eprintln!("report: {failures} invariant failure(s)");
        exit(1);
    }
}

/// Deterministic control-plane latency for the causal mode. The
/// engine's phases are root-priced — every rank charges the same
/// broadcast duration — so without real message latency all clocks move
/// in lock-step, every delivery is slack, and blame chains degenerate
/// to a single local-work segment. A few microseconds of control-plane
/// latency genuinely advances receiver clocks at barriers and gathers,
/// which is what makes cross-rank chains non-vacuous to check.
const CAUSAL_CTL_DELAY_MICROS: f64 = 5.0;

/// Seed for the causal mode's fault plan (the plan carries only the
/// deterministic control delay; no random faults fire).
const CAUSAL_SEED: u64 = 0xCA05;

fn causal_plan() -> FaultPlan {
    FaultPlan::new(CAUSAL_SEED).delay_control(VDuration::from_micros(CAUSAL_CTL_DELAY_MICROS))
}

/// Root-cause analysis over both paper strategies: runs each with
/// causal tracing armed under [`causal_plan`] on the canonical rank
/// schedule and every explored one, requires the recorded blame chains
/// to be bit-identical across them,
/// requires every chain to tile its op span to the bit and to actually
/// hop ranks, then writes one causal HTML report and one flow-annotated
/// Chrome trace per strategy and prints the blame chains and what-if
/// projections.
fn causal_mode(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let run_causal = |executor: ExecutorKind| {
            let obs = ObsSink::enabled().with_causal();
            let result = run_with(
                &platform.world(executor),
                &platform.env(&obs, Some(causal_plan())),
                &workload,
                &*strategy,
            );
            (obs, result)
        };
        let (obs, result) = run_causal(ExecutorKind::Event);

        // The analysis must be schedule-independent: same virtual
        // times, same blame chains, bit for bit, on every explored
        // schedule.
        for kind in ExecutorKind::EXPLORED {
            let (obs_x, result_x) = run_causal(kind);
            if result.write_secs.to_bits() != result_x.write_secs.to_bits()
                || result.read_secs.to_bits() != result_x.read_secs.to_bits()
            {
                eprintln!(
                    "causal[{name}]: {kind:?} disagrees on virtual time \
                     (write {} vs {}, read {} vs {})",
                    result.write_secs, result_x.write_secs, result.read_secs, result_x.read_secs
                );
                failures += 1;
            }
            if obs.causal_chains() != obs_x.causal_chains() {
                eprintln!("causal[{name}]: blame chains differ under {kind:?}");
                failures += 1;
            }
        }

        // The online DP must have settled clean and stayed bounded.
        let agg = obs.causal().expect("causal tracing is armed");
        if agg.inflight_len() != 0 {
            eprintln!(
                "causal[{name}]: {} message(s) still in flight after the run",
                agg.inflight_len()
            );
            failures += 1;
        }
        if agg.nodes_created() == 0 {
            eprintln!("causal[{name}]: no deliveries bound — the control delay skewed nothing");
            failures += 1;
        }
        if agg.live_nodes() as u64 > agg.nodes_created() {
            eprintln!(
                "causal[{name}]: live frontier {} exceeds nodes created {}",
                agg.live_nodes(),
                agg.nodes_created()
            );
            failures += 1;
        }

        let analysis = analyze::TraceAnalysis::of_sink(&obs).unwrap_or_else(|e| {
            eprintln!("causal[{name}]: analysis failed: {e}");
            exit(1);
        });
        let causal = analysis.causal.as_ref().unwrap_or_else(|| {
            eprintln!("causal[{name}]: analysis carries no causal layer");
            exit(1);
        });
        for (i, op) in causal.ops.iter().enumerate() {
            if let Err(e) = op.chain.verify_tiling() {
                eprintln!("causal[{name}]: op {i} blame chain does not tile: {e}");
                failures += 1;
            }
            // The chain's [t0, end] window is the op span itself, so its
            // total must be the critical-path total to the bit.
            if analysis
                .ops
                .get(i)
                .is_none_or(|p| p.total.as_secs().to_bits() != op.chain.total().as_secs().to_bits())
            {
                eprintln!(
                    "causal[{name}]: op {i} chain total {} is not the op span",
                    op.chain.total().as_secs()
                );
                failures += 1;
            }
            if op.chain.hops() == 0 {
                eprintln!("causal[{name}]: op {i} blame chain never leaves rank 0");
                failures += 1;
            }
            println!(
                "causal[{name}]: {} op {:.6}s, {} hop(s) across ranks {:?}, \
                 wait {:.6}s / work {:.6}s",
                op.chain.dir,
                op.chain.total().as_secs(),
                op.chain.hops(),
                op.chain.ranks(),
                op.wait_secs,
                op.work_secs,
            );
            for w in &op.what_ifs {
                println!(
                    "  what-if {:>14}: {:.6}s projected ({:.2}x)",
                    w.name, w.projected_secs, w.speedup
                );
            }
        }

        // Artifacts: the causal HTML report and the flow-annotated
        // Chrome trace, both validated before exit.
        let title = format!("mccio causal report — {mode} / {name}");
        let html = obs.with_events(|events| report::render(&title, events, &analysis, None));
        if !html.starts_with("<!DOCTYPE html>") || !html.ends_with("</html>\n") {
            eprintln!("causal[{name}]: malformed HTML envelope");
            failures += 1;
        }
        let html_path = format!("{outdir}/report_causal_{mode}_{name}.html");
        std::fs::write(&html_path, &html).expect("write causal report");
        println!("  wrote {html_path} ({} bytes)", html.len());

        let edges = obs.causal_edges();
        if edges.is_empty() {
            eprintln!("causal[{name}]: buffered sink retained no message edges");
            failures += 1;
        }
        let chrome = obs.with_events(|events| export::chrome_trace_flows(events, &edges));
        let chrome_path = format!("{outdir}/trace_causal_{name}.json");
        std::fs::write(&chrome_path, &chrome).expect("write causal chrome trace");
        match export::validate_chrome_trace(&chrome) {
            Ok(summary) => println!(
                "  {chrome_path}: {} events on {} tracks, {} flow edge(s)",
                summary.events,
                summary.tracks,
                edges.len()
            ),
            Err(e) => {
                eprintln!("  INVALID {chrome_path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("causal: {failures} invariant failure(s)");
        exit(1);
    }
    println!(
        "causal: ok (chains bit-identical across schedules, tiled to the bit, artifacts valid)"
    );
}

/// Exact-match tolerance for replayed f64 counters recorded at `{:.0}`.
const COUNTER_F64_EPS: f64 = 0.5;
/// Tolerance for `mem_peak_cov`, recorded at 4 decimal places.
const COV_EPS: f64 = 1e-3;
/// Tolerance for virtual bandwidths, recorded at 1 decimal place.
const MBPS_EPS: f64 = 0.1;

/// The perf-regression gate; see the module docs.
fn regress(baseline_path: &str, wall_threshold: f64, inject_wall: f64) {
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("trace regress: read {baseline_path}: {e}"));
    let baseline =
        json::parse(&doc).unwrap_or_else(|e| panic!("trace regress: parse baseline: {e}"));
    // A streaming-observability record (`scale obs` → BENCH_PR9.json)
    // has its own check: its "mode" names a scale-bench mode, not a
    // trace config, so dispatch on the bench tag before touching it.
    if baseline.get("bench").and_then(json::Value::as_str) == Some("scale-obs") {
        regress_obs(&baseline, wall_threshold, inject_wall);
        return;
    }
    let mode = baseline
        .get("mode")
        .and_then(json::Value::as_str)
        .expect("baseline json has a \"mode\"")
        .to_string();
    let rows = baseline
        .get("strategies")
        .and_then(json::Value::as_arr)
        .expect("baseline json has \"strategies\"");

    let (platform, workload, buffer) = platform_for(&mode);
    let reps = smoke_reps();
    let mut ok = true;
    let mut baseline_wall = 0.0;
    let mut measured_wall = 0.0;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(json::Value::as_str) == Some(&name))
            .unwrap_or_else(|| panic!("baseline has no strategy row {name:?}"));
        let mut best_wall = f64::INFINITY;
        let mut result = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = run(&workload, &*strategy, &platform);
            best_wall = best_wall.min(t0.elapsed().as_secs_f64());
            result = Some(r);
        }
        let result = result.expect("at least one rep");
        measured_wall += best_wall;
        baseline_wall += row
            .get("wall_secs")
            .and_then(json::Value::as_f64)
            .expect("row has wall_secs");

        let m = result.metrics;
        let counters = row.get("counters").expect("row has counters");
        let exact: [(&str, f64); 7] = [
            ("rounds", m.rounds as f64),
            ("shuffle_bytes", m.shuffle_bytes as f64),
            ("storage_requests", m.storage_requests as f64),
            ("storage_bytes", m.storage_bytes as f64),
            ("pool_hits", m.pool_hits as f64),
            ("pool_misses", m.pool_misses as f64),
            ("mem_peak_max", m.mem_peak_max),
        ];
        for (key, measured) in exact {
            let recorded = counters
                .get(key)
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("baseline counter {key:?} missing"));
            if (measured - recorded).abs() > COUNTER_F64_EPS {
                eprintln!(
                    "REGRESS FAIL [{name}]: counter {key} = {measured} vs recorded {recorded}"
                );
                ok = false;
            }
        }
        if let Some(cov) = counters.get("mem_peak_cov").and_then(json::Value::as_f64) {
            if (m.mem_peak_cov - cov).abs() > COV_EPS {
                eprintln!(
                    "REGRESS FAIL [{name}]: mem_peak_cov = {:.4} vs recorded {cov:.4}",
                    m.mem_peak_cov
                );
                ok = false;
            }
        }
        for (key, measured) in [
            ("virtual_write_mbps", result.write_mbps()),
            ("virtual_read_mbps", result.read_mbps()),
        ] {
            let recorded = row
                .get(key)
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("baseline {key:?} missing"));
            if (measured - recorded).abs() > MBPS_EPS {
                eprintln!("REGRESS FAIL [{name}]: {key} = {measured:.1} vs recorded {recorded:.1}");
                ok = false;
            }
        }
    }
    measured_wall *= inject_wall;
    let limit = baseline_wall * (1.0 + wall_threshold);
    println!(
        "regress[{mode}]: wall {measured_wall:.3}s vs recorded {baseline_wall:.3}s \
         (limit {limit:.3}s{})",
        if inject_wall != 1.0 {
            format!(", injected x{inject_wall}")
        } else {
            String::new()
        }
    );
    if measured_wall > limit {
        eprintln!(
            "REGRESS FAIL: wall time {measured_wall:.3}s exceeds recorded {baseline_wall:.3}s \
             by more than {:.0}%",
            wall_threshold * 100.0
        );
        ok = false;
    }
    if !ok {
        exit(1);
    }
    println!("regress: ok (counters exact, virtual bandwidth at print precision, wall in budget)");
}

/// Best-of-reps, matching how perf_smoke records its wall numbers: the
/// recorded baseline is a best-of measurement, so a single cold run
/// (binary load, page faults) would read as a false regression.
fn smoke_reps() -> u32 {
    std::env::var("MCCIO_SMOKE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Tolerance for virtual times recorded at 9 decimal places.
const VIRT_SECS_EPS: f64 = 1e-8;

/// The streaming-observability regression check: re-runs the baseline's
/// *first* point (the 10k-rank flagship; later points are full-scale
/// runs, not smoke-sized) with the same streaming sink configuration on
/// the event executor, and requires the deterministic stream counters
/// to match exactly, the virtual times to match at print precision, the
/// recorded obs allocations to fit the recorded budget, and the wall
/// time to stay within the threshold of the recording.
fn regress_obs(baseline: &json::Value, wall_threshold: f64, inject_wall: f64) {
    let f64_of = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("scale-obs baseline field {key:?} missing"))
    };
    let lanes = f64_of(baseline, "exemplar_lanes") as u32;
    let budget = f64_of(baseline, "obs_alloc_budget_bytes");
    let points = baseline
        .get("points")
        .and_then(json::Value::as_arr)
        .expect("scale-obs baseline has \"points\"");
    let point = points.first().expect("scale-obs baseline has a point");
    if points.len() > 1 {
        println!(
            "regress[obs]: checking the first point only ({} larger point(s) skipped)",
            points.len() - 1
        );
    }
    let ranks = f64_of(point, "ranks") as usize;
    let per_rank_kib = f64_of(point, "per_rank_kib") as u64;
    let segments = f64_of(point, "segments") as u64;

    // The exact shape `scale obs` ran: fig7-density testbed, IOR
    // interleaved, the memory-conscious half of the paper pair.
    let platform = Platform::testbed(ranks / 12, ranks, 8).with_memory(320 * MIB, 64 * MIB);
    let workload = Ior::interleaved_total(per_rank_kib * KIB, segments);
    let [_, (name, strategy)] = paper_pair(&platform, 4 * MIB);

    let mut ok = true;
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for _ in 0..smoke_reps() {
        let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, lanes));
        let t0 = Instant::now();
        let r = run_traced(&workload, &*strategy, &platform, &sink);
        best_wall = best_wall.min(t0.elapsed().as_secs_f64());
        last = Some((sink, r));
    }
    let (sink, result) = last.expect("at least one rep");
    let agg = sink
        .stream_stats()
        .expect("streaming sink has an aggregate");

    // Deterministic counters: exact.
    let exact: [(&str, u64); 3] = [
        ("stream_cells", agg.cell_count() as u64),
        ("events_folded", agg.folded_events),
        ("events_retained", agg.retained_events),
    ];
    for (key, measured) in exact {
        let recorded = f64_of(point, key);
        if (measured as f64 - recorded).abs() > COUNTER_F64_EPS {
            eprintln!("REGRESS FAIL [{name}]: {key} = {measured} vs recorded {recorded}");
            ok = false;
        }
    }
    // Virtual times: bit-stable in practice, recorded at 9 decimals.
    for (key, measured) in [
        ("virtual_write_secs", result.write_secs),
        ("virtual_read_secs", result.read_secs),
    ] {
        let recorded = f64_of(point, key);
        if (measured - recorded).abs() > VIRT_SECS_EPS {
            eprintln!("REGRESS FAIL [{name}]: {key} = {measured:.9} vs recorded {recorded:.9}");
            ok = false;
        }
    }
    // The recorded obs allocations must fit the recorded budget — the
    // record itself must witness the bounded-memory claim.
    let recorded_obs_bytes = f64_of(point, "obs_alloc_bytes");
    if recorded_obs_bytes > budget {
        eprintln!(
            "REGRESS FAIL [{name}]: recorded obs_alloc_bytes {recorded_obs_bytes} exceeds the \
             recorded budget {budget}"
        );
        ok = false;
    }

    let measured_wall = best_wall * inject_wall;
    let baseline_wall = f64_of(point, "wall_secs_obs");
    let limit = baseline_wall * (1.0 + wall_threshold);
    println!(
        "regress[obs]: {ranks} ranks, wall {measured_wall:.3}s vs recorded {baseline_wall:.3}s \
         (limit {limit:.3}s{})",
        if inject_wall == 1.0 {
            String::new()
        } else {
            format!(", injected x{inject_wall}")
        }
    );
    if measured_wall > limit {
        eprintln!(
            "REGRESS FAIL: obs wall time {measured_wall:.3}s exceeds recorded \
             {baseline_wall:.3}s by more than {:.0}%",
            wall_threshold * 100.0
        );
        ok = false;
    }
    if !ok {
        exit(1);
    }
    println!(
        "regress[obs]: ok (stream counters exact, virtual time at print precision, \
         obs allocations in budget, wall in budget)"
    );
}
