//! `trace` — run a figure-scale collective I/O config with the
//! observability layer enabled and emit its artifacts: a Chrome
//! `trace_event` JSON per strategy (loadable in Perfetto /
//! `chrome://tracing`, and replayable into the recorded events) and an
//! HTML report.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin trace -- [report] [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- causal [ci|fig7] [outdir]
//! ```
//!
//! * `ci` — the bounded 24-rank config (CI artifact validation);
//! * `fig7` (default) — the fig7-scale config (120 ranks, IOR
//!   interleaved);
//! * `report` (the default mode) — runs both paper strategies traced,
//!   writes each trace as `trace_<strategy>.json`, analyzes it (critical
//!   path, occupancy timelines), prints the counters the analysis
//!   derives from the events, and writes one self-contained HTML report
//!   per strategy — the second carries the A/B diff against the first.
//!   Exits nonzero unless every op's critical-path total is
//!   bit-identical to its op span, its segments tile the span with
//!   bit-equal joints, the written trace replays into the recorded
//!   events and a bit-identical analysis, memory timelines and counters
//!   included, and the trace covers the operation end to end (`op`,
//!   `schedule`, `prologue`, `round`, `storage` and `settle` spans);
//! * `causal` — root-cause analysis: runs both paper strategies with
//!   message-causality tracing under the deterministic control-plane
//!   latency of `mccio_bench::causal_plan` (so clocks genuinely diverge
//!   and blame chains hop ranks), on the canonical rank schedule and 8
//!   explored ones. Exits nonzero unless the blame chains are
//!   bit-identical across schedules, every op carries a chain, the
//!   chains pass `mccio_bench::causal_health` (some delivery bound,
//!   every chain tiles its op span to the bit and hops ranks), each
//!   op's critical path (the chain cut at its phase windows) tiles too,
//!   and the flow-annotated Chrome trace replays. Writes one causal HTML
//!   report and one flow-annotated Chrome trace per strategy, and
//!   prints each op's blame chain and what-if projections.
//!
//! Every written trace is read back and replayed into the recorded
//! events before the binary exits 0, so CI can treat "trace ran" as
//! "trace is loadable". The tracing-overhead and regression checks live
//! in the `scale` binary's record.

use std::process::exit;

use mccio_bench::{
    causal_health, causal_plan, ior_config, paper_pair, run_traced, run_with, Platform,
};
use mccio_net::ExecutorKind;
use mccio_obs::{analyze, export, report, CausalEdge, Event, ObsSink};
use mccio_workloads::Ior;

fn platform_for(mode: &str) -> (Platform, Ior, u64) {
    ior_config(mode).unwrap_or_else(|| {
        eprintln!("trace: unknown mode {mode:?} (use ci|fig7|report|causal)");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = || args.get(1).cloned().unwrap_or_else(|| "fig7".to_string());
    let outdir = |i: usize| args.get(i).cloned().unwrap_or_else(|| ".".to_string());
    match args.first().map(String::as_str) {
        Some("report") => report_mode(&mode(), &outdir(2)),
        Some("causal") => causal_mode(&mode(), &outdir(2)),
        mode => report_mode(mode.unwrap_or("fig7"), &outdir(1)),
    }
}

/// Writes the Chrome trace of `events` (and `edges`) to `path`, reads it
/// back and replays it: the replay must equal the recorded events.
fn write_and_replay(
    path: &str,
    events: &[Event],
    edges: &[CausalEdge],
) -> Result<Vec<Event>, String> {
    std::fs::write(path, export::chrome_trace_flows(events, edges))
        .map_err(|e| format!("write {path}: {e}"))?;
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let replayed = export::replay(&doc).map_err(|e| format!("INVALID {path}: {e}"))?;
    if replayed != export::export_order(events) {
        return Err(format!("{path} does not replay to the recorded events"));
    }
    Ok(replayed)
}

/// Runs both paper strategies traced, writes and replays each trace,
/// analyzes it, prints its derived counters, and writes one
/// self-contained HTML report per strategy (the second carrying the A/B
/// diff against the first). Fails unless the analysis is exact: the
/// critical-path total must equal the op span's virtual duration to the
/// bit, the segments must tile the span with bit-equal joints, the
/// phase attribution must close, the written trace must cover the
/// operation end to end and replay into a bit-identical analysis: the
/// same critical paths, memory timelines and counters.
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
            if let Err(e) = op.verify_tiling() {
                eprintln!("report[{name}]: op {i} segments do not tile the op: {e}");
                failures += 1;
            }
            if op.tiling_error().abs() > analyze::TILING_EPS * op.rounds.len().max(1) as f64 {
                eprintln!(
                    "report[{name}]: op {i} tiling error {} over {} rounds",
                    op.tiling_error(),
                    op.rounds.len()
                );
                failures += 1;
            }
        }
        // Acceptance invariant 2: the written trace replays into the
        // recorded events and an identical analysis — every segment,
        // decoded round and per-phase attribution, every memory
        // timeline — and identical derived counters.
        let chrome_path = format!("{outdir}/trace_{name}.json");
        let replayed_events = write_and_replay(&chrome_path, &events, &[]).unwrap_or_else(|e| {
            eprintln!("report[{name}]: replay failed: {e}");
            exit(1);
        });
        // The operation must be covered end to end: plan → prologue →
        // rounds (shuffle/storage) → settle → op.
        for required in ["op", "schedule", "prologue", "round", "storage", "settle"] {
            if !replayed_events.iter().any(|e| e.name == required) {
                eprintln!("report[{name}]: MISSING span {required:?} in {chrome_path}");
                failures += 1;
            }
        }
        let replayed =
            analyze::TraceAnalysis::from_events(&replayed_events, &[]).unwrap_or_else(|e| {
                eprintln!("report[{name}]: replay failed: {e}");
                exit(1);
            });
        if replayed.ops != analysis.ops
            || replayed.memory != analysis.memory
            || replayed.counters != analysis.counters
        {
            eprintln!("report[{name}]: replay is not bit-identical to the live analysis");
            failures += 1;
        }
        println!("counters [{name}]:");
        for (counter, v) in &analysis.counters {
            println!("  {counter:<36} {v:>16}");
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
                        "rank {r} ({n} priced terms)"
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

/// Root-cause analysis over both paper strategies: runs each with
/// causal tracing armed under [`causal_plan`] on the canonical rank
/// schedule and every explored one, requires the recorded blame chains
/// to be bit-identical across them and to pass [`causal_health`], and
/// every op to carry one whose critical path tiles its op span, then
/// writes one causal HTML report and one flow-annotated
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

        if let Err(e) = causal_health(&obs) {
            eprintln!("causal[{name}]: {e}");
            failures += 1;
        }

        let analysis = analyze::TraceAnalysis::of_sink(&obs).unwrap_or_else(|e| {
            eprintln!("causal[{name}]: analysis failed: {e}");
            exit(1);
        });
        if analysis.ops.is_empty() {
            eprintln!("causal[{name}]: analysis found no ops");
            exit(1);
        }
        for (i, op) in analysis.ops.iter().enumerate() {
            let Some(chain) = &op.chain else {
                eprintln!("causal[{name}]: op {i} carries no blame chain");
                failures += 1;
                continue;
            };
            if let Err(e) = op.verify_tiling() {
                eprintln!("causal[{name}]: op {i} critical path does not tile: {e}");
                failures += 1;
            }
            // The chain's [t0, end] window is the op span itself, so its
            // total must be the critical-path total to the bit.
            if op.total.as_secs().to_bits() != chain.total().as_secs().to_bits() {
                eprintln!(
                    "causal[{name}]: op {i} chain total {} is not the op span",
                    chain.total().as_secs()
                );
                failures += 1;
            }
            println!(
                "causal[{name}]: {} op {:.6}s, {} hop(s) across ranks {:?}, \
                 wait {:.6}s / work {:.6}s",
                chain.dir,
                chain.total().as_secs(),
                chain.hops(),
                chain.ranks(),
                chain.wait_secs(),
                chain.work_secs(),
            );
            for w in op.what_ifs() {
                println!(
                    "  what-if {:>14}: {:.6}s projected ({:.2}x)",
                    w.name, w.projected_secs, w.speedup
                );
            }
        }

        // Artifacts: the causal HTML report and the flow-annotated
        // Chrome trace, replayed before exit.
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
        let chrome_path = format!("{outdir}/trace_causal_{name}.json");
        match write_and_replay(&chrome_path, &obs.events(), &edges) {
            Ok(replayed) => println!(
                "  {chrome_path}: {} events, {} flow edge(s)",
                replayed.len(),
                edges.len()
            ),
            Err(e) => {
                eprintln!("  {e}");
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
