//! End-to-end and per-layer benchmark of the contention-resolution
//! simulators.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|saturated-session|burst-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the workload up repeatedly (the median is
//! `setup_s`), then runs whole passes — setup, advance + pause loop, output
//! checks — until `--seconds` have passed, and prints the end-to-end
//! metrics. With `--trace 1` it times every layer at fixed inputs, runs
//! untraced and traced passes for half the time each, and prints the
//! per-layer metrics, the outside-in ledger and the tracing overhead.
//!
//! Standard output carries a host header, the simulated-statistics
//! signature and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Workload parameters and
//! the rationale behind them are in `perfbench/NOTES.md`.

// Timing the wall clock is this program's job; the workspace lint bans it
// only where results must be functions of seeds and slot counters.
#![allow(clippy::disallowed_methods)]

mod layers;
mod report;
mod workloads;

use layers::Layer;
use report::{median, summarise, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{PassOutcome, Spans, Workload, TAGS};

/// Setup repetitions per run: at least this many …
const MIN_SETUPS: usize = 9;
/// … and more, up to this many, while the setup budget lasts.
const MAX_SETUPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| {
            format!("unknown workload {name} (paper-sweep, saturated-session, burst-fleet)")
        })?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report::header(&args.name, args.seed, args.seconds, args.trace)
    );
    let expect = workloads::expectations(args.workload, args.seed);
    let mut run = Run::default();

    // Repeated setups; the traced run records them as spans.
    let mut spans = Spans::default();
    let setup_start = Instant::now();
    while run.setup_ns.len() < MIN_SETUPS
        || (run.setup_ns.len() < MAX_SETUPS && setup_start.elapsed() < SETUP_BUDGET)
    {
        let t = Instant::now();
        let rig = workloads::build(args.workload, args.seed);
        let ns = report::ns_since(t);
        if let Err(e) = rig {
            run.fail(e);
            break;
        }
        drop(rig);
        run.setup_ns.push(ns);
    }
    spans.setup_ns.clone_from(&run.setup_ns);

    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        let layers = layers::measure(args.seed);
        let untraced = run.passes(args.workload, args.seed, &expect, budget / 2, None);
        let traced = run.passes(
            args.workload,
            args.seed,
            &expect,
            budget / 2,
            Some(&mut spans),
        );
        traced_metrics(&args, &layers, &untraced, &traced, &spans)
    } else {
        let passes = run.passes(args.workload, args.seed, &expect, budget, None);
        end_to_end_metrics(&run, &passes)
    };

    if let Some(signature) = &run.signature {
        println!(
            "{{\"signature\": {{\"workload\": {}, \"seed\": {}, \"channels\": {signature}}}}}",
            report::json_string(&args.name),
            args.seed
        );
    }
    for e in &run.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Accumulated state of one benchmark run.
#[derive(Default)]
struct Run {
    setup_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first pass's signature; every later pass must repeat it.
    signature: Option<String>,
}

impl Run {
    fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(e);
    }

    /// Whole passes until `budget` has passed (at least one).
    fn passes(
        &mut self,
        workload: Workload,
        seed: u64,
        expect: &workloads::Expect,
        budget: Duration,
        mut spans: Option<&mut Spans>,
    ) -> Vec<PassOutcome> {
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let pass = workloads::run_pass(workload, seed, expect, spans.as_deref_mut());
            self.setup_ns.push(pass.setup_ns);
            self.attempted += pass.ops;
            self.failed += pass.failed;
            self.errors.extend(pass.errors.iter().cloned());
            match &self.signature {
                None => self.signature = Some(pass.signature.clone()),
                Some(first) if *first != pass.signature => {
                    self.fail(format!(
                        "signature changed between passes of one seed: {first} then {}",
                        pass.signature
                    ));
                }
                Some(_) => {}
            }
            println!(
                "{{\"pass\": {}, \"traced\": {}, \"setup_s\": {}, \"loop_s\": {}, \"slots\": {}, \"deliveries\": {}, \"slots_per_s\": {}}}",
                passes.len(),
                spans.is_some(),
                report::json_number(pass.setup_ns * 1e-9),
                report::json_number(pass.loop_ns * 1e-9),
                pass.slots(),
                pass.deliveries(),
                report::json_number(rate(pass.slots(), pass.loop_ns))
            );
            let stop = pass.failed > 0 || start.elapsed() >= budget;
            passes.push(pass);
            if stop {
                return passes;
            }
        }
    }
}

fn rate(count: u64, ns: f64) -> f64 {
    if ns > 0.0 {
        count as f64 / (ns * 1e-9)
    } else {
        0.0
    }
}

fn slots_per_s(passes: &[PassOutcome]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| rate(p.slots(), p.loop_ns))
            .collect::<Vec<_>>(),
    )
}

fn end_to_end_metrics(run: &Run, passes: &[PassOutcome]) -> Metrics {
    let mut m = Metrics::default();
    m.put("slots_per_s", slots_per_s(passes), "slots/s");
    m.put(
        "deliveries_per_s",
        median(
            &passes
                .iter()
                .map(|p| rate(p.deliveries(), p.loop_ns))
                .collect::<Vec<_>>(),
        ),
        "msgs/s",
    );
    m.put("setup_s", median(&run.setup_ns) * 1e-9, "s");
    m.put("peak_rss_mib", report::peak_rss_mib(), "MiB");
    m.put(
        "checkpoint_kib",
        passes.iter().map(|p| p.max_frame_bytes).max().unwrap_or(0) as f64 / 1024.0,
        "KiB",
    );
    m
}

fn traced_metrics(
    args: &Args,
    layers: &[Layer],
    untraced: &[PassOutcome],
    traced: &[PassOutcome],
    spans: &Spans,
) -> Metrics {
    let mut m = Metrics::default();
    for layer in layers {
        m.put_summary(layer.name, &layer.summary, layer.unit);
    }

    let scaled = |ns: &[f64], scale: f64| -> Vec<f64> { ns.iter().map(|v| v * scale).collect() };
    m.put_summary(
        "span.setup_ms",
        &summarise(&scaled(&spans.setup_ns, 1e-6)),
        "ms",
    );
    m.put_summary(
        "span.advance_ns_per_slot",
        &summarise(&spans.advance_ns_per_slot),
        "ns",
    );
    for (tag, samples) in TAGS.iter().zip(&spans.advance_by_tag) {
        m.put_summary(
            &format!("span.advance_ns_per_slot.{tag}"),
            &summarise(samples),
            "ns",
        );
    }
    m.put_summary(
        "span.quantile_us",
        &summarise(&scaled(&spans.quantile_ns, 1e-3)),
        "us",
    );
    m.put_summary(
        "span.checkpoint_ms",
        &summarise(&scaled(&spans.checkpoint_ns, 1e-6)),
        "ms",
    );
    m.put_summary(
        "span.restore_ms",
        &summarise(&scaled(&spans.restore_ns, 1e-6)),
        "ms",
    );
    m.put_summary(
        "span.merge_ms",
        &summarise(&scaled(&spans.merge_ns, 1e-6)),
        "ms",
    );
    let loop_ns: f64 = traced.iter().map(|p| p.loop_ns).sum();
    m.put(
        "span.pause_share",
        if loop_ns > 0.0 {
            spans.pause_ns / loop_ns
        } else {
            0.0
        },
        "ratio",
    );
    m.put("span.pause_self_ms", spans.pause_self_ns() * 1e-6, "ms");
    m.put(
        "span.loop_self_ms",
        (loop_ns - spans.advance_ns - spans.pause_ns) * 1e-6,
        "ms",
    );

    // Counts of one pass; they repeat exactly for a seed.
    let pass = &traced[0];
    let slots = pass.slots();
    let busy = pass.busy_slots();
    m.put("count.slots", slots as f64, "count");
    m.put("count.busy_slots", busy as f64, "count");
    m.put("count.deliveries", pass.deliveries() as f64, "count");
    m.put("count.collisions", pass.collisions() as f64, "count");
    m.put("count.pauses", pass.pauses as f64, "count");
    m.put(
        "count.checkpoint_words",
        pass.checkpoint_words as f64,
        "count",
    );
    let merges: u64 = pass.channels.iter().map(|c| c.merges).sum();
    m.put(
        "cohort.merges_per_kslot",
        if slots > 0 {
            merges as f64 * 1e3 / slots as f64
        } else {
            0.0
        },
        "1/kslot",
    );
    m.put(
        "cohort.peak_classes",
        pass.channels
            .iter()
            .map(|c| c.peak_classes)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m.put("sketch.rank_error", pass.rank_error_share, "ratio");
    m.put("fleet.shard_imbalance", shard_imbalance(pass), "ratio");
    m.put(
        "util.deliveries_per_busy_slot",
        if busy > 0 {
            pass.deliveries() as f64 / busy as f64
        } else {
            0.0
        },
        "ratio",
    );

    let measured_ns = median(&untraced.iter().map(|p| p.loop_ns).collect::<Vec<_>>());
    let predicted_ns = ledger(args, layers, pass);
    m.put("ledger.predicted_ms", predicted_ns * 1e-6, "ms");
    m.put("ledger.measured_ms", measured_ns * 1e-6, "ms");
    m.put(
        "ledger.unexplained_share",
        if measured_ns > 0.0 {
            (measured_ns - predicted_ns) / measured_ns
        } else {
            0.0
        },
        "ratio",
    );

    let plain = slots_per_s(untraced);
    let with_spans = slots_per_s(traced);
    m.put("trace.untraced_slots_per_s", plain, "slots/s");
    m.put("trace.traced_slots_per_s", with_spans, "slots/s");
    m.put(
        "trace.overhead_share",
        if with_spans > 0.0 {
            plain / with_spans - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    m
}

/// Largest shard clock over the mean shard clock (1 for one channel).
fn shard_imbalance(pass: &PassOutcome) -> f64 {
    if pass.channels.len() < 2 {
        return 1.0;
    }
    let max = pass.channels.iter().map(|c| c.slots).max().unwrap_or(0) as f64;
    let mean = pass.slots() as f64 / pass.channels.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Outside-in ledger: predicts the loop time of one pass as each layer's
/// median cost times the public count that calls it, prints every term and
/// returns the prediction in nanoseconds. Reported, not gated.
fn ledger(args: &Args, layers: &[Layer], pass: &PassOutcome) -> f64 {
    let cost = |name: &str| Layer::p50(layers, name);
    let mut terms: Vec<(String, f64, f64)> = Vec::new();
    // The fleet advances its shards in parallel, one thread each.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = match args.workload {
        Workload::BurstFleet => (workloads::FLEET_SHARDS as usize).min(cores).max(1) as f64,
        _ => 1.0,
    };
    for c in &pass.channels {
        let busy = c.slots - c.silent.min(c.slots);
        let tag = TAGS[c.tag];
        match (args.workload, c.family) {
            // The window walk samples its slots in a fused loop and in
            // per-block binomial draws; no public count says how many
            // ModeKernel steps or BTPE calls it made, so only the draw per
            // slot is charged and the rest stays in the remainder.
            (Workload::PaperSweep, Some(mac_protocols::ProtocolFamily::Window)) => {
                terms.push((
                    format!("{tag} slots x draw"),
                    c.slots as f64,
                    cost("rng.draw_ns"),
                ));
            }
            (Workload::PaperSweep, _) => {
                terms.push((
                    format!("{tag} slots x select_step"),
                    c.slots as f64,
                    cost("binomial.select_step_ns"),
                ));
                terms.push((
                    format!("{tag} slots x draw"),
                    c.slots as f64,
                    cost("rng.draw_ns"),
                ));
            }
            (Workload::SaturatedSession, _) => {
                terms.push((
                    format!("{tag} busy x classify_c64"),
                    busy as f64,
                    cost("cohort.classify_ns.c64"),
                ));
                terms.push((
                    format!("{tag} busy x draw"),
                    busy as f64,
                    cost("rng.draw_ns"),
                ));
                terms.push((
                    format!("{tag} deliveries x deliver_c64"),
                    c.deliveries as f64,
                    cost("cohort.deliver_ns.c64"),
                ));
            }
            (Workload::BurstFleet, _) => {
                terms.push((
                    format!("{tag} busy x classify_c1 / {parallel}"),
                    busy as f64 / parallel,
                    cost("cohort.classify_ns.c1"),
                ));
                terms.push((
                    format!("{tag} busy x draw / {parallel}"),
                    busy as f64 / parallel,
                    cost("rng.draw_ns"),
                ));
            }
        }
        let deliveries = c.deliveries as f64
            / if args.workload == Workload::BurstFleet {
                parallel
            } else {
                1.0
            };
        terms.push((
            format!("{tag} deliveries x sketch_push"),
            deliveries,
            cost("sketch.push_ns"),
        ));
    }
    let kib = pass.checkpoint_words as f64 * 8.0 / 1024.0;
    terms.push((
        "frame KiB x encode".to_string(),
        kib,
        cost("wire.encode_ns_per_kib"),
    ));
    terms.push((
        "frame KiB x 2 digests".to_string(),
        2.0 * kib,
        cost("wire.digest_ns_per_kib"),
    ));
    terms.push((
        "frame KiB x decode".to_string(),
        kib,
        cost("wire.decode_ns_per_kib"),
    ));
    let pauses = pass.pauses as f64;
    terms.push((
        "pauses x 3 quantiles".to_string(),
        3.0 * pauses,
        cost("sketch.quantile_ns"),
    ));
    if args.workload == Workload::BurstFleet {
        let shards = f64::from(workloads::FLEET_SHARDS);
        terms.push((
            "pauses x dispatch".to_string(),
            pauses,
            cost("session.dispatch_us") * 1e3,
        ));
        terms.push((
            "pauses x shards x merge".to_string(),
            pauses * shards,
            cost("sketch.merge_us") * 1e3,
        ));
    }
    let total: f64 = terms.iter().map(|(_, count, ns)| count * ns).sum();
    for (term, count, ns) in &terms {
        println!(
            "{{\"ledger\": {}, \"count\": {}, \"ns_per_op\": {}, \"ms\": {}}}",
            report::json_string(term),
            report::json_number(*count),
            report::json_number(*ns),
            report::json_number(count * ns * 1e-6)
        );
    }
    total
}
