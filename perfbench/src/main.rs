//! Door-to-commit benchmark of the trusting-news platform.
//!
//! Replays seeded platform traffic on the wall clock through the public
//! entry points of each layer — `Gateway::offer` / `drain_into`,
//! `ValidatorNode::produce_block_from_mempool` / `apply_committed_batch` /
//! `reopen`, the `ChainStore`, `SupplyChainGraph` and `RankingContract`
//! reads, and the PBFT ordering harness — and times each call from
//! outside. One thread drives everything (plus the node's own verify
//! pool).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
//! episode, then traced ones, and prints the per-layer metrics, the
//! attribution of busy time to layers, and the tracing overhead; it writes
//! the last traced episode to `.bench_out/` in Chrome trace-event format.
//! The last line of standard output is the result as one JSON object.
//! Any failed correctness check fails the run (exit code 1).

mod episode;
mod kernels;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::episode::{EpisodeOut, Failures};
use crate::report::{Layers, Metric};
use crate::spans::{chrome_json, Tracer};
use crate::stats::{ratio, samples_needed};

/// Where run artifacts (trace, attribution, replica directories) go,
/// relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Fewest episodes per run, so `setup_s` and `recover_s` are medians.
const MIN_EPISODES: usize = 3;

/// A run stops extending for sample counts at this multiple of `--seconds`.
const MAX_STRETCH: u32 = 2;

/// Set-ups timed before the first episode; with the episodes' own they
/// give `setup_s` as a median, and they warm the process up.
const EXTRA_SETUPS: usize = 6;

/// Stream writes the kernel rows are measured on.
const KERNEL_TXS: usize = 512;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // A failed operation at this percentile: it missed every limit.
        format!("{:?}", f64::MAX)
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn enough_e2e(episodes: &[&EpisodeOut]) -> bool {
    let need = samples_needed(0.99);
    let writes: usize = episodes.iter().map(|e| e.write_ms.len()).sum();
    let reads: usize = episodes.iter().map(|e| e.read_us.len()).sum();
    writes >= need && reads >= need
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let spec = workload::spec(&args.workload).ok_or(format!(
        "unknown workload {}; expected ingest or burst",
        args.workload
    ))?;
    let inputs = workload::generate(spec, args.seed);
    let scratch = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let mut tracer = Tracer::new(Instant::now());
    let mut failures: Failures = Vec::new();
    let mut episodes: Vec<EpisodeOut> = Vec::new();
    let mut layers = Layers::default();
    let mut last_spans = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setups.push(episode::setup_only(&inputs, &scratch, &mut failures)?);
    }
    let mut last_end = start.elapsed();
    loop {
        // A traced run's first episode is untraced: it gives the digest
        // the traced episodes must reproduce and the overhead baseline.
        let traced = args.trace && !episodes.is_empty();
        tracer.reset(traced);
        let ep = episode::run(
            spec,
            &inputs,
            args.seed,
            &scratch,
            &mut tracer,
            &mut failures,
        )?;
        if let Some(first) = episodes.first() {
            if first.serving_digest != ep.serving_digest
                || first.replica_digest != ep.replica_digest
            {
                failures.push(format!(
                    "episode {} ({}) digest differs from episode 0 (untraced)",
                    episodes.len(),
                    if traced { "traced" } else { "untraced" }
                ));
            }
        }
        if traced {
            layers.add(&ep, tracer.spans());
            last_spans = tracer.spans().to_vec();
        }
        episodes.push(ep);
        let elapsed = start.elapsed();
        let episode_time = (elapsed - last_end).max(Duration::from_millis(1));
        last_end = elapsed;
        let measured: Vec<&EpisodeOut> =
            episodes.iter().filter(|e| e.traced == args.trace).collect();
        // A traced run also holds its untraced first episode.
        let min_met = measured.len() + usize::from(args.trace) >= MIN_EPISODES;
        let enough = if args.trace {
            layers.enough()
        } else {
            enough_e2e(&measured)
        };
        // Stop at the episode boundary nearest the budget.
        let near_end = elapsed + episode_time / 2 >= budget;
        if !failures.is_empty()
            || (min_met && ((near_end && enough) || elapsed >= budget * MAX_STRETCH))
        {
            break;
        }
    }

    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let digest = episodes[0].serving_digest;
    let utilization: Vec<f64> = episodes.iter().map(|e| e.utilization).collect();
    println!(
        "workload {} seed {} episodes {} in {:.1} s, front-door utilization {:.2}, digest {}",
        spec.name,
        args.seed,
        episodes.len(),
        start.elapsed().as_secs_f64(),
        stats::median(&utilization),
        digest.to_hex()
    );
    for (i, e) in episodes.iter().enumerate() {
        println!(
            "  episode {i}{}: setup {:.3} s, write p50/p99 {:.2}/{:.2} ms, read p50/p99 {:.0}/{:.0} us, {:.0} writes/s, sync {:.0} tx/s, recover {:.3} s, utilization {:.2}",
            if e.traced { " (traced)" } else { "" },
            e.setup_s,
            e.write_ms.quantile_unchecked(0.5).unwrap_or(0.0),
            e.write_ms.quantile_unchecked(0.99).unwrap_or(0.0),
            e.read_us.quantile_unchecked(0.5).unwrap_or(0.0),
            e.read_us.quantile_unchecked(0.99).unwrap_or(0.0),
            ratio(e.writes_committed as f64, e.write_window_s),
            ratio(e.replica_applied as f64, e.sync_window_s),
            stats::median(&e.recover_s),
            e.utilization,
        );
    }
    let metrics = if args.trace {
        let kernel_txs: Vec<_> = inputs
            .writes
            .iter()
            .take(KERNEL_TXS)
            .map(|w| w.tx.clone())
            .collect();
        let kernels = kernels::measure(&kernel_txs);
        let untraced: Vec<&EpisodeOut> = episodes.iter().filter(|e| !e.traced).collect();
        let traced: Vec<&EpisodeOut> = episodes.iter().filter(|e| e.traced).collect();
        let overhead = report::overhead(&untraced, &traced);
        let mut m = layers.metrics(&kernels, ratio(failed as f64, attempted as f64), overhead);
        let reads = report::read_median(&traced);
        m.list.extend(reads.list);
        m.notes.extend(reads.notes);
        let attribution = layers.attribution(spec.name);
        print!("{attribution}");
        let stem = scratch.join(format!("{}-seed{}", spec.name, args.seed));
        let trace_path = stem.with_extension("trace.json");
        std::fs::write(&trace_path, chrome_json(&last_spans))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        std::fs::write(stem.with_extension("attribution.txt"), &attribution)
            .map_err(|e| format!("attribution: {e}"))?;
        println!("trace written to {}", trace_path.display());
        m
    } else {
        let measured: Vec<&EpisodeOut> = episodes.iter().collect();
        setups.extend(measured.iter().map(|e| e.setup_s));
        report::end_to_end(&measured, &setups, peak_rss_mb())
    };
    for note in &metrics.notes {
        println!("  {note}");
    }
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics.list));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
