//! Turns episodes into the named metrics of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tn_telemetry::Snapshot;

use crate::episode::EpisodeOut;
use crate::kernels::KernelRows;
use crate::spans::{layer_ns, Layer, Span};
use crate::stats::{better_quantile, better_quartile, median, ratio, samples_needed, Sample};

/// Projections whose per-block apply time is reported.
const PROJECTIONS: [&str; 4] = ["supplychain", "identity", "factdb", "headlines"];

/// Span names whose latency is reported as p50 and p99 (µs).
const READ_CALLS: [(&str, &str); 6] = [
    ("store.tx_location", "store.tx_location_us"),
    ("store.block", "store.block_us"),
    ("store.receipts_of", "store.receipts_us"),
    ("store.account_txs", "store.account_txs_us"),
    ("graph.trace_back", "graph.trace_back_us"),
    ("ranking.lookup", "ranking.lookup_us"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order, plus notes printed beside them.
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Pushes quantile `q` of `sample`; without enough samples beyond it
    /// the value is still pushed (a metric must be present) and a note
    /// says it breaks the sample-count rule.
    fn quantile(&mut self, name: &str, sample: &Sample, q: f64, unit: &'static str) {
        let value = sample.quantile(q).unwrap_or_else(|| {
            self.notes.push(format!(
                "{name}: only {} samples, {} needed to report this percentile",
                sample.len(),
                samples_needed(q)
            ));
            sample.quantile_unchecked(q).unwrap_or(0.0)
        });
        self.notes.push(format!("{name}: n = {}", sample.len()));
        self.push(name, value, unit);
    }
}

/// Summed histogram (count, sum) and counters over several snapshots.
#[derive(Debug, Default)]
struct RegistrySum {
    hist: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl RegistrySum {
    fn add(&mut self, snap: &Snapshot) {
        for (name, h) in &snap.histograms {
            let e = self.hist.entry(name.clone()).or_default();
            e.0 += h.count;
            e.1 += h.sum;
        }
        for (name, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
    }

    fn sum(&self, name: &str) -> f64 {
        self.hist.get(name).map_or(0.0, |h| h.1 as f64)
    }

    fn count(&self, name: &str) -> f64 {
        self.hist.get(name).map_or(0.0, |h| h.0 as f64)
    }

    fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name), self.count(name))
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Latency pooled over episodes.
fn pooled(episodes: &[&EpisodeOut], pick: impl Fn(&EpisodeOut) -> &Sample) -> Sample {
    let mut all = Sample::default();
    for e in episodes {
        all.extend(pick(e));
    }
    all
}

/// Committed writes per wall-second of one episode.
fn write_tps(e: &EpisodeOut) -> f64 {
    ratio(e.writes_committed as f64, e.write_window_s)
}

fn median_of(episodes: &[&EpisodeOut], f: impl Fn(&EpisodeOut) -> f64) -> f64 {
    let values: Vec<f64> = episodes.iter().map(|e| f(e)).collect();
    median(&values)
}

/// How far toward the better side per-reopen times are read: their 10th
/// percentile.
const NEAR_BEST: f64 = 0.1;

impl Metrics {
    /// Each episode's quantile `q`, then their better (lower) quartile
    /// over episodes. Falls back to the pooled sample when an episode is
    /// too small for this percentile.
    fn episode_quantile(
        &mut self,
        name: &str,
        episodes: &[&EpisodeOut],
        pick: fn(&EpisodeOut) -> &Sample,
        q: f64,
        unit: &'static str,
    ) {
        let per: Option<Vec<f64>> = episodes.iter().map(|e| pick(e).quantile(q)).collect();
        match per {
            Some(values) if !values.is_empty() => {
                let n: usize = episodes.iter().map(|e| pick(e).len()).sum();
                self.notes.push(format!(
                    "{name}: lower quartile of {} episodes, n = {n}",
                    values.len()
                ));
                self.push(name, better_quartile(&values, false), unit);
            }
            _ => self.quantile(name, &pooled(episodes, pick), q, unit),
        }
    }
}

/// Latency limits the p99s are held to; the run prints the share of
/// operations that met them. A failed operation misses both.
const WRITE_LIMIT_MS: f64 = 50.0;
const READ_LIMIT_US: f64 = 20_000.0;

/// The end-to-end metrics over `episodes` (all of them untraced);
/// `setups` holds every set-up time measured in the run.
pub fn end_to_end(episodes: &[&EpisodeOut], setups: &[f64], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", median(setups), "s");
    m.episode_quantile("write_p50_ms", episodes, |e| &e.write_ms, 0.5, "ms");
    m.episode_quantile("write_p99_ms", episodes, |e| &e.write_ms, 0.99, "ms");
    let rates: Vec<f64> = episodes.iter().map(|e| write_tps(e)).collect();
    m.push("write_tps", better_quartile(&rates, true), "1/s");
    let writes = pooled(episodes, |e| &e.write_ms);
    m.notes.push(format!(
        "writes within the {WRITE_LIMIT_MS} ms limit: {:.2}% of {}",
        writes.share_within(WRITE_LIMIT_MS) * 100.0,
        writes.len()
    ));
    let reads = pooled(episodes, |e| &e.read_us);
    m.notes.push(format!(
        "reads within the {READ_LIMIT_US} us limit: {:.2}% of {}",
        reads.share_within(READ_LIMIT_US) * 100.0,
        reads.len()
    ));
    // The read median is reported per layer (see `read_median`).
    m.episode_quantile("read_p99_us", episodes, |e| &e.read_us, 0.99, "us");
    // Ordering plus every batch's apply, checkpoints included.
    let sync: Vec<f64> = episodes
        .iter()
        .map(|e| ratio(e.replica_applied as f64, e.sync_window_s))
        .collect();
    m.push("sync_tps", better_quartile(&sync, true), "1/s");
    // Per reopen rather than per episode: a run holds a few episodes but
    // five reopens each, so the estimate can lean further to the
    // undisturbed side.
    let reopens: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.recover_s.iter().copied())
        .collect();
    m.push(
        "recover_s",
        better_quantile(&reopens, NEAR_BEST, false),
        "s",
    );
    m.push("bytes_per_tx", median_of(episodes, |e| e.bytes_per_tx), "B");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// The read median, as a per-layer metric. Three reads in five are article
/// ranks of a few microseconds, so the median tracks cache state more
/// than any layer's cost.
pub fn read_median(episodes: &[&EpisodeOut]) -> Metrics {
    let mut m = Metrics::default();
    m.episode_quantile("read_p50_us", episodes, |e| &e.read_us, 0.5, "us");
    m
}

/// Per-layer detail accumulated over the traced episodes.
#[derive(Debug, Default)]
pub struct Layers {
    by_name: BTreeMap<&'static str, Sample>,
    layer_ns: BTreeMap<Layer, u64>,
    busy_ns: u64,
    commit: RegistrySum,
    replica: RegistrySum,
    gen_late_ms: Sample,
    lane_wait_ms: Sample,
    offered: u64,
    shed: u64,
    drained: u64,
    rejected: u64,
    blocks: u64,
    block_txs: u64,
    window_hits: u64,
    locations: u64,
    order_ns: Vec<f64>,
    delivered: u64,
    payloads: u64,
    batches: u64,
    view_changes: u64,
    replica_applied: u64,
    replica_blocks: u64,
    committed: u64,
}

impl Layers {
    /// Adds one traced episode and its spans.
    pub fn add(&mut self, e: &EpisodeOut, spans: &[Span]) {
        for s in spans {
            self.by_name
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
        }
        for (layer, ns) in layer_ns(spans) {
            *self.layer_ns.entry(layer).or_default() += ns;
        }
        self.busy_ns += e.busy_ns;
        for (sum, snap) in [
            (&mut self.commit, &e.commit_registry),
            (&mut self.replica, &e.replica_registry),
        ] {
            if let Some(snap) = snap {
                sum.add(snap);
            }
        }
        self.gen_late_ms.extend(&e.gen_late_ms);
        self.lane_wait_ms.extend(&e.lane_wait_ms);
        self.offered += e.offered;
        self.shed += e.shed;
        self.drained += e.drained;
        self.rejected += e.rejected;
        self.blocks += e.blocks;
        self.block_txs += e.block_txs;
        self.committed += e.writes_committed;
        self.window_hits += e.window_hits;
        self.locations += e.locations;
        self.order_ns.push(e.order_ns as f64);
        self.delivered += e.delivered;
        self.payloads += e.payloads;
        self.batches += e.batches;
        self.view_changes += e.view_changes;
        self.replica_applied += e.replica_applied;
        self.replica_blocks += e.replica_blocks;
    }

    fn span_sum_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, Sample::sum)
    }

    /// True once every reported percentile has enough samples.
    pub fn enough(&self) -> bool {
        let need = samples_needed(0.99);
        READ_CALLS
            .iter()
            .all(|(span, _)| self.by_name.get(span).map_or(0, Sample::len) >= need)
            && self.lane_wait_ms.len() >= need
            && self.gen_late_ms.len() >= need
    }

    /// Each charged layer's share of the benchmark's busy time.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let busy = self.busy_ns as f64;
        let mut out: Vec<(&'static str, f64)> = Layer::CHARGED
            .iter()
            .map(|l| {
                let ns = self.layer_ns.get(l).copied().unwrap_or(0) as f64;
                (l.name(), ratio(ns, busy))
            })
            .collect();
        let charged: f64 = out.iter().map(|(_, s)| s).sum();
        out.push(("unattributed", 1.0 - charged));
        out
    }

    /// The per-layer metrics.
    pub fn metrics(&self, kernels: &KernelRows, error_rate: f64, overhead: [f64; 3]) -> Metrics {
        let mut m = Metrics::default();
        // tn-gateway
        m.push(
            "gateway.offer_us",
            ratio(self.span_sum_us("gateway.offer"), self.offered as f64),
            "us",
        );
        m.quantile("gateway.lane_wait_ms_p50", &self.lane_wait_ms, 0.5, "ms");
        m.quantile("gateway.lane_wait_ms_p99", &self.lane_wait_ms, 0.99, "ms");
        m.push(
            "gateway.shed_ratio",
            ratio(self.shed as f64, self.offered as f64),
            "ratio",
        );
        // tn-chain mempool admission
        m.push(
            "admission.us_per_tx",
            ratio(self.span_sum_us("gateway.drain_into"), self.drained as f64),
            "us",
        );
        m.push(
            "mempool.reject_ratio",
            ratio(self.rejected as f64, self.drained as f64),
            "ratio",
        );
        let hit = self.commit.counter("chain.sigcache.hit");
        let miss = self.commit.counter("chain.sigcache.miss");
        m.push("chain.sigcache.hit_ratio", ratio(hit, hit + miss), "ratio");
        // tn-core pipeline and tn-node
        let commit_us = self.span_sum_us("node.produce_block");
        m.push(
            "commit.us_per_tx",
            ratio(commit_us, self.block_txs as f64),
            "us",
        );
        m.push(
            "commit.us_per_block",
            ratio(commit_us, self.blocks as f64),
            "us",
        );
        m.push(
            "block.txs_mean",
            ratio(self.block_txs as f64, self.blocks as f64),
            "count",
        );
        m.push(
            "pipeline.commit_ns",
            self.commit.mean("pipeline.commit_ns"),
            "ns",
        );
        m.push("chain.import_ns", self.commit.mean("chain.import_ns"), "ns");
        m.push("chain.verify_ns", self.commit.mean("chain.verify_ns"), "ns");
        let commit_sum = self.commit.sum("pipeline.commit_ns");
        m.push(
            "propose_share",
            ratio(
                commit_sum
                    - self.commit.sum("chain.import_ns")
                    - self.commit.sum("chain.checkpoint_ns"),
                commit_sum,
            ),
            "ratio",
        );
        // tn-contracts and projections
        m.push(
            "contracts.exec_ns",
            self.commit.mean("contracts.exec_ns"),
            "ns",
        );
        m.push(
            "contracts.gas_per_tx",
            ratio(
                self.commit.counter("contracts.gas_total"),
                self.committed as f64,
            ),
            "gas",
        );
        for p in PROJECTIONS {
            let name = format!("chain.projection.{p}.apply_ns");
            let v = self.commit.mean(&name);
            m.push(name, v, "ns");
        }
        // tn-crypto and codec kernel rows
        m.push("crypto.verify_us", kernels.verify_us, "us");
        m.push(
            "crypto.batch_verify_us_per_tx",
            kernels.batch_verify_us_per_tx,
            "us",
        );
        m.push("crypto.sha256_us_per_tx", kernels.sha256_us_per_tx, "us");
        m.push("codec.decode_us_per_tx", kernels.decode_us_per_tx, "us");
        // store reads, tn-supplychain
        let empty = Sample::default();
        for (span, name) in READ_CALLS {
            let s = self.by_name.get(span).unwrap_or(&empty);
            m.quantile(&format!("{name}_p50"), s, 0.5, "us");
            m.quantile(&format!("{name}_p99"), s, 0.99, "us");
        }
        m.push(
            "store.window_hit_ratio",
            ratio(self.window_hits as f64, self.locations as f64),
            "ratio",
        );
        // tn-storage (disk replica)
        m.push(
            "storage.append_ns",
            self.replica.mean("storage.append_ns"),
            "ns",
        );
        m.push(
            "storage.fsync_ns",
            self.replica.mean("storage.fsync_ns"),
            "ns",
        );
        m.push(
            "storage.snapshot_ns",
            self.replica.mean("storage.snapshot_ns"),
            "ns",
        );
        m.push(
            "storage.wal_bytes_per_tx",
            ratio(
                self.replica.counter("storage.wal.bytes"),
                self.replica_applied as f64,
            ),
            "B",
        );
        m.push(
            "storage.fsyncs_per_block",
            ratio(
                self.replica.count("storage.fsync_ns"),
                self.replica_blocks as f64,
            ),
            "count",
        );
        m.push(
            "replica.us_per_tx",
            ratio(
                self.span_sum_us("replica.apply_committed_batch"),
                self.replica_applied as f64,
            ),
            "us",
        );
        // tn-consensus
        m.push("consensus.order_ms", median(&self.order_ns) / 1e6, "ms");
        m.push(
            "consensus.msgs_per_tx",
            ratio(self.delivered as f64, self.payloads as f64),
            "count",
        );
        m.push(
            "consensus.batch_txs_mean",
            ratio(self.payloads as f64, self.batches as f64),
            "count",
        );
        m.push("consensus.view_changes", self.view_changes as f64, "count");
        // recovery
        m.push(
            "recovery.reopen_ms",
            ratio(
                self.span_sum_us("node.reopen") / 1e3,
                self.by_name.get("node.reopen").map_or(0, Sample::len) as f64,
            ),
            "ms",
        );
        // the benchmark itself
        m.quantile("bench.gen_late_p99_ms", &self.gen_late_ms, 0.99, "ms");
        for (layer, share) in self.shares() {
            let name = if layer == "unattributed" {
                "bench.unattributed_share".to_string()
            } else {
                format!("share.{layer}")
            };
            m.push(name, share, "ratio");
        }
        m.push("error_rate", error_rate, "ratio");
        m.push("overhead.write_p50_ms", overhead[0], "ms");
        m.push("overhead.read_p50_us", overhead[1], "us");
        m.push("overhead.write_tps", overhead[2], "1/s");
        m
    }

    /// Human-readable attribution: charged layers, then the commit
    /// layer's registry breakdown.
    pub fn attribution(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution {workload}: busy {:.1} ms over the traced episodes",
            self.busy_ns as f64 / 1e6
        );
        for (layer, share) in self.shares() {
            let _ = writeln!(out, "  {layer:<14} {:>6.2}%", share * 100.0);
        }
        let busy = self.busy_ns as f64;
        let _ = writeln!(out, "  inside commit (node registry, share of busy):");
        for name in [
            "pipeline.commit_ns",
            "chain.import_ns",
            "chain.verify_ns",
            "contracts.exec_ns",
            "chain.checkpoint_ns",
            "storage.append_ns",
        ] {
            let _ = writeln!(
                out,
                "    {name:<34} {:>6.2}%",
                ratio(self.commit.sum(name), busy) * 100.0
            );
        }
        for p in PROJECTIONS {
            let name = format!("chain.projection.{p}.apply_ns");
            let _ = writeln!(
                out,
                "    {name:<34} {:>6.2}%",
                ratio(self.commit.sum(&name), busy) * 100.0
            );
        }
        let _ = writeln!(out, "  inside replica (replica registry, share of busy):");
        for name in [
            "storage.append_ns",
            "storage.fsync_ns",
            "storage.snapshot_ns",
        ] {
            let _ = writeln!(
                out,
                "    {name:<34} {:>6.2}%",
                ratio(self.replica.sum(name), busy) * 100.0
            );
        }
        out
    }
}

/// Traced − untraced end-to-end medians: write p50 (ms), read p50 (µs),
/// write rate (1/s).
pub fn overhead(untraced: &[&EpisodeOut], traced: &[&EpisodeOut]) -> [f64; 3] {
    let p50 = |eps: &[&EpisodeOut], pick: fn(&EpisodeOut) -> &Sample| {
        median_of(eps, |e| pick(e).quantile_unchecked(0.5).unwrap_or(0.0))
    };
    [
        p50(traced, |e| &e.write_ms) - p50(untraced, |e| &e.write_ms),
        p50(traced, |e| &e.read_us) - p50(untraced, |e| &e.read_us),
        median_of(traced, write_tps) - median_of(untraced, write_tps),
    ]
}
