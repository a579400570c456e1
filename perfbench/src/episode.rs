//! One episode: set up fresh nodes, replay the workload on the wall clock,
//! replicate what committed, kill and reopen the replica, and check it all.
//!
//! ## Timing model
//!
//! Events run in the order of their due times on one thread: request
//! arrivals from the seeded schedule, ingest ticks every `Spec::ingest_ns`
//! (`Gateway::drain_into`) and block ticks every `Spec::block_ns` (one
//! `produce_block_from_mempool`). An event runs at its due time, or at
//! once when the server is behind, so a slow call delays every later
//! request. Latency is measured from the due time, not from when the
//! benchmark got round to the request, so the generator's own lateness is
//! included. Which block each write lands in depends only on the schedule
//! — never on the wall clock — so every episode of a seed commits the same
//! blocks and reports the same execution digest, traced or not.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tn_chain::codec::Encodable;
use tn_chain::prelude::Transaction;
use tn_consensus::harness::order_payloads_pbft_faulted;
use tn_consensus::{FaultPlan, NetworkConfig, PbftConfig};
use tn_contracts::RankingContract;
use tn_core::platform::PlatformConfig;
use tn_crypto::{Address, Hash256};
use tn_gateway::gateway::{AdmitVerdict, Gateway};
use tn_monitor::MonitorConfig;
use tn_node::validator::{encode_payloads, BatchOutcome, ValidatorNode};
use tn_storage::BackendKind;
use tn_telemetry::{Registry, Snapshot};

use crate::spans::{Layer, Tracer};
use crate::stats::Sample;
use crate::workload::{replica, Inputs, Op, ReadKind, Spec};

/// PBFT simulation horizon, in simulation ticks; far beyond the last
/// commit of any stream the benchmark orders.
const PBFT_MAX_TIME: u64 = 50_000_000;

/// Times the killed replica is reopened per episode.
const REOPENS: usize = 5;

/// Largest block the serving node produces (the replica's batch size).
const BLOCK_MAX: usize = replica::MAX_BATCH;

/// Setup transactions per pre-applied block.
const SETUP_CHUNK: usize = 64;

/// A committed transaction a reader may ask about.
#[derive(Debug, Clone, Copy)]
struct Receipted {
    id: Hash256,
    height: u64,
    index: u32,
}

/// What the benchmark saw one node commit.
#[derive(Debug, Default)]
struct Ledger {
    /// Setup transactions (registrations, newsroom, seed articles).
    setup: Vec<Receipted>,
    /// Each writer's latest committed stream write.
    latest: HashMap<Address, Receipted>,
    /// The latest committed stream write of anyone.
    last_stream: Option<Receipted>,
    block_at: HashMap<u64, Hash256>,
    /// Committed transactions per sender.
    sent: HashMap<Address, usize>,
    /// Heights the episode's stream committed at, in order.
    stream_heights: Vec<u64>,
}

impl Ledger {
    fn record_head(
        &mut self,
        node: &ValidatorNode,
        stream: bool,
        ids: impl Fn(usize, &Transaction) -> Hash256,
    ) {
        let head = node.pipeline().store().head();
        let height = head.header.height;
        self.block_at.insert(height, node.head_id());
        for (index, tx) in head.transactions.iter().enumerate() {
            let receipted = Receipted {
                id: ids(index, tx),
                height,
                index: index as u32,
            };
            if stream {
                self.latest.insert(tx.from, receipted);
                self.last_stream = Some(receipted);
            } else {
                self.setup.push(receipted);
            }
            *self.sent.entry(tx.from).or_default() += 1;
        }
    }
}

/// Benchmark-side counts and registry deltas of one episode.
#[derive(Debug, Default)]
pub struct EpisodeOut {
    pub traced: bool,
    pub setup_s: f64,
    /// Door-to-commit latency per write, ms (`+∞` when it never commits).
    pub write_ms: Sample,
    /// Due-to-served latency per read, µs (`+∞` when it fails).
    pub read_us: Sample,
    pub writes_committed: u64,
    /// From the first write due to the last write committed.
    pub write_window_s: f64,
    /// Transactions the disk replica applied.
    pub replica_applied: u64,
    /// From the start of ordering to the last batch applied.
    pub sync_window_s: f64,
    /// `ValidatorNode::reopen` times, one per reopen.
    pub recover_s: Vec<f64>,
    pub bytes_per_tx: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time the benchmark was not waiting for a due time.
    pub busy_ns: u64,
    /// Share of the front door's wall time the server was busy.
    pub utilization: f64,
    // Traced-only detail.
    pub gen_late_ms: Sample,
    pub lane_wait_ms: Sample,
    pub offered: u64,
    pub shed: u64,
    pub drained: u64,
    pub rejected: u64,
    pub blocks: u64,
    pub block_txs: u64,
    pub window_hits: u64,
    pub locations: u64,
    pub order_ns: u64,
    pub delivered: u64,
    pub payloads: u64,
    pub batches: u64,
    pub view_changes: u64,
    /// Registry delta of the serving node (always set by [`run`]).
    pub commit_registry: Option<Snapshot>,
    /// Registry delta of the disk replica (always set by [`run`]).
    pub replica_registry: Option<Snapshot>,
    pub replica_blocks: u64,
    pub serving_digest: Hash256,
    pub replica_digest: Hash256,
}

/// Correctness failures; any entry fails the run.
pub type Failures = Vec<String>;

/// Spins until `at` and returns the time the benchmark resumed; the wait is
/// added to `idle`. Spinning rather than sleeping keeps the scheduler's
/// wake-up delay out of the generator's lateness.
fn wait_until(at: Instant, idle: &mut Duration) -> Instant {
    let entered = Instant::now();
    if entered >= at {
        return entered;
    }
    let mut now = entered;
    while now < at {
        std::hint::spin_loop();
        now = Instant::now();
    }
    *idle += now - entered;
    now
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Pre-applies the setup prefix in `SETUP_CHUNK`-tx blocks, the way a
/// replica applies consensus-committed batches.
fn apply_setup(
    node: &mut ValidatorNode,
    setup: &[Transaction],
    ledger: &mut Ledger,
    failures: &mut Failures,
) -> Result<(), String> {
    for chunk in setup.chunks(SETUP_CHUNK) {
        let out = node
            .apply_committed_batch(&encode_payloads(chunk))
            .map_err(|e| format!("setup batch: {e}"))?;
        check_outcome(&out, chunk.len(), "setup", failures);
        ledger.record_head(node, false, |_, tx| tx.id());
    }
    Ok(())
}

fn check_outcome(out: &BatchOutcome, expected: usize, what: &str, failures: &mut Failures) {
    if out.included != expected || out.dropped != 0 || out.undecodable != 0 || out.failed != 0 {
        failures.push(format!(
            "{what} block {}: {} of {expected} included, {} dropped, {} undecodable, {} failed",
            out.height, out.included, out.dropped, out.undecodable, out.failed
        ));
    }
}

/// Disk-replica configuration rooted at `dir`.
fn replica_config(base: &PlatformConfig, dir: &Path) -> PlatformConfig {
    let mut config = base.clone();
    config.storage.backend = BackendKind::Disk(dir.to_path_buf());
    config.storage.retention = replica::RETENTION;
    config.storage.fsync_interval = replica::FSYNC_INTERVAL;
    config.storage.checkpoint_interval = replica::CHECKPOINT_INTERVAL;
    config
}

/// Seed-article ids in a fixed order; Zipf picks index into it.
fn catalogue(node: &ValidatorNode) -> Vec<Hash256> {
    let mut ids: Vec<Hash256> = node
        .pipeline()
        .graph()
        .iter()
        .filter(|item| !item.is_fact_root)
        .map(|item| item.id)
        .collect();
    ids.sort();
    ids
}

fn ranking(node: &ValidatorNode) -> &RankingContract {
    node.pipeline()
        .registry()
        .builtin(&node.pipeline().addrs().ranking)
        .and_then(|b| b.as_any().downcast_ref())
        .expect("ranking builtin installed")
}

/// Serves one read against `node`; `Err` is a failed read, and a wrong
/// answer is also recorded in `failures`.
#[allow(clippy::too_many_arguments)]
fn serve_read(
    node: &ValidatorNode,
    ledger: &Ledger,
    inputs: &Inputs,
    articles: &[Hash256],
    op: Op,
    request: u64,
    tracer: &mut Tracer,
    out: &mut EpisodeOut,
    failures: &mut Failures,
) -> Result<(), ()> {
    let Op::Read {
        kind,
        pick,
        article,
    } = op
    else {
        unreachable!("serve_read takes reads");
    };
    let store = node.pipeline().store();
    let parent = tracer.reserve_id();
    let start = Instant::now();
    let result = match kind {
        ReadKind::Receipt => {
            // A writer checks the receipt of its latest committed write
            // (of anyone's, if it has none yet; of a setup transaction
            // before the first stream write commits).
            let writer = inputs.accounts[(pick * inputs.accounts.len() as f64) as usize];
            let target = ledger
                .latest
                .get(&writer)
                .copied()
                .or(ledger.last_stream)
                .unwrap_or_else(|| ledger.setup[(pick * ledger.setup.len() as f64) as usize]);
            let loc = tracer.call("store.tx_location", Layer::Reads, parent, request, || {
                store.tx_location(&target.id)
            });
            match loc {
                Some(loc) if loc.height == target.height && loc.index == target.index => {
                    if tracer.enabled() {
                        out.locations += 1;
                        if loc.height > store.storage().finalized_height() {
                            out.window_hits += 1;
                        }
                    }
                    let bid = ledger.block_at[&loc.height];
                    let block = tracer.call("store.block", Layer::Reads, parent, request, || {
                        store.block(&bid)
                    });
                    let receipts =
                        tracer.call("store.receipts_of", Layer::Reads, parent, request, || {
                            store.receipts_of(&bid)
                        });
                    match (block, receipts) {
                        (Some(b), Some(r))
                            if b.header.height == loc.height
                                && r.get(loc.index as usize)
                                    .is_some_and(|r| r.tx_id == target.id && r.success) =>
                        {
                            Ok(())
                        }
                        _ => {
                            failures.push(format!(
                                "receipt of {} at height {} does not read back",
                                target.id.to_hex(),
                                loc.height
                            ));
                            Err(())
                        }
                    }
                }
                other => {
                    failures.push(format!(
                        "tx_location of {} is {other:?}, the benchmark saw it commit at ({}, {})",
                        target.id.to_hex(),
                        target.height,
                        target.index
                    ));
                    Err(())
                }
            }
        }
        ReadKind::Account => {
            let account = inputs.accounts[(pick * inputs.accounts.len() as f64) as usize];
            let txs = tracer.call("store.account_txs", Layer::Reads, parent, request, || {
                store.account_txs(&account)
            });
            let sent = ledger.sent.get(&account).copied().unwrap_or(0);
            if txs.len() >= sent {
                Ok(())
            } else {
                failures.push(format!(
                    "account_txs returned {} txs for an account that sent {sent}",
                    txs.len()
                ));
                Err(())
            }
        }
        ReadKind::Rank => {
            let id = articles[article % articles.len()];
            let trace = tracer.call("graph.trace_back", Layer::Reads, parent, request, || {
                node.pipeline().graph().trace_back(&id)
            });
            let contract = ranking(node);
            let rank = tracer.call("ranking.lookup", Layer::Reads, parent, request, || {
                contract.ranking(&id)
            });
            std::hint::black_box(rank);
            match trace {
                Ok(_) => Ok(()),
                Err(e) => {
                    failures.push(format!("trace_back of a seed article failed: {e}"));
                    Err(())
                }
            }
        }
    };
    let name = match kind {
        ReadKind::Receipt => "read.receipt",
        ReadKind::Account => "read.account",
        ReadKind::Rank => "read.rank",
    };
    tracer.record_reserved(parent, name, request, start);
    result
}

/// Freshly set-up nodes of one episode.
struct Nodes {
    serving: ValidatorNode,
    gateway: Gateway,
    serving_ledger: Ledger,
    replica_node: ValidatorNode,
}

/// Everything `setup_s` times: `ValidatorNode::new` and the setup prefix
/// for the serving node (with its monitor and gateway) and for the disk
/// replica.
fn set_up(
    inputs: &Inputs,
    replica_cfg: &PlatformConfig,
    failures: &mut Failures,
) -> Result<Nodes, String> {
    let mut serving = ValidatorNode::new(0, &inputs.config);
    let mut serving_ledger = Ledger::default();
    apply_setup(&mut serving, &inputs.setup, &mut serving_ledger, failures)?;
    serving.enable_monitor(&MonitorConfig::default());
    let gateway = Gateway::new(&inputs.config.gateway).map_err(|e| e.to_string())?;
    let mut replica_node = ValidatorNode::new(1, replica_cfg);
    apply_setup(
        &mut replica_node,
        &inputs.setup,
        &mut Ledger::default(),
        failures,
    )?;
    Ok(Nodes {
        serving,
        gateway,
        serving_ledger,
        replica_node,
    })
}

fn replica_dir(scratch: &Path) -> PathBuf {
    scratch.join(format!("replica-{}", std::process::id()))
}

/// Sets up an episode's nodes and drops them; returns the set-up time.
///
/// # Errors
///
/// As [`run`].
pub fn setup_only(
    inputs: &Inputs,
    scratch: &Path,
    failures: &mut Failures,
) -> Result<f64, String> {
    let dir = replica_dir(scratch);
    let _ = std::fs::remove_dir_all(&dir);
    let config = replica_config(&inputs.config, &dir);
    let start = Instant::now();
    let nodes = set_up(inputs, &config, failures)?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(nodes);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(elapsed)
}

/// Runs one episode of `spec`.
///
/// # Errors
///
/// A node error the workload should never provoke.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Result<EpisodeOut, String> {
    let traced = tracer.enabled();
    let mut out = EpisodeOut {
        traced,
        ..EpisodeOut::default()
    };
    let replica_dir = replica_dir(scratch);
    let _ = std::fs::remove_dir_all(&replica_dir);
    let replica_cfg = replica_config(&inputs.config, &replica_dir);

    let setup_start = Instant::now();
    let Nodes {
        serving: mut node,
        gateway: mut gw,
        mut serving_ledger,
        mut replica_node,
    } = set_up(inputs, &replica_cfg, failures)?;
    out.setup_s = setup_start.elapsed().as_secs_f64();
    let serving_base = node.metrics_snapshot();
    let replica_base = replica_node.metrics_snapshot();

    // --- front door: open-loop writes and reads ----------------------------
    let mut stream_payloads: Vec<Vec<u8>> = Vec::new();
    let articles = catalogue(&node);
    let mut due_of = vec![0u64; inputs.writes.len()];
    for (due, op) in &inputs.schedule {
        if let Op::Write(w) = op {
            due_of[*w] = *due;
        }
    }
    let first_due = due_of.iter().copied().min().unwrap_or(0);
    let mut aborted = std::collections::HashSet::new();
    let mut committed = vec![false; inputs.writes.len()];
    let mut pending: Vec<Instant> = Vec::new();
    let mut idle = Duration::ZERO;
    let mut last_commit = None;
    let mut admitted = 0u64;
    let mut next_ingest = spec.ingest_ns;
    let mut next_block = spec.block_ns;
    let mut tick_no = 0u64;
    let mut stuck = 0u32;
    let t0 = Instant::now();
    let mut i = 0;
    loop {
        if i < inputs.schedule.len() && inputs.schedule[i].0 <= next_ingest.min(next_block) {
            let (due, op) = inputs.schedule[i];
            let request = i as u64;
            i += 1;
            let due_at = t0 + Duration::from_nanos(due);
            let now = wait_until(due_at, &mut idle);
            if traced {
                out.gen_late_ms.push(ms(now - due_at));
            }
            out.attempted += 1;
            match op {
                Op::Write(w) => {
                    let write = &inputs.writes[w];
                    if aborted.contains(&write.client) {
                        out.failed += 1;
                        continue;
                    }
                    out.offered += 1;
                    let tx = write.tx.clone();
                    let verdict =
                        tracer.call("gateway.offer", Layer::Gateway, 0, request, || {
                            gw.offer(write.client, tx, due)
                        });
                    if verdict == AdmitVerdict::Admitted {
                        admitted += 1;
                        if traced {
                            pending.push(now);
                        }
                    } else {
                        out.shed += 1;
                        out.failed += 1;
                        aborted.insert(write.client);
                    }
                }
                Op::Read { .. } => {
                    let served = serve_read(
                        &node,
                        &serving_ledger,
                        inputs,
                        &articles,
                        op,
                        request,
                        tracer,
                        &mut out,
                        failures,
                    );
                    match served {
                        Ok(()) => out
                            .read_us
                            .push((Instant::now() - due_at).as_secs_f64() * 1e6),
                        Err(()) => {
                            out.failed += 1;
                            out.read_us.push(f64::INFINITY);
                        }
                    }
                }
            }
            continue;
        }
        if i == inputs.schedule.len() && gw.queued() == 0 && node.mempool().is_empty() {
            break;
        }
        tick_no += 1;
        if next_ingest <= next_block {
            wait_until(t0 + Duration::from_nanos(next_ingest), &mut idle);
            next_ingest += spec.ingest_ns;
            if gw.queued() > 0 {
                let start = Instant::now();
                let report =
                    tracer.call("gateway.drain_into", Layer::Admission, 0, tick_no, || {
                        gw.drain_into(&mut node)
                    });
                out.drained += report.ingested as u64;
                out.rejected += report.rejected as u64;
                if traced {
                    let moved = report.ingested.min(pending.len());
                    for offered_at in pending.drain(..moved) {
                        out.lane_wait_ms.push(ms(start - offered_at));
                    }
                }
            }
            continue;
        }
        wait_until(t0 + Duration::from_nanos(next_block), &mut idle);
        next_block += spec.block_ns;
        if node.mempool().is_empty() {
            continue;
        }
        let produced = tracer.call("node.produce_block", Layer::Commit, 0, tick_no, || {
            node.produce_block_from_mempool(BLOCK_MAX)
        });
        match produced.map_err(|e| format!("produce: {e}"))? {
            Some(block) => {
                let now = Instant::now();
                stuck = 0;
                out.blocks += 1;
                out.block_txs += block.included as u64;
                check_outcome(&block, block.included, "stream", failures);
                let mut ids = Vec::with_capacity(block.included);
                for tx in &node.pipeline().store().head().transactions {
                    let Some(&w) = inputs.by_key.get(&(tx.from, tx.nonce)) else {
                        failures
                            .push("a block holds a transaction the stream never sent".into());
                        continue;
                    };
                    committed[w] = true;
                    ids.push(inputs.writes[w].id);
                    let due_at = t0 + Duration::from_nanos(due_of[w]);
                    out.write_ms.push(ms(now - due_at));
                }
                out.writes_committed += ids.len() as u64;
                serving_ledger.record_head(&node, true, |index, _| ids[index]);
                serving_ledger.stream_heights.push(block.height);
                last_commit = Some(now);
            }
            None => {
                stuck += 1;
                if stuck > 2 && i == inputs.schedule.len() && gw.queued() == 0 {
                    break;
                }
            }
        }
    }
    let end = Instant::now();
    let busy = (end - t0).saturating_sub(idle);
    out.busy_ns += busy.as_nanos() as u64;
    out.utilization = busy.as_secs_f64() / (end - t0).as_secs_f64();
    if let Some(last) = last_commit {
        out.write_window_s = (last - (t0 + Duration::from_nanos(first_due))).as_secs_f64();
    }
    // Writes admitted but never committed (mempool rejections) and
    // writes shed or aborted all miss every latency limit.
    for _ in committed.iter().filter(|c| !**c) {
        out.write_ms.push(f64::INFINITY);
    }
    out.failed += out.rejected;

    // Conservation.
    let stats = *gw.stats();
    let aborted_writes = inputs.writes.len() as u64 - out.offered;
    if stats.offered != out.offered
        || stats.offered != stats.admitted + stats.shed_rate_limit + stats.shed_queue_full
        || admitted != stats.admitted
        || stats.admitted != out.writes_committed + out.rejected
        || out.writes_committed + out.rejected + out.shed + aborted_writes
            != inputs.writes.len() as u64
    {
        failures.push(format!(
            "conservation: offered {} admitted {} shed {} committed {} rejected {} aborted {aborted_writes}",
            stats.offered, stats.admitted, out.shed, out.writes_committed, out.rejected
        ));
    }
    let stranded = gw.queued() + node.mempool().len();
    if stranded != 0 {
        failures.push(format!("{stranded} transactions stranded at shutdown"));
    }
    out.serving_digest = node.execution_digest();
    out.commit_registry = Some(node.metrics_snapshot().delta(&serving_base));
    let store = node.pipeline().store();
    for height in &serving_ledger.stream_heights {
        let block = store
            .block(&serving_ledger.block_at[height])
            .ok_or("a committed block is missing")?;
        stream_payloads.extend(block.transactions.iter().map(Encodable::to_bytes));
    }

    // --- replica: PBFT ordering, disk apply, kill, reopen ------------------
    let sync_start = Instant::now();
    let registry = Registry::new();
    let net = NetworkConfig {
        base_latency: replica::BASE_LATENCY,
        jitter: replica::JITTER,
        drop_prob: 0.0,
        seed,
    };
    let pbft = PbftConfig {
        max_batch: replica::MAX_BATCH,
        batch_delay: replica::BATCH_DELAY,
        ..PbftConfig::default()
    };
    let order_start = Instant::now();
    let ordering = tracer.call("consensus.order", Layer::Consensus, 0, 0, || {
        order_payloads_pbft_faulted(
            replica::VALIDATORS,
            &stream_payloads,
            0,
            net,
            PBFT_MAX_TIME,
            &pbft,
            &FaultPlan::default(),
            &[registry.sink()],
            &[],
        )
    })?;
    out.order_ns = order_start.elapsed().as_nanos() as u64;
    let batches = &ordering.views[0];
    let ordered: usize = batches.iter().map(Vec::len).sum();
    if ordered != stream_payloads.len() || ordering.views.iter().any(|v| v != batches) {
        failures.push(format!(
            "PBFT ordered {ordered} of {} payloads or replicas disagree",
            stream_payloads.len()
        ));
    }
    out.delivered = ordering.delivered;
    out.payloads = stream_payloads.len() as u64;
    out.batches = batches.len() as u64;
    out.view_changes = ordering.final_views.iter().copied().max().unwrap_or(0);
    let mut last_apply = sync_start;
    for (b, batch) in batches.iter().enumerate() {
        let applied = tracer.call(
            "replica.apply_committed_batch",
            Layer::Replica,
            0,
            b as u64,
            || replica_node.apply_committed_batch(batch),
        );
        let outcome = applied.map_err(|e| format!("replica apply: {e}"))?;
        last_apply = Instant::now();
        check_outcome(&outcome, batch.len(), "replica", failures);
        out.replica_applied += outcome.included as u64;
        out.replica_blocks += 1;
    }
    out.sync_window_s = (last_apply - sync_start).as_secs_f64();
    out.busy_ns += (last_apply - sync_start).as_nanos() as u64;
    out.replica_digest = replica_node.execution_digest();
    let replica_height = replica_node.height();
    let total_txs = (inputs.setup.len() as u64 + out.replica_applied).max(1);
    out.bytes_per_tx = dir_bytes(&replica_dir) as f64 / total_txs as f64;
    let mut replica_registry = replica_node.metrics_snapshot().delta(&replica_base);
    let mut consensus = registry.snapshot();
    consensus.retain_metrics(|name| name.starts_with("pbft."));
    replica_registry.counters.extend(consensus.counters);
    out.replica_registry = Some(replica_registry);
    drop(replica_node); // killed: no shutdown checkpoint

    // Reopen the same directory several times: one reopen is tens of
    // milliseconds, too short to time alone.
    let mut replayed = Vec::with_capacity(REOPENS);
    for r in 0..REOPENS {
        let reopen_start = Instant::now();
        let reopened = tracer.call("node.reopen", Layer::Recovery, 0, r as u64, || {
            ValidatorNode::reopen(1, &replica_cfg)
        });
        let reopen_end = Instant::now();
        let (replica, tail) = reopened.map_err(|e| format!("reopen: {e}"))?;
        out.recover_s
            .push((reopen_end - reopen_start).as_secs_f64());
        out.busy_ns += (reopen_end - reopen_start).as_nanos() as u64;
        if replica.execution_digest() != out.replica_digest || replica.height() != replica_height
        {
            failures.push("reopened replica digest differs from the killed replica's".into());
        }
        replayed.push(tail);
    }
    if replayed.iter().any(|&t| t != replayed[0]) {
        failures.push(format!(
            "reopens replayed different WAL tails: {replayed:?}"
        ));
    }
    let _ = std::fs::remove_dir_all(&replica_dir);
    Ok(out)
}
