//! The workloads: their fixed parameters and their seeded inputs.
//!
//! Inputs are generated outside every timed metric: `build_workload` runs
//! a whole scripted `Platform` session and the committed ledger becomes
//! the request stream, so every write is valid signed platform traffic.
//! The seed is the only input the benchmark takes; the program under test
//! only ever sees the generated transactions.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tn_chain::prelude::Transaction;
use tn_core::platform::PlatformConfig;
use tn_crypto::{Address, Hash256};
use tn_gateway::loadgen::{build_workload, schedule, LoadProfile, RequestKind};

/// Fixed parameters of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Poisson request rate (writes + reads), requests per second.
    pub request_rate: f64,
    /// Reads in one episode's stream.
    pub reads: usize,
    /// Every write is due at t = 0 (reads keep their Poisson due times).
    pub writes_at_zero: bool,
    /// Interval between ingest ticks (`Gateway::drain_into`).
    pub ingest_ns: u64,
    /// Interval between block ticks (one `produce_block_from_mempool`).
    /// Ticks due in the past run back to back, so the intervals only pace
    /// an idle server.
    pub block_ns: u64,
}

/// Ledger writes in one episode's stream: E21's full-size stream.
pub const WRITES: usize = 3000;

/// E21's reads per stream: one read to three writes. Each episode's reads
/// alone give a p99 with ten samples beyond it.
const E21_READS: usize = 1000;

/// `ingest`'s reads per stream: one read to each write. A read's p99 is
/// the rare read that lands behind a multi-write ingest chunk or a receipt
/// check, so with E21's 1000 reads an episode's p99 rested on its ten
/// worst reads: across ten seeds `read_p99_us` spread by up to 0.30 of its
/// median. 3000 reads put thirty beyond it. Eight reads in ten cost a few
/// microseconds, so the server stays under a third busy.
const INGEST_READS: usize = 3000;

/// The kinds reads rotate through: three article ranks, one receipt check
/// and one account history in every five. E21's reads are all article
/// fetches; the receipt checks and account histories are added so the
/// store's read calls are measured too, often enough that a traced
/// `ingest` run within its time limit gives each call's p99 its samples.
const READ_CYCLE: [ReadKind; 5] = [
    ReadKind::Rank,
    ReadKind::Receipt,
    ReadKind::Rank,
    ReadKind::Account,
    ReadKind::Rank,
];

/// The replica stage every episode ends with: the episode's committed
/// writes are ordered by a fault-free PBFT simulation and applied by one
/// disk-backed replica with a cold signature cache, which is then killed,
/// reopened and digest-checked.
pub mod replica {
    /// PBFT validators in the ordering simulation.
    pub const VALIDATORS: usize = 4;
    /// PBFT batch size; also the replica's block size.
    pub const MAX_BATCH: usize = 256;
    /// Primary batching delay, simulation ticks.
    pub const BATCH_DELAY: u64 = 20;
    /// One-way network delay and jitter, simulation ticks.
    pub const BASE_LATENCY: u64 = 10;
    pub const JITTER: u64 = 5;
    /// Appends per fsync on the replica (every block is made durable).
    pub const FSYNC_INTERVAL: u64 = 1;
    /// Blocks per checkpoint on the replica.
    pub const CHECKPOINT_INTERVAL: u64 = 4;
    /// Replica in-memory retention window, blocks.
    pub const RETENTION: u64 = 8;
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "ingest",
        request_rate: INGEST_RATE,
        reads: INGEST_READS,
        writes_at_zero: false,
        ingest_ns: 2_000_000,
        block_ns: 10_000_000,
    },
    Spec {
        name: "burst",
        request_rate: 2000.0,
        reads: E21_READS,
        writes_at_zero: true,
        ingest_ns: 1_000_000,
        block_ns: 1_000_000,
    },
];

/// `ingest`'s request rate: 300 writes/s and 300 reads/s.
const INGEST_RATE: f64 = 600.0;

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The three kinds of read a user makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// A writer checks the receipt of one of the committed writes:
    /// `tx_location`, then `block`, then `receipts_of`.
    Receipt,
    /// `account_txs` of a writer account.
    Account,
    /// An article's provenance and crowd rank: `trace_back` + `ranking`.
    Rank,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Index into [`Inputs::writes`].
    Write(usize),
    /// A read; `pick` chooses its target among what exists when served.
    Read {
        kind: ReadKind,
        pick: f64,
        article: usize,
    },
}

/// One write of the stream.
#[derive(Debug, Clone)]
pub struct Write {
    pub client: u64,
    pub tx: Transaction,
    pub id: Hash256,
}

/// Everything one episode replays, identical for every episode of a run.
#[derive(Debug)]
pub struct Inputs {
    pub config: PlatformConfig,
    /// Registrations, newsroom and seed articles, pre-applied in setup.
    pub setup: Vec<Transaction>,
    pub writes: Vec<Write>,
    /// `(due_ns, op)` in due order.
    pub schedule: Vec<(u64, Op)>,
    /// Writer accounts, for `account_txs` reads.
    pub accounts: Vec<Address>,
    /// `(sender, nonce)` → index into `writes`.
    pub by_key: HashMap<(Address, u64), usize>,
}

/// The `n`-th read of the fixed kind cycle, so the seed cannot move the
/// mix.
fn read_op(rng: &mut StdRng, n: usize, article: usize) -> Op {
    let kind = READ_CYCLE[n % READ_CYCLE.len()];
    Op::Read {
        kind,
        pick: rng.gen::<f64>(),
        article,
    }
}

/// Generates the workload's inputs from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut config = PlatformConfig::default();
    // Loose limits: nothing sheds at the seed, so the gateway's cost is
    // its bookkeeping, not its verdicts.
    config.gateway.rate_per_client = 1_000_000;
    config.gateway.burst_per_client = 1_000_000;
    config.gateway.queue_capacity = WRITES;
    // E21's population and persona mix: Zipf s = 1, 20% bots.
    let profile = LoadProfile {
        write_events: WRITES,
        read_events: spec.reads,
        seed,
        ..LoadProfile::default()
    };
    let wl = build_workload(&config, &profile);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);
    let arrivals = schedule(&wl, spec.request_rate, seed);
    let mut writes = Vec::new();
    let mut ops: Vec<Op> = Vec::with_capacity(wl.requests.len());
    for req in &wl.requests {
        match &req.kind {
            RequestKind::Write(tx) => {
                ops.push(Op::Write(writes.len()));
                writes.push(Write {
                    client: req.client,
                    tx: tx.as_ref().clone(),
                    id: tx.id(),
                });
            }
            RequestKind::Read { article } => {
                let n = ops.len() - writes.len();
                ops.push(read_op(&mut rng, n, *article));
            }
        }
    }
    let mut schedule: Vec<(u64, Op)> = arrivals
        .iter()
        .map(|a| (a.at_ns, ops[a.index]))
        .collect();
    if spec.writes_at_zero {
        for (due, op) in &mut schedule {
            if matches!(op, Op::Write(_)) {
                *due = 0;
            }
        }
        // Stable: writes keep their stream (nonce) order at t = 0.
        schedule.sort_by_key(|(due, _)| *due);
    }
    let mut seen = HashSet::new();
    let accounts = writes
        .iter()
        .map(|w| w.tx.from)
        .filter(|a| seen.insert(*a))
        .collect();
    let by_key = writes
        .iter()
        .enumerate()
        .map(|(i, w)| ((w.tx.from, w.tx.nonce), i))
        .collect();
    Inputs {
        config,
        setup: wl.setup,
        writes,
        schedule,
        accounts,
        by_key,
    }
}
