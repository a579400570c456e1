//! Property tests for batched Schnorr verification on the import path.
//!
//! The contract under test (E22): the batched random-linear-combination
//! signature check is a pure performance optimisation — for **every**
//! worker-pool size × batch chunk size, accept/reject verdicts, reported
//! errors and post-import replica state are byte-identical to the
//! sequential per-transaction scan, and the Fiat–Shamir coefficients that
//! seed each batch equation are a deterministic function of block
//! contents (so replicas with different parallelism derive identical
//! equations).

use proptest::prelude::*;

use tn_chain::block::{BatchVerifyPolicy, BATCH_CHUNKS_COUNTER};
use tn_chain::prelude::*;
use tn_crypto::{batch_coefficients, BatchItem, Keypair};
use tn_par::Pool;
use tn_telemetry::TelemetrySink;
use tn_trace::{replica_span_id, TraceId, TraceSink, Tracer};

fn block_with_txs(count: usize, signers: usize) -> Block {
    let proposer = Keypair::from_seed(b"batch proposer");
    let keys: Vec<Keypair> = (0..signers.max(1))
        .map(|i| Keypair::from_seed(format!("batch signer {i}").as_bytes()))
        .collect();
    let txs: Vec<Transaction> = (0..count)
        .map(|i| {
            Transaction::signed(
                &keys[i % keys.len()],
                i as u64,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![i as u8, (i >> 8) as u8],
                },
            )
        })
        .collect();
    Block::build(
        &proposer,
        1,
        tn_crypto::sha256::sha256(b"parent"),
        tn_crypto::sha256::sha256(b"state"),
        1000,
        txs,
    )
}

/// Re-roots and re-signs a block after its transactions were mutated, so
/// only the per-transaction signatures are invalid.
fn reseal(block: &mut Block) {
    block.header.tx_root = Block::compute_tx_root(&block.transactions);
    block.signature = Keypair::from_seed(b"batch proposer").sign(&block.header.digest());
}

fn verdict_with(
    block: &Block,
    workers: usize,
    policy: BatchVerifyPolicy,
) -> Result<(), ChainError> {
    block.verify_structure_policy(
        &Pool::new(workers),
        None,
        &TelemetrySink::disabled(),
        &TraceSink::disabled(),
        0,
        policy,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Valid blocks (any size, any signer diversity) are accepted by every
    /// pool × chunk configuration — batching never rejects a valid block.
    #[test]
    fn valid_blocks_accepted_at_every_configuration(
        count in 0usize..48,
        signers in 1usize..6,
        workers in 1usize..6,
        chunk in 1usize..64,
    ) {
        let block = block_with_txs(count, signers);
        prop_assert_eq!(block.verify_structure(), Ok(()));
        let policy = BatchVerifyPolicy { enabled: true, chunk };
        prop_assert_eq!(verdict_with(&block, workers, policy), Ok(()));
    }

    /// Corrupting any subset of signatures yields exactly the sequential
    /// scan's lowest-index error for every pool × chunk configuration —
    /// the batch fallback preserves first-error localization.
    #[test]
    fn corrupted_blocks_report_the_sequential_first_error(
        corrupt_raw in proptest::collection::vec(0usize..32, 1..5),
        workers in 1usize..6,
        chunk in 1usize..64,
    ) {
        let corrupt: std::collections::BTreeSet<usize> = corrupt_raw.into_iter().collect();
        let mut block = block_with_txs(32, 3);
        for (k, &idx) in corrupt.iter().enumerate() {
            if k % 2 == 0 {
                block.transactions[idx].fee ^= 1; // BadSignature
            } else {
                block.transactions[idx].from = Keypair::from_seed(b"eve").address(); // AddressMismatch
            }
        }
        reseal(&mut block);
        let seq = block.verify_structure();
        prop_assert!(seq.is_err());
        // The sequential verdict is the per-tx scan's first error.
        let first_bad = *corrupt.iter().min().unwrap();
        prop_assert_eq!(&seq, &block.transactions[first_bad].verify());
        let policy = BatchVerifyPolicy { enabled: true, chunk };
        prop_assert_eq!(&verdict_with(&block, workers, policy), &seq);
    }

    /// The Fiat–Shamir coefficients are a pure function of the batch
    /// contents and seed: recomputing them (as another replica would)
    /// gives bit-identical values, and any content change reroutes them.
    #[test]
    fn batch_coefficients_are_replica_deterministic(
        count in 1usize..24,
        signers in 1usize..4,
        seed in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let block = block_with_txs(count, signers);
        let items: Vec<BatchItem> = block
            .transactions
            .iter()
            .map(|tx| {
                let digest =
                    Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
                (tx.pubkey, digest, tx.signature)
            })
            .collect();
        let here = batch_coefficients(&items, &seed);
        let replica = batch_coefficients(&items, &seed);
        prop_assert_eq!(&here, &replica);
        prop_assert_eq!(here.len(), items.len());
        // A different seed (e.g. another block id) must reroute them.
        let mut other_seed = seed.clone();
        other_seed.push(0x5a);
        prop_assert_ne!(&here, &batch_coefficients(&items, &other_seed));
    }
}

/// `n` one-byte blob transactions signed by `alice`, nonces `0..n`.
fn alice_blobs(alice: &Keypair, n: u64) -> Vec<Transaction> {
    let blob = |n: u64| Payload::Blob {
        tag: 1,
        data: vec![n as u8],
    };
    (0..n)
        .map(|n| Transaction::signed(alice, n, 1, blob(n)))
        .collect()
}

/// Full-store determinism: replicas importing the same blocks through any
/// batch policy × worker count end at identical head ids and state roots.
#[test]
fn replica_digests_identical_across_batch_configs() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let build = |workers: usize, policy: BatchVerifyPolicy| {
        let mut store = ChainStore::new(State::genesis([(alice.address(), 10_000)]), &proposer);
        store.set_verify_pool(Pool::new(workers));
        store.set_batch_policy(policy);
        let block = store.propose(&proposer, 10, alice_blobs(&alice, 40), &mut NoExecutor);
        store.import(block, &mut NoExecutor).expect("imports");
        (store.head_id(), store.head_state().root())
    };
    let reference = build(1, BatchVerifyPolicy::disabled());
    for workers in [1usize, 2, 8] {
        for chunk in [1usize, 7, 512] {
            let policy = BatchVerifyPolicy {
                enabled: true,
                chunk,
            };
            assert_eq!(
                build(workers, policy),
                reference,
                "workers={workers} chunk={chunk}"
            );
        }
    }
}

/// Tracing observes, it does not steer: a traced and an untraced import
/// of the same valid block both take the batch path (the same number of
/// batch chunks verified) and return the same result. The traced import
/// records one `tx.verify_batch` span per chunk under `chain.verify`, and
/// no per-transaction `tx.verify` spans.
#[test]
fn traced_import_takes_the_batch_path() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let genesis = || State::genesis([(alice.address(), 10_000)]);
    let policy = BatchVerifyPolicy {
        enabled: true,
        chunk: 8,
    };
    let txs = alice_blobs(&alice, 20);
    let block = ChainStore::new(genesis(), &proposer).propose(&proposer, 10, txs, &mut NoExecutor);

    let import = |trace: TraceSink| {
        let registry = tn_telemetry::Registry::new();
        let mut store = ChainStore::new(genesis(), &proposer);
        store.set_batch_policy(policy);
        store.set_telemetry(registry.sink());
        store.set_trace(trace);
        let result = store.import(block.clone(), &mut NoExecutor);
        let chunks = registry.snapshot().counter(BATCH_CHUNKS_COUNTER);
        (result, chunks, store.head_id())
    };
    let untraced = import(TraceSink::disabled());
    let tracer = Tracer::new(1);
    let traced = import(tracer.sink(0));
    assert!(untraced.0.is_ok());
    assert_eq!(untraced, traced);
    assert_eq!(traced.1, Some(3), "20 txs in chunks of 8");

    let trace = tracer.collect();
    assert!(trace.named("tx.verify").is_empty());
    let batches = trace.named("tx.verify_batch");
    assert_eq!(batches.len(), 3);
    let verify_span = replica_span_id(TraceId::from_seed(block.id().as_bytes()), "chain.verify", 0);
    let mut seen: Vec<(u64, u64)> = batches
        .iter()
        .map(|s| {
            assert_eq!(s.parent, verify_span);
            (s.arg("chunk").unwrap(), s.arg("txs").unwrap())
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![(0, 8), (1, 8), (2, 4)]);
}
