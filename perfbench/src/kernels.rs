//! Kernel rows: single public calls timed from outside on the workload's
//! own signed transactions, next to the end-to-end shares of the same run.

use std::hint::black_box;
use std::time::Instant;

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::prelude::Transaction;
use tn_crypto::{verify_batch, BatchItem};

use crate::stats::median;
use crate::workload::replica;

/// Timed passes per kernel; the row is their median.
const PASSES: usize = 7;

/// Per-transaction cost of each kernel, µs.
#[derive(Debug, Clone, Copy)]
pub struct KernelRows {
    pub verify_us: f64,
    pub batch_verify_us_per_tx: f64,
    pub sha256_us_per_tx: f64,
    pub decode_us_per_tx: f64,
}

fn per_tx_us(n: usize, mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .collect();
    median(&times)
}

/// Times `Transaction::verify`, `verify_batch` at the replica's block
/// size, `Transaction::id` and `Transaction::from_bytes` on `txs`.
pub fn measure(txs: &[Transaction]) -> KernelRows {
    let bytes: Vec<Vec<u8>> = txs.iter().map(Encodable::to_bytes).collect();
    let items: Vec<BatchItem> = txs
        .iter()
        .map(|tx| {
            let digest = Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
            (tx.pubkey, digest, tx.signature)
        })
        .collect();
    KernelRows {
        verify_us: per_tx_us(txs.len(), || {
            for tx in txs {
                assert!(black_box(tx).verify().is_ok(), "stream signatures verify");
            }
        }),
        batch_verify_us_per_tx: per_tx_us(items.len(), || {
            for (i, chunk) in items.chunks(replica::MAX_BATCH).enumerate() {
                let seed = (i as u64).to_be_bytes();
                assert!(
                    verify_batch(black_box(chunk), &seed),
                    "stream batch verifies"
                );
            }
        }),
        sha256_us_per_tx: per_tx_us(txs.len(), || {
            for tx in txs {
                black_box(black_box(tx).id());
            }
        }),
        decode_us_per_tx: per_tx_us(bytes.len(), || {
            for b in &bytes {
                let tx = Transaction::from_bytes(black_box(b)).expect("stream bytes decode");
                black_box(tx);
            }
        }),
    }
}
