//! Fuzz-style property tests over every untrusted-input surface: decoding
//! arbitrary bytes and executing arbitrary bytecode must never panic —
//! they return errors. A public blockchain platform feeds attacker-
//! controlled bytes into all of these paths.

use std::collections::BTreeSet;

use proptest::prelude::*;

use tn_chain::block::Block;
use tn_chain::codec::{Decodable, Decoder};
use tn_chain::transaction::Transaction;
use tn_contracts::builtin::{
    ranking_set_policy, ranking_submit, BuiltinContract, DefensePolicy, RankingContract,
};
use tn_contracts::vm::{execute, validate, ExecEnv};
use tn_core::roles::IdentityRecord;
use tn_crypto::{Address, Keypair};
use tn_factdb::record::FactRecord;
use tn_supplychain::index::NewsEvent;

fn ranking_owner() -> Address {
    Keypair::from_seed(b"fuzz ranking owner").address()
}

fn ranking_stranger() -> Address {
    Keypair::from_seed(b"fuzz ranking stranger").address()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn transaction_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Transaction::from_bytes(&bytes);
    }

    #[test]
    fn block_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Block::from_bytes(&bytes);
    }

    #[test]
    fn news_event_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = NewsEvent::from_bytes(&bytes);
    }

    #[test]
    fn fact_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FactRecord::from_bytes(&bytes);
    }

    #[test]
    fn identity_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = IdentityRecord::from_bytes(&bytes);
    }

    #[test]
    fn decoder_primitives_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut d = Decoder::new(&bytes);
        let _ = d.get_varint();
        let _ = d.get_bytes();
        let _ = d.get_str();
        let _ = d.get_hash();
        let _ = d.get_u64();
        let _ = d.get_bool();
    }

    #[test]
    fn vm_validate_never_panics(code in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = validate(&code);
    }

    #[test]
    fn vm_execute_validated_code_never_panics(
        code in proptest::collection::vec(0u8..=24, 0..128),
        input in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        // Arbitrary opcode soup: if it validates, it must execute without
        // panicking under a gas cap (returning Ok or a VmError).
        if validate(&code).is_ok() {
            let mut storage = std::collections::BTreeMap::new();
            let env = ExecEnv { caller: 7, input, gas_limit: 5_000 };
            let _ = execute(&code, &mut storage, &env);
        }
    }

    #[test]
    fn signed_tx_roundtrip_is_total(nonce in any::<u64>(), fee in any::<u64>(),
                                    data in proptest::collection::vec(any::<u8>(), 0..128)) {
        use tn_chain::codec::Encodable;
        use tn_chain::transaction::Payload;
        use tn_crypto::Keypair;
        let kp = Keypair::from_seed(b"fuzz roundtrip");
        let tx = Transaction::signed(&kp, nonce, fee, Payload::Blob { tag: 1, data });
        let decoded = Transaction::from_bytes(&tx.to_bytes()).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &tx);
        prop_assert!(decoded.verify().is_ok());
    }

    #[test]
    fn similarity_is_total_on_arbitrary_text(a in "\\PC{0,200}", b in "\\PC{0,200}") {
        let s = tn_supplychain::text::similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        let m = tn_supplychain::text::modification_degree(&a, &b);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&m));
    }

    #[test]
    fn lexicon_extraction_is_total(text in "\\PC{0,300}") {
        let f = tn_aidetect::lexicon::LexiconFeatures::extract(&text);
        let score = f.heuristic_score();
        prop_assert!((0.0..=1.0).contains(&score));
    }

    /// Arbitrary bytes after each defense op byte (4–10), sent to the
    /// ranking contract by its owner or by a stranger, with or without an
    /// active policy, never panic: every call returns `Ok` or `Err`. Half
    /// the calls lead with a known 32-byte operand (the stranger's address,
    /// or for op 7 the item both callers rated) so grants, bonds and
    /// slashes actually land. After every call, free + bonded over every
    /// address that was granted stake, plus the treasury, equals the sum
    /// of the grants that succeeded.
    #[test]
    fn ranking_defense_ops_never_panic_and_conserve_stake(
        calls in proptest::collection::vec(
            ((4u8..=10, any::<bool>()), (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..80))),
            1..64,
        ),
        with_policy in any::<bool>(),
    ) {
        let owner = ranking_owner();
        let stranger = ranking_stranger();
        let rated = tn_crypto::sha256::sha256(b"fuzz rated item");
        let mut contract = RankingContract::new(owner);
        if with_policy {
            let policy = DefensePolicy { min_bond: 10, decay_bps: 5_000, slash_bps: 5_000 };
            contract.call(&owner, &ranking_set_policy(&policy)).expect("owner sets policy");
        }
        contract.call(&owner, &ranking_submit(&rated, 90)).expect("valid rating");
        contract.call(&stranger, &ranking_submit(&rated, 10)).expect("valid rating");

        let mut holders: BTreeSet<Address> = [owner, stranger].into_iter().collect();
        let mut granted: u128 = 0;
        for ((op, by_owner), (known_operand, tail)) in calls {
            let caller = if by_owner { owner } else { stranger };
            let mut input = vec![op];
            if known_operand {
                let operand = if op == 7 { rated } else { *stranger.as_hash() };
                input.extend_from_slice(operand.as_bytes());
            }
            input.extend_from_slice(&tail);
            let result = contract.call(&caller, &input);
            if op == 5 && result.is_ok() {
                let mut dec = Decoder::new(&input[1..]);
                holders.insert(Address::from_hash(dec.get_hash().expect("granted")));
                granted += dec.get_u64().expect("granted") as u128;
            }
            let held: u128 = holders
                .iter()
                .map(|who| {
                    let (free, bonded) = contract.stake(who);
                    free as u128 + bonded as u128
                })
                .sum();
            prop_assert_eq!(held + contract.treasury() as u128, granted);
        }
    }

    /// A checkpoint blob of arbitrary bytes is rejected without panicking
    /// and without touching the contract.
    #[test]
    fn ranking_load_state_rejects_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut contract = RankingContract::new(ranking_owner());
        let before = contract.save_state();
        prop_assert!(contract.load_state(&bytes).is_err());
        prop_assert_eq!(contract.save_state(), before);
    }
}
