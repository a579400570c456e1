//! Property tests for the participant defenses. Stake, bonds, slashing,
//! reputation decay and the quarantine weight gate have one
//! implementation, the on-chain `RankingContract`, so they are tested on
//! the contract itself through `BuiltinContract::call` (the executor's
//! entry point), and once through `Platform` transactions. The host-side
//! `f64` Beta reputation run by the E2/E13/E14 simulations keeps its own
//! decay properties.

use proptest::prelude::*;

use tn_contracts::builtin::{
    ranking_grant_stake, ranking_post_bond, ranking_quarantine, ranking_record_outcome,
    ranking_set_policy, ranking_set_reputation, ranking_submit, BuiltinContract, DefensePolicy,
    RankingContract, DEFAULT_REPUTATION, REPUTATION_CAP, REPUTATION_STEP_DOWN, REPUTATION_STEP_UP,
};
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crowdrank::reputation::{Reputation, ReputationLedger};
use tn_crypto::{Address, Hash256, Keypair};

fn addr(i: u8) -> Address {
    Keypair::from_seed(&[b'd', b'p', i]).address()
}

fn owner() -> Address {
    Keypair::from_seed(b"dp owner").address()
}

fn item(i: u8) -> Hash256 {
    let mut bytes = [0u8; 32];
    bytes[0] = i;
    bytes[31] = 0xe2;
    Hash256::from_bytes(bytes)
}

const POLICY: DefensePolicy = DefensePolicy {
    min_bond: 50,
    decay_bps: 9_000,
    slash_bps: 2_500,
};

/// Half the draws below `small`, half anywhere in `u64` (where grants
/// and bonds overflow or overdraw).
fn amount(small: u64) -> impl Strategy<Value = u64> {
    (any::<bool>(), any::<u64>()).prop_map(move |(low, x)| if low { x % small } else { x })
}

/// Free + bonded stake of every address in `who`, plus the treasury.
fn circulating(contract: &RankingContract, who: &[Address]) -> u128 {
    let held: u128 = who
        .iter()
        .map(|a| {
            let (free, bonded) = contract.stake(a);
            free as u128 + bonded as u128
        })
        .sum();
    held + contract.treasury() as u128
}

/// A contract with `POLICY` active where rater `i` was granted 1000,
/// bonded `bonds[i]` (a zero bond is not posted) and holds reputation
/// `reputations[i]`.
fn bonded_contract(bonds: &[u64], reputations: &[u64]) -> RankingContract {
    let mut c = RankingContract::new(owner());
    let mut owner_call = |input: Vec<u8>| c.call(&owner(), &input).expect("owner op");
    owner_call(ranking_set_policy(&POLICY));
    for (i, rep) in reputations.iter().enumerate() {
        owner_call(ranking_grant_stake(&addr(i as u8), 1_000));
        owner_call(ranking_set_reputation(&addr(i as u8), *rep));
    }
    for (i, bond) in bonds.iter().enumerate().filter(|(_, b)| **b > 0) {
        c.call(&addr(i as u8), &ranking_post_bond(*bond))
            .expect("bond <= grant");
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every granted token stays in exactly one of {free, bonded,
    /// treasury} through arbitrary grant / bond / rate / outcome / policy
    /// sequences, including calls that fail (stranger grants, overdrawn
    /// or overflowing bonds, zero amounts). The test keeps the sum of
    /// successful grants itself; the contract stores no minted total.
    #[test]
    fn stake_is_conserved_under_arbitrary_ops(
        ops in proptest::collection::vec(
            ((0u8..5, 0u8..6), amount(400), (0u8..3, any::<bool>())),
            1..128,
        ),
    ) {
        let raters: Vec<Address> = (0u8..6).map(addr).collect();
        let mut contract = RankingContract::new(owner());
        let mut granted: u128 = 0;
        for ((op, who), amount, (it, flag)) in ops {
            let rater = raters[who as usize];
            match op {
                0 => {
                    let caller = if flag { owner() } else { rater };
                    if contract.call(&caller, &ranking_grant_stake(&rater, amount)).is_ok() {
                        granted += amount as u128;
                    }
                }
                1 => {
                    let _ = contract.call(&rater, &ranking_post_bond(amount));
                }
                2 => {
                    let treasury = contract.treasury();
                    let _ = contract.call(&owner(), &ranking_record_outcome(&item(it), flag));
                    prop_assert!(contract.treasury() >= treasury);
                }
                3 => {
                    let policy = DefensePolicy {
                        min_bond: amount % 500,
                        decay_bps: amount % 12_000,
                        slash_bps: (amount / 7) % 12_000,
                    };
                    let caller = if flag { owner() } else { rater };
                    let _ = contract.call(&caller, &ranking_set_policy(&policy));
                }
                _ => {
                    let score = (amount % 101) as u8;
                    let _ = contract.call(&rater, &ranking_submit(&item(it), score));
                }
            }
            prop_assert_eq!(circulating(&contract, &raters), granted);
        }
    }

    /// A contract holding the quarantined raters' ratings reports the same
    /// weighted mean as a contract that never received them, for every
    /// item with an unquarantined, bonded rater — after outcomes decayed
    /// reputations and slashed bonds on both. A quarantined rater's new
    /// submission fails without touching the contract state.
    #[test]
    fn quarantined_votes_never_move_the_aggregate_digest(
        ratings in proptest::collection::vec((0u8..8, 0u8..5, 0u8..=100), 1..64),
        quarantine_mask in 0u8..=255,
        bonds in proptest::collection::vec(0u64..200, 8),
        reputations in proptest::collection::vec(0u64..2_000, 8),
        outcomes in proptest::collection::vec((0u8..5, any::<bool>()), 0..8),
    ) {
        let quarantined = |i: u8| quarantine_mask & (1 << i) != 0;
        let mut full = bonded_contract(&bonds, &reputations);
        let mut stripped = bonded_contract(&bonds, &reputations);
        for (who, it, score) in &ratings {
            let input = ranking_submit(&item(*it), *score);
            full.call(&addr(*who), &input).expect("not yet quarantined");
            if !quarantined(*who) {
                stripped.call(&addr(*who), &input).expect("never quarantined");
            }
        }
        for c in [&mut full, &mut stripped] {
            for i in (0u8..8).filter(|i| quarantined(*i)) {
                c.call(&owner(), &ranking_quarantine(&addr(i))).expect("owner quarantines");
            }
            for (it, factual) in &outcomes {
                c.call(&owner(), &ranking_record_outcome(&item(*it), *factual))
                    .expect("owner records outcomes");
            }
        }

        for it in 0u8..5 {
            let counted = ratings.iter().any(|(who, rated, _)| {
                *rated == it
                    && !full.is_quarantined(&addr(*who))
                    && full.stake(&addr(*who)).1 >= POLICY.min_bond
            });
            if counted {
                prop_assert_eq!(full.ranking(&item(it)).1, stripped.ranking(&item(it)).1);
            }
        }
        for i in (0u8..8).filter(|i| quarantined(*i)) {
            let before = full.save_state();
            prop_assert!(full.call(&addr(i), &ranking_submit(&item(0), 99)).is_err());
            prop_assert_eq!(full.save_state(), before);
        }
    }

    /// One recorded outcome first pulls a reputation `r` toward the prior
    /// (`decay_bps` of the deviation is kept, capped at 100 %), then
    /// steps it up for agreement or down for contradiction. A neutral
    /// score (50) leaves it untouched.
    #[test]
    fn contract_decay_is_a_contraction_toward_prior(
        r in amount(2_000),
        decay_bps in any::<u64>(),
        score in 0u8..=100,
        factual in any::<bool>(),
    ) {
        let rater = addr(1);
        let mut c = RankingContract::new(owner());
        let policy = DefensePolicy { min_bond: 0, decay_bps, slash_bps: 0 };
        c.call(&owner(), &ranking_set_policy(&policy)).expect("owner sets policy");
        c.call(&owner(), &ranking_set_reputation(&rater, r)).expect("owner sets reputation");
        c.call(&rater, &ranking_submit(&item(0), score)).expect("valid score");
        c.call(&owner(), &ranking_record_outcome(&item(0), factual)).expect("owner records");
        // With `min_bond` 0 and no quarantine, the vote weight is the
        // reputation itself.
        let updated = c.vote_weight(&rater);

        if score == 50 {
            prop_assert_eq!(updated, r);
            return Ok(());
        }
        let (lo, hi) = (r.min(DEFAULT_REPUTATION), r.max(DEFAULT_REPUTATION));
        let (lo, hi) = if (score > 50) == factual {
            (
                (lo + REPUTATION_STEP_UP).min(REPUTATION_CAP),
                hi.saturating_add(REPUTATION_STEP_UP).min(REPUTATION_CAP),
            )
        } else {
            (
                lo.saturating_sub(REPUTATION_STEP_DOWN),
                hi.saturating_sub(REPUTATION_STEP_DOWN),
            )
        };
        prop_assert!(
            (lo..=hi).contains(&updated),
            "r={} decay_bps={}: {} outside [{}, {}]",
            r, decay_bps, updated, lo, hi
        );
    }

    /// Decay with a factor in (0, 1] never moves the posterior weight
    /// away from the 0.5 prior, and never manufactures evidence.
    #[test]
    fn decay_is_a_contraction_toward_prior(
        outcomes in proptest::collection::vec(any::<bool>(), 0..64),
        factor in 0.01f64..=1.0,
    ) {
        let mut rep = Reputation::default();
        for correct in outcomes {
            rep.record(correct);
        }
        let before_weight = rep.weight();
        let before_evidence = rep.evidence();
        rep.decay(factor).expect("factor in range");
        prop_assert!(
            (rep.weight() - 0.5).abs() <= (before_weight - 0.5).abs() + 1e-12,
            "decay moved weight away from the prior: {before_weight} -> {}",
            rep.weight()
        );
        prop_assert!(rep.evidence() <= before_evidence + 1e-12);
        prop_assert!(rep.alpha >= 1.0 - 1e-12 && rep.beta >= 1.0 - 1e-12);
    }

    /// Decay composes multiplicatively, so the order of decay rounds is
    /// irrelevant: f1 then f2 lands (up to float rounding) exactly where
    /// f2 then f1 and the single combined factor land.
    #[test]
    fn decay_rounds_are_order_independent(
        records in proptest::collection::vec((0u8..6, any::<bool>()), 0..64),
        f1 in 0.05f64..=1.0,
        f2 in 0.05f64..=1.0,
    ) {
        let mut ledger = ReputationLedger::new();
        for (who, correct) in &records {
            ledger.record(&addr(*who), *correct);
        }
        let mut ab = ledger.clone();
        let mut ba = ledger.clone();
        let mut combined = ledger.clone();
        ab.decay_all(f1).expect("f1 in range");
        ab.decay_all(f2).expect("f2 in range");
        ba.decay_all(f2).expect("f2 in range");
        ba.decay_all(f1).expect("f1 in range");
        combined.decay_all(f1 * f2).expect("product in range");
        for i in 0u8..6 {
            let who = addr(i);
            let w_ab = ab.weight(&who);
            let w_ba = ba.weight(&who);
            let w_c = combined.weight(&who);
            prop_assert!((w_ab - w_ba).abs() < 1e-9, "order mattered: {w_ab} vs {w_ba}");
            prop_assert!((w_ab - w_c).abs() < 1e-9, "composition broke: {w_ab} vs {w_c}");
        }
    }

    /// A decay factor outside (0, 1] is a typed error and leaves the
    /// ledger untouched.
    #[test]
    fn bad_decay_factor_is_rejected_without_mutation(
        records in proptest::collection::vec((0u8..4, any::<bool>()), 1..32),
        choice in 0u8..6,
        overshoot in 1.0001f64..1000.0,
    ) {
        let factor = match choice {
            0 => 0.0,
            1 => -1.0,
            2 => 1.0 + 1e-9,
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => overshoot,
        };
        let mut ledger = ReputationLedger::new();
        for (who, correct) in &records {
            ledger.record(&addr(*who), *correct);
        }
        let before: Vec<f64> = (0u8..4).map(|i| ledger.weight(&addr(i))).collect();
        prop_assert!(ledger.decay_all(factor).is_err());
        let after: Vec<f64> = (0u8..4).map(|i| ledger.weight(&addr(i))).collect();
        prop_assert_eq!(before, after);
    }
}

/// The same defenses driven by signed transactions through `Platform`:
/// the committed contract state equals the state the direct calls
/// produce, stake is conserved, and the quarantined rater moves neither
/// the ranking nor (with a new submission) the contract state.
#[test]
fn platform_ops_drive_the_same_contract() {
    let mut p = Platform::new(PlatformConfig::default());
    let governor = p.governor_address();
    let raters: Vec<Keypair> = (0u8..4)
        .map(|i| Keypair::from_seed(&[b'd', b'p', b'k', i]))
        .collect();
    for (i, kp) in raters.iter().enumerate() {
        p.register_identity(kp, &format!("Rater {i}"), &[Role::Consumer])
            .unwrap();
    }
    p.produce_block().unwrap();

    // Every op goes to the platform and, as a direct call, to a contract
    // that sees all of them and to one that never sees the ring rater's
    // ratings. Each phase commits in its own block.
    let ring = 2usize;
    // The last bond overdraws and fails. Rating `i` is by rater `i % 4`,
    // on item 0 for `i < 3`, else item 1.
    let bonds = [100u64, 100, 100, 500];
    let scores = [80u8, 75, 10, 90, 35, 20, 85];
    let mut direct_full = RankingContract::new(governor);
    let mut direct_stripped = RankingContract::new(governor);
    let mut both = |caller: &Address, input: &[u8], strip: bool| {
        let _ = direct_full.call(caller, input);
        if !strip {
            let _ = direct_stripped.call(caller, input);
        }
    };

    p.set_ranking_policy(&POLICY).unwrap();
    both(&governor, &ranking_set_policy(&POLICY), false);
    for kp in &raters {
        p.grant_ranking_stake(&kp.address(), 200).unwrap();
        both(&governor, &ranking_grant_stake(&kp.address(), 200), false);
    }
    p.produce_block().unwrap();
    for (kp, bond) in raters.iter().zip(bonds) {
        p.post_ranking_bond(kp, bond).unwrap();
        both(&kp.address(), &ranking_post_bond(bond), false);
    }
    p.produce_block().unwrap();
    for (i, score) in scores.into_iter().enumerate() {
        let (kp, it) = (&raters[i % raters.len()], item(u8::from(i >= 3)));
        p.submit_rating(kp, &it, score).unwrap();
        let input = ranking_submit(&it, score);
        both(&kp.address(), &input, i % raters.len() == ring);
    }
    p.produce_block().unwrap();
    let ring_addr = raters[ring].address();
    p.quarantine_rater(&ring_addr).unwrap();
    both(&governor, &ranking_quarantine(&ring_addr), false);
    p.produce_block().unwrap();
    for (it, factual) in [(0u8, true), (1, false)] {
        p.record_rating_outcome(&item(it), factual).unwrap();
        let input = ranking_record_outcome(&item(it), factual);
        both(&governor, &input, false);
    }
    p.produce_block().unwrap();

    let onchain = p.ranking_contract();
    assert_eq!(onchain.save_state(), direct_full.save_state());
    let addrs: Vec<Address> = raters.iter().map(Keypair::address).collect();
    assert_eq!(circulating(onchain, &addrs), 4 * 200);
    assert!(
        onchain.treasury() > 0,
        "contradicted bonded raters were slashed"
    );
    for it in 0u8..2 {
        assert_eq!(
            onchain.ranking(&item(it)).1,
            direct_stripped.ranking(&item(it)).1
        );
    }

    // A quarantined rater's rating commits as a failed call and leaves
    // the contract untouched.
    let before = onchain.save_state();
    p.submit_rating(&raters[ring], &item(0), 99).unwrap();
    p.produce_block().unwrap();
    assert_eq!(p.ranking_contract().save_state(), before);
}
