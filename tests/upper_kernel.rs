//! The upper-layer availability kernel against its enumeration oracle,
//! over the generated corpus.
//!
//! `NetworkModel` computes COA, availability, expected up servers and
//! quorum COA from per-tier moments in one factored pass. The exact
//! mixed-radix walk `NetworkModel::expected_reward` visits every one of
//! the `Π(countᵢ+1)` joint states; wherever that walk is affordable
//! (≤ 2²⁰ states) both must agree to 1e-12 relative (and 1e-12 absolute
//! for values above 1), on every design of every generator family over
//! several seeds.

use redeval::exec::AnalysisCache;
use redeval::scenario::generate::{self, Family, GenParams};
use redeval_avail::NetworkModel;

/// The largest joint-state count the oracle is run on.
const ORACLE_LIMIT: u64 = 1 << 20;

fn joint_states(counts: &[u32]) -> u64 {
    counts
        .iter()
        .fold(1u64, |acc, &c| acc.saturating_mul(u64::from(c) + 1))
}

/// 1e-12 relative, and never looser than 1e-12 absolute.
fn assert_close(what: &str, got: f64, want: f64) {
    let tol = 1e-12 * got.abs().max(want.abs()).min(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: kernel {got} vs enumeration {want}"
    );
}

/// Every measure the kernel produces, checked against the oracle.
fn check(what: &str, model: &NetworkModel) {
    let total = f64::from(model.total_servers());
    let up_sum = |ups: &[u32]| ups.iter().map(|&u| f64::from(u)).sum::<f64>();
    let m = model.measures().unwrap();
    let coa = model
        .expected_reward(|ups| {
            if ups.contains(&0) {
                0.0
            } else {
                up_sum(ups) / total
            }
        })
        .unwrap();
    let availability = model
        .expected_reward(|ups| f64::from(u8::from(!ups.contains(&0))))
        .unwrap();
    let expected_up = model.expected_reward(up_sum).unwrap();
    assert_close(&format!("{what} coa"), m.coa, coa);
    assert_close(
        &format!("{what} availability"),
        m.availability,
        availability,
    );
    assert_close(&format!("{what} expected up"), m.expected_up, expected_up);
    assert!(m.coa <= m.availability, "{what}: coa above availability");

    // Quorum: a majority of each tier.
    let quorum: Vec<u32> = model.tiers().iter().map(|t| t.count / 2 + 1).collect();
    let quorum_coa = model
        .expected_reward(|ups| {
            if ups.iter().zip(&quorum).any(|(u, q)| u < q) {
                0.0
            } else {
                up_sum(ups) / total
            }
        })
        .unwrap();
    assert_close(
        &format!("{what} quorum coa"),
        model.coa_with_quorum(&quorum).unwrap(),
        quorum_coa,
    );
}

#[test]
fn kernel_matches_enumeration_over_generated_corpus() {
    let cache = AnalysisCache::new();
    let mut checked = 0;
    for family in [
        Family::EcommerceFleet,
        Family::IotSwarm,
        Family::MicroserviceMesh,
    ] {
        for seed in 0..4 {
            let params = GenParams {
                tiers: 6 + seed as u32 % 3,
                redundancy: 2 + seed as u32 % 3,
                designs: 3,
                policies: 1,
            };
            let doc = generate::generate(family, &params, seed);
            let spec = doc.to_spec().unwrap();
            let analyses = cache.analyses_for(&spec).unwrap();
            for design in &doc.designs {
                if joint_states(&design.counts) > ORACLE_LIMIT {
                    continue;
                }
                let model = spec
                    .with_counts(&design.counts)
                    .unwrap()
                    .network_model(&analyses);
                check(&format!("{} {}", doc.name, design.name), &model);
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 36,
        "only {checked} designs under the oracle limit"
    );
}

/// The all-6 design of `redeval gen ecommerce_fleet --seed 0 --tiers 8
/// --redundancy 6`: summing each tier's up-states gives `P(up ≥ 1)` a
/// hair above 1 and `availability = 1.0000000000000002`; the kernel's
/// clamped complement keeps it a probability.
#[test]
fn all_six_fleet_design_stays_a_probability() {
    let params = GenParams {
        tiers: 8,
        redundancy: 6,
        ..GenParams::default()
    };
    let doc = generate::generate(Family::EcommerceFleet, &params, 0);
    let spec = doc.to_spec().unwrap();
    let analyses = AnalysisCache::new().analyses_for(&spec).unwrap();
    let m = spec
        .with_counts(&[6; 8])
        .unwrap()
        .network_model(&analyses)
        .measures()
        .unwrap();
    assert!(m.availability <= 1.0, "availability {}", m.availability);
    assert!(m.coa <= m.availability && m.coa > 0.0, "coa {}", m.coa);
}
