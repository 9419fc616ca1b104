//! The upper-layer network availability model (the paper's Figure 4) and
//! the capacity-oriented availability reward (Table VI).

use redeval_markov::{BirthDeath, SolveError};
use redeval_srn::{PlaceId, Srn, SrnError};

use crate::aggregate::AggregatedRates;

/// One redundant tier: `count` identical servers whose patch behaviour is
/// the two-state abstraction [`AggregatedRates`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Tier name (e.g. `"web"`).
    pub name: String,
    /// Number of redundant servers (≥ 1).
    pub count: u32,
    /// Aggregated patch/recovery rates from the lower-layer model.
    pub rates: AggregatedRates,
}

impl Tier {
    /// Creates a tier.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero (a tier must have at least one server).
    pub fn new(name: impl Into<String>, count: u32, rates: AggregatedRates) -> Self {
        assert!(count >= 1, "a tier needs at least one server");
        Tier {
            name: name.into(),
            count,
            rates,
        }
    }
}

/// The per-tier moments every upper-layer measure is built from: one
/// machine-repair solve for a tier of `count` servers, one pass over its
/// distribution, against a quorum `q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierMoments {
    /// `P(up ≥ q)`, clamped to `[0, 1]`.
    pub p: f64,
    /// `E[up · 1{up ≥ q}]`.
    pub m: f64,
    /// `E[up]`.
    pub mean: f64,
}

impl TierMoments {
    /// Solves the tier's chain and reads off its moments.
    ///
    /// # Errors
    ///
    /// Propagates invalid-rate errors.
    pub fn of(count: u32, rates: AggregatedRates, quorum: u32) -> Result<Self, SolveError> {
        let dist = down_distribution(count, rates)?;
        let (mut above, mut below, mut below_up, mut m) = (0.0, 0.0, 0.0, 0.0);
        for (down, &prob) in dist.iter().enumerate() {
            let up = count - down as u32;
            if up >= quorum {
                above += prob;
                m += prob * f64::from(up);
            } else {
                below += prob;
                below_up += prob * f64::from(up);
            }
        }
        // The complement of a small below-quorum mass is the accurate
        // form when `p` is near 1 (summed up-states can land a hair above
        // 1); a small `p` is summed directly, where `1 − below` would
        // cancel.
        let p = if below < 0.5 { 1.0 - below } else { above };
        Ok(TierMoments {
            p: p.clamp(0.0, 1.0),
            m,
            mean: m + below_up,
        })
    }
}

/// Steady-state distribution of the number of down servers in a tier of
/// `count` servers: independent patch clocks make it a machine-repair
/// birth–death chain.
fn down_distribution(count: u32, rates: AggregatedRates) -> Result<Vec<f64>, SolveError> {
    BirthDeath::machine_repair(count as usize, rates.lambda_eq, rates.mu_eq).steady_state()
}

/// The steady-state measures of one design's upper layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperMeasures {
    /// Capacity-oriented availability ([`NetworkModel::coa`]).
    pub coa: f64,
    /// Probability that every tier has a server up
    /// ([`NetworkModel::availability`]).
    pub availability: f64,
    /// Expected running servers ([`NetworkModel::expected_up_servers`]).
    pub expected_up: f64,
}

/// The composed network model: independent per-tier birth–death processes
/// (the paper's marking-dependent `λ_eq·#Psvcup` patch transitions). The
/// steady-state measures come from one exact factored kernel over
/// per-tier [`TierMoments`]; the explicit SRN
/// ([`to_srn`](Self::to_srn)) is an independent cross-check.
///
/// # Examples
///
/// ```
/// use redeval_avail::{AggregatedRates, NetworkModel, Tier};
///
/// # fn main() -> Result<(), redeval_markov::SolveError> {
/// let r = AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.5 };
/// let net = NetworkModel::new(vec![
///     Tier::new("dns", 1, r),
///     Tier::new("web", 2, r),
/// ]);
/// let coa = net.coa()?;
/// assert!(coa > 0.99 && coa < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    tiers: Vec<Tier>,
}

impl NetworkModel {
    /// Creates a network model from its tiers.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty.
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "at least one tier required");
        NetworkModel { tiers }
    }

    /// The tiers.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Total number of servers across tiers.
    pub fn total_servers(&self) -> u32 {
        self.tiers.iter().map(|t| t.count).sum()
    }

    /// Steady-state distribution of the number of **down** servers in tier
    /// `i` (independent patch clocks → machine-repair birth–death).
    ///
    /// # Errors
    ///
    /// Propagates invalid-rate errors.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn tier_down_distribution(&self, i: usize) -> Result<Vec<f64>, SolveError> {
        let t = &self.tiers[i];
        down_distribution(t.count, t.rates)
    }

    /// Expected steady-state reward of an arbitrary function of the
    /// per-tier *up* counts, by mixed-radix enumeration of all
    /// `Π (countᵢ + 1)` joint states (tiers are stochastically
    /// independent).
    ///
    /// Exponential in the tier count: the built-in measures never call
    /// it. It stays as the test oracle the [`TierMoments`] kernel is
    /// checked against.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from the per-tier chains.
    pub fn expected_reward<F>(&self, reward: F) -> Result<f64, SolveError>
    where
        F: Fn(&[u32]) -> f64,
    {
        let dists: Vec<Vec<f64>> = (0..self.tiers.len())
            .map(|i| self.tier_down_distribution(i))
            .collect::<Result<_, _>>()?;
        // Mixed-radix enumeration over (down_0, ..., down_k).
        let radices: Vec<usize> = self.tiers.iter().map(|t| t.count as usize + 1).collect();
        let mut idx = vec![0usize; radices.len()];
        let mut ups = vec![0u32; radices.len()];
        let mut total = 0.0;
        loop {
            let mut p = 1.0;
            for (i, &down) in idx.iter().enumerate() {
                p *= dists[i][down];
                ups[i] = self.tiers[i].count - down as u32;
            }
            if p > 0.0 {
                total += p * reward(&ups);
            }
            // Increment mixed-radix counter.
            let mut carry = true;
            for (i, r) in idx.iter_mut().zip(&radices) {
                if carry {
                    *i += 1;
                    if *i == *r {
                        *i = 0;
                    } else {
                        carry = false;
                    }
                }
            }
            if carry {
                break;
            }
        }
        Ok(total)
    }

    /// Each tier's [`TierMoments`] against its quorum.
    fn moments(&self, quorum: &[u32]) -> Result<Vec<TierMoments>, SolveError> {
        self.tiers
            .iter()
            .zip(quorum)
            .map(|(t, &q)| TierMoments::of(t.count, t.rates, q))
            .collect()
    }

    /// `(P(every tier meets its quorum), quorum COA)` from per-tier
    /// moments. Tiers are independent, so
    /// `E[Σᵢ upᵢ · Πⱼ 1{upⱼ ≥ qⱼ}] = A · Σᵢ E[upᵢ | upᵢ ≥ qᵢ]` with
    /// `A = Πᵢ pᵢ`. Clamping each conditional mean to the tier size
    /// keeps the float sum at most `N`, so the COA is `A` times a factor
    /// of at most 1 and `COA ≤ A` holds bit for bit.
    fn combine(&self, moments: &[TierMoments]) -> (f64, f64) {
        let availability: f64 = moments.iter().map(|t| t.p).product();
        if availability == 0.0 {
            return (0.0, 0.0);
        }
        let up: f64 = moments
            .iter()
            .zip(&self.tiers)
            .map(|(t, tier)| (t.m / t.p).min(f64::from(tier.count)))
            .sum();
        let share = up / f64::from(self.total_servers());
        (availability, availability * share)
    }

    /// COA, availability and expected up servers from one solve per
    /// tier — what every design evaluation needs.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn measures(&self) -> Result<UpperMeasures, SolveError> {
        let moments = self.moments(&vec![1; self.tiers.len()])?;
        let (availability, coa) = self.combine(&moments);
        Ok(UpperMeasures {
            coa,
            availability,
            expected_up: moments.iter().map(|t| t.mean).sum(),
        })
    }

    /// The paper's capacity-oriented availability (Table VI, generalized):
    /// reward 0 when **any** tier has zero servers up (the service chain is
    /// broken), otherwise the fraction of running servers.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn coa(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.coa)
    }

    /// Classical availability: probability that every tier has at least
    /// one server up.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn availability(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.availability)
    }

    /// Quorum COA: like [`coa`](Self::coa) but tier `i` needs at least
    /// `quorum[i]` servers up to deliver service (k-out-of-n tiers, e.g.
    /// consensus clusters or capacity floors).
    ///
    /// With `quorum = [1, 1, …]` this equals [`coa`](Self::coa).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    ///
    /// # Panics
    ///
    /// Panics when `quorum` and tiers differ in length or a quorum exceeds
    /// the tier size.
    pub fn coa_with_quorum(&self, quorum: &[u32]) -> Result<f64, SolveError> {
        assert_eq!(quorum.len(), self.tiers.len(), "one quorum per tier");
        for (q, t) in quorum.iter().zip(&self.tiers) {
            assert!(
                *q >= 1 && *q <= t.count,
                "quorum {q} invalid for tier of {}",
                t.count
            );
        }
        Ok(self.combine(&self.moments(quorum)?).1)
    }

    /// Expected number of running servers.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn expected_up_servers(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.expected_up)
    }

    /// Builds the explicit Figure-4 SRN: per tier, a `P<t>up`/`P<t>pd`
    /// place pair with marking-dependent patch rate `λ_eq·#up` and recovery
    /// `µ_eq·#down`.
    ///
    /// Returns the net plus the per-tier *up* places for reward functions.
    pub fn to_srn(&self) -> (Srn, Vec<PlaceId>) {
        let mut net = Srn::new("network");
        let mut up_places = Vec::with_capacity(self.tiers.len());
        for t in &self.tiers {
            let up = net.add_place(format!("P{}up", t.name), t.count);
            let down = net.add_place(format!("P{}pd", t.name), 0);
            let lambda = t.rates.lambda_eq;
            let mu = t.rates.mu_eq;
            let patch = net.add_timed_fn(format!("T{}d", t.name), move |m| {
                lambda * m.tokens(up) as f64
            });
            net.add_move(patch, up, down).expect("valid ids");
            let recover = net.add_timed_fn(format!("T{}up", t.name), move |m| {
                mu * m.tokens(down) as f64
            });
            net.add_move(recover, down, up).expect("valid ids");
            up_places.push(up);
        }
        (net, up_places)
    }

    /// Interval (time-averaged) COA over `[0, horizon_hours]`, starting
    /// from the fully-up state: `(1/t)∫₀ᵗ E[reward(s)] ds` by
    /// uniformization on the composed SRN.
    ///
    /// Unlike the steady-state [`coa`](Self::coa), this answers "how much
    /// capacity do I get over the *next month*", which is higher than the
    /// long-run value while the first patch cycles have not yet hit.
    ///
    /// # Errors
    ///
    /// Propagates SRN/CTMC errors; `horizon_hours` must be positive.
    pub fn interval_coa(&self, horizon_hours: f64) -> Result<f64, SrnError> {
        let (net, ups) = self.to_srn();
        let space = net.state_space()?;
        let markings = space.tangible_markings().to_vec();
        let counts: Vec<u32> = self.tiers.iter().map(|t| t.count).collect();
        let total: u32 = counts.iter().sum();
        let reward_of = |idx: usize| -> f64 {
            let m = &markings[idx];
            let mut sum = 0u32;
            for &p in &ups {
                let u = m.tokens(p);
                if u == 0 {
                    return 0.0;
                }
                sum += u;
            }
            f64::from(sum) / f64::from(total)
        };
        let initial = space
            .initial_distribution()
            .first()
            .map(|&(i, _)| i)
            .expect("nonempty state space");
        space
            .ctmc()
            .interval_reward(initial, horizon_hours, reward_of)
            .map_err(redeval_srn::SrnError::from)
    }

    /// COA computed through the explicit SRN — an independent cross-check
    /// of [`coa`](Self::coa).
    ///
    /// # Errors
    ///
    /// Propagates SRN errors.
    pub fn coa_via_srn(&self) -> Result<f64, SrnError> {
        let (net, ups) = self.to_srn();
        let solved = net.solve()?;
        let counts: Vec<u32> = self.tiers.iter().map(|t| t.count).collect();
        let total: u32 = counts.iter().sum();
        Ok(solved.expected(|m| {
            let up_counts: Vec<u32> = ups.iter().map(|&p| m.tokens(p)).collect();
            if up_counts.contains(&0) {
                0.0
            } else {
                up_counts.iter().map(|&u| u as f64).sum::<f64>() / total as f64
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(mttr_hours: f64) -> AggregatedRates {
        AggregatedRates {
            lambda_eq: 1.0 / 720.0,
            mu_eq: 1.0 / mttr_hours,
        }
    }

    /// The paper's case-study network (Table V rates).
    fn case_study() -> NetworkModel {
        NetworkModel::new(vec![
            Tier::new(
                "dns",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.49992,
                },
            ),
            Tier::new(
                "web",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.71420,
                },
            ),
            Tier::new(
                "app",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 0.99995,
                },
            ),
            Tier::new(
                "db",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.09085,
                },
            ),
        ])
    }

    #[test]
    fn paper_coa_0_99707() {
        let coa = case_study().coa().unwrap();
        assert!((coa - 0.99707).abs() < 5e-5, "COA {coa} vs paper 0.99707");
    }

    #[test]
    fn product_form_matches_srn() {
        let net = case_study();
        let a = net.coa().unwrap();
        let b = net.coa_via_srn().unwrap();
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn single_tier_single_server() {
        let net = NetworkModel::new(vec![Tier::new("only", 1, rates(1.0))]);
        let coa = net.coa().unwrap();
        // Availability of a 2-state chain: µ/(λ+µ) with µ = 1, λ = 1/720.
        let expect = 1.0 / (1.0 + 1.0 / 720.0);
        assert!((coa - expect).abs() < 1e-12);
        assert_eq!(net.total_servers(), 1);
    }

    #[test]
    fn redundancy_increases_coa_of_bottleneck() {
        let base = NetworkModel::new(vec![
            Tier::new("a", 1, rates(1.0)),
            Tier::new("b", 1, rates(0.5)),
        ]);
        let redundant = NetworkModel::new(vec![
            Tier::new("a", 2, rates(1.0)),
            Tier::new("b", 1, rates(0.5)),
        ]);
        assert!(redundant.coa().unwrap() > base.coa().unwrap());
    }

    #[test]
    fn redundancy_on_slowest_tier_helps_most() {
        // The paper's observation: duplicating the tier with the longest
        // MTTR yields the highest COA.
        let slow = rates(2.0);
        let fast = rates(0.5);
        let dup_slow =
            NetworkModel::new(vec![Tier::new("slow", 2, slow), Tier::new("fast", 1, fast)]);
        let dup_fast =
            NetworkModel::new(vec![Tier::new("slow", 1, slow), Tier::new("fast", 2, fast)]);
        assert!(dup_slow.coa().unwrap() > dup_fast.coa().unwrap());
    }

    #[test]
    fn interval_coa_decreases_to_steady_state() {
        let net = case_study();
        let steady = net.coa().unwrap();
        // The transient relaxes within ~MTTR (≈1 h), far faster than the
        // 720-h patch interval: very short windows still see extra
        // capacity, and the interval value decreases towards steady state.
        let tiny = net.interval_coa(0.05).unwrap();
        let short = net.interval_coa(1.0).unwrap();
        let month = net.interval_coa(720.0).unwrap();
        let long = net.interval_coa(100_000.0).unwrap();
        assert!(tiny > 0.9999, "{tiny}");
        assert!(tiny >= short && short >= month && month >= long);
        assert!(short > steady);
        assert!((long - steady).abs() < 1e-4, "{long} vs {steady}");
    }

    #[test]
    fn availability_exceeds_coa() {
        // COA penalizes partial capacity; plain availability does not.
        let net = case_study();
        let coa = net.coa().unwrap();
        let avail = net.availability().unwrap();
        assert!(avail >= coa);
    }

    #[test]
    fn expected_up_servers_close_to_total() {
        let net = case_study();
        let e = net.expected_up_servers().unwrap();
        assert!(e > 5.98 && e < 6.0);
    }

    #[test]
    fn quorum_one_equals_plain_coa() {
        let net = case_study();
        let coa = net.coa().unwrap();
        let q1 = net.coa_with_quorum(&[1, 1, 1, 1]).unwrap();
        assert_eq!(coa.to_bits(), q1.to_bits());
    }

    #[test]
    fn stricter_quorum_lowers_coa() {
        let net = case_study();
        let loose = net.coa_with_quorum(&[1, 1, 1, 1]).unwrap();
        let strict = net.coa_with_quorum(&[1, 2, 2, 1]).unwrap();
        assert!(strict < loose);
        // Needing both web servers up makes any web patch an outage.
        assert!(strict < 0.997);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn quorum_larger_than_tier_panics() {
        let _ = case_study().coa_with_quorum(&[2, 1, 1, 1]);
    }

    #[test]
    fn tier_distribution_sums_to_one() {
        let net = case_study();
        for i in 0..net.tiers().len() {
            let d = net.tier_down_distribution(i).unwrap();
            assert_eq!(d.len(), net.tiers()[i].count as usize + 1);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn table_vi_reward_values_exercised() {
        // With 1+2+2+1 servers the reward takes exactly the paper's values
        // {1, 5/6, 4/6, 0} on the states it lists.
        let net = case_study();
        let total = net.total_servers() as f64;
        assert_eq!(total, 6.0);
        let reward = |ups: &[u32]| {
            if ups.contains(&0) {
                0.0
            } else {
                ups.iter().map(|&u| u as f64).sum::<f64>() / total
            }
        };
        assert_eq!(reward(&[1, 2, 2, 1]), 1.0);
        assert!((reward(&[1, 1, 2, 1]) - 5.0 / 6.0).abs() < 1e-15);
        assert!((reward(&[1, 2, 1, 1]) - 5.0 / 6.0).abs() < 1e-15);
        assert!((reward(&[1, 1, 1, 1]) - 4.0 / 6.0).abs() < 1e-15);
        assert_eq!(reward(&[0, 2, 2, 1]), 0.0);
        assert_eq!(reward(&[1, 0, 2, 1]), 0.0);
    }

    /// `|a - b| ≤ 1e-12 · min(1, max(|a|, |b|))`: relative below 1,
    /// never looser than `1e-12` absolute.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).min(1.0)
    }

    /// Quorum COA by the enumeration oracle.
    fn enumerated_quorum_coa(net: &NetworkModel, quorum: &[u32]) -> f64 {
        let total = f64::from(net.total_servers());
        net.expected_reward(|ups| {
            if ups.iter().zip(quorum).any(|(u, q)| u < q) {
                0.0
            } else {
                ups.iter().map(|&u| f64::from(u)).sum::<f64>() / total
            }
        })
        .unwrap()
    }

    #[test]
    fn factored_forms_match_enumeration() {
        // The factored kernel must agree with the exact mixed-radix
        // enumeration oracle on networks small enough to run both.
        let net = case_study();
        let total = f64::from(net.total_servers());
        let quorum = [1, 2, 1, 1];
        let m = net.measures().unwrap();
        let coa = net
            .expected_reward(|ups| {
                if ups.contains(&0) {
                    0.0
                } else {
                    ups.iter().map(|&u| f64::from(u)).sum::<f64>() / total
                }
            })
            .unwrap();
        let avail = net
            .expected_reward(|ups| f64::from(u8::from(!ups.contains(&0))))
            .unwrap();
        let up = net
            .expected_reward(|ups| ups.iter().map(|&u| f64::from(u)).sum())
            .unwrap();
        let quorum_coa = enumerated_quorum_coa(&net, &quorum);
        assert!(close(m.coa, coa), "{} vs {coa}", m.coa);
        assert!(
            close(m.availability, avail),
            "{} vs {avail}",
            m.availability
        );
        assert!(close(m.expected_up, up), "{} vs {up}", m.expected_up);
        let q = net.coa_with_quorum(&quorum).unwrap();
        assert!(close(q, quorum_coa), "{q} vs {quorum_coa}");
    }

    #[test]
    fn strict_quorum_on_slow_tier_matches_enumeration() {
        // A tier that recovers far slower than it is patched rarely has
        // all six servers up: `P(up ≥ 6)` is about 5.6e-7, where the
        // complement `1 − P(up < 6)` keeps only ~9 significant digits.
        let net = NetworkModel::new(vec![
            Tier::new("front", 2, rates(1.0)),
            Tier::new("slow", 6, rates(7200.0)),
        ]);
        let quorum = [1, 6];
        let p = TierMoments::of(6, rates(7200.0), 6).unwrap().p;
        let want_p = net.tier_down_distribution(1).unwrap()[0];
        assert!(close(p, want_p), "{p} vs {want_p}");
        let got = net.coa_with_quorum(&quorum).unwrap();
        let want = enumerated_quorum_coa(&net, &quorum);
        assert!(close(got, want), "{got} vs {want}");
    }

    #[test]
    fn coa_never_exceeds_availability_bitwise() {
        // All-1 designs are where the unclamped form Σᵢ mᵢ·Πⱼ≠ᵢ pⱼ / N
        // can round one ulp above Πᵢ pᵢ; mixed designs exercise the
        // clamped conditional means.
        for mttr in [0.25, 0.5, 1.0, 1.5, 2.0, 5.0, 24.0] {
            for n in 1..=12 {
                for counts in [vec![1; n], (0..n).map(|i| 1 + (i % 4) as u32).collect()] {
                    let tiers = counts
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| Tier::new(format!("t{i}"), c, rates(mttr + i as f64 * 0.1)))
                        .collect();
                    let m = NetworkModel::new(tiers).measures().unwrap();
                    assert!(
                        m.coa <= m.availability,
                        "{counts:?} @ {mttr}: coa {} > availability {}",
                        m.coa,
                        m.availability
                    );
                    assert!((0.0..=1.0).contains(&m.availability));
                }
            }
        }
    }

    #[test]
    fn tier_moments_stay_probabilities() {
        let r = rates(1.0);
        for count in 1..=8 {
            for quorum in 0..=count {
                let t = TierMoments::of(count, r, quorum).unwrap();
                assert!((0.0..=1.0).contains(&t.p), "{count}/{quorum}: {}", t.p);
                assert!(t.m <= t.mean);
            }
            // Quorum 0 is no constraint at all.
            let all = TierMoments::of(count, r, 0).unwrap();
            assert_eq!(all.p, 1.0);
            assert_eq!(all.m, all.mean);
        }
    }

    #[test]
    fn fleet_scale_network_solves_in_product_form() {
        // 150 tiers would be 2^150+ joint states under enumeration; the
        // factored kernel must make this instant and sane.
        let tiers: Vec<Tier> = (0..150)
            .map(|i| {
                Tier::new(
                    format!("t{i}"),
                    1 + (i % 3) as u32,
                    rates(1.0 + i as f64 * 0.01),
                )
            })
            .collect();
        let net = NetworkModel::new(tiers);
        let coa = net.coa().unwrap();
        let avail = net.availability().unwrap();
        assert!(coa > 0.0 && coa < 1.0, "{coa}");
        assert!(avail >= coa && avail < 1.0, "{avail}");
        let up = net.expected_up_servers().unwrap();
        assert!(up > 0.99 * f64::from(net.total_servers()) && up < f64::from(net.total_servers()));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_count_tier_panics() {
        let _ = Tier::new("x", 0, rates(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_network_panics() {
        let _ = NetworkModel::new(vec![]);
    }
}
