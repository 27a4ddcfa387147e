//! Client distribution types — Table 2 of the paper.
//!
//! The paper studies four combinations of clustering in the physical world
//! (PW) and the virtual world (VW):
//!
//! | Type | Clusters in PW | Clusters in VW |
//! |------|----------------|----------------|
//! | 0    | no             | no             |
//! | 1    | yes            | no             |
//! | 2    | no             | yes            |
//! | 3    | yes            | yes            |
//!
//! Clustered zones get a population weight 10x that of normal zones
//! ("the number of clients in a clustered zone is 10 times larger");
//! clustered physical nodes likewise attract 10x the clients.

/// The four PW/VW clustering combinations of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionType {
    /// Type 0: uniform everywhere.
    Uniform,
    /// Type 1: clustered physical world, uniform virtual world.
    ClusteredPhysical,
    /// Type 2: uniform physical world, clustered virtual world.
    ClusteredVirtual,
    /// Type 3: clustered in both worlds.
    ClusteredBoth,
}

impl DistributionType {
    /// All four types, in Table 2 order.
    pub const ALL: [DistributionType; 4] = [
        DistributionType::Uniform,
        DistributionType::ClusteredPhysical,
        DistributionType::ClusteredVirtual,
        DistributionType::ClusteredBoth,
    ];

    /// Table 2 index (0-3).
    pub fn index(&self) -> usize {
        match self {
            DistributionType::Uniform => 0,
            DistributionType::ClusteredPhysical => 1,
            DistributionType::ClusteredVirtual => 2,
            DistributionType::ClusteredBoth => 3,
        }
    }

    /// Whether clients cluster on physical-world nodes.
    pub fn clustered_physical(&self) -> bool {
        matches!(
            self,
            DistributionType::ClusteredPhysical | DistributionType::ClusteredBoth
        )
    }

    /// Whether clients cluster in virtual-world zones.
    pub fn clustered_virtual(&self) -> bool {
        matches!(
            self,
            DistributionType::ClusteredVirtual | DistributionType::ClusteredBoth
        )
    }
}

/// Weighted sampling table: cumulative weights over item indices.
///
/// Used for both hot-zone and hot-node selection. Weights must be
/// non-negative with a positive sum.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Builds the table; panics on empty or all-zero weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weight {w} must be >= 0");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "weights must not all be zero");
        WeightedIndex { cumulative, total }
    }

    /// Samples an index using the uniform variate `u` in [0, 1).
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let shot = rng.gen::<f64>() * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&shot).expect("finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cumulative.len() - 1)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True iff there are no items (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

/// Builds Zipf-distributed popularity weights: the item ranked `r`
/// (1-based) gets weight `1 / r^exponent`, with ranks assigned uniformly
/// at random across items. An alternative to the paper's 10x hot-zone
/// model for studies of smoother popularity skew (real MMOG zone
/// popularity is closer to Zipf than to two-level).
pub fn zipf_weights<R: rand::Rng + ?Sized>(items: usize, exponent: f64, rng: &mut R) -> Vec<f64> {
    assert!(exponent >= 0.0, "Zipf exponent must be >= 0");
    let mut ranks: Vec<usize> = (1..=items).collect();
    // Fisher-Yates shuffle so rank 1 lands on a random item.
    for i in (1..items).rev() {
        let j = rng.gen_range(0..=i);
        ranks.swap(i, j);
    }
    ranks
        .into_iter()
        .map(|r| (r as f64).powf(-exponent))
        .collect()
}

/// Builds per-item weights where `hot_count` randomly chosen items get
/// `hot_factor` weight and the rest get 1.0. Returns `(weights, hot set)`.
pub fn hot_weights<R: rand::Rng + ?Sized>(
    items: usize,
    hot_count: usize,
    hot_factor: f64,
    rng: &mut R,
) -> (Vec<f64>, Vec<usize>) {
    let mut weights = vec![1.0; items];
    let mut indices: Vec<usize> = (0..items).collect();
    // Partial Fisher-Yates: pick hot_count distinct indices.
    let hot_count = hot_count.min(items);
    for k in 0..hot_count {
        let pick = rng.gen_range(k..items);
        indices.swap(k, pick);
    }
    let hot: Vec<usize> = indices[..hot_count].to_vec();
    for &h in &hot {
        weights[h] = hot_factor;
    }
    (weights, hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table2_mapping() {
        assert_eq!(DistributionType::Uniform.index(), 0);
        assert_eq!(DistributionType::ClusteredPhysical.index(), 1);
        assert_eq!(DistributionType::ClusteredVirtual.index(), 2);
        assert_eq!(DistributionType::ClusteredBoth.index(), 3);
        assert!(!DistributionType::Uniform.clustered_physical());
        assert!(DistributionType::ClusteredPhysical.clustered_physical());
        assert!(!DistributionType::ClusteredPhysical.clustered_virtual());
        assert!(DistributionType::ClusteredBoth.clustered_virtual());
        assert!(DistributionType::ClusteredBoth.clustered_physical());
        assert_eq!(DistributionType::ALL.len(), 4);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = WeightedIndex::new(&[1.0, 0.0, 9.0]);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((6.0..13.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn weighted_index_rejects_zero_total() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn hot_weights_marks_requested_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let (w, hot) = hot_weights(10, 3, 10.0, &mut rng);
        assert_eq!(hot.len(), 3);
        assert_eq!(w.iter().filter(|&&x| x == 10.0).count(), 3);
        assert_eq!(w.iter().filter(|&&x| x == 1.0).count(), 7);
        // hot indices are distinct
        let mut h = hot.clone();
        h.sort_unstable();
        h.dedup();
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn hot_weights_clamps_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let (w, hot) = hot_weights(2, 5, 10.0, &mut rng);
        assert_eq!(hot.len(), 2);
        assert!(w.iter().all(|&x| x == 10.0));
    }

    #[test]
    fn zipf_weights_have_zipf_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = zipf_weights(100, 1.0, &mut rng);
        assert_eq!(w.len(), 100);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // rank-1 weight is 1, rank-2 is 1/2, rank-100 is 1/100.
        assert!((sorted[0] - 1.0).abs() < 1e-12);
        assert!((sorted[1] - 0.5).abs() < 1e-12);
        assert!((sorted[99] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = zipf_weights(10, 0.0, &mut rng);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn zipf_ranks_are_shuffled() {
        // With 50 items the top rank should not always land on index 0.
        let mut hits_at_zero = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = zipf_weights(50, 1.0, &mut rng);
            if (w[0] - 1.0).abs() < 1e-12 {
                hits_at_zero += 1;
            }
        }
        assert!(hits_at_zero < 10, "rank 1 stuck at index 0");
    }
}
