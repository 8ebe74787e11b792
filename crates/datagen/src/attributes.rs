//! Community-correlated attribute synthesis.
//!
//! * `Geo` — each community is anchored at a city center; member locations
//!   are Gaussian around the center. An optional `hub_fraction` relocates
//!   some vertices of *every* community to city 0, mimicking Gowalla's
//!   headquarters effect (the paper observes the maximum (k,r)-core sits in
//!   Austin for k >= 6).
//! * `Keywords` — a Zipf vocabulary; each community owns a topic (a subset
//!   of preferred words); vertices sample weighted keyword counts mostly
//!   from their community topic plus background noise. Overlapping vertices
//!   mix two topics, like the dual-affiliation author of Figure 5.

use kr_graph::VertexId;
use kr_similarity::{AttributeTable, Metric};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which attribute family to synthesize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AttributeKind {
    /// 2-D geo points clustered by community.
    Geo {
        /// Spread of city centers (the "country size", in km).
        world_size: f64,
        /// Standard deviation of member locations around their city (km).
        city_sigma: f64,
        /// Fraction of all vertices relocated to city 0 (headquarters).
        hub_fraction: f64,
    },
    /// Weighted keyword multisets drawn from per-community topics.
    Keywords {
        /// Vocabulary size.
        vocabulary: usize,
        /// Words per community topic.
        topic_words: usize,
        /// Keyword draws per vertex (with multiplicity -> weights).
        words_per_vertex: usize,
        /// Zipf exponent of the background word distribution.
        zipf_exponent: f64,
    },
}

/// Generates attributes for the given community + sub-group assignment.
/// Returns the table plus the natural metric for it.
///
/// Sub-groups refine communities: geo points cluster around per-sub-group
/// *neighborhood* centers inside the community's city, and keyword lists
/// mix the community topic with a sub-group sub-topic. This correlates
/// similarity with the sub-group-aligned edge density produced by the
/// generator's clique events, which is what lets similarity thresholds cut
/// k-cores into meaningful (k,r)-cores.
pub fn generate(
    kind: &AttributeKind,
    community: &[u32],
    subgroup: &[u32],
    overlaps: &[(VertexId, u32)],
    rng: &mut StdRng,
) -> (AttributeTable, Metric) {
    match *kind {
        AttributeKind::Geo {
            world_size,
            city_sigma,
            hub_fraction,
        } => {
            let ncomm = community
                .iter()
                .copied()
                .max()
                .map_or(1, |c| c as usize + 1);
            let nsub = subgroup.iter().copied().max().map_or(1, |s| s as usize + 1);
            let centers: Vec<(f64, f64)> = (0..ncomm)
                .map(|_| {
                    (
                        rng.random_range(0.0..world_size),
                        rng.random_range(0.0..world_size),
                    )
                })
                .collect();
            // Neighborhood centers: offset from the owning city by ~2 sigma
            // so that a distance threshold around sigma separates
            // neighborhoods while one around 4-5 sigma merges the city.
            let mut nb_centers: Vec<Option<(f64, f64)>> = vec![None; nsub];
            for (v, &sg) in subgroup.iter().enumerate() {
                if nb_centers[sg as usize].is_none() {
                    let (cx, cy) = centers[community[v] as usize];
                    nb_centers[sg as usize] = Some((
                        cx + gaussian(rng) * 2.0 * city_sigma,
                        cy + gaussian(rng) * 2.0 * city_sigma,
                    ));
                }
            }
            let pts = community
                .iter()
                .enumerate()
                .map(|(v, _)| {
                    let center = if rng.random_bool(hub_fraction.clamp(0.0, 1.0)) {
                        centers[0]
                    } else {
                        nb_centers[subgroup[v] as usize].expect("center assigned")
                    };
                    (
                        center.0 + gaussian(rng) * city_sigma * 0.5,
                        center.1 + gaussian(rng) * city_sigma * 0.5,
                    )
                })
                .collect();
            (AttributeTable::points(pts), Metric::Euclidean)
        }
        AttributeKind::Keywords {
            vocabulary,
            topic_words,
            words_per_vertex,
            zipf_exponent,
        } => {
            let ncomm = community
                .iter()
                .copied()
                .max()
                .map_or(1, |c| c as usize + 1);
            let nsub = subgroup.iter().copied().max().map_or(1, |s| s as usize + 1);
            let zipf = Zipf::new(vocabulary, zipf_exponent);
            let mut draw_topic = |count: usize| {
                let mut words: Vec<u32> = Vec::with_capacity(count);
                while words.len() < count {
                    let w = zipf.sample(rng) as u32;
                    if !words.contains(&w) {
                        words.push(w);
                    }
                }
                words
            };
            // Community topics plus narrower per-sub-group sub-topics.
            let topics: Vec<Vec<u32>> = (0..ncomm).map(|_| draw_topic(topic_words)).collect();
            let subtopics: Vec<Vec<u32>> = (0..nsub)
                .map(|_| draw_topic((topic_words / 2).max(2)))
                .collect();
            // Secondary community lookup for overlapping vertices.
            let mut second: Vec<Option<u32>> = vec![None; community.len()];
            for &(v, c) in overlaps {
                second[v as usize] = Some(c);
            }
            let lists: Vec<Vec<(u32, f64)>> = community
                .iter()
                .enumerate()
                .map(|(v, &c)| {
                    let mut counts: std::collections::HashMap<u32, f64> =
                        std::collections::HashMap::new();
                    for _ in 0..words_per_vertex {
                        let topic = match second[v] {
                            // Overlapping vertices split draws between the
                            // two community topics.
                            Some(c2) if rng.random_bool(0.5) => &topics[c2 as usize],
                            // Most draws come from the narrow sub-topic
                            // shared with close collaborators; the rest from
                            // the broader community topic.
                            _ if rng.random_bool(0.7) => &subtopics[subgroup[v] as usize],
                            _ => &topics[c as usize],
                        };
                        let w = if rng.random_bool(0.98) {
                            // In-topic word.
                            topic[rng.random_range(0..topic.len())]
                        } else {
                            // Background noise word.
                            zipf.sample(rng) as u32
                        };
                        *counts.entry(w).or_insert(0.0) += 1.0;
                    }
                    counts.into_iter().collect()
                })
                .collect();
            (AttributeTable::keywords(lists), Metric::WeightedJaccard)
        }
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The Zipf distribution over `0..n` with exponent `s`, sampled by
/// inverse CDF over a prefix table of the weights `(i + 1)^-s`.
struct Zipf {
    /// `cdf[i]` is the sum of the first `i + 1` weights, added in index
    /// order.
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf over an empty vocabulary");
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|i| {
                acc += (i as f64).powf(-s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One draw: the first index whose prefix sum reaches a uniform
    /// target below the total (the last prefix sum).
    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("n >= 1");
        let target = rng.random_range(0.0..total);
        self.cdf.partition_point(|&c| c < target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn geo_attributes_cluster() {
        let mut rng = StdRng::seed_from_u64(1);
        let community: Vec<u32> = (0..200).map(|i| (i % 2) as u32).collect();
        let (table, metric) = generate(
            &AttributeKind::Geo {
                world_size: 1000.0,
                city_sigma: 5.0,
                hub_fraction: 0.0,
            },
            &community,
            &community, // one sub-group per community
            &[],
            &mut rng,
        );
        assert_eq!(metric, Metric::Euclidean);
        let pts = match table {
            AttributeTable::Points(p) => p,
            _ => unreachable!(),
        };
        // Same-community points should be close on average; different far.
        let d = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..50 {
            for j in (i + 1)..50 {
                let dist = d(pts[i], pts[j]);
                if community[i] == community[j] {
                    intra.push(dist);
                } else {
                    inter.push(dist);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&intra) * 3.0 < mean(&inter));
    }

    #[test]
    fn hub_fraction_moves_points_to_city_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let community: Vec<u32> = (0..300).map(|i| (i % 3) as u32).collect();
        let (table, _) = generate(
            &AttributeKind::Geo {
                world_size: 10_000.0,
                city_sigma: 1.0,
                hub_fraction: 0.5,
            },
            &community,
            &community,
            &[],
            &mut rng,
        );
        let pts = match table {
            AttributeTable::Points(p) => p,
            _ => unreachable!(),
        };
        // With sigma tiny vs world size, points form at most 3 + 1 clusters;
        // community-1 vertices split between their own city and city 0.
        let ones: Vec<(f64, f64)> = (0..300)
            .filter(|&i| community[i] == 1)
            .map(|i| pts[i])
            .collect();
        let spread = ones
            .iter()
            .map(|p| ((p.0 - ones[0].0).powi(2) + (p.1 - ones[0].1).powi(2)).sqrt())
            .fold(0.0f64, f64::max);
        assert!(spread > 100.0, "expected split clusters, spread {spread}");
    }

    #[test]
    fn keyword_attributes_cluster() {
        let mut rng = StdRng::seed_from_u64(3);
        let community: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let (table, metric) = generate(
            &AttributeKind::Keywords {
                vocabulary: 500,
                topic_words: 20,
                words_per_vertex: 12,
                zipf_exponent: 1.05,
            },
            &community,
            &community,
            &[],
            &mut rng,
        );
        assert_eq!(metric, Metric::WeightedJaccard);
        let lists = match &table {
            AttributeTable::Keywords(l) => l,
            _ => unreachable!(),
        };
        let sim =
            |a: usize, b: usize| kr_similarity::metrics::weighted_jaccard(&lists[a], &lists[b]);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..40 {
            for j in (i + 1)..40 {
                if community[i] == community[j] {
                    intra.push(sim(i, j));
                } else {
                    inter.push(sim(i, j));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&intra) > 2.0 * mean(&inter) + 0.01);
    }

    /// The linear scan the table replaced: the weights summed once for
    /// the total, then again up to the target on every draw.
    fn zipf_linear_scan(rng: &mut StdRng, n: usize, s: f64) -> usize {
        let h: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        let target = rng.random_range(0.0..h);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += (i as f64).powf(-s);
            if acc >= target {
                return i - 1;
            }
        }
        n - 1
    }

    proptest::proptest! {
        /// The table draws what the linear scan drew, one for one, from
        /// the same generator state.
        #[test]
        fn zipf_table_matches_linear_scan(
            n in 1usize..700,
            s in 0.0f64..3.0,
            seed in 0u64..1_000_000,
        ) {
            let zipf = Zipf::new(n, s);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for _ in 0..200 {
                proptest::prop_assert_eq!(zipf.sample(&mut a), zipf_linear_scan(&mut b, n, s));
            }
        }
    }

    #[test]
    fn zipf_sampling_in_range_and_skewed() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 20];
        let zipf = Zipf::new(20, 1.2);
        for _ in 0..2000 {
            let s = zipf.sample(&mut rng);
            assert!(s < 20);
            counts[s] += 1;
        }
        assert!(counts[0] > counts[10]);
    }

    #[test]
    fn overlap_vertices_mix_topics() {
        let mut rng = StdRng::seed_from_u64(5);
        let community = vec![0u32; 50]
            .into_iter()
            .chain(vec![1u32; 50])
            .collect::<Vec<_>>();
        let overlaps = vec![(0 as VertexId, 1u32)];
        let (table, _) = generate(
            &AttributeKind::Keywords {
                vocabulary: 400,
                topic_words: 15,
                words_per_vertex: 20,
                zipf_exponent: 1.1,
            },
            &community,
            &community,
            &overlaps,
            &mut rng,
        );
        let lists = match &table {
            AttributeTable::Keywords(l) => l,
            _ => unreachable!(),
        };
        // Vertex 0 should be at least somewhat similar to both camps.
        let sim =
            |a: usize, b: usize| kr_similarity::metrics::weighted_jaccard(&lists[a], &lists[b]);
        let to_own: f64 = (1..30).map(|j| sim(0, j)).sum::<f64>() / 29.0;
        let to_other: f64 = (50..80).map(|j| sim(0, j)).sum::<f64>() / 30.0;
        assert!(to_own > 0.0);
        assert!(
            to_other > 0.0,
            "overlap vertex should share words with second topic"
        );
    }
}
