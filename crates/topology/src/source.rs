//! Pluggable delay sources: answer `rtt(a, b)` queries without forcing
//! every consumer to hold a dense node×node matrix.
//!
//! [`DelayMatrix`](crate::DelayMatrix) materialises all-pairs RTTs — the
//! right tool at paper scale (500 nodes ≈ 2 MB), but a layer that only
//! ever asks for RTTs *towards a fixed target set* (the m server nodes)
//! should not pay O(V²) memory or the O(V·E log V) all-pairs sweep. The
//! [`DelaySource`] trait is that seam:
//!
//! * [`DelaySource::rtt`] — one pairwise query;
//! * [`DelaySource::rtt_from`] — a full single-source row (one Dijkstra
//!   for graph-backed sources, a copy for the dense matrix);
//! * [`DelaySource::gather_to`] — RTTs from **every** node to a small
//!   target set, the only bulk shape the assignment pipeline needs
//!   (O(V·m) output, never O(V²)).
//!
//! [`OnDemandDelays`] is the million-client implementation: it keeps the
//! graph (O(V+E)), estimates the diameter from a handful of landmark
//! eccentricity sweeps (instead of the exact all-pairs maximum), and
//! answers every query by scaled single-source Dijkstra, memoising the
//! most recent rows. Its delays follow the same "scale the diameter to
//! `max_rtt_ms`" model as [`DelayMatrix`], with the scale derived from
//! the landmark estimate — a documented approximation: the estimated
//! diameter is a lower bound on the true one, so on-demand RTTs are an
//! upper bound on the matrix's (equal whenever the sweeps find a true
//! peripheral pair, which the double sweep does on these topologies).

use crate::delay::{DelayError, DelayMatrix};
use crate::graph::Graph;
use crate::shortest_path::dijkstra;
use std::sync::{Mutex, PoisonError};

/// Answers round-trip-time queries between topology nodes. See the
/// module docs for the contract; all delays are milliseconds, finite and
/// non-negative, with `rtt(a, a) == 0`.
pub trait DelaySource: Send + Sync {
    /// Number of nodes the source covers.
    fn nodes(&self) -> usize;

    /// Round-trip delay between nodes `a` and `b` in milliseconds.
    fn rtt(&self, a: usize, b: usize) -> f64;

    /// Fills `out` (length [`DelaySource::nodes`]) with the RTTs from
    /// `source` to every node.
    fn rtt_from(&self, source: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nodes(), "row buffer must cover nodes");
        for (node, slot) in out.iter_mut().enumerate() {
            *slot = self.rtt(source, node);
        }
    }

    /// Fills `out[node * targets.len() + t]` with `rtt(node, targets[t])`
    /// for every node — the gather shape the assignment pipeline
    /// consumes (delays from everywhere towards the server nodes).
    ///
    /// The default reads [`DelaySource::rtt`] per entry, which is exact
    /// for table-backed sources; graph-backed sources override it with
    /// one single-source sweep per target.
    fn gather_to(&self, targets: &[usize], out: &mut [f64]) {
        let m = targets.len();
        assert_eq!(out.len(), self.nodes() * m, "gather buffer shape");
        for node in 0..self.nodes() {
            for (t, &target) in targets.iter().enumerate() {
                out[node * m + t] = self.rtt(node, target);
            }
        }
    }
}

impl DelaySource for DelayMatrix {
    fn nodes(&self) -> usize {
        self.len()
    }

    #[inline]
    fn rtt(&self, a: usize, b: usize) -> f64 {
        DelayMatrix::rtt(self, a, b)
    }
    // `rtt_from`/`gather_to` defaults read `rtt` per entry — O(1) each
    // on the dense matrix, already optimal.
}

/// How many recent Dijkstra rows an [`OnDemandDelays`] memoises for
/// pairwise `rtt` queries (the bulk paths never go through the cache).
const ROW_CACHE: usize = 8;

/// A delay source that answers from the graph itself: O(V+E) resident
/// memory, one scaled Dijkstra per queried source row.
///
/// The diameter used for scaling is estimated by landmark sweeps (a
/// double sweep plus farthest-first probes) rather than the exact
/// all-pairs maximum, so construction is O(landmarks · E log V) — this
/// is what lets the million-client pipeline skip the O(V²) node matrix
/// entirely.
pub struct OnDemandDelays {
    graph: Graph,
    /// Multiplier taking graph distances to milliseconds.
    scale: f64,
    /// The probed landmark nodes (diagnostics/tests).
    landmarks: Vec<usize>,
    /// Estimated graph diameter in raw distance units.
    diameter_est: f64,
    /// MRU memo of recent Dijkstra rows for pairwise queries.
    cache: Mutex<Vec<(usize, Vec<f64>)>>,
}

impl std::fmt::Debug for OnDemandDelays {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnDemandDelays")
            .field("nodes", &self.graph.node_count())
            .field("scale", &self.scale)
            .field("landmarks", &self.landmarks)
            .finish()
    }
}

impl OnDemandDelays {
    /// Builds an on-demand source over `graph`, scaling the estimated
    /// diameter to `max_rtt_ms` (paper default: 500 ms).
    ///
    /// `extra_landmarks` is the number of farthest-first probes run on
    /// top of the double sweep (0 keeps just the double sweep; a handful
    /// sharpens the estimate on irregular graphs). Errors mirror
    /// [`DelayMatrix::from_graph`]: disconnected graphs, non-positive
    /// `max_rtt_ms`, and sub-2-node graphs are rejected.
    pub fn from_graph(
        graph: &Graph,
        max_rtt_ms: f64,
        extra_landmarks: usize,
    ) -> Result<OnDemandDelays, DelayError> {
        if !(max_rtt_ms.is_finite() && max_rtt_ms > 0.0) {
            return Err(DelayError::BadMaxRtt(max_rtt_ms));
        }
        let n = graph.node_count();
        if n < 2 {
            return Err(DelayError::TooSmall(n));
        }

        // Double sweep: Dijkstra from node 0 finds a peripheral node u;
        // from u the farthest node v; from v confirm. Every sweep also
        // proves connectivity (any infinite distance fails fast).
        let mut landmarks = Vec::with_capacity(extra_landmarks + 3);
        let mut diameter_est = 0.0f64;
        // min-distance to the landmark set, for farthest-first probes.
        let mut min_dist = vec![f64::INFINITY; n];
        let mut probe = 0usize;
        for _ in 0..extra_landmarks + 3 {
            let row = dijkstra(graph, probe);
            let mut farthest = (0.0f64, probe);
            for (node, &d) in row.iter().enumerate() {
                if !d.is_finite() {
                    return Err(DelayError::Disconnected);
                }
                if d > farthest.0 {
                    farthest = (d, node);
                }
                if d < min_dist[node] {
                    min_dist[node] = d;
                }
            }
            landmarks.push(probe);
            diameter_est = diameter_est.max(farthest.0);
            // Next probe: first sweeps chase the farthest node found
            // (the double sweep); once that converges, fall back to the
            // node farthest from every landmark so far (farthest-first).
            probe = if landmarks.contains(&farthest.1) {
                let (mut best, mut best_node) = (f64::NEG_INFINITY, farthest.1);
                for (node, &d) in min_dist.iter().enumerate() {
                    if d > best {
                        best = d;
                        best_node = node;
                    }
                }
                best_node
            } else {
                farthest.1
            };
            if landmarks.contains(&probe) {
                break;
            }
        }

        let scale = if diameter_est > 0.0 {
            max_rtt_ms / diameter_est
        } else {
            // All probed nodes coincide; treat as uniform zero delay,
            // matching DelayMatrix's degenerate branch.
            0.0
        };
        Ok(OnDemandDelays {
            graph: graph.clone(),
            scale,
            landmarks,
            diameter_est,
            cache: Mutex::new(Vec::with_capacity(ROW_CACHE)),
        })
    }

    /// The nodes probed while estimating the diameter.
    pub fn landmarks(&self) -> &[usize] {
        &self.landmarks
    }

    /// The estimated diameter, already scaled to milliseconds (the
    /// largest RTT this source can report along a probed direction).
    pub fn estimated_max_rtt(&self) -> f64 {
        self.diameter_est * self.scale
    }

    /// One scaled single-source sweep, bypassing the cache.
    fn sweep(&self, source: usize, out: &mut [f64]) {
        let row = dijkstra(&self.graph, source);
        for (slot, d) in out.iter_mut().zip(row) {
            *slot = d * self.scale;
        }
    }
}

impl DelaySource for OnDemandDelays {
    fn nodes(&self) -> usize {
        self.graph.node_count()
    }

    /// Pairwise query via the memoised row of `a` (one Dijkstra on a
    /// cache miss). Delays are evaluated from the `a` side; the model is
    /// symmetric up to floating-point summation order along the path.
    fn rtt(&self, a: usize, b: usize) -> f64 {
        // The memo holds only whole rows, so a panic elsewhere while the
        // lock was held leaves nothing half-written: ignore poisoning.
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = cache.iter().position(|(src, _)| *src == a) {
            let row = cache.remove(pos);
            let value = row.1[b];
            cache.push(row); // keep MRU order
            return value;
        }
        let mut row = vec![0.0; self.nodes()];
        self.sweep(a, &mut row);
        let value = row[b];
        if cache.len() >= ROW_CACHE {
            cache.remove(0);
        }
        cache.push((a, row));
        value
    }

    fn rtt_from(&self, source: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nodes(), "row buffer must cover nodes");
        self.sweep(source, out);
    }

    /// One Dijkstra per target (delays are read from the target side,
    /// using the model's symmetry) — O(m · E log V) total, independent
    /// of how many clients later consume the gathered table.
    fn gather_to(&self, targets: &[usize], out: &mut [f64]) {
        let m = targets.len();
        let n = self.nodes();
        assert_eq!(out.len(), n * m, "gather buffer shape");
        let mut row = vec![0.0; n];
        for (t, &target) in targets.iter().enumerate() {
            self.sweep(target, &mut row);
            for (node, &d) in row.iter().enumerate() {
                out[node * m + t] = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Point;
    use crate::hierarchical::flat_waxman;
    use crate::waxman::WaxmanParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(weights: &[f64]) -> Graph {
        let mut g = Graph::new();
        for i in 0..=weights.len() {
            g.add_node(Point::new(i as f64, 0.0));
        }
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w).unwrap();
        }
        g
    }

    #[test]
    fn matrix_implements_the_trait_consistently() {
        let g = path_graph(&[1.0, 2.0, 3.0]);
        let m = DelayMatrix::from_graph(&g, 500.0).unwrap();
        let source: &dyn DelaySource = &m;
        assert_eq!(source.nodes(), 4);
        let mut row = vec![0.0; 4];
        source.rtt_from(2, &mut row);
        for b in 0..4 {
            assert_eq!(row[b], m.rtt(2, b));
        }
        let targets = [3usize, 0];
        let mut gathered = vec![0.0; 4 * 2];
        source.gather_to(&targets, &mut gathered);
        for node in 0..4 {
            assert_eq!(gathered[node * 2], m.rtt(node, 3));
            assert_eq!(gathered[node * 2 + 1], m.rtt(node, 0));
        }
    }

    #[test]
    fn on_demand_matches_matrix_on_a_path() {
        // The double sweep finds the exact diameter of a path, so the
        // scales coincide and every RTT matches the dense matrix.
        let g = path_graph(&[1.0, 2.0, 3.0, 1.5]);
        let dense = DelayMatrix::from_graph(&g, 500.0).unwrap();
        let lazy = OnDemandDelays::from_graph(&g, 500.0, 0).unwrap();
        assert!((lazy.estimated_max_rtt() - 500.0).abs() < 1e-9);
        for a in 0..5 {
            for b in 0..5 {
                assert!(
                    (lazy.rtt(a, b) - dense.rtt(a, b)).abs() < 1e-9,
                    "rtt({a},{b})"
                );
            }
        }
    }

    #[test]
    fn on_demand_tracks_matrix_on_random_topologies() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = flat_waxman(60, 2, 100.0, WaxmanParams::default(), &mut rng);
        let dense = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let lazy = OnDemandDelays::from_graph(&topo.graph, 500.0, 4).unwrap();
        // The landmark estimate lower-bounds the true diameter, so
        // on-demand RTTs upper-bound the dense matrix's entries.
        for a in (0..60).step_by(7) {
            for b in (0..60).step_by(11) {
                assert!(
                    lazy.rtt(a, b) >= dense.rtt(a, b) - 1e-6,
                    "rtt({a},{b}): lazy {} under dense {}",
                    lazy.rtt(a, b),
                    dense.rtt(a, b)
                );
            }
        }
        // The gather is exactly one scaled Dijkstra per target.
        let targets = [5usize, 17, 42];
        let mut gathered = vec![0.0; 60 * 3];
        lazy.gather_to(&targets, &mut gathered);
        for (t, &target) in targets.iter().enumerate() {
            let raw = dijkstra(&topo.graph, target);
            for node in 0..60 {
                assert_eq!(gathered[node * 3 + t], raw[node] * lazy.scale);
            }
        }
    }

    #[test]
    fn on_demand_caches_rows_and_stays_consistent() {
        let g = path_graph(&[2.0, 2.0, 2.0]);
        let lazy = OnDemandDelays::from_graph(&g, 300.0, 1).unwrap();
        // Hammer pairwise queries across more sources than the cache
        // holds; values must stay stable.
        let first = lazy.rtt(0, 3);
        for a in 0..4 {
            for b in 0..4 {
                let x = lazy.rtt(a, b);
                let y = lazy.rtt(a, b);
                assert_eq!(x, y);
                assert!((lazy.rtt(b, a) - x).abs() < 1e-9, "symmetric model");
            }
        }
        assert_eq!(lazy.rtt(0, 3), first);
        assert_eq!(lazy.rtt(1, 1), 0.0);
    }

    #[test]
    fn on_demand_rejects_bad_inputs() {
        let g = path_graph(&[1.0]);
        assert!(matches!(
            OnDemandDelays::from_graph(&g, 0.0, 2),
            Err(DelayError::BadMaxRtt(_))
        ));
        assert!(matches!(
            OnDemandDelays::from_graph(&Graph::with_nodes(1), 500.0, 2),
            Err(DelayError::TooSmall(1))
        ));
        assert!(matches!(
            OnDemandDelays::from_graph(&Graph::with_nodes(3), 500.0, 2),
            Err(DelayError::Disconnected)
        ));
    }
}
