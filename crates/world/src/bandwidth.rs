//! The bandwidth (server-resource) model of Pellegrino & Dovrolis [20].
//!
//! The paper measures server resource consumption as network bandwidth and
//! estimates it from zone populations: "the bandwidth requirement in
//! client-server architectures increases quadratically with the total
//! number of clients that are interacting with each other". With the
//! paper's defaults — 25 input messages per second of 100 bytes each — a
//! client in a zone with `n` members sends one input stream upstream and
//! receives per-member state downstream, so its load on the *target*
//! server is `f*S*(1 + n)` and a whole zone costs `f*S*n*(n+1)`: quadratic
//! in `n`.
//!
//! When a client's contact server differs from its target server, all its
//! traffic is forwarded, consuming `R^C = 2 R^T` on the contact server
//! (section 2.1 of the paper).

/// Per-client message-rate parameters (paper defaults: 25 msg/s, 100 B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Input/update sending frequency in messages per second.
    pub msgs_per_sec: f64,
    /// Size of each input/update message in bytes.
    pub msg_bytes: f64,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        BandwidthModel {
            msgs_per_sec: 25.0,
            msg_bytes: 100.0,
        }
    }
}

impl BandwidthModel {
    /// Base unidirectional stream rate `f * S` in bits per second.
    pub fn stream_bps(&self) -> f64 {
        self.msgs_per_sec * self.msg_bytes * 8.0
    }

    /// `R^T_c`: bandwidth a client consumes on its target server when its
    /// zone has `zone_population` clients (including itself). Strictly
    /// positive, as the paper requires (`R^T_c > 0`).
    pub fn client_target_bps(&self, zone_population: usize) -> f64 {
        self.stream_bps() * (1.0 + zone_population as f64)
    }

    /// `R_z`: total bandwidth a zone of `n` clients consumes on its target
    /// server: `sum of R^T_c = f*S*n*(n+1)` — quadratic in `n`.
    pub fn zone_bps(&self, n: usize) -> f64 {
        self.stream_bps() * n as f64 * (n as f64 + 1.0)
    }

    /// `R^C_c`: extra bandwidth on a *contact* server that forwards for a
    /// client whose target is elsewhere (`2 R^T_c`); zero when contact and
    /// target coincide (callers handle that case).
    pub fn client_forwarding_bps(&self, zone_population: usize) -> f64 {
        2.0 * self.client_target_bps(zone_population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_stream_rate() {
        // 25 msg/s * 100 B * 8 = 20 kbps
        let m = BandwidthModel::default();
        assert!((m.stream_bps() - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn zone_load_is_quadratic() {
        let m = BandwidthModel::default();
        let r10 = m.zone_bps(10);
        let r20 = m.zone_bps(20);
        // doubling n roughly quadruples load: 20*21 / (10*11) = 3.82
        assert!((r20 / r10 - (20.0 * 21.0) / (10.0 * 11.0)).abs() < 1e-12);
    }

    #[test]
    fn zone_load_is_sum_of_client_loads() {
        let m = BandwidthModel::default();
        let n = 7;
        let total: f64 = (0..n).map(|_| m.client_target_bps(n)).sum();
        assert!((m.zone_bps(n) - total).abs() < 1e-6);
    }

    #[test]
    fn forwarding_doubles_target_load() {
        let m = BandwidthModel::default();
        assert!((m.client_forwarding_bps(5) - 2.0 * m.client_target_bps(5)).abs() < 1e-12);
    }

    #[test]
    fn target_load_positive_even_in_empty_zone_edge() {
        // R^T_c > 0 must hold for every client; population 1 (just the
        // client) gives f*S*2.
        let m = BandwidthModel::default();
        assert!(m.client_target_bps(1) > 0.0);
        assert!((m.client_target_bps(1) - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_zone_consumes_nothing() {
        let m = BandwidthModel::default();
        assert_eq!(m.zone_bps(0), 0.0);
    }

    #[test]
    fn default_config_baseline_utilisation_matches_paper_ballpark() {
        // 1000 clients in 80 zones (12.5 avg) against 500 Mbps total
        // should sit near the 0.55-0.6 utilisation Table 1 reports for
        // the VirC algorithms.
        let m = BandwidthModel::default();
        let per_zone = m.zone_bps(13); // 12.5 rounded up
        let total = per_zone * 80.0;
        let utilisation = total / 500e6;
        assert!(
            (0.4..0.75).contains(&utilisation),
            "utilisation {utilisation}"
        );
    }
}
