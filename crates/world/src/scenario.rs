//! Scenario configuration, including the paper's compact DVE notation
//! `"<m>s-<n>z-<k>c-<cap>cp"` (servers, zones, clients, total capacity in
//! Mbps), e.g. `20s-80z-1000c-500cp` for the default configuration.

use crate::bandwidth::BandwidthModel;
use crate::distribution::DistributionType;
use std::fmt;
use std::str::FromStr;

/// How total capacity is split across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPolicy {
    /// Every server receives `total / m` (the minimum is checked).
    Uniform,
    /// Random split: every server gets the minimum, the remainder is
    /// distributed with random proportions.
    RandomHeterogeneous,
}

/// Full description of a DVE scenario to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of geographically distributed servers (paper default: 20).
    pub servers: usize,
    /// Number of virtual-world zones (default: 80).
    pub zones: usize,
    /// Number of clients (default: 1000).
    pub clients: usize,
    /// Total system capacity in bits per second (default: 500 Mbps).
    pub total_capacity_bps: f64,
    /// Minimum per-server capacity in bits per second (default: 10 Mbps).
    pub min_capacity_bps: f64,
    /// Capacity split policy.
    pub capacity_policy: CapacityPolicy,
    /// Physical/virtual world correlation `delta` in [0, 1] (default 0.5).
    pub correlation: f64,
    /// Client distribution type (Table 2 of the paper).
    pub distribution: DistributionType,
    /// Number of "hot" zones when the virtual world is clustered.
    pub hot_zones: usize,
    /// Population weight multiplier of a hot zone (paper: 10x).
    pub hot_zone_factor: f64,
    /// Number of "hot" physical nodes when the physical world is clustered.
    pub hot_nodes: usize,
    /// Weight multiplier of a hot physical node (10x).
    pub hot_node_factor: f64,
    /// Message-rate model for bandwidth estimation.
    pub bandwidth: BandwidthModel,
}

impl Default for ScenarioConfig {
    /// The paper's default scenario: `20s-80z-1000c-500cp`, delta = 0.5,
    /// uniform distributions.
    fn default() -> Self {
        ScenarioConfig {
            servers: 20,
            zones: 80,
            clients: 1000,
            total_capacity_bps: 500e6,
            min_capacity_bps: 10e6,
            capacity_policy: CapacityPolicy::Uniform,
            correlation: 0.5,
            distribution: DistributionType::Uniform,
            hot_zones: 1,
            hot_zone_factor: 10.0,
            hot_nodes: 5,
            hot_node_factor: 10.0,
            bandwidth: BandwidthModel::default(),
        }
    }
}

/// Error from parsing the compact scenario notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotationError(pub String);

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad scenario notation: {}", self.0)
    }
}

impl std::error::Error for NotationError {}

impl ScenarioConfig {
    /// Builds a config from the paper's notation (`"20s-80z-1000c-500cp"`),
    /// keeping every other knob at its default.
    pub fn from_notation(s: &str) -> Result<Self, NotationError> {
        let parts: Vec<&str> = s.trim().split('-').collect();
        if parts.len() != 4 {
            return Err(NotationError(format!(
                "expected 4 dash-separated fields, got {} in {s:?}",
                parts.len()
            )));
        }
        fn field(part: &str, suffix: &str) -> Result<usize, NotationError> {
            let digits = part
                .strip_suffix(suffix)
                .ok_or_else(|| NotationError(format!("field {part:?} must end with {suffix:?}")))?;
            digits
                .parse::<usize>()
                .map_err(|e| NotationError(format!("field {part:?}: {e}")))
        }
        let servers = field(parts[0], "s")?;
        let zones = field(parts[1], "z")?;
        let clients = field(parts[2], "c")?;
        let cap_mbps = field(parts[3], "cp")?;
        if servers == 0 || zones == 0 {
            return Err(NotationError("servers and zones must be positive".into()));
        }
        Ok(ScenarioConfig {
            servers,
            zones,
            clients,
            total_capacity_bps: cap_mbps as f64 * 1e6,
            ..Default::default()
        })
    }

    /// Renders the compact notation of this config.
    pub fn notation(&self) -> String {
        format!(
            "{}s-{}z-{}c-{}cp",
            self.servers,
            self.zones,
            self.clients,
            (self.total_capacity_bps / 1e6).round() as u64
        )
    }

    /// Validates parameter ranges and capacity consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("need at least one server".into());
        }
        if self.zones == 0 {
            return Err("need at least one zone".into());
        }
        if !(0.0..=1.0).contains(&self.correlation) {
            return Err(format!("correlation {} outside [0,1]", self.correlation));
        }
        if self.total_capacity_bps <= 0.0 || !self.total_capacity_bps.is_finite() {
            return Err("total capacity must be positive".into());
        }
        if self.min_capacity_bps < 0.0 {
            return Err("min capacity must be non-negative".into());
        }
        if self.min_capacity_bps * self.servers as f64 > self.total_capacity_bps + 1e-9 {
            return Err(format!(
                "minimum capacity x servers ({}) exceeds total capacity ({})",
                self.min_capacity_bps * self.servers as f64,
                self.total_capacity_bps
            ));
        }
        if self.hot_zone_factor < 1.0 || self.hot_node_factor < 1.0 {
            return Err("hot factors must be >= 1".into());
        }
        Ok(())
    }

    /// The four DVE configurations of Table 1, smallest to largest.
    pub fn table1_configs() -> Vec<ScenarioConfig> {
        [
            "5s-15z-200c-100cp",
            "10s-30z-400c-200cp",
            "20s-80z-1000c-500cp",
            "30s-160z-2000c-1000cp",
        ]
        .iter()
        .map(|s| ScenarioConfig::from_notation(s).expect("static notation"))
        .collect()
    }
}

impl FromStr for ScenarioConfig {
    type Err = NotationError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioConfig::from_notation(s)
    }
}

impl fmt::Display for ScenarioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_notation() {
        let c = ScenarioConfig::from_notation("20s-80z-1000c-500cp").unwrap();
        assert_eq!(c.servers, 20);
        assert_eq!(c.zones, 80);
        assert_eq!(c.clients, 1000);
        assert!((c.total_capacity_bps - 500e6).abs() < 1.0);
        assert_eq!(c.notation(), "20s-80z-1000c-500cp");
    }

    #[test]
    fn notation_round_trips() {
        for s in ["5s-15z-200c-100cp", "30s-160z-2000c-1000cp"] {
            assert_eq!(ScenarioConfig::from_notation(s).unwrap().notation(), s);
        }
    }

    #[test]
    fn rejects_malformed_notation() {
        assert!(ScenarioConfig::from_notation("20s-80z-1000c").is_err());
        assert!(ScenarioConfig::from_notation("20x-80z-1000c-500cp").is_err());
        assert!(ScenarioConfig::from_notation("s-80z-1000c-500cp").is_err());
        assert!(ScenarioConfig::from_notation("0s-80z-1000c-500cp").is_err());
    }

    #[test]
    fn default_is_the_paper_default_and_valid() {
        let c = ScenarioConfig::default();
        assert_eq!(c.notation(), "20s-80z-1000c-500cp");
        assert!(c.validate().is_ok());
        assert_eq!(c.correlation, 0.5);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = ScenarioConfig::default();
        c.correlation = 1.5;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::default();
        c.min_capacity_bps = 100e6; // 20 * 100M > 500M
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::default();
        c.hot_zone_factor = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn table1_configs_match_paper() {
        let configs = ScenarioConfig::table1_configs();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].notation(), "5s-15z-200c-100cp");
        assert_eq!(configs[3].clients, 2000);
    }

    #[test]
    fn fromstr_works() {
        let c: ScenarioConfig = "10s-30z-400c-200cp".parse().unwrap();
        assert_eq!(c.servers, 10);
        assert_eq!(format!("{c}"), "10s-30z-400c-200cp");
    }
}
