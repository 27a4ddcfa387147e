//! Deterministic event schedules: the same seed always gives the same
//! events. The world is an input too, but every workload serves the
//! fixed tier replication (see `tier::setup`).

use dve_sim::{ClientId, StreamEvent};
use dve_world::{World, WorldEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The initial clients of a schedule: which are still live, where each
/// is now, and who shares each topology node.
struct Population {
    zone_of: Vec<usize>,
    live: Vec<bool>,
    /// Live initial clients: the only ones a remote producer can address
    /// (joiner ids do not cross the wire).
    addressable: Vec<usize>,
    /// Position of each initial client in `addressable`.
    addr_pos: Vec<usize>,
    /// Initial clients connecting from each node.
    at_node: Vec<Vec<usize>>,
}

impl Population {
    fn new(world: &World) -> Population {
        let k = world.clients.len();
        Population {
            zone_of: world.clients.iter().map(|c| c.zone).collect(),
            live: vec![true; k],
            addressable: (0..k).collect(),
            addr_pos: (0..k).collect(),
            at_node: peers_by_node(world),
        }
    }

    fn pick_live(&self, rng: &mut StdRng) -> usize {
        assert!(
            !self.addressable.is_empty(),
            "the schedule outlived the initial population"
        );
        self.addressable[rng.gen_range(0..self.addressable.len())]
    }

    /// A live client and a new zone for it: the zone of a random live
    /// client at its node. A departed or same-zone peer is drawn again,
    /// up to 16 times, before another mover is drawn.
    fn draw_move(&self, world: &World, rng: &mut StdRng) -> (usize, usize) {
        for _ in 0..10_000 {
            let client = self.pick_live(rng);
            let peers = &self.at_node[world.clients[client].node];
            let zone = (0..16)
                .map(|_| peers[rng.gen_range(0..peers.len())])
                .find(|&peer| self.live[peer] && self.zone_of[peer] != self.zone_of[client])
                .map(|peer| self.zone_of[peer]);
            if let Some(zone) = zone {
                return (client, zone);
            }
        }
        panic!("no live client has a neighbour in another zone");
    }

    fn leave(&mut self, client: usize) {
        self.live[client] = false;
        let pos = self.addr_pos[client];
        self.addressable.swap_remove(pos);
        if let Some(&moved) = self.addressable.get(pos) {
            self.addr_pos[moved] = pos;
        }
    }
}

/// The wire-steady mix: 80% moves and 10% leaves of initial clients,
/// 10% joins.
///
/// A mover goes to the current zone of a random live client at its own
/// topology node, and a joiner copies the node and zone of a random live
/// client. The population's joint node/zone distribution — the zone
/// popularity, and the physical/virtual correlation pQoS depends on —
/// therefore stays stationary in expectation, where uniform
/// destinations would flatten the one and scramble the other. No move
/// targets the mover's current zone and no event addresses a departed
/// client, so every event is valid; a draw that would break either is
/// redrawn within its kind, so the mix keeps its ratios.
pub fn wire_mix(world: &World, seed: u64, events: usize) -> Vec<WorldEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_e5ea);
    let mut pop = Population::new(world);
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let roll: f64 = rng.gen();
        if roll < 0.8 {
            let (client, zone) = pop.draw_move(world, &mut rng);
            pop.zone_of[client] = zone;
            out.push(WorldEvent::Move { client, zone });
        } else if roll < 0.9 {
            let client = pop.pick_live(&mut rng);
            out.push(WorldEvent::Join {
                node: world.clients[client].node,
                zone: pop.zone_of[client],
            });
        } else {
            let client = pop.pick_live(&mut rng);
            pop.leave(client);
            out.push(WorldEvent::Leave { client });
        }
    }
    out
}

/// One burst of the flash-crowd replay.
#[derive(Debug, Clone, PartialEq)]
pub enum Burst {
    /// Client churn, group-committed as one flush.
    Churn(Vec<WorldEvent>),
    /// A server fault event, committed on its own.
    Fault(WorldEvent),
}

impl Burst {
    /// The burst's events, in push order.
    pub fn events(&self) -> &[WorldEvent] {
        match self {
            Burst::Churn(events) => events,
            Burst::Fault(event) => std::slice::from_ref(event),
        }
    }
}

/// The burst bench's storm: 30% of the population moves into the
/// busiest zone, then 500 joins and 500 leaves, in 128-event bursts;
/// the hot zone's target server fails after half the bursts and comes
/// back before the last tenth.
///
/// Who storms is the burst bench's fixed draw: where the crowd comes
/// from decides which server ends up hosting the hot zone, and with it
/// pQoS, so a seed-dependent crowd would make the quality metrics of
/// this workload a lottery across seeds. The seed draws the joins and
/// the leavers.
pub fn flash_storm(world: &World, nodes: usize, hot_target: usize, seed: u64) -> Vec<Burst> {
    let zones = world.zones;
    let hot = hot_zone(world);
    let clients = world.clients.len();
    let mut crowd_rng = StdRng::seed_from_u64(0xf1a5);
    let mut script: Vec<WorldEvent> = world
        .clients
        .iter()
        .enumerate()
        .filter(|(_, c)| c.zone != hot && crowd_rng.gen::<f64>() < 0.35)
        .take(clients * 3 / 10)
        .map(|(client, _)| WorldEvent::Move { client, zone: hot })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a5);
    for _ in 0..500 {
        script.push(WorldEvent::Join {
            node: rng.gen_range(0..nodes),
            zone: rng.gen_range(0..zones),
        });
    }
    let mut left = vec![false; clients];
    let mut departures = 0;
    while departures < 500 {
        let client = rng.gen_range(0..clients);
        if !left[client] {
            left[client] = true;
            script.push(WorldEvent::Leave { client });
            departures += 1;
        }
    }
    let mut bursts: Vec<Burst> = script
        .chunks(128)
        .map(|c| Burst::Churn(c.to_vec()))
        .collect();
    let n = bursts.len();
    bursts.insert(
        n * 9 / 10,
        Burst::Fault(WorldEvent::ServerUp { server: hot_target }),
    );
    bursts.insert(
        n / 2,
        Burst::Fault(WorldEvent::ServerDown { server: hot_target }),
    );
    bursts
}

/// The most populated zone (lowest index on ties).
pub fn hot_zone(world: &World) -> usize {
    let pops = world.zone_populations();
    (0..pops.len())
        .max_by_key(|&z| (pops[z], std::cmp::Reverse(z)))
        .expect("tier has zones")
}

/// The million replay: `warmup` joins, then `events` drawn as the
/// `million` bench draws its steady trace — a third each of leaves,
/// joins and moves, a leave turning into a move while 100 or fewer
/// joiners are live — over the joiners only, so the initial population
/// is never touched. Where the bench draws nodes and zones uniformly,
/// this follows the tier's popularity as [`wire_mix`] does: a joiner
/// copies the node and zone of a random initial client, and a mover
/// goes to the zone of a random initial client at its own node (never
/// its current zone). Joiner ids are known in advance: the engine
/// numbers initial clients `0..k` and hands out `k, k+1, ...` to joins
/// in order (open admission refuses none), so the schedule can address
/// them.
pub fn million_mix(
    world: &World,
    seed: u64,
    warmup: usize,
    events: usize,
) -> (Vec<StreamEvent>, Vec<StreamEvent>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x111_0000);
    let at_node = peers_by_node(world);
    let k = world.clients.len();
    // Live joiners: id, node, current zone.
    let mut live: Vec<(ClientId, usize, usize)> = Vec::new();
    let mut next_id = k as ClientId;
    let mut join = |rng: &mut StdRng, live: &mut Vec<(ClientId, usize, usize)>| {
        let peer = world.clients[rng.gen_range(0..k)];
        live.push((next_id, peer.node, peer.zone));
        next_id += 1;
        StreamEvent::Join {
            node: peer.node,
            zone: peer.zone,
        }
    };
    let warm: Vec<StreamEvent> = (0..warmup).map(|_| join(&mut rng, &mut live)).collect();
    let mut steady = Vec::with_capacity(events);
    while steady.len() < events {
        match rng.gen_range(0..3) {
            0 if live.len() > 100 => {
                let (id, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
                steady.push(StreamEvent::Leave { id });
            }
            1 => steady.push(join(&mut rng, &mut live)),
            _ => {
                let pick = rng.gen_range(0..live.len());
                let (id, node, from) = live[pick];
                let peers = &at_node[node];
                // Redraw a same-zone peer; a node whose peers all share
                // the mover's zone gives up, and the event is drawn again.
                let zone = (0..16)
                    .map(|_| world.clients[peers[rng.gen_range(0..peers.len())]].zone)
                    .find(|&zone| zone != from);
                if let Some(zone) = zone {
                    live[pick].2 = zone;
                    steady.push(StreamEvent::Move { id, zone });
                }
            }
        }
    }
    (warm, steady)
}

/// Initial clients connecting from each topology node.
fn peers_by_node(world: &World) -> Vec<Vec<usize>> {
    let nodes = world.clients.iter().map(|c| c.node + 1).max().unwrap_or(0);
    let mut at_node = vec![Vec::new(); nodes];
    for (c, client) in world.clients.iter().enumerate() {
        at_node[client.node].push(c);
    }
    at_node
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_world::ScenarioConfig;

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(7);
        let mut config = ScenarioConfig::from_notation("10s-60z-6000c-4000cp").unwrap();
        // Clustered in both worlds: hot zones, and zones tied to nodes.
        config.distribution = dve_world::DistributionType::ClusteredBoth;
        config.hot_zones = 3;
        let labels: Vec<u16> = (0..200).map(|n| (n % 10) as u16).collect();
        World::generate(&config, 200, &labels, &mut rng).unwrap()
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let w = world();
        assert_eq!(wire_mix(&w, 3, 5_000), wire_mix(&w, 3, 5_000));
        assert_ne!(wire_mix(&w, 3, 5_000), wire_mix(&w, 4, 5_000));
        assert_eq!(flash_storm(&w, 200, 1, 3), flash_storm(&w, 200, 1, 3));
        assert_ne!(flash_storm(&w, 200, 1, 3), flash_storm(&w, 200, 1, 4));
        assert_eq!(million_mix(&w, 3, 50, 500), million_mix(&w, 3, 50, 500));
        assert_ne!(million_mix(&w, 3, 50, 500), million_mix(&w, 4, 50, 500));
    }

    /// Replays a schedule on a zone histogram, checking every event is
    /// valid against the live population as it goes.
    fn replay_histogram(w: &World, events: &[WorldEvent]) -> Vec<f64> {
        let mut zone_of: Vec<Option<usize>> = w.clients.iter().map(|c| Some(c.zone)).collect();
        let mut hist = vec![0.0; w.zones];
        for c in &w.clients {
            hist[c.zone] += 1.0;
        }
        for e in events {
            match *e {
                WorldEvent::Move { client, zone } => {
                    let from = zone_of[client].expect("moves address live clients");
                    assert_ne!(from, zone, "moves change zone");
                    hist[from] -= 1.0;
                    hist[zone] += 1.0;
                    zone_of[client] = Some(zone);
                }
                WorldEvent::Leave { client } => {
                    let from = zone_of[client].take().expect("leaves address live clients");
                    hist[from] -= 1.0;
                }
                WorldEvent::Join { zone, .. } => hist[zone] += 1.0,
                _ => unreachable!("the wire mix has no fault events"),
            }
        }
        let total: f64 = hist.iter().sum();
        hist.iter().map(|h| h / total).collect()
    }

    fn total_variation(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / 2.0
    }

    #[test]
    fn wire_mix_keeps_the_zone_histogram_stationary() {
        let w = world();
        let start = replay_histogram(&w, &[]);
        // 8 000 events touch the population more than once over.
        let events = wire_mix(&w, 11, 8_000);
        let end = replay_histogram(&w, &events);
        let moves = events
            .iter()
            .filter(|e| matches!(e, WorldEvent::Move { .. }))
            .count();
        let leaves = events
            .iter()
            .filter(|e| matches!(e, WorldEvent::Leave { .. }))
            .count();
        assert!((6_200..6_600).contains(&moves), "{moves} moves of 8 000");
        assert!((650..950).contains(&leaves), "{leaves} leaves of 8 000");
        let drift = total_variation(&start, &end);

        // The same volume of uniform-destination moves flattens the
        // skewed histogram: that is the drift the mix avoids.
        let mut rng = StdRng::seed_from_u64(11);
        let uniform: Vec<WorldEvent> = w
            .clients
            .iter()
            .enumerate()
            .filter_map(|(client, c)| {
                let zone = rng.gen_range(0..w.zones);
                (zone != c.zone).then_some(WorldEvent::Move { client, zone })
            })
            .collect();
        let flattened = total_variation(&start, &replay_histogram(&w, &uniform));
        assert!(drift < 0.08, "popularity-following mix drifted by {drift}");
        assert!(
            drift * 3.0 < flattened,
            "drift {drift} not well below uniform-destination drift {flattened}"
        );
    }

    #[test]
    fn flash_storm_shape() {
        let w = world();
        let bursts = flash_storm(&w, 200, 2, 5);
        let hot = hot_zone(&w);
        let faults: Vec<&WorldEvent> = bursts
            .iter()
            .filter_map(|b| match b {
                Burst::Fault(e) => Some(e),
                Burst::Churn(_) => None,
            })
            .collect();
        assert_eq!(
            faults,
            vec![
                &WorldEvent::ServerDown { server: 2 },
                &WorldEvent::ServerUp { server: 2 }
            ]
        );
        let churn: Vec<&WorldEvent> = bursts
            .iter()
            .flat_map(|b| match b {
                Burst::Churn(events) => events.iter().collect(),
                Burst::Fault(_) => Vec::new(),
            })
            .collect();
        let storm = churn
            .iter()
            .filter(|e| matches!(e, WorldEvent::Move { zone, .. } if *zone == hot))
            .count();
        assert_eq!(storm, w.clients.len() * 3 / 10);
        assert_eq!(churn.len(), storm + 1_000);
        assert!(bursts.iter().all(|b| match b {
            Burst::Churn(e) => e.len() <= 128,
            Burst::Fault(_) => true,
        }));
    }

    #[test]
    fn million_mix_addresses_only_live_joiners_and_follows_popularity() {
        let w = world();
        let (warm, steady) = million_mix(&w, 9, 150, 6_000);
        assert_eq!(warm.len(), 150);
        assert_eq!(steady.len(), 6_000);
        assert!(warm.iter().all(|e| matches!(e, StreamEvent::Join { .. })));
        let pairs: std::collections::HashSet<(usize, usize)> =
            w.clients.iter().map(|c| (c.node, c.zone)).collect();
        let mut live: std::collections::HashMap<ClientId, (usize, usize)> = Default::default();
        let mut next = w.clients.len() as ClientId;
        let mut counts = [0usize; 3];
        for e in warm.iter().chain(&steady) {
            match *e {
                StreamEvent::Join { node, zone } => {
                    assert!(pairs.contains(&(node, zone)), "a joiner copies a client");
                    live.insert(next, (node, zone));
                    next += 1;
                    counts[0] += 1;
                }
                StreamEvent::Leave { id } => {
                    assert!(live.remove(&id).is_some(), "leave of dead {id}");
                    counts[1] += 1;
                }
                StreamEvent::Move { id, zone } => {
                    let at = live.get_mut(&id).expect("moves address live joiners");
                    assert_ne!(at.1, zone, "moves change zone");
                    assert!(pairs.contains(&(at.0, zone)), "a mover follows its node");
                    at.1 = zone;
                    counts[2] += 1;
                }
            }
        }
        // Roughly a third each in the steady part (joins include warm-up).
        let (joins, leaves, moves) = (counts[0] - 150, counts[1], counts[2]);
        for n in [joins, leaves, moves] {
            assert!((1_600..2_400).contains(&n), "mix {joins}/{leaves}/{moves}");
        }
    }
}
