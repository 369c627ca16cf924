//! The timed mesh: routing plus link-occupancy-based congestion.

use row_common::config::NocConfig;
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::stats::RunningMean;
use row_common::Cycle;

use crate::topology::{NodeId, Topology};

/// Message size class. Control messages (requests, invalidations, acks) are
/// single-flit; data messages carry a 64-byte line and occupy
/// [`NocConfig::data_flits`] flits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgClass {
    /// Single-flit request/ack/invalidation.
    Control,
    /// Full-cacheline data transfer.
    Data,
}

/// Aggregate interconnect statistics.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NocStats {
    /// Messages injected.
    pub messages: u64,
    /// Total flit-hops consumed.
    pub flit_hops: u64,
    /// Mean end-to-end latency in cycles.
    pub latency: RunningMean,
}

/// A deterministic 2D mesh with X-Y routing and link serialization.
///
/// [`Mesh::send`] computes when a message injected `now` arrives at `dst`,
/// mutating per-link `busy_until` state so concurrent traffic delays later
/// messages on shared links.
#[derive(Clone, Debug)]
pub struct Mesh {
    topo: Topology,
    cfg: NocConfig,
    link_free: Vec<Cycle>,
    stats: NocStats,
}

impl Mesh {
    /// Creates a mesh for `nodes` tiles with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero columns or `nodes == 0`.
    pub fn new(cfg: NocConfig, nodes: usize) -> Self {
        let topo = Topology::new(cfg.mesh_cols.min(nodes.max(1)), nodes);
        let link_free = vec![Cycle::ZERO; topo.link_count()];
        Mesh {
            topo,
            cfg,
            link_free,
            stats: NocStats::default(),
        }
    }

    /// The mesh topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Injects a message at `now` and returns its delivery cycle at `dst`.
    ///
    /// Latency model per hop: the head flit waits for the link to be free,
    /// then occupies it for `flits` cycles (serialization), paying the link
    /// latency; each traversed router adds its pipeline latency. A
    /// self-message (`src == dst`) pays one router traversal only.
    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MsgClass, now: Cycle) -> Cycle {
        let flits = match class {
            MsgClass::Control => 1,
            MsgClass::Data => self.cfg.data_flits.max(1),
        };
        let mut t = now + self.cfg.router_latency;
        let mut prev = src;
        let route = self.topo.route(src, dst);
        let hops = route.len() as u64;
        for next in route {
            // An X-Y route only ever yields neighbour hops; degrade to a
            // contention-free hop rather than panicking if that ever breaks.
            if let Some(link) = self.topo.try_link_index(prev, next) {
                let start = t.max(self.link_free[link]);
                self.link_free[link] = start + flits;
                t = start + self.cfg.link_latency + self.cfg.router_latency;
            } else {
                debug_assert!(false, "route produced non-neighbour hop {prev} -> {next}");
                t += self.cfg.link_latency + self.cfg.router_latency;
            }
            prev = next;
        }
        // The tail flits of a data message arrive behind the head.
        if hops > 0 {
            t += flits - 1;
        }
        self.stats.messages += 1;
        self.stats.flit_hops += hops * flits;
        self.stats.latency.add(t - now);
        t
    }

    /// Zero-load latency between two nodes for a message class (no occupancy
    /// side effects). Useful for tests and analytical checks.
    pub fn zero_load_latency(&self, src: NodeId, dst: NodeId, class: MsgClass) -> u64 {
        let flits = match class {
            MsgClass::Control => 1,
            MsgClass::Data => self.cfg.data_flits.max(1),
        };
        let hops = self.topo.hops(src, dst) as u64;
        let base =
            self.cfg.router_latency + hops * (self.cfg.link_latency + self.cfg.router_latency);
        if hops > 0 {
            base + flits - 1
        } else {
            base
        }
    }

    /// Interconnect statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// The latest `busy_until` horizon across all links: the cycle after
    /// which the whole mesh is guaranteed idle given no further traffic.
    /// Diagnostic input for stall reports.
    pub fn busy_horizon(&self) -> Cycle {
        self.link_free.iter().copied().max().unwrap_or(Cycle::ZERO)
    }
}

row_common::codec_struct!(NocStats {
    messages,
    flit_hops,
    latency,
});

impl Persist for Mesh {
    // Topology and config are rebuilt from `SystemConfig`; only link
    // occupancy and statistics are mutable state.
    fn persist(&self, w: &mut Writer) {
        self.link_free.encode(w);
        self.stats.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let link_free = Vec::<Cycle>::decode(r)?;
        if link_free.len() != self.link_free.len() {
            return Err(PersistError::Corrupt("mesh link count mismatch"));
        }
        self.link_free = link_free;
        self.stats = NocStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::mesh_8x4(), 32)
    }

    #[test]
    fn self_message_pays_router_only() {
        let mut m = mesh();
        let t = m.send(
            NodeId::new(3),
            NodeId::new(3),
            MsgClass::Control,
            Cycle::new(100),
        );
        assert_eq!(t, Cycle::new(100 + 2));
    }

    #[test]
    fn zero_load_matches_first_send() {
        let mut m = mesh();
        let z = m.zero_load_latency(NodeId::new(0), NodeId::new(31), MsgClass::Data);
        let t = m.send(NodeId::new(0), NodeId::new(31), MsgClass::Data, Cycle::ZERO);
        assert_eq!(t.raw(), z);
    }

    #[test]
    fn farther_nodes_take_longer() {
        let m = mesh();
        let near = m.zero_load_latency(NodeId::new(0), NodeId::new(1), MsgClass::Control);
        let far = m.zero_load_latency(NodeId::new(0), NodeId::new(31), MsgClass::Control);
        assert!(far > near);
    }

    #[test]
    fn data_messages_are_slower_than_control() {
        let m = mesh();
        let c = m.zero_load_latency(NodeId::new(0), NodeId::new(5), MsgClass::Control);
        let d = m.zero_load_latency(NodeId::new(0), NodeId::new(5), MsgClass::Data);
        assert!(d > c);
    }

    #[test]
    fn link_contention_delays_burst() {
        let mut m = mesh();
        // Two data messages injected the same cycle over the same first link.
        let t1 = m.send(NodeId::new(0), NodeId::new(7), MsgClass::Data, Cycle::ZERO);
        let t2 = m.send(NodeId::new(0), NodeId::new(7), MsgClass::Data, Cycle::ZERO);
        assert!(t2 > t1, "second message must queue behind the first");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut m = mesh();
        let t1 = m.send(NodeId::new(0), NodeId::new(1), MsgClass::Data, Cycle::ZERO);
        let t2 = m.send(
            NodeId::new(16),
            NodeId::new(17),
            MsgClass::Data,
            Cycle::ZERO,
        );
        assert_eq!(t1.raw(), t2.raw(), "independent rows share no links");
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut m = mesh();
            let mut out = Vec::new();
            for i in 0..64u16 {
                out.push(m.send(
                    NodeId::new(i % 32),
                    NodeId::new((i * 7) % 32),
                    if i % 3 == 0 {
                        MsgClass::Data
                    } else {
                        MsgClass::Control
                    },
                    Cycle::new(u64::from(i) / 4),
                ));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mesh();
        m.send(
            NodeId::new(0),
            NodeId::new(2),
            MsgClass::Control,
            Cycle::ZERO,
        );
        m.send(NodeId::new(0), NodeId::new(2), MsgClass::Data, Cycle::ZERO);
        assert_eq!(m.stats().messages, 2);
        assert!(m.stats().flit_hops >= 2 + 2 * 5);
        assert!(m.stats().latency.mean() > 0.0);
    }

    #[test]
    fn small_meshes_work() {
        for n in [1usize, 2, 3, 5] {
            let mut m = Mesh::new(NocConfig::mesh_8x4(), n);
            for s in 0..n as u16 {
                for d in 0..n as u16 {
                    let _ = m.send(NodeId::new(s), NodeId::new(d), MsgClass::Data, Cycle::ZERO);
                }
            }
        }
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let mut latency = RunningMean::new();
        latency.add(0x33);
        let pins = [(
            to_bytes(&NocStats {
                messages: 0x11,
                flit_hops: 0x22,
                latency,
            }),
            "11000000000000002200000000000000330000000000000000000000000000000100000000000000",
        )];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
