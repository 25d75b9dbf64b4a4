//! Cross-device interconnect model for multi-GPU simulation.
//!
//! The paper models one GPU's memory system; scaling a training step
//! across devices adds a new traffic class the on-device hierarchy never
//! sees: **link traffic** between GPUs. Two flows dominate a
//! data/model-parallel conv layer (paper §II-A's training pipeline):
//!
//! * **halo IFmap refetches** — when a layer's CTA-tile columns are
//!   partitioned across devices, every non-owner device re-reads the
//!   IFmap over the interconnect (the multi-device analog of the model's
//!   per-column refetch assumption, Eq. 10);
//! * **gradient all-reduce** — data-parallel training exchanges each
//!   layer's weight gradients once per step; a ring all-reduce moves
//!   `2·(G−1)/G × |∇W|` bytes per device in `2·(G−1)` latency-bound
//!   steps.
//!
//! [`Interconnect`] prices both flows from three parameters (per-device
//! link bandwidth, per-transfer latency, and a topology factor that
//! multiplies bytes for multi-hop/contended fabrics). The presets are
//! NVLink- and PCIe-class numbers plus the **`ideal`** interconnect —
//! zero bytes, zero seconds — which exists so the rest of the multi-GPU
//! machinery can be tested in isolation: under `ideal`, a G-device run
//! must be bitwise identical to the single-device sharded run, making
//! the interconnect model the *only* source of multi-GPU divergence.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which interconnect preset a multi-device evaluation charges
/// cross-device traffic through. This is the serializable configuration
/// knob carried by [`crate::query::Parallelism::Multi`];
/// [`InterconnectKind::params`] expands it to the numeric model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterconnectKind {
    /// Zero-cost, zero-traffic interconnect: multi-GPU results are
    /// bitwise identical to the single-device sharded run.
    Ideal,
    /// NVLink-class fabric (V100 era: 6 links × 25 GB/s per device).
    NvLink,
    /// PCIe-class fabric (gen3 x16 effective throughput, host-routed).
    Pcie,
}

impl InterconnectKind {
    /// Every preset, in CLI/documentation order.
    pub const ALL: [InterconnectKind; 3] = [
        InterconnectKind::Ideal,
        InterconnectKind::NvLink,
        InterconnectKind::Pcie,
    ];

    /// Expands the preset to its numeric parameters.
    pub fn params(self) -> Interconnect {
        match self {
            InterconnectKind::Ideal => Interconnect::ideal(),
            InterconnectKind::NvLink => Interconnect::nvlink(),
            InterconnectKind::Pcie => Interconnect::pcie(),
        }
    }
}

impl fmt::Display for InterconnectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterconnectKind::Ideal => "ideal",
            InterconnectKind::NvLink => "nvlink",
            InterconnectKind::Pcie => "pcie",
        })
    }
}

impl FromStr for InterconnectKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ideal" => Ok(InterconnectKind::Ideal),
            "nvlink" => Ok(InterconnectKind::NvLink),
            "pcie" => Ok(InterconnectKind::Pcie),
            other => Err(format!(
                "unknown interconnect `{other}` (expected ideal, nvlink, or pcie)"
            )),
        }
    }
}

/// A priced interconnect: per-device link bandwidth, per-transfer
/// latency, and a topology factor multiplying every byte that crosses a
/// link (1.0 = direct point-to-point; >1 charges multi-hop routing and
/// fabric contention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Which preset these parameters describe.
    pub kind: InterconnectKind,
    /// Effective per-device link bandwidth in GB/s (one direction).
    pub link_bw_gbps: f64,
    /// Per-transfer setup latency in seconds.
    pub latency_s: f64,
    /// Multiplier on logical bytes for hops/contention.
    pub topology_factor: f64,
}

impl Interconnect {
    /// The zero-cost interconnect: every pricing function returns 0.
    pub fn ideal() -> Interconnect {
        Interconnect {
            kind: InterconnectKind::Ideal,
            link_bw_gbps: f64::INFINITY,
            latency_s: 0.0,
            topology_factor: 0.0,
        }
    }

    /// NVLink-class: 150 GB/s per device (6 × 25 GB/s links), ~1.3 µs
    /// transfer setup, direct topology.
    pub fn nvlink() -> Interconnect {
        Interconnect {
            kind: InterconnectKind::NvLink,
            link_bw_gbps: 150.0,
            latency_s: 1.3e-6,
            topology_factor: 1.0,
        }
    }

    /// PCIe-class: 12 GB/s effective (gen3 x16), ~5 µs setup, and a 1.5×
    /// topology factor for host-routed peer traffic.
    pub fn pcie() -> Interconnect {
        Interconnect {
            kind: InterconnectKind::Pcie,
            link_bw_gbps: 12.0,
            latency_s: 5e-6,
            topology_factor: 1.5,
        }
    }

    /// Bytes actually crossing links when `bytes` logical bytes are
    /// transferred (topology factor applied; 0 under `ideal`).
    pub fn effective_bytes(&self, bytes: f64) -> f64 {
        bytes * self.topology_factor
    }

    /// Seconds for one bulk transfer of `bytes` logical bytes.
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        self.latency_s + self.effective_bytes(bytes) / (self.link_bw_gbps * 1e9)
    }

    /// Link bytes of the halo IFmap refetch when a layer whose IFmap is
    /// `ifmap_bytes` large runs its tile columns on `active_devices`
    /// devices: each non-owner device pulls the full IFmap once.
    pub fn halo_bytes(&self, ifmap_bytes: f64, active_devices: u32) -> f64 {
        self.effective_bytes(ifmap_bytes * f64::from(active_devices.saturating_sub(1)))
    }

    /// Seconds of the halo IFmap refetch: the non-owner devices' pulls
    /// share the fabric, so the volume is serialized over one device's
    /// link bandwidth with one setup latency per peer.
    pub fn halo_seconds(&self, ifmap_bytes: f64, active_devices: u32) -> f64 {
        let peers = f64::from(active_devices.saturating_sub(1));
        if peers == 0.0 {
            return 0.0;
        }
        peers * self.latency_s
            + self.effective_bytes(ifmap_bytes * peers) / (self.link_bw_gbps * 1e9)
    }

    /// Total link bytes of a ring all-reduce of `payload` bytes across
    /// `devices` devices: every device sends `2·(G−1)/G × payload`.
    pub fn all_reduce_bytes(&self, payload: f64, devices: u32) -> f64 {
        if devices < 2 {
            return 0.0;
        }
        let g = f64::from(devices);
        self.effective_bytes(2.0 * (g - 1.0) * payload)
    }

    /// Seconds of a ring all-reduce: `2·(G−1)` steps, each moving
    /// `payload/G` bytes per link in parallel.
    pub fn all_reduce_seconds(&self, payload: f64, devices: u32) -> f64 {
        if devices < 2 {
            return 0.0;
        }
        let g = f64::from(devices);
        2.0 * (g - 1.0)
            * (self.latency_s + self.effective_bytes(payload / g) / (self.link_bw_gbps * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_strings() {
        for kind in InterconnectKind::ALL {
            let s = kind.to_string();
            assert_eq!(s.parse::<InterconnectKind>().unwrap(), kind);
            // serde round trip as the variant name.
            let json = serde_json::to_string(&kind).unwrap();
            let back: InterconnectKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
        let err = "infiniband".parse::<InterconnectKind>().unwrap_err();
        assert!(
            err.contains("infiniband") && err.contains("nvlink"),
            "{err}"
        );
    }

    #[test]
    fn ideal_prices_everything_at_zero() {
        let ic = Interconnect::ideal();
        assert_eq!(ic.effective_bytes(1e9), 0.0);
        assert_eq!(ic.transfer_seconds(1e9), 0.0);
        assert_eq!(ic.halo_bytes(1e9, 4), 0.0);
        assert_eq!(ic.halo_seconds(1e9, 4), 0.0);
        assert_eq!(ic.all_reduce_bytes(1e9, 8), 0.0);
        assert_eq!(ic.all_reduce_seconds(1e9, 8), 0.0);
    }

    #[test]
    fn single_device_transfers_nothing() {
        for kind in InterconnectKind::ALL {
            let ic = kind.params();
            assert_eq!(ic.halo_bytes(1e9, 1), 0.0, "{kind}");
            assert_eq!(ic.halo_seconds(1e9, 1), 0.0, "{kind}");
            assert_eq!(ic.halo_bytes(1e9, 0), 0.0, "{kind}");
            assert_eq!(ic.all_reduce_bytes(1e9, 1), 0.0, "{kind}");
            assert_eq!(ic.all_reduce_seconds(1e9, 1), 0.0, "{kind}");
        }
    }

    #[test]
    fn nvlink_beats_pcie_on_bytes_and_time() {
        let nv = Interconnect::nvlink();
        let pc = Interconnect::pcie();
        let (payload, g) = (100e6, 4);
        assert!(nv.all_reduce_seconds(payload, g) < pc.all_reduce_seconds(payload, g));
        assert!(nv.all_reduce_bytes(payload, g) < pc.all_reduce_bytes(payload, g));
        assert!(nv.halo_seconds(payload, g) < pc.halo_seconds(payload, g));
        // Both charge strictly positive cost for real transfers.
        assert!(nv.transfer_seconds(1e6) > 0.0);
        assert!(pc.halo_bytes(1e6, 2) > 0.0);
    }

    #[test]
    fn ring_all_reduce_volume_matches_the_closed_form() {
        let ic = Interconnect::nvlink();
        // 2 (G-1) * payload, topology factor 1.
        assert!((ic.all_reduce_bytes(1e6, 4) - 6e6).abs() < 1e-6);
        // Bandwidth term scales with payload/G per step.
        let t = ic.all_reduce_seconds(150e9, 4); // 150 GB payload
        let bw_term = 2.0 * 3.0 * (150e9 / 4.0) / 150e9;
        assert!((t - bw_term).abs() / bw_term < 1e-3, "{t} vs {bw_term}");
    }

    #[test]
    fn topology_factor_multiplies_pcie_bytes() {
        let pc = Interconnect::pcie();
        assert!((pc.halo_bytes(1e6, 2) - 1.5e6).abs() < 1e-9);
        assert!((pc.all_reduce_bytes(1e6, 2) - 3e6).abs() < 1e-9);
    }
}
