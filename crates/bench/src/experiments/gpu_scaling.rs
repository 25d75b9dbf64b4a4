//! gpu_scaling — multi-GPU strong scaling of one layer's simulation:
//! modeled step time, speedup, and traffic versus device count, per
//! interconnect preset.
//!
//! For each big conv layer ([`crate::experiments::shard_scaling::
//! big_layers`]), each interconnect preset, and each device count, the
//! sweep records the per-device critical path
//! ([`delta_sim::MultiGpuMeasurement::step_seconds`]), the speedup over one device
//! on the same interconnect, the DRAM and link traffic, and — the
//! correctness column — whether the merged measurement is bitwise
//! identical to the single-device sharded run. The identity must hold
//! for **every** interconnect (the interconnect prices traffic on top of
//! the merge, it never perturbs it); `tests/integration_multigpu.rs`
//! pins the same invariant.
//!
//! The emitted CSV is the speedup-and-traffic-vs-G artifact: ideal rows
//! isolate the partitioning (speedup saturates at min(devices,
//! columns)), nvlink/pcie rows show how halo refetches erode it.

use crate::ctx::Ctx;
use crate::experiments::shard_scaling::big_layers;
use crate::table::{f3, Table};
use delta_model::{Error, GpuSpec};
use delta_sim::{InterconnectKind, Simulator};

/// Device counts swept by the experiment.
pub const DEVICE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Runs the multi-GPU scaling sweep.
///
/// # Errors
///
/// Propagates layer validation failures.
pub fn run(ctx: &Ctx) -> Result<Vec<Table>, Error> {
    let gpu = GpuSpec::titan_xp();
    let mut t = Table::new(
        format!(
            "gpu_scaling — multi-GPU simulation scaling, B={} on {}",
            ctx.sim_batch,
            gpu.name()
        ),
        &[
            "layer",
            "columns",
            "interconnect",
            "devices",
            "active",
            "step_ms",
            "speedup",
            "dram_gb",
            "link_gb",
            "identical",
        ],
    );
    for layer in big_layers(ctx.sim_batch)? {
        let sim = Simulator::new(gpu.clone(), ctx.sim_config);
        // The identity reference: the single-device sharded replay.
        let reference = sim.run_sharded(&layer, 1);
        let columns = sim.tiling(&layer).cta_columns();
        // The on-device replay does not depend on the interconnect (the
        // fabric only prices traffic on top of the merge — the invariant
        // the `identical` column checks), so simulate each device count
        // once and reprice the halo per preset instead of re-running the
        // whole trace per (kind, devices) pair.
        let runs: Vec<_> = DEVICE_COUNTS
            .iter()
            .map(|&g| sim.run_multi(&layer, g, InterconnectKind::Ideal, None))
            .collect();
        let ifmap = layer.ifmap_bytes() as f64;
        for kind in InterconnectKind::ALL {
            let ic = kind.params();
            let step_of = |m: &delta_sim::MultiGpuMeasurement| {
                gpu.clks_to_seconds(m.max_device_cycles())
                    + ic.halo_seconds(ifmap, m.active_devices)
            };
            let t1 = step_of(&runs[0]);
            for (devices, m) in DEVICE_COUNTS.iter().zip(&runs) {
                let step = step_of(m);
                t.push(vec![
                    layer.label().to_string(),
                    columns.to_string(),
                    kind.to_string(),
                    devices.to_string(),
                    m.active_devices.to_string(),
                    format!("{:.4}", step * 1e3),
                    f3(t1 / step),
                    format!("{:.4}", m.merged.dram_read_bytes / 1e9),
                    format!("{:.6}", ic.halo_bytes(ifmap, m.active_devices) / 1e9),
                    (m.merged == reference).to_string(),
                ]);
            }
        }
    }
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_the_full_sweep_and_holds_the_identity() {
        let tables = run(&Ctx::smoke()).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(
            t.len(),
            3 * InterconnectKind::ALL.len() * DEVICE_COUNTS.len(),
            "3 layers x 3 interconnects x 4 device counts"
        );
        // The merge identity holds on every row, ideal or not.
        let id = t.column("identical").unwrap();
        assert!(t.rows().iter().all(|r| r[id] == "true"), "{t}");
    }

    #[test]
    fn ideal_scales_and_nonideal_carries_link_traffic() {
        let tables = run(&Ctx::smoke()).unwrap();
        let t = &tables[0];
        let (ic, dev, spd, link) = (
            t.column("interconnect").unwrap(),
            t.column("devices").unwrap(),
            t.column("speedup").unwrap(),
            t.column("link_gb").unwrap(),
        );
        for r in t.rows() {
            let devices: u32 = r[dev].parse().unwrap();
            let speedup: f64 = r[spd].parse().unwrap();
            let link: f64 = r[link].parse().unwrap();
            if r[ic] == "ideal" {
                assert_eq!(link, 0.0, "ideal moves no link bytes: {r:?}");
                if devices > 1 {
                    assert!(speedup >= 1.0, "ideal multi-device can't slow down: {r:?}");
                }
            } else if devices > 1 {
                let active: u32 = r[t.column("active").unwrap()].parse().unwrap();
                assert!(
                    (link > 0.0) == (active > 1),
                    "non-ideal link traffic iff >1 active device: {r:?}"
                );
            }
            if devices == 1 {
                assert!((speedup - 1.0).abs() < 1e-9, "self-speedup is 1: {r:?}");
                assert_eq!(link, 0.0, "single device moves no link bytes: {r:?}");
            }
        }
        // PCIe erodes the 4-device speedup below ideal's on the widest
        // layer (halo refetch over a 12 GB/s fabric is not free).
        let lay = t.column("layer").unwrap();
        let pick = |kind: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[lay] == "resnet152_conv5_1x1" && r[ic] == kind && r[dev] == "4")
                .map(|r| r[spd].parse().unwrap())
                .unwrap()
        };
        assert!(pick("pcie") < pick("ideal"));
    }
}
