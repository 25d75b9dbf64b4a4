//! overlap_scaling — compute/communication overlap of the collective
//! scheduler: exposed-comm fraction and speedup over the serial schedule
//! versus device count × topology × gradient bucket size.
//!
//! For each device count the experiment simulates AlexNet's training
//! passes **once** under the zero-cost `ideal` fabric (the on-device
//! replay is fabric-independent — the same trick `gpu_scaling` uses) and
//! then reprices the halo and all-reduce per topology from the recorded
//! per-device critical paths, scheduling the step with
//! [`delta_sim::collective::schedule_step`] at each bucket size. Columns:
//!
//! * `comm_ms` / `exposed_ms` / `exposed_frac` — total all-reduce time,
//!   the part left past the end of compute, and their ratio (small
//!   buckets expose only the tail bucket; one huge bucket exposes
//!   everything that cannot start before the last gradient);
//! * `step_ms` / `serial_ms` / `speedup` — the overlapped step against
//!   the all-comm-after-compute schedule;
//! * `bounds` — whether `max(compute, comm) <= step <= serial` held
//!   (must be `true` on every row; `tests/integration_overlap.rs` pins
//!   the same invariant).

use crate::ctx::Ctx;
use crate::table::{f3, Table};
use delta_model::{training, Error, GpuSpec};
use delta_sim::collective::{schedule_step, LayerPasses};
use delta_sim::{InterconnectKind, Simulator, Topology, TopologyKind};

/// Device counts swept by the experiment.
pub const DEVICE_COUNTS: [u32; 3] = [2, 4, 8];

/// Gradient bucket sizes (MiB) swept by the experiment.
pub const BUCKET_MB: [u32; 3] = [4, 25, 100];

/// Runs the overlap-scaling sweep.
///
/// # Errors
///
/// Propagates layer and backward-pass construction failures.
pub fn run(ctx: &Ctx) -> Result<Vec<Table>, Error> {
    let gpu = GpuSpec::titan_xp();
    let base = InterconnectKind::NvLink.params();
    let net = delta_networks::alexnet(ctx.sim_batch)?;
    let mut t = Table::new(
        format!(
            "overlap_scaling — collective scheduler overlap on AlexNet, B={} on {} (nvlink hops)",
            ctx.sim_batch,
            gpu.name()
        ),
        &[
            "topology",
            "devices",
            "bucket_mb",
            "compute_ms",
            "comm_ms",
            "exposed_ms",
            "exposed_frac",
            "step_ms",
            "serial_ms",
            "speedup",
            "bounds",
        ],
    );
    let sim = Simulator::new(gpu.clone(), ctx.sim_config);
    for &g in &DEVICE_COUNTS {
        // One fabric-independent replay per (pass, device count): record
        // the busiest device's cycles, the pass input's footprint, and
        // the active device count; every topology reprices from these.
        let mut passes_raw = Vec::new();
        for (i, l) in net.layers().iter().enumerate() {
            let record = |layer: &delta_model::ConvLayer| {
                let m = sim.run_multi(layer, g, InterconnectKind::Ideal, None);
                (
                    gpu.clks_to_seconds(m.max_device_cycles()),
                    layer.ifmap_bytes() as f64,
                    m.active_devices,
                )
            };
            let fwd = record(l);
            let dgrad = if i == 0 {
                None
            } else {
                Some(record(&training::dgrad_layer(l)?))
            };
            let wgrad = record(&training::wgrad_layer(l)?);
            passes_raw.push((l.label().to_string(), fwd, dgrad, wgrad, l.filter_bytes()));
        }
        for kind in TopologyKind::ALL {
            let topo = Topology::build(kind, g);
            let fabric = topo.price(&base);
            let time = |&(compute, ifmap, active): &(f64, f64, u32)| {
                compute + fabric.halo_seconds(ifmap, active)
            };
            let passes: Vec<LayerPasses> = passes_raw
                .iter()
                .map(|(label, fwd, dgrad, wgrad, grad_bytes)| LayerPasses {
                    label: label.clone(),
                    forward_seconds: time(fwd),
                    dgrad_seconds: dgrad.as_ref().map(&time),
                    wgrad_seconds: time(wgrad),
                    grad_bytes: *grad_bytes,
                })
                .collect();
            for &bucket_mb in &BUCKET_MB {
                let tl = schedule_step(
                    "sim",
                    gpu.name(),
                    g,
                    &passes,
                    u64::from(bucket_mb) << 20,
                    true,
                    |bytes| topo.all_reduce_seconds(&base, bytes),
                );
                t.push(vec![
                    kind.to_string(),
                    g.to_string(),
                    bucket_mb.to_string(),
                    format!("{:.4}", tl.compute_seconds * 1e3),
                    format!("{:.4}", tl.comm_seconds * 1e3),
                    format!("{:.4}", tl.exposed_comm_seconds * 1e3),
                    f3(tl.exposed_fraction()),
                    format!("{:.4}", tl.step_seconds * 1e3),
                    format!("{:.4}", tl.serial_seconds * 1e3),
                    f3(tl.speedup_over_serial()),
                    tl.bounds_hold().to_string(),
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
    fn smoke_run_covers_the_sweep_and_bounds_hold_everywhere() {
        let tables = run(&Ctx::smoke()).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(
            t.len(),
            DEVICE_COUNTS.len() * TopologyKind::ALL.len() * BUCKET_MB.len(),
            "3 device counts x 4 topologies x 3 bucket sizes"
        );
        let bounds = t.column("bounds").unwrap();
        assert!(t.rows().iter().all(|r| r[bounds] == "true"), "{t}");
        // The overlapped step never loses to serial.
        for s in t.column_f64("speedup") {
            assert!(s >= 1.0 - 1e-12, "speedup {s}");
        }
        // Exposure is a fraction.
        for f in t.column_f64("exposed_frac") {
            assert!((0.0..=1.0 + 1e-12).contains(&f), "frac {f}");
        }
    }

    #[test]
    fn small_buckets_expose_less_than_one_giant_bucket() {
        // With one bucket the exchange cannot start before the last
        // gradient; with small buckets most of it hides behind backward
        // compute. Compare at the config where comm is most visible
        // (hierarchical, 8 devices).
        let tables = run(&Ctx::smoke()).unwrap();
        let t = &tables[0];
        let (topo, dev, bmb, exp) = (
            t.column("topology").unwrap(),
            t.column("devices").unwrap(),
            t.column("bucket_mb").unwrap(),
            t.column("exposed_ms").unwrap(),
        );
        let pick = |bucket: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[topo] == "hierarchical" && r[dev] == "8" && r[bmb] == bucket)
                .map(|r| r[exp].parse().unwrap())
                .unwrap()
        };
        assert!(
            pick("4") <= pick("100") + 1e-9,
            "4 MiB buckets must not expose more than 100 MiB buckets"
        );
    }

    #[test]
    fn experiment_pricing_matches_the_simulator_scheduler() {
        // The repricing shortcut must agree with the production seam:
        // the simulator's step query under the same topology, bucket
        // size, and device count produces the same timeline totals.
        use delta_model::query::{Parallelism, StepQuery};
        use delta_model::Backend;
        let ctx = Ctx::smoke();
        let net = delta_networks::alexnet(ctx.sim_batch).unwrap();
        let g = 4;
        let sim = Simulator::new(GpuSpec::titan_xp(), ctx.sim_config);
        let direct = sim
            .evaluate_step(&StepQuery {
                layers: net.layers().to_vec(),
                parallelism: Parallelism::Multi {
                    devices: vec![GpuSpec::titan_xp(); g as usize],
                    interconnect: InterconnectKind::NvLink,
                    topology: Some(TopologyKind::Ring),
                },
                bucket_mb: 4,
                overlap: true,
            })
            .unwrap()
            .timeline;

        // Rebuild the same cell the experiment way.
        let gpu = GpuSpec::titan_xp();
        let base = InterconnectKind::NvLink.params();
        let topo = Topology::build(TopologyKind::Ring, g);
        let fabric = topo.price(&base);
        let record = |layer: &delta_model::ConvLayer| {
            let m = sim.run_multi(layer, g, InterconnectKind::Ideal, None);
            gpu.clks_to_seconds(m.max_device_cycles())
                + fabric.halo_seconds(layer.ifmap_bytes() as f64, m.active_devices)
        };
        let passes: Vec<LayerPasses> = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| LayerPasses {
                label: l.label().to_string(),
                forward_seconds: record(l),
                dgrad_seconds: (i > 0).then(|| record(&training::dgrad_layer(l).unwrap())),
                wgrad_seconds: record(&training::wgrad_layer(l).unwrap()),
                grad_bytes: l.filter_bytes(),
            })
            .collect();
        let repriced = schedule_step("sim", gpu.name(), g, &passes, 4 << 20, true, |bytes| {
            topo.all_reduce_seconds(&base, bytes)
        });
        assert_eq!(repriced.step_seconds, direct.step_seconds);
        assert_eq!(repriced.serial_seconds, direct.serial_seconds);
        assert_eq!(repriced.comm_seconds, direct.comm_seconds);
        assert_eq!(repriced.compute_seconds, direct.compute_seconds);
    }
}
