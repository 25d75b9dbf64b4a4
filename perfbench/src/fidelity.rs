//! Model–simulator agreement (`gmae_*`) and the sampling error of the
//! default simulator configuration (`sample_err_*`), computed outside
//! every timed phase. The repository holds no hardware measurements:
//! the simulator stands in for the paper's nvprof runs, so these are
//! agreement figures, not hardware error.

use delta_bench::stats::gmae;
use delta_model::{Backend, ConvLayer, Delta, EvalQuery, LayerEstimate, Parallelism, Pass};
use delta_sim::{SimConfig, Simulator};
use std::collections::HashSet;
use std::time::Instant;

pub const NOTE: &str = "no hardware reference: model–simulator agreement";

/// Per-level GMAE of `(candidate, reference)` estimate pairs: L1, L2,
/// DRAM read bytes and time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Levels {
    pub l1: f64,
    pub l2: f64,
    pub dram: f64,
    pub time: f64,
}

impl Levels {
    pub fn of(pairs: &[(LayerEstimate, LayerEstimate)]) -> Levels {
        let level = |f: fn(&LayerEstimate) -> f64| {
            gmae(&pairs.iter().map(|(c, r)| f(c) / f(r)).collect::<Vec<_>>())
        };
        Levels {
            l1: level(|e| e.l1_bytes),
            l2: level(|e| e.l2_bytes),
            dram: level(|e| e.dram_read_bytes),
            time: level(|e| e.seconds),
        }
    }
}

/// The pairs of `answered` with distinct queries (by fingerprint), in
/// order.
pub fn dedup(answered: Vec<(EvalQuery, LayerEstimate)>) -> Vec<(EvalQuery, LayerEstimate)> {
    let mut seen = HashSet::new();
    answered
        .into_iter()
        .filter(|(q, _)| seen.insert(q.fingerprint()))
        .collect()
}

/// GMAE of the analytical model against simulator answers already in
/// hand, one `(query, simulator estimate)` pair per distinct query.
pub fn model_vs_sim(model: &Delta, answered: &[(EvalQuery, LayerEstimate)]) -> Levels {
    let pairs: Vec<_> = answered
        .iter()
        .map(|(q, sim)| {
            (
                model.evaluate(q).expect("model answers every zoo query"),
                sim.clone(),
            )
        })
        .collect();
    Levels::of(&pairs)
}

/// Median microseconds of one `Backend::evaluate` on the analytical
/// model over `queries` (each timed on its own, several times).
pub fn model_eval_us(model: &Delta, queries: &[EvalQuery]) -> f64 {
    let mut samples = Vec::with_capacity(queries.len() * 5);
    for _ in 0..5 {
        for q in queries {
            let t = Instant::now();
            std::hint::black_box(model.evaluate(std::hint::black_box(q)).ok());
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    crate::measure::median(&samples)
}

/// GMAE of the default sampling configuration against the exhaustive
/// simulator on the pinned layer passes (single device).
pub fn sampling_error(gpu: &delta_model::GpuSpec, pinned: &[(ConvLayer, Pass)]) -> Levels {
    let sampled = Simulator::new(gpu.clone(), SimConfig::default());
    let exhaustive = Simulator::new(gpu.clone(), SimConfig::exhaustive());
    let pairs: Vec<_> = pinned
        .iter()
        .map(|(layer, pass)| {
            let q = EvalQuery::new(layer, *pass, Parallelism::Single);
            (
                sampled
                    .evaluate(&q)
                    .expect("simulator answers the pinned layers"),
                exhaustive
                    .evaluate(&q)
                    .expect("simulator answers the pinned layers"),
            )
        })
        .collect();
    Levels::of(&pairs)
}
