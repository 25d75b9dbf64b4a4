//! The simulator front end: runs a conv layer through the traced memory
//! hierarchy and reports measured traffic, miss rates, and cycles.
//!
//! Execution follows the paper's assumed schedule: CTA batches of
//! `num_sm × active_ctas` CTAs drain each tile column in order, running
//! their main loops in lockstep (§IV-C). Each batch is a self-contained
//! [`CtaBatch`] unit that runs the trace → coalesce → hierarchy → timing
//! stage pipeline ([`crate::stages`]); this module only sequences
//! batches and columns and extrapolates the steady state. For very tall
//! CTA grids the simulator can sample a prefix of each column's batches
//! and extrapolate the rest — per-batch traffic within a column is
//! stationary once the caches warm up — which keeps full-network sweeps
//! tractable. `SimConfig { max_batches_per_column: None, .. }` disables
//! sampling.

use crate::coalesce::Transaction;
use crate::collective::LocalReplays;
use crate::hierarchy::{HierarchyStats, MemoryHierarchy, MergeableHierarchy};
use crate::interconnect::{Interconnect, InterconnectKind};
use crate::sched::ColumnScheduler;
use crate::shard::ShardPlan;
use crate::stages::{BatchLimits, BatchStats, CtaBatch, SteadyState};
use crate::tensor::TensorMap;
use crate::tensorcore::Datapath;
use crate::timing::TimingEngine;
use crate::topology::{Topology, TopologyKind};
use delta_model::backend::{Backend, EstimateSource, LayerEstimate};
use delta_model::query::{EvalQuery, Pass, StepEvaluation, StepQuery};
use delta_model::tiling::{CtaTile, LayerTiling};
use delta_model::{training, ConvLayer, Error, GpuSpec, BYTES_PER_ELEMENT};
use delta_obs::{span, Counter};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The sampling knobs: how much of a layer the simulator traces and
/// how it extrapolates the rest. Every field is part of
/// [`Backend::config_fingerprint`] (the struct's own JSON), so the cache
/// files, `/healthz` and the fleet handshake all key on exactly these.
/// Execution axes — parallelism, fabric, bucket size, overlap — belong
/// in the query ([`EvalQuery`], [`StepQuery`]), never here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SimConfig {
    /// Simulate at most this many CTA batches per tile column and
    /// extrapolate the rest from the steady state; `None` simulates every
    /// CTA.
    pub max_batches_per_column: Option<u64>,
    /// Overrides the computed active-CTAs-per-SM occupancy.
    pub active_ctas_override: Option<u32>,
    /// Simulate the epilogue's OFmap stores (disable to skip the store
    /// address generation when only read traffic matters).
    pub simulate_stores: bool,
    /// Simulate at most this many main-loop iterations per batch and
    /// extrapolate the rest from the steady per-loop traffic (the K
    /// dimension advances to fresh data each loop, so per-loop traffic is
    /// stationary past warm-up); `None` simulates every loop.
    pub max_loops_per_batch: Option<u64>,
    /// Multiplies the CTA tile height/width by this power-of-two factor,
    /// mirroring `DeltaOptions::tile_scale` so the design-space study's
    /// 256-wide-tile options (Fig. 16a, 7–9) can be simulated too.
    /// `None`/1 keeps the Fig. 6 lookup.
    pub tile_scale: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_batches_per_column: Some(4),
            active_ctas_override: None,
            simulate_stores: true,
            max_loops_per_batch: Some(32),
            tile_scale: None,
        }
    }
}

impl SimConfig {
    /// Full-fidelity configuration: no sampling.
    pub fn exhaustive() -> SimConfig {
        SimConfig {
            max_batches_per_column: None,
            max_loops_per_batch: None,
            ..SimConfig::default()
        }
    }
}

/// Measured quantities for one layer, in the units the paper's figures
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// L1 traffic: requests × request size.
    pub l1_bytes: f64,
    /// L2 traffic: L1 sector misses × 32 B.
    pub l2_bytes: f64,
    /// DRAM read traffic: L2 sector misses × 32 B.
    pub dram_read_bytes: f64,
    /// DRAM write traffic (epilogue OFmap stores).
    pub dram_write_bytes: f64,
    /// Measured L1 sector miss rate (Fig. 4).
    pub l1_miss_rate: f64,
    /// Measured L2 sector miss rate (Fig. 4).
    pub l2_miss_rate: f64,
    /// Accounted execution cycles (busiest-path, core clocks).
    pub cycles: f64,
    /// Whether batch sampling/extrapolation was used.
    pub sampled: bool,
    /// CTAs actually traced.
    pub simulated_ctas: u64,
    /// CTAs in the full grid.
    pub total_ctas: u64,
    /// Active CTAs per SM used by the schedule.
    pub active_ctas: u32,
}

impl Measurement {
    /// Seconds at `gpu`'s clock.
    pub fn seconds(&self, gpu: &GpuSpec) -> f64 {
        gpu.clks_to_seconds(self.cycles)
    }

    /// Converts to the backend-neutral estimate type.
    pub fn to_estimate(&self, gpu: &GpuSpec) -> LayerEstimate {
        LayerEstimate {
            l1_bytes: self.l1_bytes,
            l2_bytes: self.l2_bytes,
            dram_read_bytes: self.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes,
            l1_miss_rate: self.l1_miss_rate,
            l2_miss_rate: self.l2_miss_rate,
            cycles: self.cycles,
            seconds: self.seconds(gpu),
            link_bytes: 0.0,
            bottleneck: None,
            source: EstimateSource::Simulation,
        }
    }
}

/// Trace-driven simulator bound to one GPU description.
#[derive(Debug, Clone)]
pub struct Simulator {
    gpu: GpuSpec,
    config: SimConfig,
    /// Full-layer replays performed (shared across clones): the
    /// expensive unit of work, counted so tests can assert that a step
    /// evaluation replays each unique shape exactly once. A
    /// [`delta_obs::Counter`] (shared atomics under the clone), so the
    /// same count the accessors read can be registered for scraping.
    replays: Counter,
}

impl Simulator {
    /// Creates a simulator for `gpu`.
    pub fn new(gpu: GpuSpec, config: SimConfig) -> Simulator {
        Simulator {
            gpu,
            config,
            replays: Counter::new(),
        }
    }

    /// How many full-layer replays (sequential, sharded, or per-device)
    /// this simulator has performed. Clones share the counter, so the
    /// count survives the engine's parallel fan-out.
    ///
    /// The unit is one *layer* replay regardless of how the work was
    /// partitioned internally: a sharded run over N workers counts as
    /// exactly one replay, the same as the sequential path — the counter
    /// answers "how many times was this layer simulated", not "how many
    /// worker tasks ran". A warm step-cache hit performs zero replays.
    pub fn replay_count(&self) -> u64 {
        self.replays.get()
    }

    /// A shared handle to the replay counter behind
    /// [`Simulator::replay_count`], for registration in a
    /// [`delta_obs::Registry`].
    pub fn replay_counter(&self) -> Counter {
        self.replays.clone()
    }

    /// The device being simulated.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The active configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// The CTA tiling the simulator will use for `layer` (Fig. 6 lookup
    /// plus any configured tile scaling).
    pub fn tiling(&self, layer: &ConvLayer) -> LayerTiling {
        LayerTiling::with_scale(layer, self.config.tile_scale)
    }

    /// The occupancy (active CTAs per SM) the schedule will use for
    /// `tile`.
    fn active_ctas(&self, tile: CtaTile) -> u32 {
        self.config
            .active_ctas_override
            .unwrap_or_else(|| tile.active_ctas_per_sm(&self.gpu))
            .max(1)
    }

    /// The batch-relevant slice of the configuration.
    fn batch_limits(&self) -> BatchLimits {
        BatchLimits {
            max_loops: self.config.max_loops_per_batch,
            simulate_stores: self.config.simulate_stores,
        }
    }

    /// Charges the one-per-layer prologue (later batches' prologues
    /// overlap their predecessors' main loops) to `timing`.
    fn charge_layer_prologue(&self, timing: &mut TimingEngine, tile: CtaTile) {
        timing.charge_prologue(
            f64::from(tile.blk_m() + tile.blk_n())
                * f64::from(tile.blk_k())
                * BYTES_PER_ELEMENT as f64,
        );
    }

    /// Runs `layer` through the memory hierarchy and returns the measured
    /// traffic and cycles: the sequential replay, one hierarchy with the
    /// columns drained in order and cache residency persisting from each
    /// tile column to the next. A fleet executor answers a
    /// `Parallelism::Single` job with exactly this measurement (residency
    /// makes its columns non-distributable, so it is one indivisible
    /// work unit).
    pub fn run(&self, layer: &ConvLayer) -> Measurement {
        let datapath = Datapath::select(&self.gpu, layer.kind());
        let _span = span!(
            "sim.replay",
            mode = "sequential",
            layer = layer.label(),
            datapath = datapath.label()
        );
        self.replays.inc();
        let tiling = self.tiling(layer);
        let tile = tiling.tile();
        let active = self.active_ctas(tile);
        let map = TensorMap::new(layer);
        let sched = ColumnScheduler::new(&tiling, &self.gpu, active);
        let mut hier = MemoryHierarchy::new(&self.gpu);
        let mut timing = TimingEngine::with_datapath(&self.gpu, tile, datapath);
        self.charge_layer_prologue(&mut timing, tile);

        let mut tx_buf = Vec::with_capacity(64);
        let mut simulated_ctas = 0u64;
        let mut measured = Totals::default();
        let mut extrapolated = Totals::default();
        let mut extra_cycles = 0.0;
        let mut sampled = false;

        for col in 0..sched.columns() {
            let c = self.simulate_column(
                &map,
                &sched,
                &tiling,
                active,
                col,
                &mut hier,
                &mut timing,
                &mut tx_buf,
                true,
            );
            simulated_ctas += c.simulated_ctas;
            sampled |= c.sampled;
            extrapolated.add(&c.extrapolated);
            extra_cycles += c.extra_cycles;
            measured.accumulate(&c.stats);
        }

        let l1s = hier.l1_stats();
        let l2s = hier.l2_stats();
        timing.add_cycles(extra_cycles);

        Measurement {
            l1_bytes: measured.l1_bytes + extrapolated.l1_bytes,
            l2_bytes: measured.l2_bytes + extrapolated.l2_bytes,
            dram_read_bytes: measured.dram_bytes + extrapolated.dram_bytes,
            dram_write_bytes: hier.dram_write_bytes() as f64 + extrapolated.store_bytes,
            l1_miss_rate: l1s.miss_rate(),
            l2_miss_rate: l2s.miss_rate(),
            cycles: timing.cycles(),
            sampled,
            simulated_ctas,
            total_ctas: tiling.num_ctas(),
            active_ctas: active,
        }
    }

    /// Runs `layer` with its tile columns partitioned over `n_workers`
    /// parallel workers ([`ShardPlan`]).
    ///
    /// Each worker replays its disjoint column set against a private
    /// [`MemoryHierarchy`] and [`TimingEngine`], so every tile column is
    /// simulated from identical (cold) initial state regardless of which
    /// worker owns it; per-shard counters then merge associatively
    /// ([`HierarchyStats::merge`]) in ascending column order. The result
    /// is therefore **bitwise identical for every worker count** —
    /// `run_sharded(layer, 4) == run_sharded(layer, 1)` exactly.
    ///
    /// The sharded semantics differ from [`Simulator::run`] in one
    /// deliberate way: cache residency does not persist across
    /// tile columns (each column is an independent replay domain). That
    /// matches the analytical model's per-column IFmap refetch assumption
    /// (paper Eq. 10), and on multi-column layers it can move DRAM reads
    /// by a large factor, not a few percent: every column refetches the
    /// IFmap that [`Simulator::run`] keeps in L2 when it fits. ResNet152
    /// conv4_1_c at batch 8 reads 0.003 GB of DRAM under `run` and
    /// 0.014 GB here. Single-column layers are unaffected.
    ///
    /// The tile column is the only work unit, so at most
    /// `min(n_workers, columns)` workers are busy; the rest own empty
    /// shards. A narrow layer with fewer columns than workers therefore
    /// runs exactly the one-worker replay.
    pub fn run_sharded(&self, layer: &ConvLayer, n_workers: u32) -> Measurement {
        self.run_sharded_detail(layer, n_workers).measurement
    }

    /// [`Simulator::run_sharded`] plus per-shard cycle accounting — the
    /// primitive the multi-GPU layer (`run_multi`) builds on, where each
    /// shard is one device and the per-device critical path matters.
    /// Public so the fleet's identity tests can compare a
    /// distributed merge against the single-process detail bitwise,
    /// per-shard cycles included.
    pub fn run_sharded_detail(&self, layer: &ConvLayer, n_workers: u32) -> ShardedRun {
        let datapath = Datapath::select(&self.gpu, layer.kind());
        let _span = span!(
            "sim.replay",
            mode = "sharded",
            layer = layer.label(),
            workers = n_workers,
            datapath = datapath.label()
        );
        self.replays.inc();
        let tiling = self.tiling(layer);
        let tile = tiling.tile();
        let active = self.active_ctas(tile);
        let map = TensorMap::new(layer);
        let sched = ColumnScheduler::new(&tiling, &self.gpu, active);
        let plan = ShardPlan::partition(sched.columns(), n_workers);

        // The prologue is charged once per layer, as in the sequential
        // path. The charge is latency + bytes only (no compute term), so
        // it is datapath-independent by construction.
        let mut prologue = TimingEngine::new(&self.gpu, tile);
        self.charge_layer_prologue(&mut prologue, tile);

        let simulate_shard = |range: &std::ops::Range<u64>| {
            let mut out = Vec::with_capacity((range.end - range.start) as usize);
            let mut tx_buf = Vec::with_capacity(64);
            for col in range.clone() {
                out.push(self.replay_column(
                    &map,
                    &sched,
                    &tiling,
                    active,
                    datapath,
                    col,
                    &mut tx_buf,
                ));
            }
            out
        };
        // Inside another parallel region (the engine's layer fan-out
        // already saturates the cores), spawning a second tier of
        // workers only oversubscribes the machine: walk the shards on
        // this thread instead. Results are identical either way — the
        // merge below is pinned to column order.
        let shard_outcomes: Vec<Vec<ColumnReplay>> = if rayon::current_thread_index().is_some() {
            plan.shards().iter().map(simulate_shard).collect()
        } else {
            plan.shards().par_iter().map(simulate_shard).collect()
        };

        merge_column_groups(
            prologue.cycles(),
            tiling.num_ctas(),
            active,
            &shard_outcomes,
        )
    }

    /// Replays one tile column against a fresh hierarchy/timing pair —
    /// the column-axis work unit — and packages it as the serializable
    /// merge part.
    #[allow(clippy::too_many_arguments)]
    fn replay_column(
        &self,
        map: &TensorMap,
        sched: &ColumnScheduler,
        tiling: &LayerTiling,
        active: u32,
        datapath: Datapath,
        col: u64,
        tx_buf: &mut Vec<Transaction>,
    ) -> ColumnReplay {
        let mut hier = MemoryHierarchy::new(&self.gpu);
        let mut timing = TimingEngine::with_datapath(&self.gpu, tiling.tile(), datapath);
        let sim = self.simulate_column(
            map,
            sched,
            tiling,
            active,
            col,
            &mut hier,
            &mut timing,
            tx_buf,
            false,
        );
        timing.add_cycles(sim.extra_cycles);
        ColumnReplay {
            col: sim.col,
            stats: sim.stats,
            simulated_ctas: sim.simulated_ctas,
            sampled: sim.sampled,
            extrapolated: sim.extrapolated,
            snapshot: hier.snapshot(),
            cycles: timing.cycles(),
        }
    }

    /// Simulates one tile column — its sampled batch prefix plus the
    /// steady-state extrapolation of the remainder — against the given
    /// hierarchy and timing state. Shared by the sequential path (shared
    /// state across columns, `hier_persists = true`) and the sharded
    /// path (fresh state per column, `hier_persists = false`: the
    /// end-of-column aging only bumps the mergeable counter, because
    /// nothing ever observes the discarded hierarchy's residency again).
    #[allow(clippy::too_many_arguments)]
    fn simulate_column(
        &self,
        map: &TensorMap,
        sched: &ColumnScheduler,
        tiling: &LayerTiling,
        active: u32,
        col: u64,
        hier: &mut MemoryHierarchy,
        timing: &mut TimingEngine,
        tx_buf: &mut Vec<Transaction>,
        hier_persists: bool,
    ) -> ColumnSim {
        let tile = tiling.tile();
        let loops = tiling.main_loops();
        let limits = self.batch_limits();
        let batches = sched.batches_per_column();
        let sim_batches = self
            .config
            .max_batches_per_column
            .map_or(batches, |m| batches.min(m.max(1)));
        let mut stats: Vec<BatchStats> = Vec::with_capacity(sim_batches as usize);
        let mut simulated_ctas = 0u64;
        let mut sampled = false;

        for b in 0..sim_batches {
            let batch = CtaBatch::new(map, tile, sched.batch(col, b), loops, active);
            simulated_ctas += batch.len();
            let s = batch.simulate(hier, timing, limits, tx_buf);
            sampled |= s.loop_extrapolated;
            stats.push(s);
        }

        let mut extrapolated = Totals::default();
        let mut extra_cycles = 0.0;
        if sim_batches < batches {
            let steady = SteadyState::of(&stats);
            let rem = (batches - sim_batches) as f64;
            extrapolated.l1_bytes = steady.l1_bytes * rem;
            extrapolated.l2_bytes = steady.l2_bytes * rem;
            extrapolated.dram_bytes = steady.dram_bytes * rem;
            extrapolated.store_bytes = steady.store_bytes * rem;
            extra_cycles = steady.cycles * rem;
            // Age L2 by the skipped batches' unique-traffic volume so
            // later work against this hierarchy starts from realistic
            // residency; when the hierarchy dies with the column, only
            // the counter is kept (identical measurements, no pollution
            // work).
            let aged = (steady.l2_bytes * rem) as u64;
            if hier_persists {
                hier.age_l2(aged);
            } else {
                hier.count_aged_l2(aged);
            }
            sampled = true;
        }

        ColumnSim {
            col,
            stats,
            simulated_ctas,
            sampled,
            extrapolated,
            extra_cycles,
        }
    }
}

/// A sharded run's merged measurement plus the per-shard critical paths
/// (cycles each shard's owner spent, prologue included; 0 for idle
/// shards). Consumed by the multi-GPU layer, where shards are devices,
/// and returned by the fleet merge entry points so distributed runs can
/// be compared against local ones field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRun {
    /// The merged measurement — bitwise identical for every shard count.
    pub measurement: Measurement,
    /// Per-shard cycles in shard order.
    pub per_shard_cycles: Vec<f64>,
}

/// One tile column's replay outcome — the merge unit of the sharded
/// path and the `column` job result on the fleet wire. Every field is
/// integers, flags, or f64s that the vendored JSON writer round-trips
/// bitwise, so a part produced on a remote executor merges identically
/// to one produced in-process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnReplay {
    /// The column index (merge-order key).
    pub col: u64,
    /// Per-batch stats of the simulated batch prefix, in batch order.
    pub stats: Vec<BatchStats>,
    /// CTAs actually traced.
    pub simulated_ctas: u64,
    /// Whether batch or loop extrapolation was used.
    pub sampled: bool,
    /// Steady-state extrapolation of the unsimulated batches.
    pub extrapolated: Totals,
    /// The column's private hierarchy counters (aging included).
    pub snapshot: HierarchyStats,
    /// The column's timing-engine cycles, extrapolated tail included.
    pub cycles: f64,
}

/// Merges column replays, pre-grouped by owning shard, in ascending
/// column order: the u64 counters are associative, and pinning the f64
/// accumulation order to the column index makes the totals bitwise
/// identical for every worker count, every grouping, and every CI
/// machine. The single merge implementation behind both the local
/// sharded run and the fleet's distributed one.
fn merge_column_groups(
    prologue_cycles: f64,
    total_ctas: u64,
    active: u32,
    groups: &[Vec<ColumnReplay>],
) -> ShardedRun {
    // Per-shard critical paths: an active shard charges its own layer
    // prologue plus its columns; an empty shard is idle.
    let per_shard_cycles: Vec<f64> = groups
        .iter()
        .map(|cols| {
            if cols.is_empty() {
                0.0
            } else {
                prologue_cycles + cols.iter().map(|c| c.cycles).sum::<f64>()
            }
        })
        .collect();

    let mut hstats = HierarchyStats::default();
    let mut measured = Totals::default();
    let mut extrapolated = Totals::default();
    let mut cycles = prologue_cycles;
    let mut simulated_ctas = 0u64;
    let mut sampled = false;
    for (idx, part) in groups.iter().flatten().enumerate() {
        assert_eq!(
            part.col, idx as u64,
            "shard merge must walk columns in ascending order"
        );
        hstats.merge(&part.snapshot);
        measured.accumulate(&part.stats);
        extrapolated.add(&part.extrapolated);
        cycles += part.cycles;
        simulated_ctas += part.simulated_ctas;
        sampled |= part.sampled;
    }

    ShardedRun {
        measurement: Measurement {
            l1_bytes: measured.l1_bytes + extrapolated.l1_bytes,
            l2_bytes: measured.l2_bytes + extrapolated.l2_bytes,
            dram_read_bytes: measured.dram_bytes + extrapolated.dram_bytes,
            dram_write_bytes: hstats.dram_write_bytes as f64 + extrapolated.store_bytes,
            l1_miss_rate: hstats.l1.miss_rate(),
            l2_miss_rate: hstats.l2.miss_rate(),
            cycles,
            sampled,
            simulated_ctas,
            total_ctas,
            active_ctas: active,
        },
        per_shard_cycles,
    }
}

/// One tile column's simulation outcome — packaged as a
/// [`ColumnReplay`] by the sharded path, accumulated by the sequential
/// path.
#[derive(Debug)]
struct ColumnSim {
    /// The column index (merge-order key).
    col: u64,
    /// Per-batch stats of the simulated batch prefix, in batch order.
    stats: Vec<BatchStats>,
    /// CTAs actually traced.
    simulated_ctas: u64,
    /// Whether batch or loop extrapolation was used.
    sampled: bool,
    /// Steady-state extrapolation of the unsimulated batches.
    extrapolated: Totals,
    /// Cycles of the unsimulated batches (extrapolated).
    extra_cycles: f64,
}

/// The effective point-to-point fabric for a `devices`-wide run: the
/// scalar preset when `topology` is `None` (bitwise identical to PR 3),
/// otherwise the parameters derived from the topology graph
/// ([`Topology::price`]).
pub fn fabric_of(
    interconnect: InterconnectKind,
    topology: Option<TopologyKind>,
    devices: u32,
) -> Interconnect {
    let base = interconnect.params();
    match topology {
        None => base,
        Some(kind) => Topology::build(kind, devices).price(&base),
    }
}

/// All-reduce pricing of `payload` logical bytes across `devices` under
/// an interconnect/topology pair: `(link bytes, seconds)`. Dispatches
/// between the legacy scalar ring formula and the topology graph's
/// algorithm-aware pricing (ring on ring/mesh/hierarchical, tree on
/// switch).
pub fn all_reduce_pricing_of(
    interconnect: InterconnectKind,
    topology: Option<TopologyKind>,
    payload: f64,
    devices: u32,
) -> (f64, f64) {
    let base = interconnect.params();
    match topology {
        None => (
            base.all_reduce_bytes(payload, devices),
            base.all_reduce_seconds(payload, devices),
        ),
        Some(kind) => {
            let topo = Topology::build(kind, devices);
            (
                topo.all_reduce_bytes(&base, payload),
                topo.all_reduce_seconds(&base, payload),
            )
        }
    }
}

/// Adds the data-parallel weight-gradient all-reduce on top of a wgrad
/// estimate: `filter_bytes` of gradients (|∇W| = the layer's filter
/// footprint) all-reduced once across `devices`.
pub(crate) fn add_wgrad_all_reduce(
    est: &mut LayerEstimate,
    gpu: &GpuSpec,
    interconnect: InterconnectKind,
    topology: Option<TopologyKind>,
    filter_bytes: f64,
    devices: u32,
) {
    let (ar_bytes, ar_seconds) =
        all_reduce_pricing_of(interconnect, topology, filter_bytes, devices);
    est.link_bytes += ar_bytes;
    est.seconds += ar_seconds;
    est.cycles += gpu.seconds_to_clks(ar_seconds);
}

impl Simulator {
    /// The concrete workload a query pass replays: the forward layer
    /// itself, or its dgrad/wgrad transform. Public so a fleet
    /// coordinator and its executors derive the replayed layer from the
    /// same query with the same transform.
    pub fn pass_workload(layer: &ConvLayer, pass: Pass) -> Result<ConvLayer, Error> {
        match pass {
            Pass::Fwd => Ok(layer.clone()),
            Pass::Dgrad => training::dgrad_layer(layer),
            Pass::Wgrad => training::wgrad_layer(layer),
        }
    }

    /// Today's multi-device replay assumes a homogeneous fleet of this
    /// simulator's GPU; a query naming any other device spec is rejected
    /// rather than silently simulated on the wrong hardware.
    /// (Capacity-weighted heterogeneous partitioning is the ROADMAP
    /// follow-up that lands behind this same query signature.)
    pub fn require_homogeneous(&self, devices: &[GpuSpec]) -> Result<(), Error> {
        let offending: Vec<(usize, &GpuSpec)> = devices
            .iter()
            .enumerate()
            .filter(|(_, d)| **d != self.gpu)
            .collect();
        match offending.first() {
            None => Ok(()),
            Some((_, first)) => {
                let indices = offending
                    .iter()
                    .map(|(i, d)| format!("#{i} ({})", d.name()))
                    .collect::<Vec<_>>()
                    .join(", ");
                Err(Error::InvalidGpu {
                    name: first.name().to_string(),
                    reason: format!(
                        "multi-device queries currently require a homogeneous fleet of the \
                         simulator's own GPU ({own}); device{plural} {indices} of the \
                         {total}-device query differ{s} from {own} and mixed fleets are not \
                         simulated yet",
                        own = self.gpu.name(),
                        plural = if offending.len() == 1 { "" } else { "s" },
                        s = if offending.len() == 1 { "s" } else { "" },
                        total = devices.len(),
                    ),
                })
            }
        }
    }

    /// The exact [`ShardPlan`] a `run_sharded(layer, n_workers)` call
    /// uses — the column decomposition a fleet coordinator fans out, and
    /// the merge order it must reassemble.
    pub fn shard_plan(&self, layer: &ConvLayer, n_workers: u32) -> ShardPlan {
        ShardPlan::partition(self.tiling(layer).cta_columns(), n_workers)
    }

    /// The one-per-layer prologue charge in cycles (what an active
    /// shard's critical path starts from).
    fn layer_prologue_cycles(&self, tile: CtaTile) -> f64 {
        let mut t = TimingEngine::new(&self.gpu, tile);
        self.charge_layer_prologue(&mut t, tile);
        t.cycles()
    }

    /// Replays one tile column — the work unit of a [`ShardPlan`] —
    /// against fresh private state and returns the serializable merge
    /// part. This is what a fleet executor runs for a `column` job;
    /// feeding every column of a layer (in any grouping) to
    /// [`Simulator::merge_column_replays`] reproduces `run_sharded`
    /// bitwise.
    ///
    /// Does **not** bump [`Simulator::replay_count`]: the counter's
    /// unit is one whole-layer replay, and a unit replay is a fraction
    /// of one (the coordinator performing the merge owns the count).
    ///
    /// # Errors
    ///
    /// Rejects a column index outside the layer's tile grid.
    pub fn replay_column_unit(&self, layer: &ConvLayer, col: u64) -> Result<ColumnReplay, Error> {
        let datapath = Datapath::select(&self.gpu, layer.kind());
        let _span = span!(
            "sim.replay_column",
            layer = layer.label(),
            col = col,
            datapath = datapath.label()
        );
        let tiling = self.tiling(layer);
        let active = self.active_ctas(tiling.tile());
        let sched = ColumnScheduler::new(&tiling, &self.gpu, active);
        if col >= sched.columns() {
            return Err(Error::Fleet {
                context: "replay".into(),
                reason: format!(
                    "column {col} out of range: layer `{}` has {} tile columns",
                    layer.label(),
                    sched.columns()
                ),
            });
        }
        let map = TensorMap::new(layer);
        let mut tx_buf = Vec::with_capacity(64);
        Ok(self.replay_column(&map, &sched, &tiling, active, datapath, col, &mut tx_buf))
    }

    /// Merges per-column replay parts — one [`ColumnReplay`] per tile
    /// column, in any order of production — into exactly the
    /// [`ShardedRun`] that `run_sharded_detail(layer, n_workers)`
    /// produces, per-shard cycles included. The merge itself is the
    /// same code the single-process path runs; this entry point only
    /// validates the parts first (sorted, exhaustive, duplicate-free
    /// coverage of the column range), so malformed remote data
    /// surfaces as an [`Error::Fleet`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Rejects any part list that is not exactly columns `0..columns`
    /// in ascending order.
    pub fn merge_column_replays(
        &self,
        layer: &ConvLayer,
        n_workers: u32,
        parts: Vec<ColumnReplay>,
    ) -> Result<ShardedRun, Error> {
        let _span = span!("sim.merge", layer = layer.label(), parts = parts.len());
        let plan = self.shard_plan(layer, n_workers);
        let reject = |reason: String| Error::Fleet {
            context: "merge".into(),
            reason,
        };
        if parts.len() as u64 != plan.columns() {
            return Err(reject(format!(
                "expected one replay per tile column ({}), got {}",
                plan.columns(),
                parts.len()
            )));
        }
        for (idx, p) in parts.iter().enumerate() {
            if p.col != idx as u64 {
                return Err(reject(format!(
                    "replay parts must cover columns 0..{} in ascending order; \
                     position {idx} holds column {}",
                    plan.columns(),
                    p.col
                )));
            }
        }
        // Regroup by the plan's own shard ranges so per-shard cycles
        // fold in exactly the single-process order.
        let mut it = parts.into_iter();
        let groups: Vec<Vec<ColumnReplay>> = plan
            .shards()
            .iter()
            .map(|r| it.by_ref().take((r.end - r.start) as usize).collect())
            .collect();
        let tiling = self.tiling(layer);
        let active = self.active_ctas(tiling.tile());
        Ok(merge_column_groups(
            self.layer_prologue_cycles(tiling.tile()),
            tiling.num_ctas(),
            active,
            &groups,
        ))
    }
}

impl Backend for Simulator {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    fn config_fingerprint(&self) -> String {
        serde_json::to_string(&self.config).unwrap_or_default()
    }

    fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error> {
        self.evaluate_with(query, &LocalReplays(self))
    }

    fn evaluate_step(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        self.evaluate_step_query(query)
    }

    fn replays(&self) -> Option<u64> {
        Some(self.replay_count())
    }
}

/// Sum of per-batch traffic (simulated or extrapolated). Public (and
/// serializable) because a [`ColumnReplay`] carries its column's
/// extrapolated totals across the fleet wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Totals {
    /// L1 bytes.
    pub l1_bytes: f64,
    /// L2 bytes.
    pub l2_bytes: f64,
    /// DRAM read bytes.
    pub dram_bytes: f64,
    /// Epilogue store bytes (extrapolated totals only; see
    /// [`Totals::accumulate`]'s note).
    pub store_bytes: f64,
}

impl Totals {
    /// Sums a column's simulated batches. Store bytes are deliberately
    /// NOT accumulated here: simulated stores already flow through
    /// `MemoryHierarchy::count_stores` into `dram_write_bytes()`; only the
    /// extrapolated `Totals` carries `store_bytes` (set directly from
    /// the steady state). Summing them here too would double-count.
    pub fn accumulate(&mut self, batches: &[BatchStats]) {
        for b in batches {
            self.l1_bytes += b.traffic.l1_bytes as f64;
            self.l2_bytes += b.traffic.l2_bytes as f64;
            self.dram_bytes += b.traffic.dram_bytes as f64;
        }
    }

    /// Element-wise accumulation of another total.
    pub fn add(&mut self, other: &Totals) {
        self.l1_bytes += other.l1_bytes;
        self.l2_bytes += other.l2_bytes;
        self.dram_bytes += other.dram_bytes;
        self.store_bytes += other.store_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::query::Parallelism;
    use delta_model::traffic::{self, l1::MliMode};

    fn small_layer() -> ConvLayer {
        ConvLayer::builder("small")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(64)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    #[test]
    fn traffic_funnels_down_the_hierarchy() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let m = sim.run(&small_layer());
        assert!(m.l1_bytes > 0.0);
        assert!(m.l1_bytes >= m.l2_bytes);
        assert!(m.l2_bytes >= m.dram_read_bytes);
        assert!(!m.sampled);
        assert_eq!(m.simulated_ctas, m.total_ctas);
    }

    #[test]
    fn dram_reads_at_least_compulsory_footprint() {
        let l = small_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let m = sim.run(&l);
        // Must read at least every useful input byte once (pads are not
        // stored, so the unpadded footprint is the floor; sector rounding
        // only adds).
        let floor = (l.ifmap_bytes() + l.filter_bytes()) as f64;
        assert!(
            m.dram_read_bytes >= floor * 0.9,
            "{} < {floor}",
            m.dram_read_bytes
        );
    }

    #[test]
    fn ofmap_stores_measured_exactly() {
        let l = small_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let m = sim.run(&l);
        // Row-major OFmap stores with N=64: each warp's 32 contiguous
        // elements stay within rows; volume = M*N*4 rounded to sectors.
        let exact = l.ofmap_bytes() as f64;
        assert!(m.dram_write_bytes >= exact);
        assert!(m.dram_write_bytes <= exact * 1.3);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let a = sim.run(&small_layer());
        let b = sim.run(&small_layer());
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_approximates_exhaustive() {
        // A taller layer (98 CTA rows at 1 active CTA/SM) so sampling
        // actually kicks in.
        let l = ConvLayer::builder("tall")
            .batch(64)
            .input(16, 14, 14)
            .output_channels(64)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let full = Simulator::new(
            GpuSpec::titan_xp(),
            SimConfig {
                max_batches_per_column: None,
                active_ctas_override: Some(1),
                max_loops_per_batch: None,
                ..SimConfig::default()
            },
        )
        .run(&l);
        let sampled = Simulator::new(
            GpuSpec::titan_xp(),
            SimConfig {
                max_batches_per_column: Some(2),
                active_ctas_override: Some(1),
                max_loops_per_batch: None,
                ..SimConfig::default()
            },
        )
        .run(&l);
        assert!(sampled.sampled);
        assert!(sampled.simulated_ctas < full.simulated_ctas);
        for (a, b, what) in [
            (sampled.l1_bytes, full.l1_bytes, "l1"),
            (sampled.l2_bytes, full.l2_bytes, "l2"),
            (sampled.dram_read_bytes, full.dram_read_bytes, "dram"),
        ] {
            let err = (a - b).abs() / b;
            assert!(err < 0.25, "{what}: sampled {a} vs full {b} ({err:.2})");
        }
    }

    #[test]
    fn measured_l1_close_to_model_for_simple_layer() {
        // The analytical L1 model and the simulator count the same
        // quantity; for a clean stride-1 layer they should land within
        // ~25% of each other.
        let l = small_layer();
        let gpu = GpuSpec::titan_xp();
        let tiling = LayerTiling::new(&l);
        let est = traffic::estimate(&l, &tiling, &gpu, MliMode::PaperProfiled);
        let meas = Simulator::new(gpu, SimConfig::exhaustive()).run(&l);
        let ratio = est.l1_bytes / meas.l1_bytes;
        assert!(
            (0.5..2.0).contains(&ratio),
            "model {} vs measured {} (ratio {ratio})",
            est.l1_bytes,
            meas.l1_bytes
        );
    }

    #[test]
    fn miss_rates_are_probabilities() {
        let m = Simulator::new(GpuSpec::titan_xp(), SimConfig::default()).run(&small_layer());
        assert!((0.0..=1.0).contains(&m.l1_miss_rate));
        assert!((0.0..=1.0).contains(&m.l2_miss_rate));
        assert!(m.cycles > 0.0);
        assert!(m.seconds(&GpuSpec::titan_xp()) > 0.0);
    }

    #[test]
    fn pointwise_layer_measures_higher_l1_miss_rate_than_3x3() {
        // Fig. 4's spread: 1x1 layers reuse nothing inside a tile.
        let gpu = GpuSpec::titan_xp();
        let sim = Simulator::new(gpu, SimConfig::exhaustive());
        let pw = ConvLayer::builder("pw")
            .batch(2)
            .input(64, 14, 14)
            .output_channels(64)
            .filter(1, 1)
            .build()
            .unwrap();
        let mp = sim.run(&pw);
        let m3 = sim.run(&small_layer());
        assert!(
            mp.l1_miss_rate > m3.l1_miss_rate,
            "1x1 {} vs 3x3 {}",
            mp.l1_miss_rate,
            m3.l1_miss_rate
        );
    }

    #[test]
    fn single_query_matches_run() {
        let gpu = GpuSpec::titan_xp();
        let sim = Simulator::new(gpu.clone(), SimConfig::default());
        let l = small_layer();
        let m = sim.run(&l);
        let est = sim
            .evaluate(&EvalQuery::forward(&l, Parallelism::Single))
            .unwrap();
        assert_eq!(est.l1_bytes, m.l1_bytes);
        assert_eq!(est.l2_bytes, m.l2_bytes);
        assert_eq!(est.dram_read_bytes, m.dram_read_bytes);
        assert_eq!(est.cycles, m.cycles);
        assert_eq!(est.seconds, m.seconds(&gpu));
        assert_eq!(est.bottleneck, None);
        assert_eq!(est.source, EstimateSource::Simulation);
        assert_eq!(Backend::name(&sim), "sim");
    }

    #[test]
    fn replay_counter_counts_full_layer_replays() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        assert_eq!(sim.replay_count(), 0);
        sim.run(&small_layer());
        assert_eq!(sim.replay_count(), 1);
        sim.run_sharded(&small_layer(), 2);
        assert_eq!(sim.replay_count(), 2);
        // Clones share the counter (the engine clones backends freely).
        let clone = sim.clone();
        clone.run(&small_layer());
        assert_eq!(sim.replay_count(), 3);
    }

    #[test]
    fn pass_queries_replay_the_transformed_workloads() {
        // A dgrad query replays the transposed layer, a wgrad query the
        // FC-shaped wgrad GEMM — exactly what a forward query of the
        // transformed shape replays.
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let l = small_layer();
        for (pass, transformed) in [
            (Pass::Dgrad, training::dgrad_layer(&l).unwrap()),
            (Pass::Wgrad, training::wgrad_layer(&l).unwrap()),
        ] {
            let via_pass = sim
                .evaluate(&EvalQuery::new(&l, pass, Parallelism::Single))
                .unwrap();
            let via_fwd = sim
                .evaluate(&EvalQuery::forward(&transformed, Parallelism::Single))
                .unwrap();
            assert_eq!(via_pass, via_fwd, "{pass}");
        }
    }

    #[test]
    fn multi_queries_reject_foreign_device_specs() {
        // Heterogeneous (or simply mismatched) fleets are not simulated
        // yet: the query API admits them, the backend refuses them.
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let q = EvalQuery::forward(
            &small_layer(),
            Parallelism::Multi {
                devices: vec![GpuSpec::titan_xp(), GpuSpec::v100()],
                interconnect: InterconnectKind::Ideal,
                topology: None,
            },
        );
        let err = sim.evaluate(&q).unwrap_err();
        assert!(err.to_string().contains("homogeneous"), "{err}");
        // The rejection names the offending device index and both specs.
        let msg = err.to_string();
        assert!(msg.contains("#1 (V100)"), "{msg}");
        assert!(msg.contains("TITAN Xp"), "{msg}");
        assert!(msg.contains("2-device"), "{msg}");
        // Several offenders are all enumerated.
        let multi = sim
            .require_homogeneous(&[GpuSpec::v100(), GpuSpec::titan_xp(), GpuSpec::p100()])
            .unwrap_err()
            .to_string();
        assert!(multi.contains("#0 (V100)"), "{multi}");
        assert!(multi.contains("#2 (P100)"), "{multi}");
        assert!(!multi.contains("#1 ("), "{multi}");
        // A matching fleet is accepted.
        let ok = EvalQuery::forward(
            &small_layer(),
            Parallelism::multi(sim.gpu(), 2, InterconnectKind::Ideal),
        );
        assert!(sim.evaluate(&ok).is_ok());
    }

    #[test]
    fn tile_scale_changes_tiling_like_the_model() {
        let l = ConvLayer::builder("wide")
            .batch(8)
            .input(64, 28, 28)
            .output_channels(256)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let plain = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let scaled = Simulator::new(
            GpuSpec::titan_xp(),
            SimConfig {
                tile_scale: Some(2),
                ..SimConfig::default()
            },
        );
        assert_eq!(plain.tiling(&l).tile().blk_m(), 128);
        assert_eq!(scaled.tiling(&l).tile().blk_m(), 256);
        // Bigger tiles -> fewer CTAs in the measurement.
        let mp = plain.run(&l);
        let ms = scaled.run(&l);
        assert!(ms.total_ctas < mp.total_ctas);
    }

    #[test]
    fn config_fingerprint_bytes_are_pinned() {
        // These bytes head every cache file and go into `/healthz` and
        // every fleet handshake: a change here orphans every saved cache
        // and splits fleets of mixed builds.
        let fp = |config| Simulator::new(GpuSpec::titan_xp(), config).config_fingerprint();
        assert_eq!(
            fp(SimConfig::default()),
            "{\"max_batches_per_column\":4,\"active_ctas_override\":null,\
             \"simulate_stores\":true,\"max_loops_per_batch\":32,\"tile_scale\":null}"
        );
        assert_eq!(
            fp(SimConfig::exhaustive()),
            "{\"max_batches_per_column\":null,\"active_ctas_override\":null,\
             \"simulate_stores\":true,\"max_loops_per_batch\":null,\"tile_scale\":null}"
        );
        assert_eq!(
            fp(SimConfig {
                tile_scale: Some(2),
                ..SimConfig::default()
            }),
            "{\"max_batches_per_column\":4,\"active_ctas_override\":null,\
             \"simulate_stores\":true,\"max_loops_per_batch\":32,\"tile_scale\":2}"
        );
    }

    #[test]
    fn fabric_and_all_reduce_dispatch_on_the_topology() {
        use InterconnectKind::{Ideal, NvLink};
        // topology = None: the legacy scalar preset, verbatim.
        assert_eq!(fabric_of(NvLink, None, 4), NvLink.params());
        let ic = NvLink.params();
        assert_eq!(
            all_reduce_pricing_of(NvLink, None, 1e6, 4),
            (ic.all_reduce_bytes(1e6, 4), ic.all_reduce_seconds(1e6, 4))
        );
        // topology = Some: parameters derived from the graph.
        let fab = fabric_of(NvLink, Some(TopologyKind::Switch), 4);
        assert_eq!(fab.topology_factor, 2.0, "star: every pair is 2 hops");
        let (bytes, secs) = all_reduce_pricing_of(NvLink, Some(TopologyKind::Switch), 1e6, 4);
        assert!(bytes > ic.all_reduce_bytes(1e6, 4), "tree crosses the hub");
        assert!(secs > 0.0);
        // Ideal stays free under every topology.
        let hier = Some(TopologyKind::Hierarchical);
        assert_eq!(all_reduce_pricing_of(Ideal, hier, 1e9, 8), (0.0, 0.0));
        assert_eq!(fabric_of(Ideal, hier, 8), Ideal.params());
    }

    /// A layer with four tile columns (Co = 512, LARGE tile blkN = 128)
    /// that still simulates in milliseconds.
    fn four_column_layer() -> ConvLayer {
        ConvLayer::builder("four_col")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_result_is_identical_for_every_worker_count() {
        let l = four_column_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let one = sim.run_sharded(&l, 1);
        assert!(one.l1_bytes > 0.0 && one.cycles > 0.0);
        // Bitwise-equal Measurement (PartialEq on f64 fields) for any
        // partitioning, including more workers than columns.
        for n in [2, 3, 4, 7, 16] {
            assert_eq!(sim.run_sharded(&l, n), one, "n_workers={n}");
        }
    }

    #[test]
    fn sharded_stays_within_band_of_sequential_replay() {
        // Sharding isolates tile columns (no cross-column L2 residency),
        // which matches the model's per-column refetch assumption and may
        // move measurements by a few percent — but no more.
        let l = four_column_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let seq = sim.run(&l);
        let shd = sim.run_sharded(&l, 4);
        assert_eq!(shd.total_ctas, seq.total_ctas);
        assert_eq!(shd.simulated_ctas, seq.simulated_ctas);
        for (a, b, what) in [
            (shd.l1_bytes, seq.l1_bytes, "l1"),
            (shd.l2_bytes, seq.l2_bytes, "l2"),
            (shd.dram_read_bytes, seq.dram_read_bytes, "dram"),
            (shd.dram_write_bytes, seq.dram_write_bytes, "writes"),
            (shd.cycles, seq.cycles, "cycles"),
        ] {
            let err = (a - b).abs() / b;
            assert!(
                err < 0.25,
                "{what}: sharded {a} vs sequential {b} ({err:.3})"
            );
        }
    }

    #[test]
    fn single_column_layer_shards_to_one_worker_exactly() {
        // One tile column cannot be split: every worker count degenerates
        // to the same single-column replay (surplus shards are empty).
        let l = small_layer(); // Co = 64 -> MEDIUM tile -> 1 column
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let one = sim.run_sharded(&l, 1);
        assert_eq!(sim.run_sharded(&l, 8), one);
        // With a single column there is no cross-column residency to
        // lose: byte counters match the sequential replay exactly, and
        // cycles agree to fp rounding (the prologue is added to the
        // accumulator in a different order).
        let seq = sim.run(&l);
        assert_eq!(one.l1_bytes, seq.l1_bytes);
        assert_eq!(one.l2_bytes, seq.l2_bytes);
        assert_eq!(one.dram_read_bytes, seq.dram_read_bytes);
        assert_eq!(one.dram_write_bytes, seq.dram_write_bytes);
        assert_eq!(one.l1_miss_rate, seq.l1_miss_rate);
        assert_eq!(one.l2_miss_rate, seq.l2_miss_rate);
        assert!((one.cycles - seq.cycles).abs() <= 1e-9 * seq.cycles);
    }

    #[test]
    fn steady_state_over_merged_shard_stats_is_order_independent() {
        // The merge-order determinism contract behind the sharded path:
        // concatenating per-column batch stats in ascending column order
        // yields the same SteadyState no matter how columns were grouped
        // into shards — because each column's stats are computed from
        // identical fresh state.
        let l = ConvLayer::builder("steady")
            .batch(64)
            .input(16, 14, 14)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let sim = Simulator::new(
            GpuSpec::titan_xp(),
            SimConfig {
                // Force batch sampling so SteadyState extrapolation runs.
                max_batches_per_column: Some(2),
                active_ctas_override: Some(1),
                ..SimConfig::default()
            },
        );
        let tiling = sim.tiling(&l);
        let map = TensorMap::new(&l);
        let sched = ColumnScheduler::new(&tiling, sim.gpu(), 1);
        assert!(sched.columns() >= 4, "need a multi-column layer");
        assert!(
            sched.batches_per_column() > 2,
            "need sampling to engage the steady state"
        );

        let merged_stats = |n_workers: u32| -> Vec<BatchStats> {
            let plan = ShardPlan::partition(sched.columns(), n_workers);
            let mut all = Vec::new();
            for range in plan.shards() {
                let mut tx_buf = Vec::new();
                for col in range.clone() {
                    let mut hier = MemoryHierarchy::new(sim.gpu());
                    let mut timing = TimingEngine::new(sim.gpu(), tiling.tile());
                    let c = sim.simulate_column(
                        &map,
                        &sched,
                        &tiling,
                        1,
                        col,
                        &mut hier,
                        &mut timing,
                        &mut tx_buf,
                        false,
                    );
                    all.extend(c.stats);
                }
            }
            all
        };

        let reference = merged_stats(1);
        let steady1 = SteadyState::of(&reference);
        assert!(steady1.l2_bytes > 0.0);
        for n in 2..=4 {
            let merged = merged_stats(n);
            let s = SteadyState::of(&merged);
            assert_eq!(s.l1_bytes, steady1.l1_bytes, "shards={n}");
            assert_eq!(s.l2_bytes, steady1.l2_bytes, "shards={n}");
            assert_eq!(s.dram_bytes, steady1.dram_bytes, "shards={n}");
            assert_eq!(s.store_bytes, steady1.store_bytes, "shards={n}");
            assert_eq!(s.cycles, steady1.cycles, "shards={n}");
        }
    }

    fn wide_layer() -> ConvLayer {
        // Co = 512 -> LARGE tile -> 4 tile columns.
        ConvLayer::builder("wide")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    /// A narrow layer (Co = 128 ⇒ at most 2 tile columns) whose columns
    /// are tall: many CTA batches per column.
    fn narrow_layer() -> ConvLayer {
        ConvLayer::builder("narrow")
            .batch(64)
            .input(64, 14, 14)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    #[test]
    fn narrow_layer_row_sharding_is_identical_for_every_worker_count() {
        let l = narrow_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let tiling = sim.tiling(&l);
        assert!(tiling.cta_columns() <= 2, "need a narrow layer");
        let sched = ColumnScheduler::new(&tiling, sim.gpu(), sim.active_ctas(tiling.tile()));
        assert!(
            sched.batches_per_column() > 1,
            "need tall columns, many CTA batches (rows) each"
        );
        let one = sim.run_sharded(&l, 1);
        assert!(one.l1_bytes > 0.0 && one.cycles > 0.0);
        // Bitwise-equal Measurement for every worker count, including
        // counts far beyond the column count (the surplus workers idle;
        // a column's rows are never split).
        for n in 2..=8 {
            assert_eq!(sim.run_sharded(&l, n), one, "n_workers={n}");
        }
        // And with sampling disabled (full columns).
        let full = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let ref_full = full.run_sharded(&l, 1);
        for n in [3, 8] {
            assert_eq!(full.run_sharded(&l, n), ref_full, "exhaustive n={n}");
        }
    }

    #[test]
    fn unit_replays_merge_to_the_column_sharded_run_bitwise() {
        // The fleet contract on the column axis: replaying each column
        // as an independent unit and merging through the validated
        // public entry point reproduces run_sharded_detail exactly —
        // Measurement AND per-shard cycles — for every worker count,
        // including more workers than columns.
        let l = wide_layer();
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        for n in [1u32, 2, 3, 4, 8] {
            let plan = sim.shard_plan(&l, n);
            let parts: Vec<ColumnReplay> = (0..plan.columns())
                .map(|c| sim.replay_column_unit(&l, c).unwrap())
                .collect();
            let merged = sim.merge_column_replays(&l, n, parts).unwrap();
            let local = sim.run_sharded_detail(&l, n);
            assert_eq!(merged, local, "workers={n}");
        }
    }

    #[test]
    fn replay_parts_round_trip_json_bitwise() {
        // The wire contract: a part that crosses a JSON boundary (the
        // vendored writer emits shortest-round-trip f64s) merges to the
        // same bits as one that never left the process.
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let wide = wide_layer();
        let col = sim.replay_column_unit(&wide, 1).unwrap();
        let json = serde_json::to_string(&col).unwrap();
        let back: ColumnReplay = serde_json::from_str(&json).unwrap();
        assert_eq!(back, col);
    }

    #[test]
    fn unit_replays_do_not_bump_the_replay_counter() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let l = wide_layer();
        sim.replay_column_unit(&l, 0).unwrap();
        assert_eq!(sim.replay_count(), 0);
        sim.run_sharded(&l, 2);
        assert_eq!(sim.replay_count(), 1);
    }

    #[test]
    fn merge_entry_points_reject_malformed_parts() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let wide = wide_layer();
        let plan = sim.shard_plan(&wide, 2);
        let parts: Vec<ColumnReplay> = (0..plan.columns())
            .map(|c| sim.replay_column_unit(&wide, c).unwrap())
            .collect();

        // Missing column.
        let mut missing = parts.clone();
        missing.pop();
        let err = sim.merge_column_replays(&wide, 2, missing).unwrap_err();
        assert!(err.to_string().contains("merge"), "{err}");

        // Out-of-order (duplicate-at-wrong-slot) coverage.
        let mut swapped = parts.clone();
        swapped.swap(0, 1);
        assert!(sim.merge_column_replays(&wide, 2, swapped).is_err());

        // Another layer's parts: a one-column layer refuses them.
        let err = sim
            .merge_column_replays(&small_layer(), 2, parts)
            .unwrap_err();
        assert!(
            err.to_string().contains("one replay per tile column"),
            "{err}"
        );

        // Out-of-range unit requests are refused, not panicked on.
        assert!(sim.replay_column_unit(&wide, 1_000).is_err());
    }

    fn gemm_layer() -> ConvLayer {
        ConvLayer::gemm("blk_fc1", 8, 3072, 768).unwrap()
    }

    #[test]
    fn tensor_core_gemm_is_faster_than_ffma_and_traffic_identical() {
        // v100_tensor() is v100() plus the tensor cores, so only the
        // compute term can differ between the two simulators.
        let ffma = Simulator::new(GpuSpec::v100(), SimConfig::default());
        assert!(GpuSpec::v100_tensor().has_tensor_cores());
        let tc = Simulator::new(GpuSpec::v100_tensor(), SimConfig::default());
        let l = gemm_layer();
        let mf = ffma.run(&l);
        let mt = tc.run(&l);
        // The datapath changes cycle accounting only: every traffic
        // number is bitwise identical.
        assert_eq!(mf.l1_bytes, mt.l1_bytes);
        assert_eq!(mf.l2_bytes, mt.l2_bytes);
        assert_eq!(mf.dram_read_bytes, mt.dram_read_bytes);
        assert_eq!(mf.dram_write_bytes, mt.dram_write_bytes);
        assert!(
            mt.cycles < mf.cycles,
            "tensor cores must not be slower: {} vs {}",
            mt.cycles,
            mf.cycles
        );
    }

    #[test]
    fn conv_measurement_is_unchanged_by_tensor_core_presence() {
        // Conv layers stay on FFMA: the paper's CNN results are bitwise
        // untouched by a device that happens to have tensor cores.
        let plain = Simulator::new(GpuSpec::v100(), SimConfig::default());
        let tc = Simulator::new(GpuSpec::v100_tensor(), SimConfig::default());
        let l = small_layer();
        assert_eq!(plain.run(&l), tc.run(&l));
    }

    #[test]
    fn tensor_core_sharding_is_identical_for_every_worker_count() {
        let sim = Simulator::new(GpuSpec::a100(), SimConfig::default());
        let l = gemm_layer();
        let base = sim.run_sharded(&l, 1);
        for n in [2, 3, 4, 7, 16] {
            assert_eq!(base, sim.run_sharded(&l, n), "workers={n}");
        }
        // Attention replays hold the same contract, past their column
        // count too.
        let attn = ConvLayer::attention("attn", 2, 64, 4, 32).unwrap();
        let abase = sim.run_sharded(&attn, 1);
        for n in [2, 5, 9] {
            assert_eq!(abase, sim.run_sharded(&attn, n), "workers={n}");
        }
    }

    #[test]
    fn tensor_core_unit_replays_merge_bitwise() {
        // The fleet contract (unit replay + merge == local sharded run)
        // holds on the tensor-core datapath because every executor
        // selects the datapath from (gpu, kind) independently.
        let sim = Simulator::new(GpuSpec::v100_tensor(), SimConfig::default());
        let l = gemm_layer();
        let n = 4;
        let local = sim.run_sharded_detail(&l, n);
        let plan = sim.shard_plan(&l, n);
        let parts: Vec<ColumnReplay> = (0..plan.columns())
            .map(|c| sim.replay_column_unit(&l, c).unwrap())
            .collect();
        let merged = sim.merge_column_replays(&l, n, parts).unwrap();
        assert_eq!(local, merged);
    }
}
