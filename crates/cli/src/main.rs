//! `delta` — command-line interface to the DeLTA model, the simulator,
//! and the design-space tools.
//!
//! ```text
//! delta layer   --ci 256 --hw 13 --co 128 [--filter 3 --stride 1 --pad 1 --batch 256 --gpu G --json]
//! delta network <alexnet|vgg16|googlenet|resnet152|gpt2s> [--backend model|sim] [--batch N --gpu G --json]
//! delta sim     --ci 64 --hw 14 --co 64 [--filter 3 ... --exhaustive]     single-layer model-vs-measured
//! delta train   <alexnet|vgg16|googlenet|resnet152|gpt2s> [--backend model|sim] [--batch N --gpu G]
//! delta timeline <alexnet|...> --backend sim --gpus G [--topology T --bucket-mb M --overlap on]
//! delta scaling [--backend model|sim] [--batch N --gpu G]                 the 9 design options on ResNet152
//! delta serve   [--addr A --backend model|sim --threads N --cache-file F] evaluation as an HTTP service
//! delta executor [--addr A --gpu G --exhaustive]                          one fleet executor daemon
//! delta fleet-run <alexnet|...> (--executors a,b,... | --local-executors N) distributed evaluation
//! delta trace-summary <file>                                              per-stage table of a trace
//! delta gpus                                                              list device presets
//! delta help
//! ```
//!
//! Every multi-layer command runs through the parallel cached evaluation
//! engine (`delta_model::engine`), so `--backend sim` fans the
//! trace-driven simulator across cores and reuses repeated layer shapes.
//! `network` and `train` additionally take `--gpus G --interconnect
//! ideal|nvlink|pcie` (sim only) to simulate each layer partitioned
//! across G devices with cross-device traffic priced by the interconnect
//! model, and `--cache-file F` to persist the engine's result cache
//! across processes. `--topology ring|switch|mesh|hierarchical` swaps
//! the scalar fabric pricing for an explicit device graph, and `train
//! --overlap on` / `timeline` run the collective scheduler: weight
//! gradients bucket up (`--bucket-mb`) and each bucket's all-reduce
//! overlaps the remaining backward compute.
//!
//! Every command additionally takes `--trace-out FILE`: structured
//! tracing (`delta_obs`) records spans across the engine, simulator,
//! serve, and fleet layers, and the run writes them as a Chrome
//! trace-event JSON document — open it in Perfetto, or aggregate it
//! with `delta trace-summary FILE` (see `docs/OBSERVABILITY.md`).

use delta_model::engine::{self, Engine, NetworkEvaluation};
use delta_model::query::{Parallelism, StepQuery};
use delta_model::{Backend, ConvLayer, Delta, DesignOption, GpuSpec};
use delta_sim::{InterconnectKind, SimConfig, Simulator};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if let Some(v) = args.get(i + 1).filter(|v| !v.starts_with("--")) {
                flags.insert(name.to_string(), v.clone());
                i += 2;
                continue;
            }
            flags.insert(name.to_string(), "true".to_string());
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    (positional, flags)
}

fn gpu_from(flags: &HashMap<String, String>) -> Result<GpuSpec, String> {
    match flags.get("gpu").map(String::as_str) {
        None => Ok(GpuSpec::titan_xp()),
        Some("titanxp" | "titan_xp" | "titan-xp") => Ok(GpuSpec::titan_xp()),
        Some("p100") => Ok(GpuSpec::p100()),
        Some("v100") => Ok(GpuSpec::v100()),
        Some("v100tc" | "v100-tc" | "v100_tc") => Ok(GpuSpec::v100_tensor()),
        Some("a100") => Ok(GpuSpec::a100()),
        Some(other) => Err(format!(
            "unknown --gpu `{other}` (expected titanxp, p100, v100, v100tc, or a100)"
        )),
    }
}

/// Which estimator multi-layer commands drive through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    Model,
    Sim,
}

fn backend_from(flags: &HashMap<String, String>) -> Result<BackendChoice, String> {
    match flags.get("backend").map(String::as_str) {
        None | Some("model") => Ok(BackendChoice::Model),
        Some("sim") => Ok(BackendChoice::Sim),
        Some(other) => Err(format!(
            "unknown --backend `{other}` (expected model or sim)"
        )),
    }
}

/// The sampling mode: `--exhaustive` or the default sampled replay.
/// Every other simulator flag describes the query, not the simulator.
fn sim_config_from(flags: &HashMap<String, String>) -> SimConfig {
    if flags.contains_key("exhaustive") {
        SimConfig::exhaustive()
    } else {
        SimConfig::default()
    }
}

/// A step query over `layers` under `parallelism`, with the collective
/// scheduler's `--bucket-mb` (default 25 MiB) and `--overlap` flags.
fn step_query_from(
    flags: &HashMap<String, String>,
    layers: &[ConvLayer],
    parallelism: Parallelism,
) -> Result<StepQuery, String> {
    let mut query = StepQuery::new(layers, parallelism);
    if let Some(v) = flags.get("bucket-mb") {
        query.bucket_mb = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or(format!("--bucket-mb expects a size in MiB >= 1, got `{v}`"))?;
    }
    match flags.get("overlap").map(String::as_str) {
        None | Some("off" | "false") => {}
        Some("on" | "true") => query.overlap = true,
        Some(other) => return Err(format!("--overlap expects on or off, got `{other}`")),
    }
    Ok(query)
}

/// The collective-scheduler flags, honored by `train` and `timeline`
/// only (`--topology` instead rides with `--gpus` and is validated by
/// [`multi_gpu_from`] / [`reject_multi_gpu`]).
const SCHED_FLAGS: [&str; 2] = ["bucket-mb", "overlap"];

/// Parses `--gpus G` and validates the multi-GPU flag pairing: both
/// `--gpus` and `--interconnect` need the trace-driven backend, and
/// `--interconnect` is meaningless without a device count.
fn multi_gpu_from(
    flags: &HashMap<String, String>,
    backend: BackendChoice,
) -> Result<Option<u32>, String> {
    let gpus = match flags.get("gpus") {
        None => None,
        Some(v) => Some(
            v.parse::<u32>()
                .ok()
                .filter(|g| *g >= 1)
                .ok_or(format!("--gpus expects a device count >= 1, got `{v}`"))?,
        ),
    };
    let fabric_flag = flags.contains_key("interconnect") || flags.contains_key("topology");
    if backend == BackendChoice::Model && (gpus.is_some() || fabric_flag) {
        return Err("--gpus/--interconnect/--topology require --backend sim \
             (the model has no multi-device partition)"
            .into());
    }
    if flags.contains_key("interconnect") && gpus.is_none() {
        return Err("--interconnect requires --gpus G".into());
    }
    if flags.contains_key("topology") && gpus.is_none() {
        return Err("--topology requires --gpus G".into());
    }
    // Devices already partition the layer's work units (its tile
    // columns), so a worker count has nothing left to split;
    // reject the combination instead of silently ignoring one flag.
    if gpus.is_some() && flags.contains_key("shards") {
        return Err(
            "--shards and --gpus are mutually exclusive (devices already partition \
             the layer's work units)"
                .into(),
        );
    }
    // Overlap with a single device is meaningless (nothing to exchange)
    // and would print a zero-comm schedule that contradicts the
    // sequential table; require an explicit device count.
    if matches!(
        flags.get("overlap").map(String::as_str),
        Some("on" | "true")
    ) && gpus.is_none()
    {
        return Err("--overlap on requires --gpus G (a single device exchanges nothing)".into());
    }
    Ok(gpus)
}

/// Rejects the multi-GPU flags on commands that do not support them.
fn reject_multi_gpu(flags: &HashMap<String, String>, command: &str) -> Result<(), String> {
    if flags.contains_key("gpus")
        || flags.contains_key("interconnect")
        || flags.contains_key("topology")
    {
        return Err(format!(
            "--gpus/--interconnect/--topology are not supported by `{command}` \
             (use network, train, or timeline with --backend sim)"
        ));
    }
    Ok(())
}

/// Rejects the collective-scheduler flags (`--overlap`, `--bucket-mb`)
/// on commands without a scheduled training step.
fn reject_sched_flags(flags: &HashMap<String, String>, command: &str) -> Result<(), String> {
    for f in SCHED_FLAGS {
        if flags.contains_key(f) {
            return Err(format!(
                "--{f} is not supported by `{command}` \
                 (use train or timeline with --backend sim)"
            ));
        }
    }
    Ok(())
}

/// Tile columns are the ownership unit of both the shard and the device
/// partition, so a worker (`--shards`) or device (`--gpus`) count beyond
/// a layer's column count leaves the surplus idle (narrow GEMMs,
/// Co ≤ 128, have only one or two columns). Say so on stderr instead of
/// silently under-using them.
fn warn_surplus_units(sim: &Simulator, layers: &[ConvLayer], parallelism: &Parallelism) {
    let (n, flag, unit) = match parallelism {
        Parallelism::Single => return,
        Parallelism::Sharded { workers } => (*workers, "shards", "workers"),
        Parallelism::Multi { devices, .. } => (devices.len() as u32, "gpus", "devices"),
    };
    let columns: Vec<u64> = layers.iter().map(|l| sim.tiling(l).cta_columns()).collect();
    let short = columns.iter().filter(|c| u64::from(n) > **c).count();
    if short == 0 {
        return;
    }
    let min = columns.iter().copied().min().unwrap_or(0);
    eprintln!(
        "note: --{flag} {n} exceeds the tile-column count of {short} of {} layer(s) \
         (narrowest has {min}); surplus {unit} idle there and results are unchanged",
        columns.len()
    );
}

/// Wraps an engine run with the optional `--cache-file` persistence:
/// load previously computed estimates before, save the (possibly grown)
/// cache after. Notes go to stderr so `--json` output stays clean.
fn with_cache_file<B: Backend, T>(
    engine: &Engine<B>,
    flags: &HashMap<String, String>,
    run: impl FnOnce(&Engine<B>) -> Result<T, String>,
) -> Result<T, String> {
    let path = flags.get("cache-file").map(PathBuf::from);
    if let Some(p) = &path {
        if p.exists() {
            let n = engine
                .load_cache(p)
                .map_err(|e| format!("cannot load --cache-file {}: {e}", p.display()))?;
            eprintln!("cache: loaded {n} entries from {}", p.display());
        }
    }
    let out = run(engine)?;
    if let Some(p) = &path {
        let n = engine
            .save_cache(p)
            .map_err(|e| format!("cannot save --cache-file {}: {e}", p.display()))?;
        eprintln!("cache: saved {n} entries to {}", p.display());
    }
    Ok(out)
}

/// `--shards` only has meaning for the trace-driven simulator; reject it
/// on the instant model backend instead of silently ignoring it.
fn reject_shards_on_model(
    flags: &HashMap<String, String>,
    backend: BackendChoice,
) -> Result<(), String> {
    if backend == BackendChoice::Model && flags.contains_key("shards") {
        return Err(
            "--shards requires --backend sim (the model has no per-layer work to partition)".into(),
        );
    }
    Ok(())
}

/// Batch-size flag with a backend-dependent default: the paper's 256 for
/// the instant model, a tractable 16 for trace-driven simulation.
fn batch_from(
    flags: &HashMap<String, String>,
    backend: BackendChoice,
    model_default: u32,
) -> Result<u32, String> {
    match flags.get("batch") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--batch expects a number, got `{v}`")),
        None => Ok(match backend {
            BackendChoice::Model => model_default,
            BackendChoice::Sim => 16,
        }),
    }
}

fn layer_from(flags: &HashMap<String, String>) -> Result<ConvLayer, String> {
    let get = |k: &str, default: Option<u32>| -> Result<u32, String> {
        match flags.get(k) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{k} expects a number, got `{v}`")),
            None => default.ok_or(format!("missing required flag --{k}")),
        }
    };
    ConvLayer::builder("cli_layer")
        .batch(get("batch", Some(256))?)
        .input(get("ci", None)?, get("hw", None)?, get("hw", None)?)
        .output_channels(get("co", None)?)
        .filter(get("filter", Some(3))?, get("filter", Some(3))?)
        .stride(get("stride", Some(1))?)
        .pad(get("pad", Some(0))?)
        .build()
        .map_err(|e| e.to_string())
}

fn find_network(name: &str, batch: u32) -> Result<delta_networks::Network, String> {
    // The transformer stack lives outside `paper_networks` (that list
    // reproduces the paper's four CNNs exactly) but is addressable by
    // every network-driven command.
    if name.eq_ignore_ascii_case("gpt2s") || name.eq_ignore_ascii_case("gpt2-s") {
        return delta_networks::gpt2s(batch).map_err(|e| e.to_string());
    }
    delta_networks::paper_networks(batch)
        .map_err(|e| e.to_string())?
        .into_iter()
        .find(|n| n.name().eq_ignore_ascii_case(name))
        .ok_or(format!(
            "unknown network `{name}` (try alexnet, vgg16, googlenet, resnet152, gpt2s)"
        ))
}

fn cmd_layer(flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    // `layer` always runs the analytical model.
    reject_shards_on_model(flags, BackendChoice::Model)?;
    reject_multi_gpu(flags, "layer")?;
    reject_sched_flags(flags, "layer")?;
    let layer = layer_from(flags)?;
    let report = Delta::new(gpu).analyze(&layer).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{report}");
    }
    Ok(())
}

/// The execution configuration the sim backend's flags describe:
/// `--gpus G` wins (a homogeneous G-device fleet priced by the
/// `--interconnect`/`--topology` fabric), then `--shards N`, then the
/// sequential single-device replay. A multi-GPU request without an
/// explicit interconnect gets the realistic NVLink pricing;
/// `--interconnect ideal` opts into the zero-cost identity
/// configuration.
fn parallelism_from(
    flags: &HashMap<String, String>,
    gpu: &GpuSpec,
    gpus: Option<u32>,
) -> Result<Parallelism, String> {
    let shards = flags
        .get("shards")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or(format!("--shards expects a worker count >= 1, got `{v}`"))
        })
        .transpose()?;
    let interconnect = match flags.get("interconnect") {
        Some(v) => v.parse().map_err(|e| format!("--interconnect: {e}"))?,
        None if flags.contains_key("gpus") => InterconnectKind::NvLink,
        None => InterconnectKind::Ideal,
    };
    let topology = flags
        .get("topology")
        .map(|v| v.parse().map_err(|e| format!("--topology: {e}")))
        .transpose()?;
    Ok(match (gpus, shards) {
        (Some(g), _) => Parallelism::Multi {
            devices: vec![gpu.clone(); g.max(1) as usize],
            interconnect,
            topology,
        },
        (None, Some(n)) => Parallelism::Sharded { workers: n },
        (None, None) => Parallelism::Single,
    })
}

/// Shared engine-driven network evaluation used by `network` for both
/// backends.
fn print_network_eval<B: Backend>(
    engine: &Engine<B>,
    net: &delta_networks::Network,
    json: bool,
    parallelism: &Parallelism,
) -> Result<(), String> {
    let eval: NetworkEvaluation = engine
        .evaluate_network(net.layers(), parallelism)
        .map_err(|e| e.to_string())?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&eval).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("{net} on {}", engine.backend().gpu());
    println!("{eval}");
    let stats = engine.cache_stats();
    println!(
        "engine: {} unique layer shapes evaluated, {} served from cache",
        stats.misses, stats.hits
    );
    Ok(())
}

fn cmd_network(name: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    let backend = backend_from(flags)?;
    reject_shards_on_model(flags, backend)?;
    reject_sched_flags(flags, "network")?;
    let gpus = multi_gpu_from(flags, backend)?;
    let batch = batch_from(flags, backend, 256)?;
    let net = find_network(name, batch)?;
    let json = flags.contains_key("json");
    match backend {
        BackendChoice::Model => {
            let engine = Engine::new(Delta::new(gpu));
            with_cache_file(&engine, flags, |e| {
                print_network_eval(e, &net, json, &Parallelism::Single)
            })
        }
        BackendChoice::Sim => {
            let par = parallelism_from(flags, &gpu, gpus)?;
            let sim = Simulator::new(gpu, sim_config_from(flags));
            warn_surplus_units(&sim, net.layers(), &par);
            let engine = Engine::new(sim);
            with_cache_file(&engine, flags, |e| print_network_eval(e, &net, json, &par))
        }
    }
}

fn cmd_sim(flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    reject_multi_gpu(flags, "sim")?;
    reject_sched_flags(flags, "sim")?;
    let mut layer = layer_from(flags)?;
    if !flags.contains_key("batch") {
        // Simulation defaults to a laptop-scale batch unless told
        // otherwise.
        layer = layer.with_batch(8).map_err(|e| e.to_string())?;
    }
    let par = parallelism_from(flags, &gpu, None)?;
    let sim = Simulator::new(gpu.clone(), sim_config_from(flags));
    warn_surplus_units(&sim, std::slice::from_ref(&layer), &par);
    let m = match par {
        Parallelism::Sharded { workers } => sim.run_sharded(&layer, workers),
        _ => sim.run(&layer),
    };
    let est = Delta::new(gpu)
        .estimate_traffic(&layer)
        .map_err(|e| e.to_string())?;
    println!("{layer}");
    println!(
        "measured : L1 {:.4} GB, L2 {:.4} GB, DRAM {:.4} GB (+{:.4} GB writes)",
        m.l1_bytes / 1e9,
        m.l2_bytes / 1e9,
        m.dram_read_bytes / 1e9,
        m.dram_write_bytes / 1e9
    );
    println!(
        "model    : L1 {:.4} GB, L2 {:.4} GB, DRAM {:.4} GB",
        est.l1_bytes / 1e9,
        est.l2_bytes / 1e9,
        est.dram_bytes / 1e9
    );
    println!(
        "ratio    : L1 {:.3}, L2 {:.3}, DRAM {:.3}",
        est.l1_bytes / m.l1_bytes,
        est.l2_bytes / m.l2_bytes,
        est.dram_bytes / m.dram_read_bytes
    );
    println!(
        "miss     : L1 {:.1}%, L2 {:.1}%",
        m.l1_miss_rate * 100.0,
        m.l2_miss_rate * 100.0
    );
    println!(
        "cycles   : {:.3e} ({} of {} CTAs traced{})",
        m.cycles,
        m.simulated_ctas,
        m.total_ctas,
        if m.sampled { ", extrapolated" } else { "" }
    );
    Ok(())
}

/// Builds the per-option simulator for `scaling --backend sim`: the
/// scaled device plus the option's CTA-tile growth.
fn scaled_simulator(
    opt: &DesignOption,
    base: &GpuSpec,
    config: SimConfig,
) -> Result<Simulator, delta_model::Error> {
    let gpu = opt.apply(base)?;
    let tile_scale = (opt.cta_tile_hw > 128).then_some(opt.cta_tile_hw / 128);
    Ok(Simulator::new(
        gpu,
        SimConfig {
            tile_scale,
            ..config
        },
    ))
}

fn cmd_scaling(flags: &HashMap<String, String>) -> Result<(), String> {
    let base = gpu_from(flags)?;
    let backend = backend_from(flags)?;
    // The design-space sweep replays every option sequentially on one
    // device; a worker count would change nothing, so reject it on
    // either backend instead of silently ignoring it.
    if flags.contains_key("shards") {
        return Err(
            "--shards is not supported by `scaling` (the design-space sweep replays \
             each layer sequentially on one device)"
                .into(),
        );
    }
    reject_multi_gpu(flags, "scaling")?;
    reject_sched_flags(flags, "scaling")?;
    let batch = batch_from(flags, backend, 256)?;
    let net = delta_networks::resnet152_full(batch).map_err(|e| e.to_string())?;
    let options = DesignOption::paper_options();

    // Baseline plus the nine options, all through the engine.
    let (t0, points) = match backend {
        BackendChoice::Model => {
            let t0 = Engine::new(Delta::new(base.clone()))
                .evaluate_network(net.layers(), &Parallelism::Single)
                .map_err(|e| e.to_string())?
                .total_seconds();
            let points =
                engine::evaluate_design_space(&options, net.layers(), |opt| opt.model(&base))
                    .map_err(|e| e.to_string())?;
            (t0, points)
        }
        BackendChoice::Sim => {
            let config = sim_config_from(flags);
            let t0 = Engine::new(Simulator::new(base.clone(), config))
                .evaluate_network(net.layers(), &Parallelism::Single)
                .map_err(|e| e.to_string())?
                .total_seconds();
            let points = engine::evaluate_design_space(&options, net.layers(), |opt| {
                scaled_simulator(opt, &base, config)
            })
            .map_err(|e| e.to_string())?;
            (t0, points)
        }
    };

    println!(
        "ResNet152 ({} convs, B={batch}) on {} [{}]: {:.1} ms",
        net.len(),
        base.name(),
        match backend {
            BackendChoice::Model => "model",
            BackendChoice::Sim => "sim",
        },
        t0 * 1e3
    );
    println!("{:<8} {:>9} {:>10}", "option", "speedup", "rel. cost");
    for p in &points {
        println!(
            "{:<8} {:>8.2}x {:>10.2}",
            p.option.name,
            p.speedup_over(t0),
            p.option.relative_cost()
        );
    }
    Ok(())
}

fn cmd_train(name: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    let backend = backend_from(flags)?;
    reject_shards_on_model(flags, backend)?;
    if backend == BackendChoice::Model {
        reject_sched_flags(flags, "train --backend model")?;
    }
    let gpus = multi_gpu_from(flags, backend)?;
    let batch = batch_from(flags, backend, 64)?;
    let net = find_network(name, batch)?;
    // One step query answers both views: the per-layer table always, and
    // (with `--overlap on`) the collective scheduler's timeline appended
    // after it — derived from the same replays, so the opt-in no longer
    // doubles the simulation cost.
    let (eval, show_timeline) = match backend {
        BackendChoice::Model => {
            let engine = Engine::new(Delta::new(gpu.clone()));
            let query = StepQuery::new(net.layers(), Parallelism::Single);
            let eval = with_cache_file(&engine, flags, |e| {
                e.evaluate_step(&query).map_err(|e| e.to_string())
            })?;
            (eval, false)
        }
        BackendChoice::Sim => {
            let par = parallelism_from(flags, &gpu, gpus)?;
            let query = step_query_from(flags, net.layers(), par)?;
            let sim = Simulator::new(gpu.clone(), sim_config_from(flags));
            warn_surplus_units(&sim, net.layers(), &query.parallelism);
            let engine = Engine::new(sim);
            let eval = with_cache_file(&engine, flags, |e| {
                e.evaluate_step(&query).map_err(|e| e.to_string())
            })?;
            (eval, query.overlap)
        }
    };
    let timeline = show_timeline.then_some(&eval.timeline);
    let eval = &eval.table;

    println!("{net} training step on {gpu}");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9}",
        "layer", "fwd ms", "dgrad ms", "wgrad ms", "step ms"
    );
    for r in &eval.rows {
        println!(
            "{:<14} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            r.label,
            r.forward.millis(),
            r.dgrad.as_ref().map_or(0.0, |d| d.millis()),
            r.wgrad.millis(),
            r.seconds() * 1e3
        );
    }
    let (fwd, bwd) = (eval.forward_seconds(), eval.backward_seconds());
    println!(
        "totals: forward {:.3} ms, backward {:.3} ms ({:.2}x), step {:.3} ms",
        fwd * 1e3,
        bwd * 1e3,
        bwd / fwd,
        (fwd + bwd) * 1e3
    );
    if let Some(t) = &timeline {
        println!(
            "overlap: bucket {} MiB, comm {:.3} ms ({:.0}% hidden behind backward), \
             exposed {:.3} ms",
            t.bucket_bytes >> 20,
            t.comm_seconds * 1e3,
            ((1.0 - t.exposed_fraction()) * 100.0).max(0.0),
            t.exposed_comm_seconds * 1e3,
        );
        println!(
            "scheduled step: {:.3} ms overlapped vs {:.3} ms serial ({:.2}x); \
             compute {:.3} ms, see `delta timeline` for spans",
            t.step_seconds * 1e3,
            t.serial_seconds * 1e3,
            t.speedup_over_serial(),
            t.compute_seconds * 1e3,
        );
    }
    Ok(())
}

fn cmd_timeline(name: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    let backend = backend_from(flags)?;
    // `timeline` schedules a device fleet (one device without --gpus);
    // a worker count plays no role in that query, so reject it instead
    // of silently ignoring it.
    if flags.contains_key("shards") {
        return Err(
            "--shards is not supported by `timeline` (the step schedules a device \
             fleet; use --gpus G)"
                .into(),
        );
    }
    let gpus = multi_gpu_from(flags, backend)?;
    let batch = batch_from(flags, backend, 64)?;
    let net = find_network(name, batch)?;
    let timeline = match backend {
        BackendChoice::Model => {
            // The serial fallback: every backend schedules, backends
            // without a collective scheduler just have no comm stream.
            reject_sched_flags(flags, "timeline --backend model")?;
            Engine::new(Delta::new(gpu))
                .evaluate_step(&StepQuery::new(net.layers(), Parallelism::Single))
                .map_err(|e| e.to_string())?
                .timeline
        }
        BackendChoice::Sim => {
            // `timeline` always schedules a device fleet (one device
            // without --gpus), so the spans reflect the per-device
            // critical path even when nothing crosses a link.
            let par = parallelism_from(flags, &gpu, Some(gpus.unwrap_or(1)))?;
            let query = step_query_from(flags, net.layers(), par)?;
            let sim = Simulator::new(gpu, sim_config_from(flags));
            warn_surplus_units(&sim, net.layers(), &query.parallelism);
            Engine::new(sim)
                .evaluate_step(&query)
                .map_err(|e| e.to_string())?
                .timeline
        }
    };
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&timeline).map_err(|e| e.to_string())?
        );
    } else {
        println!("{net}");
        print!("{timeline}");
    }
    Ok(())
}

fn cmd_gpus() {
    for g in GpuSpec::paper_devices() {
        println!("{g}");
    }
    // Tensor-core presets (GEMM/attention layers run on the MMA
    // datapath there; conv layers stay on FFMA everywhere).
    println!("{}", GpuSpec::v100_tensor());
    println!("{}", GpuSpec::a100());
}

/// Parses the daemon flags (`--addr`, `--threads`, `--cache-file`) into
/// a [`delta_serve::ServeConfig`].
fn serve_config_from(flags: &HashMap<String, String>) -> Result<delta_serve::ServeConfig, String> {
    let mut config = delta_serve::ServeConfig::default();
    if let Some(a) = flags.get("addr") {
        config.addr = a.clone();
    }
    if let Some(v) = flags.get("threads") {
        config.threads = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or(format!("--threads expects a worker count >= 1, got `{v}`"))?;
    }
    config.cache_file = flags.get("cache-file").map(PathBuf::from);
    Ok(config)
}

/// `delta serve`: run the evaluation daemon in the foreground until
/// SIGINT/SIGTERM. The execution-configuration flags other commands take
/// (`--shards`, `--gpus`, `--interconnect`, ...) are per-request here —
/// every query carries its own `parallelism` and schedule knobs — so
/// only the backend choice, the device, and the sampling mode configure
/// the server itself.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    let backend = backend_from(flags)?;
    for f in [
        "shards",
        "gpus",
        "interconnect",
        "topology",
        "bucket-mb",
        "overlap",
        "batch",
    ] {
        if flags.contains_key(f) {
            return Err(format!(
                "--{f} is per-query in serve: send it in each request's parallelism/schedule \
                 fields instead (see docs/PROTOCOL.md)"
            ));
        }
    }
    let config = serve_config_from(flags)?;
    match backend {
        BackendChoice::Model => delta_serve::run(Delta::new(gpu), config),
        BackendChoice::Sim => delta_serve::run(Simulator::new(gpu, sim_config_from(flags)), config),
    }
    .map_err(|e| format!("serve: {e}"))
}

/// `delta executor`: run one fleet executor daemon in the foreground
/// until SIGINT/SIGTERM. Like `serve`, the execution-configuration
/// flags are per-job — the coordinator sends each unit's coordinates —
/// so only the device and the sampling mode configure the executor, and
/// both must match the coordinator's (the handshake refuses a
/// mismatch).
fn cmd_executor(flags: &HashMap<String, String>) -> Result<(), String> {
    let gpu = gpu_from(flags)?;
    for f in [
        "shards",
        "gpus",
        "interconnect",
        "topology",
        "bucket-mb",
        "overlap",
        "batch",
        "backend",
    ] {
        if flags.contains_key(f) {
            return Err(format!(
                "--{f} is not an executor knob: the coordinator sends each job's \
                 configuration (see docs/FLEET.md)"
            ));
        }
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7979".to_string());
    delta_fleet::executor::run(
        Simulator::new(gpu, sim_config_from(flags)),
        delta_fleet::ExecutorConfig::new(addr),
    )
    .map_err(|e| format!("executor: {e}"))
}

/// The fleet membership `fleet-run` flags describe: explicit
/// `--executors host:port,...`, or `--local-executors N` spawned
/// in-process (handles keep them alive until the run finishes).
fn fleet_members(
    flags: &HashMap<String, String>,
    sim: &Simulator,
) -> Result<(Vec<delta_fleet::ExecutorHandle>, Vec<String>), String> {
    match (flags.get("executors"), flags.get("local-executors")) {
        (Some(_), Some(_)) => {
            Err("--executors and --local-executors are mutually exclusive".into())
        }
        (Some(list), None) => {
            let addrs: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect();
            if addrs.is_empty() {
                return Err("--executors expects a comma-separated host:port list".into());
            }
            Ok((Vec::new(), addrs))
        }
        (None, Some(v)) => {
            let n: u32 = v.parse().ok().filter(|n| *n >= 1).ok_or(format!(
                "--local-executors expects an executor count >= 1, got `{v}`"
            ))?;
            let handles = delta_fleet::spawn_local_executors(sim, n)
                .map_err(|e| format!("cannot spawn local executors: {e}"))?;
            let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
            Ok((handles, addrs))
        }
        (None, None) => Err(
            "fleet-run needs a fleet: --executors host:port,... (daemons started with \
             `delta executor`) or --local-executors N (spawned in-process)"
                .into(),
        ),
    }
}

/// `delta fleet-run`: evaluate a network with the replay work fanned
/// across executor processes — same engine, same caching, same output
/// as `network --backend sim`, and bitwise-identical numbers (the
/// fleet merge contract). Fleet health counters go to stderr.
fn cmd_fleet_run(name: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    reject_sched_flags(flags, "fleet-run")?;
    let gpu = gpu_from(flags)?;
    if flags.contains_key("backend") && flags.get("backend").map(String::as_str) != Some("sim") {
        return Err("fleet-run is sim-only: executors replay the trace-driven simulator".into());
    }
    let gpus = multi_gpu_from(flags, BackendChoice::Sim)?;
    let par = parallelism_from(flags, &gpu, gpus)?;
    let batch = batch_from(flags, BackendChoice::Sim, 256)?;
    let net = find_network(name, batch)?;
    let json = flags.contains_key("json");
    let sim = Simulator::new(gpu, sim_config_from(flags));
    warn_surplus_units(&sim, net.layers(), &par);
    let (handles, executors) = fleet_members(flags, &sim)?;
    let coordinator =
        delta_fleet::Coordinator::connect(sim, delta_fleet::FleetConfig::new(executors))
            .map_err(|e| e.to_string())?;
    let engine = Engine::new(coordinator);
    with_cache_file(&engine, flags, |e| print_network_eval(e, &net, json, &par))?;
    let stats = engine.backend().stats();
    eprintln!(
        "fleet: {} jobs dispatched, {} completed, {} re-dispatched, \
         {} duplicates dropped, {} executors lost",
        stats.dispatched,
        stats.completed,
        stats.redispatches,
        stats.duplicates_dropped,
        stats.executors_lost
    );
    drop(handles);
    Ok(())
}

/// One aggregated row of `trace-summary`: how often a span name fired
/// and how much wall time it covered.
struct StageRow {
    name: String,
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// `delta trace-summary <file>`: reads a Chrome trace-event document
/// (written by `--trace-out`) and prints a per-stage table — span
/// count, total, mean, and max duration per span name, widest stages
/// first.
fn cmd_trace_summary(file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let doc: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{file}: invalid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(serde::Value::Seq(items)) => items,
        _ => {
            return Err(format!(
                "{file}: no `traceEvents` array (expected a document written by --trace-out)"
            ))
        }
    };
    let mut stages: Vec<StageRow> = Vec::new();
    for event in events {
        let Some(serde::Value::Str(name)) = event.get("name") else {
            continue;
        };
        let dur = match event.get("dur") {
            Some(serde::Value::U64(d)) => *d,
            _ => 0,
        };
        match stages.iter_mut().find(|row| &row.name == name) {
            Some(row) => {
                row.count += 1;
                row.total_us += dur;
                row.max_us = row.max_us.max(dur);
            }
            None => stages.push(StageRow {
                name: name.clone(),
                count: 1,
                total_us: dur,
                max_us: dur,
            }),
        }
    }
    if stages.is_empty() {
        println!("{file}: no spans recorded");
        return Ok(());
    }
    stages.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    let name_width = stages
        .iter()
        .map(|row| row.name.len())
        .max()
        .unwrap_or(0)
        .max("span".len());
    println!(
        "{:<name_width$}  {:>7}  {:>12}  {:>10}  {:>10}",
        "span", "count", "total µs", "mean µs", "max µs"
    );
    for row in &stages {
        println!(
            "{:<name_width$}  {:>7}  {:>12}  {:>10.1}  {:>10}",
            row.name,
            row.count,
            row.total_us,
            row.total_us as f64 / row.count as f64,
            row.max_us
        );
    }
    Ok(())
}

fn usage() -> String {
    "usage: delta <command> [flags]\n\
     commands:\n  \
     layer    --ci N --hw N --co N [--filter N --stride N --pad N --batch N --gpu G --json]\n  \
     network  <alexnet|vgg16|googlenet|resnet152|gpt2s> [--backend model|sim --batch N --gpu G --json\n           \
     --exhaustive --shards N --gpus G --interconnect I --topology T --cache-file F]\n  \
     sim      --ci N --hw N --co N [--filter N ... --exhaustive --shards N]\n  \
     train    <alexnet|vgg16|googlenet|resnet152|gpt2s> [--backend model|sim --batch N --gpu G\n           \
     --shards N --gpus G --interconnect I --topology T --bucket-mb M --overlap on|off\n           \
     --cache-file F]\n  \
     timeline <alexnet|vgg16|googlenet|resnet152|gpt2s> [--backend model|sim --batch N --gpu G\n           \
     --gpus G --interconnect I --topology T --bucket-mb M --overlap on|off --json]\n  \
     scaling  [--backend model|sim --batch N --gpu G]\n  \
     serve    [--addr A --backend model|sim --gpu G --threads N --cache-file F --exhaustive]\n  \
     executor [--addr A --gpu G --exhaustive]\n  \
     fleet-run <alexnet|vgg16|googlenet|resnet152|gpt2s> (--executors host:port,... | --local-executors N)\n           \
     [--batch N --gpu G --shards N --gpus G --interconnect I --topology T\n           \
     --cache-file F --json --exhaustive]\n  \
     trace-summary <file>   per-stage span table of a trace written by --trace-out\n  \
     gpus\n  \
     help\n\
     flags:\n  \
     --gpu          titanxp (default) | p100 | v100 | v100tc | a100 (v100tc/a100 have tensor\n                 \
     cores: GEMM/attention layers — e.g. gpt2s — run on the MMA datapath)\n  \
     --backend      model (default: instant analytical model) | sim (trace-driven simulator)\n  \
     --batch        mini-batch size (default 256 for model, 16 for sim)\n  \
     --shards       sim only: partition each layer's tile columns over N parallel workers;\n                 \
     workers beyond a layer's column count idle (results are bitwise\n                 \
     identical for every N)\n  \
     --gpus         sim only: simulate the layer partitioned across G devices\n  \
     --interconnect ideal | nvlink (default with --gpus) | pcie — prices cross-device halo\n                 \
     and gradient all-reduce traffic; `ideal` is zero-cost, so its output is\n                 \
     byte-identical for every --gpus count\n  \
     --topology     ring | switch | mesh | hierarchical — explicit device graph; hop counts\n                 \
     and link contention derive the byte multiplier instead of the preset's\n                 \
     scalar topology factor (omit for the legacy scalar pricing)\n  \
     --bucket-mb    gradient bucket size in MiB for the collective scheduler (default 25)\n  \
     --overlap      on | off (default) — overlap each bucket's all-reduce with the\n                 \
     remaining backward compute (train appends the scheduled step; timeline\n                 \
     shows the spans; `on` requires --gpus G)\n  \
     --cache-file   persist the engine's shape- and step-keyed results to F and reuse them\n                 \
     next run (a warm multi-GPU train step replays nothing; serve uses F as\n                 \
     its warm store, saved on shutdown and periodically)\n  \
     --addr         serve: bind address (default 127.0.0.1:7878); executor: likewise\n                 \
     (default 127.0.0.1:7979; port 0 picks a port)\n  \
     --threads      serve only: worker-thread count (default 4)\n  \
     --executors    fleet-run only: comma-separated executor addresses (daemons started\n                 \
     with `delta executor`; every executor must match the coordinator's\n                 \
     GPU and sampling mode — the handshake refuses a mismatch)\n  \
     --local-executors  fleet-run only: spawn N executors in-process instead\n  \
     --trace-out    any command: record structured spans across every layer and write\n                 \
     them to F as Chrome trace-event JSON (view in Perfetto, or summarize\n                 \
     with `delta trace-summary F`; results are bitwise-unchanged)\n  \
     --json         machine-readable output where supported\n\
     multi-layer commands run on all cores with shape-keyed result caching;\n\
     serve answers POST /eval, POST /step, POST /sweep, GET /healthz, GET /stats and\n\
     GET /metrics (Prometheus text) over HTTP (wire contract: docs/PROTOCOL.md);\n\
     fleet-run fans replays across executor processes with a bitwise-exact merge\n\
     (wire contract: docs/FLEET.md); observability: docs/OBSERVABILITY.md"
        .to_string()
}

fn run(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("layer") => cmd_layer(flags),
        Some("network") => match positional.get(1) {
            Some(name) => cmd_network(name, flags),
            None => Err("network command needs a network name".into()),
        },
        Some("sim") => cmd_sim(flags),
        Some("train") => match positional.get(1) {
            Some(name) => cmd_train(name, flags),
            None => Err("train command needs a network name".into()),
        },
        Some("timeline") => match positional.get(1) {
            Some(name) => cmd_timeline(name, flags),
            None => Err("timeline command needs a network name".into()),
        },
        Some("scaling") => cmd_scaling(flags),
        Some("serve") => cmd_serve(flags),
        Some("executor") => cmd_executor(flags),
        Some("fleet-run") => match positional.get(1) {
            Some(name) => cmd_fleet_run(name, flags),
            None => Err("fleet-run command needs a network name".into()),
        },
        Some("trace-summary") => match positional.get(1) {
            Some(file) => cmd_trace_summary(file),
            None => Err("trace-summary command needs a trace file (written by --trace-out)".into()),
        },
        Some("gpus") => {
            cmd_gpus();
            Ok(())
        }
        Some(unknown) => Err(format!("unknown command `{unknown}`\n{}", usage())),
        None => Err(format!("no command given\n{}", usage())),
    }
}

/// Exits quietly when stdout closes mid-print (`delta ... | head`),
/// instead of Rust's default panic-with-backtrace on EPIPE.
fn exit_quietly_on_closed_stdout() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_epipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if is_epipe {
            // 128 + SIGPIPE, the conventional exit status of a tool
            // killed by a closed pipe.
            std::process::exit(141);
        }
        default_hook(info);
    }));
}

/// Drains every recorded span (all threads, including finished ones)
/// and writes the Chrome trace-event document to `path`.
fn write_trace(path: &std::path::Path) -> Result<(), String> {
    let events = delta_obs::trace::drain();
    let json = delta_obs::trace::chrome_trace_json(&events);
    std::fs::write(path, json).map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", events.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flags) = parse_flags(&args);
    if flags.contains_key("help")
        || flags.contains_key("h")
        || positional.first().map(String::as_str) == Some("help")
    {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    // `--trace-out FILE` arms span recording process-wide before the
    // command dispatches; the trace is written even when the command
    // fails, so a partial trace is available for debugging.
    let trace_out = flags.get("trace-out").map(PathBuf::from);
    if trace_out.is_some() {
        delta_obs::trace::set_enabled(true);
    }
    let outcome = run(&positional, &flags);
    let trace_outcome = match trace_out {
        Some(path) => write_trace(&path),
        None => Ok(()),
    };
    match outcome.and(trace_outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_sim::TopologyKind;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn serve_config_parses_daemon_flags() {
        let c = serve_config_from(&flags(&[
            ("addr", "0.0.0.0:9000"),
            ("threads", "8"),
            ("cache-file", "warm.json"),
        ]))
        .unwrap();
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.threads, 8);
        assert_eq!(c.cache_file, Some(PathBuf::from("warm.json")));
        // Defaults apply when unset.
        let d = serve_config_from(&flags(&[])).unwrap();
        assert_eq!(d.addr, "127.0.0.1:7878");
        assert_eq!(d.threads, 4);
        assert_eq!(d.cache_file, None);
        // Zero/garbage worker counts are rejected.
        assert!(serve_config_from(&flags(&[("threads", "0")])).is_err());
        assert!(serve_config_from(&flags(&[("threads", "many")])).is_err());
    }

    #[test]
    fn serve_rejects_per_query_flags() {
        for f in [
            "shards",
            "gpus",
            "interconnect",
            "topology",
            "bucket-mb",
            "overlap",
            "batch",
        ] {
            let err = cmd_serve(&flags(&[(f, "4")])).unwrap_err();
            assert!(err.contains("per-query"), "--{f}: {err}");
            assert!(err.contains("PROTOCOL.md"), "--{f}: {err}");
        }
    }

    #[test]
    fn parse_flags_splits_positional_and_named() {
        let args: Vec<String> = ["network", "vgg16", "--batch", "64", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, f) = parse_flags(&args);
        assert_eq!(pos, vec!["network", "vgg16"]);
        assert_eq!(f.get("batch").map(String::as_str), Some("64"));
        assert_eq!(f.get("json").map(String::as_str), Some("true"));
    }

    #[test]
    fn parse_flags_handles_adjacent_switches() {
        // A flag followed by another flag is a boolean switch; a flag
        // followed by a bare token consumes it as its value.
        let args: Vec<String> = ["x", "--json", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, f) = parse_flags(&args);
        assert_eq!(pos, vec!["x"]);
        assert!(f.contains_key("json") && f.contains_key("full"));
        let args: Vec<String> = ["--gpu", "v100"].iter().map(|s| s.to_string()).collect();
        let (_, f) = parse_flags(&args);
        assert_eq!(f.get("gpu").map(String::as_str), Some("v100"));
    }

    #[test]
    fn layer_from_requires_core_dims() {
        assert!(layer_from(&flags(&[("ci", "3")])).is_err());
        let l = layer_from(&flags(&[("ci", "3"), ("hw", "32"), ("co", "8")])).unwrap();
        assert_eq!(l.batch(), 256, "default batch");
        assert_eq!(l.filter_height(), 3, "default filter");
        assert!(layer_from(&flags(&[("ci", "x"), ("hw", "32"), ("co", "8")])).is_err());
    }

    #[test]
    fn gpu_selection_defaults_to_titan_xp_and_rejects_unknown() {
        assert_eq!(gpu_from(&flags(&[])).unwrap().name(), "TITAN Xp");
        assert_eq!(gpu_from(&flags(&[("gpu", "v100")])).unwrap().name(), "V100");
        assert_eq!(gpu_from(&flags(&[("gpu", "p100")])).unwrap().name(), "P100");
        assert_eq!(
            gpu_from(&flags(&[("gpu", "titanxp")])).unwrap().name(),
            "TITAN Xp"
        );
        assert_eq!(gpu_from(&flags(&[("gpu", "a100")])).unwrap().name(), "A100");
        assert_eq!(
            gpu_from(&flags(&[("gpu", "v100tc")])).unwrap().name(),
            "V100-TC"
        );
        let err = gpu_from(&flags(&[("gpu", "h100")])).unwrap_err();
        assert!(err.contains("h100") && err.contains("titanxp"), "{err}");
    }

    #[test]
    fn gpt2s_is_addressable_from_the_cli() {
        let n = find_network("gpt2s", 4).unwrap();
        assert_eq!(n.name(), "GPT2-S");
        assert_eq!(n.len(), 60);
        // The unknown-network hint names it.
        let err = find_network("bert", 4).unwrap_err();
        assert!(err.contains("gpt2s"), "{err}");
        // End to end through the model backend (the sim path is covered
        // by the golden and identity integration tests).
        cmd_network("gpt2s", &flags(&[("batch", "2")])).unwrap();
    }

    #[test]
    fn backend_selection_defaults_to_model_and_rejects_unknown() {
        assert_eq!(backend_from(&flags(&[])).unwrap(), BackendChoice::Model);
        assert_eq!(
            backend_from(&flags(&[("backend", "sim")])).unwrap(),
            BackendChoice::Sim
        );
        let err = backend_from(&flags(&[("backend", "fpga")])).unwrap_err();
        assert!(err.contains("fpga") && err.contains("model"), "{err}");
    }

    #[test]
    fn batch_defaults_depend_on_backend() {
        assert_eq!(
            batch_from(&flags(&[]), BackendChoice::Model, 256).unwrap(),
            256
        );
        assert_eq!(
            batch_from(&flags(&[]), BackendChoice::Sim, 256).unwrap(),
            16
        );
        assert_eq!(
            batch_from(&flags(&[("batch", "32")]), BackendChoice::Sim, 256).unwrap(),
            32
        );
        assert!(batch_from(&flags(&[("batch", "x")]), BackendChoice::Model, 256).is_err());
    }

    #[test]
    fn unknown_command_and_missing_command_error_with_usage() {
        let err = run(&["frobnicate".to_string()], &flags(&[])).unwrap_err();
        assert!(err.contains("unknown command `frobnicate`"));
        assert!(err.contains("usage: delta"));
        let err = run(&[], &flags(&[])).unwrap_err();
        assert!(err.contains("no command given"));
    }

    #[test]
    fn commands_run_end_to_end() {
        cmd_layer(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("batch", "2"),
        ]))
        .unwrap();
        cmd_gpus();
        assert!(cmd_network("nope", &flags(&[])).is_err());
        // Unknown GPU propagates out of network too.
        assert!(cmd_network("alexnet", &flags(&[("gpu", "tpu")])).is_err());
    }

    #[test]
    fn network_runs_through_both_backends() {
        // Model at paper batch; sim at a tiny batch to stay fast.
        cmd_network("alexnet", &flags(&[("batch", "16")])).unwrap();
        cmd_network("alexnet", &flags(&[("backend", "sim"), ("batch", "2")])).unwrap();
    }

    /// The parallelism the sim flags `pairs` describe, with `gpus` as
    /// [`multi_gpu_from`] would return it.
    fn par(pairs: &[(&str, &str)], gpus: Option<u32>) -> Result<Parallelism, String> {
        parallelism_from(&flags(pairs), &GpuSpec::titan_xp(), gpus)
    }

    /// The fabric the flags `pairs` put into a device-fleet query.
    fn fabric(pairs: &[(&str, &str)]) -> Result<(InterconnectKind, Option<TopologyKind>), String> {
        match par(pairs, Some(1))? {
            Parallelism::Multi {
                interconnect,
                topology,
                ..
            } => Ok((interconnect, topology)),
            other => panic!("not a device fleet: {other:?}"),
        }
    }

    #[test]
    fn shards_flag_parses_and_validates() {
        assert_eq!(par(&[], None).unwrap(), Parallelism::Single);
        assert_eq!(
            par(&[("shards", "4")], None).unwrap(),
            Parallelism::Sharded { workers: 4 }
        );
        // --exhaustive and --shards compose: one picks the sampling, the
        // other the query's parallelism.
        let f = [("shards", "2"), ("exhaustive", "true")];
        assert_eq!(par(&f, None).unwrap(), Parallelism::Sharded { workers: 2 });
        assert_eq!(sim_config_from(&flags(&f)), SimConfig::exhaustive());
        for bad in ["0", "-1", "x"] {
            let err = par(&[("shards", bad)], None).unwrap_err();
            assert!(err.contains("--shards"), "{err}");
        }
    }

    #[test]
    fn shards_rejected_on_model_backend() {
        let err = cmd_network("alexnet", &flags(&[("shards", "4")])).unwrap_err();
        assert!(err.contains("--shards requires --backend sim"), "{err}");
        let err = cmd_train("alexnet", &flags(&[("shards", "2")])).unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
        // `layer` is always model-backed: same rejection, not a silent
        // drop.
        let err = cmd_layer(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("shards", "4"),
        ]))
        .unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
        // On the sim backend it flows through to the query.
        cmd_network(
            "alexnet",
            &flags(&[("backend", "sim"), ("batch", "2"), ("shards", "2")]),
        )
        .unwrap();
    }

    #[test]
    fn gpus_flag_parses_and_validates() {
        assert_eq!(
            multi_gpu_from(&flags(&[]), BackendChoice::Sim).unwrap(),
            None
        );
        assert_eq!(
            multi_gpu_from(&flags(&[("gpus", "4")]), BackendChoice::Sim).unwrap(),
            Some(4)
        );
        for bad in ["0", "-2", "x"] {
            let err = multi_gpu_from(&flags(&[("gpus", bad)]), BackendChoice::Sim).unwrap_err();
            assert!(err.contains("--gpus"), "{err}");
        }
        // Model backend rejects both multi-GPU flags.
        for f in [("gpus", "2"), ("interconnect", "nvlink")] {
            let err = multi_gpu_from(&flags(&[f]), BackendChoice::Model).unwrap_err();
            assert!(err.contains("--backend sim"), "{err}");
        }
        // --interconnect without --gpus is a pairing error.
        let err =
            multi_gpu_from(&flags(&[("interconnect", "pcie")]), BackendChoice::Sim).unwrap_err();
        assert!(err.contains("--gpus"), "{err}");
        // --shards with --gpus: devices already own the columns, so the
        // worker count is dead weight — rejected, not silently dropped.
        let err = multi_gpu_from(
            &flags(&[("gpus", "4"), ("shards", "2")]),
            BackendChoice::Sim,
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = cmd_train(
            "alexnet",
            &flags(&[("backend", "sim"), ("gpus", "2"), ("shards", "2")]),
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn timeline_rejects_shards() {
        // The timeline query schedules a device fleet; a worker count
        // plays no role in it and is rejected on either backend.
        for backend in ["sim", "model"] {
            let err = cmd_timeline("alexnet", &flags(&[("backend", backend), ("shards", "2")]))
                .unwrap_err();
            assert!(
                err.contains("--shards") && err.contains("timeline"),
                "{err}"
            );
        }
    }

    #[test]
    fn scaling_rejects_shards() {
        // The design-space sweep replays sequentially on one device, so
        // a worker count is refused on either backend, not ignored.
        for backend in ["sim", "model"] {
            let err = cmd_scaling(&flags(&[("backend", backend), ("shards", "4")])).unwrap_err();
            assert!(err.contains("--shards") && err.contains("scaling"), "{err}");
        }
    }

    #[test]
    fn interconnect_flag_flows_into_the_parallelism() {
        let gpu = GpuSpec::titan_xp();
        // Without --gpus (timeline's one-device fleet) the library
        // default (ideal) stands.
        assert_eq!(fabric(&[]).unwrap().0, InterconnectKind::Ideal);
        // With --gpus but no explicit choice, realistic NVLink pricing.
        assert_eq!(
            fabric(&[("gpus", "4")]).unwrap().0,
            InterconnectKind::NvLink
        );
        for (name, kind) in [
            ("ideal", InterconnectKind::Ideal),
            ("nvlink", InterconnectKind::NvLink),
            ("pcie", InterconnectKind::Pcie),
        ] {
            assert_eq!(
                par(&[("gpus", "2"), ("interconnect", name)], Some(2)).unwrap(),
                Parallelism::Multi {
                    devices: vec![gpu.clone(); 2],
                    interconnect: kind,
                    topology: None,
                }
            );
        }
        let err = fabric(&[("interconnect", "ethernet")]).unwrap_err();
        assert!(err.contains("ethernet") && err.contains("nvlink"), "{err}");
    }

    #[test]
    fn multi_gpu_commands_run_end_to_end() {
        // network and train accept the flags on the sim backend…
        cmd_network(
            "alexnet",
            &flags(&[
                ("backend", "sim"),
                ("batch", "2"),
                ("gpus", "2"),
                ("interconnect", "ideal"),
            ]),
        )
        .unwrap();
        // …and reject them on the model backend and other commands.
        let err = cmd_network("alexnet", &flags(&[("gpus", "2")])).unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
        let err = cmd_scaling(&flags(&[("backend", "sim"), ("gpus", "2")])).unwrap_err();
        assert!(err.contains("scaling"), "{err}");
        let err = cmd_sim(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("gpus", "2"),
        ]))
        .unwrap_err();
        assert!(err.contains("sim"), "{err}");
        let err = cmd_layer(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("interconnect", "pcie"),
        ]))
        .unwrap_err();
        assert!(err.contains("layer"), "{err}");
    }

    #[test]
    fn topology_bucket_and_overlap_flags_parse_and_validate() {
        let step =
            |pairs: &[(&str, &str)]| step_query_from(&flags(pairs), &[], Parallelism::Single);
        // Defaults: legacy scalar pricing, 25 MiB buckets, overlap off.
        assert_eq!(fabric(&[]).unwrap().1, None);
        let q = step(&[]).unwrap();
        assert_eq!(q.bucket_mb, 25);
        assert!(!q.overlap);
        for (name, kind) in [
            ("ring", TopologyKind::Ring),
            ("switch", TopologyKind::Switch),
            ("mesh", TopologyKind::Mesh),
            ("hierarchical", TopologyKind::Hierarchical),
        ] {
            assert_eq!(
                fabric(&[("gpus", "4"), ("topology", name)]).unwrap().1,
                Some(kind)
            );
        }
        let q = step(&[("bucket-mb", "4"), ("overlap", "on")]).unwrap();
        assert_eq!(q.bucket_mb, 4);
        assert!(q.overlap);
        assert!(!step(&[("overlap", "off")]).unwrap().overlap);
        // Malformed values are rejected, not silently dropped.
        let err = fabric(&[("topology", "torus")]).unwrap_err();
        assert!(err.contains("--topology"), "{err}");
        for (k, v) in [("bucket-mb", "0"), ("bucket-mb", "x"), ("overlap", "maybe")] {
            let err = step(&[(k, v)]).unwrap_err();
            assert!(err.contains(&format!("--{k}")), "{err}");
        }
        // --topology needs --gpus and the sim backend.
        let err = multi_gpu_from(&flags(&[("topology", "ring")]), BackendChoice::Sim).unwrap_err();
        assert!(err.contains("--gpus"), "{err}");
        let err =
            multi_gpu_from(&flags(&[("topology", "ring")]), BackendChoice::Model).unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
    }

    #[test]
    fn sched_flags_rejected_where_meaningless() {
        // network has no scheduled step.
        let err =
            cmd_network("alexnet", &flags(&[("backend", "sim"), ("overlap", "on")])).unwrap_err();
        assert!(
            err.contains("--overlap") && err.contains("timeline"),
            "{err}"
        );
        let err = cmd_scaling(&flags(&[("backend", "sim"), ("bucket-mb", "8")])).unwrap_err();
        assert!(err.contains("--bucket-mb"), "{err}");
        let err = cmd_layer(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("overlap", "on"),
        ]))
        .unwrap_err();
        assert!(err.contains("--overlap"), "{err}");
        // The model backend has no collective scheduler configuration.
        let err = cmd_train("alexnet", &flags(&[("overlap", "on")])).unwrap_err();
        assert!(err.contains("--overlap"), "{err}");
        // --topology on a non-multi-GPU command rides the multi-GPU
        // rejection.
        let err = cmd_sim(&flags(&[
            ("ci", "16"),
            ("hw", "14"),
            ("co", "32"),
            ("topology", "ring"),
        ]))
        .unwrap_err();
        assert!(err.contains("--topology"), "{err}");
    }

    #[test]
    fn train_and_timeline_run_the_scheduler_end_to_end() {
        // train with overlap on appends the scheduled step.
        cmd_train(
            "alexnet",
            &flags(&[
                ("backend", "sim"),
                ("batch", "2"),
                ("gpus", "2"),
                ("topology", "ring"),
                ("bucket-mb", "1"),
                ("overlap", "on"),
            ]),
        )
        .unwrap();
        // timeline works on the sim backend with and without --gpus...
        cmd_timeline(
            "alexnet",
            &flags(&[
                ("backend", "sim"),
                ("batch", "2"),
                ("gpus", "2"),
                ("interconnect", "pcie"),
                ("overlap", "on"),
                ("json", "true"),
            ]),
        )
        .unwrap();
        cmd_timeline("alexnet", &flags(&[("backend", "sim"), ("batch", "2")])).unwrap();
        // ...and on the model backend (serial fallback), where the
        // scheduler flags are rejected.
        cmd_timeline("alexnet", &flags(&[("batch", "4")])).unwrap();
        let err = cmd_timeline("alexnet", &flags(&[("overlap", "on")])).unwrap_err();
        assert!(err.contains("--overlap"), "{err}");
        let err = cmd_timeline("alexnet", &flags(&[("gpus", "2")])).unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
        // Overlap with one device exchanges nothing: --overlap on needs
        // an explicit --gpus on both scheduled commands.
        for cmd in [cmd_train, cmd_timeline] {
            let err = cmd("alexnet", &flags(&[("backend", "sim"), ("overlap", "on")])).unwrap_err();
            assert!(err.contains("--overlap on requires --gpus"), "{err}");
        }
        cmd_train(
            "alexnet",
            &flags(&[("backend", "sim"), ("batch", "2"), ("overlap", "off")]),
        )
        .unwrap();
    }

    #[test]
    fn cache_file_round_trips_across_engine_processes() {
        let dir = std::env::temp_dir().join("delta_cli_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        let _ = std::fs::remove_file(&path);
        let f = flags(&[("batch", "16"), ("cache-file", path.to_str().unwrap())]);
        // First run computes and saves; second run loads and reuses.
        cmd_network("alexnet", &f).unwrap();
        assert!(path.exists());
        let first = std::fs::read_to_string(&path).unwrap();
        cmd_network("alexnet", &f).unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
        // A mismatched engine (different GPU) refuses the stale file.
        let err = cmd_network(
            "alexnet",
            &flags(&[
                ("batch", "16"),
                ("gpu", "v100"),
                ("cache-file", path.to_str().unwrap()),
            ]),
        )
        .unwrap_err();
        assert!(err.contains("cache-file"), "{err}");
    }

    #[test]
    fn train_cache_file_round_trips_with_overlap() {
        let dir = std::env::temp_dir().join("delta_cli_step_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.json");
        let _ = std::fs::remove_file(&path);
        let f = flags(&[
            ("backend", "sim"),
            ("batch", "2"),
            ("gpus", "2"),
            ("bucket-mb", "1"),
            ("overlap", "on"),
            ("cache-file", path.to_str().unwrap()),
        ]);
        // The cold run simulates the step and saves both the per-layer
        // estimates and the step entry.
        cmd_train("alexnet", &f).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(
            first.contains("\"step_entries\""),
            "v3 file carries the step"
        );
        // The warm run answers the whole step from the file (zero
        // replays — asserted at the engine level in the integration
        // suite) and re-saves it byte-identically.
        cmd_train("alexnet", &f).unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
    }

    #[test]
    fn scaled_simulator_honors_tile_growth() {
        let opts = DesignOption::paper_options();
        let wide = opts
            .iter()
            .find(|o| o.cta_tile_hw == 256)
            .expect("7-9 use 256");
        let sim = scaled_simulator(wide, &GpuSpec::titan_xp(), SimConfig::default()).unwrap();
        assert_eq!(sim.config().tile_scale, Some(2));
        let narrow = &opts[0];
        let sim = scaled_simulator(narrow, &GpuSpec::titan_xp(), SimConfig::default()).unwrap();
        assert_eq!(sim.config().tile_scale, None);
    }
}
