//! Shared experiment configuration.

use delta_sim::SimConfig;
use std::path::PathBuf;

/// Experiment context: simulation scale and output location.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctx {
    /// Mini-batch size for *both* the model and the simulator in
    /// model-vs-measured comparisons (the paper uses 256; the default
    /// here is 16 so a single core finishes the suite quickly). The
    /// harness compares model and measurement as normalized ratios,
    /// which are batch-stable: `reduced_batch_preserves_normalized_ratio`
    /// in `tests/integration_model_vs_sim.rs` checks it.
    pub sim_batch: u32,
    /// Simulator sampling controls.
    pub sim_config: SimConfig,
    /// Directory for CSV output (`results/` by default); `None` disables
    /// CSV emission.
    pub out_dir: Option<PathBuf>,
    /// When set, the `experiment` binary arms span recording before the
    /// experiments and writes the Chrome trace-event document here after
    /// them (the `--trace-out F` flag).
    pub trace_out: Option<PathBuf>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            sim_batch: 16,
            sim_config: SimConfig {
                max_batches_per_column: Some(3),
                max_loops_per_batch: Some(24),
                ..SimConfig::default()
            },
            out_dir: Some(PathBuf::from("results")),
            trace_out: None,
        }
    }
}

impl Ctx {
    /// A configuration for unit/integration tests: tiny batch, aggressive
    /// sampling, no CSV output.
    pub fn smoke() -> Ctx {
        Ctx {
            sim_batch: 4,
            sim_config: SimConfig {
                max_batches_per_column: Some(1),
                max_loops_per_batch: Some(8),
                ..SimConfig::default()
            },
            out_dir: None,
            trace_out: None,
        }
    }

    /// The paper's configuration: mini-batch 256, exhaustive simulation.
    /// Slow — hours on one core; intended for spot checks of single
    /// layers.
    pub fn full() -> Ctx {
        Ctx {
            sim_batch: 256,
            sim_config: SimConfig::exhaustive(),
            out_dir: Some(PathBuf::from("results")),
            trace_out: None,
        }
    }

    /// Parses `--batch N`, `--full`, `--smoke`, `--no-csv`, and
    /// `--trace-out F` from command-line arguments (the `experiment`
    /// binary's flags). The preset (`--full` or `--smoke`) applies
    /// first and the other flags over it, wherever each one stands.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing value, a `--batch` that is not a
    /// positive integer, or two presets: an experiment run under a
    /// silently dropped flag would report numbers for a configuration
    /// nobody asked for.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Ctx, String> {
        let mut preset: Option<(String, Ctx)> = None;
        let (mut batch, mut no_csv, mut trace_out) = (None, false, None);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--full" | "--smoke" => {
                    if let Some((first, _)) = &preset {
                        return Err(format!("`{first}` and `{flag}` are both presets; pass one"));
                    }
                    let ctx = if flag == "--full" {
                        Ctx::full()
                    } else {
                        Ctx::smoke()
                    };
                    preset = Some((flag, ctx));
                }
                "--no-csv" => no_csv = true,
                "--batch" => {
                    let v = value()?;
                    batch = match v.parse() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => return Err(format!("--batch expects a count >= 1, got `{v}`")),
                    };
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let mut ctx = preset.map_or_else(Ctx::default, |(_, ctx)| ctx);
        if let Some(n) = batch {
            ctx.sim_batch = n;
        }
        if no_csv {
            ctx.out_dir = None;
        }
        if trace_out.is_some() {
            ctx.trace_out = trace_out;
        }
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sampled_and_small() {
        let c = Ctx::default();
        assert_eq!(c.sim_batch, 16);
        assert!(c.sim_config.max_batches_per_column.is_some());
    }

    #[test]
    fn full_matches_paper_batch() {
        let c = Ctx::full();
        assert_eq!(c.sim_batch, 256);
        assert_eq!(c.sim_config.max_batches_per_column, None);
    }

    /// A preset sets the base and every other flag overrides it, before
    /// or after it alike.
    #[test]
    fn flags_override_the_preset_in_any_order() {
        let parse = |args: &str| Ctx::from_args(args.split_whitespace().map(String::from)).unwrap();
        assert_eq!(parse("--batch 8 --smoke"), parse("--smoke --batch 8"));
        let after = parse("--smoke --batch 8 --no-csv --trace-out t.json");
        assert_eq!(
            after,
            parse("--batch 8 --no-csv --trace-out t.json --smoke")
        );
        assert_eq!(after.sim_batch, 8);
        assert_eq!(after.sim_config, Ctx::smoke().sim_config);
        assert_eq!(after.out_dir, None);
        assert_eq!(after.trace_out, Some(PathBuf::from("t.json")));
        let full = parse("--batch 8 --full");
        assert_eq!(
            full,
            Ctx {
                sim_batch: 8,
                ..Ctx::full()
            }
        );
    }

    #[test]
    fn arg_parsing() {
        let parse = |args: &[&str]| Ctx::from_args(args.iter().map(|s| s.to_string()));
        let c = parse(&["--batch", "8", "--no-csv"]).unwrap();
        assert_eq!(c.sim_batch, 8);
        assert!(c.out_dir.is_none());
        assert_eq!(parse(&["--full"]).unwrap().sim_batch, 256);
        assert_eq!(parse(&["--smoke"]).unwrap().sim_batch, 4);
        let c = parse(&["--trace-out", "t.json"]).unwrap();
        assert_eq!(c.trace_out, Some(PathBuf::from("t.json")));
        // Fails closed: a typo or a malformed value is an error, never
        // a run at the default configuration.
        for bad in [
            &["--bacth", "8"][..],
            &["--smoke", "--full"],
            &["--smoke", "--smoke"],
            &["--batch", "x"],
            &["--batch", "0"],
            &["--batch"],
            &["--trace-out"],
            &["fig11"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
