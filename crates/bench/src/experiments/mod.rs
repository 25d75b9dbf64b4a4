//! One module per paper artifact. See DESIGN.md §4 for the experiment
//! index (workload, parameters, modules, expected shape).

pub mod ablation;
pub mod fig04;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fleet_scaling;
pub mod gemm_scaling;
pub mod gpu_scaling;
pub mod overlap_scaling;
pub mod shard_scaling;
pub mod tab1;

use crate::ctx::Ctx;
use crate::table::Table;

/// Prints every table and writes the CSVs (`<id>_<n>.csv`) when the
/// context has an output directory. Used by the `bin/` wrappers.
pub fn emit(ctx: &Ctx, id: &str, tables: &[Table]) {
    for (i, t) in tables.iter().enumerate() {
        println!("{t}");
        if let Some(dir) = &ctx.out_dir {
            let file = if tables.len() == 1 {
                format!("{id}.csv")
            } else {
                format!("{id}_{i}.csv")
            };
            if let Err(e) = t.write_csv(dir, &file) {
                eprintln!("warning: could not write {file}: {e}");
            }
        }
    }
}

/// Runs one experiment end-to-end from a binary: parse args, run, emit.
pub fn run_binary(id: &str, run: fn(&Ctx) -> Result<Vec<Table>, delta_model::Error>) {
    let ctx = Ctx::from_args(std::env::args().skip(1));
    if ctx.trace_out.is_some() {
        delta_obs::trace::set_enabled(true);
    }
    let outcome = run(&ctx);
    if let Some(path) = &ctx.trace_out {
        let events = delta_obs::trace::drain();
        match std::fs::write(path, delta_obs::trace::chrome_trace_json(&events)) {
            Ok(()) => eprintln!("wrote {} spans to {}", events.len(), path.display()),
            Err(e) => {
                eprintln!("{id}: cannot write trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    match outcome {
        Ok(tables) => emit(&ctx, id, &tables),
        Err(e) => {
            eprintln!("{id} failed: {e}");
            std::process::exit(1);
        }
    }
}
