//! One module per paper artifact, plus the reproduction's own scaling
//! and ablation studies. [`ALL`] is the one registry: the `experiment`
//! binary runs any entry by id (`experiment fig11`) or every entry in
//! order (`experiment all`).

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

/// An experiment's entry point: regenerates its tables under a context.
pub type Experiment = fn(&Ctx) -> Result<Vec<Table>, delta_model::Error>;

/// Every experiment by id, in the order `experiment all` runs them: the
/// paper's table and figures first, then the reproduction's studies.
pub const ALL: [(&str, Experiment); 19] = [
    ("tab1", tab1::run),
    ("fig04", fig04::run),
    ("fig06", fig06::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("ablation", ablation::run),
    ("shard_scaling", shard_scaling::run),
    ("gpu_scaling", gpu_scaling::run),
    ("overlap_scaling", overlap_scaling::run),
    ("fleet_scaling", fleet_scaling::run),
    ("gemm_scaling", gemm_scaling::run),
];

/// Prints every table and writes the CSVs (`<id>_<n>.csv`) when the
/// context has an output directory.
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

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::HashSet;

    #[test]
    fn registry_lists_every_module_once() {
        let ids: HashSet<&str> = ALL.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), ALL.len(), "duplicate id in ALL");
        let modules: HashSet<&str> = include_str!("mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        assert_eq!(ids, modules, "ALL and the `pub mod` list disagree");
    }
}
