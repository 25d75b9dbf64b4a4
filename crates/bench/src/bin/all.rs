//! Runs every experiment in DESIGN.md's index, in order.
use delta_bench::experiments as ex;
use delta_bench::Ctx;

type Experiment = fn(&Ctx) -> Result<Vec<delta_bench::Table>, delta_model::Error>;

fn main() {
    let ctx = Ctx::from_args(std::env::args().skip(1));
    let all: [(&str, Experiment); 17] = [
        ("tab1", ex::tab1::run),
        ("fig04", ex::fig04::run),
        ("fig06", ex::fig06::run),
        ("fig11", ex::fig11::run),
        ("fig12", ex::fig12::run),
        ("fig13", ex::fig13::run),
        ("fig14", ex::fig14::run),
        ("fig15", ex::fig15::run),
        ("fig16", ex::fig16::run),
        ("fig17", ex::fig17::run),
        ("fig18", ex::fig18::run),
        ("fig19", ex::fig19::run),
        ("fig20", ex::fig20::run),
        ("ablation", ex::ablation::run),
        ("shard_scaling", ex::shard_scaling::run),
        ("gpu_scaling", ex::gpu_scaling::run),
        ("overlap_scaling", ex::overlap_scaling::run),
    ];
    for (id, run) in all {
        eprintln!(">>> {id}");
        match run(&ctx) {
            Ok(tables) => ex::emit(&ctx, id, &tables),
            Err(e) => eprintln!("{id} failed: {e}"),
        }
    }
}
