//! Regenerates one experiment's tables, or every experiment's in order:
//!
//! ```text
//! experiment <id>|all [--full | --smoke] [--batch N] [--no-csv] [--trace-out F]
//! ```
//!
//! `<id>` is an entry of `delta_bench::experiments::ALL` (`fig11`,
//! `shard_scaling`, …). Exits 2 on an unknown id or flag and 1 if any
//! selected experiment failed; `all` still runs the rest after a
//! failure so one broken artifact does not hide the others.
use delta_bench::experiments::{emit, ALL};
use delta_bench::Ctx;

fn usage_exit(msg: &str) -> ! {
    let ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    eprintln!("experiment: {msg}\nusage: experiment <id>|all [--full | --smoke] [--batch N] [--no-csv] [--trace-out F]\nids: {}", ids.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_default();
    let selected = match id.as_str() {
        "all" => &ALL[..],
        _ => match ALL.iter().position(|(name, _)| *name == id) {
            Some(i) => &ALL[i..=i],
            None => usage_exit(&format!("unknown experiment `{id}`")),
        },
    };
    let ctx = Ctx::from_args(args).unwrap_or_else(|e| usage_exit(&e));
    if ctx.trace_out.is_some() {
        delta_obs::trace::set_enabled(true);
    }
    let mut failed = Vec::new();
    for (id, run) in selected {
        if selected.len() > 1 {
            eprintln!(">>> {id}");
        }
        match run(&ctx) {
            Ok(tables) => emit(&ctx, id, &tables),
            Err(e) => {
                eprintln!("{id} failed: {e}");
                failed.push(*id);
            }
        }
    }
    if let Some(path) = &ctx.trace_out {
        let events = delta_obs::trace::drain();
        match std::fs::write(path, delta_obs::trace::chrome_trace_json(&events)) {
            Ok(()) => eprintln!("wrote {} spans to {}", events.len(), path.display()),
            Err(e) => {
                eprintln!("experiment: cannot write trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("experiment: {} failed: {}", failed.len(), failed.join(" "));
        std::process::exit(1);
    }
}
