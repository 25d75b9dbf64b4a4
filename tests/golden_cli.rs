//! Golden byte-identity tests for the CLI.
//!
//! The files under `tests/golden/cli_*` were captured from the release
//! binary **before** the transformer workload axis landed. The
//! `LayerKind` field is designed to be invisible for conv workloads —
//! hand-written serialization omits the `kind` key on conv layers, the
//! fingerprints of conv queries are unchanged, and the simulator's conv
//! replay always runs the FFMA datapath — so every pre-existing CNN
//! command must still produce byte-identical output. A diff here means
//! the compatibility contract broke, not that the goldens need
//! refreshing.
//!
//! The `sim --shards`, `timeline --gpus` and `network --gpus
//! --interconnect --topology` goldens were captured while those flags
//! still travelled through `SimConfig`. They pin that parsing the flags
//! straight into the query changed no byte. VGG16 at batch 2 has four
//! layers with non-zero `link_bytes`, so the last two exercise link
//! pricing.
//!
//! The pinned multi-GPU golden doubles as the tracing check: span
//! recording must never change a byte of output.

use serde::Value;
use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_delta"))
        .args(args)
        .output()
        .expect("spawn delta");
    assert!(
        out.status.success(),
        "delta {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn golden(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
    std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("missing golden file {name}: {e}"))
}

#[test]
fn network_alexnet_sim_bytes_unchanged() {
    let got = run(&[
        "network",
        "alexnet",
        "--backend",
        "sim",
        "--batch",
        "2",
        "--json",
    ]);
    assert_eq!(got, golden("cli_network_alexnet_sim_b2.json"));
}

#[test]
fn network_googlenet_model_bytes_unchanged() {
    let got = run(&["network", "googlenet", "--batch", "256", "--json"]);
    assert_eq!(got, golden("cli_network_googlenet_model_b256.json"));
}

#[test]
fn network_vgg16_sharded_sim_bytes_unchanged() {
    let got = run(&[
        "network",
        "vgg16",
        "--backend",
        "sim",
        "--batch",
        "2",
        "--shards",
        "4",
        "--json",
    ]);
    assert_eq!(got, golden("cli_network_vgg16_sim_shards4_b2.json"));
}

#[test]
fn train_alexnet_multi_gpu_overlap_bytes_unchanged() {
    let got = run(&[
        "train",
        "alexnet",
        "--backend",
        "sim",
        "--batch",
        "2",
        "--gpus",
        "2",
        "--topology",
        "ring",
        "--overlap",
        "on",
    ]);
    assert_eq!(
        got,
        golden("cli_train_alexnet_sim_gpus2_ring_overlap_b2.txt")
    );
}

#[test]
fn sim_sharded_layer_bytes_unchanged() {
    let got = run(&[
        "sim", "--ci", "64", "--hw", "14", "--co", "512", "--shards", "2",
    ]);
    assert_eq!(got, golden("cli_sim_ci64_hw14_co512_shards2.txt"));
}

#[test]
fn timeline_vgg16_switch_overlap_bytes_unchanged() {
    let got = run(&[
        "timeline",
        "vgg16",
        "--backend",
        "sim",
        "--batch",
        "2",
        "--gpus",
        "4",
        "--topology",
        "switch",
        "--bucket-mb",
        "4",
        "--overlap",
        "on",
        "--json",
    ]);
    assert_eq!(
        got,
        golden("cli_timeline_vgg16_sim_gpus4_switch_overlap_b2.json")
    );
}

#[test]
fn network_vgg16_pcie_hierarchical_bytes_unchanged() {
    let got = run(&[
        "network",
        "vgg16",
        "--backend",
        "sim",
        "--batch",
        "2",
        "--gpus",
        "4",
        "--interconnect",
        "pcie",
        "--topology",
        "hierarchical",
        "--json",
    ]);
    assert_eq!(
        got,
        golden("cli_network_vgg16_sim_gpus4_pcie_hierarchical_b2.json")
    );
}

#[test]
fn traced_multi_gpu_network_bytes_unchanged() {
    // A subprocess, so the process-global tracing flag never reaches
    // the other tests.
    let trace =
        std::env::temp_dir().join(format!("delta_golden_trace_{}.json", std::process::id()));
    let got = run(&[
        "network",
        "alexnet",
        "--backend",
        "sim",
        "--gpus",
        "4",
        "--batch",
        "2",
        "--json",
        "--trace-out",
        trace.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(got, golden("net_alexnet_sim_gpus4_nvlink_b2.json"));
    let doc = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let doc: Value = serde_json::from_str(&doc).expect("trace is JSON");
    assert!(
        matches!(doc.get("traceEvents"), Some(Value::Seq(events)) if !events.is_empty()),
        "no trace events"
    );
}
