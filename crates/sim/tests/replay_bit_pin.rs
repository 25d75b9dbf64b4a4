//! Bit pins of the replay's answers.
//!
//! Every field of the [`Measurement`] of ten layers is pinned as a
//! literal: the f64 fields by `to_bits()`, the rest as integers. The
//! layers are a ragged conv, AlexNet conv1, a dgrad and a wgrad pass, a
//! tensor-core GEMM on A100, a column taller than the batch sampling
//! keeps, and a V100 layer; then, each on TITAN Xp and on V100, a 7×7
//! pad-1 3×3 conv, a 1×1 stride-2 projection and a wgrad with K = 49.
//! Each runs under both sampling configurations and through both the
//! sequential and the sharded replay. A change to the replay's hot path
//! that claims to be exact must leave every literal as it is.
//!
//! On a mismatch the test prints the whole table in the literal syntax
//! below; a deliberate change of the simulated physics re-captures it from
//! that output.

use delta_model::{training, ConvLayer, GpuSpec};
use delta_sim::{Measurement, SimConfig, Simulator};

/// `label → [l1_bytes, l2_bytes, dram_read_bytes, dram_write_bytes,
/// l1_miss_rate, l2_miss_rate, cycles, sampled, simulated_ctas,
/// total_ctas, active_ctas]`, the f64s as `to_bits()`.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 11])] = &[
    ("ragged_conv/default/run", [0x4143678000000000, 0x4116cd8000000000, 0x40f95c0000000000, 0x4115c90000000000, 0x3fd3e8ced1af19b7, 0x3fd1cb3e40559a91, 0x40e24728126f9f8f, 0x0, 0x8, 0x8, 0x2]),
    ("ragged_conv/default/sharded2", [0x4143678000000000, 0x41177b0000000000, 0x4100660000000000, 0x4115c90000000000, 0x3fd4804b167f10c4, 0x3fd6592e3567f570, 0x40e24728126f9f8e, 0x0, 0x8, 0x8, 0x2]),
    ("ragged_conv/exhaustive/run", [0x4143678000000000, 0x4116cd8000000000, 0x40f95c0000000000, 0x4115c90000000000, 0x3fd3e8ced1af19b7, 0x3fd1cb3e40559a91, 0x40e24728126f9f8f, 0x0, 0x8, 0x8, 0x2]),
    ("ragged_conv/exhaustive/sharded2", [0x4143678000000000, 0x41177b0000000000, 0x4100660000000000, 0x4115c90000000000, 0x3fd4804b167f10c4, 0x3fd6592e3567f570, 0x40e24728126f9f8e, 0x0, 0x8, 0x8, 0x2]),
    ("alexnet_conv1/default/run", [0x418349f200000000, 0x4151aec200000000, 0x412ad41800000000, 0x413627e000000000, 0x3fc7d668223083f1, 0x3fc82bfa45e3f74e, 0x40ea27d2751846d1, 0x1, 0x18, 0x18, 0x2]),
    ("alexnet_conv1/default/sharded2", [0x418349f200000000, 0x4151aec200000000, 0x412ad41800000000, 0x413627e000000000, 0x3fc7d668223083f1, 0x3fc82bfa45e3f74e, 0x40ea27d2751846d1, 0x1, 0x18, 0x18, 0x2]),
    ("alexnet_conv1/exhaustive/run", [0x41831bb800000000, 0x41511da000000000, 0x4127200000000000, 0x413627e000000000, 0x3fc737601176cc8e, 0x3fc59e17cb3dd262, 0x40ea27d2751846d2, 0x0, 0x18, 0x18, 0x2]),
    ("alexnet_conv1/exhaustive/sharded2", [0x41831bb800000000, 0x41511da000000000, 0x4127200000000000, 0x413627e000000000, 0x3fc737601176cc8e, 0x3fc59e17cb3dd262, 0x40ea27d2751846d2, 0x0, 0x18, 0x18, 0x2]),
    ("dgrad/default/run", [0x414318b000000000, 0x410e2c8000000000, 0x40fd6c0000000000, 0x40e5200000000000, 0x3fcf55a3bd4de923, 0x3fdf927da06671b4, 0x40ece21bc8d72d33, 0x1, 0x3, 0x3, 0xb]),
    ("dgrad/default/sharded2", [0x414318b000000000, 0x410e2c8000000000, 0x40fd6c0000000000, 0x40e5200000000000, 0x3fcf55a3bd4de923, 0x3fdf927da06671b4, 0x40ece21bc8d72d33, 0x1, 0x3, 0x3, 0xb]),
    ("dgrad/exhaustive/run", [0x4143190000000000, 0x410e240000000000, 0x40fd580000000000, 0x40e5200000000000, 0x3fcedc324c36e7b7, 0x3fdf276a4d3cea1a, 0x40ece0b43f2b5f45, 0x0, 0x3, 0x3, 0xb]),
    ("dgrad/exhaustive/sharded2", [0x4143190000000000, 0x410e240000000000, 0x40fd580000000000, 0x40e5200000000000, 0x3fcedc324c36e7b7, 0x3fdf276a4d3cea1a, 0x40ece0b43f2b5f45, 0x0, 0x3, 0x3, 0xb]),
    ("wgrad/default/run", [0x414f4a0000000000, 0x4105b40000000000, 0x4100140000000000, 0x40eb000000000000, 0x3fc5c198ff9fc3da, 0x3fe7b4cdaf463866, 0x40d8b3ca456b1569, 0x0, 0x3, 0x3, 0x5]),
    ("wgrad/default/sharded2", [0x414f4a0000000000, 0x4105b40000000000, 0x4100140000000000, 0x40eb000000000000, 0x3fc5c198ff9fc3da, 0x3fe7b4cdaf463866, 0x40d8b3ca456b1569, 0x0, 0x3, 0x3, 0x5]),
    ("wgrad/exhaustive/run", [0x414f4a0000000000, 0x4105b40000000000, 0x4100140000000000, 0x40eb000000000000, 0x3fc5c198ff9fc3da, 0x3fe7b4cdaf463866, 0x40d8b3ca456b1569, 0x0, 0x3, 0x3, 0x5]),
    ("wgrad/exhaustive/sharded2", [0x414f4a0000000000, 0x4105b40000000000, 0x4100140000000000, 0x40eb000000000000, 0x3fc5c198ff9fc3da, 0x3fe7b4cdaf463866, 0x40d8b3ca456b1569, 0x0, 0x3, 0x3, 0x5]),
    ("gemm_a100/default/run", [0x4137bb0000000000, 0x410c200000000000, 0x4101940000000000, 0x41109a0000000000, 0x3fc2f684bda12f68, 0x3fe4000000000000, 0x40d594f1ea0b7f6c, 0x0, 0x6, 0x6, 0x2]),
    ("gemm_a100/default/sharded2", [0x4137bb0000000000, 0x4115180000000000, 0x410fa40000000000, 0x41109a0000000000, 0x3fcc71c71c71c71c, 0x3fe8000000000000, 0x40db17205707b617, 0x0, 0x6, 0x6, 0x2]),
    ("gemm_a100/exhaustive/run", [0x4137bb0000000000, 0x410c200000000000, 0x4101940000000000, 0x41109a0000000000, 0x3fc2f684bda12f68, 0x3fe4000000000000, 0x40d594f1ea0b7f6c, 0x0, 0x6, 0x6, 0x2]),
    ("gemm_a100/exhaustive/sharded2", [0x4137bb0000000000, 0x4115180000000000, 0x410fa40000000000, 0x41109a0000000000, 0x3fcc71c71c71c71c, 0x3fe8000000000000, 0x40db17205707b617, 0x0, 0x6, 0x6, 0x2]),
    ("tall_column/default/run", [0x4171940000000000, 0x4157e80000000000, 0x4157740000000000, 0x4177700000000000, 0x3fe0666666666666, 0x3fef3edaf3edaf3f, 0x40fb8497e9c8e1e2, 0x1, 0x258, 0x288, 0x5]),
    ("tall_column/default/sharded2", [0x4171940000000000, 0x4157e80000000000, 0x4157740000000000, 0x4177700000000000, 0x3fe0666666666666, 0x3fef3edaf3edaf3f, 0x40fb8497e9c8e1e2, 0x1, 0x258, 0x288, 0x5]),
    ("tall_column/exhaustive/run", [0x416e600000000000, 0x4154b80000000000, 0x4154440000000000, 0x4174400000000000, 0x3fe05ed097b425ed, 0x3fef4cd6af4cd6af, 0x40f7e72148aa470a, 0x0, 0x288, 0x288, 0x5]),
    ("tall_column/exhaustive/sharded2", [0x416e600000000000, 0x4154b80000000000, 0x4154440000000000, 0x4174400000000000, 0x3fe05ed097b425ed, 0x3fef4cd6af4cd6af, 0x40f7e72148aa470a, 0x0, 0x288, 0x288, 0x5]),
    ("conv_v100/default/run", [0x412b921800000000, 0x4110f5c000000000, 0x40f84b8000000000, 0x40fc200000000000, 0x3fd3c448718f6b32, 0x3fd71441928c289d, 0x40dee5879d56d398, 0x1, 0x4, 0x4, 0x5]),
    ("conv_v100/default/sharded2", [0x412b921800000000, 0x4110f5c000000000, 0x40f84b8000000000, 0x40fc200000000000, 0x3fd3c448718f6b32, 0x3fd71441928c289d, 0x40dee5879d56d399, 0x1, 0x4, 0x4, 0x5]),
    ("conv_v100/exhaustive/run", [0x412b954000000000, 0x4110e78000000000, 0x40f80c0000000000, 0x40fc200000000000, 0x3fd39c7b72109618, 0x3fd6c2af299ddbf9, 0x40dedbabca3c0eea, 0x0, 0x4, 0x4, 0x5]),
    ("conv_v100/exhaustive/sharded2", [0x412b954000000000, 0x4110e78000000000, 0x40f80c0000000000, 0x40fc200000000000, 0x3fd39c7b72109618, 0x3fd6c2af299ddbf9, 0x40dedbabca3c0eeb, 0x0, 0x4, 0x4, 0x5]),    ("conv7_pad1/titan_xp/default/run", [0x411d258000000000, 0x40e5910000000000, 0x40e5910000000000, 0x40cea00000000000, 0x3fd079ddd864b346, 0x3ff0000000000000, 0x40dfc4c00e90452b, 0x1, 0x1, 0x1, 0x5]),
    ("conv7_pad1/titan_xp/default/sharded2", [0x411d258000000000, 0x40e5910000000000, 0x40e5910000000000, 0x40cea00000000000, 0x3fd079ddd864b346, 0x3ff0000000000000, 0x40dfc4c00e90452b, 0x1, 0x1, 0x1, 0x5]),
    ("conv7_pad1/titan_xp/exhaustive/run", [0x411d160000000000, 0x40e5780000000000, 0x40e5780000000000, 0x40cea00000000000, 0x3fd04fc704219ed8, 0x3ff0000000000000, 0x40dfbf7bca4c00e3, 0x0, 0x1, 0x1, 0x5]),
    ("conv7_pad1/titan_xp/exhaustive/sharded2", [0x411d160000000000, 0x40e5780000000000, 0x40e5780000000000, 0x40cea00000000000, 0x3fd04fc704219ed8, 0x3ff0000000000000, 0x40dfbf7bca4c00e3, 0x0, 0x1, 0x1, 0x5]),
    ("conv7_pad1/v100/default/run", [0x41050a2000000000, 0x40e5910000000000, 0x40e5910000000000, 0x40cea00000000000, 0x3fd079ddd864b346, 0x3ff0000000000000, 0x40e09f1efdd25f9a, 0x1, 0x1, 0x1, 0x5]),
    ("conv7_pad1/v100/default/sharded2", [0x41050a2000000000, 0x40e5910000000000, 0x40e5910000000000, 0x40cea00000000000, 0x3fd079ddd864b346, 0x3ff0000000000000, 0x40e09f1efdd25f99, 0x1, 0x1, 0x1, 0x5]),
    ("conv7_pad1/v100/exhaustive/run", [0x41050f0000000000, 0x40e5780000000000, 0x40e5780000000000, 0x40cea00000000000, 0x3fd04fc704219ed8, 0x3ff0000000000000, 0x40e09c0865714c62, 0x0, 0x1, 0x1, 0x5]),
    ("conv7_pad1/v100/exhaustive/sharded2", [0x41050f0000000000, 0x40e5780000000000, 0x40e5780000000000, 0x40cea00000000000, 0x3fd04fc704219ed8, 0x3ff0000000000000, 0x40e09c0865714c62, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/titan_xp/default/run", [0x4100100000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c2a6daa2a81e38, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/titan_xp/default/sharded2", [0x4100100000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c2a6daa2a81e39, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/titan_xp/exhaustive/run", [0x4100100000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c2a6daa2a81e38, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/titan_xp/exhaustive/sharded2", [0x4100100000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c2a6daa2a81e39, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/v100/default/run", [0x40eac00000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c56a4ddf47ba6b, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/v100/default/sharded2", [0x40eac00000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c56a4ddf47ba6b, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/v100/exhaustive/run", [0x40eac00000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c56a4ddf47ba6b, 0x0, 0x1, 0x1, 0x5]),
    ("proj_1x1_s2/v100/exhaustive/sharded2", [0x40eac00000000000, 0x40e5800000000000, 0x40e5800000000000, 0x40d8800000000000, 0x3fe9b8396ba9de81, 0x3ff0000000000000, 0x40c56a4ddf47ba6b, 0x0, 0x1, 0x1, 0x5]),
    ("wgrad_k49/titan_xp/default/run", [0x412f180000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c45252223a72ba, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/titan_xp/default/sharded2", [0x412f180000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c45252223a72ba, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/titan_xp/exhaustive/run", [0x412f180000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c45252223a72ba, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/titan_xp/exhaustive/sharded2", [0x412f180000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c45252223a72ba, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/v100/default/run", [0x410ff00000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c301a2902189fd, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/v100/default/sharded2", [0x410ff00000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c301a2902189fe, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/v100/exhaustive/run", [0x410ff00000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c301a2902189fd, 0x0, 0x2, 0x2, 0xb]),
    ("wgrad_k49/v100/exhaustive/sharded2", [0x410ff00000000000, 0x40e3e80000000000, 0x40e0d80000000000, 0x40d2000000000000, 0x3fc3f1f8fc7e3f20, 0x3feb13b13b13b13b, 0x40c301a2902189fe, 0x0, 0x2, 0x2, 0xb]),
];

/// A conv whose GEMM is ragged on every axis: M = 507 (not a multiple of
/// blkM = 128), N = 136 (two tile columns, the second 8 wide, and not a
/// multiple of 32), K = 135 (not a multiple of blkK = 8).
fn ragged_conv() -> ConvLayer {
    ConvLayer::builder("ragged")
        .batch(3)
        .input(15, 13, 13)
        .output_channels(136)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap()
}

/// AlexNet conv1 at batch 1: 11×11 filters at stride 4.
fn alexnet_conv1() -> ConvLayer {
    ConvLayer::builder("alexnet_conv1")
        .batch(1)
        .input(3, 227, 227)
        .output_channels(96)
        .filter(11, 11)
        .stride(4)
        .build()
        .unwrap()
}

/// The conv whose backward passes are pinned: stride 2, so dgrad runs
/// over a dilated input.
fn backward_base() -> ConvLayer {
    ConvLayer::builder("bwd")
        .batch(2)
        .input(32, 14, 14)
        .output_channels(48)
        .filter(3, 3)
        .stride(2)
        .pad(1)
        .build()
        .unwrap()
}

/// A 1×1 conv whose single tile column is 648 CTAs tall, five batches
/// of 150 on TITAN Xp: more than the default config simulates, so batch
/// extrapolation and the L2 aging of the skipped batches run.
fn tall_column() -> ConvLayer {
    ConvLayer::builder("tall")
        .batch(4)
        .input(16, 144, 144)
        .output_channels(64)
        .filter(1, 1)
        .build()
        .unwrap()
}

/// A 3×3 pad-1 conv on a 7×7 map: every output row is a run of 7
/// lanes, so each 32-row warp spans five rows, clipped at both borders.
fn conv7_pad1() -> ConvLayer {
    ConvLayer::builder("conv7")
        .batch(2)
        .input(24, 7, 7)
        .output_channels(40)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap()
}

/// A 1×1 stride-2 projection (ResNet downsampling shortcut): lanes of
/// one output row step by two elements.
fn projection_1x1_s2() -> ConvLayer {
    ConvLayer::builder("proj")
        .batch(2)
        .input(32, 14, 14)
        .output_channels(64)
        .filter(1, 1)
        .stride(2)
        .build()
        .unwrap()
}

/// The batch-1 twin of [`conv7_pad1`], whose wgrad GEMM has
/// K = B·Ho·Wo = 49, not a multiple of blkK = 8.
fn conv7_pad1_b1() -> ConvLayer {
    ConvLayer::builder("conv7_b1")
        .batch(1)
        .input(16, 7, 7)
        .output_channels(32)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap()
}

fn cases() -> Vec<(&'static str, GpuSpec, ConvLayer)> {
    vec![
        ("ragged_conv", GpuSpec::titan_xp(), ragged_conv()),
        ("alexnet_conv1", GpuSpec::titan_xp(), alexnet_conv1()),
        (
            "dgrad",
            GpuSpec::titan_xp(),
            training::dgrad_layer(&backward_base()).unwrap(),
        ),
        (
            "wgrad",
            GpuSpec::titan_xp(),
            training::wgrad_layer(&backward_base()).unwrap(),
        ),
        (
            "gemm_a100",
            GpuSpec::a100(),
            ConvLayer::gemm("gemm", 200, 300, 72).unwrap(),
        ),
        ("tall_column", GpuSpec::titan_xp(), tall_column()),
        (
            "conv_v100",
            GpuSpec::v100(),
            ConvLayer::builder("v100")
                .batch(2)
                .input(24, 15, 15)
                .output_channels(64)
                .filter(3, 3)
                .pad(1)
                .build()
                .unwrap(),
        ),
        ("conv7_pad1/titan_xp", GpuSpec::titan_xp(), conv7_pad1()),
        ("conv7_pad1/v100", GpuSpec::v100(), conv7_pad1()),
        (
            "proj_1x1_s2/titan_xp",
            GpuSpec::titan_xp(),
            projection_1x1_s2(),
        ),
        ("proj_1x1_s2/v100", GpuSpec::v100(), projection_1x1_s2()),
        (
            "wgrad_k49/titan_xp",
            GpuSpec::titan_xp(),
            training::wgrad_layer(&conv7_pad1_b1()).unwrap(),
        ),
        (
            "wgrad_k49/v100",
            GpuSpec::v100(),
            training::wgrad_layer(&conv7_pad1_b1()).unwrap(),
        ),
    ]
}

fn bits(m: &Measurement) -> [u64; 11] {
    [
        m.l1_bytes.to_bits(),
        m.l2_bytes.to_bits(),
        m.dram_read_bytes.to_bits(),
        m.dram_write_bytes.to_bits(),
        m.l1_miss_rate.to_bits(),
        m.l2_miss_rate.to_bits(),
        m.cycles.to_bits(),
        u64::from(m.sampled),
        m.simulated_ctas,
        m.total_ctas,
        u64::from(m.active_ctas),
    ]
}

fn measured() -> Vec<(String, [u64; 11])> {
    let mut out = Vec::new();
    for (name, gpu, layer) in cases() {
        for (cfg_name, cfg) in [
            ("default", SimConfig::default()),
            ("exhaustive", SimConfig::exhaustive()),
        ] {
            let sim = Simulator::new(gpu.clone(), cfg);
            out.push((format!("{name}/{cfg_name}/run"), bits(&sim.run(&layer))));
            out.push((
                format!("{name}/{cfg_name}/sharded2"),
                bits(&sim.run_sharded(&layer, 2)),
            ));
        }
    }
    out
}

#[test]
fn replay_measurements_are_bit_pinned() {
    let got = measured();
    let table: String = got
        .iter()
        .map(|(label, b)| {
            let vals: Vec<String> = b.iter().map(|v| format!("{v:#x}")).collect();
            format!("    (\"{label}\", [{}]),\n", vals.join(", "))
        })
        .collect();
    let pinned: Vec<(String, [u64; 11])> = PINS.iter().map(|(l, b)| (l.to_string(), *b)).collect();
    assert!(
        got == pinned,
        "replay measurements moved; measured table:\n{table}"
    );
}
