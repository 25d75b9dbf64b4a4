//! Digests of the simulated statistics of every training-step answer
//! (`train::step_digest`), recorded from the simulator at the commit
//! that defined the benchmark. A change that only makes the simulator
//! faster leaves every one of them unchanged.

const RECORDED: &[(&str, u64)] = &[
    ("alexnet", 0x3682_df2a_e231_3d09),
    ("vgg16", 0x222b_1e54_8880_be99),
    ("googlenet", 0xab8e_bbd7_6a33_0864),
    ("resnet152", 0xdfbe_9e06_ae57_aea0),
    ("gpt2s", 0xc79e_e4cd_b53c_d69d),
];

/// The recorded digest of `name`'s step answer.
pub fn recorded(name: &str) -> Option<u64> {
    RECORDED.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}
