//! Golden pin of the device-cost layer.
//!
//! Every value here is the FNV-1a hash of a report's `Debug` form, so a
//! change to any latency, breakdown class, FLOP count or energy term of
//! any pinned cell fails the test. Performance work on the compiler,
//! Algorithm 1, PIM GEMV timing, NPU execution or the stage memo must
//! keep these bit-identical; a deliberate model change re-pins them from
//! the table the failure message prints.
//!
//! Pinned:
//! * `IanusSystem::run_request` over all 48 Figure 8 cells, including the
//!   summarization-only (output 1) and sampled (output 64, 512) paths.
//!   One system per model serves its 12 cells, so the later cells read
//!   stages the earlier ones memoized;
//! * Algorithm 1's Figure 12 microbenchmark at 4/8/16 tokens;
//! * single stages and `run_request` (one exact, one sampled request) on
//!   the NPU-MEM, partitioned, two-device, naive-PAS and PIM-attention
//!   configurations.

use ianus::prelude::*;
use std::fmt::Debug;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint<T: Debug>(report: &T) -> u64 {
    fnv1a(&format!("{report:?}"))
}

/// Compares computed `(label, fingerprint)` rows with a pinned table and,
/// on any difference, fails with the differing rows and the full table
/// as it should be pasted back.
fn check(table: &str, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let differs: Vec<String> = actual
        .iter()
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((label, fp), pin)| *pin != Some(&(label.as_str(), *fp)))
        .map(|((label, fp), pin)| format!("  {label}: got {fp:#018x}, pinned {pin:?}"))
        .collect();
    if differs.is_empty() && actual.len() == expected.len() {
        return;
    }
    let regenerated: String = actual
        .iter()
        .map(|(label, fp)| format!("    ({label:?}, {fp:#018x}),\n"))
        .collect();
    panic!(
        "{table}: {} of {} rows differ (pinned {})\n{}\nregenerated table:\n{regenerated}",
        differs.len(),
        actual.len(),
        expected.len(),
        differs.join("\n")
    );
}

const FIG8_INPUTS: [u64; 3] = [128, 256, 512];
const FIG8_OUTPUTS: [u64; 4] = [1, 8, 64, 512];

const FIG8: [(&str, u64); 48] = [
    ("GPT-2 M 128/1", 0x128d95be2808e8cd),
    ("GPT-2 M 128/8", 0x7191d7718fcf2f26),
    ("GPT-2 M 128/64", 0x006732b97b9cd5f4),
    ("GPT-2 M 128/512", 0x1ccb8a214b6a2c4c),
    ("GPT-2 M 256/1", 0x977313c6361af89c),
    ("GPT-2 M 256/8", 0x4f9162cb7b6aabe1),
    ("GPT-2 M 256/64", 0xb887bf0b405e1738),
    ("GPT-2 M 256/512", 0xa1477ad2c80e5093),
    ("GPT-2 M 512/1", 0x6d01017492c1892a),
    ("GPT-2 M 512/8", 0xb6af7441856363e0),
    ("GPT-2 M 512/64", 0x0d0fdb92e5cda446),
    ("GPT-2 M 512/512", 0x53afc0cd744f596e),
    ("GPT-2 L 128/1", 0x989cc9a2a8a49a4d),
    ("GPT-2 L 128/8", 0x4866646b0721f40e),
    ("GPT-2 L 128/64", 0x24fcf64651dc9f08),
    ("GPT-2 L 128/512", 0xdb121670c505dfb3),
    ("GPT-2 L 256/1", 0x53c43c52380b0f07),
    ("GPT-2 L 256/8", 0xb5e9de7093b4a241),
    ("GPT-2 L 256/64", 0x4919d3b18618274a),
    ("GPT-2 L 256/512", 0x6e2ba24a837fe86e),
    ("GPT-2 L 512/1", 0x921eb72b6c1fd2c6),
    ("GPT-2 L 512/8", 0x837b33d65e9be30c),
    ("GPT-2 L 512/64", 0x698a68cf8474d1b1),
    ("GPT-2 L 512/512", 0x0172357ee43a965f),
    ("GPT-2 XL 128/1", 0xab81c98bd601412c),
    ("GPT-2 XL 128/8", 0x86de77a4dc982265),
    ("GPT-2 XL 128/64", 0xbb8636ad0b81cc5e),
    ("GPT-2 XL 128/512", 0x85bf2cad32f5ee91),
    ("GPT-2 XL 256/1", 0xb5ec58a64cae69e7),
    ("GPT-2 XL 256/8", 0xfe1ed59a1ed31518),
    ("GPT-2 XL 256/64", 0x37b75bd223a19207),
    ("GPT-2 XL 256/512", 0xeb7a6c48dd44c5d3),
    ("GPT-2 XL 512/1", 0x29cb6f240a66d346),
    ("GPT-2 XL 512/8", 0xd8dd56ba96fa7b77),
    ("GPT-2 XL 512/64", 0x534c7330c3f2cf6d),
    ("GPT-2 XL 512/512", 0xdf4c3b3f4deba2d5),
    ("GPT-2 2.5B 128/1", 0x4ae659817b53ba4d),
    ("GPT-2 2.5B 128/8", 0xcb2b9b112a5848b8),
    ("GPT-2 2.5B 128/64", 0x47c35c38ff90512b),
    ("GPT-2 2.5B 128/512", 0xd0373634061d1a16),
    ("GPT-2 2.5B 256/1", 0x6706bdd7cf3358a1),
    ("GPT-2 2.5B 256/8", 0xd3fc4ff8472a4f47),
    ("GPT-2 2.5B 256/64", 0xd837d187ed3d91b3),
    ("GPT-2 2.5B 256/512", 0x7c3233e23c819244),
    ("GPT-2 2.5B 512/1", 0xc22c5d8d4bf5ffcc),
    ("GPT-2 2.5B 512/8", 0x29d14d5788f27d96),
    ("GPT-2 2.5B 512/64", 0x39a38e282c7b8141),
    ("GPT-2 2.5B 512/512", 0x1cb9c81d2f0560ed),
];

#[test]
fn fig8_grid_run_requests_are_pinned() {
    let mut actual = Vec::new();
    for model in ModelConfig::gpt2_family() {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        for input in FIG8_INPUTS {
            for output in FIG8_OUTPUTS {
                let report = sys.run_request(&model, RequestShape::new(input, output));
                actual.push((
                    format!("{} {input}/{output}", model.name),
                    fingerprint(&report),
                ));
            }
        }
    }
    check("Figure 8 grid", &actual, &FIG8);
}

const FC_MICROBENCH: [(&str, u64); 12] = [
    ("GPT-2 M 4 tokens", 0x5ba63c2a4bc62dad),
    ("GPT-2 M 8 tokens", 0xd6934251261bdcbe),
    ("GPT-2 M 16 tokens", 0xaecc68111ecd4ef5),
    ("GPT-2 L 4 tokens", 0x5754f23ca7f6e2a5),
    ("GPT-2 L 8 tokens", 0x6f34809fe9cdde4c),
    ("GPT-2 L 16 tokens", 0x06e2d8c5c83bcaff),
    ("GPT-2 XL 4 tokens", 0x2f6a5587f0920fb2),
    ("GPT-2 XL 8 tokens", 0x746a46380cff0aae),
    ("GPT-2 XL 16 tokens", 0x42b0eaa3e7ae9f7a),
    ("GPT-2 2.5B 4 tokens", 0x69f4945f02c2dd5f),
    ("GPT-2 2.5B 8 tokens", 0xaa919d82bb2e80b7),
    ("GPT-2 2.5B 16 tokens", 0xff65c2dbfbd8c753),
];

#[test]
fn algorithm1_fc_microbench_is_pinned() {
    let mut actual = Vec::new();
    let mut sys = IanusSystem::new(SystemConfig::ianus());
    for model in ModelConfig::gpt2_family() {
        for tokens in [4, 8, 16] {
            let report = sys.run_fc_microbench(&model, tokens, FcMapping::Adaptive);
            actual.push((
                format!("{} {tokens} tokens", model.name),
                fingerprint(&report),
            ));
        }
    }
    check("Figure 12 adaptive microbenchmark", &actual, &FC_MICROBENCH);
}

const STAGES: [(&str, u64); 30] = [
    (
        "NPU-MEM GPT-2 XL Summarization { tokens: 128 }",
        0xc6797bbbf35084a7,
    ),
    (
        "NPU-MEM GPT-2 XL Generation { past_tokens: 128 }",
        0xd519d6f53747d5fc,
    ),
    (
        "NPU-MEM GPT-2 XL Generation { past_tokens: 511 }",
        0x1cb3ab655d277bd6,
    ),
    (
        "NPU-MEM GPT-2 2.5B Summarization { tokens: 128 }",
        0xba1d7c2705582ab2,
    ),
    (
        "NPU-MEM GPT-2 2.5B Generation { past_tokens: 128 }",
        0x89b8f2efa3b7b66d,
    ),
    (
        "NPU-MEM GPT-2 2.5B Generation { past_tokens: 511 }",
        0x58b65cd04bc680fe,
    ),
    (
        "partitioned GPT-2 XL Summarization { tokens: 128 }",
        0xcaddfbde45ca1449,
    ),
    (
        "partitioned GPT-2 XL Generation { past_tokens: 128 }",
        0xd19805cb5b9b091e,
    ),
    (
        "partitioned GPT-2 XL Generation { past_tokens: 511 }",
        0x2685fb5df96656d9,
    ),
    (
        "partitioned GPT-2 2.5B Summarization { tokens: 128 }",
        0x4707dd4ee20a2e58,
    ),
    (
        "partitioned GPT-2 2.5B Generation { past_tokens: 128 }",
        0xfb68b3946c5a98aa,
    ),
    (
        "partitioned GPT-2 2.5B Generation { past_tokens: 511 }",
        0x0c53ee2a804dd218,
    ),
    (
        "2 devices GPT-2 XL Summarization { tokens: 128 }",
        0x51b6c92b099be299,
    ),
    (
        "2 devices GPT-2 XL Generation { past_tokens: 128 }",
        0xaae7f77e0ea2b9eb,
    ),
    (
        "2 devices GPT-2 XL Generation { past_tokens: 511 }",
        0xd752f581bf187900,
    ),
    (
        "2 devices GPT-2 2.5B Summarization { tokens: 128 }",
        0xdc3a3e040cfd382b,
    ),
    (
        "2 devices GPT-2 2.5B Generation { past_tokens: 128 }",
        0x52109e4d6fa7dc23,
    ),
    (
        "2 devices GPT-2 2.5B Generation { past_tokens: 511 }",
        0x039d19424ffd4d52,
    ),
    (
        "naive PAS GPT-2 XL Summarization { tokens: 128 }",
        0x214ec11ab96aea22,
    ),
    (
        "naive PAS GPT-2 XL Generation { past_tokens: 128 }",
        0x5a1e501dbaf40b4d,
    ),
    (
        "naive PAS GPT-2 XL Generation { past_tokens: 511 }",
        0x3507673bd5f94b9c,
    ),
    (
        "naive PAS GPT-2 2.5B Summarization { tokens: 128 }",
        0xb1ab8f8c4815a574,
    ),
    (
        "naive PAS GPT-2 2.5B Generation { past_tokens: 128 }",
        0x8b528178f2e0626c,
    ),
    (
        "naive PAS GPT-2 2.5B Generation { past_tokens: 511 }",
        0xede50892cc5fa045,
    ),
    (
        "PIM attention GPT-2 XL Summarization { tokens: 128 }",
        0x214ec11ab96aea22,
    ),
    (
        "PIM attention GPT-2 XL Generation { past_tokens: 128 }",
        0x97f943725bacb453,
    ),
    (
        "PIM attention GPT-2 XL Generation { past_tokens: 511 }",
        0xa52d5fcb43d82ed5,
    ),
    (
        "PIM attention GPT-2 2.5B Summarization { tokens: 128 }",
        0xb1ab8f8c4815a574,
    ),
    (
        "PIM attention GPT-2 2.5B Generation { past_tokens: 128 }",
        0x45c2f7e077123411,
    ),
    (
        "PIM attention GPT-2 2.5B Generation { past_tokens: 511 }",
        0x3a94078b53b907b7,
    ),
];

/// The ablation configurations pinned beside the IANUS default.
fn ablation_configs() -> [(&'static str, SystemConfig); 5] {
    let naive = SystemConfig::ianus().with_pas(PasPolicy {
        schedule: Schedule::Naive,
        ..PasPolicy::ianus()
    });
    let pim_attention = SystemConfig::ianus().with_pas(PasPolicy {
        attention: AttnMapping::Pim,
        ..PasPolicy::ianus()
    });
    [
        ("NPU-MEM", SystemConfig::npu_mem()),
        ("partitioned", SystemConfig::partitioned()),
        ("2 devices", SystemConfig::ianus().with_devices(2)),
        ("naive PAS", naive),
        ("PIM attention", pim_attention),
    ]
}

#[test]
fn ablation_config_stages_are_pinned() {
    let stages = [
        Stage::Summarization { tokens: 128 },
        Stage::Generation { past_tokens: 128 },
        Stage::Generation { past_tokens: 511 },
    ];
    let mut actual = Vec::new();
    for (label, cfg) in ablation_configs() {
        let mut sys = IanusSystem::new(cfg);
        for model in [ModelConfig::gpt2_xl(), ModelConfig::gpt2_2_5b()] {
            for stage in &stages {
                let report = sys.run_stage(&model, stage);
                actual.push((
                    format!("{label} {} {stage:?}", model.name),
                    fingerprint(&report),
                ));
            }
        }
    }
    check("ablation stages", &actual, &STAGES);
}

const REQUESTS: [(&str, u64); 20] = [
    ("NPU-MEM GPT-2 XL 128/8", 0x5c7cfab7a491a01f),
    ("NPU-MEM GPT-2 XL 128/64", 0xa883f2e280bc33d7),
    ("NPU-MEM GPT-2 2.5B 128/8", 0xb513cb62b70699ce),
    ("NPU-MEM GPT-2 2.5B 128/64", 0x17c401ac836af837),
    ("partitioned GPT-2 XL 128/8", 0x91759ded3f98e7d7),
    ("partitioned GPT-2 XL 128/64", 0xfcb9d068bc11adc3),
    ("partitioned GPT-2 2.5B 128/8", 0x3f74bfa0c8c5c016),
    ("partitioned GPT-2 2.5B 128/64", 0x284cb62a4db842c9),
    ("2 devices GPT-2 XL 128/8", 0xfd61dce73e331e91),
    ("2 devices GPT-2 XL 128/64", 0x49a2b4648c37b7c5),
    ("2 devices GPT-2 2.5B 128/8", 0x54cbcf4f15fc1543),
    ("2 devices GPT-2 2.5B 128/64", 0x472b35dabe1771a9),
    ("naive PAS GPT-2 XL 128/8", 0x9edc33339e68471c),
    ("naive PAS GPT-2 XL 128/64", 0xb2ce4bb8bcc42fd2),
    ("naive PAS GPT-2 2.5B 128/8", 0xb037be40e2506826),
    ("naive PAS GPT-2 2.5B 128/64", 0x7395adacb3a6c138),
    ("PIM attention GPT-2 XL 128/8", 0x1367e0586ccc3d2e),
    ("PIM attention GPT-2 XL 128/64", 0x1b663cec2c33d128),
    ("PIM attention GPT-2 2.5B 128/8", 0x62b4a58ed2007cd7),
    ("PIM attention GPT-2 2.5B 128/64", 0xf4791a10e5b97097),
];

#[test]
fn ablation_config_run_requests_are_pinned() {
    // 128/8 prices every generation step; 128/64 samples and integrates.
    let requests = [RequestShape::new(128, 8), RequestShape::new(128, 64)];
    let mut actual = Vec::new();
    for (label, cfg) in ablation_configs() {
        let mut sys = IanusSystem::new(cfg);
        for model in [ModelConfig::gpt2_xl(), ModelConfig::gpt2_2_5b()] {
            for request in requests {
                let report = sys.run_request(&model, request);
                actual.push((
                    format!(
                        "{label} {} {}/{}",
                        model.name, request.input, request.output
                    ),
                    fingerprint(&report),
                ));
            }
        }
    }
    check("ablation requests", &actual, &REQUESTS);
}
