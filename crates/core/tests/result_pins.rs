//! Single-thread result pins: the exact outcome of one pass of every engine
//! on three test-scale circuits under `rewrite_op` and `p1`.
//!
//! At one thread every engine is deterministic, so a change that is meant
//! to be result-preserving (a faster kernel, a cache, a pruning rule) must
//! leave each row bit-identical: final area and depth, replacement and
//! evaluation counts, and an FNV-1a hash of the rewritten graph's ASCII
//! AIGER text. A change that is meant to alter results updates the table;
//! the failure message prints the table this build produces.

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{aiger, Aig};
use dacpara_circuits::{arithmetic_suite, mtm_suite, Scale};

/// `(config, engine, area_after, delay_after, replacements, evaluations,
/// FNV-1a of the AIGER text)`.
type Pin = (&'static str, &'static str, usize, u32, u64, u64, u64);

#[rustfmt::skip]
const LOG2: &[Pin] = &[
    ("rewrite_op", "abc-rewrite", 1640, 117, 438, 2204, 0x534982ad8bb54cc9),
    ("rewrite_op", "iccad18", 1640, 117, 438, 2204, 0x8d5994715f2528d1),
    ("rewrite_op", "dac22-static", 1850, 114, 242, 0, 0xa447b093732e0f5f),
    ("rewrite_op", "tcad23-static", 2056, 117, 22, 0, 0x3e48cd7974dd2c6d),
    ("rewrite_op", "dacpara", 1644, 117, 436, 2204, 0x37b6c0b7aa0b84b9),
    ("rewrite_op", "partition-fpga17", 1664, 117, 398, 2086, 0xe07fa8c422e67ad9),
    ("p1", "abc-rewrite", 1626, 117, 452, 3844, 0xaf8ad7ef57a002f2),
    ("p1", "iccad18", 1626, 117, 452, 3844, 0x62ff9ed9cae0418e),
    ("p1", "dac22-static", 1654, 117, 420, 0, 0x895c2e9087c05810),
    ("p1", "tcad23-static", 2012, 117, 42, 0, 0xd8aec59f9447dbf7),
    ("p1", "dacpara", 1626, 117, 452, 3848, 0xab75cd3e4b6fd3c4),
    ("p1", "partition-fpga17", 1660, 117, 400, 3750, 0x2f1d5123b620251f),
];

#[rustfmt::skip]
const VOTER: &[Pin] = &[
    ("rewrite_op", "abc-rewrite", 402, 24, 160, 582, 0xefee78af1c2eca75),
    ("rewrite_op", "iccad18", 402, 24, 160, 582, 0x62338862fd2ec873),
    ("rewrite_op", "dac22-static", 478, 26, 84, 0, 0x62fd8205040095bc),
    ("rewrite_op", "tcad23-static", 546, 26, 16, 0, 0x8f71147d60ffc9e7),
    ("rewrite_op", "dacpara", 402, 24, 160, 582, 0x1a00ed34cd754c68),
    ("rewrite_op", "partition-fpga17", 386, 22, 162, 562, 0xeab42f193734df15),
    ("p1", "abc-rewrite", 419, 24, 142, 1028, 0x9271d2cd17937e68),
    ("p1", "iccad18", 422, 24, 140, 1032, 0xdd20df3af83ec5bf),
    ("p1", "dac22-static", 450, 26, 123, 0, 0x0eada8ab19b05265),
    ("p1", "tcad23-static", 560, 25, 8, 0, 0xebddd6c2191b0c9b),
    ("p1", "dacpara", 427, 24, 140, 1032, 0xbe3d0948fe3a6491),
    ("p1", "partition-fpga17", 422, 24, 140, 1008, 0x6ec8c3019767d6a3),
];

#[rustfmt::skip]
const SIXTEEN: &[Pin] = &[
    ("rewrite_op", "abc-rewrite", 513, 27, 32, 552, 0x6c93f2d7dd57d862),
    ("rewrite_op", "iccad18", 513, 27, 32, 552, 0x51f5d212cd156b1e),
    ("rewrite_op", "dac22-static", 521, 29, 48, 0, 0x16f985163988fd91),
    ("rewrite_op", "tcad23-static", 521, 29, 46, 0, 0x3c8b397267ede1cd),
    ("rewrite_op", "dacpara", 513, 27, 32, 552, 0x07a5edf1c372f311),
    ("rewrite_op", "partition-fpga17", 516, 27, 31, 553, 0x3aad8a6378c1f5b2),
    ("p1", "abc-rewrite", 514, 27, 31, 1066, 0x8d64fd8d01de343e),
    ("p1", "iccad18", 514, 27, 31, 1011, 0x3647ce276a05563e),
    ("p1", "dac22-static", 514, 29, 57, 0, 0x8c617eaf937e7119),
    ("p1", "tcad23-static", 514, 29, 55, 0, 0x74a0c4ed83f24987),
    ("p1", "dacpara", 514, 27, 31, 999, 0x709beac7def64f2a),
    ("p1", "partition-fpga17", 517, 27, 30, 1070, 0x4bb1be2793b08b24),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn configs() -> [(&'static str, RewriteConfig); 2] {
    [
        ("rewrite_op", RewriteConfig::rewrite_op()),
        ("p1", RewriteConfig::p1()),
    ]
}

fn check(name: &str, aig: &Aig, pins: &[Pin]) {
    let mut got: Vec<Pin> = Vec::new();
    for (cfg_name, cfg) in configs() {
        assert_eq!(cfg.threads, 1, "pins are taken at one thread");
        for engine in Engine::ALL {
            let mut out = aig.clone();
            let stats = run_engine(&mut out, engine, &cfg).unwrap();
            got.push((
                cfg_name,
                engine.name(),
                stats.area_after,
                stats.delay_after,
                stats.replacements,
                stats.evaluations,
                fnv1a(aiger::to_string(&out).as_bytes()),
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, e, a, d, r, ev, h)| {
            format!("    (\"{c}\", \"{e}\", {a}, {d}, {r}, {ev}, {h:#018x}),\n")
        })
        .collect();
    assert!(
        got == pins,
        "{name}: one-thread results differ from the pins; this build gives\n{table}"
    );
}

fn suite_circuit(name: &str) -> Aig {
    arithmetic_suite(Scale::Test)
        .into_iter()
        .chain(mtm_suite(Scale::Test))
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no test-scale circuit {name}"))
        .aig
}

#[test]
fn log2_results_are_pinned() {
    check("log2_1xd", &suite_circuit("log2_1xd"), LOG2);
}

#[test]
fn voter_results_are_pinned() {
    check("voter_1xd", &suite_circuit("voter_1xd"), VOTER);
}

#[test]
fn mtm_results_are_pinned() {
    check("sixteen", &suite_circuit("sixteen"), SIXTEEN);
}
