//! Bit-level golden of the reduced Table 1 run (the `table1` criterion
//! bench configuration: 6 line segments, an 8 ns window, active pattern
//! `0110`). The transistor-level reference runs 1,600 full-path timesteps
//! on the coupled-line netlist and the PW-RBF run exercises the
//! port path, so any change to stamping, refactorization or solve order
//! that moves a single bit of either shows up here. The digests are FNV-1a
//! over the little-endian `f64::to_bits` of every sample.

use emc_bench::{driver_model, fig4, Fig4Config};

/// FNV-1a over the bit patterns of `values`.
fn fnv1a_bits(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[test]
fn reduced_table1_waveforms_are_bit_stable() {
    let model = driver_model(&refdev::md3()).expect("md3 estimation");
    let cfg = Fig4Config {
        segments: 6,
        t_stop: 8e-9,
        pattern_active: "0110",
        ..Default::default()
    };
    let data = fig4(&cfg, Some(model)).expect("fig4 run");
    let digests = [
        ("v21_reference", fnv1a_bits(data.v21_reference.values())),
        ("v22_reference", fnv1a_bits(data.v22_reference.values())),
        ("v21_pwrbf", fnv1a_bits(data.v21_pwrbf.values())),
        ("v22_pwrbf", fnv1a_bits(data.v22_pwrbf.values())),
    ];
    let expected = [
        ("v21_reference", 0xe661_a6a8_de29_b41d),
        ("v22_reference", 0x45d8_dba4_2b23_4533),
        ("v21_pwrbf", 0x0f6d_43a2_044e_1749),
        ("v22_pwrbf", 0xca0c_9089_0144_24d3),
    ];
    for ((name, got), (_, want)) in digests.iter().zip(&expected) {
        assert_eq!(*got, *want, "{name} digest moved: {got:#018x}");
    }
}
