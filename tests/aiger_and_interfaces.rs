//! Integration: AIGER round trips across generated benchmarks, plus
//! Send/Sync guarantees of the shared types.

use dacpara_aig::{aiger, AigRead};
use dacpara_circuits::{full_suite, Scale};

#[test]
fn aiger_roundtrip_on_the_whole_test_suite() {
    for bench in full_suite(Scale::Test) {
        let text = aiger::to_string(&bench.aig);
        let back = aiger::read(text.as_bytes()).expect("self-written aiger parses");
        back.check().unwrap();
        assert_eq!(back.num_inputs(), bench.aig.num_inputs(), "{}", bench.name);
        assert_eq!(
            back.num_outputs(),
            bench.aig.num_outputs(),
            "{}",
            bench.name
        );
        assert_eq!(back.num_ands(), bench.aig.num_ands(), "{}", bench.name);
        // A second round trip is byte-identical (canonical form).
        assert_eq!(aiger::to_string(&back), text, "{}", bench.name);
    }
}

#[test]
fn binary_aiger_roundtrip_on_the_whole_test_suite() {
    for bench in full_suite(Scale::Test) {
        let mut buf = Vec::new();
        aiger::write_binary(&bench.aig, &mut buf).expect("binary write");
        let back = aiger::read_binary(&buf[..]).expect("self-written binary parses");
        back.check().unwrap();
        assert_eq!(back.num_ands(), bench.aig.num_ands(), "{}", bench.name);
        assert_eq!(
            aiger::to_string(&back),
            aiger::to_string(&bench.aig),
            "{}",
            bench.name
        );
        // The binary encoding is substantially smaller.
        assert!(
            buf.len() < aiger::to_string(&bench.aig).len(),
            "{}",
            bench.name
        );
    }
}

#[test]
fn blif_roundtrip_on_arithmetic_benchmarks() {
    use dacpara_aig::blif;
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
    let sim_only = CecConfig {
        sim_rounds: 8,
        sat_node_limit: 0,
        seed: 7,
        ..CecConfig::default()
    };
    for bench in full_suite(Scale::Test).into_iter().take(5) {
        let text = blif::to_string(&bench.aig, &bench.name);
        let back = blif::parse(&text).expect("self-written blif parses");
        back.check().unwrap();
        assert_eq!(back.num_ands(), bench.aig.num_ands(), "{}", bench.name);
        assert!(
            !matches!(
                check_equivalence(&bench.aig, &back, &sim_only),
                CecResult::Inequivalent(_)
            ),
            "{}",
            bench.name
        );
    }
}

#[test]
fn shared_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<dacpara_aig::Aig>();
    assert_send_sync::<dacpara_aig::concurrent::ConcurrentAig>();
    assert_send_sync::<dacpara_cut::CutStore>();
    assert_send_sync::<dacpara_galois::LockTable>();
    assert_send_sync::<dacpara_galois::SpecStats>();
    assert_send_sync::<dacpara_nst::NpnLibrary>();
    assert_send_sync::<dacpara::EvalContext>();
    assert_send_sync::<dacpara::Candidate>();
}

#[test]
fn error_type_is_std_error() {
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<dacpara_aig::AigError>();
    let e = dacpara_aig::AigError::CapacityOverflow { live: 16 };
    assert!(e.to_string().contains("16"));
}

#[test]
fn benchmark_table1_rows_are_consistent() {
    for bench in full_suite(Scale::Test) {
        let (name, pis, pos, area, delay) = bench.table1_row();
        assert_eq!(name, bench.name);
        assert_eq!(pis, bench.aig.num_inputs());
        assert_eq!(pos, bench.aig.num_outputs());
        assert_eq!(area, bench.aig.num_ands());
        assert_eq!(delay, bench.aig.depth());
    }
}
