//! Integration: every rewriting engine preserves functional equivalence on
//! every benchmark family, at test scale, across thread counts.

use dacpara::testkit::assert_suite_equiv;
use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_circuits::{full_suite, Scale};

#[test]
fn all_engines_on_the_test_suite() {
    use dacpara_aig::AigRead;
    let suite = full_suite(Scale::Test);
    for bench in &suite {
        for engine in Engine::ALL {
            let cfg = engine.paper_config().with_threads(2);
            let mut aig = bench.aig.clone();
            let stats = run_engine(&mut aig, engine, &cfg)
                .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
            aig.check()
                .unwrap_or_else(|e| panic!("{engine} corrupted {}: {e}", bench.name));
            assert!(
                aig.num_ands() <= bench.aig.num_ands(),
                "{engine} grew {}",
                bench.name
            );
            assert!(
                stats.delay_after <= stats.delay_before,
                "{engine} deepened {} ({} -> {})",
                bench.name,
                stats.delay_before,
                stats.delay_after
            );
            assert_suite_equiv(&bench.aig, &aig, &format!("{engine} on {}", bench.name));
        }
    }
}

#[test]
fn dacpara_thread_sweep_is_sound() {
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .find(|b| b.name == "twentythree")
        .expect("mtm benchmark");
    for threads in [1, 2, 4, 8] {
        let mut aig = bench.aig.clone();
        let cfg = RewriteConfig::rewrite_op().with_threads(threads);
        let stats = run_engine(&mut aig, Engine::DacPara, &cfg).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before, "threads = {threads}");
        assert_suite_equiv(&bench.aig, &aig, &format!("dacpara x{threads}"));
    }
}

#[test]
fn repeated_passes_reach_a_fixpoint_neighborhood() {
    use dacpara_aig::AigRead;
    let suite = full_suite(Scale::Test);
    let bench = &suite[0];
    let mut aig = bench.aig.clone();
    let cfg = RewriteConfig::rewrite_op().with_threads(2);
    let mut areas = Vec::new();
    for _ in 0..3 {
        run_engine(&mut aig, Engine::DacPara, &cfg).unwrap();
        areas.push(aig.num_ands());
    }
    assert!(areas[0] >= areas[1] && areas[1] >= areas[2], "{areas:?}");
    assert_suite_equiv(&bench.aig, &aig, "three dacpara passes");
}
