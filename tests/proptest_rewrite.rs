//! Property tests of rewriting itself: on random circuits with at most six
//! inputs, every engine's output is *exhaustively* equivalent to its input
//! (all 2^n assignments in one simulation word).

use dacpara::{run_engine, Engine, RewriteConfig, RewriteSession};
use dacpara_suite::{build_from_recipe, exhaustively_equivalent, Op};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64usize, any::<bool>(), 0..64usize, any::<bool>())
            .prop_map(|(i, ci, j, cj)| Op::And(i, ci, j, cj)),
        (0..64usize, any::<bool>(), 0..64usize, any::<bool>())
            .prop_map(|(i, ci, j, cj)| Op::Xor(i, ci, j, cj)),
        (0..64usize, 0..64usize, 0..64usize).prop_map(|(s, t, e)| Op::Mux(s, t, e)),
    ]
}

fn small_circuit() -> impl Strategy<Value = (usize, Vec<Op>, usize)> {
    (
        3..6usize,
        prop::collection::vec(op_strategy(), 4..48),
        1..4usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_rewrite_is_exhaustively_sound((n_in, ops, n_out) in small_circuit()) {
        let golden = build_from_recipe(n_in, &ops, n_out);
        let mut aig = golden.clone();
        let cfg = RewriteConfig { num_classes: 222, ..RewriteConfig::rewrite_op() };
        run_engine(&mut aig, Engine::AbcRewrite, &cfg).unwrap();
        aig.check().unwrap();
        prop_assert!(exhaustively_equivalent(&golden, &aig));
    }

    #[test]
    fn dacpara_is_exhaustively_sound((n_in, ops, n_out) in small_circuit()) {
        let golden = build_from_recipe(n_in, &ops, n_out);
        let mut aig = golden.clone();
        let cfg = RewriteConfig { num_classes: 222, ..RewriteConfig::rewrite_op() }
            .with_threads(2);
        run_engine(&mut aig, Engine::DacPara, &cfg).unwrap();
        aig.check().unwrap();
        prop_assert!(exhaustively_equivalent(&golden, &aig));
    }

    #[test]
    fn lockstep_is_exhaustively_sound((n_in, ops, n_out) in small_circuit()) {
        let golden = build_from_recipe(n_in, &ops, n_out);
        let mut aig = golden.clone();
        let cfg = RewriteConfig { num_classes: 222, ..RewriteConfig::rewrite_op() }
            .with_threads(2);
        run_engine(&mut aig, Engine::Iccad18, &cfg).unwrap();
        aig.check().unwrap();
        prop_assert!(exhaustively_equivalent(&golden, &aig));
    }

    #[test]
    fn static_engines_are_exhaustively_sound((n_in, ops, n_out) in small_circuit()) {
        let golden = build_from_recipe(n_in, &ops, n_out);
        for engine in [Engine::Dac22, Engine::Tcad23] {
            let mut aig = golden.clone();
            let cfg = RewriteConfig::drw_op().with_threads(2);
            run_engine(&mut aig, engine, &cfg).unwrap();
            aig.check().unwrap();
            prop_assert!(exhaustively_equivalent(&golden, &aig), "{engine}");
        }
    }

    /// Across thread counts and multi-pass sessions, speculation
    /// accounting stays exact: every attempted activity ends in exactly one
    /// commit or abort, and once a pass converges the dirty set stays empty
    /// so later passes skip at least as many clean nodes.
    #[test]
    fn scheduler_accounting_is_exact_across_passes(
        (n_in, ops, n_out) in small_circuit(),
        t_idx in 0..3usize,
        passes in 1..4usize,
    ) {
        let threads = [1usize, 2, 4][t_idx];
        let golden = build_from_recipe(n_in, &ops, n_out);
        for engine in [Engine::DacPara, Engine::Iccad18] {
            let cfg = RewriteConfig { num_classes: 222, ..RewriteConfig::rewrite_op() }
                .with_threads(threads);
            let mut session = RewriteSession::new(&golden, &cfg).unwrap();
            let mut history = Vec::new();
            for _ in 0..passes {
                let stats = session.run(engine).unwrap();
                prop_assert_eq!(
                    stats.spec.commits + stats.spec.aborts,
                    stats.spec.attempts,
                    "{} x{}: attempt accounting", engine, threads
                );
                history.push((session.converged(), stats.clean_skipped));
            }
            let aig = session.finish();
            aig.check().unwrap();
            prop_assert!(exhaustively_equivalent(&golden, &aig), "{}", engine);
            for w in history.windows(2) {
                if w[0].0 {
                    prop_assert!(
                        w[1].1 >= w[0].1,
                        "{}: clean_skipped shrank after convergence ({} -> {})",
                        engine, w[0].1, w[1].1
                    );
                }
            }
        }
    }

    /// Rewriting with zero-gain acceptance still never grows the graph and
    /// stays sound.
    #[test]
    fn use_zeros_is_sound((n_in, ops, n_out) in small_circuit()) {
        use dacpara_aig::AigRead;
        let golden = build_from_recipe(n_in, &ops, n_out);
        let mut aig = golden.clone();
        let cfg = RewriteConfig {
            num_classes: 222,
            use_zeros: true,
            ..RewriteConfig::rewrite_op()
        };
        run_engine(&mut aig, Engine::AbcRewrite, &cfg).unwrap();
        prop_assert!(aig.num_ands() <= golden.num_ands());
        prop_assert!(exhaustively_equivalent(&golden, &aig));
    }
}
