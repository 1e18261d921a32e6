//! Memo-probe accounting of `CutStore::try_cuts`: every cut set a request
//! needs — the requested node's, and each fanin set of an AND node it
//! computes — counts exactly once, as a miss when the call computes it and
//! as a hit when the memo serves it. So `cut.memo_misses` is the number of
//! sets computed.
//!
//! Lives in its own integration-test file (= its own process) because it
//! drives the process-global obs registry; keep it to a single `#[test]`.

use dacpara_aig::{Aig, Lit};
use dacpara_cut::{CutConfig, CutStore};

/// `(hits, misses)` counted by `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let hits = || dacpara_obs::counter("cut.memo_hits").value();
    let misses = || dacpara_obs::counter("cut.memo_misses").value();
    let (h0, m0) = (hits(), misses());
    f();
    (hits() - h0, misses() - m0)
}

/// Five inputs and the AND chain `((((i0 & i1) & i2) & i3) & i4)`.
fn chain() -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let ins: Vec<_> = (0..5).map(|_| aig.add_input()).collect();
    let mut ands = Vec::new();
    let mut acc = ins[0];
    for &i in &ins[1..] {
        acc = aig.add_and(acc, i);
        ands.push(acc);
    }
    aig.add_output(acc);
    (aig, ands)
}

#[test]
fn each_needed_set_counts_once() {
    dacpara_obs::reset();
    dacpara_obs::enable();

    let (aig, ands) = chain();
    let top = ands[3].node();
    let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());

    // Cold: all nine sets (five inputs, four ANDs) are computed.
    assert_eq!(
        counted(|| {
            let _ = store.cuts(&aig, top);
        }),
        (0, 9)
    );
    // Warm: the request itself is served.
    assert_eq!(
        counted(|| {
            let _ = store.cuts(&aig, top);
        }),
        (1, 0)
    );
    // Only the top set missing: one computation over two served fanins.
    store.invalidate(top);
    assert_eq!(
        counted(|| {
            let _ = store.cuts(&aig, top);
        }),
        (2, 1)
    );
    // The four AND sets missing: each is computed once, and each input set
    // is served once to the AND that reads it.
    store.invalidate_tfo(&aig, ands[0].node());
    assert_eq!(
        counted(|| {
            let _ = store.cuts(&aig, top);
        }),
        (5, 4)
    );
    // `get` is a plain lookup and counts nothing.
    assert_eq!(counted(|| assert!(store.get(&aig, top).is_some())), (0, 0));

    // Reconvergence: `x = a & b` feeds both `y = x & c` and `z = x & y`.
    // `z` needs `x` twice; the second need finds it computed for `y`.
    let mut aig = Aig::new();
    let (a, b, c) = (aig.add_input(), aig.add_input(), aig.add_input());
    let x = aig.add_and(a, b);
    let y = aig.add_and(x, c);
    let z = aig.add_and(x, y);
    aig.add_output(z);
    let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
    assert_eq!(
        counted(|| {
            let _ = store.cuts(&aig, z.node());
        }),
        (1, 6)
    );

    dacpara_obs::disable();
}
