//! Integration tests of the Galois-mini runtime under real contention:
//! speculative operators over a shared AIG must neither deadlock nor lose
//! updates.

use std::sync::atomic::{AtomicU64, Ordering};

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigRead};
use dacpara_galois::{parallel_for, LockTable, SpecStats};

fn diamond_chain(n: usize) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let mut acc = aig.add_and(a, b);
    for k in 0..n {
        let c = aig.add_input();
        let x = if k % 2 == 0 {
            aig.add_xor(acc, c)
        } else {
            aig.add_mux(acc, c, a)
        };
        acc = x;
    }
    aig.add_output(acc);
    aig
}

#[test]
fn speculative_ref_bumps_are_exclusive() {
    // Many workers "process" nodes by locking {node, fanins} and touching
    // shared per-node counters; the counters must come out exact.
    let aig = diamond_chain(64);
    let shared = ConcurrentAig::from_aig(&aig, 0, 1).unwrap();
    let nodes: Vec<_> = dacpara_aig::topo_ands(&shared);
    let touched: Vec<AtomicU64> = (0..shared.capacity()).map(|_| AtomicU64::new(0)).collect();
    let locks = LockTable::new(shared.capacity());
    let stats = SpecStats::new();
    let items: Vec<usize> = (0..nodes.len() * 8).collect();

    parallel_for(4, &items, |w, &i| {
        let owner = w.id as u32 + 1;
        let n = nodes[i % nodes.len()];
        let [a, b] = shared.fanins(n);
        let ids = vec![n.raw(), a.node().raw(), b.node().raw()];
        loop {
            let t = std::time::Instant::now();
            if let Some(_g) = locks.try_acquire(owner, &mut ids.clone(), &stats) {
                touched[n.index()].fetch_add(1, Ordering::Relaxed);
                stats.record_commit(t.elapsed());
                break;
            }
            stats.record_abort(t.elapsed());
            std::hint::spin_loop();
        }
    });
    let total: u64 = touched.iter().map(|t| t.load(Ordering::Relaxed)).sum();
    assert_eq!(total, (nodes.len() * 8) as u64);
    assert_eq!(stats.commits(), total);
    // Every failed acquisition is one conflict in the caller's ledger.
    assert_eq!(stats.conflicts(), stats.aborts());
}

#[test]
fn concurrent_structural_additions_are_consistent() {
    // Workers add AND gates over disjoint locked fanin pairs; the final
    // graph must pass the checker and contain no duplicate pairs.
    let mut aig = Aig::new();
    let inputs: Vec<_> = (0..32).map(|_| aig.add_input()).collect();
    let keep = aig.add_and(inputs[0], inputs[1]);
    aig.add_output(keep);
    // One spare slot per item: every item adds at most one gate.
    let items: Vec<usize> = (0..300).collect();
    let shared = ConcurrentAig::from_aig(&aig, items.len(), 4).unwrap();
    let locks = LockTable::new(shared.capacity());
    let spec = SpecStats::new();
    let ins = shared.input_ids();

    parallel_for(4, &items, |w, &i| {
        let owner = w.id as u32 + 1;
        let a = ins[i % ins.len()];
        let b = ins[(i * 7 + 3) % ins.len()];
        if a == b {
            return;
        }
        loop {
            if let Some(_g) = locks.try_acquire(owner, &mut [a.raw(), b.raw()], &spec) {
                let la = a.lit().xor(i % 3 == 0);
                let lb = b.lit().xor(i % 5 == 0);
                shared
                    .add_and_locked(la, lb)
                    .expect("one spare slot per item");
                break;
            }
            std::thread::yield_now();
        }
    });
    shared.check().expect("no duplicate pairs, consistent refs");
}

#[test]
fn concurrent_replacements_on_disjoint_cones() {
    // Two disjoint copies of a cone; workers replace the top of each copy
    // concurrently. Both replacements must land, and the result must be
    // equivalent to replacing them serially.
    let mut aig = Aig::new();
    let mut tops = Vec::new();
    for _ in 0..8 {
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let or = aig.add_or(b, c);
        let an = aig.add_and(b, c);
        let m = aig.add_mux(a, or, an);
        aig.add_output(m);
        tops.push(m.node());
    }
    let shared = ConcurrentAig::from_aig(&aig, 64, 4).unwrap();
    let locks = LockTable::new(shared.capacity());
    let spec = SpecStats::new();
    let outputs = shared.output_lits();

    parallel_for(4, &outputs, |w, out| {
        let owner = w.id as u32 + 1;
        let top = out.node();
        // Replace each mux-majority by its own AND(or, an)-ish
        // simplification: rebuild AND over the two fanins' fanins.
        let [f0, f1] = shared.fanins(top);
        let ids = vec![top.raw(), f0.node().raw(), f1.node().raw()];
        loop {
            if let Some(_g) = locks.try_acquire(owner, &mut ids.clone(), &spec) {
                // A trivial, function-changing-free replacement: re-point to
                // the same literal is a no-op; instead just exercise
                // delete/create by replacing with f0's regular node AND'ed
                // with TRUE (i.e. f0 itself).
                shared.replace_locked(top, f0);
                break;
            }
            std::thread::yield_now();
        }
    });
    let mut scratch = Vec::new();
    shared.canonicalize_traced(&mut scratch, &mut Vec::new());
    shared.cleanup_traced(&mut scratch);
    let back = shared.to_aig();
    back.check().unwrap();
    assert_eq!(back.num_outputs(), 8);
}
