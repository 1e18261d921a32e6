//! The paper's Fig. 3 scenario, executed on the real machinery:
//!
//! A node's best replacement is *stored* (as DACPara's `prepInfo` does
//! between the evaluation and replacement stages), then a transitive-fanin
//! rewrite deletes some of the stored cut's leaves and recycles their slot
//! IDs for new nodes with different logic. The replacement stage must
//! notice — via generation stamps, re-enumeration with leaf matching, and
//! the NPN-class check — instead of applying a now-wrong structure.
//!
//! Run with: `cargo run --example cut_invalidation`

use dacpara::validity::verify_cut;
use dacpara::{evaluate_node, EvalContext, RewriteConfig};
use dacpara_aig::{Aig, AigRead};
use dacpara_cut::{CutConfig, CutStore};
use dacpara_npn::ClassRegistry;
use dacpara_nst::NpnLibrary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Build the scene: a wasteful majority cone feeding a consumer.
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let c = aig.add_input();
    let d = aig.add_input();
    let or = aig.add_or(b, c);
    let an = aig.add_and(b, c);
    let root = aig.add_mux(a, or, an); // maj(a,b,c), 5 gates instead of 4
    let n2 = aig.add_and(root, d); // the consumer whose cut we will store
    aig.add_output(n2);
    aig.check()?;
    println!(
        "graph: {} ANDs; consumer n2 = {:?}",
        aig.num_ands(),
        n2.node()
    );

    // ---- "Stage 2": evaluate n2 and store its best candidate (prepInfo).
    let ctx = EvalContext::new(&RewriteConfig {
        num_classes: 222,
        use_zeros: true, // accept zero-gain so the demo reliably stores one
        preserve_level: false,
        ..RewriteConfig::rewrite_op()
    });
    let store = CutStore::new(aig.slot_count() * 2, CutConfig::unlimited());
    let cuts = store.cuts(&aig, n2.node());
    println!("n2 has {} cuts; e.g. leaves of the deepest:", cuts.len());
    let deep = cuts.iter().max_by_key(|c| c.len()).expect("cuts exist");
    println!("  {:?} (tt = {})", deep.leaves(), deep.tt());
    let Some(stored) = evaluate_node(&aig, n2.node(), cuts, &ctx) else {
        println!("(no stored candidate for n2 — nothing to invalidate)");
        return Ok(());
    };
    println!(
        "stored prepInfo for n2: leaves {:?}, gens {:?}, class {}, gain {}",
        stored.leaves(),
        stored.leaf_gens(),
        stored.class,
        stored.gain
    );

    // ---- Meanwhile, another thread rewrites the majority cone: the five
    // mux gates collapse to the 4-gate majority, deleting `or`/`an`/...
    let root_cuts = store.cuts(&aig, root.node());
    let cand = evaluate_node(&aig, root.node(), root_cuts, &ctx)
        .expect("the wasteful majority must be improvable");
    let new_root = dacpara::build_replacement(&mut aig, &cand, NpnLibrary::global())?;
    aig.replace(root.node(), new_root);
    aig.check()?;
    println!(
        "rewrote the majority cone: now {} ANDs; freed slots recycled: {}",
        aig.num_ands(),
        aig.slot_count()
    );

    // ---- "Stage 3": validate the stored cut on the latest AIG (§4.4).
    let fresh = stored
        .leaves()
        .iter()
        .zip(stored.leaf_gens())
        .map(|(&l, &g)| {
            let alive = aig.is_alive(l);
            let same_gen = alive && aig.generation(l) == g;
            println!(
                "  leaf {:?}: alive = {}, generation {} (stored {})",
                l,
                alive,
                if alive { aig.generation(l) } else { 0 },
                g
            );
            same_gen
        })
        // collect first: every leaf must be printed, `all` would short-circuit
        .collect::<Vec<bool>>()
        .into_iter()
        .all(|ok| ok);

    if fresh {
        println!("leaves untouched: Theorem 1 applies, the stored cut is still valid.");
    } else {
        println!("stored cut is STALE — running the re-validation protocol:");
        match verify_cut(&aig, n2.node(), stored.leaves()) {
            None => {
                println!("  -> the leaf set no longer cuts n2: candidate dropped");
            }
            Some((_, tt)) => {
                let reg = ClassRegistry::global();
                if tt == stored.tt {
                    println!("  -> same function after all: candidate may be re-evaluated");
                } else if reg.class_of(tt) == stored.class {
                    println!(
                        "  -> function changed ({} -> {}) but the NPN class matches: \
                         the stored structure is still usable after a transform refresh",
                        stored.tt, tt
                    );
                } else {
                    println!(
                        "  -> function changed ({} -> {}) and the class differs: \
                         applying the stored structure would corrupt logic; dropped",
                        stored.tt, tt
                    );
                }
            }
        }
    }
    println!("(this is exactly the decision tree of the paper's §4.4 / Fig. 3)");
    Ok(())
}
