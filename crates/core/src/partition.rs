//! Partition-based (coarse-grain) parallel rewriting, in the style of Liu &
//! Zhang (FPGA'17) — reference [15] of the paper: "achieved parallelism by
//! decomposing a large design into multiple smaller subnets that can be
//! optimized simultaneously".
//!
//! The graph is split into disjoint regions by claiming output cones
//! round-robin; each region is extracted into a private sub-AIG whose
//! inputs are the region's imports (PIs and nodes owned by other regions)
//! and whose outputs are its exported signals. The sub-AIGs are optimized
//! *serially and independently* — embarrassingly parallel, no locks, but
//! also no optimization across region boundaries, which is the quality
//! ceiling this family of methods hits and one motivation for DACPara's
//! finer-grained approach.

use std::collections::HashMap;

use dacpara_aig::{Aig, AigError, AigRead, Lit, NodeId, NodeKind};
use dacpara_galois::parallel_for;
use parking_lot::Mutex;

use crate::eval::EvalContext;
use crate::pass::Pass;
use crate::{serial, RewriteConfig};

/// One extracted region.
struct Region {
    /// Imports in deterministic order (PIs or other regions' nodes).
    imports: Vec<NodeId>,
    /// Exported original node ids, in deterministic order.
    exports: Vec<NodeId>,
    /// The extracted (later: optimized) sub-AIG; `imports[i]` is its input
    /// `i`, `exports[j]` its output `j`.
    sub: Aig,
}

/// One partition run over `2 × threads` regions.
///
/// # Errors
///
/// Propagates the first error of the per-region serial runs (a
/// replacement that fails its certificate; the serial arena grows on
/// demand).
pub(crate) fn run(
    aig: &mut Aig,
    cfg: &RewriteConfig,
    ctx: &EvalContext,
    pass: &Pass,
) -> Result<(), AigError> {
    regions(aig, cfg, ctx, pass, 2 * cfg.threads)
}

/// One claim → extract → optimize → stitch over `parts` regions.
fn regions(
    aig: &mut Aig,
    cfg: &RewriteConfig,
    ctx: &EvalContext,
    pass: &Pass,
    parts: usize,
) -> Result<(), AigError> {
    aig.cleanup();

    // ---- 1. Claim regions: output cones round-robin, first claim wins.
    let slots = aig.slot_count();
    let mut part_of: Vec<u32> = vec![u32::MAX; slots];
    for (k, &po) in aig.outputs().iter().enumerate() {
        let p = (k % parts) as u32;
        let mut stack = vec![po.node()];
        while let Some(n) = stack.pop() {
            if aig.kind(n) != NodeKind::And || part_of[n.index()] != u32::MAX {
                continue;
            }
            part_of[n.index()] = p;
            for l in aig.fanins(n) {
                stack.push(l.node());
            }
        }
    }

    // ---- 2. Extract each region into a private sub-AIG.
    let topo = dacpara_aig::topo_ands(aig);
    let mut regions: Vec<Option<Region>> = Vec::with_capacity(parts);
    for p in 0..parts as u32 {
        let nodes: Vec<NodeId> = topo
            .iter()
            .copied()
            .filter(|n| part_of[n.index()] == p)
            .collect();
        if nodes.is_empty() {
            regions.push(None);
            continue;
        }
        let in_region = |n: NodeId| aig.kind(n) == NodeKind::And && part_of[n.index()] == p;
        // Imports: fanins outside the region (PIs or foreign nodes).
        let mut imports: Vec<NodeId> = Vec::new();
        for &n in &nodes {
            for l in aig.fanins(n) {
                let v = l.node();
                if v != NodeId::CONST0 && !in_region(v) && !imports.contains(&v) {
                    imports.push(v);
                }
            }
        }
        imports.sort_unstable();
        // Exports: region nodes used by foreign nodes or primary outputs.
        let mut exports: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&n| {
                aig.fanouts(n).iter().any(|&f| !in_region(f))
                    || aig.outputs().iter().any(|po| po.node() == n)
            })
            .collect();
        exports.sort_unstable();

        let mut sub = Aig::new();
        let mut map: HashMap<NodeId, Lit> = HashMap::new();
        for &i in &imports {
            map.insert(i, sub.add_input());
        }
        for &n in &nodes {
            let [a, b] = aig.fanins(n);
            let la = resolve(&map, a);
            let lb = resolve(&map, b);
            map.insert(n, sub.add_and(la, lb));
        }
        for &e in &exports {
            let l = map[&e];
            sub.add_output(l);
        }
        regions.push(Some(Region {
            imports,
            exports,
            sub,
        }));
    }

    // ---- 3. Optimize every region independently, in parallel, each with
    // one serial run into the pass's ledger.
    let slots_vec: Vec<Mutex<Option<Region>>> = regions.into_iter().map(Mutex::new).collect();
    let indices: Vec<usize> = (0..slots_vec.len()).collect();
    parallel_for(cfg.threads, &indices, |_, &i| {
        if pass.error.is_set() {
            return;
        }
        if let Some(region) = slots_vec[i].lock().as_mut() {
            if let Err(e) = serial::run(&mut region.sub, cfg, ctx, pass) {
                pass.error.record(e);
            }
        }
    });
    if let Some(e) = pass.error.take() {
        return Err(e);
    }
    let regions: Vec<Option<Region>> = slots_vec.into_iter().map(|m| m.into_inner()).collect();

    // ---- 4. Stitch: realize every exported signal in a fresh graph.
    let mut out = Aig::new();
    let mut pi_map: HashMap<NodeId, Lit> = HashMap::new();
    for &pi in aig.inputs() {
        pi_map.insert(pi, out.add_input());
    }
    // Per-region memo of sub-node -> final literal.
    let mut region_maps: Vec<HashMap<NodeId, Lit>> = (0..parts).map(|_| HashMap::new()).collect();
    let mut realized: HashMap<NodeId, Lit> = pi_map.clone();

    // Resolve exported signals in global topological order: an export's
    // sub-cone only references imports that are strictly below it in the
    // original graph, so earlier topo entries are always ready.
    for &n in &topo {
        let p = part_of[n.index()];
        if p == u32::MAX {
            continue; // unreachable node (cleaned above, defensive)
        }
        let region = regions[p as usize].as_ref().expect("claimed region exists");
        let Some(export_pos) = region.exports.iter().position(|&e| e == n) else {
            continue; // interior node: realized implicitly if needed
        };
        // Instantiate the sub-cone of this export into `out`.
        let sub = &region.sub;
        let sub_po = sub.outputs()[export_pos];
        let value = instantiate(
            sub,
            sub_po,
            &region.imports,
            &realized,
            &mut region_maps[p as usize],
            &mut out,
        );
        realized.insert(n, value);
    }
    for &po in aig.outputs() {
        let l = if po.node() == NodeId::CONST0 {
            Lit::FALSE
        } else {
            realized[&po.node()]
        };
        out.add_output(l.xor(po.is_complement()));
    }
    out.cleanup();
    *aig = out;
    aig.recompute_levels();
    Ok(())
}

fn resolve(map: &HashMap<NodeId, Lit>, l: Lit) -> Lit {
    if l.node() == NodeId::CONST0 {
        return l;
    }
    map[&l.node()].xor(l.is_complement())
}

/// Copies the cone of `sub_po` (a literal in `sub`) into `out`, wiring the
/// sub-AIG's inputs to already-realized signals.
fn instantiate(
    sub: &Aig,
    sub_po: Lit,
    imports: &[NodeId],
    realized: &HashMap<NodeId, Lit>,
    memo: &mut HashMap<NodeId, Lit>,
    out: &mut Aig,
) -> Lit {
    // Seed the memo with every import realized so far. Imports that are
    // still missing belong to exports *above* the one being instantiated
    // (global topological order), so this cone cannot need them.
    for (k, &orig) in imports.iter().enumerate() {
        let sub_in = sub.inputs()[k];
        if let Some(&lit) = realized.get(&orig) {
            memo.entry(sub_in).or_insert(lit);
        }
    }
    let mut stack = vec![sub_po.node()];
    while let Some(top) = stack.pop() {
        if memo.contains_key(&top) || top == NodeId::CONST0 {
            continue;
        }
        debug_assert_eq!(sub.kind(top), NodeKind::And, "unseeded sub input");
        let [a, b] = sub.fanins(top);
        let ra = if a.node() == NodeId::CONST0 {
            Some(Lit::FALSE)
        } else {
            memo.get(&a.node()).copied()
        };
        let rb = if b.node() == NodeId::CONST0 {
            Some(Lit::FALSE)
        } else {
            memo.get(&b.node()).copied()
        };
        match (ra, rb) {
            (Some(ra), Some(rb)) => {
                let lit = out.add_and(ra.xor(a.is_complement()), rb.xor(b.is_complement()));
                memo.insert(top, lit);
            }
            _ => {
                stack.push(top);
                if ra.is_none() {
                    stack.push(a.node());
                }
                if rb.is_none() {
                    stack.push(b.node());
                }
            }
        }
    }
    let root = if sub_po.node() == NodeId::CONST0 {
        Lit::FALSE
    } else {
        memo[&sub_po.node()]
    };
    root.xor(sub_po.is_complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::run_pass;
    use crate::testkit::assert_equiv;
    use crate::{run_engine, Engine, RewriteStats};
    use dacpara_circuits::{arith, control, mtm, MtmParams};

    fn cfg() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads: 3,
            ..RewriteConfig::rewrite_op()
        }
    }

    /// One partition pass over `parts` regions.
    fn rewrite_regions(aig: &mut Aig, parts: usize) -> RewriteStats {
        let cfg = cfg();
        let ctx = EvalContext::new(&cfg);
        run_pass(
            aig,
            |aig| aig,
            Engine::Partition,
            &cfg,
            |aig, pass| regions(aig, &cfg, &ctx, pass, parts),
        )
        .unwrap()
    }

    #[test]
    fn single_partition_matches_serial_behaviour() {
        let golden = control::voter(15);
        let mut partitioned = golden.clone();
        rewrite_regions(&mut partitioned, 1);
        partitioned.check().unwrap();
        let mut serial = golden.clone();
        run_engine(&mut serial, Engine::AbcRewrite, &cfg()).unwrap();
        // One region = the whole graph; the extraction renumbers nodes, so
        // the greedy engine visits in a different order and the areas can
        // differ by a few percent — but must stay in the same ballpark.
        let (a, b) = (partitioned.num_ands(), serial.num_ands());
        assert!(
            a.abs_diff(b) * 8 <= b.max(1),
            "partitioned {a} vs serial {b}"
        );
        assert_equiv(&golden, &partitioned);
    }

    #[test]
    fn many_partitions_stay_equivalent() {
        let golden = arith::multiplier(8);
        for parts in [2, 4, 8] {
            let mut aig = golden.clone();
            let stats = rewrite_regions(&mut aig, parts);
            aig.check().unwrap();
            assert!(stats.area_after <= stats.area_before, "{parts} parts");
            assert_equiv(&golden, &aig);
        }
    }

    #[test]
    fn boundary_freezing_stays_in_the_serial_ballpark() {
        // Frozen boundaries deny cross-region optimization; node-order
        // effects can offset a little of that, so assert the partitioned
        // quality lands within ±15% of the serial engine rather than a
        // strict ordering (the *mechanism* — skipped boundary cuts — is
        // exercised either way, and equivalence must always hold).
        let golden = mtm(&MtmParams {
            inputs: 32,
            gates: 2500,
            outputs: 16,
            seed: 21,
        });
        let mut serial = golden.clone();
        let s = run_engine(&mut serial, Engine::AbcRewrite, &cfg()).unwrap();
        let mut part = golden.clone();
        let p = rewrite_regions(&mut part, 8);
        let (pr, sr) = (p.area_reduction(), s.area_reduction());
        assert!(
            pr.abs_diff(sr) * 100 <= sr.max(1) * 15,
            "partitioned {pr} vs serial {sr}"
        );
        assert_equiv(&golden, &part);
    }

    #[test]
    fn handles_constant_and_repeated_outputs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        aig.add_output(ab);
        aig.add_output(dacpara_aig::Lit::TRUE);
        let golden = aig.clone();
        rewrite_regions(&mut aig, 3);
        aig.check().unwrap();
        assert_equiv(&golden, &aig);
    }
}
