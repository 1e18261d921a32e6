//! Explore the generated NPN structure library: per-class structure counts
//! and sizes.
//!
//! Run with: `cargo run --release --example library_explorer`

use dacpara_npn::{ClassId, ClassRegistry};
use dacpara_nst::NpnLibrary;

fn main() {
    let reg = ClassRegistry::global();
    let base = NpnLibrary::global();
    println!(
        "structure library: {} classes, {} structures total",
        base.num_classes(),
        base.num_structures()
    );

    // Size histogram of the best structure per class.
    let mut histogram = std::collections::BTreeMap::<usize, usize>::new();
    for id in 0..reg.len() as ClassId {
        *histogram.entry(base.min_size(id)).or_insert(0) += 1;
    }
    println!("\nbest-structure size histogram (gates -> classes):");
    for (size, count) in &histogram {
        println!(
            "  {size:>2} gates: {count:>3} classes  {}",
            "#".repeat(*count / 2 + 1)
        );
    }

    // A few well-known functions.
    println!("\nfamiliar functions:");
    for (name, tt) in [
        ("maj(a,b,c)", dacpara_npn::Tt4::from_raw(0xE8E8)),
        ("a^b^c^d", dacpara_npn::Tt4::from_raw(0x6996)),
        ("mux(a;b,c)", dacpara_npn::Tt4::from_raw(0xD8D8)),
        ("and4", dacpara_npn::Tt4::from_raw(0x8000)),
    ] {
        let id = reg.class_of(tt);
        println!(
            "  {name:<12} class {id:>3}: best {} gates ({} structures)",
            base.min_size(id),
            base.structures(id).len()
        );
    }
}
