//! Property battery for the fill-reducing ordering pipeline.
//!
//! The KLU-style sparse path orders the DC pattern with approximate minimum
//! degree (AMD), optionally nested inside the analyzer's BTF block
//! partition, before the CSC left-looking factorization runs. These tests
//! pin the contracts the solver and the W006 forecast both lean on:
//!
//! * `amd_order` always returns a permutation, on every pattern we can
//!   generate — random resistor networks and all synthetic power grids;
//! * ordering is byte-deterministic across repeats and exec thread counts
//!   (it is serial code over ordered containers; `AMS_EXEC_THREADS` must
//!   not leak in);
//! * `compose_block_order` respects the BTF partition: each block is
//!   AMD-ordered *within* its slot and blocks keep their topological
//!   position;
//! * the symbolic fill forecast computed on the composed order tracks the
//!   fill the CSC kernel actually produces, within a documented band.

use ams::prelude::*;
use ams_lint::{
    amd_order, analyze_circuit_structure, compose_block_order, elimination_fill, symmetrize_pattern,
};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_sim::{Backend, MnaLayout};

fn is_permutation(p: &[u32], n: usize) -> bool {
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    p.iter().all(|&v| {
        let v = v as usize;
        v < n && !std::mem::replace(&mut seen[v], true)
    })
}

/// Row-major DC sparsity pattern of a circuit, mirroring the stamp schema
/// of `ams_sim::dc`: resistors couple their node pair, voltage sources and
/// inductors couple node and branch rows, capacitors are open, current
/// sources only touch the right-hand side.
fn dc_pattern(ckt: &Circuit) -> Vec<Vec<u32>> {
    let layout = MnaLayout::new(ckt);
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); layout.dim()];
    let entry = |rows: &mut Vec<Vec<u32>>, i: Option<usize>, j: Option<usize>| {
        if let (Some(i), Some(j)) = (i, j) {
            rows[i].push(j as u32);
        }
    };
    for (idx, (_name, dev)) in ckt.devices().enumerate() {
        match dev {
            Device::Resistor { a, b, .. } => {
                let (a, b) = (layout.node(*a), layout.node(*b));
                entry(&mut rows, a, a);
                entry(&mut rows, a, b);
                entry(&mut rows, b, a);
                entry(&mut rows, b, b);
            }
            Device::Vsource { plus, minus, .. }
            | Device::Inductor {
                a: plus, b: minus, ..
            } => {
                let br = Some(layout.branch(idx).expect("branch row"));
                let (p, m) = (layout.node(*plus), layout.node(*minus));
                entry(&mut rows, br, p);
                entry(&mut rows, br, m);
                entry(&mut rows, p, br);
                entry(&mut rows, m, br);
            }
            Device::Isource { .. } | Device::Capacitor { .. } => {}
            other => panic!("unexpected device in ordering deck: {other:?}"),
        }
    }
    for r in &mut rows {
        r.sort_unstable();
        r.dedup();
    }
    rows
}

/// Same connected ground-anchored generator as `sparse_equivalence.rs`, so
/// the ordering sees exactly the patterns the backend-equivalence battery
/// solves.
fn random_r_network(rng: &mut SmallRng) -> Circuit {
    let n_nodes = rng.gen_range(3usize..10);
    let mut ckt = Circuit::new();
    let mut nodes = vec![Circuit::GROUND];
    for u in 1..=n_nodes {
        nodes.push(ckt.node(&format!("n{u}")));
    }
    for u in 0..n_nodes {
        let ohms = rng.gen_range(10.0..1e3);
        ckt.add(
            &format!("R{u}"),
            Device::resistor(nodes[u], nodes[u + 1], ohms),
        );
    }
    for c in 0..rng.gen_range(0usize..6) {
        let a = rng.gen_range(0usize..=n_nodes);
        let b = rng.gen_range(1usize..=n_nodes);
        if a != b {
            ckt.add(
                &format!("Rc{c}"),
                Device::resistor(nodes[a], nodes[b], rng.gen_range(10.0..1e3)),
            );
        }
    }
    for i in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(1usize..=n_nodes);
        ckt.add(
            &format!("I{i}"),
            Device::idc(Circuit::GROUND, nodes[at], rng.gen_range(-1e-3..1e-3)),
        );
    }
    ckt
}

fn grid_circuit(n: usize) -> Circuit {
    use ams::rail::{GridSpec, PowerGrid};
    PowerGrid::uniform(GridSpec::synthetic(n), 10e-6).to_circuit()
}

/// AMD returns a valid permutation on 64 seeded random R-networks and on
/// every synthetic grid the scaling bench exercises, and on the grids it
/// never loses to the natural (identity) elimination order.
#[test]
fn amd_is_a_valid_permutation_everywhere() {
    let mut rng = SmallRng::seed_from_u64(0x0a3d_0001);
    for case in 0..64 {
        let ckt = random_r_network(&mut rng);
        let adj = symmetrize_pattern(&dc_pattern(&ckt));
        let ord = amd_order(&adj);
        assert!(
            is_permutation(&ord, adj.len()),
            "case {case}: AMD order is not a permutation of 0..{}",
            adj.len()
        );
    }
    for n in [4usize, 8, 12, 16, 24, 32] {
        let adj = symmetrize_pattern(&dc_pattern(&grid_circuit(n)));
        let ord = amd_order(&adj);
        assert!(is_permutation(&ord, adj.len()), "{n}x{n} grid");
        let natural: Vec<u32> = (0..adj.len() as u32).collect();
        let amd_fill = elimination_fill(&adj, &ord);
        let natural_fill = elimination_fill(&adj, &natural);
        assert!(
            amd_fill <= natural_fill,
            "{n}x{n} grid: AMD fill {amd_fill} worse than natural order {natural_fill}"
        );
    }
}

/// The elimination order is byte-identical across 16 repeats and across
/// exec thread counts 1/2/8 (the `AMS_EXEC_THREADS` contract): ordering is
/// serial code over ordered containers, so worker count must be invisible.
#[test]
fn ordering_is_byte_deterministic_across_repeats_and_threads() {
    let mut patterns: Vec<Vec<Vec<u32>>> = vec![symmetrize_pattern(&dc_pattern(&grid_circuit(16)))];
    let mut rng = SmallRng::seed_from_u64(0x0a3d_0002);
    for _ in 0..8 {
        patterns.push(symmetrize_pattern(&dc_pattern(&random_r_network(&mut rng))));
    }
    for (pi, adj) in patterns.iter().enumerate() {
        let reference = amd_order(adj);
        for rep in 0..16 {
            assert_eq!(
                amd_order(adj),
                reference,
                "pattern {pi}: repeat {rep} diverged"
            );
        }
        for threads in [1usize, 2, 8] {
            ams_exec::set_threads(Some(threads));
            let ord = amd_order(adj);
            ams_exec::set_threads(None);
            assert_eq!(ord, reference, "pattern {pi}: {threads} threads diverged");
        }
    }
}

/// BTF∘AMD composition round-trips: on a pattern with a genuine block
/// partition, the composed order is a permutation, every block's slots are
/// filled by exactly that block's columns (AMD runs *within* blocks), and
/// trivial blocks (size ≤ 2) pass through in BTF order untouched.
#[test]
fn composed_block_order_respects_the_partition() {
    // The 16x16 grid carries voltage/inductor branch rows, so the
    // analyzer's fine BTF decomposition is nontrivial (1x1 chains around
    // the irreducible mesh core).
    let ckt = grid_circuit(16);
    let analysis = analyze_circuit_structure(&ckt);
    let btf = analysis.btf.as_ref().expect("grid BTF decomposition");
    let adj = symmetrize_pattern(&dc_pattern(&ckt));
    assert_eq!(btf.perm.len(), adj.len(), "BTF covers the full system");

    let composed = compose_block_order(&adj, &btf.perm, &btf.block_ptr);
    assert!(is_permutation(&composed, adj.len()));

    let mut saw_big_block = false;
    for w in btf.block_ptr.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let mut slot: Vec<u32> = composed[lo..hi].to_vec();
        let mut block: Vec<u32> = btf.perm[lo..hi].to_vec();
        if hi - lo <= 2 {
            // Trivial blocks keep their exact BTF sequence.
            assert_eq!(slot, block, "trivial block {lo}..{hi} reordered");
        } else {
            saw_big_block = true;
            slot.sort_unstable();
            block.sort_unstable();
            assert_eq!(slot, block, "block {lo}..{hi} leaked columns");
        }
    }
    assert!(saw_big_block, "grid must contain an irreducible mesh block");

    // Composition never does worse than eliminating in raw BTF order.
    let composed_fill = elimination_fill(&adj, &composed);
    let btf_fill = elimination_fill(&adj, &btf.perm);
    assert!(
        composed_fill <= btf_fill,
        "composed fill {composed_fill} worse than raw BTF order {btf_fill}"
    );
}

/// The W006 forecast — exact symbolic fill of the composed BTF∘AMD order —
/// tracks the fill the CSC kernel actually produces on the bench grids.
///
/// The kernel follows the same order but threshold pivoting may deviate
/// where the mirror pivot is numerically weak, so exact agreement is not
/// required; the documented band is a factor of 2 either way.
#[test]
fn grid_fill_forecast_tracks_actual_csc_fill() {
    // This test owns the trace toggle for the whole binary: no other test
    // here performs sparse solves, so each counter delta is attributable
    // to one grid's solve alone.
    for n in [8usize, 16, 24, 32, 48, 64, 96, 128] {
        let ckt = grid_circuit(n);
        let analysis = analyze_circuit_structure(&ckt);
        assert!(analysis.is_structurally_nonsingular(), "{n}x{n} grid");

        ams_trace::set_enabled(true);
        let before = ams_trace::snapshot().counters;
        let op = ams_sim::SimSession::with_backend(&ckt, Backend::Sparse)
            .op()
            .expect("grid DC");
        let after = ams_trace::snapshot().counters;
        ams_trace::set_enabled(false);
        assert!(op.iterations > 0);

        let delta = ams_trace::counters_delta(&before, &after);
        let get = |key: &str| delta.iter().find(|(k, _)| k == key).map_or(0, |&(_, v)| v);
        assert!(get("sim.sparse.amd_orders") > 0, "{n}x{n}: AMD never ran");
        let factors = get("sim.sparse.symbolic").max(1);
        let actual = (get("sim.sparse.fill_in") / factors).max(1);
        let predicted = analysis.predicted_fill.max(1);
        let ratio = predicted as f64 / actual as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{n}x{n}: predicted {predicted} vs actual {actual} (ratio {ratio:.3}) \
             outside the documented 2x band"
        );
    }
}
