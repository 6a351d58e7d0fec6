//! Backend equivalence: every circuit the toolkit can simulate must produce
//! the same answer on the dense backend and on the sparse backend's
//! KLU-style BTF∘AMD + CSC left-looking kernel.
//!
//! Dense LU with partial pivoting is the trusted reference (it is gated by
//! the analytic golden tests). The sparse path shares the Newton loop and
//! the stamps, so any divergence beyond roundoff accumulation is a pivot,
//! ordering, or fill-in bug in `ams_sim::sparse` / `ams_sim::csc`. The
//! gate is 1e-9 — absolute near zero, relative elsewhere — far above the
//! ~1e-13 observed from pivot-order differences, far below any physical
//! effect.
//!
//! Tests pin their backend explicitly, so the one test that sets the
//! process-wide `AMS_SIM_BACKEND` override does not disturb the others.

use ams::prelude::*;
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_sim::Backend;
use ams_topology::BlockClass;

/// |a − b| ≤ 1e-9·max(|b|, 1) element-wise over two solution vectors.
fn assert_vectors_close(dense: &[f64], sparse: &[f64], what: &str) {
    assert_eq!(dense.len(), sparse.len(), "{what}: dimension mismatch");
    for (i, (d, s)) in dense.iter().zip(sparse).enumerate() {
        let tol = 1e-9 * d.abs().max(1.0);
        assert!(
            (d - s).abs() <= tol,
            "{what}: unknown {i} dense {d:.12e} vs sparse {s:.12e}"
        );
    }
}

fn solve_both(ckt: &Circuit, what: &str) -> Vec<f64> {
    let dense = SimSession::with_backend(ckt, Backend::Dense)
        .op()
        .unwrap_or_else(|e| panic!("{what}: dense solve failed: {e}"));
    let sparse = SimSession::with_backend(ckt, Backend::Sparse)
        .op()
        .unwrap_or_else(|e| panic!("{what}: sparse solve failed: {e}"));
    assert_vectors_close(&dense.x, &sparse.x, what);
    dense.x
}

/// Walks all six device-level exemplar decks through [`solve_both`] and
/// returns how many were checked.
fn check_exemplar_decks(label: &str) -> usize {
    let lib = TopologyLibrary::standard();
    let mut checked = 0;
    for t in lib.of_class(BlockClass::Opamp).into_iter().chain(
        lib.of_class(BlockClass::Comparator)
            .into_iter()
            .chain(lib.of_class(BlockClass::Adc))
            .chain(lib.of_class(BlockClass::PulseFrontend))
            .chain(lib.of_class(BlockClass::Filter)),
    ) {
        let Some(deck) = &t.exemplar_deck else {
            continue;
        };
        let ckt = parse_deck(deck).unwrap_or_else(|e| panic!("{}: parse: {e}", t.name));
        solve_both(&ckt, &format!("{} [{label}]", t.name));
        checked += 1;
    }
    checked
}

/// Every device-level exemplar deck in the topology library — MOS opamps,
/// the comparator, the pulse frontend — biases identically on both
/// backends. These decks exercise the nonlinear stamps (MOS in all
/// regions), controlled sources, and the gmin/source-stepping ladder.
#[test]
fn every_exemplar_deck_agrees_across_backends() {
    // The library carries six exemplars (four opamps, comparator, pulse
    // frontend); a silent drop here would gut the test.
    assert_eq!(check_exemplar_decks("auto"), 6, "exemplar coverage shrank");
}

/// The CSC kernel's leg of the exemplar contract: the left-looking kernel,
/// its AMD ordering, and its equilibration pass hold the 1e-9
/// dense-equivalence bound on small, unsymmetric, nonlinear systems — not
/// just on the grids it was built for. Every sparse solve runs on CSC, so
/// this leg repeats the solves of the one above.
#[test]
fn every_exemplar_deck_agrees_on_the_csc_kernel() {
    assert_eq!(check_exemplar_decks("csc"), 6, "exemplar coverage shrank");
}

/// 32×32 power grid (≈1k unknowns, past the auto-sparse threshold): the
/// full DC drop map matches between backends, and the map is physically
/// sane — pads sit at VDD minus a small pad-resistance drop, the center
/// tap sees the deepest droop.
#[test]
fn power_grid_32x32_drop_map_agrees() {
    use ams::rail::{GridSpec, PowerGrid};
    let spec = GridSpec::synthetic(32);
    let vdd = spec.vdd;
    let grid = PowerGrid::uniform(spec, 10e-6);
    let ckt = grid.to_circuit();
    let ses = SimSession::with_backend(&ckt, Backend::Sparse);
    let op_sparse = ses.op().expect("sparse 32x32 grid DC");
    let op_dense = SimSession::with_backend(&ckt, Backend::Dense)
        .op()
        .expect("dense 32x32 grid DC");
    assert_vectors_close(&op_dense.x, &op_sparse.x, "32x32 grid");

    // Drop map sanity on the sparse solution.
    let v = |x: usize, y: usize| {
        op_sparse
            .voltage(&ckt, &PowerGrid::node_name(x, y))
            .expect("grid node")
    };
    let v_corner = v(0, 0);
    let v_center = v(16, 16);
    assert!(
        v_corner > vdd - 0.05 && v_corner <= vdd,
        "pad corner at {v_corner} V"
    );
    assert!(v_center < v_corner, "center must droop below the pads");
    assert!(
        v_center > 0.8 * vdd,
        "center droop {v_center} V is unphysically deep"
    );
    // The drop map is monotone along the diagonal from pad to center.
    let mut last = v_corner;
    for d in 1..=16 {
        let vd = v(d, d);
        assert!(
            vd <= last + 1e-9,
            "drop map not monotone at ({d},{d}): {vd} > {last}"
        );
        last = vd;
    }
}

/// Builds one seeded random connected resistor network — ground-anchored
/// chain plus random chords and current injections.
fn random_r_network(rng: &mut SmallRng) -> Circuit {
    let n_nodes = rng.gen_range(3usize..10);
    let mut ckt = Circuit::new();
    let mut nodes = vec![Circuit::GROUND];
    for u in 1..=n_nodes {
        let id = ckt.node(&format!("n{u}"));
        nodes.push(id);
    }
    // Ground-anchored chain keeps the network connected; random chords
    // vary the sparsity pattern, the AMD order and the pivot choice.
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

/// Property test: random connected resistor networks with random current
/// injections solve to the same node voltages on both backends.
#[test]
fn random_r_networks_agree_across_backends() {
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0001);
    for case in 0..64 {
        let ckt = random_r_network(&mut rng);
        solve_both(&ckt, &format!("random R network case {case}"));
    }
}

/// The same property on 64 fresh networks (second seed): AMD ordering,
/// equilibration, and the left-looking update hold the dense bound on
/// arbitrary small patterns.
#[test]
fn random_r_networks_agree_on_the_csc_kernel() {
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0011);
    for case in 0..64 {
        let ckt = random_r_network(&mut rng);
        solve_both(&ckt, &format!("random R network (csc) case {case}"));
    }
}

/// Same-seed GA synthesis runs stay byte-identical at 1, 2, and 8 exec
/// workers with the sparse backend forced process-wide — the determinism
/// contract of `ams-exec` survives the new solver. Cost bits, champion
/// parameters, and topology must all match exactly, not within tolerance.
#[test]
fn seeded_runs_byte_identical_across_thread_counts_with_sparse() {
    use ams::core::{table1_spec, SimulatedPulseDetectorModel};
    use ams_sizing::{evolve, GaConfig, PerfModel};

    // Process-wide override; the remaining tests pin their backend
    // explicitly, so they are unaffected.
    std::env::set_var("AMS_SIM_BACKEND", "sparse");
    assert_eq!(Backend::auto_for(2), Backend::Sparse, "override not active");

    let model = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let ga = GaConfig {
        population: 24,
        generations: 3,
        seed: 17,
        ..Default::default()
    };
    let run = |threads: usize| {
        ams_exec::set_threads(Some(threads));
        let r = evolve(&models, &table1_spec(), &ga);
        ams_exec::set_threads(None);
        (
            r.topology.clone(),
            r.sizing.cost.to_bits(),
            r.sizing.params.clone(),
        )
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    std::env::remove_var("AMS_SIM_BACKEND");
    assert_eq!(one, two, "1-thread vs 2-thread run diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread run diverged");
}
