//! Property tests for the structural MNA analyzer.
//!
//! The analyzer's central claim is *soundness*: when the maximum
//! transversal of the DC sparsity pattern is deficient, every numeric
//! matrix with that pattern is singular, so an `E008` verdict must imply
//! a dense-LU failure on the very same system. The converse direction is
//! weaker by design — a structurally nonsingular pattern can still cancel
//! numerically — but on ground-anchored resistor networks with positive
//! conductances the stamped matrix is an irreducibly diagonally dominant
//! M-matrix, so there the verdicts must agree exactly in both directions.
//!
//! The fill-in forecast's accuracy band against the CSC kernel is pinned
//! in `ordering_props.rs`.

use ams::prelude::*;
use ams_lint::{analyze_circuit_structure, analyze_deck_structure, RuleCode};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_sim::{Backend, MnaLayout, Stamper};

/// Hand-stamps the DC system of a resistor/current-source network using the
/// public `Stamper` primitives — the same schema `ams_sim::dc` uses — so the
/// dense-LU singularity verdict is computed independently of the analyzer.
fn dense_dc_solve(ckt: &Circuit) -> Result<Vec<f64>, ams_sim::SingularMatrix> {
    let layout = MnaLayout::new(ckt);
    let mut st = Stamper::with_backend(layout.dim(), Backend::Dense);
    for (i, (_name, dev)) in ckt.devices().enumerate() {
        match dev {
            Device::Resistor { a, b, ohms } => {
                st.conductance(layout.node(*a), layout.node(*b), 1.0 / ohms);
            }
            Device::Isource {
                plus,
                minus,
                waveform,
                ..
            } => {
                let amps = waveform.dc_value();
                st.current_into(layout.node(*plus), -amps);
                st.current_into(layout.node(*minus), amps);
            }
            Device::Vsource {
                plus,
                minus,
                waveform,
                ..
            } => {
                let br = layout.branch(i).expect("vsource branch");
                st.voltage_branch(
                    br,
                    layout.node(*plus),
                    layout.node(*minus),
                    waveform.dc_value(),
                );
            }
            Device::Capacitor { .. } => {} // open at DC
            other => panic!("unexpected device in property deck: {other:?}"),
        }
    }
    st.solve()
}

/// Connected, ground-anchored random resistor network — same generator
/// idiom as `sparse_equivalence.rs`, so any structural false positive on a
/// healthy network would fail loudly here.
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

/// 64 seeded random R-networks: the transversal verdict and the dense LU
/// must agree (nonsingular, here — the generator always anchors to ground).
#[test]
fn random_r_networks_verdict_agrees_with_dense_lu() {
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0002);
    for case in 0..64 {
        let ckt = random_r_network(&mut rng);
        let analysis = analyze_circuit_structure(&ckt);
        let solved = dense_dc_solve(&ckt).is_ok();
        assert!(
            analysis.is_structurally_nonsingular() && solved,
            "case {case}: structural={} dense-lu-ok={solved}",
            analysis.is_structurally_nonsingular()
        );
        assert_eq!(analysis.matched, analysis.dim, "case {case}");
    }
}

/// The same networks, broken on purpose: cutting the ground anchor off one
/// interior node and leaving it fed only by a capacitor makes the node's
/// KCL row empty at DC. The analyzer must prove singularity (E008) and the
/// dense LU must agree.
#[test]
fn random_networks_with_injected_float_are_proven_singular() {
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0003);
    for case in 0..64 {
        let mut ckt = random_r_network(&mut rng);
        // The injected defect: a brand-new node reachable only through a
        // capacitor — open at DC, so its KCL row has no entries.
        let orphan = ckt.node("orphan");
        ckt.add("Cx", Device::capacitor(orphan, Circuit::GROUND, 1e-12));
        let analysis = analyze_circuit_structure(&ckt);
        assert!(
            !analysis.is_structurally_nonsingular(),
            "case {case}: injected float not detected"
        );
        let witness = analysis.singular.as_ref().expect("witness");
        assert!(
            witness.nodes.iter().any(|n| n == "orphan"),
            "case {case}: witness nodes {:?} must name the orphan",
            witness.nodes
        );
        assert!(
            dense_dc_solve(&ckt).is_err(),
            "case {case}: dense LU solved a structurally singular system"
        );
    }
}

/// The three classic broken decks — floating node, current-source cutset,
/// voltage loop — are each rejected with an E008 whose witness names the
/// offending part of the deck, and the dense LU agrees on all of them.
#[test]
fn broken_exemplar_decks_get_e008_with_witness() {
    // (deck, expected witness node / instance substring)
    let cases: [(&str, &str); 3] = [
        (
            // Floating node: `mid` only connects through capacitors.
            "V1 in 0 DC 1
             R1 in a 1k
             C1 a mid 1p
             C2 mid 0 1p",
            "mid",
        ),
        (
            // Current-source cutset: node `x` is fed only by a current
            // source and a capacitor; its KCL row is empty at DC.
            "I1 0 x DC 1m
             C1 x 0 1p
             R1 y 0 1k
             V1 y 0 DC 1",
            "x",
        ),
        (
            // Voltage loop: two voltage sources in parallel give two KVL
            // rows that can only pivot on the same node voltage.
            "V1 a 0 DC 1
             V2 a 0 DC 1
             R1 a 0 1k",
            "a",
        ),
    ];
    for (deck, expected) in cases {
        let analysis = analyze_deck_structure(deck).expect("parse");
        let report = analysis.report();
        let e008: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == RuleCode::E008StructurallySingular)
            .collect();
        assert_eq!(e008.len(), 1, "deck {deck:?}: {}", report.render_human());
        assert!(
            e008[0].message.contains(expected) || e008[0].nodes.iter().any(|n| n == expected),
            "deck {deck:?}: E008 must name `{expected}`, got: {}",
            e008[0].message
        );
        assert!(
            e008[0].span.is_some(),
            "deck-anchored E008 must carry a span"
        );
        let ckt = parse_deck(deck).expect("parse");
        assert!(
            dense_dc_solve(&ckt).is_err(),
            "deck {deck:?}: dense LU disagrees with the E008 proof"
        );
    }
}

/// E008 rendering is byte-identical across repeated analyses — the witness
/// construction has no iteration-order or timing dependence.
#[test]
fn e008_rendering_is_byte_identical_across_repeats() {
    let deck = "I1 0 x DC 1m
                C1 x 0 1p
                R1 y 0 1k
                V1 y 0 DC 1";
    let reference_human = analyze_deck_structure(deck)
        .expect("parse")
        .report()
        .render_human();
    let reference_json = analyze_deck_structure(deck)
        .expect("parse")
        .report()
        .render_json();
    assert!(reference_human.contains("E008"), "{reference_human}");
    for _ in 0..16 {
        let a = analyze_deck_structure(deck).expect("parse");
        assert_eq!(a.report().render_human(), reference_human);
        assert_eq!(a.report().render_json(), reference_json);
    }
}
