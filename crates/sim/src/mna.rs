//! Modified nodal analysis: unknown layout and matrix stamping.
//!
//! The layout assigns one unknown per non-ground node plus one auxiliary
//! branch-current unknown per voltage-defined element (independent voltage
//! source, inductor, VCVS). The same layout is shared by DC, AC, transient,
//! noise and AWE so results can be cross-referenced by index.

use ams_netlist::{Circuit, Device, NodeId};
use std::collections::BTreeMap;

use crate::backend::Backend;
use crate::csc::CscLu;
use crate::linalg::{Matrix, SingularMatrix};
use crate::sparse::Triplets;

/// Maps circuit nodes and voltage-defined branches to MNA unknown indices.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    /// `node_index[node.index()]` = unknown index, `None` for ground.
    node_index: Vec<Option<usize>>,
    /// Device list index → branch-current unknown index.
    branch_index: BTreeMap<usize, usize>,
    n_signal_nodes: usize,
    dim: usize,
}

impl MnaLayout {
    /// Builds the layout for a circuit.
    pub fn new(ckt: &Circuit) -> Self {
        let n_nodes = ckt.num_nodes();
        let mut node_index = vec![None; n_nodes];
        for (i, slot) in node_index.iter_mut().enumerate().skip(1) {
            *slot = Some(i - 1);
        }
        let n_signal = n_nodes - 1;
        let mut branch_index = BTreeMap::new();
        let mut next = n_signal;
        for (i, (_, dev)) in ckt.devices().enumerate() {
            if dev.needs_branch_current() {
                branch_index.insert(i, next);
                next += 1;
            }
        }
        MnaLayout {
            node_index,
            branch_index,
            n_signal_nodes: n_signal,
            dim: next,
        }
    }

    /// Total number of unknowns.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-ground nodes (the first `n` unknowns are node voltages).
    pub fn n_signal_nodes(&self) -> usize {
        self.n_signal_nodes
    }

    /// Unknown index of a node, `None` for ground.
    pub fn node(&self, id: NodeId) -> Option<usize> {
        self.node_index[id.index()]
    }

    /// Branch-current unknown of the `i`-th device, if it has one.
    pub fn branch(&self, device_list_index: usize) -> Option<usize> {
        self.branch_index.get(&device_list_index).copied()
    }
}

/// Backend-specific matrix storage of a [`Stamper`].
#[derive(Debug, Clone)]
pub(crate) enum StamperMatrix {
    /// Dense storage for small systems.
    Dense(Matrix),
    /// Triplet list for the sparse backend; the push *sequence* is the
    /// pattern key that lets [`CscLu::refactor`] skip symbolic analysis.
    Sparse(Triplets<f64>),
}

/// An MNA system under construction: `A·x = z`.
///
/// The matrix half is backend-polymorphic: device stamps go through
/// [`Stamper::add`], which either accumulates into a dense matrix or
/// appends a triplet. Stamping the same circuit twice therefore produces
/// the same triplet sequence, which is what makes sparse numeric
/// refactorization possible across Newton iterations and timesteps.
#[derive(Debug, Clone)]
pub struct Stamper {
    pub(crate) a: StamperMatrix,
    /// Right-hand side.
    pub z: Vec<f64>,
}

impl Stamper {
    /// Fresh zeroed dense system of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Stamper::with_backend(dim, Backend::Dense)
    }

    /// Fresh zeroed system of dimension `dim` on the given backend.
    pub fn with_backend(dim: usize, backend: Backend) -> Self {
        let a = match backend {
            Backend::Dense => StamperMatrix::Dense(Matrix::zeros(dim, dim)),
            Backend::Sparse => StamperMatrix::Sparse(Triplets::new(dim)),
        };
        Stamper {
            a,
            z: vec![0.0; dim],
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.z.len()
    }

    /// Adds `v` to matrix entry `(i, j)` — the primitive every stamp is
    /// built from.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        match &mut self.a {
            StamperMatrix::Dense(m) => m[(i, j)] += v,
            StamperMatrix::Sparse(t) => t.push(i, j, v),
        }
    }

    /// Stamps a conductance `g` between unknowns `i` and `j`
    /// (either may be `None` = ground).
    pub fn conductance(&mut self, i: Option<usize>, j: Option<usize>, g: f64) {
        if let Some(i) = i {
            self.add(i, i, g);
        }
        if let Some(j) = j {
            self.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (i, j) {
            self.add(i, j, -g);
            self.add(j, i, -g);
        }
    }

    /// Stamps a transconductance: current `gm·(V(cp)−V(cm))` flowing out of
    /// `p` and into `m`.
    pub fn transconductance(
        &mut self,
        p: Option<usize>,
        m: Option<usize>,
        cp: Option<usize>,
        cm: Option<usize>,
        gm: f64,
    ) {
        for (out, sign_out) in [(p, 1.0), (m, -1.0)] {
            let Some(row) = out else { continue };
            for (ctrl, sign_c) in [(cp, 1.0), (cm, -1.0)] {
                if let Some(col) = ctrl {
                    self.add(row, col, sign_out * sign_c * gm);
                }
            }
        }
    }

    /// Stamps a current `i_amps` injected into unknown `n`.
    pub fn current_into(&mut self, n: Option<usize>, i_amps: f64) {
        if let Some(n) = n {
            self.z[n] += i_amps;
        }
    }

    /// Stamps the incidence of a voltage-defined branch `br` across `(p, m)`:
    /// KCL columns and the KVL row, with the branch voltage forced to
    /// `volts` (callers add controlled-source terms separately).
    pub fn voltage_branch(&mut self, br: usize, p: Option<usize>, m: Option<usize>, volts: f64) {
        if let Some(p) = p {
            self.add(p, br, 1.0);
            self.add(br, p, 1.0);
        }
        if let Some(m) = m {
            self.add(m, br, -1.0);
            self.add(br, m, -1.0);
        }
        self.z[br] += volts;
    }

    /// Matrix-vector product `A·x`, used for residual checks.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        match &self.a {
            StamperMatrix::Dense(m) => m.mul_vec(x),
            StamperMatrix::Sparse(t) => t.mul_vec(x),
        }
    }

    /// Consumes a *dense* stamper into its matrix and right-hand side —
    /// the path [`crate::linearize`] uses to build a [`LinearNet`].
    ///
    /// # Panics
    ///
    /// Panics when called on a sparse-backed stamper.
    pub fn into_dense(self) -> (Matrix, Vec<f64>) {
        match self.a {
            StamperMatrix::Dense(m) => (m, self.z),
            StamperMatrix::Sparse(_) => panic!("into_dense on a sparse stamper"),
        }
    }

    /// One-shot factor-and-solve of `A·x = z` on whichever backend this
    /// stamper was built for, without any factorization caching.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when elimination fails.
    pub fn solve(self) -> Result<Vec<f64>, SingularMatrix> {
        match self.a {
            StamperMatrix::Dense(m) => Ok(m.lu()?.solve(&self.z)),
            StamperMatrix::Sparse(t) => Ok(CscLu::factor(&t, None)?.solve_refined(&t, &self.z)),
        }
    }
}

/// Linear(ized) time-invariant network in `(G + sC)·x = b` form.
///
/// This is the common currency between AC analysis, noise analysis and
/// [AWE](https://en.wikipedia.org/wiki/Asymptotic_waveform_evaluation):
/// `G` holds conductances and incidences, `C` holds capacitances and
/// (negated) inductances in branch rows, and `b` is the small-signal
/// excitation vector.
#[derive(Debug, Clone)]
pub struct LinearNet {
    /// Conductance/incidence matrix.
    pub g: Matrix,
    /// Susceptance (capacitance / inductance) matrix multiplying `s`.
    pub c: Matrix,
    /// Excitation vector (AC source magnitudes).
    pub b: Vec<f64>,
    /// Shared unknown layout.
    pub layout: MnaLayout,
}

impl LinearNet {
    /// Dimension of the system.
    pub fn dim(&self) -> usize {
        self.layout.dim()
    }
}

/// Resolves a circuit and an output node name into the unknown index.
///
/// # Errors
///
/// Returns `None` when the node does not exist or is ground.
pub fn output_index(ckt: &Circuit, layout: &MnaLayout, node: &str) -> Option<usize> {
    ckt.find_node(node).and_then(|n| layout.node(n))
}

/// Builds the device-list index → device table used by stamping loops.
pub(crate) fn indexed_devices(ckt: &Circuit) -> Vec<(usize, String, Device)> {
    ckt.devices()
        .enumerate()
        .map(|(i, (n, d))| (i, n.to_string(), d.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::{Circuit, Device};

    #[test]
    fn layout_counts_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add("V1", Device::vdc(a, Circuit::GROUND, 1.0));
        ckt.add("R1", Device::resistor(a, b, 1.0));
        ckt.add("L1", Device::inductor(b, Circuit::GROUND, 1e-9));
        let layout = MnaLayout::new(&ckt);
        // 2 nodes + V branch + L branch.
        assert_eq!(layout.dim(), 4);
        assert_eq!(layout.n_signal_nodes(), 2);
        assert_eq!(layout.node(Circuit::GROUND), None);
        assert!(layout.branch(0).is_some()); // V1
        assert!(layout.branch(1).is_none()); // R1
        assert!(layout.branch(2).is_some()); // L1
    }

    #[test]
    fn conductance_stamp_is_symmetric() {
        let mut st = Stamper::new(2);
        st.conductance(Some(0), Some(1), 0.5);
        let (a, _) = st.into_dense();
        assert_eq!(a[(0, 0)], 0.5);
        assert_eq!(a[(1, 1)], 0.5);
        assert_eq!(a[(0, 1)], -0.5);
        assert_eq!(a[(1, 0)], -0.5);
    }

    #[test]
    fn grounded_conductance_stamps_diagonal_only() {
        let mut st = Stamper::new(2);
        st.conductance(Some(1), None, 2.0);
        let (a, _) = st.into_dense();
        assert_eq!(a[(1, 1)], 2.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn voltage_branch_solves_divider_on_both_backends() {
        // V(1V) — R(1Ω) — R(1Ω) — gnd; middle node must sit at 0.5 V.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.add("V1", Device::vdc(top, Circuit::GROUND, 1.0));
        ckt.add("R1", Device::resistor(top, mid, 1.0));
        ckt.add("R2", Device::resistor(mid, Circuit::GROUND, 1.0));
        let layout = MnaLayout::new(&ckt);
        for backend in [Backend::Dense, Backend::Sparse] {
            let mut st = Stamper::with_backend(layout.dim(), backend);
            st.conductance(layout.node(top), layout.node(mid), 1.0);
            st.conductance(layout.node(mid), None, 1.0);
            st.voltage_branch(layout.branch(0).unwrap(), layout.node(top), None, 1.0);
            let x = st.solve().unwrap();
            assert!((x[layout.node(mid).unwrap()] - 0.5).abs() < 1e-12);
            assert!((x[layout.node(top).unwrap()] - 1.0).abs() < 1e-12);
        }
    }
}
