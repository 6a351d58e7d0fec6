//! Small-signal AC analysis.
//!
//! Solves `(G + jωC)·x = b` at each requested frequency, where the linear
//! network comes from [`linearize`](crate::linearize) at a DC operating
//! point. This is the "full simulation" reference that the AWE macromodel
//! in `ams-awe` is benchmarked against (experiment E7).

use crate::backend::Backend;
use crate::csc::CscLu;
use crate::error::SimError;
use crate::linalg::{CMatrix, Complex};
use crate::mna::LinearNet;
use crate::sparse::{solve_cached, Triplets};

/// Result of an AC sweep at one output unknown.
#[derive(Debug, Clone)]
pub struct AcSweep {
    /// Frequencies in hertz.
    pub freqs: Vec<f64>,
    /// Complex output value at each frequency.
    pub values: Vec<Complex>,
}

impl AcSweep {
    /// Magnitudes in dB (20·log₁₀|H|).
    pub fn magnitude_db(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| 20.0 * v.abs().max(1e-300).log10())
            .collect()
    }

    /// Phases in degrees.
    pub fn phase_deg(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.arg().to_degrees()).collect()
    }

    /// DC (lowest-frequency) gain magnitude.
    pub fn dc_gain(&self) -> f64 {
        self.values.first().map_or(0.0, |v| v.abs())
    }

    /// The −3 dB bandwidth relative to the first point's magnitude, found by
    /// log-linear interpolation between sweep points. `None` when the
    /// response never drops 3 dB within the sweep.
    pub fn bandwidth_3db(&self) -> Option<f64> {
        let reference = self.values.first()?.abs();
        let target = reference / 2f64.sqrt();
        for i in 1..self.values.len() {
            let m0 = self.values[i - 1].abs();
            let m1 = self.values[i].abs();
            if m0 >= target && m1 < target {
                let f0 = self.freqs[i - 1].ln();
                let f1 = self.freqs[i].ln();
                let t = (m0 - target) / (m0 - m1).max(1e-300);
                return Some((f0 + t * (f1 - f0)).exp());
            }
        }
        None
    }

    /// Unity-gain frequency (|H| = 1) by log interpolation, or `None`.
    pub fn unity_gain_freq(&self) -> Option<f64> {
        for i in 1..self.values.len() {
            let m0 = self.values[i - 1].abs();
            let m1 = self.values[i].abs();
            if m0 >= 1.0 && m1 < 1.0 {
                let f0 = self.freqs[i - 1].ln();
                let f1 = self.freqs[i].ln();
                let t = (m0 - 1.0) / (m0 - m1).max(1e-300);
                return Some((f0 + t * (f1 - f0)).exp());
            }
        }
        None
    }

    /// Phase margin in degrees: 180° + phase at the unity-gain frequency.
    /// `None` when gain never crosses unity inside the sweep.
    pub fn phase_margin_deg(&self) -> Option<f64> {
        let fu = self.unity_gain_freq()?;
        // Interpolate phase at fu.
        for i in 1..self.freqs.len() {
            if self.freqs[i] >= fu {
                let p0 = self.values[i - 1].arg().to_degrees();
                let p1 = self.values[i].arg().to_degrees();
                let t = (fu.ln() - self.freqs[i - 1].ln())
                    / (self.freqs[i].ln() - self.freqs[i - 1].ln()).max(1e-300);
                let mut ph = p0 + t * (p1 - p0);
                // Unwrap into (−360, 0] so the margin formula is stable.
                while ph > 0.0 {
                    ph -= 360.0;
                }
                return Some(180.0 + ph);
            }
        }
        None
    }
}

/// Generates `n` logarithmically spaced frequencies between `f_start` and
/// `f_stop` (inclusive).
///
/// # Panics
///
/// Panics if the bounds are non-positive or `n < 2`.
pub fn log_frequencies(f_start: f64, f_stop: f64, n: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start && n >= 2, "bad sweep");
    let l0 = f_start.ln();
    let l1 = f_stop.ln();
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// The structural non-zero pattern of `G + sC` in fixed row-major order —
/// the triplet *sequence* every frequency point of a sweep assembles, so
/// the sparse backend only runs symbolic analysis on the first point.
pub(crate) fn complex_pattern(net: &LinearNet) -> Vec<(usize, usize)> {
    let n = net.dim();
    let mut pattern = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if net.g[(i, j)] != 0.0 || net.c[(i, j)] != 0.0 {
                pattern.push((i, j));
            }
        }
    }
    pattern
}

/// Assembles the `G + sC` triplets over a fixed pattern. When `transposed`,
/// entry `(i, j)` is emitted at `(j, i)` — the adjoint-system form noise
/// analysis solves.
pub(crate) fn assemble_complex(
    net: &LinearNet,
    pattern: &[(usize, usize)],
    s: Complex,
    transposed: bool,
) -> Triplets<Complex> {
    let mut t = Triplets::new(net.dim());
    for &(i, j) in pattern {
        let v = Complex::real(net.g[(i, j)]) + s * net.c[(i, j)];
        if transposed {
            t.push(j, i, v);
        } else {
            t.push(i, j, v);
        }
    }
    t
}

/// Dense single-point solve of `(G + sC)·x = b`.
fn solve_dense(net: &LinearNet, s: Complex) -> Result<Vec<Complex>, SimError> {
    let n = net.dim();
    let mut a = CMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = Complex::new(net.g[(i, j)], 0.0) + s * net.c[(i, j)];
        }
    }
    let b: Vec<Complex> = net.b.iter().map(|&v| Complex::real(v)).collect();
    Ok(a.solve(&b)?)
}

/// Solves the linearized network at a single complex frequency `s`, on the
/// backend [`Backend::auto_for`] selects for the system size.
///
/// # Errors
///
/// Returns [`SimError::Singular`] if the system is singular at `s`.
pub fn solve_at(net: &LinearNet, s: Complex) -> Result<Vec<Complex>, SimError> {
    match Backend::auto_for(net.dim()) {
        Backend::Dense => solve_dense(net, s),
        Backend::Sparse => {
            let pattern = complex_pattern(net);
            let t = assemble_complex(net, &pattern, s, false);
            let b: Vec<Complex> = net.b.iter().map(|&v| Complex::real(v)).collect();
            Ok(CscLu::factor(&t, None)?.solve_refined(&t, &b))
        }
    }
}

/// Runs an AC sweep and extracts one output unknown — the engine behind
/// [`crate::SimSession::ac`]. On the sparse backend the pattern is factored
/// symbolically at the first frequency and numerically refactored at every
/// later one.
pub(crate) fn sweep_net(
    net: &LinearNet,
    out_index: usize,
    freqs: &[f64],
    backend: Backend,
) -> Result<AcSweep, SimError> {
    if freqs.is_empty() {
        return Err(SimError::BadParameter("empty frequency list".into()));
    }
    let mut values = Vec::with_capacity(freqs.len());
    match backend {
        Backend::Dense => {
            for &f in freqs {
                let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                let x = solve_dense(net, s)?;
                values.push(x[out_index]);
            }
        }
        Backend::Sparse => {
            let pattern = complex_pattern(net);
            let b: Vec<Complex> = net.b.iter().map(|&v| Complex::real(v)).collect();
            let mut lu: Option<CscLu<Complex>> = None;
            for &f in freqs {
                let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                let t = assemble_complex(net, &pattern, s, false);
                let x = solve_cached(&mut lu, &t, &b, None)?;
                values.push(x[out_index]);
            }
        }
    }
    Ok(AcSweep {
        freqs: freqs.to_vec(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;
    use ams_netlist::parse_deck;

    fn rc_lowpass() -> ams_netlist::Circuit {
        parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 159.154943n",
        )
        .unwrap()
    }

    #[test]
    fn rc_pole_at_1khz() {
        let ckt = rc_lowpass();
        let freqs = log_frequencies(1.0, 1e6, 121);
        let sweep = SimSession::new(&ckt).ac("out", &freqs).unwrap();
        assert!((sweep.dc_gain() - 1.0).abs() < 1e-6);
        let bw = sweep.bandwidth_3db().unwrap();
        assert!((bw - 1000.0).abs() / 1000.0 < 0.02, "bw = {bw}");
    }

    #[test]
    fn rc_phase_approaches_minus_90() {
        let ckt = rc_lowpass();
        let sweep = SimSession::new(&ckt).ac("out", &[1e6]).unwrap();
        let ph = sweep.phase_deg()[0];
        assert!(ph < -89.0, "phase = {ph}");
    }

    #[test]
    fn log_frequencies_are_monotonic() {
        let f = log_frequencies(1.0, 1e6, 61);
        assert_eq!(f.len(), 61);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[60] - 1e6).abs() / 1e6 < 1e-12);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn common_source_gain_matches_hand_analysis() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vin in 0 DC 1.0 AC 1
             RD vdd out 10k
             M1 out in 0 0 nch W=20u L=2u
             CL out 0 1p",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let mop = ses.op().unwrap().mos_ops["M1"];
        let sweep = ses.ac("out", &[10.0]).unwrap();
        // |A| = gm·(RD ∥ ro)
        let ro = 1.0 / mop.gds;
        let expected = mop.gm * (10e3 * ro) / (10e3 + ro);
        let got = sweep.dc_gain();
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn rlc_resonance_peaks() {
        // Series RLC driven at the capacitor: resonance at 1/(2π√(LC)).
        let ckt = parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in a 1
             L1 a out 1m
             C1 out 0 1u",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        let sweep = ses.ac("out", &[f0 / 10.0, f0, f0 * 10.0]).unwrap();
        let mags = sweep.magnitude_db();
        assert!(mags[1] > mags[0] + 10.0, "resonance should peak: {mags:?}");
        assert!(mags[1] > mags[2] + 10.0);
    }

    #[test]
    fn empty_sweep_is_error() {
        let ckt = rc_lowpass();
        assert!(matches!(
            SimSession::new(&ckt).ac("out", &[]),
            Err(SimError::BadParameter(_))
        ));
    }

    #[test]
    fn sweep_backends_agree_on_rc_response() {
        let ckt = rc_lowpass();
        let ses = SimSession::new(&ckt);
        let net = ses.linearize().unwrap();
        let out = ses.output_index("out").unwrap();
        let freqs = log_frequencies(1.0, 1e6, 31);
        let d = sweep_net(&net, out, &freqs, Backend::Dense).unwrap();
        let s = sweep_net(&net, out, &freqs, Backend::Sparse).unwrap();
        for (a, b) in d.values.iter().zip(&s.values) {
            assert!((*a - *b).abs() < 1e-9, "dense {a:?} vs sparse {b:?}");
        }
    }
}
