//! Small-signal noise analysis.
//!
//! For each physical noise generator (resistor thermal noise, MOS channel
//! thermal noise, MOS flicker noise) the analyzer computes the transfer
//! function from the generator's injection nodes to the output at each
//! frequency, and accumulates power spectral densities. Integrating the
//! output PSD over frequency gives total rms noise — the quantity Table 1
//! of the paper reports (as equivalent noise charge) for the pulse
//! detector frontend.

use ams_netlist::{units, Circuit, Device};

use crate::ac::{assemble_complex, complex_pattern};
use crate::backend::Backend;
use crate::csc::CscLu;
use crate::dc::OpPoint;
use crate::error::SimError;
use crate::linalg::{CMatrix, Complex};
use crate::mna::{LinearNet, MnaLayout};
use crate::sparse::solve_cached;

/// MOS channel thermal noise excess factor (long-channel value 2/3).
const GAMMA_CHANNEL: f64 = 2.0 / 3.0;

/// One identified noise generator.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    /// Instance name of the device that generates the noise.
    pub device: String,
    /// Description ("thermal", "channel thermal", "flicker").
    pub kind: NoiseKind,
    /// Injection node the unit noise current flows out of (`None` = ground).
    pub from: Option<usize>,
    /// Injection node the unit noise current flows into (`None` = ground).
    pub to: Option<usize>,
    /// Frequency-independent part of the current PSD in A²/Hz.
    psd_white: f64,
    /// Flicker coefficient: PSD = `psd_flicker / f` in A²/Hz.
    psd_flicker: f64,
}

/// The physical origin of a noise source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseKind {
    /// Resistor thermal (Johnson) noise.
    Thermal,
    /// MOS channel thermal noise.
    ChannelThermal,
    /// MOS 1/f (flicker) noise.
    Flicker,
}

impl NoiseSource {
    /// Current PSD of this source at frequency `f`, in A²/Hz.
    pub fn psd(&self, f: f64) -> f64 {
        self.psd_white + self.psd_flicker / f.max(1e-3)
    }
}

/// Output of a noise analysis.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// Analysis frequencies in hertz.
    pub freqs: Vec<f64>,
    /// Output noise voltage PSD at each frequency, V²/Hz.
    pub output_psd: Vec<f64>,
    /// Total integrated output noise, volts rms.
    pub output_rms: f64,
    /// Per-device integrated contribution (V² at the output), sorted
    /// descending — the "noise budget" designers inspect.
    pub contributions: Vec<(String, f64)>,
}

/// Enumerates the noise generators of a circuit at an operating point.
pub fn noise_sources(
    ckt: &Circuit,
    op: &OpPoint,
    layout: &MnaLayout,
    temp_k: f64,
) -> Vec<NoiseSource> {
    let four_kt = 4.0 * units::BOLTZMANN * temp_k;
    let mut out = Vec::new();
    for (name, dev) in ckt.devices() {
        match dev {
            Device::Resistor { a, b, ohms } => {
                out.push(NoiseSource {
                    device: name.to_string(),
                    kind: NoiseKind::Thermal,
                    from: layout.node(*a),
                    to: layout.node(*b),
                    psd_white: four_kt / ohms,
                    psd_flicker: 0.0,
                });
            }
            Device::Mos(m) => {
                let Some(mos_op) = op.mos_ops.get(name) else {
                    continue;
                };
                if mos_op.gm <= 0.0 {
                    continue;
                }
                let d = layout.node(m.drain);
                let s = layout.node(m.source);
                out.push(NoiseSource {
                    device: name.to_string(),
                    kind: NoiseKind::ChannelThermal,
                    from: d,
                    to: s,
                    psd_white: four_kt * GAMMA_CHANNEL * mos_op.gm,
                    psd_flicker: 0.0,
                });
                // Flicker: KF·Id / (Cox·L²) / f, injected drain-source.
                let kf_psd = m.model.kf * mos_op.ids.abs() / (m.model.cox * m.l * m.l);
                if kf_psd > 0.0 {
                    out.push(NoiseSource {
                        device: name.to_string(),
                        kind: NoiseKind::Flicker,
                        from: d,
                        to: s,
                        psd_white: 0.0,
                        psd_flicker: kf_psd,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The noise engine behind [`crate::SimSession::noise`]. On the sparse
/// backend the transposed `(G + sC)ᵀ` pattern is factored symbolically once
/// and refactored numerically at every later frequency point.
pub(crate) fn analyze(
    ckt: &Circuit,
    op: &OpPoint,
    net: &LinearNet,
    out_index: usize,
    freqs: &[f64],
    temp_k: f64,
    backend: Backend,
) -> Result<NoiseResult, SimError> {
    if freqs.len() < 2 {
        return Err(SimError::BadParameter(
            "noise analysis needs at least two frequencies".into(),
        ));
    }
    let sources = noise_sources(ckt, op, &net.layout, temp_k);
    let n = net.dim();
    let mut output_psd = vec![0.0; freqs.len()];
    let mut per_device_psd: Vec<Vec<f64>> = vec![vec![0.0; freqs.len()]; sources.len()];

    let mut e = vec![Complex::ZERO; n];
    e[out_index] = Complex::ONE;
    let pattern = match backend {
        Backend::Dense => Vec::new(),
        Backend::Sparse => complex_pattern(net),
    };
    let mut cached: Option<CscLu<Complex>> = None;

    for (fi, &f) in freqs.iter().enumerate() {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        // Factor once per frequency via the adjoint trick: solve Aᵀ y = e_out,
        // then |H_k|² = |y·inj_k|² for every source k.
        let y = match backend {
            Backend::Dense => {
                let mut at = CMatrix::zeros(n);
                for i in 0..n {
                    for j in 0..n {
                        // Transpose while building.
                        at[(j, i)] = Complex::new(net.g[(i, j)], 0.0) + s * net.c[(i, j)];
                    }
                }
                at.solve(&e)?
            }
            Backend::Sparse => {
                let t = assemble_complex(net, &pattern, s, true);
                solve_cached(&mut cached, &t, &e, None)?
            }
        };
        for (k, src) in sources.iter().enumerate() {
            // Unit current injected from `from` to `to`.
            let mut h = Complex::ZERO;
            if let Some(i) = src.from {
                h += y[i];
            }
            if let Some(j) = src.to {
                h = h - y[j];
            }
            let contribution = h.norm_sqr() * src.psd(f);
            output_psd[fi] += contribution;
            per_device_psd[k][fi] = contribution;
        }
    }

    // Trapezoidal integration over the (typically log-spaced) grid.
    let integrate = |psd: &[f64]| -> f64 {
        let mut total = 0.0;
        for i in 1..freqs.len() {
            let df = freqs[i] - freqs[i - 1];
            total += 0.5 * (psd[i] + psd[i - 1]) * df;
        }
        total
    };
    let output_rms = integrate(&output_psd).sqrt();

    let mut contributions: Vec<(String, f64)> = sources
        .iter()
        .zip(&per_device_psd)
        .map(|(src, psd)| (src.device.clone(), integrate(psd)))
        .collect();
    // Merge same-device entries (thermal + flicker).
    contributions.sort_by(|a, b| a.0.cmp(&b.0));
    contributions.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });
    contributions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        output_psd,
        output_rms,
        contributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::log_frequencies;
    use crate::session::SimSession;
    use ams_netlist::parse_deck;

    #[test]
    fn resistor_thermal_noise_psd() {
        // Single 1 kΩ resistor to ground driven by ideal source through
        // another 1 kΩ: output sees the parallel combination.
        let ckt = parse_deck(
            "V1 in 0 DC 0
             R1 in out 1k
             R2 out 0 1k",
        )
        .unwrap();
        let freqs = [1e3, 1e4];
        let res = SimSession::new(&ckt).noise("out", &freqs, 300.0).unwrap();
        // Each resistor contributes 4kT/R·|Rpar|²; total = 4kT·Rpar.
        let four_kt = 4.0 * units::BOLTZMANN * 300.0;
        let expected = four_kt * 500.0;
        for &psd in &res.output_psd {
            assert!(
                (psd - expected).abs() / expected < 1e-6,
                "psd {psd} vs {expected}"
            );
        }
    }

    #[test]
    fn rc_integrated_noise_is_kt_over_c() {
        // The classic kT/C result: total noise of an RC lowpass is
        // sqrt(kT/C) regardless of R.
        let ckt = parse_deck(
            "V1 in 0 DC 0
             R1 in out 1k
             C1 out 0 1p",
        )
        .unwrap();
        // Must integrate far past the pole (159 MHz) to capture the tail.
        let freqs = log_frequencies(1.0, 1e12, 600);
        let res = SimSession::new(&ckt).noise("out", &freqs, 300.0).unwrap();
        let expected = (units::BOLTZMANN * 300.0 / 1e-12f64).sqrt();
        assert!(
            (res.output_rms - expected).abs() / expected < 0.02,
            "rms {} vs kT/C {}",
            res.output_rms,
            expected
        );
    }

    #[test]
    fn mos_amplifier_noise_contains_channel_and_flicker() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u kf=3e-28
             Vdd vdd 0 DC 5
             Vin in 0 DC 1.0
             RD vdd out 10k
             M1 out in 0 0 nch W=20u L=2u",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let op = ses.op().unwrap();
        let sources = noise_sources(&ckt, &op, ses.layout(), 300.0);
        let kinds: Vec<NoiseKind> = sources.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&NoiseKind::Thermal));
        assert!(kinds.contains(&NoiseKind::ChannelThermal));
        assert!(kinds.contains(&NoiseKind::Flicker));
        // Flicker dominates at low frequency.
        let flicker = sources
            .iter()
            .find(|s| s.kind == NoiseKind::Flicker)
            .unwrap();
        assert!(flicker.psd(1.0) > flicker.psd(1e6));
    }

    #[test]
    fn contributions_are_sorted_and_merged() {
        let ckt = parse_deck(
            "V1 in 0 DC 0
             R1 in out 100k
             R2 out 0 10",
        )
        .unwrap();
        let res = SimSession::new(&ckt)
            .noise("out", &[1e3, 1e4, 1e5], 300.0)
            .unwrap();
        assert_eq!(res.contributions.len(), 2);
        // Sorted descending.
        assert!(res.contributions[0].1 >= res.contributions[1].1);
    }

    #[test]
    fn too_few_frequencies_rejected() {
        let ckt = parse_deck("V1 a 0 DC 0\nR1 a 0 1k").unwrap();
        assert!(SimSession::new(&ckt).noise("a", &[1.0], 300.0).is_err());
    }

    #[test]
    fn noise_backends_agree() {
        let ckt = parse_deck(
            "V1 in 0 DC 0
             R1 in out 1k
             C1 out 0 1p",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let op = ses.op().unwrap();
        let net = ses.linearize().unwrap();
        let out = ses.output_index("out").unwrap();
        let freqs = log_frequencies(1.0, 1e10, 40);
        let d = analyze(&ckt, &op, &net, out, &freqs, 300.0, Backend::Dense).unwrap();
        let s = analyze(&ckt, &op, &net, out, &freqs, 300.0, Backend::Sparse).unwrap();
        for (a, b) in d.output_psd.iter().zip(&s.output_psd) {
            let scale = a.abs().max(1e-300);
            assert!((a - b).abs() / scale < 1e-9, "dense {a} vs sparse {b}");
        }
        assert!((d.output_rms - s.output_rms).abs() / d.output_rms < 1e-9);
    }
}
