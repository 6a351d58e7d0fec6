//! Bench-side wrappers that time calls into a layer's public functions
//! from outside the program, so the benchmark adds no spans of its own.

use ams_netlist::Circuit;
use ams_sim::SimError;
use ams_sizing::{AcEvaluator, ParamDef, Perf, PerfModel, SimulatedTemplate};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Per-call samples a wrapper collected.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Candidate evaluation times, microseconds (`evaluate`, or `build` +
    /// `measure` for a template).
    pub eval_us: Vec<f64>,
    /// `SimulatedTemplate::build` times, microseconds.
    pub build_us: Vec<f64>,
    /// Parameter points evaluated, in call order (only when recording).
    pub visited: Vec<Vec<f64>>,
}

#[derive(Debug)]
struct Recorder {
    samples: Mutex<Samples>,
    record_points: bool,
}

impl Recorder {
    fn new(record_points: bool) -> Self {
        Recorder {
            samples: Mutex::new(Samples::default()),
            record_points,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Samples> {
        self.samples
            .lock()
            .expect("a timing wrapper panicked mid-record")
    }

    fn take(&self) -> Samples {
        std::mem::take(&mut *self.lock())
    }
}

/// A [`PerfModel`] that times every `evaluate` call of the model it wraps.
/// Name, parameters, and cache identity are the wrapped model's, so the
/// optimizer's cache keys and results are unchanged.
#[derive(Debug)]
pub struct TimedModel<'m, M> {
    inner: &'m M,
    rec: Recorder,
}

impl<'m, M: PerfModel> TimedModel<'m, M> {
    /// Wraps `inner`.
    pub fn new(inner: &'m M) -> Self {
        TimedModel {
            inner,
            rec: Recorder::new(false),
        }
    }

    /// Returns and clears the collected samples.
    pub fn take(&self) -> Samples {
        self.rec.take()
    }
}

impl<M: PerfModel> PerfModel for TimedModel<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn params(&self) -> Vec<ParamDef> {
        self.inner.params()
    }
    fn evaluate(&self, x: &[f64]) -> Perf {
        let (perf, us) = time_us(|| self.inner.evaluate(x));
        self.rec.lock().eval_us.push(us);
        perf
    }
    fn cache_identity(&self) -> String {
        self.inner.cache_identity()
    }
}

/// A [`SimulatedTemplate`] that times every `build` and `measure` call of
/// the template it wraps and, when asked, records the visited points.
#[derive(Debug)]
pub struct TimedTemplate<'t, T> {
    inner: &'t T,
    rec: Recorder,
}

impl<'t, T: SimulatedTemplate> TimedTemplate<'t, T> {
    /// Wraps `inner`; `record_points` keeps every built parameter point.
    pub fn new(inner: &'t T, record_points: bool) -> Self {
        TimedTemplate {
            inner,
            rec: Recorder::new(record_points),
        }
    }

    /// Returns and clears the collected samples.
    pub fn take(&self) -> Samples {
        self.rec.take()
    }
}

impl<T: SimulatedTemplate> SimulatedTemplate for TimedTemplate<'_, T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn params(&self) -> Vec<ParamDef> {
        self.inner.params()
    }
    fn build(&self, x: &[f64]) -> Circuit {
        let (ckt, us) = time_us(|| self.inner.build(x));
        let mut s = self.rec.lock();
        s.build_us.push(us);
        if self.rec.record_points {
            s.visited.push(x.to_vec());
        }
        ckt
    }
    fn measure(&self, ckt: &Circuit, ac: AcEvaluator) -> Result<Perf, SimError> {
        let (perf, us) = time_us(|| self.inner.measure(ckt, ac));
        let mut s = self.rec.lock();
        // One candidate evaluation is the build that preceded this
        // measure plus the measure itself.
        let build = s.build_us.last().copied().unwrap_or(0.0);
        s.eval_us.push(build + us);
        perf
    }
    fn cache_identity(&self) -> String {
        self.inner.cache_identity()
    }
}
