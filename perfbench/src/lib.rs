//! Host-clock benchmark of the SOLO reproduction.
//!
//! Three workloads, each run from one process:
//!
//! * `frame` — whole SOLO frames through `FoveatedPipeline::evaluate` /
//!   `evaluate_quant`, six per op: each backbone in f32 and in int8;
//! * `stream` — one video per op through `StreamingEvaluator`, rotating
//!   four scene presets and alternating the speculative and the
//!   fault-injected loops;
//! * `serve` — one `Server::tick_supervised` per op over a fixed,
//!   half-faulted fleet.
//!
//! Ops run on one thread: on a small shared VM a wider pool measures the
//! scheduler more than the program.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics on the
//! host clock, divided by the host's slowdown that [`calib`] measures
//! after every op. A traced run (`--trace 1`) reports the per-layer metrics,
//! taken from spans the benchmark records around its own calls into each
//! crate's public functions, plus the tracing overhead. Every metric of
//! the SoC cost model is named `modelled.*` and is only ever a per-layer
//! metric.

pub mod calib;
pub mod compare;
pub mod frame;
pub mod host;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use std::time::Instant;

use serde::{Serialize, Value};
use solo_tensor::exec;

use crate::calib::Calibrator;
use crate::host::Fingerprint;
use crate::trace::Tracer;

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Calibration samples taken before and after each set-up.
const SETUP_CALIB_SAMPLES: usize = 3;

/// After an op, one calibration sample is taken per this many ms of op
/// time (at least one, at most [`MAX_OP_CALIB_SAMPLES`]), so that long ops
/// see as much of the host's drift as short ones.
const CALIB_EVERY_MS: f64 = 20.0;

/// Most calibration samples taken after one op.
const MAX_OP_CALIB_SAMPLES: usize = 8;

/// Exec pool width the ops run at.
pub const MEASURE_WIDTH: usize = 1;

/// Exec pool width of the output checks' recompute, which must match the
/// outputs computed at [`MEASURE_WIDTH`] bit for bit.
pub const CHECK_WIDTH: usize = 2;

/// Op seconds a throughput window spans at least. Windows close on whole
/// rotations, and `frames_per_s` is their median, so a few seconds of host
/// stall move it less than they move the mean.
const WINDOW_S: f64 = 1.0;

/// Where records and span files go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One SOLO frame per op.
    Frame,
    /// One streamed video per op.
    Stream,
    /// One supervised serving tick per op.
    Serve,
}

impl Kind {
    /// All workloads, in the order a traced run decomposes them.
    pub const ALL: [Kind; 3] = [Kind::Frame, Kind::Stream, Kind::Serve];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Frame => "frame",
            Kind::Stream => "stream",
            Kind::Serve => "serve",
        }
    }

    /// Ops a traced run spends decomposing this workload when another
    /// workload is the one selected: whole rotations, kept short.
    fn decomposition_ops(self) -> usize {
        match self {
            Kind::Frame => 4,
            Kind::Stream => stream::CYCLE,
            Kind::Serve => serve::CYCLE,
        }
    }
}

/// What one op did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Host latency of the op in ms; per displayed frame for `frame` and
    /// `stream`, per tick for `serve`.
    pub latency_ms: f64,
    /// Host seconds the op took.
    pub busy_s: f64,
    /// Displayed frames the op completed (session-frames for `serve`).
    pub units: usize,
    /// Units served as intended: not by a quarantine stub.
    pub ok_units: usize,
    /// The op returned an error or failed its output check.
    pub failed: bool,
}

/// One benchmark workload.
pub trait Workload {
    /// Ops per rotation; a measured loop always ends on a whole rotation.
    fn cycle(&self) -> usize;
    /// Consecutive ops that make one latency sample, a divisor of
    /// [`Workload::cycle`]. The sample is their time per unit.
    fn latency_group(&self) -> usize {
        1
    }
    /// Runs op `i`. With an enabled tracer the op records its layer spans.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpRecord;
    /// Output checks made once after the measured loops: `(checks, failed)`.
    fn final_checks(&mut self) -> (usize, usize) {
        (0, 0)
    }
    /// Units attempted outside the ops (rejected admissions).
    fn rejected_units(&self) -> usize {
        0
    }
    /// Appends the per-layer metrics this workload owns.
    fn layer_metrics(&self, tr: &Tracer, out: &mut Metrics);
}

/// Builds a workload from its seed and warms it up.
pub fn setup(kind: Kind, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::Frame => Box::new(frame::FrameBench::setup(seed)),
        Kind::Stream => Box::new(stream::StreamBench::setup(seed)),
        Kind::Serve => Box::new(serve::ServeBench::setup(seed)?),
    })
}

/// Named metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::Num(*v)),
                            ("unit".into(), Value::Str((*u).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The ops of one measured loop.
///
/// Ops are grouped into windows of at least [`WINDOW_S`] op seconds that
/// close on whole rotations. Each window's timings are divided by the
/// median host slowdown measured after its ops.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Ops per rotation.
    cycle: usize,
    /// Ops per latency sample.
    group: usize,
    /// Latency samples in ms, divided by the host slowdown.
    pub samples: Vec<f64>,
    /// Per-op latency in ms as timed.
    pub raw_samples: Vec<f64>,
    /// Units of each op.
    op_units: Vec<usize>,
    /// Host slowdown measured after each op.
    pub slowdowns: Vec<f64>,
    /// Host seconds spent inside ops.
    pub busy_s: f64,
    /// Units completed.
    pub units: usize,
    /// Units served as intended.
    pub ok_units: usize,
    /// Ops run.
    pub ops: usize,
    /// Ops that failed.
    pub failed: usize,
    /// Throughput of each closed window in units per second, multiplied
    /// by the window's host slowdown.
    pub windows: Vec<f64>,
    /// Units and op seconds of the open window.
    window: (usize, f64),
    /// Op count when the open window began.
    window_start: usize,
}

impl Measured {
    /// An empty loop of `cycle` ops per rotation and `group` ops per
    /// latency sample.
    pub fn new(cycle: usize, group: usize) -> Self {
        Self {
            cycle: cycle.max(1),
            group: group.max(1),
            ..Self::default()
        }
    }

    /// Adds an op and the host slowdown measured right after it.
    pub fn add(&mut self, r: OpRecord, slowdown: f64) {
        self.raw_samples.push(r.latency_ms);
        self.op_units.push(r.units);
        self.slowdowns.push(slowdown);
        self.busy_s += r.busy_s;
        self.units += r.units;
        self.ok_units += r.ok_units;
        self.ops += 1;
        self.failed += usize::from(r.failed);
        self.window.0 += r.units;
        self.window.1 += r.busy_s;
        if self.window.1 >= WINDOW_S && self.ops.is_multiple_of(self.cycle) {
            let s = self.close_window();
            self.windows.push(self.window.0 as f64 / self.window.1 * s);
            self.window = (0, 0.0);
        }
    }

    /// Moves the open window's latency samples into `samples`, divided by
    /// its median slowdown, and returns that slowdown.
    fn close_window(&mut self) -> f64 {
        let range = self.window_start..self.ops;
        self.window_start = self.ops;
        let s = stats::median(&self.slowdowns[range.clone()]).max(f64::MIN_POSITIVE);
        let ms = self.raw_samples[range.clone()].chunks(self.group);
        let units = self.op_units[range].chunks(self.group);
        self.samples.extend(ms.zip(units).map(|(ms, units)| {
            let total: usize = units.iter().sum();
            let weighted: f64 = ms.iter().zip(units).map(|(m, &u)| m * u as f64).sum();
            weighted / total.max(1) as f64 / s
        }));
        s
    }

    /// Closes the last, partial window; called once the loop ends.
    fn finish(&mut self) {
        if self.window_start < self.ops {
            self.close_window();
        }
    }

    /// Units completed per second of op time at reference host speed: the
    /// median window, or the whole run when it spans fewer than three
    /// windows.
    pub fn frames_per_s(&self) -> f64 {
        if self.windows.len() >= 3 {
            stats::median(&self.windows)
        } else {
            self.raw_frames_per_s() * stats::median(&self.slowdowns)
        }
    }

    /// Units completed per second of op time, as timed.
    pub fn raw_frames_per_s(&self) -> f64 {
        self.units as f64 / self.busy_s.max(f64::MIN_POSITIVE)
    }
}

/// Runs ops from index `first` until `seconds` have passed (or, with
/// `max_ops`, until that many ops ran), stopping on a whole rotation.
/// After every op it samples the host slowdown.
pub fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    max_ops: Option<usize>,
    first: usize,
    tr: &mut Tracer,
) -> Measured {
    let t0 = Instant::now();
    let cycle = w.cycle().max(1);
    let mut cal = Calibrator::default();
    let mut m = Measured::new(cycle, w.latency_group());
    loop {
        let done = match max_ops {
            Some(n) => m.ops >= n,
            None => m.ops > 0 && t0.elapsed().as_secs_f64() >= seconds,
        };
        if done && m.ops.is_multiple_of(cycle) {
            m.finish();
            return m;
        }
        let i = first + m.ops;
        tr.set_op(i as u64);
        let r = w.op(i, tr);
        let n = (r.busy_s * 1e3 / CALIB_EVERY_MS).round() as usize;
        m.add(r, cal.slowdown(n.clamp(1, MAX_OP_CALIB_SAMPLES)));
    }
}

/// Command-line arguments of a benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut kind = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// The full record: fingerprint, sample counts and the metrics.
    pub record: String,
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub line: String,
    /// Span recorders of a traced run, one per workload.
    pub tracers: Vec<(Kind, Tracer)>,
}

struct Json<'a>(&'a Value);

impl Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON of a value tree; fails on a non-finite number.
fn json(v: &Value) -> Result<String, String> {
    serde_json::to_string(&Json(v)).map_err(|e| format!("unprintable result: {e}"))
}

/// Sets the workload up [`SETUP_REPEATS`] times, keeping the last, and
/// returns it with the median set-up time as timed and that time divided
/// by the median host slowdown sampled around the set-ups.
fn setup_timed(kind: Kind, seed: u64) -> Result<(Box<dyn Workload>, f64, f64), String> {
    let mut cal = Calibrator::default();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut slowdowns = Vec::with_capacity(2 * SETUP_CALIB_SAMPLES * SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        slowdowns.extend((0..SETUP_CALIB_SAMPLES).map(|_| cal.slowdown(1)));
        let t = Instant::now();
        let w = setup(kind, seed)?;
        times.push(t.elapsed().as_secs_f64());
        slowdowns.extend((0..SETUP_CALIB_SAMPLES).map(|_| cal.slowdown(1)));
        kept = Some(w);
    }
    let w = kept.ok_or("no set-up ran")?;
    let raw = stats::median(&times);
    Ok((w, raw, raw / stats::median(&slowdowns)))
}

/// Runs the benchmark as the arguments ask, at pool width
/// [`MEASURE_WIDTH`].
pub fn run(args: Args) -> Result<RunResult, String> {
    exec::with_threads(MEASURE_WIDTH, || run_at_width(args))
}

fn run_at_width(args: Args) -> Result<RunResult, String> {
    let fingerprint = Fingerprint::detect();
    let (mut w, raw_setup_s, setup_s) = setup_timed(args.kind, args.seed)?;
    let mut record = vec![
        ("workload".into(), Value::Str(args.kind.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("fingerprint".into(), fingerprint.to_value()),
    ];
    let mut metrics = Metrics::default();
    let mut tracers = Vec::new();
    let (attempted, failed);
    if !args.trace {
        let m = measure(w.as_mut(), args.seconds, None, 0, &mut Tracer::off());
        let (checks, check_failed) = w.final_checks();
        let (tail_p, tail_v) = stats::tail(&m.samples);
        let units_attempted = m.units + w.rejected_units();
        let ok_frac = m.ok_units as f64 / units_attempted.max(1) as f64;
        metrics.push("frames_per_s", m.frames_per_s(), "1/s");
        metrics.push("latency_ms_p50", stats::median(&m.samples), "ms");
        metrics.push("ok_frac", ok_frac, "ratio");
        metrics.push("setup_s", setup_s, "s");
        let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.push("peak_rss_mib", rss, "MiB");
        record.extend([
            (
                "calibration".into(),
                Value::Str(format!(
                    "timings divided by the host slowdown: (calibration kernel ms / {} ms)^{}",
                    calib::REF_MS,
                    calib::ELASTICITY
                )),
            ),
            (
                "slowdown_p50".into(),
                Value::Num(stats::median(&m.slowdowns)),
            ),
            ("raw_frames_per_s".into(), Value::Num(m.raw_frames_per_s())),
            (
                "raw_latency_ms_p50".into(),
                Value::Num(stats::median(&m.raw_samples)),
            ),
            ("raw_setup_s".into(), Value::Num(raw_setup_s)),
            ("ops".into(), Value::UInt(m.ops as u64)),
            ("samples".into(), Value::UInt(m.samples.len() as u64)),
            (
                "throughput_windows".into(),
                Value::UInt(m.windows.len() as u64),
            ),
            // The tail is recorded but not a bounded metric: on a shared
            // 2-vCPU host its run-to-run spread exceeds any allowed bound.
            ("latency_ms_tail".into(), Value::Num(tail_v)),
            ("tail_percentile".into(), Value::Num(tail_p)),
            ("failed_frac".into(), Value::Num(1.0 - ok_frac)),
            ("units".into(), Value::UInt(units_attempted as u64)),
            ("final_checks".into(), Value::UInt(checks as u64)),
        ]);
        attempted = m.ops;
        failed = m.failed + check_failed;
    } else {
        let exec0 = solo_tensor::exec::stats();
        let half = args.seconds / 2.0;
        let plain = measure(w.as_mut(), half, None, 0, &mut Tracer::off());
        let mut tr = Tracer::on();
        let traced = measure(w.as_mut(), half, None, plain.ops, &mut tr);
        let (_, mut check_failed) = w.final_checks();
        w.layer_metrics(&tr, &mut metrics);
        let mut ops = plain.ops + traced.ops;
        let mut op_failed = plain.failed + traced.failed;
        tracers.push((args.kind, tr));
        for kind in Kind::ALL.into_iter().filter(|&k| k != args.kind) {
            let mut other = setup(kind, args.seed)?;
            let mut tr = Tracer::on();
            let m = measure(
                other.as_mut(),
                0.0,
                Some(kind.decomposition_ops()),
                0,
                &mut tr,
            );
            check_failed += other.final_checks().1;
            other.layer_metrics(&tr, &mut metrics);
            ops += m.ops;
            op_failed += m.failed;
            tracers.push((kind, tr));
        }
        let exec1 = solo_tensor::exec::stats();
        let takes = exec1.takes - exec0.takes;
        metrics.push(
            "exec.reuse_hit_ratio",
            (exec1.reuse_hits - exec0.reuse_hits) as f64 / takes.max(1) as f64,
            "ratio",
        );
        metrics.push(
            "exec.peak_live_bytes",
            exec1.peak_live_bytes as f64,
            "bytes",
        );
        let (p0, p1) = (
            stats::median(&plain.samples),
            stats::median(&traced.samples),
        );
        metrics.push("trace.untraced_ms_p50", p0, "ms");
        metrics.push("trace.traced_ms_p50", p1, "ms");
        metrics.push("trace.overhead_frac", p1 / p0 - 1.0, "ratio");
        record.extend([
            ("untraced_ops".into(), Value::UInt(plain.ops as u64)),
            ("traced_ops".into(), Value::UInt(traced.ops as u64)),
            (
                "untraced_frames_per_s".into(),
                Value::Num(plain.frames_per_s()),
            ),
            (
                "traced_frames_per_s".into(),
                Value::Num(traced.frames_per_s()),
            ),
            (
                "gemm_flops_basis".into(),
                Value::Str(frame::FLOPS_BASIS.into()),
            ),
        ]);
        attempted = ops;
        failed = op_failed + check_failed;
    }
    record.push(("metrics".into(), metrics.to_value()));
    let line = json(&Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        ("metrics".into(), metrics.to_value()),
    ]))?;
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        record: json(&Value::Map(record))?,
        line,
        tracers,
    })
}

/// Bit patterns of a tensor, for exact output comparison.
pub fn bits(t: &solo_tensor::Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Seconds and ms of an elapsed instant.
fn elapsed(t: Instant) -> (f64, f64) {
    let s = t.elapsed().as_secs_f64();
    (s, s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let bench = compare::parse_json(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| match m.get_field(k) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("{section} entry field {k}: {other:?}"),
        };
        bench
            .get_field(section)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn assert_prints(section: &str, trace: bool) {
        let wanted = declared(section);
        for kind in Kind::ALL {
            let args = Args {
                kind,
                seed: 11,
                seconds: 0.3,
                trace,
            };
            let r = run(args).expect("run succeeds");
            assert_eq!(r.failed, 0, "{kind:?}: outputs failed their checks");
            let printed: Vec<&str> = r.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
            for (name, unit) in &wanted {
                let got = r.metrics.0.iter().find(|(n, _, _)| n == name);
                let Some((_, value, got_unit)) = got else {
                    panic!("{kind:?} trace={trace}: {name} not printed; printed {printed:?}");
                };
                assert_eq!(got_unit, unit, "{kind:?}: unit of {name}");
                assert!(value.is_finite(), "{kind:?}: {name} = {value}");
            }
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{kind:?}: extra metrics {printed:?}"
            );
            let line = &r.line;
            let parsed = compare::parse_json(line).expect("result line is JSON");
            let keys: Vec<String> = match parsed {
                Value::Map(m) => m.into_iter().map(|(k, _)| k).collect(),
                other => panic!("result line is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn smoke_every_end_to_end_metric_is_printed() {
        assert_prints("end_to_end", false);
    }

    #[test]
    fn smoke_every_per_layer_metric_is_printed() {
        assert_prints("per_layer", true);
    }

    #[test]
    fn a_slower_host_does_not_move_the_scaled_metrics() {
        let op = |ms: f64| OpRecord {
            latency_ms: ms,
            busy_s: ms / 1e3,
            units: 1,
            ok_units: 1,
            failed: false,
        };
        let mut m = Measured::new(1, 1);
        // Two 1 s windows at reference speed, then two on a host twice as
        // slow. Op times are exact in binary, so windows close as counted.
        for _ in 0..16 {
            m.add(op(125.0), 1.0);
        }
        for _ in 0..8 {
            m.add(op(250.0), 2.0);
        }
        m.finish();
        assert_eq!(m.windows, [8.0; 4]);
        assert_eq!(m.samples, [125.0; 24]);
        assert_eq!(m.frames_per_s(), 8.0);
        assert_eq!(m.raw_frames_per_s(), 6.0);
    }

    #[test]
    fn a_latency_sample_is_the_time_per_unit_of_its_group() {
        let op = |ms: f64, units: usize| OpRecord {
            latency_ms: ms,
            busy_s: ms * units as f64 / 1e3,
            units,
            ok_units: units,
            failed: false,
        };
        let mut m = Measured::new(4, 2);
        for (ms, units) in [(1.0, 1), (4.0, 3), (2.0, 2), (2.0, 2)] {
            m.add(op(ms, units), 1.0);
        }
        m.finish();
        assert_eq!(m.samples, [3.25, 2.0]);
        assert_eq!(m.raw_samples, [1.0, 4.0, 2.0, 2.0]);
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |s: &str| Args::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload frame --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload frame --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload frame --seed 1 --trace 0").is_err());
    }
}
