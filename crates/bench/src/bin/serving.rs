//! Records the multi-session serving baseline archived in
//! `BENCH_serving.json`. Two halves:
//!
//! * **Inference core** (measured): the per-tick serving compute — the
//!   batched RNN predictor step plus the two-layer segmentation head —
//!   timed batched (one [`SharedPackedCache`] per weight matrix,
//!   cross-session fused GEMMs) against the sequential per-session
//!   baseline (every session its own [`PackedCache`], one GEMM dispatch
//!   per session). Two scenarios: the **push** tick — a weight push lands,
//!   so the sequential baseline repacks every panel once per *session*
//!   where the shared caches repack once per process — and the **steady**
//!   tick, where the repack bill is amortized over the push epoch and the
//!   comparison isolates the fused-dispatch savings. The acceptance bar is
//!   batched ≥ 1.3× on the push tick at pool width 1.
//! * **Serving sweep** (modeled): a real [`Server`] driven over sessions ×
//!   deadline × batch, reporting admission outcomes, degradation and
//!   sustained sessions×fps. `batch` never changes outcomes — only GEMM
//!   fusion — which `--check` asserts on the archived record.
//!
//! Regenerate with `cargo run --release -p solo-bench --bin serving --
//! --json`; `--baseline <path>` diffs a fresh run against an archived
//! record (width-1 rows are authoritative on a degraded host, exactly like
//! the `kernels` binary); `--check <path>` structurally validates an
//! archived record without re-measuring, so it is timing-flake-free for
//! CI.
//!
//! [`SharedPackedCache`]: solo_tensor::SharedPackedCache
//! [`PackedCache`]: solo_tensor::PackedCache
//! [`Server`]: solo_serve::Server

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use solo_bench::{header, maybe_json};
use solo_hw::Latency;
use solo_nn::{RnnCell, RnnCellPacked};
use solo_serve::{
    AdmitOutcome, Precision, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec,
};
use solo_tensor::{
    exec, matmul_packed_batched, normal, qmatmul_packed_batched, seeded_rng, xavier_uniform,
    PackedCache, PackedMatrix, QPackedMatrix, SharedPackedCache, Tensor,
};

const WIDTHS: [usize; 3] = [1, 2, 4];
const ITERS: usize = 16;
/// A fresh median this much slower than the archived one is a regression.
const REGRESSION_PCT: f64 = 20.0;
/// Archived width-1 f32 batched-vs-sequential speedup on the push tick
/// must clear this bar.
const MIN_BATCHED_SPEEDUP: f64 = 1.3;
/// Sessions in the measured inference core.
const CORE_SESSIONS: usize = 8;
/// Ticks per weight-push epoch in the steady scenario: every timed block
/// starts with a version bump, so each block pays one repack (per process
/// or per session) amortized over this many ticks.
const EPOCH_TICKS: usize = 4;
/// The two core scenarios as `(name, ticks-per-push-epoch)`. `"push"`
/// times the tick a weight push lands on — the repack bill in full —
/// while `"steady"` amortizes it over [`EPOCH_TICKS`] ticks.
const SCENARIOS: [(&str, usize); 2] = [("push", 1), ("steady", EPOCH_TICKS)];
/// Predictor rollout horizon per tick: the speculative gaze forecast runs
/// the RNN this many steps ahead (24 ticks ≈ 0.4 s at 60 Hz — enough to
/// cover a saccade's landing point). Each step's GEMM is tiny, so the
/// sequential baseline pays per-session dispatch overhead `R × S` times
/// per tick where the batched path pays it `R` times — the RNN time-step
/// loop is where cross-session batching bites hardest.
const ROLLOUT_STEPS: usize = 24;

// The serving head geometry, mirroring `ServeModelConfig::paper_default`:
// 24² crops in 4×4 patches → 36 tokens of 48 features, hidden 32, 16
// logits per token; predictor 2 → 8.
const TOKENS: usize = 36;
const FEAT: usize = 48;
const HIDDEN: usize = 32;
const OUT: usize = 16;
const RNN_HIDDEN: usize = 8;

/// One inference-core comparison at one pool width.
#[derive(Serialize, Deserialize)]
struct CoreMeasurement {
    precision: String,
    /// `"push"` — a weight push lands on the measured tick, so the
    /// sequential baseline repacks every panel once per *session* where
    /// the shared caches repack once per process. `"steady"` — pushes land
    /// every [`EPOCH_TICKS`] ticks, so the repack bill is amortized and
    /// the comparison isolates the fused-dispatch savings.
    scenario: String,
    width: usize,
    sessions: usize,
    /// Per-tick µs of the sequential baseline (per-session caches and
    /// dispatches).
    sequential_us: f64,
    /// Per-tick µs of the batched path (shared caches, fused dispatches).
    batched_us: f64,
    speedup_batched_vs_sequential: f64,
}

/// One cell of the serving sweep: a (sessions, deadline, batch) triple.
#[derive(Serialize, Deserialize)]
struct SweepRow {
    sessions_offered: usize,
    deadline_ms: f64,
    batch: usize,
    ticks: usize,
    admitted: usize,
    queued: usize,
    rejected: usize,
    /// Session-frames segmented across the run.
    ran_frames: usize,
    /// Session-frames served from a previous mask.
    reused_frames: usize,
    /// Session-frames decided at a below-nominal ladder rung.
    degraded_frames: usize,
    /// Ticks that overran the deadline after maximal degradation.
    overrun_ticks: usize,
    /// Sustained throughput: live sessions × tick rate, derated by the
    /// overrun fraction.
    sessions_x_fps: f64,
}

/// The archived record: host context, the measured core, and the sweep.
#[derive(Serialize, Deserialize)]
struct Record {
    host_threads: usize,
    /// True when the host exposes a single hardware thread: widths above 1
    /// then measure dispatch overhead, not parallel speedup, and must not
    /// be compared against multi-core baselines.
    degraded_host: bool,
    pool_width_default: usize,
    iterations: usize,
    core: Vec<CoreMeasurement>,
    sweep: Vec<SweepRow>,
}

/// Median wall time of `f` over [`ITERS`] runs, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Shared fixtures for the inference-core comparison: one set of weights,
/// one set of per-session activations.
struct CoreFixture {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    rnn: RnnCell,
    /// Gaze-delta readout `[2, RNN_HIDDEN]` applied after the rollout.
    readout: Tensor,
    /// Per-session token matrices `[TOKENS, FEAT]`.
    tokens: Vec<Tensor>,
    /// All sessions' gazes `[S, 2]` and its per-session `[1, 2]` rows.
    gazes: Tensor,
    gaze_rows: Vec<Tensor>,
    /// All sessions' hidden states `[S, RNN_HIDDEN]` and per-session rows.
    hidden: Tensor,
    hidden_rows: Vec<Tensor>,
}

impl CoreFixture {
    fn new() -> Self {
        let mut rng = seeded_rng(21);
        let tokens: Vec<Tensor> = (0..CORE_SESSIONS)
            .map(|i| normal(&mut rng, &[TOKENS, FEAT], 0.0, 0.4 + 0.1 * i as f32))
            .collect();
        let gazes = normal(&mut rng, &[CORE_SESSIONS, 2], 0.5, 0.1);
        let hidden = normal(&mut rng, &[CORE_SESSIONS, RNN_HIDDEN], 0.0, 0.3);
        Self {
            w1: xavier_uniform(&mut rng, &[HIDDEN, FEAT], FEAT, HIDDEN),
            b1: normal(&mut rng, &[HIDDEN], 0.0, 0.1),
            w2: xavier_uniform(&mut rng, &[OUT, HIDDEN], HIDDEN, OUT),
            b2: normal(&mut rng, &[OUT], 0.0, 0.1),
            rnn: RnnCell::new(&mut rng, 2, RNN_HIDDEN),
            readout: xavier_uniform(&mut rng, &[2, RNN_HIDDEN], RNN_HIDDEN, 2),
            gaze_rows: (0..CORE_SESSIONS)
                .map(|i| gazes.row(i).reshape(&[1, 2]))
                .collect(),
            hidden_rows: (0..CORE_SESSIONS)
                .map(|i| hidden.row(i).reshape(&[1, RNN_HIDDEN]))
                .collect(),
            tokens,
            gazes,
            hidden,
        }
    }

    fn bias_tanh(x: &mut Tensor, b: &Tensor) {
        let bs = b.as_slice();
        for row in x.as_mut_slice().chunks_exact_mut(bs.len()) {
            for (o, &bv) in row.iter_mut().zip(bs) {
                *o = (*o + bv).tanh();
            }
        }
    }

    fn bias_add(x: &mut Tensor, b: &Tensor) {
        let bs = b.as_slice();
        for row in x.as_mut_slice().chunks_exact_mut(bs.len()) {
            for (o, &bv) in row.iter_mut().zip(bs) {
                *o += bv;
            }
        }
    }

    /// One weight-push epoch of the sequential baseline: each session owns
    /// its caches, so the version bump at block start repacks once per
    /// *session*; every tick dispatches one GEMM chain per session.
    fn sequential_epoch(&self, precision: Precision, ticks: usize, version: &mut u64) {
        *version += 1;
        let mut f32_caches: Vec<(PackedCache, PackedCache)> =
            (0..CORE_SESSIONS).map(|_| Default::default()).collect();
        let mut q_caches: Vec<(PackedCache<QPackedMatrix>, PackedCache<QPackedMatrix>)> =
            (0..CORE_SESSIONS).map(|_| Default::default()).collect();
        let mut cell_caches: Vec<PackedCache<RnnCellPacked>> =
            (0..CORE_SESSIONS).map(|_| Default::default()).collect();
        let mut readout_caches: Vec<PackedCache> =
            (0..CORE_SESSIONS).map(|_| Default::default()).collect();
        for _ in 0..ticks {
            for s in 0..CORE_SESSIONS {
                let mut h = match precision {
                    Precision::F32 => {
                        let p1 = f32_caches[s]
                            .0
                            .get_or_pack(*version, || PackedMatrix::pack_rhs_transposed(&self.w1));
                        self.tokens[s].matmul_packed(p1)
                    }
                    Precision::Int8 => {
                        let q1 = q_caches[s]
                            .0
                            .get_or_pack(*version, || QPackedMatrix::pack_rhs_transposed(&self.w1));
                        self.tokens[s].qmatmul_packed(q1)
                    }
                };
                Self::bias_tanh(&mut h, &self.b1);
                let mut l = match precision {
                    Precision::F32 => {
                        let p2 = f32_caches[s]
                            .1
                            .get_or_pack(*version, || PackedMatrix::pack_rhs_transposed(&self.w2));
                        h.matmul_packed(p2)
                    }
                    Precision::Int8 => {
                        let q2 = q_caches[s]
                            .1
                            .get_or_pack(*version, || QPackedMatrix::pack_rhs_transposed(&self.w2));
                        h.qmatmul_packed(q2)
                    }
                };
                Self::bias_add(&mut l, &self.b2);
                h.recycle();
                l.recycle();
                // Speculative gaze rollout: R predictor steps, one session
                // at a time — R tiny GEMM chains per session per tick.
                let cell = cell_caches[s].get_or_pack(*version, || self.rnn.pack());
                let mut hid = self.hidden_rows[s].clone();
                for _ in 0..ROLLOUT_STEPS {
                    let next = self.rnn.step_batch(&self.gaze_rows[s], &hid, cell);
                    hid.recycle();
                    hid = next;
                }
                let pr = readout_caches[s].get_or_pack(*version, || {
                    PackedMatrix::pack_rhs_transposed(&self.readout)
                });
                let delta = hid.matmul_packed(pr);
                delta.recycle();
                hid.recycle();
            }
        }
    }

    /// One weight-push epoch of the batched path: shared caches repack
    /// once per *process* at the version bump; every tick fuses all
    /// sessions into one GEMM chain and one RNN step.
    fn batched_epoch(&self, precision: Precision, ticks: usize, version: &mut u64) {
        *version += 1;
        let shared_f1: SharedPackedCache = SharedPackedCache::new();
        let shared_f2: SharedPackedCache = SharedPackedCache::new();
        let shared_q1: SharedPackedCache<QPackedMatrix> = SharedPackedCache::new();
        let shared_q2: SharedPackedCache<QPackedMatrix> = SharedPackedCache::new();
        let shared_cell: SharedPackedCache<RnnCellPacked> = SharedPackedCache::new();
        let shared_readout: SharedPackedCache = SharedPackedCache::new();
        for _ in 0..ticks {
            let refs: Vec<&Tensor> = self.tokens.iter().collect();
            let mut hs = match precision {
                Precision::F32 => {
                    let p1 = shared_f1
                        .get_or_pack(*version, || PackedMatrix::pack_rhs_transposed(&self.w1));
                    matmul_packed_batched(&refs, &p1)
                }
                Precision::Int8 => {
                    let q1 = shared_q1
                        .get_or_pack(*version, || QPackedMatrix::pack_rhs_transposed(&self.w1));
                    qmatmul_packed_batched(&refs, &q1)
                }
            };
            for h in &mut hs {
                Self::bias_tanh(h, &self.b1);
            }
            let hrefs: Vec<&Tensor> = hs.iter().collect();
            let mut ls = match precision {
                Precision::F32 => {
                    let p2 = shared_f2
                        .get_or_pack(*version, || PackedMatrix::pack_rhs_transposed(&self.w2));
                    matmul_packed_batched(&hrefs, &p2)
                }
                Precision::Int8 => {
                    let q2 = shared_q2
                        .get_or_pack(*version, || QPackedMatrix::pack_rhs_transposed(&self.w2));
                    qmatmul_packed_batched(&hrefs, &q2)
                }
            };
            for l in &mut ls {
                Self::bias_add(l, &self.b2);
            }
            for t in hs.into_iter().chain(ls) {
                t.recycle();
            }
            // The same rollout with the time-step loop batched across the
            // session dimension: R fused GEMM chains per tick, total.
            let cell = shared_cell.get_or_pack(*version, || self.rnn.pack());
            let mut hid = self.hidden.clone();
            for _ in 0..ROLLOUT_STEPS {
                let next = self.rnn.step_batch(&self.gazes, &hid, &cell);
                hid.recycle();
                hid = next;
            }
            let pr = shared_readout.get_or_pack(*version, || {
                PackedMatrix::pack_rhs_transposed(&self.readout)
            });
            let deltas = hid.matmul_packed(&pr);
            deltas.recycle();
            hid.recycle();
        }
    }
}

/// Times the inference core at each pool width, both precisions, both
/// push-cadence scenarios.
fn measure_core() -> Vec<CoreMeasurement> {
    let fx = CoreFixture::new();
    let mut out = Vec::new();
    for precision in [Precision::F32, Precision::Int8] {
        for (scenario, ticks) in SCENARIOS {
            // Time several epochs per block so each timed unit spans a few
            // milliseconds — single-core hosts jitter too much at ~300 µs.
            let reps = (8 / ticks).max(1);
            for width in WIDTHS {
                let mut v = 0u64;
                let sequential_us = median_us(|| {
                    exec::with_threads(width, || {
                        for _ in 0..reps {
                            fx.sequential_epoch(precision, ticks, &mut v);
                        }
                    })
                }) / (ticks * reps) as f64;
                let mut v = 0u64;
                let batched_us = median_us(|| {
                    exec::with_threads(width, || {
                        for _ in 0..reps {
                            fx.batched_epoch(precision, ticks, &mut v);
                        }
                    })
                }) / (ticks * reps) as f64;
                out.push(CoreMeasurement {
                    precision: precision.name().to_string(),
                    scenario: scenario.to_string(),
                    width,
                    sessions: CORE_SESSIONS,
                    sequential_us,
                    batched_us,
                    speedup_batched_vs_sequential: if batched_us > 0.0 {
                        sequential_us / batched_us
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    out
}

/// Offered-session counts, deadlines and batch sizes of the sweep.
fn sweep_grid(quick: bool) -> (Vec<usize>, Vec<f64>, Vec<usize>, usize) {
    if quick {
        (vec![1, 4], vec![33.3, 60.0], vec![1, 8], 6)
    } else {
        (
            vec![1, 2, 4, 8, 16],
            vec![16.7, 33.3, 60.0],
            vec![1, 4, 8],
            24,
        )
    }
}

/// Drives a real server over the sweep grid.
fn measure_sweep(quick: bool) -> Vec<SweepRow> {
    let (session_counts, deadlines, batches, ticks) = sweep_grid(quick);
    let mut rng = seeded_rng(31);
    let model = Arc::new(
        ServeModel::new(&mut rng, ServeModelConfig::paper_default())
            .expect("paper-default serve model"),
    );
    let mut rows = Vec::new();
    for &offered in &session_counts {
        for &deadline_ms in &deadlines {
            for &batch in &batches {
                let cfg = ServerConfig {
                    deadline: Latency::from_ms(deadline_ms),
                    batch,
                    frames_per_video: 16,
                    ..ServerConfig::paper_default()
                };
                let mut server =
                    Server::new(Arc::clone(&model), cfg).expect("validated server config");
                let (mut admitted, mut queued, mut rejected) = (0usize, 0usize, 0usize);
                for i in 0..offered {
                    match server.admit(SessionSpec::nth(77, i)) {
                        AdmitOutcome::Admitted(_) => admitted += 1,
                        AdmitOutcome::Queued => queued += 1,
                        AdmitOutcome::Rejected { .. } => rejected += 1,
                    }
                }
                let mut degraded_frames = 0usize;
                for _ in 0..ticks {
                    degraded_frames += server.tick_supervised().base.degraded;
                }
                let live = server.sessions().len();
                let served_fraction = (ticks - server.overruns()) as f64 / ticks.max(1) as f64;
                rows.push(SweepRow {
                    sessions_offered: offered,
                    deadline_ms,
                    batch,
                    ticks,
                    admitted,
                    queued,
                    rejected,
                    ran_frames: server.frames_ran(),
                    reused_frames: server.frames_served() - server.frames_ran(),
                    degraded_frames,
                    overrun_ticks: server.overruns(),
                    sessions_x_fps: live as f64 * (1000.0 / deadline_ms) * served_fraction,
                });
            }
        }
    }
    rows
}

fn measure(quick: bool) -> Record {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Record {
        host_threads,
        degraded_host: host_threads == 1,
        pool_width_default: exec::pool().width(),
        iterations: ITERS,
        core: measure_core(),
        sweep: measure_sweep(quick),
    }
}

/// Diffs the fresh core timings against the archived record, printing
/// per-row deltas and returning the number of authoritative regressions.
fn diff(old: &Record, fresh: &Record) -> usize {
    header("Serving core diff (fresh vs archived)");
    let degraded = old.degraded_host || fresh.degraded_host;
    if degraded {
        println!(
            "note: degraded host in at least one record — widths > 1 measure \
             dispatch overhead, so only width-1 rows count as regressions"
        );
    }
    println!(
        "{:<22}{:>7}{:>13}{:>13}{:>9}  {}",
        "core", "width", "old (µs)", "new (µs)", "delta", "verdict"
    );
    let mut regressions = 0;
    for m in &fresh.core {
        let label = format!("batched_{}_{}", m.precision, m.scenario);
        let Some(prev) = old
            .core
            .iter()
            .find(|p| p.precision == m.precision && p.scenario == m.scenario && p.width == m.width)
        else {
            println!(
                "{:<22}{:>7}{:>13}{:>13.1}{:>9}  new row",
                label, m.width, "-", m.batched_us, "-"
            );
            continue;
        };
        let pct = if prev.batched_us > 0.0 {
            (m.batched_us - prev.batched_us) / prev.batched_us * 100.0
        } else {
            0.0
        };
        let authoritative = !degraded || m.width == 1;
        let verdict = if pct > REGRESSION_PCT && authoritative {
            regressions += 1;
            "REGRESSION"
        } else if pct > REGRESSION_PCT {
            "slower (informational)"
        } else if pct < -REGRESSION_PCT {
            "faster"
        } else {
            "ok"
        };
        println!(
            "{:<22}{:>7}{:>13.1}{:>13.1}{:>+8.1}%  {}",
            label, m.width, prev.batched_us, m.batched_us, pct, verdict
        );
    }
    println!(
        "{} authoritative regression{} (> {REGRESSION_PCT:.0}% slower)",
        regressions,
        if regressions == 1 { "" } else { "s" }
    );
    regressions
}

/// Structural validation of an archived `BENCH_serving.json` — no
/// re-measurement, so it is timing-flake-free for CI.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec: Record =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    if rec.host_threads == 1 && !rec.degraded_host {
        return Err(format!(
            "{path}: one-thread host must be recorded with degraded_host=true"
        ));
    }
    // Core rows: complete grid, consistent speedup columns, the width-1
    // f32 push-tick batched-throughput bar.
    for precision in ["f32", "i8"] {
        for (scenario, _) in SCENARIOS {
            for width in WIDTHS {
                let m = rec
                    .core
                    .iter()
                    .find(|m| {
                        m.precision == precision && m.scenario == scenario && m.width == width
                    })
                    .ok_or_else(|| {
                        format!("{path}: missing {precision}/{scenario} core row at width {width}")
                    })?;
                if !(m.sequential_us.is_finite() && m.batched_us.is_finite() && m.batched_us > 0.0)
                {
                    return Err(format!(
                        "{path}: non-finite core timing for {precision}/{scenario} w{width}"
                    ));
                }
                let derived = m.sequential_us / m.batched_us;
                if (m.speedup_batched_vs_sequential - derived).abs() > 1e-6 * derived.max(1.0) {
                    return Err(format!(
                        "{path}: {precision}/{scenario} w{width} speedup column disagrees \
                         with timings"
                    ));
                }
            }
        }
    }
    let bar = rec
        .core
        .iter()
        .find(|m| m.precision == "f32" && m.scenario == "push" && m.width == 1)
        .ok_or_else(|| format!("{path}: missing width-1 f32 push core row"))?;
    if bar.speedup_batched_vs_sequential < MIN_BATCHED_SPEEDUP {
        return Err(format!(
            "{path}: archived width-1 push-tick batched speedup {:.2}× is below the {:.1}× bar",
            bar.speedup_batched_vs_sequential, MIN_BATCHED_SPEEDUP
        ));
    }
    // Sweep rows: sane counters, and batch size must not change outcomes —
    // rows differing only in `batch` carry identical serving counters.
    if rec.sweep.is_empty() {
        return Err(format!("{path}: empty serving sweep"));
    }
    for r in &rec.sweep {
        if r.admitted + r.queued + r.rejected != r.sessions_offered {
            return Err(format!(
                "{path}: sessions={} deadline={} batch={}: admission outcomes do not sum",
                r.sessions_offered, r.deadline_ms, r.batch
            ));
        }
        if !r.sessions_x_fps.is_finite() || r.sessions_x_fps < 0.0 {
            return Err(format!(
                "{path}: sessions={} deadline={} batch={}: bad sessions_x_fps",
                r.sessions_offered, r.deadline_ms, r.batch
            ));
        }
    }
    for a in &rec.sweep {
        for b in &rec.sweep {
            if a.sessions_offered == b.sessions_offered
                && a.deadline_ms == b.deadline_ms
                && a.batch != b.batch
                && (
                    a.admitted,
                    a.ran_frames,
                    a.reused_frames,
                    a.degraded_frames,
                    a.overrun_ticks,
                ) != (
                    b.admitted,
                    b.ran_frames,
                    b.reused_frames,
                    b.degraded_frames,
                    b.overrun_ticks,
                )
            {
                return Err(format!(
                    "{path}: sessions={} deadline={}: batch {} vs {} changed serving outcomes",
                    a.sessions_offered, a.deadline_ms, a.batch, b.batch
                ));
            }
        }
    }
    println!(
        "{path}: ok — {} core rows, {} sweep rows, width-1 f32 push-tick batched speedup {:.2}× \
         (bar {:.1}×), batch-invariant outcomes, degraded_host={}",
        rec.core.len(),
        rec.sweep.len(),
        bar.speedup_batched_vs_sequential,
        MIN_BATCHED_SPEEDUP,
        rec.degraded_host
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check requires a path");
        if let Err(e) = check(path) {
            eprintln!("BENCH_serving check failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let fresh = measure(quick);
    if fresh.degraded_host {
        eprintln!(
            "WARNING: single-threaded host ({} hardware thread) — widths > 1 measure \
             dispatch overhead, not parallel speedup (degraded_host=true in the JSON).",
            fresh.host_threads
        );
    }
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        let path = args.get(i + 1).expect("--baseline requires a path");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let old: Record = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        if diff(&old, &fresh) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if maybe_json(&fresh) {
        return;
    }
    header("Cross-session batched inference core");
    println!(
        "host threads: {}   pool width: {}   degraded host: {}   sessions: {}",
        fresh.host_threads, fresh.pool_width_default, fresh.degraded_host, CORE_SESSIONS
    );
    println!(
        "{:<12}{:<10}{:>7}{:>17}{:>14}{:>10}",
        "precision", "scenario", "width", "sequential (µs)", "batched (µs)", "speedup"
    );
    for m in &fresh.core {
        println!(
            "{:<12}{:<10}{:>7}{:>17.1}{:>14.1}{:>10.2}",
            m.precision,
            m.scenario,
            m.width,
            m.sequential_us,
            m.batched_us,
            m.speedup_batched_vs_sequential
        );
    }
    println!();
    header("Serving sweep — sessions × deadline × batch");
    println!(
        "{:>9}{:>10}{:>7}{:>9}{:>8}{:>9}{:>7}{:>9}{:>10}{:>9}{:>14}",
        "offered",
        "deadline",
        "batch",
        "admit",
        "queue",
        "reject",
        "ran",
        "reused",
        "degraded",
        "overrun",
        "sessions×fps"
    );
    for r in &fresh.sweep {
        println!(
            "{:>9}{:>8.1}ms{:>7}{:>9}{:>8}{:>9}{:>7}{:>9}{:>10}{:>9}{:>14.1}",
            r.sessions_offered,
            r.deadline_ms,
            r.batch,
            r.admitted,
            r.queued,
            r.rejected,
            r.ran_frames,
            r.reused_frames,
            r.degraded_frames,
            r.overrun_ticks,
            r.sessions_x_fps
        );
    }
}
