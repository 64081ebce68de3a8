//! The `stream` workload: one video per op through `StreamingEvaluator`.
//!
//! Chosen because it is the single-user AR loop as deployed: the SSA
//! reuses most frames, so scene rendering, the SSA, the speculative index
//! maps and the degradation ladder carry the time, not the segmentation
//! GEMMs. A frame-kernel change should barely move it.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;
use solo_core::backbones::BackboneKind;
use solo_core::resilience::{
    DegradeLadder, FaultInjector, FaultPlan, ResilienceConfig, ResilientReport, SoloError,
};
use solo_core::solonet::{FoveatedPipeline, PipelineConfig};
use solo_core::ssa::{Ssa, SsaConfig};
use solo_core::system::{
    SpeculationConfig, SpeculativeReport, StreamingEvaluator, StreamingReport,
};
use solo_gaze::GazePoint;
use solo_hw::calib::sensor::ADC_GROUPS_PER_COL;
use solo_hw::soc::{Backbone, Dataset, Pipeline, SocModel};
use solo_sampler::uniform_subsample;
use solo_scene::VideoSequence;
use solo_serve::ScenePreset;
use solo_tensor::{exec, seeded_rng, Tensor};

use crate::trace::Tracer;
use crate::{elapsed, stats, Metrics, OpRecord, Workload, CHECK_WIDTH};

/// Frames per generated video.
const FRAMES: usize = 72;
/// Rendered frame side.
const FULL_RES: usize = 96;
/// Videos generated per preset.
const VIDEOS_PER_PRESET: usize = 6;
/// The presets rotated over, one per op.
const PRESETS: [ScenePreset; 4] = [
    ScenePreset::Aria,
    ScenePreset::Lvis,
    ScenePreset::Switching,
    ScenePreset::Crowded,
];
/// Presets × {speculative, fault-injected}.
pub const CYCLE: usize = 2 * PRESETS.len();
/// Speculation width of the oracle speculator.
const SPEC_K: usize = 2;
/// Dropout severity of the fault-injected videos.
const DROPOUT: f64 = 0.5;
/// Seed of the fault plans. The fault schedule is part of the workload,
/// not of its generated input, so the seed-to-seed spread reflects the
/// videos rather than how many long tracker losses a seed happens to draw.
const FAULT_SEED: u64 = 0xfa17;
/// The traced run re-times one segmentation every this many frames.
const SEGMENT_EVERY: usize = 6;

/// One preset's evaluator, a twin pipeline for re-timing, and its videos.
struct PresetState {
    preset: ScenePreset,
    ssa: SsaConfig,
    evaluator: StreamingEvaluator,
    probe: FoveatedPipeline,
    videos: Vec<VideoSequence>,
    plans: Vec<FaultPlan>,
}

/// What one video produced.
#[derive(Debug, Clone, PartialEq)]
enum Report {
    Speculative(SpeculativeReport),
    Faulted(ResilientReport),
}

impl Report {
    fn base(&self) -> StreamingReport {
        match self {
            Report::Speculative(r) => r.base,
            Report::Faulted(r) => r.base,
        }
    }
}

/// The stream workload's state.
pub struct StreamBench {
    presets: Vec<PresetState>,
    checked: [bool; 2],
    checks: usize,
    frames: usize,
    skipped: usize,
    spec_frames: usize,
    committed: usize,
    missed: usize,
    prewarmed: usize,
    fault_frames: usize,
    degraded: usize,
    modelled_ms: Vec<f64>,
    video_ns: u64,
    render_ns: u64,
    self_us: Vec<f64>,
}

/// Preset, mode (0 speculative, 1 fault-injected) and video of op `i`.
fn slot(i: usize) -> (usize, usize, usize) {
    (
        i % PRESETS.len(),
        (i / PRESETS.len()) % 2,
        (i / CYCLE) % VIDEOS_PER_PRESET,
    )
}

fn run_video(
    ev: &mut StreamingEvaluator,
    video: &VideoSequence,
    mode: usize,
    plan: &FaultPlan,
) -> Result<Report, SoloError> {
    if mode == 0 {
        ev.run_speculative(video, &mut SpeculationConfig::oracle(SPEC_K))
            .map(Report::Speculative)
    } else {
        ev.run_with_faults(video, plan, &ResilienceConfig::paper_default())
            .map(Report::Faulted)
    }
}

/// Segments one frame through the public calls the evaluator composes.
fn segment(p: &mut FoveatedPipeline, image: &Tensor, gaze: GazePoint) -> Tensor {
    let cfg = *p.config();
    let map = p.index_map_at(image, gaze);
    let sampled = p.pack_sampled_at(&map, image, gaze);
    let (mask, _) = p.seg.infer(&sampled);
    map.upsample(&mask.reshape(&[1, cfg.down_res, cfg.down_res]))
        .into_reshaped(&[cfg.full_res, cfg.full_res])
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
}

/// The SoC pricing calls one video makes before its frame loop.
fn price_video(soc: &SocModel, ds: Dataset, mode: usize) {
    black_box(soc.evaluate(Pipeline::Solo, Backbone::Hr, ds));
    black_box(soc.skip_path(ds));
    if mode == 0 {
        black_box(soc.speculative_commit_path(Backbone::Hr, ds));
        for k in 0..=SPEC_K {
            black_box(soc.speculative_prewarm_path(ds, k));
        }
    } else {
        let widen = f64::from(ResilienceConfig::paper_default().widen_factor);
        black_box(soc.uniform_fallback_path(Backbone::Hr, ds));
        black_box(soc.degraded_solo_path(Backbone::Hr, ds, widen, &[]));
        for g in 0..ADC_GROUPS_PER_COL {
            black_box(soc.degraded_solo_path(Backbone::Hr, ds, 1.0, &[g]));
            black_box(soc.degraded_solo_path(Backbone::Hr, ds, widen, &[g]));
        }
    }
}

impl StreamBench {
    /// Generates the videos and builds one seeded, untrained Hr pipeline
    /// per preset, then streams one video of each preset.
    pub fn setup(seed: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0x5157_4ea3);
        let presets = PRESETS
            .iter()
            .enumerate()
            .map(|(p, &preset)| {
                let vcfg = preset.video_config(FRAMES);
                let ds = vcfg.dataset.clone().with_resolution(FULL_RES);
                let pcfg = PipelineConfig::for_dataset(&ds, FULL_RES, FULL_RES / 4);
                let pipe_seed: u64 = rng.gen();
                let pipe = || {
                    FoveatedPipeline::new(
                        &mut seeded_rng(pipe_seed),
                        BackboneKind::Hr,
                        pcfg,
                        true,
                        1e-3,
                    )
                };
                let ssa = SsaConfig::paper_default(ds.paper_resolution);
                let videos = (0..VIDEOS_PER_PRESET)
                    .map(|_| {
                        let mut v = preset.video_config(FRAMES);
                        v.dataset = ds.clone();
                        VideoSequence::generate(v, &mut rng)
                    })
                    .collect();
                let plans = (0..VIDEOS_PER_PRESET)
                    .map(|v| {
                        FaultPlan::dropout(FAULT_SEED ^ (p * VIDEOS_PER_PRESET + v) as u64, DROPOUT)
                    })
                    .collect();
                PresetState {
                    preset,
                    ssa,
                    evaluator: StreamingEvaluator::new(
                        ssa,
                        Backbone::Hr,
                        preset.hw_dataset(),
                        Some(pipe()),
                    ),
                    probe: pipe(),
                    videos,
                    plans,
                }
            })
            .collect();
        let mut bench = Self {
            presets,
            checked: [false; 2],
            checks: 0,
            frames: 0,
            skipped: 0,
            spec_frames: 0,
            committed: 0,
            missed: 0,
            prewarmed: 0,
            fault_frames: 0,
            degraded: 0,
            modelled_ms: Vec::new(),
            video_ns: 0,
            render_ns: 0,
            self_us: Vec::new(),
        };
        for i in 0..PRESETS.len() {
            let (p, mode, v) = slot(i);
            let st = &mut bench.presets[p];
            // Warm-up only: an error here shows again, and counts, in the
            // measured ops.
            let _ = run_video(&mut st.evaluator, &st.videos[v], mode, &st.plans[v]);
        }
        bench
    }

    fn tally(&mut self, report: &Report) {
        let base = report.base();
        match report {
            Report::Speculative(r) => {
                self.spec_frames += base.frames;
                self.committed += r.spec.committed;
                self.missed += r.spec.missed;
                self.prewarmed += r.spec.prewarmed_candidates;
            }
            Report::Faulted(r) => {
                self.fault_frames += base.frames;
                self.degraded += r.robustness.degraded_frames;
            }
        }
        self.frames += base.frames;
        self.skipped += base.skipped;
        self.modelled_ms.push(base.mean_latency_ms);
    }

    /// Re-times, on the same video, the public calls the evaluator made,
    /// and returns the ns they account for.
    fn attribute(&mut self, i: usize, runs: usize, tr: &mut Tracer) -> u64 {
        let (p, mode, v) = slot(i);
        let st = &mut self.presets[p];
        let video = &st.videos[v];
        let d = FULL_RES / 4;
        let mut ssa = Ssa::new(st.ssa);
        let mut injector = FaultInjector::new(st.plans[v]);
        let mut ladder = DegradeLadder::new();
        let rcfg = ResilienceConfig::paper_default();
        let mut prev_suppressed = false;
        for f in 0..video.len() {
            let frame = tr.span("scene.render", || video.frame(f));
            let mut preview = tr.span("sampler.preview", || uniform_subsample(&frame.image, d, d));
            if mode == 1 {
                tr.span("resilience.ladder", || {
                    let (obs, faults) = injector.observe(&frame.gaze);
                    injector.corrupt_preview(&mut preview, &faults);
                    if obs.is_usable() {
                        ladder.reset();
                    } else {
                        black_box(ladder.decide(&rcfg));
                    }
                });
            }
            let suppressed = frame.gaze.phase.is_suppressed();
            tr.span("ssa.step", || {
                black_box(ssa.step(&preview, frame.gaze.point, suppressed))
            });
            if mode == 0 && prev_suppressed {
                tr.span("spec.prewarm", || {
                    st.probe
                        .speculate_maps(&frame.image, &[(frame.gaze.point, 1.0)])
                        .abort()
                });
            }
            if f % SEGMENT_EVERY == 0 {
                tr.span("stream.segment", || {
                    black_box(segment(&mut st.probe, &frame.image, frame.gaze.point))
                });
            }
            prev_suppressed = suppressed;
        }
        let soc = SocModel::default();
        tr.span("hw.price.video", || {
            price_video(&soc, st.preset.hw_dataset(), mode)
        });
        // Medians, not totals: a single descheduled call must not swamp a
        // video's attribution.
        let op = i as u64;
        let estimate = |name: &str, count: Option<usize>| {
            let (n, median) = tr.op_median_ns(name, op);
            count.unwrap_or(n) as u64 * median
        };
        let render = estimate("scene.render", None);
        self.render_ns += render;
        render
            + estimate("stream.segment", Some(runs))
            + [
                "sampler.preview",
                "resilience.ladder",
                "ssa.step",
                "spec.prewarm",
                "hw.price.video",
            ]
            .iter()
            .map(|n| estimate(n, None))
            .sum::<u64>()
    }
}

impl Workload for StreamBench {
    fn cycle(&self) -> usize {
        CYCLE
    }

    /// One latency sample per rotation: per-video frame times fall into
    /// eight preset-and-loop clusters, and a median over videos would land
    /// on the edge of one of them.
    fn latency_group(&self) -> usize {
        CYCLE
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpRecord {
        let (p, mode, v) = slot(i);
        let st = &mut self.presets[p];
        let root = tr.open("stream.video");
        let t = Instant::now();
        let result = run_video(&mut st.evaluator, &st.videos[v], mode, &st.plans[v]);
        let (busy_s, _) = elapsed(t);
        let video_ns = tr.close(root);
        let frames = st.videos[v].len();
        let mut failed = result.is_err();
        if !self.checked[mode] {
            self.checked[mode] = true;
            let wide = exec::with_threads(CHECK_WIDTH, || {
                run_video(&mut st.evaluator, &st.videos[v], mode, &st.plans[v])
            });
            self.checks += 1;
            failed |= !matches!((&result, &wide), (Ok(a), Ok(b)) if a == b);
        }
        if let Ok(report) = &result {
            self.tally(report);
            if tr.enabled() {
                let base = report.base();
                let runs = base.frames - base.skipped;
                let attributed = self.attribute(i, runs, tr);
                self.video_ns += video_ns;
                self.self_us
                    .push((video_ns as f64 - attributed as f64) / 1e3);
            }
        }
        OpRecord {
            latency_ms: busy_s * 1e3 / frames.max(1) as f64,
            busy_s,
            units: frames,
            ok_units: if failed { 0 } else { frames },
            failed,
        }
    }

    fn final_checks(&mut self) -> (usize, usize) {
        // The per-op check already failed its op; report the count only.
        (self.checks, 0)
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Metrics) {
        let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.push("scene.render_us", tr.median_us("scene.render"), "us");
        out.push(
            "scene.render_share",
            self.render_ns as f64 / self.video_ns.max(1) as f64,
            "ratio",
        );
        out.push("ssa.step_us", tr.median_us("ssa.step"), "us");
        out.push("ssa.skip_frac", ratio(self.skipped, self.frames), "ratio");
        out.push(
            "spec.hit_rate",
            ratio(self.committed, self.committed + self.missed),
            "ratio",
        );
        out.push(
            "spec.prewarmed_per_frame",
            ratio(self.prewarmed, self.spec_frames),
            "count",
        );
        out.push(
            "ladder.degraded_frac",
            ratio(self.degraded, self.fault_frames),
            "ratio",
        );
        out.push("system.loop_self_us", stats::median(&self.self_us), "us");
        out.push("modelled.stream_latency_ms", mean(&self.modelled_ms), "ms");
    }
}
