//! Streaming end-to-end evaluation: SSA decisions over a synthetic video,
//! scored for accuracy (reused masks vs moving ground truth) and priced by
//! the `solo-hw` pipeline models (Sections 5.3, 6.3, 6.6).
//!
//! One private frame loop serves every entry point. Per frame the gaze
//! arrives through a [`FaultInjector`], speculation (when configured)
//! pre-warms candidate index maps, the SSA — or, while the tracker is
//! dark, the degradation ladder — picks the frame's [`Work`], the deadline
//! may escalate it to a cheaper rung, and the held mask is refreshed and
//! scored. [`StreamingEvaluator::run`] is that loop with no speculation,
//! [`FaultPlan::none`] and no deadline; [`StreamingEvaluator::run_speculative`]
//! adds speculation and [`StreamingEvaluator::run_with_faults`] a fault
//! plan and a deadline.

use solo_gaze::{GazePoint, GazePredictor, GazeSample};
use solo_hw::calib::sensor::ADC_GROUPS_PER_COL;
use solo_hw::soc::{
    Backbone as HwBackbone, CostBreakdown, Dataset as HwDataset, Pipeline, SocModel,
};
use solo_hw::timing::FrameBudget;
use solo_hw::Latency;
use solo_sampler::{gaze_saliency, uniform_subsample, IndexMap, SamplerSpec};
use solo_scene::{Frame, VideoSequence};
use solo_tensor::Tensor;

use crate::metrics::{binary_iou, classified_iou, IouAccumulator};
use crate::resilience::{
    rung_work, DegradeAction, DegradeLadder, FaultInjector, FaultPlan, FrameOutcome,
    ResilienceConfig, ResilientReport, RobustnessReport, RungScore, SoloError, Work,
};
use crate::solonet::{FoveatedPipeline, PipelineConfig, SpeculationSet, SpeculativeCandidate};
use crate::ssa::{Ssa, SsaConfig};

/// Aggregate results of streaming a video through SOLO with the SSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingReport {
    /// Frames processed.
    pub frames: usize,
    /// Frames whose segmentation was skipped (result reused).
    pub skipped: usize,
    /// Mean b-IoU over frames with a ground-truth IOI (0 if untracked).
    pub b_iou: f32,
    /// Mean c-IoU over frames with a ground-truth IOI (0 if untracked).
    pub c_iou: f32,
    /// Mean per-frame latency in ms (full path on run frames, `T_skip` on
    /// reused frames).
    pub mean_latency_ms: f64,
}

impl StreamingReport {
    /// Fraction of frames skipped.
    pub fn skip_fraction(&self) -> f32 {
        if self.frames == 0 {
            0.0
        } else {
            self.skipped as f32 / self.frames as f32
        }
    }
}

/// Which forecaster supplies candidate landing points while a saccade is
/// in flight.
#[derive(Debug)]
pub enum Speculator {
    /// Ground-truth landing points (a zero-error predictor — the upper
    /// bound of the protocol, and the identity anchor for the tests).
    Oracle,
    /// The trained recurrent predictor from `solo-gaze`.
    Learned(GazePredictor),
}

/// Configuration of the speculate→commit frame protocol.
#[derive(Debug)]
pub struct SpeculationConfig {
    /// Candidate landing points pre-warmed per in-flight saccade. Zero
    /// disables speculation entirely (bit-identical to [`StreamingEvaluator::run`]).
    pub k: usize,
    /// Normalized gaze distance within which the nearest candidate commits;
    /// a measured landing farther than this from every candidate is a total
    /// miss and falls through to the reactive path.
    pub commit_radius: f32,
    /// Per-frame latency deadline the speculative work is charged against.
    /// When pre-warming would prospectively overrun it, speculation is
    /// dropped for that frame (the reactive path still runs).
    pub deadline: Latency,
    /// Measured gaze samples retained as predictor history.
    pub history: usize,
    /// The landing-point forecaster.
    pub speculator: Speculator,
}

impl SpeculationConfig {
    /// No speculation: the protocol runs but never pre-warms.
    pub fn reactive() -> Self {
        Self::oracle(0)
    }

    /// Oracle speculation with `k` candidates and an unlimited deadline.
    pub fn oracle(k: usize) -> Self {
        Self {
            k,
            commit_radius: 0.042,
            deadline: Latency::from_ms(f64::INFINITY),
            history: 32,
            speculator: Speculator::Oracle,
        }
    }

    /// Learned speculation with `k` candidates from a trained predictor.
    pub fn learned(predictor: GazePredictor, k: usize) -> Self {
        Self {
            speculator: Speculator::Learned(predictor),
            ..Self::oracle(k)
        }
    }

    /// Checks the configured ranges.
    pub fn validate(&self) -> FrameOutcome<()> {
        if !(self.commit_radius > 0.0) || !self.commit_radius.is_finite() {
            return Err(SoloError::InvalidConfig(
                "commit_radius must be finite and > 0",
            ));
        }
        if self.deadline.us().is_nan() || self.deadline <= Latency::ZERO {
            return Err(SoloError::InvalidConfig("deadline must be positive"));
        }
        if self.history < 2 && matches!(self.speculator, Speculator::Learned(_)) {
            return Err(SoloError::InvalidConfig(
                "a learned speculator needs history >= 2",
            ));
        }
        Ok(())
    }
}

/// Counters describing what the speculation protocol did over one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpeculationStats {
    /// Frames whose start overlapped an in-flight saccade and pre-warmed.
    pub speculated_frames: usize,
    /// Candidate index maps pre-warmed in total.
    pub prewarmed_candidates: usize,
    /// Run frames that committed a pre-warmed candidate.
    pub committed: usize,
    /// Run frames where every candidate missed (reactive fallback).
    pub missed: usize,
    /// Pre-warmed sets recycled because the SSA reused the frame anyway.
    pub aborted_sets: usize,
    /// Frames where pre-warming was dropped to protect the deadline.
    pub dropped_for_budget: usize,
    /// Frames whose charged total (speculation included) overran the deadline.
    pub budget_overruns: usize,
    /// Mean pixel error between the committed candidate and the measured
    /// landing (0 if nothing committed).
    pub mean_commit_error_px: f32,
    /// Total pre-warm latency charged against frame budgets, in ms.
    pub prewarm_latency_ms: f64,
    /// Mean modeled sensor-to-display latency over committed-hit frames.
    pub mean_hit_latency_ms: f64,
    /// The reactive full-path frame latency the hits are measured against.
    pub reactive_run_latency_ms: f64,
}

impl SpeculationStats {
    /// Fraction of speculated run frames that committed.
    pub fn hit_rate(&self) -> f32 {
        let tried = self.committed + self.missed;
        if tried == 0 {
            0.0
        } else {
            self.committed as f32 / tried as f32
        }
    }
}

/// A [`StreamingReport`] extended with the speculation ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculativeReport {
    /// The streaming report; `mean_latency_ms` is the modeled
    /// sensor-to-display latency *with* speculation (pre-warm overlaps the
    /// tracker's measurement window, so hits display after the shortened
    /// commit path).
    pub base: StreamingReport,
    /// Mean per-frame latency the reactive [`StreamingEvaluator::run`] path
    /// would have charged on the same decisions — the "without prediction"
    /// column.
    pub reactive_latency_ms: f64,
    /// What speculation did.
    pub spec: SpeculationStats,
}

impl SpeculativeReport {
    /// Mean sensor-to-display latency saved per frame by speculation.
    pub fn latency_saved_ms(&self) -> f64 {
        self.reactive_latency_ms - self.base.mean_latency_ms
    }
}

/// Streams a [`VideoSequence`] through the SSA.
///
/// With a trained [`FoveatedPipeline`] attached, frames are actually
/// segmented and reused masks are scored against each frame's moving
/// ground truth (the Fig. 12 (b) accuracy/skip trade-off). Without one,
/// only the skip statistics and hardware costs are produced (the
/// Fig. 14 (b) speedup sweep), which needs no training.
pub struct StreamingEvaluator {
    ssa: Ssa,
    soc: SocModel,
    hw_backbone: HwBackbone,
    hw_dataset: HwDataset,
    pipeline: Option<FoveatedPipeline>,
}

impl StreamingEvaluator {
    /// Creates an evaluator. `pipeline` is the trained SOLO pipeline, or
    /// `None` for cost-only sweeps.
    pub fn new(
        config: SsaConfig,
        hw_backbone: HwBackbone,
        hw_dataset: HwDataset,
        pipeline: Option<FoveatedPipeline>,
    ) -> Self {
        Self {
            ssa: Ssa::new(config),
            soc: SocModel::default(),
            hw_backbone,
            hw_dataset,
            pipeline,
        }
    }

    /// Streams the whole video.
    pub fn run(&mut self, video: &VideoSequence) -> StreamingReport {
        self.stream(
            video,
            None,
            &FaultPlan::none(),
            &ResilienceConfig::unlimited(),
        )
        .map(|(report, _)| report.base)
        // lint:allow(P1): a disabled plan and the unlimited config always validate, and `new` always configures the SSA, so this pass has no error path
        .expect("a fault-free, deadline-free pass cannot fail")
    }

    /// Streams the whole video under the speculate→commit frame protocol.
    ///
    /// While a saccade is in flight (the previous frame's phase was
    /// suppressed — [`solo_gaze::EyePhase::Saccade`] or its recovery
    /// window), the start of the next frame — which overlaps the eye
    /// tracker's measurement latency window — pre-warms
    /// saliency crops and SBS index maps for up to `cfg.k` candidate
    /// landing points via [`FoveatedPipeline::speculate_maps`]. Once the
    /// measured landing arrives, the nearest candidate within
    /// `cfg.commit_radius` commits (its ESNet stage already ran, shortening
    /// the displayed frame by exactly that stage); a total miss falls
    /// through to the reactive path, and an SSA reuse aborts the set. All
    /// pre-warm work is charged against `cfg.deadline` — speculation is
    /// priced, never free — and is dropped for a frame whose budget it
    /// would prospectively overrun.
    ///
    /// With `cfg.k == 0` the produced base report is bit-identical to
    /// [`Self::run`], and with an [`Speculator::Oracle`] at `k = 1` the
    /// segmentation outputs are too (asserted by the integration tests);
    /// `reactive_latency_ms` always equals the [`Self::run`] mean exactly.
    pub fn run_speculative(
        &mut self,
        video: &VideoSequence,
        cfg: &mut SpeculationConfig,
    ) -> FrameOutcome<SpeculativeReport> {
        let (_, report) = self.stream(
            video,
            Some(cfg),
            &FaultPlan::none(),
            &ResilienceConfig::unlimited(),
        )?;
        Ok(report)
    }

    /// Streams the whole video under a fault plan, degrading gracefully.
    ///
    /// The fallible sibling of [`Self::run`]: each frame's gaze arrives
    /// through the seeded [`FaultInjector`], gaze dropouts walk the
    /// degradation ladder (hold fixation → widen crop → uniform fallback →
    /// reuse mask), and every stage's modeled latency is charged against
    /// `config.deadline` — a prospective overrun escalates the frame to a
    /// cheaper rung before it happens. With [`FaultPlan::none`] and
    /// [`ResilienceConfig::unlimited`] the produced base report is
    /// bit-identical to [`Self::run`] (asserted by the integration tests).
    ///
    /// Without a trained pipeline, setting `config.score_round_trip` scores
    /// each rung by round-tripping the ground-truth mask through that
    /// rung's sampling geometry — an oracle segmenter that isolates the
    /// sampling loss per rung.
    pub fn run_with_faults(
        &mut self,
        video: &VideoSequence,
        plan: &FaultPlan,
        config: &ResilienceConfig,
    ) -> FrameOutcome<ResilientReport> {
        let (report, _) = self.stream(video, None, plan, config)?;
        Ok(report)
    }

    /// The frame loop behind every entry point. Both returned reports
    /// share one `base`; `spec` is empty without speculation.
    fn stream(
        &mut self,
        video: &VideoSequence,
        spec: Option<&mut SpeculationConfig>,
        plan: &FaultPlan,
        config: &ResilienceConfig,
    ) -> FrameOutcome<(ResilientReport, SpeculativeReport)> {
        plan.validate()?;
        config.validate()?;
        if let Some(cfg) = spec.as_deref() {
            cfg.validate()?;
        }
        self.ssa.reset();
        let n = video.config().dataset.resolution;
        let down = n / 4;
        let oracle_sigma = PipelineConfig::for_dataset(&video.config().dataset, n, down).sigma;
        let prices = RungPrices::new(
            &self.soc,
            self.hw_backbone,
            self.hw_dataset,
            config.widen_factor,
        );
        let mut spec = spec.map(|cfg| {
            Speculation::new(
                cfg,
                &self.soc,
                self.hw_backbone,
                self.hw_dataset,
                prices.run.latency().ms(),
            )
        });

        let mut injector = FaultInjector::new(*plan);
        let mut ladder = DegradeLadder::new();
        let mut budget = FrameBudget::new(config.deadline);
        let mut held: Option<(Tensor, usize)> = None;
        let mut held_gaze: Option<GazePoint> = None;
        let mut actions = Vec::with_capacity(video.len());
        let mut skipped = 0usize;
        let mut latency_total = 0.0f64;
        let mut reactive_total = 0.0f64;
        let mut score = IouAccumulator::new();
        let mut injected = 0usize;
        let mut overruns = 0usize;
        let mut episode = 0usize;
        let mut recoveries = 0usize;
        let mut recovery_total = 0usize;
        let mut rung_score = [IouAccumulator::new(); DegradeAction::RUNGS];

        for i in 0..video.len() {
            let frame = video.frame(i);
            budget.start_frame();
            let (obs, faults) = injector.observe(&frame.gaze);
            if faults.any() {
                injected += 1;
            }
            if let Some(s) = spec.as_mut() {
                s.prewarm(frame.gaze.point, &frame.image, self.pipeline.as_mut());
            }
            let mut preview = uniform_subsample(&frame.image, down, down);
            injector.corrupt_preview(&mut preview, &faults);

            // Decide the rung and the work it implies.
            let (mut action, mut work) =
                match self
                    .ssa
                    .observe(&preview, &obs, obs.sample.phase.is_suppressed())
                {
                    Ok(decision) => {
                        ladder.reset();
                        held_gaze = Some(obs.sample.point);
                        let work = if decision.must_run() {
                            Work::Run {
                                gaze: obs.sample.point,
                                widen: 1.0,
                            }
                        } else {
                            Work::Reuse
                        };
                        (DegradeAction::Nominal, work)
                    }
                    Err(SoloError::GazeUnavailable { .. }) => {
                        let action = ladder.decide(config);
                        let gaze = held_gaze.unwrap_or_else(GazePoint::center);
                        // The held fixation drives the SSA like a static
                        // gaze: a view change still reruns, a stable view
                        // still reuses.
                        let work = rung_work(action, gaze, gaze, |g| {
                            self.ssa.step(&preview, g, false).must_run()
                        });
                        (action, work)
                    }
                    Err(e) => return Err(e),
                };

            // Charge the frame against the deadline, escalating to cheaper
            // rungs while the prospective total would overrun.
            let spike = faults.latency_spike.unwrap_or(1.0);
            let mut frame_overrun = false;
            let total = loop {
                let bd = prices.of(work, faults.dead_group);
                // The spike hits the segmentation stage only; the addition
                // is exact for spike == 1, keeping fault-free runs
                // bit-identical to `run`.
                let total = bd.latency() + bd.segmentation.0 * (spike - 1.0);
                if !budget.would_overrun(total) {
                    break total;
                }
                match (action, work) {
                    (
                        DegradeAction::Nominal
                        | DegradeAction::HoldFixation { .. }
                        | DegradeAction::WidenCrop { .. },
                        Work::Run { .. },
                    ) => {
                        action = DegradeAction::UniformFallback;
                        work = Work::Uniform;
                    }
                    (DegradeAction::UniformFallback, _) => {
                        action = DegradeAction::ReuseMask;
                        work = Work::Reuse;
                    }
                    // Already on the floor: charge it and record the overrun.
                    _ => break total,
                }
                frame_overrun = true;
            };
            if !budget.charge(total) {
                frame_overrun = true;
            }
            if frame_overrun {
                overruns += 1;
            }

            // Execute the work.
            if work == Work::Reuse {
                skipped += 1;
            } else if let Some(p) = self.pipeline.as_mut() {
                held = Some(segment(p, &frame.image, work, spec.as_mut()));
            } else if config.score_round_trip {
                held = Some(oracle_round_trip(&frame, n, down, oracle_sigma, work));
            }
            let reactive_ms = total.ms();
            reactive_total += reactive_ms;
            latency_total += match spec.as_mut() {
                Some(s) => s.settle(work, reactive_ms, obs.sample, n),
                None => reactive_ms,
            };

            // Score the currently-displayed mask, overall and per rung.
            if let (Some((mask, class)), Some(gt_class)) = (&held, frame.ioi_class) {
                let b = binary_iou(mask, &frame.ioi_mask);
                let c = classified_iou(mask, *class, &frame.ioi_mask, gt_class.id());
                score.push(b, c);
                rung_score[action.rung()].push(b, c);
            }
            if action.is_degraded() {
                episode += 1;
            } else if episode > 0 {
                recoveries += 1;
                recovery_total += episode;
                episode = 0;
            }
            actions.push(action);
        }

        let count = video.len().max(1) as f64;
        let base = StreamingReport {
            frames: video.len(),
            skipped,
            b_iou: score.b_iou(),
            c_iou: score.c_iou(),
            mean_latency_ms: latency_total / count,
        };
        let faulted = ResilientReport {
            base,
            robustness: RobustnessReport {
                injected_frames: injected,
                degraded_frames: actions.iter().filter(|a| a.is_degraded()).count(),
                deadline_overruns: overruns,
                recoveries,
                mean_recovery_frames: if recoveries == 0 {
                    0.0
                } else {
                    recovery_total as f64 / recoveries as f64
                },
                by_rung: std::array::from_fn(|r| RungScore {
                    frames: actions.iter().filter(|a| a.rung() == r).count(),
                    b_iou: rung_score[r].b_iou(),
                    c_iou: rung_score[r].c_iou(),
                }),
            },
            actions,
        };
        let speculative = SpeculativeReport {
            base,
            reactive_latency_ms: reactive_total / count,
            spec: spec.map(Speculation::finish).unwrap_or_default(),
        };
        Ok((faulted, speculative))
    }
}

/// Every rung's cost breakdown, priced once per video. Rungs that re-read
/// the SBS selection also get a variant per dead ADC sub-group (a dead
/// sub-group skips its readout rows).
struct RungPrices {
    run: CostBreakdown,
    skip: CostBreakdown,
    uniform: CostBreakdown,
    widen: CostBreakdown,
    run_dead: Vec<CostBreakdown>,
    widen_dead: Vec<CostBreakdown>,
}

impl RungPrices {
    fn new(soc: &SocModel, backbone: HwBackbone, dataset: HwDataset, widen: f32) -> Self {
        let dead = |widen: f64| -> Vec<CostBreakdown> {
            (0..ADC_GROUPS_PER_COL)
                .map(|g| soc.degraded_solo_path(backbone, dataset, widen, &[g]))
                .collect()
        };
        Self {
            run: soc.evaluate(Pipeline::Solo, backbone, dataset),
            skip: soc.skip_path(dataset),
            uniform: soc.uniform_fallback_path(backbone, dataset),
            widen: soc.degraded_solo_path(backbone, dataset, widen as f64, &[]),
            run_dead: dead(1.0),
            widen_dead: dead(widen as f64),
        }
    }

    /// The breakdown `work` is charged at, given this frame's dead group.
    fn of(&self, work: Work, dead_group: Option<usize>) -> &CostBreakdown {
        match (work, dead_group) {
            (Work::Reuse, _) => &self.skip,
            (Work::Uniform, _) => &self.uniform,
            (Work::Run { widen, .. }, Some(g)) if widen > 1.0 => {
                &self.widen_dead[g % ADC_GROUPS_PER_COL]
            }
            (Work::Run { widen, .. }, None) if widen > 1.0 => &self.widen,
            (Work::Run { .. }, Some(g)) => &self.run_dead[g % ADC_GROUPS_PER_COL],
            (Work::Run { .. }, None) => &self.run,
        }
    }
}

/// One pass's speculate→commit state: the forecaster, its own frame
/// budget, the pre-priced pre-warm and commit paths, this frame's
/// candidates and the ledger.
struct Speculation<'c> {
    cfg: &'c mut SpeculationConfig,
    budget: FrameBudget,
    /// Pre-warm latency of `k` candidates, for `k` in `0..=cfg.k`.
    prewarm_ms: Vec<f64>,
    commit_ms: f64,
    run_ms: f64,
    history: Vec<GazeSample>,
    in_flight: bool,
    cands: Vec<(GazePoint, f32)>,
    set: Option<SpeculationSet>,
    stats: SpeculationStats,
    commit_err_px: f64,
    hit_ms: f64,
}

impl<'c> Speculation<'c> {
    fn new(
        cfg: &'c mut SpeculationConfig,
        soc: &SocModel,
        backbone: HwBackbone,
        dataset: HwDataset,
        run_ms: f64,
    ) -> Self {
        Self {
            budget: FrameBudget::new(cfg.deadline),
            prewarm_ms: (0..=cfg.k)
                .map(|k| soc.speculative_prewarm_path(dataset, k).latency().ms())
                .collect(),
            commit_ms: soc
                .speculative_commit_path(backbone, dataset)
                .latency()
                .ms(),
            run_ms,
            history: Vec::new(),
            in_flight: false,
            cands: Vec::new(),
            set: None,
            stats: SpeculationStats {
                reactive_run_latency_ms: run_ms,
                ..SpeculationStats::default()
            },
            commit_err_px: 0.0,
            hit_ms: 0.0,
            cfg,
        }
    }

    /// The top of a frame, before the measured gaze arrives: while a
    /// saccade is in flight, forecasts up to `k` landing points and
    /// pre-warms their maps — unless that would overrun the deadline.
    fn prewarm(
        &mut self,
        truth: GazePoint,
        image: &Tensor,
        pipeline: Option<&mut FoveatedPipeline>,
    ) {
        self.budget.start_frame();
        self.cands.clear();
        let k = self.cfg.k;
        if k == 0 || !self.in_flight {
            return;
        }
        if self
            .budget
            .would_overrun(Latency::from_ms(self.prewarm_ms[k] + self.run_ms))
        {
            self.stats.dropped_for_budget += 1;
            return;
        }
        self.cands = match &mut self.cfg.speculator {
            Speculator::Oracle => vec![(truth, 1.0)],
            Speculator::Learned(p) if self.history.len() >= 2 => {
                p.predict(&self.history).candidates(k)
            }
            Speculator::Learned(_) => Vec::new(),
        };
        if let Some(p) = pipeline.filter(|_| !self.cands.is_empty()) {
            self.set = Some(p.speculate_maps(image, &self.cands));
        }
    }

    /// Takes the pre-warmed candidate nearest `gaze`, if one lies within
    /// the commit radius; the others return to the buffer pool.
    fn commit(&mut self, gaze: GazePoint) -> Option<SpeculativeCandidate> {
        self.set.take()?.commit(gaze, self.cfg.commit_radius)
    }

    /// The end of a frame: aborts an uncommitted set, books the frame,
    /// charges it against the deadline and returns its displayed latency —
    /// the commit path on a hit (plus whatever fault surcharge the
    /// reactive price carries), the reactive price otherwise.
    fn settle(&mut self, work: Work, reactive_ms: f64, observed: GazeSample, n: usize) -> f64 {
        if let Some(set) = self.set.take() {
            set.abort();
        }
        let tried = !self.cands.is_empty();
        let prewarm = self.prewarm_ms[self.cands.len().min(self.cfg.k)];
        if tried {
            self.stats.speculated_frames += 1;
            self.stats.prewarmed_candidates += self.cands.len();
            self.stats.prewarm_latency_ms += prewarm;
        }
        let hit = match work {
            Work::Run { gaze, widen } if widen <= 1.0 => self
                .cands
                .iter()
                .map(|(c, _)| (c.distance(&gaze), c.distance_px(&gaze, n, n)))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .filter(|&(d, _)| d <= self.cfg.commit_radius),
            _ => None,
        };
        let display_ms = match (work, hit) {
            (Work::Reuse, _) => {
                if tried {
                    self.stats.aborted_sets += 1;
                }
                reactive_ms
            }
            (_, Some((_, err_px))) => {
                self.stats.committed += 1;
                self.commit_err_px += err_px as f64;
                let ms = self.commit_ms + (reactive_ms - self.run_ms);
                self.hit_ms += ms;
                ms
            }
            (_, None) => {
                if tried {
                    self.stats.missed += 1;
                }
                reactive_ms
            }
        };
        if !self.budget.charge(Latency::from_ms(prewarm + display_ms)) {
            self.stats.budget_overruns += 1;
        }
        self.history.push(observed);
        if self.history.len() > self.cfg.history {
            self.history.remove(0);
        }
        self.in_flight = observed.phase.is_suppressed();
        display_ms
    }

    fn finish(self) -> SpeculationStats {
        // Both sums are zero when nothing committed.
        let committed = self.stats.committed.max(1) as f64;
        SpeculationStats {
            mean_commit_error_px: (self.commit_err_px / committed) as f32,
            mean_hit_latency_ms: self.hit_ms / committed,
            ..self.stats
        }
    }
}

/// Oracle scoring for cost-only runs: round-trip the ground-truth mask
/// through the work's sampling geometry. A perfect segmenter would score
/// exactly this — what remains is the sampling loss of the rung itself.
fn oracle_round_trip(frame: &Frame, n: usize, d: usize, sigma: f32, work: Work) -> (Tensor, usize) {
    let spec = |s: f32| SamplerSpec::new(n, n, d, d, s);
    let map = match work {
        Work::Run { gaze, widen } => {
            let k = widen.max(1.0).sqrt();
            IndexMap::from_saliency(
                &spec(sigma * k),
                &gaze_saliency(d, d, (gaze.x, gaze.y), 0.15 * k, 0.02),
            )
        }
        Work::Uniform | Work::Reuse => IndexMap::uniform(&spec(sigma)),
    };
    let gt = frame.ioi_mask.reshape(&[1, n, n]);
    let up = map
        .upsample(&map.sample_nearest(&gt))
        .into_reshaped(&[n, n])
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    // The oracle's class is correct whenever the frame has an IOI; the
    // sentinel never matches a real class id.
    let class = frame.ioi_class.map(|c| c.id()).unwrap_or(usize::MAX);
    (up, class)
}

/// Runs `work` through the foveated pipeline, returning the
/// full-resolution binarized mask and the predicted class. A nominal crop
/// commits a pre-warmed map at its gaze when speculation has one.
fn segment(
    p: &mut FoveatedPipeline,
    image: &Tensor,
    work: Work,
    spec: Option<&mut Speculation<'_>>,
) -> (Tensor, usize) {
    let (map, gaze) = match work {
        Work::Run { gaze, widen } if widen > 1.0 => (p.index_map_widened(image, gaze, widen), gaze),
        Work::Run { gaze, .. } => match spec.and_then(|s| s.commit(gaze)) {
            Some(c) => {
                let out = finish_segment(p, &c.map, image, gaze);
                c.map.recycle();
                return out;
            }
            None => (p.index_map_at(image, gaze), gaze),
        },
        Work::Uniform | Work::Reuse => (IndexMap::uniform(&p.config().spec()), GazePoint::center()),
    };
    finish_segment(p, &map, image, gaze)
}

/// Samples with a prepared index map, infers, and reverse-samples the mask
/// to full resolution — the tail every run rung shares.
fn finish_segment(
    p: &mut FoveatedPipeline,
    map: &IndexMap,
    image: &Tensor,
    gaze: GazePoint,
) -> (Tensor, usize) {
    let full = p.config().full_res;
    let d = p.config().down_res;
    let sampled = p.pack_sampled_at(map, image, gaze);
    let (mask, logits) = p.seg.infer(&sampled);
    let up = map
        .upsample(&mask.reshape(&[1, d, d]))
        .into_reshaped(&[full, full])
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    (up, logits.argmax())
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_scene::VideoConfig;
    use solo_tensor::seeded_rng;

    fn video(frames: usize, seed: u64) -> VideoSequence {
        let mut cfg = VideoConfig::aria_like(frames);
        cfg.dataset.resolution = 48;
        VideoSequence::generate(cfg, &mut seeded_rng(seed))
    }

    #[test]
    fn paper_thresholds_skip_a_large_fraction() {
        let v = video(400, 1);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let report = ev.run(&v);
        // The Aria-like viewing structure (long dwells) gives substantial
        // reuse — the paper's Fig. 12 (b) sweeps up to ≈60 %.
        assert!(
            report.skip_fraction() > 0.3,
            "skip fraction {}",
            report.skip_fraction()
        );
        assert!(report.skip_fraction() < 0.99);
    }

    #[test]
    fn no_reuse_config_never_skips_on_dynamic_video() {
        let v = video(200, 2);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::no_reuse(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let report = ev.run(&v);
        // α = β = 0: any gaze motion reruns; only frames with *zero* gaze
        // movement (a handful at 30 Hz, e.g. during recovery holds) can be
        // reused.
        assert!(
            report.skip_fraction() <= 0.08,
            "skip fraction {}",
            report.skip_fraction()
        );
    }

    #[test]
    fn skipping_lowers_mean_latency() {
        let v = video(300, 3);
        let run = |cfg: SsaConfig| {
            StreamingEvaluator::new(cfg, HwBackbone::Hr, HwDataset::Aria, None)
                .run(&v)
                .mean_latency_ms
        };
        let without = run(SsaConfig::no_reuse(960));
        let with = run(SsaConfig::paper_default(960));
        assert!(
            with < without * 0.9,
            "reuse {with} ms vs no-reuse {without} ms"
        );
    }

    #[test]
    fn zero_speculation_matches_run_exactly() {
        let v = video(250, 5);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::reactive();
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("reactive speculation config rejected: {e}"),
        };
        assert_eq!(spec.base, reactive);
        assert_eq!(spec.reactive_latency_ms, reactive.mean_latency_ms);
        assert_eq!(spec.spec.speculated_frames, 0);
        assert_eq!(spec.spec.prewarm_latency_ms, 0.0);
    }

    #[test]
    fn oracle_speculation_commits_and_lowers_display_latency() {
        let v = video(300, 6);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::oracle(2);
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("oracle speculation config rejected: {e}"),
        };
        // Same decisions, same skips — speculation only changes latency.
        assert_eq!(spec.base.frames, reactive.frames);
        assert_eq!(spec.base.skipped, reactive.skipped);
        assert_eq!(spec.reactive_latency_ms, reactive.mean_latency_ms);
        assert!(spec.spec.committed > 0, "oracle never committed");
        assert_eq!(spec.spec.missed, 0, "oracle candidates cannot miss");
        assert_eq!(spec.spec.mean_commit_error_px, 0.0);
        assert!(
            spec.spec.mean_hit_latency_ms < spec.spec.reactive_run_latency_ms,
            "hit {} ms vs reactive run {} ms",
            spec.spec.mean_hit_latency_ms,
            spec.spec.reactive_run_latency_ms
        );
        assert!(
            spec.base.mean_latency_ms < spec.reactive_latency_ms,
            "speculation did not lower display latency: {} vs {}",
            spec.base.mean_latency_ms,
            spec.reactive_latency_ms
        );
        assert!(
            spec.spec.prewarm_latency_ms > 0.0,
            "pre-warm went uncharged"
        );
    }

    #[test]
    fn tight_deadline_drops_speculation_not_frames() {
        let v = video(200, 7);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::oracle(4);
        cfg.deadline = Latency::from_ms(reactive.mean_latency_ms * 0.1);
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("tight-deadline config rejected: {e}"),
        };
        assert!(
            spec.spec.dropped_for_budget > 0,
            "an unattainable deadline must drop pre-warms"
        );
        assert_eq!(spec.spec.speculated_frames, 0);
        // The reactive work itself still runs — and still overruns.
        assert_eq!(spec.base.frames, reactive.frames);
        assert_eq!(spec.base.skipped, reactive.skipped);
        assert!(spec.spec.budget_overruns > 0);
    }

    #[test]
    fn speculation_config_validation_rejects_bad_ranges() {
        let mut bad = SpeculationConfig::oracle(1);
        bad.commit_radius = 0.0;
        assert!(bad.validate().is_err());
        bad.commit_radius = f32::NAN;
        assert!(bad.validate().is_err());
        let mut bad = SpeculationConfig::oracle(1);
        bad.deadline = Latency::from_ms(f64::NAN);
        assert!(matches!(bad.validate(), Err(SoloError::InvalidConfig(_))));
        bad.deadline = Latency::ZERO;
        assert!(bad.validate().is_err());
        bad.deadline = Latency::from_ms(-1.0);
        assert!(bad.validate().is_err());
        assert!(
            SpeculationConfig::oracle(1).validate().is_ok(),
            "+inf deadline"
        );
        let mut learned = SpeculationConfig::learned(
            GazePredictor::new(&mut seeded_rng(8), solo_gaze::PredictorConfig::default()),
            2,
        );
        learned.history = 1;
        assert!(learned.validate().is_err());
        learned.history = 8;
        assert!(learned.validate().is_ok());
    }

    #[test]
    fn larger_thresholds_skip_more() {
        let v = video(300, 4);
        let skip_at = |alpha: f32, beta: f32| {
            let cfg = SsaConfig {
                alpha,
                beta_px: beta,
                use_saccade: false,
                frame_side: 960,
            };
            StreamingEvaluator::new(cfg, HwBackbone::Hr, HwDataset::Aria, None)
                .run(&v)
                .skip_fraction()
        };
        let small = skip_at(0.01, 10.0);
        let large = skip_at(0.05, 40.0);
        assert!(large >= small, "{large} < {small}");
    }
}
