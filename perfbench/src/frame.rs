//! The `frame` workload: whole SOLO frames, six per op (each backbone in
//! f32 and in int8).
//!
//! Chosen because it is the only workload where the segmentation GEMMs
//! (`solo-nn`/`solo-tensor`) and the sampler (`solo-sampler`) carry the
//! time, with no rendering, SSA or pricing in the op.

use std::time::Instant;

use rand::Rng;
use solo_core::backbones::BackboneKind;
use solo_core::metrics::{binary_iou, classified_iou};
use solo_core::solonet::{EvalScores, FoveatedPipeline, PipelineConfig};
use solo_sampler::{uniform_subsample, IndexMap};
use solo_scene::{DatasetConfig, Sample, SceneDataset};
use solo_tensor::{exec, seeded_rng};

use crate::trace::Tracer;
use crate::{bits, elapsed, Metrics, OpRecord, Workload, CHECK_WIDTH};

/// Frame side of the generated samples.
const FULL_RES: usize = 96;
/// Side of the sampled frame the segmentation network sees.
const DOWN_RES: usize = 24;
/// Pre-generated samples.
const SAMPLES: usize = 48;
/// Frames per op: one per backbone × precision. An op is a whole rotation
/// so that every op costs the same and a single descheduled frame is
/// averaged with five others; latency is reported per frame.
const CYCLE: usize = 6;
/// In every `CHECK_EVERY`-th op one frame is re-computed at pool widths 1
/// and [`CHECK_WIDTH`].
const CHECK_EVERY: usize = 8;
/// Class count of the classifier head (`NUM_CLASSES` + background).
const CLASSES: usize = solo_scene::NUM_CLASSES + 1;

/// How the GFLOP/s metrics are computed; stated in every traced record.
pub const FLOPS_BASIS: &str = "segnet conv, attention and linear FLOPs computed from the layer shapes at a 24x24 input, divided by the median segnet.infer span time, summed over the three backbones";

const BACKBONES: [BackboneKind; 3] = BackboneKind::ALL;
const SEGNET_SPANS: [[&str; 3]; 2] = [
    [
        "segnet.infer.f32.hr",
        "segnet.infer.f32.sf",
        "segnet.infer.f32.dl",
    ],
    [
        "segnet.infer.i8.hr",
        "segnet.infer.i8.sf",
        "segnet.infer.i8.dl",
    ],
];

/// The frame workload's state.
pub struct FrameBench {
    pipes: Vec<FoveatedPipeline>,
    samples: Vec<Sample>,
}

/// What one frame produced: the network's mask, the displayed
/// full-resolution mask, the class and the scores.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutput {
    /// Bits of the `[d, d]` IOI probability mask.
    pub mask: Vec<u32>,
    /// Bits of the binarized full-resolution mask.
    pub displayed: Vec<u32>,
    /// Predicted class.
    pub class: usize,
    /// b-IoU and c-IoU against the ground truth.
    pub scores: (u32, u32),
}

/// Backbone index and precision of frame `i`.
fn combo(i: usize) -> (usize, bool) {
    ((i / 2) % BACKBONES.len(), i % 2 == 1)
}

impl FrameBench {
    /// Generates the samples and builds one seeded, untrained pipeline per
    /// backbone, then runs every combination once.
    pub fn setup(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let ds = DatasetConfig::lvis_like().with_resolution(FULL_RES);
        let cfg = PipelineConfig::for_dataset(&ds, FULL_RES, DOWN_RES);
        let data = SceneDataset::new(ds);
        let samples = data.samples(SAMPLES, &mut rng);
        let pipes = BACKBONES
            .iter()
            .map(|&k| FoveatedPipeline::new(&mut seeded_rng(rng.gen()), k, cfg, true, 1e-3))
            .collect();
        let mut bench = Self { pipes, samples };
        for i in 0..CYCLE {
            bench.evaluate(i);
        }
        bench
    }

    fn evaluate(&mut self, i: usize) -> EvalScores {
        let (k, quant) = combo(i);
        let sample = &self.samples[(i / CYCLE) % self.samples.len()];
        if quant {
            self.pipes[k].evaluate_quant(sample)
        } else {
            self.pipes[k].evaluate(sample)
        }
    }

    /// Frame `i` through the pipeline's public stages, one span per stage.
    fn decompose(&mut self, i: usize, tr: &mut Tracer) -> FrameOutput {
        let (k, quant) = combo(i);
        let sample = &self.samples[(i / CYCLE) % self.samples.len()];
        decompose(
            &mut self.pipes[k],
            sample,
            quant,
            SEGNET_SPANS[usize::from(quant)][k],
            tr,
        )
    }
}

/// One SOLO frame through the public calls that `evaluate` composes:
/// preview → saliency → index map → pack → segnet → upsample → score.
pub fn decompose(
    p: &mut FoveatedPipeline,
    sample: &Sample,
    quant: bool,
    segnet_span: &'static str,
    tr: &mut Tracer,
) -> FrameOutput {
    let cfg = *p.config();
    let (d, full) = (cfg.down_res, cfg.full_res);
    let preview = tr.span("sampler.preview", || uniform_subsample(&sample.image, d, d));
    let sal = tr.span("esnet.saliency", || {
        p.saliency.saliency(&preview, sample.gaze)
    });
    let map = tr.span("sampler.index_map", || {
        IndexMap::from_saliency(&cfg.spec(), &sal)
    });
    let sampled = tr.span("sampler.pack", || p.pack_sampled(&map, sample));
    let (mask, logits) = tr.span(segnet_span, || {
        if quant {
            p.seg.infer_quant(&sampled)
        } else {
            p.seg.infer(&sampled)
        }
    });
    let up = tr.span("sampler.upsample", || {
        map.upsample(&mask.reshape(&[1, d, d]))
            .into_reshaped(&[full, full])
            .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
    });
    let class = logits.argmax();
    let scores = tr.span("metrics.score", || {
        (
            binary_iou(&up, &sample.ioi_mask).to_bits(),
            classified_iou(&up, class, &sample.ioi_mask, sample.ioi_class.id()).to_bits(),
        )
    });
    FrameOutput {
        mask: bits(&mask),
        displayed: bits(&up),
        class,
        scores,
    }
}

/// The frame output check: the outputs at [`CHECK_WIDTH`] equal the
/// width-1 recompute bit for bit, and their scores equal what the timed op
/// returned.
pub fn frame_ok(wide: &FrameOutput, narrow: &FrameOutput, op_scores: EvalScores) -> bool {
    wide == narrow && wide.scores == (op_scores.b_iou.to_bits(), op_scores.c_iou.to_bits())
}

impl Workload for FrameBench {
    fn cycle(&self) -> usize {
        1
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpRecord {
        let frames = i * CYCLE..(i + 1) * CYCLE;
        let t = Instant::now();
        let root = tr.open("frame.op");
        let scores: Vec<EvalScores> = frames
            .clone()
            .map(|f| {
                if tr.enabled() {
                    let out = self.decompose(f, tr);
                    EvalScores {
                        b_iou: f32::from_bits(out.scores.0),
                        c_iou: f32::from_bits(out.scores.1),
                    }
                } else {
                    self.evaluate(f)
                }
            })
            .collect();
        tr.close(root);
        let (busy_s, ms) = elapsed(t);
        let mut failed = !scores
            .iter()
            .all(|s| s.b_iou.is_finite() && s.c_iou.is_finite());
        if i.is_multiple_of(CHECK_EVERY) {
            // One combination per checked op, taking turns.
            let c = (i / CHECK_EVERY) % CYCLE;
            let f = frames.start + c;
            let mut off = Tracer::off();
            let wide = exec::with_threads(CHECK_WIDTH, || self.decompose(f, &mut off));
            let narrow = exec::with_threads(1, || self.decompose(f, &mut off));
            // A traced op is the decomposition itself, so its reference
            // scores come from `evaluate`.
            let evaluated = if tr.enabled() {
                self.evaluate(f)
            } else {
                scores[c]
            };
            failed |= !frame_ok(&wide, &narrow, evaluated);
        }
        OpRecord {
            latency_ms: ms / CYCLE as f64,
            busy_s,
            units: CYCLE,
            ok_units: if failed { 0 } else { CYCLE },
            failed,
        }
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Metrics) {
        for (prec, spans) in ["f32", "i8"].into_iter().zip(SEGNET_SPANS) {
            let flops: f64 = BACKBONES.iter().map(|&k| segnet_flops(k, DOWN_RES)).sum();
            let us: f64 = spans.iter().map(|span| tr.median_us(span)).sum();
            out.push(
                format!("tensor.gemm_gflops.{prec}"),
                flops / (us * 1e3).max(1.0),
                "GFLOP/s",
            );
        }
        for (prec, spans) in ["f32", "i8"].into_iter().zip(SEGNET_SPANS) {
            for (k, span) in spans.into_iter().enumerate() {
                let name = BACKBONES[k].name().to_lowercase();
                out.push(
                    format!("segnet.infer_us.{prec}.{name}"),
                    tr.median_us(span),
                    "us",
                );
            }
        }
        out.push("esnet.saliency_us", tr.median_us("esnet.saliency"), "us");
        for stage in ["preview", "pack", "upsample", "index_map"] {
            let span = format!("sampler.{stage}");
            out.push(format!("{span}_us"), tr.median_us(&span), "us");
        }
    }
}

/// FLOPs of a `k`×`k` convolution from `cin` to `cout` channels over `hw`
/// output pixels.
fn conv(cin: usize, cout: usize, k: usize, hw: usize) -> f64 {
    2.0 * (cin * cout * k * k * hw) as f64
}

/// FLOPs of one gaze-aware segnet inference at a `d`×`d` input, from the
/// layer shapes in `solo_core::backbones` and `solo_core::segnet`.
pub fn segnet_flops(kind: BackboneKind, d: usize) -> f64 {
    let hw = d * d;
    let c = kind.channels();
    let stem = conv(solo_core::backbones::INPUT_CHANNELS, c, 3, hw);
    let backbone = match kind {
        BackboneKind::Hr => {
            stem + conv(c, c, 3, hw) + conv(c, c, 3, hw / 4) + conv(2 * c, c, 1, hw)
        }
        BackboneKind::Sf => {
            // One transformer block over the quarter-resolution tokens:
            // qkv and output projections, scores and mixing, a 2c-wide MLP.
            let t = (hw / 16) as f64;
            let dim = c as f64;
            let attn = 2.0 * t * dim * 3.0 * dim + 4.0 * t * t * dim + 2.0 * t * dim * dim;
            let mlp = 2.0 * 2.0 * t * dim * 2.0 * dim;
            stem + attn + mlp + conv(c, c, 3, hw)
        }
        BackboneKind::Dl => {
            let half = c / 2;
            stem + 3.0 * conv(c, half, 3, hw) + conv(3 * half, c, 1, hw)
        }
    };
    let heads = conv(c, c, 3, hw)
        + conv(c, c / 2, 3, hw)
        + conv(c / 2, 1, 3, hw)
        + conv(c, c, 3, hw)
        + 2.0 * (c * CLASSES) as f64;
    backbone + heads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_mask_value_fails_the_op() {
        let mut bench = FrameBench::setup(3);
        for i in [0, 1] {
            let scores = bench.evaluate(i);
            let wide = exec::with_threads(CHECK_WIDTH, || bench.decompose(i, &mut Tracer::off()));
            let narrow = exec::with_threads(1, || bench.decompose(i, &mut Tracer::off()));
            assert!(
                frame_ok(&wide, &narrow, scores),
                "unchanged outputs must pass"
            );
            let mut flipped = narrow.clone();
            flipped.mask[7] ^= 1;
            assert!(
                !frame_ok(&wide, &flipped, scores),
                "a flipped mask bit must fail"
            );
        }
    }

    #[test]
    fn flops_grow_with_the_input() {
        for k in BackboneKind::ALL {
            assert!(segnet_flops(k, 24) > segnet_flops(k, 12));
        }
    }
}
