//! Serving-layer identities: cross-session batched inference must be a
//! pure throughput lever — bit-identical to serving each session alone —
//! at every pool width, in both precisions, and the server's GEMM batch
//! size must never change what any user sees.

use std::sync::Arc;

use proptest::prelude::*;
use solo_serve::{
    AdmitOutcome, Precision, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec,
};
use solo_tensor::{exec, normal, seeded_rng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn model(seed: u64) -> ServeModel {
    ServeModel::new(&mut seeded_rng(seed), ServeModelConfig::paper_default())
        .expect("paper-default serve model")
}

fn crops(seed: u64, n: usize) -> Vec<Tensor> {
    let cfg = ServeModelConfig::paper_default();
    let mut rng = seeded_rng(seed ^ 0xc0ffee);
    (0..n)
        .map(|_| {
            normal(
                &mut rng,
                &[cfg.channels, cfg.crop_side, cfg.crop_side],
                0.4,
                0.2,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole identity: stacking S sessions' crops into one fused
    /// GEMM chain produces, member by member, the exact bits of running
    /// each session's crop through the head alone (pool width S = 1),
    /// for f32 and int8, at pool widths 1 and 8.
    #[test]
    fn batched_head_is_bit_identical_to_sequential(seed in 0u64..1_000) {
        let m = model(seed);
        let cs = crops(seed, 8);
        for precision in [Precision::F32, Precision::Int8] {
            for width in [1usize, 8] {
                let (batched, sequential) = exec::with_threads(width, || {
                    let batched = m.infer_batch(&cs, precision);
                    let sequential: Vec<Tensor> = cs
                        .iter()
                        .flat_map(|c| m.infer_batch(std::slice::from_ref(c), precision))
                        .collect();
                    (batched, sequential)
                });
                prop_assert_eq!(batched.len(), cs.len());
                for (b, s) in batched.iter().zip(&sequential) {
                    prop_assert_eq!(
                        bits(b),
                        bits(s),
                        "{} width {}: batched member diverged from solo run",
                        precision.name(),
                        width
                    );
                }
            }
        }
    }

    /// Batching the predictor's time-step loop across the session
    /// dimension is row-independent: the fused step over `[S, 2]` gazes
    /// equals S solo steps, bit for bit, at pool widths 1 and 8.
    #[test]
    fn batched_predictor_is_bit_identical_to_sequential(seed in 0u64..1_000) {
        let m = model(seed);
        let dh = m.config().predictor_hidden;
        let mut rng = seeded_rng(seed ^ 0xbeef);
        let gazes = normal(&mut rng, &[8, 2], 0.5, 0.1);
        let hidden = normal(&mut rng, &[8, dh], 0.0, 0.3);
        for width in [1usize, 8] {
            let (fused, solo) = exec::with_threads(width, || {
                let fused = m.predict_batch(&gazes, &hidden);
                let solo: Vec<_> = (0..8)
                    .map(|i| {
                        m.predict_batch(
                            &gazes.row(i).reshape(&[1, 2]),
                            &hidden.row(i).reshape(&[1, dh]),
                        )
                    })
                    .collect();
                (fused, solo)
            });
            for (i, (h1, d1)) in solo.iter().enumerate() {
                let hrow = fused.0.row(i).reshape(&[1, dh]);
                let drow = fused.1.row(i).reshape(&[1, 2]);
                prop_assert_eq!(bits(&hrow), bits(h1), "hidden row {} width {}", i, width);
                prop_assert_eq!(bits(&drow), bits(d1), "delta row {} width {}", i, width);
            }
        }
    }
}

/// The server-level corollary: `batch` only chunks bit-identical GEMM
/// dispatches, so a batch-1 and a batch-8 server serving the same specs
/// present identical masks to every user on every tick.
#[test]
fn server_batch_size_never_changes_what_users_see() {
    let model = Arc::new(self::model(5));
    let run = |batch: usize| {
        let cfg = ServerConfig {
            batch,
            frames_per_video: 8,
            ..ServerConfig::paper_default()
        };
        let mut server = Server::new(Arc::clone(&model), cfg).expect("valid config");
        for i in 0..4 {
            assert!(!matches!(
                server.admit(SessionSpec::nth(11, i)),
                AdmitOutcome::Rejected { .. }
            ));
        }
        let reports: Vec<_> = (0..6).map(|_| server.tick_supervised()).collect();
        (reports, server.mask_digest())
    };
    let (reports_1, masks_1) = run(1);
    let (reports_8, masks_8) = run(8);
    assert_eq!(reports_1, reports_8, "tick reports must be batch-invariant");
    assert_eq!(masks_1, masks_8, "served masks must be batch-invariant");
}
