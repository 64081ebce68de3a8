//! Resilience identities pinned at the serving layer: supervision must be
//! free when nothing faults (each session of a fleet ≡ that session served
//! alone), a faulting or quarantined batch-mate must never perturb a
//! healthy session's bits, and checkpoint → restore must be invisible in
//! the served stream — all at pool widths 1 and 8, in both precisions.

use std::sync::Arc;

use proptest::prelude::*;
use solo_hw::Latency;
use solo_serve::{
    AdmitOutcome, Precision, ServeModel, ServeModelConfig, Server, ServerConfig, Session,
    SessionSpec,
};
use solo_tensor::{exec, seeded_rng};

fn model(seed: u64) -> Arc<ServeModel> {
    let m = ServeModel::new(&mut seeded_rng(seed), ServeModelConfig::paper_default())
        .expect("paper-default serve model");
    Arc::new(m)
}

/// A supervised-serving config roomy enough to admit the whole fleet (so
/// specs map 1:1 onto live session indices).
fn chaos_config(precision: Precision) -> ServerConfig {
    ServerConfig {
        deadline: Latency::from_ms(240.0),
        queue_cap: 0,
        precision,
        frames_per_video: 12,
        ..ServerConfig::paper_default()
    }
}

fn mask_bits(server: &Server) -> Vec<Option<Vec<u32>>> {
    server
        .mask_digest()
        .into_iter()
        .map(|m| m.map(|v| v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// With every fault plan disabled, supervision is free: no fault,
    /// quarantine or probe counter moves, and every session of a 4-session
    /// fleet serves the same masks and stats, bit for bit, as a server
    /// serving that session alone (batched ≡ solo) — at pool widths 1 and
    /// 8, f32 and int8.
    #[test]
    fn zero_fault_supervision_is_free(seed in 0u64..500) {
        let m = model(seed);
        for precision in [Precision::F32, Precision::Int8] {
            for width in [1usize, 8] {
                let (reports, fleet, solos) = exec::with_threads(width, || {
                    let mut fleet = Server::new(Arc::clone(&m), chaos_config(precision))
                        .expect("valid config");
                    let mut solos: Vec<Server> = (0..4)
                        .map(|i| {
                            let mut solo = Server::new(Arc::clone(&m), chaos_config(precision))
                                .expect("valid config");
                            assert!(matches!(
                                solo.admit(SessionSpec::nth(seed, i)),
                                AdmitOutcome::Admitted(_)
                            ));
                            assert!(matches!(
                                fleet.admit(SessionSpec::nth(seed, i)),
                                AdmitOutcome::Admitted(_)
                            ));
                            solo
                        })
                        .collect();
                    let reports: Vec<_> = (0..8).map(|_| fleet.tick_supervised()).collect();
                    for solo in &mut solos {
                        for _ in 0..8 {
                            solo.tick_supervised();
                        }
                    }
                    let solos: Vec<_> = solos
                        .iter()
                        .map(|s| (mask_bits(s).remove(0), s.session_stats()[0]))
                        .collect();
                    (reports, (mask_bits(&fleet), fleet.session_stats()), solos)
                });
                for s in &reports {
                    prop_assert_eq!(s.injected, 0);
                    prop_assert_eq!(s.quarantined + s.newly_quarantined + s.probes, 0);
                }
                for (i, (solo_mask, solo_stats)) in solos.iter().enumerate() {
                    prop_assert_eq!(
                        &fleet.0[i], solo_mask,
                        "{} width {} session {}: fleet mask diverged from solo",
                        precision.name(), width, i
                    );
                    prop_assert_eq!(
                        &fleet.1[i], solo_stats,
                        "{} width {} session {}: fleet stats diverged from solo",
                        precision.name(), width, i
                    );
                }
            }
        }
    }

    /// Odd-indexed sessions fault hard; even-indexed sessions are clean.
    /// Every healthy session's masks must equal, bit for bit, a twin
    /// fleet where nobody faults — whatever the ladder, quarantine or
    /// probe machinery does to the noisy neighbors.
    #[test]
    fn faulting_mates_never_leak_into_healthy_masks(seed in 0u64..500, int8 in any::<bool>()) {
        let precision = if int8 { Precision::Int8 } else { Precision::F32 };
        let m = model(seed ^ 0xabc);
        for width in [1usize, 8] {
            let (injected, chaos_masks, twin_masks) = exec::with_threads(width, || {
                let mut chaos = Server::new(Arc::clone(&m), chaos_config(precision))
                    .expect("valid config");
                let mut twin = Server::new(Arc::clone(&m), chaos_config(precision))
                    .expect("valid config");
                for i in 0..6 {
                    let rate = if i % 2 == 1 { 1.0 } else { 0.0 };
                    assert!(matches!(
                        chaos.admit(SessionSpec::chaos_nth(seed, i, rate)),
                        AdmitOutcome::Admitted(_)
                    ));
                    assert!(matches!(
                        twin.admit(SessionSpec::chaos_nth(seed, i, 0.0)),
                        AdmitOutcome::Admitted(_)
                    ));
                }
                let injected: usize = (0..24).map(|_| {
                    twin.tick_supervised();
                    chaos.tick_supervised().injected
                }).sum();
                (injected, mask_bits(&chaos), mask_bits(&twin))
            });
            prop_assert!(injected > 0, "width {width}: fault plans never fired");
            for i in (0..6).step_by(2) {
                prop_assert_eq!(
                    &chaos_masks[i], &twin_masks[i],
                    "{} width {}: healthy session {} perturbed by faulting mates",
                    precision.name(), width, i
                );
            }
        }
    }

    /// `checkpoint` → `restore` → `next_frame` replays the identical
    /// stream: a session restored at frame `k` serves the same frames,
    /// bit for bit, as one that was never interrupted (the video
    /// regenerates lazily from the spec's seed).
    #[test]
    fn restore_resumes_the_stream_bit_identically(seed in 0u64..500, k in 1usize..12) {
        let spec = SessionSpec::chaos_nth(seed, seed as usize % 6, 1.0);
        let mut uninterrupted = Session::new(spec, 12, 8);
        let frames: Vec<_> = (0..16).map(|_| uninterrupted.next_frame()).collect();

        let mut original = Session::new(spec, 12, 8);
        for _ in 0..k {
            original.next_frame();
        }
        let cp = original.checkpoint();
        drop(original);
        let mut restored = Session::restore(&cp);
        prop_assert_eq!(restored.cursor(), k);
        prop_assert!(restored.is_parked(), "restored sessions regenerate video lazily");
        for (t, frame) in frames.iter().enumerate().skip(k) {
            prop_assert_eq!(
                &restored.next_frame(), frame,
                "frame {} after restore at {} diverged from the uninterrupted stream",
                t, k
            );
        }
    }
}

/// The leak test's hard mode, pinned deterministically: run until a noisy
/// neighbor is actually quarantined (and its slot ticks as a stub), then
/// keep going through its probes — the healthy sessions' masks must still
/// match the fault-free twin fleet the whole way.
#[test]
fn isolation_holds_while_a_mate_is_quarantined() {
    let m = model(77);
    let mut chaos = Server::new(Arc::clone(&m), chaos_config(Precision::F32)).expect("valid");
    let mut twin = Server::new(Arc::clone(&m), chaos_config(Precision::F32)).expect("valid");
    for i in 0..8 {
        let rate = if i % 2 == 1 { 1.0 } else { 0.0 };
        assert!(matches!(
            chaos.admit(SessionSpec::chaos_nth(33, i, rate)),
            AdmitOutcome::Admitted(_)
        ));
        assert!(matches!(
            twin.admit(SessionSpec::chaos_nth(33, i, 0.0)),
            AdmitOutcome::Admitted(_)
        ));
    }
    let mut stub_ticks = 0;
    for _ in 0..240 {
        twin.tick_supervised();
        let r = chaos.tick_supervised();
        if r.quarantined > 0 {
            stub_ticks += 1;
        }
        if chaos.supervisor().probes() >= 1 && stub_ticks >= 4 {
            break;
        }
    }
    assert!(
        chaos.supervisor().quarantines() >= 1,
        "deep-dropout neighbors never quarantined in 240 ticks"
    );
    assert!(stub_ticks >= 4, "quarantined slot never ticked as a stub");
    let chaos_masks = mask_bits(&chaos);
    let twin_masks = mask_bits(&twin);
    for i in (0..8).step_by(2) {
        assert_eq!(
            chaos_masks[i], twin_masks[i],
            "healthy session {i} perturbed while a mate was quarantined"
        );
    }
}
