//! The `serve` workload: one supervised serving tick per op.
//!
//! Chosen because the SoC pricing is recomputed for every live session on
//! every tick here, while `stream` prices once per video and `frame` not
//! at all: a pricing or memo change shows on this workload only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use solo_hw::soc::{Pipeline, SocModel};
use solo_hw::Latency;
use solo_serve::{AdmitOutcome, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec};
use solo_tensor::{normal, seeded_rng, Tensor};

use crate::trace::Tracer;
use crate::{bits, elapsed, stats, Metrics, OpRecord, Workload};

/// Sessions in the fleet; odd-indexed ones carry a dropout fault plan.
const SESSIONS: usize = 12;
/// Dropout severity of the faulted sessions.
const DROPOUT: f64 = 0.5;
/// Seed of the faulted sessions' fault plans.
const FAULT_SEED: u64 = 0xfa17;
/// Tick deadline, wide enough that admission takes the whole fleet and no
/// healthy session ever degrades for budget.
const DEADLINE_MS: f64 = 600.0;
/// Ticks served during set-up.
const WARMUP_TICKS: usize = 4;
/// Ticks per serving cycle. Every cycle starts from a freshly admitted
/// fleet, so each replays the same fault schedule and a run is a whole
/// number of identical cycles.
pub const CYCLE: usize = 64;
/// The sampled healthy session's mask is recorded every this many ticks.
const DIGEST_EVERY: usize = 16;

/// The pricing calls a supervised tick makes, as span names.
const PRICE_SPANS: [&str; 5] = [
    "hw.price.solo",
    "hw.price.batched",
    "hw.price.skip",
    "hw.price.uniform",
    "hw.price.degraded",
];

/// The serve workload's state.
pub struct ServeBench {
    model: Arc<ServeModel>,
    cfg: ServerConfig,
    specs: Vec<SessionSpec>,
    server: Server,
    sample: usize,
    digests: Vec<(usize, Vec<u32>)>,
    admit_us: Vec<f64>,
    crops: Vec<Tensor>,
    soc: SocModel,
    session_frames: usize,
    ran: usize,
    ticks: usize,
    overruns: usize,
    spent_ms: f64,
    tick_ns: u64,
    price_ns: f64,
    /// Per traced tick, its time minus the pricing and model calls.
    self_us: Vec<f64>,
    /// [`counters`] of the servers of finished cycles.
    retired: [usize; 4],
}

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig {
        deadline: Latency::from_ms(DEADLINE_MS),
        queue_cap: 0,
        ..ServerConfig::paper_default()
    };
    cfg.resilience.deadline = cfg.deadline;
    cfg
}

/// Quarantines, probes, re-admissions and rejected admissions of a server.
fn counters(server: &Server) -> [usize; 4] {
    let sup = server.supervisor();
    [
        sup.quarantines(),
        sup.probes(),
        sup.readmissions(),
        server.rejects(),
    ]
}

/// A server with the whole fleet admitted, and each admission's µs.
fn admit_fleet(
    model: &Arc<ServeModel>,
    cfg: ServerConfig,
    specs: &[SessionSpec],
) -> Result<(Server, Vec<f64>), String> {
    let mut server = Server::new(Arc::clone(model), cfg).map_err(|e| format!("server: {e}"))?;
    let mut admit_us = Vec::with_capacity(specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let outcome = server.admit(spec);
        admit_us.push(elapsed(t).1 * 1e3);
        if !matches!(outcome, AdmitOutcome::Admitted(_)) {
            return Err(format!("session {i} not admitted: {outcome:?}"));
        }
    }
    Ok((server, admit_us))
}

impl ServeBench {
    /// Builds the shared model, admits the fleet and serves a few ticks.
    ///
    /// # Errors
    ///
    /// Fails when the model or server rejects its configuration or a
    /// session is not admitted.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = seeded_rng(seed ^ 0x5e7e_0b17);
        let model = Arc::new(
            ServeModel::new(&mut rng, ServeModelConfig::paper_default())
                .map_err(|e| format!("serve model: {e}"))?,
        );
        let cfg = server_config();
        // Videos come from the seed; the fault schedule is part of the
        // fixed fleet, so quarantines repeat across seeds and the
        // seed-to-seed spread reflects content.
        let specs: Vec<SessionSpec> = (0..SESSIONS)
            .map(|i| {
                let spec = SessionSpec::chaos_nth(seed, i, 0.0);
                if i % 2 == 1 {
                    spec.with_plan(SessionSpec::chaos_nth(FAULT_SEED, i, DROPOUT).plan)
                } else {
                    spec
                }
            })
            .collect();
        let (mut warm, admit_us) = admit_fleet(&model, cfg, &specs)?;
        for _ in 0..WARMUP_TICKS {
            warm.tick_supervised();
        }
        let (server, _) = admit_fleet(&model, cfg, &specs)?;
        let mc = *model.config();
        let crops = (0..SESSIONS)
            .map(|_| {
                normal(
                    &mut rng,
                    &[mc.channels, mc.crop_side, mc.crop_side],
                    0.5,
                    0.2,
                )
            })
            .collect();
        Ok(Self {
            model,
            cfg,
            specs,
            server,
            sample: 2 * (seed as usize % (SESSIONS / 2)),
            digests: Vec::new(),
            admit_us,
            crops,
            soc: SocModel::default(),
            session_frames: 0,
            ran: 0,
            ticks: 0,
            overruns: 0,
            spent_ms: 0.0,
            tick_ns: 0,
            price_ns: 0.0,
            self_us: Vec::new(),
            retired: [0; 4],
        })
    }

    /// [`counters`] summed over every cycle of the run.
    fn totals(&self) -> [usize; 4] {
        let live = counters(&self.server);
        std::array::from_fn(|k| self.retired[k] + live[k])
    }

    /// Re-times the public calls one tick made, with the counts its report
    /// gives, and returns the ns its pricing and its model calls account for.
    fn attribute(&self, live: usize, ran: usize, probes: usize, tr: &mut Tracer) -> (f64, u64) {
        let total = self.specs.len();
        let ds = self.specs[self.ticks % total].scene.hw_dataset();
        let widen = f64::from(self.cfg.resilience.widen_factor);
        let b = self.cfg.backbone;
        // Calls per tick: one batched price per slot for the run cost, and
        // per live session one each of skip, uniform, widened and batched
        // segmentation; every probe prices one solo path.
        let counts = [probes, total + live, live, live, live];
        let mut ns = 0.0;
        for (k, (&name, &count)) in PRICE_SPANS.iter().zip(&counts).enumerate() {
            let id = tr.open(name);
            match k {
                0 => drop(black_box(self.soc.evaluate(Pipeline::Solo, b, ds))),
                1 => drop(black_box(self.soc.batched_solo_path(b, ds, total))),
                2 => drop(black_box(self.soc.skip_path(ds))),
                3 => drop(black_box(self.soc.uniform_fallback_path(b, ds))),
                _ => drop(black_box(self.soc.degraded_solo_path(b, ds, widen, &[]))),
            }
            ns += tr.close(id) as f64 * count as f64;
        }
        let mut model_ns = 0;
        if live > 0 {
            let dh = self.model.config().predictor_hidden;
            let gazes = Tensor::full(&[live, 2], 0.5);
            let hidden = Tensor::zeros(&[live, dh]);
            let id = tr.open("serve.predict_batch");
            black_box(self.model.predict_batch(&gazes, &hidden));
            model_ns += tr.close(id);
        }
        if ran > 0 {
            let id = tr.open("serve.infer_batch");
            for chunk in self.crops[..ran.min(self.crops.len())].chunks(self.cfg.batch) {
                black_box(self.model.infer_batch(chunk, self.cfg.precision));
            }
            model_ns += tr.close(id);
        }
        (ns, model_ns)
    }
}

impl Workload for ServeBench {
    fn cycle(&self) -> usize {
        CYCLE
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpRecord {
        if i.is_multiple_of(CYCLE) && self.server.ticks() > 0 {
            match admit_fleet(&self.model, self.cfg, &self.specs) {
                Ok((server, _)) => {
                    let finished = counters(&std::mem::replace(&mut self.server, server));
                    for (r, n) in self.retired.iter_mut().zip(finished) {
                        *r += n;
                    }
                }
                Err(_) => {
                    return OpRecord {
                        latency_ms: 0.0,
                        busy_s: 0.0,
                        units: 0,
                        ok_units: 0,
                        failed: true,
                    }
                }
            }
        }
        let root = tr.open("serve.tick");
        let t = Instant::now();
        let rep = self.server.tick_supervised();
        let (busy_s, ms) = elapsed(t);
        let tick_ns = tr.close(root);
        let units = rep.base.sessions;
        let stubs = rep.quarantined - rep.readmitted;
        self.session_frames += units;
        self.ran += rep.base.ran;
        self.ticks += 1;
        self.overruns += usize::from(rep.base.overrun);
        self.spent_ms += rep.base.spent_ms;
        let now = self.server.ticks();
        if now.is_multiple_of(DIGEST_EVERY) {
            if let Some(mask) = self.server.sessions()[self.sample].last_mask() {
                self.digests.push((now, bits(mask)));
            }
        }
        if tr.enabled() {
            let live = units - rep.quarantined;
            let (price_ns, model_ns) = self.attribute(live, rep.base.ran, rep.probes, tr);
            self.price_ns += price_ns;
            self.tick_ns += tick_ns;
            self.self_us
                .push((tick_ns as f64 - price_ns - model_ns as f64) / 1e3);
        }
        OpRecord {
            latency_ms: ms,
            busy_s,
            units,
            ok_units: units - stubs,
            failed: false,
        }
    }

    /// Batched ≡ solo: a one-session server on the sampled healthy spec
    /// must show the same mask at every recorded tick of every cycle.
    fn final_checks(&mut self) -> (usize, usize) {
        let checks = self.digests.len();
        let Ok((mut solo, _)) = admit_fleet(
            &self.model,
            self.cfg,
            &self.specs[self.sample..=self.sample],
        ) else {
            return (checks, checks.max(1));
        };
        let mut expected = Vec::new();
        while solo.ticks() < CYCLE {
            solo.tick_supervised();
            if solo.ticks().is_multiple_of(DIGEST_EVERY) {
                expected.push((solo.ticks(), solo.sessions()[0].last_mask().map(bits)));
            }
        }
        let failed = self
            .digests
            .iter()
            .filter(|(tick, got)| {
                !expected
                    .iter()
                    .any(|(t, want)| t == tick && want.as_ref() == Some(got))
            })
            .count();
        (checks, failed)
    }

    fn rejected_units(&self) -> usize {
        self.totals()[3]
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Metrics) {
        for (name, span) in ["solo", "batched", "skip", "uniform", "degraded"]
            .into_iter()
            .zip(PRICE_SPANS)
        {
            out.push(format!("hw.price_us.{name}"), tr.median_us(span), "us");
        }
        out.push(
            "hw.price_share",
            self.price_ns / self.tick_ns.max(1) as f64,
            "ratio",
        );
        out.push("serve.tick_self_us", stats::median(&self.self_us), "us");
        out.push(
            "serve.predict_batch_us",
            tr.median_us("serve.predict_batch"),
            "us",
        );
        out.push(
            "serve.infer_batch_us",
            tr.median_us("serve.infer_batch"),
            "us",
        );
        out.push(
            "serve.ran_frac",
            self.ran as f64 / self.session_frames.max(1) as f64,
            "ratio",
        );
        out.push("serve.admit_us", stats::median(&self.admit_us), "us");
        out.push(
            "serve.pack_events",
            self.model.pack_events() as f64,
            "count",
        );
        let [quarantines, probes, readmissions, rejects] = self.totals();
        out.push("supervisor.quarantines", quarantines as f64, "count");
        out.push("supervisor.probes", probes as f64, "count");
        out.push("supervisor.readmissions", readmissions as f64, "count");
        out.push("serve.rejects", rejects as f64, "count");
        let ticks = self.ticks.max(1) as f64;
        out.push("modelled.tick_spent_ms", self.spent_ms / ticks, "ms");
        out.push(
            "modelled.sessions_fps",
            self.specs.len() as f64 * (1000.0 / DEADLINE_MS) * (ticks - self.overruns as f64)
                / ticks,
            "1/s",
        );
    }
}
