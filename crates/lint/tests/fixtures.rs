//! Fixture tests: each rule gets a positive (violation found), a negative
//! (clean code passes), and a waiver case, exercised through the public
//! `scan_repo` API against a synthetic repository tree; plus end-to-end
//! CLI runs proving the exit-code contract and the shrink-only ratchet.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use solo_lint::{check_against, scan_repo, scan_repo_full, Baseline};

/// A scratch repository tree, deleted on drop.
struct FixtureRepo {
    root: PathBuf,
}

impl FixtureRepo {
    fn new(tag: &str) -> FixtureRepo {
        let root =
            std::env::temp_dir().join(format!("solo-lint-fixture-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        FixtureRepo { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dirs");
        fs::write(path, content).expect("write fixture file");
    }

    fn rules_at(&self, rel: &str) -> Vec<&'static str> {
        let violations = scan_repo(&self.root).expect("scan fixture repo");
        violations
            .iter()
            .filter(|v| v.file == rel)
            .map(|v| v.rule)
            .collect()
    }
}

impl Drop for FixtureRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn d1_flags_entropy_and_clocks_in_library_code_only() {
    let repo = FixtureRepo::new("d1");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn bad() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n\
         fn env_read() { let v = std::env::var(\"SEED\"); }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["D1", "D1", "D1"]);

    // Negative: seeded RNG and passed-in timestamps are the sanctioned style.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn good(seed: u64) { let rng = ChaCha8Rng::seed_from_u64(seed); }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());

    // Tests and the bench crate are out of scope.
    repo.write(
        "crates/demo/tests/t.rs",
        "fn t() { let t = std::time::Instant::now(); }\n",
    );
    repo.write(
        "crates/bench/src/lib.rs",
        "fn b() { let t = std::time::Instant::now(); }\n",
    );
    assert!(repo.rules_at("crates/demo/tests/t.rs").is_empty());
    assert!(repo.rules_at("crates/bench/src/lib.rs").is_empty());

    // Waiver silences it.
    repo.write(
        "crates/demo/src/lib.rs",
        "// lint:allow(D1): wall-clock only feeds a log line\n\
         fn good() { let t = std::time::Instant::now(); }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());
}

#[test]
fn d2_funnels_threads_through_the_exec_pool() {
    let repo = FixtureRepo::new("d2");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn fan_out() { crossbeam::thread::scope(|s| { s.spawn(|_| work()); }); }\n\
         fn raw() { let h = std::thread::spawn(work); }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["D2", "D2"]);

    // The pool's own dispatch plumbing is the one sanctioned home.
    repo.write(
        "crates/tensor/src/exec.rs",
        "fn dispatch() { crossbeam::thread::scope(|s| {}); }\n",
    );
    assert!(repo.rules_at("crates/tensor/src/exec.rs").is_empty());

    // Bench code is in scope for D2 (unlike D1/P1); tests are not.
    repo.write(
        "crates/bench/src/lib.rs",
        "fn b() { let h = std::thread::spawn(work); }\n",
    );
    assert_eq!(repo.rules_at("crates/bench/src/lib.rs"), ["D2"]);
    repo.write(
        "crates/demo/tests/t.rs",
        "fn t() { let h = std::thread::spawn(work); }\n",
    );
    assert!(repo.rules_at("crates/demo/tests/t.rs").is_empty());

    // Waiver with a reason silences it.
    repo.write(
        "crates/demo/src/lib.rs",
        "// lint:allow(D2): bounded one-off watchdog, joined on drop\n\
         fn ok() { let h = std::thread::spawn(work); }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());
}

#[test]
fn p1_flags_panics_unless_waived_or_in_tests() {
    let repo = FixtureRepo::new("p1");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n\
         fn worse() { todo!() }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["P1", "P1"]);

    repo.write(
        "crates/demo/src/lib.rs",
        "fn ok(x: Option<u32>) -> Option<u32> { x }\n\
         #[cfg(test)]\nmod tests { fn t(x: Option<u32>) { x.unwrap(); } }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());

    // Trailing waiver with a reason passes; a reasonless one does not.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn ok(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(P1): checked by caller\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());
    repo.write(
        "crates/demo/src/lib.rs",
        "fn bad(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(P1)\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["P1"]);
}

#[test]
fn e1_keeps_fallible_resilience_fns_panic_free() {
    let repo = FixtureRepo::new("e1");
    // An unwrap inside a FrameOutcome-returning fn is both a P1 and an E1;
    // the same unwrap in an infallible fn is P1 only.
    repo.write(
        "crates/demo/src/lib.rs",
        "pub fn step(x: Option<u32>) -> FrameOutcome<u32> {\n\
         \x20   Ok(x.unwrap())\n\
         }\n\
         pub fn plain(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["E1", "P1", "P1"]);

    // Propagating with `?` is the sanctioned style; bench code is in scope.
    repo.write(
        "crates/demo/src/lib.rs",
        "pub fn step(x: FrameOutcome<u32>) -> FrameOutcome<u32> {\n\
         \x20   let v = x?;\n\
         \x20   Ok(v + 1)\n\
         }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());
    repo.write(
        "crates/bench/src/lib.rs",
        "pub fn drive() -> Result<(), SoloError> { run().expect(\"boom\"); Ok(()) }\n",
    );
    assert_eq!(repo.rules_at("crates/bench/src/lib.rs"), ["E1"]);

    // A waiver with a reason silences the rule.
    repo.write(
        "crates/bench/src/lib.rs",
        "pub fn drive() -> Result<(), SoloError> {\n\
         \x20   // lint:allow(E1): bench harness aborts on setup failure by design\n\
         \x20   run().expect(\"boom\");\n\
         \x20   Ok(())\n\
         }\n",
    );
    assert!(repo.rules_at("crates/bench/src/lib.rs").is_empty());
}

#[test]
fn u1_flags_raw_unit_params_and_rewraps_in_hw_only() {
    let repo = FixtureRepo::new("u1");
    let src = "pub fn run(latency_us: f64) {}\n\
               fn rewrap(l: Latency) -> Latency { Latency::from_us(l.us() * 2.0) }\n";
    repo.write("crates/hw/src/soc.rs", src);
    repo.write("crates/demo/src/lib.rs", src);
    assert_eq!(repo.rules_at("crates/hw/src/soc.rs"), ["U1", "U1"]);
    // Outside crates/hw the rule does not apply.
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());

    // Newtype params are the sanctioned style; units.rs itself is exempt.
    repo.write("crates/hw/src/soc.rs", "pub fn run(latency: Latency) {}\n");
    assert!(repo.rules_at("crates/hw/src/soc.rs").is_empty());
    repo.write("crates/hw/src/units.rs", src);
    assert!(repo.rules_at("crates/hw/src/units.rs").is_empty());
}

#[test]
fn c1_flags_truncating_casts_on_arithmetic() {
    let repo = FixtureRepo::new("c1");
    repo.write(
        "crates/hw/src/soc.rs",
        "fn bad(a: f64, b: f64) -> u64 { (a * b) as u64 }\n\
         fn ok(a: f64, b: f64) -> u64 { (a * b).round() as u64 }\n\
         fn plain(a: f64) -> u64 { a as u64 }\n",
    );
    assert_eq!(repo.rules_at("crates/hw/src/soc.rs"), ["C1"]);

    // Scoped to crates/hw and the sampler index map.
    repo.write(
        "crates/sampler/src/index_map.rs",
        "fn bad(a: f32, b: f32) -> usize { (a + b) as usize }\n",
    );
    repo.write(
        "crates/sampler/src/lib.rs",
        "fn elsewhere(a: f32, b: f32) -> usize { (a + b) as usize }\n",
    );
    assert_eq!(repo.rules_at("crates/sampler/src/index_map.rs"), ["C1"]);
    assert!(repo.rules_at("crates/sampler/src/lib.rs").is_empty());
}

#[test]
fn w1_flags_unreferenced_deps_with_toml_waiver() {
    let repo = FixtureRepo::new("w1");
    repo.write("Cargo.toml", "[workspace]\nmembers = [\"crates/demo\"]\n");
    repo.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\n\
         serde.workspace = true\n\
         rand.workspace = true\n\
         bytes.workspace = true # lint:allow(W1): re-exported for downstream users\n",
    );
    repo.write("crates/demo/src/lib.rs", "use serde::Serialize;\n");
    let rules = repo.rules_at("crates/demo/Cargo.toml");
    // `rand` unused -> flagged; `serde` used and `bytes` waived -> not.
    assert_eq!(rules, ["W1"]);
}

#[test]
fn baseline_grandfathers_existing_debt_but_fails_new() {
    let repo = FixtureRepo::new("ratchet");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let violations = scan_repo(&repo.root).expect("scan");
    let baseline = Baseline::from_violations(&violations);

    // Same debt: clean.
    assert!(check_against(violations, &baseline).is_clean());

    // One more violation in the same file: fails with exactly the new ones.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn a(x: Option<u32>) -> u32 { x.unwrap() }\nfn b() { panic!() }\n",
    );
    let report = check_against(scan_repo(&repo.root).expect("scan"), &baseline);
    assert!(!report.is_clean());
    assert_eq!(report.new.len(), 2, "whole (file, rule) group is reported");

    // Debt fixed: clean, and reported as improvable.
    repo.write("crates/demo/src/lib.rs", "fn a() {}\n");
    let report = check_against(scan_repo(&repo.root).expect("scan"), &baseline);
    assert!(report.is_clean());
    assert_eq!(report.improved.len(), 1);
}

#[test]
fn baseline_can_only_shrink() {
    let repo = FixtureRepo::new("shrink");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn a(x: Option<u32>) -> u32 { x.unwrap() }\nfn b() { panic!() }\n",
    );
    let two = Baseline::from_violations(&scan_repo(&repo.root).expect("scan"));

    repo.write(
        "crates/demo/src/lib.rs",
        "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let one = Baseline::from_violations(&scan_repo(&repo.root).expect("scan"));

    assert_eq!(two.shrunk_to(&one).expect("shrinking is allowed"), one);
    assert!(one.shrunk_to(&two).is_err(), "growing must be refused");
}

#[test]
fn p2_walks_the_call_graph_from_hot_roots() {
    let repo = FixtureRepo::new("p2");
    // A hot root (StreamingEvaluator::run*) calls into a helper two hops
    // away that holds a message-less assert: P2 flags the helper's line.
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n\
         \x20   pub fn run(&self) { step(); }\n\
         }\n\
         fn step() { kernel(3); }\n\
         fn kernel(n: usize) {\n\
         \x20   assert!(n > 0);\n\
         }\n",
    );
    // The same assert in a function no root reaches is NOT a P2.
    repo.write(
        "crates/core/src/offline.rs",
        "pub fn island(n: usize) {\n\
         \x20   assert!(n > 0);\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/core/src/system.rs"), ["P2"]);
    assert!(repo.rules_at("crates/core/src/offline.rs").is_empty());

    // A messaged assert is a documented precondition — sanctioned.
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n\
         \x20   pub fn run(&self) { kernel(3); }\n\
         }\n\
         fn kernel(n: usize) {\n\
         \x20   assert!(n > 0, \"kernel needs at least one lane\");\n\
         }\n",
    );
    assert!(repo.rules_at("crates/core/src/system.rs").is_empty());

    // A P2 waiver (or a P1 waiver doing double duty) silences it.
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n\
         \x20   pub fn run(&self, x: Option<u32>) -> u32 {\n\
         \x20       // lint:allow(P1): the frame loop seeds x before the first run\n\
         \x20       x.unwrap()\n\
         \x20   }\n\
         }\n",
    );
    assert!(repo.rules_at("crates/core/src/system.rs").is_empty());
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n\
         \x20   pub fn run(&self, n: usize) {\n\
         \x20       // lint:allow(P2): width is validated at construction\n\
         \x20       assert!(n > 0);\n\
         \x20   }\n\
         }\n",
    );
    assert!(repo.rules_at("crates/core/src/system.rs").is_empty());
}

#[test]
fn p2_reaches_from_the_speculation_roots() {
    let repo = FixtureRepo::new("p2-spec");
    // `FoveatedPipeline::speculate*` is a hot root: a panic source in a
    // helper it reaches is a P2.
    repo.write(
        "crates/core/src/solonet.rs",
        "impl FoveatedPipeline {\n\
         \x20   pub fn speculate_maps(&mut self) { warm(2); }\n\
         }\n\
         fn warm(k: usize) {\n\
         \x20   assert!(k > 0);\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/core/src/solonet.rs"), ["P2"]);

    // `GazePredictor::predict` is too.
    repo.write(
        "crates/gaze/src/predictor.rs",
        "impl GazePredictor {\n\
         \x20   pub fn predict(&mut self, n: usize) -> usize {\n\
         \x20       assert!(n > 1);\n\
         \x20       n\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/gaze/src/predictor.rs"), ["P2"]);

    // A same-named method on an unrelated type is NOT a root.
    repo.write(
        "crates/gaze/src/predictor.rs",
        "impl WeatherOracle {\n\
         \x20   pub fn predict(&mut self, n: usize) -> usize {\n\
         \x20       assert!(n > 1);\n\
         \x20       n\n\
         \x20   }\n\
         }\n",
    );
    assert!(
        repo.rules_at("crates/gaze/src/predictor.rs").is_empty(),
        "WeatherOracle::predict must not be a root"
    );
}

#[test]
fn p2_reaches_from_the_serving_roots() {
    let repo = FixtureRepo::new("p2-serve");
    // `Server::tick_supervised` is a hot root: every admitted user's frame
    // deadline rides on it, so a panic source in a helper it reaches is a
    // P2.
    repo.write(
        "crates/serve/src/server.rs",
        "impl Server {\n\
         \x20   pub fn tick_supervised(&mut self) { stack(4); }\n\
         }\n\
         fn stack(s: usize) {\n\
         \x20   assert!(s > 0);\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/serve/src/server.rs"), ["P2"]);

    // `Server::admit` prices the marginal session on the same deadline.
    repo.write(
        "crates/serve/src/server.rs",
        "impl Server {\n\
         \x20   pub fn admit(&mut self, s: usize) -> usize {\n\
         \x20       assert!(s > 0);\n\
         \x20       s\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/serve/src/server.rs"), ["P2"]);

    // Off-path reporting on the same type is NOT a root.
    repo.write(
        "crates/serve/src/server.rs",
        "impl Server {\n\
         \x20   pub fn mask_digest(&self, s: usize) -> usize {\n\
         \x20       assert!(s > 0);\n\
         \x20       s\n\
         \x20   }\n\
         }\n",
    );
    assert!(
        repo.rules_at("crates/serve/src/server.rs").is_empty(),
        "Server::mask_digest must not be a root"
    );
}

#[test]
fn x1_pairs_every_scratch_handout_with_its_return_path() {
    let repo = FixtureRepo::new("x1");
    repo.write(
        "crates/demo/src/lib.rs",
        "fn leak(n: usize) {\n\
         \x20   let mut buf = exec::take_buf(n);\n\
         \x20   buf[0] = 1.0;\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["X1"]);

    // Recycling or transferring custody into a tensor satisfies the rule.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn recycled(n: usize) {\n\
         \x20   let mut buf = exec::take_buf(n);\n\
         \x20   exec::recycle_buf(buf);\n\
         }\n\
         fn transferred(n: usize) -> Tensor {\n\
         \x20   let mut out = exec::take_buf_at(\"demo.site\", n);\n\
         \x20   Tensor::from_vec(vec![n], out)\n\
         }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());

    // An escape waiver names who recycles; without it the escape fails.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn escapes(n: usize) -> Vec<f32> {\n\
         \x20   // lint:allow(X1): escapes — caller recycles via Frame::drop\n\
         \x20   let buf = exec::take_buf(n);\n\
         \x20   buf\n\
         }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());
}

#[test]
fn s1_audits_unsafe_against_the_allow_list_and_safety_comments() {
    let repo = FixtureRepo::new("s1");
    // Outside the allow-list: flagged regardless of comments.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn f() {\n\
         \x20   // SAFETY: still not allowed here\n\
         \x20   unsafe { danger() }\n\
         }\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["S1"]);

    // In the allow-listed module: fine with a SAFETY comment, flagged bare.
    repo.write(
        "crates/tensor/src/packed.rs",
        "fn documented() {\n\
         \x20   // SAFETY: indices bounded by the pack loop above.\n\
         \x20   unsafe { danger() }\n\
         }\n",
    );
    assert!(repo.rules_at("crates/tensor/src/packed.rs").is_empty());
    repo.write(
        "crates/tensor/src/packed.rs",
        "fn bare() { unsafe { danger() } }\n",
    );
    assert_eq!(repo.rules_at("crates/tensor/src/packed.rs"), ["S1"]);

    // An S1 waiver with a justification is the escape hatch.
    repo.write(
        "crates/tensor/src/packed.rs",
        "fn waived() {\n\
         \x20   // lint:allow(S1): proof lives on the module-level invariant doc\n\
         \x20   unsafe { danger() }\n\
         }\n",
    );
    assert!(repo.rules_at("crates/tensor/src/packed.rs").is_empty());
}

#[test]
fn a1_flags_waivers_that_no_longer_suppress_anything() {
    let repo = FixtureRepo::new("a1");
    // The waived line stopped tripping D1: the waiver itself is now debt.
    repo.write(
        "crates/demo/src/lib.rs",
        "// lint:allow(D1): wall-clock only feeds a log line\n\
         fn quiet() {}\n",
    );
    assert_eq!(repo.rules_at("crates/demo/src/lib.rs"), ["A1"]);

    // A firing waiver is not stale; unknown rule ids (doc placeholders)
    // and waivers inside #[cfg(test)] are ignored.
    repo.write(
        "crates/demo/src/lib.rs",
        "// lint:allow(D1): wall-clock only feeds a log line\n\
         fn logged() { let t = std::time::Instant::now(); }\n\
         // lint:allow(RULE): doc placeholder, not a real waiver\n\
         fn documented() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   // lint:allow(P1): test-only note\n\
         \x20   fn t() {}\n\
         }\n",
    );
    assert!(repo.rules_at("crates/demo/src/lib.rs").is_empty());

    // Manifest side: a W1 waiver on a dependency the sources DO reference
    // is stale too.
    repo.write("Cargo.toml", "[workspace]\nmembers = [\"crates/demo\"]\n");
    repo.write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\n\n[dependencies]\n\
         serde.workspace = true # lint:allow(W1): kept for downstream re-export\n",
    );
    repo.write("crates/demo/src/lib.rs", "pub use serde::Serialize;\n");
    assert_eq!(repo.rules_at("crates/demo/Cargo.toml"), ["A1"]);
}

#[test]
fn call_graph_edge_counts_are_pinned_on_a_fixture_tree() {
    let repo = FixtureRepo::new("graph");
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n\
         \x20   pub fn run(&self) { helper(); self.stage(); exec::dispatch(); }\n\
         \x20   fn stage(&self) { Pool::submit(); }\n\
         }\n\
         fn helper() { Pool::missing(); std::mem::drop(1); }\n",
    );
    repo.write(
        "crates/tensor/src/exec.rs",
        "pub fn dispatch() {}\n\
         impl Pool {\n\
         \x20   pub fn submit() {}\n\
         }\n",
    );
    let scan = scan_repo_full(&repo.root).expect("scan fixture repo");
    let g = &scan.graph;
    assert_eq!(g.functions, 5, "run, stage, helper, dispatch, submit");
    // helper() binds same-file, exec::dispatch() and Pool::submit() by
    // path (3 resolved); self.stage() is a method-name fallback;
    // Pool::missing() is unresolved (workspace type, no such item);
    // std::mem::drop() is external.
    assert_eq!(g.stats.resolved, 3, "{:?}", g.stats);
    assert_eq!(g.stats.fallback, 1, "{:?}", g.stats);
    assert_eq!(g.stats.external, 1, "{:?}", g.stats);
    assert_eq!(g.stats.unresolved, 1, "{:?}", g.stats);
    assert_eq!(g.unresolved.len(), 1);
    assert_eq!(g.unresolved[0].path, "Pool::missing");
    // Coverage counts workspace-directed sites only: 4 bound of 5.
    assert!((g.stats.coverage() - 4.0 / 5.0).abs() < 1e-9);
    // StreamingEvaluator::run is a root; everything it reaches is counted.
    assert_eq!(g.roots, ["StreamingEvaluator::run"]);
    assert_eq!(g.reachable, 5);
}

/// End-to-end exit-code contract, driving the real binary.
#[test]
fn cli_exits_nonzero_on_injected_violation() {
    let repo = FixtureRepo::new("cli");
    repo.write("crates/demo/src/lib.rs", "fn clean() {}\n");

    let run = |args: &[&str]| -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_solo-lint"))
            .args(args)
            .arg("--root")
            .arg(&repo.root)
            .arg("--baseline")
            .arg(repo.root.join("lint-baseline.json"))
            .output()
            .expect("run solo-lint")
    };

    // Clean tree, empty baseline: exit 0.
    assert!(run(&["check"]).status.success());

    // Inject a violation: exit 1.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn dirty() { let t = std::time::Instant::now(); }\n",
    );
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[D1]"));

    // Bootstrap the baseline: subsequent checks pass.
    assert!(run(&["check", "--update-baseline"]).status.success());
    assert!(run(&["check"]).status.success());

    // A second, different violation still fails against that baseline.
    repo.write(
        "crates/demo/src/lib.rs",
        "fn dirty() { let t = std::time::Instant::now(); }\nfn p() { panic!() }\n",
    );
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[P1]"));

    // And --update-baseline refuses to absorb it (exit 2: refused).
    let out = run(&["check", "--update-baseline"]);
    assert!(!out.status.success());

    // Usage errors exit 2.
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
}

/// `explain` prints the registry; `--graph` dumps call-graph statistics.
#[test]
fn cli_explain_and_graph_surfaces() {
    let repo = FixtureRepo::new("cli-explain");
    repo.write(
        "crates/core/src/system.rs",
        "impl StreamingEvaluator {\n    pub fn run(&self) { helper(); }\n}\nfn helper() {}\n",
    );

    let bin = env!("CARGO_BIN_EXE_solo-lint");
    let run = |args: &[&str]| {
        Command::new(bin)
            .args(args)
            .output()
            .expect("run solo-lint")
    };

    // One rule, all rules, and an unknown rule.
    let out = run(&["explain", "P2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("P2"), "{text}");
    assert!(text.contains("invariant:"), "{text}");
    assert!(text.contains("waiver:"), "{text}");

    let out = run(&["explain"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for rule in [
        "D1", "D2", "U1", "P1", "P2", "C1", "E1", "S1", "X1", "W1", "A1",
    ] {
        assert!(
            text.contains(&format!("{rule} — scope")),
            "{rule} missing:\n{text}"
        );
    }
    assert_eq!(run(&["explain", "Z9"]).status.code(), Some(2));

    // --graph prints resolution statistics alongside the check.
    let out = Command::new(bin)
        .args(["check", "--graph", "--root"])
        .arg(&repo.root)
        .arg("--baseline")
        .arg(repo.root.join("lint-baseline.json"))
        .output()
        .expect("run solo-lint");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{out:?}");
    assert!(text.contains("call graph:"), "{text}");
    assert!(text.contains("workspace coverage"), "{text}");
    assert!(text.contains("StreamingEvaluator::run"), "{text}");
}
