//! Tier-1 gate: the repo must be clean under `solo-lint` relative to the
//! committed `lint-baseline.json`. Equivalent to
//! `cargo run -p solo-lint -- check` but runs inside `cargo test -q`.

use std::path::Path;

#[test]
fn repo_is_lint_clean_against_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = root.join("lint-baseline.json");
    let report = solo_lint::check_repo(root, &baseline).expect("lint scan must succeed");
    assert!(
        report.is_clean(),
        "lint violations beyond baseline:\n{}",
        report.render()
    );
}

/// Cross-procedural acceptance gates: the hot paths must be free of
/// reachable panic sources (P2) and scratch-buffer leaks (X1) with no
/// grandfathering — these two rules are never allowed into the baseline —
/// and the call graph the gates ride on must actually resolve the
/// workspace (≥ 95% of non-external call edges land on a known function).
#[test]
fn hot_paths_are_panic_free_and_leak_free_with_a_resolved_call_graph() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scan = solo_lint::scan_repo_full(root).expect("lint scan must succeed");

    let gated: Vec<_> = scan
        .violations
        .iter()
        .filter(|v| v.rule == "P2" || v.rule == "X1")
        .collect();
    assert!(
        gated.is_empty(),
        "unwaived P2/X1 findings (never baselined):\n{}",
        gated
            .iter()
            .map(|v| format!("  {}:{} [{}] {}", v.file, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let stats = &scan.graph.stats;
    assert!(
        stats.coverage() >= 0.95,
        "call-graph edge resolution fell to {:.1}% (resolved {} + fallback {} vs unresolved {})",
        stats.coverage() * 100.0,
        stats.resolved,
        stats.fallback,
        stats.unresolved
    );
    assert!(
        !scan.graph.roots.is_empty(),
        "no hot-path roots found — P2 would be vacuously clean"
    );
}

/// The tracker-dark rung-to-work decision lives once, in
/// `solo-core::resilience`, and both frame loops call it: it must be
/// called by each loop and reachable on the call graph from the streaming
/// root and from the serving root on their own, so P2 gates it for both.
#[test]
fn shared_rung_mapping_is_reachable_from_both_frame_loops() {
    use solo_lint::{callgraph::CallGraph, items, rules, source::SourceFile};

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut parsed = Vec::new();
    for rel in solo_lint::rust_sources(root).expect("walk the workspace") {
        if rules::classify(&rel) != Some(rules::FileKind::Library) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        let file = SourceFile::parse(&rel, &text);
        parsed.push(items::parse_file(&rel, &text, &file));
    }
    let graph = CallGraph::build(&parsed);
    let find = |path: &str| {
        graph
            .fns
            .iter()
            .position(|f| f.path() == path)
            .unwrap_or_else(|| panic!("{path} not in the call graph"))
    };
    let mapping = find("rung_work");
    // Reachability alone over-approximates (method calls resolve by name),
    // so each frame loop must also call the mapping itself.
    for (frame_loop, root) in [
        (
            "StreamingEvaluator::stream",
            "StreamingEvaluator::run_with_faults",
        ),
        ("Server::tick_supervised", "Server::tick_supervised"),
    ] {
        assert!(
            graph.edges[find(frame_loop)].contains(&mapping),
            "{frame_loop} does not call rung_work"
        );
        let reach = graph.reachable_from(&[find(root)]);
        assert!(
            reach[mapping].is_some(),
            "rung_work is not reachable from {root}"
        );
    }
}
