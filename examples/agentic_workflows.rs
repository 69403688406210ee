//! Agentic workflows on the serving engine (PR 9): requests that are
//! **DAGs**, not independent arrivals. An agent turn is a chain of LLM
//! calls (plan → act → act → summarize), a tool call fans out into
//! parallel sub-requests that a join node consumes, and speculative
//! branches race each other with the first finisher cancelling the
//! loser's subtree. Each node's effective prompt is its own tokens plus
//! every parent's output — which under paged KV accounting
//! (`ServingSim::kv_block`) is exactly the KV the parent already built,
//! so a child can admit *onto the parent's blocks* copy-on-write
//! instead of cold re-prefilling the conversation so far.
//!
//! ```text
//! cargo run --release --example agentic_workflows [-- --smoke] [-- --bench-json PATH]
//! ```
//!
//! Three experiments on IANUS replicas serving GPT-2 XL:
//!
//! 1. **KV inheritance vs cold re-prefill** (agent-chain): the same
//!    chain workload with the engine's workflow-KV inheritance on and
//!    off. Inheritance prefills only each node's *own* prompt tokens —
//!    the inherited context is a prefix-cache hit — so chain TTFT p50
//!    and end-to-end workflow latency both drop. Asserted.
//! 2. **Workflow-aware admission** (tool-fanout): FCFS vs EDF (the
//!    workflow deadline stands in for a per-request SLO) vs
//!    `widest-subtree` (admit the node gating the most downstream
//!    work, oldest instance first). Under backlog, FCFS buries
//!    released tools and joins behind every queued root, so in-flight
//!    instances rot; the workflow-aware policies drain them first and
//!    compress the workflow-latency tail. Asserted: widest-subtree
//!    beats FCFS on p99 workflow latency. (On a *uniform* template,
//!    widest-subtree's width key only breaks within-instance ties, so
//!    it coincides with EDF; it separates on DAGs that expose several
//!    ready nodes of unequal width.)
//! 3. **Speculative cancellation**: racing branches settle every
//!    instance with one loser subtree cancelled — completions plus
//!    cancellations account for every node drawn, nothing leaks.
//!
//! `--smoke --bench-json` emits the deterministic metric rows CI diffs
//! against `benches/canonical/BENCH_workflows.json` (wall-clock lines
//! are stripped by the comparison).

use ianus::prelude::*;
mod common;

/// Iteration-level IANUS cluster with paged KV: 2 replicas, batch 8,
/// chunked prefill, preemption on (workflow bursts overcommit).
fn cluster(cfg: ServingConfig) -> ServingSim {
    ServingSim::new(cfg)
        .cluster(2, |_| IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .kv_block(64)
}

/// One JSON result row (no serde in-tree); `wall_s` is stripped by the
/// canonical diff.
fn bench_row(experiment: &str, variant: &str, r: &ServingReport, wall_s: f64) -> String {
    format!(
        "    {{\"experiment\": {experiment:?}, \"variant\": {variant:?}, \
         \"ttft_p50_ms\": {:.4}, \"workflow_p50_ms\": {:.4}, \"workflow_p99_ms\": {:.4}, \
         \"deadline_attainment\": {:.6}, \"completed\": {}, \"cancelled_nodes\": {}, \
         \"inherited_prefix_ratio\": {:.6},\n     \"wall_s\": {wall_s:.6}}}",
        r.ttft.p50.as_ms_f64(),
        r.workflow_latency.p50.as_ms_f64(),
        r.workflow_latency.p99.as_ms_f64(),
        r.workflow_slo_attainment,
        r.completed,
        r.cancelled_nodes,
        r.inherited_prefix_ratio,
    )
}

fn main() {
    let (smoke, bench_json) = common::bench_args();
    let instances = if smoke { 40 } else { 120 };
    let model = ModelConfig::gpt2_xl();
    let mut rows: Vec<String> = Vec::new();

    // ----------------------------------------------------------------
    // 1. KV inheritance vs cold re-prefill on the agent chain
    // ----------------------------------------------------------------
    let chain_cfg =
        ServingConfig::workflow_mix(2.0, instances, vec![WorkflowTemplate::agent_chain()]);
    println!(
        "agent-chain ({} instances x {} nodes, {}):\n",
        instances,
        WorkflowTemplate::agent_chain().node_count(),
        model.name
    );
    let mut inherit = None;
    for (variant, on) in [("inherited-kv", true), ("cold-reprefill", false)] {
        let (r, wall) = common::timed(|| {
            cluster(chain_cfg.clone())
                .workflow_inheritance(on)
                .run(&model)
        });
        println!(
            "  {variant:<16} TTFT p50 {:>7.0} ms | workflow p50/p99 {:>7.0}/{:>7.0} ms | \
             deadline attain {:>5.1}% | inherited {:>4.1}%",
            r.ttft.p50.as_ms_f64(),
            r.workflow_latency.p50.as_ms_f64(),
            r.workflow_latency.p99.as_ms_f64(),
            r.workflow_slo_attainment * 100.0,
            r.inherited_prefix_ratio * 100.0,
        );
        assert_eq!(r.completed_workflows, instances, "every instance settles");
        assert_eq!(r.cancelled_nodes, 0, "chains cancel nothing");
        rows.push(bench_row("chain-inheritance", variant, &r, wall));
        if on {
            // Not every child admits on its parent's home replica, so
            // the ratio sits below 1.0 — but a healthy fraction of the
            // chain must ride the parent's blocks.
            assert!(r.inherited_prefix_ratio > 0.25, "chain children inherit");
            inherit = Some(r);
        } else {
            let inherit = inherit.as_ref().expect("inherit ran first");
            assert_eq!(r.inherited_prefix_ratio, 0.0, "control is cold");
            assert!(
                inherit.ttft.p50 < r.ttft.p50,
                "inherited KV must beat cold re-prefill on chain TTFT p50 \
                 ({} vs {} ms)",
                inherit.ttft.p50.as_ms_f64(),
                r.ttft.p50.as_ms_f64(),
            );
        }
    }

    // ----------------------------------------------------------------
    // 2. Admission policies on the tool fan-out
    // ----------------------------------------------------------------
    let fanout_cfg =
        ServingConfig::workflow_mix(2.5, instances, vec![WorkflowTemplate::tool_fanout()]);
    println!(
        "\ntool-fanout ({} instances x {} nodes), admission shootout:\n",
        instances,
        WorkflowTemplate::tool_fanout().node_count()
    );
    let policies: [(&str, SchedulerPolicy); 3] = [
        ("fcfs", SchedulerPolicy::default()),
        (
            "edf",
            SchedulerPolicy::default().with_admission(AdmissionPolicy::Deadline),
        ),
        (
            "widest-subtree",
            SchedulerPolicy::default().with_admission(AdmissionPolicy::WidestSubtree),
        ),
    ];
    let mut p99 = Vec::new();
    for (name, policy) in policies {
        let (r, wall) = common::timed(|| cluster(fanout_cfg.clone()).policy(policy).run(&model));
        println!(
            "  {name:<16} workflow p50/p99 {:>7.0}/{:>7.0} ms | deadline attain {:>5.1}% | \
             TTFT p50 {:>6.0} ms",
            r.workflow_latency.p50.as_ms_f64(),
            r.workflow_latency.p99.as_ms_f64(),
            r.workflow_slo_attainment * 100.0,
            r.ttft.p50.as_ms_f64(),
        );
        assert_eq!(r.completed_workflows, instances);
        p99.push((name, r.workflow_latency.p99));
        rows.push(bench_row("fanout-admission", name, &r, wall));
    }
    let by_name = |n: &str| p99.iter().find(|(p, _)| *p == n).expect("policy ran").1;
    assert!(
        by_name("widest-subtree") < by_name("fcfs"),
        "widest-subtree must beat FCFS on tool-fanout workflow p99 ({} vs {} ms)",
        by_name("widest-subtree").as_ms_f64(),
        by_name("fcfs").as_ms_f64(),
    );

    // ----------------------------------------------------------------
    // 3. Speculative branches: first finisher wins, loser is cancelled
    // ----------------------------------------------------------------
    let spec_tpl = WorkflowTemplate::speculative();
    let nodes = spec_tpl.node_count() as u64;
    let spec_cfg = ServingConfig::workflow_mix(2.5, instances, vec![spec_tpl]);
    let (r, wall) = common::timed(|| cluster(spec_cfg).run(&model));
    println!(
        "\nspeculative ({instances} instances x {nodes} nodes): {} completions + {} \
         cancelled nodes,\n  workflow p50/p99 {:>7.0}/{:>7.0} ms | deadline attain {:>5.1}%",
        r.completed,
        r.cancelled_nodes,
        r.workflow_latency.p50.as_ms_f64(),
        r.workflow_latency.p99.as_ms_f64(),
        r.workflow_slo_attainment * 100.0,
    );
    assert_eq!(r.completed_workflows, instances, "every race settles");
    assert_eq!(
        r.completed + r.cancelled_nodes,
        instances * nodes,
        "every node completes or is cancelled — nothing leaks"
    );
    assert!(r.cancelled_nodes > 0, "some branch must lose the race");
    rows.push(bench_row("speculative", "default", &r, wall));

    println!(
        "\ninheritance turns the agent chain's context hand-off into a block-table \
         operation (children\nprefill only their own prompt), and the workflow tail tightens \
         once admission drains in-flight\nDAGs instead of burying their tools and joins \
         behind every queued root."
    );

    if let Some(path) = bench_json {
        let fields = [
            ("benchmark", "\"agentic_workflows\"".into()),
            ("model", format!("{:?}", model.name)),
            ("instances", instances.to_string()),
            ("smoke", smoke.to_string()),
        ];
        common::write_bench_json(&path, &fields, Some(&rows));
        println!("\nwrote {} result rows to {path}", rows.len());
    }
}
