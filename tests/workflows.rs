//! Agentic workflow subsystem (PR 9): DAG validation, runtime
//! release/cancellation, KV inheritance, and the contract that the
//! whole layer is *inert* for flat mixes — a single-node workflow is
//! bit-identical to the equivalent flat mix — and random DAGs with
//! speculative cancellations settle cleanly (every node completes or
//! cancels; the engine's end-of-run block-conservation asserts catch
//! any leaked KV, and its per-turn check holds each turn to the
//! step-scan rule, in these debug-build runs).

use common::{chunked, MemNode};
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

fn build(cfg: ServingConfig, kv_block: u64) -> ServingSim {
    ServingSim::new(cfg)
        .cluster(2, |_| MemNode::tight())
        .scheduling(chunked(8, 64))
        .kv_block(kv_block)
}

// ---------------------------------------------------------------------
// Preflight validation
// ---------------------------------------------------------------------

/// A cycle (even a self-edge) and a dangling parent are both rejected
/// before any simulation state exists; an empty template too.
#[test]
fn cyclic_and_dangling_templates_rejected() {
    // 0 -> 1 -> 0 back-edge.
    let cycle = WorkflowTemplate::new(
        vec![
            WorkflowNode::with_parents(RequestShape::new(32, 16), vec![1]),
            WorkflowNode::with_parents(RequestShape::new(32, 16), vec![0]),
        ],
        1.0,
    );
    assert!(matches!(cycle.validate(), Err(WorkflowError::Cycle { .. })));

    let dangling = WorkflowTemplate::new(
        vec![
            WorkflowNode::new(RequestShape::new(32, 16)),
            WorkflowNode::with_parents(RequestShape::new(32, 16), vec![7]),
        ],
        1.0,
    );
    assert!(matches!(
        dangling.validate(),
        Err(WorkflowError::DanglingParent { node: 1, parent: 7 })
    ));

    let empty = WorkflowTemplate::new(vec![], 1.0);
    assert!(matches!(empty.validate(), Err(WorkflowError::Empty)));

    // The builtins are valid by construction.
    for tpl in [
        WorkflowTemplate::agent_chain(),
        WorkflowTemplate::tool_fanout(),
        WorkflowTemplate::speculative(),
    ] {
        tpl.validate().expect("builtin template must validate");
    }
}

/// The config constructor accepts any templates; the preflight rejects
/// an invalid one (here a self-edge) before the run starts.
#[test]
fn workflow_mix_rejects_invalid_template_at_preflight() {
    let cycle = WorkflowTemplate::new(
        vec![WorkflowNode::with_parents(
            RequestShape::new(32, 16),
            vec![0],
        )],
        1.0,
    );
    let sim = build(ServingConfig::workflow_mix(4.0, 10, vec![cycle]), 0);
    let self_edge = WorkflowError::DanglingParent { node: 0, parent: 0 };
    assert_eq!(
        sim.validate(&ModelConfig::gpt2_m()),
        Err(ConfigError::Workflow(0, self_edge))
    );
}

// ---------------------------------------------------------------------
// Inertness: single-node workflows == flat mixes
// ---------------------------------------------------------------------

/// A workflow whose every template is one parentless node is the flat
/// mix with the same shapes and weights: same draws, same admissions,
/// same report — paged and contiguous. Only the
/// workflow-layer metrics differ (each instance settles as a completed
/// workflow), so those fields are equalized before the comparison.
#[test]
fn single_node_workflows_match_flat_mix() {
    let shapes = [
        (RequestShape::new(128, 32), 0.7),
        (RequestShape::new(256, 64), 0.3),
    ];
    let flat_cfg = ServingConfig {
        arrival_rate_hz: 8.0,
        requests: 80,
        seed: 0x5EED,
        mix: shapes
            .iter()
            .map(|&(s, w)| RequestClass::new(s, w))
            .collect(),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let wf_cfg = ServingConfig::workflow_mix(
        8.0,
        80,
        shapes
            .iter()
            .map(|&(s, w)| WorkflowTemplate::new(vec![WorkflowNode::new(s)], w))
            .collect(),
    );
    for kv_block in [0u64, 64] {
        let flat = build(flat_cfg.clone(), kv_block).run(&ModelConfig::gpt2_xl());
        let mut wf = build(wf_cfg.clone(), kv_block).run(&ModelConfig::gpt2_xl());
        assert_eq!(wf.completed_workflows, 80, "block={kv_block}");
        assert_eq!(wf.cancelled_nodes, 0);
        // Single nodes have no parents, so nothing is inheritable.
        assert_eq!(wf.inherited_prefix_ratio, 0.0);
        wf.workflow_latency = flat.workflow_latency;
        wf.workflow_slo_attainment = flat.workflow_slo_attainment;
        wf.completed_workflows = flat.completed_workflows;
        assert_eq!(wf, flat, "block={kv_block}");
    }
}

// ---------------------------------------------------------------------
// Built-in templates end to end
// ---------------------------------------------------------------------

/// Speculative groups cancel exactly the losers: with the builtin
/// 5-node speculative template (root, two speculative branches, one
/// tail each) every instance settles with one branch's subtree
/// (branch + tail) cancelled — completions + cancellations account
/// for every node, and every instance finishes.
#[test]
fn speculative_groups_cancel_loser_subtrees() {
    let tpl = WorkflowTemplate::speculative();
    let nodes = tpl.node_count() as u64;
    let instances = 40;
    let cfg = ServingConfig::workflow_mix(6.0, instances, vec![tpl]);
    let r = build(cfg, 64).run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed_workflows, instances);
    assert_eq!(
        r.completed + r.cancelled_nodes,
        instances * nodes,
        "every node completes or cancels"
    );
    assert!(
        r.cancelled_nodes > 0,
        "first-finisher arbitration must cancel losers"
    );
    // A loser that already started still runs to completion, so
    // cancellations are at most one branch subtree per instance.
    assert!(r.cancelled_nodes <= instances * 2);
}

/// KV inheritance is real and switchable: under paged accounting an
/// agent chain's children admit onto the parent's published blocks
/// (nonzero inherited ratio, prefix hits), and disabling inheritance
/// zeroes it without breaking settlement.
#[test]
fn chain_children_inherit_parent_kv_under_paging() {
    let cfg = ServingConfig::workflow_mix(4.0, 30, vec![WorkflowTemplate::agent_chain()]);
    let inherit = build(cfg.clone(), 64).run(&ModelConfig::gpt2_xl());
    assert!(
        inherit.inherited_prefix_ratio > 0.0,
        "chain children must land on inherited blocks"
    );
    assert!(inherit.prefix_cache_hits > 0);
    let cold = build(cfg, 64)
        .workflow_inheritance(false)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(cold.inherited_prefix_ratio, 0.0);
    assert_eq!(cold.completed_workflows, 30);
    assert_eq!(inherit.completed_workflows, 30);
}

// ---------------------------------------------------------------------
// Property net: random DAGs settle cleanly
// ---------------------------------------------------------------------

/// A random DAG template: node `i`'s parents are a subset of `0..i`
/// (acyclic by construction), with an optional speculative pair racing
/// under the root. Shapes stay small so the proptest grid runs fast.
fn random_template(
    node_shapes: &[(u64, u64)],
    parent_masks: &[u64],
    speculate: bool,
) -> WorkflowTemplate {
    let mut nodes: Vec<WorkflowNode> = Vec::with_capacity(node_shapes.len());
    for (i, &(input, output)) in node_shapes.iter().enumerate() {
        let shape = RequestShape::new(16 + input, 8 + output);
        let parents: Vec<usize> = (0..i)
            .filter(|&p| parent_masks[i] & (1 << p) != 0)
            .collect();
        // Race the first two children of node 0 against each other.
        let node = if speculate && (1..=2).contains(&i) && parent_masks[i] & 1 != 0 {
            WorkflowNode::speculative(shape, parents, 1)
        } else if parents.is_empty() {
            WorkflowNode::new(shape)
        } else {
            WorkflowNode::with_parents(shape, parents)
        };
        nodes.push(node);
    }
    WorkflowTemplate::new(nodes, 1.0).with_deadline(120.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any random DAG (with or without a speculative race) and any
    /// paging mode: the run terminates, every instance settles, and
    /// completions + cancellations account for every node drawn. The
    /// engine's debug asserts (block conservation, empty host pool, each
    /// turn the step-scan rule's, also when a fan-out moves the
    /// wait-queue head backward) make any leaked KV or misordered turn
    /// a panic in these runs.
    #[test]
    fn random_dags_settle_cleanly(
        n_nodes in 1usize..6,
        shape_seed in prop::collection::vec((0u64..96, 0u64..48), 6..7),
        parent_masks in prop::collection::vec(any::<u64>(), 6..7),
        speculate in any::<bool>(),
        kv_block in prop::sample::select(vec![0u64, 64]),
        rate in prop::sample::select(vec![2.0f64, 8.0]),
    ) {
        let tpl = random_template(&shape_seed[..n_nodes], &parent_masks[..n_nodes], speculate);
        prop_assert!(tpl.validate().is_ok());
        let nodes = tpl.node_count() as u64;
        let instances = 20u64;
        let cfg = ServingConfig::workflow_mix(rate, instances, vec![tpl]);
        let report = build(cfg, kv_block).run(&ModelConfig::gpt2_xl());
        prop_assert_eq!(report.completed_workflows, instances);
        prop_assert_eq!(report.completed + report.cancelled_nodes, instances * nodes);
        if !speculate {
            prop_assert_eq!(report.cancelled_nodes, 0);
        }
    }
}
