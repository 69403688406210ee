//! Stage compiler: models × stages → dependency-annotated command programs.
//!
//! This is where PIM Access Scheduling becomes concrete. The compiler
//! implements the paper's workload mapping (Figure 6) — head-parallel
//! Q/K/V across PIM chips and cores, column-parallel other FCs, layer
//! norms and residual adds on the vector units, four synchronizations per
//! block — and the unified-memory-aware attention schedules of Figure 7:
//!
//! * summarization (7a): FCs on the matrix unit with per-head weight
//!   prefetching, on-chip key transpose overlapped with value generation,
//!   value move to the weight scratchpad during softmax;
//! * generation with QKᵀ/SV on PIM (7b);
//! * generation with QKᵀ/SV on the matrix unit (7c): key concatenation on
//!   the VU overlapped with query generation in PIM, Kpre prefetch of the
//!   next head during SV, KV stores and Vcat load during softmax.
//!
//! The naive schedule (Figure 13's ablation) chains every command of a
//! core to its predecessor, eliminating all intra-core overlap between
//! PIM computation and NPU work.

use crate::adaptive::{AdaptivePlanner, FcUnit};
use crate::energy::Activity;
use crate::pas::{AttnMapping, FcMapping, Schedule};
use crate::report::OpClass;
use crate::{SystemConfig, UnitMap};
use ianus_dram::TransferModel;
use ianus_model::{FcShape, ModelConfig, ModelFamily, Stage};
use ianus_npu::scheduler::{CmdId, Command, Program};
use ianus_npu::{DmaEngine, MatrixUnit, VectorUnit, VuOp};
use ianus_pim::{GemvShape, PimModel, PimOpCost};
use ianus_sim::Duration;
use std::collections::HashMap;

/// A compiled stage: the command program plus its activity counters and
/// FLOP total.
#[derive(Debug, Clone)]
pub struct CompiledStage {
    /// Dependency-annotated command stream for the device engine.
    pub program: Program,
    /// Energy-relevant activity counters.
    pub activity: Activity,
    /// FLOPs the stage performs (whole model, all devices).
    pub flops: u64,
}

/// Compiles stages of one model onto one system configuration.
///
/// # Examples
///
/// ```
/// use ianus_core::compiler::Compiler;
/// use ianus_core::SystemConfig;
/// use ianus_model::{ModelConfig, Stage};
///
/// let cfg = SystemConfig::ianus();
/// let model = ModelConfig::gpt2_m();
/// let mut c = Compiler::new(&cfg, &model);
/// let stage = c.compile(&Stage::Generation { past_tokens: 64 });
/// assert!(!stage.program.is_empty());
/// ```
#[derive(Debug)]
pub struct Compiler<'a> {
    cfg: &'a SystemConfig,
    model: &'a ModelConfig,
    units: UnitMap,
    mu: MatrixUnit,
    vu: VectorUnit,
    dma: DmaEngine,
    pim: Option<PimModel>,
    planner: AdaptivePlanner,
    xfer: TransferModel,
    /// Every GEMV this compiler has priced, for both PIM commands and
    /// Algorithm 1's PIM estimates; lives as long as the compiler.
    pim_cache: HashMap<GemvShape, PimOpCost>,
    // --- per-compilation state ---
    prog: Program,
    activity: Activity,
    naive_last: Vec<Option<CmdId>>,
    /// Last macro PIM command per core (naive-schedule bookkeeping).
    naive_last_pim: Vec<Option<CmdId>>,
    /// Set while emitting the interior of one operation whose internal
    /// pipelining is a hardware property (naive chaining suspended).
    suspend_naive: bool,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler for `model` on `cfg`.
    pub fn new(cfg: &'a SystemConfig, model: &'a ModelConfig) -> Self {
        let pim = if cfg.pim_channels() > 0 {
            Some(PimModel::new(cfg.pim_group_config()))
        } else {
            None
        };
        Compiler {
            cfg,
            model,
            units: UnitMap::new(cfg),
            mu: MatrixUnit::new(&cfg.npu),
            vu: VectorUnit::new(&cfg.npu),
            dma: DmaEngine::new(&cfg.npu),
            pim,
            planner: AdaptivePlanner::new(cfg),
            xfer: cfg.transfer_model(),
            pim_cache: HashMap::new(),
            prog: Program::new(),
            activity: Activity::new(),
            naive_last: Vec::new(),
            naive_last_pim: Vec::new(),
            suspend_naive: false,
        }
    }

    /// The unit map programs are emitted against.
    pub fn unit_map(&self) -> UnitMap {
        self.units
    }

    /// Work-partition factor: column slices / head groups per core over
    /// all cores and devices.
    pub fn partitions(&self) -> u64 {
        u64::from(self.cfg.npu.cores) * u64::from(self.cfg.devices)
    }

    /// Compiles one stage of the model into a program for a single device
    /// (devices execute symmetric programs; PCIe synchronization commands
    /// represent the inter-device exchanges).
    ///
    /// # Panics
    ///
    /// Panics if a generation stage is requested for an encoder-only
    /// (BERT) model.
    pub fn compile(&mut self, stage: &Stage) -> CompiledStage {
        if stage.is_generation() {
            assert!(
                self.model.family == ModelFamily::Gpt,
                "{} has no generation stage",
                self.model.name
            );
        }
        self.reset();
        let cores = self.cfg.npu.cores;
        let mut frontier: Vec<Option<CmdId>> = vec![None; cores as usize];
        for block in 0..self.model.blocks {
            frontier = self.compile_block(stage, frontier);
            let _ = block;
        }
        if self.model.family == ModelFamily::Gpt {
            frontier = self.compile_lm_head(stage, frontier);
        }
        let _ = frontier;
        CompiledStage {
            program: std::mem::take(&mut self.prog),
            activity: self.activity,
            flops: self.model.stage_flops(stage),
        }
    }

    /// Compiles a microbenchmark of one block's four FC layers (plus the
    /// interleaving norms) with a forced mapping — the Figure 12 harness.
    pub fn compile_fc_microbench(&mut self, tokens: u64, mapping: FcMapping) -> CompiledStage {
        self.reset();
        let stage = Stage::Summarization { tokens };
        let ops = self.model.block_ops();
        let part = self.partitions();
        let cores = self.cfg.npu.cores;
        let mut frontier: Vec<Option<CmdId>> = vec![None; cores as usize];
        for _ in 0..self.model.blocks {
            for c in 0..cores {
                let deps: Vec<CmdId> = frontier[c as usize].into_iter().collect();
                let ln = self.vu_cmd(
                    c,
                    VuOp::LayerNorm,
                    tokens * ops.embed_dim(),
                    OpClass::LayerNorm,
                    deps,
                );
                let qkv = self.fc(
                    c,
                    tokens,
                    ops.qkv_fc().column_slice(part),
                    false,
                    mapping,
                    OpClass::FcQkv,
                    vec![ln],
                    self.vu.op(VuOp::LayerNorm, tokens * ops.embed_dim()),
                );
                let proj = self.fc(
                    c,
                    tokens,
                    ops.attn_out_fc().column_slice(part),
                    false,
                    mapping,
                    OpClass::FcAttnProjAdd,
                    vec![qkv],
                    Duration::ZERO,
                );
                let ffn1 = self.fc(
                    c,
                    tokens,
                    ops.ffn1_fc().column_slice(part),
                    true,
                    mapping,
                    OpClass::FfnAdd,
                    vec![proj],
                    Duration::ZERO,
                );
                let ffn2 = self.fc(
                    c,
                    tokens,
                    ops.ffn2_fc().column_slice(part),
                    false,
                    mapping,
                    OpClass::FfnAdd,
                    vec![ffn1],
                    Duration::ZERO,
                );
                frontier[c as usize] = Some(ffn2);
            }
            frontier = self.barrier(stage.batch_tokens(), frontier);
        }
        CompiledStage {
            program: std::mem::take(&mut self.prog),
            activity: self.activity,
            flops: (ops.qkv_fc().gemm_flops(tokens)
                + ops.attn_out_fc().gemm_flops(tokens)
                + ops.ffn1_fc().gemm_flops(tokens)
                + ops.ffn2_fc().gemm_flops(tokens))
                * self.model.blocks,
        }
    }

    // ------------------------------------------------------------------
    // Block structure
    // ------------------------------------------------------------------

    fn compile_block(&mut self, stage: &Stage, frontier: Vec<Option<CmdId>>) -> Vec<Option<CmdId>> {
        let cores = self.cfg.npu.cores;
        let ops = self.model.block_ops();
        let tokens = stage.batch_tokens();
        let part = self.partitions();

        // LayerNorm 1 + multi-head attention per core.
        let mut after_attn: Vec<Option<CmdId>> = vec![None; cores as usize];
        for c in 0..cores {
            let deps: Vec<CmdId> = frontier[c as usize].into_iter().collect();
            let ln1 = self.vu_cmd(
                c,
                VuOp::LayerNorm,
                tokens * ops.embed_dim(),
                OpClass::LayerNorm,
                deps,
            );
            let attn_last = match stage {
                Stage::Summarization { .. } => self.summarization_attention(c, stage, ln1),
                Stage::Generation { .. } => match self.cfg.pas.attention {
                    AttnMapping::MatrixUnit => self.generation_attention_mu(c, stage, ln1),
                    AttnMapping::Pim => self.generation_attention_pim(c, stage, ln1),
                },
            };
            after_attn[c as usize] = Some(attn_last);
        }
        // Sync 1: after multi-head attention.
        let merged = self.barrier(tokens, after_attn);

        // Attention output FC (column-parallel) + residual add.
        let mut after_res1: Vec<Option<CmdId>> = vec![None; cores as usize];
        for c in 0..cores {
            let deps: Vec<CmdId> = merged[c as usize].into_iter().collect();
            let fc = self.fc(
                c,
                tokens,
                ops.attn_out_fc().column_slice(part),
                false,
                self.cfg.pas.fc,
                OpClass::FcAttnProjAdd,
                deps,
                Duration::ZERO,
            );
            let res = self.vu_cmd(
                c,
                VuOp::ResidualAdd,
                tokens * ops.embed_dim().div_ceil(part),
                OpClass::FcAttnProjAdd,
                vec![fc],
            );
            after_res1[c as usize] = Some(res);
        }
        // Sync 2: after the residual addition.
        let merged = self.barrier(tokens, after_res1);

        // LayerNorm 2 + FFN1 (+GELU).
        let mut after_gelu: Vec<Option<CmdId>> = vec![None; cores as usize];
        for c in 0..cores {
            let deps: Vec<CmdId> = merged[c as usize].into_iter().collect();
            let ln2 = self.vu_cmd(
                c,
                VuOp::LayerNorm,
                tokens * ops.embed_dim(),
                OpClass::LayerNorm,
                deps,
            );
            let ln2_time = self.vu.op(VuOp::LayerNorm, tokens * ops.embed_dim());
            let ffn1 = self.fc(
                c,
                tokens,
                ops.ffn1_fc().column_slice(part),
                true,
                self.cfg.pas.fc,
                OpClass::FfnAdd,
                vec![ln2],
                ln2_time,
            );
            after_gelu[c as usize] = Some(ffn1);
        }
        // Sync 3: after GELU.
        let merged = self.barrier(tokens, after_gelu);

        // FFN2 + residual add.
        let mut after_res2: Vec<Option<CmdId>> = vec![None; cores as usize];
        for c in 0..cores {
            let deps: Vec<CmdId> = merged[c as usize].into_iter().collect();
            let fc = self.fc(
                c,
                tokens,
                ops.ffn2_fc().column_slice(part),
                false,
                self.cfg.pas.fc,
                OpClass::FfnAdd,
                deps,
                Duration::ZERO,
            );
            let res = self.vu_cmd(
                c,
                VuOp::ResidualAdd,
                tokens * ops.embed_dim().div_ceil(part),
                OpClass::FfnAdd,
                vec![fc],
            );
            after_res2[c as usize] = Some(res);
        }
        // Sync 4: after the residual addition.
        self.barrier(tokens, after_res2)
    }

    fn compile_lm_head(
        &mut self,
        stage: &Stage,
        frontier: Vec<Option<CmdId>>,
    ) -> Vec<Option<CmdId>> {
        let cores = self.cfg.npu.cores;
        let ops = self.model.block_ops();
        let part = self.partitions();
        let mut last: Vec<Option<CmdId>> = vec![None; cores as usize];
        for c in 0..cores {
            let deps: Vec<CmdId> = frontier[c as usize].into_iter().collect();
            // Final layer norm over the last token, then logits.
            let ln = self.vu_cmd(c, VuOp::LayerNorm, ops.embed_dim(), OpClass::Other, deps);
            // Only the newest token needs logits in both stages.
            let fc = self.fc(
                c,
                1,
                ops.lm_head_fc().column_slice(part),
                false,
                self.cfg.pas.fc,
                OpClass::LmHead,
                vec![ln],
                Duration::ZERO,
            );
            last[c as usize] = Some(fc);
        }
        let _ = stage;
        self.barrier(1, last)
    }

    // ------------------------------------------------------------------
    // Attention schedules (Figure 7)
    // ------------------------------------------------------------------

    /// Figure 7a: summarization. FCs on the matrix unit; intra-head
    /// parallelism and inter-head weight prefetching via the DMA/MU/VU
    /// resource pipeline.
    fn summarization_attention(&mut self, core: u32, stage: &Stage, ln: CmdId) -> CmdId {
        let ops = self.model.block_ops();
        let m = stage.batch_tokens();
        let dh = ops.head_dim();
        let e = ops.embed_dim();
        let heads = self.heads_for_core(core);
        let w_bytes = e * dh * 2;
        let mut last_sv = ln;
        for _h in 0..heads {
            // Key first so its transpose overlaps Q/V generation.
            let wk = self.striped_load(core, w_bytes, OpClass::FcQkv, vec![]);
            let kg = self.mu_gemm(core, m, e, dh, OpClass::FcQkv, vec![wk, ln]);
            let tr = self.onchip(core, m * dh * 2, OpClass::SelfAttention, vec![kg]);
            let wq = self.striped_load(core, w_bytes, OpClass::FcQkv, vec![]);
            let qg = self.mu_gemm(core, m, e, dh, OpClass::FcQkv, vec![wq, ln]);
            let wv = self.striped_load(core, w_bytes, OpClass::FcQkv, vec![]);
            let vg = self.mu_gemm(core, m, e, dh, OpClass::FcQkv, vec![wv, ln]);
            // Scaling is fused into the matrix unit's output stage.
            let qkt = self.mu_gemm(core, m, dh, m, OpClass::SelfAttention, vec![qg, tr]);
            // Keys and values stored to the KV cache during computation.
            let _kv = self.local_store(core, 2 * m * dh * 2, OpClass::SelfAttention, vec![kg, vg]);
            let sm = self.vu_cmd(
                core,
                VuOp::MaskedSoftmax,
                m * m,
                OpClass::SelfAttention,
                vec![qkt],
            );
            // Values move to the weight scratchpad during softmax.
            let vmv = self.onchip(core, m * dh * 2, OpClass::SelfAttention, vec![vg]);
            last_sv = self.mu_gemm(core, m, m, dh, OpClass::SelfAttention, vec![sm, vmv]);
        }
        last_sv
    }

    /// Figure 7c: generation with QKᵀ/SV on the matrix unit.
    fn generation_attention_mu(&mut self, core: u32, stage: &Stage, ln: CmdId) -> CmdId {
        let ops = self.model.block_ops();
        let p = match stage {
            Stage::Generation { past_tokens } => *past_tokens,
            Stage::Summarization { .. } => unreachable!("generation schedule"),
        };
        let dh = ops.head_dim();
        let e = ops.embed_dim();
        let heads = self.heads_for_core(core);
        let qkv_slice = FcShape::new(e, dh);
        let mut last_sv = ln;
        for _h in 0..heads {
            // Kpre prefetch: no dependency, so it schedules behind the
            // previous head's SV on the load DMA (step 4 of Fig. 7c).
            let kpre = self.local_load(core, p * dh * 2, OpClass::SelfAttention, vec![]);
            // Key generation first (PIM), then concat on the VU overlaps
            // query generation in PIM (step 1).
            let kgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            let cat = self.vu_cmd(
                core,
                VuOp::Concat,
                (p + 1) * dh,
                OpClass::SelfAttention,
                vec![kpre, kgen],
            );
            let tr = self.onchip(core, (p + 1) * dh * 2, OpClass::SelfAttention, vec![cat]);
            let qgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            // QK^T on the matrix unit in parallel with value generation
            // (step 2).
            let qkt = self.mu_gemm(core, 1, dh, p + 1, OpClass::SelfAttention, vec![qgen, tr]);
            let vgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            let sm = self.vu_cmd(
                core,
                VuOp::MaskedSoftmax,
                p + 1,
                OpClass::SelfAttention,
                vec![qkt],
            );
            // KV store + Vcat load during softmax (step 3).
            let _kv = self.local_store(core, 2 * dh * 2, OpClass::SelfAttention, vec![kgen, vgen]);
            let vcat = self.local_load(core, (p + 1) * dh * 2, OpClass::SelfAttention, vec![vgen]);
            last_sv = self.mu_gemm(core, 1, p + 1, dh, OpClass::SelfAttention, vec![sm, vcat]);
        }
        last_sv
    }

    /// Figure 7b: generation with QKᵀ/SV on PIM. Avoids Kpre/Vcat loads
    /// but serializes nearly everything on the PIM group and wastes row
    /// width (head dim 64 of 1024 elements).
    fn generation_attention_pim(&mut self, core: u32, stage: &Stage, ln: CmdId) -> CmdId {
        let ops = self.model.block_ops();
        let p = match stage {
            Stage::Generation { past_tokens } => *past_tokens,
            Stage::Summarization { .. } => unreachable!("generation schedule"),
        };
        let dh = ops.head_dim();
        let e = ops.embed_dim();
        let heads = self.heads_for_core(core);
        let qkv_slice = FcShape::new(e, dh);
        let mut last_sv = ln;
        for _h in 0..heads {
            let kgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            let qgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            let vgen = self.fc(
                core,
                1,
                qkv_slice,
                false,
                self.cfg.pas.fc,
                OpClass::FcQkv,
                vec![ln],
                Duration::ZERO,
            );
            // The new key/value must land in the PIM-resident cache before
            // the products run.
            let kst = self.local_store(core, dh * 2, OpClass::SelfAttention, vec![kgen]);
            let vst = self.local_store(core, dh * 2, OpClass::SelfAttention, vec![vgen]);
            let qkt = self.pim_gemv(
                core,
                GemvShape::new(p + 1, dh),
                OpClass::SelfAttention,
                vec![qgen, kst],
            );
            let sm = self.vu_cmd(
                core,
                VuOp::MaskedSoftmax,
                p + 1,
                OpClass::SelfAttention,
                vec![qkt],
            );
            last_sv = self.pim_gemv(
                core,
                GemvShape::new(dh, p + 1),
                OpClass::SelfAttention,
                vec![sm, vst],
            );
        }
        last_sv
    }

    // ------------------------------------------------------------------
    // FC emission
    // ------------------------------------------------------------------

    /// Emits one FC (already sliced for this core) on the unit chosen by
    /// `mapping`, fusing GELU when PIM executes it (otherwise a VU GELU
    /// command follows).
    #[allow(clippy::too_many_arguments)]
    fn fc(
        &mut self,
        core: u32,
        tokens: u64,
        fc: FcShape,
        gelu: bool,
        mapping: FcMapping,
        class: OpClass,
        deps: Vec<CmdId>,
        prefetch: Duration,
    ) -> CmdId {
        let unit = match mapping {
            FcMapping::MatrixUnit => FcUnit::MatrixUnit,
            FcMapping::Pim if self.pim.is_some() => FcUnit::Pim,
            FcMapping::Pim => FcUnit::MatrixUnit,
            FcMapping::Adaptive => {
                let pim = self
                    .pim
                    .is_some()
                    .then(|| self.pim_cost(AdaptivePlanner::pim_shape(tokens, fc)).total);
                self.planner.choose(tokens, fc, prefetch, pim)
            }
        };
        match unit {
            FcUnit::Pim => {
                // In the partitioned system only the duplicated fraction of
                // FC parameters is PIM-resident (Section 6.2: the GPT-2
                // 2.5B FCs exceed the 4 GB PIM partition); the remainder
                // executes on the matrix unit with weight streaming.
                let dup = self.duplicated_fraction();
                let pim_rows = ((fc.out_dim as f64 * dup).round() as u64).min(fc.out_dim);
                if pim_rows == 0 {
                    return self.fc_mu_with_gelu(core, tokens, fc, gelu, class, deps);
                }
                let shape = GemvShape::new(pim_rows, fc.in_dim)
                    .with_batch(tokens as u32)
                    .with_gelu(gelu);
                let pim_cmd = self.pim_gemv(core, shape, class, deps.clone());
                if pim_rows < fc.out_dim {
                    let rest = FcShape::new(fc.in_dim, fc.out_dim - pim_rows);
                    let mu_cmd = self.fc_mu_with_gelu(core, tokens, rest, gelu, class, deps);
                    // The FC completes when both halves do.
                    let join = Command::new(self.units.vu(core), Duration::ZERO, class.tag())
                        .after(pim_cmd)
                        .after(mu_cmd);
                    self.emit(core, join)
                } else {
                    pim_cmd
                }
            }
            FcUnit::MatrixUnit => self.fc_mu_with_gelu(core, tokens, fc, gelu, class, deps),
        }
    }

    /// Fraction of FC parameters duplicated into the PIM partition (1.0
    /// for unified/NPU-only memory).
    fn duplicated_fraction(&self) -> f64 {
        if self.cfg.memory != crate::MemoryPolicy::Partitioned {
            return 1.0;
        }
        let fc_bytes =
            self.model.fc_param_count() * 2 + self.model.block_ops().lm_head_fc().weight_bytes();
        let cap = self.cfg.weight_capacity_bytes();
        (cap as f64 / fc_bytes as f64).min(1.0)
    }

    fn fc_mu_with_gelu(
        &mut self,
        core: u32,
        tokens: u64,
        fc: FcShape,
        gelu: bool,
        class: OpClass,
        deps: Vec<CmdId>,
    ) -> CmdId {
        let last = self.fc_on_mu(core, tokens, fc, class, deps);
        if gelu {
            self.vu_cmd(core, VuOp::Gelu, tokens * fc.out_dim, class, vec![last])
        } else {
            last
        }
    }

    /// FC on the matrix unit: weight chunks streamed via striped DMA,
    /// double-buffered against GEMM compute.
    ///
    /// The load/compute pipeline inside one FC is a hardware property
    /// (double-buffered weight scratchpad), so it survives even under the
    /// naive PAS schedule — naive only serializes *between* operations.
    fn fc_on_mu(
        &mut self,
        core: u32,
        tokens: u64,
        fc: FcShape,
        class: OpClass,
        deps: Vec<CmdId>,
    ) -> CmdId {
        let gate: Vec<CmdId> = if self.cfg.pas.schedule == Schedule::Naive {
            // Naive scheduling: may not overlap a preceding PIM command.
            self.naive_last_pim[core as usize].into_iter().collect()
        } else {
            Vec::new()
        };
        let suspended = self.suspend_naive;
        self.suspend_naive = true;
        let chunks = self.planner.chunk_count(fc);
        let cols = fc.out_dim.div_ceil(chunks);
        let mut prev_gemm: Option<CmdId> = None;
        let mut prev_load: Option<CmdId> = None;
        let mut remaining = fc.out_dim;
        let mut last = 0;
        while remaining > 0 {
            let n = cols.min(remaining);
            remaining -= n;
            let mut load_deps = gate.clone();
            load_deps.extend(prev_load);
            let load = self.striped_load(core, fc.in_dim * n * 2, class, load_deps);
            prev_load = Some(load);
            let mut gemm_deps = vec![load];
            gemm_deps.extend(prev_gemm);
            if prev_gemm.is_none() {
                gemm_deps.extend(deps.iter().copied());
                gemm_deps.extend(gate.iter().copied());
            }
            last = self.mu_gemm(core, tokens, fc.in_dim, n, class, gemm_deps);
            prev_gemm = Some(last);
        }
        self.suspend_naive = suspended;
        self.naive_last[core as usize] = Some(last);
        last
    }

    // ------------------------------------------------------------------
    // Command emission primitives
    // ------------------------------------------------------------------

    fn heads_for_core(&self, core: u32) -> u64 {
        let part = self.partitions();
        let total = self.model.heads;
        let per = total.div_ceil(part);
        // Last slices may be short.
        let device_core = u64::from(core);
        let start = device_core * per;
        per.min(total.saturating_sub(start)).max(1)
    }

    fn reset(&mut self) {
        self.prog = Program::new();
        self.activity = Activity::new();
        self.naive_last = vec![None; self.cfg.npu.cores as usize];
        self.naive_last_pim = vec![None; self.cfg.npu.cores as usize];
        self.suspend_naive = false;
    }

    /// Pushes a non-PIM command, applying naive-schedule chaining.
    fn emit(&mut self, core: u32, cmd: Command) -> CmdId {
        self.emit_inner(core, cmd, false)
    }

    /// Pushes a command. The naive schedule of Figure 13 "fails to observe
    /// the parallelizability between PIM computations and other
    /// computations": a PIM command may not start before any earlier
    /// command of its core, and no later command may start before it —
    /// while NPU-internal dataflow (DMA/MU/VU pipelining) keeps its
    /// hardware overlap.
    fn emit_inner(&mut self, core: u32, mut cmd: Command, is_pim: bool) -> CmdId {
        let c = core as usize;
        if self.cfg.pas.schedule == Schedule::Naive && !self.suspend_naive {
            let gate = if is_pim {
                self.naive_last[c]
            } else {
                self.naive_last_pim[c]
            };
            if let Some(prev) = gate {
                cmd = cmd.after(prev);
            }
        }
        let id = self.prog.push(cmd);
        if !self.suspend_naive {
            self.naive_last[c] = Some(id);
            if is_pim {
                self.naive_last_pim[c] = Some(id);
            }
        }
        id
    }

    fn striped_load(&mut self, core: u32, bytes: u64, class: OpClass, deps: Vec<CmdId>) -> CmdId {
        self.activity.dram_read_bytes += bytes;
        let dur = self.dma.setup() + self.xfer.data_time(bytes, self.cfg.npu_channels());
        let cmd = Command::new(self.units.dma_in(core), dur, class.tag())
            .after_all(deps)
            .holding_all(self.units.striped_dma_holds());
        self.emit(core, cmd)
    }

    fn local_load(&mut self, core: u32, bytes: u64, class: OpClass, deps: Vec<CmdId>) -> CmdId {
        self.activity.dram_read_bytes += bytes;
        let ch = self.local_channels();
        let dur = self.dma.setup() + self.xfer.data_time(bytes, ch);
        let cmd = Command::new(self.units.dma_in(core), dur, class.tag())
            .after_all(deps)
            .holding_all(self.units.local_dma_holds(core));
        self.emit(core, cmd)
    }

    fn local_store(&mut self, core: u32, bytes: u64, class: OpClass, deps: Vec<CmdId>) -> CmdId {
        self.activity.dram_write_bytes += bytes;
        let ch = self.local_channels();
        let dur = self.dma.setup() + self.xfer.data_time(bytes, ch);
        let cmd = Command::new(self.units.dma_out(core), dur, class.tag())
            .after_all(deps)
            .holding_all(self.units.local_dma_holds(core));
        self.emit(core, cmd)
    }

    fn local_channels(&self) -> u32 {
        match self.cfg.memory {
            // Head-wise placement: each core's KV cache and PIM I/O live on
            // its own channel group and transfer in parallel with other
            // cores'.
            crate::MemoryPolicy::Unified => self.cfg.pim_channels_per_group().max(1),
            // Partitioned / plain-DRAM systems place per-head KV data on
            // a per-core share of the NPU channels.
            crate::MemoryPolicy::Partitioned | crate::MemoryPolicy::NpuMemOnly => {
                (self.cfg.npu_channels() / self.cfg.npu.cores).max(1)
            }
        }
    }

    fn onchip(&mut self, core: u32, bytes: u64, class: OpClass, deps: Vec<CmdId>) -> CmdId {
        self.activity.onchip_bytes += bytes;
        // The streaming transpose occupies both DMAs (Section 4.2.1), so
        // it blocks off-chip traffic from this core but not PIM.
        let dur = self.dma.onchip_transpose(bytes);
        let cmd = Command::new(self.units.dma_out(core), dur, class.tag())
            .after_all(deps)
            .holding(self.units.dma_in(core));
        self.emit(core, cmd)
    }

    fn mu_gemm(
        &mut self,
        core: u32,
        m: u64,
        k: u64,
        n: u64,
        class: OpClass,
        deps: Vec<CmdId>,
    ) -> CmdId {
        self.activity.mu_flops += 2 * m * k * n;
        let dur = self.mu.gemm(m, k, n);
        let cmd = Command::new(self.units.mu(core), dur, class.tag()).after_all(deps);
        self.emit(core, cmd)
    }

    fn vu_cmd(
        &mut self,
        core: u32,
        op: VuOp,
        elems: u64,
        class: OpClass,
        deps: Vec<CmdId>,
    ) -> CmdId {
        self.activity.vu_ops += elems;
        let dur = self.vu.op(op, elems);
        let cmd = Command::new(self.units.vu(core), dur, class.tag()).after_all(deps);
        self.emit(core, cmd)
    }

    /// The cost of one GEMV, simulated on the first request for its
    /// shape and read from `pim_cache` after that.
    fn pim_cost(&mut self, shape: GemvShape) -> PimOpCost {
        let pim = self.pim.as_ref().expect("PIM GEMV without PIM compute");
        *self
            .pim_cache
            .entry(shape)
            .or_insert_with(|| pim.gemv(shape))
    }

    fn pim_gemv(&mut self, core: u32, shape: GemvShape, class: OpClass, deps: Vec<CmdId>) -> CmdId {
        let cost = self.pim_cost(shape);
        self.activity.pim_internal_bytes += cost.internal_bytes;
        self.activity.pim_activations += cost.activations;
        self.activity.pim_gb_bytes += cost.gb_bytes;
        self.activity.pim_drain_bytes += cost.drain_bytes;
        let duration = cost.total + self.cfg.pim_macro_overhead;
        let cmd = Command::new(
            self.units.pim(self.units.group_of_core(core)),
            duration,
            class.tag(),
        )
        .after_all(deps)
        .holding_all(
            self.units
                .pim_holds(core)
                .into_iter()
                .filter(|&u| u != self.units.pim(self.units.group_of_core(core))),
        );
        self.emit_inner(core, cmd, true)
    }

    /// Emits a full synchronization: every core's next command depends on
    /// every core's last command; multi-device configurations add a PCIe
    /// exchange of the activations.
    fn barrier(&mut self, tokens: u64, last: Vec<Option<CmdId>>) -> Vec<Option<CmdId>> {
        let cores = self.cfg.npu.cores;
        let all: Vec<CmdId> = last.iter().filter_map(|&c| c).collect();
        let mut gate: Vec<CmdId> = all.clone();
        if self.cfg.devices > 1 {
            let d = u64::from(self.cfg.devices);
            let bytes = tokens * self.model.embed_dim * 2 * 2 * (d - 1) / d;
            let hops = u64::from(32 - (self.cfg.devices - 1).leading_zeros()); // ceil(log2 d)
            let dur = self.cfg.pcie_latency * hops.max(1)
                + Duration::from_ns_f64(bytes as f64 / self.cfg.pcie_gbps);
            let comm =
                Command::new(self.units.pcie(), dur, OpClass::Sync.tag()).after_all(all.clone());
            let comm_id = self.prog.push(comm);
            gate = vec![comm_id];
        }
        let mut out: Vec<Option<CmdId>> = Vec::with_capacity(cores as usize);
        for c in 0..cores {
            let cmd = Command::new(
                self.units.vu(c),
                self.cfg.npu.dispatch_overhead,
                OpClass::Sync.tag(),
            )
            .after_all(gate.iter().copied());
            out.push(Some(self.emit(c, cmd)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ianus_npu::scheduler::Engine;

    fn run(cfg: &SystemConfig, model: &ModelConfig, stage: &Stage) -> ianus_sim::Time {
        let mut c = Compiler::new(cfg, model);
        let compiled = c.compile(stage);
        let mut engine = Engine::new(c.unit_map().unit_count(), cfg.npu.dispatch_overhead);
        engine.run(&compiled.program).makespan()
    }

    #[test]
    fn generation_step_faster_on_ianus_than_npu_mem() {
        let model = ModelConfig::gpt2_m();
        let stage = Stage::Generation { past_tokens: 128 };
        let ianus = run(&SystemConfig::ianus(), &model, &stage);
        let npu_mem = run(&SystemConfig::npu_mem(), &model, &stage);
        let speedup = npu_mem.as_ns_f64() / ianus.as_ns_f64();
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    #[test]
    fn summarization_similar_on_both_systems() {
        // PIM operates as standard GDDR6 during summarization (except the
        // LM head), so IANUS ≈ NPU-MEM there.
        let model = ModelConfig::gpt2_m();
        let stage = Stage::Summarization { tokens: 128 };
        let ianus = run(&SystemConfig::ianus(), &model, &stage);
        let npu_mem = run(&SystemConfig::npu_mem(), &model, &stage);
        let ratio = npu_mem.as_ns_f64() / ianus.as_ns_f64();
        assert!(ratio > 0.8 && ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn overlap_beats_naive() {
        let model = ModelConfig::gpt2_l();
        let stage = Stage::Generation { past_tokens: 256 };
        let sched = run(&SystemConfig::ianus(), &model, &stage);
        let naive_cfg = SystemConfig::ianus().with_pas(crate::pas::PasPolicy {
            schedule: Schedule::Naive,
            ..crate::pas::PasPolicy::ianus()
        });
        let naive = run(&naive_cfg, &model, &stage);
        assert!(naive > sched, "naive {naive:?} vs scheduled {sched:?}");
    }

    #[test]
    fn bert_has_no_generation() {
        let model = ModelConfig::bert_b();
        let cfg = SystemConfig::ianus();
        let mut c = Compiler::new(&cfg, &model);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.compile(&Stage::Generation { past_tokens: 4 })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn activity_accumulates_pim_work_in_generation() {
        let cfg = SystemConfig::ianus();
        let model = ModelConfig::gpt2_m();
        let mut c = Compiler::new(&cfg, &model);
        let compiled = c.compile(&Stage::Generation { past_tokens: 64 });
        assert!(compiled.activity.pim_internal_bytes > 0);
        // All block FC weights stream through PIM once per token.
        let fc_bytes = model.fc_param_count() * 2;
        assert!(compiled.activity.pim_internal_bytes as f64 > 0.8 * fc_bytes as f64);
    }

    #[test]
    fn multi_device_emits_pcie_commands() {
        let model = ModelConfig::gpt2_m();
        let single = {
            let cfg = SystemConfig::ianus();
            let mut c = Compiler::new(&cfg, &model);
            c.compile(&Stage::Generation { past_tokens: 32 })
                .program
                .len()
        };
        let cfg = SystemConfig::ianus().with_devices(4);
        let mut c = Compiler::new(&cfg, &model);
        let compiled = c.compile(&Stage::Generation { past_tokens: 32 });
        // One PCIe exchange per barrier: 4 per block + 1 after LM head.
        let pcie = c.unit_map().pcie();
        let pcie_cmds = compiled
            .program
            .commands()
            .iter()
            .filter(|cmd| cmd.unit == pcie)
            .count();
        assert_eq!(pcie_cmds as u64, 4 * model.blocks + 1);
        // Fewer heads per core: the per-device program shrinks.
        assert!(compiled.program.len() < single);
    }

    #[test]
    fn partitioned_splits_oversized_fc_between_pim_and_mu() {
        // GPT-2 2.5B FCs exceed the 4 GB partition, so generation FCs
        // must issue both PIM and matrix-unit commands.
        let model = ModelConfig::gpt2_2_5b();
        let cfg = SystemConfig::partitioned();
        let mut c = Compiler::new(&cfg, &model);
        let compiled = c.compile(&Stage::Generation { past_tokens: 64 });
        let units = c.unit_map();
        let pim_units: Vec<_> = (0..units.groups()).map(|g| units.pim(g)).collect();
        let pim_cmds = compiled
            .program
            .commands()
            .iter()
            .filter(|cmd| pim_units.contains(&cmd.unit))
            .count();
        let mu_fc_cmds = compiled
            .program
            .commands()
            .iter()
            .filter(|cmd| cmd.unit == units.mu(0) && cmd.tag == OpClass::FfnAdd.tag())
            .count();
        assert!(pim_cmds > 0, "no PIM commands in partitioned mode");
        assert!(
            mu_fc_cmds > 0,
            "oversized FCs must spill onto the matrix unit"
        );
        // The unified system keeps those FCs fully on PIM.
        let ucfg = SystemConfig::ianus();
        let mut uc = Compiler::new(&ucfg, &model);
        let ucompiled = uc.compile(&Stage::Generation { past_tokens: 64 });
        let uunits = uc.unit_map();
        let u_mu_fc = ucompiled
            .program
            .commands()
            .iter()
            .filter(|cmd| cmd.unit == uunits.mu(0) && cmd.tag == OpClass::FfnAdd.tag())
            .count();
        assert_eq!(u_mu_fc, 0);
    }

    #[test]
    fn pim_attention_mapping_moves_products_to_pim() {
        let model = ModelConfig::gpt2_m();
        let count_attn = |attn: AttnMapping, unit_is_mu: bool| -> usize {
            let cfg = SystemConfig::ianus().with_pas(crate::pas::PasPolicy {
                attention: attn,
                ..crate::pas::PasPolicy::ianus()
            });
            let mut c = Compiler::new(&cfg, &model);
            let compiled = c.compile(&Stage::Generation { past_tokens: 64 });
            let units = c.unit_map();
            compiled
                .program
                .commands()
                .iter()
                .filter(|cmd| {
                    cmd.tag == OpClass::SelfAttention.tag()
                        && if unit_is_mu {
                            (0..units.cores()).any(|core| cmd.unit == units.mu(core))
                        } else {
                            (0..units.groups()).any(|g| cmd.unit == units.pim(g))
                        }
                })
                .count()
        };
        assert!(count_attn(AttnMapping::MatrixUnit, true) > 0);
        assert_eq!(count_attn(AttnMapping::MatrixUnit, false), 0);
        assert!(count_attn(AttnMapping::Pim, false) > 0);
        assert_eq!(count_attn(AttnMapping::Pim, true), 0);
    }

    #[test]
    fn odd_core_counts_compile_and_run() {
        // GPT-2 L has 20 heads; 3 cores do not divide them evenly.
        let model = ModelConfig::gpt2_l();
        let cfg = SystemConfig::ianus().with_cores(3);
        let t = run(&cfg, &model, &Stage::Generation { past_tokens: 64 });
        let t4 = run(
            &SystemConfig::ianus(),
            &model,
            &Stage::Generation { past_tokens: 64 },
        );
        assert!(t > t4, "3 cores must be slower than 4");
    }

    #[test]
    fn microbench_scales_with_blocks() {
        let cfg = SystemConfig::ianus();
        let m = ModelConfig::gpt2_m(); // 24 blocks
        let l = ModelConfig::gpt2_xl(); // 48 blocks
        let mut cm = Compiler::new(&cfg, &m);
        let mut cl = Compiler::new(&cfg, &l);
        let pm = cm.compile_fc_microbench(8, FcMapping::Pim).program.len();
        let pl = cl.compile_fc_microbench(8, FcMapping::Pim).program.len();
        assert!(pl > pm);
    }

    #[test]
    fn summarization_streams_weights_over_dma() {
        let cfg = SystemConfig::ianus();
        let model = ModelConfig::gpt2_m();
        let mut c = Compiler::new(&cfg, &model);
        let compiled = c.compile(&Stage::Summarization { tokens: 128 });
        let fc_bytes = model.fc_param_count() * 2;
        let read = compiled.activity.dram_read_bytes;
        assert!(
            read as f64 > 0.9 * fc_bytes as f64 && (read as f64) < 1.5 * fc_bytes as f64,
            "read {read} vs fc {fc_bytes}"
        );
    }
}
