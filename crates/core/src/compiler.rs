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
//!
//! Programs are stored compactly, and [`Program::expanded`] gives back
//! every command. A stage stores transformer blocks 0-2 and repeats block
//! 2 for the rest ([`Program::repeat_block`]). Inside a block, every phase
//! between two barriers (layer norm and attention heads, each FC with its
//! residual add, each barrier's syncs, and the LM head) runs the same
//! schedule on every core's own units, so it stores core 0's commands and
//! mirrors them onto cores 1 to C−1 ([`Program::mirror_block`]) wherever
//! core 1's commands check out as core 0's on the next core's units.
//! Core 0 stores two of its heads and repeats the second.

use crate::adaptive::{AdaptivePlanner, FcUnit};
use crate::energy::Activity;
use crate::memo::Memo;
use crate::pas::{AttnMapping, FcMapping, Schedule};
use crate::report::OpClass;
use crate::{SystemConfig, UnitMap};
use ianus_dram::TransferModel;
use ianus_model::{FcShape, ModelConfig, ModelFamily, Stage};
use ianus_npu::scheduler::{CmdId, Engine, ExecutionReport, Lanes, Program, UnitId};
use ianus_npu::{DmaEngine, MatrixUnit, VectorUnit, VuOp};
use ianus_pim::{GemvShape, PimModel, PimOpCost};
use ianus_sim::Duration;

/// Blocks a compiled stage stores before the rest repeat as copies: block
/// 0 follows no block, so block 2 is the first that can repeat the block
/// before it.
const STORED_BLOCKS: usize = 3;

/// Attention heads a core stores per block before the rest repeat as
/// copies: every head reads the core's layer norm and nothing of the
/// heads before it, so head 1 can repeat head 0.
const STORED_HEADS: usize = 2;

/// Each core's last command of one block phase, and whether cores 1 to
/// C−1 mirror core 0's commands ([`Compiler::emit_cores`]).
struct Phase {
    last: Vec<Option<CmdId>>,
    mirrored: bool,
}

/// A compiled stage: the command program plus its activity counters and
/// FLOP total.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: SystemConfig,
    model: ModelConfig,
    units: UnitMap,
    mu: MatrixUnit,
    vu: VectorUnit,
    dma: DmaEngine,
    pim: Option<PimModel>,
    planner: AdaptivePlanner,
    xfer: TransferModel,
    /// Every GEMV this compiler has priced, for both PIM commands and
    /// Algorithm 1's PIM estimates; lives as long as the compiler.
    pim_cache: Memo<GemvShape, PimOpCost>,
    /// Algorithm 1's unit for every FC slice this compiler has planned
    /// under the adaptive mapping, by token count, slice and prefetch;
    /// lives as long as the compiler.
    fc_units: Memo<(u64, FcShape, Duration), FcUnit>,
    /// Scratch dependency list reused by multi-command emitters (the
    /// weight-chunk pipeline, barriers), so emission allocates nothing.
    dep_buf: Vec<CmdId>,
    // --- per-compilation state ---
    prog: Program,
    activity: Activity,
    naive_last: Vec<Option<CmdId>>,
    /// Last macro PIM command per core (naive-schedule bookkeeping).
    naive_last_pim: Vec<Option<CmdId>>,
    /// Set while emitting the interior of one operation whose internal
    /// pipelining is a hardware property (naive chaining suspended).
    suspend_naive: bool,
    /// First command of every generation attention head stored (copies
    /// of a head or of a block re-time with it).
    head_starts: Vec<CmdId>,
    /// Commands per generation attention head (all heads emit alike).
    head_len: usize,
    /// The unit map taking each core's units to the next core's
    /// ([`UnitMap::core_shift`]), if every core has as many heads, so
    /// that a block phase can mirror core 0's commands onto the others.
    core_shift: Option<Vec<UnitId>>,
}

impl Compiler {
    /// Creates a compiler for `model` on `cfg`.
    pub fn new(cfg: &SystemConfig, model: &ModelConfig) -> Self {
        let pim = if cfg.pim_channels() > 0 {
            Some(PimModel::new(cfg.pim_group_config()))
        } else {
            None
        };
        let units = UnitMap::new(cfg);
        let mut compiler = Compiler {
            cfg: *cfg,
            model: *model,
            units,
            mu: MatrixUnit::new(&cfg.npu),
            vu: VectorUnit::new(&cfg.npu),
            dma: DmaEngine::new(&cfg.npu),
            pim,
            planner: AdaptivePlanner::new(cfg),
            xfer: cfg.transfer_model(),
            pim_cache: Memo::default(),
            fc_units: Memo::default(),
            dep_buf: Vec::new(),
            prog: Program::new(),
            activity: Activity::new(),
            naive_last: Vec::new(),
            naive_last_pim: Vec::new(),
            suspend_naive: false,
            head_starts: Vec::new(),
            head_len: 0,
            core_shift: None,
        };
        let heads = compiler.heads_for_core(0);
        if cfg.npu.cores > 1 && (1..cfg.npu.cores).all(|c| compiler.heads_for_core(c) == heads) {
            compiler.core_shift = Some(units.core_shift());
        }
        compiler
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
        let frontier = self.emit_blocks(|this, frontier| this.compile_block(stage, frontier));
        if self.model.family == ModelFamily::Gpt {
            self.compile_lm_head(&frontier);
        }
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
        let ops = self.model.block_ops();
        self.emit_blocks(|this, frontier| this.fc_microbench_block(tokens, mapping, frontier));
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

    /// Emits the model's blocks through `block`, which emits one block
    /// after `frontier` and returns the next frontier; returns the last
    /// block's frontier.
    fn emit_blocks(
        &mut self,
        block: impl FnMut(&mut Self, &[Option<CmdId>]) -> Vec<Option<CmdId>>,
    ) -> Vec<Option<CmdId>> {
        let frontier = vec![None; self.cfg.npu.cores as usize];
        let blocks = self.model.blocks as usize;
        self.emit_repeated(blocks, STORED_BLOCKS, 0, frontier, block)
    }

    /// Emits the attention heads of `core` after its layer norm `ln`
    /// through `head`, which emits one head and returns its last command;
    /// returns the last head's.
    fn emit_heads(
        &mut self,
        core: u32,
        ln: CmdId,
        mut head: impl FnMut(&mut Self) -> CmdId,
    ) -> CmdId {
        let (heads, anchor) = (self.heads_for_core(core) as usize, self.prog.next_id());
        let last = self.emit_repeated(heads, STORED_HEADS, anchor, vec![Some(ln)], |this, _| {
            vec![Some(head(this))]
        });
        last[0].expect("a head emits commands")
    }

    /// Emits `count` units through `unit`, which emits one unit after the
    /// frontier the unit before returned (`frontier` for the first) and
    /// returns the next frontier; returns the last unit's frontier. Unit
    /// `stored - 1` (counting from 0) is the first that can repeat the
    /// unit before it, and every later unit emits the same commands as the
    /// one before shifted by one unit, except for dependencies on commands
    /// before `anchor`, which all units share. So once unit `stored - 1`
    /// is checked to repeat the unit before it, the rest are
    /// [`Program::repeat_block`] copies of it, which add its activity
    /// each. Should the check fail, every unit is emitted.
    fn emit_repeated(
        &mut self,
        count: usize,
        stored: usize,
        anchor: CmdId,
        mut frontier: Vec<Option<CmdId>>,
        mut unit: impl FnMut(&mut Self, &[Option<CmdId>]) -> Vec<Option<CmdId>>,
    ) -> Vec<Option<CmdId>> {
        for emitted in 1..=count {
            let (start, before) = (self.prog.next_id(), self.activity);
            frontier = unit(self, &frontier);
            let end = self.prog.next_id();
            if emitted == stored && self.prog.repeats_previous(start..end, anchor) {
                let times = count - emitted;
                self.prog.repeat_block(start..end, anchor, times);
                let one = self.activity.zip(&before, |after, before| after - before);
                self.activity = self.activity.zip(&one, |a, b| a + times as u64 * b);
                // Ids the compiler holds into the unit move to its last copy.
                let shift = times * (end - start);
                let held = frontier
                    .iter_mut()
                    .chain(&mut self.naive_last)
                    .chain(&mut self.naive_last_pim);
                for id in held.flatten().filter(|id| **id >= start) {
                    *id += shift;
                }
                break;
            }
        }
        frontier
    }

    /// Emits one phase of a block on every core through `phase`, which
    /// emits core `c`'s part and returns its last command. Every core runs
    /// the same schedule on units of its own (the paper's head- and
    /// column-parallel mapping), so if `mirror` is set, core 0's part is
    /// stored and core 1's emitted only to check that it mirrors core 0's
    /// ([`Program::mirror_block`] under [`UnitMap::core_shift`]): then
    /// cores 1 to C−1 are mirrored copies of core 0's part, each adding
    /// its activity, and the copies' heads are not recorded for re-timing
    /// (core 0's re-time them). Where the check fails, such as where a
    /// part holds a resource every core shares (a striped stream's memory
    /// bus), every core is emitted.
    fn emit_cores(
        &mut self,
        mirror: bool,
        mut phase: impl FnMut(&mut Self, u32) -> CmdId,
    ) -> Phase {
        let cores = self.cfg.npu.cores;
        let (start, before) = (self.prog.next_id(), self.activity);
        let mut last = Vec::with_capacity(cores as usize);
        last.push(Some(phase(self, 0)));
        let (len, heads) = (self.prog.next_id() - start, self.head_starts.len());
        if mirror && self.core_shift.is_some() && cores > 1 {
            let one = self.activity.zip(&before, |after, before| after - before);
            last.push(Some(phase(self, 1)));
            let two = self.activity.zip(&before, |after, before| after - before);
            let copies = cores as usize;
            if two == one.zip(&one, |a, b| a + b)
                && (self.core_shift.as_deref())
                    .is_some_and(|sigma| self.prog.mirror_block(start..start + len, sigma, copies))
            {
                self.activity = before.zip(&one, |b, one| b + u64::from(cores) * one);
                self.head_starts.truncate(heads);
                // Ids the compiler holds into core 0's part move to each
                // core's copy.
                let region = start..start + len;
                for c in 2..copies {
                    last.push(last[0].map(|id| id + c * len));
                    for held in [&mut self.naive_last, &mut self.naive_last_pim] {
                        if let Some(id) = held[0].filter(|id| region.contains(id)) {
                            held[c] = Some(id + c * len);
                        }
                    }
                }
                return Phase {
                    last,
                    mirrored: true,
                };
            }
        }
        for c in last.len() as u32..cores {
            last.push(Some(phase(self, c)));
        }
        Phase {
            last,
            mirrored: false,
        }
    }

    /// One block of the FC microbenchmark after `frontier`; returns the
    /// next frontier.
    fn fc_microbench_block(
        &mut self,
        tokens: u64,
        mapping: FcMapping,
        frontier: &[Option<CmdId>],
    ) -> Vec<Option<CmdId>> {
        let ops = self.model.block_ops();
        let part = self.partitions();
        let last = self.emit_cores(true, |this, c| {
            let ln = this.vu_cmd(
                c,
                VuOp::LayerNorm,
                tokens * ops.embed_dim(),
                OpClass::LayerNorm,
                frontier[c as usize].as_slice(),
            );
            let qkv = this.fc(
                c,
                tokens,
                ops.qkv_fc().column_slice(part),
                false,
                mapping,
                OpClass::FcQkv,
                &[ln],
                this.vu.op(VuOp::LayerNorm, tokens * ops.embed_dim()),
            );
            let proj = this.fc(
                c,
                tokens,
                ops.attn_out_fc().column_slice(part),
                false,
                mapping,
                OpClass::FcAttnProjAdd,
                &[qkv],
                Duration::ZERO,
            );
            let ffn1 = this.fc(
                c,
                tokens,
                ops.ffn1_fc().column_slice(part),
                true,
                mapping,
                OpClass::FfnAdd,
                &[proj],
                Duration::ZERO,
            );
            this.fc(
                c,
                tokens,
                ops.ffn2_fc().column_slice(part),
                false,
                mapping,
                OpClass::FfnAdd,
                &[ffn1],
                Duration::ZERO,
            )
        });
        self.barrier(tokens, &last)
    }

    fn compile_block(&mut self, stage: &Stage, frontier: &[Option<CmdId>]) -> Vec<Option<CmdId>> {
        let ops = self.model.block_ops();
        let tokens = stage.batch_tokens();
        let part = self.partitions();

        // LayerNorm 1 + multi-head attention per core.
        let after_attn = self.emit_cores(true, |this, c| {
            let ln1 = this.vu_cmd(
                c,
                VuOp::LayerNorm,
                tokens * ops.embed_dim(),
                OpClass::LayerNorm,
                frontier[c as usize].as_slice(),
            );
            match stage {
                Stage::Summarization { .. } => this.summarization_attention(c, stage, ln1),
                Stage::Generation { past_tokens } => {
                    this.generation_attention(c, *past_tokens, ln1)
                }
            }
        });
        // Sync 1: after multi-head attention.
        let merged = self.barrier(tokens, &after_attn);

        // Attention output FC (column-parallel) + residual add.
        let after_res1 = self.emit_cores(true, |this, c| {
            let fc = this.fc(
                c,
                tokens,
                ops.attn_out_fc().column_slice(part),
                false,
                this.cfg.pas.fc,
                OpClass::FcAttnProjAdd,
                merged[c as usize].as_slice(),
                Duration::ZERO,
            );
            this.vu_cmd(
                c,
                VuOp::ResidualAdd,
                tokens * ops.embed_dim().div_ceil(part),
                OpClass::FcAttnProjAdd,
                &[fc],
            )
        });
        // Sync 2: after the residual addition.
        let merged = self.barrier(tokens, &after_res1);

        // LayerNorm 2 + FFN1 (+GELU).
        let after_gelu = self.emit_cores(true, |this, c| {
            let ln2 = this.vu_cmd(
                c,
                VuOp::LayerNorm,
                tokens * ops.embed_dim(),
                OpClass::LayerNorm,
                merged[c as usize].as_slice(),
            );
            let ln2_time = this.vu.op(VuOp::LayerNorm, tokens * ops.embed_dim());
            this.fc(
                c,
                tokens,
                ops.ffn1_fc().column_slice(part),
                true,
                this.cfg.pas.fc,
                OpClass::FfnAdd,
                &[ln2],
                ln2_time,
            )
        });
        // Sync 3: after GELU.
        let merged = self.barrier(tokens, &after_gelu);

        // FFN2 + residual add.
        let after_res2 = self.emit_cores(true, |this, c| {
            let fc = this.fc(
                c,
                tokens,
                ops.ffn2_fc().column_slice(part),
                false,
                this.cfg.pas.fc,
                OpClass::FfnAdd,
                merged[c as usize].as_slice(),
                Duration::ZERO,
            );
            this.vu_cmd(
                c,
                VuOp::ResidualAdd,
                tokens * ops.embed_dim().div_ceil(part),
                OpClass::FfnAdd,
                &[fc],
            )
        });
        // Sync 4: after the residual addition.
        self.barrier(tokens, &after_res2)
    }

    fn compile_lm_head(&mut self, frontier: &[Option<CmdId>]) {
        let ops = self.model.block_ops();
        let part = self.partitions();
        let last = self.emit_cores(true, |this, c| {
            // Final layer norm over the last token, then logits.
            let ln = this.vu_cmd(
                c,
                VuOp::LayerNorm,
                ops.embed_dim(),
                OpClass::Other,
                frontier[c as usize].as_slice(),
            );
            // Only the newest token needs logits in both stages.
            this.fc(
                c,
                1,
                ops.lm_head_fc().column_slice(part),
                false,
                this.cfg.pas.fc,
                OpClass::LmHead,
                &[ln],
                Duration::ZERO,
            )
        });
        self.barrier(1, &last);
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
        let w_bytes = e * dh * 2;
        self.emit_heads(core, ln, |this| {
            // Key first so its transpose overlaps Q/V generation.
            let wk = this.striped_load(core, w_bytes, OpClass::FcQkv, &[]);
            let kg = this.mu_gemm(core, m, e, dh, OpClass::FcQkv, &[wk, ln]);
            let tr = this.onchip(core, m * dh * 2, OpClass::SelfAttention, &[kg]);
            let wq = this.striped_load(core, w_bytes, OpClass::FcQkv, &[]);
            let qg = this.mu_gemm(core, m, e, dh, OpClass::FcQkv, &[wq, ln]);
            let wv = this.striped_load(core, w_bytes, OpClass::FcQkv, &[]);
            let vg = this.mu_gemm(core, m, e, dh, OpClass::FcQkv, &[wv, ln]);
            // Scaling is fused into the matrix unit's output stage.
            let qkt = this.mu_gemm(core, m, dh, m, OpClass::SelfAttention, &[qg, tr]);
            // Keys and values stored to the KV cache during computation.
            let _kv = this.local_store(core, 2 * m * dh * 2, OpClass::SelfAttention, &[kg, vg]);
            let sm = this.vu_cmd(
                core,
                VuOp::MaskedSoftmax,
                m * m,
                OpClass::SelfAttention,
                &[qkt],
            );
            // Values move to the weight scratchpad during softmax.
            let vmv = this.onchip(core, m * dh * 2, OpClass::SelfAttention, &[vg]);
            this.mu_gemm(core, m, m, dh, OpClass::SelfAttention, &[sm, vmv])
        })
    }

    /// Generation attention of one core: its heads, one block each, all
    /// depending on the layer norm `ln`. Each stored block's first command
    /// is recorded in `head_starts` so a [`GenerationTemplate`] can
    /// re-time it, and its copies with it.
    fn generation_attention(&mut self, core: u32, past: u64, ln: CmdId) -> CmdId {
        self.emit_heads(core, ln, |this| {
            let start = this.prog.next_id();
            this.head_starts.push(start);
            let last = this.generation_head(core, past, ln);
            this.head_len = this.prog.next_id() - start;
            last
        })
    }

    /// One attention head of a generation step over a `past`-token KV
    /// cache. Every command of a generation program that depends on
    /// `past` is emitted here, so re-timing runs this emitter alone.
    fn generation_head(&mut self, core: u32, past: u64, ln: CmdId) -> CmdId {
        match self.cfg.pas.attention {
            AttnMapping::Pim if self.pim.is_some() => self.generation_head_pim(core, past, ln),
            // Like `FcMapping::Pim`, PIM attention falls back to the
            // matrix unit on a system without PIM compute.
            _ => self.generation_head_mu(core, past, ln),
        }
    }

    /// Figure 7c: one head of generation with QKᵀ/SV on the matrix unit.
    fn generation_head_mu(&mut self, core: u32, p: u64, ln: CmdId) -> CmdId {
        let ops = self.model.block_ops();
        let dh = ops.head_dim();
        let qkv_slice = FcShape::new(ops.embed_dim(), dh);
        // Kpre prefetch: no dependency, so it schedules behind the
        // previous head's SV on the load DMA (step 4 of Fig. 7c).
        let kpre = self.local_load(core, p * dh * 2, OpClass::SelfAttention, &[]);
        // Key generation first (PIM), then concat on the VU overlaps
        // query generation in PIM (step 1).
        let kgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        let cat = self.vu_cmd(
            core,
            VuOp::Concat,
            (p + 1) * dh,
            OpClass::SelfAttention,
            &[kpre, kgen],
        );
        let tr = self.onchip(core, (p + 1) * dh * 2, OpClass::SelfAttention, &[cat]);
        let qgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        // QK^T on the matrix unit in parallel with value generation
        // (step 2).
        let qkt = self.mu_gemm(core, 1, dh, p + 1, OpClass::SelfAttention, &[qgen, tr]);
        let vgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        let sm = self.vu_cmd(
            core,
            VuOp::MaskedSoftmax,
            p + 1,
            OpClass::SelfAttention,
            &[qkt],
        );
        // KV store + Vcat load during softmax (step 3).
        let _kv = self.local_store(core, 2 * dh * 2, OpClass::SelfAttention, &[kgen, vgen]);
        let vcat = self.local_load(core, (p + 1) * dh * 2, OpClass::SelfAttention, &[vgen]);
        self.mu_gemm(core, 1, p + 1, dh, OpClass::SelfAttention, &[sm, vcat])
    }

    /// Figure 7b: one head of generation with QKᵀ/SV on PIM. Avoids
    /// Kpre/Vcat loads but serializes nearly everything on the PIM group
    /// and wastes row width (head dim 64 of 1024 elements).
    fn generation_head_pim(&mut self, core: u32, p: u64, ln: CmdId) -> CmdId {
        let ops = self.model.block_ops();
        let dh = ops.head_dim();
        let qkv_slice = FcShape::new(ops.embed_dim(), dh);
        let kgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        let qgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        let vgen = self.fc(
            core,
            1,
            qkv_slice,
            false,
            self.cfg.pas.fc,
            OpClass::FcQkv,
            &[ln],
            Duration::ZERO,
        );
        // The new key/value must land in the PIM-resident cache before
        // the products run.
        let kst = self.local_store(core, dh * 2, OpClass::SelfAttention, &[kgen]);
        let vst = self.local_store(core, dh * 2, OpClass::SelfAttention, &[vgen]);
        let qkt = self.pim_gemv(
            core,
            GemvShape::new(p + 1, dh),
            OpClass::SelfAttention,
            &[qgen, kst],
        );
        let sm = self.vu_cmd(
            core,
            VuOp::MaskedSoftmax,
            p + 1,
            OpClass::SelfAttention,
            &[qkt],
        );
        self.pim_gemv(
            core,
            GemvShape::new(dh, p + 1),
            OpClass::SelfAttention,
            &[sm, vst],
        )
    }

    /// One generation head at `past` emitted alone into an empty
    /// program, with the activity it adds. Its dependencies point into
    /// no real program: only durations and activity are read.
    fn lone_generation_head(&mut self, past: u64) -> (&Program, Activity) {
        self.reset();
        self.generation_head(0, past, 0);
        (&self.prog, self.activity)
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
        deps: &[CmdId],
        prefetch: Duration,
    ) -> CmdId {
        let unit = match mapping {
            FcMapping::MatrixUnit => FcUnit::MatrixUnit,
            FcMapping::Pim if self.pim.is_some() => FcUnit::Pim,
            FcMapping::Pim => FcUnit::MatrixUnit,
            FcMapping::Adaptive => match self.fc_units.get(&(tokens, fc, prefetch)) {
                Some(&unit) => unit,
                None => {
                    let pim = self
                        .pim
                        .is_some()
                        .then(|| self.pim_cost(AdaptivePlanner::pim_shape(tokens, fc)).total);
                    let unit = self.planner.choose(tokens, fc, prefetch, pim);
                    self.fc_units.insert((tokens, fc, prefetch), unit);
                    unit
                }
            },
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
                let pim_cmd = self.pim_gemv(core, shape, class, deps);
                if pim_rows < fc.out_dim {
                    let rest = FcShape::new(fc.in_dim, fc.out_dim - pim_rows);
                    let mu_cmd = self.fc_mu_with_gelu(core, tokens, rest, gelu, class, deps);
                    // The FC completes when both halves do.
                    let vu = self.units.vu(core);
                    self.emit(core, vu, Duration::ZERO, class, &[pim_cmd, mu_cmd], None)
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
        deps: &[CmdId],
    ) -> CmdId {
        let last = self.fc_on_mu(core, tokens, fc, class, deps);
        if gelu {
            self.vu_cmd(core, VuOp::Gelu, tokens * fc.out_dim, class, &[last])
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
        deps: &[CmdId],
    ) -> CmdId {
        // Naive scheduling: may not overlap a preceding PIM command.
        let gate = if self.cfg.pas.schedule == Schedule::Naive {
            self.naive_last_pim[core as usize]
        } else {
            None
        };
        let suspended = self.suspend_naive;
        self.suspend_naive = true;
        let chunks = self.planner.chunk_count(fc);
        let cols = fc.out_dim.div_ceil(chunks);
        let mut buf = std::mem::take(&mut self.dep_buf);
        let mut prev_gemm: Option<CmdId> = None;
        let mut prev_load: Option<CmdId> = None;
        let mut remaining = fc.out_dim;
        let mut last = 0;
        while remaining > 0 {
            let n = cols.min(remaining);
            remaining -= n;
            buf.clear();
            buf.extend(gate);
            buf.extend(prev_load);
            let load = self.striped_load(core, fc.in_dim * n * 2, class, &buf);
            prev_load = Some(load);
            buf.clear();
            buf.push(load);
            buf.extend(prev_gemm);
            if prev_gemm.is_none() {
                buf.extend_from_slice(deps);
                buf.extend(gate);
            }
            last = self.mu_gemm(core, tokens, fc.in_dim, n, class, &buf);
            prev_gemm = Some(last);
        }
        self.dep_buf = buf;
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
        let cores = self.cfg.npu.cores as usize;
        self.prog.clear();
        self.activity = Activity::new();
        for last in [&mut self.naive_last, &mut self.naive_last_pim] {
            last.clear();
            last.resize(cores, None);
        }
        self.suspend_naive = false;
        self.head_starts.clear();
    }

    /// Pushes a non-PIM command, applying naive-schedule chaining.
    fn emit(
        &mut self,
        core: u32,
        unit: UnitId,
        duration: Duration,
        class: OpClass,
        deps: &[CmdId],
        shared: impl IntoIterator<Item = UnitId>,
    ) -> CmdId {
        self.emit_inner(core, unit, duration, class, deps, shared, false)
    }

    /// Pushes a command. The naive schedule of Figure 13 "fails to observe
    /// the parallelizability between PIM computations and other
    /// computations": a PIM command may not start before any earlier
    /// command of its core, and no later command may start before it —
    /// while NPU-internal dataflow (DMA/MU/VU pipelining) keeps its
    /// hardware overlap.
    #[allow(clippy::too_many_arguments)]
    fn emit_inner(
        &mut self,
        core: u32,
        unit: UnitId,
        duration: Duration,
        class: OpClass,
        deps: &[CmdId],
        shared: impl IntoIterator<Item = UnitId>,
        is_pim: bool,
    ) -> CmdId {
        let c = core as usize;
        let gate = if self.cfg.pas.schedule == Schedule::Naive && !self.suspend_naive {
            if is_pim {
                self.naive_last[c]
            } else {
                self.naive_last_pim[c]
            }
        } else {
            None
        };
        let id = self.prog.emit(
            unit,
            duration,
            class.tag(),
            deps.iter().copied().chain(gate),
            shared,
        );
        if !self.suspend_naive {
            self.naive_last[c] = Some(id);
            if is_pim {
                self.naive_last_pim[c] = Some(id);
            }
        }
        id
    }

    fn striped_load(&mut self, core: u32, bytes: u64, class: OpClass, deps: &[CmdId]) -> CmdId {
        self.activity.dram_read_bytes += bytes;
        let dur = self.dma.setup() + self.xfer.data_time(bytes, self.cfg.npu_channels());
        let unit = self.units.dma_in(core);
        self.emit(core, unit, dur, class, deps, self.units.striped_dma_holds())
    }

    fn local_load(&mut self, core: u32, bytes: u64, class: OpClass, deps: &[CmdId]) -> CmdId {
        self.activity.dram_read_bytes += bytes;
        let dur = self.dma.setup() + self.xfer.data_time(bytes, self.local_channels());
        let unit = self.units.dma_in(core);
        self.emit(core, unit, dur, class, deps, self.units.channel_token(core))
    }

    fn local_store(&mut self, core: u32, bytes: u64, class: OpClass, deps: &[CmdId]) -> CmdId {
        self.activity.dram_write_bytes += bytes;
        let dur = self.dma.setup() + self.xfer.data_time(bytes, self.local_channels());
        let unit = self.units.dma_out(core);
        self.emit(core, unit, dur, class, deps, self.units.channel_token(core))
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

    fn onchip(&mut self, core: u32, bytes: u64, class: OpClass, deps: &[CmdId]) -> CmdId {
        self.activity.onchip_bytes += bytes;
        // The streaming transpose occupies both DMAs (Section 4.2.1), so
        // it blocks off-chip traffic from this core but not PIM.
        let dur = self.dma.onchip_transpose(bytes);
        let (unit, held) = (self.units.dma_out(core), self.units.dma_in(core));
        self.emit(core, unit, dur, class, deps, Some(held))
    }

    fn mu_gemm(
        &mut self,
        core: u32,
        m: u64,
        k: u64,
        n: u64,
        class: OpClass,
        deps: &[CmdId],
    ) -> CmdId {
        self.activity.mu_flops += 2 * m * k * n;
        let dur = self.mu.gemm(m, k, n);
        let unit = self.units.mu(core);
        self.emit(core, unit, dur, class, deps, None)
    }

    fn vu_cmd(&mut self, core: u32, op: VuOp, elems: u64, class: OpClass, deps: &[CmdId]) -> CmdId {
        self.activity.vu_ops += elems;
        let dur = self.vu.op(op, elems);
        let unit = self.units.vu(core);
        self.emit(core, unit, dur, class, deps, None)
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

    fn pim_gemv(&mut self, core: u32, shape: GemvShape, class: OpClass, deps: &[CmdId]) -> CmdId {
        let cost = self.pim_cost(shape);
        self.activity.pim_internal_bytes += cost.internal_bytes;
        self.activity.pim_activations += cost.activations;
        self.activity.pim_gb_bytes += cost.gb_bytes;
        self.activity.pim_drain_bytes += cost.drain_bytes;
        let duration = cost.total + self.cfg.pim_macro_overhead;
        // The command runs on its group's PIM pipeline and, in the
        // unified system, also holds that group's channel token.
        let unit = self.units.pim(self.units.group_of_core(core));
        let token = self.units.channel_token(core);
        self.emit_inner(core, unit, duration, class, deps, token, true)
    }

    /// Emits a full synchronization after `phase`: every core's next
    /// command depends on every core's last command; multi-device
    /// configurations add a PCIe exchange of the activations. Returns each
    /// core's sync. The syncs are mirrored ([`emit_cores`]) only after a
    /// mirrored phase: after cores that ran apart, their vector units
    /// free at different times, and mirrored syncs would be timed one by
    /// one anyway.
    ///
    /// [`emit_cores`]: Self::emit_cores
    fn barrier(&mut self, tokens: u64, phase: &Phase) -> Vec<Option<CmdId>> {
        let mut gate = std::mem::take(&mut self.dep_buf);
        gate.clear();
        gate.extend(phase.last.iter().flatten());
        if self.cfg.devices > 1 {
            let d = u64::from(self.cfg.devices);
            let bytes = tokens * self.model.embed_dim * 2 * 2 * (d - 1) / d;
            let hops = u64::from(32 - (self.cfg.devices - 1).leading_zeros()); // ceil(log2 d)
            let dur = self.cfg.pcie_latency * hops.max(1)
                + Duration::from_ns_f64(bytes as f64 / self.cfg.pcie_gbps);
            let comm = self.prog.emit(
                self.units.pcie(),
                dur,
                OpClass::Sync.tag(),
                gate.iter().copied(),
                None,
            );
            gate.clear();
            gate.push(comm);
        }
        let dispatch = self.cfg.npu.dispatch_overhead;
        let syncs = self.emit_cores(phase.mirrored, |this, c| {
            let vu = this.units.vu(c);
            this.emit(c, vu, dispatch, OpClass::Sync, &gate, None)
        });
        self.dep_buf = gate;
        syncs.last
    }
}

/// A generation stage compiled once and re-timed to other past lengths.
///
/// Each generation step runs the same PAS-mapped command stream over a KV
/// cache one token longer (Figures 7b/7c): at every past length a model's
/// generation program on one configuration has the same commands, units,
/// tags, dependencies and resource holds. Only the attention heads depend
/// on the past, and every head block of a program emits the same
/// durations and activity. [`lanes`](Self::lanes) therefore re-emits one
/// head per past through the compiler's own per-head emitter and copies
/// its durations into that past's lane of every stored head block: core
/// 0's, since the other cores mirror core 0's attention phase. That
/// re-times the mirrored cores, the copies of a repeated head and of a
/// repeated transformer block with it, leaving the program as compiled. Each past's activity
/// is the activity outside the heads plus heads × one head's — exact, as
/// activity counts are integers. Every lane reports what
/// [`Compiler::compile`] at its past does ([`matches_fresh_compile`]),
/// which the equivalence test checks over every configuration and
/// [`IanusSystem`](crate::IanusSystem) asserts in debug builds.
#[derive(Debug, Clone)]
pub(crate) struct GenerationTemplate {
    compiler: Compiler,
    /// The stage's program, timed for the past it was compiled at.
    program: Program,
    /// First command of every stored head block of `program` (core 0's
    /// where the cores are mirrored).
    head_starts: Vec<CmdId>,
    /// Commands per head block.
    head_len: usize,
    /// Head blocks of the stage, copies included.
    heads: u64,
    /// Activity of the stage outside its head blocks.
    base: Activity,
}

impl GenerationTemplate {
    /// Compiles the generation stage of `model` on `cfg` at
    /// `past_tokens`.
    pub(crate) fn new(cfg: &SystemConfig, model: &ModelConfig, past_tokens: u64) -> Self {
        let mut compiler = Compiler::new(cfg, model);
        let mut stage = compiler.compile(&Stage::Generation { past_tokens });
        stage.program.shrink_to_fit();
        let head_starts = std::mem::take(&mut compiler.head_starts);
        let heads = (0..cfg.npu.cores)
            .map(|core| compiler.heads_for_core(core))
            .sum::<u64>()
            * model.blocks;
        let head_len = compiler.head_len;
        let (head, activity) = compiler.lone_generation_head(past_tokens);
        assert_eq!(head.len(), head_len, "a generation head changed length");
        GenerationTemplate {
            compiler,
            program: stage.program,
            head_starts,
            head_len,
            heads,
            base: stage.activity.zip(&activity, |s, h| s - heads * h),
        }
    }

    /// The unit map the stage's program runs against.
    pub(crate) fn unit_map(&self) -> UnitMap {
        self.compiler.unit_map()
    }

    /// Re-times the stage to each of `pasts`, one lane each: lane `i`
    /// times `pasts[i]`, and every lane after the last past times that
    /// past again. Returns the lanes and each past's activity and FLOPs.
    /// `recycled`, if given, is the duration table of lanes this template
    /// returned before ([`Lanes::into_durations`]): every lane of every
    /// head block is re-timed, and the rest of the program keeps its
    /// durations, so the table is used as it is.
    ///
    /// # Panics
    ///
    /// Panics if `pasts` is empty or has more than `L` pasts, or if a
    /// re-emitted head is not as long as the recorded head blocks.
    pub(crate) fn lanes<const L: usize>(
        &mut self,
        pasts: &[u64],
        recycled: Option<Vec<[Duration; L]>>,
    ) -> (Lanes<'_, L>, Vec<(Activity, u64)>) {
        assert!(
            (1..=L).contains(&pasts.len()),
            "{} pasts for {L} lanes",
            pasts.len()
        );
        let mut stages = Vec::with_capacity(pasts.len());
        let mut head = vec![[Duration::ZERO; L]; self.head_len];
        for lane in 0..L {
            let Some(&past_tokens) = pasts.get(lane) else {
                head.iter_mut().for_each(|d| d[lane] = d[lane - 1]);
                continue;
            };
            let (program, activity) = self.compiler.lone_generation_head(past_tokens);
            assert_eq!(
                program.len(),
                self.head_len,
                "a generation head changed length"
            );
            for (d, cmd) in head.iter_mut().zip(program.commands()) {
                d[lane] = cmd.duration;
            }
            stages.push(self.timed(past_tokens, &activity));
        }
        let mut lanes = match recycled {
            Some(durations) => Lanes::recycle(&self.program, durations),
            None => Lanes::new(&self.program),
        };
        for &start in &self.head_starts {
            lanes.set_durations(start, &head);
        }
        (lanes, stages)
    }

    /// The stage's activity and FLOPs at `past_tokens`, where one head
    /// block has activity `head`.
    fn timed(&self, past_tokens: u64, head: &Activity) -> (Activity, u64) {
        let heads = self.heads;
        let activity = self.base.zip(head, |b, h| b + heads * h);
        let flops = (self.compiler.model).stage_flops(&Stage::Generation { past_tokens });
        (activity, flops)
    }
}

/// Whether a generation step at `past_tokens` of `model` on `cfg` that
/// executed as `exec`, with `activity` and `flops`, matches a fresh
/// compile of that step: the same schedule, work count, activity and
/// FLOPs.
pub(crate) fn matches_fresh_compile(
    cfg: &SystemConfig,
    model: &ModelConfig,
    past_tokens: u64,
    exec: &ExecutionReport,
    activity: &Activity,
    flops: u64,
) -> bool {
    let mut compiler = Compiler::new(cfg, model);
    let fresh = compiler.compile(&Stage::Generation { past_tokens });
    let units = compiler.unit_map().unit_count();
    let run = Engine::new(units, cfg.npu.dispatch_overhead).run(&fresh.program);
    (exec, exec.scheduled(), activity, flops)
        == (&run, run.scheduled(), &fresh.activity, fresh.flops)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
            .expanded()
            .commands()
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
            .filter(|cmd| pim_units.contains(&cmd.unit))
            .count();
        let mu_fc_cmds = compiled
            .program
            .commands()
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
    fn compiled_program_sizes_are_pinned() {
        // (commands, dependency entries, shared-resource entries), pinned
        // so an emission refactor cannot drop or duplicate commands,
        // dependencies or resource holds.
        let naive = SystemConfig::ianus().with_pas(crate::pas::PasPolicy {
            schedule: Schedule::Naive,
            ..crate::pas::PasPolicy::ianus()
        });
        let pim_attention = SystemConfig::ianus().with_pas(crate::pas::PasPolicy {
            attention: AttnMapping::Pim,
            ..crate::pas::PasPolicy::ianus()
        });
        let gen = Stage::Generation { past_tokens: 300 };
        let cases = [
            (
                SystemConfig::ianus(),
                ModelConfig::gpt2_m(),
                gen,
                (5_292, 7_604, 2_980),
            ),
            (
                SystemConfig::ianus(),
                ModelConfig::gpt2_xl(),
                gen,
                (14_796, 20_564, 8_644),
            ),
            (
                SystemConfig::ianus(),
                ModelConfig::gpt2_xl(),
                Stage::Summarization { tokens: 128 },
                (19_020, 25_940, 29_380),
            ),
            (
                SystemConfig::ianus(),
                ModelConfig::gpt2_2_5b(),
                Stage::Summarization { tokens: 512 },
                (20_964, 29_180, 34_564),
            ),
            (naive, ModelConfig::gpt2_xl(), gen, (14_796, 35_352, 8_644)),
            (
                pim_attention,
                ModelConfig::gpt2_xl(),
                gen,
                (11_340, 15_956, 8_644),
            ),
            (
                SystemConfig::partitioned(),
                ModelConfig::gpt2_2_5b(),
                Stage::Summarization { tokens: 512 },
                (21_008, 29_244, 8_444),
            ),
            (
                SystemConfig::ianus().with_devices(4),
                ModelConfig::gpt2_xl(),
                gen,
                (6_541, 8_268, 3_268),
            ),
        ];
        for (cfg, model, stage, expected) in cases {
            let program = Compiler::new(&cfg, &model)
                .compile(&stage)
                .program
                .expanded();
            let deps: usize = program.commands().map(|c| c.deps.len()).sum();
            let shared: usize = program.commands().map(|c| c.shared.len()).sum();
            assert_eq!(
                (program.len(), deps, shared),
                expected,
                "{} {stage:?}",
                model.name
            );
        }
    }

    /// The configurations the equivalence tests cover: the IANUS default
    /// and one of each ablation.
    pub(crate) fn equivalence_configs() -> [(&'static str, SystemConfig); 7] {
        let pas = |schedule, attention| {
            SystemConfig::ianus().with_pas(crate::pas::PasPolicy {
                schedule,
                attention,
                ..crate::pas::PasPolicy::ianus()
            })
        };
        [
            ("IANUS", SystemConfig::ianus()),
            ("naive PAS", pas(Schedule::Naive, AttnMapping::MatrixUnit)),
            ("PIM attention", pas(Schedule::Overlapped, AttnMapping::Pim)),
            ("partitioned", SystemConfig::partitioned()),
            ("NPU-MEM", SystemConfig::npu_mem()),
            ("4 devices", SystemConfig::ianus().with_devices(4)),
            ("3 cores", SystemConfig::ianus().with_cores(3)),
        ]
    }

    #[test]
    fn generation_lanes_match_fresh_compiles() {
        let configs = equivalence_configs();
        let pasts = [0, 1, 63, 64, 127, 128, 511, 512, 1023];
        let descending: Vec<u64> = pasts.iter().rev().copied().collect();
        for (label, cfg) in &configs {
            for model in &ModelConfig::gpt2_family() {
                let mut template = GenerationTemplate::new(cfg, model, 300);
                // The template's program has a fresh compile's commands,
                // durations aside.
                let fresh =
                    Compiler::new(cfg, model).compile(&Stage::Generation { past_tokens: 0 });
                let shape = |p: &Program| -> Vec<_> {
                    p.commands()
                        .map(|c| (c.id, c.unit, c.tag, c.deps.to_vec(), c.shared.to_vec()))
                        .collect()
                };
                assert_eq!(template.program.len(), fresh.program.len(), "{label}");
                assert_eq!(shape(&template.program), shape(&fresh.program), "{label}");
                let units = template.unit_map().unit_count();
                let mut recycled = None;
                for group in pasts.chunks(8).chain(descending.chunks(8)) {
                    let (lanes, stages) = template.lanes::<8>(group, recycled);
                    let schedule = Engine::new(units, cfg.npu.dispatch_overhead).run_lanes(&lanes);
                    for (lane, (&past, (activity, flops))) in group.iter().zip(stages).enumerate() {
                        let exec = schedule.report(lane);
                        assert_eq!(exec.scheduled(), schedule.scheduled(lane));
                        assert!(
                            matches_fresh_compile(cfg, model, past, &exec, &activity, flops),
                            "{label} {} past {past}",
                            model.name
                        );
                    }
                    recycled = Some(lanes.into_durations());
                }
            }
        }
    }

    #[test]
    fn block_extrapolation_matches_full_schedule() {
        let configs = equivalence_configs();
        let summarization = [1, 128, 512].map(|tokens| Stage::Summarization { tokens });
        let generation = [0, 1, 128, 1023].map(|past_tokens| Stage::Generation { past_tokens });
        let gpt_stages: Vec<Stage> = summarization.iter().chain(&generation).copied().collect();
        let models: Vec<(ModelConfig, &[Stage])> = ModelConfig::gpt2_family()
            .into_iter()
            .map(|m| (m, &gpt_stages[..]))
            .chain([(ModelConfig::bert_b(), &summarization[..])])
            .collect();
        // Every configuration's compiled stages reach steady state. The FC
        // microbench need not: on a partitioned GPT-2 2.5B its weight
        // prefetches have no dependencies and drift ahead of the FCs at a
        // rate of their own, so its copies are scheduled one by one.
        let check = |case: String, cfg: &SystemConfig, c: &Compiler, stage: &CompiledStage| {
            let mut engine = Engine::new(c.unit_map().unit_count(), cfg.npu.dispatch_overhead);
            let compact = engine.run(&stage.program);
            let expanded = stage.program.expanded();
            let full = engine.run(&expanded);
            assert_eq!(compact, full, "{case}");
            assert_eq!(full.scheduled(), expanded.len(), "{case}");
            compact.scheduled() < full.scheduled()
        };
        for (label, cfg) in &configs {
            for &(model, stages) in &models {
                for stage in stages {
                    let mut c = Compiler::new(cfg, &model);
                    let compiled = c.compile(stage);
                    let case = format!("{label} {} {stage:?}", model.name);
                    assert!(check(case, cfg, &c, &compiled), "no block repeated");
                }
                let mut c = Compiler::new(cfg, &model);
                let compiled = c.compile_fc_microbench(8, FcMapping::Pim);
                check(
                    format!("{label} {} FC microbench", model.name),
                    cfg,
                    &c,
                    &compiled,
                );
            }
        }
    }

    /// FNV-1a over every command's unit, duration, tag, dependencies and
    /// held resources, in id order.
    fn program_hash(program: &Program) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |value: u64| {
            for byte in value.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for cmd in program.commands() {
            feed(cmd.unit as u64);
            feed(cmd.duration.as_ps());
            feed(cmd.tag as u64);
            feed(cmd.deps.len() as u64);
            cmd.deps.iter().for_each(|&d| feed(d as u64));
            feed(cmd.shared.len() as u64);
            cmd.shared.iter().for_each(|&s| feed(s as u64));
        }
        hash
    }

    #[test]
    fn expanded_programs_are_pinned() {
        // Hashes of programs emitted block by block, taken before blocks
        // were stored once: a compact program's expansion must reproduce
        // full emission command for command.
        let [ianus, naive, pim_attention, partitioned, _, four_devices, _] =
            equivalence_configs().map(|(_, cfg)| cfg);
        let gen = Some(Stage::Generation { past_tokens: 300 });
        let xl = ModelConfig::gpt2_xl();
        let cases = [
            (ianus, xl, gen, 14_796, 0x510e_199d_bf30_fc2d),
            (naive, xl, gen, 14_796, 0x8ef7_708f_6a04_b655),
            (pim_attention, xl, gen, 11_340, 0x07af_4ea8_4336_5eef),
            (four_devices, xl, gen, 6_541, 0x7f97_ddc9_ba45_f9fc),
            (
                ianus,
                ModelConfig::gpt2_2_5b(),
                Some(Stage::Summarization { tokens: 512 }),
                20_964,
                0x64a3_b293_55ac_fbc5,
            ),
            // The FC microbench (`None`), whose copies never settle.
            (
                partitioned,
                ModelConfig::gpt2_2_5b(),
                None,
                4_104,
                0x3dfa_a215_e244_b5c8,
            ),
        ];
        for (cfg, model, stage, len, hash) in cases {
            let mut c = Compiler::new(&cfg, &model);
            let program = match stage {
                Some(stage) => c.compile(&stage).program,
                None => c.compile_fc_microbench(8, FcMapping::Pim).program,
            };
            let full = program.expanded();
            let case = format!("{} {stage:?}", model.name);
            assert_eq!((program.len(), full.len()), (len, len), "{case}");
            assert_eq!(program_hash(&full), hash, "{case}");
        }
    }

    #[test]
    fn steady_state_schedules_three_blocks() {
        // GPT-2 XL generation: 48 blocks of 308 commands, then a
        // 12-command LM head. Every phase of a block, and of the LM head,
        // runs core 0's commands mirrored on cores 1-3, so a block stores
        // 77 commands of core 0 and the LM head 3. Core 0 runs six
        // 11-command heads: heads 0-1 are stored and heads 2-5 are copies
        // of head 1. Blocks 0-2 are stored and blocks 3-47 are copies of
        // block 2. Every core sees core 0's inputs, heads 0 and 1 and
        // blocks 1 and 2 already finish one constant shift apart, so every
        // copy is written in closed form: the engine schedules the stored
        // commands alone (408 before cores were mirrored).
        let cfg = SystemConfig::ianus();
        let model = ModelConfig::gpt2_xl();
        let mut c = Compiler::new(&cfg, &model);
        let program = c.compile(&Stage::Generation { past_tokens: 300 }).program;
        assert_eq!(program.len(), 48 * 308 + 12);
        let stored = program.commands().count();
        assert_eq!(stored, 3 * (308 / 4 - 4 * 11) + 12 / 4);
        let mut engine = Engine::new(c.unit_map().unit_count(), cfg.npu.dispatch_overhead);
        assert_eq!(engine.run(&program).scheduled(), stored);
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
