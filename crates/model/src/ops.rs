//! Per-block operator shapes shared by all platform models.

use crate::{ModelConfig, Stage};

/// Shape of one FC layer's weights: `in_dim × out_dim` (BF16).
///
/// # Examples
///
/// ```
/// use ianus_model::FcShape;
/// let fc = FcShape::new(1536, 6144);
/// assert_eq!(fc.weight_bytes(), 1536 * 6144 * 2);
/// assert_eq!(fc.gemm_flops(512), 2 * 512 * 1536 * 6144);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcShape {
    /// Input (reduction) dimension.
    pub in_dim: u64,
    /// Output dimension.
    pub out_dim: u64,
}

impl FcShape {
    /// Creates an FC shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: u64, out_dim: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate FC shape");
        FcShape { in_dim, out_dim }
    }

    /// BF16 weight bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.in_dim * self.out_dim * 2
    }

    /// FLOPs for `tokens` input rows.
    pub fn gemm_flops(&self, tokens: u64) -> u64 {
        2 * tokens * self.in_dim * self.out_dim
    }

    /// Restricts the output dimension to a `1/parts` column slice
    /// (column-wise intra-layer partitioning across cores/devices).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or does not divide cleanly enough to
    /// leave a non-empty slice.
    pub fn column_slice(&self, parts: u64) -> FcShape {
        assert!(parts > 0, "parts must be positive");
        FcShape::new(self.in_dim, self.out_dim.div_ceil(parts))
    }
}

/// Operator shape inventory of one transformer block plus the task head.
///
/// # Examples
///
/// ```
/// use ianus_model::{ModelConfig, BlockOps};
/// let ops = ModelConfig::gpt2_xl().block_ops();
/// assert_eq!(ops.qkv_fc().out_dim, 3 * 1536);
/// assert_eq!(ops.ffn1_fc().out_dim, 6144);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BlockOps {
    embed_dim: u64,
    attn_dim: u64,
    head_dim: u64,
    heads: u64,
    ffn_dim: u64,
    vocab: u64,
}

impl BlockOps {
    /// Builds the inventory for a model.
    pub fn new(cfg: &ModelConfig) -> Self {
        BlockOps {
            embed_dim: cfg.embed_dim,
            attn_dim: cfg.attn_dim(),
            head_dim: cfg.head_dim,
            heads: cfg.heads,
            ffn_dim: cfg.ffn_dim(),
            vocab: cfg.vocab,
        }
    }

    /// Fused Q, K, V projection.
    pub fn qkv_fc(&self) -> FcShape {
        FcShape::new(self.embed_dim, 3 * self.attn_dim)
    }

    /// Q (or K, or V) projection alone — head-parallel scheduling issues
    /// these separately (Figure 7).
    pub fn q_fc(&self) -> FcShape {
        FcShape::new(self.embed_dim, self.attn_dim)
    }

    /// Per-head slice of the Q/K/V projection.
    pub fn q_fc_per_head(&self) -> FcShape {
        FcShape::new(self.embed_dim, self.head_dim)
    }

    /// Attention output projection (the "FC for Attention").
    pub fn attn_out_fc(&self) -> FcShape {
        FcShape::new(self.attn_dim, self.embed_dim)
    }

    /// First FFN layer (GELU rides on it when mapped to PIM).
    pub fn ffn1_fc(&self) -> FcShape {
        FcShape::new(self.embed_dim, self.ffn_dim)
    }

    /// Second FFN layer.
    pub fn ffn2_fc(&self) -> FcShape {
        FcShape::new(self.ffn_dim, self.embed_dim)
    }

    /// Language-model head (logits over the vocabulary).
    pub fn lm_head_fc(&self) -> FcShape {
        FcShape::new(self.embed_dim, self.vocab)
    }

    /// Number of attention heads.
    pub fn heads(&self) -> u64 {
        self.heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> u64 {
        self.head_dim
    }

    /// Embedding dimension.
    pub fn embed_dim(&self) -> u64 {
        self.embed_dim
    }

    /// FFN hidden dimension.
    pub fn ffn_dim(&self) -> u64 {
        self.ffn_dim
    }

    /// All FC weight bytes of one block.
    pub fn block_fc_bytes(&self) -> u64 {
        self.qkv_fc().weight_bytes()
            + self.attn_out_fc().weight_bytes()
            + self.ffn1_fc().weight_bytes()
            + self.ffn2_fc().weight_bytes()
    }

    /// FLOPs of self-attention score/value products (`QKᵀ` and `SV`) for a
    /// stage, across all heads.
    pub fn attention_flops(&self, stage: &Stage) -> u64 {
        let q = stage.batch_tokens();
        let kv = stage.attended_tokens();
        // QK^T: q×kv×d per head; SV: q×kv×d per head.
        2 * (2 * q * kv * self.head_dim) * self.heads
    }

    /// Total FLOPs of one block for a stage (FCs + attention; vector ops
    /// are negligible in FLOPs, per Figure 2).
    pub fn block_flops(&self, stage: &Stage) -> u64 {
        let t = stage.batch_tokens();
        self.qkv_fc().gemm_flops(t)
            + self.attn_out_fc().gemm_flops(t)
            + self.ffn1_fc().gemm_flops(t)
            + self.ffn2_fc().gemm_flops(t)
            + self.attention_flops(stage)
    }

    /// LM-head FLOPs for a stage (only the final/new token needs logits).
    pub fn lm_head_flops(&self, _stage: &Stage) -> u64 {
        self.lm_head_fc().gemm_flops(1)
    }

    /// Elements normalized per layer-norm invocation for a stage.
    pub fn layernorm_elems(&self, stage: &Stage) -> u64 {
        stage.batch_tokens() * self.embed_dim
    }

    /// KV-cache bytes read by attention in a generation step (previous
    /// keys and values of every head).
    pub fn kv_read_bytes(&self, stage: &Stage) -> u64 {
        match stage {
            Stage::Summarization { .. } => 0,
            Stage::Generation { past_tokens } => 2 * past_tokens * self.attn_dim * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    #[test]
    fn ffn_is_4x_of_qkv_single() {
        // Paper Figure 10 commentary: FFN weights are 4× the two attention
        // FCs (out-proj + one of QKV... precisely: ffn1+ffn2 = 8E² vs
        // qkv+out = 4E² when attn_dim == embed_dim).
        let ops = ModelConfig::gpt2_xl().block_ops();
        let ffn = ops.ffn1_fc().weight_bytes() + ops.ffn2_fc().weight_bytes();
        let attn = ops.attn_out_fc().weight_bytes() + ops.q_fc().weight_bytes();
        assert_eq!(ffn, 4 * attn);
    }

    #[test]
    fn per_head_slices_cover_projection() {
        let ops = ModelConfig::gpt2_m().block_ops();
        assert_eq!(
            ops.q_fc_per_head().weight_bytes() * ops.heads(),
            ops.q_fc().weight_bytes()
        );
    }

    #[test]
    fn column_slices() {
        let fc = FcShape::new(1536, 6144);
        assert_eq!(fc.column_slice(4), FcShape::new(1536, 1536));
    }

    #[test]
    fn attention_flops_grow_with_past() {
        let ops = ModelConfig::gpt2_xl().block_ops();
        let a = ops.attention_flops(&Stage::Generation { past_tokens: 64 });
        let b = ops.attention_flops(&Stage::Generation { past_tokens: 512 });
        assert!(b > 7 * a);
    }

    #[test]
    fn kv_read_bytes_zero_in_summarization() {
        let ops = ModelConfig::gpt2_xl().block_ops();
        assert_eq!(ops.kv_read_bytes(&Stage::Summarization { tokens: 512 }), 0);
        assert_eq!(
            ops.kv_read_bytes(&Stage::Generation { past_tokens: 100 }),
            2 * 100 * 1536 * 2
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_fc_dim_rejected() {
        let _ = FcShape::new(0, 1);
    }
}
