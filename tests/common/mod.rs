//! Shared test backend for the engine regression suites.

use ianus::prelude::*;

/// Analytic node with real capacity pressure: a KV byte budget small
/// enough that overload preempts, a finite host pool so swap-outs can
/// degrade to recompute, and a slow host link so swap timing matters.
/// Every cost is a couple of float ops, which keeps the differential
/// grids fast, and it clones, which lets the sweep tests take the
/// parallel path.
///
/// The fingerprints in `tests/disaggregated.rs` and `tests/workflows.rs`
/// were captured with this backend. Do not retune it: every constant
/// participates in the pins.
#[derive(Debug, Clone, Copy)]
pub struct MemNode {
    /// Device bytes available for KV.
    pub kv_bytes: u64,
    /// Host pool for swapped-out KV.
    pub host_bytes: u64,
    /// Host-link bandwidth in GB/s.
    pub host_gbps: f64,
}

impl MemNode {
    pub fn tight() -> Self {
        // ~4 final-length (128,64) GPT-2 XL sequences of device KV and
        // ~2 of host pool: preemption under load, with recompute
        // fallback once the pool fills.
        MemNode {
            kv_bytes: 256 << 20,
            host_bytes: 128 << 20,
            host_gbps: 8.0,
        }
    }
}

impl Backend for MemNode {
    fn name(&self) -> &str {
        "mem node"
    }

    fn service_time(&mut self, _model: &ModelConfig, shape: RequestShape) -> Duration {
        Duration::from_us(20) * shape.input
            + Duration::from_us(150) * shape.output.saturating_sub(1)
    }

    fn fits(&self, _model: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }

    fn prefill_time(&mut self, _model: &ModelConfig, tokens: u64) -> Duration {
        Duration::from_us(20) * tokens.max(1)
    }

    fn decode_time(&mut self, _model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        // Past-dependent so heterogeneous batches price differently.
        Duration::from_us(100)
            + Duration::from_us(8) * u64::from(batch.max(1))
            + Duration::from_ns(50) * past_tokens
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        let kv: u64 = batch
            .iter()
            .map(|r| model.kv_bytes_per_token() * r.total_tokens())
            .sum();
        if kv > self.kv_bytes {
            Err(CapacityError::OutOfMemory {
                required: kv,
                available: self.kv_bytes,
            })
        } else {
            Ok(kv as f64 / self.kv_bytes as f64)
        }
    }

    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let bytes = ianus::system::capacity::kv_swap_bytes(model, tokens);
        Duration::from_ns_f64(bytes as f64 / self.host_gbps)
    }

    fn host_kv_bytes(&self) -> Option<u64> {
        Some(self.host_bytes)
    }

    fn kv_budget_bytes(&self, _model: &ModelConfig, _widest_input: u64) -> Option<u64> {
        Some(self.kv_bytes)
    }

    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(*self))
    }
}

/// FNV-1a over a report's `Debug` form: a whole-report fingerprint.
#[allow(dead_code)] // not every suite that shares this module pins one
pub fn debug_fnv(report: &ServingReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}
