//! Shared backends and scenarios for the engine regression suites.
//!
//! Suites declare it `pub mod common;`: each uses a different part of
//! it, and a public module's unused items are not dead code.

use ianus::prelude::*;

/// Analytic node with real capacity pressure: a KV byte budget small
/// enough that overload preempts, a finite host pool so swap-outs can
/// degrade to recompute, and a slow host link so swap timing matters.
/// Every cost is a couple of float ops, which keeps the differential
/// grids fast, and it clones, which lets the sweep tests take the
/// parallel path.
///
/// Most rows of the pin ledger (`tests/pins.rs`) run on this backend.
/// Do not retune it: every constant participates in the pins.
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

/// Fixed-rate synthetic backend: service time is
/// `per_token × (input + output)`, and every other cost is the
/// [`Backend`] default.
pub struct FixedRate {
    pub name: &'static str,
    pub per_token: Duration,
}

impl Backend for FixedRate {
    fn name(&self) -> &str {
        self.name
    }

    fn service_time(&mut self, _: &ModelConfig, shape: RequestShape) -> Duration {
        Duration::from_ns_f64(self.per_token.as_ns_f64() * (shape.input + shape.output) as f64)
    }

    fn fits(&self, _: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }
}

/// Iteration-level scheduling with `chunk`-token prefill chunks and
/// preemption.
pub fn chunked(max_batch: u32, chunk: u64) -> Scheduling {
    Scheduling::IterationLevel {
        max_batch,
        prefill_chunk: Some(chunk),
        preempt: true,
    }
}

/// The historical preemption scenario, named for the change that
/// brought preemption in (the subject of `examples/policy_sweep.rs`):
/// GPT-2 XL (512, 512) requests in equal interactive and batch tiers,
/// overloading one 8 GB IANUS device.
pub fn pr3_scenario() -> ServingConfig {
    let shape = RequestShape::new(512, 512);
    ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(shape, 0.5),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}
