//! The DMA transfer-planning subsystem.
//!
//! The paper's central performance argument (§3.3, §5.2) is that host-driven
//! coherence lets the runtime *decide* how data moves instead of reacting
//! one page at a time: transfers can be batched, coalesced and overlapped
//! with CPU compute. This module is that lever made explicit. Coherence
//! protocols no longer issue imperative `flush`/`fetch` calls; they build a
//! [`TransferPlan`] describing *which block ranges of which objects* must
//! move, and the runtime executes the plan:
//!
//! ```text
//!  protocol (batch/lazy/rolling)
//!      │  request(obj, offset, len)        — declarative ranges
//!      ▼
//!  TransferPlan ──► coalesce adjacent/overlapping ranges within an object
//!      │  jobs()                            — few, large DmaJobs
//!      ▼
//!  Runtime::execute ──► hetsim DMA engine timelines (sync or async)
//!      │                                    — jobs/bytes/blocks recorded in
//!      │                                      the extended TransferLedger
//!      ├──► DmaQueue   — virtual-time horizons, joined at adsmCall
//!      ▼
//!  DmaEngine ──► per-device worker threads land the bytes in device
//!                memory outside the shard lock (wall-clock overlap);
//!                join_dma waits on the completion table. A solitary
//!                eviction on an idle queue lands on the submitting thread
//!                instead, straight from the host view (no hand-off)
//! ```
//!
//! Coalescing is controlled by [`crate::GmacConfig::coalescing`]; with it
//! disabled the planner degrades to one job per requested range — the
//! ablation baseline matching the pre-planner behaviour. The background
//! engine is controlled by [`crate::GmacConfig::async_dma`]; with it
//! disabled jobs execute inline at issue, inside the shard lock, exactly as
//! before.

pub(crate) mod engine;
pub(crate) mod plan;
pub(crate) mod queue;

pub(crate) use engine::DmaEngine;
pub use plan::{Purpose, TransferPlan};
pub(crate) use queue::DmaQueue;
