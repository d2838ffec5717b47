//! # mem-hier — composable GPU memory-hierarchy stages with per-level
//! latency attribution
//!
//! This crate factors the translation and data paths of the DAC'23
//! reproduction (*Orchestrated Scheduling and Partitioning for Improved
//! Address Translation in GPUs*) out of the timing engine into explicit,
//! individually replaceable stages:
//!
//! * [`Stage`] — the uniform interface: an [`Access`] in, an [`Outcome`]
//!   out, each outcome carrying its own queue/service/fault latency
//!   contribution and every stage keeping [`StageStats`].
//! * [`PerSmFront`] / [`SharedBack`] — the private/shared split of the
//!   paper's Figure 1 pipeline. Each front owns one SM's L1 TLB and
//!   VIPT L1 data cache; the back owns
//!   the order-sensitive shared stages — [`IcntLink`], [`L2TlbStage`]
//!   (with reusable [`Ports`] arbitration), [`WalkerStage`], and the
//!   L2/DRAM data path.
//! * [`Hierarchy`] — one front per SM plus the back behind the
//!   `translate`/`data_access` calls the engine, perfbench and tests all
//!   use; [`HierarchyBuilder`] composes it from the configuration.
//! * [`LatencyBreakdown`] — per-level attribution (L1 TLB / icnt / L2
//!   TLB queueing / L2 TLB lookup / walk / fault) whose stage sums are
//!   cross-checked against independently accumulated end-to-end
//!   translation latency; fronts and back each hold their share, merged
//!   by counter sums.
//!
//! # Example
//!
//! ```
//! use mem_hier::{Access, HierarchyBuilder, HierarchyConfig, CacheConfig};
//! use tlb::{SetAssocTlb, TlbConfig, TranslationBuffer};
//! use vmem::{AddressSpace, PageSize};
//!
//! let mut space = AddressSpace::new(PageSize::Small);
//! let buf = space.allocate("data", 1 << 20).unwrap();
//! let config = HierarchyConfig {
//!     num_sms: 1,
//!     l1_cache: CacheConfig::new(16 * 1024, 4, 128),
//!     l2_cache: CacheConfig::new(1536 * 1024, 8, 128),
//!     l2_tlb: TlbConfig::dac23_l2(),
//!     l2_tlb_slices: 1,
//!     l2_tlb_ports: 2,
//!     l2_tlb_port_occupancy: 1,
//!     walkers: 8,
//!     walk_latency: 500,
//!     walk_latency_per_level: 0,
//!     l1_hit_latency: 1,
//!     icnt_latency: 20,
//!     l2_hit_latency: 30,
//!     dram_latency: 200,
//!     demand_fault_latency: 2000,
//!     l2_policy: mem_hier::L2Policy::Shared,
//! };
//! let l1s: Vec<Box<dyn TranslationBuffer>> =
//!     vec![Box::new(SetAssocTlb::new(TlbConfig::dac23_l1()))];
//! let mut hier = HierarchyBuilder::new(config).build(space, l1s);
//!
//! let va = buf.addr_of(0);
//! let t = hier.translate(&Access {
//!     at: 0,
//!     sm: 0,
//!     asid: vmem::Asid::default(),
//!     tb_slot: 0,
//!     va,
//!     vpn: va.vpn(PageSize::Small),
//!     page_size: PageSize::Small,
//! });
//! // Cold miss: walk + first-touch fault, every cycle attributed.
//! assert_eq!(t.breakdown.total(), t.ready_at);
//! assert!(hier.breakdown().check().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod cache;
mod config;
mod hierarchy;
mod ports;
mod split;
mod stage;
mod stages;

pub use breakdown::{LatencyBreakdown, TranslationBreakdown};
pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, HierarchyConfig, L2Policy};
pub use hierarchy::{Hierarchy, HierarchyBuilder, HitLevel, Translation};
pub use ports::Ports;
pub use split::{PerSmFront, SharedBack};
pub use stage::{Access, Outcome, Stage, StageStats};
pub use stages::{IcntLink, L2Slice, L2TlbStage, SliceKind, WalkerStage};
