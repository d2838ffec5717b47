//! Differential oracle and deterministic workload fuzzer for the
//! simulator.
//!
//! The optimized implementations in `tlb`, `orchestrated-tlb` and
//! `gpu-sim` carry performance machinery — packed probe tags,
//! structure-of-arrays storage, maintained counters, event-skipping
//! retire scans — that the paper never mentions. This crate re-states the
//! paper's mechanisms as *clarity-first reference models* (no
//! optimizations, data layouts chosen for obviousness) and checks the
//! optimized code against them:
//!
//! - [`reference::OracleSetAssocTlb`] — the baseline VPN-indexed LRU TLB
//!   as per-set entry lists ([`tlb::SetAssocTlb`] is the optimized
//!   subject).
//! - [`reference::InfiniteTlb`] — a fully-associative, infinite-capacity
//!   model enforcing the universal soundness bound: no finite TLB may
//!   hit a page that was never inserted, and a hit must return a PPN the
//!   fill path actually provided.
//! - [`partitioned_ref::OraclePartitionedTlb`] — the paper's §IV-B
//!   TB-id-partitioned TLB with dynamic adjacent set sharing, written
//!   literally from the prose (explicit slot arrays, explicit sharing
//!   register; [`orchestrated_tlb::PartitionedTlb`] is the subject).
//! - [`sched_ref::OracleScheduler`] — the §IV-A TLB-aware TB scheduler's
//!   status table ([`orchestrated_tlb::TlbAwareScheduler`] is the
//!   subject).
//!
//! [`diff`] replays one deterministic [`case::Case`] through subject and
//! oracle side by side and reports the first [`diff::Divergence`]:
//! hit/miss verdicts, returned PPNs, charged latencies, eviction effects
//! (observed through non-perturbing [`TranslationBuffer::probe`] content
//! sweeps), sharing-register transitions, spill counts and the full
//! end-of-trace statistics. [`fuzz`] generates adversarial cases from a
//! seed (TB churn, set-group pressure, neighbour-spill storms,
//! pathological strides), [`shrink()`] reduces a diverging case to a
//! minimal reproducer, and [`mutate`] provides deliberately-broken
//! subject variants that prove the harness can actually catch bugs (see
//! TESTING.md).
//!
//! The `fuzz` binary in `crates/bench` drives the whole loop;
//! `crates/bench/tests/corpus/` holds shrunk `.case` reproducers that
//! replay forever as regression tests.
//!
//! [`TranslationBuffer::probe`]: tlb::TranslationBuffer::probe

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod diff;
pub mod engine_diff;
pub mod fuzz;
pub mod mutate;
pub mod partitioned_ref;
pub mod reference;
pub mod sched_ref;
pub mod shrink;

pub use case::{Case, EngineCase, ModelKind, Mutation, Op, TraceCase, TraceRef};
pub use diff::{run_case, Divergence};
pub use fuzz::{fuzz_seed, set_trace_dir, FuzzReport};
pub use shrink::shrink;
