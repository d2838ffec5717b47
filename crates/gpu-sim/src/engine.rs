//! The cycle-level GPU timing engine.
//!
//! The engine models the execution path of the paper's Figure 1 at warp
//! granularity: per-SM GTO warp issue, the memory coalescer, per-SM VIPT
//! L1 cache + private L1 TLB, the shared L2 TLB and L2 cache behind an
//! interconnect, and the shared page-table-walker pool with UVM demand
//! paging. Time advances event-to-event (the cycle counter jumps to the
//! next cycle at which any SM can make progress), which is exact for this
//! model because all latencies are computed analytically at issue.
//!
//! # Step order and determinism
//!
//! At each event cycle the engine steps every event-ready SM, in
//! SM-index order. A step retires finished warps, then issues; each
//! coalesced line of a memory instruction calls
//! [`mem_hier::Hierarchy::translate`] and then
//! [`mem_hier::Hierarchy::data_access`] on the spot. So each SM's private
//! L1 TLB and L1 data cache see its accesses in program order, and the
//! shared L2 TLB, walkers and L2/DRAM data path see the SMs' accesses in
//! SM-index order. Every policy is seeded or stateless, so runs are
//! bit-reproducible; `tests/step_order.rs` at the workspace root pins the
//! resulting order.

use crate::coalesce::coalesce_into;
use crate::config::GpuConfig;
use crate::feed::{KernelFeed, KernelSeq};
use crate::report::{SimReport, TranslationEvent};
use crate::sanitize::{sanitize_enabled, Sanitizer};
use crate::tb_sched::{RoundRobinScheduler, SmSnapshot, TbScheduler};
use crate::warp_sched::{GtoWarpScheduler, WarpScheduler, WarpView};
use mem_hier::{Access, Hierarchy, HierarchyBuilder, HitLevel};
use tlb::{SetAssocTlb, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, PhysAddr, Ppn, VirtAddr};
use workloads::format::{TraceError, TraceSource};
use workloads::{TbTrace, WarpOp, Workload};

/// Builds L1 TLBs for each SM (lets the `orchestrated-tlb` crate plug in
/// the partitioned design).
pub type L1TlbFactory = Box<dyn Fn(&GpuConfig) -> Box<dyn TranslationBuffer>>;

/// Builds one warp scheduler per SM.
pub type WarpSchedulerFactory = Box<dyn Fn() -> Box<dyn WarpScheduler>>;

/// A configured simulator, ready to run workloads.
///
/// # Example
///
/// ```
/// use gpu_sim::{GpuConfig, Simulator};
/// use workloads::{registry, Scale};
///
/// let wl = registry()[8].generate(Scale::Test, 42); // gemm
/// let report = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
/// assert!(report.total_cycles > 0);
/// assert!(report.l1_tlb_hit_rate() > 0.0);
/// ```
pub struct Simulator {
    config: GpuConfig,
    tb_scheduler: Box<dyn TbScheduler>,
    l1_tlb_factory: L1TlbFactory,
    warp_scheduler_factory: WarpSchedulerFactory,
    trace_translations: bool,
    force_max_tbs: Option<u8>,
    /// Per-instance sanitizer override; `None` follows the process-wide
    /// default ([`sanitize_enabled`]).
    sanitize: Option<bool>,
}

impl Simulator {
    /// Creates a baseline simulator: round-robin TB scheduling and
    /// VPN-indexed set-associative L1 TLBs.
    pub fn new(config: GpuConfig) -> Self {
        Simulator {
            config,
            tb_scheduler: Box::new(RoundRobinScheduler::new()),
            l1_tlb_factory: Box::new(|c: &GpuConfig| {
                Box::new(SetAssocTlb::new(c.l1_tlb)) as Box<dyn TranslationBuffer>
            }),
            warp_scheduler_factory: Box::new(|| {
                Box::new(GtoWarpScheduler::new()) as Box<dyn WarpScheduler>
            }),
            trace_translations: false,
            force_max_tbs: None,
            sanitize: None,
        }
    }

    /// Replaces the TB scheduling policy.
    pub fn with_tb_scheduler(mut self, scheduler: Box<dyn TbScheduler>) -> Self {
        self.tb_scheduler = scheduler;
        self
    }

    /// Replaces the L1 TLB organization.
    pub fn with_l1_tlb_factory(mut self, factory: L1TlbFactory) -> Self {
        self.l1_tlb_factory = factory;
        self
    }

    /// Replaces the per-SM warp scheduling policy (default: GTO per
    /// Table III).
    pub fn with_warp_scheduler_factory(mut self, factory: WarpSchedulerFactory) -> Self {
        self.warp_scheduler_factory = factory;
        self
    }

    /// Records every L1 TLB access into the report (needed by the
    /// reuse-distance characterization; costs memory).
    pub fn with_translation_trace(mut self, enable: bool) -> Self {
        self.trace_translations = enable;
        self
    }

    /// Caps concurrent TBs per SM (e.g. `Some(1)` reproduces the paper's
    /// Figure 6 "one TB at a time" study).
    pub fn with_max_concurrent_tbs(mut self, cap: Option<u8>) -> Self {
        self.force_max_tbs = cap;
        self
    }

    /// Forces the runtime invariant sanitizer on (or off) for this
    /// simulator, overriding the process-wide default (on in debug builds,
    /// `--sanitize` in release). See the [`crate::sanitize`] module docs
    /// for what is checked; the first violation panics with a state dump.
    pub fn with_sanitizer(mut self, enable: bool) -> Self {
        self.sanitize = Some(enable);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs the workload to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload references addresses outside its own
    /// buffers or exhausts the (64 GiB default) physical pool — both are
    /// generator bugs, not simulation outcomes.
    pub fn run(&mut self, workload: Workload) -> SimReport {
        let (name, kernels, space) = workload.into_parts();
        match self.run_prepared(name, space, KernelSeq::Mem(kernels)) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on.
            Err(e) => panic!("in-memory replay cannot fail: {e}"),
        }
    }

    /// Co-runs several workloads as concurrent address spaces sharing
    /// the GPU: app `k` runs under ASID `k` with its own page table,
    /// the merged TB stream is app-interleaved round-robin (the
    /// `corun` module's merge), and every TLB tags entries with the owning
    /// ASID. The report's [`SimReport::per_app`] carries each app's
    /// completion cycle and TLB counters; `workload` is the `a+b` merged
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or the apps disagree on page size.
    pub fn run_corun(&mut self, apps: Vec<Workload>) -> SimReport {
        let merged = crate::corun::merge_apps(apps);
        let seq = KernelSeq::CoRun {
            kernel: Box::new(merged.kernel),
            asids: merged.asids,
        };
        match self.run_prepared_multi(merged.name, merged.app_names, merged.spaces, seq) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on.
            Err(e) => panic!("in-memory co-run replay cannot fail: {e}"),
        }
    }

    /// Runs a [`TraceSource`] to completion. A `Generated` source
    /// replays from RAM exactly like [`Simulator::run`]; a `File` source
    /// streams TB traces block by block from disk, keeping only the
    /// in-flight TBs and one decoded block resident. Reports are
    /// byte-identical between the two for the same trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if a file-backed source turns out to be
    /// corrupt or unreadable mid-replay.
    pub fn run_source(&mut self, source: TraceSource) -> Result<SimReport, TraceError> {
        match source {
            TraceSource::Generated(workload) => {
                let (name, kernels, space) = workload.into_parts();
                self.run_prepared(name, space, KernelSeq::Mem(kernels))
            }
            TraceSource::File(reader) => {
                let name = reader.workload_name().to_owned();
                let space = reader.address_space()?;
                self.run_prepared(name, space, KernelSeq::Stream(Box::new(reader)))
            }
        }
    }

    /// Solo entry into the shared run loop: one app, one address space,
    /// ASID 0.
    fn run_prepared(
        &mut self,
        name: String,
        space: AddressSpace,
        seq: KernelSeq,
    ) -> Result<SimReport, TraceError> {
        let app_names = vec![name.clone()];
        self.run_prepared_multi(name, app_names, vec![space], seq)
    }

    /// The shared run loop behind [`Simulator::run`],
    /// [`Simulator::run_source`] and [`Simulator::run_corun`]:
    /// `spaces[k]` is ASID `k`'s page table, `app_names[k]` its label in
    /// [`SimReport::per_app`].
    fn run_prepared_multi(
        &mut self,
        name: String,
        app_names: Vec<String>,
        spaces: Vec<AddressSpace>,
        seq: KernelSeq,
    ) -> Result<SimReport, TraceError> {
        let n_sms = self.config.num_sms;
        let num_apps = spaces.len();
        let sanitize = self.sanitize.unwrap_or_else(sanitize_enabled);
        let mut sanitizer = sanitize.then(|| Sanitizer::new(n_sms));
        let l1_tlbs: Vec<Box<dyn TranslationBuffer>> = (0..n_sms)
            .map(|_| (self.l1_tlb_factory)(&self.config))
            .collect();
        // A run with no address spaces has no traffic either; the page
        // size is then irrelevant, so default rather than panic here.
        let page_size = spaces
            .first()
            .map_or(PageSize::default(), AddressSpace::page_size);
        let (fronts, back) =
            HierarchyBuilder::new(self.config.hierarchy()).build_split_multi(spaces, l1_tlbs);
        let mut mem = MemState {
            hier: Hierarchy::from_split(fronts, back),
            page_size,
            trace: self.trace_translations.then(Vec::new),
            sanitize,
        };
        let mut report = SimReport {
            workload: name,
            scheduler: self.tb_scheduler.name().to_owned(),
            tb_placements: vec![0; n_sms],
            sm_instructions: vec![0; n_sms],
            per_app: app_names
                .into_iter()
                .enumerate()
                .map(|(k, workload)| crate::report::AppReport {
                    asid: k as u16,
                    workload,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };
        debug_assert_eq!(report.per_app.len(), num_apps, "one app label per space");

        let mut cycle: u64 = 0;
        for kernel_idx in 0..seq.len() {
            let mut feed = seq.feed(kernel_idx)?;
            let start = cycle;
            cycle = run_kernel(
                &self.config,
                &mut self.tb_scheduler,
                &self.warp_scheduler_factory,
                self.force_max_tbs,
                &mut feed,
                kernel_idx as u16,
                cycle,
                &mut mem,
                &mut report,
                &mut sanitizer,
            )?;
            report
                .kernel_cycles
                .push((feed.name().to_owned(), cycle - start));
        }

        let hier = &mem.hier;
        report.total_cycles = cycle;
        report.l1_tlb = hier.fronts().iter().map(|f| f.tlb().stats()).collect();
        report.l2_tlb = hier.l2_tlb_stats();
        report.l1_cache = hier.l1_cache_stats();
        report.l2_cache = hier.l2_cache_stats();
        report.walker = hier.walker_stats();
        report.demand_faults = hier.demand_faults();
        report.transactions = hier.transactions();
        // Memo fast-path hits across every TLB in the hierarchy.
        report.fastpath_hits = hier
            .fronts()
            .iter()
            .map(|f| f.tlb().fastpath_hits())
            .chain(hier.l2_slices().iter().map(|s| s.fastpath_hits()))
            .sum();
        report.latency = hier.breakdown();
        report.translation_trace = mem.trace.take().unwrap_or_default();
        // Per-app TLB counters: sums over fronts and slices, keyed by
        // ASID.
        for front in hier.fronts() {
            for (asid, stats) in front.tlb().stats_by_asid() {
                if let Some(app) = report.per_app.get_mut(asid.index()) {
                    app.l1_tlb += stats;
                }
            }
        }
        for (asid, stats) in hier.l2_tlb_stats_by_asid() {
            if let Some(app) = report.per_app.get_mut(asid.index()) {
                app.l2_tlb = stats;
            }
        }
        Ok(report)
    }
}

/// The memory hierarchy every SM step translates and accesses data
/// through, plus the run-wide engine concerns (translation tracing,
/// sanitizer enablement).
struct MemState {
    hier: Hierarchy,
    page_size: PageSize,
    trace: Option<Vec<TranslationEvent>>,
    /// Run full L1 TLB invariant checks after every fill.
    sanitize: bool,
}

/// One dispatch pass: places TBs while an SM has a free slot.
#[allow(clippy::too_many_arguments)]
fn dispatch_tbs(
    sms: &mut [SmRt],
    hier: &Hierarchy,
    tb_scheduler: &mut Box<dyn TbScheduler>,
    feed: &mut KernelFeed<'_>,
    next_tb: &mut usize,
    cycle: u64,
    placements: &mut [u32],
    snaps: &mut Vec<SmSnapshot>,
) -> Result<(), TraceError> {
    while *next_tb < feed.tb_count() {
        // Cheap pre-check before building snapshots: most calls land here
        // with every SM saturated, so this skips the per-SM stats
        // snapshot on the hot path.
        if sms.iter().all(|sm| sm.free_slots.is_empty()) {
            break;
        }
        snaps.clear();
        snaps.extend(sms.iter().zip(hier.fronts()).map(|(sm, front)| {
            let stats = front.tlb().stats();
            SmSnapshot {
                free_slots: sm.free_slots.len() as u8,
                tlb_hits: stats.hits,
                tlb_accesses: stats.accesses(),
            }
        }));
        let Some(target) = tb_scheduler.pick_sm(snaps) else {
            break;
        };
        assert!(
            snaps[target].has_room(),
            "scheduler picked a full SM ({target})"
        );
        let asid = feed.asid_of(*next_tb);
        let tb = feed.tb(*next_tb)?;
        sms[target].place_tb(tb, *next_tb as u32, cycle, asid);
        placements[target] += 1;
        *next_tb += 1;
    }
    Ok(())
}

/// Simulates one kernel launch; returns the cycle at which it completes.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    config: &GpuConfig,
    tb_scheduler: &mut Box<dyn TbScheduler>,
    warp_scheduler_factory: &WarpSchedulerFactory,
    force_max_tbs: Option<u8>,
    feed: &mut KernelFeed<'_>,
    kernel_idx: u16,
    start_cycle: u64,
    mem: &mut MemState,
    report: &mut SimReport,
    sanitizer: &mut Option<Sanitizer>,
) -> Result<u64, TraceError> {
    let n_sms = config.num_sms;
    let tb_count = feed.tb_count();
    // Occupancy: the compile-time TB limit, the hardware cap, and the
    // thread capacity all bound concurrency.
    let by_threads = (config.max_threads_per_sm / feed.threads_per_tb().max(1)).max(1) as u8;
    let mut max_tbs = feed
        .max_concurrent_tbs_per_sm()
        .min(config.max_concurrent_tbs)
        .min(by_threads);
    if let Some(cap) = force_max_tbs {
        max_tbs = max_tbs.min(cap);
    }

    for front in mem.hier.fronts_mut() {
        front.tlb_mut().set_concurrent_tbs(max_tbs);
        if config.flush_l1_tlb_on_kernel_launch {
            front.tlb_mut().flush();
        }
    }
    let num_apps = report.per_app.len().max(1);
    let mut sms: Vec<SmRt> = (0..n_sms)
        .map(|_| SmRt::new(max_tbs, warp_scheduler_factory(), num_apps))
        .collect();
    tb_scheduler.reset();

    let mut next_tb = 0usize;
    let mut cycle = start_cycle;
    let mut snaps: Vec<SmSnapshot> = Vec::with_capacity(n_sms);
    loop {
        dispatch_tbs(
            &mut sms,
            &mem.hier,
            tb_scheduler,
            feed,
            &mut next_tb,
            cycle,
            &mut report.tb_placements,
            &mut snaps,
        )?;

        // Next cycle at which any SM can make progress.
        let Some(event) = sms
            .iter()
            .map(SmRt::next_event)
            .min()
            .filter(|&e| e < u64::MAX)
        else {
            debug_assert!(next_tb >= tb_count, "idle GPU with pending TBs");
            break;
        };
        cycle = cycle.max(event);

        // Step every ready SM in SM-index order, so every shared
        // structure sees one fixed operation order.
        for (sm_idx, sm) in sms.iter_mut().enumerate() {
            if sm.next_event() <= cycle {
                step_sm(config, cycle, kernel_idx, sm_idx, sm, mem);
            }
        }

        if let Some(san) = sanitizer.as_mut() {
            let tlbs: Vec<&dyn TranslationBuffer> =
                mem.hier.fronts().iter().map(|f| f.tlb()).collect();
            san.after_cycle(cycle, &tlbs, &**tb_scheduler, n_sms);
        }
    }

    if let Some(san) = sanitizer.as_mut() {
        let tlbs: Vec<&dyn TranslationBuffer> = mem.hier.fronts().iter().map(|f| f.tlb()).collect();
        san.end_of_kernel(cycle, &tlbs, mem.hier.l2_slices(), num_apps);
        for front in mem.hier.fronts() {
            if let Err(e) = front.check_accounting() {
                Sanitizer::accounting_failure(
                    &format!("sm {} mem-hier front", front.sm()),
                    cycle,
                    e,
                );
            }
        }
        if let Err(e) = mem.hier.back().check_accounting() {
            Sanitizer::accounting_failure("mem-hier shared back", cycle, e);
        }
    }

    for (sm_idx, sm) in sms.iter().enumerate() {
        report.instructions += sm.instructions;
        report.sm_instructions[sm_idx] += sm.instructions;
        for (k, &done) in sm.app_done.iter().enumerate() {
            if let Some(app) = report.per_app.get_mut(k) {
                app.cycles = app.cycles.max(done);
            }
        }
    }
    Ok(cycle)
}

/// Steps SM `sm_idx` at `cycle`: retire finished warps/TBs, then issue up
/// to `issue_width` warp instructions. Each memory instruction's
/// coalesced lines translate and access data through the hierarchy on
/// the spot, in program order, so the SM's private L1 TLB and L1 data
/// cache see its accesses in program order and the shared stages see
/// them in SM-index order.
fn step_sm(
    config: &GpuConfig,
    cycle: u64,
    kernel_idx: u16,
    sm_idx: usize,
    sm: &mut SmRt,
    mem: &mut MemState,
) {
    debug_assert!(sm.next_event() <= cycle, "stepping an idle SM");
    let page_size = mem.page_size;

    // Retire warps whose final op has completed; free TB slots. The
    // whole scan is skipped while `earliest_done` proves no finished
    // warp can be due yet — a skipped scan would have retired nothing,
    // so the decision sequence is unchanged.
    if sm.earliest_done <= cycle {
        sm.earliest_done = u64::MAX;
        for w in 0..sm.warps.len() {
            let warp = &mut sm.warps[w];
            if warp.retired || warp.op_idx < warp.ops.len() {
                continue;
            }
            if warp.ready_at <= cycle {
                warp.retired = true;
                sm.retired_warps += 1;
                let slot = warp.tb_slot as usize;
                let asid = warp.asid;
                let done = warp.ready_at;
                sm.app_done[asid.index()] = sm.app_done[asid.index()].max(done);
                sm.slot_live_warps[slot] -= 1;
                if sm.slot_live_warps[slot] == 0 {
                    sm.free_slots.push(slot as u8);
                    mem.hier.fronts_mut()[sm_idx]
                        .tlb_mut()
                        .on_tb_finish(asid, slot as u8);
                }
            } else {
                let due = warp.ready_at;
                sm.earliest_done = sm.earliest_done.min(due);
            }
        }
    }
    if sm.retired_warps > 128 {
        sm.compact();
    }

    // GTO issue: stay greedy on the last-issued warp, then oldest. The
    // scheduler views are built once for the cycle and patched in place
    // per issue (only the issued warp changes between picks).
    let mut issued = 0u32;
    sm.build_views(cycle);
    while issued < config.issue_width {
        let pick = sm.pick();
        let Some((w, view_idx)) = pick else { break };
        let warp = &mut sm.warps[w];
        let op = &warp.ops[warp.op_idx];
        warp.op_idx += 1;
        sm.instructions += 1;
        match op {
            WarpOp::Compute { cycles } => {
                warp.ready_at = cycle + (*cycles as u64).max(1);
            }
            WarpOp::Load(acc) | WarpOp::Store(acc) => {
                let write = op.is_store();
                let mut done = cycle + 1;
                // Per-instruction TLB coalescing (Power et al.,
                // HPCA'14, the paper's reference [19]): one L1 TLB
                // lookup per *distinct page* the warp instruction
                // touches; the per-line transactions below share the
                // translation.
                let IssueScratch {
                    lines,
                    translations,
                } = &mut sm.scratch;
                translations.clear();
                let mut lookups = 0u64;
                coalesce_into(acc, config.l1_cache.line_bytes as u64, lines);
                for (i, &line) in lines.iter().enumerate() {
                    let vpn = line.vpn(page_size);
                    let (ppn, ready) = match translations.iter().find(|(v, ..)| *v == vpn) {
                        Some(&(_, ppn, ready)) => (ppn, ready),
                        None => {
                            // Translation lookups leave one per cycle.
                            let at = cycle + lookups;
                            lookups += 1;
                            if let Some(trace) = mem.trace.as_mut() {
                                trace.push(TranslationEvent {
                                    sm: sm_idx as u8,
                                    tb_global: warp.tb_global,
                                    warp: warp.warp_in_tb,
                                    kernel: kernel_idx,
                                    vpn: vpn.raw(),
                                });
                            }
                            let t = mem.hier.translate(&Access {
                                at,
                                sm: sm_idx,
                                asid: warp.asid,
                                tb_slot: warp.tb_slot,
                                va: line,
                                vpn,
                                page_size,
                            });
                            // Any resolution below the L1 filled the SM's
                            // L1 TLB (the path that evicts, spills and
                            // flips sharing flags): structurally check it
                            // post-insert.
                            if mem.sanitize && t.level != HitLevel::L1Tlb {
                                Sanitizer::after_fill(sm_idx, at, mem.hier.l1_tlb(sm_idx));
                            }
                            translations.push((vpn, t.ppn, t.ready_at));
                            (t.ppn, t.ready_at)
                        }
                    };
                    // Transactions leave the LSU one per cycle.
                    let start = ready.max(cycle + i as u64);
                    let pa = PhysAddr::from_parts(ppn, line.page_offset(page_size), page_size);
                    done = done.max(mem.hier.data_access(start, sm_idx, pa, write));
                }
                warp.ready_at = done;
            }
        }
        let finished = warp.op_idx >= warp.ops.len();
        if finished {
            // The warp just issued its final op: it becomes retirable at
            // its completion.
            let due = warp.ready_at;
            sm.earliest_done = sm.earliest_done.min(due);
        }
        sm.after_issue(view_idx, finished);
        issued += 1;
    }

    // `issue_limited` licenses the `recompute_next_event` short-circuit,
    // which requires at least one issue this cycle — guaranteed by
    // `issued >= issue_width` only when the width is non-zero.
    let issue_limited = config.issue_width > 0 && issued >= config.issue_width;
    sm.recompute_next_event(cycle, issue_limited);
}

/// Reusable per-issue scratch buffers: one warp memory instruction's
/// coalesced lines and page translations. Hoisted out of the issue loop
/// so the hot path performs no heap allocation.
#[derive(Default)]
struct IssueScratch {
    lines: Vec<VirtAddr>,
    /// `(vpn, ppn, ready_at)` per distinct page, in lookup order.
    translations: Vec<(vmem::Vpn, Ppn, u64)>,
}

/// Runtime state of one resident warp.
struct WarpRt {
    /// Stable per-SM warp id (launch order; lower = older).
    id: u32,
    /// Address space (co-running app) this warp's TB belongs to.
    asid: Asid,
    /// Static ops of this warp, shared with the workload trace (an `Arc`
    /// clone at TB placement, not a copy).
    ops: std::sync::Arc<Vec<WarpOp>>,
    op_idx: usize,
    ready_at: u64,
    tb_slot: u8,
    tb_global: u32,
    /// Warp index within its TB (for warp-granularity analysis).
    warp_in_tb: u16,
    retired: bool,
}

/// Runtime state of one SM.
struct SmRt {
    warps: Vec<WarpRt>,
    free_slots: Vec<u8>,
    slot_live_warps: Vec<u32>,
    scheduler: Box<dyn WarpScheduler>,
    next_warp_id: u32,
    /// Reusable scratch for scheduler views, in launch order.
    views: Vec<WarpView>,
    /// Index into `warps` for each entry of `views` (parallel vector, so
    /// the scheduler can be handed `&views` without a per-pick collect).
    view_warps: Vec<usize>,
    next_event: u64,
    /// Lower bound on the earliest cycle any finished warp can retire
    /// (`u64::MAX` when none is pending), so the per-step retire scan can
    /// be skipped outright while `cycle` is below it — a skipped scan
    /// provably would have retired nothing.
    earliest_done: u64,
    /// Retired warps still occupying `warps` (drives compaction without
    /// a per-step recount).
    retired_warps: usize,
    scratch: IssueScratch,
    /// Instructions issued this kernel (merged into the report at kernel
    /// end).
    instructions: u64,
    /// Per-app completion bound: the latest `ready_at` of any retired
    /// warp of each ASID on this SM (merged into the report by max at
    /// kernel end).
    app_done: Vec<u64>,
}

impl SmRt {
    fn new(max_tbs: u8, scheduler: Box<dyn WarpScheduler>, num_apps: usize) -> Self {
        SmRt {
            warps: Vec::new(),
            free_slots: (0..max_tbs).rev().collect(),
            slot_live_warps: vec![0; max_tbs as usize],
            scheduler,
            next_warp_id: 0,
            views: Vec::new(),
            view_warps: Vec::new(),
            next_event: u64::MAX,
            earliest_done: u64::MAX,
            retired_warps: 0,
            scratch: IssueScratch::default(),
            instructions: 0,
            app_done: vec![0; num_apps],
        }
    }

    /// Instantiates one TB's warps on this SM. Takes only the TB trace
    /// (not the kernel), so a streaming feed can hand over the current
    /// decoded TB; each warp's op storage is `Arc`-cloned into the
    /// resident [`WarpRt`], keeping it alive after the feed recycles the
    /// decoded block.
    fn place_tb(&mut self, tb: &TbTrace, tb_global: u32, cycle: u64, asid: Asid) {
        let slot = self.free_slots.pop().expect("caller checked has_room"); // simlint: allow(hot-unwrap, reason = "dispatch loop asserts has_room before place_tb")
        let mut live = 0;
        for (warp_in_tb, warp) in tb.warps().iter().enumerate() {
            if warp.shared_ops().is_empty() {
                // A warp with no ops is retirable at its first event.
                self.earliest_done = self.earliest_done.min(cycle + 1);
            }
            self.warps.push(WarpRt {
                id: self.next_warp_id,
                asid,
                ops: warp.shared_ops(),
                op_idx: 0,
                ready_at: cycle + 1,
                tb_slot: slot,
                tb_global,
                warp_in_tb: warp_in_tb as u16,
                retired: false,
            });
            self.next_warp_id += 1;
            live += 1;
        }
        if live == 0 {
            // Degenerate empty TB: release the slot immediately.
            self.free_slots.push(slot);
        } else {
            self.slot_live_warps[slot as usize] = live;
        }
        self.next_event = self.next_event.min(cycle + 1);
    }

    /// Rebuilds the scheduler views (live warps in launch order) for a
    /// new issue cycle. [`SmRt::pick`] then consumes the cached views;
    /// between picks of the same cycle only the issued warp changes, so
    /// [`SmRt::after_issue`] patches its entry in place instead of
    /// rescanning the warp vector per issue slot.
    fn build_views(&mut self, cycle: u64) {
        self.views.clear();
        self.view_warps.clear();
        for (i, w) in self.warps.iter().enumerate() {
            if w.retired || w.op_idx >= w.ops.len() {
                continue;
            }
            self.views.push(WarpView {
                id: w.id,
                tb_slot: w.tb_slot,
                ready: w.ready_at <= cycle,
            });
            self.view_warps.push(i);
        }
    }

    /// Asks the warp-scheduling policy for the next warp to issue, from
    /// the views cached by [`SmRt::build_views`]. Returns the warp index
    /// and its view index (for [`SmRt::after_issue`]).
    fn pick(&mut self) -> Option<(usize, usize)> {
        // The scheduler sees only the views, in launch order.
        let picked = self.scheduler.pick(&self.views)?;
        let view = self.views[picked];
        self.scheduler.issued(view);
        Some((self.view_warps[picked], picked))
    }

    /// Patches the cached views after issuing the warp behind view
    /// `view_idx`. An issued warp's `ready_at` always lands strictly in
    /// the future (compute latencies are clamped to ≥ 1, transactions
    /// complete at `cycle + 1` at the earliest), so its view simply goes
    /// not-ready; a warp that issued its final op leaves the views
    /// entirely, exactly as a rebuild would drop it.
    fn after_issue(&mut self, view_idx: usize, finished: bool) {
        if finished {
            self.views.remove(view_idx);
            self.view_warps.remove(view_idx);
        } else {
            self.views[view_idx].ready = false;
        }
    }

    fn recompute_next_event(&mut self, cycle: u64, issue_limited: bool) {
        // Callers pass `issue_limited` only when at least one op issued
        // this cycle, and an issued warp's `ready_at` is strictly future
        // — so a future event exists (`next != u64::MAX` below) and the
        // scan's verdict is `cycle + 1` whatever `any_ready_now` says.
        // Skip the warp scan outright.
        if issue_limited {
            self.next_event = cycle + 1;
            return;
        }
        let mut next = u64::MAX;
        let mut any_ready_now = false;
        for w in &self.warps {
            if w.retired {
                continue;
            }
            if w.op_idx < w.ops.len() {
                if w.ready_at <= cycle {
                    any_ready_now = true;
                } else {
                    next = next.min(w.ready_at);
                }
            } else if w.ready_at > cycle {
                // Completion (retire) event.
                next = next.min(w.ready_at);
            } else {
                // Retirable right now (became done this cycle).
                any_ready_now = true;
            }
        }
        self.next_event = if any_ready_now || (issue_limited && next != u64::MAX) {
            cycle + 1
        } else {
            next
        };
    }

    fn compact(&mut self) {
        // Stable warp ids survive compaction, so the scheduler's state
        // stays valid.
        self.warps.retain(|w| !w.retired);
        self.retired_warps = 0;
    }

    fn next_event(&self) -> u64 {
        self.next_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{registry, Scale};

    fn run_bench(name: &str) -> SimReport {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        let wl = spec.generate(Scale::Test, 42);
        Simulator::new(GpuConfig::dac23_baseline()).run(wl)
    }

    #[test]
    fn gemm_runs_to_completion() {
        let r = run_bench("gemm");
        assert!(r.total_cycles > 0);
        assert!(r.instructions > 0);
        assert!(r.transactions > 0);
        assert_eq!(r.l1_tlb.len(), 16);
        // Every TB got placed somewhere.
        let placed: u32 = r.tb_placements.iter().sum();
        let n = Scale::Test.matrix_dim() / 16;
        assert_eq!(placed as usize, n * n);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_bench("bfs");
        let b = run_bench("bfs");
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.l1_tlb_aggregate(), b.l1_tlb_aggregate());
    }

    #[test]
    fn memo_fastpath_serves_lookups_in_a_real_run() {
        // Warps re-touch the same page line after line, so the MRU memo
        // must serve a meaningful share of lookups; every fast-path hit
        // is a hit, so the counter is bounded by the hit totals.
        let r = run_bench("gemm");
        assert!(r.fastpath_hits > 0, "memo fast path never engaged");
        let bound = r.l1_tlb_aggregate().hits + r.l2_tlb.hits;
        assert!(r.fastpath_hits <= bound, "{} > {bound}", r.fastpath_hits);
    }

    #[test]
    fn round_robin_balances_placements() {
        let r = run_bench("pagerank");
        let max = r.tb_placements.iter().max().unwrap();
        let min = r.tb_placements.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin spread: {:?}", r.tb_placements);
    }

    #[test]
    fn larger_tlb_does_not_hurt() {
        let spec = registry().into_iter().find(|s| s.name == "atax").unwrap();
        let base = Simulator::new(GpuConfig::dac23_baseline()).run(spec.generate(Scale::Test, 42));
        let big = Simulator::new(
            GpuConfig::dac23_baseline().with_l1_tlb(tlb::TlbConfig::dac23_l1_256()),
        )
        .run(spec.generate(Scale::Test, 42));
        assert!(big.l1_tlb_hit_rate() >= base.l1_tlb_hit_rate() - 1e-9);
    }

    #[test]
    fn translation_trace_collected_when_enabled() {
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_translation_trace(true)
            .run(wl);
        // One event per L1 TLB lookup (page-coalesced, so at most one per
        // transaction).
        let lookups = r.l1_tlb_aggregate().accesses();
        assert_eq!(r.translation_trace.len() as u64, lookups);
        assert!(lookups <= r.transactions);
    }

    #[test]
    fn one_tb_at_a_time_cap_respected() {
        let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_max_concurrent_tbs(Some(1))
            .run(wl);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn sanitized_run_completes_clean() {
        // Force the sanitizer on regardless of build profile: a healthy
        // baseline run must pass every per-fill, per-cycle and
        // end-of-kernel invariant check without tripping.
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_sanitizer(true)
            .run(wl);
        assert!(r.total_cycles > 0);
        let unsanitized = Simulator::new(GpuConfig::dac23_baseline())
            .with_sanitizer(false)
            .run(spec.generate(Scale::Test, 42));
        // Checking invariants must not perturb the simulation itself.
        assert_eq!(r.total_cycles, unsanitized.total_cycles);
        assert_eq!(r.l1_tlb_aggregate(), unsanitized.l1_tlb_aggregate());
    }

    #[test]
    fn kernel_cycles_sum_to_total() {
        let r = run_bench("nw");
        let sum: u64 = r.kernel_cycles.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, r.total_cycles);
    }

    #[test]
    fn demand_faults_bounded_by_footprint_pages() {
        let r = run_bench("gemm");
        assert!(r.demand_faults > 0, "first touches must fault");
        // Faults can't exceed total touched pages.
        let n = Scale::Test.matrix_dim();
        let pages = (3 * n * n * 4) as u64 / 4096 + 3;
        assert!(r.demand_faults <= pages);
    }
}
