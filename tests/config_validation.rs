//! `GpuConfig::validate` rejects, up front and by field name, each
//! configuration that used to misbehave deep in a run of `mvt` under
//! `sched+part+share`: hang forever (`issue_width = 0`), report an empty
//! run as `total_cycles = 0` (`max_concurrent_tbs = 0`, `num_sms = 0`),
//! run with a silently clamped value (`l2_tlb_ports = 0`), or panic in a
//! constructor (`walkers = 0`, `l2_tlb_slices = 3`).

use orchestrated_tlb_repro::gpu_sim::GpuConfig;
use orchestrated_tlb_repro::tlb::TlbConfig;

fn rejected_for(config: GpuConfig, field: &str) {
    let err = config
        .validate()
        .expect_err("an unrunnable configuration must be rejected");
    assert_eq!(err.violations.len(), 1, "only {field} is wrong, yet: {err}");
    assert_eq!(err.violations[0].field, field, "{err}");
    assert!(err.to_string().contains(field), "{err}");
}

fn baseline() -> GpuConfig {
    GpuConfig::dac23_baseline()
}

#[test]
fn table3_baseline_is_valid() {
    assert_eq!(baseline().validate(), Ok(()));
    // The Figure 2 variant with the 256-entry L1 TLB, too.
    assert_eq!(
        baseline().with_l1_tlb(TlbConfig::new(256, 4, 1)).validate(),
        Ok(())
    );
}

#[test]
fn zero_issue_width_is_rejected() {
    rejected_for(
        GpuConfig {
            issue_width: 0,
            ..baseline()
        },
        "issue_width",
    );
}

#[test]
fn zero_max_concurrent_tbs_is_rejected() {
    rejected_for(
        GpuConfig {
            max_concurrent_tbs: 0,
            ..baseline()
        },
        "max_concurrent_tbs",
    );
}

#[test]
fn zero_sms_is_rejected() {
    rejected_for(
        GpuConfig {
            num_sms: 0,
            ..baseline()
        },
        "num_sms",
    );
}

#[test]
fn zero_l2_tlb_ports_is_rejected() {
    rejected_for(
        GpuConfig {
            l2_tlb_ports: 0,
            ..baseline()
        },
        "l2_tlb_ports",
    );
}

#[test]
fn zero_walkers_is_rejected() {
    rejected_for(
        GpuConfig {
            walkers: 0,
            ..baseline()
        },
        "walkers",
    );
}

#[test]
fn three_l2_tlb_slices_are_rejected() {
    rejected_for(
        GpuConfig {
            l2_tlb_slices: 3,
            ..baseline()
        },
        "l2_tlb_slices",
    );
    // Every power-of-two slicing of the 512-entry L2 TLB stays valid.
    for slices in [1, 2, 4, 8, 16, 32] {
        let config = GpuConfig {
            l2_tlb_slices: slices,
            ..baseline()
        };
        assert_eq!(config.validate(), Ok(()), "{slices} slices");
    }
}
