//! Service-level tests: admission control, quotas, the overload ladder,
//! device-loss recovery, resume, and digest identity with serial runs.

use crate::*;
use bqsim_analyze::{check_service_schedule, parse_schedule_trace};
use bqsim_campaign::{campaign_digest, run_campaign, CampaignOptions};
use bqsim_core::BqSimOptions;
use bqsim_faults::VirtualClock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn state_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bqsim-serve-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tenant: &str, id: &str, batches: usize, priority: Priority) -> SubmitSpec {
    SubmitSpec {
        tenant: tenant.into(),
        id: id.into(),
        family: "ghz".into(),
        qubits: 3,
        batches,
        batch_size: 2,
        seed: 7,
        fault_seed: Some(41),
        priority,
        precision: bqsim_core::Precision::F64,
        deadline_ms: None,
    }
}

fn test_config(dir: PathBuf) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(dir);
    cfg.clock = Arc::new(VirtualClock::new());
    cfg
}

/// The serial twin of a service submission: `run_campaign` over the
/// same circuit, options, inputs, and fault plan.
fn serial_digest(s: &SubmitSpec) -> u64 {
    let circuit = s.build_circuit().unwrap();
    let inputs = s.build_inputs();
    let mut copts = CampaignOptions {
        fault_seed: s.fault_seed,
        ..CampaignOptions::default()
    };
    if s.fault_seed.is_some() {
        copts.fault_budget = SubmitSpec::fault_budget();
    }
    let result = run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
    assert!(result.is_complete(), "serial reference must complete");
    campaign_digest(&result.checksums)
}

#[test]
fn service_digests_match_serial_campaigns() {
    let dir = state_dir("digest");
    let specs = vec![
        spec("alice", "a1", 3, Priority::Normal),
        spec("bob", "b1", 2, Priority::High),
        spec("carol", "c1", 4, Priority::Low),
    ];
    let cfg = test_config(dir);
    let report = run_service(&cfg, &specs).unwrap();
    assert!(report.all_completed(), "report: {report:?}");
    for (sub, s) in report.submissions.iter().zip(&specs) {
        let SubmissionOutcome::Completed { digest, .. } = sub.outcome else {
            panic!("expected completion for {}/{}", sub.tenant, sub.id);
        };
        assert_eq!(
            digest,
            serial_digest(s),
            "service digest for {}/{} diverged from the serial run",
            sub.tenant,
            sub.id
        );
    }
}

#[test]
fn overload_rejection_is_structured_and_bounded() {
    let dir = state_dir("overload");
    let mut cfg = test_config(dir);
    cfg.queue_capacity = 2;
    cfg.degrade_watermark = 2;
    let specs = vec![
        spec("a", "j1", 1, Priority::Normal),
        spec("b", "j2", 1, Priority::Normal),
        spec("c", "j3", 1, Priority::Normal), // same weight: nothing to shed
    ];
    let report = run_service(&cfg, &specs).unwrap();
    let SubmissionOutcome::Rejected(ServeError::Overloaded {
        queue_depth,
        queue_capacity,
        retry_after_ms,
    }) = report.submissions[2].outcome
    else {
        panic!("third submission should be rejected: {report:?}");
    };
    assert_eq!(queue_depth, 2);
    assert_eq!(queue_capacity, 2);
    assert!(retry_after_ms > 0, "rejection must carry a retry hint");
    assert!(report.any_overloaded());
    assert_eq!(report.tenants["c"].rejected_overload, 1);
    // The admitted submissions still complete.
    for sub in &report.submissions[..2] {
        assert!(matches!(sub.outcome, SubmissionOutcome::Completed { .. }));
    }
}

#[test]
fn precision_floor_rejects_below_floor_submissions() {
    let dir = state_dir("precision-floor");
    let mut cfg = test_config(dir);
    cfg.quotas.insert(
        "pinned".into(),
        TenantQuota {
            min_precision: bqsim_core::Precision::F64,
            ..TenantQuota::default()
        },
    );
    let narrow = SubmitSpec {
        precision: bqsim_core::Precision::F32,
        ..spec("pinned", "j1", 1, Priority::Normal)
    };
    let at_floor = spec("pinned", "j2", 1, Priority::Normal); // f64
    let free = SubmitSpec {
        precision: bqsim_core::Precision::F32,
        ..spec("other", "j3", 1, Priority::Normal)
    };
    let report = run_service(&cfg, &[narrow, at_floor, free]).unwrap();
    let SubmissionOutcome::Rejected(ServeError::QuotaExceeded {
        resource,
        requested,
        limit,
        ..
    }) = &report.submissions[0].outcome
    else {
        panic!("f32 under an f64 floor must be a quota rejection: {report:?}");
    };
    assert_eq!((*resource, *requested, *limit), ("precision-floor", 0, 1));
    // The floor is per tenant: the pinned tenant's f64 work and the
    // unpinned tenant's f32 work both run.
    assert!(matches!(
        report.submissions[1].outcome,
        SubmissionOutcome::Completed { .. }
    ));
    assert!(matches!(
        report.submissions[2].outcome,
        SubmissionOutcome::Completed { .. }
    ));
    assert_eq!(report.tenants["pinned"].rejected_quota, 1);
}

#[test]
fn quota_rejections_name_the_exhausted_resource() {
    let dir = state_dir("quota");
    let mut cfg = test_config(dir);
    cfg.quotas.insert(
        "capped".into(),
        TenantQuota {
            max_amp_bytes: 1 << 30,
            max_inflight: 1,
            ..TenantQuota::default()
        },
    );
    cfg.quotas.insert(
        "tiny".into(),
        TenantQuota {
            max_amp_bytes: 64, // less than any real submission
            max_inflight: 8,
            ..TenantQuota::default()
        },
    );
    let specs = vec![
        spec("capped", "j1", 1, Priority::Normal),
        spec("capped", "j2", 1, Priority::Normal), // over max_inflight
        spec("tiny", "j3", 1, Priority::Normal),   // over max_amp_bytes
    ];
    let report = run_service(&cfg, &specs).unwrap();
    let SubmissionOutcome::Rejected(ServeError::QuotaExceeded {
        resource, limit, ..
    }) = &report.submissions[1].outcome
    else {
        panic!("second submission should hit the in-flight quota: {report:?}");
    };
    assert_eq!(*resource, "in-flight");
    assert_eq!(*limit, 1);
    let SubmissionOutcome::Rejected(ServeError::QuotaExceeded {
        resource,
        requested,
        limit,
        ..
    }) = &report.submissions[2].outcome
    else {
        panic!("third submission should hit the byte quota: {report:?}");
    };
    assert_eq!(*resource, "amp-bytes");
    assert!(requested > limit);
    assert!(report.any_quota_rejected());
    assert_eq!(report.tenants["capped"].rejected_quota, 1);
    assert_eq!(report.tenants["tiny"].rejected_quota, 1);
}

#[test]
fn overload_sheds_lower_priority_queued_work() {
    let dir = state_dir("shed");
    let mut cfg = test_config(dir);
    cfg.queue_capacity = 1;
    cfg.degrade_watermark = 1;
    let specs = vec![
        spec("bg", "low", 2, Priority::Low),
        spec("fg", "high", 2, Priority::High),
    ];
    let report = run_service(&cfg, &specs).unwrap();
    assert!(
        matches!(report.submissions[0].outcome, SubmissionOutcome::Shed),
        "the queued low-priority submission should be shed: {report:?}"
    );
    let SubmissionOutcome::Completed { downgraded, .. } = report.submissions[1].outcome else {
        panic!("the high-priority submission should complete: {report:?}");
    };
    assert!(downgraded, "an at-capacity admission is downgraded");
    assert_eq!(report.tenants["bg"].shed, 1);
    assert_eq!(report.tenants["fg"].downgraded, 1);
}

#[test]
fn watermark_downgrades_new_admissions_and_records_it() {
    let dir = state_dir("downgrade");
    let mut cfg = test_config(dir);
    cfg.queue_capacity = 8;
    cfg.degrade_watermark = 1;
    let specs = vec![
        spec("a", "first", 2, Priority::Normal),
        spec("a", "second", 2, Priority::Normal),
    ];
    let report = run_service(&cfg, &specs).unwrap();
    let SubmissionOutcome::Completed { downgraded: d0, .. } = report.submissions[0].outcome else {
        panic!("first should complete: {report:?}");
    };
    let SubmissionOutcome::Completed {
        downgraded: d1,
        digest,
        ..
    } = report.submissions[1].outcome
    else {
        panic!("second should complete: {report:?}");
    };
    assert!(!d0, "below the watermark nothing is downgraded");
    assert!(d1, "above the watermark admissions are downgraded");
    assert_eq!(report.tenants["a"].downgraded, 1);
    // Checksum-only journaling never changes the digest.
    assert_eq!(digest, serial_digest(&specs[1]));
}

#[test]
fn device_loss_requeues_to_survivors_and_digests_hold() {
    let dir = state_dir("devloss");
    let mut cfg = test_config(dir.clone());
    cfg.devices = 2;
    cfg.device_loss = Some(DeviceLossSpec {
        device: 1,
        after_starts: 1,
    });
    let specs = vec![
        spec("a", "j1", 3, Priority::Normal),
        spec("b", "j2", 3, Priority::Normal),
    ];
    let report = run_service(&cfg, &specs).unwrap();
    assert_eq!(report.devices_lost, 1);
    assert!(report.all_completed(), "report: {report:?}");
    for (sub, s) in report.submissions.iter().zip(&specs) {
        let SubmissionOutcome::Completed { digest, .. } = sub.outcome else {
            unreachable!()
        };
        assert_eq!(digest, serial_digest(s), "{}/{}", sub.tenant, sub.id);
    }
    // The recorded schedule replays cleanly through the analyzer,
    // device loss and requeue included.
    let text = std::fs::read_to_string(report.trace_path).unwrap();
    let events = parse_schedule_trace(&text).unwrap();
    let diags = check_service_schedule(&events);
    assert!(diags.is_clean(), "schedule diagnostics: {diags:?}");
}

#[test]
fn device_loss_parse_round_trips() {
    let dl = DeviceLossSpec::parse("dev=1,after=3").unwrap();
    assert_eq!(
        dl,
        DeviceLossSpec {
            device: 1,
            after_starts: 3
        }
    );
    assert!(DeviceLossSpec::parse("dev=1").is_err());
    assert!(DeviceLossSpec::parse("dev=1,after=0").is_err());
    assert!(DeviceLossSpec::parse("nope").is_err());
}

#[test]
fn resume_finishes_interrupted_submissions_bit_identically() {
    let dir = state_dir("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let s = spec("alice", "big", 4, Priority::Normal);
    let reference = serial_digest(&s);

    // Session 1 stand-in: a campaign interrupted after one batch — the
    // same journal state a SIGKILLed service session leaves behind —
    // plus the manifest admission record.
    let circuit = s.build_circuit().unwrap();
    let inputs = s.build_inputs();
    let jpath = journal_path(&dir, &s.tenant, &s.id);
    let copts = CampaignOptions {
        journal_path: Some(jpath),
        stop_after: Some(1),
        fault_seed: s.fault_seed,
        fault_budget: SubmitSpec::fault_budget(),
        ..CampaignOptions::default()
    };
    let partial = run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
    assert!(partial.cancelled && partial.executed == 1);
    std::fs::write(
        manifest_path(&dir),
        format!("admitted {} mode=full\n", s.render_line()),
    )
    .unwrap();

    // Session 2: resume re-admits and finishes it.
    let mut cfg = test_config(dir.clone());
    cfg.resume = true;
    let report = run_service(&cfg, &[]).unwrap();
    assert_eq!(report.submissions.len(), 1);
    let SubmissionOutcome::Completed {
        digest,
        resumed,
        executed,
        ..
    } = report.submissions[0].outcome
    else {
        panic!("resumed submission should complete: {report:?}");
    };
    assert!(resumed >= 1, "completed batches must be skipped, not rerun");
    assert_eq!(resumed + executed, 4);
    assert_eq!(digest, reference, "resume must be bit-identical");

    // And the manifest now reports it done.
    let status = read_status(&dir).unwrap();
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].state, StatusState::Done(reference));
}

#[test]
fn read_status_tracks_terminal_states() {
    let dir = state_dir("status");
    let mut cfg = test_config(dir.clone());
    cfg.queue_capacity = 1;
    cfg.degrade_watermark = 1;
    let specs = vec![
        spec("bg", "low", 1, Priority::Low),
        spec("fg", "high", 1, Priority::High),
    ];
    let report = run_service(&cfg, &specs).unwrap();
    let SubmissionOutcome::Completed { digest, .. } = report.submissions[1].outcome else {
        panic!("high should complete: {report:?}");
    };
    let status = read_status(&dir).unwrap();
    assert_eq!(status.len(), 2);
    assert_eq!(status[0].state, StatusState::Shed);
    assert_eq!(status[1].state, StatusState::Done(digest));
}

#[test]
fn unusable_configs_are_rejected() {
    let dir = state_dir("badcfg");
    let mut cfg = test_config(dir.clone());
    cfg.devices = 0;
    assert!(matches!(
        run_service(&cfg, &[]),
        Err(ServeError::InvalidSpec(_))
    ));
    let mut cfg = test_config(dir);
    cfg.queue_capacity = 0;
    assert!(matches!(
        run_service(&cfg, &[]),
        Err(ServeError::InvalidSpec(_))
    ));
}

#[test]
fn resubmitting_a_finished_fleet_with_resume_is_idempotent() {
    let dir = state_dir("idem");
    let specs = vec![
        spec("alice", "a1", 2, Priority::Normal),
        spec("bob", "b1", 3, Priority::High),
    ];
    let mut cfg = test_config(dir);
    let first = run_service(&cfg, &specs).unwrap();
    assert!(first.all_completed(), "report: {first:?}");

    // Same command file again, now with --resume: nothing re-runs,
    // every submission reports its settled digest from the manifest.
    cfg.resume = true;
    let second = run_service(&cfg, &specs).unwrap();
    assert!(second.all_completed(), "report: {second:?}");
    assert_eq!(second.submissions.len(), specs.len());
    for (a, b) in first.submissions.iter().zip(&second.submissions) {
        let SubmissionOutcome::Completed { digest: da, .. } = a.outcome else {
            panic!("expected completion for {}/{}", a.tenant, a.id);
        };
        let SubmissionOutcome::Completed {
            digest: db,
            executed,
            ..
        } = b.outcome
        else {
            panic!("expected completion for {}/{}", b.tenant, b.id);
        };
        assert_eq!(da, db, "settled digest changed for {}/{}", a.tenant, a.id);
        assert_eq!(
            executed, 0,
            "resubmission re-executed {}/{}",
            b.tenant, b.id
        );
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A deterministic random fleet of tenant submissions: mixed
    /// families, shapes, priorities, and per-tenant fault seeds.
    fn random_fleet(seed: u64, tenants: usize) -> Vec<SubmitSpec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let families = ["ghz", "qft", "graph", "vqe"];
        (0..tenants)
            .map(|t| SubmitSpec {
                tenant: format!("t{t}"),
                id: format!("job{t}"),
                family: families[rng.gen_range(0usize..families.len())].into(),
                // The ring graph-state family needs at least 3 qubits.
                qubits: rng.gen_range(3usize..6),
                batches: rng.gen_range(1usize..4),
                batch_size: rng.gen_range(1usize..3),
                seed: rng.next_u64(),
                fault_seed: Some(rng.next_u64()),
                priority: match rng.gen_range(0u8..3) {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                },
                precision: bqsim_core::Precision::F64,
                deadline_ms: None,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The tentpole determinism property: any fleet of tenants with
        /// seeded fault plans, pushed through the concurrent service
        /// path — any device count, with or without a device loss —
        /// produces campaign digests bit-identical to submitting each
        /// campaign serially through `run_campaign`, and the recorded
        /// schedule always satisfies the analyzer's invariants.
        #[test]
        fn service_fleet_is_digest_identical_to_serial_submission(
            seed in 0u64..u64::MAX,
            tenants in 2usize..5,
            devices in 1usize..4,
            lose_a_device in 0u8..2,
        ) {
            let specs = random_fleet(seed, tenants);
            let dir = state_dir("prop");
            let mut cfg = test_config(dir);
            cfg.devices = devices;
            // Losing the only device leaves no survivors; inject loss
            // only when the fleet can absorb it.
            if lose_a_device == 1 && devices > 1 {
                cfg.device_loss = Some(DeviceLossSpec {
                    device: devices - 1,
                    after_starts: 1,
                });
            }
            let report = run_service(&cfg, &specs).unwrap();
            prop_assert!(report.all_completed(), "report: {report:?}");
            for (sub, s) in report.submissions.iter().zip(&specs) {
                let SubmissionOutcome::Completed { digest, .. } = sub.outcome else {
                    unreachable!()
                };
                prop_assert_eq!(
                    digest,
                    serial_digest(s),
                    "digest diverged for {}/{}",
                    &sub.tenant,
                    &sub.id
                );
            }
            let text = std::fs::read_to_string(&report.trace_path).unwrap();
            let events = parse_schedule_trace(&text).unwrap();
            let diags = check_service_schedule(&events);
            prop_assert!(diags.is_clean(), "schedule diagnostics: {diags:?}");
        }
    }
}

#[test]
fn fair_trace_satisfies_the_analyzer_on_mixed_priorities() {
    let dir = state_dir("fair");
    let mut cfg = test_config(dir);
    cfg.devices = 2;
    let specs = vec![
        spec("low", "l", 4, Priority::Low),
        spec("mid", "m", 4, Priority::Normal),
        spec("high", "h", 4, Priority::High),
    ];
    let report = run_service(&cfg, &specs).unwrap();
    assert!(report.all_completed(), "report: {report:?}");
    let text = std::fs::read_to_string(report.trace_path).unwrap();
    let events = parse_schedule_trace(&text).unwrap();
    let diags = check_service_schedule(&events);
    assert!(diags.is_clean(), "schedule diagnostics: {diags:?}");
}

#[test]
fn artifact_store_is_shared_across_tenants_and_sessions() {
    let store_dir = state_dir("artifact-store");
    let mut cfg = test_config(state_dir("artifact-s1"));
    cfg.artifact_dir = Some(store_dir.clone());
    // Both tenants submit the same ghz-3 circuit: within one session the
    // second admission must reuse the first one's published executable.
    let specs = vec![
        spec("alice", "a1", 2, Priority::Normal),
        spec("bob", "b1", 2, Priority::Normal),
    ];
    let cold = run_service(&cfg, &specs).unwrap();
    assert!(cold.all_completed(), "report: {cold:?}");
    assert_eq!(
        (cold.cold_compiles, cold.warm_compiles),
        (1, 1),
        "same circuit admitted twice should compile once: {cold:?}"
    );
    let stats = cold.store_stats.expect("store configured");
    assert_eq!((stats.published, stats.hits, stats.misses), (1, 1, 1));

    // A second session against the same store directory compiles nothing
    // and reproduces the cold session's digests bit for bit.
    let mut cfg2 = test_config(state_dir("artifact-s2"));
    cfg2.artifact_dir = Some(store_dir);
    let warm = run_service(&cfg2, &specs).unwrap();
    assert!(warm.all_completed(), "report: {warm:?}");
    assert_eq!((warm.cold_compiles, warm.warm_compiles), (0, 2));
    for (c, w) in cold.submissions.iter().zip(&warm.submissions) {
        let (
            SubmissionOutcome::Completed { digest: d_cold, .. },
            SubmissionOutcome::Completed { digest: d_warm, .. },
        ) = (&c.outcome, &w.outcome)
        else {
            panic!("both sessions should complete {}/{}", c.tenant, c.id);
        };
        assert_eq!(
            d_cold, d_warm,
            "warm digest diverged for {}/{}",
            c.tenant, c.id
        );
    }
}
