//! Chaos tests: deterministic fault schedules, and crash/resume exactness
//! at *every* possible crash point of a small fixed instance, for each of
//! the paper's three drivers.
//!
//! These are the test-suite counterparts of experiment E9 (see
//! EXPERIMENTS.md): E9 samples crash points across a larger run inside the
//! `reproduce` harness; here the instances are small enough to kill the
//! machine at literally every charged block transfer — including the
//! graph-load preamble — and assert that recovery still delivers the
//! oracle's triangle multiset exactly once.

use emsim::{CrashPoint, EmConfig, FaultPlan, Machine, RetryPolicy};
use graphgen::{generators, naive, Graph, Triangle};
use proptest::prelude::*;
use trienum::{
    enumerate_triangles_with_recovery, resume_enumeration, Algorithm, Checkpoint, CheckpointSpec,
    CollectingSink,
};

/// The paper's three drivers; the deterministic one with a small candidate
/// family so the debug-build sweeps stay fast.
fn paper_driver(index: usize, seed: u64) -> Algorithm {
    [
        Algorithm::CacheAwareRandomized { seed },
        Algorithm::CacheObliviousRandomized { seed },
        Algorithm::DeterministicCacheAware {
            family_seed: seed,
            candidates: Some(8),
        },
    ][index]
}

/// Swallows the `CrashPoint` panics the sweep raises on purpose (hundreds of
/// them) while letting every real panic through to the previous hook.
fn silence_simulated_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                previous(info);
            }
        }));
    });
}

fn transient_plan(seed: u64, read_per_mille: u32, torn_per_mille: u32) -> FaultPlan {
    FaultPlan::new(seed)
        .with_read_faults(read_per_mille)
        .with_torn_writes(torn_per_mille)
        .with_retry(RetryPolicy::new(6, 4))
}

/// One full faulty (but crash-free) run; returns everything that must be
/// reproducible: the emissions, the cost counters and the fault trace.
fn faulty_run(
    g: &Graph,
    cfg: EmConfig,
    alg: Algorithm,
    plan: FaultPlan,
) -> (Vec<Triangle>, u64, u64, u64, Vec<emsim::FaultEvent>) {
    let machine = Machine::with_faults(cfg, plan);
    let mut sink = CollectingSink::new();
    enumerate_triangles_with_recovery(g, &machine, alg, &mut sink, None);
    let stats = machine.stats();
    (
        sink.into_triangles(),
        stats.io.total(),
        stats.retry_io,
        stats.retry_work,
        machine.fault_trace(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The fault schedule is a pure function of the plan: the same seed and
    // rates over the same run reproduce the identical fault trace, retry
    // counters and emissions — chaos tests never flake. (Plain comments:
    // the proptest shim's macro does not match doc attributes.)
    #[test]
    fn fault_schedules_are_deterministic(
        driver in 0usize..3,
        fault_seed in 0u64..10_000,
        read in 0u32..80,
        torn in 0u32..80,
    ) {
        let g = generators::erdos_renyi(40, 240, 5);
        let cfg = EmConfig::new(256, 16);
        let alg = paper_driver(driver, 13);
        let a = faulty_run(&g, cfg, alg, transient_plan(fault_seed, read, torn));
        let b = faulty_run(&g, cfg, alg, transient_plan(fault_seed, read, torn));
        prop_assert_eq!(&a.0, &b.0, "emission sequences diverged");
        prop_assert_eq!(a.1, b.1, "charged I/O diverged");
        prop_assert_eq!(a.2, b.2, "retry_io diverged");
        prop_assert_eq!(a.3, b.3, "retry_work diverged");
        prop_assert_eq!(&a.4, &b.4, "fault traces diverged");
        // And faults never change what is enumerated, only what it costs.
        prop_assert_eq!(a.0.len() as u64, naive::count_triangles(&g));
    }

    // A different fault seed at non-trivial rates yields a different
    // schedule (the trace is seed-sensitive, not rate-only).
    #[test]
    fn fault_schedules_are_seed_sensitive(fault_seed in 0u64..10_000) {
        let g = generators::erdos_renyi(40, 240, 5);
        let cfg = EmConfig::new(256, 16);
        let alg = paper_driver(1, 13);
        let a = faulty_run(&g, cfg, alg, transient_plan(fault_seed, 60, 60));
        let b = faulty_run(&g, cfg, alg, transient_plan(fault_seed + 1, 60, 60));
        prop_assert_eq!(a.0.len(), b.0.len(), "faults must not change the output");
        prop_assert_ne!(&a.4, &b.4, "distinct seeds produced the identical fault trace");
    }
}

/// Kills the machine at every single charged block transfer of a small fixed
/// instance — graph-load preamble included — for each of the paper's three
/// drivers, resumes each crash from its surviving checkpoint (or from
/// scratch when it died before the first one), and asserts the exactly-once
/// multiset and a leak-free gauge every time.
///
/// The cache-oblivious run (857 transfers at `M = 128`) claims 60 units.
/// The cache-aware drivers run at `M = 64`, where `c = 2` colours give four
/// pivot-pair units; their colouring and partition phases come before the
/// first unit, so only crashes in step 3 resume from a checkpoint. The
/// randomized one is killed at all of its 450 transfers; the deterministic
/// one, whose greedy colouring makes each run ~10× slower in a debug build,
/// at every 5th of its 1 328.
#[test]
fn kill_at_every_block_resumes_to_the_exact_multiset() {
    silence_simulated_crash_panics();
    let g = generators::erdos_renyi(32, 180, 3);
    let mut oracle = naive::enumerate_triangles(&g);
    oracle.sort_unstable();
    let scratch = std::env::temp_dir().join(format!("trienum-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("creating the chaos scratch directory");

    for driver in 0..3 {
        let alg = paper_driver(driver, 21);
        let (cfg, stride) = match alg {
            Algorithm::CacheObliviousRandomized { .. } => (EmConfig::new(128, 16), 1),
            Algorithm::DeterministicCacheAware { .. } => (EmConfig::new(64, 16), 5),
            _ => (EmConfig::new(64, 16), 1),
        };
        // Reference: fault-free, same entry point.
        let reference = Machine::new(cfg);
        let mut oracle_sink = CollectingSink::new();
        enumerate_triangles_with_recovery(&g, &reference, alg, &mut oracle_sink, None);
        let total_transfers = reference.transfers();
        assert_eq!(oracle_sink.len(), oracle.len(), "{alg:?}");
        // Small enough that several checkpoints land inside the run.
        let interval_io = 8;
        let mut resumed_past_a_unit = 0u64;

        for crash_at in (0..total_transfers).step_by(stride) {
            let ckpt_path = scratch.join(format!("kill-{driver}-{crash_at}.ckpt"));
            let spec = CheckpointSpec {
                path: ckpt_path.clone(),
                interval_io,
            };
            let plan = FaultPlan::new(crash_at).with_crash_at(crash_at);
            let crashed = Machine::with_faults(cfg, plan);
            let mut collected = CollectingSink::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                enumerate_triangles_with_recovery(&g, &crashed, alg, &mut collected, Some(&spec))
            }));
            let payload = outcome.expect_err("the kill switch must fire inside the run");
            if payload.downcast_ref::<CrashPoint>().is_none() {
                std::panic::resume_unwind(payload);
            }
            assert_eq!(
                crashed.gauge().in_use(),
                0,
                "{alg:?} kill@{crash_at}: leases leaked across the crash unwind"
            );

            let resume_machine = Machine::new(cfg);
            if ckpt_path.exists() {
                let ck = Checkpoint::load(&ckpt_path).expect("loading the surviving checkpoint");
                assert_eq!(
                    ck.hwm,
                    collected.len() as u64,
                    "{alg:?} kill@{crash_at}: checkpoint high-water mark disagrees with the \
                     committed count"
                );
                resumed_past_a_unit += u64::from(ck.units_done >= 1);
                resume_enumeration(&g, &resume_machine, alg, &ck, &mut collected, None);
            } else {
                assert!(
                    collected.is_empty(),
                    "{alg:?} kill@{crash_at}: triangles committed although no checkpoint was \
                     written"
                );
                enumerate_triangles_with_recovery(&g, &resume_machine, alg, &mut collected, None);
            }
            assert_eq!(
                resume_machine.gauge().in_use(),
                0,
                "{alg:?} kill@{crash_at}: leases leaked by the resumed run"
            );

            let mut got = collected.into_triangles();
            got.sort_unstable();
            assert_eq!(
                got, oracle,
                "{alg:?} kill@{crash_at}: the recovered multiset differs from the oracle"
            );
        }

        // The sweep must actually exercise the resume path, not just reruns.
        assert!(
            resumed_past_a_unit > 0,
            "{alg:?}: no crash point resumed from a checkpoint that skips a unit — interval \
             too coarse?"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
