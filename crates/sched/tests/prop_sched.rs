//! Property-based tests for the scheduler: every submitted job runs
//! exactly once, under every policy, for arbitrary job mixes.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_sched::{Job, JobKind, Policy, SchedConfig, Scheduler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct JobSpecT {
    demand: bool,
    deadline: u64,
    work: u64,
    affinity: Option<u64>,
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpecT>> {
    prop::collection::vec(
        (any::<bool>(), 0u64..100, 0u64..50, any::<bool>(), 0u64..8).prop_map(
            |(demand, deadline, work, pin, key)| JobSpecT {
                demand,
                deadline,
                work,
                affinity: pin.then_some(key),
            },
        ),
        1..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_job_runs_exactly_once(
        jobs in arb_jobs(),
        threads in 1usize..6,
        reserved in 0usize..3,
        fifo in any::<bool>(),
        pressure in 0.0f64..1.0,
    ) {
        let sched = Scheduler::new(SchedConfig {
            threads,
            policy: if fifo { Policy::Fifo } else { Policy::Priority },
            reserved_demand_threads: reserved,
        });
        sched.set_memory_pressure(pressure);
        let counters: Vec<Arc<AtomicUsize>> =
            (0..jobs.len()).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for (spec, counter) in jobs.iter().zip(counters.iter()) {
            let c = Arc::clone(counter);
            sched.submit(Job {
                kind: if spec.demand { JobKind::Demand } else { JobKind::PreMaterialize },
                deadline: spec.deadline,
                remaining_work: spec.work,
                affinity: spec.affinity,
                tenant: None,
                run: Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            });
        }
        sched.wait_idle();
        for (i, c) in counters.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::SeqCst), 1, "job {} ran wrong number of times", i);
        }
        let stats = sched.stats();
        let demand = jobs.iter().filter(|j| j.demand).count() as u64;
        prop_assert_eq!(stats.demand_served, demand);
        prop_assert_eq!(stats.pre_served, jobs.len() as u64 - demand);
        sched.shutdown();
    }

    #[test]
    fn pressure_toggling_mid_run_is_safe(jobs in arb_jobs()) {
        let sched = Scheduler::new(SchedConfig { threads: 3, ..Default::default() });
        let done = Arc::new(AtomicUsize::new(0));
        for (i, spec) in jobs.iter().enumerate() {
            let d = Arc::clone(&done);
            sched.submit(Job {
                kind: JobKind::PreMaterialize,
                deadline: spec.deadline,
                remaining_work: spec.work,
                affinity: spec.affinity,
                tenant: None,
                run: Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            });
            if i % 3 == 0 {
                sched.set_memory_pressure(if i % 2 == 0 { 0.95 } else { 0.1 });
            }
        }
        sched.wait_idle();
        prop_assert_eq!(done.load(Ordering::SeqCst), jobs.len());
        sched.shutdown();
    }
}
