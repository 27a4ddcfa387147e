//! The team's "a scatter never spawns" property.
//!
//! This file must stay a **single-test binary**: the observable is
//! [`dve_par::threads_spawned`], a process-global counter, and any
//! concurrently running test that touches a parallel path would corrupt
//! the delta.

use dve_par::WorkerTeam;

#[test]
fn scatter_spawns_no_threads() {
    let team = WorkerTeam::new(4);
    let before = dve_par::threads_spawned();
    for _ in 0..100 {
        let jobs: Vec<_> = (0..4).map(|_| |w: usize| w).collect();
        team.scatter(jobs);
    }
    assert_eq!(dve_par::threads_spawned(), before);
}
