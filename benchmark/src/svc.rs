//! Starting a replay service over worker processes that re-execute this
//! binary.

use std::process::Command;
use std::time::{Duration, Instant};

use loopspec::dist::SvcStats;
use loopspec::svc::{Service, SvcConfig};

/// Worker processes per service: one per core of the 2-core reference
/// host.
pub const WORKERS: usize = 2;

/// Starts a service with [`WORKERS`] workers and `cache` cached reports,
/// and waits until every worker has answered the handshake. `obs_on`
/// sets the workers' `LOOPSPEC_OBS` telemetry switch.
pub fn spawn(cache: usize, obs_on: bool) -> Result<Service, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let service = Service::spawn_with(
        SvcConfig {
            workers: WORKERS,
            queue_limit: 64,
            cache_capacity: cache,
        },
        move |_| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--worker")
                .env("LOOPSPEC_OBS", if obs_on { "1" } else { "0" });
            cmd
        },
    )
    .map_err(|e| format!("service spawn: {e}"))?;
    let start = Instant::now();
    while service.stats().workers_idle < WORKERS as u64 {
        if start.elapsed() > Duration::from_secs(30) {
            return Err("workers did not finish the handshake within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(service)
}

/// Checks the service's two bookkeeping invariants.
pub fn invariants(stats: &SvcStats) -> Result<(), String> {
    if stats.submitted == stats.accepted + stats.rejected
        && stats.accepted == stats.completed + stats.failed + stats.in_flight
    {
        Ok(())
    } else {
        Err(format!("service counters out of balance: {stats:?}"))
    }
}
