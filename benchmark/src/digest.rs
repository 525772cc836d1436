//! Output digests and the in-process single-pass reference they are
//! checked against.

use loopspec::core::snap::Enc;
use loopspec::core::SnapshotState;
use loopspec::cpu::RunLimits;
use loopspec::dist::{JobSpec, LaneReport, LaneSpec, Report};
use loopspec::isa::snap::fnv1a;
use loopspec::pipeline::Session;

/// Canonical bytes of a lane report.
pub fn put_lane(enc: &mut Enc, lane: &LaneReport) {
    enc.bytes(lane.policy.as_bytes());
    enc.u64(lane.tus);
    enc.u64(lane.instructions);
    enc.u64(lane.cycles);
    for v in lane.spec {
        enc.u64(v);
    }
}

/// Canonical bytes of everything a report determines: the instruction
/// count, every lane and the serialized grid state. The job id is left
/// out (a cached report carries `0`).
pub fn report_bytes(report: &Report) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(report.instructions);
    enc.u64(report.lanes.len() as u64);
    for lane in &report.lanes {
        put_lane(&mut enc, lane);
    }
    enc.bytes(&report.state);
    enc.into_bytes()
}

/// The 64-bit digest of a report.
pub fn of_report(report: &Report) -> u64 {
    fnv1a(&report_bytes(report))
}

/// `Ok` when `got` hashes to `want`; otherwise a message naming `what`.
pub fn check(what: &str, want: u64, got: u64) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x} differs from the reference {want:016x}"
        ))
    }
}

/// The single-pass reference for `spec`: one uninterrupted [`Session`]
/// over the spec's lane grid, packaged like a worker's [`Report`].
pub fn single_pass(spec: &JobSpec) -> Result<Report, String> {
    let program = loopspec::workloads::build_named(&spec.workload, spec.scale)
        .ok_or_else(|| format!("unknown workload {}", spec.workload))?
        .map_err(|e| format!("{}: {e}", spec.workload))?;
    let mut grid = LaneSpec::build_grid(&spec.lane_specs()).map_err(|e| e.to_string())?;
    let summary = {
        let mut session = Session::new();
        session.observe_checkpointable(&mut grid);
        session
            .run(&program, RunLimits::with_fuel(spec.total_fuel))
            .map_err(|e| format!("{}: {e}", spec.workload))?
    };
    grid_report(&grid, summary.instructions)
}

/// A finished grid as a [`Report`] (job id `0`).
pub fn grid_report(grid: &loopspec::mt::EngineGrid, instructions: u64) -> Result<Report, String> {
    let lanes = grid
        .reports()
        .ok_or("the grid did not see the end of the stream")?
        .iter()
        .map(Into::into)
        .collect();
    let mut enc = Enc::new();
    grid.save_state(&mut enc);
    Ok(Report {
        job: 0,
        instructions,
        lanes,
        state: enc.into_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            job: 9,
            instructions: 1234,
            lanes: vec![LaneReport {
                policy: "STR".into(),
                tus: 4,
                instructions: 1234,
                cycles: 600,
                spec: [1, 2, 3, 4, 5, 6, 7],
            }],
            state: (0..64).collect(),
        }
    }

    #[test]
    fn any_single_flipped_byte_is_rejected() {
        let report = sample();
        let bytes = report_bytes(&report);
        let want = fnv1a(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert!(check("sample", want, fnv1a(&flipped)).is_err(), "byte {i}");
        }
        assert!(check("sample", want, of_report(&report)).is_ok());
    }

    #[test]
    fn flipped_state_and_lane_fields_change_the_digest() {
        let report = sample();
        let want = of_report(&report);
        let mut state = report.clone();
        state.state[17] ^= 0x80;
        assert!(check("state", want, of_report(&state)).is_err());
        let mut lane = report.clone();
        lane.lanes[0].cycles += 1;
        assert!(check("lane", want, of_report(&lane)).is_err());
        // The job id is not part of the digest: cached reports carry 0.
        let mut cached = report;
        cached.job = 0;
        assert!(check("job", want, of_report(&cached)).is_ok());
    }

    #[test]
    fn single_pass_reference_is_deterministic() {
        let spec = JobSpec::new("compress")
            .lanes([LaneSpec::Str { tus: 4 }])
            .total_fuel(20_000);
        let a = single_pass(&spec).unwrap();
        let b = single_pass(&spec).unwrap();
        assert_eq!(of_report(&a), of_report(&b));
        assert_eq!(a.instructions, 20_000);
    }
}
