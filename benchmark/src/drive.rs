//! The timed section: a closed loop on one connection at a time, cut
//! into blocks of equal op count, ended by the clock.
//!
//! Inside a block the generator sends pre-rendered frames with
//! `request_line`, compares length and fingerprint, and pushes one
//! latency into a pre-sized vector — no parsing, allocation of its own,
//! logging or `status` call. Wall and process-CPU time are read once per
//! block.

use crate::stats::Block;
use crate::sys::process_cpu_ns;
use crate::trace::{SpanLog, NO_JOB};
use crate::workload::{Fixture, WaveOrder};
use gpa_serve::ServeClient;
use rand::{SeedableRng, StdRng};
use std::time::Instant;

/// Fewer blocks than this fill the time only when fewer ops do.
pub const MIN_BLOCKS: usize = 12;

/// How many blocks of how many ops a section runs at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub blocks: usize,
    pub ops_per_block: usize,
}

impl Plan {
    /// Blocks of equal op count for a section of `seconds` at
    /// `op_seconds` per op: sized so that one more than [`MIN_BLOCKS`]
    /// fill the time when that many ops fit, because the clock ends the
    /// section before the block that would overrun it. The block count
    /// here is therefore only room: twice what should fit, for a host
    /// that turns out faster than the warm-up saw.
    pub fn fit(seconds: f64, op_seconds: f64) -> Plan {
        let ops = ((seconds / op_seconds) as usize).max(1);
        let ops_per_block = (ops / (MIN_BLOCKS + 1)).max(1);
        Plan { blocks: 2 * (ops / ops_per_block), ops_per_block }
    }

    pub fn ops(self) -> usize {
        self.blocks * self.ops_per_block
    }
}

/// What one timed section measured.
pub struct Timed {
    /// One latency per op, in nanoseconds (an op longer than 4.29 s
    /// saturates; the longest op today is a 0.9 s wave).
    pub lat_ns: Vec<u32>,
    pub blocks: Vec<Block>,
    pub failed: u64,
    /// With tracing on, one span per op and per request under it.
    pub spans: Option<SpanLog>,
}

impl Timed {
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }
}

/// Runs `plan` against the fixture's daemon on one connection at a time.
/// With `seconds`, stops before the first block that would end later than
/// that (going by the block before it): however the host's speed drifts
/// after the warm-up, the section measures for `seconds` and no longer.
/// With `trace_epoch`, each op and request is also recorded as a span
/// (the traced variant whose cost `trace.overhead_pct` reports).
pub fn run(
    fixture: &Fixture,
    plan: Plan,
    seed: u64,
    seconds: Option<f64>,
    trace_epoch: Option<Instant>,
) -> Result<Timed, String> {
    let slots = fixture.slots;
    let wave = if fixture.workload.op_is_wave() { slots.len() } else { 1 };
    let mut order = WaveOrder::new(StdRng::seed_from_u64(seed), slots.len());
    let mut run = Timed {
        lat_ns: Vec::with_capacity(plan.ops()),
        blocks: Vec::with_capacity(plan.blocks),
        failed: 0,
        spans: trace_epoch.map(|epoch| SpanLog::with_capacity(epoch, plan.ops() * (wave + 1))),
    };
    let mut kept_open = if fixture.workload.op_is_wave() {
        Some(ServeClient::connect(fixture.addr).map_err(|e| format!("connect: {e}"))?)
    } else {
        None
    };
    let started = Instant::now();
    for _ in 0..plan.blocks {
        let next_ends = run.blocks.last().map_or(0.0, |b: &Block| b.wall_ns as f64 / 1e9)
            + started.elapsed().as_secs_f64();
        if seconds.is_some_and(|limit| next_ends > limit) {
            break;
        }
        let (wall, cpu) = (Instant::now(), process_cpu_ns());
        for _ in 0..plan.ops_per_block {
            let start = Instant::now();
            let op = run.spans.as_mut().map(|log| log.open("client.op", NO_JOB, None));
            let ok = match &mut kept_open {
                Some(client) => {
                    let mut ok = true;
                    for &i in order.next_wave() {
                        let sent =
                            run.spans.as_mut().map(|log| log.open("client.request", i as u32, op));
                        let line = client.request_line(&slots[i].frame);
                        let line = line.map_err(|e| format!("{}: {e}", slots[i].job))?;
                        ok &= slots[i].matches(line);
                        if let (Some(log), Some(sent)) = (&mut run.spans, sent) {
                            log.close(sent);
                        }
                    }
                    ok
                }
                // A failed dial or exchange is a failed op, never a retry.
                None => {
                    let slot = &slots[order.next_key()];
                    ServeClient::connect(fixture.addr)
                        .and_then(|mut c| c.request_line(&slot.frame).map(|l| slot.matches(l)))
                        .unwrap_or(false)
                }
            };
            if let (Some(log), Some(op)) = (&mut run.spans, op) {
                log.close(op);
            }
            let ns = start.elapsed().as_nanos();
            run.lat_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            run.failed += u64::from(!ok);
        }
        run.blocks.push(Block {
            ops: plan.ops_per_block as u64,
            wall_ns: wall.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns() - cpu,
        });
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_twelve_blocks_of_equal_op_count_fill_the_time() {
        // A 0.86 s wave in 30 s: 34 waves fit, two per block, 17 blocks
        // (and room for as many again).
        assert_eq!(Plan::fit(30.0, 0.86), Plan { blocks: 34, ops_per_block: 2 });
        // A 30 ms wave: 1000 fit, 76 per block, 13 blocks.
        assert_eq!(Plan::fit(30.0, 0.030), Plan { blocks: 26, ops_per_block: 76 });
        for (seconds, op) in [(30.0, 0.86), (30.0, 0.9), (30.0, 0.03), (30.0, 140e-6), (1.0, 0.86)]
        {
            let plan = Plan::fit(seconds, op);
            let fill = plan.blocks / 2;
            assert!(plan.ops_per_block >= 1 && fill >= 1);
            assert!(fill > MIN_BLOCKS || plan.ops_per_block == 1, "{plan:?}");
            assert!((fill * plan.ops_per_block) as f64 * op <= seconds || fill == 1, "{plan:?}");
            assert_eq!(plan.ops() % plan.blocks, 0);
        }
    }
}
