//! Empirical evidence for the cross-stage soundness refinement of
//! Algorithm 2 (DESIGN.md §3a.1).
//!
//! With layer mirroring, a shared layer can sit at another stage in the
//! earlier subnet's partition than in the later subnet's. The write then
//! lands in the earlier subnet's backward at that stage, which can end
//! after its backward at the reader's stage: always for an earlier stage
//! (the backward wave runs towards stage 0), and for a later one when the
//! reader's stage finishes first (a backward hands its gradient down
//! before its weight update). The paper's purely stage-local
//! finished-list check would admit the read at that point; our scheduler
//! waits for the owner stage. This experiment counts, over a real
//! mirrored schedule, the forward tasks whose start was gated by the
//! refined requirement while the local requirement had already cleared —
//! each one a stale read the local check would have permitted.

use crate::experiments::simulate;
use crate::format::render_table;
use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::PipelineOutcome;
use naspipe_core::task::TaskKind;
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::collections::BTreeMap;

/// The analysis result for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundnessReport {
    /// Forward tasks analysed.
    pub forwards: usize,
    /// Forward tasks having at least one cross-stage-owned shared layer.
    pub cross_stage_shared: usize,
    /// Forward tasks whose start waited on the refined (owner-stage)
    /// requirement *after* the local requirement had cleared — stale
    /// reads a purely local check would have admitted.
    pub stale_reads_prevented: usize,
}

/// Analyses a mirrored CSP run of `n` subnets on `id` (8 GPUs).
pub fn run(id: SpaceId, n: u64) -> SoundnessReport {
    let space = SearchSpace::from_id(id);
    let cfg = PipelineConfig::naspipe(8, n);
    let out = simulate(&space, &cfg).expect("fits");
    analyse(&out)
}

/// The offline analysis over a finished schedule.
pub(crate) fn analyse(out: &PipelineOutcome) -> SoundnessReport {
    // Index: backward end time per (subnet, stage), block owner per
    // (subnet, block), forward tasks.
    let mut bwd_end: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut owner: BTreeMap<(u64, usize), u32> = BTreeMap::new();
    for t in &out.tasks {
        match t.kind {
            TaskKind::Backward => {
                bwd_end.insert((t.subnet.0, t.stage.0), t.end.as_us());
            }
            TaskKind::Forward => {
                for b in t.blocks.clone() {
                    owner.insert((t.subnet.0, b), t.stage.0);
                }
            }
        }
    }
    let arch: BTreeMap<u64, &naspipe_supernet::subnet::Subnet> =
        out.subnets.iter().map(|s| (s.seq_id().0, s)).collect();

    let mut forwards = 0;
    let mut cross_stage_shared = 0;
    let mut stale_reads_prevented = 0;
    for t in out.tasks.iter().filter(|t| t.kind == TaskKind::Forward) {
        forwards += 1;
        let y = t.subnet.0;
        let k = t.stage.0;
        let my = arch[&y];
        let mut local_req = 0u64; // latest bwd@k end over sharers
        let mut refined_req = 0u64; // latest owner-stage write end
        let mut has_cross = false;
        for (&x, other) in arch.range(..y) {
            for b in t.blocks.clone() {
                if b >= other.num_layers() || my.choices()[b] != other.choices()[b] {
                    continue;
                }
                let s_x = owner.get(&(x, b)).copied().unwrap_or(k);
                if s_x != k {
                    has_cross = true;
                }
                local_req = local_req.max(bwd_end[&(x, k)]);
                refined_req = refined_req.max(bwd_end[&(x, s_x)]);
            }
        }
        if has_cross {
            cross_stage_shared += 1;
        }
        // The refined scheduler never starts before the owner write:
        assert!(
            t.start.as_us() >= refined_req,
            "scheduler bug: {} started before a shared write finished",
            t.subnet
        );
        // A stale read was prevented if the local requirement had already
        // cleared when the (later) refined requirement gated the start.
        if refined_req > local_req && t.start.as_us() < refined_req + 1_000 {
            stale_reads_prevented += 1;
        }
    }
    SoundnessReport {
        forwards,
        cross_stage_shared,
        stale_reads_prevented,
    }
}

/// Renders the report.
pub fn render(r: &SoundnessReport) -> String {
    render_table(
        &[
            "Forward tasks",
            "w/ cross-stage shared layer",
            "Stale reads prevented",
        ],
        &[vec![
            r.forwards.to_string(),
            r.cross_stage_shared.to_string(),
            r.stale_reads_prevented.to_string(),
        ]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_runs_have_cross_stage_sharing() {
        let r = run(SpaceId::NlpC3, 96);
        assert!(r.forwards > 0);
        assert!(
            r.cross_stage_shared > 0,
            "mirrored partitions should shift shared layers across stages"
        );
    }

    #[test]
    fn refined_check_never_violated() {
        // `analyse` asserts internally that no forward started before a
        // shared owner-stage write; this test exercises that assertion
        // over a conflict-heavy space.
        let r = run(SpaceId::CvC3, 64);
        assert!(r.forwards == 64 * 8);
    }
}
