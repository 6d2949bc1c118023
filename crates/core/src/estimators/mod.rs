//! Performance estimators — the paper's Section 5.2.
//!
//! * Stall elimination (Eq. 2): `Se = T / (T − M)`.
//! * Latency hiding (Eq. 4): `Sh = T / (T − min(A, M_L))`, refined per
//!   scope by Eq. 5: only active samples inside the optimized scope (and
//!   its nested scopes) can fill that scope's latency slots. Theorem 5.1:
//!   `Sh ≤ 2`.
//! * Parallel optimization (Eqs. 6–10): change of active warps per
//!   scheduler `CW = W_new / W` and of issue rate via
//!   `I = 1 − (1 − R_I)^W`, combined with an optimizer-specific factor.

/// Eq. 2 — the speedup of removing `matched` of `total` samples.
///
/// Saturates just below `total` so a pathological full match yields a
/// large-but-finite estimate.
pub fn stall_elimination_speedup(total: f64, matched: f64) -> f64 {
    if total <= 0.0 || matched <= 0.0 {
        return 1.0;
    }
    let m = matched.min(total * 0.999);
    total / (total - m)
}

/// Eq. 2 with a residual: the speedup of *shrinking* (not removing)
/// `matched` of `total` samples, leaving `residual · matched` behind —
/// the Theorem-5.1-style bound for memory-access rewrites that cannot
/// eliminate the access itself, only its serialization.
///
/// `S = T / (T − (1 − residual) · M)`, so the estimate is always between
/// 1 and the plain [`stall_elimination_speedup`] of the same match.
pub fn residual_elimination_speedup(total: f64, matched: f64, residual: f64) -> f64 {
    if total <= 0.0 || matched <= 0.0 {
        return 1.0;
    }
    let r = residual.clamp(0.0, 1.0);
    let m = (matched * (1.0 - r)).min(total * 0.999);
    total / (total - m)
}

/// Eq. 4 — latency hiding bounded by the kernel's active samples.
pub fn latency_hiding_speedup(total: f64, active: f64, matched_latency: f64) -> f64 {
    if total <= 0.0 || matched_latency <= 0.0 {
        return 1.0;
    }
    let reducible = active.min(matched_latency).min(total * 0.999);
    total / (total - reducible)
}

/// Eq. 5 — scope-limited latency hiding.
///
/// `scopes` holds `(active samples within the scope, matched latency
/// samples of the scope)` pairs for disjoint innermost scopes;
/// `global_active` caps the total (a sample cannot fill two slots).
pub fn scoped_latency_hiding_speedup(total: f64, global_active: f64, scopes: &[(f64, f64)]) -> f64 {
    if total <= 0.0 {
        return 1.0;
    }
    let per_scope: f64 = scopes.iter().map(|&(a, m)| a.min(m)).sum();
    let matched: f64 = scopes.iter().map(|&(_, m)| m).sum();
    let reducible = per_scope.min(global_active).min(matched).min(total * 0.999);
    if reducible <= 0.0 {
        return 1.0;
    }
    total / (total - reducible)
}

/// Inputs to the parallel-optimization estimator (Eqs. 6–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelParams {
    /// Active warps per scheduler before (`W`).
    pub w_old: f64,
    /// Active warps per scheduler after (`W_new`).
    pub w_new: f64,
    /// SMs with resident blocks before.
    pub busy_sms_old: f64,
    /// SMs with resident blocks after.
    pub busy_sms_new: f64,
    /// Mean fraction of active lanes per warp before.
    pub lane_eff_old: f64,
    /// Mean fraction of active lanes per warp after.
    pub lane_eff_new: f64,
    /// Optimizer-specific factor `f` of Eq. 10.
    pub factor: f64,
}

/// Eqs. 6–10 — speedup of changing the parallelism level.
///
/// `issue_ratio` is the measured scheduler issue probability (`I` of
/// Eq. 8, with `W = w_old` warps). The per-warp readiness `R_I` is
/// recovered by inverting Eq. 8, then Eq. 9 predicts the new issue rate.
/// Device throughput scales with busy SMs × issue rate; per-warp work
/// scales inversely with lane efficiency.
pub fn parallel_speedup(issue_ratio: f64, p: &ParallelParams) -> f64 {
    let i_old = issue_ratio.clamp(1e-6, 0.999_999);
    let w_old = p.w_old.max(1e-6);
    let w_new = p.w_new.max(1e-6);
    // Invert Eq. 8: R_I = 1 − (1 − I)^(1/W).
    let ri = 1.0 - (1.0 - i_old).powf(1.0 / w_old);
    // Eq. 9.
    let i_new = 1.0 - (1.0 - ri).powf(w_new);
    let thr_old = p.busy_sms_old.max(1e-6) * i_old;
    let thr_new = p.busy_sms_new.max(1e-6) * i_new;
    let lane = (p.lane_eff_new / p.lane_eff_old.max(1e-6)).max(1e-6);
    ((thr_new / thr_old) * lane * p.factor).clamp(0.05, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizers::{Estimator, OptimizerId};
    use proptest::prelude::*;

    #[test]
    fn eq2_examples() {
        // Removing 5.805% of samples → 1.062× (the Figure 8 headline).
        let s = stall_elimination_speedup(100_000.0, 5_805.0);
        assert!((s - 1.0616).abs() < 1e-3, "got {s}");
        assert_eq!(stall_elimination_speedup(100.0, 0.0), 1.0);
        assert!(stall_elimination_speedup(100.0, 100.0) > 100.0, "saturated, finite");
    }

    #[test]
    fn eq4_bounded_by_active() {
        // A = 10, L = 90, ML = 90: reducible capped at A.
        let s = latency_hiding_speedup(100.0, 10.0, 90.0);
        assert!((s - 100.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn eq5_scope_cap() {
        // One loop with few active samples caps its own matched latency.
        let s = scoped_latency_hiding_speedup(100.0, 60.0, &[(5.0, 30.0), (20.0, 10.0)]);
        // reducible = min(5,30) + min(20,10) = 15.
        assert!((s - 100.0 / 85.0).abs() < 1e-9);
    }

    proptest! {
        /// Theorem 5.1: latency-hiding speedups never exceed 2×.
        #[test]
        fn theorem_5_1_upper_bound(active in 0.0f64..1e6, latency in 0.0f64..1e6,
                                   matched in 0.0f64..1e6) {
            let total = active + latency;
            let ml = matched.min(latency); // matched latency samples ⊆ L
            let s = latency_hiding_speedup(total, active, ml);
            prop_assert!(s <= 2.0 + 1e-9, "Sh = {s}");
            prop_assert!(s >= 1.0);
        }

        /// Scoped estimates are never more optimistic than Eq. 4 when the
        /// matched latency is partitioned over the scopes.
        #[test]
        fn scoped_never_exceeds_global(active in 1.0f64..1e6, latency in 1.0f64..1e6,
                                       a1 in 0.0f64..1e5, split in 0.0f64..1.0,
                                       a2 in 0.0f64..1e5, m in 0.0f64..1e6) {
            let total = active + latency;
            let ml = m.min(latency);
            let (m1, m2) = (ml * split, ml * (1.0 - split));
            let scoped = scoped_latency_hiding_speedup(
                total, active, &[(a1.min(active), m1), (a2.min(active), m2)]);
            let global = latency_hiding_speedup(total, active, ml);
            prop_assert!(scoped <= global + 1e-9, "{scoped} > {global}");
            prop_assert!(scoped >= 1.0);
        }

        /// Elimination speedups are finite and at least 1.
        #[test]
        fn elimination_sane(total in 1.0f64..1e9, matched in 0.0f64..1e9) {
            let s = stall_elimination_speedup(total, matched);
            prop_assert!(s >= 1.0 && s.is_finite());
        }

        /// Theorem 5.1, per the paper's bound: whenever the active
        /// samples are at most half the total (`A ≤ T/2`), latency
        /// hiding cannot exceed 2× — for the global estimator (Eq. 4)
        /// and for any scope partition (Eq. 5).
        #[test]
        fn theorem_5_1_when_active_at_most_half(total in 1.0f64..1e9,
                                                active_frac in 0.0f64..0.5,
                                                matched in 0.0f64..1e9,
                                                split in 0.0f64..1.0,
                                                a1_frac in 0.0f64..1.0) {
            let active = total * active_frac;
            let s = latency_hiding_speedup(total, active, matched);
            prop_assert!(s <= 2.0 + 1e-9, "Eq. 4: Sh = {s}");
            let a1 = active * a1_frac;
            let scoped = scoped_latency_hiding_speedup(
                total, active, &[(a1, matched * split), (active - a1, matched * (1.0 - split))]);
            prop_assert!(scoped <= 2.0 + 1e-9, "Eq. 5: Sh = {scoped}");
        }

        /// Every estimator's speedup is at least 1 (fixing an
        /// inefficiency never predicts a slowdown), and at least as much
        /// for the parallel model whenever the proposed configuration
        /// weakly dominates the old one.
        #[test]
        fn all_estimators_at_least_one(total in 1.0f64..1e9, matched in 0.0f64..1e9,
                                       active in 0.0f64..1e9,
                                       a1 in 0.0f64..1e6, m1 in 0.0f64..1e6,
                                       a2 in 0.0f64..1e6, m2 in 0.0f64..1e6,
                                       i in 0.01f64..0.95, w in 1.0f64..16.0,
                                       dw in 0.0f64..8.0, dsm in 0.0f64..64.0,
                                       dlane in 0.0f64..0.5, dfactor in 0.0f64..1.0) {
            prop_assert!(stall_elimination_speedup(total, matched) >= 1.0);
            prop_assert!(latency_hiding_speedup(total, active, matched) >= 1.0);
            prop_assert!(scoped_latency_hiding_speedup(total, active, &[(a1, m1), (a2, m2)]) >= 1.0);
            let p = ParallelParams {
                w_old: w, w_new: w + dw,
                busy_sms_old: 16.0, busy_sms_new: 16.0 + dsm,
                lane_eff_old: 0.5, lane_eff_new: 0.5 + dlane,
                factor: 1.0 + dfactor,
            };
            prop_assert!(parallel_speedup(i, &p) >= 1.0 - 1e-9,
                         "a weakly dominating configuration never predicts a slowdown");
        }

        /// Saturation at full match: the estimators stay finite and
        /// monotone as the matched samples approach (and reach) the
        /// total, instead of diverging at `M = T`.
        #[test]
        fn saturation_at_full_match(total in 1.0f64..1e9, over in 0.0f64..2.0) {
            let full = stall_elimination_speedup(total, total);
            prop_assert!(full.is_finite() && full >= 999.0, "saturated but finite: {full}");
            // Over-matching (M > T, a matcher double-counting) cannot
            // exceed the saturated estimate.
            let overshoot = stall_elimination_speedup(total, total * (1.0 + over));
            prop_assert!(overshoot.is_finite() && (overshoot - full).abs() < 1e-6);
            // Latency hiding saturates at the active bound instead.
            let h = latency_hiding_speedup(total, total, total);
            prop_assert!(h.is_finite() && h >= 999.0);
            // And monotonicity in the matched share holds up to the cap.
            let half = stall_elimination_speedup(total, total * 0.5);
            prop_assert!(half <= full && half >= 1.0);
        }

        /// Residual elimination is sane: `1 ≤ S_res ≤ Se` for any
        /// residual, monotone in the matched share, and degenerates to
        /// Eq. 2 at residual 0 and to 1 at residual 1.
        #[test]
        fn residual_elimination_bounded_by_eq2(total in 1.0f64..1e9, matched in 0.0f64..1e9,
                                               residual in 0.0f64..1.0, grow in 1.0f64..4.0) {
            let s = residual_elimination_speedup(total, matched, residual);
            let se = stall_elimination_speedup(total, matched);
            prop_assert!(s >= 1.0 && s.is_finite());
            prop_assert!(s <= se + 1e-9, "residual {s} exceeds plain elimination {se}");
            prop_assert!(residual_elimination_speedup(total, matched * grow, residual) >= s - 1e-9,
                         "monotone in matched");
            let zero = residual_elimination_speedup(total, matched, 0.0);
            prop_assert!((zero - se).abs() <= 1e-9 * se);
            prop_assert!((residual_elimination_speedup(total, matched, 1.0) - 1.0).abs() < 1e-12);
        }

        /// The residuals the memory-hierarchy rows of Table 2 name
        /// satisfy S ≥ 1 and the residual bound.
        #[test]
        fn memory_estimators_at_least_one(total in 1.0f64..1e9, matched in 0.0f64..1e9) {
            let residual_of = |id: OptimizerId| match id.row().estimator {
                Estimator::Residual(r) => r,
                other => panic!("{id} names {other:?}"),
            };
            let coalescing = residual_elimination_speedup(
                total, matched, residual_of(OptimizerId::MemoryCoalescing));
            let bank_conflict = residual_elimination_speedup(
                total, matched, residual_of(OptimizerId::BankConflictResolution));
            for s in [coalescing, bank_conflict] {
                prop_assert!(s >= 1.0 && s.is_finite());
                prop_assert!(s <= stall_elimination_speedup(total, matched) + 1e-9);
            }
            // The bank-conflict residual is smaller, so its estimate for
            // the same match is at least the coalescing one.
            prop_assert!(bank_conflict >= coalescing - 1e-9);
        }

        /// More warps never predict a slowdown (all else equal).
        #[test]
        fn parallel_monotone_in_warps(i in 0.01f64..0.95, w in 1.0f64..16.0, dw in 0.0f64..8.0) {
            let base = ParallelParams {
                w_old: w, w_new: w, busy_sms_old: 10.0, busy_sms_new: 10.0,
                lane_eff_old: 1.0, lane_eff_new: 1.0, factor: 1.0,
            };
            let same = parallel_speedup(i, &base);
            let more = parallel_speedup(i, &ParallelParams { w_new: w + dw, ..base });
            prop_assert!((same - 1.0).abs() < 1e-6);
            prop_assert!(more >= same - 1e-9);
        }
    }

    #[test]
    fn parallel_block_increase_example() {
        // PeleC-like: 16 blocks on 80 SMs → 32 blocks: busy SMs double but
        // warps per scheduler halve; the net gain depends on saturation.
        let p = ParallelParams {
            w_old: 8.0,
            w_new: 4.0,
            busy_sms_old: 16.0,
            busy_sms_new: 32.0,
            lane_eff_old: 1.0,
            lane_eff_new: 1.0,
            factor: 1.0,
        };
        let s = parallel_speedup(0.4, &p);
        assert!(s > 1.0 && s < 2.0, "moderate gain, got {s}");
    }
}
