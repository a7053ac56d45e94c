"""Automated verification of the paper's published claims.

Each claim from the paper's evaluation (§II's motivating numbers and
§IV's figures) is encoded as a predicate over freshly computed results;
``run_paper_check`` evaluates all of them and reports PASS/FAIL per
claim.  This is the reproduction's conscience: if a refactor breaks a
published shape, ``ccf verify`` says so in one screen.

Scale note: the claims about *shapes and ratios* are scale-invariant for
the analytic workload, so verification runs at a reduced scale factor by
default (minutes -> seconds) -- pass ``scale_factor=600`` for the full
paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.engine import run_sweep
from repro.experiments.figures import (
    SweepConfig,
    fig5_sweep,
    fig6_sweep,
    fig7_sweep,
)
from repro.experiments.motivating import MotivatingExample
from repro.experiments.tables import ResultTable

__all__ = ["run_paper_check", "Claim"]


@dataclass
class Claim:
    """One published claim and its verdict."""

    source: str
    statement: str
    passed: bool
    observed: str


def _speedups(table: ResultTable, slow: str, fast: str) -> list[float]:
    return [
        s / f
        for s, f in zip(table.column(f"{slow}_cct_s"), table.column(f"{fast}_cct_s"))
    ]


def run_paper_check(
    *, scale_factor: float = 60.0, n_nodes: int = 100
) -> ResultTable:
    """Evaluate every published claim; returns a PASS/FAIL table."""
    claims: list[Claim] = []

    def check(source: str, statement: str, fn: Callable[[], tuple[bool, str]]):
        ok, observed = fn()
        claims.append(Claim(source, statement, ok, observed))

    # ---- Motivating example (Fig. 1 + Fig. 2) -------------------------
    ex = MotivatingExample.build()

    check("Fig.1", "hash plan moves 8 tuples", lambda: (
        ex.traffic(ex.sp0_hash) == 8, f"{ex.traffic(ex.sp0_hash):.0f}"
    ))
    check("Fig.1", "minimal-traffic plan moves 6 tuples", lambda: (
        ex.traffic(ex.sp2_traffic_optimal) == 6,
        f"{ex.traffic(ex.sp2_traffic_optimal):.0f}",
    ))
    check("Fig.2(b)", "optimal coflow schedule of SP2 takes 4 units", lambda: (
        ex.optimal_cct(ex.sp2_traffic_optimal) == 4,
        f"{ex.optimal_cct(ex.sp2_traffic_optimal):.0f}",
    ))
    check("Fig.2(a)", "worst schedule of SP2 takes 6 units", lambda: (
        abs(ex.simulated_cct(ex.sp2_traffic_optimal, "sequential") - 6) < 1e-9,
        f"{ex.simulated_cct(ex.sp2_traffic_optimal, 'sequential'):.0f}",
    ))
    check("Fig.2(c)", "suboptimal-traffic SP1 completes in 3 units", lambda: (
        ex.traffic(ex.sp1_suboptimal) == 7
        and ex.optimal_cct(ex.sp1_suboptimal) == 3,
        f"traffic={ex.traffic(ex.sp1_suboptimal):.0f}, "
        f"cct={ex.optimal_cct(ex.sp1_suboptimal):.0f}",
    ))

    # ---- Figure 5: node sweep -----------------------------------------
    cfg = SweepConfig(scale_factor=scale_factor, n_nodes=n_nodes)
    fig5 = run_sweep(fig5_sweep(cfg, nodes=(20, 40, 60, 80, 100))).table

    def fig5_wins():
        ccf = fig5.column("ccf_cct_s")
        ok = all(
            c < h < m
            for c, h, m in zip(
                ccf, fig5.column("hash_cct_s"), fig5.column("mini_cct_s")
            )
        )
        return ok, "CCF < Hash < Mini at every point" if ok else "ordering broken"

    check("Fig.5(b)", "CCF fastest, Mini slowest, at every node count", fig5_wins)

    def fig5_band():
        vs_mini = _speedups(fig5, "mini", "ccf")
        ok = min(vs_mini) > 3 and max(vs_mini) < 40
        return ok, f"speedup over Mini {min(vs_mini):.1f}-{max(vs_mini):.1f}x"

    check(
        "Fig.5(b)",
        "speedup over Mini of the order 8-15x (paper: 8.1-15.2x)",
        fig5_band,
    )

    def fig5_traffic():
        ok = all(
            m <= c <= h
            for m, c, h in zip(
                fig5.column("mini_traffic_gb"),
                fig5.column("ccf_traffic_gb"),
                fig5.column("hash_traffic_gb"),
            )
        )
        return ok, "Mini <= CCF <= Hash traffic" if ok else "ordering broken"

    check("Fig.5(a)", "Mini least traffic; CCF below Hash", fig5_traffic)

    # ---- Figure 6: zipf sweep ------------------------------------------
    zipfs = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    fig6 = run_sweep(fig6_sweep(cfg, zipfs=zipfs)).table

    def fig6_hash_flat():
        col = fig6.column("hash_cct_s")
        ok = max(col) / min(col) < 1.6
        return ok, f"Hash max/min = {max(col) / min(col):.2f}"

    check("Fig.6(b)", "Hash time nearly constant over zipf", fig6_hash_flat)

    def fig6_ccf_grows():
        col = fig6.column("ccf_cct_s")
        ok = col == sorted(col)
        return ok, "CCF monotone increasing" if ok else "not monotone"

    check("Fig.6(b)", "CCF time increases with the zipf factor", fig6_ccf_grows)

    def fig6_traffic_falls():
        ok = all(
            fig6.column(f"{s}_traffic_gb") ==
            sorted(fig6.column(f"{s}_traffic_gb"), reverse=True)
            for s in ("hash", "mini", "ccf")
        )
        return ok, "all traffics decrease" if ok else "not decreasing"

    check("Fig.6(a)", "network traffic decreases with zipf", fig6_traffic_falls)

    # ---- Figure 7: skew sweep ------------------------------------------
    skews = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    fig7 = run_sweep(fig7_sweep(cfg, skews=skews)).table

    def fig7_hash_rises():
        col = fig7.column("hash_cct_s")
        ok = col == sorted(col) and col[-1] > 2 * col[0]
        return ok, f"Hash {col[0]:.0f}s -> {col[-1]:.0f}s"

    check("Fig.7(b)", "Hash time rises sharply with skew", fig7_hash_rises)

    def fig7_ccf_falls():
        col = fig7.column("ccf_cct_s")
        ok = col == sorted(col, reverse=True)
        return ok, "CCF monotone decreasing" if ok else "not decreasing"

    check("Fig.7(b)", "Mini/CCF time falls with skew", fig7_ccf_falls)

    def fig7_const_ratio():
        vs_mini = _speedups(fig7, "mini", "ccf")
        ok = max(vs_mini) / min(vs_mini) < 1.15
        return ok, (
            f"speedup over Mini {min(vs_mini):.1f}-{max(vs_mini):.1f}x "
            "(paper: ~12.8x constant)"
        )

    check("Fig.7(b)", "speedup over Mini roughly constant", fig7_const_ratio)

    def fig7_zero_skew():
        gap = fig7.column("hash_cct_s")[0] - fig7.column("ccf_cct_s")[0]
        ok = gap > 0
        return ok, f"CCF faster than Hash by {gap:.1f}s at skew=0"

    check("Fig.7(b)", "CCF still beats Hash at zero skew", fig7_zero_skew)

    # ---- render ---------------------------------------------------------
    table = ResultTable(
        title="Paper-claim verification",
        columns=["source", "claim", "verdict", "observed"],
    )
    for c in claims:
        table.add_row(
            c.source, c.statement, "PASS" if c.passed else "FAIL", c.observed
        )
    failed = sum(1 for c in claims if not c.passed)
    table.add_note(
        f"{len(claims) - failed}/{len(claims)} claims verified at "
        f"SF={scale_factor}, base nodes={n_nodes}"
    )
    return table
