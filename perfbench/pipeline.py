"""One benchmark pass over the package's public functions, and its gate.

A pass is the coverage pipeline, dataset → MUPs → combinations to
collect → re-verified covered level (steps 1-6), followed by the other
two MUP algorithms on the same index. Every step runs inside a span;
the gate checks the outputs afterwards, outside every span.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import oracle
from repro.core import cube, deepdiver, pattern_breaker, pattern_combiner
from repro.core.coverage import CoverageIndex
from repro.core.patterns import X
from repro.enhance import apply, expand, hitting_set


def run_pass(tr, spark, df, w, *, full: bool, with_cube: bool) -> dict:
    """Run one pass under ``tr``'s spans; return outputs and span records.

    ``full`` adds PATTERN-BREAKER and PATTERN-COMBINER after the
    pipeline; ``with_cube`` adds the Catalyst MUP search on top.
    """
    out = {"spans": {}}
    s = out["spans"]
    with tr.span("pass") as s["pass"]:
        with tr.span("pipeline") as s["pipeline"]:
            with tr.span("audit") as s["audit"]:
                with tr.span("scan", spark=True) as s["scan"]:
                    idx = CoverageIndex.from_spark(df, w.attrs, w.cards)
                with tr.span("deepdiver") as s["deepdiver"]:
                    mups = deepdiver.mups_deepdiver(idx, w.tau)
            with tr.span("remedy") as s["remedy"]:
                with tr.span("expand") as s["expand"]:
                    m_lam = expand.uncovered_at_level(mups, w.lam, w.cards)
                with tr.span("hitting_set") as s["hitting_set"]:
                    combos = hitting_set.greedy_hitting_set(list(m_lam), w.cards)
                with tr.span("append", spark=True) as s["append"]:
                    df2 = apply.append_collected(spark, df, combos, w.attrs, w.tau)
                with tr.span("verify", spark=True) as s["verify"]:
                    level = apply.verify_covered_level(df2, w.attrs, w.cards, w.tau)
        if full:
            with tr.span("pattern_breaker") as s["pattern_breaker"]:
                out["pb"] = pattern_breaker.mups_pattern_breaker(idx, w.tau)
            with tr.span("pattern_combiner") as s["pattern_combiner"]:
                out["pc"] = pattern_combiner.mups_pattern_combiner(idx, w.tau)
        if with_cube:
            with tr.span("cube", spark=True) as s["cube"]:
                with tr.span("mups_spark") as s["mups_spark"]:
                    # mups_spark only plans; collect_patterns runs the jobs.
                    q = cube.mups_spark(spark, df, w.attrs, w.cards, w.tau)
                    out["cube"] = cube.collect_patterns(q, w.attrs)
    out.update(n=idx.n, m=int(len(idx.counts)), mups=mups, m_lam=m_lam,
               combos=combos, level=level)
    return out


def signature(out: dict) -> tuple:
    """Counts that must repeat in every pass of one run: m, |MUPs|,
    |M_λ| and GREEDY rounds (one collected combination per round)."""
    return out["m"], len(out["mups"]), len(out["m_lam"]), len(out["combos"])


def unhit(m_lam, combos) -> int:
    """How many M_λ patterns no collected combination matches."""
    if not m_lam:
        return 0
    if not combos:
        return len(m_lam)
    p = np.array(sorted(m_lam))[:, None, :]
    c = np.array(combos)[None, :, :]
    hit = ((p == X) | (p == c)).all(axis=2).any(axis=1)
    return int((~hit).sum())


def gate(w, out: dict, first_sig: Optional[tuple]) -> List[str]:
    """Correctness checks on one pass; returns the failures found."""
    errs = []
    for key, algo in (("pb", "PATTERN-BREAKER"), ("pc", "PATTERN-COMBINER"),
                      ("cube", "mups_spark")):
        if key in out and out[key] != out["mups"]:
            errs.append(f"{algo} MUPs differ from DEEPDIVER's "
                        f"({len(out[key])} vs {len(out['mups'])})")
    missed = unhit(out["m_lam"], out["combos"])
    if missed:
        errs.append(f"{missed} of {len(out['m_lam'])} M_lambda patterns not hit")
    if out["level"] < w.lam:
        errs.append(f"verified level {out['level']} < lambda {w.lam}")
    if first_sig is not None and signature(out) != first_sig:
        errs.append(f"(m, |MUPs|, |M_lambda|, rounds) {signature(out)} != {first_sig}")
    return errs


def oracle_check(df, w) -> List[str]:
    """The groupBy(attrs).count() relation against DuckDB's GROUP BY."""
    cols = ", ".join(f'"{a}"' for a in w.attrs)
    try:
        oracle.assert_equivalent(
            df.groupBy(*w.attrs).count(),
            f'SELECT {cols}, COUNT(*) AS "count" FROM t GROUP BY {cols}',
            t=df.select(*w.attrs),
        )
    except AssertionError as e:
        return [f"groupBy relation differs from DuckDB: {e}"]
    return []
