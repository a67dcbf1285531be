"""Summarise one set of run records, or compare two.

A set is a directory of run records written by ``run.py``.  For every
workload and end-to-end metric this prints each set's median and
quartiles over its untraced runs, the change of the median, and
whether the second set stays within the metric's bound from
``BENCHMARK.json``.  Simulated metrics must repeat exactly: for every
seed run in both sets it reports whether they are identical.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List

from .core import END_TO_END, quartiles


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """Untraced run records of ``directory``, by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        prov = record.get("provenance")
        if not prov or prov.get("trace") or "end_to_end" not in record:
            continue
        runs.setdefault(prov["workload"], []).append(record)
    return runs


def _bounds(benchmark_json: str) -> Dict[str, float]:
    with open(benchmark_json) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _worse_by(name: str, before: float, after: float) -> float:
    """Relative change of ``after`` against ``before``, positive when
    worse."""
    change = (after - before) / before if before else 0.0
    return change if END_TO_END[name][1] == "lower" else -change


def _fmt(q: dict) -> str:
    return (f"{q['median']:11.5g} [{q['q1']:.5g}, {q['q3']:.5g}] "
            f"n={q['n']}")


def _sim_by_seed(records: List[dict]) -> Dict[int, dict]:
    return {r["provenance"]["seed"]: r["sim"] for r in records}


def compare(directories: List[str], benchmark_json: str) -> int:
    """Print the summary or comparison; returns 1 when the second set
    is worse than a bound or a simulated metric differs."""
    bounds = _bounds(benchmark_json)
    sets = [load_runs(d) for d in directories]
    workloads = sorted(set().union(*sets))
    failed = False
    for workload in workloads:
        print(f"{workload}")
        for name, (unit, _better) in END_TO_END.items():
            qs = [quartiles([r["end_to_end"][name]
                             for r in runs.get(workload, [])])
                  for runs in sets]
            cells = "  ".join(_fmt(q) for q in qs)
            line = f"  {name:16s} {unit:6s} {cells}"
            spread = (qs[0]["q3"] - qs[0]["q1"]) / qs[0]["median"] \
                if qs[0]["median"] else 0.0
            line += f"  spread {spread:.1%}"
            if len(qs) == 2 and qs[0]["n"] and qs[1]["n"]:
                worse = _worse_by(name, qs[0]["median"], qs[1]["median"])
                ok = worse <= bounds[name]
                failed |= not ok
                line += (f"  worse by {worse:+.1%} (bound "
                         f"{bounds[name]:.0%}) "
                         f"{'ok' if ok else 'REGRESSED'}")
            print(line)
        if len(sets) == 2:
            a = _sim_by_seed(sets[0].get(workload, []))
            b = _sim_by_seed(sets[1].get(workload, []))
            seeds = sorted(set(a) & set(b))
            differ = [s for s in seeds if a[s] != b[s]]
            failed |= bool(differ)
            print(f"  simulated metrics on {len(seeds)} shared seed(s): "
                  + ("identical" if not differ
                     else f"DIFFER on seeds {differ}"))
    return 1 if failed else 0
