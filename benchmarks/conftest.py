"""Shared benchmark plumbing.

Every benchmark prints the table(s) it reproduces and writes them to
``benchmarks/results/<id>.txt`` (human-readable) plus a machine-readable
``<id>.json`` next to it, so the experiment output survives runs that
capture stdout and stays machine-readable.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.reporting import table_to_dict
from repro.perf.rss import peak_rss_mb

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(tables, name: str) -> None:
    """Print and persist one experiment's tables (.txt and .json).

    The JSON payload records the process peak RSS at emit time so memory
    rides along with the tables' wall times.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n\n".join(t.render() for t in tables)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {
        "name": name,
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "tables": [table_to_dict(t) for t in tables],
    }
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(text)
