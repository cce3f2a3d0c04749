"""The mega loop's import closure is numpy plus the standard library.

scipy and networkx are imported inside the three functions that call them
(the E10 and E11 LPs, Tang's max-flow), so importing or running the mega,
fault, auditor and data-plane paths must load neither.  A child process
blocks both packages with a ``sys.meta_path`` finder, then imports those
paths and runs audited epochs of a fully wired tiny driver.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_CHILD = textwrap.dedent(
    """
    import sys

    BLOCKED = ("scipy", "networkx")

    class Blocker:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in BLOCKED:
                raise ImportError(f"blocked: {name}")
            return None

    sys.meta_path.insert(0, Blocker())

    import repro.core.mega
    import repro.faults.mega
    import repro.obs.audit
    import repro.perf.rss
    from repro.core.mega import (
        MegaConfig, MegaControlPlaneConfig, MegaScaleDriver, MegaSteeringConfig,
    )
    from repro.faults.mega import MegaFaultInjector
    from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
    from repro.obs.audit import InvariantAuditor
    from repro.obs.trace import TraceBus

    trace = TraceBus()
    driver = MegaScaleDriver(
        MegaConfig.tiny(),
        trace=trace,
        control_plane=MegaControlPlaneConfig(wired_apps=16, vips_per_app=2),
        steering=MegaSteeringConfig(
            requests_per_epoch=2000, n_resolvers=100, chunk_requests=512,
            knob_period=1,
        ),
    )
    auditor = InvariantAuditor(columnar=driver, strict=True).attach(trace)
    MegaFaultInjector(driver, FaultSchedule([
        FaultEvent(30.0, FaultKind.POD_LOSS, "pod-001"),
        FaultEvent(60.0, FaultKind.SERVER_CRASH, "pod-002-s000003"),
    ]))
    with driver:
        for report in driver.run(2):
            assert report.requests > 0
        assert not auditor.audit_now(120.0)
    assert auditor.audits_run >= 3 and auditor.ok
    assert driver.fault_injector.injected == 2
    print(sorted(m for m in sys.modules if m.split(".")[0] in BLOCKED))
    """
)


def test_mega_paths_load_neither_scipy_nor_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
