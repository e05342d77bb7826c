"""The String Figure serve path runs without networkx.

networkx is imported only inside the functions that build or query a
graph: the graph views, the baseline topologies and their policies,
``validate_connectivity``, the fault detector's partition checks and
``repro.analysis``.  Each test runs in a fresh interpreter, most of
them with ``sys.modules["networkx"] = None`` so that any import of it
raises ``ImportError``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

BLOCK = 'import sys\nsys.modules["networkx"] = None\n'


def _run(code: str, block: bool = True) -> str:
    """Run *code* in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    source = (BLOCK if block else "") + textwrap.dedent(code)
    result = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_imports_and_parser_without_networkx():
    out = _run(
        """
        import repro
        import repro.cli
        import repro.service.daemon

        repro.cli.build_parser()
        print("ok")
        """
    )
    assert out.split() == ["ok"]


def test_service_serves_and_drains_without_networkx():
    out = _run(
        """
        from repro.service.core import FabricService

        svc = FabricService()
        reqs = [svc.submit("a", "read", page) for page in range(4)]
        reqs += [
            svc.submit("b", "write", page, offset=64, size=128)
            for page in range(4, 8)
        ]
        svc.advance(20_000)
        report = svc.drain()
        assert all(r.status == "done" for r in reqs), [r.status for r in reqs]
        assert report["all_conserved"], report
        print(len(reqs))
        """
    )
    assert out.split() == ["8"]


def test_string_figure_run_without_networkx():
    out = _run(
        """
        from repro.topologies.registry import make_policy, make_topology
        from repro.traffic.injection import run_synthetic
        from repro.traffic.patterns import make_pattern

        topo = make_topology("SF", 64, seed=0)
        stats = run_synthetic(
            topo,
            make_policy(topo),
            make_pattern("uniform_random", topo.active_nodes),
            0.05,
            warmup=20,
            measure=100,
            drain_limit=4_000,
            seed=0,
        )
        assert stats.delivered > 0 and stats.sent == stats.delivered
        print("ok")
        """
    )
    assert out.split() == ["ok"]


def test_graph_builders_import_networkx_at_call_time():
    """The deferral is real: each graph builder asks for networkx."""
    out = _run(
        """
        from repro.topologies.registry import make_policy, make_topology

        calls = {
            "DM policy": lambda: make_policy(make_topology("DM", 16)),
            "Jellyfish policy": lambda: make_policy(make_topology("Jellyfish", 16)),
            "SF graph": lambda: make_topology("SF", 16).graph(),
        }
        for name, call in calls.items():
            try:
                call()
            except ImportError:
                print(name)
        """
    )
    assert out.splitlines() == ["DM policy", "Jellyfish policy", "SF graph"]


def test_clean_start_leaves_networkx_unloaded():
    out = _run(
        """
        import sys

        import repro
        import repro.cli
        import repro.service.daemon
        from repro.service.core import FabricService

        FabricService()
        print("networkx" in sys.modules)
        """,
        block=False,
    )
    assert out.split() == ["False"]
