"""Import-graph guard for the key-free path.

The data-path packages (``apps``, ``emulation.driver``, ``net``, ``obs``,
``ran``) drive Table 1, the handover figures and megaload's population
engine without a single key.  If importing them starts to pull in the
control-plane stack (``core``/``crypto``/``lte``/``fivegc``/``testbed``),
every key-free process pays that stack's import time and resident set —
the ledger's ``app_transport`` and ``megaload_day`` ``setup_s`` /
``peak_rss_mb`` move although none of their code changed.  The check runs
in a fresh interpreter because this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KEY_FREE_ENTRY_POINTS = ("repro.apps", "repro.emulation.driver",
                         "repro.net", "repro.obs", "repro.ran")
FORBIDDEN = ("repro.core", "repro.crypto", "repro.lte", "repro.fivegc",
             "repro.testbed")
EXPECTED = {
    "repro",
    "repro.analysis", "repro.analysis.gates", "repro.analysis.mos",
    "repro.analysis.stats", "repro.analysis.textplot",
    "repro.apps", "repro.apps.fallback", "repro.apps.iperf",
    "repro.apps.ping", "repro.apps.transport", "repro.apps.video",
    "repro.apps.voip", "repro.apps.web",
    "repro.emulation", "repro.emulation.chaos", "repro.emulation.driver",
    "repro.emulation.figures", "repro.emulation.geo",
    "repro.emulation.policy", "repro.emulation.radio",
    "repro.emulation.routes", "repro.emulation.scenario",
    "repro.net", "repro.net.endpoint", "repro.net.link",
    "repro.net.mptcp", "repro.net.node",
    "repro.net.packet", "repro.net.quic", "repro.net.sim", "repro.net.tcp",
    "repro.net.topology", "repro.net.tunnel",
    "repro.obs", "repro.obs.export", "repro.obs.fleet", "repro.obs.metrics",
    "repro.obs.trace",
    "repro.ran", "repro.ran.cells", "repro.ran.geometry",
    "repro.ran.propagation", "repro.ran.selection",
}


def loaded_repro_modules(entry_points):
    script = (
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in entry_points)
        + "print(json.dumps(sorted(m for m in sys.modules"
          " if m == 'repro' or m.startswith('repro.'))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_key_free_path_imports_no_control_plane():
    loaded = loaded_repro_modules(KEY_FREE_ENTRY_POINTS)
    leaked = sorted(m for m in loaded
                    if any(m == p or m.startswith(p + ".")
                           for p in FORBIDDEN))
    assert not leaked, f"key-free imports now load {leaked}"
    assert loaded == EXPECTED, (
        f"added: {sorted(loaded - EXPECTED)}, "
        f"gone: {sorted(EXPECTED - loaded)}")
