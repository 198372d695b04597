"""The benchmark's traced run still binds to the package.

``perfbench/trace_hooks.py`` replaces public functions by name in the
modules that call them, and derives Newton damping halvings from how many
``propagate`` calls each saddle solve makes.  A rename or a call that
bypasses the module attribute would leave its per-layer metrics silently
zero, so this drives traced commands in a fresh interpreter each (the
hooks patch modules process-wide) and checks both.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_DRIVER = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import trace_hooks

hooked = []
wrap = trace_hooks.Tracer.wrap

def recording_wrap(self, module, attr, name, attrs=None):
    wrap(self, module, attr, name, attrs)
    hooked.append([module.__name__, attr, hasattr(getattr(module, attr), "__wrapped__")])

trace_hooks.Tracer.wrap = recording_wrap
tracer = trace_hooks.Tracer(0)
trace_hooks.install(tracer)
from ggwpd import cli
code = cli.main({argv!r})
with open({out!r}, "w") as fh:
    json.dump({{"exit": code, "hooked": hooked, "spans": tracer.spans}}, fh)
"""


def _traced(tmp_path, argv):
    """Exit code, hooked attributes and spans of one traced ``ggwpd`` run."""
    out = tmp_path / "trace.json"
    driver = _DRIVER.format(
        src=os.path.join(ROOT, "src"),
        perfbench=os.path.join(ROOT, "perfbench"),
        argv=argv,
        out=str(out),
    )
    proc = subprocess.run(
        [sys.executable, "-c", driver], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_trace_hooks_bind_and_count_propagate_calls(tmp_path):
    record = _traced(tmp_path, ["saddle", "--preset", "integrable-fig2"])
    assert record["exit"] == 0
    assert record["hooked"], "install() hooked nothing"
    unbound = [f"{m}.{a}" for m, a, ok in record["hooked"] if not ok]
    assert not unbound, unbound

    spans = record["spans"]
    solves = [i for i, s in enumerate(spans) if s[0] == "semiclassics.find_saddle"]
    assert solves
    for i in solves:
        propagates = sum(
            1 for s in spans if s[0] == "rotor.propagate" and s[3] == i
        )
        assert propagates >= 1 + spans[i][4]["iterations"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (
            ["sweep", "--preset", "integrable-fig2"],
            {"floquet.quantum_correlation", "floquet.discretize_packet",
             "semiclassics.offcenter_correlation", "semiclassics.ggwpd_correlation",
             "experiment.emit_csv"},
        ),
        (
            ["manifolds", "--preset", "chaotic-fig6"],
            {"rotor.unstable_manifold", "rotor.stable_manifold", "rotor.curve_to_csv"},
        ),
    ],
    ids=["sweep", "manifolds"],
)
def test_traced_commands_record_every_layer_without_an_error(tmp_path, argv, layers):
    """The hooks read arguments by name (``n_states``, ``t``, ``seeds``,
    ``saddles``, ``path``) and results by attribute (``.points``): a
    rename ends the traced run, and a layer that raises marks its span."""
    record = _traced(tmp_path, argv + ["--out", str(tmp_path / "out")])
    assert record["exit"] == 0
    spans = record["spans"]
    assert layers <= {s[0] for s in spans}
    assert [s[0] for s in spans if s[4] and "error" in s[4]] == []
