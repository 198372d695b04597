"""Spans recorded from outside the package, around its public functions.

Each hook replaces a public function in the module that *calls* it, so
the call sites inside ``ggwpd`` pick the wrapper up without any change to
``src/``.  A span is ``[name, start, end, parent, attrs, repeat]``:
``parent`` is the index of the enclosing span (-1 at top level), ``attrs``
holds the counts read off the arguments or the result, and ``repeat`` is
the id of the workload repeat.  Spans stay in memory; the workload
process writes them out once its timed region has ended.
"""
import functools
import inspect
import os
import time


class Tracer:
    """In-memory span list for one workload repeat."""

    def __init__(self, repeat):
        self.repeat = repeat
        self.spans = []
        self._stack = []

    def wrap(self, module, attr, name, attrs=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``attrs(arguments, result)`` returns the span's counts; it runs
        after the span's end time is taken.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)
        spans, stack, repeat = self.spans, self._stack, self.repeat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.monotonic(), None, stack[-1] if stack else -1, None, repeat]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.monotonic()
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = time.monotonic()
            if attrs is not None:
                span[4] = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, wrapper)


def _file_bytes(a, _result):
    return {"bytes": os.path.getsize(a["path"])}


def install(tracer):
    """Hook every layer the benchmark reports, where its caller looks it up."""
    from ggwpd import cli, experiment, floquet, semiclassics

    w = tracer.wrap
    # command layer: what the CLI handlers call
    w(cli, "prepare_scenario", "experiment.prepare_scenario",
      lambda a, r: {"saddles": len(r.saddles)})
    w(cli, "run_sweep", "experiment.run_sweep")
    w(cli, "emit_csv", "experiment.emit_csv", _file_bytes)
    w(cli, "emit_report", "experiment.emit_report")
    w(cli, "unstable_manifold", "rotor.unstable_manifold",
      lambda a, r: {"points": len(r.points)})
    w(cli, "stable_manifold", "rotor.stable_manifold",
      lambda a, r: {"points": len(r.points)})
    w(cli, "curve_to_csv", "rotor.curve_to_csv", _file_bytes)
    # scenario preparation and the sweep's three evaluators
    w(experiment, "find_seeds", "rotor.find_seeds",
      lambda a, r: {"seeds": len(r)})
    w(experiment, "find_saddle", "semiclassics.find_saddle",
      lambda a, r: {"iterations": r.iterations})
    w(experiment, "quantum_correlation", "floquet.quantum_correlation",
      lambda a, r: {"N": a["n_states"], "t": a["t"]})
    w(experiment, "offcenter_correlation", "semiclassics.offcenter_correlation",
      lambda a, r: {"kept": len(r.branches), "total": len(a["seeds"])})
    w(experiment, "ggwpd_correlation", "semiclassics.ggwpd_correlation",
      lambda a, r: {"kept": len(r.branches), "total": len(a["saddles"])})
    # the dense oracle's pieces, called from quantum_correlation
    w(floquet, "floquet_matrix", "floquet.floquet_matrix",
      lambda a, r: {"N": a["n_states"]})
    w(floquet, "discretize_packet", "floquet.discretize_packet",
      lambda a, r: {"N": a["n_states"]})
    # propagation, Newton and the wavefunction's scan, inside semiclassics
    w(semiclassics, "propagate", "rotor.propagate")
    w(semiclassics, "iterate_map", "rotor.iterate_map")
    w(semiclassics, "find_position_saddle", "semiclassics.find_position_saddle",
      lambda a, r: {"iterations": r.iterations})
    w(semiclassics, "wavefunction_contribution",
      "semiclassics.wavefunction_contribution")
    # the benchmark calls ggwpd_wavefunction through the module attribute
    w(semiclassics, "ggwpd_wavefunction", "semiclassics.ggwpd_wavefunction")
