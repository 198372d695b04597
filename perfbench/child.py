"""One repeat of one benchmark workload, run in a fresh interpreter.

Usage: python3 child.py <repeat-dir>

``<repeat-dir>/spec.json`` names the workload and its inputs; the
package is imported from the checkout's ``src/`` and nowhere else.
Outputs go to ``<repeat-dir>/out/``, the command's standard output to
whatever the parent connected, and the timestamps, the core-speed probe
samples (and, when tracing, the spans) to ``<repeat-dir>/timing.json``
after the timed region ends.
All timestamps are ``time.monotonic()``, which on Linux is the same
clock in every process, so the parent can subtract its spawn time.
"""
import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

PROBE_PERIOD = 0.025  # seconds between two speed probes


def _probe():
    """A fixed burst of small-array numpy work, about 0.16 ms on a free core."""
    import numpy as np

    p, q = np.array([0.1]), np.array([0.2])
    for _ in range(20):
        p -= 0.5 * np.sin(6.283 * q)
        q += p
        np.hypot(*(np.column_stack([p, q])[0] - 0.1))


class SpeedProbe(threading.Thread):
    """Samples how fast the workload's core runs a fixed burst of work.

    The process is pinned to one core, so the probe thread runs on the
    core the workload runs on.  A sample is the start time and the thread
    CPU time of a probe run right after an untimed one, so neither
    time-slicing with the workload nor the cache lines the workload evicted
    inflate it.  The workloads are small-array numpy and interpreter code, as
    the probe is, so on a shared host whose core speed changes from second
    to second the probe slows down in step with them.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._done = threading.Event()

    def run(self):
        _probe()  # imports numpy; not a sample
        while True:
            t = time.monotonic()
            _probe()  # warms the caches the workload evicted
            c = time.thread_time()
            _probe()
            self.samples.append((t, time.thread_time() - c))
            if self._done.wait(PROBE_PERIOD):
                return

    def stop(self):
        self._done.set()
        self.join()


class _SetupDone(BaseException):
    """Ends a setup-only repeat of a sweep where its setup ends."""


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _peak_rss_mb():
    """High-water resident set of this process since its exec, in MB.

    ``getrusage`` and ``wait4`` would also count the parent's pages the
    child held between fork and exec, so the kernel's per-process
    high-water mark is read instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def _setup_json(setup):
    """Seeds and saddles of a prepared scenario, at full precision."""
    def cplx(z):
        return [z.real, z.imag]

    return {
        "seeds": [
            {"winding": list(s.winding), "ic": list(s.ic)} for s in setup.seeds
        ],
        "saddles": [
            {
                "winding": list(s.seed.winding),
                "P0": cplx(s.trajectory.initial.p1),
                "Q0": cplx(s.trajectory.initial.q1),
                "iterations": s.iterations,
            }
            for s in setup.saddles
        ],
    }


def main(rep_dir):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    with open(os.path.join(rep_dir, "spec.json")) as fh:
        spec = json.load(fh)
    src = spec["src"]
    out = os.path.join(rep_dir, "out")
    os.makedirs(out, exist_ok=True)
    sys.path.insert(0, src)

    t_import0 = time.monotonic()
    import ggwpd
    import ggwpd.cli
    t_import = time.monotonic()
    if not os.path.abspath(ggwpd.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"ggwpd imported from {ggwpd.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import trace_hooks

        tracer = trace_hooks.Tracer(spec["repeat"])
        trace_hooks.install(tracer)

    marks = {"t_setup": t_import}
    exit_code = 0
    setup_holder = []
    kind = spec["kind"]
    setup_only = spec.get("setup_only", False)
    if kind == "sweep":
        # the setup boundary is the return of prepare_scenario, looked up
        # where the CLI looks it up (possibly already wrapped by the tracer)
        inner = ggwpd.cli.prepare_scenario

        def prepare_boundary(config):
            setup = inner(config)
            marks["t_setup"] = time.monotonic()
            setup_holder.append(setup)
            if setup_only:
                raise _SetupDone
            return setup

        ggwpd.cli.prepare_scenario = prepare_boundary
        argv = ["sweep", "--preset", spec["preset"], "--out", out]
        if "config" in spec:
            argv += ["--config", os.path.join(rep_dir, "config.json")]
        try:
            exit_code = ggwpd.cli.main(argv)
        except _SetupDone:
            pass
    elif setup_only:
        pass  # without a scenario, the import is the whole setup
    elif kind == "manifolds":
        exit_code = ggwpd.cli.main(["manifolds", "--preset", spec["preset"], "--out", out])
    elif kind == "wavefunction":
        from ggwpd import semiclassics

        N, t = spec["N"], spec["t"]
        alpha = ggwpd.GaussianPacket(
            spec["center"][0], spec["center"][1], spec["b"], ggwpd.grid_hbar(N)
        )
        params = ggwpd.RotorParams(spec["K"])
        rows = []
        for s in range(1, N + 1):
            try:
                value = semiclassics.ggwpd_wavefunction(
                    alpha, s / N, t, params, image_range=spec["image_range"]
                )
                rows.append(f"{s},{value.real!r},{value.imag!r},\n")
            except Exception as exc:  # one failed point must not end the run
                rows.append(f"{s},nan,nan,{type(exc).__name__}\n")
        with open(os.path.join(out, "wavefunction.csv"), "w") as fh:
            fh.write("s,re,im,error\n")
            fh.writelines(rows)
    else:
        raise SystemExit(f"unknown workload kind {kind!r}")
    t_done = time.monotonic()
    probe.stop()
    peak_rss_mb = _peak_rss_mb()
    sys.stdout.flush()

    timing = {
        "t_start": T_START,
        "t_import0": t_import0,
        "t_import": t_import,
        "t_setup": marks["t_setup"],
        "t_done": t_done,
        "exit_code": exit_code,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": _blas_threads(),
        "probe": probe.samples,
    }
    if setup_holder:
        timing["setup"] = _setup_json(setup_holder[0])
    if tracer is not None:
        timing["spans"] = tracer.spans
    with open(os.path.join(rep_dir, "timing.json"), "w") as fh:
        json.dump(timing, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
