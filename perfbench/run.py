#!/usr/bin/env python3
"""Benchmark for the ggwpd package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chaotic-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one after another

Each repeat of a workload is a fresh ``python3`` process (``child.py``)
that imports ``ggwpd`` from ``src/`` and runs one CLI command or API
loop; repeats run one after another, never two at once, with BLAS and
OpenMP limited to one thread in the child's environment only.  The
child is pinned to one core and samples that core's speed with a fixed
probe; times are reported in seconds at a reference core speed
(``CoreClock``), because a shared host's core speed can change by 1.7x
from one second to the next.  The run repeats at least ``MIN_REPEATS``
times and then as often as fits in ``--seconds``, checks every repeat's
outputs against the stored references, and prints a human-readable
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``trace_hooks`` (alternating untraced and traced
repeats, so the tracing overhead is measured too).  See README.md.
"""
import argparse
import bisect
import compileall
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench")

SWEEP_N = tuple(range(50, 701, 50))
# multiples of the preset's step, not powers of two, so that no oracle
# gains from radix-2 sizes
HIGH_N = (1000, 2000, 3000, 4000)

WORKLOADS = {
    "chaotic-sweep": {"kind": "sweep", "preset": "chaotic-fig6"},
    "integrable-highN": {
        "kind": "sweep",
        "preset": "integrable-fig2",
        "config": {"N_list": list(SWEEP_N + HIGH_N)},
    },
    "chaotic-manifolds": {"kind": "manifolds", "preset": "chaotic-fig6"},
    "integrable-wavefunction": {
        "kind": "wavefunction",
        "N": 700,
        "t": 2,
        "K": 0.05,
        "image_range": 2,
        "b": math.pi * 700,  # the integrable-fig2 width at N = 700
    },
}
# the wavefunction centre box; seed 0 starts at the preset centre
WAVE_CENTER = (0.815, 0.2)
WAVE_BOX = ((0.765, 0.865), (0.15, 0.25))

# correctness tolerances, stated once
CSV_ATOL = 1e-9  # every numeric sweep column (all are O(1) or smaller)
SETUP_ATOL = 1e-9  # seed and saddle components
CURVE_TOL = 1e-6  # reference manifold samples to the emitted polyline
CURVE_COUNT_RTOL = 0.02  # manifold point count against the reference
WAVE_RTOL = 1e-3  # wavefunction point error over max|psi_exact|

# Time of one child.SpeedProbe sample on the fast level of a core of the
# machine the benchmark was set up on (2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4): every reported time is in seconds at that core speed.
PROBE_REF_S = 160e-6

MIN_REPEATS = 5
# setup_s samples per untraced run, topped up by setup-only repeats where
# the setup costs less than SETUP_SHARE of a full repeat
MIN_SETUPS = 20
SETUP_SHARE = 0.25
MIN_TRACED = 2
CHILD_TIMEOUT = 150.0
RUN_CAP = 140.0  # no new repeat starts after this many seconds

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "peak_rss_mb": "MB",
    "max_err": "1",
}
FLOQUET_PARTS = ("quantum_correlation", "floquet_matrix", "discretize_packet")
PER_LAYER = {
    "cli.import_s": "s",
    "rotor.find_seeds.s": "s",
    "rotor.find_seeds.seeds": "count",
    "experiment.prepare_scenario.s": "s",
    "experiment.prepare_scenario.self_s": "s",
    "experiment.prepare_scenario.saddles_per_seed": "ratio",
    **{
        f"semiclassics.{fn}.{key}": unit
        for fn in ("find_saddle", "find_position_saddle")
        for key, unit in (
            ("calls", "count"),
            ("self_s", "s"),
            ("iterations", "count"),
            ("halvings", "count"),
        )
    },
    "rotor.propagate.calls": "count",
    "rotor.propagate.s": "s",
    "rotor.iterate_map.calls": "count",
    "rotor.iterate_map.s": "s",
    "semiclassics.ggwpd_wavefunction.self_s": "s",
    "semiclassics.wavefunction_contribution.s": "s",
    "semiclassics.ggwpd_correlation.self_s": "s",
    "semiclassics.ggwpd_correlation.branches_kept_frac": "ratio",
    "semiclassics.offcenter_correlation.self_s": "s",
    "semiclassics.offcenter_correlation.branches_kept_frac": "ratio",
    "floquet.quantum_correlation.self_s": "s",
    "floquet.floquet_matrix.s": "s",
    "floquet.discretize_packet.s": "s",
    "floquet.matrix_bytes": "B",
    "floquet.matvec_flops": "flop",
    **{
        f"floquet.{part}.N{N}.s": "s"
        for part in FLOQUET_PARTS
        for N in SWEEP_N + HIGH_N
    },
    "rotor.unstable_manifold.s": "s",
    "rotor.unstable_manifold.points": "count",
    "rotor.stable_manifold.s": "s",
    "rotor.stable_manifold.points": "count",
    "rotor.curve_to_csv.s": "s",
    "rotor.curve_to_csv.bytes": "B",
    "experiment.emit_csv.s": "s",
    "experiment.emit_csv.bytes": "B",
    "experiment.emit_report.s": "s",
    "trace.setup_s": "s",
    "trace.work_s": "s",
    "trace.overhead_s": "s",
    "host.raw_wall_s": "s",
    "host.slowdown": "x",
}
# per-layer values that must repeat exactly between two traced repeats
COUNT_UNITS = ("count", "ratio", "B", "flop")


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


class CoreClock:
    """Converts the child's elapsed time to seconds at the reference speed.

    The host's core speed changes by up to 1.7x in phases of seconds, and
    the two cores change independently, so raw wall time swings as much
    between repeats of the same code.  The child samples its own core's
    speed with a fixed probe every 25 ms.  An interval's time at reference
    speed is its elapsed time times the mean of PROBE_REF_S / probe time
    over the samples inside it, widened to the nearest NEAREST samples
    when it holds fewer.
    """

    NEAREST = 3

    def __init__(self, samples):
        self.t = [t for t, _ in samples]
        self.speed = [0.0]  # prefix sums of PROBE_REF_S / probe time
        for _, d in samples:
            self.speed.append(self.speed[-1] + PROBE_REF_S / d)

    def seconds(self, a, b):
        t = self.t
        lo, hi = bisect.bisect_left(t, a), bisect.bisect_left(t, b)
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(t)):
            if hi == len(t) or (lo > 0 and a - t[lo - 1] < t[hi] - b):
                lo -= 1
            else:
                hi += 1
        return (b - a) * (self.speed[hi] - self.speed[lo]) / (hi - lo)

    def slowdown(self, a, b):
        """Elapsed seconds per second at the reference speed."""
        return (b - a) / self.seconds(a, b)


def _wait(proc, timeout):
    """Wait for ``proc``, killing it after ``timeout`` seconds."""
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_repeat(rep_dir, spec):
    """Run one workload process; return its timings, RSS and output hashes."""
    os.makedirs(rep_dir)
    with open(os.path.join(rep_dir, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    if "config" in spec:
        with open(os.path.join(rep_dir, "config.json"), "w") as fh:
            json.dump(spec["config"], fh)
    timing_path = os.path.join(rep_dir, "timing.json")
    with open(os.path.join(rep_dir, "stdout.txt"), "wb") as out, open(
        os.path.join(rep_dir, "stderr.txt"), "wb"
    ) as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, rep_dir],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=rep_dir,
        )
        _wait(proc, CHILD_TIMEOUT)
    rep = {"dir": rep_dir, "timing": None}
    if os.path.exists(timing_path):
        with open(timing_path) as fh:
            timing = json.load(fh)
        rep["timing"] = timing
        clock = CoreClock(timing["probe"])
        rep["clock"] = clock
        rep["wall_s"] = clock.seconds(t_spawn, timing["t_done"])
        rep["setup_s"] = clock.seconds(timing["t_start"], timing["t_setup"])
        rep["work_s"] = clock.seconds(timing["t_setup"], timing["t_done"])
        rep["raw_wall_s"] = timing["t_done"] - t_spawn
        rep["raw_setup_s"] = timing["t_setup"] - t_spawn
        rep["slowdown"] = clock.slowdown(t_spawn, timing["t_done"])
        rep["rss_mb"] = timing["peak_rss_mb"]
    out_dir = os.path.join(rep_dir, "out")
    rep["hashes"] = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                rep["hashes"][name] = hashlib.sha256(fh.read()).hexdigest()
    return rep


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _setup_problems(got, ref):
    if got is None:
        return ["no seeds/saddles recorded"]
    problems = []
    for key, fields in (("seeds", ("ic",)), ("saddles", ("P0", "Q0"))):
        a, b = got[key], ref[key]
        if len(a) != len(b):
            problems.append(f"{len(a)} {key}, reference has {len(b)}")
            continue
        for x, y in zip(a, b):
            dev = max(
                abs(u - v) for f in fields for u, v in zip(x[f], y[f])
            )
            if x["winding"] != y["winding"] or not dev <= SETUP_ATOL:
                problems.append(f"{key[:-1]} {y['winding']} off by {dev:.2e}")
    return problems


def check_sweep(name, spec, rep):
    """Rows attempted/failed, max_err and problems of one sweep repeat."""
    header, ref_rows = _read_rows(os.path.join(REFERENCE, f"{name}_sweep.csv"))
    with open(os.path.join(REFERENCE, f"{name}_setup.json")) as fh:
        ref_setup = json.load(fh)
    attempted = len(ref_rows)
    path = os.path.join(rep["dir"], "out", f"{spec['preset']}_sweep.csv")
    timing = rep["timing"]
    if timing is None or not os.path.exists(path):
        return attempted, attempted, None, ["workload process failed"]
    problems = _setup_problems(timing.get("setup"), ref_setup)
    if timing["exit_code"] != 0:
        problems.append(f"report gate failed (exit {timing['exit_code']})")
    got_header, rows = _read_rows(path)
    err_col = header.index("abs_err_ggwpd")
    errs = [float(r[err_col]) for r in rows if int(r[0]) >= 100]
    max_err = max((e for e in errs if math.isfinite(e)), default=None)
    if problems or got_header != header:
        return attempted, attempted, max_err, problems or ["CSV header changed"]
    got = {r[0]: r for r in rows}
    failed = 0
    for ref in ref_rows:
        row = got.get(ref[0])
        ok = row is not None and row[-1] == "" and all(
            abs(float(a) - float(b)) <= CSV_ATOL for a, b in zip(row[1:-1], ref[1:-1])
        )
        if not ok:
            failed += 1
            problems.append(f"row N={ref[0]} differs from the reference")
    return attempted, failed, max_err, problems


def _load_curve(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def polyline_distance(points, line, chunk=256):
    """Distance of each point to the segments beside its nearest vertex."""
    a, d = line[:-1], np.diff(line, axis=0)
    seg2 = np.einsum("ij,ij->i", d, d)
    seg2[seg2 == 0.0] = 1.0
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        y = points[lo : lo + chunk]
        dv = np.hypot(y[:, None, 0] - line[None, :, 0], y[:, None, 1] - line[None, :, 1])
        j = np.argmin(dv, axis=1)
        best = dv[np.arange(len(y)), j]
        for k in (j - 1, j):
            valid = (k >= 0) & (k < len(a))
            k = np.clip(k, 0, len(a) - 1)
            w = np.clip(np.einsum("ij,ij->i", y - a[k], d[k]) / seg2[k], 0.0, 1.0)
            dist = np.hypot(*(y - a[k] - w[:, None] * d[k]).T)
            best = np.where(valid, np.minimum(best, dist), best)
        out[lo : lo + chunk] = best
    return out


def invariance_defect(curve, K, stable):
    """Max distance of the curve's one-step contracting image from itself.

    The unstable manifold is mapped back with the inverse map, the stable
    one forward with the map; both images lie on the manifold nearer its
    fixed point, so their distance from the emitted polyline measures how
    well the polyline represents the invariant curve.
    """
    p, q = curve[:, 0], curve[:, 1]
    if stable:
        p1 = p - K / (2 * np.pi) * np.sin(2 * np.pi * q)
        img = np.column_stack([p1, q + p1])
    else:
        q0 = q - p
        img = np.column_stack([p + K / (2 * np.pi) * np.sin(2 * np.pi * q0), q0])
    return float(polyline_distance(img, curve).max())


MANIFOLD_CURVES = {"unstable_alpha": False, "stable_beta": True}


def check_manifolds(spec, rep, defect_cache):
    with open(os.path.join(REFERENCE, "chaotic-manifolds.json")) as fh:
        ref = json.load(fh)
    attempted = len(MANIFOLD_CURVES)
    if rep["timing"] is None or rep["timing"]["exit_code"] != 0:
        return attempted, attempted, None, ["workload process failed"]
    failed, problems, max_err = 0, [], 0.0
    for curve_name, stable in MANIFOLD_CURVES.items():
        fname = f"{spec['preset']}_{curve_name}.csv"
        path = os.path.join(rep["dir"], "out", fname)
        if not os.path.exists(path):
            failed += 1
            problems.append(f"{fname} missing")
            continue
        curve = _load_curve(path)
        r = ref[curve_name]
        off = polyline_distance(np.array(r["samples"]), curve).max()
        if abs(len(curve) - r["points"]) > CURVE_COUNT_RTOL * r["points"] or not off <= CURVE_TOL:
            failed += 1
            problems.append(
                f"{curve_name}: {len(curve)} points (reference {r['points']}), "
                f"reference samples up to {off:.2e} away"
            )
        key = rep["hashes"].get(fname)
        if key not in defect_cache:
            defect_cache[key] = invariance_defect(curve, ref["K"], stable)
        max_err = max(max_err, defect_cache[key])
    return attempted, failed, max_err, problems


def exact_wavefunction(center, spec):
    """sqrt(N) F^t psi_alpha by dense propagation, independent of ggwpd.floquet."""
    N, K, b = spec["N"], spec["K"], spec["b"]
    hbar = 1.0 / (2 * np.pi * N)
    s = np.arange(1, N + 1)
    x = s / N
    psi = sum(
        np.exp(-b * (x - center[1] - n) ** 2 + 1j * center[0] * (x - center[1] - n) / hbar)
        for n in range(-2, 3)
    )
    psi /= np.linalg.norm(psi)
    kick = np.exp(1j * N * K * np.cos(2 * np.pi * s / N) / (2 * np.pi))
    F = np.exp(1j * np.pi * (s[:, None] - s[None, :]) ** 2 / N) * kick / np.sqrt(1j * N)
    for _ in range(spec["t"]):
        psi = F @ psi
    return np.sqrt(N) * psi


def check_wavefunction(spec, rep):
    N = spec["N"]
    path = os.path.join(rep["dir"], "out", "wavefunction.csv")
    if rep["timing"] is None or not os.path.exists(path):
        return N, N, None, ["workload process failed"]
    _, rows = _read_rows(path)
    exact = exact_wavefunction(spec["center"], spec)
    scale = np.abs(exact).max()
    got = np.full(N, np.nan + 0j)
    errors = np.zeros(N, dtype=bool)
    for r in rows:
        i = int(r[0]) - 1
        got[i] = complex(float(r[1]), float(r[2]))
        errors[i] = r[3] != ""
    rel = np.abs(got - exact) / scale
    bad = errors | ~(rel <= WAVE_RTOL)
    failed = int(bad.sum())
    problems = [f"{failed} of {N} points off by more than {WAVE_RTOL:g}"] if failed else []
    finite = rel[np.isfinite(rel)]
    return N, failed, float(finite.max()) if finite.size else None, problems


def wave_centers(seed):
    """Centres of successive repeats: seed 0 starts at the preset centre."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        yield WAVE_CENTER
    while True:
        yield (
            float(rng.uniform(*WAVE_BOX[0])),
            float(rng.uniform(*WAVE_BOX[1])),
        )


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(rep):
    """Per-layer metrics of one traced repeat."""
    timing = rep["timing"]
    spans = timing["spans"]
    clock = rep["clock"]
    dur = [clock.seconds(s[1], s[2]) for s in spans]
    covered = [0.0] * len(spans)
    kids = [[] for _ in spans]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            kids[s[3]].append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def self_time(name):
        return sum(dur[i] - covered[i] for i in ids(name))

    def attr(i, key):
        return (spans[i][4] or {}).get(key, 0)

    m = {name: 0.0 for name in PER_LAYER}
    m["cli.import_s"] = clock.seconds(timing["t_import0"], timing["t_import"])
    m["rotor.find_seeds.s"] = total("rotor.find_seeds")
    seeds = sum(attr(i, "seeds") for i in ids("rotor.find_seeds"))
    m["rotor.find_seeds.seeds"] = seeds
    prep = "experiment.prepare_scenario"
    m[f"{prep}.s"] = total(prep)
    m[f"{prep}.self_s"] = self_time(prep)
    if seeds:
        m[f"{prep}.saddles_per_seed"] = sum(attr(i, "saddles") for i in ids(prep)) / seeds
    for fn in ("semiclassics.find_saddle", "semiclassics.find_position_saddle"):
        m[f"{fn}.calls"] = len(ids(fn))
        m[f"{fn}.self_s"] = self_time(fn)
        m[f"{fn}.iterations"] = sum(attr(i, "iterations") for i in ids(fn))
        # each solve propagates once, then once per accepted or halved step
        m[f"{fn}.halvings"] = sum(
            sum(spans[k][0] == "rotor.propagate" for k in kids[i]) - 1 - attr(i, "iterations")
            for i in ids(fn)
            if "error" not in (spans[i][4] or {})
        )
    for fn in ("rotor.propagate", "rotor.iterate_map"):
        m[f"{fn}.calls"] = len(ids(fn))
        m[f"{fn}.s"] = total(fn)
    m["semiclassics.ggwpd_wavefunction.self_s"] = self_time("semiclassics.ggwpd_wavefunction")
    m["semiclassics.wavefunction_contribution.s"] = total("semiclassics.wavefunction_contribution")
    for fn in ("semiclassics.ggwpd_correlation", "semiclassics.offcenter_correlation"):
        m[f"{fn}.self_s"] = self_time(fn)
        tried = sum(attr(i, "total") for i in ids(fn))
        if tried:
            m[f"{fn}.branches_kept_frac"] = sum(attr(i, "kept") for i in ids(fn)) / tried
    m["floquet.quantum_correlation.self_s"] = self_time("floquet.quantum_correlation")
    m["floquet.floquet_matrix.s"] = total("floquet.floquet_matrix")
    m["floquet.discretize_packet.s"] = total("floquet.discretize_packet")
    for part in FLOQUET_PARTS:
        for i in ids(f"floquet.{part}"):
            key = f"floquet.{part}.N{attr(i, 'N')}.s"
            if key in m:
                m[key] += dur[i]
    # computed, not measured: 16 bytes per complex entry, 8 flops per
    # complex multiply-add of each matrix-vector product
    m["floquet.matrix_bytes"] = sum(16 * attr(i, "N") ** 2 for i in ids("floquet.floquet_matrix"))
    m["floquet.matvec_flops"] = sum(
        8 * attr(i, "N") ** 2 * abs(attr(i, "t")) for i in ids("floquet.quantum_correlation")
    )
    for fn in ("rotor.unstable_manifold", "rotor.stable_manifold"):
        m[f"{fn}.s"] = total(fn)
        m[f"{fn}.points"] = sum(attr(i, "points") for i in ids(fn))
    for fn in ("rotor.curve_to_csv", "experiment.emit_csv"):
        m[f"{fn}.s"] = total(fn)
        m[f"{fn}.bytes"] = sum(attr(i, "bytes") for i in ids(fn))
    m["experiment.emit_report.s"] = total("experiment.emit_report")
    m["trace.setup_s"] = rep["setup_s"]
    m["trace.work_s"] = rep["work_s"]
    m["host.raw_wall_s"] = rep["raw_wall_s"]
    m["host.slowdown"] = rep["slowdown"]
    return m


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def make_spec(name, trace, repeat, center=None, setup_only=False):
    spec = dict(
        WORKLOADS[name], src=SRC, trace=trace, repeat=repeat, workload=name,
        setup_only=setup_only,
    )
    if spec["kind"] == "wavefunction" and not setup_only:
        spec["center"] = list(center)
    return spec


class Run:
    """Repeats of one workload, their checks and their metrics."""

    def __init__(self, name, seed, run_dir):
        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.kind = WORKLOADS[name]["kind"]
        self.centers = wave_centers(seed)
        self.attempted = self.failed = 0
        self.problems = []
        self.max_err = None
        self.defects = {}
        self.count = 0

    def repeat(self, trace, center=None):
        spec = make_spec(self.name, trace, self.count, center)
        rep_dir = os.path.join(self.run_dir, f"rep{self.count:03d}")
        self.count += 1
        rep = run_repeat(rep_dir, spec)
        if rep["timing"] is None:
            with open(os.path.join(rep_dir, "stderr.txt")) as fh:
                tail = fh.read().strip().splitlines()[-1:]
            self.problems.append(f"repeat {spec['repeat']} crashed: {tail}")
        if self.kind == "sweep":
            result = check_sweep(self.name, spec, rep)
        elif self.kind == "manifolds":
            result = check_manifolds(spec, rep, self.defects)
        else:
            result = check_wavefunction(spec, rep)
        attempted, failed, err, problems = result
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"repeat {spec['repeat']}: {p}" for p in problems]
        if err is not None:
            self.max_err = err if self.max_err is None else max(self.max_err, err)
        shutil.rmtree(rep_dir)
        return rep

    def setup_repeat(self):
        """A repeat that ends where its setup ends; only setup_s is used."""
        spec = make_spec(self.name, False, self.count, setup_only=True)
        rep_dir = os.path.join(self.run_dir, f"rep{self.count:03d}")
        self.count += 1
        rep = run_repeat(rep_dir, spec)
        timing = rep["timing"]
        if timing is None or timing["exit_code"] != 0:
            self.problems.append(f"setup-only repeat {spec['repeat']} failed")
        elif self.kind == "sweep":
            with open(os.path.join(REFERENCE, f"{self.name}_setup.json")) as fh:
                ref = json.load(fh)
            problems = _setup_problems(timing.get("setup"), ref)
            self.problems += [f"repeat {spec['repeat']}: {p}" for p in problems]
        shutil.rmtree(rep_dir)
        return rep


def _summary(values):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n}
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = v[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return out


def _describe(name, unit, values):
    s = _summary(values)
    pct = next((f"  {k}={v:.6g}" for k, v in s.items() if k.startswith("p")), "")
    return f"  {name:<14} {s['median']:.6g} {unit}  (median of n={s['n']}{pct})"


def run_workload(name, seed, seconds, trace, log=print):
    """One benchmark run: the result dict printed as the final JSON line."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = os.path.join(RUNS_DIR, f"{name}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    try:
        return _run(Run(name, seed, run_dir), seconds, trace, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _consistent(reps, what, problems):
    hashes = {json.dumps(r["hashes"], sort_keys=True) for r in reps}
    if len(hashes) > 1:
        problems.append(f"{what} outputs differ between repeats")


def _run(run, seconds, trace, log):
    start = time.monotonic()
    plain, traced = [], []

    def more(done, minimum, reserve=0.0):
        # start another repeat only if one more, at the average pace so
        # far, and then `reserve` seconds still end within the measured time
        elapsed = time.monotonic() - start
        if done < minimum:
            return True
        return elapsed * (done + 1) / done + reserve <= seconds and elapsed < RUN_CAP

    def setup_cost():
        # raw seconds of a setup-only repeat, or None where it is not cheap
        done = [r for r in plain if r["timing"]]
        if not done:
            return None
        cost = statistics.mean(r["raw_setup_s"] for r in done)
        cheap = cost < SETUP_SHARE * statistics.mean(r["raw_wall_s"] for r in done)
        return cost if cheap else None

    def setup_reserve(done):
        # time the setup-only repeats still owed after one more repeat take
        owed, cost = MIN_SETUPS - (done + 1), setup_cost()
        return owed * cost if owed > 0 and cost else 0.0

    setups = []
    if not trace:
        while more(len(plain), MIN_REPEATS, setup_reserve(len(plain))):
            center = next(run.centers) if run.kind == "wavefunction" else None
            plain.append(run.repeat(False, center))
        if run.kind != "wavefunction":
            _consistent(plain, "untraced", run.problems)
        # a short setup_s is noisy, so where its repeats are cheap every
        # run takes at least MIN_SETUPS samples of it
        while setup_cost() and len(plain) + len(setups) < MIN_SETUPS:
            setups.append(run.setup_repeat())
    else:
        # traced and untraced repeats alternate on identical inputs, so the
        # outputs and the counts of any two of them must agree
        center = next(run.centers) if run.kind == "wavefunction" else None
        while more(len(traced), MIN_TRACED):
            plain.append(run.repeat(False, center))
            traced.append(run.repeat(True, center))
        _consistent(plain + traced, "traced and untraced", run.problems)

    good = [r for r in plain if r["timing"] is not None]
    good_traced = [r for r in traced if r["timing"] is not None]
    if not good or (trace and not good_traced) or run.max_err is None:
        raise RuntimeError("no repeat gave a result: " + "; ".join(run.problems[:5]))
    threads = {r["timing"]["blas_threads"] for r in good + good_traced}
    log(f"# workload {run.name}  seed {run.seed}  trace {int(trace)}  "
        f"repeats {len(plain)} untraced, {len(traced)} traced, "
        f"{len(setups)} setup-only  "
        f"BLAS threads {sorted(threads, key=str)}")
    if trace:
        layers = [layer_metrics(r) for r in good_traced]
        counts = [
            {k: v for k, v in m.items() if PER_LAYER[k] in COUNT_UNITS} for m in layers
        ]
        if any(c != counts[0] for c in counts):
            run.problems.append("per-layer counts differ between traced repeats")
        metrics = {
            k: statistics.median(m[k] for m in layers) for k in PER_LAYER
        }
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in good_traced
        ) - statistics.median(r["wall_s"] for r in good)
        for k, unit in PER_LAYER.items():
            if metrics[k]:
                log(f"  {k:<52} {metrics[k]:.6g} {unit}")
        units = PER_LAYER
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in good],
            "setup_s": [r["setup_s"] for r in good + setups if r["timing"]],
            "work_s": [r["work_s"] for r in good],
            "peak_rss_mb": [r["rss_mb"] for r in good],
        }
        for k, values in samples.items():
            log(_describe(k, END_TO_END[k], values))
        log(_describe("raw wall", "s", [r["raw_wall_s"] for r in good]))
        log(_describe("slowdown", "", [r["slowdown"] for r in good]))
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["max_err"] = run.max_err
        log(f"  {'max_err':<14} {metrics['max_err']:.6g} 1  (max over repeats)")
        units = END_TO_END
    log(f"  {'fail_frac':<14} {run.failed / max(run.attempted, 1):.6g} 1  "
        f"({run.failed} failed of {run.attempted} attempted)")
    for p in run.problems[:20]:
        log(f"  problem: {p}")
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ggwpd", "__init__.py")):
        print(f"error: no ggwpd package under {SRC}", file=sys.stderr)
        return 2
    # the only build step of a Python checkout: byte-compile once, so no
    # repeat pays for compilation
    if not compileall.compile_dir(os.path.join(SRC, "ggwpd"), quiet=1):
        print("error: ggwpd does not compile", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_info()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
