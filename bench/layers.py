"""Traced run: per-layer metrics from spans recorded around public calls.

The traced run is separate from the timed one.  It first runs about half the
time budget through the CLI, untraced, and then replays exactly those ops
through the public library functions, recording a span (name, start, end,
parent, op) around each call into a layer.  phase_periodicity,
count_zeros_poles and render_pixels take a black-box ``fval``; handing them a
wrapper around eval_f gives the eval_f call count, busy time, arguments and
results.  sigma(ev, z - w) is then replayed over (a sample of) those
arguments to get the sigma busy time, which is reported beside the eval_f
busy time rather than subtracted from it.

Layers a workload does not reach are filled in from one traced op of each
other workload, made from the same seed; the record names the source of each
metric.  trace.overhead_ms is the median traced op minus the median untraced
op.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time

from ellipse_phase import (
    Coloring,
    GridSpec,
    PoleValue,
    QuadratureSpec,
    RenderSpec,
    SigmaEvaluator,
    count_zeros_poles,
    eta,
    eval_elliptic,
    eval_f,
    jsonio,
    make_lattice,
    phase_periodicity,
    render_pixels,
    sigma,
    synthesize,
    v_constant,
)

import workloads as wl
from workloads import metric, run_ops

#: Most eval_f arguments per op over which sigma is replayed.
SIGMA_REPLAY_PER_OP = 4096


class Tracer:
    """Spans and per-op counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": len(self.ops) - 1, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def begin_op(self, workload: str, source: str) -> dict:
        op = {"workload": workload, "source": source, "eval_calls": 0, "eval_busy": 0.0}
        self.ops.append(op)
        return op


class TracedF:
    """eval_f(spec, ev, .) as a black-box fval that records calls, busy time and arguments."""

    def __init__(self, spec, ev, op: dict):
        self.spec, self.ev = spec, ev
        self.calls = 0
        self.busy = 0.0
        self.args: list[complex] = []
        self.markers: list[int] = []
        op.setdefault("evaluators", []).append(self)

    def __call__(self, z):
        t0 = time.perf_counter()
        value = eval_f(self.spec, self.ev, z)
        self.busy += time.perf_counter() - t0
        if isinstance(value, PoleValue) or not math.isfinite(value.log_mag):
            self.markers.append(self.calls)
        self.calls += 1
        self.args.append(z)
        return value

    @contextlib.contextmanager
    def measured(self, rec: dict):
        """Attach this wrapper's calls and busy time inside a span to the span."""
        calls, busy = self.calls, self.busy
        try:
            yield
        finally:
            rec["eval_first"] = calls
            rec["eval_calls"] = self.calls - calls
            rec["eval_busy"] = self.busy - busy


# ---------------------------------------------------------------- replays


def replay_verify(tr: Tracer, op: wl.VerifyOp, rec: dict) -> None:
    lat = jsonio.lattice_from_obj(op.lat.obj())
    d = jsonio.divisor_from_obj(op.divisor, lat)
    with tr.span("synthesis.synthesize"):
        spec = synthesize(d, op.m1, op.m2, lat)
    obj = jsonio.spec_to_obj(spec)
    with tr.span("jsonio.dumps"):
        text = jsonio.dumps(obj)
    obj = json.loads(text)
    with tr.span("jsonio.spec_from_obj"):
        spec = jsonio.spec_from_obj(obj)
    with tr.span("weierstrass.evaluator_fast"):
        ev = SigmaEvaluator(spec.lattice)
    f = TracedF(spec, ev, rec)
    nx, _, ny = wl.VERIFY_GRID.partition("x")
    grid = GridSpec(spec.lattice, int(nx), int(ny), seed=op.grid_seed)
    quad = QuadratureSpec(seed=op.grid_seed + 1)
    with tr.span("verify.grid") as g, f.measured(g):
        res1, _ = phase_periodicity(f, spec.lattice.p1, grid)
        res2, _ = phase_periodicity(f, spec.lattice.p2, grid)
    known = [p for p, _ in spec.divisor.zeros] + [p for p, _ in spec.divisor.poles]
    with tr.span("verify.contour") as c, f.measured(c):
        count = count_zeros_poles(f, spec.lattice, 0j, quad, known)
    # a zero or pole result ends the offset attempt it falls in, and the
    # contour evaluates in central-difference pairs
    first, n = c["eval_first"], c["eval_calls"]
    failed_pairs = {(i - first) // 2 for i in f.markers if first <= i < first + n}
    rec["grid_evals"] = g["eval_calls"]
    rec["grid_minimal"] = 4 * grid.nx * grid.ny
    rec["contour_evals"] = n
    rec["contour_minimal"] = 8 * quad.panels_per_side * quad.nodes_per_panel
    rec["contour_attempts"] = 1 + len(failed_pairs)
    if max(res1, res2) > wl.VERIFY_TOL or count.zeros_minus_poles != 0 or count.integer_distance >= 0.1:
        raise wl.OpFailed("traced verify replay does not pass")


def replay_plot(tr: Tracer, op: wl.PlotOp, rec: dict, expected_digest: str | None) -> None:
    obj = json.loads(op.spec_text)
    with tr.span("jsonio.spec_from_obj"):
        spec = jsonio.spec_from_obj(obj)
    with tr.span("weierstrass.evaluator_fast"):
        ev = SigmaEvaluator(spec.lattice)
    f = TracedF(spec, ev, rec)
    rspec = RenderSpec(op.center, op.size, op.size, *wl.PLOT_PX, coloring=Coloring(op.coloring))
    with tr.span("render.pixels") as s, f.measured(s):
        data = render_pixels(f, rspec)
    rec["pixels"] = wl.PLOT_PX[0] * wl.PLOT_PX[1]
    digest = hashlib.sha256(wl.PLOT_HEADER + data).hexdigest()
    if expected_digest is not None and digest != expected_digest:
        raise wl.OpFailed("traced render differs from the CLI portrait")


def replay_oracle(tr: Tracer, op: wl.OracleOp, rec: dict) -> None:
    lat = make_lattice(op.lat.p1, op.lat.p2)
    with tr.span("weierstrass.evaluator_direct"):
        evd = SigmaEvaluator(lat, backend="direct", truncation_shells=wl.SHELLS)
    with tr.span("weierstrass.sigma_direct"):
        sd = sigma(evd, op.z)
    with tr.span("weierstrass.evaluator_fast"):
        evf = SigmaEvaluator(lat)
    sf = sigma(evf, op.z)
    gap = wl.log_distance(sd.log_mag, sd.phase, sf.log_mag, sf.phase)
    ok = gap <= evd.a_priori_bound(op.z) + evf.a_priori_bound(op.z)
    for j in (1, 2):
        # the eta subcommand builds a direct evaluator per call
        with tr.span("weierstrass.evaluator_direct"):
            ev_j = SigmaEvaluator(lat, backend="direct", truncation_shells=wl.SHELLS)
        eta(ev_j, j)
        with tr.span("sigma_ratio.v_direct"):
            vd = v_constant(lat, op.xi0, j, method="direct", shells=wl.SHELLS)
        ve = v_constant(lat, op.xi0, j, method="eta")
        ok = ok and abs(vd.v - ve.v) <= vd.error_bound + ve.error_bound

    def traced_synthesize(*a):
        with tr.span("synthesis.synthesize"):
            return synthesize(*a)

    def traced_elliptic(*a):
        with tr.span("divisor.eval_elliptic"):
            return eval_elliptic(*a)

    fs: list[TracedF] = []

    def traced_eval_f(spec, ev, z):
        if not fs:
            fs.append(TracedF(spec, ev, rec))
        return fs[0](z)

    lib = {**wl.LIBRARY, "synthesize": traced_synthesize, "eval_f": traced_eval_f,
           "eval_elliptic": traced_elliptic}
    for f_log, lit_log in wl.literal_formula(op, lib):
        ok = ok and wl.log_distance(f_log.real, f_log.imag, lit_log.real, lit_log.imag) <= wl.LITERAL_TOL
    if not ok:
        raise wl.OpFailed("traced oracle replay breaks a certificate")


def replay(tr: Tracer, workload: str, op, source: str, expected_digest=None) -> None:
    rec = tr.begin_op(workload, source)
    with tr.span("op"):
        if workload == "verify":
            replay_verify(tr, op, rec)
        elif workload == "plot":
            replay_plot(tr, op, rec, expected_digest)
        else:
            replay_oracle(tr, op, rec)


def replay_sigma(tr: Tracer) -> None:
    """Replay sigma(ev, z - w) over a sample of each op's eval_f arguments."""
    for rec in tr.ops:
        calls = replayed = 0
        busy = 0.0
        for f in rec.get("evaluators", []):
            shifts = f.spec.eval_zeros + f.spec.eval_poles
            calls += f.calls * len(shifts)
            stride = max(1, math.ceil(len(f.args) / SIGMA_REPLAY_PER_OP))
            sample = f.args[::stride]
            ev = f.ev
            t0 = time.perf_counter()
            for z in sample:
                for w in shifts:
                    sigma(ev, z - w)
            busy += time.perf_counter() - t0
            replayed += len(sample) * len(shifts)
            rec["eval_calls"] += f.calls
            rec["eval_busy"] += f.busy
            rec["factors"] = len(shifts)
        rec["sigma_calls"] = calls
        rec["sigma_replayed"] = replayed
        rec["sigma_replay_busy"] = busy
        rec.pop("evaluators", None)


# ---------------------------------------------------------------- metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self(span: dict) -> float:
    """A span's duration minus the eval_f busy time inside it."""
    return _duration(span) - span["eval_busy"]


def layer_metrics(tr: Tracer, op_ids: set[int]) -> dict:
    """Every per-layer metric computable from the given ops."""
    spans = [s for s in tr.spans if s["op"] in op_ids]
    ops = [tr.ops[i] for i in sorted(op_ids)]
    out: dict = {}

    def by_name(name):
        return [s for s in spans if s["name"] == name]

    def median_span(key, name, scale, unit):
        found = by_name(name)
        if found:
            out[key] = metric(scale * statistics.median(map(_duration, found)), unit)

    median_span("weierstrass.evaluator_fast_us", "weierstrass.evaluator_fast", 1e6, "us")
    median_span("weierstrass.evaluator_direct_ms", "weierstrass.evaluator_direct", 1e3, "ms")
    median_span("weierstrass.sigma_direct_ms", "weierstrass.sigma_direct", 1e3, "ms")
    median_span("synthesis.synthesize_ms", "synthesis.synthesize", 1e3, "ms")
    median_span("divisor.eval_elliptic_us", "divisor.eval_elliptic", 1e6, "us")
    median_span("sigma_ratio.v_direct_ms", "sigma_ratio.v_direct", 1e3, "ms")
    median_span("verify.grid_ms", "verify.grid", 1e3, "ms")
    median_span("verify.contour_ms", "verify.contour", 1e3, "ms")
    median_span("jsonio.spec_from_obj_ms", "jsonio.spec_from_obj", 1e3, "ms")
    median_span("jsonio.dumps_ms", "jsonio.dumps", 1e3, "ms")

    with_f = [o for o in ops if o["eval_calls"]]
    if with_f:
        calls = sum(o["eval_calls"] for o in with_f)
        out["synthesis.eval_f_us"] = metric(1e6 * sum(o["eval_busy"] for o in with_f) / calls, "us")
        out["synthesis.eval_f_calls"] = metric(calls / len(with_f), "count")
        out["synthesis.eval_f_busy_ms"] = metric(1e3 * sum(o["eval_busy"] for o in with_f) / len(with_f), "ms")
        out["synthesis.factors"] = metric(statistics.mean(o["factors"] for o in with_f), "count")
        sigma_calls = sum(o["sigma_calls"] for o in with_f)
        per_call = sum(o["sigma_replay_busy"] for o in with_f) / sum(o["sigma_replayed"] for o in with_f)
        out["weierstrass.sigma_calls"] = metric(sigma_calls / len(with_f), "count")
        out["weierstrass.sigma_fast_us"] = metric(1e6 * per_call, "us")
        out["weierstrass.sigma_busy_ms"] = metric(1e3 * per_call * sigma_calls / len(with_f), "ms")

    # ops whose grid and contour both completed
    checked = [o for o in ops if "grid_evals" in o]
    if checked:
        grid = {s["op"]: s for s in by_name("verify.grid")}
        selves = [_self(c) + _self(grid[c["op"]]) for c in by_name("verify.contour")]
        out["verify.self_ms"] = metric(1e3 * statistics.median(selves), "ms")
        out["verify.resample_evals"] = metric(
            statistics.mean(o["grid_evals"] - o["grid_minimal"] for o in checked), "count"
        )
        out["verify.contour_attempts"] = metric(statistics.mean(o["contour_attempts"] for o in checked), "count")
        minimal = sum(o["grid_minimal"] + o["contour_minimal"] for o in checked)
        actual = sum(o["grid_evals"] + o["contour_evals"] for o in checked)
        out["verify.useful_eval_ratio"] = metric(minimal / actual, "ratio")

    renders = by_name("render.pixels")
    if renders:
        pixels = sum(o["pixels"] for o in ops if "pixels" in o)
        out["render.px_us"] = metric(1e6 * sum(map(_duration, renders)) / pixels, "us")
        out["render.self_us"] = metric(
            1e6 * sum(map(_self, renders)) / pixels, "us"
        )
    return out


# ---------------------------------------------------------------- the run


def traced_run(workload, seconds: float):
    """Untraced CLI pass, traced replay of the same ops, sigma replay, probes."""
    untraced = run_ops(workload, seconds / 2)
    tr = Tracer()
    errors = list(untraced["errors"])
    attempted = len(untraced["ops"])
    for op in untraced["ops"]:
        attempted += 1
        try:
            replay(tr, workload.name, op, "replay", expected_digest(workload, op))
        except wl.OpFailed as exc:
            errors.append(str(exc))

    # one op of every other workload covers the layers this one does not reach
    for name, cls in wl.WORKLOADS.items():
        if name == workload.name:
            continue
        other = cls(workload.seed, workload.work_dir)
        other.prepare()
        attempted += 1
        try:
            replay(tr, name, other.cycle()[0], "probe")
        except wl.OpFailed as exc:
            errors.append(str(exc))
    replay_sigma(tr)

    main_ids = {i for i, o in enumerate(tr.ops) if o["source"] == "replay"}
    probe_ids = set(range(len(tr.ops))) - main_ids
    metrics = layer_metrics(tr, main_ids)
    sources = dict.fromkeys(metrics, "replay")
    for name in wl.WORKLOADS:
        ids = {i for i in probe_ids if tr.ops[i]["workload"] == name}
        for key, value in layer_metrics(tr, ids).items():
            if key not in metrics:
                metrics[key] = value
                sources[key] = f"probe:{name}"

    traced_ops = [_duration(s) for s in tr.spans if s["name"] == "op" and s["op"] in main_ids]
    overhead = statistics.median(traced_ops) - statistics.median(untraced["times"])
    metrics["trace.overhead_ms"] = metric(1e3 * overhead, "ms")

    details = {
        "metric_sources": sources,
        "traced_ops": len(main_ids),
        "untraced_op_p50_ms": 1e3 * statistics.median(untraced["times"]),
        "traced_op_p50_ms": 1e3 * statistics.median(traced_ops),
    }
    return attempted, errors, metrics, details


def expected_digest(workload, op) -> str | None:
    """Digest the CLI portrait of a plot op had, for checking its traced render."""
    if workload.name != "plot":
        return None
    if workload.committed:
        return workload.committed[op.index]
    return workload.first_digest.get(op.index)
