"""Spans and counters recorded from outside the hscube package.

The tracer wraps module functions of ``hscube`` for the duration of a
traced pass and restores them afterwards.  Each wrapped call records a span
(name, thread, start, end, parent) in memory; a span's self time is its
duration minus the durations of the spans it directly encloses on the same
thread.  Jobs handed to ``run_jobs`` are wrapped one by one, so their busy
time is known per worker thread; the span of a job names the pool span that
submitted it as its parent even though the two run on different threads.

Layer metrics are sums of self times over fixed groups of wrapped names
(``LAYERS``), plus counts computed from the call arguments and results.
A wrapped name that no longer exists is reported as missing, and every
metric built on it comes out as None instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

# metric -> wrapped "module.function" names whose self times it sums
LAYERS = {
    "cdbm3d.match_s": ["cdbm3d._collect_groups", "cdbm3d.block_match"],
    "cdbm3d.factor_s": ["cdbm3d._batched_factors"],
    "cdbm3d.transform_s": ["cdbm3d._batched_transform", "cdbm3d.hosvd", "cdbm3d.inverse_hosvd"],
    "cdbm3d.shrink_s": ["cdbm3d.hard_threshold_core", "cdbm3d.wiener_shrink_core"],
    "cdbm3d.aggregate_s": ["cdbm3d._scatter"],
    "cdbm3d.threshold_s": ["cdbm3d.threshold_stage"],
    "cdbm3d.wiener_s": ["cdbm3d.wiener_stage"],
    "cdbm3d.denoise_s": ["cdbm3d.denoise_image"],
    "cdbm3d.sigma_s": ["cdbm3d.estimate_sigma"],
    "subspace.identify_s": ["subspace.identify_subspace", "subspace.estimate_noise"],
    "subspace.project_s": ["subspace.project", "subspace.back_project"],
    "ccf.window_s": ["ccf.ccf_denoise", "ccf.ccf_sliding", "ccf.sliding_plan"],
    "cube.read_s": ["cube.read_cube"],
    "cube.write_s": ["cube.write_cube"],
    "cube.reshape_s": ["cube.reshape_to_matrix", "cube.reshape_to_cube"],
    "evaluate.report_s": [
        "evaluate.make_report",
        "evaluate.rrmse_phase",
        "evaluate.rrmse_amplitude",
        "evaluate.snr_db",
        "evaluate.write_csv",
    ],
    "synth.truth_s": [
        "synth.generate_truth",
        "synth.compound_spec",
        "synth.two_peak_spec",
        "synth.wrapped_peak_spec",
    ],
    "synth.noise_s": ["synth.add_noise"],
}

# metric -> wrapped name whose call count it is
CALLS = {
    "cdbm3d.denoise_calls": "cdbm3d.denoise_image",
    "cdbm3d.sigma_calls": "cdbm3d.estimate_sigma",
    "subspace.identify_calls": "subspace.identify_subspace",
    "ccf.windows": "ccf.ccf_denoise",
    "evaluate.combinations": "evaluate.make_report",
}

POOL = "parallel.run_jobs"


class Tracer:
    """In-memory spans and counters; thread safe."""

    def __init__(self):
        self.spans = []  # (name, thread, start, end, self_seconds, parent)
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name, func, args, kwargs, parent=None):
        """Run ``func`` inside a span named ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [span_id, 0.0]  # id, seconds covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append(
                (name, threading.get_ident(), start, end, end - start - frame[1], parent)
            )

    def count(self, name, n=1.0):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + n

    def merge(self, other: "Tracer"):
        self.spans.extend(other.spans)
        self.missing |= other.missing
        for name, n in other.counts.items():
            self.count(name, n)

    def self_seconds(self, names) -> float:
        wanted = set(names)
        return sum(s[4] for s in self.spans if s[0] in wanted)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)


# ---------------------------------------------------------------------------
# counts computed from call arguments and results


def _window_extent(pos: int, radius: int, n_pos: int) -> int:
    return min(n_pos - 1, pos + radius) - max(0, pos - radius) + 1


def _grid(size: int, patch: int, step: int) -> list[int]:
    last = size - patch
    grid = list(range(0, last + 1, step))
    if grid[-1] != last:
        grid.append(last)
    return grid


def match_counts(shape, cfg) -> tuple[int, int]:
    """(references, search-window candidates) for one matching call.

    Computed from the image shape and the filter config alone: references
    sit on the patch-step grid with the last row and column included, and
    each one is compared with the (2R+1)^2 patch positions of its search
    window, clipped at the image edges.  The count does not depend on how
    the matcher is implemented.
    """
    h, w = shape
    n_vr, n_vc = h - cfg.patch_rows + 1, w - cfg.patch_cols + 1
    rows = _grid(h, cfg.patch_rows, cfg.patch_step)
    cols = _grid(w, cfg.patch_cols, cfg.patch_step)
    radius = cfg.search_radius
    cand = sum(_window_extent(r, radius, n_vr) for r in rows) * sum(
        _window_extent(c, radius, n_vc) for c in cols
    )
    return len(rows) * len(cols), cand


def _after_match(tracer, args, kwargs, result):
    image = args[0] if args else kwargs["match_image"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    refs, cand = match_counts(image.shape, cfg)
    tracer.count("match.references", refs)
    tracer.count("match.candidates", cand)
    try:
        members = sum(len(rows) for rows, _ in result)
    except (TypeError, ValueError):
        tracer.count("match.unparsed_groups")
        return
    tracer.count("match.groups", len(result))
    tracer.count("match.members", members)


def _after_hard_threshold(tracer, args, kwargs, result):
    core = args[0] if args else kwargs["core"]
    tracer.count("shrink.coefficients", core.size)
    tracer.count("shrink.retained", float(result[1].sum()))


def _after_identify(tracer, args, kwargs, result):
    tracer.count("subspace.p_total", result.p)


def _after_read(tracer, args, kwargs, result):
    tracer.count("cube.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _after_write(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("cube.bytes_written", os.path.getsize(path))


AFTER = {
    "cdbm3d._collect_groups": _after_match,
    "cdbm3d.hard_threshold_core": _after_hard_threshold,
    "subspace.identify_subspace": _after_identify,
    "cube.read_cube": _after_read,
    "cube.write_cube": _after_write,
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers


def _wrap(tracer, name, func):
    after = AFTER.get(name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        result = tracer.call(name, func, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _wrap_pool(tracer, func):
    """Outermost ``run_jobs`` calls become a pool span with one span per
    job; calls made from inside a job run the jobs inline and are left
    alone, so nested work is not counted twice."""
    local = threading.local()

    def in_job():
        return getattr(local, "depth", 0) > 0

    @functools.wraps(func)
    def traced(jobs, *args, **kwargs):
        if in_job():
            return func(jobs, *args, **kwargs)
        jobs = list(jobs)
        threads = args[0] if args else kwargs.get("threads", 1)
        pool_id = None

        def wrap_job(job):
            def run():
                local.depth = getattr(local, "depth", 0) + 1
                try:
                    return tracer.call("parallel.job", job, (), {}, parent=pool_id)
                finally:
                    local.depth -= 1

            return run

        def run_pool():
            nonlocal pool_id
            pool_id = tracer.current()
            return func([wrap_job(j) for j in jobs], *args, **kwargs)

        workers = 1 if threads <= 1 or len(jobs) <= 1 else min(threads, len(jobs))
        start = time.perf_counter()
        try:
            return tracer.call(POOL, run_pool, (), {})
        finally:
            tracer.count("parallel.slot_seconds", (time.perf_counter() - start) * workers)

    return traced


def _hscube_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "hscube" or key.startswith("hscube."))]


class Installed:
    """Context manager that swaps every binding of the traced functions in
    every loaded hscube module (a name imported into several modules is
    bound in each) and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore = []

    def __enter__(self):
        import hscube

        names = {n for group in LAYERS.values() for n in group} | {POOL}
        modules = _hscube_modules()
        for name in sorted(names):
            mod_name, attr = name.split(".")
            home = getattr(hscube, mod_name, None)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.tracer.missing.add(name)
                continue
            wrapper = (_wrap_pool(self.tracer, original) if name == POOL
                       else _wrap(self.tracer, name, original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self.tracer

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        return False


# ---------------------------------------------------------------------------
# layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything the tracer recorded; None marks a
    metric whose wrapped function no longer exists."""
    out = {}
    for metric, names in LAYERS.items():
        out[metric] = None if set(names) <= tracer.missing else tracer.self_seconds(names)
    for metric, name in CALLS.items():
        out[metric] = None if name in tracer.missing else tracer.calls(name)

    c = tracer.counts
    match_missing = "cdbm3d._collect_groups" in tracer.missing
    refs = c.get("match.references", 0.0)
    cand = c.get("match.candidates", 0.0)
    out["cdbm3d.references"] = None if match_missing else int(refs)
    out["cdbm3d.match_candidates"] = None if match_missing else int(cand)
    out["cdbm3d.group_size_mean"] = (
        None if match_missing or c.get("match.unparsed_groups")
        else _ratio(c.get("match.members", 0.0), c.get("match.groups", 0.0))
    )
    out["cdbm3d.match_ns_per_candidate"] = (
        None if match_missing else _ratio(out["cdbm3d.match_s"] * 1e9, cand)
    )
    out["cdbm3d.retained_ratio"] = (
        None if "cdbm3d.hard_threshold_core" in tracer.missing
        else _ratio(c.get("shrink.retained", 0.0), c.get("shrink.coefficients", 0.0))
    )
    identify_missing = "subspace.identify_subspace" in tracer.missing
    out["subspace.p_mean"] = (
        None if identify_missing
        else _ratio(c.get("subspace.p_total", 0.0), out["subspace.identify_calls"])
    )
    for key, name in (("cube.bytes_read", "cube.read_cube"), ("cube.bytes_written", "cube.write_cube")):
        out[key] = None if name in tracer.missing else int(c.get(key, 0))

    if POOL in tracer.missing:
        for key in ("jobs", "job_busy_s", "pool_wall_s", "utilization", "max_job_s"):
            out[f"parallel.{key}"] = None
    else:
        jobs = [s for s in tracer.spans if s[0] == "parallel.job"]
        pools = [s for s in tracer.spans if s[0] == POOL]
        busy = sum(s[3] - s[2] for s in jobs)
        out["parallel.jobs"] = len(jobs)
        out["parallel.job_busy_s"] = busy
        out["parallel.pool_wall_s"] = sum(s[3] - s[2] for s in pools)
        # busy time over the pools' wall time times their worker count
        out["parallel.utilization"] = _ratio(busy, c.get("parallel.slot_seconds", 0.0))
        out["parallel.max_job_s"] = max((s[3] - s[2] for s in jobs), default=0.0)
    return out
