"""Span tracing by wrapping, from outside, the functions one ballmax module
calls in the module below it, and the per-layer metrics derived from the spans.

A wrapper replaces the name in the namespace the caller looks it up in (for
``from .geometry import lens_volume_array`` that is the caller's module), so
the program is not edited.  ``Tracer.restore`` puts every original back.

A span is the list ``[name, start_ns, end_ns, parent, op, count, flag]``:
``parent`` is the index of the enclosing span (-1 at the top), ``op`` the id
of the benchmark operation it belongs to, ``count`` the elements or radii
read from the call's arguments, and ``flag`` a yes/no fact about the result.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter_ns

import numpy as np

from ballmax import analysis, geometry, maximal, profiles, verify

_UNCONVERGED = "did not reach rel_tol"


def _lens_count(d, c, rho1, rho2, *rest):
    return np.broadcast(c, rho1, rho2).size


def _cap_count(d, rho, h, *rest):
    return np.broadcast(rho, h).size


def _radii_count(g, cfg, R, *rest, **kw):
    return int(np.size(R))


def _threshold_count(g, cfg, t_grid, *rest, **kw):
    return len(t_grid)


def _mc_count(d, c, rho1, rho2, mc, *rest):
    return mc.n_samples


def _unconverged(result):
    return any(_UNCONVERGED in w for w in result[4])


VERIFY_CHECKS = {
    "mc-geometry": "check_mc_geometry",
    "homothety": "check_homothety_identity",
    "shrink-overlap": "check_shrink_overlap_inequality",
    "lens-enclosure": "check_lens_enclosure",
    "centered-shell": "check_centered_shell_gap",
    "bands": "check_band_regions",
    "domination": "check_random_ball_domination",
}

# (module, attribute, span name, count from arguments, flag from result)
WRAPS = [
    (profiles, "random_profile", "profiles.random_profile", None, None),
    (geometry, "cap_volume_array", "geometry.cap_array", _cap_count, None),
    (geometry, "cap_volume", "geometry.scalar", None, None),
    (maximal, "lens_volume_array", "geometry.lens_array", _lens_count, None),
    (verify, "lens_volume_array", "geometry.lens_array", _lens_count, None),
    (maximal, "intersection_volume", "geometry.scalar", None, None),
    (verify, "intersection_volume", "geometry.scalar", None, None),
    # every supremum search goes through this one function: maximal_value*
    # call it, and analysis.radial_scan imports it directly
    (maximal, "_supremum_batch", "maximal.supremum", _radii_count, _unconverged),
    (analysis, "sweep", "analysis.sweep", None, None),
    (analysis, "weak_constant_estimate", "analysis.cell", _threshold_count, None),
    (analysis, "radial_scan", "analysis.scan", None, None),
    (verify, "mc_intersection_volume", "verify.mc", _mc_count, None),
] + [(verify, fn, f"verify.{name}", None, None) for name, fn in VERIFY_CHECKS.items()]


class Tracer:
    """Records spans while installed; ``op`` names the operation running."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[str, str]] = []  # op id -> (group, kind)
        self.op = -1
        self.analysis_warnings: dict[str, int] = {}  # group -> warnings seen
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, module, attr, name, count, flag):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op,
                    count(*args, **kwargs) if count else 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if flag:
                span[6] = flag(result)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def install(self):
        for entry in WRAPS:
            self._wrap(*entry)

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def begin_op(self, group: str, kind: str, name: str):
        """Open the top span of one benchmark operation."""
        self.op = len(self.ops)
        self.ops.append((group, kind))
        span = [name, 0, 0, -1, self.op, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def end_op(self, span):
        span[2] = perf_counter_ns()
        self._stack.pop()
        self.op = -1

    def dump(self, path: str, extra: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "count", "flag"],
                    "names": names,
                    "ops": self.ops,
                    "spans": [[index[s[0]], *s[1:6], int(s[6])] for s in self.spans],
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, own: str) -> tuple[dict, dict]:
    """Per-layer metrics and, per layer, the group of operations they were
    taken from: the workload's own operations when they reach the layer,
    otherwise the probe operations (one round of each other workload)."""
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    cell_of = [-1] * n  # enclosing analysis.cell span
    scan_of = [-1] * n  # enclosing analysis.scan span
    sup_of = [-1] * n  # enclosing maximal.supremum span
    scalar_of = [-1] * n  # outermost enclosing scalar geometry span
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            cell_of[i], scan_of[i], sup_of[i], scalar_of[i] = cell_of[p], scan_of[p], sup_of[p], scalar_of[p]
        name = s[0]
        if name == "analysis.cell":
            cell_of[i] = i
        elif name == "analysis.scan":
            scan_of[i] = i
        elif name == "maximal.supremum":
            sup_of[i] = i
        elif name == "geometry.scalar" and scalar_of[i] < 0:
            scalar_of[i] = i
    self_ns = [dur[i] - child[i] for i in range(n)]
    group = [tracer.ops[s[4]][0] if s[4] >= 0 else "setup" for s in spans]

    def pick(names):
        """Span indices with a name in names from the own group, or else
        from the probe group; and which group was used."""
        for g in (own, "probe"):
            idx = [i for i in range(n) if group[i] == g and spans[i][0] in names]
            if idx:
                return idx, g
        return [], "none"

    def ops_in(g):
        return sum(1 for og, _ in tracer.ops if og == g) or 1

    m, source = {}, {}

    lens, g_lens = pick({"geometry.lens_array"})
    caps = [i for i in range(n) if group[i] == g_lens and spans[i][0] == "geometry.cap_array"]
    lens_evals = sum(spans[i][5] for i in lens)
    cap_evals = sum(spans[i][5] for i in caps)
    m["geometry.lens_calls"] = _ratio(len(lens), ops_in(g_lens))
    m["geometry.lens_evals"] = _ratio(lens_evals, ops_in(g_lens))
    m["geometry.lens_evals_per_call"] = _ratio(lens_evals, len(lens))
    m["geometry.lens_ns_per_eval"] = _ratio(sum(dur[i] for i in lens), lens_evals)
    m["geometry.cap_evals"] = _ratio(cap_evals, ops_in(g_lens))
    m["geometry.cap_ns_per_eval"] = _ratio(sum(dur[i] for i in caps), cap_evals)
    source["geometry"] = g_lens

    scal, g_scal = pick({"geometry.scalar"})
    outer = [i for i in scal if scalar_of[i] == i]
    m["geometry.scalar_calls"] = _ratio(len(outer), ops_in(g_scal))
    m["geometry.scalar_us_per_call"] = _ratio(sum(dur[i] for i in outer), len(outer)) / 1e3
    source["geometry.scalar"] = g_scal

    sups, g_sup = pick({"maximal.supremum"})
    radii = sum(spans[i][5] for i in sups)
    sup_set = set(sups)
    sup_lens = sum(spans[i][5] for i in range(n) if spans[i][0] == "geometry.lens_array" and sup_of[i] in sup_set)
    m["maximal.calls"] = _ratio(len(sups), ops_in(g_sup))
    m["maximal.radii"] = _ratio(radii, ops_in(g_sup))
    m["maximal.us_per_radius"] = _ratio(sum(dur[i] for i in sups), radii) / 1e3
    m["maximal.self_us_per_radius"] = _ratio(sum(self_ns[i] for i in sups), radii) / 1e3
    m["maximal.lens_evals_per_radius"] = _ratio(sup_lens, radii)
    m["maximal.unconverged"] = sum(1 for i in sups if spans[i][6])
    source["maximal"] = g_sup

    cells, g_cell = pick({"analysis.cell"})
    cell_set = set(cells)
    in_cells = [i for i in range(n) if cell_of[i] in cell_set]
    cell_sups = [i for i in in_cells if spans[i][0] == "maximal.supremum"]
    scan_sups = [i for i in cell_sups if scan_of[i] >= 0]
    bisect_sups = [i for i in cell_sups if scan_of[i] < 0]
    analysis_spans = [i for i in range(n) if group[i] == g_cell and spans[i][0].startswith("analysis.")]
    nc = len(cells)
    m["analysis.radii_per_cell"] = _ratio(sum(spans[i][5] for i in cell_sups), nc)
    m["analysis.scan_radii_per_cell"] = _ratio(sum(spans[i][5] for i in scan_sups), nc)
    m["analysis.bisect_radii_per_cell"] = _ratio(sum(spans[i][5] for i in bisect_sups), nc)
    m["analysis.scan_ms_per_cell"] = _ratio(sum(dur[i] for i in in_cells if spans[i][0] == "analysis.scan"), nc) / 1e6
    m["analysis.bisect_ms_per_cell"] = _ratio(sum(dur[i] for i in bisect_sups), nc) / 1e6
    m["analysis.self_ms_per_cell"] = _ratio(sum(self_ns[i] for i in analysis_spans), nc) / 1e6
    m["analysis.ms_per_threshold"] = _ratio(sum(dur[i] for i in cells), sum(spans[i][5] for i in cells)) / 1e6
    m["analysis.lens_evals_per_cell"] = _ratio(
        sum(spans[i][5] for i in in_cells if spans[i][0] == "geometry.lens_array"), nc
    )
    m["analysis.warnings"] = tracer.analysis_warnings.get(g_cell, 0)
    source["analysis"] = g_cell

    gen = [i for i in range(n) if group[i] == "setup" and spans[i][0] == "profiles.random_profile"]
    m["profiles.gen_ms"] = sum(dur[i] for i in gen) / 1e6
    source["profiles"] = "setup"

    checks, g_ver = pick({f"verify.{c}" for c in VERIFY_CHECKS})
    for name in VERIFY_CHECKS:
        these = [dur[i] for i in checks if spans[i][0] == f"verify.{name}"]
        m[f"verify.{name}.ms"] = _ratio(sum(these), len(these)) / 1e6
    mc = [i for i in range(n) if group[i] == g_ver and spans[i][0] == "verify.mc"]
    m["verify.mc_samples_per_s"] = _ratio(sum(spans[i][5] for i in mc), sum(dur[i] for i in mc) / 1e9)
    verify_spans = [i for i in range(n) if group[i] == g_ver and spans[i][0].startswith("verify.")]
    m["verify.self_ms"] = _ratio(sum(self_ns[i] for i in verify_spans), len(checks)) / 1e6
    source["verify"] = g_ver

    for cmd in ("eval", "scan", "constant", "verify"):
        runs, g_cli = pick({f"cli.{cmd}"})
        m[f"cli.{cmd}_ms"] = statistics.median(dur[i] for i in runs) / 1e6 if runs else 0.0
        source[f"cli.{cmd}"] = g_cli
    imports = [dur[i] for i in range(n) if spans[i][0] == "cli.import"]
    m["cli.import_ms"] = statistics.median(imports) / 1e6 if imports else 0.0
    inproc = [dur[i] for i in range(n) if spans[i][0] == "cli.inproc"]
    m["cli.inproc_ms"] = _ratio(sum(inproc), len(inproc)) / 1e6
    return m, source
