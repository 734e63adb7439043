"""Spans and counters around the calls into each laplaceqm layer.

The tracer wraps chosen functions at every module binding, because the
package imports them by value (contour_eval holds its own ``kummer_m``,
``tricomi_u``, ``gamma_complex`` and ``_adaptive_gauss``; validation and cli
hold ``phi_values``, ``sample_wavefunction``, ``cross_method_report`` and
``spectrum_table``).  Wrapping only the defining module would miss those
calls and read zero.  Spans (name, start, end, parent, outcome) stay in
memory; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

import numpy as np

LAYERS = ("special_fn", "core_laplace", "potential_catalog", "contour_eval", "validation", "cli")

# functions wrapped per layer; "Class.method" patches the class attribute
TRACED: Dict[str, Tuple[str, ...]] = {
    "special_fn": ("gamma_complex", "kummer_m", "tricomi_u", "_tricomi_u_kummer",
                   "_adaptive_gauss", "hermite"),
    "core_laplace": ("exponents", "default_phase_convention"),
    "potential_catalog": ("canonicalize", "coordinate_map", "bound_energy",
                          "residue_lattice_energy", "CoordinateMap.xi",
                          "CoordinateMap.prefactor"),
    "contour_eval": ("phi_values", "sample_wavefunction", "bound_phi_residue",
                     "hermite_phi_residue", "continuum_phi_real_integral",
                     "continuum_phi_circle", "continuum_phi_series", "morse_continuum_phi"),
    "validation": ("cross_method_report", "spectrum_table"),
    "cli": ("main", "cmd_spectrum", "cmd_wavefunction", "cmd_validate", "render_csv"),
}

ROUTES = {
    "residue": ("bound_phi_residue", "hermite_phi_residue"),
    "real_integral": ("continuum_phi_real_integral",),
    "circle": ("continuum_phi_circle",),
    "series": ("continuum_phi_series",),
    "morse_ray": ("morse_continuum_phi",),
}

# which positional argument holds the xi values a call evaluates
_POINT_ARG = {"phi_values": 2, "bound_phi_residue": 2, "hermite_phi_residue": 1,
              "continuum_phi_real_integral": 2, "continuum_phi_circle": 3,
              "continuum_phi_series": 2, "morse_continuum_phi": 2}

# span record fields
NAME, START, END, PARENT, OUTCOME, POINTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._layer_of: Dict[str, str] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "laplaceqm" or name.startswith("laplaceqm."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"laplaceqm.{layer}"]
            for name in names:
                self._layer_of[name] = layer
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        point_arg = _POINT_ARG.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, "ok", 0]
            if point_arg is not None:
                rec[POINTS] = int(np.size(args[point_arg]))
            if name == "_adaptive_gauss":
                args = (_count_nodes(args[0], counts),) + args[1:]
            elif name == "continuum_phi_circle":
                counts["circle_steps"] += _circle_steps(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[OUTCOME] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    # -- analysis ---------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics over every span recorded so far."""
        spans = self.spans
        child = np.zeros(len(spans))
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls: Counter = Counter()
        points: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        failures: Counter = Counter()
        kummer_answered = 0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            calls[name] += 1
            points[name] += rec[POINTS]
            self_s[name] += rec[END] - rec[START] - child[i]
            if rec[OUTCOME] != "ok":
                failures[(name, rec[OUTCOME])] += 1
            if (name == "_tricomi_u_kummer" and rec[OUTCOME] == "ok"
                    and spans[rec[PARENT]][NAME] == "tricomi_u"):
                kummer_answered += 1
        layer_self: Dict[str, float] = defaultdict(float)
        for name, value in self_s.items():
            layer_self[self._layer_of[name]] += value

        def share(num, den):
            return num / den if den else 0.0

        out: Dict[str, Tuple[float, str]] = {
            "special_fn.gamma_complex.calls": (calls["gamma_complex"], "count"),
            "special_fn.kummer_m.calls": (calls["kummer_m"], "count"),
            "special_fn.kummer_m.self_s": (self_s["kummer_m"], "s"),
            "special_fn.tricomi_u.calls": (calls["tricomi_u"], "count"),
            "special_fn.tricomi_u.self_s": (self_s["tricomi_u"], "s"),
            "special_fn.tricomi_u.kummer_branch_share":
                (share(kummer_answered, calls["tricomi_u"]), "ratio"),
            "special_fn.adaptive_gauss.calls": (calls["_adaptive_gauss"], "count"),
            "special_fn.adaptive_gauss.self_s": (self_s["_adaptive_gauss"], "s"),
            "special_fn.adaptive_gauss.f_nodes": (self.counts["f_nodes"], "count"),
            "special_fn.adaptive_gauss.fail_ratio": (share(
                failures[("_adaptive_gauss", "QuadratureFailure")],
                calls["_adaptive_gauss"]), "ratio"),
            "core_laplace.exponents.calls": (calls["exponents"], "count"),
            "potential_catalog.canonicalize.calls": (calls["canonicalize"], "count"),
            "potential_catalog.coordinate_map.calls": (calls["coordinate_map"], "count"),
            "contour_eval.phi_values.calls": (calls["phi_values"], "count"),
            "contour_eval.phi_values.points_per_call":
                (share(points["phi_values"], calls["phi_values"]), "points"),
        }
        for route, names in ROUTES.items():
            out[f"contour_eval.{route}.points"] = (sum(points[n] for n in names), "count")
            out[f"contour_eval.{route}.self_s"] = (sum(self_s[n] for n in names), "s")
        out["contour_eval.circle.integrand_evals"] = (self.counts["circle_steps"], "count")
        out["contour_eval.precision_loss_warnings"] = (self.counts["precision_loss"], "count")
        out["validation.cross_method_report.calls"] = (calls["cross_method_report"], "count")
        out["validation.cross_method_report.self_s"] = (self_s["cross_method_report"], "s")
        out["validation.spectrum_table.calls"] = (calls["spectrum_table"], "count")
        out["cli.main.calls"] = (calls["main"], "count")
        out["cli.render_csv.self_s"] = (self_s["render_csv"], "s")
        out["cli.bytes_out"] = (self.counts["bytes_out"], "B")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out

    def write(self, path, header: Dict) -> None:
        """Spans as JSON lines: a header, then [name, start, end, parent, outcome]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        lines = [json.dumps(header)]
        lines.extend(
            json.dumps([r[NAME], round(r[START] - t0, 9), round(r[END] - t0, 9),
                        r[PARENT], r[OUTCOME]])
            for r in self.spans
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def _count_nodes(f, counts):
    def counted(nodes):
        counts["f_nodes"] += np.size(nodes)
        return f(nodes)
    return counted


def _circle_steps(args, kwargs) -> int:
    from laplaceqm.contour_eval import ContourConfig

    config = args[4] if len(args) > 4 else kwargs.get("config")
    return (config or ContourConfig()).steps
