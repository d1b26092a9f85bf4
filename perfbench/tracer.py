"""Spans around calls into solhom's public functions, from outside the
package.

install() replaces every binding of each wrapped function: the
defining module's name and every `from .x import f` copy in the other
solhom modules, or the attribute on the class for methods.  A span's
self time is its duration minus the time of the spans it encloses.
uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "cli", "engine", "places", "nfield", "limits", "fgab",
    "linalg", "qpoly", "intfactor", "rootcount", "errors",
)

# Where each wrapped function lives, as module[.class].name.
TARGETS = (
    "cli.main",
    "cli.build_report",
    "places.build_system",
    "places.SolenoidSystem.dual_system",
    "engine.finite_part_homology",
    "engine.principalization",
    "engine.hk_check",
    "engine.k_theory",
    "linalg.exterior_power_matrix",
    "linalg.IntMatrix.det",
    "linalg.char_poly",
    "linalg.hnf",
    "linalg.snf",
    "limits.ColimitGroup.membership_stage",
    "limits.equal_commuting",
    "limits.canonical_form",
    "limits.InvariantSignature.of",
    "nfield.principal_generator",
    "nfield.fundamental_unit",
    "nfield.element_valuations",
    "nfield.NfElement.mult_matrix_integral",
    "nfield.NfElement.inverse",
    "intfactor.factorint",
    "qpoly.is_irreducible_over_q",
    "qpoly.factor_mod_p",
    "rootcount.roots_in_unit_disk",
    "rootcount.real_roots_in_interval",
    "fgab.kunneth",
)

# A span is named after its target, except where noted here.
SPAN_NAMES = {"places.SolenoidSystem.dual_system": "places.dual_system"}

# Spans whose first argument's bit length is tracked.
ARG_BITS = {"intfactor.factorint"}

# Fields of a span's totals: calls, self time, normal returns, returns
# other than None, largest argument bit length.
CALLS, SELF_NS, RETURNED, NON_NONE, MAX_BITS = range(5)

_RAISED = object()


def solhom_modules() -> list:
    return [importlib.import_module(f"solhom.{name}") for name in MODULES]


def span_name(target: str) -> str:
    return SPAN_NAMES.get(target, target)


def _resolve(target: str):
    """(owner, attribute) of a target; owner is a module or a class."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"solhom.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.totals = {span_name(t): [0, 0, 0, 0, 0] for t in TARGETS}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        totals = self.totals[name]
        stack = self._stack
        clock = time.perf_counter_ns
        track_bits = name in ARG_BITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_bits:
                totals[MAX_BITS] = max(totals[MAX_BITS], abs(args[0]).bit_length())
            stack.append(0)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[CALLS] += 1
                totals[SELF_NS] += elapsed - children
                if result is not _RAISED:
                    totals[RETURNED] += 1
                    if result is not None:
                        totals[NON_NONE] += 1

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = solhom_modules()
        for target in TARGETS:
            name = span_name(target)
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def merge(self, totals: dict) -> None:
        """Add the totals of another tracer, e.g. one in a child process."""
        for name, other in totals.items():
            mine = self.totals[name]
            for field in (CALLS, SELF_NS, RETURNED, NON_NONE):
                mine[field] += other[field]
            mine[MAX_BITS] = max(mine[MAX_BITS], other[MAX_BITS])


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, ops: int, time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics from span totals over `ops` operations: calls
    and self time (times time_scale) per operation, and the ratios of
    useful outcomes to attempts (0 where the function was never called)."""
    out: dict[str, float] = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = t[CALLS] / ops
        out[f"{name}.self_ms"] = t[SELF_NS] / 1e6 * time_scale / ops
    membership = totals["limits.ColimitGroup.membership_stage"]
    out["limits.membership.member_ratio"] = _ratio(membership[NON_NONE], membership[CALLS])
    closed = totals["limits.canonical_form"]
    out["limits.canonical_form.closed_ratio"] = _ratio(closed[RETURNED], closed[CALLS])
    found = totals["nfield.principal_generator"]
    out["nfield.principal_generator.found_ratio"] = _ratio(found[NON_NONE], found[CALLS])
    out["intfactor.factorint.max_bits"] = totals["intfactor.factorint"][MAX_BITS]
    return out
