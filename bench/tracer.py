"""In-memory span tracer for the ecfactor layers, installed from outside the package.

Each wrapper is installed at the name its caller looks up. `from .x import y`
copies the binding, so `reduction.sample_curve` (not `curves.sample_curve`) is
what `split` calls, and `count_points_prime` is bound separately in `counting`
and in `census`. `arith.jacobi` is deliberately not wrapped: the character-table
build calls it once per residue, so the build is observed as the first count at
each prime instead.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

OK, RAISED, HIT = 0, 1, 2

FIRST = "counting.count_points_prime.first"
REPEAT = "counting.count_points_prime.repeat"

# (module, class or None, attribute, span name)
TARGETS = [
    ("ecfactor.cli", None, "main", "cli.main"),
    ("ecfactor.cli", None, "factor_small", "arith.factor_small"),
    ("ecfactor.arith", None, "factor_small", "arith.factor_small"),
    ("ecfactor.cli", None, "factor_completely", "reduction.factor_completely"),
    ("ecfactor.reduction", None, "split", "reduction.split"),
    ("ecfactor.reduction", None, "recover_from_ratio", "reduction.recover_from_ratio"),
    ("ecfactor.reduction", None, "sample_curve", "curves.sample_curve"),
    ("ecfactor.reduction", None, "twist", "curves.twist"),
    ("ecfactor.curves", None, "screen", "curves.screen"),
    ("ecfactor.curves", None, "isomorphic_gcd", "curves.isomorphic_gcd"),
    ("ecfactor.oracle", "FactoredOracle", "query", "oracle.query"),
    ("ecfactor.counting", None, "count_points_prime", None),
    ("ecfactor.census", None, "count_points_prime", None),
    ("ecfactor.census", None, "census_sweep", "census.census_sweep"),
    ("ecfactor.census", None, "isomorphism_class_traces", "census.isomorphism_class_traces"),
    ("ecfactor.census", None, "phi_direct", "census.phi_direct"),
    ("ecfactor.census", None, "phi_mobius", "census.phi_mobius"),
    ("ecfactor.census", None, "lower_bounds", "census.lower_bounds"),
]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, input id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.input = array("q")
        self.flag = array("b")
        self._stack: list[int] = []
        self._seen_primes: set[int] = set()
        self.input_id = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str | None):
        """Wrap fn; name None marks count_points_prime, split into first/repeat."""
        fixed = None if name is None else self._id(name)
        first, repeat = self._id(FIRST), self._id(REPEAT)
        stack, seen = self._stack, self._seen_primes
        clock = time.perf_counter
        rec_hits = name == "reduction.recover_from_ratio"

        def traced(*args, **kwargs):
            nid = fixed
            if nid is None:
                p = args[0]
                nid = repeat if p in seen else first
                seen.add(p)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.input.append(self.input_id)
            self.flag.append(OK)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.flag[idx] = RAISED
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if rec_hits and result is not None:
                self.flag[idx] = HIT
            return result

        return traced

    def install(self) -> None:
        for module, owner, attr, name in TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            setattr(target, attr, self.wrap(getattr(target, attr), name))

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, self ms, raised and hit counts."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        flag = np.frombuffer(self.flag, dtype=np.int8)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        raised = np.bincount(name, weights=flag == RAISED, minlength=k)
        hits = np.bincount(name, weights=flag == HIT, minlength=k)
        return {
            n: {
                "calls": int(calls[i]),
                "ms": float(total[i]) * 1e3,
                "self_ms": float(own[i]) * 1e3,
                "raised": int(raised[i]),
                "hits": int(hits[i]),
            }
            for i, n in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """One line per span: index name start_s end_s parent input flag."""
        with open(path, "w") as fh:
            fh.write("# span name start_s end_s parent input flag\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i} {names[self.name[i]]} {self.start[i]:.9f} {self.end[i]:.9f} "
                    f"{self.parent[i]} {self.input[i]} {self.flag[i]}\n"
                )
