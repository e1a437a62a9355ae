"""Spans around lucasmagic's layers, recorded from the benchmark's side.

install() rebinds every public function of each layer module, at every
place the function is bound (the defining module, the modules that import
it, and the package namespace), plus SquareMatrix.__matmul__,
SquareMatrix.exact_rank, SquareMatrix.from_grid and Radical.__init__.  A
wrapped call records one span (name, start, end, parent span, op id) while
the tracer is active and only forwards the call otherwise, so the output
checks, which run with the tracer inactive, add no spans.

Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import lucasmagic
from lucasmagic import algebra, cli, construct, enumeration, exactmat, radical, spectra, verify

LAYERS = {
    "exactmat": exactmat,
    "radical": radical,
    "construct": construct,
    "verify": verify,
    "spectra": spectra,
    "enumeration": enumeration,
    "algebra": algebra,
    "cli": cli,
}
# (owner, attribute, layer) of the methods traced besides module functions
METHODS = (
    (exactmat.SquareMatrix, "__matmul__", "exactmat"),
    (exactmat.SquareMatrix, "exact_rank", "exactmat"),
    (exactmat.SquareMatrix, "from_grid", "exactmat"),
    (radical.Radical, "__init__", "radical"),
)
SQUARE_RESULTS = ("lucas", "frierson", "lucas3", "frierson3", "compound_once", "apply_phase",
                  "frierson9", "canonical_phase")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.active = False
        self.op_id = -1
        # work counters, per op id
        self.counts = defaultdict(lambda: defaultdict(int))
        # canonical forms seen, per innermost enclosing enumeration span
        self._canonical_seen: dict[int, set] = defaultdict(set)
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer, module in LAYERS.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        for module in (lucasmagic, *LAYERS.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, name, wrapped[obj])
        for owner, attr, layer in METHODS:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = self._wrap(f"{layer}.{owner.__name__}.{attr}", fn)
            self._rebind(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn)
        nid = len(self.names)
        self.names.append(qualname)
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1])
            self.op_of.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, idx, result)
            return result

        return traced

    def _wrap_generator(self, qualname: str, fn):
        key = qualname + ".items"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    self.counts[self.op_id][key] += 1
                yield item

        return counted

    # -- per-op control --------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def finish(self) -> None:
        self.active = False
        self._canonical_seen.clear()

    def enclosing(self, idx: int, layer: str) -> int:
        """The nearest enclosing span of `layer`, or -1."""
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name_of[p]].startswith(layer + "."):
                return p
            p = self.parent[p]
        return -1

    def outermost(self, idx: int) -> bool:
        """True when no enclosing span belongs to the same layer."""
        return self.enclosing(idx, self.names[self.name_of[idx]].split(".", 1)[0]) < 0

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- counters read off arguments and results at the layer boundary -------------


def _count_square(tr, idx, result):
    if tr.outermost(idx):
        tr.counts[tr.op_id]["construct.entries_built"] += result.n * result.n


def _count_matmul(tr, idx, result):
    tr.counts[tr.op_id]["exactmat.matmul_ops"] += result.n ** 3


def _count_spectrum(tr, idx, result):
    if tr.outermost(idx):
        c = tr.counts[tr.op_id]
        c["spectra.values_returned"] += len(result)
        c["spectra.values_nonzero"] += sum(1 for r in result if not r.is_zero())


def _count_canonical(tr, idx, result):
    seen = tr._canonical_seen[tr.enclosing(idx, "enumeration")]
    if result not in seen:
        seen.add(result)
        tr.counts[tr.op_id]["enumeration.fundamentals_found"] += 1


_HOOKS = {f"construct.{name}": _count_square for name in SQUARE_RESULTS}
_HOOKS.update({
    "exactmat.SquareMatrix.__matmul__": _count_matmul,
    "spectra.eigenvalues": _count_spectrum,
    "spectra.singular_values": _count_spectrum,
    "construct.canonical_parameters": _count_canonical,
})
