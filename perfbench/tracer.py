"""Span tracing of the biquat layers, installed from outside the package.

``Tracer.install`` replaces each traced function at every place a biquat
module binds it (``verify.oracle_mul``, ``entanglement.bmul``,
``cli.entangle``, ...) with a wrapper that records one span, and
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/``
changes.  Callers look these names up at call time, so a wrapped binding
sees every call made through it, within its own module too.

Traced are the public functions of every layer (its ``__all__``), the
private helpers of ``cli`` (they carry the parse / format split below) and
the ``ExactBiQuat`` constructors and ``to_floats``.  Other private helpers
and the remaining methods count as self time of their caller.

A span is ``[name, via, start_ns, end_ns, parent, ok]``: ``name`` is
``<layer>.<function>``, ``via`` the module whose binding was called,
``parent`` the index of the enclosing span (-1 for none) and ``ok`` false
when the call raised.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("quaternion", "biquaternion", "rotations", "entanglement",
          "exact", "verify", "cli")
_PRIVATE_TRACED = ("cli",)
_METHODS_TRACED = {("exact", "ExactBiQuat"): ("__init__", "from_scalars",
                                              "from_biquat", "to_floats")}

_CLI_PARSE = {"parse_biquat", "parse_quat", "_parse_complex",
              "_parse_json_biquat", "_require_real"}
_CLI_FORMAT = {"format_biquat", "format_complex", "_fmt_float", "_json_num",
               "_biquat_json", "_print_report"}
_NORM_CHECKS = {"quaternion.norm", "biquaternion.norm_h"}

_NS_PER_MS = 1e6


def _modules():
    return {layer: sys.modules[f"biquat.{layer}"] for layer in LAYERS}


def _targets(mods):
    """Map id(function) -> span name for every traced module function."""
    out = {}
    for layer, mod in mods.items():
        names = set(mod.__all__)
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (name in names or (layer in _PRIVATE_TRACED
                                           and name.startswith("_")))):
                out[id(obj)] = f"{layer}.{name}"
    return out


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def wrap(self, name, via, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, via, 0, 0, stack[-1], True]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[3] = clock()
                stack.pop()
        return traced

    def install(self):
        mods = _modules()
        targets = _targets(mods)
        holders = dict(mods, biquat=sys.modules["biquat"])
        for via, mod in holders.items():
            for name, obj in list(vars(mod).items()):
                span = targets.get(id(obj))
                if span is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, self.wrap(span, via, obj))
        for (layer, cls_name), methods in _METHODS_TRACED.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                self._undo.append((cls, meth, raw))
                span = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self.wrap(span, layer, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(span, layer, raw))

    def uninstall(self):
        for holder, name, obj in reversed(self._undo):
            setattr(holder, name, obj)
        self._undo.clear()


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            covered[rec[4]] += rec[3] - rec[2]
    return [rec[3] - rec[2] - c for rec, c in zip(spans, covered)]


def count_fraction_new(fn) -> int:
    """Calls of ``Fraction.__new__`` while ``fn()`` runs, by profile hook."""
    code = Fraction.__new__.__code__
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def layer_metrics(spans, exit_codes: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in ms over the pass)."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: dict[str, int] = defaultdict(int)
    layer_calls: Counter = Counter()
    layer_self: dict[str, int] = defaultdict(int)
    for rec, st in zip(spans, selfs):
        name = rec[0]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_ns[name] += st
        layer_calls[layer] += 1
        layer_self[layer] += st

    in_entangle = [False] * len(spans)
    norm_checks = accepted = 0
    for k, (name, via, _, _, parent, ok) in enumerate(spans):
        in_entangle[k] = (name == "entanglement.entangle"
                          or (parent >= 0 and in_entangle[parent]))
        if name == "entanglement.entangle":
            accepted += ok
        elif name in _NORM_CHECKS and via == "entanglement" and in_entangle[k]:
            norm_checks += 1

    def ms(*names):
        return sum(self_ns[n] for n in names) / _NS_PER_MS

    def per_call_us(name):
        return self_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    entangles = calls["entanglement.entangle"]
    m = {
        "exact.oracle_mul.calls": calls["exact.oracle_mul"],
        "exact.oracle_mul.self_ms": ms("exact.oracle_mul"),
        "exact.oracle_mul.self_us_per_call": per_call_us("exact.oracle_mul"),
        "exact.construct.self_ms": ms("exact.ExactBiQuat.__init__",
                                      "exact.ExactBiQuat.from_scalars",
                                      "exact.ExactBiQuat.from_biquat"),
        "exact.to_floats.self_ms": ms("exact.ExactBiQuat.to_floats"),
        "exact.exact_conj.self_ms": ms("exact.exact_conj"),
        "entanglement.entangle.self_us_per_call":
            per_call_us("entanglement.entangle"),
        "entanglement.check_restrictions.self_ms":
            ms("entanglement.check_restrictions"),
        "entanglement.entangle_map.self_ms": ms("entanglement.entangle_map"),
        "entanglement.concurrence.self_ms": ms("entanglement.concurrence"),
        "entanglement.norm_checks_per_entangle": ratio(norm_checks, entangles),
        "entanglement.accept_ratio": ratio(accepted, entangles),
        "biquaternion.bmul.calls": calls["biquaternion.bmul"],
        "biquaternion.bmul.self_ms": ms("biquaternion.bmul"),
        "biquaternion.norm_h.calls": calls["biquaternion.norm_h"],
        "quaternion.calls": layer_calls["quaternion"],
        "quaternion.self_ms": layer_self["quaternion"] / _NS_PER_MS,
        "rotations.calls": layer_calls["rotations"],
        "rotations.self_ms": layer_self["rotations"] / _NS_PER_MS,
        "verify.calls": layer_calls["verify"],
        "verify.self_ms": layer_self["verify"] / _NS_PER_MS,
        "cli.build_parser.calls": calls["cli.build_parser"],
        "cli.build_parser.self_ms": ms("cli.build_parser"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.parse.self_ms": ms(*(f"cli.{n}" for n in _CLI_PARSE)),
        "cli.format.self_ms": ms(*(n for n in self_ns if n.startswith("cli.")
                                   and (n[4:] in _CLI_FORMAT
                                        or n.startswith("cli._cmd_")))),
    }
    for code in range(4):
        m[f"cli.exit_code.{code}"] = exit_codes[code]
    return m
