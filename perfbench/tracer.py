"""Spans around calls into nkline, recorded from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper at
every place nkline holds a reference to it: the defining module and every
module that imported it by name (`construct` imports `verify`,
`sample_r_factor` and `one_factorize`; `cli` imports `pipeline`, `verify`
and `serialize`).  A traced name the program no longer defines is skipped
and reports 0 calls.  Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Optional


# (span name, module, attribute, {attr: extractor(bound arguments, result)});
# an extractor that raises KeyError, TypeError or AttributeError records nothing
TARGETS: list[tuple[str, str, str, dict[str, Callable]]] = [
    ("cli.main", "nkline.cli", "main", {}),
    ("construct.pipeline", "nkline.construct", "pipeline", {}),
    ("construct.biuniform_construct", "nkline.construct", "biuniform_construct", {
        "retries": lambda b, r: r.retries_used,
        "certified": lambda b, r: int(r.certified),
    }),
    ("construct.adjust_k", "nkline.construct", "adjust_k", {"used": lambda b, r: b["k"] - b["k_new"]}),
    ("construct.adjust_n", "nkline.construct", "adjust_n", {"used": lambda b, r: b["slack"] // 2}),
    ("bifactor.sample_r_factor", "nkline.bifactor", "sample_r_factor", {"cells": lambda b, r: b["m"] * b["r"]}),
    ("bifactor.one_factorize", "nkline.bifactor", "one_factorize", {}),
    # each call extracts one perfect matching; private, so it may vanish
    ("bifactor.extract_matching", "nkline.bifactor", "_hopcroft_karp", {}),
    ("secants.verify", "nkline.secants", "verify", {
        "points": lambda b, r: len(b["points"]),
        "directions": lambda b, r: len(r.per_direction_max),
    }),
    ("secants.primitive_directions", "nkline.secants", "primitive_directions", {}),
    ("grid.PointSet", "nkline.grid", "PointSet.__init__", {"points": lambda b, r: len(b["self"])}),
    ("grid.max_expected_load", "nkline.grid", "max_expected_load", {}),
    ("pointfile.serialize", "nkline.pointfile", "serialize", {"bytes": lambda b, r: len(r)}),
    ("pointfile.parse", "nkline.pointfile", "parse", {"bytes": lambda b, r: len(b["text"])}),
]


class Tracer:
    """Records spans [name, start, end, parent index, op id, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: Optional[str] = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, extractors: dict[str, Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extractors:
                span[5] = _attrs(signature, args, kwargs, result, extractors)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every nkline module that references it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "nkline" or key.startswith("nkline."))
        ]
        for name, module_name, attr, extractors in TARGETS:
            owner = sys.modules.get(module_name)
            *class_path, fn_name = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(original, name, extractors)
            self._set(owner, fn_name, wrapper)
            if not class_path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "missing": sorted(self.missing), "spans": self.spans}, fh)


def _attrs(signature, args, kwargs, result, extractors) -> dict:
    bound = {}
    if signature is not None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = dict(bound.arguments)
        except TypeError:
            bound = {}
    out = {}
    for key, get in extractors.items():
        try:
            out[key] = get(bound, result)
        except (KeyError, TypeError, AttributeError):
            pass
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
