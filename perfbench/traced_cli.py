"""Run one ``snfair`` command with a span around every call into a layer.

Usage: python perfbench/traced_cli.py SPAN_FILE -- <snfair arguments>

The layers are the ``snfair`` modules.  After a timed ``import
snfair.cli``, every public function of every layer (and the public
methods of ``sets.OrderingSet``, that layer's whole interface) is
replaced by a wrapper at every module that imported it, so calls from
other layers and from inside the defining module both pass through it.
A wrapper records one span per call: its name, start, end and the span
that was open when it began.  Generator functions get one span per
resumption.  Spans stay in memory and are written to SPAN_FILE (numpy
``.npz``) when the command ends; SPAN_FILE.json gets the import time, a
few counters, the ``lru_cache`` statistics of the cached functions and
the tracing overhead.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from array import array
from functools import _lru_cache_wrapper

LAYERS = (
    "permutations",
    "partitions",
    "representations",
    "fourier",
    "payoffs",
    "sets",
    "intersecting",
    "cayley",
    "fairness",
    "sequencing",
    "cli",
)
CACHED = (
    "permutations.group_matrix",
    "partitions.standard_tableaux",
    "representations.adjacent_generator",
    "representations.representation_tables",
)
_perf = time.perf_counter


class Recorder:
    """Spans as parallel arrays: name index, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.digests: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_perf())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = _perf()
            self.stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def distinct(self, key: str, data: bytes) -> None:
        self.digests.setdefault(key, set()).add(hashlib.sha1(data).hexdigest())


class _Resumptions:
    """Generator proxy recording one span per resumption."""

    def __init__(self, rec: Recorder, name_id: int, gen, steps_key: str) -> None:
        self.rec, self.name_id, self.gen, self.steps_key = rec, name_id, gen, steps_key

    def __iter__(self):
        return self

    def __next__(self):
        item = self.rec.call(self.name_id, next, (self.gen,), {})
        self.rec.count(self.steps_key)
        return item


def _counting(rec: Recorder, name: str, result) -> None:
    """Work counters read from a call's result."""
    layer = name.split(".")[0]
    if layer == "payoffs" and hasattr(result, "values"):
        rec.count("payoffs.values_generated", int(result.values.size))
    elif name == "sequencing.valid_orderings":
        rec.count("sequencing.admissible_members", len(result))


def _wrap_function(rec: Recorder, name: str, fn):
    name_id = rec.name_id(name)
    if inspect.isgeneratorfunction(fn):
        steps_key = f"{name}.steps"

        def gen_wrapper(*args, **kwargs):
            return _Resumptions(rec, name_id, fn(*args, **kwargs), steps_key)

        return gen_wrapper

    def wrapper(*args, **kwargs):
        first = args[0] if args else next(iter(kwargs.values()), None)
        if name == "fourier.transform":
            rec.distinct(name, first.values.tobytes())
        elif name == "intersecting.intersection_profile":
            rec.distinct(name, repr((first.n, first.members)).encode())
        elif name == "sets.OrderingSet.__post_init__":
            rec.count("sets.members_built", len(first.members))
        result = rec.call(name_id, fn, args, kwargs)
        _counting(rec, name, result)
        return result

    return wrapper


def install(rec: Recorder) -> dict:
    """Wrap every layer's public functions wherever they are bound."""
    modules = {layer: importlib.import_module(f"snfair.{layer}") for layer in LAYERS}
    replace: dict[int, object] = {}
    originals: dict[str, object] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type):
                continue
            is_fn = inspect.isfunction(obj) or isinstance(obj, _lru_cache_wrapper)
            if is_fn and getattr(obj, "__module__", None) == mod.__name__:
                name = f"{layer}.{attr}"
                originals[name] = obj
                replace[id(obj)] = _wrap_function(rec, name, obj)
    for mod in [sys.modules["snfair"], *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])

    cls = modules["sets"].OrderingSet
    for attr, raw in list(vars(cls).items()):
        if attr in ("to_dict", "from_dict") or (attr.startswith("_") and attr != "__post_init__"):
            continue
        name = f"sets.OrderingSet.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap_function(rec, name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap_function(rec, name, raw))
    return originals


def span_cost(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a direct one."""
    noop = lambda: None  # noqa: E731
    wrapped = _wrap_function(Recorder(), "calibration.noop", noop)
    t0 = _perf()
    for _ in range(calls):
        noop()
    t1 = _perf()
    for _ in range(calls):
        wrapped()
    t2 = _perf()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def save(rec: Recorder, path: str, startup_s: float, install_s: float, originals: dict, exit_code) -> None:
    """Write the spans to ``path`` and the rest to ``path + ".json"``.

    The tracing overhead is the time spent installing the wrappers, the
    number of spans times the measured cost of one, and the time spent
    calibrating that cost and writing the spans.
    """
    import numpy as np

    t0 = _perf()
    np.savez(
        path,
        name=np.frombuffer(rec.name, dtype=np.int32),
        parent=np.frombuffer(rec.parent, dtype=np.int32),
        start=np.frombuffer(rec.start, dtype=np.float64),
        end=np.frombuffer(rec.end, dtype=np.float64),
        names=np.array(rec.names if rec.names else [""]),
    )
    per_span = span_cost()
    meta = {
        "startup_s": startup_s,
        "overhead_s": install_s + len(rec.start) * per_span + (_perf() - t0),
        "exit_code": exit_code,
        "counters": rec.counters,
        "distinct": {k: len(v) for k, v in rec.digests.items()},
        "cache": {},
    }
    for name in CACHED:
        if name in originals:
            info = originals[name].cache_info()
            meta["cache"][name] = {"hits": info.hits, "misses": info.misses}
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPAN_FILE -- <snfair arguments>", file=sys.stderr)
        return 2
    span_file, cli_args = argv[0], argv[2:]
    t0 = _perf()
    import snfair.cli

    startup_s = _perf() - t0
    rec = Recorder()
    originals = install(rec)
    install_s = _perf() - t0 - startup_s
    code = None
    try:
        code = snfair.cli.main(cli_args)
    finally:
        save(rec, span_file, startup_s, install_s, originals, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
