"""Fold a cProfile run into the repo's layers and count its work.

Self time goes to the layer of the ``repro`` subpackage or module that
defines each function: ``sim``, ``mpisim``, ``netsim``, ``gpusim``,
``core`` (with ``core.daemon``, ``core.coalesce`` and ``core.arm`` also
shown on their own), ``jobs``, ``buffers``, ``obs``, and ``workloads``
(``repro.workloads`` and ``repro.analysis``).  Python files of numpy and
scipy, and built-ins whose name mentions them, are ``numpy``.  Any other
function (a built-in such as ``heapq.heappush``, or a standard-library
helper) is charged to the layers of its callers, in proportion to the
self time each call edge accounts for.  What no layer claims is
``other``: the rest of ``repro`` (cluster, baselines, ...), the
benchmark itself, and callers-of-callers that never reach a layer.

cProfile cannot see inside a numpy ufunc call, so that time stays with
the Python function that made it: ``numpy.self_s`` is a lower bound.

Counts come from profiler call counts of named entry points, so they
repeat exactly for a given seed.
"""

from __future__ import annotations

import os

import repro

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Layers whose self time is reported, in print order.
SELF_LAYERS = ("sim", "mpisim", "netsim", "gpusim", "core", "core.daemon",
               "core.coalesce", "core.arm", "jobs", "buffers", "obs",
               "numpy", "workloads", "other")
_TOP = {"sim", "mpisim", "netsim", "gpusim", "jobs", "buffers", "obs"}
_CORE_SUB = {"daemon": "core.daemon", "coalesce": "core.coalesce",
             "arm": "core.arm"}


def _numeric_dirs() -> tuple[str, ...]:
    dirs = []
    for name in ("numpy", "scipy"):
        try:
            mod = __import__(name)
        except ImportError:
            continue
        dirs.append(os.path.dirname(os.path.abspath(mod.__file__)) + os.sep)
    return tuple(dirs)


_NUMERIC = _numeric_dirs()


def layer_of(func: tuple[str, int, str]) -> str | None:
    """The layer that defines ``func``, or None to charge its callers."""
    filename, _line, name = func
    if filename == "~":
        return "numpy" if ("numpy" in name or "scipy" in name) else None
    path = os.path.abspath(filename)
    if path.startswith(_REPRO):
        parts = path[len(_REPRO):].split(os.sep)
        top = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
        if top in _TOP:
            return top
        if top == "core":
            return _CORE_SUB.get(parts[-1][:-3], "core")
        if top in ("workloads", "analysis"):
            return "workloads"
        return "other"
    if path.startswith(_NUMERIC):
        return "numpy"
    return None


def fold(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``cProfile.Profile.stats``.

    ``stats`` maps ``func -> (cc, nc, tt, ct, callers)`` and ``callers``
    maps ``caller -> (nc, cc, tt, ct)`` for that call edge.
    """
    shares: dict = {}

    def share_of(func, visiting: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        own = layer_of(func)
        if own is not None:
            return {own: 1.0}
        callers = stats[func][4] if func in stats else {}
        edges = {c: e[2] for c, e in callers.items() if c not in visiting}
        total = sum(edges.values())
        if total <= 0:  # no time on any edge: weigh by call count
            edges = {c: float(e[0]) for c, e in callers.items()
                     if c not in visiting}
            total = sum(edges.values())
        if total <= 0:
            result = {"other": 1.0}
        else:
            result = {}
            inner = visiting | {func}
            for caller, weight in edges.items():
                for layer, frac in share_of(caller, inner).items():
                    result[layer] = result.get(layer, 0.0) + frac * weight / total
        shares[func] = result
        return result

    out = {layer: 0.0 for layer in SELF_LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share_of(func, frozenset()).items():
            out[layer] += tt * frac
    # core.self_s covers the whole package; its sub-layers are parts of it.
    out["core"] += out["core.daemon"] + out["core.coalesce"] + out["core.arm"]
    return out


def _in(func, module: str, name: str) -> bool:
    return func[2] == name and os.path.abspath(func[0]) == _REPRO + module


def _calls(stats: dict, module: str, name: str) -> int:
    """Calls of functions ``name`` defined in ``module`` (max over defs)."""
    counts = [v[1] for f, v in stats.items() if _in(f, module, name)]
    return max(counts, default=0)


def _edge_calls(stats: dict, callee: tuple[str, str],
                callers: tuple[tuple[str, str], ...]) -> int:
    """Calls of ``callee`` made from any of ``callers`` (module, name)."""
    n = 0
    for func, value in stats.items():
        if not _in(func, *callee):
            continue
        for caller, edge in value[4].items():
            if any(_in(caller, *c) for c in callers):
                n += edge[0]
    return n


def counts(stats: dict) -> dict[str, float]:
    """Engine, fabric and control-path work counts from call counts."""
    sim, net, mpi = "sim" + os.sep, "netsim" + os.sep, "mpisim" + os.sep
    core = "core" + os.sep
    events = _calls(stats, sim + "events.py", "_process")
    dead = _edge_calls(stats, (sim + "engine.py", "_retire"),
                       tuple((sim + "engine.py", n)
                             for n in ("run", "_pop_next", "peek")))
    transfers = _calls(stats, net + "fabric.py", "transfer")
    rpc = ((core + "reliability.py", "reliable_rpc"),)
    rpcs = _edge_calls(stats, (core + "protocol.py", "next_request_id"), rpc)
    copies = _edge_calls(
        stats, (core + "protocol.py", "next_request_id"),
        ((core + "api.py", "memcpy_h2d"), (core + "api.py", "memcpy_d2h")))
    timeouts = (_edge_calls(stats, (sim + "engine.py", "race"), rpc)
                - _edge_calls(stats, (sim + "events.py", "cancel"), rpc))
    preemptions = _edge_calls(stats, (core + "arm.py", "_revoke_lease"),
                              ((core + "arm.py", "_try_vassign"),))
    return {
        "sim.events": events,
        "sim.cancelled_share": dead / (events + dead) if events + dead else 0.0,
        "netsim.transfers": transfers,
        "netsim.events_per_transfer": events / transfers if transfers else 0.0,
        "netsim.transfers_per_copy": transfers / copies if copies else 0.0,
        "mpisim.isends": _calls(stats, mpi + "comm.py", "isend"),
        "core.copies": copies,
        "core.rpcs": rpcs,
        "core.events_per_rpc": events / rpcs if rpcs else 0.0,
        "core.rpc_timeouts": timeouts,
        "core.arm.preemptions": preemptions,
    }
