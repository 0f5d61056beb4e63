"""The work ledger: exact call counts per ``repro`` package.

Host seconds do not resolve a small change to the simulator: the same
code reads events/s a quarter apart on a shared host.  Call counts do.
:func:`count_calls` runs a function under :func:`sys.setprofile` and
counts every Python call by the *callee's* package and every C call by
the *caller's* package (``repro.sched.cfs`` counts as ``sched``, any
module outside ``repro`` as ``other``), plus the Python calls of each
function.  ``repro bench`` runs every cell once more this way after its
timed pass, in the same process, so the counts do not depend on the
host, the cell order or the pool: only on the code and the interpreter
version (3.12 inlines comprehensions, for one).

A package is read from the frame's module name rather than its file,
so the methods ``dataclasses`` generates from a string count under the
package that declares the class.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro

TOP_FUNCTIONS = 20

_ROOT = os.path.dirname(repro.__file__) + os.sep


def package_of(module: Optional[str]) -> str:
    """``repro.sched.cfs`` -> ``sched``; outside ``repro`` -> ``other``."""
    parts = (module or "").split(".")
    if parts[0] != "repro":
        return "other"
    return parts[1] if len(parts) > 1 else "repro"


def function_label(filename: str, lineno: int, name: str,
                   module: Optional[str]) -> str:
    """``repro/<file>:<line>(<name>)``; code from no file is named by
    its module (``<repro.kernel.mm>:2(__init__)``)."""
    if filename.startswith(_ROOT):
        filename = "repro/" + filename[len(_ROOT):].replace(os.sep, "/")
    elif filename.startswith("<"):
        filename = f"<{module}>"
    else:
        filename = os.path.basename(filename)
    return f"{filename}:{lineno}({name})"


def count_calls(fn: Callable, *args) -> Tuple[object, Dict[str, dict]]:
    """``fn(*args)`` under a profile hook; returns ``(result, counts)``.

    ``counts`` maps ``python`` and ``c`` to calls per package and
    ``functions`` to Python calls per :func:`function_label`.
    """
    python: Dict[int, int] = {}
    c_calls: Dict[int, int] = {}
    # id(code) -> (code, module name).  Holding the code object keeps
    # its id from being reused for another one during the run.
    seen: Dict[int, tuple] = {}

    def hook(frame, event, arg):
        if event == "call":
            counts = python
        elif event == "c_call":
            counts = c_calls
        else:
            return
        key = id(frame.f_code)
        try:
            counts[key] += 1
        except KeyError:
            counts[key] = 1
            seen[key] = (frame.f_code, frame.f_globals.get("__name__"))

    # Collect first, so no finalizer of earlier garbage runs under the hook.
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)

    def by_package(counts: Dict[int, int]) -> Dict[str, int]:
        totals: Counter = Counter()
        for key, n in counts.items():
            totals[package_of(seen[key][1])] += n
        return dict(sorted(totals.items()))

    functions: Counter = Counter()
    for key, n in python.items():
        code, module = seen[key]
        functions[function_label(
            code.co_filename, code.co_firstlineno, code.co_name, module
        )] += n
    return result, {
        "python": by_package(python),
        "c": by_package(c_calls),
        "functions": dict(functions),
    }


def top_functions(tables: Iterable[Dict[str, int]]) -> List[Dict[str, object]]:
    """The most-called functions over several ``functions`` tables."""
    merged: Counter = Counter()
    for table in tables:
        merged.update(table)
    rows = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"function": label, "calls": calls}
        for label, calls in rows[:TOP_FUNCTIONS]
    ]
