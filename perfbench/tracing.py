"""Span tracer for the traced benchmark run, and the per-layer summary.

The tracer wraps public functions of the qtshuffle modules from outside the
package: each wrapper is bound wherever a caller looks the original up (every
``qtshuffle.*`` module namespace that holds it, or the class that owns a
method).  A wrapper records one span ``(name, start, end, parent, case id)``
per call.  Spans stay in memory, one list per thread, and are written to a
JSON file when the process ends.  Nothing under ``src/`` is edited.

``summarize`` turns the span files of one traced round into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time

DEGREES = range(0, 7)
REGISTRY_FAMILIES = (
    "commute", "commutator", "en-decomp", "lemma31", "lemma32",
    "prop31", "thm21", "thm31", "thm32",
)
TABLE_KINDS = ("build", "verify", "load", "install")
SYMFUNC_FNS = ("star_inner", "hall_inner", "plethysm", "omega_series", "extract_z")
OPERATOR_FNS = ("c_word", "nabla", "op_C", "op_star")
KERNEL_OPS = ("mul", "add", "div", "eq", "canonical", "parse")
LAYERS = ("symfunc", "tables", "operators", "registry", "parking", "case_glue", "outside")


def _per_layer_names() -> list:
    out = [(f"qtfield.{op}_us", "us") for op in KERNEL_OPS]
    for fn in SYMFUNC_FNS:
        out += [(f"symfunc.{fn}_s", "s"), (f"symfunc.{fn}_calls", "count")]
    for kind in TABLE_KINDS:
        out.append((f"macdonald.table_{kind}_s", "s"))
        out += [(f"macdonald.table_{kind}_s.deg{d}", "s") for d in DEGREES]
    for fn in OPERATOR_FNS:
        out += [(f"macdonald.{fn}_s", "s"), (f"macdonald.{fn}_calls", "count")]
    for fam in REGISTRY_FAMILIES:
        out += [(f"macdonald.registry.{fam}_s", "s"), (f"macdonald.registry.{fam}_calls", "count")]
    out.append(("macdonald.lru_entries", "count"))
    out += [
        ("parking.pi_poly_s", "s"), ("parking.pf_enumerated", "count"),
        ("parking.pf_kept", "count"), ("parking.keep_ratio", "ratio"),
    ]
    out.append(("cli.cache_load_s", "s"))
    out += [(f"layer.{layer}_pct", "%") for layer in LAYERS]
    out += [
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"), ("trace.spans", "count"),
    ]
    return out


PER_LAYER = _per_layer_names()


class _ThreadLog:
    __slots__ = ("spans", "stack", "case", "counts")

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, case id]
        self.stack = []
        self.case = None
        self.counts = {}


class Tracer:
    """Collects spans and counters; install() binds the wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, fn, name):
        """Wrap fn in a span; name is a string or a function of (args, result)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            idx = len(log.spans)
            rec = [None, clock(), None, log.stack[-1] if log.stack else -1, log.case]
            log.spans.append(rec)
            log.stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                log.stack.pop()
                rec[0] = name if isinstance(name, str) else name(args, result)

        return traced

    def count_yields(self, fn, key):
        """Wrap a generator function so that every item it yields is counted."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = self._log().counts
            for item in fn(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        return counted

    def wrap_case(self, case):
        """A copy of a cli case whose run() opens a 'case' span under its id."""
        run = self.wrap(case.run, "case")

        def run_in_case():
            log = self._log()
            log.case = case.case_id
            try:
                return run()
            finally:
                log.case = None

        return dataclasses.replace(case, run=run_in_case)

    # -- installation

    def install(self) -> None:
        import qtshuffle.cli as cli
        import qtshuffle.macdonald as mac
        import qtshuffle.parking as parking
        import qtshuffle.symfunc as symfunc

        for fn in SYMFUNC_FNS:
            _rebind(getattr(symfunc, fn), self.wrap(getattr(symfunc, fn), f"symfunc.{fn}"))
        _rebind(mac.build_htilde, self.wrap(
            mac.build_htilde, lambda args, res: f"table_build.deg{args[0]}"))
        _rebind(mac.install_table, self.wrap(
            mac.install_table, lambda args, res: f"table_install.deg{args[0].degree}"))
        for fn, name in (("c_word", "c_word"), ("nabla", "nabla"), ("op_C", "op_C"),
                         ("op_C_star", "op_star"), ("op_B_star", "op_star")):
            _rebind(getattr(mac, fn), self.wrap(getattr(mac, fn), f"operators.{name}"))
        _rebind(mac.check_identity, self.wrap(
            mac.check_identity, lambda args, res: f"registry.{args[0]}"))
        table_cls = mac.HTildeTable
        table_cls.verify = self.wrap(
            table_cls.verify, lambda args, res: f"table_verify.deg{args[0].degree}")
        load = table_cls.__dict__["load"].__func__
        table_cls.load = classmethod(self.wrap(
            load, lambda args, res: f"table_load.deg{res.degree if res else '?'}"))

        _rebind(parking.pi_poly, self.wrap(parking.pi_poly, "parking.pi_poly"))
        _rebind(parking.enumerate_by_comp,
                self.count_yields(parking.enumerate_by_comp, "pf_enumerated"))
        _rebind(parking.enumerate_family,
                self.count_yields(parking.enumerate_family, "pf_kept"))
        build_cases = cli.build_cases
        _rebind(build_cases, functools.wraps(build_cases)(
            lambda *a, **k: [self.wrap_case(c) for c in build_cases(*a, **k)]))

    # -- output

    def dump(self, path: str, kind: str) -> None:
        import qtshuffle.macdonald as mac

        lru = sum(obj.cache_info().currsize for obj in vars(mac).values()
                  if callable(getattr(obj, "cache_info", None)))
        counts: dict = {}
        for log in self._logs:
            for key, n in log.counts.items():
                counts[key] = counts.get(key, 0) + n
        data = {
            "kind": kind,
            "threads": [log.spans for log in self._logs],
            "counts": counts,
            "lru_entries": lru,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _rebind(original, replacement) -> None:
    """Bind replacement wherever a qtshuffle module namespace holds original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qtshuffle" or mod_name.startswith("qtshuffle.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    if head.startswith("table_"):
        return "tables"
    if head == "case":
        return "case_glue"
    return head


def summarize(records: list, span_wall_s: float, wall_s: float, untraced_wall_s: float,
              kernel: dict) -> dict:
    """Per-layer metrics from the span files of one traced round.

    span_wall_s is the traced round's wall time in the seconds its spans were
    timed in, for the layer shares; wall_s and untraced_wall_s are the traced
    and untraced rounds' wall times scaled to the reference speed (pace.py),
    for the tracing overhead.  kernel holds the qtfield probe's medians in
    microseconds.
    """
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_total = 0.0
    nspans = 0
    for rec in records:
        for spans in rec["threads"]:
            nspans += len(spans)
            _summarize_thread(spans, m, layer_self, cli_process=rec["kind"] == "cli")
            root_total += sum(s[2] - s[1] for s in spans if s[3] == -1)
        for key, n in rec["counts"].items():
            m[f"parking.{key}"] += n
        m["macdonald.lru_entries"] = max(m["macdonald.lru_entries"], rec["lru_entries"])
    for kind in TABLE_KINDS:
        m[f"macdonald.table_{kind}_s"] = sum(m[f"macdonald.table_{kind}_s.deg{d}"] for d in DEGREES)
    if m["parking.pf_enumerated"]:
        m["parking.keep_ratio"] = m["parking.pf_kept"] / m["parking.pf_enumerated"]
    layer_self["outside"] = max(0.0, span_wall_s - root_total)
    for layer, secs in layer_self.items():
        m[f"layer.{layer}_pct"] = 100.0 * secs / span_wall_s
    for op in KERNEL_OPS:
        m[f"qtfield.{op}_us"] = kernel[op]
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    m["trace.overhead_pct"] = 100.0 * (wall_s - untraced_wall_s) / untraced_wall_s
    m["trace.spans"] = nspans
    return m


def _summarize_thread(spans: list, m: dict, layer_self: dict, cli_process: bool) -> None:
    dur = [end - start for _, start, end, _, _ in spans]
    child_total = [0.0] * len(spans)
    verify_child = [0.0] * len(spans)
    has_verify_child = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_total[parent] += dur[i]
            if name.startswith("table_verify."):
                verify_child[parent] += dur[i]
                has_verify_child[parent] = True
    for i, (name, _, _, parent, _) in enumerate(spans):
        layer_self[_layer(name)] += dur[i] - child_total[i]
        if _nested_in_same(spans, i):
            continue
        head, _, tail = name.partition(".")
        if head == "symfunc":
            m[f"symfunc.{tail}_s"] += dur[i]
            m[f"symfunc.{tail}_calls"] += 1
        elif head == "operators":
            m[f"macdonald.{tail}_s"] += dur[i]
            m[f"macdonald.{tail}_calls"] += 1
        elif head == "registry" and f"macdonald.registry.{tail}_s" in m:
            m[f"macdonald.registry.{tail}_s"] += dur[i]
            m[f"macdonald.registry.{tail}_calls"] += 1
        elif head == "table_verify":
            _add(m, f"macdonald.table_verify_s.{tail}", dur[i])
        elif head in ("table_load", "table_install") or (head == "table_build" and has_verify_child[i]):
            _add(m, f"macdonald.{head}_s.{tail}", dur[i] - verify_child[i])
            if cli_process and parent == -1 and head != "table_build":
                m["cli.cache_load_s"] += dur[i]
        elif name == "parking.pi_poly":
            m["parking.pi_poly_s"] += dur[i]


def _add(m: dict, key: str, secs: float) -> None:
    if key in m:  # degrees above the named range are left out
        m[key] += secs


def _nested_in_same(spans: list, i: int) -> bool:
    """True when span i runs inside another span of the same kind (recursion)."""
    head = spans[i][0].split(".deg")[0]
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].split(".deg")[0] == head:
            return True
        parent = spans[parent][3]
    return False
