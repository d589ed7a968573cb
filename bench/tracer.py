"""Per-layer tracing installed from outside the library.

`Tracer.install()` replaces the public functions of each wittmod layer with
timing wrappers, at every name a caller looks the function up by: methods on
their class (`Scalar.__mul__`, `Echelon.add`, `FPModule.act_cell`, ...) and
module-level functions in every wittmod module that binds them through
`from ... import` (`cli.check_action_axiom`, `wittrep.pi_map`, ...).
`uninstall()` puts the original objects back.

Two kinds of wrapper keep memory bounded:

* span wrappers (jobs, CLI entry points, certificate suites, `Echelon`,
  `kernel_basis`) record one span per call: id, parent id, job id, name,
  start, end, self time, an observed value, and the tracer's own time
  inside the span;
* counter wrappers (scalar arithmetic, the action layer, `pi_map`,
  weylmod/glmod/liealg) run millions of times per workload, so they only
  add to a counter keyed by (operation, enclosing span name).

Self time is a frame's duration minus the durations of the wrapped calls
made inside it.  The tracer's own work is kept out of every layer: each
wrapper times its bookkeeping and observers (hashing operands, counting
terms) and books them, plus a calibrated per-call cost its clocks cannot
see (the extra Python call into the wrapper), to `bench.trace` instead of
the caller.  A counter call made directly inside a call of the same layer
(weylmod's `act_witt` -> `act_witt_monomial` -> `act_t_monomial`, or
`toroidal_bracket` -> `witt_bracket`) adds its time but not a call, so
`*.calls` counts outermost calls.

`kernel_basis` is wrapped only where wittrep looks it up: that is the
window-level elimination.  glmod also calls it to find singular vectors of
the gl-module M (dimension at most a few), and that time stays in the
calling suite's self time.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

SPAN, COUNTER = "span", "counter"

# (owner, attribute, layer name, wrapper kind, restrict-to-modules)
# Owners are dotted paths: "exactnum.Scalar" is a class, "wittrep" a module.
_TARGETS: Tuple[Tuple[str, str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("exactnum.Scalar", "__mul__", "scalar.mul", COUNTER, None),
    ("exactnum.Scalar", "__add__", "scalar.add", COUNTER, None),
    ("exactnum.Scalar", "inv", "scalar.inv", COUNTER, None),
    ("exactnum.Echelon", "add", "echelon.add", SPAN, None),
    ("exactnum.Echelon", "reduce", "echelon.reduce", SPAN, None),
    ("wittrep", "kernel_basis", "kernel_basis", SPAN, ("wittrep",)),
    ("weylmod.WeylModule", "act_generator", "weylmod.act", COUNTER, None),
    ("weylmod.WeylModule", "act_t_monomial", "weylmod.act", COUNTER, None),
    ("weylmod.WeylModule", "act_witt_monomial", "weylmod.act", COUNTER, None),
    ("weylmod.WeylModule", "act_weyl", "weylmod.act", COUNTER, None),
    ("weylmod.WeylModule", "act_witt", "weylmod.act", COUNTER, None),
    ("glmod.GlModule", "act", "glmod.act", COUNTER, None),
    ("glmod.GlModule", "act_column", "glmod.act", COUNTER, None),
    ("liealg", "witt_bracket", "liealg.bracket", COUNTER, None),
    ("liealg", "toroidal_bracket", "liealg.bracket", COUNTER, None),
    ("liealg", "shen_tau", "liealg.shen_tau", COUNTER, None),
    ("wittrep.FPModule", "act_cell", "act_cell", COUNTER, None),
    ("wittrep.FPModule", "act", "act", COUNTER, None),
    ("wittrep", "pi_map", "pi_map", COUNTER, None),
    ("wittrep", "check_action_axiom", "suite.action_axiom", SPAN, None),
    ("wittrep", "check_chain_map", "suite.chain_map", SPAN, None),
    ("wittrep", "torsion_matches", "suite.torsion", SPAN, None),
    ("wittrep", "submodule_closure", "suite.closure", SPAN, None),
    ("wittrep", "l_window", "suite.image", SPAN, None),
    ("wittrep", "kernel_window", "suite.kernel", SPAN, None),
    ("wittrep", "ltilde_window", "suite.transporter", SPAN, None),
    ("wittrep", "complex_homology", "suite.homology", SPAN, None),
    ("wittrep", "irreducibility_report", "suite.irreducibility", SPAN, None),
    ("cli", "run", "cli.run", SPAN, None),
    ("cli", "parse_spec", "cli.parse", SPAN, None),
)


def _resolve(path: str):
    mod_name, _, cls_name = path.partition(".")
    mod = sys.modules["wittmod." + mod_name]
    return getattr(mod, cls_name) if cls_name else mod


def install_sites() -> List[Tuple[object, str, object, str, str]]:
    """Every (owner, attribute, original, layer, kind) the tracer patches.

    A module-level function is patched in every loaded wittmod module that
    binds the same object, unless the target restricts the modules.
    """
    import wittmod  # noqa: F401  (loads every layer)
    mods = {name[len("wittmod."):]: m for name, m in sys.modules.items()
            if name.startswith("wittmod.")}
    mods[""] = sys.modules["wittmod"]
    sites = []
    for owner_path, attr, layer, kind, only in _TARGETS:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr)
        if isinstance(owner, type):
            sites.append((owner, attr, fn, layer, kind))
            continue
        for name, mod in sorted(mods.items()):
            if only is not None and name not in only:
                continue
            if getattr(mod, attr, None) is fn:
                sites.append((mod, attr, fn, layer, kind))
    return sites


class Tracer:
    """Span and counter recorder for one traced pass in one process."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [child seconds, enclosing span name, enclosing span id,
        # own layer]; the base frame catches calls made outside any span
        self.stack: List[list] = [[0.0, "bench.untraced", None, None]]
        self.spans: List[list] = []
        # (layer, enclosing span name) -> [calls, inclusive s, self s]
        self.counters: Dict[Tuple[str, str], List[float]] = {}
        # seconds of tracer work, booked to no layer but bench.trace
        self.overhead = [0.0]
        # per wrapper kind, seconds per call of tracer work its clocks miss:
        # (outside the wrapper's clocks, inside the wrapped call's timing)
        self.call_cost = {SPAN: (0.0, 0.0), COUNTER: (0.0, 0.0)}
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._saved: List[Tuple[object, str, object]] = []
        # observations beyond calls and time
        self.mul_ratfunc = 0
        self.mul_pairs: set = set()
        self.cell_keys: set = set()
        self.cell_distinct = 0
        self._module_serial: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self.act_terms = 0
        self.add_grew = 0
        self.rows_max = 0
        self.kernel_nnz = 0

    # -- installation

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.call_cost = {kind: calibrate(kind) for kind in (SPAN, COUNTER)}
        observers = {"scalar.mul": self._observe_mul,
                     "act_cell": self._observe_act_cell,
                     "act": self._observe_act,
                     "echelon.add": self._observe_add,
                     "kernel_basis": self._observe_kernel}
        wrappers: Dict[int, Callable] = {}
        for owner, attr, fn, layer, kind in install_sites():
            w = wrappers.get(id(fn))
            if w is None:
                make = (self._span_wrapper if kind == SPAN
                        else self._counter_wrapper)
                w = wrappers[id(fn)] = make(fn, layer, observers.get(layer))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- wrappers

    def _counter_wrapper(self, fn, layer, observe):
        stack, counters, clock = self.stack, self.counters, self.clock
        overhead = self.overhead
        outside, inside = self.call_cost[COUNTER]

        def wrapper(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2], layer]
            stack.append(frame)
            booked = overhead[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0 - inside
                key = (layer, parent[1])
                rec = counters.get(key)
                if rec is None:
                    rec = counters[key] = [0, 0.0, 0.0]
                rec[0] += parent[3] != layer
                rec[1] += dt - (overhead[0] - booked)
                rec[2] += dt - frame[0]
                parent[0] += t1 - t_in + outside
                overhead[0] += t0 - t_in + outside + inside
            if observe is not None:
                observe(args, result)
            t2 = clock()
            parent[0] += t2 - t1
            overhead[0] += t2 - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, fn, layer, observe):
        stack, spans, clock, ids = self.stack, self.spans, self.clock, self._ids
        overhead = self.overhead
        outside, inside = self.call_cost[SPAN]
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            sid = next(ids)
            frame = [0.0, layer, sid, layer]
            stack.append(frame)
            booked = overhead[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = [sid, parent[2], tracer.job, layer, t0, t1 - inside,
                        t1 - t0 - inside - frame[0], None,
                        overhead[0] - booked]
                spans.append(span)
                parent[0] += t1 - t_in + outside
                overhead[0] += t0 - t_in + outside + inside
            if observe is not None:
                span[7] = observe(args, result)
            t2 = clock()
            parent[0] += t2 - t1
            overhead[0] += t2 - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    # -- observations

    def _observe_mul(self, args, result):
        a, b = args
        if _non_constant(a.den) or _non_constant(b.den):
            self.mul_ratfunc += 1
        self.mul_pairs.add(hash((hash(a), hash(b))))

    def _observe_act_cell(self, args, result):
        module, alpha, j, cell = args
        serial = self._module_serial.get(module)
        if serial is None:
            serial = self._module_serial[module] = next(self._serials)
        self.cell_keys.add(hash((serial, tuple(alpha), j, cell)))

    def _observe_act(self, args, result):
        self.act_terms += len(args[3])

    def _observe_add(self, args, result):
        self.rows_max = max(self.rows_max, args[0].dim)
        if result:
            self.add_grew += 1
        return bool(result)

    def _observe_kernel(self, args, result):
        nnz = sum(len(row) for row in args[0].rows)
        self.kernel_nnz += nnz
        return nnz

    # -- jobs

    def start_job(self, job_id: str) -> None:
        """Memo keys are per FPModule, and modules live inside one job."""
        self.cell_distinct += len(self.cell_keys)
        self.cell_keys.clear()
        self.job = job_id

    def finish(self) -> None:
        self.cell_distinct += len(self.cell_keys)
        self.cell_keys.clear()
        self.job = None

    # -- results

    def layer_totals(self) -> Dict[str, List[float]]:
        """layer -> [calls, inclusive s, self s] over counters and spans.

        Inclusive times leave out the tracer's own time inside the call.
        """
        out: Dict[str, List[float]] = {}
        for (layer, _), (calls, incl, self_s) in self.counters.items():
            rec = out.setdefault(layer, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for sp in self.spans:
            rec = out.setdefault(sp[3], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += sp[5] - sp[4] - sp[8]
            rec[2] += sp[6]
        out["bench.trace"] = [0, self.overhead[0], self.overhead[0]]
        return out

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the recorded pass (see BENCHMARK.json)."""
        tot = self.layer_totals()

        def calls(layer):
            return tot.get(layer, [0, 0.0, 0.0])[0]

        def incl(layer):
            return tot.get(layer, [0, 0.0, 0.0])[1]

        def self_s(layer):
            return tot.get(layer, [0, 0.0, 0.0])[2]

        def share(num, den):
            return num / den if den else 0.0

        names = {sp[0]: sp[3] for sp in self.spans}
        closure_adds = [sp for sp in self.spans if sp[3] == "echelon.add"
                        and names.get(sp[1]) == "suite.closure"]
        return {
            "scalar.mul.calls": calls("scalar.mul"),
            "scalar.mul.self_s": self_s("scalar.mul"),
            "scalar.add.calls": calls("scalar.add"),
            "scalar.add.self_s": self_s("scalar.add"),
            "scalar.inv.calls": calls("scalar.inv"),
            "scalar.mul.ratfunc_share": share(self.mul_ratfunc,
                                              calls("scalar.mul")),
            "scalar.mul.repeat_share": share(
                calls("scalar.mul") - len(self.mul_pairs),
                calls("scalar.mul")),
            "echelon.add.calls": calls("echelon.add"),
            "echelon.add.grew_share": share(self.add_grew,
                                            calls("echelon.add")),
            "echelon.add.self_s": self_s("echelon.add"),
            "echelon.reduce.calls": calls("echelon.reduce"),
            "echelon.reduce.self_s": self_s("echelon.reduce"),
            "echelon.rows_max": self.rows_max,
            "kernel_basis.calls": calls("kernel_basis"),
            "kernel_basis.self_s": self_s("kernel_basis"),
            "kernel_basis.nnz": self.kernel_nnz,
            "weylmod.act.calls": calls("weylmod.act"),
            "weylmod.act.self_s": self_s("weylmod.act"),
            "glmod.act.calls": calls("glmod.act"),
            "glmod.act.self_s": self_s("glmod.act"),
            "liealg.bracket.calls": calls("liealg.bracket"),
            "liealg.bracket.self_s": self_s("liealg.bracket"),
            "liealg.shen_tau.self_s": self_s("liealg.shen_tau"),
            "act_cell.calls": calls("act_cell"),
            "act_cell.hit_share": share(calls("act_cell") - self.cell_distinct,
                                        calls("act_cell")),
            "act_cell.self_s": self_s("act_cell"),
            "act.calls": calls("act"),
            "act.terms_in_mean": share(self.act_terms, calls("act")),
            "act.self_s": self_s("act"),
            "pi_map.calls": calls("pi_map"),
            "pi_map.self_s": self_s("pi_map"),
            "suite.action_axiom.s": incl("suite.action_axiom"),
            "suite.chain_map.s": incl("suite.chain_map"),
            "suite.torsion.s": incl("suite.torsion"),
            "suite.closure.s": incl("suite.closure"),
            "closure.useful_share": share(
                sum(1 for sp in closure_adds if sp[7]), len(closure_adds)),
            "suite.image.s": incl("suite.image"),
            "suite.kernel.s": incl("suite.kernel"),
            "suite.transporter.s": incl("suite.transporter"),
            "suite.homology.s": incl("suite.homology"),
            "suite.irreducibility.s": incl("suite.irreducibility"),
            "cli.run.self_s": self_s("cli.run"),
            "cli.parse.s": incl("cli.parse"),
        }


def _non_constant(poly) -> bool:
    return len(poly) > 1 or () not in poly


class _Span:
    """One real span; set `extra` inside the block to record a value."""

    __slots__ = ("tracer", "layer", "frame", "parent", "sid", "t0", "extra",
                 "booked")

    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer
        self.extra = None

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.sid = next(tr._ids)
        self.parent = tr.stack[-1]
        self.frame = [0.0, self.layer, self.sid, self.layer]
        tr.stack.append(self.frame)
        self.booked = tr.overhead[0]
        self.t0 = tr.clock()
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        t1 = tr.clock()
        tr.stack.pop()
        dt = t1 - self.t0
        self.parent[0] += dt
        tr.spans.append([self.sid, self.parent[2], tr.job, self.layer,
                         self.t0, t1, dt - self.frame[0], self.extra,
                         tr.overhead[0] - self.booked])
        return False


def calibrate(kind: str, block: int = 1000,
              blocks: int = 60) -> Tuple[float, float]:
    """Seconds per wrapped call of tracer work a `kind` wrapper misses.

    Returns (outside, inside).  Outside is the call into the wrapper and
    the return from it, before its first clock read and after its last.
    Inside is what the wrapper's timing of the wrapped call adds to the
    call itself: half of each clock call and the star-argument call.  Each
    is the median over blocks of a wrapped no-op against direct calls,
    alternated so that both see the same host speed.
    """
    tr = Tracer()
    make = tr._span_wrapper if kind == SPAN else tr._counter_wrapper
    wrapped = make(_noop, "bench.calibrate", None)
    loop = range(block)
    clock = tr.clock
    outside, inside = [], []
    for _ in range(blocks):
        booked = tr.overhead[0]
        t0 = clock()
        for _ in loop:
            _noop(0)
        t1 = clock()
        for _ in loop:
            wrapped(0)
        t2 = clock()
        timed = sum(sp[5] - sp[4] for sp in tr.spans) + sum(
            rec[1] for rec in tr.counters.values())
        inside.append((timed - (t1 - t0)) / block)
        outside.append(((t2 - t1) - (t1 - t0) - (tr.overhead[0] - booked))
                       / block - inside[-1])
        tr.spans.clear()
        tr.counters.clear()
    return (max(0.0, statistics.median(outside)),
            max(0.0, statistics.median(inside)))


def _noop(x):
    return x
