"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They run every workload once, traced, in this process, and check that the
layers predicted idle on a workload are idle, that the wrappers sit at the
names callers look up, that the tracer's own time is kept out of the
layers, and that uninstalling or an untraced run leaves nothing behind.
"""

import sys

import pytest

import tracer as tracing
import workloads
import worker
from wittmod import cli, exactnum, glmod, wittrep
from wittmod.liealg import WittElement
from wittmod.polyalg import PLUS
from wittmod.weylmod import apoly

SEED = 7


def _namespaces():
    """Every wittmod module and every class the tracer patches."""
    spaces = {name: mod for name, mod in sys.modules.items()
              if name == "wittmod" or name.startswith("wittmod.")}
    for owner, *_ in tracing._TARGETS:
        if "." in owner:
            spaces["wittmod." + owner] = tracing._resolve(owner)
    return spaces


def _snapshot():
    return {(name, attr): value for name, space in _namespaces().items()
            for attr, value in vars(space).items()}


# taken at import, before any Tracer exists in this process
ORIGINAL = _snapshot()


def _changed():
    now = _snapshot()
    return sorted(key for key in ORIGINAL if now.get(key) is not ORIGINAL[key])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in workloads.WORKLOADS:
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.span("bench.setup"):
                jobs = workloads.build(name, SEED)
            with tr.span("bench.pass"):
                result = worker.run_pass(jobs, tr)
        finally:
            tr.uninstall()
        out[name] = (tr, result)
    return out


def test_every_job_passes_under_tracing(traced):
    for name, (_, result) in traced.items():
        assert [j for j in result["jobs"] if j[3]] == [], name


def test_predicted_zero_and_nonzero_layers(traced):
    ident = traced["identities"][0].metrics()
    sat = traced["saturation"][0].metrics()
    sub = traced["subspaces"][0].metrics()
    assert ident["echelon.add.calls"] == 0
    assert ident["kernel_basis.calls"] == 0
    assert ident["suite.action_axiom.s"] > 0
    assert sat["kernel_basis.calls"] == 0
    assert sat["echelon.add.calls"] > 0
    assert 0 < sat["closure.useful_share"] < 1
    assert sub["kernel_basis.calls"] > 0
    assert sub["suite.transporter.s"] > 0
    for metrics in (ident, sat, sub):
        assert metrics["scalar.mul.calls"] > 0
        assert metrics["act_cell.calls"] > 0


def test_tracer_time_is_booked_apart_from_the_layers(traced):
    for name, (tr, result) in traced.items():
        totals = tr.layer_totals()
        assert totals["bench.trace"][2] > 0, name
        assert sum(result["job_trace_s"]) <= totals["bench.trace"][2], name
        spans = {sp[3]: sp[5] - sp[4] for sp in tr.spans
                 if sp[3] in ("bench.setup", "bench.pass")}
        traced_s = spans["bench.setup"] + spans["bench.pass"]
        # booked time is moved out of the layers, not added or lost
        self_sum = sum(rec[2] for rec in totals.values())
        assert abs(self_sum - traced_s) <= 0.02 * traced_s, name
        for layer, (_, _, self_s) in totals.items():
            assert self_s >= 0, (name, layer)


def test_nested_calls_of_one_layer_count_once():
    P = apoly(2)
    x = WittElement.monomial(2, PLUS, (1, 1), 1)
    vec = {P.window_basis(2)[-1]: exactnum.Scalar.integer(1)}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert P.act_witt(x, vec)
    finally:
        tr.uninstall()
    # act_witt -> act_witt_monomial -> act_t_monomial is one module action
    assert tr.metrics()["weylmod.act.calls"] == 1


def test_wrappers_sit_where_callers_look_them_up():
    original_kernel = wittrep.kernel_basis
    original_axiom = wittrep.check_action_axiom
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.check_action_axiom is wittrep.check_action_axiom
        assert cli.check_action_axiom is not original_axiom
        assert cli.check_action_axiom.__wrapped__ is original_axiom
        assert wittrep.kernel_basis is not original_kernel
        # gl-module structure analysis is not window elimination
        assert glmod.kernel_basis is original_kernel
        assert exactnum.Scalar.__mul__.__wrapped__ is not None
    finally:
        tr.uninstall()


def test_uninstall_restores_every_patched_name():
    tr = tracing.Tracer()
    tr.install()
    patched = [(owner, attr) for owner, attr, _ in tr._saved]
    assert any(owner is cli and attr == "check_action_axiom"
               for owner, attr in patched)
    tr.uninstall()
    assert _changed() == []
    for owner, attr in patched:
        name = owner.__module__ + "." + owner.__name__ \
            if isinstance(owner, type) else owner.__name__
        assert getattr(owner, attr) is ORIGINAL[(name, attr)], (name, attr)


def test_untraced_run_leaves_every_attribute(traced):
    assert _changed() == []
    result = worker.run_pass(workloads.build("saturation", SEED))
    assert [j for j in result["jobs"] if j[3]] == []
    assert _changed() == []
