import itertools

import pytest

from wittmod.exactnum import ONE, Scalar, ZERO, at_point, point_value, vec_axpy
from wittmod.glmod import (
    GlModule, exterior_degree, exterior_power, highest_weight, natural_module,
    scalar_module, singular_vectors, sym_power, tensor_module,
    weight_decomposition,
)


def S(k):
    return Scalar.integer(k)


def test_natural_module():
    m = natural_module(3)
    assert m.dim == 3
    # E(2,1) e1 = e2
    assert m.act(2, 1, {0: ONE}) == {1: ONE}
    assert m.act(2, 1, {1: ONE}) == {}
    assert m.diagonal_weight(0) == (ONE, ZERO, ZERO)


def test_exterior_power_dims_and_signs():
    m = exterior_power(3, 2)
    assert m.dim == 3
    assert m.labels == ["e1^e2", "e1^e3", "e2^e3"]
    i12, i13, i23 = 0, 1, 2
    # E(1,2)(e2^e3) = e1^e3
    assert m.act(1, 2, {i23: ONE}) == {i13: ONE}
    # E(3,1)(e1^e2) = e3^e2 = -e2^e3
    assert m.act(3, 1, {i12: ONE}) == {i23: -ONE}
    # E(1,2)(e1^e2) = 0 (repeated factor)
    assert m.act(1, 2, {i12: ONE}) == {}


def test_exterior_power_edge_cases():
    assert exterior_power(2, 0).dim == 1
    assert exterior_power(2, 2).dim == 1
    top = exterior_power(2, 2)
    # E(i,i) acts as identity on the top power, E(1,2) as zero
    assert top.act(1, 1, {0: ONE}) == {0: ONE}
    assert top.act(1, 2, {0: ONE}) == {}
    with pytest.raises(ValueError):
        exterior_power(2, 3)


def test_sym_power_example():
    m = sym_power(2, 2)
    assert m.dim == 3
    assert m.labels == ["e2^2", "e1*e2", "e1^2"]
    # E(1,2)(e2^2) = 2 e1*e2
    assert m.act(1, 2, {0: ONE}) == {1: S(2)}
    weights = weight_decomposition(m)
    assert set(weights) == {(S(2), S(0)), (S(1), S(1)), (S(0), S(2))}


def test_scalar_module_symbolic():
    b = Scalar.param("b")
    m = scalar_module(2, b)
    assert m.dim == 1
    assert m.act(1, 1, {0: ONE}) == {0: b / S(2)}
    assert m.act(1, 2, {0: ONE}) == {}
    # b = n gives matrices identical to the top exterior power
    mn = scalar_module(2, S(2))
    top = exterior_power(2, 2)
    assert all(mn.action[k] == top.action[k] for k in mn.action)


def test_commutation_check_rejects_bad_action():
    n = 2
    good = natural_module(n)
    action = dict(good.action)
    action[(1, 2)] = [{0: S(5)}, {}]
    with pytest.raises(ValueError, match="commutation"):
        GlModule(n, good.labels, action)


def test_tensor_module_and_singular_vectors():
    n = 2
    m = tensor_module(natural_module(n), natural_module(n))
    assert m.dim == 4
    sing = singular_vectors(m)
    assert len(sing) == 2
    by_weight = {w: v for w, v in sing}
    assert (S(2), S(0)) in by_weight and (S(1), S(1)) in by_weight
    v = by_weight[(S(1), S(1))]
    # e1*e2 - e2*e1 up to scale
    nz = [(i, x) for i, x in enumerate(v) if not x.is_zero()]
    assert len(nz) == 2 and nz[0][1] == -nz[1][1]
    assert highest_weight(m) is None


def test_irreducibility():
    for m in (natural_module(2), sym_power(2, 2), exterior_power(3, 2),
              scalar_module(2, Scalar.param("b"))):
        assert highest_weight(m) is not None


def test_singular_vector_of_sym2():
    sing = singular_vectors(sym_power(2, 2))
    assert len(sing) == 1
    weight, vec = sing[0]
    assert weight == (S(2), S(0))
    assert vec == [ZERO, ZERO, ONE]  # e1^2


def test_is_fundamental_exterior():
    # k when the irreducible M is Lambda^k C^n, read off its highest weight
    def degree(m):
        return exterior_degree(m, highest_weight(m))
    assert degree(exterior_power(2, 1)) == 1
    assert degree(exterior_power(3, 2)) == 2
    assert degree(exterior_power(2, 0)) == 0
    assert degree(scalar_module(2, S(0))) == 0
    assert degree(scalar_module(2, S(2))) == 2
    assert degree(scalar_module(3, S(3))) == 3
    assert degree(sym_power(2, 2)) is None
    assert degree(scalar_module(2, Scalar.param("b"))) is None
    assert degree(natural_module(3)) == 1


def _apply(cols, vec):
    out = {}
    for c, x in vec.items():
        vec_axpy(out, cols[c].items(), x)
    return out


def test_weight_decomposition_rejects_non_diagonal():
    n = 2
    # conjugate the natural module by a shear so E(i,i) is not diagonal
    p = [{0: ONE}, {0: ONE, 1: ONE}]
    pinv = [{0: ONE}, {0: -ONE, 1: ONE}]
    nat = natural_module(n)
    action = {k: [_apply(p, nat.act(*k, pinv[c])) for c in range(n)]
              for k in nat.action}
    m = GlModule(n, nat.labels, action)
    with pytest.raises(ValueError, match="not a weight module"):
        weight_decomposition(m)


def _torsion_columns(m, l, i, j):
    """(delta_li E(l,j) - E(l,i) E(l,j)) e_c for every basis index c."""
    out = []
    for c in range(m.dim):
        col = m.act_column(l, j, c)
        v = dict(col) if l == i else {}
        out.append(vec_axpy(v, m.act(l, i, col).items(), S(-1)))
    return out


def test_exterior_killed_by_quadratic_relations():
    # (delta_li E(l,j) - E(l,i) E(l,j)) vanishes on every exterior power
    for n in (2, 3):
        for k in range(n + 1):
            m = exterior_power(n, k)
            for l, i, j in itertools.product(range(1, n + 1), repeat=3):
                assert not any(_torsion_columns(m, l, i, j))


def test_sym2_not_killed_by_quadratic_relations():
    m = sym_power(2, 2)
    assert any(_torsion_columns(m, 1, 1, 1))


def _constructors(n):
    b = Scalar.param("b")
    return ([natural_module(n), scalar_module(n, b), scalar_module(n, S(0))]
            + [exterior_power(n, k) for k in range(n + 1)]
            + [sym_power(n, k) for k in range(3)]
            + [tensor_module(natural_module(n), sym_power(n, 2)),
               tensor_module(sym_power(n, 2), scalar_module(n, b))])


def test_tensor_action_matches_leibniz_rule():
    # E(e_a (x) e_b) = (E e_a) (x) e_b + e_a (x) (E e_b), basis index a*d2 + b
    b = Scalar.param("b")
    for n in (2, 3):
        for m1, m2 in [(natural_module(n), sym_power(n, 2)),
                       (exterior_power(n, 1), sym_power(n, 2)),
                       (sym_power(n, 2), scalar_module(n, b))]:
            m = tensor_module(m1, m2)
            d2 = m2.dim
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                for a, c in itertools.product(range(m1.dim), range(d2)):
                    want = {}
                    vec_axpy(want, [(r * d2 + c, x) for r, x
                                    in m1.act(i, j, {a: ONE}).items()])
                    vec_axpy(want, [(a * d2 + r, x) for r, x
                                    in m2.act(i, j, {c: ONE}).items()])
                    assert m.act(i, j, {a * d2 + c: ONE}) == want, \
                        (m.name, i, j, a, c)


def test_act_column_is_act_on_basis_vector():
    for n in (2, 3):
        for m in _constructors(n):
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                for c in range(m.dim):
                    col = m.act_column(i, j, c)
                    assert col == m.act(i, j, {c: ONE})
                    assert list(col) == sorted(col)


def test_column_shape_is_checked():
    nat = natural_module(2)
    for bad in ([{0: ONE}, {2: ONE}], [{-1: ONE}, {}], [{}]):
        action = dict(nat.action)
        action[(1, 2)] = bad
        with pytest.raises(ValueError, match="shape mismatch"):
            GlModule(2, nat.labels, action)
    action = dict(nat.action)
    del action[(2, 1)]
    with pytest.raises(ValueError, match="missing action matrix"):
        GlModule(2, nat.labels, action)


def test_at_point_evaluates_every_column():
    l1 = Scalar.param("l1")
    m = tensor_module(sym_power(2, 2), scalar_module(2, l1))
    pt = m.at_point()
    assert (pt.n, pt.dim, pt.labels) == (m.n, m.dim, m.labels)
    for key, cols in m.action.items():
        assert pt.action[key] == [
            {r: at_point(x) for r, x in col.items() if at_point(x)}
            for col in cols]
    # a denominator that vanishes at the point has no value there
    vanishing = ONE / (l1 - S(point_value("l1")))
    with pytest.raises(ZeroDivisionError):
        scalar_module(2, vanishing).at_point()
