import itertools
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rbmlab.errors import (
    CapacityError,
    ContractError,
    UnsupportedEdgeError,
    UnsupportedLabelError,
)
from rbmlab.graphs import (
    Atom,
    AtomicGraph,
    Coefficient,
    Edge,
    EdgeKind,
    Weight,
    WeightKind,
    EVAL_TERM_CAP,
    evaluate,
    evaluate_brute,
    graph_cost,
    is_doubly_connected,
    is_normal,
    molecular_graph,
    molecules,
    scaling_order,
    second_order_graphs,
    standard_bindings,
)
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape
from rbmlab.propagators import PropagatorSet
from rbmlab.sampler import sample_band
from rbmlab.spectral import resolvent, t_three


def ext(*ids):
    return tuple(Atom(i, False) for i in ids)


def internal(*ids):
    return tuple(Atom(i, True) for i in ids)


@pytest.fixture
def ctx_props(small_profile):
    z = 0.2 + 0.5j
    ctx = resolvent(sample_band(small_profile, 77, 0), z, small_profile)
    return ctx, PropagatorSet.build(small_profile, z)


def test_type_invariants():
    with pytest.raises(ContractError):
        AtomicGraph(ext(0), (Edge(0, 1, EdgeKind.FREE),))  # unknown atom
    with pytest.raises(ContractError):
        AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.DOTTED), Edge(0, 1, EdgeKind.CROSS_DOTTED)))
    with pytest.raises(ContractError):
        AtomicGraph(ext(0), (Edge(0, 0, EdgeKind.G_BLUE),))  # diagonal G is a weight
    with pytest.raises(ContractError):
        AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.LABELED_DIFFUSIVE),))  # no order
    with pytest.raises(ContractError):
        AtomicGraph(ext(0, 1), weights=(Weight(7, WeightKind.REGULAR_BLUE),))


def test_is_normal_examples():
    ok, _ = is_normal(AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.DIFFUSIVE),)))
    assert ok
    bad_dotted = AtomicGraph(internal(0, 1), (Edge(0, 1, EdgeKind.DOTTED),))
    ok, viol = is_normal(bad_dotted)
    assert not ok and any(v.startswith("iii") for v in viol)
    bad_pairing = AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.G_BLUE),))
    ok, viol = is_normal(bad_pairing)
    assert not ok and any(v.startswith("iv-missing") for v in viol)
    # unanchored internal atom (free edges do not anchor)
    floating = AtomicGraph(
        ext(0) + internal(1, 2),
        (Edge(0, 1, EdgeKind.WAVED), Edge(1, 2, EdgeKind.FREE)),
    )
    ok, viol = is_normal(floating)
    assert not ok and any(v.startswith("ii") for v in viol)
    # cross-dotted edges are part of the dotted family and do anchor
    anchored = AtomicGraph(
        ext(0) + internal(1, 2),
        (Edge(0, 1, EdgeKind.WAVED), Edge(1, 2, EdgeKind.G_BLUE), Edge(1, 2, EdgeKind.CROSS_DOTTED)),
    )
    assert is_normal(anchored)[0]
    ok, viol = is_normal(AtomicGraph(ext(*range(5)), ()), cap=4)
    assert not ok and any(v.startswith("i:") for v in viol)


def test_scaling_order_examples():
    assert scaling_order(AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.DIFFUSIVE),))) == 2
    # sum_x s_ax G_xb conj(G_xb): waved + two G edges + one internal
    g = AtomicGraph(
        ext(0, 1) + internal(2),
        (Edge(0, 2, EdgeKind.WAVED), Edge(2, 1, EdgeKind.G_BLUE), Edge(2, 1, EdgeKind.G_RED)),
    )
    assert scaling_order(g) == 2
    g_light = AtomicGraph(g.atoms, g.edges, (Weight(2, WeightKind.LIGHT_BLUE),))
    assert scaling_order(g_light) == 3
    with pytest.raises(ContractError):
        scaling_order(AtomicGraph(internal(0, 1), (Edge(0, 1, EdgeKind.DOTTED),)))


def test_scaling_order_relabel_invariance(rng):
    base = AtomicGraph(
        ext(0, 1) + internal(2, 3),
        (
            Edge(0, 2, EdgeKind.DIFFUSIVE),
            Edge(2, 3, EdgeKind.WAVED),
            Edge(3, 1, EdgeKind.G_BLUE),
            Edge(3, 1, EdgeKind.CROSS_DOTTED),
            Edge(2, 3, EdgeKind.GHOST),
        ),
        (Weight(2, WeightKind.LIGHT_RED),),
    )
    want = scaling_order(base)
    for _ in range(10):
        perm = rng.permutation(4)
        mapping = {old: int(perm[old]) for old in range(4)}
        atoms = tuple(Atom(mapping[a.id], a.internal) for a in base.atoms)
        edges = list(
            Edge(mapping[e.a], mapping[e.b], e.kind, e.order, e.label) for e in base.edges
        )
        rng.shuffle(edges)
        weights = tuple(Weight(mapping[w.atom], w.kind, w.label) for w in base.weights)
        assert scaling_order(AtomicGraph(atoms, tuple(edges), weights)) == want


def test_molecules_examples():
    g = AtomicGraph(ext(0, 1) + internal(2), (Edge(0, 1, EdgeKind.G_BLUE), Edge(0, 1, EdgeKind.CROSS_DOTTED)))
    dec = molecules(g)
    assert dec.n_molecules == 3  # G edges never merge molecules
    chain = AtomicGraph(
        ext(0) + internal(1, 2),
        (Edge(0, 1, EdgeKind.WAVED), Edge(1, 2, EdgeKind.DOTTED)),
    )
    dec = molecules(chain)
    assert dec.n_molecules == 1
    assert dec.external_molecules == {0}
    two = AtomicGraph(
        internal(0, 1, 2, 3),
        (Edge(0, 1, EdgeKind.WAVED_PLUS), Edge(2, 3, EdgeKind.WAVED_MINUS), Edge(1, 2, EdgeKind.G_BLUE), Edge(1, 2, EdgeKind.CROSS_DOTTED)),
    )
    assert molecules(two).n_molecules == 2


def test_molecules_refine_full_connectivity():
    g = AtomicGraph(
        internal(0, 1, 2),
        (Edge(0, 1, EdgeKind.WAVED), Edge(1, 2, EdgeKind.DIFFUSIVE)),
    )
    dec = molecules(g)
    # every molecule sits inside one full-edge-set component
    assert dec.partition[0] == dec.partition[1] != dec.partition[2]


def test_molecular_graph_examples():
    one = AtomicGraph(internal(0, 1), (Edge(0, 1, EdgeKind.WAVED), Edge(0, 1, EdgeKind.FREE)))
    mg = molecular_graph(one)
    assert mg.n_molecules == 1 and mg.edges == ()
    two = AtomicGraph(
        internal(0, 1),
        (Edge(0, 1, EdgeKind.G_BLUE), Edge(0, 1, EdgeKind.CROSS_DOTTED), Edge(0, 1, EdgeKind.G_BLUE)),
    )
    mg = molecular_graph(two)
    kinds = [e[2] for e in mg.edges]
    assert kinds.count(EdgeKind.G_BLUE) == 2  # parallel edges preserved
    ghosted = AtomicGraph(internal(0, 1), (Edge(0, 1, EdgeKind.GHOST), Edge(0, 1, EdgeKind.DIFFUSIVE)))
    mg = molecular_graph(ghosted)
    assert mg.ghost_edges == ((0, 1),) and len(mg.edges) == 1


def test_doubly_connected_monotone_and_cap():
    base_edges = [Edge(0, 1, EdgeKind.DIFFUSIVE)]
    g1 = AtomicGraph(internal(0, 1), tuple(base_edges))
    assert is_doubly_connected(g1)[0] is False
    g2 = AtomicGraph(internal(0, 1), tuple(base_edges + [Edge(0, 1, EdgeKind.DIFFUSIVE)]))
    assert is_doubly_connected(g2)[0] is True
    # adding one more diffusive edge never flips true -> false
    g3 = AtomicGraph(internal(0, 1), g2.edges + (Edge(0, 1, EdgeKind.DIFFUSIVE),))
    assert is_doubly_connected(g3)[0] is True
    many = AtomicGraph(
        internal(0, 1), tuple(Edge(0, 1, EdgeKind.DIFFUSIVE) for _ in range(13))
    )
    with pytest.raises(CapacityError, match="12"):
        is_doubly_connected(many)


def test_evaluate_trivial_cases(ctx_props):
    ctx, props = ctx_props
    empty = AtomicGraph(ext(0), coeff=Coefficient(3 - 2j))
    assert evaluate(empty, ctx, props, {0: 4}) == 3 - 2j
    xdot = AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.CROSS_DOTTED),))
    assert evaluate(xdot, ctx, props, {0: 3, 1: 3}) == 0
    assert evaluate(xdot, ctx, props, {0: 3, 1: 4}) == 1


def test_evaluate_t_three_oracle(ctx_props):
    ctx, props = ctx_props
    g = AtomicGraph(
        ext(0, 1, 2) + internal(3),
        (Edge(0, 3, EdgeKind.WAVED), Edge(3, 1, EdgeKind.G_BLUE), Edge(3, 2, EdgeKind.G_RED)),
        coeff=Coefficient(m_pow=1, mbar_pow=1),
    )
    for sites in [(0, 1, 3), (2, 5, 5), (0, 0, 0)]:
        got = evaluate(g, ctx, props, standard_bindings(*sites))
        assert abs(got - t_three(ctx, *sites)) < 1e-12


def test_evaluate_linearity_and_product(ctx_props):
    ctx, props = ctx_props
    g = AtomicGraph(
        ext(0, 1), (Edge(0, 1, EdgeKind.G_BLUE),), coeff=Coefficient(1.0)
    )
    doubled = AtomicGraph(g.atoms, g.edges, coeff=Coefficient(2.0))
    b = {0: 1, 1: 5}
    assert evaluate(doubled, ctx, props, b) == 2 * evaluate(g, ctx, props, b)
    # disjoint union with disjoint externals multiplies values
    w1 = AtomicGraph(ext(0), weights=(Weight(0, WeightKind.REGULAR_BLUE),))
    w2 = AtomicGraph(ext(1), weights=(Weight(1, WeightKind.LIGHT_RED),))
    union = AtomicGraph(
        ext(0, 1), weights=w1.weights + w2.weights
    )
    vals = (
        evaluate(w1, ctx, props, {0: 2}),
        evaluate(w2, ctx, props, {1: 6}),
        evaluate(union, ctx, props, {0: 2, 1: 6}),
    )
    assert abs(vals[2] - vals[0] * vals[1]) < 1e-14


def test_evaluate_free_and_ghost_factors(ctx_props):
    ctx, props = ctx_props
    n, eta = ctx.N, ctx.eta
    w_band = ctx.profile.W
    g = AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.FREE), Edge(0, 1, EdgeKind.GHOST)))
    got = evaluate(g, ctx, props, {0: 0, 1: 1})
    assert abs(got - (1 / (n * eta)) * (w_band**2 / 8**2)) < 1e-15


def test_evaluate_errors(ctx_props):
    ctx, props = ctx_props
    labeled = AtomicGraph(
        ext(0, 1), (Edge(0, 1, EdgeKind.G_BLUE, label=("Q", 0)),)
    )
    with pytest.raises(UnsupportedLabelError):
        evaluate(labeled, ctx, props, {0: 0, 1: 1})
    ldiff = AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.LABELED_DIFFUSIVE, order=4),))
    with pytest.raises(UnsupportedEdgeError):
        evaluate(ldiff, ctx, props, {0: 0, 1: 1})
    unbound = AtomicGraph(ext(0, 1), (Edge(0, 1, EdgeKind.FREE),))
    with pytest.raises(ContractError):
        evaluate(unbound, ctx, props, {0: 0})
    crowded = AtomicGraph(
        ext(0) + internal(*range(1, 11)),
        tuple(Edge(0, i, EdgeKind.WAVED) for i in range(1, 11)),
    )
    with pytest.raises(CapacityError):
        evaluate_brute(crowded, ctx, props, {0: 0})  # 8^10 > 1e8
    # the star contracts one row per internal atom; a 10-clique cannot be
    # contracted below N^10 without intermediates larger than N^2
    clique = AtomicGraph(
        ext(0) + internal(*range(1, 11)),
        tuple(Edge(a, b, EdgeKind.WAVED) for a, b in itertools.combinations(range(1, 11), 2)),
    )
    assert graph_cost(crowded, ctx.N) <= EVAL_TERM_CAP < graph_cost(clique, ctx.N)
    with pytest.raises(CapacityError):
        evaluate(clique, ctx, props, {0: 0})
    # a dotted edge between externals on different sites makes the value 0
    tied = AtomicGraph(
        ext(0, 1),
        (Edge(0, 1, EdgeKind.DOTTED), Edge(0, 1, EdgeKind.WAVED_PLUS), Edge(0, 1, EdgeKind.WAVED)),
    )
    assert evaluate(tied, ctx, props, {0: 0, 1: 1}) == 0


def test_graph_cost_admits_what_brute_force_admits():
    # rbm graph runs up to N = 8192, where N^2 (two internal atoms) passes
    # the oracle's cap; the contraction must pass it too
    for g in second_order_graphs(0, 1, 2):
        assert graph_cost(g, 8192) <= min(EVAL_TERM_CAP, 8192 ** len(g.internal_atoms))


_EVALUABLE_EDGES = (
    EdgeKind.G_BLUE,
    EdgeKind.G_RED,
    EdgeKind.WAVED,
    EdgeKind.WAVED_PLUS,
    EdgeKind.WAVED_MINUS,
    EdgeKind.DIFFUSIVE,
    EdgeKind.FREE,
    EdgeKind.GHOST,
    EdgeKind.DOTTED,
    EdgeKind.CROSS_DOTTED,
)
_NO_LOOP = (EdgeKind.G_BLUE, EdgeKind.G_RED, EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED)


@cache
def _oracle_ctx(d, L):
    """Context and propagators, plus a magnitude copy whose every factor is
    at least the absolute value of the original one (G -> |G| off the
    diagonal, |G_xx| + |m| on it, m -> 0, kernels -> |kernel|).

    The plus kernel gets an asymmetric perturbation, so that k(x - y) and
    k(y - x) differ and edge orientation matters."""
    prof = build_profile(get_shape("gaussian"), 1.0 if d > 1 else 2.0, TorusLattice(d, L))
    z = 0.3 + 0.4j
    ctx = resolvent(sample_band(prof, 11, d), z, prof)
    props = PropagatorSet.build(prof, z)
    noise = np.random.default_rng(d * L).standard_normal(props.s_plus_fft.shape)
    props = replace(props, s_plus_fft=props.s_plus_fft + 0.1 * noise)
    G_abs = np.abs(ctx.G)
    np.fill_diagonal(G_abs, np.abs(np.diagonal(ctx.G)) + abs(ctx.m))
    ctx_mag = replace(ctx, G=G_abs)
    ctx_mag.__dict__["m"] = 0j  # m derives from z; the bound wants m -> 0
    mag = (
        ctx_mag,
        replace(
            props,
            theta_circ_fft=np.abs(props.theta_circ_fft),
            s_plus_fft=np.abs(props.s_plus_fft),
            s_minus_fft=np.abs(props.s_minus_fft),
        ),
    )
    return (ctx, props), mag


@st.composite
def _graph_cases(draw):
    d, L = draw(st.sampled_from([(1, 8), (2, 4), (1, 16)]))
    n_ext = draw(st.integers(0, 3))
    n_int = draw(st.integers(0 if n_ext else 1, 4 if L**d <= 8 else 3))
    ids = draw(st.permutations(range(n_ext + n_int)))
    atoms = tuple(Atom(i, k >= n_ext) for k, i in enumerate(ids))
    pick = st.sampled_from(ids)
    edges, dotted_pairs = [], set()
    for a, b, kind in draw(st.lists(st.tuples(pick, pick, st.sampled_from(_EVALUABLE_EDGES)), max_size=7)):
        if kind in _NO_LOOP and a == b:
            continue
        if kind in (EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED):
            if (min(a, b), max(a, b)) in dotted_pairs:
                continue
            dotted_pairs.add((min(a, b), max(a, b)))
        edges.append(Edge(a, b, kind))
    weights = draw(st.lists(st.builds(Weight, pick, st.sampled_from(list(WeightKind))), max_size=3))
    coeff = Coefficient(complex(draw(st.sampled_from([1.0, -0.5, 2j]))), m_pow=draw(st.integers(0, 1)))
    sites = st.integers(0, L**d - 1)
    bindings = {a.id: draw(sites) for a in atoms if not a.internal}
    return (d, L), AtomicGraph(atoms, tuple(edges), tuple(weights), coeff), bindings


@settings(max_examples=300, deadline=None)
@given(_graph_cases())
@example((
    (1, 8),
    AtomicGraph(
        ext(0) + internal(1, 2, 3),
        (
            Edge(1, 2, EdgeKind.DOTTED),
            Edge(2, 3, EdgeKind.CROSS_DOTTED),
            Edge(3, 3, EdgeKind.WAVED),
            Edge(3, 0, EdgeKind.DIFFUSIVE),
            Edge(2, 0, EdgeKind.WAVED_PLUS),
            Edge(1, 3, EdgeKind.G_RED),
        ),
        (Weight(0, WeightKind.LIGHT_RED), Weight(1, WeightKind.REGULAR_BLUE)),
    ),
    {0: 5},
))
@example(((2, 4), AtomicGraph(ext(0, 1) + internal(2), (Edge(0, 1, EdgeKind.WAVED_PLUS),)), {0: 3, 1: 9}))
@example((
    (1, 16),
    AtomicGraph(
        ext(0) + internal(1, 2, 3),
        (
            Edge(1, 2, EdgeKind.WAVED_PLUS),
            Edge(3, 2, EdgeKind.WAVED_PLUS),
            Edge(0, 1, EdgeKind.G_BLUE),
            Edge(1, 1, EdgeKind.DIFFUSIVE),
        ),
        (Weight(2, WeightKind.LIGHT_BLUE), Weight(3, WeightKind.REGULAR_RED)),
    ),
    {0: 6},
))
def test_evaluate_matches_brute_force(case):
    # relative to the sum of the terms' magnitudes: centered kernels such as
    # theta_circ sum to zero, so the value itself can cancel to round-off
    (d, L), g, bindings = case
    (ctx, props), (ctx_mag, props_mag) = _oracle_ctx(d, L)
    want = evaluate_brute(g, ctx, props, bindings)
    got = evaluate(g, ctx, props, bindings)
    coeff = abs(g.coeff.resolve(ctx.m, ctx.N, ctx.eta))
    magnitude = coeff * evaluate_brute(replace(g, coeff=Coefficient()), ctx_mag, props_mag, bindings).real
    assert abs(got - want) <= 1e-12 * magnitude
    assert graph_cost(g, ctx.N) <= ctx.N ** len(g.internal_atoms)


def test_second_order_graph_count_and_orders():
    graphs = second_order_graphs(0, 1, 3)
    assert len(graphs) == 4
    assert [scaling_order(g) for g in graphs] == [3, 0, 3, 3]
    assert all(not is_normal(g)[0] for g in graphs[:1])  # raw leading term lacks pairing
