"""Diagrammatic graph calculus: atomic graphs over lattice indices, their
numerical values against a resolvent, the integer scaling-order grading,
molecule quotients, and the doubly connected decision.

An atomic graph is a multigraph of atoms (external atoms carry fixed site
bindings, internal atoms are summed over the lattice) with typed edges,
diagonal weights, and a coefficient.  Evaluation compiles the graph into
one einsum contraction over N x N resolvent and kernel matrices, ordered by
numpy.einsum_path (contraction ordering as in Smith & Gray, opt_einsum,
JOSS 2018), after summing out kernel edges into leaf indices by FFT
convolution; N to the widest step's index count is the graph's cost and
is capped.  Enumeration over all internal assignments (evaluate_brute) is kept as the
oracle the contraction is tested against.

Coefficients may carry symbolic powers of m, conj(m), 1/(N eta) and eta
that are resolved against the resolvent context at evaluation time (the
natural prefactors of expansion terms are z-dependent).
"""

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .errors import (
    CapacityError,
    ContractError,
    ParameterError,
    UnsupportedEdgeError,
    UnsupportedLabelError,
)
from .propagators import d_eta_exponent

__all__ = [
    "EdgeKind",
    "WeightKind",
    "Atom",
    "Edge",
    "Weight",
    "Coefficient",
    "AtomicGraph",
    "MoleculeDecomposition",
    "MolecularGraph",
    "is_normal",
    "scaling_order",
    "molecules",
    "molecular_graph",
    "is_doubly_connected",
    "graph_size",
    "graph_cost",
    "evaluate",
    "evaluate_brute",
    "second_order_graphs",
    "standard_bindings",
    "dotted_normal_form",
    "serialize_graph",
    "parse_graph",
]

EVAL_TERM_CAP = 10**8
NORMAL_CAP = 64
DC_EDGE_CAP = 12


class EdgeKind(str, Enum):
    G_BLUE = "g_blue"
    G_RED = "g_red"
    WAVED = "waved"
    WAVED_PLUS = "waved_plus"
    WAVED_MINUS = "waved_minus"
    DIFFUSIVE = "diffusive"
    LABELED_DIFFUSIVE = "ldiffusive"
    FREE = "free"
    GHOST = "ghost"
    DOTTED = "dotted"
    CROSS_DOTTED = "xdotted"


class WeightKind(str, Enum):
    REGULAR_BLUE = "regular_blue"
    REGULAR_RED = "regular_red"
    LIGHT_BLUE = "light_blue"
    LIGHT_RED = "light_red"


_G_KINDS = (EdgeKind.G_BLUE, EdgeKind.G_RED)
_WAVED_KINDS = (EdgeKind.WAVED, EdgeKind.WAVED_PLUS, EdgeKind.WAVED_MINUS)
# edges that tie atoms into the same local neighborhood (molecule)
_MOLECULE_KINDS = _WAVED_KINDS + (EdgeKind.DOTTED,)
# edges usable for the internal-connectivity normality check; cross-dotted
# edges are part of the dotted family and count here
_ANCHOR_KINDS = _WAVED_KINDS + (
    EdgeKind.DIFFUSIVE,
    EdgeKind.LABELED_DIFFUSIVE,
    EdgeKind.DOTTED,
    EdgeKind.CROSS_DOTTED,
)
_NO_SELF_LOOP = _G_KINDS + (EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED)


@dataclass(frozen=True)
class Atom:
    id: int
    internal: bool


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    kind: EdgeKind
    order: int | None = None  # labeled-diffusive only
    label: tuple[str, int] | None = None  # ("P"|"Q", atom id)

    def pair(self):
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class Weight:
    atom: int
    kind: WeightKind
    label: tuple[str, int] | None = None


@dataclass(frozen=True)
class Coefficient:
    value: complex = 1.0 + 0.0j
    m_pow: int = 0
    mbar_pow: int = 0
    inv_neta_pow: int = 0
    eta_pow: int = 0

    def resolve(self, m: complex, N: int, eta: float) -> complex:
        out = complex(self.value)
        if self.m_pow:
            out *= m**self.m_pow
        if self.mbar_pow:
            out *= np.conj(m) ** self.mbar_pow
        if self.inv_neta_pow:
            out *= (N * eta) ** (-self.inv_neta_pow)
        if self.eta_pow:
            out *= eta**self.eta_pow
        return out

    @property
    def is_plain(self) -> bool:
        return not (self.m_pow or self.mbar_pow or self.inv_neta_pow or self.eta_pow)


@dataclass(frozen=True)
class AtomicGraph:
    atoms: tuple[Atom, ...]
    edges: tuple[Edge, ...] = ()
    weights: tuple[Weight, ...] = ()
    coeff: Coefficient = Coefficient()

    def __post_init__(self):
        ids = {a.id for a in self.atoms}
        if len(ids) != len(self.atoms):
            raise ContractError("duplicate atom ids")
        dotted_pairs = set()
        for e in self.edges:
            if e.a not in ids or e.b not in ids:
                raise ContractError(f"edge {e} references unknown atom")
            if e.a == e.b and e.kind in _NO_SELF_LOOP:
                raise ContractError(f"{e.kind.value} edge cannot be a self-loop")
            if (e.kind == EdgeKind.LABELED_DIFFUSIVE) != (e.order is not None):
                raise ContractError("order is set exactly for labeled-diffusive edges")
            if e.kind in (EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED):
                if e.pair() in dotted_pairs:
                    raise ContractError(
                        f"more than one dotted/cross-dotted edge on pair {e.pair()}"
                    )
                dotted_pairs.add(e.pair())
        for w in self.weights:
            if w.atom not in ids:
                raise ContractError(f"weight {w} references unknown atom")

    @property
    def internal_atoms(self):
        return tuple(a for a in self.atoms if a.internal)

    @property
    def external_atoms(self):
        return tuple(a for a in self.atoms if not a.internal)

    def atom(self, atom_id: int) -> Atom:
        for a in self.atoms:
            if a.id == atom_id:
                return a
        raise KeyError(atom_id)

    def has_labels(self) -> bool:
        return any(e.label for e in self.edges) or any(w.label for w in self.weights)


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def is_normal(g: AtomicGraph, cap: int = NORMAL_CAP):
    """Normality check; returns (ok, violations).

    Violations are prefixed with their clause: size cap (i), internal
    anchoring through waved/diffusive/dotted paths (ii), no dotted edges
    between internal atoms (iii), and the pairing of G edges with
    cross-dotted edges (iv, reported separately per direction).
    """
    violations = []
    if len(g.atoms) > cap or len(g.edges) > cap:
        violations.append(f"i: more than {cap} atoms or edges")

    dsu = _DSU([a.id for a in g.atoms])
    for e in g.edges:
        if e.kind in _ANCHOR_KINDS:
            dsu.union(e.a, e.b)
    internal_ids = {a.id for a in g.internal_atoms}
    external_ids = {a.id for a in g.atoms if not a.internal}
    for grp in dsu.groups():
        grp_internal = internal_ids.intersection(grp)
        if not grp_internal:
            continue
        touches_external = bool(external_ids.intersection(grp))
        if not touches_external and grp_internal != internal_ids:
            violations.append(
                f"ii: internal atoms {sorted(grp_internal)} anchored to nothing"
            )

    for e in g.edges:
        if e.kind == EdgeKind.DOTTED and e.a in internal_ids and e.b in internal_ids:
            violations.append(f"iii: dotted edge between internal atoms {e.pair()}")

    g_pairs = {e.pair() for e in g.edges if e.kind in _G_KINDS}
    cross_pairs = {e.pair() for e in g.edges if e.kind == EdgeKind.CROSS_DOTTED}
    for p in sorted(g_pairs - cross_pairs):
        violations.append(f"iv-missing: pair {p} has a G edge but no cross-dotted edge")
    for p in sorted(cross_pairs - g_pairs):
        violations.append(f"iv-spurious: pair {p} has a cross-dotted edge but no G edge")

    return (not violations, violations)


def scaling_order(g: AtomicGraph) -> int:
    """Integer grading: #G edges + #light weights + 2(#waved + #free +
    #diffusive) + sum of labeled-diffusive orders - 2(#internal - #dotted).

    Ghost edges do not count.  Accepts graphs whose only normality defect
    is missing cross-dotted companions (raw expansion output); any other
    violation raises.
    """
    ok, violations = is_normal(g)
    hard = [v for v in violations if not v.startswith("iv-missing")]
    if hard:
        raise ContractError(f"scaling_order needs a normal graph; violations: {hard}")
    n_g = sum(e.kind in _G_KINDS for e in g.edges)
    n_light = sum(w.kind in (WeightKind.LIGHT_BLUE, WeightKind.LIGHT_RED) for w in g.weights)
    n_waved = sum(e.kind in _WAVED_KINDS for e in g.edges)
    n_free = sum(e.kind == EdgeKind.FREE for e in g.edges)
    n_diff = sum(e.kind == EdgeKind.DIFFUSIVE for e in g.edges)
    labeled = sum(e.order for e in g.edges if e.kind == EdgeKind.LABELED_DIFFUSIVE)
    n_dotted = sum(e.kind == EdgeKind.DOTTED for e in g.edges)
    n_internal = len(g.internal_atoms)
    return (
        n_g + n_light + 2 * (n_waved + n_free + n_diff) + labeled
        - 2 * (n_internal - n_dotted)
    )


@dataclass(frozen=True)
class MoleculeDecomposition:
    """Partition of atoms into molecules (waved/dotted connectivity)."""

    partition: dict  # atom id -> molecule index
    external_molecules: frozenset

    @property
    def n_molecules(self) -> int:
        return len(set(self.partition.values()))

    def members(self, mol: int):
        return sorted(a for a, m in self.partition.items() if m == mol)


def molecules(g: AtomicGraph) -> MoleculeDecomposition:
    """Union-find over waved (any sign) and dotted edges."""
    dsu = _DSU([a.id for a in g.atoms])
    for e in g.edges:
        if e.kind in _MOLECULE_KINDS:
            dsu.union(e.a, e.b)
    roots = {}
    partition = {}
    for a in sorted(x.id for x in g.atoms):
        r = dsu.find(a)
        if r not in roots:
            roots[r] = len(roots)
        partition[a] = roots[r]
    external = frozenset(partition[a.id] for a in g.atoms if not a.internal)
    return MoleculeDecomposition(partition, external)


@dataclass(frozen=True)
class MolecularGraph:
    """Quotient multigraph: one vertex per molecule; retained edges are the
    solid, diffusive and free edges between distinct molecules.  Ghost
    edges are tracked separately (blue-net eligible)."""

    n_molecules: int
    external_molecules: frozenset
    edges: tuple  # (mol_a, mol_b, EdgeKind, order)
    ghost_edges: tuple  # (mol_a, mol_b)


_QUOTIENT_KINDS = _G_KINDS + (
    EdgeKind.DIFFUSIVE,
    EdgeKind.LABELED_DIFFUSIVE,
    EdgeKind.FREE,
)


def molecular_graph(g: AtomicGraph) -> MolecularGraph:
    dec = molecules(g)
    edges = []
    ghosts = []
    for e in g.edges:
        ma, mb = dec.partition[e.a], dec.partition[e.b]
        if ma == mb:
            continue
        if e.kind in _QUOTIENT_KINDS:
            edges.append((ma, mb, e.kind, e.order))
        elif e.kind == EdgeKind.GHOST:
            ghosts.append((ma, mb))
    return MolecularGraph(
        dec.n_molecules, dec.external_molecules, tuple(edges), tuple(ghosts)
    )


def _spans(vertices, edge_pairs) -> bool:
    if not vertices:
        return True
    dsu = _DSU(list(vertices))
    for a, b in edge_pairs:
        dsu.union(a, b)
    root = dsu.find(next(iter(vertices)))
    return all(dsu.find(v) == root for v in vertices)


def _tree_from(vertices, edges):
    dsu = _DSU(list(vertices))
    tree = []
    for e in edges:
        a, b = e[0], e[1]
        if dsu.find(a) != dsu.find(b):
            dsu.union(a, b)
            tree.append(e)
    return tree


def is_doubly_connected(g: AtomicGraph, cap: int = DC_EDGE_CAP):
    """Decide whether two disjoint spanning nets exist on the internal
    molecular graph: a black net of diffusive edges and a blue net of blue
    solid, diffusive, free and ghost edges (red solid edges are unusable).

    Exhaustive assignment over the candidate edges; returns
    (decision, witness) with witness = (black edges, blue edges) on
    success.  Graphs with more than ``cap`` candidate edges raise
    CapacityError.
    """
    mg = molecular_graph(g)
    internal = [m for m in range(mg.n_molecules) if m not in mg.external_molecules]
    verts = set(internal)
    if len(verts) <= 1:
        return True, ((), ())

    def both_internal(a, b):
        return a in verts and b in verts

    diff_edges = [
        e for e in mg.edges
        if e[2] in (EdgeKind.DIFFUSIVE, EdgeKind.LABELED_DIFFUSIVE)
        and both_internal(e[0], e[1])
    ]
    blue_only = [
        e for e in mg.edges if e[2] == EdgeKind.G_BLUE and both_internal(e[0], e[1])
    ] + [
        e for e in mg.edges if e[2] == EdgeKind.FREE and both_internal(e[0], e[1])
    ] + [
        (a, b, EdgeKind.GHOST, None) for a, b in mg.ghost_edges if both_internal(a, b)
    ]
    n_cand = len(diff_edges) + len(blue_only)
    if n_cand > cap:
        raise CapacityError(
            f"doubly-connected search capped at {cap} candidate edges, got {n_cand}"
        )

    nd = len(diff_edges)
    for mask in range(1 << nd):
        black = [diff_edges[i] for i in range(nd) if mask >> i & 1]
        if not _spans(verts, [(e[0], e[1]) for e in black]):
            continue
        rest = [diff_edges[i] for i in range(nd) if not (mask >> i & 1)] + blue_only
        if _spans(verts, [(e[0], e[1]) for e in rest]):
            blue_tree = _tree_from(verts, rest)
            return True, (tuple(_tree_from(verts, black)), tuple(blue_tree))
    return False, None


def graph_size(g: AtomicGraph, W: float, L: int, eta: float, d: int, delta0: float) -> float:
    """(L^2/W^2)^{#ghost} * W^{-ord * d_eta}, with the eta-regime exponent."""
    de = d_eta_exponent(W, L, eta, d, delta0)
    n_ghost = sum(e.kind == EdgeKind.GHOST for e in g.edges)
    return float((L**2 / W**2) ** n_ghost * W ** (-scaling_order(g) * de))


_EVAL_CHUNK = 1 << 16
_PROPAGATOR_KERNELS = {
    EdgeKind.WAVED_PLUS: "s_plus_fft",
    EdgeKind.WAVED_MINUS: "s_minus_fft",
    EdgeKind.DIFFUSIVE: "theta_circ_fft",
}
_SCALAR_KINDS = (EdgeKind.FREE, EdgeKind.GHOST)


def _need_profile(prof):
    if prof is None:
        raise ContractError("graph references the variance kernel; profile required")
    return prof


def _need_props(props):
    if props is None:
        raise ContractError("graph references propagator kernels; PropagatorSet required")
    return props


def _check_evaluable(g: AtomicGraph):
    if g.has_labels():
        raise UnsupportedLabelError("partial expectations have no closed numerical form")
    if any(e.kind == EdgeKind.LABELED_DIFFUSIVE for e in g.edges):
        raise UnsupportedEdgeError("labeled-diffusive edges have no evaluator")


def _checked_bindings(g: AtomicGraph, n: int, bindings) -> dict:
    bindings = dict(bindings or {})
    for a in g.external_atoms:
        if a.id not in bindings:
            raise ContractError(f"external atom {a.id} is unbound")
        if not 0 <= int(bindings[a.id]) < n:
            raise ContractError(f"binding for atom {a.id} outside [0, {n})")
    return {a.id: int(bindings[a.id]) for a in g.external_atoms}


_KERNEL_KINDS = (EdgeKind.WAVED, EdgeKind.CROSS_DOTTED, *_PROPAGATOR_KERNELS)


@dataclass(frozen=True)
class _Plan:
    """An atomic graph compiled for N sites into one einsum.

    Each factor reads its atoms through refs: a subscript letter for a
    summed index (an internal atom, or a dotted class of them) or the id of
    the external atom whose binding fixes the site.  Factors whose
    subscript is empty are scalars and stay out of the einsum.  Folds run
    first and append one vector each to the factors; the einsum then reads
    the positions in ``operands``.
    """

    factors: tuple  # (kind, refs, subscript)
    tied: tuple  # external atom pairs that a dotted edge puts on one site
    n_bare: int  # summed indices that no factor reads; each contributes N
    folds: tuple  # (kernel factor, leaf end, vector positions); see _next_fold
    operands: tuple
    subscripts: str
    path: tuple
    cost: int


def _next_fold(factors, subs, live):
    """A kernel factor between two summed indices one of which, the leaf,
    no other live operand reads except as a vector over that index alone.
    Summing the leaf out is then a convolution of the kernel with the
    product of those vectors: no N x N gather.  Returns (kernel position,
    leaf end, vector positions) or None."""
    for i in live:
        if i >= len(factors):
            continue  # an earlier fold's vector
        kind, refs, sub = factors[i]
        if kind not in _KERNEL_KINDS or len(sub) != 2:
            continue
        for end, leaf in enumerate(refs):
            others = tuple(j for j in live if j != i and leaf in subs[j])
            if all(subs[j] == leaf for j in others):
                return i, end, others
    return None


def _widest_step(subs, path) -> int:
    """Most indices that one step of an einsum contraction path loops over."""
    terms = [set(s) for s in subs]
    width = 0
    for step in path[1:]:
        picked = [terms.pop(i) for i in sorted(step, reverse=True)]
        idx = set().union(*picked)
        width = max(width, len(idx))
        terms.append(idx & set().union(*terms))
    return width


@lru_cache(maxsize=256)
def _compile(g: AtomicGraph, n: int) -> _Plan:
    dsu = _DSU([a.id for a in g.atoms])
    for e in g.edges:
        if e.kind == EdgeKind.DOTTED:
            dsu.union(e.a, e.b)
    internal = {a.id for a in g.internal_atoms}
    groups = dsu.groups()
    n_summed = sum(internal.issuperset(grp) for grp in groups)
    if n_summed > len(ascii_letters):
        raise CapacityError(
            f"{n_summed} summed indices exceed the {len(ascii_letters)} einsum subscripts"
        )
    ref, tied, letters = {}, [], iter(ascii_letters)
    for grp in groups:
        ext = sorted(set(grp) - internal)
        tied += [(ext[0], x) for x in ext[1:]]
        ref.update(dict.fromkeys(grp, ext[0] if ext else next(letters)))

    factors = []
    for e in g.edges:
        if e.kind == EdgeKind.DOTTED:
            continue
        refs = () if e.kind in _SCALAR_KINDS else (ref[e.a], ref[e.b])
        factors.append((e.kind, refs))
    factors += [(w.kind, (ref[w.atom],)) for w in g.weights]
    factors = tuple(
        (kind, refs, "".join(dict.fromkeys(r for r in refs if isinstance(r, str))))
        for kind, refs in factors
    )

    subs = [sub for _, _, sub in factors]
    live = [i for i, sub in enumerate(subs) if sub]
    folds = []
    while (fold := _next_fold(factors, subs, live)) is not None:
        i, end, vecs = fold
        folds.append(fold)
        live = [j for j in live if j != i and j not in vecs] + [len(subs)]
        subs.append(factors[i][1][1 - end])
    subs_in = [subs[j] for j in live]
    subscripts = ",".join(subs_in) + "->"
    path = ()
    if subs_in:
        # greedy ordering; numpy caps intermediates at the largest operand (N^2)
        shapes = [np.broadcast_to(0.0, (n,) * len(sub)) for sub in subs_in]
        path = tuple(np.einsum_path(subscripts, *shapes, optimize="greedy")[0])
    width = max(_widest_step(subs_in, path), 1 if folds else 0)
    return _Plan(
        factors=factors,
        tied=tuple(tied),
        n_bare=n_summed - len(set("".join(subs_in))) - len(folds),
        folds=tuple(folds),
        operands=tuple(live),
        subscripts=subscripts,
        path=path,
        cost=n**width,
    )


def graph_cost(g: AtomicGraph, n: int) -> int:
    """Work bound of evaluate(g) on N = n sites: n ** (the most summed
    indices one step of its contraction loops over; a fold loops over one).

    EVAL_TERM_CAP bounds it, as it bounds N^#internal for evaluate_brute.
    A step only loops over summed indices, so the cost never exceeds
    N^#internal: every graph the oracle accepts, evaluate accepts.
    """
    _check_evaluable(g)
    return _compile(g, int(n)).cost


def _kernel_factor(lat, kern, sa, sb, same):
    """k(x_a - x_b) with each bound end fixed at its site and each summed
    end left free: a scalar, a row, a column or the full gathered matrix."""
    if same:
        return np.full(lat.N, kern.flat[0])
    if sa is None and sb is not None:
        # the column k(x - x_b) is row b of the reflected kernel k(-u)
        kern, sa, sb = lat.reflect(kern), sb, None
    out = lat.kernel_matrix(kern, rows=sa)
    return out if sb is None else out[sb]


def evaluate(g: AtomicGraph, ctx, props=None, bindings: dict | None = None) -> complex:
    """Value of an atomic graph: coefficient times the sum over all
    internal-atom site assignments of the product of edge and weight
    factors, computed as one einsum contraction.

    ``bindings`` maps every external atom id to a site index.  Factors:
    blue/red G edges give G_xy / conj(G_xy); waved edges give s_xy or the
    plus/minus kernels; diffusive edges give the centered diffusive kernel;
    free edges give 1/(N eta); ghost edges give W^2/L^2; dotted edges merge
    the two sites and cross-dotted edges give the inequality indicator
    (J - I); regular weights give G_xx (or conj), light weights G_xx - m
    (or conj).  P/Q labels and labeled-diffusive edges have no numerical
    evaluator and raise.

    A kernel edge into a summed index that only vectors also read is summed
    out by FFT convolution before the einsum.  The contraction is compiled
    once per graph and N; its cost (graph_cost) is capped at EVAL_TERM_CAP.
    evaluate_brute is the enumeration oracle it is tested against.
    """
    _check_evaluable(g)
    lat = ctx.lattice
    n = ctx.N
    bindings = _checked_bindings(g, n, bindings)
    plan = _compile(g, n)
    if plan.cost > EVAL_TERM_CAP:
        raise CapacityError(
            f"contraction cost {plan.cost} exceeds evaluation cap {EVAL_TERM_CAP}"
        )

    prof = props.profile if props is not None else ctx.profile
    for kind, _, _ in plan.factors:
        if kind in (EdgeKind.WAVED, EdgeKind.GHOST):
            _need_profile(prof)
        elif kind in _PROPAGATOR_KERNELS:
            _need_props(props)
    scale = g.coeff.resolve(ctx.m, n, ctx.eta) * n**plan.n_bare
    if any(bindings[a] != bindings[b] for a, b in plan.tied):
        return 0j
    G = ctx.G
    folded = {i for i, _, _ in plan.folds}
    vals = []
    for pos, (kind, refs, sub) in enumerate(plan.factors):
        sites = [None if isinstance(r, str) else bindings[r] for r in refs]
        same = len(sub) < sum(s is None for s in sites)  # both ends on one summed index
        if kind == EdgeKind.FREE:
            val = 1.0 / (n * ctx.eta)
        elif kind == EdgeKind.GHOST:
            val = prof.W**2 / lat.L**2
        elif kind in _G_KINDS:
            sa, sb = (slice(None) if s is None else s for s in sites)
            val = np.diagonal(G) if same else G[sa, sb]
            if kind == EdgeKind.G_RED:
                val = np.conj(val)
        elif kind in _KERNEL_KINDS:
            if kind == EdgeKind.WAVED:
                kern = prof.kernel_fft
            elif kind == EdgeKind.CROSS_DOTTED:
                # J - I is the displacement kernel 1 - delta(x, 0)
                kern = np.ones((lat.L,) * lat.d)
                kern.flat[0] = 0.0
            else:
                kern = getattr(props, _PROPAGATOR_KERNELS[kind])
            val = kern if pos in folded else _kernel_factor(lat, kern, *sites, same)
        else:
            (s,) = sites
            val = np.diagonal(G) if s is None else G[s, s]
            if kind in (WeightKind.LIGHT_BLUE, WeightKind.LIGHT_RED):
                val = val - ctx.m
            if kind in (WeightKind.REGULAR_RED, WeightKind.LIGHT_RED):
                val = np.conj(val)
        if not sub:
            scale *= complex(val)
        vals.append(val)
    for i, end, vecs in plan.folds:
        # summing the leaf end out: k(x - y) v[y] over y, or over x with k reflected
        v = np.ones(n)
        for j in vecs:
            v = v * vals[j]
        vals.append(lat.convolve(vals[i] if end else lat.reflect(vals[i]), v))
    if plan.operands:
        operands = [vals[j] for j in plan.operands]
        scale *= complex(np.einsum(plan.subscripts, *operands, optimize=list(plan.path)))
    return scale


def evaluate_brute(g: AtomicGraph, ctx, props=None, bindings: dict | None = None) -> complex:
    """Enumeration oracle for evaluate: the same sum, taken over all N^#internal
    site assignments in chunks, with every factor looked up per assignment.
    Capped at N^#internal <= EVAL_TERM_CAP."""
    _check_evaluable(g)
    lat = ctx.lattice
    n = ctx.N
    bindings = _checked_bindings(g, n, bindings)

    internals = sorted(a.id for a in g.internal_atoms)
    total = n ** len(internals)
    if total > EVAL_TERM_CAP:
        raise CapacityError(
            f"N^#internal = {total} exceeds evaluation cap {EVAL_TERM_CAP}"
        )

    prof = props.profile if props is not None else ctx.profile
    G = ctx.G
    acc = 0.0 + 0.0j
    for start in range(0, total, _EVAL_CHUNK):
        ids = np.arange(start, min(start + _EVAL_CHUNK, total), dtype=np.int64)
        sites = dict(bindings)
        for rank, atom_id in enumerate(internals):
            sites[atom_id] = (ids // (n ** (len(internals) - 1 - rank))) % n
        val = np.ones(ids.shape, dtype=complex)
        for e in g.edges:
            sa, sb = sites.get(e.a), sites.get(e.b)
            if e.kind == EdgeKind.G_BLUE:
                val = val * G[sa, sb]
            elif e.kind == EdgeKind.G_RED:
                val = val * np.conj(G[sa, sb])
            elif e.kind == EdgeKind.WAVED:
                val = val * _need_profile(prof).kernel_flat[lat.diff_flat(sa, sb)]
            elif e.kind in _PROPAGATOR_KERNELS:
                kern = getattr(_need_props(props), _PROPAGATOR_KERNELS[e.kind])
                val = val * kern.ravel()[lat.diff_flat(sa, sb)]
            elif e.kind == EdgeKind.FREE:
                val = val * (1.0 / (n * ctx.eta))
            elif e.kind == EdgeKind.GHOST:
                w_band = _need_profile(prof).W
                val = val * (w_band**2 / lat.L**2)
            elif e.kind == EdgeKind.DOTTED:
                val = val * np.asarray(sa == sb, dtype=float)
            elif e.kind == EdgeKind.CROSS_DOTTED:
                val = val * (1.0 - np.asarray(sa == sb, dtype=float))
        for w in g.weights:
            s = sites.get(w.atom)
            diag = G[s, s]
            if w.kind == WeightKind.REGULAR_BLUE:
                val = val * diag
            elif w.kind == WeightKind.REGULAR_RED:
                val = val * np.conj(diag)
            elif w.kind == WeightKind.LIGHT_BLUE:
                val = val * (diag - ctx.m)
            elif w.kind == WeightKind.LIGHT_RED:
                val = val * np.conj(diag - ctx.m)
        acc += complex(np.sum(val))
    return g.coeff.resolve(ctx.m, n, ctx.eta) * acc


def second_order_graphs(a: int, b1: int, b2: int):
    """The four non-fluctuation graphs of the second-order expansion of
    t_three(a, b1, b2): the diffusive leading term, the uniform-mode term
    (in its lattice-averaged form, with the 1/N carried by the symbolic
    coefficient), and the two order-3 source-term graphs.

    External atoms use ids 0, 1, 2; bind them with standard_bindings(a, b1,
    b2).  With those bindings the values sum, per realization, to the
    non-fluctuation part of the expansion (the second_order_terms output).
    """
    ext = (Atom(0, False), Atom(1, False), Atom(2, False))
    x = Atom(3, True)
    y = Atom(4, True)
    lead = AtomicGraph(
        ext,
        (Edge(0, 1, EdgeKind.DIFFUSIVE), Edge(1, 2, EdgeKind.G_RED)),
        coeff=Coefficient(m_pow=1),
    )
    zero_mode = AtomicGraph(
        ext + (x,),
        (Edge(3, 1, EdgeKind.G_BLUE), Edge(3, 2, EdgeKind.G_RED)),
        coeff=Coefficient(m_pow=1, mbar_pow=1, inv_neta_pow=1, eta_pow=1),
    )
    source_a = AtomicGraph(
        ext + (x, y),
        (
            Edge(0, 3, EdgeKind.DIFFUSIVE),
            Edge(3, 4, EdgeKind.WAVED),
            Edge(3, 1, EdgeKind.G_BLUE),
            Edge(3, 2, EdgeKind.G_RED),
        ),
        (Weight(4, WeightKind.LIGHT_BLUE),),
        coeff=Coefficient(m_pow=1),
    )
    source_b = AtomicGraph(
        ext + (x, y),
        (
            Edge(0, 3, EdgeKind.DIFFUSIVE),
            Edge(3, 4, EdgeKind.WAVED),
            Edge(4, 1, EdgeKind.G_BLUE),
            Edge(4, 2, EdgeKind.G_RED),
        ),
        (Weight(3, WeightKind.LIGHT_RED),),
        coeff=Coefficient(m_pow=1),
    )
    return [lead, zero_mode, source_a, source_b]


def standard_bindings(a: int, b1: int, b2: int) -> dict:
    """Bindings for the external atoms of second_order_graphs."""
    return {0: int(a), 1: int(b1), 2: int(b2)}


def _g_pair_needing_work(g: AtomicGraph):
    """First atom pair whose G edges are not yet reconciled with the
    dotted-edge bookkeeping: returns (pair, action) with action 'split'
    (no companion edge) or 'collapse' (plain dotted companion forces the
    pair equal), or (None, None)."""
    dotted = {
        e.pair(): e.kind
        for e in g.edges
        if e.kind in (EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED)
    }
    for e in g.edges:
        if e.kind in _G_KINDS:
            kind = dotted.get(e.pair())
            if kind is None:
                return e.pair(), "split"
            if kind == EdgeKind.DOTTED:
                return e.pair(), "collapse"
    return None, None


def _g_edge_to_weight(e: Edge, carrier: int) -> Weight:
    kind = WeightKind.REGULAR_BLUE if e.kind == EdgeKind.G_BLUE else WeightKind.REGULAR_RED
    return Weight(carrier, kind, e.label)


def _convert_pair_g_edges(g: AtomicGraph, pair, carrier: int, extra_edges=()):
    edges = []
    weights = list(g.weights)
    for e in g.edges:
        if e.kind in _G_KINDS and e.pair() == pair:
            weights.append(_g_edge_to_weight(e, carrier))
        else:
            edges.append(e)
    edges.extend(extra_edges)
    return replace(g, edges=tuple(edges), weights=tuple(weights))


def _merge_atoms(g: AtomicGraph, keep: int, drop: int):
    """Merge internal atom `drop` into `keep`; returns None if the merge
    contradicts a cross-dotted constraint (value zero)."""

    def m(i):
        return keep if i == drop else i

    atoms = tuple(a for a in g.atoms if a.id != drop)
    weights = [Weight(m(w.atom), w.kind, w.label) for w in g.weights]
    edges = []
    pair_constraints = {}
    for e in g.edges:
        a, b = m(e.a), m(e.b)
        if a == b:
            if e.kind in _G_KINDS:
                weights.append(_g_edge_to_weight(e, a))
                continue
            if e.kind == EdgeKind.DOTTED:
                continue  # delta_xx = 1
            if e.kind == EdgeKind.CROSS_DOTTED:
                return None  # (1 - delta_xx) = 0
            edges.append(Edge(a, b, e.kind, e.order, e.label))
            continue
        edges.append(Edge(a, b, e.kind, e.order, e.label))
    out = []
    for e in edges:
        if e.kind in (EdgeKind.DOTTED, EdgeKind.CROSS_DOTTED):
            prev = pair_constraints.get(e.pair())
            if prev is None:
                pair_constraints[e.pair()] = e.kind
                out.append(e)
            elif prev != e.kind:
                return None  # delta and (1 - delta) on the same pair
            # duplicate same-kind constraint: drop (delta^2 = delta)
        else:
            out.append(e)
    return replace(g, atoms=atoms, edges=tuple(out), weights=tuple(weights))


def dotted_normal_form(g: AtomicGraph):
    """Split every G edge lacking a dotted/cross-dotted companion into the
    distinct-sites variant (add a cross-dotted edge) plus the merged
    variant (sites forced equal, G edge becoming a regular weight).

    The returned graphs pass is_normal (given the input had no other
    defects) and their values sum to the value of the input on any
    bindings.  Graphs whose merged variant is identically zero are dropped.
    """
    queue = [g]
    out = []
    while queue:
        cur = queue.pop(0)
        pair, action = _g_pair_needing_work(cur)
        if pair is None:
            out.append(cur)
            continue
        lo, hi = pair
        lo_at, hi_at = cur.atom(lo), cur.atom(hi)
        both_internal = lo_at.internal and hi_at.internal
        if action == "split":
            queue.append(
                replace(cur, edges=cur.edges + (Edge(lo, hi, EdgeKind.CROSS_DOTTED),))
            )
        if both_internal:
            # the equal-sites variant merges the two summation indices
            merged = _merge_atoms(cur, lo, hi)
            if merged is not None:
                queue.append(merged)
        else:
            carrier = lo if not lo_at.internal else hi
            extra = () if action == "collapse" else (Edge(lo, hi, EdgeKind.DOTTED),)
            queue.append(_convert_pair_g_edges(cur, pair, carrier, extra_edges=extra))
    return out


# --- serialization -------------------------------------------------------

def _canonical_ids(g: AtomicGraph):
    ext = [a.id for a in g.atoms if not a.internal]
    inn = [a.id for a in g.atoms if a.internal]
    order = ext + inn
    return {old: new for new, old in enumerate(order)}, len(inn), len(ext)


def _kind_token(e: Edge) -> str:
    if e.kind == EdgeKind.LABELED_DIFFUSIVE:
        return f"{EdgeKind.LABELED_DIFFUSIVE.value}{e.order}"
    return e.kind.value


def _label_token(label) -> list:
    return [f"{label[0]}{label[1]}"] if label else []


def serialize_graph(g: AtomicGraph) -> str:
    """Line format: `atoms n_int n_ext`, then `edge KIND id1 id2 [P<i>|Q<i>]`,
    `weight KIND id [..]`, `coeff re im [m mbar inv_neta eta]`.

    Atom ids are canonicalized: externals first (0..n_ext-1, original
    order), then internals.  parse_graph(serialize_graph(g)) reproduces the
    canonical graph exactly.
    """
    remap, n_int, n_ext = _canonical_ids(g)
    lines = [f"atoms {n_int} {n_ext}"]
    for e in g.edges:
        lab = e.label and (e.label[0], remap[e.label[1]])
        lines.append(
            " ".join(
                ["edge", _kind_token(e), str(remap[e.a]), str(remap[e.b])]
                + _label_token(lab)
            )
        )
    for w in g.weights:
        lab = w.label and (w.label[0], remap[w.label[1]])
        lines.append(
            " ".join(["weight", w.kind.value, str(remap[w.atom])] + _label_token(lab))
        )
    c = g.coeff
    coeff_fields = [repr(float(c.value.real)), repr(float(c.value.imag))]
    if not c.is_plain:
        coeff_fields += list(
            map(str, (c.m_pow, c.mbar_pow, c.inv_neta_pow, c.eta_pow))
        )
    lines.append(" ".join(["coeff"] + coeff_fields))
    return "\n".join(lines) + "\n"


def _parse_label(tok: str):
    if tok[0] not in "PQ":
        raise ParameterError(f"bad label token {tok!r}")
    return (tok[0], int(tok[1:]))


def parse_graph(text: str) -> AtomicGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("atoms "):
        raise ParameterError("graph text must start with an 'atoms n_int n_ext' line")
    _, n_int_s, n_ext_s = lines[0].split()
    n_int, n_ext = int(n_int_s), int(n_ext_s)
    atoms = tuple(
        Atom(i, internal=(i >= n_ext)) for i in range(n_ext + n_int)
    )
    edges, weights = [], []
    coeff = Coefficient()
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "edge":
            kind_tok, a, b = parts[1], int(parts[2]), int(parts[3])
            label = _parse_label(parts[4]) if len(parts) > 4 else None
            if kind_tok.startswith(EdgeKind.LABELED_DIFFUSIVE.value) and kind_tok != EdgeKind.LABELED_DIFFUSIVE.value:
                order = int(kind_tok[len(EdgeKind.LABELED_DIFFUSIVE.value):])
                edges.append(Edge(a, b, EdgeKind.LABELED_DIFFUSIVE, order, label))
            else:
                edges.append(Edge(a, b, EdgeKind(kind_tok), None, label))
        elif parts[0] == "weight":
            label = _parse_label(parts[3]) if len(parts) > 3 else None
            weights.append(Weight(int(parts[2]), WeightKind(parts[1]), label))
        elif parts[0] == "coeff":
            value = complex(float(parts[1]), float(parts[2]))
            if len(parts) > 3:
                coeff = Coefficient(value, *map(int, parts[3:7]))
            else:
                coeff = Coefficient(value)
        else:
            raise ParameterError(f"unknown line {ln!r}")
    return AtomicGraph(atoms, tuple(edges), tuple(weights), coeff)
