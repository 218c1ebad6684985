"""Gain function, canonical scaling, and the certifying quadratic form.

At a primitive ridge exactly three tiling facets meet; their normals
span a 2-plane and carry a unique (up to scale) linear dependence
a1*n1 + a2*n2 + a3*n3 = 0. The gain from facet i to facet j across the
ridge is |a_j / a_i|: any positive facet weighting that makes weighted
normals around every ridge sum to zero must multiply by exactly this
factor when traveling i -> j. Weights compatible with all gains exist
iff the product of gains around every closed walk in the ridge graph
(facets as nodes, primitive ridges as edges) equals 1; the walk check
over a spanning tree covers the whole cycle space. A walk is its facet
sequence: two facets meet in at most one ridge. The graph is the
parallelohedron's own: its gains are one table keyed by primitive ridge
id and oriented from `ridge_facets[r][0]` to `ridge_facets[r][1]`, like
the 1-cells of the surface complex (`topology._DualComplex`).

Once a canonical scaling s exists, a symmetric G with
G t_F = c * s(F) * n_F for all facets makes every facet hyperplane the
G-bisector of 0 and t_F, i.e. turns the polytope into the Voronoi cell
of its own center lattice under G. The recovery here solves that linear
system exactly and tests one candidate for positive definiteness: the
sum of the solution basis. When the basis has one vector per merged
scaling component, as on every input so far, the sum sets every
component factor to 1. It then *independently* proves P = Vor_G(L)
with exact inequalities (`voronoi_mismatch`): every facet is the
G-bisector of its facet vector (so Vor is inside P), and every relevant
vector of (L, G) is a facet vector (so P is inside Vor). A failure is a
"dv-mismatch" carrying the offending facet, or a relevant vector and
the first vertex it cuts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import linalg
from .errors import GeometryError
from .lattice import Lattice, relevant_vectors
from .linalg import Mat, Vec
from .parallelohedron import Parallelohedron


def build_ridge_graph(para: Parallelohedron) -> dict[int, Fraction]:
    """The gain of every primitive ridge r, from facet
    `para.ridge_facets[r][0]` to facet `para.ridge_facets[r][1]`.

    Each primitive ridge lies in one 6-belt, whose facets are F0, F1, F2
    and their opposites F3, F4, F5, so its normals are n0, n1, n2 and
    their negatives. At the ridge between F_i and F_(i+1) the three
    tiling facets are F_i, F_(i+1), F_(i+2); one dependence
    a0 n0 + a1 n1 + a2 n2 = 0 therefore serves all six ridges, and the
    gain from F_i to F_(i+1) is |a_(i+1) / a_i| with indices mod 3. Each
    ridge still checks t_i - t_(i+1) = +-t_(i+2) on its facet vectors.
    """
    _, _, normals, _, _ = para.polytope.integer_form
    vectors, _ = para.facet_vector_rows
    gains = {}
    for belt in para.belts:
        if belt.length != 6:
            continue
        f = belt.facets
        if any(para.opposite_facet[f[i]] != f[i + 3] for i in range(3)):
            raise GeometryError("a 6-belt does not end in the opposites of "
                                "its first three facets")
        kernel = linalg.int_kernel([list(col) for col in zip(
            *(normals[fi] for fi in f[:3]))])
        if len(kernel) != 1:
            raise GeometryError(
                "normals at the ridge do not have a unique linear dependence"
            )
        alpha = kernel[0]
        if not all(alpha):
            raise GeometryError("degenerate dependence at a primitive ridge")
        for i, rid in enumerate(belt.ridges):
            t1, t2, t3 = (vectors[f[(i + k) % 6]] for k in range(3))
            diff = [x - y for x, y in zip(t1, t2)]
            if diff != t3 and diff != [-x for x in t3]:
                raise GeometryError(
                    "belt successor does not carry the neighbor-difference "
                    "direction"
                )
            gain = Fraction(abs(alpha[(i + 1) % 3]), abs(alpha[i % 3]))
            gains[rid] = gain if para.ridge_facets[rid][0] == f[i] else 1 / gain
    return dict(sorted(gains.items()))


def _tree_path(parent, f) -> tuple[int, ...]:
    """The facets from a component's base facet to f along spanning-tree
    edges."""
    path = [f]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def canonical_scaling(para: Parallelohedron, gains: dict[int, Fraction]):
    """Construct facet weights from the gains: the report's `scaling`
    block and None, or None and a witness.

    The block holds positive facet weights satisfying every gain
    constraint ("values"), the base facet of each ridge-graph component
    ("base_facets") and per facet the label of its merged component, its
    pi-surface component ("components"). Per component: the facet with
    the lexicographically least canonical normal gets weight 1; weights
    propagate along a spanning tree; every non-tree edge is checked
    exactly, and the first that fails gives a "cycle" witness: the
    closed facet walk ("facets") and its gain product ("gain"). A
    component whose opposite is another component rescales that one to
    match, which cannot break any gain; then every facet must agree with
    its opposite, and the first that does not gives an "opposite-facet"
    witness: the pair ("facet_pair"), its ratio, and the facet walk
    between them when they share a component. The merged components are
    labelled by least facet.
    """
    p = para.polytope
    n = p.n_facets
    delta, pi, opp = para.delta_roots, para.pi_roots, para.opposite_facet
    # per facet (neighbour, gain to it), by neighbour
    neighbors: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for rid, gain in gains.items():
        a, b = para.ridge_facets[rid]
        neighbors[a].append((b, gain))
        neighbors[b].append((a, 1 / gain))
    for ns in neighbors:
        ns.sort()
    values: list[Fraction | None] = [None] * n
    parent: list[int | None] = [None] * n
    base_facets = []
    for root in sorted(set(delta)):
        members = [f for f in range(n) if delta[f] == root]
        base = min(members, key=lambda f: p.facet_normals[f])
        base_facets.append(base)
        values[base] = Fraction(1)
        queue = [base]
        while queue:
            f = queue.pop(0)
            for g, gain in neighbors[f]:
                if values[g] is None:
                    values[g] = values[f] * gain
                    parent[g] = f
                    queue.append(g)
                elif values[g] != values[f] * gain:
                    # values[f] and values[g] are the tree products from
                    # the base, so this is the product around the cycle
                    cycle = _tree_path(parent, f) + _tree_path(parent, g)[::-1]
                    return None, {"kind": "cycle", "facets": cycle,
                                  "gain": values[f] * gain / values[g]}
    # the antipode maps each delta component onto one; where that is
    # another, the least facet of their pi component rescales its image
    factor = {f: values[f] / values[opp[f]] for f in set(pi)
              if delta[opp[f]] != delta[f]}
    values = [v if delta[f] == delta[pi[f]] else v * factor[pi[f]]
              for f, v in enumerate(values)]
    for f, g in enumerate(opp):
        if values[f] != values[g]:
            witness = {"kind": "opposite-facet", "facet_pair": (f, g),
                       "gain": values[g] / values[f]}
            if delta[f] == delta[g]:
                witness["facets"] = (_tree_path(parent, f)[::-1]
                                     + _tree_path(parent, g)[1:])
            return None, witness
    label = {r: i for i, r in enumerate(sorted(set(pi)))}
    return {"values": tuple(values), "base_facets": tuple(base_facets),
            "components": tuple(label[r] for r in pi)}, None


def voronoi_mismatch(para: Parallelohedron, gram: Mat) -> dict | None:
    """None iff the polytope is the Voronoi cell of its center lattice
    under the positive definite `gram`; otherwise the witness: a "facet"
    that is not the G-bisector of its facet vector, or a lattice vector
    whose bisector "cut"s off a vertex.

    Vor is inside P when every facet <n_F, x> <= b_F is the G-bisector
    of its facet vector t_F: G t_F = lam * n_F with lam > 0 and
    |t_F|^2 = 2 * lam * b_F. Vor is the meet of the bisector halfspaces
    H(v) of the relevant vectors v of (L, G), those whose class in L/2L
    has +-v as its only least vectors (Voronoi 1908; Conway & Sloane,
    ch. 21). So if every relevant vector is a facet vector, P, the meet
    of the H(t_F), lies inside Vor, and P = Vor. If a relevant v is not,
    a point in the relative interior of v's facet of Vor has 0 and v as
    its only nearest lattice points, so it lies strictly inside every
    H(t_F), and points just across v's bisector lie in P but not in
    H(v): v cuts a vertex. A vertex is cut by a lattice vector exactly
    when a relevant one cuts it, and no facet vector does once the
    bisector check passes, so a sweep of the vertices, in order, against
    the relevant vectors that are not facet vectors finds the first
    vertex any lattice vector cuts. Both checks compare integer rows.
    """
    p = para.polytope
    gints, _ = linalg.integer_rows(gram)

    def form(y):
        gy = [sum(map(mul, row, y)) for row in gints]
        return gy, sum(map(mul, y, gy))

    # with T = ts t, GT = gs ts G t and (N, B) = (ns n, ns xs b) from
    # `integer_form`: G t = lam n, lam > 0  iff  GT = mu N, mu > 0, and
    # then <t, G t> = 2 lam b  iff  <T, GT> N_k xs = 2 ts GT_k B at N_k != 0
    xints, xs, normals, _, offsets = p.integer_form
    tints, ts = para.facet_vector_rows
    for fi, (t, n, b) in enumerate(zip(tints, normals, offsets)):
        gt, tgt = form(t)
        k = next(i for i, x in enumerate(n) if x != 0)
        if (gt[k] * n[k] <= 0
                or any(g * n[k] != x * gt[k] for g, x in zip(gt, n))
                or tgt * n[k] * xs != 2 * ts * gt[k] * b):
            return {"kind": "facet", "facet": fi}
    facet_vectors = set(para.facet_vectors)
    extra = [v for v in relevant_vectors(Lattice(para.lattice.basis, gram))
             if v not in facet_vectors]
    # on integer rows X, V = vs v and GV = gs G V:
    # 2 <x, Gv> > <v, Gv>  iff  2 vs <X, GV> > xs <V, GV>
    vints, vs = linalg.integer_rows(extra)
    cuts = []
    for v in vints:
        gv, vgv = form(v)
        cuts.append(([2 * vs * a for a in gv], xs * vgv))
    for x, xi in zip(p.vertices, xints):
        for v, (gv2, cap) in zip(extra, cuts):
            if sum(map(mul, xi, gv2)) > cap:
                return {"kind": "cut", "lattice_vector": v, "vertex": x}
    return None


def voronoi_form(para: Parallelohedron, scaling: dict) -> dict:
    """Recover a certifying metric from a canonical scaling block and
    verify it; return the report's `certificate` block.

    Solves G t_F = c_k(F) * s(F) * n_F over symmetric G and one positive
    factor per merged scaling component and takes the sum of the
    solution basis; "form-not-pd", with that basis ("solution_basis") as
    its witness, means the sum has a factor c_k <= 0 or a G that is not
    positive definite, and no basis at all is "scaling-fails". Otherwise
    it proves P = Vor_G(L) for the center lattice L with
    `voronoi_mismatch`: each facet is the G-bisector of its facet vector,
    and every relevant vector of (L, G) is a facet vector. The block
    then holds the form ("gram") and the component
    factors, and "certified", or "dv-mismatch" with the failed check as
    its "witness".
    """
    p = para.polytope
    d = p.dim
    # the unknowns: G's upper triangle, then one factor per group
    upper = {ij: k for k, ij in enumerate(
        (i, j) for i in range(d) for j in range(i, d))}
    n_upper = len(upper)
    values, groups = scaling["values"], scaling["components"]
    n_groups = len(set(groups))

    def sym(u: Vec) -> Mat:
        return tuple(tuple(u[upper[min(i, j), max(i, j)]] for j in range(d))
                     for i in range(d))

    # on integer rows T = ts t and N = ns n, the equations of facet F
    # times ts ns den(s(F)) > 0; its opposite has t and n negated and,
    # once scaled, the same s and k, so one block serves the pair
    tints, ts = para.facet_vector_rows
    _, _, normals, ns, _ = p.integer_form
    rows = []
    for fi, fo in enumerate(para.opposite_facet):
        if fo < fi:
            continue
        s, k = values[fi], groups[fi]
        if (s, k) != (values[fo], groups[fo]):
            raise GeometryError(f"opposite facets {fi} and {fo} differ in "
                                "scaling value or group")
        t = [ns * s.denominator * x for x in tints[fi]]
        for r in range(d):
            row = [0] * (n_upper + n_groups)
            for j in range(d):
                row[upper[min(r, j), max(r, j)]] += t[j]
            row[n_upper + k] = -ts * s.numerator * normals[fi][r]
            rows.append(row)
    # the kernel, each vector primitive with a positive leading entry
    basis = []
    for v in linalg.int_kernel(rows):
        v = linalg.primitive(v)
        basis.append(v if next(filter(None, v)) > 0 else tuple(-x for x in v))
    if not basis:
        return {"verdict": "scaling-fails"}
    u = tuple(map(sum, zip(*basis)))
    if (any(c <= 0 for c in u[n_upper:])
            or not linalg.is_positive_definite(sym(u))):
        return {"verdict": "form-not-pd",
                "solution_basis": tuple(map(linalg.vec, basis))}
    u = linalg.vec(linalg.primitive(u))
    gram = sym(u)
    cert = {"verdict": "certified", "gram": gram,
            "component_factors": u[n_upper:]}
    # `gram` is positive definite, as tested above
    mismatch = voronoi_mismatch(para, gram)
    if mismatch is not None:
        cert.update(verdict="dv-mismatch", witness=mismatch)
    return cert


def certify(para: Parallelohedron) -> tuple[dict | None, dict]:
    """Ridge gains -> scaling -> quadratic form -> verification: the
    report's `scaling` block (None when there is no scaling) and its
    `certificate` block."""
    scaling, witness = canonical_scaling(para, build_ridge_graph(para))
    if witness is not None:
        return None, {"verdict": "scaling-fails", "witness": witness}
    return scaling, voronoi_form(para, scaling)
