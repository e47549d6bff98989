"""Lattice model of a trivial principal bundle over a flat torus.

Sites live on a periodic grid of shape (m_1, ..., m_n) with spacing
h_a = 1/m_a along axis a. The tangent model at every site is R^n + g with
the fiber direction kept algebraic: a connection sample assigns an algebra
vector to each site and base axis, and the connection form acts as
omega(u, X) = sum_a u_a * omega_a(site) + X.

Every exact per-site diagnostic depends only on the site's (lam, omega)
value, so the bundle groups its sites into classes of equal value and keeps
one site operator per class: the integer (n + dim g) x dim g matrix of
omega and the dual value lam as a column. Beside it, and only when a
diagnostic asks for it, it keeps the constraint distribution
D = ker <lam, omega(.)> of each class as the rows of an integer kernel
(none where lam = 0). Each diagnostic reads those tables:

* transversality: the unit fiber rows V clear the fiber columns of D, so
  rank [D; V] = dim g + the rank of D's block on the n base columns. For
  fiber dimension > 1 the kernel arithmetic forces dim(D & V) > 0; the
  report states that measurement next to the claim it audits.
* the flatness residual: central differences of the dual field plus the
  coadjoint term ad*_{omega_a} lam, which is minus the base rows of omega
  times the integer contraction of the structure constants with lam. Every
  coefficient is an integer numerator over one denominator, so its maximum
  and the first energy are one Fraction each.
* the second energy: the distance from lam to the annihilator of
  omega(D). It is 0 iff lam annihilates omega(D), which one integer product
  tests exactly; only a value that fails the test is projected by the
  normal equations.

The fields are read-only, so the tables and the flatness report are built
once per bundle. The sampled fiber-action law is the one float diagnostic,
summed in the same order as a plain index loop, once per distinct step.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from types import MappingProxyType

from .errors import DegenerateInputError, FormatError, MismatchError
from .liealg import coadjoint_matrix
from .linalg import (
    ZERO,
    ONE,
    OperatorMatrix,
    common_denominator,
    format_scalar,
    literal_parser,
    parse_int,
)
from .records import FrozenRecord, Record


class GridBundle(FrozenRecord):
    # shape: sites per axis; omega: site -> tuple of AlgebraVector, one per
    # axis (read-only); lam_field: site -> DualVector (read-only).
    # No __slots__: the cached tables live in the instance __dict__.
    _fields = ("shape", "algebra", "omega", "lam_field")

    @property
    def n_axes(self):
        return len(self.shape)

    def sites(self):
        return list(itertools.product(*(range(m) for m in self.shape)))

    def cell_volume(self):
        vol = ONE
        for m in self.shape:
            vol /= m
        return vol

    def shift(self, site, axis, step):
        out = list(site)
        out[axis] = (out[axis] + step) % self.shape[axis]
        return tuple(out)

    @cached_property
    def _site_classes(self):
        """(cls, reps): cls maps each site, in grid order, to the number of its
        distinct (lam, omega) value (keyed on the raw coefficients, hashed once
        per site), and reps[c] is the first site with value c."""
        keys = {}
        cls = {}
        reps = []
        for site in self.sites():
            key = (self.lam_field[site].coeffs, tuple(v.coeffs for v in self.omega[site]))
            c = cls[site] = keys.setdefault(key, len(keys))
            if c == len(reps):
                reps.append(site)
        return cls, reps

    @cached_property
    def _operators(self):
        """One (omega, lam) per site class, in class order: omega is the
        integer matrix of omega(u, X) = sum_a u_a omega_a + X acting on row
        vectors (the omega_a rows over their lcm denominator, then the
        identity), and lam the dual value as a column."""
        n, dim = self.n_axes, self.algebra.dim
        out = []
        for site in self._site_classes[1]:
            w, ints = common_denominator(c for z in self.omega[site] for c in z.coeffs)
            nums = {divmod(k, dim): v for k, v in enumerate(ints) if v}
            nums.update(((n + r, r), w) for r in range(dim))
            omega = OperatorMatrix.from_numerators(n + dim, dim, w, nums)
            lam = OperatorMatrix(dim, 1, {(r, 0): v for r, v in enumerate(self.lam_field[site].coeffs)})
            out.append((omega, lam))
        return out

    @cached_property
    def _constraints(self):
        """The constraint column omega @ lam per site class, in class order:
        <lam, omega(v)> is v times it, for the kernel and the second energy."""
        return [omega @ lam for omega, lam in self._operators]

    @cached_property
    def _kernels(self):
        """The rows of the constraint kernel ker <lam, omega(.)> per site
        class, in class order, or None where lam = 0."""
        return [None if lam.is_zero() else column.transpose().kernel()
                for (_, lam), column in zip(self._operators, self._constraints)]

    @cached_property
    def _cartan(self):
        return _cartan_report(self)


def grid_bundle(shape, algebra, omega=None, lam_field=None):
    """Build a bundle from constant or per-site data.

    omega: None (flat), a sequence of per-axis coefficient lists applied at
    every site, or a {site: per-axis vectors} mapping. lam_field: a single
    coefficient list applied at every site, or a {site: coefficients} map.
    """
    shape = tuple(int(m) for m in shape)
    if not shape or any(m < 1 for m in shape):
        raise FormatError("grid shape needs positive extents")
    sites = list(itertools.product(*(range(m) for m in shape)))
    n = len(shape)
    flat = (algebra.zero_vector(),) * n

    def as_vector(coeffs):
        return algebra.vector(coeffs) if not hasattr(coeffs, "algebra") else coeffs

    if omega is None:
        omega_map = {site: flat for site in sites}
    elif isinstance(omega, dict):
        omega_map = {}
        for site in sites:
            vecs = omega.get(tuple(site))
            if vecs is None:
                omega_map[site] = flat
            else:
                if len(vecs) != n:
                    raise MismatchError("need one connection sample per axis")
                omega_map[site] = tuple(as_vector(v) for v in vecs)
    else:
        if len(omega) != n:
            raise MismatchError("need one connection sample per axis")
        const = tuple(as_vector(v) for v in omega)
        omega_map = {site: const for site in sites}

    if lam_field is None:
        raise FormatError("a dual field is required")
    if isinstance(lam_field, dict):
        lam_map = {}
        for site in sites:
            coeffs = lam_field.get(tuple(site))
            if coeffs is None:
                raise FormatError(f"missing dual value at site {site}")
            lam_map[site] = coeffs if hasattr(coeffs, "algebra") else algebra.dual(coeffs)
    else:
        const = lam_field if hasattr(lam_field, "algebra") else algebra.dual(lam_field)
        lam_map = {site: const for site in sites}
    return GridBundle(shape, algebra, MappingProxyType(omega_map), MappingProxyType(lam_map))


def _kernel(bundle, site):
    """The constraint kernel of the site's class; a degenerate value raises."""
    kernel = bundle._kernels[bundle._site_classes[0][site]]
    if kernel is None:
        raise DegenerateInputError(f"degenerate dual value at site {site}")
    return kernel


def constraint_distribution(bundle, site):
    """Canonical exact kernel basis of the constraint functional
    v = (u, X) -> <lam(site), omega(v)> at a site, as tuples of Fractions."""
    return [tuple(row) for row in _kernel(bundle, site).to_dense()]


class TransversalityReport(Record):
    # per_site: site -> (dim D, dim D&V, dim D+V)
    __slots__ = _fields = ("per_site", "tangent_dim", "fiber_dim", "zero_intersection",
                           "full_sum", "degenerate_sites")

    def to_json(self):
        return {
            "per_site": {
                ",".join(map(str, site)): list(v) for site, v in sorted(self.per_site.items())
            },
            "tangent_dim": self.tangent_dim,
            "fiber_dim": self.fiber_dim,
            "zero_intersection": self.zero_intersection,
            "full_sum": self.full_sum,
            "degenerate_sites": [list(s) for s in self.degenerate_sites],
        }


def transversality_report(bundle):
    """Exact per-site subspace arithmetic for D against the fiber directions."""
    n = bundle.n_axes
    dim_g = bundle.algebra.dim
    tangent = n + dim_g
    cls, _ = bundle._site_classes
    kernels = bundle._kernels
    degenerate = [site for site, c in cls.items() if kernels[c] is None]
    if degenerate:
        raise DegenerateInputError(
            f"degenerate dual value at sites {degenerate[:4]}"
            + ("..." if len(degenerate) > 4 else "")
        )
    dims = []
    for dist in kernels:
        # the unit fiber rows V clear the fiber columns of D's rows, so
        # rank [D; V] = dim g + the rank of D's block on the n base columns
        k = dist.rows
        base = {key: v for key, v in dist.nums.items() if key[1] < n}
        dim_sum = dim_g + OperatorMatrix.from_numerators(k, n, 1, base).rank()
        dims.append((k, k + dim_g - dim_sum, dim_sum))
    per_site = {site: dims[c] for site, c in cls.items()}
    zero_intersection = all(dim_int == 0 for _, dim_int, _ in dims)
    full_sum = all(dim_sum == tangent for _, _, dim_sum in dims)
    return TransversalityReport(
        per_site, tangent, dim_g, zero_intersection, full_sum, [],
    )


class CartanResidualReport(Record):
    # nums: (site, axis) -> integer numerators of the residual coefficients,
    # every one over den. No __slots__: the cached views live in __dict__.
    _fields = ("den", "nums")

    @cached_property
    def field(self):
        """(site, axis) -> residual coefficients (dual coordinates)."""
        return {key: tuple(Fraction(v, self.den) for v in row) for key, row in self.nums.items()}

    @cached_property
    def max_abs(self):
        worst = max(map(abs, itertools.chain.from_iterable(self.nums.values())), default=0)
        return Fraction(worst, self.den)

    def squared_norm(self):
        """Sum of the squares of every residual coefficient."""
        return Fraction(sum(sum(map(mul, row, row)) for row in self.nums.values()),
                        self.den * self.den)

    def to_json(self):
        return {
            "max_abs": str(self.max_abs),
            "field": [
                [list(site), axis, [format_scalar(v) for v in coeffs]]
                for (site, axis), coeffs in sorted(self.field.items())
            ],
        }


def cartan_residual(bundle):
    """Central-difference flatness residual of the dual field.

    Per site and axis a: (lam(site+a) - lam(site-a)) / (2 h_a)
    + ad*_{omega_a(site)} lam(site). Exact for constant fields. Computed once
    per bundle; later calls return the same report.
    """
    return bundle._cartan


def _cartan_report(bundle):
    for m in bundle.shape:
        if m < 3:
            raise MismatchError("central differences need at least 3 sites per axis")
    cls, reps = bundle._site_classes
    n = bundle.n_axes
    dim = bundle.algebra.dim
    c_den, nz = bundle.algebra.integer_structure
    # the dual field as integers over one denominator L, once per site class
    big_l, flat = common_denominator(c for rep in reps for c in bundle.lam_field[rep].coeffs)
    lam = [flat[k * dim:(k + 1) * dim] for k in range(len(reps))]
    # (ad*_z xi)_j = -sum_b z_b M[b][j] / c_den with M[b][j] = sum_i c_bj^i xi_i,
    # so the base rows of a class's omega (over its den w) give every axis's
    # term at once; each is written over D = 2 L S with S = c_den * lcm of the w
    big_s = c_den * lcm(*(omega.den for omega, _ in bundle._operators))
    coad = []
    for (omega, _), xi in zip(bundle._operators, lam):
        terms = [[0] * dim for _ in range(n)]
        base = [(a, b, v) for (a, b), v in omega.nums.items() if a < n]
        if base:
            mat = [[sum(v * xi[i] for i, v in consts) for consts in row] for row in nz]
            f = -2 * (big_s // (c_den * omega.den))
            for a, b, v in base:
                terms[a] = [t + f * v * x for t, x in zip(terms[a], mat[b])]
        coad.append(terms)
    lam_at = {site: lam[c] for site, c in cls.items()}
    # (lam(site+a) - lam(site-a)) / (2 h_a) = m_a S (plus - minus) / D
    step = [m * big_s for m in bundle.shape]
    nums = {}
    for site, c in cls.items():
        for a in range(n):
            plus = lam_at[bundle.shift(site, a, 1)]
            minus = lam_at[bundle.shift(site, a, -1)]
            k = step[a]
            nums[(site, a)] = tuple(k * (p - q) + x for p, q, x in zip(plus, minus, coad[c][a]))
    return CartanResidualReport(2 * big_l * big_s, nums)


def equivariance_residual(bundle, order=8, steps=(0.1, 0.2)):
    """Group-law consistency of the truncated equivariant transport (float).

    For each basis generator and step t the dual field is transported by the
    coadjoint exponential in one step of size t and in two steps of t/2; the
    residual is the max coefficient deviation. Zero steps and abelian fibers
    give exactly zero; otherwise the defect is the series truncation error.
    Each transport is applied once per distinct dual value.
    """
    if order < 4:
        raise MismatchError("series order must be >= 4")
    alg = bundle.algebra
    dim = alg.dim
    distinct = {bundle.lam_field[site].coeffs: None for site in bundle._site_classes[1]}
    lams = [[float(c) for c in coeffs] for coeffs in distinct]

    # Every entry is one builtin sum of the products a[i][k] * b[k][j] in
    # order of k, so the float result does not depend on how it is looped.
    def mat_mul(a, b):
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]

    def expm(cols, t):
        """Truncated exponential of t * gen, from the columns of gen."""
        out = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
        term = out
        for p in range(1, order + 1):
            term = [[sum(map(mul, row, col)) * t / p for col in cols] for row in term]
            out = [[o + x for o, x in zip(orow, trow)] for orow, trow in zip(out, term)]
        return out

    worst = 0.0
    for i in range(dim):
        gen = [[float(v) for v in row]
               for row in coadjoint_matrix(alg.basis_vector(i)).to_dense()]
        cols = list(zip(*gen))
        series = {}  # one truncated exponential per distinct step value
        for t in steps:
            for u in (t, t / 2):
                if u not in series:
                    series[u] = expm(cols, u)
            half = series[t / 2]
            rows = list(zip(series[t], mat_mul(half, half)))
            for lam in lams:
                for one, two in rows:
                    d = abs(sum(map(mul, one, lam)) - sum(map(mul, two, lam)))
                    if d > worst:
                        worst = d
    return worst


def compatibility_functional_terms(bundle, dist_target=None):
    """The two lattice energies of the compatibility functional (evaluated, not minimized).

    First term: half the volume-weighted sum of squared flatness residuals.
    Second term: volume-weighted squared distance from the dual value to the
    annihilator of omega(D) at each site, with D the supplied per-site bases
    (dist_target: site -> vectors of length n + dim g; defaults to the
    constraint kernel itself). Distances use the dual-coordinate Euclidean
    norm. Each distance first tests exactly whether the dual value
    annihilates omega(D), which proves a distance of 0; only a value that
    fails the test is projected by the normal equations. On the default
    target the test holds at every site, so no system is solved.
    """
    vol = bundle.cell_volume()
    first = cartan_residual(bundle).squared_norm() * vol / 2

    cls, reps = bundle._site_classes
    if dist_target is None:
        # the default target is the constraint kernel: one distance per site class
        per_class = [_annihilator_distance_sq(bundle, c, _kernel(bundle, rep))
                     for c, rep in enumerate(reps)]
        dists = [per_class[c] for c in cls.values()]
    else:
        tangent = bundle.n_axes + bundle.algebra.dim
        dists = []
        for site, c in cls.items():
            try:
                vecs = dist_target[site]
            except KeyError:
                raise MismatchError(f"distribution target has no basis at site {site}") from None
            if any(len(vec) != tangent for vec in vecs):
                raise MismatchError(
                    f"distribution target at site {site}: every vector needs "
                    f"{tangent} coordinates (n + dim g)")
            basis = OperatorMatrix(len(vecs), tangent, {
                (i, j): v for i, vec in enumerate(vecs) for j, v in enumerate(vec)})
            dists.append(_annihilator_distance_sq(bundle, c, basis))
    second = vol * sum(dists, ZERO)
    return first, second


def _annihilator_distance_sq(bundle, c, basis):
    """Squared distance from the dual value lam (a column) of site class c to
    the annihilator of omega(row span of the matrix basis)."""
    omega, lam = bundle._operators[c]
    # the distance to a subspace is 0 iff lam lies in it: here iff
    # <lam, omega(v)> = 0 for every row v of basis
    if (basis @ bundle._constraints[c]).is_zero():
        return ZERO
    # rows of ann: a basis of the annihilator of omega(span basis) in the dual
    ann = (basis @ omega).kernel()
    # orthogonal projection of lam onto the row span of ann: normal equations
    coef = (ann @ ann.transpose()).solve(ann @ lam)
    diff = lam - ann.transpose() @ coef
    return (diff.transpose() @ diff).get(0, 0)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def bundle_to_json(bundle):
    return {
        "grid": list(bundle.shape),
        "algebra": bundle.algebra.name,
        "omega_base": [
            [list(site), a, [format_scalar(v) for v in vec.coeffs]]
            for site in bundle.sites()
            for a, vec in enumerate(bundle.omega[site])
            if not vec.is_zero()
        ],
        "lambda_field": [
            [list(site), [format_scalar(v) for v in bundle.lam_field[site].coeffs]]
            for site in bundle.sites()
        ],
    }


def _list(value, what):
    """value, checked to be a list: a string or a number is not split up."""
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {value!r}")
    return value


def _coefficients(value, what, parse):
    return [parse(v) for v in _list(value, what)]


def _site_row(item, width, shape, what, parse):
    """Parse a site-resolved row [site, ..., coeffs] after checking its shape;
    parse reads each coefficient."""
    if not isinstance(item, (list, tuple)) or len(item) != width:
        raise FormatError(f"{what} row {item!r} must have {width} fields")
    site, *rest, coeffs = item
    site = tuple(parse_int(s, f"{what} row site") for s in _list(site, f"{what} row site"))
    rest = [parse_int(x, f"{what} row axis") for x in rest]
    coeffs = _coefficients(coeffs, f"{what} row coefficients", parse)
    if len(site) != len(shape) or not all(0 <= s < m for s, m in zip(site, shape)):
        raise FormatError(f"{what} row {item!r}: site is not on the {shape} grid")
    return (site, *rest, coeffs)


def bundle_from_json(data, algebra):
    try:
        shape = tuple(parse_int(m, "grid extent") for m in _list(data["grid"], "grid"))
    except (KeyError, TypeError) as exc:
        raise FormatError("bundle JSON needs a grid field") from exc
    n = len(shape)
    flat = (algebra.zero_vector(),) * n
    # the fields repeat few literals: each distinct one is parsed once
    parse = literal_parser()

    omega_raw = data.get("omega_base")
    if omega_raw is None:
        omega = None
    elif isinstance(omega_raw, dict):
        if "constant" not in omega_raw:
            raise FormatError("omega_base shorthand must use a 'constant' key")
        omega = [
            algebra.vector(_coefficients(coeffs, "omega_base constant row", parse))
            for coeffs in _list(omega_raw["constant"], "omega_base constant")
        ]
    else:
        omega = {}
        seen = set()
        for item in _list(omega_raw, "omega_base"):
            site, a, coeffs = _site_row(item, 3, shape, "omega_base", parse)
            if not 0 <= a < n:
                raise FormatError(f"omega_base row {item!r}: axis must be in 0..{n - 1}")
            if (site, a) in seen:
                raise FormatError(f"omega_base has two rows for site {site}, axis {a}")
            seen.add((site, a))
            vecs = list(omega.get(site) or flat)
            vecs[a] = algebra.vector(coeffs)
            omega[site] = tuple(vecs)

    lam_raw = data.get("lambda_field")
    if lam_raw is None:
        raise FormatError("bundle JSON needs a lambda_field")
    if isinstance(lam_raw, dict):
        if "constant" not in lam_raw:
            raise FormatError("lambda_field shorthand must use a 'constant' key")
        lam_field = _coefficients(lam_raw["constant"], "lambda_field constant", parse)
    else:
        lam_field = {}
        for item in _list(lam_raw, "lambda_field"):
            site, coeffs = _site_row(item, 2, shape, "lambda_field", parse)
            if site in lam_field:
                raise FormatError(f"lambda_field has two rows for site {site}")
            lam_field[site] = algebra.dual(coeffs)
    return grid_bundle(shape, algebra, omega, lam_field)
