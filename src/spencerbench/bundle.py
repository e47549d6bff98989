"""Lattice model of a trivial principal bundle over a flat torus.

Sites live on a periodic grid of shape (m_1, ..., m_n) with spacing
h_a = 1/m_a along axis a. The tangent model at every site is R^n + g with
the fiber direction kept algebraic: a connection sample assigns an algebra
vector to each site and base axis, and the connection form acts as
omega(u, X) = sum_a u_a * omega_a(site) + X.

Every exact per-site diagnostic depends only on the site's (lam, omega)
value, so the bundle groups its sites into classes of equal value and keeps
one site operator per class: the integer (n + dim g) x dim g matrix of
omega and the dual value lam as a column. Each diagnostic reads that table:

* transversality and the default second energy: wherever lam != 0,
  D = ker <lam, omega(.)> = H + ker lam with H = ker omega (Kobayashi &
  Nomizu I, ch. II). The constraint restricts to the fiber directions V as
  lam, so D & V = ker lam and D + V is everything: every site reads
  (n + dim g - 1, dim g - 1, n + dim g), and lam annihilates omega(D). Only
  lam != 0 is read off the field, once per class.
* the flatness residual: central differences of the dual field plus the
  coadjoint term ad*_{omega_a} lam, which is minus the base rows of omega
  times the integer contraction of the structure constants with lam. Every
  coefficient is an integer numerator over one denominator, so its maximum
  and the first energy are one Fraction each.
* the second energy of an explicit target: the distance from lam to the
  annihilator of omega(target), 0 iff one integer product of the target
  with the class's constraint column omega @ lam vanishes; only a value
  that fails is projected by the normal equations.

The fields are read-only, so the tables and the flatness report are built
once per bundle. The flatness report is computed as integer columns over the
site classes and read per site through the classes of its two neighbours
on each axis.

The sampled fiber-action law is the one float diagnostic. Each series row
is applied to every distinct dual value at once, one coordinate column at
a time, and every float entry adds its products with + in ascending index
order, never with builtin sum (compensated since Python 3.12), so it prints
the same float on every interpreter. Products with an exactly zero factor
are skipped; that changes at most the sign of a zero partial sum, which the
residual's |a - b| and its max erase.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, attrgetter, mul, sub, truediv
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
    parse_list,
)
from .records import FrozenRecord, Record


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


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
        distinct (lam, omega) value, and reps[c] is the first site with value
        c. A site's key is the numerators and then the denominators of its
        coefficients, hashed as integers: Fraction.__hash__ computes a
        modular inverse per coefficient."""
        keys = {}
        cls = {}
        reps = []
        lam, omega = self.lam_field, self.omega
        for site in self.sites():
            coeffs = [*lam[site].coeffs, *itertools.chain.from_iterable(
                v.coeffs for v in omega[site])]
            key = (*map(_numerator, coeffs), *map(_denominator, coeffs))
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
        <lam, omega(v)> is v times it, for kernels and explicit targets."""
        return [omega @ lam for omega, lam in self._operators]

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


def _check_nondegenerate(bundle):
    """Raise DegenerateInputError naming the first four sites where lam = 0."""
    cls, _ = bundle._site_classes
    zero = {c for c, (_, lam) in enumerate(bundle._operators) if lam.is_zero()}
    if degenerate := [site for site, c in cls.items() if c in zero]:
        raise DegenerateInputError(f"degenerate dual value at sites {degenerate[:4]}"
                                   + ("..." if len(degenerate) > 4 else ""))


def constraint_distribution(bundle, site):
    """Canonical exact kernel basis of the constraint functional
    v = (u, X) -> <lam(site), omega(v)> at a site, as tuples of Fractions."""
    c = bundle._site_classes[0][site]
    if bundle._operators[c][1].is_zero():
        raise DegenerateInputError(f"degenerate dual value at site {site}")
    return bundle._constraints[c].transpose().kernel_basis()


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
    """D against the fiber directions V from D = H + ker lam: every site reads
    (dim D, dim D&V, dim D+V) = (n + dim g - 1, dim g - 1, n + dim g)."""
    _check_nondegenerate(bundle)
    n, dim_g = bundle.n_axes, bundle.algebra.dim
    dims = (n + dim_g - 1, dim_g - 1, n + dim_g)
    per_site = dict.fromkeys(bundle._site_classes[0], dims)
    return TransversalityReport(per_site, n + dim_g, dim_g, dim_g == 1, True, [])


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
    operators = bundle._operators
    # the dual field as integers over one denominator L: lam[i] is the column
    # of coordinate i over the site classes
    big_l, flat = common_denominator(c for rep in reps for c in bundle.lam_field[rep].coeffs)
    lam = [flat[i::dim] for i in range(dim)]
    # (ad*_z xi)_j = -sum_b z_b M[b][j] / c_den with M[b][j] = sum_i c_bj^i xi_i,
    # and z the base row a of a class's omega (over its den w). Each term is
    # written over D = 2 L S with S = c_den * lcm of the w, so base[a][b] is
    # the column of -2 (S / (c_den w)) omega_ab over the site classes.
    big_s = c_den * lcm(*(omega.den for omega, _ in operators))
    zero = [0] * len(reps)
    base = [[zero[:] for _ in range(dim)] for _ in range(n)]
    for c, (omega, _) in enumerate(operators):
        f = -2 * (big_s // (c_den * omega.den))
        for (a, b), v in omega.nums.items():
            if a < n:
                base[a][b][c] = f * v
    coad = [[zero] * dim for _ in range(n)]
    for b, row in enumerate(nz):
        axes = [(a, base[a][b]) for a in range(n) if any(base[a][b])]
        if not axes:
            continue
        for j, consts in enumerate(row):
            if consts:
                m_bj = zero
                for i, v in consts:
                    m_bj = list(map(add, m_bj, map(mul, repeat(v), lam[i])))
                for a, column in axes:
                    coad[a][j] = list(map(add, coad[a][j], map(mul, column, m_bj)))
    # (lam(site+a) - lam(site-a)) / (2 h_a) = m_a S (plus - minus) / D, with
    # plus and minus read through the classes of the site's two neighbours
    sites = list(cls)
    at = list(cls.values())
    per_axis = []
    for a, extent in enumerate(bundle.shape):
        plus = [cls[bundle.shift(site, a, 1)] for site in sites]
        minus = [cls[bundle.shift(site, a, -1)] for site in sites]
        k = extent * big_s
        per_axis.append(zip(*(
            [k * (col[p] - col[q]) + term[c] for p, q, c in zip(plus, minus, at)]
            for col, term in zip(lam, coad[a]))))
    nums = {(site, a): row for site, *rows in zip(sites, *per_axis) for a, row in enumerate(rows)}
    return CartanResidualReport(2 * big_l * big_s, nums)


def equivariance_residual(bundle, order=8, steps=(0.1, 0.2)):
    """Group-law consistency of the truncated equivariant transport (float).

    For each basis generator and step t the dual field is transported by the
    coadjoint exponential in one step of size t and in two steps of t/2; the
    residual is the max coefficient deviation. Zero steps and abelian fibers
    give exactly zero; otherwise the defect is the series truncation error.
    Each series row is applied to every distinct dual value at once.
    """
    if order < 4:
        raise MismatchError("series order must be >= 4")
    alg = bundle.algebra
    dim = alg.dim
    # distinct dual values, keyed on integers as the site classes are
    values = (bundle.lam_field[site].coeffs for site in bundle._site_classes[1])
    keys = dict.fromkeys((*map(_numerator, v), *map(_denominator, v)) for v in values)
    # float(Fraction(p, q)) is p / q, the correctly rounded quotient: lams[k]
    # is coordinate k of every distinct value as a float
    columns = list(zip(*keys))
    lams = [list(map(truediv, p, q)) for p, q in zip(columns[:dim], columns[dim:])]
    identity = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    def expm(gen, t):
        """Truncated exponential of t * gen. Once a term is zero every later
        term is, and adding a zero changes at most the sign of a zero."""
        out = term = identity
        for p in range(1, order + 1):
            term = [list(map(truediv, map(mul, row, repeat(t)), repeat(p)))
                    for row in _float_product(term, gen)]
            if not any(map(any, term)):
                break
            out = [list(map(add, o, x)) for o, x in zip(out, term)]
        return out

    worst = 0.0
    for i in range(dim):
        ad = coadjoint_matrix(alg.basis_vector(i))
        gen = [[ad.nums.get((j, k), 0) / ad.den for k in range(dim)] for j in range(dim)]
        series = {}  # one truncated exponential per distinct step value
        for t in steps:
            for u in (t, t / 2):
                if u not in series:
                    series[u] = expm(gen, u)
            half = series[t / 2]
            one = _float_product(series[t], lams)
            two = _float_product(_float_product(half, half), lams)
            for a, b in zip(one, two):
                worst = max(worst, *map(abs, map(sub, a, b)))
    return worst


def _float_product(rows, other):
    """The float matrix product rows @ other as lists. Every entry adds its
    products with + in ascending k, from the first k where the row is
    non-zero, and skips the k where it is zero: a skipped product, like the
    0.0 a plain loop starts from, is a zero, which changes at most the sign
    of a zero partial sum."""
    out = []
    zero = [0.0] * len(other[0])
    for row in rows:
        acc = None
        for v, line in zip(row, other):
            if v:
                term = map(mul, repeat(v), line)
                acc = term if acc is None else map(add, acc, term)
        out.append(zero if acc is None else list(acc))
    return out


def compatibility_functional_terms(bundle, dist_target=None):
    """The two lattice energies of the compatibility functional (evaluated, not minimized).

    First term: half the volume-weighted sum of squared flatness residuals.
    Second term: volume-weighted squared distance from the dual value to the
    annihilator of omega(D) at each site, with D the supplied per-site bases
    (dist_target: site -> vectors of length n + dim g; defaults to the
    constraint distribution, on which it is 0 by definition). Distances use
    the dual-coordinate Euclidean norm. A distance is 0 iff the dual value
    annihilates omega(D), which one exact product tests; only a value that
    fails is projected by the normal equations.
    """
    vol = bundle.cell_volume()
    first = cartan_residual(bundle).squared_norm() * vol / 2
    if dist_target is None:
        _check_nondegenerate(bundle)
        return first, ZERO

    tangent = bundle.n_axes + bundle.algebra.dim
    dists = []
    for site, c in bundle._site_classes[0].items():
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
    return first, vol * sum(dists, ZERO)


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


def _coefficients(value, what, parse):
    return [parse(v) for v in parse_list(value, what)]


def _site_row(item, width, shape, what, parse):
    """Parse a site-resolved row [site, ..., coeffs] after checking its shape;
    parse reads each coefficient."""
    if not isinstance(item, (list, tuple)) or len(item) != width:
        raise FormatError(f"{what} row {item!r} must have {width} fields")
    site, *rest, coeffs = item
    site = tuple(parse_int(s, f"{what} row site") for s in parse_list(site, f"{what} row site"))
    rest = [parse_int(x, f"{what} row axis") for x in rest]
    coeffs = _coefficients(coeffs, f"{what} row coefficients", parse)
    if len(site) != len(shape) or not all(0 <= s < m for s, m in zip(site, shape)):
        raise FormatError(f"{what} row {item!r}: site is not on the {shape} grid")
    return (site, *rest, coeffs)


def bundle_from_json(data, algebra):
    try:
        shape = tuple(parse_int(m, "grid extent") for m in parse_list(data["grid"], "grid"))
    except (KeyError, TypeError) as exc:
        raise FormatError("bundle JSON needs a grid field") from exc
    if data.get("algebra", algebra.name) != algebra.name:
        raise FormatError(f"bundle JSON is for algebra {data['algebra']!r}, not {algebra.name!r}")
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
            for coeffs in parse_list(omega_raw["constant"], "omega_base constant")
        ]
    else:
        omega = {}
        seen = set()
        for item in parse_list(omega_raw, "omega_base"):
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
        for item in parse_list(lam_raw, "lambda_field"):
            site, coeffs = _site_row(item, 2, shape, "lambda_field", parse)
            if site in lam_field:
                raise FormatError(f"lambda_field has two rows for site {site}")
            lam_field[site] = algebra.dual(coeffs)
    return grid_bundle(shape, algebra, omega, lam_field)
