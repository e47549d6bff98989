"""Mirror transformations of constraint data and their tensor-level shadows.

Two kinds are supported: the sign mirror lam -> -lam, and mirrors induced by
a validated Lie algebra automorphism A. For the automorphism kind the dual
vector is transported contragrediently by default (lam -> lam o A^{-1});
the literal transport lam -> lam o A is kept selectable because the two only
agree for involutive A, and the intertwining check exists precisely to
measure that gap.

Every mirror acts on the coupled complex through one chain map, whose
symmetric factor is MirrorTransform.tensor_map: (-1)^j I on S^j for the sign
mirror, since delta^{-lam} = -delta^lam, and induced_tensor_map for an
automorphism. induced_tensor_map returns the degree-k companion map on
symmetric tensors. Its matrix depends on the identification used between
the symmetric power and its dual (see the spencer module):

* killing (default): the factorwise power of A itself. Automorphisms are
  orthogonal for the Killing form, so this is the eval-compatible transport
  for the Killing pairing and it intertwines the constraint-coupled operator
  exactly, for every validated automorphism.
* basis: the factorwise power of (A^{-1})^T, the eval-compatible transport
  for the coordinate pairing. It intertwines exactly only when the matrix of
  A is orthogonal; the residual for everything else is reported, not hidden.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError, MismatchError
from .liealg import (
    LieAutomorphism,
    automorphism_from_json,
    automorphism_to_json,
)
from .linalg import OperatorMatrix
from .spencer import Identification, LeibnizConvention, delta_matrix
from .symtensor import sym_dim, symmetric_power_matrix


# plain strings keep the CLI simple; values are validated on use
TRANSPORT_INVERSE = "inverse"
TRANSPORT_LITERAL = "literal"


@dataclass(frozen=True)
class MirrorTransform:
    kind: str  # "sign" | "automorphism"
    automorphism: LieAutomorphism | None = None

    def __post_init__(self):
        if self.kind not in ("sign", "automorphism"):
            raise FormatError(f"unknown mirror kind {self.kind!r}")
        if self.kind == "automorphism" and self.automorphism is None:
            raise FormatError("automorphism mirror needs a validated automorphism")

    def to_json(self):
        if self.kind == "sign":
            return {"kind": "sign"}
        return {"kind": "automorphism", "automorphism": automorphism_to_json(self.automorphism)}

    def tensor_map(self, algebra, j, identification=Identification.KILLING):
        """Degree-j factor of the mirror's chain map on S^j of algebra:
        (-1)^j I for the sign mirror, induced_tensor_map (shared, read-only)
        for an automorphism."""
        if self.kind == "sign":
            return OperatorMatrix.identity(sym_dim(algebra.dim, j)).scaled((-1) ** j)
        return induced_tensor_map(self.automorphism, j, identification)


def sign_mirror():
    return MirrorTransform("sign")


def automorphism_mirror(auto):
    return MirrorTransform("automorphism", auto)


def mirror_from_json(data, algebra):
    kind = data.get("kind")
    if kind == "sign":
        return sign_mirror()
    if kind == "automorphism":
        return automorphism_mirror(automorphism_from_json(data["automorphism"], algebra))
    raise FormatError(f"unknown mirror kind {kind!r}")


def _check_transport(transport):
    if transport not in (TRANSPORT_INVERSE, TRANSPORT_LITERAL):
        raise FormatError(f"unknown dual transport {transport!r}")


def mirror_lambda(transform, lam, transport=TRANSPORT_INVERSE):
    """Transported dual vector: -lam for the sign mirror, lam o A^{-1} (or
    lam o A under the literal transport) for automorphism mirrors."""
    _check_transport(transport)
    if transform.kind == "sign":
        return -lam
    auto = transform.automorphism
    if auto.algebra != lam.algebra:
        raise MismatchError("automorphism and dual vector algebras differ")
    source = auto.inverse if transport == TRANSPORT_INVERSE else auto.matrix
    # <lam', e_j> = <lam, M e_j> with M the chosen source matrix
    return lam.algebra.dual(source.transpose().apply(lam.coeffs))


@functools.lru_cache(maxsize=8)
def induced_tensor_map(auto, k, identification=Identification.KILLING):
    """Degree-k companion matrix of an automorphism on symmetric tensors,
    built once per argument triple and shared: callers treat it as read-only."""
    if k < 0:
        raise MismatchError("degree must be >= 0")
    identification = Identification(identification)
    if identification is Identification.KILLING:
        base = auto.matrix
    else:
        base = auto.inverse.transpose()
    return symmetric_power_matrix(auto.algebra, base, k)


def sign_chain_sign(form_degree, tensor_degree):
    """Sign attached to the sign-mirror chain map on a bidegree (i, j) block.

    (-1)^j (j the tensor degree) makes the mirrored differential commute in
    the total complex; on the diagonal i = j = k it reduces to (-1)^k.
    """
    if form_degree < 0 or tensor_degree < 0:
        raise MismatchError("degrees must be >= 0")
    return Fraction(-1) ** tensor_degree


@dataclass
class IntertwiningReport:
    degree: int
    residual: Fraction
    transport: str
    identification: Identification
    convention: LeibnizConvention
    holds: bool

    def to_json(self):
        return {
            "degree": self.degree,
            "residual": str(self.residual),
            "transport": self.transport,
            "identification": self.identification.value,
            "convention": self.convention.value,
            "holds": self.holds,
        }


def intertwining_check(auto, lam, k, convention=LeibnizConvention.UNSIGNED,
                       transport=TRANSPORT_INVERSE,
                       identification=Identification.KILLING):
    """Residual of map(A, k+1) . delta^lam_k - delta^lam'_k . map(A, k).

    lam' is the transported dual vector for the chosen transport. The report
    states the exact max-abs residual; holds means it is exactly zero.
    """
    if k < 1:
        raise MismatchError("intertwining check needs degree >= 1")
    _check_transport(transport)
    identification = Identification(identification)
    convention = LeibnizConvention(convention)
    lam_t = mirror_lambda(automorphism_mirror(auto), lam, transport)
    d_orig = delta_matrix(lam, k, convention, identification)
    d_mirr = delta_matrix(lam_t, k, convention, identification)
    m_k = induced_tensor_map(auto, k, identification)
    m_k1 = induced_tensor_map(auto, k + 1, identification)
    residual = (m_k1 @ d_orig - d_mirr @ m_k).max_abs()
    return IntertwiningReport(
        k, residual, transport, identification, convention, residual == 0
    )
