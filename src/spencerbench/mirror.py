"""Mirror transformations of constraint data and their tensor-level shadows.

Two kinds are supported: the sign mirror lam -> -lam, and mirrors induced by
a validated Lie algebra automorphism A. For the automorphism kind the dual
vector is transported contragrediently by default (lam -> lam o A^{-1});
the literal transport lam -> lam o A is kept selectable because the two only
agree for involutive A, and the intertwining check exists precisely to
measure that gap; under the sign mirror both give -lam.

Every mirror acts through MirrorTransform.tensor_map, its map T_j on S^j:
(-1)^j I for the sign mirror and induced_tensor_map for an automorphism.
T_j is the symmetric factor of the coupled complex's chain map and the two
sides of intertwining_check, whose residual for the sign mirror is that of
delta^{-lam} = -delta^lam. induced_tensor_map returns the degree-k companion
map on symmetric tensors. Its matrix depends on the identification used
between the symmetric power and its dual (see the spencer module):

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

from .errors import FormatError, MismatchError
from .linalg import OperatorMatrix
from .records import FrozenRecord, Record
from .spencer import Identification, LeibnizConvention, delta_matrix
from .symtensor import sym_dim, symmetric_power_matrix


# plain strings keep the CLI simple; values are validated on use
TRANSPORT_INVERSE = "inverse"
TRANSPORT_LITERAL = "literal"


class MirrorTransform(FrozenRecord):
    # kind: "sign" | "automorphism"; automorphism: a LieAutomorphism or None
    __slots__ = _fields = ("kind", "automorphism")
    _defaults = {"automorphism": None}

    def __post_init__(self):
        if self.kind not in ("sign", "automorphism"):
            raise FormatError(f"unknown mirror kind {self.kind!r}")
        if self.kind == "automorphism" and self.automorphism is None:
            raise FormatError("automorphism mirror needs a validated automorphism")

    def tensor_map(self, algebra, j, identification=Identification.KILLING):
        """Degree-j factor of the mirror's chain map on S^j of algebra:
        (-1)^j I for the sign mirror, induced_tensor_map (built once and
        shared) for an automorphism of algebra."""
        if self.kind == "sign":
            return OperatorMatrix.identity(sym_dim(algebra.dim, j)).scaled((-1) ** j)
        if self.automorphism.algebra != algebra:
            raise MismatchError("automorphism and algebra differ")
        return induced_tensor_map(self.automorphism, j, identification)


def sign_mirror():
    return MirrorTransform("sign")


def automorphism_mirror(auto):
    return MirrorTransform("automorphism", auto)


def mirror_lambda(transform, lam, transport=TRANSPORT_INVERSE):
    """Transported dual vector: -lam for the sign mirror, lam o A^{-1} (or
    lam o A under the literal transport) for automorphism mirrors."""
    if transport not in (TRANSPORT_INVERSE, TRANSPORT_LITERAL):
        raise FormatError(f"unknown dual transport {transport!r}")
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
    built once per argument triple and shared; no operation writes into an
    OperatorMatrix after it is built."""
    if k < 0:
        raise MismatchError("degree must be >= 0")
    identification = Identification(identification)
    if identification is Identification.KILLING:
        base = auto.matrix
    else:
        base = auto.inverse.transpose()
    return symmetric_power_matrix(auto.algebra, base, k)


class IntertwiningReport(Record):
    __slots__ = _fields = ("degree", "residual", "transport", "identification", "convention",
                           "holds")

    def to_json(self):
        return {
            "degree": self.degree,
            "residual": str(self.residual),
            "transport": self.transport,
            "identification": self.identification.value,
            "convention": self.convention.value,
            "holds": self.holds,
        }


# the checks of one degree under both transports run back to back
@functools.lru_cache(maxsize=2)
def _mapped_delta(transform, lam, k, convention, identification):
    """T_{k+1} delta^lam_k, the side of the intertwining residual that does
    not depend on the transport: built once per degree and shared."""
    return transform.tensor_map(lam.algebra, k + 1, identification) @ delta_matrix(
        lam, k, convention, identification)


def intertwining_check(transform, lam, k, convention=LeibnizConvention.UNSIGNED,
                       transport=TRANSPORT_INVERSE,
                       identification=Identification.KILLING):
    """Residual of T_{k+1} . delta^lam_k - delta^lam'_k . T_k, with T_j =
    transform.tensor_map(j) and lam' the dual vector transported by the
    chosen transport.

    For an automorphism T_j is induced_tensor_map; for the sign mirror it is
    (-1)^j I and lam' = -lam, so the residual is that of (-1)^{k+1}
    (delta^lam_k + delta^{-lam}_k). The report states the exact max-abs
    residual; holds means it is exactly zero.
    """
    if k < 1:
        raise MismatchError("intertwining check needs degree >= 1")
    identification = Identification(identification)
    convention = LeibnizConvention(convention)
    lam_t = mirror_lambda(transform, lam, transport)
    d_mirr = delta_matrix(lam_t, k, convention, identification)
    m_k = transform.tensor_map(lam.algebra, k, identification)
    residual = (_mapped_delta(transform, lam, k, convention, identification)
                - d_mirr @ m_k).max_abs()
    return IntertwiningReport(
        k, residual, transport, identification, convention, residual == 0
    )
