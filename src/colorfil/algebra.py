"""Z_k-graded Lie algebras with exact sparse structure constants.

The central object is :class:`ColorLieAlgebra`: a finite-dimensional
Z_k-graded vector space with a bracket given by sparse structure
constants and a commutation factor beta.  Brackets are stored only for
canonically ordered basis pairs; the mirror image is synthesized through
[x, y] = -beta(g, h) [y, x], so skewness is structural rather than
checked.

The model algebra built by :func:`build_model` has basis
X_0..X_n (degree 0), Y_1..Y_m (degree 1), Z_1..Z_p (degree 2) and the
chain brackets

    [X_0, X_i] = X_{i+1},  [X_0, Y_j] = Y_{j+1},  [X_0, Z_l] = Z_{l+1}

with every other product zero.  X_0 is the characteristic vector: its
adjoint action shifts each chain one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Mapping, NamedTuple

from .grading import CommutationFactor, GradingGroup, trivial_factor
from .linalg import _eliminate_int, primitive_row
from .scalars import add_into, as_coeff, as_int, coeff_to_json

FAMILY_LETTERS = "XYZUVW"

Vector = dict  # sparse vector: global basis index -> exact coefficient


class InvalidParams(ValueError):
    """Model parameters outside the legal range."""


class NotNilpotent(ValueError):
    """A descending sequence stabilized at a nonzero subspace."""


class AlgebraFormatError(ValueError):
    """Malformed algebra JSON document."""


class BasisElement(NamedTuple):
    family: str
    index: int
    degree: int

    @property
    def label(self) -> str:
        return f"{self.family}{self.index}"


@dataclass(frozen=True)
class NilindexReport:
    """Lengths of the descending sequences C^k(L_g), one per degree."""

    components: tuple

    @property
    def p0(self) -> int:
        return self.components[0]

    @property
    def p1(self) -> int:
        return self.components[1]

    @property
    def p2(self) -> int:
        return self.components[2]


@dataclass(frozen=True)
class JacobiViolation:
    identity: str
    elements: tuple
    residual: str

    def __str__(self):
        args = ", ".join(self.elements)
        return f"{self.identity}({args}) = {self.residual} != 0"


class ColorLieAlgebra:
    """Immutable graded Lie algebra over exact scalars.

    `dims[g]` is the dimension of the degree-g component.  `constants`
    maps basis pairs (any orientation, global indices) to sparse target
    vectors; pairs are canonicalized to ascending order on construction.
    Values are immutable by convention: no method mutates an algebra
    after `__init__`, so instances are safe to share between tasks.
    """

    def __init__(self, beta: CommutationFactor, dims, constants: Mapping | None = None):
        k = beta.group.modulus
        dims = tuple(int(d) for d in dims)
        if len(dims) != k:
            raise ValueError(f"expected {k} graded components, got {len(dims)}")
        if any(d < 0 for d in dims):
            raise ValueError("component dimensions must be nonnegative")
        if k > len(FAMILY_LETTERS):
            raise ValueError(f"at most {len(FAMILY_LETTERS)} graded components supported")
        self._beta = beta
        self._grading = beta.group
        self._dims = dims
        self._elements: list[BasisElement] = []
        self._degrees: list[int] = []
        offset = 0
        self._offsets = []
        for g, d in enumerate(dims):
            self._offsets.append(offset)
            start = 0 if g == 0 else 1
            for i in range(start, start + d):
                self._elements.append(BasisElement(FAMILY_LETTERS[g], i, g))
                self._degrees.append(g)
            offset += d
        self._index = {e.label: i for i, e in enumerate(self._elements)}
        self._constants: dict = {}
        for (a, b), vec in (constants or {}).items():
            self._add_constant(int(a), int(b), vec)

    def _add_constant(self, a: int, b: int, vec) -> None:
        n = self.dim
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"basis index out of range in pair ({a}, {b})")
        clean = {int(t): as_coeff(c) for t, c in vec.items() if as_coeff(c) != 0}
        if not clean:
            return
        ga, gb = self._degrees[a], self._degrees[b]
        sign = 1
        if a > b:
            a, b = b, a
            sign = -self._beta.beta(gb, ga)
        if a == b and self._beta.beta(ga, ga) != -1:
            raise ValueError(f"[{self.label(a)}, {self.label(a)}] must vanish when beta(g,g) = 1")
        target_degree = self._grading.add(ga, gb)
        for t in clean:
            if self._degrees[t] != target_degree:
                raise ValueError(
                    f"bracket [{self.label(a)}, {self.label(b)}] must land in degree "
                    f"{target_degree}, got component {self.label(t)}"
                )
        if sign != 1:
            clean = {t: sign * c for t, c in clean.items()}
        if (a, b) in self._constants:
            raise ValueError(f"duplicate structure constant for pair ({a}, {b})")
        self._constants[(a, b)] = clean

    # -- basic queries ------------------------------------------------

    @property
    def grading(self) -> GradingGroup:
        return self._grading

    @property
    def beta(self) -> CommutationFactor:
        return self._beta

    @property
    def dims(self) -> tuple:
        return self._dims

    @property
    def dim(self) -> int:
        return len(self._elements)

    def element(self, i: int) -> BasisElement:
        return self._elements[i]

    def label(self, i: int) -> str:
        return self._elements[i].label

    def labels(self) -> list:
        return [e.label for e in self._elements]

    def degree_of(self, i: int) -> int:
        return self._degrees[i]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no basis element {label!r}") from None

    def component_indices(self, g: int) -> range:
        start = self._offsets[g]
        return range(start, start + self._dims[g])

    def global_index(self, g: int, i: int) -> int:
        """Global basis index of the family-g element numbered i (X_0 is 0)."""
        return self._offsets[g] + i - (0 if g == 0 else 1)

    def vector(self, source) -> Vector:
        """Build a sparse vector from a label, an index, or a mapping."""
        if isinstance(source, str):
            return {self.index(source): 1}
        if isinstance(source, int):
            return {source: 1}
        out = {}
        for key, c in source.items():
            add_into(out, self.index(key) if isinstance(key, str) else int(key), as_coeff(c))
        return out

    def format_vector(self, vec: Mapping) -> str:
        if not vec:
            return "0"
        parts = [f"{c}*{self.label(i)}" for i, c in sorted(vec.items())]
        return " + ".join(parts)

    # -- the bracket --------------------------------------------------

    def bracket_basis(self, a: int, b: int) -> Vector:
        """[e_a, e_b] as a fresh sparse vector."""
        if a <= b:
            return dict(self._constants.get((a, b), ()))
        stored = self._constants.get((b, a))
        if not stored:
            return {}
        sign = -self._beta.beta(self._degrees[a], self._degrees[b])
        return {t: sign * c for t, c in stored.items()}

    def bracket(self, x: Mapping, y: Mapping) -> Vector:
        """Bilinear extension of the bracket to sparse vectors."""
        out: Vector = {}
        for a, ca in x.items():
            for b, cb in y.items():
                vec = self._constants.get((a, b) if a <= b else (b, a))
                if not vec:
                    continue
                scale = ca * cb
                if a > b:
                    scale = -self._beta.beta(self._degrees[a], self._degrees[b]) * scale
                for t, c in vec.items():
                    add_into(out, t, scale * c)
        return out

    def nonzero_constants(self) -> Iterator:
        """Canonical (a, b, vector) triples, ascending."""
        for (a, b) in sorted(self._constants):
            yield a, b, dict(self._constants[(a, b)])

    def with_added_constants(self, additions: Mapping) -> "ColorLieAlgebra":
        """New algebra whose constants are the sum of ours and `additions`."""
        merged: dict = {pair: dict(vec) for pair, vec in self._constants.items()}
        for (a, b), vec in additions.items():
            if a > b:
                raise ValueError("additions must use canonically ordered pairs")
            tgt = merged.setdefault((a, b), {})
            for t, c in vec.items():
                add_into(tgt, t, as_coeff(c))
        merged = {pair: vec for pair, vec in merged.items() if vec}
        return ColorLieAlgebra(self._beta, self._dims, merged)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        constants = []
        for a, b, vec in self.nonzero_constants():
            constants.append({
                "lhs": self.label(a),
                "rhs": self.label(b),
                "value": [{"basis": self.label(t), "coeff": coeff_to_json(c)}
                          for t, c in sorted(vec.items())],
            })
        return {
            "k": self._grading.modulus,
            "dims": list(self._dims),
            "beta": [[coeff_to_json(v) for v in row] for row in self._beta.table],
            "constants": constants,
        }


def from_json_dict(data) -> ColorLieAlgebra:
    """Parse the algebra JSON format; raises AlgebraFormatError on bad input."""
    from .grading import validate_commutation_factor

    if not isinstance(data, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    try:
        k = as_int(data["k"], "k")
        dims = [as_int(d, "dims entry") for d in data["dims"]]
        beta = validate_commutation_factor(data["beta"])
        if beta.group.modulus != k or len(dims) != k:
            raise AlgebraFormatError("k, dims and beta table sizes disagree")
        alg = ColorLieAlgebra(beta, dims)
        constants = {}
        for entry in data.get("constants", []):
            a = alg.index(entry["lhs"])
            b = alg.index(entry["rhs"])
            vec = {alg.index(item["basis"]): as_coeff(item["coeff"])
                   for item in entry["value"]}
            if (a, b) in constants or (b, a) in constants:
                raise AlgebraFormatError(f"duplicate constants for pair {entry['lhs']},{entry['rhs']}")
            constants[(a, b)] = vec
        return ColorLieAlgebra(beta, dims, constants)
    except AlgebraFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from exc


def build_model(n: int, m: int, p: int) -> ColorLieAlgebra:
    """The model graded filiform algebra on X_0..X_n, Y_1..Y_m, Z_1..Z_p.

    Only [X_0, -] acts: it shifts each chain by one step and kills the
    last element.  m = 0 or p = 0 gives a degenerate but legal model with
    an empty graded component.
    """
    if n < 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    if m < 0 or p < 0:
        raise InvalidParams(f"m and p must be >= 0, got m={m}, p={p}")
    alg = ColorLieAlgebra(trivial_factor(3), (n + 1, m, p))
    x0 = 0
    constants = {}
    for i in range(1, n):
        constants[(x0, alg.index(f"X{i}"))] = {alg.index(f"X{i + 1}"): 1}
    for j in range(1, m):
        constants[(x0, alg.index(f"Y{j}"))] = {alg.index(f"Y{j + 1}"): 1}
    for l in range(1, p):
        constants[(x0, alg.index(f"Z{l}"))] = {alg.index(f"Z{l + 1}"): 1}
    return ColorLieAlgebra(trivial_factor(3), (n + 1, m, p), constants)


def bracket(alg: ColorLieAlgebra, x, y) -> Vector:
    """[x, y] for sparse vectors, labels or indices."""
    return alg.bracket(alg.vector(x), alg.vector(y))


def validate_jacobi(alg: ColorLieAlgebra) -> list:
    """All violations of the beta-Jacobi identity on basis triples.

    Skewness is structural (canonical storage), so only the Jacobi
    identity J(x,y,z) = [[x,y],z] - [x,[y,z]] + beta(dx,dy)[y,[x,z]]
    can fail.  For the trivial factor the Jacobiator is alternating and
    ascending triples suffice; otherwise all ordered triples are checked.
    """
    violations = []
    n = alg.dim
    beta = alg.beta
    deg = alg.degree_of
    if beta.is_trivial:
        triples = combinations(range(n), 3)
    else:
        triples = product(range(n), repeat=3)
    for a, b, c in triples:
        res = alg.bracket(alg.bracket_basis(a, b), {c: 1})
        for t, coeff in alg.bracket_basis(b, c).items():
            for u, cu in alg.bracket_basis(a, t).items():
                add_into(res, u, -coeff * cu)
        sign = beta.beta(deg(a), deg(b))
        for t, coeff in alg.bracket_basis(a, c).items():
            for u, cu in alg.bracket_basis(b, t).items():
                add_into(res, u, sign * coeff * cu)
        if res:
            violations.append(JacobiViolation(
                "J", (alg.label(a), alg.label(b), alg.label(c)), alg.format_vector(res)))
    return violations


# -- descending sequences ---------------------------------------------


def _descending_dims(alg: ColorLieAlgebra, g: int) -> list:
    """Dimensions of C^0(L_g), C^1(L_g), ... down to zero.

    C^{k+1}(L_g) = [L_0, C^k(L_g)].  Raises NotNilpotent if the sequence
    stabilizes at a nonzero subspace (checked within dim(L)+1 steps).
    """
    l0 = list(alg.component_indices(0))
    current = [{i: 1} for i in alg.component_indices(g)]
    dims = [len(current)]
    for _ in range(alg.dim + 1):
        if dims[-1] == 0:
            return dims
        brackets = (alg.bracket({a: 1}, v) for a in l0 for v in current)
        images = [primitive_row(w) for w in brackets if w]
        rank, pivots = _eliminate_int({i: dict(row) for i, row in enumerate(images)}, alg.dim)
        if rank == dims[-1]:
            raise NotNilpotent(
                f"descending sequence of degree-{g} component stabilizes at dimension {rank}")
        current = [dict(images[i]) for i, _, _ in pivots]
        dims.append(rank)
    raise NotNilpotent("descending sequence failed to terminate")


def color_nilindex(alg: ColorLieAlgebra) -> NilindexReport:
    """Per-degree lengths (p_0, ..., p_{k-1}) of the descending sequences.

    p_g is the first exponent with C^{p_g}(L_g) = 0; a component that is
    zero to begin with has p_g = 0.
    """
    comps = []
    for g in alg.grading.elements():
        dims = _descending_dims(alg, g)
        comps.append(len(dims) - 1)
    return NilindexReport(tuple(comps))


def is_filiform_module(alg: ColorLieAlgebra, g: int) -> bool:
    """Whether L_g carries the full flag dropped one step at a time by L_0.

    Equivalent to the descending sequence C^k(L_g) having dimensions
    d, d-1, ..., 1, 0.  Vacuously true for d = 0; g must be nonzero.
    """
    if g % alg.grading.modulus == 0:
        raise ValueError("filiform-module check applies to nonzero degrees")
    d = alg.dims[g]
    try:
        dims = _descending_dims(alg, g)
    except NotNilpotent:
        return False
    return dims == list(range(d, -1, -1)) or (d == 0 and dims == [0])


def l0_is_filiform(alg: ColorLieAlgebra) -> bool:
    """Whether the degree-0 component is a filiform Lie algebra.

    For dim L_0 = n+1 >= 2 the descending central sequence must have
    dimensions n+1, n-1, n-2, ..., 1, 0; a 1-dimensional (abelian)
    component is accepted as trivially filiform.
    """
    d0 = alg.dims[0]
    try:
        dims = _descending_dims(alg, 0)
    except NotNilpotent:
        return False
    if d0 <= 1:
        return dims[-1] == 0
    return dims == [d0] + list(range(d0 - 2, -1, -1))
