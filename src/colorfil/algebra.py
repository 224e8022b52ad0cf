"""Z_3-graded Lie algebras with exact sparse structure constants.

The central object is :class:`ColorLieAlgebra`: a finite-dimensional
Z_3-graded vector space with a bracket given by sparse structure
constants.  Over the rationals the only commutation factor on Z_3 is
the trivial one, so a Z_3 colour Lie algebra is an ordinary graded Lie
algebra.  The law is stored once, in an index that holds each bracket
both ways round, [x, y] under x and [y, x] = -[x, y] under y
(`bracket_index`), so skewness is structural rather than checked.

The model algebra built by :func:`build_model` has basis
X_0..X_n (degree 0), Y_1..Y_m (degree 1), Z_1..Z_p (degree 2) and the
chain brackets

    [X_0, X_i] = X_{i+1},  [X_0, Y_j] = Y_{j+1},  [X_0, Z_l] = Z_{l+1}

with every other product zero.  X_0 is the characteristic vector: its
adjoint action shifts each chain one step.
"""

from __future__ import annotations

import reprlib
from math import lcm
from typing import Iterator, Mapping, NamedTuple

from .scalars import add_into, as_coeff, as_int, coeff_to_json

FAMILY_LETTERS = "XYZ"

Vector = dict  # sparse vector: global basis index -> exact coefficient


class InvalidParams(ValueError):
    """Model parameters outside the legal range."""


class AlgebraFormatError(ValueError):
    """Malformed algebra JSON document."""


class BasisElement(NamedTuple):
    family: str
    index: int
    degree: int

    @property
    def label(self) -> str:
        return f"{self.family}{self.index}"


class JacobiViolation(NamedTuple):
    elements: tuple
    residual: str

    def __str__(self):
        args = ", ".join(self.elements)
        return f"J({args}) = {self.residual} != 0"


class ColorLieAlgebra:
    """Immutable graded Lie algebra over exact scalars.

    `dims[g]` is the dimension of the degree-g component.  `constants`
    maps basis pairs (any orientation, global indices) to sparse target
    vectors; each is stored once, in the both-ways index `bracket_index`.
    Values are immutable by convention: no method mutates an algebra
    after `__init__`, so instances are safe to share between tasks.
    """

    def __init__(self, dims, constants: Mapping | None = None):
        dims = tuple(as_int(d, "component dimension") for d in dims)
        if len(dims) != 3:
            raise ValueError(f"expected 3 graded components, got {len(dims)}")
        if any(d < 0 for d in dims):
            raise ValueError("component dimensions must be nonnegative")
        self._dims = dims  # the basis is read from dims, never tabulated
        self._offsets = (0, dims[0], dims[0] + dims[1])
        # {x: {y: [e_x, e_y]}}: the mirrored entry (b, a) holds the negated vector
        self._brackets: dict = {}
        for (a, b), vec in (constants or {}).items():
            self._add_constant(as_int(a, "pair index"), as_int(b, "pair index"), vec)
        # ascending x, y, target: the index depends on the law, not on the order it was given in
        self._brackets = {x: {y: dict(sorted(vec.items())) for y, vec in sorted(row.items())}
                          for x, row in sorted(self._brackets.items())}

    def _add_constant(self, a: int, b: int, vec) -> None:
        n = self.dim
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"basis index out of range in pair ({a}, {b})")
        clean = {as_int(t, "target index"): as_coeff(c) for t, c in vec.items()}
        if any(not 0 <= t < n for t in clean):
            raise ValueError(f"target index out of range in the value of pair ({a}, {b})")
        clean = {t: c for t, c in clean.items() if c}
        if not clean:
            return
        if a == b:
            raise ValueError(f"[{self.label(a)}, {self.label(a)}] must vanish")
        if a > b:
            a, b = b, a
            clean = {t: -c for t, c in clean.items()}
        target_degree = (self.degree_of(a) + self.degree_of(b)) % 3
        for t in clean:
            if self.degree_of(t) != target_degree:
                raise ValueError(f"bracket [{self.label(a)}, {self.label(b)}] must land in "
                                 f"degree {target_degree}, got component {self.label(t)}")
        if b in self._brackets.get(a, ()):
            raise ValueError(f"duplicate structure constant for pair ({a}, {b})")
        self._brackets.setdefault(a, {})[b] = clean
        self._brackets.setdefault(b, {})[a] = {t: -c for t, c in clean.items()}

    # -- basic queries ------------------------------------------------

    @property
    def dims(self) -> tuple:
        return self._dims

    @property
    def dim(self) -> int:
        return self._offsets[2] + self._dims[2]

    def element(self, i: int) -> BasisElement:
        g = self.degree_of(i)
        return BasisElement(FAMILY_LETTERS[g], i - self._offsets[g] + (g > 0), g)

    def label(self, i: int) -> str:
        g = self.degree_of(i)
        return f"{FAMILY_LETTERS[g]}{i - self._offsets[g] + (g > 0)}"

    def degree_of(self, i: int) -> int:
        _, off1, off2 = self._offsets
        if not 0 <= i < off2 + self._dims[2]:  # negative indices too: no list wraps them round
            raise IndexError(f"basis index {i} out of range 0..{self.dim - 1}")
        return (i >= off1) + (i >= off2)

    def index(self, label: str) -> int:
        """Index of the label X0..Xn, Y1..Ym or Z1..Zp (no leading zeros), else KeyError.

        Digits longer than the family's dimension allows are not read by `int`.
        """
        g = FAMILY_LETTERS.find(label[:1] or "?") if isinstance(label, str) else -1
        digits = label[1:] if g >= 0 else ""
        if (digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0")
                and len(digits) <= self._dims[g].bit_length()
                and 0 <= (i := int(digits) - (g > 0)) < self._dims[g]):
            return self._offsets[g] + i
        raise KeyError(f"no basis element {reprlib.repr(label)}")

    def component_indices(self, g: int) -> range:
        return range(self._offsets[g], self._offsets[g] + self._dims[g])

    def global_index(self, g: int, i: int) -> int:
        """Global basis index of the family-g element numbered i (X_0 is 0)."""
        return self._offsets[g] + i - (0 if g == 0 else 1)

    def vector(self, source) -> Vector:
        """Build a sparse vector from a label, an index, or a mapping of them to scalars.

        An unknown label raises ValueError, as a non-integer or out-of-range index does.
        """
        out: Vector = {}
        for key, c in (source.items() if isinstance(source, Mapping) else [(source, 1)]):
            try:
                i = self.index(key) if isinstance(key, str) else as_int(key, "basis index")
            except KeyError as exc:
                raise ValueError(*exc.args) from None
            if not 0 <= i < self.dim:
                raise ValueError(f"basis index {i} out of range 0..{self.dim - 1}")
            add_into(out, i, as_coeff(c))
        return out

    def format_vector(self, vec: Mapping) -> str:
        return " + ".join(f"{c}*{self.label(i)}" for i, c in sorted(vec.items())) or "0"

    # -- the bracket --------------------------------------------------

    @property
    def bracket_index(self) -> Mapping:
        """{x: {y: [e_x, e_y]}} over the nonzero brackets, both orientations.

        `bracket_index[x]` lists the partners of x.  Ascending throughout:
        x, then each partner y, then the targets of [e_x, e_y], whatever
        order the constants were given in.  Shared, not copied: callers
        must not mutate it.
        """
        return self._brackets

    def bracket_basis(self, a: int, b: int) -> Vector:
        """[e_a, e_b] as a fresh sparse vector."""
        return dict(self._brackets.get(a, {}).get(b, ()))

    def bracket(self, x: Mapping, y: Mapping) -> Vector:
        """Bilinear extension of the bracket to sparse vectors."""
        out: Vector = {}
        for a, ca in x.items():
            partners = self._brackets.get(a)
            if not partners:
                continue
            for b, cb in y.items():
                vec = partners.get(b)
                if vec:
                    for t, c in vec.items():
                        add_into(out, t, ca * cb * c)
        return out

    def nonzero_constants(self) -> Iterator:
        """Canonical (a, b, vector) triples, a < b, in the index's ascending order."""
        for a, partners in self._brackets.items():
            for b, vec in partners.items():
                if b > a:
                    yield a, b, dict(vec)

    def with_added_constants(self, additions: Mapping) -> "ColorLieAlgebra":
        """New algebra whose constants are the sum of ours and `additions`."""
        merged = {(a, b): vec for a, b, vec in self.nonzero_constants()}
        for (a, b), vec in additions.items():
            if a > b:
                raise ValueError("additions must use canonically ordered pairs")
            tgt = merged.setdefault((a, b), {})
            for t, c in vec.items():
                add_into(tgt, t, as_coeff(c))
        return ColorLieAlgebra(self._dims, merged)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        constants = [{"lhs": self.label(a), "rhs": self.label(b),
                      "value": [{"basis": self.label(t), "coeff": coeff_to_json(c)}
                                for t, c in vec.items()]}
                     for a, b, vec in self.nonzero_constants()]
        return {
            "k": 3,
            "dims": list(self._dims),
            "beta": [[1, 1, 1] for _ in range(3)],
            "constants": constants,
        }


def from_json_dict(data) -> ColorLieAlgebra:
    """Parse the algebra JSON format; raises AlgebraFormatError on bad input.

    `k` must be 3 and `beta` the all-ones 3 x 3 table: both fields are
    kept for format compatibility, since the trivial factor is the only
    commutation factor on Z_3 over the rationals.
    """
    if not isinstance(data, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    try:
        k = as_int(data["k"], "k")
        if k != 3:
            raise AlgebraFormatError(f"k must be 3 (algebras are Z3-graded), got {k}")
        dims = [as_int(d, "dims entry") for d in data["dims"]]
        beta = data["beta"]
        if not (isinstance(beta, list) and len(beta) == 3
                and all(isinstance(row, list) and len(row) == 3
                        and all(as_coeff(v) == 1 for v in row) for row in beta)):
            raise AlgebraFormatError(
                "beta must be the all-ones 3x3 table, the only commutation factor on Z3")
        if len(dims) != 3:
            raise AlgebraFormatError("k, dims and beta table sizes disagree")
        alg = ColorLieAlgebra(dims)
        constants = {}
        for entry in data.get("constants", []):
            a, b = alg.index(entry["lhs"]), alg.index(entry["rhs"])
            vec = {}
            for item in entry["value"]:
                t = alg.index(item["basis"])
                if t in vec:
                    raise AlgebraFormatError(f"duplicate basis element {item['basis']} in the "
                                             f"value of pair {entry['lhs']},{entry['rhs']}")
                vec[t] = as_coeff(item["coeff"])
            if (a, b) in constants or (b, a) in constants:
                raise AlgebraFormatError(f"duplicate constants for pair {entry['lhs']},{entry['rhs']}")
            constants[(a, b)] = vec
        return ColorLieAlgebra(dims, constants)
    except AlgebraFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from exc


def check_params(n: int, m: int, p: int) -> None:
    """The parameter domain of L^{n,m,p}: n >= 1 and m, p >= 0, else InvalidParams."""
    if n < 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    if m < 0 or p < 0:
        raise InvalidParams(f"m and p must be >= 0, got m={m}, p={p}")


def integral_law(alg: ColorLieAlgebra) -> ColorLieAlgebra:
    """The law with integer structure constants: the package's one integrality rule.

    `alg` itself when every constant is an integer; otherwise the law
    with every constant multiplied by the lcm of their denominators.  A
    bracket image of an integer vector, or a term of d2 psi, holds one
    structure constant, so the scaled law makes it integral without
    changing the span or the kernel it stands for.
    """
    denom = lcm(*(c.denominator for _, _, vec in alg.nonzero_constants() for c in vec.values()))
    if denom == 1:
        return alg
    return ColorLieAlgebra(alg.dims, {(a, b): {t: c * denom for t, c in vec.items()}
                                      for a, b, vec in alg.nonzero_constants()})


def build_model(n: int, m: int, p: int) -> ColorLieAlgebra:
    """The model graded filiform algebra on X_0..X_n, Y_1..Y_m, Z_1..Z_p.

    Only [X_0, -] acts: it shifts each chain by one step and kills the
    last element.  m = 0 or p = 0 gives a degenerate but legal model with
    an empty graded component.
    """
    check_params(n, m, p)
    # chain element i sits at global index offset + i, after X_0 at 0
    constants = {(0, offset + i): {offset + i + 1: 1}
                 for offset, length in ((0, n), (n, m), (n + m, p))
                 for i in range(1, length)}
    return ColorLieAlgebra((n + 1, m, p), constants)


def reached_triples(inner: ColorLieAlgebra, outer: ColorLieAlgebra) -> set:
    """Ascending triples sorted(a, b, w) where outer(inner(a, b), w) can be nonzero.

    `inner` and `outer` are laws (a bracket, or a cochain's values as
    `Cochain2.law`).  A triple is reached when a component t of
    inner(a, b) pairs nonzero with w in `outer` and w is neither a nor
    b.  A term such as [[a, b], w] or psi([a, b], w) is zero at every
    other triple.
    """
    partners = outer.bracket_index
    return {tuple(sorted((a, b, w)))
            for a, b, vec in inner.nonzero_constants() for t in vec
            for w in partners.get(t, ()) if w != a and w != b}


def jacobiator(inner: ColorLieAlgebra, outer: ColorLieAlgebra, a: int, b: int, c: int) -> Vector:
    """outer(inner(a,b),c) - outer(a,inner(b,c)) + outer(b,inner(a,c)) on basis elements.

    J(mu, mu) is the Jacobiator of a law mu, and d2 psi = -(J(mu, psi) +
    J(psi, mu)).  Both laws are skew: the terms are the cyclic sum of
    outer(inner(x, y), z).
    """
    out: Vector = {}
    inner_index, outer_index = inner.bracket_index, outer.bracket_index
    for x, y, z, sign in ((a, b, c, 1), (b, c, a, 1), (a, c, b, -1)):
        for t, v in inner_index.get(x, {}).get(y, {}).items():
            for u, w in outer_index.get(t, {}).get(z, {}).items():
                add_into(out, u, sign * v * w)
    return out


def validate_jacobi(alg: ColorLieAlgebra) -> list:
    """Violations of the Jacobi identity, in ascending basis-triple order.

    Skewness is structural (the both-ways index), so only the Jacobi
    identity J(x,y,z) = `jacobiator(alg, alg, x, y, z)` can fail.  The
    Jacobiator is alternating, so ascending triples suffice, and only
    the triples the bracket reaches against itself (`reached_triples`)
    are evaluated: J is zero at every other triple, and the list is the
    one a walk over all C(dim, 3) triples would give.
    """
    label = alg.label  # only the reported triples are labelled
    return [JacobiViolation((label(a), label(b), label(c)), alg.format_vector(res))
            for a, b, c in sorted(reached_triples(alg, alg))
            if (res := jacobiator(alg, alg, a, b, c))]

