"""Block descriptors for the level-d degree-bounded corner algebras.

A descriptor records an isomorphism type only: for each level j <= d a list
of matrix block sizes over a base ring tag, either the scalar field (the
semisimple case coming from finitely many simple graded modules) or a
polynomial ring in n variables (the free-boson case, where the corner acts
through its zero-mode polynomials).
"""

from __future__ import annotations

from ._frozen import Frozen
from .exact import strict_int
from .partitions import labeled_partition_counts

SCALAR_FIELD = "scalar-field"


def polynomial_ring(n: int) -> str:
    return f"polynomial-ring({n})"


class SimpleModuleData(Frozen):
    """Graded dimensions of one simple module, lowest level first."""

    __slots__ = ("label", "graded_dims", "conformal_weight")

    def __init__(
        self, label: str, graded_dims: tuple[int, ...], conformal_weight: Fraction | None = None
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "graded_dims", graded_dims)
        object.__setattr__(self, "conformal_weight", conformal_weight)
        if any(strict_int(d) < 0 for d in self.graded_dims):
            raise ValueError("graded dimensions must be nonnegative")
        if not any(self.graded_dims):
            raise ValueError(f"module {self.label!r} has no nonzero graded dimension")


class ZhuDescriptor(Frozen):
    """blocks[j] lists (matrix size, base ring tag) for level j."""

    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int, blocks: tuple[tuple[tuple[int, str], ...], ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "blocks", blocks)
        if strict_int(self.degree) < 0:
            raise ValueError(f"degree {self.degree} is negative")
        if len(self.blocks) != self.degree + 1:
            raise ValueError("need one block list per level 0..degree")
        for level in self.blocks:
            for size, ring in level:
                if strict_int(size) < 1:
                    raise ValueError("block sizes must be positive")
                if ring != SCALAR_FIELD and not ring.startswith("polynomial-ring("):
                    raise ValueError(f"unknown ring tag {ring!r}")

    def level_sizes(self, j: int) -> list[int]:
        return [size for size, _ in self.blocks[j]]

    def all_sizes(self) -> list[int]:
        return [size for level in self.blocks for size, _ in level]

    def total_scalar_dimension(self) -> int | None:
        """Sum of block dimensions when every factor is over the scalar
        field; None when a polynomial base ring appears."""
        total = 0
        for level in self.blocks:
            for size, ring in level:
                if ring != SCALAR_FIELD:
                    return None
                total += size * size
        return total

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "blocks": [
                {
                    "level": j,
                    "factors": [{"size": size, "ring": ring} for size, ring in level],
                }
                for j, level in enumerate(self.blocks)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "ZhuDescriptor":
        degree = strict_int(data["degree"])
        levels: dict[int, tuple[tuple[int, str], ...]] = {}
        for item in data["blocks"]:
            level = strict_int(item["level"])
            if not 0 <= level <= degree:
                raise ValueError(f"level {level} out of range 0..{degree}")
            if level in levels:
                raise ValueError(f"level {level} is given twice")
            levels[level] = tuple((f["size"], str(f["ring"])) for f in item["factors"])
        return cls(degree, tuple(levels.get(j, ()) for j in range(degree + 1)))

    def render_text(self) -> str:
        """Human-readable isomorphism type, factors ordered by level."""
        rings = {ring for level in self.blocks for _, ring in level}
        factors = []
        for level in self.blocks:
            for size, ring in level:
                arg = "C" if ring == SCALAR_FIELD else "A"
                factors.append(f"Mat_{size}({arg})")
        body = " × ".join(factors) if factors else "0"
        line = f"A_{self.degree} ≅ {body}"
        poly = next((r for r in rings if r != SCALAR_FIELD), None)
        if poly is not None:
            n = int(poly[len("polynomial-ring(") : -1])
            gens = ",".join(f"h{i + 1}" for i in range(n))
            line += f", A = Q[{gens}]"
        return line


def rational_zhu_descriptor(modules, d: int) -> ZhuDescriptor:
    """Descriptor for a semisimple setting with finitely many simple graded
    modules: one scalar block of size dim(module level j) per module, at
    every level j <= d where that dimension is nonzero."""
    modules = list(modules)
    if d < 0:
        raise ValueError(f"degree {d} is negative")
    for m in modules:
        if d >= len(m.graded_dims):
            raise ValueError(
                f"degree {d} out of range for module {m.label!r} "
                f"with {len(m.graded_dims)} graded levels"
            )
    blocks = []
    for j in range(d + 1):
        level = tuple(
            (m.graded_dims[j], SCALAR_FIELD) for m in modules if m.graded_dims[j] > 0
        )
        blocks.append(level)
    return ZhuDescriptor(d, tuple(blocks))


def zd_support(modules, d: int) -> list[str]:
    """Labels of the modules whose level-d component survives; these index
    the blocks of the degree-d corner ideal."""
    if d < 0:
        raise ValueError(f"degree {d} is negative")
    out = []
    for m in modules:
        if d >= len(m.graded_dims):
            raise ValueError(f"degree {d} out of range for module {m.label!r}")
        if m.graded_dims[d] > 0:
            out.append(m.label)
    return out


def heisenberg_zhu_descriptor(n: int, d: int) -> ZhuDescriptor:
    """Rank-n free boson: the connected commutative case, with one
    polynomial-ring block per level of size the labeled partition count at
    that level."""
    return commutative_zhu_descriptor(labeled_partition_counts(n, d), n, d)


def commutative_zhu_descriptor(graded_dims, n_vars: int, d: int) -> ZhuDescriptor:
    """Descriptor for a connected commutative corner acting through a
    polynomial ring: one block of size dim(level j) per level.

    Requires dim(level 0) == 1 (the corner is generated by the vacuum) and a
    nonzero dimension at every level up to d; a vanishing level is reported
    by its index, since the block decomposition breaks down there.
    """
    graded_dims = list(graded_dims)
    if d >= len(graded_dims):
        raise ValueError(f"degree {d} out of range for {len(graded_dims)} graded levels")
    if graded_dims[0] != 1:
        raise ValueError("level 0 must be one-dimensional")
    for j in range(d + 1):
        if graded_dims[j] <= 0:
            raise ValueError(f"graded dimension vanishes at level {j}")
    blocks = tuple(((graded_dims[j], polynomial_ring(n_vars)),) for j in range(d + 1))
    return ZhuDescriptor(d, blocks)


def exceptional_degrees(level_dims, d_max: int) -> list[int]:
    """Levels 1..d_max where the graded dimension vanishes.

    At such a level the degree component and its corner ideal are zero
    rings.  Level 0 is never exceptional: the corner contains its own unit.
    """
    level_dims = list(level_dims)
    if d_max >= len(level_dims):
        raise ValueError(f"d_max {d_max} out of range for {len(level_dims)} levels")
    if any(x < 0 for x in level_dims):
        raise ValueError("graded dimensions must be nonnegative")
    return [j for j in range(1, d_max + 1) if level_dims[j] == 0]
