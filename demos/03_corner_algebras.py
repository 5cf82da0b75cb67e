"""
Corner algebras, zig-zags, and the module correspondence
========================================================

A bigraded corner algebra stores one component per index pair (i,j) and a
sparse product that contracts matching inner indices.  Block matrix models
give the simplest honest examples: component (i,j) of a block with graded
dimensions (n_0, n_1, ...) is the space of n_i x n_j matrices.

This script validates the axioms, reduces the degree-1 zig-zag algebra to a
corner ideal, splits the corner along the ideal's internal unit, and runs a
module through the balanced-tensor functors and back.
"""

from fractions import Fraction

from mta import (
    action_through_A_check,
    find_strong_identity,
    heisenberg_truncation,
    ideal_unit_and_split,
    matrix_model,
    regular_module,
    validate_peirce,
    verify_roundtrip,
    zd_ideal,
    zigzag,
)


def show(v, n):
    """A sparse vector as the list of its n coordinates, as strings."""
    return [str(v.get(j, 0)) for j in range(n)]


# ---------------------------------------------------------------------------
# two blocks, one of which dies at level 1
# ---------------------------------------------------------------------------

p = matrix_model([[1, 2], [1, 0]])
print("component dimensions:", p.dims)

report = validate_peirce(p)
print("axioms:", {name: ok for name, ok in report.axioms.items()})

# ---------------------------------------------------------------------------
# the degree-1 zig-zag algebra and its corner ideal
# ---------------------------------------------------------------------------

z = zigzag(p, 1)
ideal = zd_ideal(p, 1)
print(f"\nzig-zag dimension {z.dim}, corner ideal dimension {ideal.dim}")
print("product acts through the corner:", action_through_A_check(z).ok)

split = ideal_unit_and_split(p, ideal)
print("ideal unit epsilon =", show(split.epsilon, p.dims[0][0]))
print("central idempotent:", split.checks["epsilon_idempotent"],
      split.checks["epsilon_central"])
print("corner = ideal x complement:", split.checks["direct_sum"],
      "cross products vanish:", split.checks["cross_products_vanish"])

# the second block contributes nothing at degree 1, so the complement is the
# ideal generated by the other corner idempotent

# ---------------------------------------------------------------------------
# strong identity and the roundtrip of module functors
# ---------------------------------------------------------------------------

one_d = find_strong_identity(p, 1)
print("\nstrong identity of the degree-1 diagonal:", show(one_d, p.dims[1][1]))

w = regular_module(p, 1)
trip = verify_roundtrip(p, 1, w)
print(f"regular module roundtrip: {trip.dim_start} -> {trip.dim_forward} -> "
      f"{trip.dim_back}, bijective={trip.bijective}, "
      f"equivariant={trip.equivariant}")

# ---------------------------------------------------------------------------
# the same machinery on an exact free-boson truncation
# ---------------------------------------------------------------------------

for point in (Fraction(0), Fraction(3, 2)):
    trunc = heisenberg_truncation(1, 2, [point])
    ok = validate_peirce(trunc).ok
    print(f"\ntruncation at h = {point}: axioms ok = {ok}, dims = {trunc.dims}")
    print("   strong identity:", show(find_strong_identity(trunc, 2), trunc.dims[2][2]))
