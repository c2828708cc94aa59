"""Small exact linear algebra over any of the shipped coefficient fields."""

from __future__ import annotations


def determinant(rows, zero, one):
    """Exact determinant by fraction-free-ish Gaussian elimination with division."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return zero
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = one / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det
