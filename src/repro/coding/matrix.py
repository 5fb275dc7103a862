"""Dense matrices over GF(2^8) with Gaussian elimination.

Small and deliberately simple: the erasure code works with matrices of
at most 255 rows.  Elimination is O(n^3) either way, and with one
Python ``gf_mul`` per element it is too slow for an uncached decode at
the paper's larger M (docs/performance.md, "Cook-time matrix
algebra").  :meth:`GFMatrix.inverse` therefore keeps each working row
as one ``bytes`` object: a row is scaled by one ``bytes.translate``
through the multiply table and two rows are added as one wide-integer
XOR, so the O(n) inner loop runs in C.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.coding.gf256 import _mul_table, gf_div, gf_dot, gf_inv, gf_mul, gf_pow


class GFMatrix:
    """An immutable-size matrix of GF(2^8) elements."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        if not rows:
            raise ValueError("matrix must have at least one row")
        width = len(rows[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        data: List[List[int]] = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")
            for value in row:
                if not 0 <= value < 256:
                    raise ValueError(f"element {value!r} outside GF(2^8)")
            data.append(list(row))
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def vandermonde(cls, nrows: int, ncols: int) -> "GFMatrix":
        """The Vandermonde matrix V[i][j] = (i+1)^j over GF(2^8).

        Evaluation points are 1..nrows (distinct, nonzero), so any
        ``ncols`` rows form an invertible square matrix — the property
        the erasure code depends on.  Requires ``nrows <= 255``.
        """
        if nrows > 255:
            raise ValueError("at most 255 distinct nonzero evaluation points exist")
        return cls(
            [[gf_pow(i + 1, j) for j in range(ncols)] for i in range(nrows)]
        )

    # -- access ----------------------------------------------------------------

    def row(self, index: int) -> List[int]:
        return list(self._rows[index])

    def rows(self) -> List[List[int]]:
        return [list(row) for row in self._rows]

    def submatrix(self, row_indices: Sequence[int]) -> "GFMatrix":
        """New matrix from the given rows (used by the decoder)."""
        return GFMatrix([self._rows[i] for i in row_indices])

    def __getitem__(self, position) -> int:
        i, j = position
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GFMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"GFMatrix({self.nrows}x{self.ncols})"

    # -- algebra -----------------------------------------------------------------

    def multiply(self, other: "GFMatrix") -> "GFMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        other_columns = [
            [other._rows[k][j] for k in range(other.nrows)] for j in range(other.ncols)
        ]
        return GFMatrix(
            [
                [gf_dot(row, column) for column in other_columns]
                for row in self._rows
            ]
        )

    def multiply_vector(self, vector: Sequence[int]) -> List[int]:
        if len(vector) != self.ncols:
            raise ValueError(f"vector length {len(vector)} != ncols {self.ncols}")
        return [gf_dot(row, vector) for row in self._rows]

    def inverse(self) -> "GFMatrix":
        """Gauss–Jordan inverse; raises ``ValueError`` when singular.

        Each row of the ``[A | I]`` working matrix is one ``bytes``
        object, so scaling a row is a ``translate`` and eliminating a
        column from a row is one XOR of two wide integers.
        """
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have inverses")
        n = self.nrows
        width = 2 * n
        work = [
            bytes(row) + bytes(i) + b"\x01" + bytes(n - 1 - i)
            for i, row in enumerate(self._rows)
        ]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col]), None)
            if pivot_row is None:
                raise ValueError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot_bytes = work[col].translate(_mul_table(gf_inv(work[col][col])))
            work[col] = pivot_bytes
            for r in range(n):
                factor = work[r][col]
                if r != col and factor:
                    scaled = pivot_bytes.translate(_mul_table(factor))
                    work[r] = (
                        int.from_bytes(work[r], "big") ^ int.from_bytes(scaled, "big")
                    ).to_bytes(width, "big")
        return GFMatrix([list(row[n:]) for row in work])

    def rank(self) -> int:
        """Rank via forward elimination on a working copy."""
        work = [list(row) for row in self._rows]
        rank = 0
        for col in range(self.ncols):
            pivot_row = next(
                (r for r in range(rank, self.nrows) if work[r][col] != 0), None
            )
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pivot = work[rank][col]
            for r in range(rank + 1, self.nrows):
                if work[r][col] != 0:
                    factor = gf_div(work[r][col], pivot)
                    work[r] = [
                        value ^ gf_mul(factor, pivot_value)
                        for value, pivot_value in zip(work[r], work[rank])
                    ]
            rank += 1
            if rank == self.nrows:
                break
        return rank

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self._rows[i][j] == (1 if i == j else 0)
            for i in range(self.nrows)
            for j in range(self.ncols)
        )
