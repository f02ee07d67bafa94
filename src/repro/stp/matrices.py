"""Logic matrices and structural matrices used by semi-tensor product algebra.

The semi-tensor product (STP) framework encodes Boolean values as 2x1
*logic vectors* and Boolean operators as 2x(2^k) *structural matrices*
(Definition 2 of the paper).  Throughout this package the encoding follows
the paper:

* ``True``  is the column vector ``[1, 0]^T`` (written ``delta_2^1``),
* ``False`` is the column vector ``[0, 1]^T`` (written ``delta_2^2``).

A structural matrix ``M_sigma`` of a k-ary operator ``sigma`` has one column
per input combination.  Column ``j`` (0-based, counting from the left) holds
the logic vector of ``sigma`` applied to the input combination whose bits,
read most-significant first, are ``(1 - bit)`` of the binary expansion of
``j`` -- i.e. column 0 corresponds to all-True inputs and the last column to
all-False inputs.  With this convention ``sigma(x1, ..., xk)`` equals
``M_sigma <| x1 <| ... <| xk`` where ``<|`` denotes the STP.

All matrices are small dense ``numpy`` integer arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "TRUE_VECTOR",
    "FALSE_VECTOR",
    "bool_to_vector",
    "vector_to_bool",
    "is_logic_vector",
    "is_logic_matrix",
    "identity",
    "structural_matrix_from_truth_table",
    "truth_table_from_structural_matrix",
    "structural_matrix",
    "swap_matrix",
    "power_reducing_matrix",
    "front_maintaining_operator",
    "rear_maintaining_operator",
    "M_NOT",
    "M_AND",
    "M_OR",
    "M_XOR",
    "M_XNOR",
    "M_NAND",
    "M_NOR",
    "M_IMPLIES",
    "M_EQUIV",
    "M_BUF",
    "OPERATOR_MATRICES",
]

_INT = np.int64

#: Logic vector for Boolean ``True`` (``delta_2^1``).
TRUE_VECTOR = np.array([[1], [0]], dtype=_INT)

#: Logic vector for Boolean ``False`` (``delta_2^2``).
FALSE_VECTOR = np.array([[0], [1]], dtype=_INT)


def bool_to_vector(value: bool) -> np.ndarray:
    """Return the 2x1 logic vector encoding ``value``.

    >>> bool_to_vector(True).ravel().tolist()
    [1, 0]
    """
    return TRUE_VECTOR.copy() if value else FALSE_VECTOR.copy()


def vector_to_bool(vector: np.ndarray) -> bool:
    """Decode a 2x1 logic vector back into a Python bool.

    Raises :class:`ValueError` if ``vector`` is not a valid logic vector.
    """
    flat = np.asarray(vector).ravel()
    if flat.shape != (2,):
        raise ValueError(f"logic vector must have exactly two entries, got shape {np.asarray(vector).shape}")
    if flat[0] == 1 and flat[1] == 0:
        return True
    if flat[0] == 0 and flat[1] == 1:
        return False
    raise ValueError(f"not a logic vector: {flat.tolist()}")


def is_logic_vector(array: np.ndarray) -> bool:
    """Return True if ``array`` is a 2x1 (or length-2) logic vector."""
    flat = np.asarray(array).ravel()
    if flat.shape != (2,):
        return False
    return sorted(flat.tolist()) == [0, 1]


def is_logic_matrix(array: np.ndarray) -> bool:
    """Return True if every column of ``array`` is a logic vector.

    This is the paper's Definition 2 check for a 2 x 2^n logic matrix,
    except that the number of columns is allowed to be any positive
    integer (structural matrices of k-ary operators have 2^k columns).
    """
    matrix = np.asarray(array)
    if matrix.ndim != 2 or matrix.shape[0] != 2 or matrix.shape[1] < 1:
        return False
    column_sums_ok = np.all(matrix.sum(axis=0) == 1)
    binary_ok = np.all((matrix == 0) | (matrix == 1))
    return bool(column_sums_ok and binary_ok)


def identity(n: int) -> np.ndarray:
    """Integer identity matrix of dimension ``n``."""
    if n < 1:
        raise ValueError("identity dimension must be positive")
    return np.eye(n, dtype=_INT)


def structural_matrix_from_truth_table(truth_bits: Sequence[int], arity: int | None = None) -> np.ndarray:
    """Build the 2 x 2^k structural matrix of an operator from its truth table.

    ``truth_bits`` lists the operator outputs for input combinations in
    *descending* order, i.e. ``truth_bits[0]`` is the output for the
    all-True assignment and ``truth_bits[-1]`` the output for the all-False
    assignment.  This matches the column convention of structural matrices
    and the paper's "read from right to left" remark (the usual truth table
    listed for increasing input integers is simply reversed).

    >>> structural_matrix_from_truth_table([1, 0, 0, 0]).tolist()  # AND
    [[1, 0, 0, 0], [0, 1, 1, 1]]
    """
    bits = [int(bool(b)) for b in truth_bits]
    size = len(bits)
    if size == 0 or size & (size - 1):
        raise ValueError(f"truth table length must be a power of two, got {size}")
    if arity is not None and size != 1 << arity:
        raise ValueError(f"truth table length {size} does not match arity {arity}")
    matrix = np.zeros((2, size), dtype=_INT)
    for column, bit in enumerate(bits):
        matrix[0 if bit else 1, column] = 1
    return matrix


def truth_table_from_structural_matrix(matrix: np.ndarray) -> list[int]:
    """Inverse of :func:`structural_matrix_from_truth_table`."""
    m = np.asarray(matrix)
    if not is_logic_matrix(m):
        raise ValueError("not a logic matrix")
    return [int(m[0, column]) for column in range(m.shape[1])]


# ---------------------------------------------------------------------------
# Structural matrices of the common operators.
# Columns are ordered (T,T), (T,F), (F,T), (F,F) for binary operators.
# ---------------------------------------------------------------------------

M_NOT = structural_matrix_from_truth_table([0, 1])
M_BUF = structural_matrix_from_truth_table([1, 0])
M_AND = structural_matrix_from_truth_table([1, 0, 0, 0])
M_OR = structural_matrix_from_truth_table([1, 1, 1, 0])
M_XOR = structural_matrix_from_truth_table([0, 1, 1, 0])
M_XNOR = structural_matrix_from_truth_table([1, 0, 0, 1])
M_NAND = structural_matrix_from_truth_table([0, 1, 1, 1])
M_NOR = structural_matrix_from_truth_table([0, 0, 0, 1])
M_IMPLIES = structural_matrix_from_truth_table([1, 0, 1, 1])
M_EQUIV = M_XNOR

#: Mapping from operator name to structural matrix.
OPERATOR_MATRICES: dict[str, np.ndarray] = {
    "not": M_NOT,
    "buf": M_BUF,
    "and": M_AND,
    "or": M_OR,
    "xor": M_XOR,
    "xnor": M_XNOR,
    "nand": M_NAND,
    "nor": M_NOR,
    "implies": M_IMPLIES,
    "equiv": M_EQUIV,
}


def structural_matrix(name: str) -> np.ndarray:
    """Look up the structural matrix of a named operator.

    >>> structural_matrix("nand").tolist()
    [[0, 1, 1, 1], [1, 0, 0, 0]]
    """
    key = name.lower()
    if key not in OPERATOR_MATRICES:
        raise KeyError(f"unknown operator {name!r}; known: {sorted(OPERATOR_MATRICES)}")
    return OPERATOR_MATRICES[key].copy()


def swap_matrix(m: int = 2, n: int = 2) -> np.ndarray:
    """Return the (mn x mn) swap matrix ``W_[m,n]``.

    The swap matrix reorders a Kronecker product of vectors:
    ``W_[m,n] (x kron y) = y kron x`` for ``x`` of dimension m and ``y`` of
    dimension n.  For logic vectors (m = n = 2) this realises variable
    swapping when normalising an STP expression into canonical form.
    """
    if m < 1 or n < 1:
        raise ValueError("swap matrix dimensions must be positive")
    w = np.zeros((m * n, m * n), dtype=_INT)
    for i in range(m):
        for j in range(n):
            # column index of (e_i kron e_j), row index of (e_j kron e_i)
            w[j * m + i, i * n + j] = 1
    return w


def power_reducing_matrix() -> np.ndarray:
    """Return the power-reducing matrix ``M_r`` with ``x kron x = M_r x``.

    ``M_r`` is the 4x2 matrix ``delta_4[1, 4]``: it maps ``True`` to the
    first basis vector of dimension 4 (True kron True) and ``False`` to the
    fourth (False kron False).  It is used to merge repeated variables when
    computing the canonical form of an STP expression.
    """
    m = np.zeros((4, 2), dtype=_INT)
    m[0, 0] = 1
    m[3, 1] = 1
    return m


def front_maintaining_operator() -> np.ndarray:
    """Return the front-maintaining operator ``D_f`` with ``D_f x y = x``."""
    # Columns: (T,T)->T, (T,F)->T, (F,T)->F, (F,F)->F
    return structural_matrix_from_truth_table([1, 1, 0, 0])


def rear_maintaining_operator() -> np.ndarray:
    """Return the rear-maintaining operator ``D_r`` with ``D_r x y = y``."""
    # Columns: (T,T)->T, (T,F)->F, (F,T)->T, (F,F)->F
    return structural_matrix_from_truth_table([1, 0, 1, 0])
