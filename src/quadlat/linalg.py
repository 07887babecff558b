"""Exact integer and rational matrix kernels.

All arithmetic runs over Python's arbitrary-precision ints; there is no
floating point and no overflow.  A ``RatMatrix`` is one ``IntMatrix`` of
numerators over one denominator, in lowest terms: rational solves,
products and integrality tests run on that pair, and a ``Fraction`` is
built only where an entry is read, or converted by the public
constructor.  One fraction-free (Bareiss) update, ``_bareiss_step``, runs
under two pivot rules: ``det_exact``'s row swap, whose forward pass on
[m | b] plus a back substitution is the solve core ``_solve_core``, and
``_symmetric_elimination``'s congruence (``Lattice`` det and signature,
the norm search's square completion).  Every entry it writes is a minor
of the input (Sylvester's identity), so a row whose lead is zero is not
rescaled at each step: a per-row list keeps the pivot each row was last
written under, and a row is brought up to date when it is next used.  On
An(n) and block-diagonal Grams most rows have a zero lead at most steps;
rescaling them all would make the elimination of An(n) cubic in n, not
quadratic.  The callers read only the pivot rows, from the diagonal on.
The solve core reads off the unknowns that unit rows ±e_j fix
(``_unit_rows``), unscaled, and eliminates only the other rows.
``solve_rational`` reduces den against the eliminated unknowns alone and
scales the fixed ones only when some of den is left, so the 27 unit rows
of the k3 extension system are neither multiplied nor divided.
The one elimination mod a prime is ``_reduce_mod``, one row against an
echelon basis; ``_echelon_mod`` folds it over a list of rows (``brauer``,
form isomorphism).  Matrices are immutable; routines are pure.  An
``IntMatrix`` keeps its sparse rows.  A builder that knows them passes
them to ``IntMatrix._trusted``: the Lambda2d Gram, the iota2d basis and
the complement it carries, and the rows ``kernel_basis`` splits off and
pads.  Any other matrix fills them when it is first the right operand
of a product or a factor of a congruence.  A Gram's congruence
B·G·Bᵀ (induced Grams, isometry checks, discriminant pairings,
overlattice Grams) is one kernel, ``_congruence``, that builds only the
upper half of the symmetric result.  A row of B with one nonzero entry
pairs through B's column lists and touches only the nonzeros it meets;
the k3 bases (iota2d, the polarization complement, the E8(-1) swap and
its extension) are almost all such rows.  Other rows, and so a dense B,
take the row-by-row pairing.

The normal forms use the naive pivot-reduction algorithms rather than
modular or LLL-accelerated variants: quick on the rank ≤ 28 lattices of
K3 geometry, slow near the rank cap (``info "gen(2)^1000"``, in effect one
rank-1000 Smith form, takes 35–45 s with CPython 3.11 on a 2-core host).
Their row and column steps run only where there is work: a 2-row or
2-column gcd step only for a nonzero entry to clear against the nonzero
pivot, a row update only for a nonzero multiplier, and a Smith column step
only on the rows from the pivot down, or on the pivot row alone while the
pivot column is zero below the pivot and the pivot divides the entry.
The block-sparse Grams and unit-row bases of K3 geometry leave most
entries zero.  Each form is a public wrapper over one private core,
``_smith`` or ``_hnf``, that carries a transform only for a caller that
reads it.  No caller in the package reads Smith's V;
``lattice.discriminant_group`` reads U, and ``saturation_index`` and
``brauer.quotient_structure`` only S.  ``kernel_basis`` reads the T of its
first Hermite form, which stops at an echelon form, and not of its second,
and ``glue._glue_basis`` reads only H.  ``kernel_basis`` first splits off
the zero rows of its input: each gives a unit vector of the kernel, the
only unit vectors its transform rows can hold, and both Hermite passes run
on the other rows (the polarization complement's 22×1 column has 2 nonzero
rows).  Every kernel it returns carries its sparse rows.  ``_hnf`` itself
has no such split, so ``_glue_basis`` pays nothing for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import index as _as_index
from typing import Iterable, Sequence

from .errors import NonSquare, SingularMatrix


class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries; rows are
    exposed as tuples: ``m[i][j]`` is the entry in row i, column j.  An
    explicit ``ncols`` is required when there are no rows.  ``_sparse``
    holds the sparse rows: given by a builder that knows them, or scanned
    once a product needs them.
    """

    __slots__ = ("_data", "_ncols", "_sparse")

    def __init__(self, rows: Iterable[Sequence[int]], *, ncols: int | None = None):
        data = []
        for row in rows:
            t = tuple(map(_as_index, row))
            if ncols is None:
                ncols = len(t)
            elif len(t) != ncols:
                raise ValueError("ragged rows")
            data.append(t)
        if ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self._data = tuple(data)
        self._ncols = ncols
        self._sparse = None

    @classmethod
    def _trusted(
        cls, data: tuple[tuple[int, ...], ...], ncols: int, sparse: list[list[tuple[int, int]]] | None = None
    ) -> "IntMatrix":
        # rows the package built itself: tuples of ints, all of length ncols;
        # ``sparse``, when the builder knows it, is their (column, entry)
        # pairs of nonzero entries, as ``_sparse_rows`` would scan them
        m = object.__new__(cls)
        m._data = data
        m._ncols = ncols
        m._sparse = sparse
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @property
    def nrows(self) -> int:
        return len(self._data)

    @property
    def ncols(self) -> int:
        return self._ncols

    def __getitem__(self, i: int) -> tuple:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def tolist(self) -> list[list[int]]:
        return list(map(list, self._data))

    def transpose(self) -> "IntMatrix":
        cols = tuple(zip(*self._data)) if self._data else ((),) * self._ncols
        return self._trusted(cols, self.nrows)

    def stack(self, other: "IntMatrix | RatMatrix") -> "IntMatrix | RatMatrix":
        if isinstance(other, RatMatrix):  # a rational stack, as @ gives through __rmatmul__
            return self.to_rat().stack(other)
        if self._ncols != other.ncols:
            raise ValueError("shape mismatch in vertical stack")
        return self._trusted(self._data + other._data, self._ncols)

    def scale(self, k: int) -> "IntMatrix":
        k = _as_index(k)
        return self._trusted(tuple([tuple([k * x for x in row]) for row in self._data]), self._ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self._ncols == other._ncols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._ncols, self._data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self._ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # Row i of the product accumulates a_ik·(row k of other) over the
        # nonzero a_ik, touching only the nonzero entries of that row:
        # every standard Gram and embedding basis is block-sparse.  Those
        # (column, entry) pairs are built once per matrix, then only read.
        width = other._ncols
        sparse_rows = other._sparse_rows()
        out = []
        for row in self._data:
            acc = [0] * width
            for a, nonzero in zip(row, sparse_rows):
                if a:
                    for j, b in nonzero:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), width)

    def _sparse_rows(self) -> list[list[tuple[int, int]]]:
        # the (column, entry) pairs of each row's nonzero entries, built once
        if self._sparse is None:
            self._sparse = [[(j, b) for j, b in enumerate(row) if b] for row in self._data]
        return self._sparse

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self._ncols != other.ncols:
            raise ValueError("shape mismatch in matrix sum")
        rows = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self._data, other._data))
        return IntMatrix._trusted(rows, self._ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def is_symmetric(self) -> bool:
        if self.nrows != self._ncols:
            return False
        return all(
            self._data[i][j] == self._data[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self._ncols)
        )

    def to_rat(self) -> "RatMatrix":
        return RatMatrix._over(self, 1)

    def __repr__(self) -> str:
        return f"IntMatrix({self.tolist()!r})"


class RatMatrix:
    """Immutable matrix of exact rationals, stored as one integer matrix
    over one denominator: ``num/den`` in lowest terms, den > 0 being the
    least common denominator of the entries, so two equal matrices store
    the same pair.  Shapes, products and the integrality test run on the
    pair.  ``Fraction``s, each in lowest terms with a positive denominator,
    are built only when an entry is read, and are not kept.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, rows: Iterable[Sequence], *, ncols: int | None = None):
        # each entry through Fraction once; IntMatrix checks the shape
        fracs = [tuple(map(Fraction, row)) for row in rows]
        den = lcm(*(x.denominator for row in fracs for x in row))
        self._num = IntMatrix([[x.numerator * (den // x.denominator) for x in row] for row in fracs], ncols=ncols)
        self._den = den

    @classmethod
    def _over(cls, num: IntMatrix, den: int) -> "RatMatrix":
        # num/den for den > 0: with their common gcd g divided out, den/g is
        # the least common denominator of the entries
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            num, den = IntMatrix._trusted(tuple([tuple([x // g for x in row]) for row in num]), num.ncols), den // g
        return cls._trusted(num, den)

    @classmethod
    def _trusted(cls, num: IntMatrix, den: int) -> "RatMatrix":
        # num/den already in lowest terms: den > 0 and gcd(den, num) = 1
        m = object.__new__(cls)
        m._num, m._den = num, den
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._over(IntMatrix.identity(n), 1)

    def _numerators(self) -> tuple[IntMatrix, int]:
        # the one way a rational matrix enters integer arithmetic: the stored pair
        return self._num, self._den

    @property
    def nrows(self) -> int:
        return self._num.nrows

    @property
    def ncols(self) -> int:
        return self._num.ncols

    def __len__(self) -> int:
        return len(self._num)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        if isinstance(i, slice):  # a tuple of rows, as IntMatrix gives
            return tuple(map(self.__getitem__, range(len(self._num))[i]))
        den = self._den
        return tuple([Fraction(x, den) for x in self._num[i]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self._num)))

    def tolist(self) -> list[list[Fraction]]:
        return list(map(list, self))

    def transpose(self) -> "RatMatrix":
        return RatMatrix._over(self._num.transpose(), self._den)

    def stack(self, other) -> "RatMatrix":
        # both parts over the lcm of their denominators, which is the least
        # common one; IntMatrix.stack checks the widths
        b, den_b = other._numerators() if isinstance(other, RatMatrix) else (other, 1)
        den = lcm(self._den, den_b)
        return RatMatrix._over(self._num.scale(den // self._den).stack(b.scale(den // den_b)), den)

    def scale(self, k) -> "RatMatrix":
        k = Fraction(k)
        return RatMatrix._over(self._num.scale(k.numerator), self._den * k.denominator)

    def __matmul__(self, other) -> "RatMatrix":
        # one integer product of the numerators
        if not isinstance(other, (IntMatrix, RatMatrix)):
            return NotImplemented
        b, den_b = other._numerators() if isinstance(other, RatMatrix) else (other, 1)
        return RatMatrix._over(self._num @ b, self._den * den_b)

    def __rmatmul__(self, other) -> "RatMatrix":
        # IntMatrix @ RatMatrix, which IntMatrix.__matmul__ declines
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return RatMatrix._over(other @ self._num, self._den)

    def is_integral(self) -> bool:
        return self._den == 1

    def to_int(self) -> IntMatrix:
        if self._den != 1:
            raise ValueError("matrix has non-integer entries")
        return self._num

    def common_denominator(self) -> int:
        return self._den

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RatMatrix({[[str(x) for x in row] for row in self]!r})"


def _congruence(b: IntMatrix, g: IntMatrix) -> IntMatrix:
    """B·G·Bᵀ for a symmetric G, as one symmetric product.

    Entry (i, j) is built for j ≥ i only, then mirrored: the result is
    symmetric.  A row of B with one nonzero entry, a·e_k, pairs through
    G's sparse row k and B's column lists (column l: the pairs (j, B[j][l])
    with B[j][l] ≠ 0), so entry (i, j) = a·Σ_l G[k][l]·B[j][l] touches only
    those nonzeros.  The column lists are built at the first such row,
    from that row down.  Any other row i of B·G
    accumulates over the nonzero entries of row i of B, each times a row of
    G's kept sparse rows, and its pairing with row j of B runs over B's
    nonzero columns in row j; a dense B does only that.  It equals
    ``b @ g @ b.transpose()`` entry for entry.
    """
    if b.ncols != g.nrows:
        raise ValueError("shape mismatch in matrix product")
    g_rows, b_rows = g._sparse_rows(), b._sparse_rows()
    n, width = b.nrows, g.ncols
    out = [[0] * n for _ in range(n)]
    cols = None
    for i, row in enumerate(b_rows):
        out_i = out[i]
        if len(row) == 1:
            if cols is None:  # from row i on: no later row pairs with a row above it
                cols = [[] for _ in range(b.ncols)]
                for j in range(i, n):
                    for l, y in b_rows[j]:
                        cols[l].append((j, y))
            ((k, a),) = row
            for l, x in g_rows[k]:
                ax = a * x
                for j, y in cols[l]:
                    if j >= i:
                        out_i[j] = out[j][i] = out_i[j] + ax * y
            continue
        acc = [0] * width
        for k, a in row:
            for j, x in g_rows[k]:
                acc[j] += a * x
        for j in range(i, n):
            p = 0
            for k, x in b_rows[j]:
                p += acc[k] * x
            out_i[j] = out[j][i] = p
    return _frozen(out, n)


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    """Block-diagonal assembly of integer matrices."""
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    out = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            out[r0 + i][c0 : c0 + b.ncols] = list(b[i])
        r0 += b.nrows
        c0 += b.ncols
    return _frozen(out, ncols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a·x + b·y and g ≥ 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _frozen(rows: list[list[int]], ncols: int) -> IntMatrix:
    # wrap the int rows an algorithm here produced, skipping re-validation
    return IntMatrix._trusted(tuple(map(tuple, rows)), ncols)


def _ident_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _addmul_row(rows: list[list[int]], dst: int, src: int, k: int) -> None:
    # row dst += k·(row src), for k ≠ 0
    rdst = rows[dst]
    for j, v in enumerate(rows[src]):
        if v:
            rdst[j] += k * v


def _gcd_row_op(mat: list[list[int]], trans: list[list[int]] | None, pr: int, i: int, col: int) -> None:
    # Unimodular 2-row operation putting gcd(mat[pr][col], mat[i][col])
    # at (pr, col) and zero at (i, col); both entries are nonzero, the
    # callers skipping an entry that is already zero.  trans, when carried,
    # takes the same operation.
    a, b = mat[pr][col], mat[i][col]
    if b % a == 0:
        q = b // a
        _addmul_row(mat, i, pr, -q)
        if trans is not None:
            _addmul_row(trans, i, pr, -q)
        return
    g, x, y = _xgcd(a, b)
    af, bf = a // g, b // g
    for m in (mat,) if trans is None else (mat, trans):
        rp, ri = m[pr], m[i]
        m[pr] = [x * p + y * q for p, q in zip(rp, ri)]
        m[i] = [-bf * p + af * q for p, q in zip(rp, ri)]


def _gcd_col_op(
    mat: list[list[int]], trans: list[list[int]] | None, pc: int, j: int, row: int, dirty: bool
) -> bool:
    # Column analogue of _gcd_row_op, run on the rows of mat from ``row``
    # on: the rows above it are already zero in both columns.  Unless
    # ``dirty``, column pc is zero below ``row`` too, so a step whose entry
    # the pivot divides changes only mat[row][j], and no other row of mat is
    # read.  trans, when carried, accumulates the right factor over all its
    # rows.  Returns whether it took a gcd step, which may leave column pc
    # nonzero below ``row``.
    a, b = mat[row][pc], mat[row][j]
    if b % a == 0:
        q = b // a
        rows = mat[row:] if dirty else mat[row : row + 1]
        for r in rows if trans is None else rows + trans:
            if r[pc]:
                r[j] -= q * r[pc]
        return False
    g, x, y = _xgcd(a, b)
    af, bf = a // g, b // g
    for r in mat[row:] if trans is None else mat[row:] + trans:
        p, q = r[pc], r[j]
        r[pc] = x * p + y * q
        r[j] = -bf * p + af * q
    return True


def _unit_rows(m: IntMatrix) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """The rows ±e_j of m on distinct columns, as {j: (i, ±1)} for row i,
    and the indices of the other rows, for ``_solve_core``.  A row ±e_j
    whose column an earlier row took is one of the others."""
    units: dict[int, tuple[int, int]] = {}
    rest = []
    width = m.ncols - 1
    for i, row in enumerate(m):
        if row.count(0) == width:
            unit = 1 if 1 in row else -1
            if unit in row and (j := row.index(unit)) not in units:
                units[j] = (i, unit)
                continue
        rest.append(i)
    return units, rest


def _smith(
    m: IntMatrix, left: bool, right: bool
) -> tuple[list[list[int]] | None, list[list[int]], list[list[int]] | None]:
    """The Smith core: (U, S, V) as lists of rows, with U·m·V = S; U is
    None unless ``left`` and V None unless ``right``, and a transform that
    is not carried costs nothing.  After the row steps at a pivot, its
    column is zero below it; until a column step takes a gcd, a column
    step whose entry the pivot divides clears that one entry of the pivot
    row (and updates V), and the re-dirtied-column test runs only after a
    gcd column step."""
    r, c = m.nrows, m.ncols
    S = m.tolist()
    U = _ident_rows(r) if left else None
    V = _ident_rows(c) if right else None
    t = 0
    while t < min(r, c):
        # pivot: first nonzero entry of smallest magnitude in the working
        # block, scanned row by row; nothing beats magnitude 1
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = S[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            S[t], S[pi] = S[pi], S[t]
            if left:
                U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in S[t:] if V is None else S[t:] + V:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, r):
                if S[i][t]:
                    _gcd_row_op(S, U, t, i, t)
            dirty = False  # column t is zero below the pivot until a gcd column step
            for j in range(t + 1, c):
                if S[t][j]:
                    dirty |= _gcd_col_op(S, V, t, j, t, dirty)
            if dirty and any(S[i][t] for i in range(t + 1, r)):
                continue  # a gcd column step re-dirtied the pivot column
            p = S[t][t]
            if p in (1, -1):
                break  # a unit divides everything left
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if S[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _addmul_row(S, t, bad, 1)
            if left:
                _addmul_row(U, t, bad, 1)
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            if left:
                U[t] = [-x for x in U[t]]
        t += 1
    return U, S, V


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (U, S, V) with U·m·V = S, U and V unimodular, and S diagonal
    with non-negative invariant factors d1 | d2 | ... ; zero factors come
    last.  The package's own callers run the core, ``_smith``, with only
    the transforms they read: no caller reads V, the discriminant group
    reads U, and the saturation index and the Brauer quotient read S.
    """
    U, S, V = _smith(m, True, True)
    return _frozen(U, m.nrows), _frozen(S, m.ncols), _frozen(V, m.ncols)


def _hnf(
    rows: list[list[int]], ncols: int, transform: bool, echelon_only: bool = False
) -> tuple[list[list[int]], list[list[int]] | None]:
    """The Hermite core: (H, T) as lists of rows for the integer rows
    given, which it overwrites; T·rows = H, and T is None unless
    ``transform``.  With ``echelon_only`` it stops at an echelon form: the
    pivots keep their signs and the entries above them are not reduced.
    Those steps touch only pivot rows and their rows of T, so the zero rows
    and their rows of T are the same either way."""
    H, r = rows, len(rows)
    T = _ident_rows(r) if transform else None
    prow = 0
    for col in range(ncols):
        # smallest-magnitude nonzero below the pivot row keeps entries small
        piv = None
        best = None
        for i in range(prow, r):
            v = H[i][col]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                piv = i
        if piv is None:
            continue
        if piv != prow:
            H[prow], H[piv] = H[piv], H[prow]
            if transform:
                T[prow], T[piv] = T[piv], T[prow]
        for i in range(prow + 1, r):
            if H[i][col]:
                _gcd_row_op(H, T, prow, i, col)
        if not echelon_only:
            if H[prow][col] < 0:
                H[prow] = [-x for x in H[prow]]
                if transform:
                    T[prow] = [-x for x in T[prow]]
            p = H[prow][col]
            for i in range(prow):
                q = H[i][col] // p  # floor division leaves a remainder in [0, p)
                if q:
                    _addmul_row(H, i, prow, -q)
                    if transform:
                        _addmul_row(T, i, prow, -q)
        prow += 1
    return H, T


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form with transform.

    Returns (H, T) with T·m = H and T unimodular.  Normalization: pivots
    positive, entries above a pivot reduced into [0, pivot), zero rows
    last.  This makes H unique for the row lattice of m, so the form is
    idempotent.  The package's own callers run the core, ``_hnf``, and
    carry T only where they read it: the first HNF of ``kernel_basis``
    does, its second and ``glue._glue_basis`` do not.
    """
    H, T = _hnf(m.tolist(), m.ncols, True)
    return _frozen(H, m.ncols), _frozen(T, m.nrows)


def _rescale(row: list[int], k: int, num: int, den: int) -> None:
    # row[k:] times num/den, exact because each result is a minor
    for t in range(k, len(row)):
        if row[t]:
            row[t] = num * row[t] // den


def _bareiss_step(a: list[list[int]], k: int, prev: int, frame: list[int]) -> int:
    """The one fraction-free (Bareiss) update, at pivot k.  prev is the
    pivot before k (or 1), and ``frame[s]`` the pivot row s was last written
    under (1 for a row not yet written).  Row k is first brought up to date,
    times prev/frame[k], if it is behind.  Then each row s > k with a
    nonzero lead c becomes (p·row s − c·row k) / frame[s] across its full
    width, p = a[k][k] being the pivot it returns, and is now written under
    p.  Every entry is a minor of the input (Sylvester's identity), so each
    division is exact.  A row with a zero lead is not touched: its rescale
    by p/prev waits until it is next used.  The frames serve An(n) and
    block-diagonal Grams, whose rows have a zero lead at most steps.
    Column k below row k is left as it was, unread."""
    row_k = a[k]
    if frame[k] != prev:
        _rescale(row_k, k, prev, frame[k])
    p = row_k[k]
    width = range(k + 1, len(row_k))
    for s in range(k + 1, len(a)):
        row_s = a[s]
        c = row_s[k]
        if c:
            q = frame[s]
            for t in width:
                row_s[t] = (p * row_s[t] - c * row_k[t]) // q
            frame[s] = p
    return p


def _forward_pass(a: list[list[int]]) -> int:
    """``_bareiss_step`` down n rows of width ≥ n, a zero pivot swapped for the
    first row below with a nonzero lead; returns the det of the first n
    columns (0, stopping early, if they are singular).  The pivot rows
    a[k][k:] are then up to date and upper-triangular in the first n
    columns; the entries left of the diagonal are stale and unread."""
    n = len(a)
    sign = prev = 1
    frame = [1] * n
    for k in range(n):
        if a[k][k] == 0:
            for swap in range(k + 1, n):
                if a[swap][k]:
                    break
            else:
                return 0
            a[k], a[swap] = a[swap], a[k]
            frame[k], frame[swap] = frame[swap], frame[k]
            sign = -sign
        prev = _bareiss_step(a, k, prev, frame)
    return sign * prev


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination with row swaps."""
    if len(m._data) != m._ncols:
        raise NonSquare(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    return _forward_pass(m.tolist())


def _symmetric_elimination(m: IntMatrix) -> list[list[int]]:
    """Fraction-free elimination of a symmetric integer matrix; returns the
    pivot rows, which callers read from the diagonal on.  Row k is final once
    it gives pivot k: a[k][k:] is then row k of prev (pivot k-1, or 1) times
    the Schur complement of the eliminated block m_P, as ``_bareiss_step``
    leaves it.  A zero pivot takes one rule: for the first j > k with
    a[k][j] ≠ 0, the congruence e_k ← e_k + c·e_j, c = -1 if
    2a[k][j] + a[j][j] = 0 and c = 1 otherwise, makes the pivot
    2c·a[k][j] + a[j][j] ≠ 0.  It is unipotent and fixes m_P, so det and
    inertia stay (Sylvester's law) and later divisions stay exact.  Rows k
    and j are brought up to date first, since the rule reads and mixes
    them.  A zero row (no such j) ends it with the k rows before it: then
    det(m) = 0."""
    n = m.nrows
    a = m.tolist()
    prev = 1
    frame = [1] * n
    for k in range(n):
        row_k = a[k]
        if not row_k[k]:
            j = next((t for t in range(k + 1, n) if row_k[t]), None)
            if j is None:
                return a[:k]
            for s in (k, j):
                if frame[s] != prev:
                    _rescale(a[s], k, prev, frame[s])
                    frame[s] = prev
            row_j = a[j]
            c = -1 if 2 * row_k[j] + row_j[j] == 0 else 1
            for t in range(k, n):
                row_k[t] += c * row_j[t]
            for s in range(k, n):  # and the column, keeping the block symmetric
                a[s][k] += c * a[s][j]
        prev = _bareiss_step(a, k, prev, frame)
    return a


def _det_and_inertia(m: IntMatrix) -> tuple[int, int, int]:
    """(det, plus, minus) of a symmetric integer matrix: each pivot of
    ``_symmetric_elimination`` counts by its sign over the one before, and
    the last is det(m).  For a singular m only det = 0 counts."""
    pivots = [1] + [row[k] for k, row in enumerate(_symmetric_elimination(m))]
    minus = sum((p > 0) != (q > 0) for q, p in zip(pivots, pivots[1:]))
    return (pivots[-1] if len(pivots) > m.nrows else 0), len(pivots) - 1 - minus, minus


def _reduce_mod(x, basis: list[tuple[int, list[int]]], p: int) -> tuple[int, list[int]] | None:
    """The (pivot, row) that x adds to the echelon rows of basis mod a
    prime p, each 1 at its pivot and 0 at the pivots of the rows before it:
    x reduced mod p and against them, and scaled to a leading 1.  None
    when x lies in their span mod p."""
    x = [a % p for a in x]
    for pc, row in basis:
        f = x[pc]
        if f:
            x = [(a - f * b) % p for a, b in zip(x, row)]
    for lead, a in enumerate(x):
        if a:
            inv = pow(a, -1, p)
            return lead, [b * inv % p for b in x]
    return None


def _echelon_mod(rows, p: int) -> list[tuple[int, list[int]]]:
    """Row echelon form mod a prime p, as the (pivot, row) pairs that
    ``_reduce_mod`` adds for the rows in turn, sorted by pivot."""
    basis: list[tuple[int, list[int]]] = []
    for x in rows:
        if (new := _reduce_mod(x, basis, p)) is not None:
            basis.append(new)
    return sorted(basis)


def _kernel_hnf(rows: list[list[int]], ncols: int) -> list[list[int]]:
    # the two Hermite passes: the HNF of the left kernel of the given rows,
    # which the first pass overwrites
    H, T = _hnf(rows, ncols, True, echelon_only=True)
    rank = sum(1 for row in H if any(row))
    return _hnf(T[rank:], len(rows), False)[0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Saturated basis of the left kernel K = {x ∈ ℤ^r : x·m = 0}, in HNF.

    The rows of the unimodular transform that correspond to zero rows of
    an echelon form of m span K exactly, hence the result is a primitive
    sublattice of ℤ^r.  The first Hermite pass stops at that echelon form,
    since its zero rows and their transform rows are those of the full
    form; the second, a full HNF of those rows, makes the result unique.

    The zero rows Z of m split off before either pass.  Those kernel rows
    that are unit vectors ±e_j are exactly e_j for j in Z: e_j·m = 0 says
    row j of m is zero, and such a row is never a pivot or cleared, so its
    transform row stays +e_j.  K = ℤ^Z ⊕ K', K' the left kernel of the
    nonzero rows, padded with zeros at Z.  The rows e_j merged by pivot
    column with the padded rows of HNF(K') are in HNF: each pivot is
    positive, the entries above a pivot e_j are 0, and the rows e_j are 0
    above the pivots of K'.  A lattice has one HNF, so this is HNF(K), and
    both passes run on the nonzero rows alone.  The polarization complement
    of e + d·f in LambdaK3 is the kernel of a 22×1 column with 20 zero
    rows, so its passes run on a 2×1 column and a 1×2 row.  An m with no
    zero row is the case Z = ∅ of the same path.  The result carries its
    sparse rows: (j, 1) for e_j, and the nonzero entries of each padded
    row, placed as they are padded.
    """
    n = m.nrows
    # slot j holds the kernel row whose pivot is column j, with its sparse
    # row: e_j and [(j, 1)] for a zero row j
    by_pivot = [None if any(row) else ((0,) * j + (1,) + (0,) * (n - 1 - j), [(j, 1)]) for j, row in enumerate(m)]
    rest = [i for i, slot in enumerate(by_pivot) if slot is None]
    for h in _kernel_hnf([list(m[i]) for i in rest], m.ncols):
        row, sparse = [0] * n, []
        for i, x in zip(rest, h):
            if x:
                row[i] = x
                sparse.append((i, x))
        by_pivot[sparse[0][0]] = (tuple(row), sparse)  # its first nonzero is its pivot
    kept = [slot for slot in by_pivot if slot is not None]
    return IntMatrix._trusted(tuple(row for row, _ in kept), n, [sparse for _, sparse in kept])


def _solve_core(m: IntMatrix, b: IntMatrix) -> tuple[list[tuple], list[int], int]:
    """The solve core: (x, cols, den) for m·x = b, m square and non-singular.

    A row i of m that is ±e_j fixes x_j = ±b_i outright (``_unit_rows``).
    Those rows of x are ±b_i themselves, unscaled.  A second row ±e_j on
    a fixed column stays among the other rows, zero on the columns left,
    so the forward pass below finds m singular.  The other rows, without
    the fixed columns, are a square m' with |det m'| = |det m| = den
    (expand along the unit rows), and the fixed x_j move to their right
    side b'.  ``det_exact``'s forward pass
    on [m' | b'] leaves an upper-triangular A with A·x' = Y for the same
    x'; back substitution X_k = (den·Y_k − Σ_{j>k} a_kj·X_j) / a_kk then
    divides exactly, because den·x is integral (Cramer's rule).  Row j of
    x, for j in the eliminated columns ``cols``, is that X_j = den·x_j.
    """
    if m.nrows != m.ncols:
        raise NonSquare(f"solve needs a square matrix, got {m.nrows}x{m.ncols}")
    n = m.nrows
    if b.nrows != n:
        raise ValueError("right-hand side has wrong number of rows")
    units, rest = _unit_rows(m)
    fixed = {j: (unit, b[i]) for j, (i, unit) in units.items()}  # x_j = ±b_i
    cols = [j for j in range(n) if j not in fixed]
    a = []
    for i in rest:
        row, y = m[i], b[i]
        for j, (unit, b_j) in fixed.items():
            if c := unit * row[j]:
                y = [u - c * v for u, v in zip(y, b_j)]
        a.append([row[j] for j in cols] + list(y))
    den = abs(_forward_pass(a))
    if not den:
        raise SingularMatrix("matrix is singular")
    x: list = [()] * n
    for j, (unit, b_j) in fixed.items():
        x[j] = b_j if unit == 1 else tuple([-v for v in b_j])
    r = len(a)
    for k in reversed(range(r)):
        row = a[k]
        acc = [den * y for y in row[r:]]
        for j in range(k + 1, r):
            if c := row[j]:
                acc = [u - c * v for u, v in zip(acc, x[cols[j]])]
        x[cols[k]] = tuple([u // row[k] for u in acc])
    return x, cols, den


def solve_rational(m: IntMatrix, b: RatMatrix | IntMatrix) -> RatMatrix:
    """Exact solution x of m·x = b for square non-singular m.

    The right side's numerators go through the solve core ``_solve_core``,
    which gives the unknowns that unit rows fix as integers and the
    eliminated ones as X'/den.  Only X' and den enter the reduction:
    with g = gcd(den, X'), the solution is the eliminated rows X'/g and
    the fixed rows times den/g, over den/g, and those fixed rows are
    multiplied only when den/g > 1.  That pair is in lowest terms; a
    rational right side's denominator then joins it through ``_over``.
    """
    den_b = 1
    if isinstance(b, RatMatrix):
        b, den_b = b._numerators()
    x, cols, den = _solve_core(m, b)
    g = gcd(den, *chain.from_iterable(x[j] for j in cols))
    if g > 1:
        for j in cols:
            x[j] = tuple([v // g for v in x[j]])
        den //= g
    if den > 1:  # the rows that unit rows fixed, times den
        eliminated = set(cols)
        x = [row if j in eliminated else tuple([den * v for v in row]) for j, row in enumerate(x)]
    num = IntMatrix._trusted(tuple(x), b.ncols)
    if den_b == 1:
        return RatMatrix._trusted(num, den)
    return RatMatrix._over(num, den * den_b)


def invert_rational(m: IntMatrix) -> RatMatrix:
    """Exact inverse of a square integer matrix."""
    return solve_rational(m, IntMatrix.identity(m.nrows))
