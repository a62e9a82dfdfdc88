"""The number of ideals of codimension n of F_p[x^±1, y^±1], by linear
algebra over F_p, for checking C_n(p) against its definition.

An ideal I of codimension n of R = F_p[x^±1, y^±1] is the same as a
triple (X, Y, v) up to a change of basis: R/I = F_p^n, X and Y are the
commuting invertible matrices of multiplication by x and by y, and v, the
image of 1, generates F_p^n under X and Y (v is cyclic); I is the
annihilator of v.  GL_n(F_p) acts freely on such triples and transitively
on the nonzero v, so the number of ideals is

    (p^n - 1) * #{(X, Y) : e_1 cyclic} / |GL_n(F_p)|.

Plain loops over every matrix; meant for n <= 3 and small p.  Imports
nothing from hilbtorus.
"""

from itertools import product


def reduce(rows, width, p):
    """The reduced row echelon form over F_p of a list of vectors of the
    given width, and its pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def rank(rows, p):
    """The rank over F_p of a nonempty list of vectors."""
    return len(reduce(rows, len(rows[0]), p)[1])


def null_space(rows, width, p):
    """A basis over F_p of the vectors x with rows . x = 0."""
    rows, pivots = reduce(rows, width, p)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        x = [0] * width
        x[free] = 1
        for i, col in enumerate(pivots):
            x[col] = -rows[i][free] % p
        basis.append(x)
    return basis


def apply(m, v, p):
    """The matrix m (a tuple of rows) times the vector v, mod p."""
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)


def centralizer(x, n, p):
    """Every n x n matrix Y over F_p with XY = YX, from a basis of the
    solutions of the n^2 linear equations (XY - YX)_(i,j) = 0 in the
    entries Y_(k,l), unknown k * n + l."""
    equations = []
    for i, j in product(range(n), repeat=2):
        eq = [0] * (n * n)
        for k in range(n):
            eq[k * n + j] += x[i][k]  # (XY)_(i,j) = sum_k X_(i,k) Y_(k,j)
            eq[i * n + k] -= x[k][j]  # (YX)_(i,j) = sum_k Y_(i,k) X_(k,j)
        equations.append([c % p for c in eq])
    basis = null_space(equations, n * n, p)
    for weights in product(range(p), repeat=len(basis)):
        flat = [sum(w * b[e] for w, b in zip(weights, basis)) % p
                for e in range(n * n)]
        yield tuple(tuple(flat[k * n:(k + 1) * n]) for k in range(n))


def is_cyclic(x, y, v, n, p):
    """Whether the vectors X^a Y^b v span F_p^n, by the rank of those with
    a + b < n: the span of the monomials of degree <= k grows with k until
    the first k at which it does not, and it is then closed under X and Y,
    so it stops by k = n - 1."""
    layer, vectors = [v], [v]
    for _ in range(n - 1):  # the next layer, a + b one higher
        layer = [apply(x, w, p) for w in layer] + [apply(y, layer[-1], p)]
        vectors += layer
    return rank(vectors, p) == n


def ideal_count(n, p):
    """The number of ideals of codimension n of F_p[x^±1, y^±1]."""
    matrices = [tuple(tuple(flat[k * n:(k + 1) * n]) for k in range(n))
                for flat in product(range(p), repeat=n * n)]
    invertible = {m for m in matrices if rank(m, p) == n}
    e1 = tuple(int(k == 0) for k in range(n))
    pairs = sum(1 for x in invertible for y in centralizer(x, n, p)
                if y in invertible and is_cyclic(x, y, e1, n, p))
    count, rest = divmod((p ** n - 1) * pairs, len(invertible))
    assert rest == 0, (n, p, pairs, len(invertible))
    return count
