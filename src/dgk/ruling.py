"""The Diophantine system governing rulings with two degenerate fibers.

Every singular fiber F of the relevant rulings is described by normalized
pairs (c_i/c_h, p_i/c_h), i < h, a last pair (c_h, 1) whose extra curves form
boundary (-2)-curves, and the intersection CE of its (-1)-curve with the
exceptional curve.  Writing kappa = c_h*CE + c_h' and
rho = kappa*CE + c_h'*CE + c_h', the global constraints are

    (1) d(n+2) + gamma - 2 = sum_F kappa(F) (uc1 + sum_{i<h} up_i)
    (2) n d^2 + gamma      = sum_F (kappa^2 sum_{i<h} uc_i up_i + rho(F))
    (3) d * |H1|           = prod_F uc1(F)
    (4) d                  = lcm_F uc1(F)

with d = E.F shared by all fibers.  For exactly two singular fibers with the
second one having two pairs these specialize to

    (5) d n + gamma - 2     = kappa (p + alpha c' + p') + kappa~ p~
    (6) d(gamma-2) - gamma  = kappa^2 (c - c')(alpha c' + p') - rho - rho~

where alpha = n + eps + K.E - 4 and h = 3 + alpha.  With d = c kappa =
c~ kappa~, (5) is (1) and (6) is d (1) - (2) on the two fibers that
:meth:`FiberTuple.fibers` lays out, so (5)/(6) are checked as (1)/(2):
:func:`check_ruling_equations` on :meth:`FiberTuple.scenario` is the one
residual route.

The solver works in integers only.  rho is kappa^2 for a fiber without a
boundary curve and (kappa^2 + 1)/2 for one with a single boundary curve, so
with d = c kappa twice (6) is the integer quadratic in kappa

    qa kappa^2 + qb kappa + qc = 0,
    qa = 2(c - c')(alpha c' + p') - A,  qb = -2c(gamma - 2),
    qc = 2 gamma - A0 - 2 rho~,

where (A, A0) = (2, 0) without and (1, 1) with the boundary curve on the
first fiber.  No pair is swept: T2 gives (c, p) = c' (d(T2), d(T2) - d'(T2))
and T1 at most len(T1) candidates (c', p') (:func:`_tail_pairs`), which fix
qa and qb; each kappa~ dividing c(gamma - 2) fixes qc, and kappa comes out
of isqrt of the discriminant and an exact division.  All of it reads T2
through d(T2) alone, so the solver takes one T1 and the search's twig
table as rows (d(T2), records): the kappa~ and kappa loops run once per
(head, d(T2)), and only p and p~ per record.  :func:`solve_two_fiber`
hands the rebuilt solutions, as a sorted :class:`dgk.predicates.Hits`, to
:func:`dgk.predicates.decide`, the decision pass of the searches.

One solution of (5)/(6) is one frozen :class:`FiberTuple`; its
:meth:`FiberTuple.fibers` is the one place the two fibers are laid out from
the tuple.  :class:`TwoFiberSolution` extends the record by the boundary
(b, T1, T2, T3) that :func:`contract_boundary` leaves after the fibers are
rebuilt and the chain through the section is minimalized.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from . import chains
from .barks import ExceptionalShape, fork_invariants
from .graphs import Fork, Weights, format_chain, require_admissible
from .pairs import CharPairSeq, reconstruct_fiber
from .predicates import Hit, Hits, decide


class _RulingFiberFields(NamedTuple):
    upairs: tuple[tuple[int, int], ...]
    c_h: int
    i0: int
    CE: int


class RulingFiber(_RulingFiberFields):
    """One singular fiber: normalized pairs, c_h, the position i0 of the
    boundary (-2)-curve meeting E (0 when there is none, and then c_h = 1)
    and CE."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.i0 == 0:
            if self.c_h != 1:
                raise ValueError("i0 = 0 requires c_h = 1")
        elif not 1 <= self.i0 < self.c_h:
            raise ValueError(f"i0 must lie in 1..{self.c_h - 1}, got {self.i0}")
        if self.CE < 0:
            raise ValueError("CE must be nonnegative")
        return self

    @property
    def uc1(self) -> int:
        return self.upairs[0][0]

    @property
    def c_h_prime(self) -> int:
        return self.c_h - self.i0 if self.i0 else 0

    @property
    def kappa(self) -> int:
        return self.c_h * self.CE + self.c_h_prime

    @property
    def rho(self) -> int:
        return (self.kappa + self.c_h_prime) * self.CE + self.c_h_prime

    def full_pairs(self) -> CharPairSeq:
        scaled = tuple((c * self.c_h, p * self.c_h) for c, p in self.upairs)
        return CharPairSeq(scaled + ((self.c_h, 1),))


class RulingScenario(NamedTuple):
    n: int
    gamma: int
    d: int
    fibers: tuple[RulingFiber, ...]
    h1_order: int


def check_ruling_equations(s: RulingScenario) -> tuple[int, int, int, int]:
    """Exact residuals (LHS - RHS) of equations (1)-(4)."""
    r1 = s.d * (s.n + 2) + s.gamma - 2
    r2 = s.n * s.d * s.d + s.gamma
    prod_uc1 = 1
    for f in s.fibers:
        kappa = f.kappa
        r1 -= kappa * (f.uc1 + sum(p for _, p in f.upairs))
        r2 -= kappa * kappa * sum(c * p for c, p in f.upairs) + f.rho
        prod_uc1 *= f.uc1
    r3 = s.d * s.h1_order - prod_uc1
    r4 = s.d - lcm(*(f.uc1 for f in s.fibers))
    return r1, r2, r3, r4


# ---------------------------------------------------------------------------
# boundary minimalization


class ContractionError(ValueError):
    """The boundary chain does not minimalize to an admissible fork."""


def _contract(items: list[list]) -> None:
    """Blow down the leftmost weight-1 entry [w, True] of the chain ``items``
    until none is left, lowering the weights of its neighbours."""
    while True:
        idx = next((i for i, (w, free) in enumerate(items) if w == 1 and free), None)
        if idx is None:
            return
        if idx > 0:
            items[idx - 1][0] -= 1
        if idx + 1 < len(items):
            items[idx + 1][0] -= 1
        del items[idx]


def minimalize_chain(weights: list[int]) -> list[int]:
    """Contract weight-1 entries of a chain until none remain."""
    items = [[w, True] for w in weights]
    _contract(items)
    ws = [w for w, _ in items]
    # weights only fall, so a weight <= 0 met after any contraction persists
    if len(ws) < len(weights) and any(w <= 0 for w in ws):
        raise ContractionError(f"contraction produced weight <= 0: {ws}")
    return ws


def contract_boundary(b: int, entries: list[tuple[int, bool]]) -> tuple[int, Weights]:
    """Minimalize the boundary chain on the far side of the branch vertex.

    ``b`` is the weight of the branch vertex Z1 and ``entries`` lists
    (weight, contractible) from Z1 to the far end of the second fiber.  Only
    contractible weight-1 entries are blown down, leftmost first.  Returns
    (b, T3) with T3 tip first.
    """
    items = [[b, False]] + [[w, free] for w, free in entries]
    _contract(items)
    b = items[0][0]
    t3 = tuple(w for w, _ in reversed(items[1:]))
    if b < 1:
        raise ContractionError(f"branch weight dropped to {b}")
    if not t3:
        raise ContractionError("third twig contracted away entirely")
    if any(w <= 1 for w in t3):
        raise ContractionError(f"third twig not admissible: {list(t3)}")
    return b, t3


# ---------------------------------------------------------------------------
# the two-fiber solver

# The predicates :func:`solve_two_fiber` decides by, the fiber-pairs file's.
SOLVER_PREDICATES = (
    "w2_delta_g", "noether", "bmy", "eps2_ii", "eps2_iii", "eps2_iv", "zar_b", "zar_delta",
    "zar_bk2", "square",
)


class _FiberTupleFields(NamedTuple):
    n: int
    gamma: int
    epsilon: int
    ke: int
    kappa: int
    kappa_t: int
    c: int
    p: int
    c_prime: int
    p_prime: int
    c_tilde: int
    p_tilde: int
    delta_f_size: int
    delta_ft_size: int


class FiberTuple(_FiberTupleFields):
    """One solution of (5)/(6): the pairs (c, p), (c', p') of the first fiber,
    (c~, p~) of the second, kappa and kappa~ and the number (0 or 1) of
    boundary curves on each fiber.  A kappa its fiber cannot carry raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a fiber with k boundary curves has kappa = (1 + k) CE + k, see fibers()
        for name, kappa, k in (
            ("kappa", self.kappa, self.delta_f_size),
            ("kappa_t", self.kappa_t, self.delta_ft_size),
        ):
            if (kappa - k) % (1 + k):
                raise ValueError(
                    f"{name} = {kappa} is not (1 + k) CE + k on a fiber with k = {k}"
                    " boundary curves"
                )
        return self

    @property
    def alpha(self) -> int:
        return self.n + self.epsilon + self.ke - 4

    @property
    def rho(self) -> int:
        return _rho(self.kappa, self.delta_f_size)

    @property
    def rho_t(self) -> int:
        return _rho(self.kappa_t, self.delta_ft_size)

    @property
    def d(self) -> int:
        return self.c * self.kappa

    def fibers(self) -> tuple[RulingFiber, RulingFiber]:
        """The two fibers.  The first has the pairs (c, p), alpha pairs
        (c', c') and (c', p'), the second the single pair (c~, p~); a fiber
        with k boundary curves has c_h = 1 + k, i0 = k and
        CE = (kappa - k)/(1 + k)."""
        c_pr, k, kt = self.c_prime, self.delta_f_size, self.delta_ft_size
        first = ((self.c, self.p),) + ((c_pr, c_pr),) * self.alpha + ((c_pr, self.p_prime),)
        second = ((self.c_tilde, self.p_tilde),)
        return (
            RulingFiber(first, 1 + k, k, (self.kappa - k) // (1 + k)),
            RulingFiber(second, 1 + kt, kt, (self.kappa_t - kt) // (1 + kt)),
        )

    def scenario(self, h1_order: int = 1) -> RulingScenario:
        """The two fibers as a scenario of (1)-(4), with d = c kappa."""
        return RulingScenario(self.n, self.gamma, self.d, self.fibers(), h1_order)


# the fields of a FiberTuple, then the boundary; a NamedTuple cannot extend another
_SolutionFields = NamedTuple("_SolutionFields", [
    *_FiberTupleFields.__annotations__.items(),
    ("b", int), ("t1", Weights), ("t2", Weights), ("t3", Weights), ("eshape", ExceptionalShape),
])


class TwoFiberSolution(_SolutionFields):
    """A :class:`FiberTuple`, with its check and its fibers, and the boundary
    its fibers rebuild: the branch weight b, the three twigs and the shape."""

    __slots__ = ()
    alpha, rho, rho_t, d = FiberTuple.alpha, FiberTuple.rho, FiberTuple.rho_t, FiberTuple.d
    fibers, scenario = FiberTuple.fibers, FiberTuple.scenario

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        FiberTuple(*self[:len(FiberTuple._fields)])  # FiberTuple's check of the kappas
        return self

    @property
    def d_of_d(self) -> int:
        return fork_invariants(Fork(self.b, (self.t1, self.t2, self.t3))).d

    @property
    def minus_dd_over_de(self) -> Fraction:
        return Fraction(-self.d_of_d, self.eshape.d)

    @property
    def gcd_c(self) -> int:
        return gcd(self.c, self.c_tilde)

    @property
    def rejected_by_square_gcd(self) -> bool:
        """The homology cross-check -d(D)/d(E) = gcd(uc1, uc1~)^2."""
        return self.minus_dd_over_de != self.gcd_c**2

    def sort_key(self) -> tuple:
        """The order of the solutions: the tuple's integers, then the
        shape's key and epsilon, then the boundary, its twigs as weights."""
        return (
            self.n,
            self.gamma,
            self.kappa,
            self.kappa_t,
            self.c,
            self.p,
            self.c_prime,
            self.p_prime,
            self.c_tilde,
            self.p_tilde,
            self.eshape.key_text,
            self.epsilon,
            self.b, self.t1, self.t2, self.t3,  # the boundary: two twig pairs never tie
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "kappa_tilde": self.kappa_t,
            "c": self.c,
            "p": self.p,
            "c_prime": self.c_prime,
            "p_prime": self.p_prime,
            "c_tilde": self.c_tilde,
            "p_tilde": self.p_tilde,
            "rho": self.rho,
            "rho_tilde": self.rho_t,
            "b": self.b,
            "t1": format_chain(self.t1),
            "t2": format_chain(self.t2),
            "t3": format_chain(self.t3),
            "eshape": self.eshape.key(),
            "epsilon": self.epsilon,
            "d": self.d,
            "d_of_d": self.d_of_d,
            "minus_dD_over_dE": str(self.minus_dd_over_de),
            "gcd_c_ctilde": self.gcd_c,
            "rejected_by_square_gcd": self.rejected_by_square_gcd,
        }


def _tail_pairs(t1: Weights, alpha: int) -> tuple[tuple[int, int, int], ...]:
    """The (k, c', p'), c' >= p' ascending, of the first fibers with branch
    T1, alpha pairs (c', c') and k in {0, 1} boundary curves.
    T1 = A + [2 + k] + B + R: A, [1], B is the chain of the (c', p') group,
    so d(A + [1] + B) = 1, c' = d(A) and p' = d(B), and
    R = [1 + ceil(c'/p'), 2, ..., 2] has alpha curves.  Needs
    len(T1) > alpha; the rebuilt fiber checks each pair.

    One pass of :func:`dgk.chains.continuants` reads every split for both k:
    d(A + [1] + B) = d(A) (d(B) - d(B[1:])) - d(A[:-1]) d(B), where the
    chain before an empty A, like the one after an empty B, has d = 0."""
    body, r = t1[:len(t1) - alpha], t1[len(t1) - alpha:]
    pre, suf = chains.continuants(body)
    pairs = []
    for i, w in enumerate(body):
        c_pr, p_pr = pre[i + 1], suf[i + 1]
        if w in (2, 3) and c_pr * (p_pr - suf[i + 2]) - pre[i] * p_pr == 1:
            if p_pr <= c_pr and r == ((1 - -c_pr // p_pr,) + (2,) * alpha)[:alpha]:
                pairs.append((w - 2, c_pr, p_pr))
    return tuple(pairs)


def _int_quadratic_roots(a: int, b: int, c: int) -> list[int]:
    """Integer roots of a x^2 + b x + c = 0, ascending; none when a = b = 0."""
    if a == 0:
        if b == 0 or c % b:
            return []
        return [-c // b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    return sorted({(-b + s) // (2 * a) for s in (r, -r) if (-b + s) % (2 * a) == 0})


def _rho(kappa: int, delta_size: int) -> int:
    """rho of a fiber: kappa^2 without boundary curves, (kappa^2 + 1)/2 with one."""
    return kappa * kappa if delta_size == 0 else (kappa * kappa + 1) // 2


def solve_two_fiber(t1: Weights, t2: Weights, eshape: ExceptionalShape) -> list[TwoFiberSolution]:
    """All two-fiber solutions with prescribed twigs T1 (second branch of the
    first fiber) and T2 (lower first-pair chain), checked against the
    predicate suite on the reconstructed boundary: the
    :func:`two_fiber_candidates` that pass :data:`SOLVER_PREDICATES`, sorted.

    The search is exhaustive over the bounds n < 4, kappa~ | c(gamma - 2),
    kappa~ <= 3c, with kappa an integer root of twice (6), a quadratic with
    integer coefficients (see the module docstring); (c', p') is read off
    T1.  T1 and T2 must be nonempty admissible chains; solutions with b
    outside {1, 2} are dropped.
    """
    require_admissible(t1, "T1")
    require_admissible(t2, "T2")
    check_two_fiber_shape(eshape)
    r = chains.chain_record(t2)
    found = two_fiber_candidates(t1, [(r.d, (r,))], eshape)
    if not found:  # most (T1, T2) have no solution: no Hits to sort or decide
        return []
    hits = Hits(found)
    return [hits[i][3] for i in decide(hits, SOLVER_PREDICATES)]


def check_two_fiber_shape(eshape: ExceptionalShape) -> None:
    """Refuse a shape the solver does not handle: E must be one curve, with
    at most one external (-2)-curve."""
    e_weights = eshape.e_weights
    if eshape.is_fork or len(e_weights) != 1:
        raise ValueError("the ruling analysis needs an irreducible E")
    if eshape.size - len(e_weights) not in (0, 1):
        raise ValueError("at most one external (-2)-curve is supported here")


# the twig table as rows (d, the records of twigs of discriminant d)
TwigRows = list[tuple[int, tuple[chains.ChainRecord, ...]]]


def two_fiber_candidates(t1: Weights, rows: TwigRows, eshape: ExceptionalShape) -> list[Hit]:
    """The predicate-free half of :func:`solve_two_fiber`, for one T1 and
    every T2 of ``rows``: each solution of (5)/(6) whose fibers rebuild T1
    and its T2 and whose boundary has b in {1, 2}, in sweep order, as the
    hit (record, twigs, eshape, solution) with ``record`` the boundary's
    :func:`dgk.barks.fork_invariants`.  T1 and each T2 must be nonempty
    admissible chains and ``eshape`` must pass :func:`check_two_fiber_shape`;
    the callers check them, once per input rather than once per twig pair."""
    hits = []
    for t2, tup in _equation_solutions(t1, rows, eshape):
        sol = _assemble_solution(tup, t1, t2, eshape)
        if sol is None or sol.b not in (1, 2):
            continue
        twigs = (sol.t1, sol.t2, sol.t3)
        hits.append((fork_invariants(Fork(sol.b, twigs)), twigs, eshape, sol))
    return hits


def _divisors(n: int, top: int) -> list[int]:
    """The divisors of ``n`` > 0 in [2, ``top``], ascending."""
    low, high = [], []
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            low.append(k)
            if k * k < n:
                high.append(n // k)
    return [k for k in low + high[::-1] if 2 <= k <= top]


def _equation_solutions(t1: Weights, rows: TwigRows, eshape: ExceptionalShape):
    """The sweep of :func:`two_fiber_candidates` before any boundary is
    rebuilt: (T2, :class:`FiberTuple`) of every tuple that passes the gates,
    in sweep order.  Each satisfies (5) and (6) exactly, since kappa is a
    root of twice (6) and p~ is solved from (5).  (c', p') runs over
    :func:`_tail_pairs` of T1, read once per alpha for both splits and
    taken split by split, then the rows (d(T2), records), kappa~, kappa and
    the row's records last, so one (T1, T2) gets its own tuples, in order.
    ``eshape`` must be an irreducible E with at most one external (-2)-curve.
    """
    e_weights = eshape.e_weights
    gamma = e_weights[0]
    eps = eshape.epsilon
    ke = eshape.ke
    n_delta_curves = eshape.size - len(e_weights)
    splits = [(0, 0)] if n_delta_curves == 0 else [(1, 0), (0, 1)]
    heads = []  # (n, alpha, df, dft, c', p') in sweep order
    for n in (1, 2, 3):
        alpha = n + eps + ke - 4
        # T1 holds at least the first curve of the (c', p') group
        if 0 <= alpha <= n and len(t1) > alpha:
            tails = _tail_pairs(t1, alpha)
            heads += [(n, alpha, df, dft, c_pr, p_pr)
                      for df, dft in splits for k, c_pr, p_pr in tails if k == df]
    for n, alpha, df, dft, c_pr, p_pr in heads:
        # 2 rho = A kappa^2 + A0: (A, A0) = (2, 0), or (1, 1) with a
        # boundary curve
        a2, a0 = (2, 0) if df == 0 else (1, 1)
        for d2, records in rows:
            c = c_pr * d2
            g2c = c * (gamma - 2)
            qa = 2 * (c - c_pr) * (alpha * c_pr + p_pr) - a2
            qb = -2 * g2c
            # kappa~ divides c (gamma - 2); every kappa~ divides 0
            for kappa_t in _divisors(abs(g2c), 3 * c) if g2c else range(2, 3 * c + 1):
                if dft == 1 and kappa_t % 2 == 0:
                    continue
                qc = 2 * gamma - a0 - 2 * _rho(kappa_t, dft)
                for kappa in _int_quadratic_roots(qa, qb, qc):
                    if kappa < 2:
                        continue
                    if df == 1 and kappa % 2 == 0:
                        continue
                    d = c * kappa
                    if d % kappa_t or (gamma - 2) % gcd(kappa, kappa_t):
                        continue
                    c_t = d // kappa_t
                    for r in records:
                        p = c_pr * (d2 - r.d_prime)
                        num = d * n + gamma - 2 - kappa * (p + alpha * c_pr + p_pr)
                        if num % kappa_t:
                            continue
                        p_t = num // kappa_t
                        if not 1 <= p_t <= c_t or gcd(c_t, p_t) != 1:
                            continue
                        yield r.ws, FiberTuple(
                            n, gamma, eps, ke, kappa, kappa_t, c, p,
                            c_pr, p_pr, c_t, p_t, df, dft,
                        )


def _assemble_solution(
    tup: FiberTuple | TwoFiberSolution, t1: Weights | None, t2: Weights, eshape: ExceptionalShape
) -> TwoFiberSolution | None:
    """Rebuild both fibers, check the twigs, contract the boundary to D.

    T1 is the second branch of the first fiber (groups 2 to alpha + 2) and
    T2 its lower first-pair chain Z_l, both tip first; ``t1=None`` takes T1
    from the fiber.  The chain through the section runs from Z1 along Z_u,
    G, H, G~ and the section side of the second fiber to its last
    first-pair curve, all contractible, and on along its lower chain.
    """
    try:
        tree, tree_t = (reconstruct_fiber(f.full_pairs()) for f in tup.fibers())
        zu, z1, zl = tree.first_pair_parts()
        branch = {v for v in range(len(tree)) if 2 <= tree.groups[v] <= tup.alpha + 2}
        found = tuple(tree.weights[v] for v in reversed(tree.path(z1, branch)))
        t1 = found if t1 is None else t1
        if (found, tuple(tree.weights[v] for v in reversed(zl))) != (t1, t2):
            return None
        zut, z1t, zlt = tree_t.first_pair_parts()
        free = [tree.weights[v] for v in (*zu, 0)] + [tup.n]
        free += [tree_t.weights[v] for v in (0, *reversed(zut), z1t)]
        b, t3 = contract_boundary(
            tree.weights[z1],
            [(w, True) for w in free] + [(tree_t.weights[v], False) for v in zlt],
        )
    except ValueError:  # ContractionError included
        return None
    return TwoFiberSolution(*tup[:len(FiberTuple._fields)], b, t1, t2, t3, eshape)


def reconstruct_t3(sol: TwoFiberSolution) -> tuple[int, Weights]:
    """Recompute (b, T3) of a solution from its fiber data alone.

    Rebuilds both fibers, lays out the boundary chain through the section and
    contracts it; raises ContractionError if the result is not an admissible
    fork boundary.
    """
    redone = _assemble_solution(sol, sol.t1, sol.t2, sol.eshape)
    if redone is None:
        raise ContractionError("solution data does not reconstruct a boundary")
    return redone.b, redone.t3


# ---------------------------------------------------------------------------
# terminal eliminations of the final case analysis


def tail_chain_23_branch() -> dict:
    """Dead end of the [2,3]-twig case.

    Here gamma = 3, n = 1, alpha = 0, the second fiber has (c~, p~) = (7, 3)
    and the lower chain forces (c, p) = (2c', c'), kappa = 7, kappa~ = 2c'.
    Equation (5) gives 7p' = c' + 1 and substituting into (6) leaves
    3c'^2 - 7c' - 46 = 0, which has no integer root.
    """
    solutions = []
    for c_pr in range(6, 10000, 7):  # c' < 10000 with 7 | c' + 1
        p_pr = (c_pr + 1) // 7  # below c' and coprime to it, as it divides c' + 1
        tup = FiberTuple(1, 3, 2, 1, 7, 2 * c_pr, 2 * c_pr, c_pr, c_pr, p_pr, 7, 3, 0, 0)
        if check_ruling_equations(tup.scenario())[:2] == (0, 0):
            solutions.append((c_pr, p_pr))
    disc = 7 * 7 + 4 * 3 * 46
    return {
        "quadratic": (3, -7, -46),
        "discriminant": disc,
        "square_discriminant": isqrt(disc) ** 2 == disc,
        "solutions": solutions,
    }


def second_fiber_square_branch() -> list[tuple[int, int, int, int]]:
    """Dead end of the single-boundary-curve case: kappa~^2 = 3k + 1.

    The first fiber has pairs (4k+4, 2k+2), (2k+2, 2), (2, 1) and kappa = 3;
    the ruling equations force kappa~ * p~ = 3k + 1 and kappa~^2 = 3k + 1 with
    kappa~ = gcd(6k+6, 3k+1) in {2, 4}.  Only kappa~ = 4 gives coprime
    (c~, p~), pinning (k, c~, p~) = (5, 9, 4).
    """
    out = []
    for k in range(1, 61):
        d = 6 * k + 6
        kappa_t = gcd(d, 3 * k + 1)  # so p~ < c~ below are coprime
        if kappa_t < 2:
            continue
        p_t = (3 * k + 1) // kappa_t
        c_t = d // kappa_t
        tup = FiberTuple(1, 3, 2, 1, 3, kappa_t, 2 * k + 2, k + 1, k + 1, 1, c_t, p_t, 1, 0)
        if check_ruling_equations(tup.scenario())[:2] == (0, 0):
            out.append((k, kappa_t, c_t, p_t))
    return out


def two_run_twig_branch(eshape: ExceptionalShape) -> list[TwoFiberSolution]:
    """Dead end of the [(2)]-twig case with gamma = 4.

    Here (c~, p~) = (5, 2), (c, p) = (2c', c') and kappa | 10; the relations
    admit the single family kappa = 2, (c', p') = (25, 6).  The reconstructed
    boundary has d(D) = -25, and -d(D)/d(E) = 25/4 is not a perfect square,
    so the homology condition rejects it.  alpha comes from ``eshape``: the
    paper's case is [4] with epsilon 1, alpha = 0.
    """
    sols = []
    for kappa in (2, 5, 10):
        for c_pr in range(1, 200):
            d = 2 * c_pr * kappa
            if d % 5:
                continue
            kappa_t = d // 5
            for p_pr in range(1, c_pr + 1):
                if gcd(c_pr, p_pr) != 1:
                    continue
                tup = FiberTuple(
                    1, 4, eshape.epsilon, eshape.ke, kappa, kappa_t,
                    2 * c_pr, c_pr, c_pr, p_pr, 5, 2, 0, 0,
                )
                if check_ruling_equations(tup.scenario())[:2] != (0, 0):
                    continue
                sol = _assemble_solution(tup, None, (2,), eshape)
                if sol is not None:
                    sols.append(sol)
    return sols


def minimalized_section_side_32() -> list[int]:
    """The [3,2]-twig case: the section side [2,3,2] extends by the touched
    first-pair curve and the (-1)-curve, and minimalizes to a discriminant-3
    chain, clashing with the allowed discriminant classes."""
    return minimalize_chain([2, 3, 2, 2, 1])

