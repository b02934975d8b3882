"""Exact combinatorics of weighted dual graphs.

Chains, forks, discriminants, barks, Hamburger-Noether pairs, the ruling
equations and the bounded case searches, all in exact rational arithmetic.
"""

from .barks import (
    bark_chain,
    bark_fork,
    bark_one_sided,
    eshape_catalog,
    fork_invariants,
    group_order,
)
from .chains import (
    adjoint_chain,
    chain_from_e,
    d,
    d_prime,
    delta,
    e,
    e_tilde,
    enumerate_admissible_chains,
    invariants,
)
from .graphs import Fork, format_chain, parse_chain, parse_fork
from .pairs import (
    CharPairSeq,
    mu_sums,
    pairs_from_fiber,
    reconstruct_fiber,
)
from .predicates import BoundaryCandidate, evaluate_predicates, lambda_and_p_square
from .ruling import (
    RulingFiber,
    RulingScenario,
    TwoFiberSolution,
    check_ruling_equations,
    reconstruct_t3,
    solve_two_fiber,
)
from .search import (
    search_fiber_pairs,
    search_final_bounds,
    search_k_nonpositive,
    search_xy,
    verify_suite,
)

__all__ = [
    "Fork",
    "format_chain",
    "parse_chain",
    "parse_fork",
    "d",
    "d_prime",
    "e",
    "e_tilde",
    "delta",
    "invariants",
    "chain_from_e",
    "adjoint_chain",
    "enumerate_admissible_chains",
    "bark_one_sided",
    "bark_chain",
    "bark_fork",
    "fork_invariants",
    "group_order",
    "eshape_catalog",
    "CharPairSeq",
    "reconstruct_fiber",
    "pairs_from_fiber",
    "mu_sums",
    "BoundaryCandidate",
    "evaluate_predicates",
    "lambda_and_p_square",
    "RulingFiber",
    "RulingScenario",
    "TwoFiberSolution",
    "check_ruling_equations",
    "solve_two_fiber",
    "reconstruct_t3",
    "search_final_bounds",
    "search_xy",
    "search_k_nonpositive",
    "search_fiber_pairs",
    "verify_suite",
]

__version__ = "0.1.0"
