"""Command-line surface: every computation as reproducible table output.

Output contract: tables are tab-separated with `#`-prefixed header lines,
floats are printed with 9 decimal places, and repeated runs with the same
flags produce byte-identical output.  Exit codes: 0 success, 2 usage or
input error, 3 refused enumeration bound, 4 failed internal assertion.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import ConsistencyError, EnumerationBoundError, IntegralityError

if TYPE_CHECKING:  # each command imports the layers it runs
    from .states import DensityMatrix, PureState
    from .subsets import SubsetMask


def _fmt(value: float) -> str:
    if abs(value) < 5e-10:
        value = 0.0
    return f"{value:.9f}"


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad dimension list {text!r}") from exc
    if any(n < 1 for n in dims):
        raise ValueError(f"bad dimension list {text!r}")
    return dims


def _parse_subset(text: str, k: int) -> SubsetMask:
    """Comma-separated distinct labels; the empty string is the empty subset."""
    from .subsets import SubsetMask

    try:
        members = [int(tok) for tok in text.split(",")] if text else []
    except ValueError as exc:
        raise ValueError(f"bad subset list {text!r}") from exc
    if len(set(members)) != len(members):
        raise ValueError(f"bad subset list {text!r}")
    return SubsetMask.of(k, members)


def _cmd_dims(args) -> int:
    from .dimensions import mixed_dimension, restricted_dimension, stable_dimension

    if args.local_dims is not None:
        if args.mixed:
            raise ValueError("--local-dims and --mixed cannot be combined")
        if args.k is not None:
            raise ValueError("--local-dims and --k cannot be combined")
        value = restricted_dimension(_parse_dims(args.local_dims), args.m)
    elif args.mixed:
        if args.k is None:
            raise ValueError("--mixed requires --k")
        value = mixed_dimension(args.k, args.m)
    else:
        if args.k is None:
            raise ValueError("need --k or --local-dims")
        value = stable_dimension(args.k, args.m)
    print(value)
    return 0


def _cmd_hilbert(args) -> int:
    from .series import euler_exponents, hilbert_series

    series = hilbert_series(args.k, args.order)
    counts = euler_exponents(series, args.k)
    print("# grading: half-degree m, i.e. degree 2m (real)")
    print("# m\tdim")
    for m, coeff in enumerate(series.coeffs):
        print(f"{m}\t{coeff}")
    print("# d\tu_d")
    for d, u in enumerate(counts.u, start=1):
        print(f"{d}\t{u}")
    return 0


def _cmd_subgroups(args) -> int:
    from .free_group_census import count_subgroup_classes

    # Checked and computed whole first, so a refused or invalid request
    # prints nothing.
    if args.rank < 1 or args.max_index < 1:
        raise ValueError("need rank >= 1 and index >= 1")
    rows = [(d, count_subgroup_classes(args.rank, d)) for d in range(1, args.max_index + 1)]
    print("# index\tclasses")
    for d, classes in rows:
        print(f"{d}\t{classes}")
    return 0


def _cmd_orbits(args) -> int:
    from .free_group_census import conjugation_orbit_count

    print(conjugation_orbit_count(args.tuple_length, args.m))
    return 0


def _cmd_char_table(args) -> int:
    from .characters import _check_degree, irreducible_character
    from .combinatorics import centralizer_order, partitions_of

    _check_degree(args.m)
    partitions = partitions_of(args.m)
    labels = [str(p) for p in partitions]
    print("# class\t" + "\t".join(labels))
    sizes = [math.factorial(args.m) // centralizer_order(lam) for lam in partitions]
    print("# size\t" + "\t".join(str(s) for s in sizes))
    for lam in partitions:
        chi = irreducible_character(lam)
        print(str(lam) + "\t" + "\t".join(str(v) for v in chi.values))
    return 0


def _as_density(state) -> DensityMatrix:
    from .states import PureState, projector

    return projector(state) if isinstance(state, PureState) else state


def _as_pure(state) -> PureState:
    from .states import PureState

    if not isinstance(state, PureState):
        raise ValueError("this invariant needs a pure state file")
    return state


def _cmd_eval(args) -> int:
    from .invariants import eta, higher_invariant, invariant_I, invariant_J, meyer_wallach
    from .states import read_state_file

    state = read_state_file(args.state)
    k = len(state.dims)
    subset = _parse_subset(args.subset, k)
    if args.invariant == "I":
        value = invariant_I(_as_pure(state), subset)
    elif args.invariant == "J":
        value = invariant_J(_as_density(state), subset)
    elif args.invariant == "eta":
        value = eta(_as_density(state), subset)
    elif args.invariant == "Q":
        value = meyer_wallach(_as_pure(state))
    else:  # "higher", the last of the parser's choices
        if args.m is None:
            raise ValueError("--invariant higher requires --m")
        value = higher_invariant(_as_pure(state), subset, args.m)
    print(_fmt(value))
    return 0


def _cmd_transform(args) -> int:
    from .invariants import _check_j_vector, _check_kernel
    from .invariants import i_from_j, invariant_I_vector, invariant_J_vector, j_from_i
    from .states import projector, read_state_file
    from .subsets import subset_labels

    psi = _as_pure(read_state_file(args.state))
    _check_kernel(psi.dims, 2)  # both vectors' counts, before either is built
    _check_j_vector(psi.dims)
    ivec = invariant_I_vector(psi)
    jvec = invariant_J_vector(projector(psi))
    forward = j_from_i(ivec)
    backward = i_from_j(jvec)
    pairs = ((forward, jvec), (backward, ivec))
    residual = max(abs(a - b) for x, y in pairs for a, b in zip(x.values, y.values))
    # One write for the table: with an unbuffered stdout, one print per
    # row would cost two write calls per row.
    rows = zip(subset_labels(psi.k), ivec.values, jvec.values)
    table = "".join(f"{label}\t{_fmt(i_value)}\t{_fmt(j_value)}\n" for label, i_value, j_value in rows)
    sys.stdout.write(f"# subset\tI\tJ\n{table}# max_residual\t{_fmt(residual)}\n")
    return 0


def _cmd_rank_oracle(args) -> int:
    from .states import invariant_space_rank

    print(invariant_space_rank(_parse_dims(args.local_dims), args.m, args.seed))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luinv",
        description="Dimensions, Hilbert series, and explicit local-unitary invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="invariant-space dimension")
    p.add_argument("--k", type=int, help="number of subsystems")
    p.add_argument("--m", type=int, required=True, help="half-degree")
    p.add_argument(
        "--local-dims",
        help="comma-separated bounded subsystem dimensions (environment implicit)",
    )
    p.add_argument("--mixed", action="store_true", help="mixed-state dimension")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("hilbert", help="Hilbert series and Euler exponents")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("subgroups", help="free-group subgroup class census")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-index", type=int, required=True)
    p.set_defaults(func=_cmd_subgroups)

    p = sub.add_parser("orbits", help="conjugation orbits on permutation tuples")
    p.add_argument("--tuple-length", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("char-table", help="character table of S_m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_char_table)

    p = sub.add_parser("eval", help="evaluate an invariant on a state file")
    p.add_argument("--state", required=True)
    p.add_argument(
        "--invariant", required=True, choices=["I", "J", "eta", "Q", "higher"]
    )
    p.add_argument("--subset", default="", help="comma-separated subsystem labels")
    p.add_argument("--m", type=int, help="order for --invariant higher")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="I- and J-vectors and transform residual")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("rank-oracle", help="invariant-space rank, exact mod a prime")
    p.add_argument("--local-dims", required=True, help="comma-separated local dimensions")
    p.add_argument("--m", type=int, required=True, help="half-degree")
    p.add_argument("--seed", type=int, required=True, help="seed of the random samples mod a prime")
    p.set_defaults(func=_cmd_rank_oracle)

    return parser


def main(argv=None) -> int:
    # Dimensions may run to thousands of digits; the work bounds, not
    # Python's int-to-str limit, cap what is printed.
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBoundError as exc:
        print(f"luinv: {exc}", file=sys.stderr)
        return 3
    except (IntegralityError, ConsistencyError) as exc:
        print(f"luinv: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"luinv: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry of `luinv` and `python -m luinv.cli`: main(), then end
    the process without interpreter teardown, which would only free every
    numpy and luinv object just before the kernel reclaims the memory.  The
    flushes come first, since os._exit drops buffered output; if one fails
    (a closed or full stdout), sys.exit takes the normal path, whose own
    flush reports the error and exits 120.  A usage error or an uncaught
    exception leaves main() before this and also exits the normal way."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when started with the descriptor closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
