"""Command-line interface.

Subcommands: ``sweep`` (config in, CSV out), ``chain`` (one chain with
diagnostics), ``check-reversible`` (round-trip and buffer stats), and
``oracles`` (sampled-vs-exact consistency suite).  Exit codes: 0 success,
2 malformed config or argument, 3 numerical failure (every sweep cell
failed, no stable step-size base was found, or a chain diverged), 4 oracle
or reversibility failure.  Errors print one line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .blr import BlrModel, blr_target, exact_log_ml
from .harness import ConfigError, ExperimentConfig, gen_blr_data, run_sweep, write_csv
from .moments import expected_bound, gap_breakdown, propagate_moments
from .reversible import GAMMA_DENOM_BITS, float_to_fixed, reversible_backward, reversible_forward
from .rng import MASK64, generator
from .sampler import NumericalFailure, TransitionConfig, dais_bound_mc, dais_chain, sample_chains
from .schedules import make_linear_schedule, make_stepsize_scheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, requirement):
    """argparse ``type=`` function: ``convert`` the text, then require ``ok``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} must be {convert.__name__} {requirement}")
        return value

    return parse


_positive_int = _checked(int, lambda x: x >= 1, ">= 1")
_seed = _checked(int, lambda x: x >= 0, ">= 0")
_positive = _checked(float, lambda x: 0.0 < x < np.inf, "finite and > 0")
_non_negative = _checked(float, lambda x: 0.0 <= x < np.inf, "finite and >= 0")
_unit_interval = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
# the reversible chain quantizes gamma down to n / 2^16 with n >= 1
_damping = _checked(float, lambda x: 2.0**-GAMMA_DENOM_BITS <= x <= 1.0, "in [2^-16, 1]")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dais", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a (K, c) sweep from a config file")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--config", required=True, help="TOML config file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_chain = sub.add_parser("chain", help="run one chain and print diagnostics")
    p_chain.set_defaults(run=_cmd_chain)
    p_chain.add_argument("--K", type=_positive_int, default=64)
    p_chain.add_argument("--c", type=_non_negative, default=0.25)
    p_chain.add_argument("--a", type=_positive, default=0.3)
    p_chain.add_argument("--gamma", type=_unit_interval, default=0.0)
    p_chain.add_argument("--n", type=_positive_int, default=1000)
    p_chain.add_argument("--d", type=_positive_int, default=10)
    p_chain.add_argument("--seed", type=_seed, default=0)

    p_rev = sub.add_parser("check-reversible", help="fixed-point round-trip check")
    p_rev.set_defaults(run=_cmd_check_reversible)
    p_rev.add_argument("--d", type=_positive_int, default=10)
    p_rev.add_argument("--K", type=_positive_int, default=1000)
    p_rev.add_argument("--gamma", type=_damping, default=0.9)
    p_rev.add_argument("--eta", type=_positive, default=0.1)
    p_rev.add_argument("--seed", type=_seed, default=0)

    p_orc = sub.add_parser("oracles", help="sampled-vs-exact consistency suite")
    p_orc.set_defaults(run=_cmd_oracles)
    p_orc.add_argument("--seed", type=_seed, default=0)
    p_orc.add_argument("--chains", type=_checked(int, lambda x: x >= 2, ">= 2"), default=20000,
                       help="chains for the unbiasedness check")

    return parser


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be created as a file, or None; checked before a sweep runs."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(directory):
        return f"no such directory {directory}"
    if not os.access(directory, os.W_OK):
        return f"directory {directory} is not writable"
    return None


def _cmd_sweep(args) -> int:
    try:
        config = ExperimentConfig.from_file(args.config)
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    reason = _unwritable(args.out)
    if reason:
        print(f"cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_sweep(config)
    try:
        write_csv(rows, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    failed = sum(row.failed for row in rows)
    print(f"wrote {len(rows)} rows to {args.out} ({failed} failed cells)")
    if rows and failed == len(rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_chain(args) -> int:
    model = gen_blr_data(args.n, args.d, args.seed)
    target = blr_target(model)
    schedule = make_linear_schedule(args.K)
    steps = make_stepsize_scheme(args.a, args.c, args.K)
    config = TransitionConfig(gamma=args.gamma)
    theta_K, _, bound = dais_chain(target, schedule, steps, config, generator((args.seed, args.K)))
    moments = propagate_moments(model, schedule, steps, args.gamma)
    print(f"K={args.K} eta={steps.eta:.6g} gamma={args.gamma}")
    print(f"L (single chain)      = {bound:.6f}")
    print(f"exact log ML          = {exact_log_ml(model):.6f}")
    print(f"E[L] (closed form)    = {expected_bound(model, moments, schedule):.6f}")
    print(f"expected gap          = {gap_breakdown(model, moments, schedule).total:.6f}")
    print(f"|theta_K|             = {np.linalg.norm(theta_K):.4f}")
    return EXIT_OK


def _cmd_check_reversible(args) -> int:
    model = gen_blr_data(max(4 * args.d, 64), args.d, args.seed)
    target = blr_target(model)
    schedule = make_linear_schedule(args.K)
    steps = make_stepsize_scheme(args.eta, 0.0, args.K)
    config = TransitionConfig(gamma=args.gamma)
    s0 = (args.seed * 2654435761 + 12345) & MASK64

    g = generator((args.seed, 1))
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(args.d)

    fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    bits = fwd.buffer.bit_size()
    nbytes = len(fwd.buffer.to_bytes())
    th_rec, v_rec, s_rec = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer
    )
    exact = (np.array_equal(th_rec, float_to_fixed(theta0)) and np.array_equal(v_rec, float_to_fixed(v0))
             and s_rec == s0 and fwd.buffer.is_empty())
    per = bits / (args.d * args.K)
    print(f"bit-exact: {'true' if exact else 'false'}")
    print(f"buffer bits = {bits} ({per:.4f} per parameter-step, "
          f"log2(1/gamma) = {np.log2(1 / args.gamma):.4f})")
    print(f"serialized buffer bytes = {nbytes}")
    print(f"effective gamma = {fwd.gamma_eff:.8f}")
    return EXIT_OK if exact else EXIT_ORACLE


def _cmd_oracles(args) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    # unbiasedness on a conjugate toy model: E[exp(L - log Z)] = 1
    toy = BlrModel(X=[[1.0]], y=[1.0], sigma2=1.0, mu_p=[0.0], Lambda_p=[[1.0]])
    log_z = exact_log_ml(toy)
    schedule = make_linear_schedule(8)
    steps = make_stepsize_scheme(0.2, 0.0, 8)
    _, _, L = sample_chains(
        blr_target(toy), schedule, steps, TransitionConfig(), args.chains, generator((args.seed, 1))
    )
    w = np.exp(L - log_z)
    se = w.std(ddof=1) / np.sqrt(w.size)
    check(
        "unbiasedness E[exp(L - log Z)] = 1",
        abs(w.mean() - 1.0) <= 3 * se,
        f"mean={w.mean():.5f} se={se:.5f}",
    )
    mean_L = L.mean()
    se_L = L.std(ddof=1) / np.sqrt(L.size)
    check("lower bound mean L <= log Z", mean_L <= log_z + 3 * se_L,
          f"mean L={mean_L:.5f} log Z={log_z:.5f}")

    # sampled vs exact gap on the standard synthetic instance
    model = gen_blr_data(1000, 10, args.seed)
    log_z = exact_log_ml(model)
    target = blr_target(model)
    for K in (16, 64):
        schedule = make_linear_schedule(K)
        steps = make_stepsize_scheme(0.3, 0.25, K)
        moments = propagate_moments(model, schedule, steps, 0.0)
        exact_gap = gap_breakdown(model, moments, schedule).total
        mean, se = dais_bound_mc(
            target, schedule, steps, TransitionConfig(), 400, generator((args.seed, K))
        )
        mc_gap = log_z - mean
        check(
            f"exact vs sampled gap at K={K}",
            abs(exact_gap - mc_gap) <= 3 * se,
            f"exact={exact_gap:.4f} mc={mc_gap:.4f} se={se:.4f}",
        )
    return EXIT_OK if failures == 0 else EXIT_ORACLE


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # malformed arguments (2) or --help (0)
        return exc.code
    try:
        return args.run(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a size too large for this machine is a malformed argument
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
