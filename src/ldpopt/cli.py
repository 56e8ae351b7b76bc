"""Command-line front end: construct mechanisms, solve for optimal ones,
check privacy claims, export error-region boundaries, and run the
benchmark sweeps and the Chernoff-Stein Monte-Carlo estimate.

Exit codes: 0 success, 1 validation failure (including a solver failure,
reported with its utility, k and eps, and an allocation failure), 2 I/O
error or argparse's usage error (a required flag missing, or a flag value of
the wrong type, printed after the usage line).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import converse_suite, mi_converse_suite
from .core import (MAX_EPS, MAX_LP_K, Distribution, Mechanism, effective_epsilon, exp_eps,
                   induced_marginal, is_approx_private, is_private_at,
                   is_staircase, make_distribution, mechanism_from_json,
                   mechanism_to_json, pattern_index)
from .mechanisms import (binary_ht, binary_mi, geometric, ht_partition, mi_partition,
                         quaternary, randomized_response, staircase_value)
from .optsolve import (LP_CACHE_SIZE, DegenerateBasis, NumericalBreakdown,
                       build_lp, build_lps, extract_mechanism, solve)
from .regions import region_eps_delta, tradeoff_region
from .utilities import (CHI2, KL, TV, AbsoluteContinuityViolated, f_divergence,
                        hypothesis_testing, information_preservation, utility)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

FDIV_KINDS = {"kl": KL, "tv": TV, "chi2": CHI2}
UTILITIES = (*FDIV_KINDS, "mi")
# The priors of a hypothesis test (--p0, --p1) or of mutual information (--p).
HT_PRIORS, MI_PRIORS = ("--p0", "--p1"), ("--p",)
PRIOR_FLAGS = (*HT_PRIORS, *MI_PRIORS)
SWEEP_MECHANISMS = ("binary", "rr", "geometric", "optimal", "mixed")

# Instances whose LP optimum is below this are counted as achieving ratio 1.
ZERO_OPT = 1e-15

# A sweep prior is redrawn until every mass is above this, so hypothesis
# tests get the positive priors they need. A Dirichlet(1) draw at k <= 12
# falls below it with probability under 1.4e-7; a larger value would change
# which draws are kept, and so the pinned sweep CSVs.
PRIOR_FLOOR = 1e-9


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _prior(args, name: str) -> Distribution:
    """The prior given as comma-separated masses in flag --<name>; each
    error it raises starts with the flag."""
    flag, text = f"--{name}", getattr(args, name)
    if text is None:
        raise ValueError(f"missing {flag}")
    values = _parse_numbers(flag, text)
    try:
        return make_distribution(values)
    except ValueError as exc:
        raise type(exc)(f"{flag}: {exc}") from None


def _reject_given(args, flags, reason: str) -> None:
    """Raise naming the first of flags that was given, with the reason the
    command would not read it; handlers call this before any output."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} {reason}")


def _reject_unread_priors(args, command: str, read: tuple[str, ...]) -> None:
    """Raise naming the first prior flag given that command does not read."""
    _reject_given(args, [flag for flag in PRIOR_FLAGS if flag not in read],
                  f"is not read by {command}, which reads "
                  f"{' and '.join(read) or 'no prior'}")


def _parse_numbers(flag: str, text: str) -> tuple[float, ...]:
    """The comma-separated numbers text given to flag."""
    values = []
    for t in text.split(","):
        try:
            values.append(float(t))
        except ValueError:
            raise ValueError(f"{flag}: {t!r} is not a number in {text!r}") from None
    return tuple(values)


# -- sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    seed: int
    k: int
    num_instances: int
    eps_grid: tuple[float, ...]
    utility: str
    mechanisms: tuple[str, ...] = SWEEP_MECHANISMS

    def __post_init__(self):
        # A --config file can give any JSON value; each error names its field.
        # The plain int and float tests come first, as a check against a
        # numbers ABC alone takes about 1 us per value.
        for name in ("seed", "k", "num_instances"):
            value = getattr(self, name)
            if type(value) is not int and (isinstance(value, bool)
                                           or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.num_instances < 1:
            raise ValueError("need at least one instance")
        grid = self.eps_grid
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ValueError(f"eps_grid must be a nonempty list of numbers, got {grid!r}")
        if type(grid) is not tuple:
            object.__setattr__(self, "eps_grid", tuple(grid))
        for eps in grid:
            if type(eps) is not float and (isinstance(eps, bool)
                                           or not isinstance(eps, numbers.Real)):
                raise ValueError(f"eps_grid: {eps!r} is not a number")
            if not 0.0 <= eps <= MAX_EPS:
                exp_eps(eps)  # raises the package's one privacy-level error
        if self.utility not in UTILITIES:
            raise ValueError(f"unknown utility {self.utility!r}")
        mechanisms = self.mechanisms
        if not (type(mechanisms) is tuple and mechanisms == SWEEP_MECHANISMS):
            if (not isinstance(mechanisms, (list, tuple)) or not mechanisms
                    or not all(m in SWEEP_MECHANISMS for m in mechanisms)):
                raise ValueError(f"mechanisms must be a list of names from "
                                 f"{SWEEP_MECHANISMS}, got {mechanisms!r}")
            object.__setattr__(self, "mechanisms", tuple(mechanisms))
        # Every row carries the LP optimum for its ratio column, so the
        # alphabet cap applies to all sweeps, not only "optimal" rows.
        if not 2 <= self.k <= MAX_LP_K:
            raise ValueError(f"sweeps need k in [2, {MAX_LP_K}], got k={self.k}")


@dataclass(frozen=True)
class SweepRow:
    instance_id: int
    eps: float
    mechanism: str
    utility_value: float
    opt_value: float
    ratio: float


def _instance_priors(cfg: SweepConfig, instance_id: int):
    """Uniform-simplex priors from a counter-based per-instance stream."""
    rng = np.random.default_rng([cfg.seed, instance_id])

    def draw() -> Distribution:
        while True:
            p = rng.dirichlet(np.ones(cfg.k))
            if p.min() > PRIOR_FLOOR:
                return make_distribution(p)

    if cfg.utility == "mi":
        return information_preservation(draw())
    return hypothesis_testing(FDIV_KINDS[cfg.utility], draw(), draw())


@functools.lru_cache(maxsize=LP_CACHE_SIZE)
def _sweep_geometric(k: int, eps: float) -> Mechanism:
    """geometric(k, eps) for run_sweep, built once per (k, eps). Sweeps cap
    k at MAX_LP_K, so an entry is at most 12 x 12 floats; `ldpopt mech`
    calls geometric itself and caches nothing."""
    return geometric(k, eps)


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (instance, eps, mechanism), in canonical sorted order.

    Ratios are utility / LP-optimum; instances where the optimum is zero
    (eps = 0) count as ratio 1 since the gap is zero.

    An instance's LPs over the whole eps grid are scored in one pass
    (`build_lps`). optimal is the LP optimum. rr and binary are staircases
    of the bit matrices np.eye(k) and [1_T, 1_T^c], so each is
    `staircase_value` of the LP costs at its columns, read for every eps at
    once from the instance's cost grid. T is {x : P0(x) >= P1(x)}, or
    mi_partition's split for mutual information, found once per instance.
    mixed is the larger of binary and rr. geometric is scored by `utility`
    on one mechanism per (k, eps), shared by every instance and every sweep.
    """
    k, wanted = cfg.k, set(cfg.mechanisms)
    geo = "geometric" in wanted
    rr_cols = pattern_index(np.eye(k))
    delta = np.array([math.expm1(eps) for eps in cfg.eps_grid])
    rows = []
    for instance_id in range(cfg.num_instances):
        spec = _instance_priors(cfg, instance_id)
        split = (mi_partition(spec.p) if spec.objective == "mi"
                 else ht_partition(spec.p0, spec.p1))
        split_cols = pattern_index(split)
        cost, lps = build_lps(spec, cfg.eps_grid)
        binary = staircase_value(cost[:, split_cols], delta).tolist()
        rr = staircase_value(cost[:, rr_cols], delta).tolist()
        for lp, b, r in zip(lps, binary, rr):
            eps = lp.eps
            try:
                opt = solve(lp).value
            except NumericalBreakdown as exc:
                raise NumericalBreakdown(
                    f"utility={cfg.utility} k={k} eps={eps} seed={cfg.seed} "
                    f"instance_id={instance_id}: {exc}") from exc
            values = {"binary": b, "rr": r, "mixed": max(b, r), "optimal": opt}
            if geo and eps > 0:
                values["geometric"] = utility(spec, _sweep_geometric(k, eps))
            for name in sorted(wanted & set(values)):
                v = values[name]
                ratio = v / opt if opt > ZERO_OPT else 1.0
                rows.append(SweepRow(instance_id, eps, name, v, opt, ratio))
    rows.sort(key=operator.attrgetter("instance_id", "eps", "mechanism"))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["instance_id,eps,mechanism,utility_value,opt_value,ratio"]
    lines += [f"{r.instance_id},{r.eps:.12g},{r.mechanism},{r.utility_value:.12g},"
              f"{r.opt_value:.12g},{r.ratio:.12g}" for r in rows]
    return "\n".join(lines) + "\n"


def sweep_summary(rows: list[SweepRow]) -> str:
    """Mean ratio per eps and mechanism. The "min mixed-strategy ratio" is
    the least over the sampled priors, not a worst case over all priors."""
    by_eps: dict[float, dict[str, list[float]]] = {}
    for r in rows:
        by_eps.setdefault(r.eps, {}).setdefault(r.mechanism, []).append(r.ratio)
    lines = []
    for eps in sorted(by_eps):
        means = {m: math.fsum(v) / len(v) for m, v in sorted(by_eps[eps].items())}
        body = "  ".join([f"{m}={v:.12g}" for m, v in means.items()])
        lines.append(f"eps={_fmt(eps)}  mean ratio: {body}")
    mixed = [r.ratio for r in rows if r.mechanism == "mixed"]
    if mixed:
        lines.append(f"min mixed-strategy ratio: {_fmt(min(mixed))}")
    return "\n".join(lines)


# -- Chernoff-Stein Monte-Carlo ----------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    exponent: float
    kl_rate: float
    beta: float


def run_exponent_sim(P0: Distribution, P1: Distribution, Q: Mechanism,
                     n: int, trials: int, alpha_star: float,
                     seed: int) -> ExponentReport:
    """Monte-Carlo estimate of the type-II error exponent of the LR test.

    Samples n-fold output counts under the null marginal; the threshold is
    the alpha_star empirical quantile of the log-likelihood ratio, and the
    type-II error is estimated by importance sampling (each null sample is
    reweighted by exp(-LLR)), which stays accurate even when beta is far
    below Monte-Carlo resolution.
    """
    if n < 100:
        raise ValueError("need n >= 100 samples per trial")
    if trials < 2 or not 0 < alpha_star < 1:
        raise ValueError("need trials >= 2 and alpha_star in (0, 1)")
    m0 = induced_marginal(P0, Q)
    m1 = induced_marginal(P1, Q)
    a, b = m0.probs, m1.probs

    w = np.log(np.divide(a, b, out=np.ones(a.size), where=(a > 0) & (b > 0)))
    w[(a > 0) & (b == 0)] = math.inf  # never drawn under M1

    try:
        kl_rate = f_divergence(KL, m0, m1)
    except AbsoluteContinuityViolated:
        kl_rate = math.inf

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, a, size=trials)
    # Undrawn outputs add 0 even where w = inf; an infinite LLR weighs e^-inf = 0.
    llr = np.multiply(counts, w, out=np.zeros(counts.shape), where=counts > 0).sum(axis=1)
    t = float(np.quantile(llr, alpha_star, method="lower"))
    accepted = llr[(llr >= t) & (llr < math.inf)]
    if accepted.size == 0:
        return ExponentReport(exponent=math.inf, kl_rate=kl_rate, beta=0.0)
    # beta is typically exp(-n * rate), far below float range, so the
    # importance-sampling mean of exp(-LLR) is taken in log space.
    top = float((-accepted).max())
    log_beta = top + math.log(float(np.exp(-accepted - top).sum())) - math.log(trials)
    beta = math.exp(log_beta) if log_beta > -700 else 0.0
    # log_beta is exactly 0 when every accepted LLR is 0 (identical
    # marginals); -0.0 / n would print as -0.
    exponent = -log_beta / n if log_beta else 0.0
    return ExponentReport(exponent=exponent, kl_rate=kl_rate, beta=beta)


# -- subcommand handlers ------------------------------------------------------


@contextlib.contextmanager
def _output(path: str | None):
    """Open path for writing and yield a function that writes text to it,
    or to standard output when path is None.

    The file is written in place: it is opened without O_TRUNC, so an
    existing file keeps its inode and mode and only a longer old tail is
    cut after the write, and a symlink is followed. Truncating a file to
    zero before rewriting it makes ext4 flush it, about ten times the cost
    of a short write. The output is neither atomic nor durable: nothing
    calls fsync. If the block raises, a file that this call created is
    removed (through a symlink, the file it names, never the link); an
    existing file is left as it was unless the block wrote to it.
    """
    if path is None:
        yield sys.stdout.write
        return
    created = not os.path.exists(path)  # follows symlinks, as the open does
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        def write(text: str) -> None:
            data = text.encode("utf-8")
            fh.write(data)
            # /dev/null, FIFOs and ttys report size 0 and are never truncated.
            if os.fstat(fh.fileno()).st_size > len(data):
                fh.truncate()

        try:
            yield write
        except BaseException:
            if created:
                os.remove(os.path.realpath(path))
            raise


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as write:
        write(text)


def _load_record(path: str):
    with open(path, encoding="utf-8") as fh:
        return mechanism_from_json(fh.read())


def cmd_mech(args) -> int:
    eps, delta = args.eps, args.delta
    read = {"binary": HT_PRIORS, "binary-mi": MI_PRIORS}.get(args.kind, ())
    _reject_unread_priors(args, f"mech {args.kind}", read)
    if args.kind == "rr":
        Q = randomized_response(args.k, eps)
    elif args.kind == "geometric":
        Q = geometric(args.k, eps)
    elif args.kind == "quaternary":
        Q = quaternary(eps, delta)
    elif args.kind == "binary":
        Q = binary_ht(_prior(args, "p0"), _prior(args, "p1"), eps)
    else:  # binary-mi
        Q = binary_mi(_prior(args, "p"), eps)
    delta_claim = delta if args.kind == "quaternary" else 0.0
    _write_text(args.out, mechanism_to_json(Q, eps_claimed=eps,
                                            delta_claimed=delta_claim) + "\n")
    return EXIT_OK


def cmd_opt(args) -> int:
    kind = args.utility
    _reject_unread_priors(args, f"opt --utility {kind}",
                          MI_PRIORS if kind == "mi" else HT_PRIORS)
    if kind == "mi":
        spec = information_preservation(_prior(args, "p"))
    else:
        spec = hypothesis_testing(FDIV_KINDS[kind], _prior(args, "p0"),
                                  _prior(args, "p1"))
    try:
        lp = build_lp(spec, args.eps)
        sol = solve(lp)
        Q = extract_mechanism(sol, lp)
    except (ValueError, NumericalBreakdown, DegenerateBasis) as exc:
        raise type(exc)(f"utility={kind} k={spec.k} eps={args.eps}: {exc}") from exc
    if args.out is not None:
        _write_text(args.out, mechanism_to_json(Q, eps_claimed=args.eps,
                                                delta_claimed=0.0) + "\n")
    print(_fmt(sol.value))
    return EXIT_OK


def cmd_check(args) -> int:
    record = _load_record(args.mechanism)
    Q = record.mechanism
    eps = args.eps if args.eps is not None else record.eps_claimed
    delta = args.delta if args.delta is not None else (record.delta_claimed or 0.0)
    if eps is None:
        _reject_given(args, (*PRIOR_FLAGS, "--delta"),
                      "needs an eps: --eps or the file's eps_claimed")
    else:
        exp_eps(eps, delta)
        if args.p0 is not None or args.p1 is not None:
            _reject_unread_priors(args, "check's hypothesis-testing suite", HT_PRIORS)
    eff = effective_epsilon(Q)
    print(f"k={Q.k} l={Q.l}")
    print(f"effective_epsilon={_fmt(eff)}")
    ok = True
    if eps is not None:
        pure = is_private_at(eff, eps)
        approx = is_approx_private(Q, eps, delta)
        stair = is_staircase(Q, eps)
        print(f"is_locally_private(eps={_fmt(eps)}): {pure}")
        print(f"is_approx_private(eps={_fmt(eps)}, delta={_fmt(delta)}): {approx}")
        print(f"is_staircase(eps={_fmt(eps)}): {stair}")
        ok = approx if delta > 0 else pure
        if args.p0 is not None or args.p1 is not None:
            reports = converse_suite(_prior(args, "p0"), _prior(args, "p1"), Q, eps)
        elif args.p is not None:
            reports = mi_converse_suite(_prior(args, "p"), Q, eps)
        else:
            reports = []
        for r in reports:
            print(f"bound {r.name}: lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} "
                  f"satisfied={r.satisfied}")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_region(args) -> int:
    if args.mech is not None:
        record = _load_record(args.mech)
        region = tradeoff_region(record.mechanism, args.x0, args.x1)
    else:
        if args.eps is None:
            raise ValueError("need either --mech or --eps/--delta")
        region = region_eps_delta(args.eps, args.delta)
    lines = ["p_md,p_fa"] + [f"{_fmt(md)},{_fmt(fa)}" for md, fa in region.vertices]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.config is not None:
        _reject_given(args, ("--seed", "--k", "--num-instances", "--eps-grid", "--utility",
                             "--mechanisms"), "is not read with --config")
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        out_path = raw.pop("out_path", None)
        if out_path is not None and not isinstance(out_path, str):
            raise ValueError(f"out_path must be a string, got {out_path!r}")
        cfg = SweepConfig(**raw)
    else:
        if args.k is None or args.eps_grid is None or args.utility is None:
            raise ValueError("--k, --eps-grid and --utility are required without --config")
        cfg = SweepConfig(
            seed=0 if args.seed is None else args.seed, k=args.k,
            num_instances=100 if args.num_instances is None else args.num_instances,
            eps_grid=_parse_numbers("--eps-grid", args.eps_grid), utility=args.utility,
            mechanisms=SWEEP_MECHANISMS if args.mechanisms is None
            else args.mechanisms.split(","),
        )
        out_path = None
    # The output is opened before the sweep, so a bad path fails before any
    # LP is solved.
    with _output(out_path if args.out is None else args.out) as write:
        rows = run_sweep(cfg)
        write(sweep_csv(rows))
    print(sweep_summary(rows))
    return EXIT_OK


def cmd_exponent(args) -> int:
    P0 = _prior(args, "p0")
    P1 = _prior(args, "p1")
    if args.mech is not None:
        Q = _load_record(args.mech).mechanism
    elif args.mechanism == "rr":
        Q = randomized_response(P0.k, args.eps)
    else:
        Q = binary_ht(P0, P1, args.eps)
    report = run_exponent_sim(P0, P1, Q, n=args.n, trials=args.trials,
                              alpha_star=args.alpha, seed=args.seed)
    print(f"exponent_estimate={_fmt(report.exponent)}")
    print(f"kl_rate={_fmt(report.kl_rate)}")
    print(f"beta_estimate={_fmt(report.beta)}")
    return EXIT_OK


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and argparse's own {command: subparser} map,
    built once; parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="ldpopt",
                                     description="Optimal mechanisms for local "
                                                 "differential privacy on finite alphabets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mech", help="construct a named mechanism and emit JSON")
    p.add_argument("kind", choices=["binary", "binary-mi", "rr", "geometric", "quaternary"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    for flag in PRIOR_FLAGS:
        p.add_argument(flag)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mech)

    p = sub.add_parser("opt", help="solve the pattern LP and emit the optimal mechanism")
    p.add_argument("--utility", choices=UTILITIES, required=True)
    p.add_argument("--eps", type=float, required=True)
    for flag in PRIOR_FLAGS:
        p.add_argument(flag)
    p.add_argument("--out")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("check", help="validate a mechanism file and its privacy claims")
    p.add_argument("mechanism")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    for flag in PRIOR_FLAGS:
        p.add_argument(flag)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("region", help="emit an error-region boundary as CSV")
    p.add_argument("--mech")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--x1", type=int, default=1)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="run a benchmark sweep over random priors")
    p.add_argument("--config", help="JSON file with the sweep configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--num-instances", type=int)
    p.add_argument("--eps-grid", dest="eps_grid")
    p.add_argument("--utility", choices=UTILITIES)
    p.add_argument("--mechanisms")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exponent", help="Monte-Carlo Chernoff-Stein exponent estimate")
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--mechanism", choices=["binary", "rr"], default="binary")
    p.add_argument("--mech")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_exponent)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parse_args leaves it unchanged."""
    return _parsers()[0]


def main(argv=None) -> int:
    """Run one command. A command's flags are parsed once, by its own
    subparser; the top-level parser would parse them a second time."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, unknown = commands[argv[0]].parse_known_args(argv[1:])
        if unknown:  # as the top-level parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args.command = argv[0]
    else:  # no command: --help, a usage error or an unknown command
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, KeyError, TypeError, MemoryError,
            NumericalBreakdown, DegenerateBasis) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
