"""Command-line front end.

Every subcommand prints one JSON document with the fully resolved
configuration echoed next to the result, all numbers as decimal strings
so nothing silently truncates at 64 bits.  Exit codes: 0 success, 1
usage or validation, 2 resource cap.
"""

import argparse
import json
import sys

from .dim_classifier import (
    STRATEGIES,
    dim_irreducible,
    enumerate_small_irreducibles,
    verify_tables,
)
from .freudenthal import weyl_dimension, weyl_multiplicity
from .multiplicity_oracles import NO_PATTERN, oracle_multiplicity
from .root_system import (
    dual_weight,
    format_weight,
    is_dominant,
    is_restricted,
    parse_weight,
)
from .tensor_constructions import (
    CONTRACTION_RANK_CAP,
    YOUNG_RANK_CAP,
    contraction_kernel_dim,
    young_symmetrizer_module,
)
from .verma_gram import (
    DEFAULT_MONOMIAL_CAP,
    ResourceExceeded,
    irreducible_multiplicity,
    require_prime,
)
from .weyl_orbits import orbit_size

CONSTRUCT_NAMES = ("l1l2", "l1llm1", "2l1ll")
_CONFIG_KEYS = ("strategy", "cap_monomials", "cap_tensor_rank", "threads")


class _CliError(Exception):
    pass


def _build_parser():
    top = argparse.ArgumentParser(prog="typea-irreps", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, char=True, weight=False, strategy=True):
        p.add_argument("--rank", type=int, required=True)
        if char:
            p.add_argument("--char", type=int, required=True)
        if weight:
            p.add_argument("--weight", required=True)
        if strategy:
            p.add_argument("--strategy", choices=STRATEGIES, default=None)
            p.add_argument("--cap-monomials", type=int, default=None)
        p.add_argument("--cap-tensor-rank", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("dim", help="dimension of one restricted irreducible")
    common(p, weight=True)

    p = sub.add_parser("mult", help="weight multiplicity in one irreducible")
    common(p, weight=True)
    p.add_argument("--sub", required=True)

    p = sub.add_parser("orbit", help="orbit data of a dominant weight")
    common(p, char=False, weight=True, strategy=False)

    p = sub.add_parser("enumerate", help="all irreducibles under (l+1)^s")
    common(p)
    p.add_argument("--exp", type=int, required=True)

    p = sub.add_parser("verify", help="check the enumeration against the registered rows")
    common(p)
    p.add_argument("--exp", type=int, required=True)

    p = sub.add_parser("construct", help="tensor-space realization dimensions")
    p.add_argument("name", choices=CONSTRUCT_NAMES)
    common(p, strategy=False)

    p = sub.add_parser("selftest", help="fast internal consistency grid")
    p.add_argument("--config", default=None)
    return top


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        raise _CliError("cannot read config %s: %s" % (path, e))
    if not isinstance(raw, dict):
        raise _CliError("config %s is not a JSON object" % path)
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise _CliError("unknown config key %r" % key)
    return raw


def _resolve(args, young=False):
    """Flags override config; config overrides defaults."""
    cfg = _load_config(getattr(args, "config", None))

    def pick(flag, key, default, cast):
        val = getattr(args, flag, None)
        if val is None:
            val = cfg.get(key)
        if val is None:
            return default
        try:
            return cast(val)
        except (TypeError, ValueError):
            raise _CliError("bad value for %s: %r" % (key, val))

    strategy = pick("strategy", "strategy", "oracle-first", str)
    if strategy not in STRATEGIES:
        raise _CliError("unknown strategy %r" % strategy)
    return {
        "strategy": strategy,
        "cap_monomials": pick("cap_monomials", "cap_monomials",
                              DEFAULT_MONOMIAL_CAP, int),
        "cap_tensor_rank": pick("cap_tensor_rank", "cap_tensor_rank",
                                YOUNG_RANK_CAP if young else CONTRACTION_RANK_CAP,
                                int),
        "threads": pick("threads", "threads", 1, int),
    }


def _check_rank_char(args, char=True):
    if args.rank < 1:
        raise _CliError("rank must be at least 1")
    if char:
        try:
            require_prime(args.char)
        except ValueError as e:
            raise _CliError(str(e))


def _parse(args, text):
    try:
        return parse_weight(text, args.rank)
    except ValueError as e:
        raise _CliError(str(e))


def _echo(args, resolved, **extra):
    out = {"command": args.command, "rank": str(args.rank)}
    if hasattr(args, "char"):
        out["char"] = str(args.char)
    out.update({
        "strategy": resolved["strategy"],
        "cap_monomials": str(resolved["cap_monomials"]),
        "cap_tensor_rank": str(resolved["cap_tensor_rank"]),
        "threads": str(resolved["threads"]),
    })
    out.update(extra)
    return out


def _cmd_dim(args):
    _check_rank_char(args)
    resolved = _resolve(args)
    lam = _parse(args, args.weight)
    if not any(lam):
        raise _CliError("the zero weight has no interesting dimension; "
                        "weights must be nonzero")
    try:
        result = dim_irreducible(lam, args.char, strategy=resolved["strategy"],
                                 cap_monomials=resolved["cap_monomials"])
    except ValueError as e:
        raise _CliError(str(e))
    return {
        "config": _echo(args, resolved, weight=format_weight(lam)),
        "result": result.to_dict(),
    }


def _cmd_mult(args):
    _check_rank_char(args)
    resolved = _resolve(args)
    lam = _parse(args, args.weight)
    mu = _parse(args, args.sub)
    value = None
    provenance = None
    try:
        if resolved["strategy"] != "gram-only":
            hit = oracle_multiplicity(lam, mu, args.char)
            if hit is not NO_PATTERN:
                value, provenance = hit.value, hit.source
            elif resolved["strategy"] == "oracle-only":
                raise ResourceExceeded(
                    "no closed form for mu=%s under oracle-only" % format_weight(mu),
                    blocking=mu)
        if value is None:
            value = irreducible_multiplicity(lam, mu, args.char,
                                             cap=resolved["cap_monomials"])
            provenance = "gram"
    except ValueError as e:
        raise _CliError(str(e))
    return {
        "config": _echo(args, resolved, weight=format_weight(lam),
                        sub=format_weight(mu)),
        "result": {"multiplicity": str(value), "provenance": provenance},
    }


def _cmd_orbit(args):
    _check_rank_char(args, char=False)
    resolved = _resolve(args)
    lam = _parse(args, args.weight)
    if not is_dominant(lam):
        raise _CliError("%r is not dominant" % (lam,))
    dual = dual_weight(lam)
    return {
        "config": _echo(args, resolved, weight=format_weight(lam)),
        "result": {
            "orbit_size": str(orbit_size(lam)),
            "weyl_dimension": str(weyl_dimension(lam)),
            "dual": format_weight(dual),
            "self_dual": dual == lam,
        },
    }


def _cmd_enumerate(args):
    _check_rank_char(args)
    if args.exp < 1:
        raise _CliError("exponent must be at least 1")
    resolved = _resolve(args)
    report = enumerate_small_irreducibles(
        args.rank, args.char, args.exp, strategy=resolved["strategy"],
        cap_monomials=resolved["cap_monomials"], threads=resolved["threads"])
    return {
        "config": _echo(args, resolved, exp=str(args.exp)),
        "result": report.to_dict(),
    }


def _cmd_verify(args):
    _check_rank_char(args)
    if args.exp < 1:
        raise _CliError("exponent must be at least 1")
    resolved = _resolve(args)
    check = verify_tables(
        args.rank, args.char, args.exp, strategy=resolved["strategy"],
        cap_monomials=resolved["cap_monomials"], threads=resolved["threads"])
    return {
        "config": _echo(args, resolved, exp=str(args.exp)),
        "result": check.to_dict(),
    }


def _cmd_construct(args):
    _check_rank_char(args)
    young = args.name == "2l1ll"
    resolved = _resolve(args, young=young)
    l = args.rank
    cap = resolved["cap_tensor_rank"]
    if young:
        weyl, irreducible = young_symmetrizer_module(l, args.char, cap=cap)
        result = {"weyl": str(weyl), "irreducible": str(irreducible)}
    else:
        k = 2 if args.name == "l1l2" else l - 1
        try:
            kernel, quotient = contraction_kernel_dim(k, l, args.char, cap=cap)
        except ValueError as e:
            raise _CliError(str(e))
        result = {
            "kernel": str(kernel),
            "quotient": None if quotient is None else str(quotient),
            "irreducible": str(kernel if quotient is None else quotient),
        }
    return {
        "config": _echo(args, resolved, construction=args.name),
        "result": result,
    }


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append({"name": name, "status": "ok" if ok else "FAIL"})

    check("dim l1+l6 rank 6 char 7",
          lambda: dim_irreducible((1, 0, 0, 0, 0, 1), 7).value == 47)
    check("oracle matches gram on l2+l3 rank 5 char 2",
          lambda: oracle_multiplicity((0, 1, 1, 0, 0), (0, 0, 0, 0, 1), 2).value
          == irreducible_multiplicity((0, 1, 1, 0, 0), (0, 0, 0, 0, 1), 2) == 4)
    check("orbit sizes sum to weyl dimension for l1+l2 rank 4",
          lambda: weyl_dimension((1, 1, 0, 0)) == sum(
              orbit_size(m) * weyl_multiplicity((1, 1, 0, 0), m)
              for m in ((1, 1, 0, 0), (0, 0, 1, 0))))
    check("contraction kernel rank 4 char 3",
          lambda: contraction_kernel_dim(2, 4, 3) == (40, 30))
    check("restrictedness gate",
          lambda: not is_restricted((2, 0, 0), 2) and is_restricted((1, 1, 0), 2))
    failures = sum(1 for c in checks if c["status"] != "ok")
    payload = {
        "config": {"command": "selftest"},
        "result": {"checks": checks, "failures": str(failures)},
    }
    return payload, (1 if failures else 0)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1

    handlers = {
        "dim": _cmd_dim,
        "mult": _cmd_mult,
        "orbit": _cmd_orbit,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "construct": _cmd_construct,
    }
    try:
        if args.command == "selftest":
            payload, code = _cmd_selftest(args)
        else:
            payload, code = handlers[args.command](args), 0
    except _CliError as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return 1
    except ResourceExceeded as e:
        doc = {"error": str(e)}
        if e.blocking is not None:
            doc["blocking"] = format_weight(e.blocking)
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
