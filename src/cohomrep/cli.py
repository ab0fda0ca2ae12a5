"""Command-line interface.

Subcommands: catalog, isolation, lefschetz, branch, geometry (with
verify-integral / jacobi / hessian / volume / thresholds).  Data goes to
stdout in the selected format (json, csv, md), logs to stderr.  Exit codes:
0 success, 2 criterion-failure verdicts under --strict, 64 usage errors,
65 enumeration cap exceeded.  Each flag's argparse type converts and checks
its value, so the commands read typed values and None means "omitted".  A
usage error is an argparse error, or a ValueError raised by the cross-flag
rules here or by the library, and either is reported on one line.
Identical argv and config produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import types

from . import serialize as ser
from .config import make_config


def _lazy_module(name: str) -> types.ModuleType:
    """The module `name`, in sys.modules and bound on its package, whose
    source runs on its first attribute access; an already loaded module is
    returned as it is.  A cold command then pays only for the layers it
    uses, and numpy loads only with `geometry`, never with the numpy-free
    `closedforms`.  Unlike an import inside each cmd_*, the module is in
    sys.modules from `import cohomrep.cli` on, so code that wraps the loaded
    layers right after that import (the benchmark's tracer) finds, loads and
    wraps it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    return module


br = _lazy_module(f"{__package__}.branching")
cf = _lazy_module(f"{__package__}.closedforms")
geo = _lazy_module(f"{__package__}.geometry")
iso = _lazy_module(f"{__package__}.isolation")
lef = _lazy_module(f"{__package__}.lefschetz")
pt = _lazy_module(f"{__package__}.partitions")
vz = _lazy_module(f"{__package__}.vz_catalog")

EXIT_OK = 0
EXIT_CRITERION = 2
EXIT_USAGE = 64
EXIT_CAP = 65


class Parser(argparse.ArgumentParser):
    """An ArgumentParser that exits 64 on a usage error, with a one-line
    message; its subparsers are Parsers too."""

    def error(self, message):
        if message.endswith("expected one argument"):
            # argparse reads a separate value token that starts with "-" as an option
            message += ("; a value starting with '-' needs '=', as in --component=-;4,4,"
                        " or write the empty partition as (), as in '();4,4'")
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def partition(text: str):
    """A partition flag: comma-separated parts; "", "-" or "()" is the empty one."""
    text = text.strip()
    if text in ("", "-", "()"):
        return ()
    try:
        return pt.as_partition(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from None


def component(text: str):
    """--component: 'lam' or 'lam;mu'; the verdict engine decides which shape it reads."""
    pieces = [partition(t) for t in text.split(";")]
    if len(pieces) > 2:
        raise argparse.ArgumentTypeError(f"takes 'lam' or 'lam;mu', got {text!r}")
    return pieces[0] if len(pieces) == 1 else tuple(pieces)


def at_least(low: int):
    """The argparse type of an int flag that must be >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return integer


def finite(text: str) -> float:
    """A finite float flag: nan or inf would reach the JSON as a bare NaN or Infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as an argparse type."""
    return tuple(int(v) for v in text.split(","))


def int_pair(text: str) -> tuple[int, int]:
    """Exactly two comma-separated integers, k,l."""
    values = int_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"takes k,l, got {text!r}")
    return values


def _require(args, command: str, *flags: str) -> None:
    """Raise ValueError naming the flags among `flags` that args leaves unset."""
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"{command} needs {' '.join(missing)}")


def render(rows: list[dict], fmt: str, out, **meta) -> None:
    """Pass rows in fmt to out (sys.stdout.write): json in parts, csv and md whole."""
    if fmt == "json":
        return ser.write(ser.document(rows, **meta), out)
    import json  # csv and md cells only: the json format has its own writer

    # the text of json.dumps(v, sort_keys=True), from one encoder per call
    encode = json.JSONEncoder(sort_keys=True).encode

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (dict, list, tuple)):
            return encode(v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    keys = sorted({k for row in rows for k in row})
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cell(row.get(k)) for k in keys})
        return out(buf.getvalue())
    if fmt == "md":
        lines = ["| " + " | ".join(keys) + " |",
                 "| " + " | ".join("---" for _ in keys) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(cell(row.get(k)) for k in keys) + " |")
        return out("\n".join(lines) + "\n")
    raise ValueError(fmt)


# ---------------------------------------------------------------------------


def cmd_catalog(args, cfg) -> int:
    rows = []
    for mod in vz.catalog(args.kind, args.p, args.q, cap=cfg.enum_cap):
        row = ser.module_to_json(mod)
        row["provenance"] = "computed"
        rows.append(row)
    render(rows, cfg.format, sys.stdout.write, command="catalog",
           kind=args.kind, p=args.p, q=args.q)
    return EXIT_OK


def cmd_isolation(args, cfg) -> int:
    lam, mu = args.lam, args.mu
    if mu is not None and args.kind == "O":
        raise ValueError("isolation --kind O does not read --mu")
    if mu is not None and lam is None:
        raise ValueError("isolation --mu needs --lam")
    rows = []
    if lam is not None:
        if args.kind == "U":
            _require(args, "isolation --kind U --lam", "mu")
            cp = pt.compatible_pair(lam, mu, pt.BoxContext(args.p, args.q))
            if cp is None:
                raise ValueError("not a compatible pair")
            rows.append({"kind": "U", "lam": lam, "mu": mu,
                         "isolated": iso.is_isolated_U(cp), "provenance": "Prop Uisol"})
        else:
            orth = pt.ortho_classify(lam, pt.BoxContext(args.p, args.q))
            if orth is None:
                raise ValueError("not an orthogonal partition")
            rows.append({"kind": "O", "lam": lam,
                         "isolated": iso.is_isolated_O(orth),
                         "degree": sum(lam), "provenance": "Prop Oisol"})
    else:
        th = iso.min_degree_nonisolated(args.kind, args.p, args.q)
        row = {"kind": args.kind, "p": args.p, "q": args.q, "rank": th.rank,
               "bound": th.bound, "witness": th.witness or None,
               "note": th.note, "provenance": "Cor mino"}
        if args.kind == "O" and args.p * args.q <= cfg.enum_cap:
            count, best, argmin = iso.nonisolated_degree_scan(args.p, args.q)
            row["scan_min_degree"] = best
            row["scan_argmin"] = argmin
        rows.append(row)
    render(rows, cfg.format, sys.stdout.write, command="isolation")
    return EXIT_OK


def cmd_lefschetz(args, cfg) -> int:
    G = lef.parse_group(args.G)
    groups = [lef.parse_group(t) for t in args.H.split("+")] if args.H is not None else []
    H = groups[0] if len(groups) == 1 else (tuple(groups) or None)
    if args.mode in ("restriction", "cup"):
        verdict = lef.restriction_verdict if args.mode == "restriction" else lef.cup_verdict
        v = verdict(G, H, degree=args.degree, component=args.component, r=args.r, l2=args.l2)
    elif args.mode == "tensor":
        if args.degrees is None:
            raise ValueError("tensor mode needs --degrees k,l")
        v = lef.cup_classes_verdict(G, *args.degrees, components=args.component)
    else:
        v = lef.modular_symbol_verdict(G.kind, G.p, G.q, 1 if args.r is None else args.r)
    row = ser.verdict_to_json(v)
    row["provenance"] = v.anchor
    render([row], cfg.format, sys.stdout.write, command="lefschetz", mode=args.mode,
           G=str(G), H=args.H)
    if args.strict and v.status == lef.FAILS:
        return EXIT_CRITERION
    return EXIT_OK


# flags without a default that each branch op reads
BRANCH_FLAGS = {"lr": (), "gl-to-o": ("n",), "restrict-u": ("mu", "p", "q", "r"),
                "restrict-o": ("p", "q", "r"), "tensor": ("kind", "p", "q", "params"),
                "kobayashi": ("kind", "p", "q", "r"), "vanishing-uo": ("mu", "p", "q")}


def cmd_branch(args, cfg) -> int:
    _require(args, f"branch --op {args.op}", *BRANCH_FLAGS[args.op])
    lam, mu = args.lam, args.mu
    if mu is None and args.op in ("lr", "gl-to-o"):
        mu = ()  # these ops read an omitted --mu as the empty partition
    rows = []
    if args.op == "lr":
        rows.append({"op": "lr", "lam": lam, "mu": mu, "nu": args.nu,
                     "coefficient": br.lr_coefficient(lam, mu, args.nu), "provenance": "computed"})
    elif args.op == "gl-to-o":
        val = br.gl_to_o_mult(lam, mu, args.n)
        rows.append({"op": "gl-to-o", "lam": lam, "mu": mu, "n": args.n,
                     "multiplicity": val,
                     "note": None if val is not None else "outside stable range: needs character oracle",
                     "provenance": "computed"})
    elif args.op == "restrict-u":
        res = br.restrict_U_pair(lam, mu, pt.BoxContext(args.p, args.q), args.r)
        rows.append({"op": "restrict-u", "lam": lam, "mu": mu,
                     "r": args.r, "contains": res["contains"],
                     "multiplicity": res["multiplicity"],
                     "target": {"lam": res["target"][0], "mu": res["target"][1]} if res["target"] else None,
                     "provenance": "computed"})
    elif args.op == "restrict-o":
        res = br.restrict_O(lam, pt.BoxContext(args.p, args.q), args.r)
        rows.append({"op": "restrict-o", "lam": lam, "r": args.r,
                     "contains": res["contains"], "multiplicity": res["multiplicity"],
                     "provenance": "computed"})
    elif args.op == "tensor":
        res = br.tensor_contains(args.kind, args.p, args.q, args.params)
        rows.append({"op": "tensor", "kind": args.kind, "params": args.params,
                     "contains": res["contains"], "multiplicity": res["multiplicity"],
                     "provenance": "computed"})
    elif args.op == "kobayashi":
        ok = br.kobayashi_admissible(args.kind, args.p, args.q, args.r, lam, mu)
        rows.append({"op": "kobayashi", "kind": args.kind, "lam": lam, "mu": mu, "admissible": ok,
                     "provenance": "Thm kobaU" if args.kind == "U" else "Thm kobaO"})
    elif args.op == "vanishing-uo":
        ok = br.restrict_UO_vanishing(lam, mu, pt.BoxContext(args.p, args.q))
        rows.append({"op": "vanishing-uo", "lam": lam, "mu": mu,
                     "can_be_nontrivial": ok, "provenance": "computed"})
    render(rows, cfg.format, sys.stdout.write, command="branch")
    return EXIT_OK


def cmd_geometry(args, cfg) -> int:
    rows = []
    if args.geo_op == "verify-integral":
        res = geo.mc_verify_integral(args.s, args.p, args.n,
                                     cfg.mc_samples if args.samples is None else args.samples,
                                     args.seed if args.seed is not None else cfg.seed,
                                     batches=cfg.mc_batches)
        res["provenance"] = "computed"
        rows.append(res)
    elif args.geo_op == "jacobi":
        import numpy as np

        rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
        M = rng.normal(size=(args.r, args.p))
        M /= np.linalg.norm(M)
        spec = geo.jacobi_spectrum(M, args.p, args.q, args.r)
        T = geo.curvature_operator_matrix(M, args.p, args.q, args.r, "xv")
        P = geo.curvature_operator_matrix(M, args.p, args.q, args.r, "perp")
        ev_t = np.sort(np.linalg.eigvalsh(0.5 * (T + T.T)))
        ev_p = np.sort(np.linalg.eigvalsh(0.5 * (P + P.T)))
        rows.append({
            "p": args.p, "q": args.q, "r": args.r,
            "closed_tangent": spec["tangent"], "closed_normal": spec["normal"],
            "bracket_tangent": ev_t.tolist(), "bracket_normal": ev_p.tolist(),
            "max_deviation": float(max(np.abs(ev_t - np.array(spec["tangent"])).max(),
                                       np.abs(ev_p - np.array(spec["normal"])).max())),
            "provenance": "computed",
        })
    elif args.geo_op == "hessian":
        import numpy as np

        rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
        devs = []
        for _ in range(args.points):
            Z = geo.random_point(rng, args.p, args.q + 1) * 0.7
            devs.append(geo.hessian_numeric_check(Z, args.q, h=cfg.fd_step)["max_deviation"])
        rows.append({"p": args.p, "q": args.q, "r": 1, "points": args.points,
                     "step": cfg.fd_step, "max_deviation": max(devs),
                     "provenance": "computed"})
    elif args.geo_op == "volume":
        res = cf.volume_growth(args.t, args.p, args.q, args.r)
        rows.append({"p": args.p, "q": args.q, "r": args.r, "t": args.t,
                     "value": res["value"], "exact_shape": res["exact"],
                     "provenance": "computed"})
    elif args.geo_op == "thresholds":
        th = cf.dx_threshold(args.p, args.q, args.r)
        l2 = cf.l2_cup_threshold(args.p, args.q, args.r)
        rows.append({
            "p": args.p, "q": args.q, "r": args.r,
            "dx_limit_ones": th["limit_ones"],
            "dx_threshold_qpr": th["threshold_qpr"],
            "dx_threshold_pqr_variant": th["threshold_pqr"],
            "dx_convention": th["convention"],
            "l2_iso_max_degree": l2.iso_max_degree,
            "l2_iso_range": l2.iso_range,
            "l2_middle_injective": l2.middle_injective,
            "poincare_exponent": (args.p + args.q + args.r - 1) * (min(args.r, args.p) ** 0.5) / 2.0,
            "provenance": "Thm cohom l2",
        })
    render(rows, cfg.format, sys.stdout.write, command=f"geometry {args.geo_op}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value config file")
    common.add_argument("--format", choices=("json", "csv", "md"),
                        default=argparse.SUPPRESS)
    common.add_argument("--strict", action="store_true", default=argparse.SUPPRESS,
                        help="exit 2 on criterion-failure verdicts")

    positive, natural = at_least(1), at_least(0)
    top = Parser(prog="cohomrep", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, flags=None, **kw):
        parser = sub.add_parser(name, parents=[common], **kw)
        parser.set_defaults(run=run)
        if flags is not None:
            flags(parser)
        return parser

    def catalog(c):
        c.add_argument("--kind", required=True, choices=("U", "O"))
        c.add_argument("--p", type=int, required=True)
        c.add_argument("--q", type=int, required=True)

    def isolation(i):
        i.add_argument("--kind", required=True, choices=("U", "O"))
        i.add_argument("--p", type=int, required=True)
        i.add_argument("--q", type=int, required=True)
        i.add_argument("--lam", type=partition)
        i.add_argument("--mu", type=partition)

    def lefschetz(l):
        l.add_argument("--mode", required=True,
                       choices=("restriction", "cup", "tensor", "modular-symbol"))
        l.add_argument("--G", required=True, help="group, e.g. O:3,4")
        l.add_argument("--H", help="subgroup(s), e.g. U:2,2 or U:2,2+U:1,3")
        l.add_argument("--degree", type=int)
        l.add_argument("--degrees", type=int_pair, help="k,l for tensor mode")
        l.add_argument("--component", type=component, help="partition '2,1' or pair '2,1;3,2'")
        l.add_argument("--r", type=int)
        l.add_argument("--l2", action="store_true", help="L2/cuspidal variants")

    def branch(b):
        b.add_argument("--op", required=True,
                       choices=("lr", "gl-to-o", "restrict-u", "restrict-o",
                                "tensor", "kobayashi", "vanishing-uo"))
        b.add_argument("--lam", type=partition, default=())
        b.add_argument("--mu", type=partition)
        b.add_argument("--nu", type=partition, default=())
        b.add_argument("--n", type=positive)
        b.add_argument("--p", type=int)
        b.add_argument("--q", type=int)
        b.add_argument("--r", type=int)
        b.add_argument("--kind", choices=("U", "O"))
        b.add_argument("--params", type=int_list, help="i,j,k,l (U) or k,l (O) for tensor")

    def verify_integral(vi):
        vi.add_argument("--s", type=finite, required=True)
        vi.add_argument("--p", type=positive, required=True)
        vi.add_argument("--n", type=natural, required=True)
        vi.add_argument("--samples", type=positive)
        vi.add_argument("--seed", type=int)

    def jacobi(ja):
        ja.add_argument("--p", type=positive, required=True)
        ja.add_argument("--q", type=positive, required=True)
        ja.add_argument("--r", type=positive, required=True)
        ja.add_argument("--seed", type=int)

    def hessian(he):
        he.add_argument("--p", type=positive, required=True)
        he.add_argument("--q", type=natural, required=True)
        he.add_argument("--points", type=positive, default=5)
        he.add_argument("--seed", type=int)

    def volume(vo):
        vo.add_argument("--p", type=positive, required=True)
        vo.add_argument("--q", type=positive, required=True)
        vo.add_argument("--r", type=natural, required=True)
        vo.add_argument("--t", type=finite, required=True)

    def thresholds(th):
        th.add_argument("--p", type=positive, required=True)
        th.add_argument("--q", type=positive, required=True)
        th.add_argument("--r", type=natural, required=True)

    add("catalog", cmd_catalog, catalog, help="enumerate cohomological modules")
    add("isolation", cmd_isolation, isolation, help="isolation verdicts and degree thresholds")
    add("lefschetz", cmd_lefschetz, lefschetz, help="injectivity verdicts with citations")
    add("branch", cmd_branch, branch, help="branching multiplicities")
    g = add("geometry", cmd_geometry, help="numerical geometry on X_{p,q+r}")
    gsub = g.add_subparsers(dest="geo_op", required=True)
    for op, flags in (("verify-integral", verify_integral), ("jacobi", jacobi), ("hessian", hessian),
                      ("volume", volume), ("thresholds", thresholds)):
        flags(gsub.add_parser(op, parents=[common]))
    return top


def parse(parser: Parser, argv=None) -> argparse.Namespace:
    """argv parsed by parser, the global flags defaulting in the namespace.
    `common`'s actions are shared by every parser, so a default set on them
    would let each subparser overwrite a flag given before its subcommand;
    given on both sides, the flag after the subcommand wins."""
    return parser.parse_args(argv, argparse.Namespace(config=None, format=None, strict=False))


def main(argv=None) -> int:
    args = parse(build_parser(), argv)
    try:
        cfg = make_config(args.config, format=args.format)
        return args.run(args, cfg)
    except pt.CapExceededError as exc:  # a ValueError, so caught first
        sys.stderr.write(f"{exc}\n")
        return EXIT_CAP
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
