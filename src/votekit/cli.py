"""Command-line front end.

Parses and evaluates games, computes power indices, reproduces the
certified enumeration tables with on-disk caching, measures the gap
between complete simple games and their best weighted approximations,
and runs inverse searches.  Output formats: aligned text, CSV, JSON.

Exit codes: 0 success, 1 usage or input errors, the 8-voter tier not
cached included, 2 a certified count or a cached tier failed to verify.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from . import certified, pipeline
from .certified import CountMismatchError
from .council import council_game, parse_populations, population_shares
from .enumeration import enumerate_simple4
from .games import (
    MAX_EXPLICIT_VOTERS,
    BoolCombo,
    GameParseError,
    WeightedGame,
    coalition_mask,
    coalition_members,
    evaluate,
    game_to_text,
    parse_game,
    _set_str,
)
from .geometry import Metric, distance
from .indices import KINDS, MAX_DP_VOTERS, decimal_str, pbi_dp, power_vector, ssi_dp
from .inverse import (
    InverseResult,
    beta_target,
    inverse_exact,
    inverse_heuristic,
    padded_target_search,
    parse_target_file,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; 2 is reserved for certified
    count mismatches here, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Input problems detected after argparse is done."""


@contextmanager
def _input_errors():
    """Report a ValueError or OSError raised in the block as a usage
    error.  Blocks hold only the reading of the user's own input (files,
    argument values, game sizes); anywhere else these exceptions are bugs
    and propagate."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc


def _at_least(low: int):
    """An argparse type: integers from low up."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value

    return parse


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _aligned(headers, rows, out):
    widths = [len(h) for h in headers]
    for i, column in enumerate(itertools.zip_longest(*rows, fillvalue="")):
        widths[i] = max(widths[i], *map(len, column))

    def line(cells) -> str:
        return "  ".join([c.ljust(w) for c, w in zip(cells, widths)]).rstrip() + "\n"

    out.write(line(headers) + "  ".join("-" * w for w in widths) + "\n")
    out.write("".join([line(row) for row in rows]))


class _Report:
    """One command's output: tabular sections plus a JSON mirror."""

    def __init__(self, config: dict):
        self.config = config
        self.results: dict = {}
        self.sections: list[tuple[str, list[str], list[list[str]]]] = []
        self.started = time.monotonic()

    def section(self, title: str, headers, rows) -> None:
        self.sections.append(
            (title, [str(h) for h in headers], [[str(c) for c in row] for row in rows])
        )

    def emit(self, fmt: str, out=None) -> None:
        out = out or sys.stdout
        if fmt == "json":
            payload = {
                "config": self.config,
                "results": self.results,
                "timing": {"seconds": round(time.monotonic() - self.started, 6)},
            }
            print(json.dumps(payload, indent=2), file=out)
        elif fmt == "csv":
            w = csv.writer(out)
            for _, headers, rows in self.sections:
                w.writerow(headers)
                w.writerows(rows)
        else:
            for i, (title, headers, rows) in enumerate(self.sections):
                if i:
                    print(file=out)
                if title:
                    print(title, file=out)
                _aligned(headers, rows, out)


def _config(args, **extra) -> dict:
    cfg = {"subcommand": args.cmd, "format": args.format}
    for name in ("n", "index", "metric", "threads", "long_running", "seed"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    if hasattr(args, "cache_dir"):
        cfg["cache_dir"] = str(_cache_dir(args))
    cfg.update(extra)
    return cfg


def _vec_json(v) -> dict:
    fracs = v.fractions()
    return {
        "kind": v.kind,
        "values": [str(f) for f in fracs],
        "decimals": [decimal_str(f) for f in fracs],
    }


def _cache_dir(args) -> Path:
    if getattr(args, "cache_dir", None):
        path = Path(args.cache_dir)
        if path.exists() and not path.is_dir():
            raise _UsageError(f"--cache-dir {path} is not a directory")
        return path
    return pipeline.default_cache_dir()


def _long_ok(args) -> bool:
    if getattr(args, "long_running", False):
        return True
    return os.environ.get("VOTEKIT_LONG_RUNNING") == "1"


def _load(args, loader, *params, **options):
    """loader(*params, cache_dir=..., **options), a pipeline tier loader.
    Below 8 voters the loader rebuilds a missing or damaged tier itself;
    at 8 it raises TierError, and the tier is built here, once, behind
    the long-running opt-in (main refuses without it)."""
    cache = _cache_dir(args)
    try:
        return loader(*params, cache_dir=cache, **options)
    except pipeline.TierError:
        if not _long_ok(args):
            raise
    progress = _stderr_progress("enumerated", "complete games")  # called once per chunk
    pipeline.build_big_tables(cache, workers=args.threads, progress=progress)
    return loader(*params, cache_dir=cache, **options)


def _stderr_progress(verb: str, noun: str):
    """A progress(done, total) callback that reports on stderr at every
    64th call, and at done == total."""
    calls = itertools.count(1)

    def progress(done, total):
        if next(calls) % 64 == 0 or done == total:
            print(f"\r  {verb} {done}/{total} {noun}", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    return progress


def _pick_kinds(args) -> tuple[str, ...]:
    return KINDS if args.index == "both" else (args.index,)


def _pick_metrics(args) -> tuple[Metric, ...]:
    if args.metric == "both":
        return (Metric.L1, Metric.LINF)
    return (Metric.parse(args.metric),)


def _parse_n_range(text: str) -> range:
    a, dots, b = text.partition("..")
    try:
        lo, hi = int(a), int(b if dots else a)
    except ValueError:
        raise _UsageError(f"bad voter range {text!r}") from None
    if lo < 1 or hi < lo:
        raise _UsageError(f"bad voter range {text!r}")
    return range(lo, hi + 1)


def _auto_vector(g, kind: str, state_cap: int):
    """Weighted games and combinations stay in weight space; everything
    else goes through the explicit table.  A game too large for its path,
    or a weight space above --state-cap, is a usage error."""
    with _input_errors():
        if isinstance(g, (WeightedGame, BoolCombo)):
            return ssi_dp(g, state_cap) if kind == "ssi" else pbi_dp(g, state_cap)
        return power_vector(g, kind)


def _parse_coalition(text: str, n: int) -> int:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1].strip()
    if not body:
        return 0
    try:
        members = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise _UsageError(f"bad coalition {text!r}; write it like {{1,3}}") from None
    for m in members:
        if not 1 <= m <= n:
            raise _UsageError(f"voter {m} is out of range 1..{n}")
    return coalition_mask(members)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_index(args) -> int:
    kinds = [k for k, on in (("ssi", args.ssi), ("pbi", args.pbi)) if on]
    if not kinds:
        kinds = list(KINDS)
    rep = _Report(_config(args, index=",".join(kinds)))
    out_games = []
    for text in args.game:
        g = parse_game(text)
        canonical = game_to_text(g)
        vecs = {k: _auto_vector(g, k, args.state_cap) for k in kinds}
        headers = ["voter"]
        for k in kinds:
            headers += [k, f"{k} decimal"]
        rows = []
        for i in range(g.n):
            row = [i + 1]
            for k in kinds:
                f = vecs[k].fractions()[i]
                row += [f, decimal_str(f, args.places)]
            rows.append(row)
        rep.section(canonical, headers, rows)
        entry = {"game": canonical, "n": g.n}
        for k in kinds:
            entry[k] = _vec_json(vecs[k])
        if len(kinds) == 2:
            gaps = {
                m.value: distance(vecs["ssi"].fractions(), vecs["pbi"].fractions(), m)
                for m in (Metric.L1, Metric.LINF)
            }
            rep.section(
                "disagreement between the two indices",
                ["metric", "distance", "decimal"],
                [[m, d, decimal_str(d, args.places)] for m, d in gaps.items()],
            )
            entry["disagreement"] = {
                m: {"distance": str(d), "decimal": decimal_str(d)}
                for m, d in gaps.items()
            }
        out_games.append(entry)
    rep.results["games"] = out_games
    rep.emit(args.format)
    return EXIT_OK


def cmd_eval(args) -> int:
    g = parse_game(args.game)
    rep = _Report(_config(args, game=game_to_text(g)))
    rows = []
    outcomes = []
    for text in args.coalition:
        mask = _parse_coalition(text, g.n)
        win = bool(evaluate(g, mask))
        rows.append([_set_str(mask), "win" if win else "lose"])
        outcomes.append({"coalition": list(coalition_members(mask)), "win": win})
    rep.section(game_to_text(g), ["coalition", "outcome"], rows)
    rep.results["game"] = game_to_text(g)
    rep.results["outcomes"] = outcomes
    rep.emit(args.format)
    return EXIT_OK


def cmd_tables(args) -> int:
    rep = _Report(_config(args, klass=args.klass))  # timing covers an 8-voter build
    ns = _parse_n_range(args.n)
    klasses = ("cg", "wg") if args.klass == "both" else (args.klass,)
    kinds = _pick_kinds(args)
    if ns.stop - 1 > pipeline.BIG_N:
        raise _UsageError(
            f"enumeration stops at {pipeline.BIG_N} voters; larger tiers are documented only"
        )
    rows = []
    out = []
    for klass in klasses:
        for n in ns:
            # store row counts, checked against the certified counts
            games, got = _load(args, pipeline.tier_counts, klass, n, kinds)
            row = [klass, n, games] + [got[k] for k in kinds]
            rows.append(row)
            out.append({"class": klass, "n": n, "games": games, **got})
    rep.section(
        "distinct power vectors",
        ["class", "n", "games"] + [f"distinct {k}" for k in kinds],
        rows,
    )
    rep.results["rows"] = out
    rep.emit(args.format)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    klass = args.klass
    n = args.n if args.n is not None else (4 if klass == "sg4" else None)
    if n is None:
        raise _UsageError("--n is required")
    if klass == "sg4" and n != 4:
        raise _UsageError("the simple-game catalog exists for 4 voters only")
    if n < 1:
        raise _UsageError(f"--n must be at least 1, got {n}")
    if n > pipeline.BIG_N:
        doc = ", ".join(
            f"{certified.DOCUMENTED_COUNTS[k, m]} {k}({m})"
            for (k, m) in sorted(certified.DOCUMENTED_COUNTS)
        )
        raise _UsageError(
            f"enumeration stops at {pipeline.BIG_N} voters; documented counts beyond that: {doc}"
        )
    if n == pipeline.BIG_N and args.list:
        raise _UsageError("listing millions of games is not supported; use the cache files")
    rep = _Report(_config(args, klass=klass))
    if klass == "sg4":
        pairs = enumerate_simple4()
        weighted = sum(w is not None for _, w in pairs)
        rep.results.update({"class": klass, "n": n, "count": len(pairs)})
        rep.section(
            "catalog",
            ["class", "n", "games", "weighted", "not weighted"],
            [[klass, n, len(pairs), weighted, len(pairs) - weighted]],
        )
        rep.results["weighted"] = weighted
        if args.list:
            rows = []
            out = []
            for i, (g, w) in enumerate(pairs):
                text = game_to_text(g)
                form = game_to_text(w) if w is not None else None
                rows.append([i, text, form or "-"])
                out.append({"game": text, "weighted": w is not None, "representation": form})
            rep.section("games", ["#", "game", "weighted form"], rows)
            rep.results["games"] = out
        rep.emit(args.format)
        return EXIT_OK
    count, _ = _load(args, pipeline.tier_counts, klass, n)
    rep.results.update({"class": klass, "n": n, "count": count})
    rep.section("catalog", ["class", "n", "games"], [[klass, n, count]])
    if args.list:
        games, forms = _load(args, pipeline.load_listing, klass, n)
        if forms is None:
            rep.section("games", ["#", "game"], enumerate(games))
            rep.results["games"] = [{"game": text} for text in games]
        else:
            rep.section("games", ["#", "representation", "game"], zip(itertools.count(), forms, games))
            rep.results["games"] = [{"game": text, "representation": form} for text, form in zip(games, forms)]
    rep.emit(args.format)
    return EXIT_OK


def _gap_reports(args, n=None, kinds=None, metrics=None):
    """(kind, metric) -> GapReport, nearest weighted games attached."""
    n = args.n if n is None else n
    kinds = kinds if kinds is not None else _pick_kinds(args)
    metrics = metrics if metrics is not None else _pick_metrics(args)

    # Called once per scanned block; each kind counts its own blocks.
    reporters = {kind: _stderr_progress("scanned", f"{kind} vectors") for kind in kinds}

    def progress(kind, done, total):
        reporters[kind](done, total)

    return _load(
        args,
        pipeline.omega_tier,
        n,
        kinds=kinds,
        metrics=metrics,
        progress=progress if n == pipeline.BIG_N else None,
    )


def cmd_omega(args) -> int:
    if not 1 <= args.n <= pipeline.BIG_N:
        raise _UsageError(f"gap computation is certified for 1..{pipeline.BIG_N} voters only")
    rep = _Report(_config(args))
    reports = _gap_reports(args)
    gap_rows = []
    witness_rows = []
    out = []
    for (kind, metric), report in sorted(reports.items()):
        gap_rows.append(
            [kind, metric, report.omega, report.decimal, len(report.attaining)]
        )
        near = report.nearest_game
        near_text = game_to_text(near) if near is not None else "-"
        entry = {
            "n": report.n,
            "kind": kind,
            "metric": metric,
            "omega": str(report.omega),
            "decimal": report.decimal,
            "attaining": [],
            "nearest": None,
        }
        for idx, game, vec in report.attaining:
            witness_rows.append([kind, metric, idx, game_to_text(game), near_text])
            entry["attaining"].append(
                {"index": idx, "game": game_to_text(game), "vector": _vec_json(vec)}
            )
        if near is not None:
            entry["nearest"] = {
                "index": report.nearest_index,
                "game": near_text,
                "vector": _vec_json(report.nearest_vector),
            }
        out.append(entry)
    rep.section(
        f"worst weighted-approximation gap, n={args.n}",
        ["index", "metric", "omega", "decimal", "attaining"],
        gap_rows,
    )
    if witness_rows:
        rep.section(
            "attaining games",
            ["index", "metric", "#", "game", "nearest weighted"],
            witness_rows,
        )
    rep.results["reports"] = out
    rep.emit(args.format)
    return EXIT_OK


def _single_kind(args) -> str:
    if args.index == "both":
        raise _UsageError("pick one index kind with --index ssi or --index pbi")
    return args.index


def _single_metric(args) -> Metric:
    if args.metric == "both":
        raise _UsageError("pick one metric with --metric l1 or --metric linf")
    return Metric.parse(args.metric)


def _render_inverse(rep: _Report, res: InverseResult, label: str) -> dict:
    game_text = game_to_text(res.game)
    rep.section(
        label,
        ["mode", "metric", "distance", "decimal", "game", "evaluations"],
        [[res.mode.value, res.metric.value, res.distance, res.decimal, game_text, res.evaluations]],
    )
    pairs = [
        [i + 1, t, decimal_str(t), a, decimal_str(a)]
        for i, (t, a) in enumerate(zip(res.target.fractions(), res.vector.fractions()))
    ]
    rep.section(
        "target vs achieved",
        ["voter", "target", "target decimal", "achieved", "achieved decimal"],
        pairs,
    )
    return {
        "mode": res.mode.value,
        "metric": res.metric.value,
        "distance": str(res.distance),
        "decimal": res.decimal,
        "game": game_text,
        "vector": _vec_json(res.vector),
        "target": [str(v) for v in res.target.fractions()],
        "evaluations": res.evaluations,
        "seed": res.seed,
    }


def cmd_inverse(args) -> int:
    metric = _single_metric(args)
    rep = _Report(_config(args, target=args.target))

    if args.target == "padded":
        kind = _single_kind(args)
        if args.n is None or not 8 <= args.n <= MAX_EXPLICIT_VOTERS:
            raise _UsageError(f"--target padded needs --n from 8 to {MAX_EXPLICIT_VOTERS}")
        reports = _gap_reports(args, n=7, kinds=(kind,), metrics=(metric,))
        base_report = reports[kind, metric.value]
        bases = [g for _, g, _ in base_report.attaining]
        if not bases:
            raise _UsageError("no gap at 7 voters for this configuration; nothing to pad")
        search = padded_target_search(
            bases, args.n, metric, kind, budget=args.budget, seed=args.seed
        )
        (mode,) = {res.mode.value for res in search.results}
        rows = []
        out = []
        for base, res in zip(bases, search.results):
            rows.append(
                [game_to_text(base), res.distance, res.decimal, game_to_text(res.game)]
            )
            out.append({"base": game_to_text(base), **_inverse_json(res)})
        rep.section(
            f"padded bases from 7 to {args.n} voters ({mode})",
            ["base game", "distance", "decimal", "found game"],
            rows,
        )
        rep.section(
            "gap bound",
            ["bound", "decimal"],
            [[search.bound, search.decimal]],
        )
        rep.results.update(
            {
                "mode": mode,
                "bound": str(search.bound),
                "decimal": search.decimal,
                "searches": out,
            }
        )
        rep.emit(args.format)
        return EXIT_OK

    if args.target == "beta":
        if args.n is None or args.n < 1:
            raise _UsageError("--target beta needs a positive --n")
        target = beta_target(args.n, _single_kind(args))
    elif args.target == "eu":
        if not args.populations:
            raise _UsageError("--target eu needs --populations FILE")
        _, game = _council(args)
        target = _auto_vector(game, _single_kind(args), args.state_cap)
    else:
        with _input_errors():
            target = parse_target_file(Path(args.target).read_text(), normalize=args.normalize)
        if args.index != "both" and args.index != target.kind:
            raise _UsageError(
                f"target file declares index={target.kind}, but --index {args.index} was given"
            )

    mode = args.mode
    if mode == "auto":
        mode = "exact" if target.n < pipeline.BIG_N else "heuristic"
    if mode == "exact":
        if target.n > pipeline.BIG_N:
            raise _UsageError(
                f"exact minimization needs the full catalog; {pipeline.BIG_N} voters is the cap"
            )
        res = _load(args, inverse_exact, target, metric)
    else:
        if target.n > MAX_DP_VOTERS:
            raise _UsageError(f"heuristic search supports up to {MAX_DP_VOTERS} voters")
        res = inverse_heuristic(
            target,
            metric,
            weight_total=args.weight_total,
            budget=args.budget,
            seed=args.seed,
        )
    rep.results.update(_render_inverse(rep, res, "inverse search"))
    rep.emit(args.format)
    return EXIT_OK


def _inverse_json(res: InverseResult) -> dict:
    return {
        "mode": res.mode.value,
        "distance": str(res.distance),
        "decimal": res.decimal,
        "game": game_to_text(res.game),
        "evaluations": res.evaluations,
        "seed": res.seed,
    }


def _council(args):
    """(name, population) pairs of the populations file, and their
    council game under --quantize."""
    with _input_errors():
        pops = parse_populations(Path(args.populations).read_text())
        return pops, council_game([p for _, p in pops], args.quantize)


def cmd_eu(args) -> int:
    pops, game = _council(args)
    shares = population_shares([p for _, p in pops], args.quantize)
    kinds = _pick_kinds(args)
    vecs = {k: _auto_vector(game, k, args.state_cap) for k in kinds}
    rep = _Report(_config(args, quantize=args.quantize, members=len(pops)))
    headers = ["member", "population", "share"]
    for k in kinds:
        headers.append(k)
    rows = []
    for i, (name, p) in enumerate(pops):
        row = [name, p, shares[i]]
        for k in kinds:
            row.append(decimal_str(vecs[k].fractions()[i]))
        rows.append(row)
    rep.section("council rule power distribution", headers, rows)
    rep.results["game"] = game_to_text(game)
    rep.results["members"] = [
        {"name": name, "population": p, "share": str(shares[i])}
        for i, (name, p) in enumerate(pops)
    ]
    for k in kinds:
        rep.results[k] = _vec_json(vecs[k])
    rep.emit(args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> _ArgumentParser:
    """The command tree, built once per process: parsing does not change
    it."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output format"
    )
    cachep = argparse.ArgumentParser(add_help=False)
    cachep.add_argument("--cache-dir", default=None, help="cache directory (default: VOTEKIT_CACHE or ~/.cache/votekit)")
    cachep.add_argument("--threads", type=_at_least(1), default=1, help="worker processes for the 8-voter build")
    cachep.add_argument(
        "--long-running",
        action="store_true",
        help="opt in to the 8-voter build, 2 to 5 minutes with --threads 2 and 3.2 GB (or set VOTEKIT_LONG_RUNNING=1)",
    )

    capp = argparse.ArgumentParser(add_help=False)
    capp.add_argument(
        "--state-cap", type=_at_least(1), default=10**6, help="weight-space size limit for the index DPs"
    )

    p = _ArgumentParser(prog="votekit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_ArgumentParser)

    q = sub.add_parser("index", parents=[fmt, capp], help="power indices of one or more games")
    q.add_argument("game", nargs="+", help='game text, e.g. "[3;3,2,1,1]"')
    q.add_argument("--ssi", action="store_true", help="Shapley-Shubik only")
    q.add_argument("--pbi", action="store_true", help="Penrose-Banzhaf only")
    q.add_argument("--places", type=_at_least(0), default=7, help="decimal places")
    q.set_defaults(func=cmd_index)

    q = sub.add_parser("eval", parents=[fmt], help="evaluate coalitions in a game")
    q.add_argument("game")
    q.add_argument("coalition", nargs="+", help="coalitions like {1,3} (voters are 1-based)")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("tables", parents=[fmt, cachep], help="distinct power-vector counts")
    q.add_argument("--n", required=True, help="voter count or range like 3..7")
    q.add_argument("--class", dest="klass", choices=("cg", "wg", "both"), default="both")
    q.add_argument("--index", choices=("ssi", "pbi", "both"), default="both")
    q.set_defaults(func=cmd_tables)

    q = sub.add_parser("enumerate", parents=[fmt, cachep], help="build or load a game catalog")
    q.add_argument("--class", dest="klass", choices=("cg", "wg", "sg4"), required=True)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--list", action="store_true", help="list the games, not just the count")
    q.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("omega", parents=[fmt, cachep], help="worst-case weighted-approximation gap")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--index", choices=("ssi", "pbi", "both"), default="both")
    q.add_argument("--metric", choices=("l1", "linf", "both"), default="both")
    q.set_defaults(func=cmd_omega)

    q = sub.add_parser("inverse", parents=[fmt, cachep, capp], help="find a weighted game matching a target power distribution")
    q.add_argument(
        "--target",
        required=True,
        help="target file, or one of: beta (near-symmetric), eu (council rule), padded (7-voter extremal games padded to --n)",
    )
    q.add_argument("--n", type=int, default=None, help="voter count (for built-in targets)")
    q.add_argument("--index", choices=("ssi", "pbi", "both"), default="both")
    q.add_argument("--metric", choices=("l1", "linf", "both"), default="l1")
    q.add_argument("--mode", choices=("auto", "exact", "heuristic"), default="auto")
    q.add_argument("--budget", type=_at_least(1), default=800, help="heuristic evaluation budget")
    q.add_argument(
        "--weight-total", type=_at_least(1), default=100, help="starting weight total for the heuristic"
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--normalize", action="store_true", help="rescale file targets to sum to 1")
    q.add_argument("--populations", default=None, help="population file for --target eu")
    q.add_argument("--quantize", type=int, default=None, help="share grid for --target eu, e.g. 1000")
    q.set_defaults(func=cmd_inverse)

    q = sub.add_parser("eu", parents=[fmt, capp], help="council rule for given member populations")
    q.add_argument("populations", help="file with name,population lines")
    q.add_argument("--quantize", type=int, default=None, help="round shares to this grid, e.g. 1000")
    q.add_argument("--index", choices=("ssi", "pbi", "both"), default="both")
    q.set_defaults(func=cmd_eu)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CountMismatchError as exc:
        print(f"votekit: certified count mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except pipeline.TierError as exc:
        print(
            f"votekit: {exc}; pass --long-running (or set VOTEKIT_LONG_RUNNING=1) to build "
            "the tier, 2 to 5 minutes with --threads 2 and 3.2 GB of memory",
            file=sys.stderr,
        )
        return EXIT_USAGE if isinstance(exc.__cause__, FileNotFoundError) else EXIT_MISMATCH
    except (_UsageError, GameParseError) as exc:
        print(f"votekit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
