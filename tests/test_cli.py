"""Command-line front end: output shapes, exit codes, cache behaviour."""

import io
import json
import shutil
import time
from concurrent import futures
from fractions import Fraction

import numpy as np
import pytest

from votekit import certified, cli, enumeration, pipeline
from votekit.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from votekit.enumeration import certificate_game
from votekit.games import evaluate, game_to_text, parse_game, to_explicit
from votekit.geometry import Metric
from votekit.indices import pbi_dp, ssi_dp
from votekit.inverse import beta_target, inverse_exact


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK, err
    return json.loads(out)


def test_index_worked_example(capsys):
    code, out, _ = run(capsys, "index", "[3;3,2,1,1]", "--ssi", "--pbi")
    assert code == EXIT_OK
    for cell in ("7/12", "1/4", "1/12", "1/2", "3/10", "1/10"):
        assert cell in out
    assert "0.5833333" in out  # 7/12 to seven places


def test_index_reports_cross_index_disagreement(capsys):
    data = run_json(capsys, "index", "[3;3,2,1,1]", "--ssi", "--pbi")
    game = data["results"]["games"][0]
    assert game["disagreement"]["l1"]["distance"] == "1/6"
    assert game["disagreement"]["linf"]["distance"] == "1/12"


def test_index_places_round_every_decimal_column(capsys):
    code, out, _ = run(capsys, "index", "[3;3,2,1,1]", "--ssi", "--pbi", "--places", "3")
    assert code == EXIT_OK
    assert "0.583" in out and "0.5833333" not in out  # ssi of voter 1, 7/12
    assert "0.167" in out and "0.1666667" not in out  # L1 disagreement, 1/6
    assert "0.083" in out and "0.0833333" not in out  # Linf disagreement, 1/12
    data = run_json(capsys, "index", "[3;3,2,1,1]", "--ssi", "--pbi", "--places", "3")
    game = data["results"]["games"][0]
    assert game["disagreement"]["l1"]["decimal"] == "0.1666667"
    assert game["disagreement"]["linf"]["decimal"] == "0.0833333"


def test_index_parse_error_exits_one(capsys):
    code, _, err = run(capsys, "index", "[3;3,2,1,1", "--ssi")
    assert code == EXIT_USAGE
    assert err.startswith("votekit:")


def test_eval_outcomes(capsys):
    code, out, _ = run(capsys, "eval", "[3;3,2,1,1]", "{1,2}", "{3,4}")
    assert code == EXIT_OK
    assert "win" in out and "lose" in out
    code, _, err = run(capsys, "eval", "[3;3,2,1,1]", "{1,9}")
    assert code == EXIT_USAGE


def test_tables_match_certified_counts(capsys):
    data = run_json(capsys, "tables", "--class", "wg", "--n", "3..6", "--index", "ssi")
    counts = {row["n"]: row["ssi"] for row in data["results"]["rows"]}
    assert counts == {3: 4, 4: 11, 5: 53, 6: 536}


def test_cold_tables_open_no_process_pool(capsys, monkeypatch, tmp_path):
    """--threads sizes only the 8-voter build: the tiers a cold tables run
    builds below 8 voters are built in this process."""
    opened = []

    class CountedPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountedPool)
    data = run_json(capsys, "tables", "--n", "3..5", "--threads", "2", "--cache-dir", str(tmp_path))
    assert opened == []
    assert data["config"]["threads"] == 2
    assert all(p.exists() for n in range(3, 6) for p in pipeline._tier_paths(tmp_path, n).values())
    assert [row["games"] for row in data["results"]["rows"]] == [8, 25, 117] * 2


def test_tables_json_is_stable_across_warm_runs(capsys):
    a = run_json(capsys, "tables", "--class", "cg", "--n", "4..5")
    b = run_json(capsys, "tables", "--class", "cg", "--n", "4..5")
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_tables_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(certified.DISTINCT_VECTOR_COUNTS[("wg", "ssi")], 4, 10)
    code, _, err = run(capsys, "tables", "--class", "wg", "--n", "4", "--index", "ssi")
    assert code == EXIT_MISMATCH
    assert "mismatch" in err


def test_short_store_file_rebuilds_the_tier(capsys, tmp_path):
    """A store file one row short is a damaged file: tables rebuilds the
    tier and prints the certified counts."""
    want = run_json(capsys, "tables", "--n", "4..5", "--cache-dir", str(tmp_path))["results"]
    path = pipeline.store_path(tmp_path, "wg", 5, "ssi")
    good = path.read_bytes()
    np.save(path, np.load(path)[:-1])
    got = run_json(capsys, "tables", "--n", "4..5", "--cache-dir", str(tmp_path))["results"]
    assert got == want
    assert [row["ssi"] for row in got["rows"]] == [11, 53] * 2
    assert path.read_bytes() == good


def _no_big_build(monkeypatch):
    monkeypatch.setattr(pipeline, "build_big_tables", lambda *args, **kwargs: pytest.fail("built the 8-voter tier"))
    monkeypatch.delenv("VOTEKIT_LONG_RUNNING", raising=False)


def test_big_tier_without_store_files_needs_long_running(capsys, monkeypatch, tmp_path):
    """An 8-voter tier written before its store files existed cannot be
    read, so commands that need it ask for --long-running, and exit 1 as
    for a tier never built.  A 3-voter tier stands in for it."""
    monkeypatch.setattr(pipeline, "BIG_N", 3)
    _no_big_build(monkeypatch)
    pipeline.build_tier(3, tmp_path)
    code, _, _ = run(capsys, "tables", "--n", "3", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    for klass in ("cg", "wg"):
        for kind in ("ssi", "pbi"):
            pipeline.store_path(tmp_path, klass, 3, kind).unlink()
    code, out, err = run(capsys, "tables", "--n", "3", "--cache-dir", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert "cg3.ssi.store.npy" in err and "--long-running" in err


def test_tables_timing_covers_the_big_build(capsys, monkeypatch, tmp_path):
    """The JSON timing of tables --n 8 counts the 8-voter build it starts.
    A 3-voter tier stands in for it, built by the stub."""
    monkeypatch.setattr(pipeline, "BIG_N", 3)

    def build(cache_dir=None, workers=1, progress=None):
        time.sleep(0.2)
        return pipeline.build_tier(3, cache_dir)

    monkeypatch.setattr(pipeline, "build_big_tables", build)
    data = run_json(capsys, "tables", "--n", "3", "--long-running", "--cache-dir", str(tmp_path))
    assert data["timing"]["seconds"] >= 0.2
    assert data["results"]["rows"][0]["games"] == 8


# Each command that reads the 8-voter tier, and the file it reads first.
BIG_TIER_COMMANDS = [
    (["tables", "--n", "8"], "cg8.cat", "cg8.ssi.store.npy"),
    (["enumerate", "--class", "wg", "--n", "8"], "wg8.cat", "wg8.ssi.store.npy"),
    (["omega", "--n", "8"], "cg8.cat", "wg8.ssi.store.npy"),
    (["inverse", "--target", "beta", "--n", "8", "--index", "ssi", "--mode", "exact"], "wg8.ssi.store.npy", "wg8.ssi.store.npy"),
]


def _empty_big_tier(cache):
    for path in pipeline._tier_paths(cache, pipeline.BIG_N).values():
        path.touch()


def _short_big_tier(cache):
    """The 8-voter tier files with valid headers: each catalog's header
    alone, each .npy file one row short of the rows its header declares
    (a sparse file)."""
    n = pipeline.BIG_N
    for klass in ("cg", "wg"):
        pipeline.catalog_path(cache, klass, n).write_bytes(
            enumeration.catalog_header(klass, n, certified.GAME_COUNTS[klass][n])
        )
    shapes = {pipeline.certificate_path(cache, n): (certified.GAME_COUNTS["wg"][n], n + 1)}
    for kind in ("ssi", "pbi"):
        shapes[pipeline.position_path(cache, n, kind)] = (certified.GAME_COUNTS["cg"][n], 1)
        for klass in ("cg", "wg"):
            shapes[pipeline.store_path(cache, klass, n, kind)] = (certified.DISTINCT_VECTOR_COUNTS[klass, kind][n], n + 2)
    for path, (rows, cols) in shapes.items():
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<i8", "fortran_order": False, "shape": (rows, cols)})
            fh.truncate(fh.tell() + 8 * cols * (rows - 1))


@pytest.mark.parametrize("damage", [_empty_big_tier, _short_big_tier])
def test_damaged_big_tier_exits_two_and_names_the_file(capsys, monkeypatch, tmp_path, damage):
    """Every command that reads the 8-voter tier refuses a damaged one
    with exit 2, naming the file it failed to read and --long-running,
    and prints no count; none of them builds the tier."""
    _no_big_build(monkeypatch)
    damage(tmp_path)
    for argv, empty, short in BIG_TIER_COMMANDS:
        name = empty if damage is _empty_big_tier else short
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (EXIT_MISMATCH, ""), argv
        assert str(tmp_path / name) in err and "--long-running" in err
    code, _, err = run(capsys, "enumerate", "--class", "cg", "--n", "8", "--list", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE and "listing millions" in err


@pytest.mark.parametrize("opt_in", ["flag", "env"])
def test_long_running_rebuilds_a_damaged_big_tier_once(capsys, monkeypatch, tmp_path, opt_in):
    """With the opt-in, a damaged 8-voter tier is built once, with
    --threads workers, and read again; the stub builds nothing, so the
    second read fails as the first did."""
    _empty_big_tier(tmp_path)
    monkeypatch.delenv("VOTEKIT_LONG_RUNNING", raising=False)
    flag = ["--long-running"] if opt_in == "flag" else []
    if opt_in == "env":
        monkeypatch.setenv("VOTEKIT_LONG_RUNNING", "1")
    for argv, _, _ in BIG_TIER_COMMANDS:
        calls = []
        monkeypatch.setattr(pipeline, "build_big_tables", lambda cache_dir, workers, progress: calls.append((cache_dir, workers)))
        code, out, _ = run(capsys, *argv, *flag, "--threads", "2", "--cache-dir", str(tmp_path))
        assert (code, out) == (EXIT_MISMATCH, ""), argv
        assert calls == [(tmp_path, 2)], argv


def test_enumerate_weighted_list(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "wg", "--n", "3", "--list")
    assert code == EXIT_OK
    for rep in certified.WEIGHTED_3_REPRESENTATIONS:
        assert rep in out


def test_enumerate_simple4(capsys):
    data = run_json(capsys, "enumerate", "--class", "sg4")
    assert data["results"]["count"] == 28
    assert data["results"]["weighted"] == 25


def test_enumerate_simple4_list(capsys, tmp_path):
    """28 games, 25 with a representation that wins exactly where its
    game does; nothing is cached."""
    data = run_json(capsys, "enumerate", "--class", "sg4", "--list", "--cache-dir", str(tmp_path))
    games = data["results"]["games"]
    assert len(games) == 28
    forms = [(e["game"], e["representation"]) for e in games if e["weighted"]]
    assert len(forms) == 25
    assert all(e["representation"] is None for e in games if not e["weighted"])
    for game, form in forms:
        assert to_explicit(parse_game(form)).table == to_explicit(parse_game(game)).table
    assert list(tmp_path.iterdir()) == []


def test_enumerate_simple4_needs_four_voters(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "sg4", "--n", "5")
    assert code == EXIT_USAGE
    assert "4 voters" in err


def test_enumerate_weighted_six_list(capsys, catalogs):
    """1,111 games in catalog order, each [q;w] winning exactly where its
    shift-minimal game does."""
    data = run_json(capsys, "enumerate", "--class", "wg", "--n", "6", "--list")
    games = data["results"]["games"]
    assert [e["game"] for e in games] == [game_to_text(g) for g in catalogs("wg", 6)]
    assert len(games) == certified.WEIGHTED_COUNTS[6] == 1111
    for e in games:
        assert e["game"].startswith("n=6; shiftminwin=")
        assert to_explicit(parse_game(e["representation"])).table == to_explicit(parse_game(e["game"])).table


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("klass", ["cg", "wg"])
def test_listing_equals_the_per_game_rendering(capsys, catalogs, certificates, klass, n, fmt):
    """The listing, rendered in bulk from the stored rows, prints what
    game_to_text over each loaded game, and over each certificate's
    weighted game, prints through the same report."""
    games = [game_to_text(g) for g in catalogs(klass, n)]
    want = cli._Report({})
    want.section("catalog", ["class", "n", "games"], [[klass, n, len(games)]])
    if klass == "wg":
        forms = [game_to_text(certificate_game(row)) for row in certificates(n)]
        want.section("games", ["#", "representation", "game"], [[i, f, g] for i, (f, g) in enumerate(zip(forms, games))])
        listed = [{"game": g, "representation": f} for f, g in zip(forms, games)]
    else:
        want.section("games", ["#", "game"], list(enumerate(games)))
        listed = [{"game": g} for g in games]
    code, out, err = run(capsys, "enumerate", "--class", klass, "--n", str(n), "--list", "--format", fmt)
    assert code == EXIT_OK, err
    if fmt == "json":
        assert json.loads(out)["results"] == {"class": klass, "n": n, "count": len(games), "games": listed}
    else:
        buf = io.StringIO()
        want.emit(fmt, buf)
        assert out == buf.getvalue()


def test_damaged_catalog_record_rebuilds_the_listed_tier(capsys, cache_dir, tmp_path):
    """A wg5 record whose first mask reads 0xFFFF, past 5 voters, is
    refused and the tier rebuilt, not turned into a traceback."""
    for path in pipeline._tier_paths(pipeline.ensure_tier(5, cache_dir), 5).values():
        shutil.copy(path, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    want = run_json(capsys, "enumerate", "--class", "wg", "--n", "5", "--list", "--cache-dir", str(tmp_path))
    raw = bytearray(before["wg5.cat"])
    raw[16 + 2 * 1 : 16 + 2 * 2] = b"\xff\xff"  # the first record's first mask, low half
    pipeline.catalog_path(tmp_path, "wg", 5).write_bytes(bytes(raw))
    got = run_json(capsys, "enumerate", "--class", "wg", "--n", "5", "--list", "--cache-dir", str(tmp_path))
    assert got["results"] == want["results"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_enumerate_eight_needs_opt_in(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "cg", "--n", "8")
    assert code == EXIT_USAGE
    assert "long-running" in err


def test_big_build_reports_every_64th_chunk(capsys, monkeypatch, tmp_path):
    """The 8-voter build prints its progress on every 64th chunk and at
    the end, whatever the chunk size."""
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 256)
    chunk = enumeration.DEFAULT_CHUNK
    total = 200 * chunk + 17

    class Stop(Exception):
        pass

    def build(cache_dir=None, workers=1, progress=None):
        for done in [*range(chunk, total, chunk), total]:
            progress(done, total)
        raise Stop

    monkeypatch.setattr(pipeline, "build_big_tables", build)
    with pytest.raises(Stop):
        main(["enumerate", "--class", "cg", "--n", "8", "--long-running", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    shown = [int(part.split()[1].split("/")[0]) for part in err.split("\r") if "enumerated" in part]
    assert shown == [64 * chunk, 128 * chunk, 192 * chunk, total]
    assert err.endswith("\n")


def test_omega_at_eight_reports_every_64th_block_per_kind(capsys, monkeypatch, tmp_path):
    """omega --n 8 prints its progress on every 64th scanned block of each
    index kind and at the end of each, whatever the block size."""
    step = 10
    total = 200 * step + 3

    class Stop(Exception):
        pass

    def omega_tier(n, cache_dir, kinds, metrics, progress=None):
        for kind in kinds:
            for done in [*range(step, total, step), total]:
                progress(kind, done, total)
        raise Stop

    monkeypatch.setattr(pipeline, "omega_tier", omega_tier)
    with pytest.raises(Stop):
        main(["omega", "--n", "8", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    shown = [part.split()[1:3] for part in err.split("\r") if "scanned" in part]
    expected = [[f"{done}/{total}", kind] for kind in ("ssi", "pbi") for done in (640, 1280, 1920, total)]
    assert shown == expected
    assert err.count("\n") == 2


def test_weighted_listing_checks_certificates_once(capsys, monkeypatch):
    run_json(capsys, "enumerate", "--class", "wg", "--n", "6")  # builds the tier if the cache lacks it
    calls = []
    real = pipeline.load_certificates

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_certificates", counted)
    data = run_json(capsys, "enumerate", "--class", "wg", "--n", "6", "--list")
    assert len(data["results"]["games"]) == certified.GAME_COUNTS["wg"][6]
    assert len(calls) == 1


def test_enumerate_nine_is_out_of_range(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "cg", "--n", "9")
    assert code == EXIT_USAGE
    assert "284432730174" in err  # documented count, not enumerable here


def test_omega_zero_gap(capsys):
    code, out, _ = run(capsys, "omega", "--n", "5", "--index", "ssi", "--metric", "l1")
    assert code == EXIT_OK
    assert "0.0000000" in out


def test_omega_json_games_round_trip(capsys):
    data = run_json(capsys, "omega", "--n", "7", "--index", "pbi", "--metric", "linf")
    gaps = data["results"]["reports"]
    assert len(gaps) == 1
    assert gaps[0]["decimal"] == "0.0173913"
    texts = [a["game"] for a in gaps[0]["attaining"]]
    assert len(texts) == 2
    witness = "n=7; shiftminwin={2,3,5,6},{1,3,7},{3,4,5,6,7}"
    assert witness in texts
    for t in texts:
        g = parse_game(t)  # the grammar round-trips
        assert g.n == 7
    nearest = parse_game(gaps[0]["nearest"]["game"])
    assert evaluate(nearest, {1, 2}) in (0, 1)


def test_inverse_file_target_exact(capsys, tmp_path):
    f = tmp_path / "target.txt"
    f.write_text("n=4 index=ssi\n7/12 1/4 1/12 1/12\n")
    data = run_json(capsys, "inverse", "--target", str(f), "--metric", "l1")
    assert data["results"]["mode"] == "exact-min"
    assert data["results"]["distance"] == "0"
    game = parse_game(data["results"]["game"])
    assert game.n == 4


def test_inverse_rounded_target_needs_normalize(capsys, tmp_path):
    f = tmp_path / "target.txt"
    f.write_text("n=3 index=ssi\n0.333 0.333 0.333\n")
    code, _, err = run(capsys, "inverse", "--target", str(f))
    assert code == EXIT_USAGE
    assert "sum" in err
    code, _, _ = run(capsys, "inverse", "--target", str(f), "--normalize")
    assert code == EXIT_OK


def test_inverse_beta_heuristic_flagged(capsys):
    data = run_json(
        capsys, "inverse", "--target", "beta", "--n", "9", "--index", "ssi",
        "--budget", "60", "--seed", "0",
    )
    assert data["results"]["mode"] == "heuristic-upper-bound"
    assert data["config"]["seed"] == 0


@pytest.mark.parametrize("index", ["ssi", "pbi"])
def test_inverse_council_heuristic_is_exact(capsys, tmp_path, index):
    """27 members, so 27! leaves int64: the found game's exact index and
    distance, through the CLI."""
    pops = [
        83166, 67320, 59641, 47332, 37958, 19328, 17408, 11522, 10718, 10694, 10327, 10295,
        9770, 8901, 6951, 5823, 5525, 5458, 4964, 4058, 2795, 2096, 1908, 1329, 888, 626, 515,
    ]
    f = tmp_path / "pops.csv"
    f.write_text("".join(f"m{i},{p}\n" for i, p in enumerate(pops)))
    data = run_json(
        capsys, "inverse", "--target", "eu", "--populations", str(f), "--quantize", "1000",
        "--mode", "heuristic", "--budget", "20", "--index", index, "--metric", "l1",
    )
    res = data["results"]
    assert res["mode"] == "heuristic-upper-bound" and res["evaluations"] == 20
    game = parse_game(res["game"])
    exact = ssi_dp(game) if index == "ssi" else pbi_dp(game)
    achieved = exact.fractions()
    assert [str(v) for v in achieved] == res["vector"]["values"]
    target = [Fraction(v) for v in res["target"]]
    assert Fraction(res["distance"]) == sum(abs(a - t) for a, t in zip(achieved, target))


def test_inverse_sixty_four_voter_file_target(capsys, tmp_path):
    f = tmp_path / "target.txt"
    f.write_text("n=64 index=pbi\n1" + " 0" * 63 + "\n")
    data = run_json(
        capsys, "inverse", "--target", str(f), "--mode", "heuristic", "--budget", "20",
        "--metric", "l1",
    )
    assert data["results"]["distance"] == "0"
    assert pbi_dp(parse_game(data["results"]["game"])).fractions()[0] == 1


def test_eu_subcommand(capsys, tmp_path):
    f = tmp_path / "pops.csv"
    f.write_text("A,5000\nB,3000\nC,1500\nD,400\nE,100\n")
    data = run_json(capsys, "eu", str(f), "--quantize", "1000")
    members = data["results"]["members"]
    assert [m["name"] for m in members] == ["A", "B", "C", "D", "E"]
    assert members[0]["share"] == "1/2"
    code, _, _ = run(capsys, "eu", str(tmp_path / "missing.csv"))
    assert code == EXIT_USAGE


def test_csv_format(capsys):
    code, out, _ = run(capsys, "tables", "--class", "wg", "--n", "3", "--format", "csv")
    assert code == EXIT_OK
    head = out.splitlines()[0]
    assert "," in head and "n" in head


def test_corrupt_cache_is_rebuilt(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "tables", "--class", "cg", "--n", "3", "--cache-dir", str(cache))
    assert code == EXIT_OK
    victim = next(cache.glob("cg3*.cat"))
    victim.write_bytes(b"garbage")
    code, out, _ = run(capsys, "tables", "--class", "cg", "--n", "3", "--cache-dir", str(cache))
    assert code == EXIT_OK
    assert victim.read_bytes()[:2] != b"ga"  # rebuilt on disk


def test_config_echo_includes_run_fields(capsys):
    data = run_json(capsys, "omega", "--n", "4", "--index", "pbi", "--metric", "linf")
    cfg = data["config"]
    assert cfg["subcommand"] == "omega"
    assert cfg["n"] == 4
    assert "cache_dir" in cfg and "threads" in cfg
    assert isinstance(data["timing"]["seconds"], float)


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--n", "three"],
        ["tables", "--n", "5..3"],
        ["omega", "--n", "0"],
        ["enumerate", "--class", "cg", "--n", "0"],
        ["inverse", "--target", "no-such-target.txt"],
        ["inverse", "--target", "beta", "--n", "9", "--index", "ssi", "--budget", "0"],
        ["index", "[3;2,1,1]", "--places", "-2"],
        ["inverse", "--target", "beta", "--n", "65", "--index", "ssi"],
        ["index", "[50;1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]", "--state-cap", "10"],
        ["index", "[3;2,1,1]", "--state-cap", "0"],
        ["index", "[3;2,1,1]", "--state-cap", "-1"],
        ["index", "n=3; minwin={0,1}"],
        ["tables", "--n", "3", "--cache-dir", __file__],
        ["tables", "--n", "3", "--threads", "0"],
        ["omega", "--n", "4", "--threads", "-4"],
    ],
)
def test_input_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "Traceback" not in err


def test_internal_errors_are_not_usage_errors(capsys, monkeypatch):
    """A ValueError from inside the library is a bug: it propagates."""

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(pipeline, "omega_tier", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["omega", "--n", "4"])


def test_unknown_arguments_exit_one(capsys):
    assert run(capsys, "bogus")[0] == EXIT_USAGE
    assert run(capsys, "tables", "--class", "wg", "--n", "3", "--frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "--n", "5"],
        ["inverse", "--target", "TARGET", "--metric", "l1", "--mode", "exact"],
    ],
)
def test_warm_queries_check_the_tier_once(capsys, monkeypatch, tmp_path, argv):
    """A warm omega or exact inverse reads and checks each tier file it
    needs once, and no other: omega streams the complete games' store
    files against the weighted ones (with no gap at 5 voters, no game
    attains it and none is nearest to one, so the position files and the
    certificates stay unread), and the exact inverse reads the ssi store
    of the weighted games and the one certificate row of its answer."""
    files, certificate_rows = {
        "omega": (["cg5.cat", "cg5.pbi.store.npy", "cg5.ssi.store.npy", "wg5.pbi.store.npy", "wg5.ssi.store.npy"], []),
        "inverse": (["wg5.cert.npy", "wg5.ssi.store.npy"], [1]),
    }[argv[0]]
    target = tmp_path / "target.txt"
    target.write_text("n=5 index=ssi\n2/5 1/5 1/5 1/10 1/10\n")
    argv = [str(target) if a == "TARGET" else a for a in argv]
    run_json(capsys, *argv)  # builds the tier if the cache lacks it
    read = []

    def recorded(name):
        real = getattr(pipeline, name)

        def wrapper(path, *args, **kwargs):
            read.append(path.name)
            return real(path, *args, **kwargs)

        return wrapper

    for name in ("_read_rows", "read_catalog_header"):
        monkeypatch.setattr(pipeline, name, recorded(name))
    load_certificates, rows_read = pipeline.load_certificates, []

    def counted(n, cache_dir=None, rows=None):
        rows_read.append(None if rows is None else len(rows))
        return load_certificates(n, cache_dir, rows)

    monkeypatch.setattr(pipeline, "load_certificates", counted)
    first = run_json(capsys, *argv)
    assert sorted(read) == files
    assert rows_read == certificate_rows
    assert run_json(capsys, *argv)["results"] == first["results"]


def test_unread_damage_waits_for_its_reader(capsys, tmp_path):
    """A damaged file that a query does not read is left as it is; the
    next query that reads it rebuilds the tier byte for byte."""
    pipeline.build_tier(5, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    victim = pipeline.store_path(tmp_path, "cg", 5, "pbi")
    rows = np.load(victim)
    rows[3] = 0  # 0 numerators sum to a 0 denominator
    np.save(victim, rows)
    damaged = victim.read_bytes()

    tables = ["tables", "--n", "5", "--cache-dir", str(tmp_path)]
    wg = run_json(capsys, *tables, "--class", "wg", "--index", "ssi")["results"]["rows"]
    assert wg == [{"class": "wg", "n": 5, "games": 117, "ssi": 53}]
    assert victim.read_bytes() == damaged

    cg = run_json(capsys, *tables, "--class", "cg", "--index", "pbi")["results"]["rows"]
    assert cg == [{"class": "cg", "n": 5, "games": 117, "pbi": 57}]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_exact_inverse_reads_only_the_certificate_row_it_reports(capsys, monkeypatch, tmp_path):
    """A damaged certificate row that the exact inverse does not report
    is left as it is, and the answer does not change; damage to the row
    it reports rebuilds the 5-voter tier byte for byte, and raises
    TierError, building nothing, where 5 voters stand in for the 8-voter
    tier."""
    pipeline.build_tier(5, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["inverse", "--target", "beta", "--n", "5", "--index", "ssi", "--mode", "exact", "--cache-dir", str(tmp_path)]
    answer = run_json(capsys, *argv)["results"]
    # The beta target lists its voters strongest-first, so the answer is
    # its certificate as stored.
    reported = pipeline.load_listing("wg", 5, tmp_path)[1].index(answer["game"])
    victim = pipeline.certificate_path(tmp_path, 5)

    def damage(row):
        rows = np.load(victim)
        rows[row] = 0  # a quota of 0
        np.save(victim, rows)
        return victim.read_bytes()

    damaged = damage(0 if reported else 1)
    assert run_json(capsys, *argv)["results"] == answer
    assert victim.read_bytes() == damaged

    damage(reported)
    assert run_json(capsys, *argv)["results"] == answer
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    monkeypatch.setattr(pipeline, "BIG_N", 5)
    monkeypatch.setattr(pipeline, "build_tier", lambda *args, **kwargs: pytest.fail("built a tier"))
    damaged = damage(reported)
    with pytest.raises(pipeline.TierError, match="wg5.cert.npy: rows are not reduced certificates"):
        inverse_exact(beta_target(5, "ssi"), Metric.L1, tmp_path)
    assert victim.read_bytes() == damaged
