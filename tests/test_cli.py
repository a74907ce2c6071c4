import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import permcover
import permcover.cache as cache
import permcover.cli as cli
from permcover import _kernels
from permcover.cli import dispatch
from permcover.cover import (
    CoverCertificate,
    alteration_cover,
    alteration_default_initial_size,
    exact_min_cover,
    greedy_cover,
)
from permcover.errors import ResourceLimitError
from permcover.graph import audit_joint_coverage, build_graph
from permcover.threshold import critical_window_p, gap_experiment


def schema(name):
    path = Path(__file__).resolve().parents[1] / "src" / "permcover" / "schemas" / name
    return Draft202012Validator(json.loads(path.read_text()))


def run(tmp_path, *argv):
    """Dispatch with an isolated cache directory."""
    return dispatch(["--cache-dir", str(tmp_path / "cache"), *argv])


class TestDispatch:
    def test_solve_exact_n3(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(tmp_path, "solve", "--n", "3", "--method", "exact", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        schema("envelope.schema.json").validate(doc)
        schema("certificate.schema.json").validate(doc["payload"])
        assert doc["payload"]["size"] == 2
        assert doc["payload"]["status"] == "optimal"
        assert doc["execution"]["numpy"] == np.__version__
        assert "size=2" in capsys.readouterr().out

    def test_exact_payload_dual_checks_by_hand(self, tmp_path):
        # the README's check, from itertools alone: no cover of S_5 loads
        # more than the denominator, and the bound it then gives is the size
        out = tmp_path / "cert.json"
        argv = ("--quiet", "solve", "--n", "4", "--method", "exact", "--no-cache")
        assert run(tmp_path, *argv, "--out", str(out)) == 0
        pay = json.loads(out.read_text())["payload"]
        schema("certificate.schema.json").validate(pay)
        d, w = pay["dual"]["denominator"], pay["dual"]["weights"]
        rank = {p: i for i, p in enumerate(itertools.permutations(range(1, 5)))}
        for c in itertools.permutations(range(1, 6)):
            patterns = {tuple(x - (x > c[i]) for x in c[:i] + c[i + 1:]) for i in range(5)}
            assert sum(w[rank[p]] for p in patterns) <= d
        assert -(-sum(w) // d) == pay["size"] == pay["lower_bound"] == 7

    def test_solve_cache_round_trip(self, tmp_path, capsys):
        assert run(tmp_path, "solve", "--n", "3", "--method", "exact") == 0
        capsys.readouterr()
        assert run(tmp_path, "solve", "--n", "3", "--method", "exact") == 0
        assert "cache hit" in capsys.readouterr().out

    def test_graph_audit_n1(self, tmp_path, capsys):
        assert run(tmp_path, "graph", "--n", "1", "--audit") == 0
        assert "max_J=0" in capsys.readouterr().out

    def test_graph_audit_n3_reports_violations(self, tmp_path):
        # the adjacent-swap iff fails empirically: the audit must say so
        # through the exit code and emit the counterexamples
        out = tmp_path / "audit.json"
        code = run(tmp_path, "graph", "--n", "3", "--audit", "--out", str(out))
        assert code == 1
        doc = json.loads(out.read_text())
        schema("envelope.schema.json").validate(doc)
        schema("audit.schema.json").validate(doc["payload"])
        assert doc["payload"]["max_C"] == 4
        assert doc["payload"]["adjacent_swap_iff_holds"] is False
        kinds = {v["kind"] for v in doc["payload"]["violations"]}
        assert "four_cover_pair_not_adjacent_position_swap" in kinds

    def test_graph_audit_n7(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert run(tmp_path, "graph", "--n", "7", "--audit", "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        schema("audit.schema.json").validate(doc["payload"])
        pay = doc["payload"]
        assert (pay["max_C"], pay["max_J"], pay["four_cover_pair_count"]) == (4, 240, 27216)
        assert pay["exhaustive"] is True and pay["sample_size"] is None
        assert "max_J=240 max_C=4 four_cover_pairs=27216" in capsys.readouterr().out

    def test_graph_without_audit(self, tmp_path, capsys):
        assert run(tmp_path, "graph", "--n", "4") == 0
        assert "identities hold" in capsys.readouterr().out

    def test_gap_smoke(self, tmp_path):
        out = tmp_path / "gap.json"
        code = run(
            tmp_path, "gap", "--n", "2", "--lambda-target", "0.5",
            "--trials", "64", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        schema("envelope.schema.json").validate(doc)
        schema("gap_report.schema.json").validate(doc["payload"])
        assert doc["warnings"]  # 64 trials -> noisy-TV warning
        assert doc["payload"]["n"] == 2

    def test_gap_with_K(self, tmp_path):
        out = tmp_path / "gap.json"
        code = run(
            tmp_path, "gap", "--n", "7", "--K", "0.0",
            "--trials", "1000", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["K_nominal"] == 0.0
        assert doc["payload"]["mean_ratio_decaying"] is not None

    def test_gap_n8_reports_pair_statistics(self, tmp_path):
        out = tmp_path / "gap.json"
        code = run(
            tmp_path, "gap", "--n", "8", "--K=0", "--trials", "64", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        schema("gap_report.schema.json").validate(doc["payload"])
        assert doc["payload"]["exact_variance"] > 0
        assert doc["payload"]["stein_chen_bound"] >= 0
        assert not [w for w in doc["warnings"] if "pair budget" in w]

    def test_gap_payload_keys_are_the_schema_properties(self, tmp_path):
        # the payload is the report's fields: a field the schema does not
        # name would leak into every payload
        out = tmp_path / "gap.json"
        assert run(tmp_path, "gap", "--n", "3", "--K=0", "--trials", "64", "--seed", "1",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())["payload"]
        assert set(payload) == set(schema("gap_report.schema.json").schema["properties"])

    def test_gap_experiment_returns_the_payload(self, tmp_path, graph):
        out = tmp_path / "gap.json"
        assert run(tmp_path, "--quiet", "gap", "--n", "4", "--K=0.5", "--trials", "256",
                   "--seed", "1", "--out", str(out)) == 0
        rep = gap_experiment(graph(4), critical_window_p(4, 0.5), 256, 1, K_nominal=0.5)
        doc = json.loads(out.read_text())
        # the CLI moves the report's notes to the envelope, once
        assert rep.pop("warnings") == doc["warnings"] != []
        assert rep == doc["payload"]

    def test_audit_returns_the_payload_but_identity(self, tmp_path, graph):
        rep = audit_joint_coverage(graph(4))
        properties = set(schema("audit.schema.json").schema["properties"])
        assert set(rep) == properties - {"identity"}
        out = tmp_path / "audit.json"
        assert run(tmp_path, "--quiet", "graph", "--n", "4", "--audit", "--out", str(out)) == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload == {"n": 4, "identity": payload["identity"], **rep}

    def test_threshold_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            tmp_path, "threshold", "--n", "3", "--pmin", "0.0", "--pmax", "1.0",
            "--steps", "3", "--trials", "100", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "p,covers,trials,phat,ci_lo,ci_hi,lambda_exact"
        assert len(body) == 4
        assert any("p_zero" in c for c in comments)
        assert any("p_one" in c for c in comments)

    def test_threshold_empty_grid_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(
            tmp_path, "threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
            "--steps", "0", "--trials", "10", "--seed", "0", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("verb", ["threshold", "gap"])
    def test_out_of_range_seed_is_a_usage_error(self, tmp_path, capsys, verb, seed):
        pick = {"threshold": ("--pmin", "0.1", "--pmax", "0.3", "--steps", "2"),
                "gap": ("--p", "0.2")}[verb]
        out = tmp_path / "x.out"
        code = run(tmp_path, verb, "--n", "3", *pick, "--trials", "10",
                   "--seed", seed, "--out", str(out))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be in" in err

    @pytest.mark.parametrize("quiet", [(), ("--quiet",)])
    def test_threshold_n1_has_no_boundaries(self, tmp_path, capsys, quiet):
        # the analytic boundaries need n >= 2; n = 1 leaves them blank
        out = tmp_path / "sweep.csv"
        code = run(
            tmp_path, *quiet, "threshold", "--n", "1", "--pmin", "0.1", "--pmax", "0.5",
            "--steps", "2", "--trials", "10", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# p_zero(omega=2.0)=" in lines
        assert "# p_one(omega=2.0)=" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 3
        assert "boundaries" not in capsys.readouterr().out

    def test_threshold_boundaries_are_clamped(self, tmp_path, capsys):
        # the formula's p_zero at n = 3, omega = 2 is -0.128...
        out = tmp_path / "sweep.csv"
        assert run(tmp_path, "threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
                   "--steps", "2", "--trials", "8", "--seed", "0", "--out", str(out)) == 0
        assert "# p_zero(omega=2.0)=0.0" in out.read_text().splitlines()
        assert "boundaries p_zero=0.000000 p_one=0.316127" in capsys.readouterr().out

    def test_max_n_flag_over_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMCOVER_MAX_N", "2")
        assert run(tmp_path, "graph", "--n", "3") == 3
        assert run(tmp_path, "--max-n", "3", "graph", "--n", "3") == 0
        monkeypatch.setenv("PERMCOVER_MAX_N", "eight")
        assert run(tmp_path, "graph", "--n", "3") == 2
        assert run(tmp_path, "--max-n", "3", "graph", "--n", "3") == 0

    def test_threshold_csv_bytes_reproducible(self, tmp_path):
        args = (
            "threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
            "--steps", "4", "--trials", "150", "--seed", "9",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(tmp_path, *args, "--out", str(out1)) == 0
        assert run(tmp_path, *args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gap_payload_seed_echo(self, tmp_path):
        # re-running with the embedded config reproduces the payload exactly
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ("gap", "--n", "3", "--lambda-target", "1.0", "--trials", "500", "--seed", "11")
        assert run(tmp_path, *args, "--out", str(out1)) == 0
        doc = json.loads(out1.read_text())
        cfg = doc["config"]
        assert run(
            tmp_path, "gap", "--n", str(cfg["n"]),
            "--lambda-target", str(cfg["lambda_target"]),
            "--trials", str(cfg["trials"]), "--seed", str(cfg["seed"]),
            "--out", str(out2),
        ) == 0
        assert json.loads(out2.read_text())["payload"] == doc["payload"]

    def test_bounds_table(self, tmp_path, capsys):
        # cache the known optimal certificates first so best-known fills in
        for n in (1, 2, 3):
            cert = exact_min_cover(build_graph(n), 1, 30)
            cache.store_certificate(tmp_path / "cache", cert)
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-max", "4", "--out", str(out)) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = body[0].split(",")
        rows = {int(line.split(",")[0]): line.split(",") for line in body[1:]}
        lower = header.index("pigeonhole_lower")
        best = header.index("best_known_size")
        status = header.index("best_known_status")
        assert rows[1][lower] == "1" and rows[2][lower] == "1"
        assert rows[1][best] == "1" and rows[2][best] == "1"
        assert rows[3][lower] == "2"
        assert rows[3][best] == "2" and rows[3][status] == "optimal"
        assert float(rows[3][header.index("alteration_upper")]) == pytest.approx(4.599, abs=5e-4)

    def test_bounds_monotone_lower_column(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-max", "10", "--out", str(out)) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        lower = body[0].split(",").index("pigeonhole_lower")
        values = [int(line.split(",")[lower]) for line in body[1:]]
        assert values == sorted(values)

    def test_bounds_empty_range_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-min", "3", "--n-max", "1", "--out", str(out)) == 2
        assert not out.exists()
        assert "non-empty range" in capsys.readouterr().err

    @pytest.mark.parametrize("n, lam", [(172, 1), (171, 20)], ids=["overflow", "inf"])
    def test_bounds_past_the_largest_float_are_a_usage_error(self, tmp_path, capsys, n, lam):
        # (n+1)!/(n^2+1) is past the largest double from n = 172 on, and
        # at n = 171 the multicover bound gets past it by lambda = 20
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-min", str(n), "--n-max", str(n),
                   "--lambda", str(lam), "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"invalid arguments: the bounds at n={n} exceed the largest float\n"

    @pytest.mark.parametrize("lam, message", [
        ("20", "lam=20 impossible: each pattern has only 5 covers"),
        ("0", "lam must be >= 1"),
    ], ids=["above-n2-plus-1", "zero"])
    def test_bounds_bad_lambda_is_a_usage_error(self, tmp_path, capsys, lam, message):
        # the smallest n has the fewest covers per pattern, so it decides
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-min", "2", "--n-max", "3",
                   "--lambda", lam, "--out", str(out)) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid arguments: {message}\n"

    def test_bounds_lambda_at_n2_plus_1(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "--quiet", "bounds", "--n-min", "5", "--n-max", "5",
                   "--lambda", "26", "--out", str(out)) == 0
        assert out.read_text().splitlines()[-1].startswith("5,26,")

    def test_bounds_at_171_are_finite(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "--quiet", "bounds", "--n-min", "171", "--n-max", "171",
                   "--lambda", "2", "--out", str(out)) == 0
        row = out.read_text().splitlines()[-1].split(",")
        upper = [float(cell) for cell in row[3:6]]
        assert all(1e307 < value < math.inf for value in upper)

    def test_usage_errors(self, tmp_path):
        assert run(tmp_path, "solve", "--n", "3") == 2  # missing --method
        assert run(tmp_path, "nonsense") == 2
        assert run(tmp_path, "solve", "--n", "3", "--method", "alteration") == 2  # no seed
        assert run(tmp_path, "gap", "--n", "2", "--trials", "10", "--seed", "0") == 2

    def test_nan_budget_is_a_usage_error(self, tmp_path, capsys):
        # a NaN deadline never expires; at n=4 the search would still finish
        argv = ("solve", "--n", "4", "--method", "exact", "--budget", "nan", "--no-cache")
        assert run(tmp_path, *argv) == 2
        assert "time_budget must be positive" in capsys.readouterr().err

    def test_nan_omega_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(
            tmp_path, "threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
            "--steps", "1", "--trials", "8", "--seed", "0", "--omega", "nan",
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "omega must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_inf_omega_is_a_usage_error(self, tmp_path, capsys, n):
        # an infinite slack sends both boundaries to infinity; at n = 1 no
        # boundary is computed, so only the parser can reject it
        out = tmp_path / "sweep.csv"
        code = run(
            tmp_path, "threshold", "--n", n, "--pmin", "0.1", "--pmax", "0.5",
            "--steps", "2", "--trials", "8", "--seed", "0", "--omega", "inf",
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "omega must be positive" in capsys.readouterr().err

    def test_threshold_csv_comment_lines(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(tmp_path, "threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
                   "--steps", "2", "--trials", "8", "--seed", "0", "--out", str(out)) == 0
        assert out.read_text().splitlines()[:2] == [
            f"# permcover {permcover.__version__} threshold",
            '# config: {"n": 3, "omega": 2.0, "pmax": 0.5, "pmin": 0.1, "seed": 0, '
            '"steps": 2, "subcommand": "threshold", "trials": 8}',
        ]

    def test_bounds_csv_comment_lines(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", "--n-max", "3", "--lambda", "2", "--out", str(out)) == 0
        assert out.read_text().splitlines()[:3] == [
            f"# permcover {permcover.__version__} bounds",
            '# config: {"lambda": 2, "n_max": 3, "n_min": 1, "subcommand": "bounds"}',
            "n,lambda,pigeonhole_lower,alteration_upper,alteration_upper_n2,"
            "multicover_upper,best_known_size,best_known_status",
        ]

    def test_resource_limit_exit(self, tmp_path):
        assert run(tmp_path, "graph", "--n", "9") == 3

    @pytest.mark.parametrize("argv", [
        ("lambda", "--n", "3", "--lambda", "2", "--seed", "1", "--no-cache",
         "--initial-size", "1000000000000000"),
        ("threshold", "--n", "3", "--pmin", "0.1", "--pmax", "0.5",
         "--steps", "1000000000000000", "--trials", "8", "--seed", "0"),
    ])
    def test_failed_allocation_is_a_resource_limit(self, tmp_path, capsys, argv):
        # each asks numpy for petabytes, past any address space, so the
        # allocation fails at once and nothing is touched
        assert run(tmp_path, *argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("graph", "--n", "2"),
        ("threshold", "--n", "2", "--pmin", "0.1", "--pmax", "0.5", "--steps", "2",
         "--trials", "8", "--seed", "1"),
    ], ids=["envelope", "csv"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "nodir" / "x.out"
        assert run(tmp_path, "--quiet", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write --out" in err
        assert not out.exists()

    def test_initial_size_needs_a_randomized_method(self, tmp_path, capsys):
        for method in ("exact", "greedy"):
            argv = ("solve", "--n", "3", "--method", method, "--initial-size", "5")
            assert run(tmp_path, *argv) == 2
            assert "takes no --initial-size" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("argv, message", [
        (("--method", "alteration", "--lambda", "2", "--seed", "1"),
         "alteration builds multiplicity-1 covers"),
        (("--method", "greedy", "--lambda", "0"), "lam must be >= 1"),
        (("--method", "exact", "--lambda", "66"), "lam=66 impossible"),
    ], ids=["alteration-lambda-2", "lambda-0", "lambda-above-n2-plus-1"])
    def test_bad_lambda_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv,
                                              message):
        forbid_builds(monkeypatch)
        assert run(tmp_path, "solve", "--n", "8", *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_lambda_verb_needs_lambda_2(self, tmp_path, monkeypatch, capsys):
        # the lambda verb keeps solve's --lambda default of 1
        forbid_builds(monkeypatch)
        assert run(tmp_path, "lambda", "--n", "5", "--seed", "1") == 2
        assert "solve --method lambda requires --lambda >= 2" in capsys.readouterr().err

    def test_lambda_verb(self, tmp_path, capsys):
        assert run(tmp_path, "lambda", "--n", "3", "--lambda", "2", "--seed", "7") == 0
        assert "method=lambda" in capsys.readouterr().out

    def test_quiet(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "graph", "--n", "2") == 0
        assert capsys.readouterr().out == ""


class TestCache:
    def test_store_load_round_trip(self, tmp_path, graph):
        g = graph(3)
        cert = exact_min_cover(g, 1, 30)
        cache.store_certificate(tmp_path, cert)
        loaded = cache.load_certificate(tmp_path, g, 1, "exact", None, [])
        assert loaded is not None
        assert loaded.selected == cert.selected

    def test_miss(self, tmp_path, graph):
        assert cache.load_certificate(tmp_path, graph(3), 1, "exact", None, []) is None

    def test_tampered_entry_quarantined(self, tmp_path, graph):
        g = graph(3)
        cert = exact_min_cover(g, 1, 30)
        path = cache.store_certificate(tmp_path, cert)
        doc = json.loads(path.read_text())
        doc["selected"] = doc["selected"][:-1]  # drop one member: no longer a cover
        path.write_text(json.dumps(doc))
        notes = []
        assert cache.load_certificate(tmp_path, g, 1, "exact", None, notes) is None
        assert any("failed validation" in note for note in notes)
        assert not path.exists()
        assert path.with_suffix(".json.quarantined").exists()

    @pytest.mark.parametrize("extra", [
        "54321",  # a permutation of the wrong length
        None,  # a duplicate of a listed member
        "1134",  # not a permutation
        1342,  # not a string
    ], ids=["wrong_length", "duplicate", "not_a_permutation", "not_a_string"])
    def test_malformed_selected_quarantined(self, tmp_path, graph, extra):
        # the entry still covers S_3, so only parsing can reject it
        g = graph(3)
        path = cache.store_certificate(tmp_path, exact_min_cover(g, 1, 30))
        doc = json.loads(path.read_text())
        doc["selected"].append(doc["selected"][0] if extra is None else extra)
        path.write_text(json.dumps(doc))
        notes = []
        assert cache.load_certificate(tmp_path, g, 1, "exact", None, notes) is None
        assert any("failed validation (unreadable" in note for note in notes)
        assert not path.exists()
        assert path.with_suffix(".json.quarantined").exists()

    def test_corrupt_json_quarantined(self, tmp_path, graph):
        g = graph(3)
        path = cache.certificate_path(tmp_path, cache.certificate_key(3, 1, "exact", None))
        tmp_path.mkdir(exist_ok=True)
        path.write_text("{ not json")
        notes = []
        assert cache.load_certificate(tmp_path, g, 1, "exact", None, notes) is None
        assert any("failed validation (unreadable" in note for note in notes)
        assert not path.exists()

    def test_unopenable_entry_quarantined(self, tmp_path, graph):
        # a directory under an entry's name cannot be read; neither a load
        # nor the best-known scan may crash on it
        path = cache.certificate_path(tmp_path, cache.certificate_key(3, 1, "greedy", None))
        path.mkdir(parents=True)
        notes = []
        assert cache.best_known_size(tmp_path, 3, 1, build_graph, notes) is None
        assert any("failed validation (unreadable" in note for note in notes)
        assert not path.exists()

    def test_failed_store_leaves_no_temp_file(self, tmp_path, graph, monkeypatch):
        def no_rename(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache.os, "replace", no_rename)
        with pytest.raises(OSError, match="No space left"):
            cache.store_certificate(tmp_path, greedy_cover(graph(3)))
        assert list(tmp_path.iterdir()) == []

    def test_failed_quarantine_leaves_the_entry(self, tmp_path, graph, monkeypatch):
        g = graph(3)
        path = cache.store_certificate(tmp_path, greedy_cover(g))
        path.write_text("{ not json")

        def no_rename(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cache.os, "replace", no_rename)
        notes = []
        assert cache.load_certificate(tmp_path, g, 1, "greedy", None, notes) is None
        [note] = notes
        assert note.endswith("could not quarantine")
        assert path.read_text() == "{ not json"

    def test_concurrent_stores_one_winner(self, tmp_path, graph):
        g = graph(3)
        cert = greedy_cover(g)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    cache.store_certificate(tmp_path, cert)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        path = cache.certificate_path(
            tmp_path, cache.certificate_key(3, 1, "greedy", None)
        )
        loaded = cache.load_certificate(tmp_path, g, 1, "greedy", None, [])
        assert loaded is not None and loaded.selected == cert.selected
        leftovers = [p for p in Path(tmp_path).iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert path.exists()

    def test_best_known_prefers_optimal(self, tmp_path, graph):
        g = graph(3)
        cache.store_certificate(tmp_path, greedy_cover(g))
        assert cache.best_known_size(tmp_path, 3, 1, build_graph, []) == (3, "feasible")
        cache.store_certificate(tmp_path, exact_min_cover(g, 1, 30))
        assert cache.best_known_size(tmp_path, 3, 1, build_graph, []) == (2, "optimal")

    def test_best_known_ignores_edited_claims(self, tmp_path, capsys):
        # only the re-verified cover counts: a greedy entry edited to claim
        # size 3, below the pigeonhole bound of 5, reports its real size
        assert run(tmp_path, "--quiet", "solve", "--n", "4", "--method", "greedy") == 0
        path = entry(tmp_path, "4-1-greedy-none")
        doc = json.loads(path.read_text())
        size = doc["size"]
        doc.update(size=3, status="optimal")
        path.write_text(json.dumps(doc))
        assert cache.best_known_size(tmp_path / "cache", 4, 1, build_graph, []) == (
            size, "feasible")
        assert run(tmp_path, "bounds", "--n-min", "4", "--n-max", "4") == 0
        assert f"best_known={size} (feasible)" in capsys.readouterr().out
        assert path.exists()

    def test_best_known_quarantines_non_verifying_entries(self, tmp_path, graph):
        path = cache.store_certificate(tmp_path, exact_min_cover(graph(3), 1, 30))
        doc = json.loads(path.read_text())
        doc["selected"] = doc["selected"][:-1]  # no longer a cover
        path.write_text(json.dumps(doc))
        notes = []
        assert cache.best_known_size(tmp_path, 3, 1, build_graph, notes) is None
        assert any("failed validation" in note for note in notes)
        assert not path.exists()
        assert path.with_suffix(".json.quarantined").exists()

    def test_best_known_reads_only_method_keys(self, tmp_path, graph):
        # a file not named by a known method's key is never read, and above
        # the enumeration limit nothing is reported
        cache.store_certificate(tmp_path, greedy_cover(graph(3)))
        strays = [tmp_path / f"{stem}.json"
                  for stem in ("3-1-bogus-none", "3-1-greedy-07", "3-1-greedy")]
        for path in strays:
            path.write_text("{ not json")
        assert cache.best_known_size(tmp_path, 3, 1, build_graph, []) == (3, "feasible")
        assert all(path.exists() for path in strays)
        assert cache.best_known_size(tmp_path, 3, 1, lambda n: build_graph(n, max_n=2),
                                     []) is None

    @pytest.mark.parametrize("key, argv, reason", [
        ("1-1-alteration-5", ("--n-max", "2"), "defined for n >= 2"),
        ("2-2-lambda-1", ("--n-min", "2", "--n-max", "3", "--lambda", "2"), "needs n >= 3"),
        ("3-1-lambda-4", ("--n-max", "3"), "lam >= 2 required"),
    ], ids=["alteration-n1", "lambda-n2", "lambda-lam1"])
    def test_entry_no_run_stores_is_quarantined(self, tmp_path, capsys, key, argv, reason):
        # the method has no default size at the key's (n, lambda), so no
        # solve stores it: a verifying cover there is noted and moved, and
        # bounds neither reports it nor fails
        n, lam = map(int, key.split("-")[:2])
        path = entry(tmp_path, key)
        cache.store_certificate(tmp_path / "cache", greedy_cover(build_graph(n), lam)).rename(path)
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "bounds", *argv, "--out", str(out)) == 0
        assert "best_known" not in capsys.readouterr().out
        assert not path.exists() and path.with_suffix(".json.quarantined").exists()
        assert f"{path.name} failed validation (no run stores this key: {reason}" in out.read_text()


def solve_payload(tmp_path, name, *argv):
    """Run solve with --out and return (exit code, envelope)."""
    out = tmp_path / f"{name}.json"
    code = run(tmp_path, "--quiet", "solve", *argv, "--out", str(out))
    return code, json.loads(out.read_text())


def no_graph(*args, **kwargs):
    raise AssertionError("a graph was built before the settings were checked")


def forbid_builds(monkeypatch):
    """Fail on any graph build, from an empty memo: a graph held from an
    earlier dispatch would otherwise hide a build made too early."""
    monkeypatch.setattr(cli, "_GRAPHS", {})
    monkeypatch.setattr(cli, "build_graph", no_graph)


class TestSettings:
    """--workers, --cache-dir and --max-n are resolved, flag over
    environment over default, when the arguments are parsed."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "6", "--method", "greedy"),
        ("graph", "--n", "6", "--audit"),
    ], ids=["solve", "graph-audit"])
    def test_bad_workers_variable_fails_before_any_work(self, tmp_path, monkeypatch,
                                                        capsys, argv):
        monkeypatch.setenv("PERMCOVER_WORKERS", "abc")
        forbid_builds(monkeypatch)
        out = tmp_path / "x.json"
        assert run(tmp_path, *argv, "--out", str(out)) == 2
        assert not out.exists()
        assert not (tmp_path / "cache").exists()
        assert "workers must be an integer >= 1, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                workers):
        forbid_builds(monkeypatch)
        out = tmp_path / "x.json"
        assert run(tmp_path, "--workers", workers, "graph", "--n", "3",
                   "--out", str(out)) == 2
        assert not out.exists()
        assert "workers must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("env, flags, source", [
        (None, ("--workers", "257"), ""),
        ("257", (), " (from PERMCOVER_WORKERS)"),
    ], ids=["flag", "variable"])
    def test_workers_above_the_ceiling_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                        env, flags, source):
        # checked before any graph is built, so no thread is ever started
        forbid_builds(monkeypatch)
        if env is None:
            monkeypatch.delenv("PERMCOVER_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PERMCOVER_WORKERS", env)
        assert run(tmp_path, *flags, "gap", "--n", "3", "--K", "0", "--trials", "64",
                   "--seed", "0") == 2
        assert (f"argument --workers: workers must be at most 256, got '257'{source}"
                in capsys.readouterr().err)

    def test_workers_at_the_ceiling(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(tmp_path, "--workers", "256", "graph", "--n", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["execution"]["workers"] == 256

    @pytest.mark.parametrize("env, flag, expected", [
        (None, None, 1),
        ("3", None, 3),
        (" 4 ", None, 4),
        ("", None, 1),
        ("3", "2", 2),
        ("abc", "2", 2),
    ])
    def test_execution_workers(self, tmp_path, monkeypatch, env, flag, expected):
        if env is None:
            monkeypatch.delenv("PERMCOVER_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PERMCOVER_WORKERS", env)
        out = tmp_path / "g.json"
        flags = () if flag is None else ("--workers", flag)
        assert run(tmp_path, *flags, "graph", "--n", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["execution"]["workers"] == expected

    def test_dispatch_leaves_the_parser_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMCOVER_WORKERS", "2")
        assert run(tmp_path, "--quiet", "graph", "--n", "2") == 0
        assert cli._PARSER.get_default("workers") is None

    def test_concurrent_solves_leave_the_warning_filters(self, tmp_path):
        # a handler that captured warnings would swap the process-wide
        # filters under the other threads
        filters = list(warnings.filters)
        codes = []

        def worker(i):
            for _ in range(20):
                codes.append(dispatch(["--cache-dir", str(tmp_path / f"cache{i}"), "--quiet",
                                       "solve", "--n", "3", "--method", "greedy"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0] * 120
        assert warnings.filters == filters

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        def rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        assert run(tmp_path, "--quiet", "graph", "--n", "2") == 0

    def test_concurrent_dispatches_convert_the_variable(self, tmp_path, monkeypatch):
        # every dispatch reads the variable after its own parse
        monkeypatch.setenv("PERMCOVER_WORKERS", "2")
        codes, outs = [], [tmp_path / f"g{i}.json" for i in range(6)]

        def worker(out):
            for _ in range(20):
                codes.append(run(tmp_path, "--quiet", "graph", "--n", "1", "--out", str(out)))
                codes.append(json.loads(out.read_text())["execution"]["workers"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in outs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(codes) == [0] * 120 + [2] * 120

    def test_cache_variable_and_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMCOVER_CACHE", str(tmp_path / "env"))
        argv = ("--quiet", "solve", "--n", "3", "--method", "greedy")
        assert dispatch(list(argv)) == 0
        assert (tmp_path / "env" / "3-1-greedy-none.json").exists()
        assert dispatch(["--cache-dir", str(tmp_path / "flag"), *argv]) == 0
        assert (tmp_path / "flag" / "3-1-greedy-none.json").exists()

    def test_bad_max_n_variable_fails_before_any_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMCOVER_MAX_N", "eight")
        forbid_builds(monkeypatch)
        assert run(tmp_path, "gap", "--n", "3", "--K", "0", "--trials", "8",
                   "--seed", "0") == 2

    @pytest.mark.parametrize("name, flag, text, expected", [
        ("PERMCOVER_MAX_N", "--max-n", "eight", "invalid int value: 'eight'"),
        ("PERMCOVER_WORKERS", "--workers", "abc", "workers must be an integer >= 1, got 'abc'"),
    ], ids=["max-n", "workers"])
    def test_bad_variable_is_named(self, tmp_path, monkeypatch, capsys, name, flag, text,
                                   expected):
        forbid_builds(monkeypatch)
        monkeypatch.setenv(name, text)
        assert run(tmp_path, "graph", "--n", "3") == 2
        assert f"argument {flag}: {expected} (from {name})" in capsys.readouterr().err
        # a bad flag is the flag's own error, even with the variable set
        monkeypatch.setenv(name, "5")
        assert run(tmp_path, flag, text, "graph", "--n", "3") == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {expected}" in err and name not in err


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to record each call's arguments; return the list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


class TestGraphReuse:
    """`dispatch` keeps one coverage graph per n for the process."""

    def test_repeat_gap_builds_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_GRAPHS", {})
        builds = counting(monkeypatch, cli, "build_graph")
        pair_stats = counting(monkeypatch, _kernels, "joint_pair_counts")
        docs = []
        for i in range(2):
            out = tmp_path / f"gap{i}.json"
            assert run(tmp_path, "--quiet", "gap", "--n", "5", "--K=0", "--trials", "256",
                       "--seed", "1", "--out", str(out)) == 0
            doc = json.loads(out.read_text())
            del doc["execution"]
            docs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert len(builds) == 1 and len(pair_stats) == 1
        assert docs[0] == docs[1]

    def test_every_verb_shares_the_graph(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_GRAPHS", {})
        builds = counting(monkeypatch, cli, "build_graph")
        for argv in (
            ("graph", "--n", "4", "--audit"),  # exits 1: the audit finds violations
            ("threshold", "--n", "4", "--pmin", "0.2", "--pmax", "0.4", "--steps", "2",
             "--trials", "8", "--seed", "1"),
            ("gap", "--n", "4", "--K=0", "--trials", "8", "--seed", "1"),
            ("solve", "--n", "4", "--method", "greedy", "--no-cache"),
        ):
            assert run(tmp_path, "--quiet", *argv) == (1 if argv[0] == "graph" else 0)
        assert len(builds) == 1

    def test_concurrent_first_dispatches_build_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_GRAPHS", {})
        builds = counting(monkeypatch, cli, "build_graph")
        codes = []

        def worker():
            codes.append(run(tmp_path, "--quiet", "graph", "--n", "6"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0] * 6
        assert len(builds) == 1

    def test_max_n_still_applies_to_a_held_graph(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_GRAPHS", {})
        assert run(tmp_path, "--quiet", "graph", "--n", "5") == 0
        assert 5 in cli._GRAPHS
        assert run(tmp_path, "--max-n", "4", "graph", "--n", "5") == 3
        assert "exceeds the enumeration limit 4" in capsys.readouterr().err

    def test_a_failed_build_holds_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_GRAPHS", {})
        real = cli.build_graph

        def fails_once(*args, **kwargs):
            monkeypatch.setattr(cli, "build_graph", real)
            raise ResourceLimitError("no memory for the graph")

        monkeypatch.setattr(cli, "build_graph", fails_once)
        assert run(tmp_path, "--quiet", "graph", "--n", "3") == 3
        assert cli._GRAPHS == {}
        assert run(tmp_path, "--quiet", "graph", "--n", "3") == 0
        assert 3 in cli._GRAPHS

    def test_repeat_bounds_builds_no_graph(self, tmp_path, monkeypatch, capsys):
        # the best-known column re-verifies against the graph `solve` left held
        monkeypatch.setattr(cli, "_GRAPHS", {})
        builds = counting(monkeypatch, cli, "build_graph")
        assert run(tmp_path, "--quiet", "solve", "--n", "5", "--method", "greedy") == 0
        checked = counting(monkeypatch, cache, "verify_cover")
        for _ in range(2):
            assert run(tmp_path, "bounds", "--n-min", "5", "--n-max", "5") == 0
            assert "best_known=" in capsys.readouterr().out
        assert len(builds) == 1
        assert len(checked) == 2 and all(g is cli._GRAPHS[5] for g, *_ in checked)


def entry(tmp_path, key):
    return cache.certificate_path(tmp_path / "cache", key)


class TestSolveCache:
    @pytest.mark.parametrize("argv", [
        ("--n", "5", "--method", "greedy"),
        ("--n", "6", "--method", "alteration", "--seed", "1"),
        ("--n", "4", "--lambda", "2", "--method", "lambda", "--seed", "3"),
        ("--n", "3", "--method", "exact"),
    ], ids=["greedy", "alteration", "lambda2", "exact"])
    def test_hit_payload_equals_miss(self, tmp_path, argv):
        # the hit, the miss that stored it and an uncached run report the
        # same bytes: nothing run-dependent is left in a payload
        docs = [solve_payload(tmp_path, name, *argv, *extra)
                for name, extra in [("miss", ()), ("hit", ()), ("fresh", ("--no-cache",))]]
        assert [code for code, _ in docs] == [0, 0, 0]
        miss, hit, fresh = (json.dumps(doc["payload"], sort_keys=True) for _, doc in docs)
        assert hit == miss == fresh
        assert not docs[0][1]["warnings"] and not docs[1][1]["warnings"]

    def test_hit_verifies_once(self, tmp_path, monkeypatch):
        # the cache verifies what it serves; the CLI verifies only what it
        # has just computed
        argv = ("--n", "7", "--method", "alteration", "--seed", "1")
        assert solve_payload(tmp_path, "miss", *argv)[0] == 0
        calls = []
        for module in (cli, cache):
            verify = module.verify_cover
            monkeypatch.setattr(module, "verify_cover",
                                lambda *a, verify=verify: calls.append(a) or verify(*a))
        code, doc = solve_payload(tmp_path, "hit", *argv)
        assert code == 0 and doc["payload"]["verified"] is True
        assert len(calls) == 1

    def test_initial_size_bypasses_the_cache(self, tmp_path):
        argv = ("--n", "6", "--method", "alteration", "--seed", "1")
        _, default = solve_payload(tmp_path, "default", *argv)
        stored = entry(tmp_path, "6-1-alteration-1").read_bytes()
        code, doc = solve_payload(tmp_path, "y300", *argv, "--initial-size", "300")
        assert code == 0
        assert doc["config"]["initial_size"] == doc["payload"]["initial_size"] == 300
        assert doc["payload"]["selected"] != default["payload"]["selected"]
        assert entry(tmp_path, "6-1-alteration-1").read_bytes() == stored

    @pytest.mark.parametrize("budget", ["nan", "inf", "0"])
    def test_bad_budget_is_rejected_before_the_cache(self, tmp_path, capsys, budget):
        # a cache hit never reads the budget, so only the parser can reject it
        assert run(tmp_path, "--quiet", "solve", "--n", "3", "--method", "exact") == 0
        assert entry(tmp_path, "3-1-exact-none").exists()
        out = tmp_path / "bad.json"
        argv = ("solve", "--n", "3", "--method", "exact", "--budget", budget, "--out", str(out))
        assert run(tmp_path, *argv) == 2
        assert not out.exists()
        assert "time_budget must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "under-a-file"])
    def test_unusable_cache_dir_warns_and_reports_the_cover(self, tmp_path, capsys, sub):
        # the cover is verified before the store, so a cache directory that
        # cannot be made costs the cache entry, not the result
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        argv = ("--quiet", "solve", "--n", "3", "--method", "greedy")
        out, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        assert dispatch(["--cache-dir", str(blocker / sub), *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert run(tmp_path, *argv, "--no-cache", "--out", str(fresh)) == 0
        doc, fresh_doc = json.loads(out.read_text()), json.loads(fresh.read_text())
        assert doc["payload"] == fresh_doc["payload"]
        [warning] = doc["warnings"]
        assert warning.startswith("could not store the certificate in ")
        assert blocker.read_text() == ""

    def test_failed_verification_is_not_stored(self, tmp_path, monkeypatch, capsys):
        # a construction that returns a non-cover must not reach the cache,
        # where the next run would quarantine it
        def non_cover(g, seed, initial_size=None):
            return CoverCertificate(g.n, 1, "alteration", (0,), seed=seed,
                                    initial_size=alteration_default_initial_size(g.n))
        monkeypatch.setattr(cli, "alteration_cover", non_cover)
        assert run(tmp_path, "solve", "--n", "4", "--method", "alteration", "--seed", "3") == 1
        assert "verification FAILED" in capsys.readouterr().err
        assert not list((tmp_path / "cache").glob("*.json"))

    def test_timed_out_exact_is_not_stored(self, tmp_path):
        code, doc = solve_payload(tmp_path, "exact5", "--n", "5", "--method", "exact",
                                  "--budget", "0.05")
        assert code == 0
        assert doc["payload"]["status"] == "feasible"
        assert doc["payload"]["lower_bound"] == 20  # pigeonhole
        assert not entry(tmp_path, "5-1-exact-none").exists()

    def test_edited_claims_are_not_served(self, tmp_path):
        # only `selected` is read: a greedy entry that claims an optimal
        # exact result is served as what its key says it is
        assert run(tmp_path, "--quiet", "solve", "--n", "3", "--method", "greedy") == 0
        path = entry(tmp_path, "3-1-greedy-none")
        doc = json.loads(path.read_text())
        doc.update(method="exact", status="optimal", lower_bound=3)
        path.write_text(json.dumps(doc))
        code, env = solve_payload(tmp_path, "hit", "--n", "3", "--method", "greedy")
        assert code == 0 and path.exists() and not env["warnings"]
        pay = env["payload"]
        assert (pay["method"], pay["status"], pay["size"], pay["lower_bound"]) == (
            "greedy", "feasible", 3, 2)

    def test_unknown_status_is_verified_and_recomputed(self, tmp_path):
        assert run(tmp_path, "--quiet", "solve", "--n", "3", "--method", "greedy") == 0
        path = entry(tmp_path, "3-1-greedy-none")
        doc = json.loads(path.read_text())
        doc.update(status="infeasible-budget", selected=doc["selected"][:1])
        path.write_text(json.dumps(doc))
        code, env = solve_payload(tmp_path, "again", "--n", "3", "--method", "greedy")
        assert code == 0
        assert env["payload"]["size"] == 3 and env["payload"]["verified"] is True
        assert any("failed validation" in w for w in env["warnings"])
        assert path.with_suffix(".json.quarantined").exists()

    def test_exact_entry_not_marked_optimal_is_quarantined(self, tmp_path, graph):
        # an older version stored timed-out exact results as "feasible";
        # such an entry must not be promoted to optimal by its key
        doc = greedy_cover(graph(3)).to_json_dict()
        doc.update(method="exact", status="feasible")
        path = entry(tmp_path, "3-1-exact-none")
        path.parent.mkdir()
        path.write_text(json.dumps(doc))
        code, env = solve_payload(tmp_path, "exact3", "--n", "3", "--method", "exact")
        assert code == 0
        pay = env["payload"]
        assert (pay["status"], pay["size"], pay["lower_bound"]) == ("optimal", 2, 2)
        assert any("not 'optimal'" in w for w in env["warnings"])
        assert path.with_suffix(".json.quarantined").exists()

    def test_forged_optimal_exact_entry_is_quarantined(self, tmp_path, graph):
        # greedy's 3-cover of S_3 verifies, but the dual bound is 2, so an
        # entry claiming it as the exact optimum cannot prove its claim
        forged = CoverCertificate(3, 1, "exact", greedy_cover(graph(3)).selected, optimal=True)
        assert cache.store_certificate(tmp_path / "cache", forged) is None
        path = entry(tmp_path, "3-1-exact-none")
        path.parent.mkdir()
        path.write_text(json.dumps(forged.to_json_dict()))
        code, env = solve_payload(tmp_path, "exact3", "--n", "3", "--method", "exact")
        assert code == 0
        pay = env["payload"]
        assert (pay["status"], pay["size"], pay["lower_bound"]) == ("optimal", 2, 2)
        assert any("not certified optimal: the dual bound is 2" in w for w in env["warnings"])
        assert path.with_suffix(".json.quarantined").exists()

    def test_entry_with_another_initial_size_is_quarantined(self, tmp_path, graph):
        # keyed without its initial size by an older version, so it cannot
        # answer a default request
        cert = alteration_cover(graph(4), seed=2, initial_size=0)
        cache.store_certificate(tmp_path / "cache", cert)
        code, env = solve_payload(tmp_path, "alt4", "--n", "4", "--method", "alteration",
                                  "--seed", "2")
        assert code == 0
        assert env["payload"]["initial_size"] == alteration_default_initial_size(4)
        assert any("initial_size 0 is not the default" in w for w in env["warnings"])

    def test_bounds_writes_quarantine_notes_as_comments(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "solve", "--n", "3", "--method", "exact") == 0
        path = entry(tmp_path, "3-1-exact-none")
        doc = json.loads(path.read_text())
        doc["selected"] = doc["selected"][:-1]  # no longer a cover
        path.write_text(json.dumps(doc))
        out = tmp_path / "bounds.csv"
        assert run(tmp_path, "--quiet", "bounds", "--n-min", "3", "--n-max", "3",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == ("# cache entry 3-1-exact-none.json failed validation "
                            "(3 deficient patterns); moved to 3-1-exact-none.json.quarantined")
        assert lines[-1].endswith(",,")  # nothing best known
        assert "UserWarning" not in capsys.readouterr().err
        assert path.with_suffix(".json.quarantined").exists()


def envelope_digest(path: Path) -> str:
    """sha256 of an envelope without its volatile `execution` block.  The
    file must be the canonical dump of what it holds, so the digest pins
    its bytes."""
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    del doc["execution"]
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


# Each verb's --out, run in this order over one cache directory: the exit
# code, the arguments and the sha256 of the output (envelopes without
# `execution`, CSV whole); "alteration5-entry" is the cache file the
# alteration miss stores.
PINNED_RUNS = [
    ("exact4", 0, ("solve", "--n", "4", "--method", "exact")),
    ("greedy5", 0, ("solve", "--n", "5", "--method", "greedy")),
    ("alteration5-miss", 0, ("solve", "--n", "5", "--method", "alteration", "--seed", "1")),
    ("alteration5-hit", 0, ("solve", "--n", "5", "--method", "alteration", "--seed", "1")),
    ("lambda4", 0, ("lambda", "--n", "4", "--lambda", "2", "--seed", "1")),
    ("graph4", 0, ("graph", "--n", "4")),
    ("audit4", 1, ("graph", "--n", "4", "--audit")),
    ("threshold4", 0, ("threshold", "--n", "4", "--pmin", "0.1", "--pmax", "0.5",
                       "--steps", "3", "--trials", "200", "--seed", "5")),
    ("gap4", 0, ("gap", "--n", "4", "--K=0", "--trials", "256", "--seed", "2")),
    ("bounds5", 0, ("bounds", "--n-max", "5")),
    ("bounds5-lambda2", 0, ("bounds", "--n-max", "5", "--lambda", "2")),
]
PINS = {
    "exact4": "12de291ecce9c28b531fe9c6de1c03573cb0bce525698053cc3263560c2960b7",
    "greedy5": "fa1ce0b3a927be6919b6be08997bfd93154ae62147fcb8d89fb7284d942a9df1",
    "alteration5-miss": "01f5a86a765f410bd1404be11a8ca6d2f319cd0070aa872e028261157b33af95",
    "alteration5-entry": "fc580d100c4939bc5ee81790e5999e5a15267f20581c719873f1aedc23518d38",
    "alteration5-hit": "01f5a86a765f410bd1404be11a8ca6d2f319cd0070aa872e028261157b33af95",
    "lambda4": "84146812d3af93947762b228cb5b6463f51bdb5bfa6c7edafbb679e3f6018125",
    "graph4": "bccd93d400be5bf6abfd3667a338c57463a49a9654883a0026f3b620c352b107",
    "audit4": "2f885a3c2caaa18e60d07b2df6069af7543c1443aa367b721c4ed5ee85a69190",
    "threshold4": "a0cea30a4ac857feed2047960214fde96858ccc32d849b141c4abbf7cdeb611d",
    "gap4": "78df305b3d8ae4cd0616bfb25f9f94745269c868d1dbdfff58e93c411ffb53b9",
    "bounds5": "d86838827554cd3f566a4fdc04a900a11acb2d56b1942f34ad60eacd3d98309c",
    "bounds5-lambda2": "5dbccb9b12f7ed9b388d12b939276c788ca7657fe91a57545c755a49229f93b0",
}


def test_every_verb_output_is_pinned(tmp_path):
    digests = {}
    for name, code, argv in PINNED_RUNS:
        out = tmp_path / f"{name}.out"
        assert run(tmp_path, "--quiet", *argv, "--out", str(out)) == code, name
        csv = argv[0] in ("threshold", "bounds")
        digests[name] = (hashlib.sha256(out.read_bytes()).hexdigest() if csv
                         else envelope_digest(out))
        if name == "alteration5-miss":
            stored = entry(tmp_path, "5-1-alteration-1").read_bytes()
            digests["alteration5-entry"] = hashlib.sha256(stored).hexdigest()
    assert digests == PINS


@pytest.mark.parametrize("argv, code", [
    (("graph", "--n", "3"), 0),
    (("graph", "--n", "3", "--audit"), 1),
    (("solve", "--n", "3"), 2),
    (("graph", "--n", "9"), 3),
], ids=["ok", "violation", "usage", "resource-limit"])
def test_module_entry_point_exit_codes(tmp_path, argv, code):
    # `python -m permcover.cli` runs main(), which hands dispatch's code to sys.exit
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "permcover.cli", "--quiet", "--cache-dir",
         str(tmp_path / "cache"), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
