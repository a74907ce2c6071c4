import json
import threading
import warnings
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import permcover.cache as cache
from permcover.cli import dispatch
from permcover.cover import exact_min_cover, greedy_cover
from permcover.graph import build_graph


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
        assert "size=2" in capsys.readouterr().out

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

    def test_usage_errors(self, tmp_path):
        assert run(tmp_path, "solve", "--n", "3") == 2  # missing --method
        assert run(tmp_path, "nonsense") == 2
        assert run(tmp_path, "solve", "--n", "3", "--method", "alteration") == 2  # no seed
        assert run(tmp_path, "gap", "--n", "2", "--trials", "10", "--seed", "0") == 2

    def test_resource_limit_exit(self, tmp_path):
        assert run(tmp_path, "graph", "--n", "9") == 3

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
        loaded = cache.load_certificate(tmp_path, g, 1, "exact", None)
        assert loaded is not None
        assert loaded.selected == cert.selected

    def test_miss(self, tmp_path, graph):
        assert cache.load_certificate(tmp_path, graph(3), 1, "exact", None) is None

    def test_tampered_entry_quarantined(self, tmp_path, graph):
        g = graph(3)
        cert = exact_min_cover(g, 1, 30)
        path = cache.store_certificate(tmp_path, cert)
        doc = json.loads(path.read_text())
        doc["selected"] = doc["selected"][:-1]  # drop one member: no longer a cover
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.load_certificate(tmp_path, g, 1, "exact", None) is None
        assert any("failed validation" in str(w.message) for w in caught)
        assert not path.exists()
        assert path.with_suffix(".json.quarantined").exists()

    def test_corrupt_json_quarantined(self, tmp_path, graph):
        g = graph(3)
        path = cache.certificate_path(tmp_path, cache.certificate_key(3, 1, "exact", None))
        tmp_path.mkdir(exist_ok=True)
        path.write_text("{ not json")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert cache.load_certificate(tmp_path, g, 1, "exact", None) is None
        assert not path.exists()

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
        loaded = cache.load_certificate(tmp_path, g, 1, "greedy", None)
        assert loaded is not None and loaded.selected == cert.selected
        leftovers = [p for p in Path(tmp_path).iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert path.exists()

    def test_best_known_prefers_optimal(self, tmp_path, graph):
        g = graph(3)
        cache.store_certificate(tmp_path, greedy_cover(g))
        assert cache.best_known_size(tmp_path, 3, 1) == (3, "feasible")
        cache.store_certificate(tmp_path, exact_min_cover(g, 1, 30))
        assert cache.best_known_size(tmp_path, 3, 1) == (2, "optimal")
