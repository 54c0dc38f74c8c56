import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from ratered import certify, cli, envelope, fieldcsv
from ratered.envelope import BOTTOM
from ratered.lattice import FieldBank, RateReductionField, run
from ratered.probability import GridSpec, binary_entropy, entropy_grid
from ratered.target_functions import builtin_table
from test_lattice import PERIOD2


def read_json(path):
    return json.loads(path.read_text())


class TestRunCommand:
    def test_artifacts_and_metadata(self, tmp_path):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1",
            "--t-max", "40", "--track", "0.5,0.5,0.5",
            "--emit", "fields-csv,trace-csv,trace-svg,report-json",
            "-o", str(tmp_path),
        ])
        assert code == 0
        for name in ("field_k1.csv", "field_k2.csv", "field_k3.csv",
                     "field_max.csv", "trace.csv", "trace.svg", "metadata.json"):
            assert (tmp_path / name).exists(), name
        md = read_json(tmp_path / "metadata.json")
        assert md["delta"] == 0.1
        assert md["stop_reason"] in ("converged", "t_max")
        assert md["t_stop"] <= 40
        assert "caveat" in " ".join(md.keys()) or md["convergence_caveat"]
        assert md["tracked"][0]["snapped_index"] == [5, 5, 5]
        assert md["tracked"][0]["requested"] == [0.5, 0.5, 0.5]
        assert len(md["sup_deltas"]) == md["t_stop"]
        assert md["envelope_chains"] == 1      # min's base is rotation-invariant
        assert md["envelope_kernel"] == envelope.kernel_name()
        assert "threads" not in md
        svg = (tmp_path / "trace.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_field_csv_round_trip_bit_exact(self, tmp_path, min3):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.2",
            "--t-max", "3", "--eps", "1e-300", "-o", str(tmp_path),
        ])
        assert code == 0
        grid = GridSpec.from_delta(3, 0.2)
        expected = run(grid, min3, t_max=3, eps=1e-300)
        for k in (1, 2, 3):
            loaded = fieldcsv.read_field_csv(tmp_path / f"field_k{k}.csv")
            assert loaded.grid == grid
            assert np.array_equal(loaded.data, expected.bank.field_for(k).data)
        loaded_max = fieldcsv.read_field_csv(tmp_path / "field_max.csv")
        assert np.array_equal(loaded_max.data, expected.bank.max_data())

    def test_infinity_spellings(self, tmp_path):
        # a zero-sweep run keeps BOTTOM entries: rho "-inf", sum-rate "inf"
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--t-max", "0", "-o", str(tmp_path),
        ])
        text = (tmp_path / "field_k1.csv").read_text()
        assert ",-inf," in text
        assert text.count("inf") > 0
        row = [ln for ln in text.splitlines() if ln.startswith("1,1,1,")][0]
        assert row.split(",")[-2:] == ["-inf", "inf"]

    def test_trace_csv_shape(self, tmp_path):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.25",
            "--t-max", "5", "--eps", "1e-300",
            "--track", "0.5,0.5,0.5", "--track", "1,1,0.5",
            "-o", str(tmp_path),
        ])
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,k,point_id,rho"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 6 * 2 * 4            # taus 0..5, 2 points, k in 1..3+max
        assert {row[1] for row in body} == {"1", "2", "3", "max"}
        assert {row[2] for row in body} == {"0", "1"}
        assert [row[0] for row in body[:8]] == ["0"] * 8

    def test_slice_matches_marginal_entropies(self, tmp_path):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1",
            "--t-max", "40", "--slice", "p3=0", "--emit", "report-json",
            "-o", str(tmp_path),
        ])
        lines = (tmp_path / "slice_p3_0.csv").read_text().splitlines()
        assert lines[0] == "i_1,i_2,p_1,p_2,rho_max,Rsum_max"
        for ln in lines[1:]:
            cells = ln.split(",")
            expected = binary_entropy(float(cells[2])) + binary_entropy(float(cells[3]))
            assert float(cells[4]) == pytest.approx(expected, abs=1e-9)
            assert float(cells[5]) == pytest.approx(0.0, abs=1e-9)

    def test_slice_named_after_snapped_value(self, tmp_path):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1",
            "--t-max", "2", "--slice", "p3=0.33", "--emit", "report-json",
            "-o", str(tmp_path),
        ])
        assert (tmp_path / "slice_p3_0p3.csv").exists()
        assert not (tmp_path / "slice_p3_0p33.csv").exists()
        md = read_json(tmp_path / "metadata.json")
        assert md["slice"] == {"axis": 3, "requested": 0.33,
                               "snapped_index": 3, "snapped_value": 0.3}
        assert "slice_p3_0p3.csv" in md["artifacts"]

    def test_constant_function_degenerate(self, tmp_path):
        cli.main([
            "run", "--function", "constant", "--m", "3", "--delta", "0.2",
            "-o", str(tmp_path),
        ])
        md = read_json(tmp_path / "metadata.json")
        assert md["t_stop"] == 1
        assert md["stop_reason"] == "converged"
        for ln in (tmp_path / "field_max.csv").read_text().splitlines()[1:]:
            assert ln.split(",")[-1] == "0"

    def test_truth_table_file_as_function(self, tmp_path):
        table = tmp_path / "xor.txt"
        table.write_text(
            "arity m=2 alphabets=2,2 outputs=0,1\n"
            "0 0 -> 0\n0 1 -> 1\n1 0 -> 1\n1 1 -> 0\n"
        )
        out = tmp_path / "out"
        code = cli.main([
            "run", "--function", str(table), "--m", "2", "--delta", "0.5",
            "--t-max", "4", "-o", str(out),
        ])
        assert code == 0
        assert (out / "field_max.csv").exists()

    def test_svg_text_is_escaped(self, tmp_path):
        """A --function path with XML metacharacters still gives well-formed
        SVGs, whose text reads back as the path."""
        table = tmp_path / "t&<x" / "and.txt"
        table.parent.mkdir()
        table.write_text(
            "arity m=2 alphabets=2,2 outputs=0,1\n"
            "0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"
        )
        out = tmp_path / "out"
        assert cli.main([
            "run", "--function", str(table), "--m", "2", "--delta", "0.5",
            "--t-max", "3", "--track", "0.5,0.5", "--emit", "trace-svg", "-o", str(out),
        ]) == 0
        assert cli.main([
            "sweep-delta", "--function", str(table), "--m", "2", "--deltas", "0.5,0.25",
            "--track", "0.5,0.5", "--t-max", "3", "-o", str(out),
        ]) == 0
        for name in ("trace.svg", "sweep_trace.svg"):
            texts = [e.text for e in ElementTree.parse(out / name).iter()
                     if e.tag.endswith("text")]
            assert any(str(table) in t for t in texts), name

    def test_builtin_name_is_case_insensitive(self, tmp_path):
        for name in ("min", "MIN"):
            code = cli.main([
                "run", "--function", name, "--m", "3", "--delta", "0.5",
                "--t-max", "2", "-o", str(tmp_path / name),
            ])
            assert code == 0
        assert ((tmp_path / "MIN" / "field_max.csv").read_bytes()
                == (tmp_path / "min" / "field_max.csv").read_bytes())

    def test_envelope_chains_m_without_rotation_invariance(self, tmp_path):
        table = tmp_path / "first.txt"
        table.write_text(
            "arity m=2 alphabets=2,2 outputs=0,1\n"
            "0 0 -> 0\n0 1 -> 0\n1 0 -> 1\n1 1 -> 1\n"
        )
        code = cli.main([
            "run", "--function", str(table), "--m", "2", "--delta", "0.25",
            "--t-max", "2", "-o", str(tmp_path / "out"),
        ])
        assert code == 0
        assert read_json(tmp_path / "out" / "metadata.json")["envelope_chains"] == 2


class TestCertifyCommand:
    def test_pass_on_own_converged_field(self, tmp_path):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1",
            "--t-max", "40", "-o", str(tmp_path),
        ])
        code = cli.main([
            "certify", "--field", str(tmp_path / "field_max.csv"),
            "--function", "min", "--m", "3", "--delta", "0.1",
            "--tol", "1e-4", "-o", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "certify_report.json")
        assert report["membership"]["verdict"] == "pass"
        assert report["optimality"]["status"] == "optimal within tol"
        assert report["envelope_kernel"] == envelope.kernel_name()
        field = fieldcsv.read_field_csv(tmp_path / "field_max.csv")
        assert report["membership"]["field_sha256"] == certify.field_digest(field.data)

    def test_corrupted_field_fails_with_location(self, tmp_path):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1",
            "--t-max", "40", "-o", str(tmp_path),
        ])
        path = tmp_path / "field_max.csv"
        field = fieldcsv.read_field_csv(path)
        bumped = field.data.copy()
        bumped[3, 6, 4] += 0.5
        fieldcsv.write_field_csv(path, field.__class__(field.grid, bumped), "max")
        code = cli.main([
            "certify", "--field", str(path), "--function", "min",
            "--tol", "1e-4", "-o", str(tmp_path),
        ])
        assert code == 0                      # a failed verdict is a result
        report = read_json(tmp_path / "certify_report.json")
        assert report["membership"]["verdict"] == "fail"
        loc = report["membership"]["concavity_location"]
        assert max(abs(a - b) for a, b in zip(loc, (3, 6, 4))) <= 1

    def test_runs_one_membership_check(self, tmp_path, monkeypatch):
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.25",
            "--t-max", "3", "-o", str(tmp_path),
        ])
        calls = []
        for module in (certify, cli):
            def counted(*args, _original=module.check_membership, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "check_membership", counted)
        code = cli.main([
            "certify", "--field", str(tmp_path / "field_max.csv"),
            "--function", "min", "--t-max", "3", "-o", str(tmp_path),
        ])
        assert code == 0
        assert len(calls) == 1

    def _certify_mismatch(self, tmp_path, capsys, option):
        """certify on a min m=3, delta=0.5 field with one mismatched option:
        exit code 2, stderr, and no report written."""
        cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--t-max", "1", "-o", str(tmp_path),
        ])
        capsys.readouterr()
        code = cli.main([
            "certify", "--field", str(tmp_path / "field_max.csv"),
            "--function", "min", *option, "-o", str(tmp_path),
        ])
        assert code == 2
        assert not (tmp_path / "certify_report.json").exists()
        return capsys.readouterr().err

    def test_grid_mismatch_is_config_error(self, tmp_path, capsys):
        assert self._certify_mismatch(tmp_path, capsys, ["--delta", "0.1"]) == \
            "error: --delta 0.1 implies 10 steps, field CSV has 2\n"

    def test_arity_mismatch_is_config_error(self, tmp_path, capsys):
        assert self._certify_mismatch(tmp_path, capsys, ["--m", "2"]) == \
            "error: --m 2 does not match field CSV arity 3\n"

    def test_field_on_no_grid_step_names_file_and_cause(self, tmp_path, capsys):
        path = tmp_path / "field_max.csv"
        path.write_text("i_1,i_2,p_1,p_2,rho_max,Rsum_max\n0,0,0,0,0,0\n")
        code = cli.main(["certify", "--field", str(path), "--function", "min",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {path}: every i_j is 0, so the indices span no grid step\n"
        assert not (tmp_path / "out").exists()


class TestSweepDeltaCommand:
    def test_two_step_overlay(self, tmp_path):
        code = cli.main([
            "sweep-delta", "--function", "min", "--m", "3",
            "--deltas", "0.5,0.25", "--track", "0.5,0.5,0.5",
            "--t-max", "8", "--eps", "1e-300", "-o", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "sweep_report.json")
        assert [d["delta"] for d in report["per_delta"]] == [0.5, 0.25]
        assert all(d["monotone_nondecreasing"] for d in report["per_delta"])
        assert report["cross_delta"][0]["coarse_delta"] == 0.5
        text = (tmp_path / "sweep_trace.csv").read_text()
        assert text.splitlines()[0] == "delta,t,k,point_id,rho"
        assert "0.5," in text and "0.25," in text
        assert (tmp_path / "sweep_trace.svg").exists()

    def test_nested_pair_agrees_exactly_at_every_shared_point(self, tmp_path):
        assert cli.main([
            "sweep-delta", "--function", "min", "--m", "3", "--deltas", "0.5,0.25",
            "-o", str(tmp_path),
        ]) == 0
        (cross,) = read_json(tmp_path / "sweep_report.json")["cross_delta"]
        assert cross == {"coarse_delta": 0.5, "fine_delta": 0.25, "nested": True,
                         "shared_points": 27, "max_coarse_minus_fine": 0.0,
                         "worst_t": 0, "worst_pmf": [0.0, 0.0, 0.0]}

    def test_pair_not_nested_reports_its_worst_point(self, tmp_path):
        # 4 does not divide 10: the grids share only the points i/2, and the
        # coarse field is above the fine one at the centre
        assert cli.main([
            "sweep-delta", "--function", "min", "--m", "3", "--deltas", "0.25,0.1",
            "-o", str(tmp_path),
        ]) == 0
        (cross,) = read_json(tmp_path / "sweep_report.json")["cross_delta"]
        assert cross == {"coarse_delta": 0.25, "fine_delta": 0.1, "nested": False,
                         "shared_points": 27, "max_coarse_minus_fine": 4.735267751115657e-3,
                         "worst_t": 4, "worst_pmf": [0.5, 0.5, 0.5]}

    def test_runs_without_track(self, tmp_path):
        assert cli.main([
            "sweep-delta", "--function", "min", "--m", "2", "--deltas", "0.25,0.125",
            "--t-max", "4", "-o", str(tmp_path),
        ]) == 0
        report = read_json(tmp_path / "sweep_report.json")
        assert [(d["tracked"], d["monotone_nondecreasing"]) for d in report["per_delta"]] \
            == [([], True)] * 2
        assert report["cross_delta"][0]["nested"] is True
        assert (tmp_path / "sweep_trace.csv").read_text() == "delta,t,k,point_id,rho\n"
        ElementTree.parse(tmp_path / "sweep_trace.svg")

    @staticmethod
    def _patch_banks(monkeypatch, delta, pmf, edit):
        """Patch the sweeps() that sweep-delta steps: on the grid of step
        delta, every bank is handed out as a copy of its m node fields in
        which each node's value v at pmf becomes edit(tau, v)."""
        real_sweeps = cli.sweeps

        def patched(grid, *args):
            for bank, d in real_sweeps(grid, *args):
                if grid.delta == delta:
                    at = grid.snap(pmf)
                    fields = [RateReductionField(grid, f.data.copy()) for f in bank.node_fields()]
                    for field in fields:
                        field.data[at] = edit(bank.tau, field.data[at])
                    bank = FieldBank(tuple(fields), bank.tau)
                yield bank, d

        monkeypatch.setattr(cli, "sweeps", patched)

    SWEEP_ARGS = [
        "sweep-delta", "--function", "min", "--m", "3", "--deltas", "0.5,0.25",
        "--track", "0.5,0.5,0.5", "--track", "1,0.5,0.5",
        "--t-max", "4", "--eps", "1e-300",
    ]

    def test_drop_at_any_tracked_point_fails(self, tmp_path, monkeypatch, capsys):
        # tracked point 1 falls to 0 at the fine grid's last sweep
        self._patch_banks(monkeypatch, 0.25, (1, 0.5, 0.5),
                          lambda tau, v: 0.0 if tau == 4 else v)
        code = cli.main(self.SWEEP_ARGS + ["-o", str(tmp_path)])
        assert code == 2
        assert "non-monotone" in capsys.readouterr().err
        coarse, fine = read_json(tmp_path / "sweep_report.json")["per_delta"]
        assert coarse["monotone_nondecreasing"] is True
        assert fine["monotone_nondecreasing"] is False
        rows = [line.rsplit(",", 1) for line in
                (tmp_path / "sweep_trace.csv").read_text().splitlines()]
        series = {t: float(rho) for key, rho in rows for t in (3, 4)
                  if key == f"0.25,{t},max,1"}
        assert series[3] > 0.0 and series[4] == 0.0
        assert fine["worst_drop"] == series[3]

    def test_cross_delta_checks_every_tracked_point(self, tmp_path, monkeypatch):
        """A drop of the fine field is seen wherever it is: here at a point
        that no --track names."""
        self._patch_banks(monkeypatch, 0.25, (0.5, 1, 0.5), lambda tau, v: v - 0.25)
        assert cli.main(self.SWEEP_ARGS + ["-o", str(tmp_path)]) == 0
        (cross,) = read_json(tmp_path / "sweep_report.json")["cross_delta"]
        assert cross["max_coarse_minus_fine"] > 0.0
        assert cross["worst_pmf"] == [0.5, 1.0, 0.5]

    def test_cross_delta_fine_bottom_under_finite_coarse_is_infinite(self, tmp_path,
                                                                       monkeypatch):
        self._patch_banks(monkeypatch, 0.25, (1, 0.5, 0.5), lambda tau, v: BOTTOM)
        assert cli.main(self.SWEEP_ARGS + ["-o", str(tmp_path)]) == 0
        (cross,) = read_json(tmp_path / "sweep_report.json")["cross_delta"]
        assert cross["max_coarse_minus_fine"] == "inf"
        assert cross["worst_pmf"] == [1.0, 0.5, 0.5]

    def test_cross_delta_ignores_bottom_coarse_values(self, tmp_path, monkeypatch):
        self._patch_banks(monkeypatch, 0.5, (1, 0.5, 0.5), lambda tau, v: BOTTOM)
        assert cli.main(self.SWEEP_ARGS + ["-o", str(tmp_path)]) == 0
        (cross,) = read_json(tmp_path / "sweep_report.json")["cross_delta"]
        assert cross["max_coarse_minus_fine"] == 0.0

    @pytest.mark.parametrize("series, want", [
        ([1.0, BOTTOM], math.inf),                          # a fall to BOTTOM
        ([BOTTOM, 1.0], 0.0),                               # a rise from BOTTOM
        ([BOTTOM, BOTTOM], 0.0),
        ([1.0, 2.0, BOTTOM, 0.5, 0.25], math.inf),
        ([2.0, 1.5, 1.75, 1.0], 0.75),
        ([2.55789851544197, 2.55789851544097], 0.0),        # not below 1e-12 under prev
        ([], 0.0),
        ([3.0], 0.0),
    ], ids=["fall-to-bottom", "rise-from-bottom", "bottom-bottom", "bottom-mid",
            "finite-drops", "boundary", "empty", "single"])
    def test_worst_drop(self, series, want):
        assert cli._worst_drop(series) == want

    def test_svg_draws_every_tracked_point_at_every_delta(self, tmp_path):
        assert cli.main(self.SWEEP_ARGS + ["-o", str(tmp_path)]) == 0
        svg = (tmp_path / "sweep_trace.svg").read_text()
        assert svg.count("<polyline") == 4          # 2 deltas x 2 points, no gaps
        labels = [part.split("<")[0] for part in svg.split('font-size="11">')[1:]]
        assert labels == [f"delta={d} p({p}, 0.5, 0.5)"
                          for d in ("0.5", "0.25") for p in ("0.5", "1.0")]

    def test_svg_colours_by_delta_and_dashes_by_point(self, tmp_path):
        assert cli.main([
            "sweep-delta", "--function", "min", "--m", "3", "--deltas", "0.5,0.25,0.125",
            "--track", "0.5,0.5,0.5", "--track", "1,0.5,0.5", "--track", "0.5,1,0.5",
            "--t-max", "3", "--eps", "1e-300", "-o", str(tmp_path),
        ]) == 0
        svg = (tmp_path / "sweep_trace.svg").read_text()

        def style(element):
            dash = re.search(r'stroke-dasharray="([^"]*)"', element)
            return re.search(r'stroke="([^"]*)"', element)[1], dash and dash[1]

        polylines = [style(e) for e in svg.split("<") if e.startswith("polyline ")]
        legend = [style(e) for e in svg.split("<")
                  if e.startswith("line ") and 'stroke-width="1.5"' in e]
        assert len(polylines) == len(set(polylines)) == 9
        assert legend == polylines

    @pytest.mark.parametrize("options, message", [
        (["--deltas", "0.05,0.3"], "delta=0.3 is not the reciprocal of an integer"),
        (["--deltas", "0.5,0"], "delta must lie in (0, 1], got 0.0"),
        (["--deltas", "0.1,0.25,0.1"], "--deltas 0.1 and 0.1 give the same grid (10 steps)"),
        (["--deltas", "0.5,0.25", "--eps", "-1"], "eps must be > 0, got -1.0"),
        (["--deltas", "0.5,0.25", "--t-max", "-1"], "t_max must be >= 0, got -1"),
        (["--deltas", "0.5", "--track", "0.5,0.5"],
         "point '0.5,0.5' has 2 coordinates, expected 3"),
        (["--deltas", "0.5", "--track", "0.5,0.5,2"],
         "point '0.5,0.5,2' has coordinates outside [0, 1]"),
    ], ids=["bad-late-delta", "zero-delta", "same-grid", "eps", "t-max",
            "track-arity", "track-range"])
    def test_bad_option_fails_before_any_sweep(self, tmp_path, capsys, monkeypatch,
                                               options, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep-delta ran a sweep before checking its options")

        monkeypatch.setattr(cli, "sweeps", forbidden)
        track = [] if "--track" in options else ["--track", "0.5,0.5,0.5"]
        code = cli.main(["sweep-delta", "--function", "min", "--m", "3", *options,
                         *track, "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestOracleCheckCommand:
    def test_explicit_and_random_points(self, tmp_path):
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", "3", "--search-step", "0.2",
            "--point", "1,1,0.5", "--n-random", "2", "--seed", "5",
            "-o", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "oracle_report.json")
        assert report["within_contract"] is True
        assert len(report["rows"]) == 3
        assert report["rows"][0]["point"] == [5, 5, 2]   # snapped 1,1,0.5 on N=5

    def test_report_records_every_point(self, tmp_path):
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", "3", "--search-step", "0.2",
            "--point", "1,1,0.5", "--point", "0.33,0,0.9", "--n-random", "2",
            "--seed", "5", "-o", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "oracle_report.json")
        points = report.pop("points")
        assert list(report) == ["k", "search_step", "u1_cardinality", "slack", "worst_gap",
                                "within_contract", "rows"]
        assert points[:2] == [
            {"source": "point", "requested": [1.0, 1.0, 0.5], "snapped_index": [5, 5, 2],
             "snapped_pmf": [1.0, 1.0, 0.4]},
            {"source": "point", "requested": [0.33, 0.0, 0.9], "snapped_index": [2, 0, 4],
             "snapped_pmf": [0.4, 0.0, 0.8]},
        ]
        assert len(points) == len(report["rows"]) == 4
        for rec, row in zip(points, report["rows"]):
            assert rec["snapped_index"] == row["point"]
            assert rec["snapped_pmf"] == [i / 5 for i in row["point"]]
        for rec in points[2:]:
            assert list(rec) == ["source", "requested", "snapped_index", "snapped_pmf"]
            assert rec["source"] == "random" and rec["requested"] is None

    def test_n_random_beyond_the_grid_is_refused_before_drawing(self, tmp_path, capsys,
                                                                monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle-check drew points it then refused")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", "3", "--n-random", str(10**11), "-o", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --n-random 100000000000 exceeds the 216 points of the grid\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_random, code", [(9, 0), (10, 2)])
    def test_n_random_up_to_the_grid_size(self, tmp_path, capsys, n_random, code):
        assert cli.main([
            "oracle-check", "--function", "min", "--m", "2", "--delta", "0.5",
            "--k", "1", "--search-step", "0.5", "--n-random", str(n_random),
            "-o", str(tmp_path),
        ]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       "error: --n-random 10 exceeds the 9 points of the grid\n")

    def test_needs_points(self, tmp_path, capsys):
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", "1", "-o", str(tmp_path),
        ])
        assert code == 2
        assert "point" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", "1", "--n-random", "2", "--seed", "-1", "-o", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed -1 is negative\n"
        assert not (tmp_path / "oracle_report.json").exists()

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, tmp_path, k, capsys):
        code = cli.main([
            "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
            "--k", str(k), "--point", "1,1,0.5", "-o", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: --k {k} outside 1..3\n"

    @pytest.mark.parametrize("flag", ["--t-max", "--eps", "--threads"])
    def test_rejects_sweep_options(self, tmp_path, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "oracle-check", "--function", "min", "--m", "3", "--delta", "0.2",
                "--k", "1", "--point", "1,1,0.5", flag, "3", "-o", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWithoutACompiler:
    """Where the compiled envelope kernel cannot be built, every command runs
    on the numpy kernel and writes the same bytes; only the recorded kernel
    (and run's elapsed time) differ."""

    def _every_command(self, out, field):
        assert cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.1", "--t-max", "12",
            "--track", "0.5,0.5,0.5", "--slice", "p3=0.5",
            "--emit", "fields-csv,trace-csv,trace-svg,report-json", "-o", str(out / "run"),
        ]) == 0
        assert cli.main(["run", "--function", str(field.parent / "period2.txt"), "--m", "4",
                         "--delta", "0.25", "--t-max", "6", "-o", str(out / "period2")]) == 0
        assert cli.main(["certify", "--field", str(field), "--function", "min",
                         "--t-max", "12", "-o", str(out / "certify")]) == 0
        assert cli.main(["sweep-delta", "--function", "min", "--m", "2",
                         "--deltas", "0.25,0.125", "--track", "0.5,0.5",
                         "-o", str(out / "sweep")]) == 0
        assert cli.main(["oracle-check", "--function", "min", "--m", "3", "--delta", "0.25",
                         "--k", "3", "--search-step", "0.25", "--point", "0.5,0.5,0.5",
                         "-o", str(out / "oracle")]) == 0
        return {path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    def test_every_command_writes_the_same_bytes(self, tmp_path, request):
        (tmp_path / "period2.txt").write_text("arity m=4 alphabets=2,2,2,2 outputs=0,1\n" + "".join(
            f"{' '.join(map(str, x))} -> {z}\n" for x, z in PERIOD2.table.items()))
        field = tmp_path / "field_max.csv"
        cli.main(["run", "--function", "min", "--m", "3", "--delta", "0.1", "--t-max", "12",
                  "--emit", "fields-csv", "-o", str(tmp_path / "field")])
        (tmp_path / "field" / "field_max.csv").rename(field)
        here = self._every_command(tmp_path / "here", field)
        kernel_here = envelope.kernel_name()
        request.getfixturevalue("no_compiler")
        fallback = self._every_command(tmp_path / "fallback", field)
        assert envelope.kernel_name() == "numpy"
        assert here.keys() == fallback.keys()
        for name in here:
            if name.name in ("metadata.json", "certify_report.json"):
                a, b = json.loads(here[name]), json.loads(fallback[name])
                assert (a.pop("envelope_kernel"), b.pop("envelope_kernel")) == (
                    kernel_here, "numpy")
                a.pop("elapsed_seconds", None)
                b.pop("elapsed_seconds", None)
                assert a == b, name
            else:
                assert here[name] == fallback[name], name


class TestConfigErrors:
    def test_unknown_function(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "nand9", "--m", "3", "--delta", "0.5",
            "-o", str(tmp_path),
        ])
        assert code == 2
        assert "unknown function" in capsys.readouterr().err

    def test_non_reciprocal_delta(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.3",
            "-o", str(tmp_path),
        ])
        assert code == 2
        assert "reciprocal" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--function", "min", "--m", "2", "--delta", "5e-324"],
         "delta=5e-324 is not the reciprocal of an integer"),
        (["run", "--function", "min", "--m", "2", "--delta", "1e-310"],
         "delta=1e-310 is not the reciprocal of an integer"),
        (["sweep-delta", "--function", "min", "--m", "2", "--deltas", "0.5,1e-320",
          "--track", "0.5,0.5"],
         "delta=1e-320 is not the reciprocal of an integer"),
        (["oracle-check", "--function", "min", "--m", "3", "--delta", "0.25", "--k", "3",
          "--point", "0.5,0.5,0.5", "--search-step", "5e-324"],
         "search_step 5e-324 is not the reciprocal of an integer"),
    ], ids=["delta", "delta-1e-310", "deltas", "search-step"])
    def test_step_whose_reciprocal_overflows(self, tmp_path, capsys, argv, message):
        code = cli.main([*argv, "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_grid_too_large_for_one_array(self, tmp_path, capsys):
        code = cli.main(["run", "--function", "min", "--m", "12", "--delta", "0.02",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: m=12, n_steps=50: ") and "array limit" in line
        assert not (tmp_path / "out").exists()

    def test_bad_slice(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--slice", "q1=0", "-o", str(tmp_path),
        ])
        assert code == 2
        assert "slice" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["p2=1e-", "p3=.", "p4=0", "p1=2"])
    def test_malformed_slice_fails_before_any_artifact(self, tmp_path, capsys, spec):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--slice", spec, "-o", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: slice")
        assert not (tmp_path / "out").exists()

    def test_bad_emit_kind(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--emit", "fields-parquet", "-o", str(tmp_path),
        ])
        assert code == 2
        assert "emit" in capsys.readouterr().err

    def test_fields_json_emit_is_gone(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--emit", "fields-csv,fields-json", "-o", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "unknown emit kinds ['fields-json']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_tracked_point(self, tmp_path, capsys):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.5",
            "--track", "0.5,0.5", "-o", str(tmp_path),
        ])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "certify", "sweep-delta", "oracle-check"])
    def test_nonbinary_table_rejected(self, tmp_path, capsys, command):
        table = tmp_path / "ternary.txt"
        table.write_text("arity m=2 alphabets=2,3 outputs=0,1\n" + "".join(
            f"{a} {b} -> {int(b == 2)}\n" for a in (0, 1) for b in (0, 1, 2)))
        cli.main(["run", "--function", "min", "--m", "2", "--delta", "0.5",
                  "--t-max", "1", "-o", str(tmp_path / "field")])
        capsys.readouterr()
        args = {
            "run": ["--m", "2", "--delta", "0.5"],
            "certify": ["--field", str(tmp_path / "field" / "field_max.csv")],
            "sweep-delta": ["--m", "2", "--deltas", "0.5", "--track", "0.5,0.5"],
            "oracle-check": ["--m", "2", "--delta", "0.5", "--k", "1",
                             "--point", "0.5,0.5"],
        }[command]
        code = cli.main([command, "--function", str(table), *args,
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {table}:1: alphabets=2,3: only binary source alphabets "
            "are supported\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, value", [
        ("run", "--t-max", "-1"),
        ("run", "--eps", "0"),
        ("run", "--eps", "nan"),
        ("certify", "--tol", "-1"),
        ("oracle-check", "--n-random", "-1"),
    ])
    def test_bad_numeric_option_is_config_error(self, tmp_path, capsys, command,
                                                option, value):
        cli.main(["run", "--function", "min", "--m", "2", "--delta", "0.5",
                  "--t-max", "1", "-o", str(tmp_path / "field")])
        capsys.readouterr()
        args = {
            "run": ["--m", "2", "--delta", "0.5"],
            "certify": ["--field", str(tmp_path / "field" / "field_max.csv")],
            "oracle-check": ["--m", "2", "--delta", "0.5", "--k", "1",
                             "--point", "0.5,0.5"],
        }[command]
        code = cli.main([command, "--function", "min", *args, f"{option}={value}",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--tol", "-1", "tol must be >= 0, got -1.0"),
        ("--tol", "nan", "tol must be >= 0, got nan"),
        ("--eps", "0", "eps must be > 0, got 0.0"),
        ("--eps", "-1e-6", "eps must be > 0, got -1e-06"),
        ("--eps", "nan", "eps must be > 0, got nan"),
        ("--t-max", "-1", "t_max must be >= 0, got -1"),
    ])
    def test_certify_rejects_bad_option_before_reading(self, tmp_path, capsys,
                                                        monkeypatch, option, value,
                                                        message):
        def forbidden(*args, **kwargs):
            raise AssertionError("certify did work before checking its options")

        monkeypatch.setattr(cli, "read_field_csv", forbidden)
        monkeypatch.setattr(cli, "run", forbidden)
        code = cli.main(["certify", "--field", str(tmp_path / "field_max.csv"),
                         "--function", "min", f"{option}={value}",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# The field-CSV format, ratered.fieldcsv: the writer's bytes against the
# per-row writer, the reader's checks against the per-cell reader.


def test_read_field_csv_rejects_incomplete(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "i_1,i_2,p_1,p_2,rho_1,Rsum_1\n"
        "0,0,0,0,0,0\n0,1,0,1,0,0\n1,0,1,0,0,0\n"
    )
    with pytest.raises(fieldcsv.ConfigError):
        fieldcsv.read_field_csv(path)


def _corrupt_field_csv(tmp_path, line, col, cell):
    """A valid m=2, N=2 field CSV with one cell replaced (line is 1-based)."""
    f = run(GridSpec.from_delta(2, 0.5), builtin_table("min", 2), t_max=1, eps=1e-6)
    path = tmp_path / "field.csv"
    fieldcsv.write_field_csv(path, f.bank.max_field(), "max")
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[col] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("rho, rsum", [
    ("rho_max", "Rsum_7"), ("rho_1", "Rsum_max"), ("rho_", "Rsum_"), ("rho", "Rsum"),
    ("Rsum_max", "rho_max"),
])
def test_read_field_csv_requires_one_label(tmp_path, rho, rsum):
    path = _corrupt_field_csv(tmp_path, 1, 4, rho)
    lines = path.read_text().splitlines(keepends=True)
    header = ["i_1", "i_2", "p_1", "p_2", rho, rsum]
    path.write_text(",".join(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(fieldcsv.ConfigError, match=re.escape(
            f"{path}: unexpected field CSV columns {header}")):
        fieldcsv.read_field_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_read_field_csv_rejects_non_finite_rho(tmp_path, cell):
    path = _corrupt_field_csv(tmp_path, 4, 4, cell)
    with pytest.raises(fieldcsv.ConfigError, match=r":4: rho .* neither finite nor -inf"):
        fieldcsv.read_field_csv(path)


def test_read_field_csv_rejects_wrong_p_cell(tmp_path):
    path = _corrupt_field_csv(tmp_path, 6, 3, "0.6")   # row i = (1, 1): p_2 is 0.5
    with pytest.raises(fieldcsv.ConfigError, match=r":6: p_2 = '0.6' is not the grid value 0.5"):
        fieldcsv.read_field_csv(path)


def test_read_field_csv_rejects_wrong_rsum(tmp_path):
    path = _corrupt_field_csv(tmp_path, 2, 5, "0.25")  # i = (0, 0): Rsum is 0
    with pytest.raises(fieldcsv.ConfigError, match=r":2: Rsum '0.25' is not the joint entropy"):
        fieldcsv.read_field_csv(path)


# Formatting corners: -inf, negatives, subnormals, signed zeros, values that
# need all 17 digits, and the extremes of the exponent range.
SPECIAL_VALUES = [BOTTOM, -1.5, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  -0.0, 0.0, 0.1 + 0.2, 1 / 3, float(np.nextafter(1.0, 2.0)),
                  1.7976931348623157e308, -1e-300, 2.0**53 + 2, 123456789.12345678]


def _special_field(grid, seed=0):
    """A field of random values over 600 decades with SPECIAL_VALUES spread
    over it (first rows included)."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    data = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    data[rng.integers(0, n, n // 8)] = rng.choice(SPECIAL_VALUES, n // 8)
    data[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    return RateReductionField(grid, data.reshape(grid.shape))


def _write_together(directory, fields):
    """Every (label, field) of one grid written by one call of the writer
    that cmd_run uses, to directory / f"new_{label}.csv"."""
    grid = fields[0][1].grid
    fieldcsv._write_grid_csv([(directory / f"new_{label}.csv", label, field.data)
                         for label, field in fields],
                        list(range(1, grid.m + 1)), entropy_grid(grid), grid)


class TestFieldCsvWriter:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_run_fields_match_per_row_writer(self, tmp_path, m, per_row_field_csv):
        grid = GridSpec.from_delta(m, 0.25 if m == 4 else 0.1)
        bank = run(grid, builtin_table("min", m), t_max=2, eps=1e-300).bank
        for label, field in [(str(k), bank.field_for(k)) for k in range(1, m + 1)] \
                + [("max", bank.max_field())]:
            fieldcsv.write_field_csv(tmp_path / "new.csv", field, label)
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("f,delta", [
        (builtin_table("min", 2), 0.1),
        (builtin_table("min", 3), 0.1),
        (builtin_table("min", 4), 0.25),
        (PERIOD2, 0.1),                      # 14641 points: four blocks
    ], ids=["min-m2", "min-m3", "min-m4", "period2-m4"])
    def test_run_fields_written_together_match_per_row_writer(self, tmp_path, f, delta,
                                                               per_row_field_csv):
        bank = run(GridSpec.from_delta(f.m, delta), f, t_max=2, eps=1e-300).bank
        fields = [(str(k), bank.field_for(k)) for k in range(1, f.m + 1)] \
            + [("max", bank.max_field())]
        _write_together(tmp_path, fields)
        for label, field in fields:
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / f"new_{label}.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    def test_special_values_written_together_match_per_row_writer(self, tmp_path,
                                                                  per_row_field_csv):
        # 9261 points: two blocks and a partial third.  Items 1 and 3 share
        # their data, and -0.0 sits next to 0.0 in the first rows of each.
        grid = GridSpec(m=3, n_steps=20)
        a, b = _special_field(grid, seed=0), _special_field(grid, seed=1)
        fields = [("1", a), ("2", b), ("3", a),
                  ("max", RateReductionField(grid, np.maximum(a.data, b.data)))]
        _write_together(tmp_path, fields)
        for label, field in fields:
            per_row_field_csv(tmp_path / "ref.csv", field, label)
            assert (tmp_path / f"new_{label}.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("m,n_steps", [
        (2, 10),     # 121 points: less than one block
        (2, 63),     # 4096: exactly one block
        (3, 15),     # 4096
        (4, 7),      # 4096
        (3, 20),     # 9261: two blocks and a partial third
        (4, 10),     # 14641: three blocks and a partial fourth
    ])
    def test_special_values_match_per_row_writer(self, tmp_path, m, n_steps,
                                                 per_row_field_csv):
        assert fieldcsv._CSV_BLOCK == 4096
        field = _special_field(GridSpec(m=m, n_steps=n_steps))
        fieldcsv.write_field_csv(tmp_path / "new.csv", field, "max")
        per_row_field_csv(tmp_path / "ref.csv", field, "max")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        loaded = fieldcsv.read_field_csv(tmp_path / "new.csv")
        assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))

    @pytest.mark.parametrize("m,spec", [(3, "p3=0"), (3, "p1=0.47"), (2, "p2=0.5")])
    def test_slice_matches_per_row_loop(self, tmp_path, m, spec, per_row_slice_csv):
        assert cli.main(["run", "--function", "min", "--m", str(m), "--delta", "0.1",
                         "--t-max", "3", "--slice", spec, "-o", str(tmp_path)]) == 0
        md = read_json(tmp_path / "metadata.json")
        (name,) = [a for a in md["artifacts"] if a.startswith("slice_")]
        field = fieldcsv.read_field_csv(tmp_path / "field_max.csv")
        assert (tmp_path / name).read_text() == per_row_slice_csv(
            field, md["slice"]["axis"], md["slice"]["snapped_index"], "max")

    def test_memory_stays_bounded_by_a_block(self, tmp_path):
        # 51^3 points, about 12.7 MB of CSV: a writer that builds the whole
        # text at once peaks near 47 MB, the blocked one near 3 MB.
        field = _special_field(GridSpec.from_delta(3, 0.02))
        tracemalloc.start()
        try:
            fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_memory_of_a_run_write_stays_bounded_by_a_block(self, tmp_path):
        # The four field CSVs of a min run at m=3, delta=0.02, in one pass:
        # the blocked writer peaks near 3.7 MB.  Rsum held for whole fields
        # would add 4.2 MB, whole-file text about 50 MB.  Two sweeps leave
        # few distinct values, which keeps the traced write under a second.
        bank = run(GridSpec.from_delta(3, 0.02), builtin_table("min", 3),
                   t_max=2, eps=1e-300).bank
        fields = [(str(k), bank.field_for(k)) for k in range(1, 4)] \
            + [("max", bank.max_field())]
        tracemalloc.start()
        try:
            _write_together(tmp_path, fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def test_read_field_csv_names_lines_past_the_first_block(tmp_path):
    """Errors found in a later block, with blank lines before them, still
    name their line of the file."""
    field = _special_field(GridSpec(m=3, n_steps=20))
    path = tmp_path / "field.csv"
    fieldcsv.write_field_csv(path, field, "max")
    lines = path.read_text().splitlines()
    lines[1:1] = ["", ""]                    # data rows now start at line 4
    for line_no, edit, message in [
        (9000, lambda c: c[:-1], r":9000: expected 8 cells, got 7"),
        (5000, lambda c: c[:6] + ["nan"] + c[7:], r":5000: rho 'nan' is neither"),
        (7000, lambda c: c[:3] + ["0.123"] + c[4:], r":7000: p_1 = '0.123' is not the grid"),
        (8191, lambda c: c[:7] + ["1"], r":8191: Rsum '1' is not the joint entropy"),
        (6000, lambda c: c[:1] + ["x"] + c[2:], r":6000: i_2 'x' is not an integer"),
        (6500, lambda c: c[:6] + ["abc"] + c[7:], r":6500: rho_max 'abc' is not a number"),
        (7500, lambda c: c[:7] + ["1.5x"], r":7500: Rsum_max '1.5x' is not a number"),
    ]:
        text = list(lines)
        text[line_no - 1] = ",".join(edit(text[line_no - 1].split(",")))
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(fieldcsv.ConfigError, match=message):
            fieldcsv.read_field_csv(path)


@pytest.mark.parametrize("first, last", [(3969, 4094), (4095, 4409)])
def test_read_field_csv_rejects_p_cells_that_differ_across_blocks(tmp_path, first, last):
    """Data rows 3969-4409 have i_1 = 9.  The reader's first block is the
    file's first 4096 lines, header included, so they straddle its end.
    Rows first..last, all on one side of it, carry the same wrong p_1 cell,
    so each block agrees with itself; the first of them is named."""
    path = tmp_path / "field.csv"
    fieldcsv.write_field_csv(path, _special_field(GridSpec(m=3, n_steps=20)), "max")
    lines = path.read_text().splitlines()
    for line_no in range(first + 2, last + 3):
        cells = lines[line_no - 1].split(",")
        assert cells[0] == "9"
        cells[3] = "0.45"
        lines[line_no - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fieldcsv.ConfigError, match=rf":{first + 2}: p_1 = '0.45' is not the "
                                              r"grid value 0\.45000000000000001 of i_1 = 9"):
        fieldcsv.read_field_csv(path)


class TestTextInputsAreUtf8:
    """Field CSVs and truth tables are read as UTF-8 whatever the locale; a
    byte that does not decode is a ConfigError naming its file and line, so
    the command exits 2 with one error line.  SVGs are written as UTF-8."""

    TABLE = "arity m=2 alphabets=2,2 outputs=0,1\n# caf{}\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"

    def test_certify_on_a_header_that_is_not_utf8(self, tmp_path, capsys,
                                                   per_cell_read_field_csv):
        path = tmp_path / "field_max.csv"
        path.write_bytes(b"i_1,i_2,i_3,p_1,p_2,p_3,rho_\xff,Rsum_\xff\n")
        message = f"{path}:1: not UTF-8 text: invalid start byte (byte 0xff)"
        code = cli.main(["certify", "--field", str(path), "--function", "min",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _read_both(path, per_cell_read_field_csv) == [(None, message)] * 2

    def test_a_bad_byte_past_the_first_block_names_its_line(self, tmp_path,
                                                             per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, 3, 20)
        lines[6999] += "\xe9"                    # Latin-1 "é" on line 7000
        path = tmp_path / "field.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        message = f"{path}:7000: not UTF-8 text: invalid continuation byte (byte 0xe9)"
        assert _read_both(path, per_cell_read_field_csv) == [(None, message)] * 2

    def test_run_with_a_table_comment_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_bytes(self.TABLE.format("\xff").encode("latin-1"))
        code = cli.main(["run", "--function", str(path), "--m", "2", "--delta", "0.25",
                         "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {path}:2: not UTF-8 text: invalid start byte (byte 0xff)\n"
        assert not (tmp_path / "out").exists()

    def test_utf8_text_reads_in_the_c_locale(self, tmp_path):
        """A field CSV labelled "é" reads back, and a table with "é" in a
        comment loads, in a process whose locale encoding is ASCII."""
        code = (
            "import locale, sys, numpy as np, ratered\n"
            "from ratered.lattice import RateReductionField\n"
            "from ratered.probability import GridSpec\n"
            "from ratered.target_functions import load_table\n"
            "grid = GridSpec.from_delta(2, 0.25)\n"
            "field = RateReductionField(grid, np.linspace(0.0, 1.0, grid.n_points)"
            ".reshape(grid.shape))\n"
            "ratered.write_field_csv(sys.argv[1], field, '\\u00e9')\n"
            "back = ratered.read_field_csv(sys.argv[1])\n"
            "assert np.array_equal(back.data.view(np.uint64), field.data.view(np.uint64))\n"
            "print(locale.getpreferredencoding(False), load_table(sys.argv[2]).table[1, 1])\n"
        )
        table = tmp_path / "t.txt"
        table.write_bytes(self.TABLE.format("é").encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "f.csv"), str(table)],
                             capture_output=True, text=True, timeout=60, env=env)
        assert out.returncode == 0, out.stderr
        encoding, z = out.stdout.split()
        assert encoding.lower() not in ("utf-8", "utf8") and z == "1"
        assert (tmp_path / "f.csv").read_bytes().startswith(b"i_1,i_2,p_1,p_2,rho_\xc3\xa9,")

    def test_svg_title_is_utf8_in_the_c_locale(self, tmp_path):
        """A table named "tablé.txt" runs to a trace.svg whose title reads
        back as that name, in a process whose locale encoding is ASCII."""
        table = tmp_path / "tablé.txt"
        table.write_bytes(self.TABLE.format("").encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-m", "ratered.cli", "run", "--function", str(table),
                              "--m", "2", "--delta", "0.25", "--track", "0.5,0.5",
                              "--emit", "trace-svg", "-o", str(tmp_path / "out")],
                             capture_output=True, text=True, timeout=60, env=env)
        assert out.returncode == 0, out.stderr
        title = next(e.text for e in ElementTree.parse(tmp_path / "out" / "trace.svg").iter()
                     if e.tag.endswith("text"))
        assert title == f"rate reduction vs sweeps ({table}, delta=0.25)"


def _field_csv_lines(tmp_path, m, n_steps, seed=0) -> list[str]:
    """The lines of a field CSV of _special_field on an m-axis grid."""
    path = tmp_path / "src.csv"
    fieldcsv.write_field_csv(path, _special_field(GridSpec(m=m, n_steps=n_steps), seed), "max")
    return path.read_text().splitlines()


def _read_both(path, reference):
    """(result, ConfigError message or None) of read_field_csv and of the
    per-cell reference."""
    outcomes = []
    for read in (fieldcsv.read_field_csv, reference):
        try:
            outcomes.append((read(path), None))
        except fieldcsv.ConfigError as exc:
            outcomes.append((None, str(exc)))
    return outcomes


# Blank lines at 1-based line numbers of the original file: after the
# header, around the first block boundary (lines 4096/4097), mid-file, at
# the end, and a run of them longer than a block.
BLANKS = {"none": [], "scattered": [2, 4096, 4097, 4098, 5000, -1],
          "whole-block": [3] * (fieldcsv._CSV_BLOCK + 10)}


class TestFieldCsvReaderMatchesPerCellReader:
    @pytest.mark.parametrize("blanks", BLANKS)
    @pytest.mark.parametrize("m,n_steps", [(2, 10), (2, 63), (3, 20), (4, 10)])
    def test_valid_files_read_the_same_bits(self, tmp_path, m, n_steps, blanks,
                                            per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, m, n_steps)
        for at in BLANKS[blanks]:
            lines.insert(len(lines) if at == -1 else min(at - 1, len(lines)), "")
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        (new, _), (ref, _) = _read_both(path, per_cell_read_field_csv)
        assert new.grid == ref.grid
        assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))

    @pytest.mark.parametrize("line_no, edit", [
        (9000, lambda c: c[:-1]),                          # a cell short
        (5000, lambda c: c[:6] + ["nan"] + c[7:]),
        (7000, lambda c: c[:3] + ["0.123"] + c[4:]),
        (8191, lambda c: c[:7] + ["1"]),
        (6000, lambda c: c[:1] + ["x"] + c[2:]),
        (6500, lambda c: c[:6] + ["abc"] + c[7:]),
        (7500, lambda c: c[:7] + ["1.5x"]),
        (4097, lambda c: c + [""]),                        # trailing comma
        (4098, lambda c: c[:2] + [""] + c[3:]),            # empty i_3
        (20, lambda c: c[:6] + [""] + c[7:]),              # empty rho
        (21, lambda c: c[:7] + [""]),                      # empty Rsum
        (8000, lambda c: c[:1] + [f'"{c[1]}"'] + c[2:]),   # quoted i_2
        (30, lambda c: c[:4] + [f'"{c[4]}"'] + c[5:]),     # quoted p_2
        (31, lambda c: c[:6] + [f'"{c[6]}"'] + c[7:]),     # quoted rho
        (4200, lambda c: ["  \t "]),                       # whitespace-only line
        (9262, lambda c: c[:5] + [c[5] + "\x00"] + c[6:]),  # p_3 ending in NUL
        (40, lambda c: c[:3] + [c[3] + "€"] + c[4:]),      # p_1 outside Latin-1
        (41, lambda c: c[:3] + ["€"] + c[4:]),
        (42, lambda c: c[:2] + [c[2] + "\x00"] + c[3:]),   # i_3 ending in NUL
        (43, lambda c: c[:1] + [c[1] + "\x1f"] + c[2:]),   # numpy's whitespace, not int()'s
        (44, lambda c: c[:7] + ["\x1f" + c[7]]),
    ])
    def test_corrupt_files_raise_the_same_error(self, tmp_path, line_no, edit,
                                                per_cell_read_field_csv):
        lines = _field_csv_lines(tmp_path, 3, 20)
        lines[1:1] = ["", ""]                    # data rows now start at line 4
        lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        (_, new), (_, ref) = _read_both(path, per_cell_read_field_csv)
        assert ref is not None and ref.startswith(f"{path}:{line_no}: ")
        assert new == ref


def test_read_field_csv_with_an_index_too_large_for_one_array(tmp_path,
                                                              per_cell_read_field_csv):
    """The grid is inferred from the largest i_j, so an absurd one stops both
    readers at GridSpec's size guard, named with the file, before any row
    count or allocation."""
    lines = _field_csv_lines(tmp_path, 2, 10)
    cells = lines[5].split(",")
    cells[0] = str(10**10)
    lines[5] = ",".join(cells)
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    (_, new), (_, ref) = _read_both(path, per_cell_read_field_csv)
    assert new == ref
    assert new.startswith(f"{path}: m=2, n_steps=10000000000: "
                          "100,000,000,020,000,000,001 grid points")


@pytest.mark.parametrize("col, cell, message", [
    (0, "1_0", "i_1 '1_0' is not an integer"),
    (3, "1_0", "i_4 '1_0' is not an integer"),
    (8, "1_5", "rho_max '1_5' is not a number"),
    (9, "1_5", "Rsum_max '1_5' is not a number"),
    (1, "1.0", "i_2 '1.0' is not an integer"),
])
def test_read_field_csv_rejects_what_int_and_float_accept(tmp_path, col, cell, message):
    """Underscores in numbers and an i_j spelled as a float: numpy's parser
    rejects them, so the reader does, at the cell's line."""
    lines = _field_csv_lines(tmp_path, 4, 10)
    cells = lines[5000].split(",")
    cells[col] = cell
    lines[5000] = ",".join(cells)
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fieldcsv.ConfigError, match=re.escape(f"{path}:5001: {message}")):
        fieldcsv.read_field_csv(path)


@pytest.mark.parametrize("tail", ["1", "0" * 6, "0" * 7, "x" * 40])
def test_read_field_csv_rejects_a_p_cell_longer_than_any_grid_value(tmp_path, tail):
    """A p_j cell is read at a fixed width, _P_WIDTH characters; loadtxt cuts
    a longer one.  A cell that starts with the right grid value is named
    whether it fits (tails of 1 and 6) or is cut (7 and 40): the width is one
    more than the longest "%.17g" spelling of a float."""
    assert fieldcsv._P_WIDTH == len("%.17g" % -2.2250738585072014e-308) + 1
    lines = _field_csv_lines(tmp_path, 3, 20)
    cells = lines[4000].split(",")
    assert cells[3] == "0.45000000000000001"          # i_1 = 9
    cells[3] += tail
    lines[4000] = ",".join(cells)
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fieldcsv.ConfigError, match=re.escape(
            f"{path}:4001: p_1 = {cells[3]!r} is not the grid value "
            "0.45000000000000001 of i_1 = 9")):
        fieldcsv.read_field_csv(path)


@pytest.mark.parametrize("blank_lines", [0, 1, 3, fieldcsv._CSV_BLOCK + 5])
def test_read_field_csv_without_data_lines(tmp_path, blank_lines):
    path = tmp_path / "field.csv"
    path.write_text("i_1,i_2,p_1,p_2,rho_max,Rsum_max\n" + "\n" * blank_lines)
    with pytest.raises(fieldcsv.ConfigError,
                       match=re.escape(f"{path}: field CSV has no data rows")):
        fieldcsv.read_field_csv(path)


def test_read_field_csv_names_a_line_that_loadtxt_skips(tmp_path, monkeypatch):
    """Were loadtxt to skip a whitespace-only line as blank, the reader would
    still name it: every line that is not empty must become a row."""
    lines = _field_csv_lines(tmp_path, 2, 10)
    lines[50] = " \t "
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    loadtxt = np.loadtxt

    def skips_whitespace(text, *args, **kwargs):
        return loadtxt([line for line in text if line.strip()], *args, **kwargs)

    monkeypatch.setattr(fieldcsv.np, "loadtxt", skips_whitespace)
    with pytest.raises(fieldcsv.ConfigError,
                       match=re.escape(f"{path}:51: expected 6 cells, got 1")):
        fieldcsv.read_field_csv(path)


def test_read_field_csv_memory_stays_bounded_by_a_block(tmp_path):
    # 51^3 points: per block the reader keeps only the i_j, rho and Rsum
    # columns, so it peaks near 17 MB, mostly the result and its checks.
    # Whole-file loadtxt records, p_j text included, would pass 30 MB.
    field = run(GridSpec.from_delta(3, 0.02), builtin_table("min", 3),
                t_max=2, eps=1e-300).bank.max_field()
    fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
    tracemalloc.start()
    try:
        loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.data.view(np.uint64), field.data.view(np.uint64))
    assert peak < 20e6


def test_read_field_csv_passes_on_a_rejection_it_cannot_place(tmp_path, monkeypatch):
    """Were loadtxt to reject a block for a reason that no single line or
    cell shows, the error names the block's lines and keeps numpy's text."""
    lines = _field_csv_lines(tmp_path, 2, 10)
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines[:1] + ["", ""] + lines[1:]) + "\n")
    loadtxt = np.loadtxt

    def rejects_blocks(text, *args, **kwargs):
        if len(text) > 1:
            raise ValueError("a whole-block complaint")
        return loadtxt(text, *args, **kwargs)

    monkeypatch.setattr(fieldcsv.np, "loadtxt", rejects_blocks)
    with pytest.raises(fieldcsv.ConfigError, match=re.escape(
            f"{path}:2-124: a whole-block complaint")):
        fieldcsv.read_field_csv(path)


def _python_reads_more(cell: str) -> bool:
    """Whether int() or float() may accept cell where numpy's parser does
    not: it has an underscore, or it is an integer outside int64."""
    try:
        return "_" in cell or abs(int(cell)) >= 2**63
    except ValueError:
        return False


def test_read_field_csv_matches_per_cell_reader_on_any_one_edit(tmp_path,
                                                                per_cell_read_field_csv):
    """One cell or line replaced by arbitrary text: the reader returns the
    same bits or raises the same ConfigError as the per-cell reference,
    unless int() or float() reads the text more leniently; then the reader
    rejects it.  No error falls back to naming a whole block."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    lines = _field_csv_lines(tmp_path, 2, 10)
    path = tmp_path / "field.csv"
    junk = st.text(alphabet=' \t,"\x00\x1f_.+-eE0159ainfx\xe9\u20ac\u2003', max_size=8) | \
        st.sampled_from(["", " ", "1.0", "1_0", "nan", "inf", "-inf", "0x1", "1e5",
                         " 1 ", "+1", "-0", "9" * 30, "0.5", "0.5\x00", "1\x1f"])

    @hypothesis.settings(max_examples=300, deadline=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.integers(1, len(lines) - 1), st.integers(-1, 5), junk)
    def check(row, col, cell):
        text = list(lines)
        cells = text[row].split(",")
        if col < 0:
            cells = [cell]
        else:
            cells[col] = cell
        text[row] = ",".join(cells)
        path.write_text("\n".join(text) + "\n")
        (new, new_error), (ref, ref_error) = _read_both(path, per_cell_read_field_csv)
        if _python_reads_more(cell):
            assert new_error is not None
        else:
            assert new_error == ref_error
            if new_error is None:
                assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))
        assert not re.search(r":\d+-\d+: ", new_error or "")

    check()


class TestDispatch:
    """main reaches each command, and the field-CSV pair, through cli's
    module globals, the names that perfbench/tracer.py wraps."""

    def test_tracer_finds_every_name_it_wraps(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        trace = tracer.Tracer()
        trace.install()
        try:
            assert trace.absent == []
        finally:
            trace.uninstall()
        assert cli.read_field_csv is fieldcsv.read_field_csv

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 2.18 TiB for an array"),
         "error: Unable to allocate 2.18 TiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_error_line(self, tmp_path, monkeypatch, capsys, exc, line):
        def stub_command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_run", stub_command)
        assert cli.main(["run", "--function", "min", "--m", "3", "--delta", "0.5",
                         "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == line

    def test_main_calls_the_module_globals(self, tmp_path, monkeypatch):
        calls = []

        def stub_command(args):
            calls.append(args.command)
            return 7

        def stub_reader(path):
            calls.append(str(path))
            raise fieldcsv.ConfigError("stub reader")

        monkeypatch.setattr(cli, "cmd_oracle_check", stub_command)
        monkeypatch.setattr(cli, "read_field_csv", stub_reader)
        assert cli.main(["oracle-check", "--function", "min", "--m", "2", "--delta", "0.5",
                         "--k", "1", "-o", str(tmp_path)]) == 7
        field = str(tmp_path / "field_max.csv")
        assert cli.main(["certify", "--field", field, "--function", "min",
                         "-o", str(tmp_path)]) == 2
        assert calls == ["oracle-check", field]


def test_jsonable_spells_non_finite():
    out = cli._jsonable({"a": math.inf, "b": -math.inf, "c": [float("nan"), 1.5]})
    assert out == {"a": "inf", "b": "-inf", "c": ["nan", 1.5]}
