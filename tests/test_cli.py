import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from ratered import certify, cli, envelope, fieldcsv
from ratered.envelope import BOTTOM
from ratered.lattice import FieldBank, RateReductionField, run
from ratered.probability import GridSpec, binary_entropy
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


class TestTextInputsAreUtf8:
    """Field CSVs and truth tables are read as UTF-8 whatever the locale; a
    byte that does not decode is a ConfigError naming its file and line, so
    the command exits 2 with one error line.  SVGs are written as UTF-8.
    The field-CSV cases of a byte that does not decode are reader tests, in
    tests/test_fieldcsv.py."""

    TABLE = "arity m=2 alphabets=2,2 outputs=0,1\n# caf{}\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"

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

    def test_a_name_argv_could_not_decode_keeps_its_bytes_in_json(self, tmp_path):
        """metadata.json stores a --function path that a process with an
        ASCII file-system encoding got from os.fsdecode, as lone surrogate
        escapes, as the file name's own UTF-8 bytes."""
        (tmp_path / "tablé.txt").write_bytes(self.TABLE.format("").encode("utf-8"))
        name = b"tabl\xc3\xa9.txt".decode("ascii", "surrogateescape")
        assert name == "tabl\udcc3\udca9.txt"      # os.fsdecode's result in such a process
        code = cli.main(["run", "--function", str(tmp_path / name), "--m", "2",
                         "--delta", "0.25", "-o", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "metadata.json", encoding="utf-8") as handle:
            function = json.load(handle)["function"]
        assert function == str(tmp_path / "tablé.txt")
        function.encode("utf-8")


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
