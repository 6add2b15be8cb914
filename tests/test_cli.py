"""Command-line contract: exit codes, record schema, config, determinism."""

import csv
import importlib.util
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from designgap import cgraph, cli, experiments, groups, pauli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestExitCodes:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert "0.1.0" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_named(self, capsys):
        code, _, err = run_cli(
            capsys, ["bounds", "--formula", "matchgate-depth", "--n", "4", "--frobnicate"]
        )
        assert code == 1
        assert "--frobnicate" in err

    def test_budget_overrun_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["graph", "--group", "matchgate", "--n", "14", "--census"])
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("n", [10, 16])
    def test_matchgate_depth_runs_past_the_two_copy_state_cap(self, capsys, n):
        # Majorana rotations build no 2^(2n) state, so only dense kinds stop at 2n <= 16
        argv = ["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", str(n), "--samples", "640"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rec = records(out)[0]
        assert rec["params"]["lightcone_confined"]
        assert abs(rec["p_shallow"] - 1.0) <= 1e-9
        # the default region 0..n-2 keeps C(2n - 2, n - 1) of the C(2n, n - 1) monomials
        p = math.comb(2 * n - 2, n - 1) / math.comb(2 * n, n - 1)
        assert abs(rec["p_haar"] - p) <= 5 * rec["p_haar_stderr"]

    def test_dense_depth_runs_keep_the_two_copy_state_cap(self, capsys):
        argv = ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "9", "--samples", "4"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "two-copy states need 2n <= 16" in err

    def test_costly_fs_indicator_is_refused_before_sampling(self, capsys):
        # one dense matchgate draw at n=10 multiplies 190 lifts of 1024 x 1024
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["fs-indicator", "--group", "matchgate", "--n", "10", "--samples", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err and "2.04e+11" in err

    NON_PREFIX_REGION = [
        "discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "8",
        "--region", "1,2,3", "--vertex", "IIXIIIII",
    ]

    def test_non_prefix_matchgate_region_runs_on_rotations(self, capsys):
        code, out, _ = run_cli(capsys, [*self.NON_PREFIX_REGION, "--samples", "200"])
        assert code == 0
        (rec,) = records(out)
        r, _ = cgraph.r_fraction(pauli.from_text("IIXIIIII"), groups.matchgate_full_set(8), (1, 2, 3))
        assert abs(rec["p_haar"] - float(r)) <= 5 * rec["p_haar_stderr"]

    def test_costly_non_prefix_matchgate_region_is_refused_before_sampling(self, capsys):
        # per sample (2n)^3 = 4096 for the Haar QR and each side's evaluation, 32 n = 256 for the
        # (4 x 4) @ (4 x 16) product of each of the 11 gates at depth 3, 2 x 125 for the 5 x 5 minor
        # det of each of the 20 monomials inside the region,
        # 500 for each of the 132 gate factors, and the fixed cost of 2e4; per 64-sample block 4e4 for
        # each of the window's 12 factor positions and each of the 3 runs of disjoint gates
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [*self.NON_PREFIX_REGION, "--samples", "1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err and "costs about 1.15e+14 multiply-adds" in err and "minor dets 5.00e+12," in err

    def test_non_prefix_region_past_the_search_cap_is_refused_up_front(self, capsys, monkeypatch):
        # at n = 12 the perturbation is an 11-Majorana monomial of a 2.5e6-vertex component
        def refuse(*args):
            raise AssertionError("the component search ran")

        monkeypatch.setattr(cgraph, "region_keys", refuse)
        argv = ["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "12",
                "--region", "1,2,3,4,5,6,7,8,9,10", "--samples", "1000000000"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "not a prefix 0..m-1 searches the C(2n, k)-vertex component of its perturbation, so n <= 8" in err

    GATE_COUNT_N13 = ["discriminate", "--experiment", "gate-count", "--n", "13", "--samples", "5"]

    def test_full_set_gate_count_runs_beyond_the_search_cap(self, capsys):
        # the full set's ball and component are Johnson counts, so no search caps n
        code, out, _ = run_cli(capsys, self.GATE_COUNT_N13)
        assert code == 0
        (record,) = records(out)
        assert record["p_shallow"] == 1

    def test_custom_gate_count_set_beyond_the_search_cap_is_refused(self, capsys, monkeypatch):
        # the standard set covers 2n - 1 of the n(2n - 1) Majorana pairs, so it needs the search
        real = experiments.gatecount_config

        def standard(n, *args, **kwargs):
            return real(n, *args, allowed=groups.matchgate_standard_set(n), **kwargs)

        monkeypatch.setattr(experiments, "gatecount_config", standard)
        code, out, err = run_cli(capsys, self.GATE_COUNT_N13)
        assert code == 2
        assert out == ""
        assert "C(2n, k)-vertex component" in err and "n <= 12" in err

    def test_costly_full_set_gate_count_is_refused_before_sampling(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["discriminate", "--experiment", "gate-count", "--n", "31", "--samples", "1000000000"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err and "Majorana rotations for n=31" in err

    @pytest.mark.parametrize(
        "argv,cost",
        [
            (["--experiment", "depth", "--group", "orthogonal", "--n", "8", "--samples", "1000000000"], "1.88e+16"),
            (["--experiment", "depth", "--group", "symplectic", "--n", "7", "--depth", "10000000000"], "1.69e+20"),
            (["--experiment", "mixed-unitary", "--n", "8", "--samples", "3000"], "1.11e+11"),
        ],
    )
    def test_costly_dense_brickwork_experiment_is_refused_before_sampling(self, capsys, argv, cost):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["discriminate", *argv])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err and f"costs about {cost} multiply-adds" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,cost",
        [
            # per sample (2n)^3 = 512 for the Haar QR and each side's det, 32 n = 128 for each of the 2
            # gates at depth 1, 500 for each of the 24 gate factors, plus the fixed cost of 2e4 of every
            # sample; per 64-sample block 4e4 for each of the window's 12 factor positions and its one run
            # of disjoint gates
            (["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "4", "--samples", "1000000000"],
             "4.19e+13"),
            # the QR, the default single gate, and each side's eigvalsh; one factor position per block
            (["discriminate", "--experiment", "gate-count", "--n", "4", "--samples", "1000000000"], "2.27e+13"),
            # refused before the C(24, 12)-vertex component search
            (["discriminate", "--experiment", "gate-count", "--n", "12", "--samples", "1000000000"], "7.59e+13"),
            # one sample of 10^9 gates: 4e4 per factor position of its one block, before any factor is drawn
            (["discriminate", "--experiment", "gate-count", "--n", "2", "--gates", "1000000000", "--samples", "1"],
             "4.01e+13"),
            # 10^9 layers of one gate, 500 for each of its 12 factors, and per window of 64 gates 12 factor
            # positions, with one run of disjoint gates per layer, before the gate sites are listed
            (["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "2", "--depth", "1000000000",
              "--samples", "1"], "5.42e+13"),
            # d^3 for the draw, 2 d^3 for the conjugation and d^4 for each of the two Gram products; per chunk
            # d^4 for each of the two running sums
            (["moments", "--quantity", "weingarten-check", "--group", "orthogonal", "--n", "3",
              "--samples", "1000000000"], "2.99e+13"),
            # at n = 1 the fixed cost is nearly all of it
            (["moments", "--quantity", "weingarten-check", "--group", "orthogonal", "--n", "1",
              "--samples", "1000000000"], "2.01e+13"),
            # the draw, the conjugation, the partial trace d^2 and the square of the 2 x 2 reduction
            (["moments", "--quantity", "second-moment-trace", "--group", "orthogonal", "--n", "2",
              "--samples", "100000000"], "2.02e+12"),
            # per vertex of the 35-vertex component one trace of d, a Python call of two thirds of the fixed cost
            (["moments", "--quantity", "spread-uniformity", "--group", "orthogonal", "--n", "3",
              "--samples", "1000000000"], "4.88e+14"),
        ],
    )
    def test_costly_rotation_and_twirl_runs_are_refused_before_sampling(self, capsys, argv, cost):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err and f"costs about {cost} multiply-adds" in err
        assert "Traceback" not in err

    def test_dense_brickwork_experiment_under_the_budget_runs(self, capsys):
        # n = 8 with 30 samples costs 5.6e8 multiply-adds, under the 1e11 cap
        code, out, _ = run_cli(
            capsys, ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "8", "--samples", "30"]
        )
        assert code == 0
        assert records(out)[0]["p_shallow"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            # (d^2, d^2) operators at n = 8 would take 64 GiB each
            ["moments", "--quantity", "weingarten-check", "--group", "orthogonal", "--n", "8", "--samples", "1"],
            ["moments", "--quantity", "weingarten-check", "--group", "symplectic", "--n", "6", "--samples", "50"],
            # one 100000 x 100000 Haar unitary would take 149 GiB
            ["moments", "--quantity", "mixed-commutant", "--source", "haar_unitary", "--d", "100000",
             "--samples", "1"],
            ["fs-indicator", "--group", "mixed_unitary", "--n", "400", "--samples", "1"],
            ["fs-indicator", "--group", "orthogonal", "--n", "40", "--samples", "1", "--parity-sector", "even"],
        ],
    )
    def test_dense_moments_are_budgeted_before_sampling(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("designgap: budget exceeded: ")
        assert "Traceback" not in err

    def test_long_sweep_is_refused_before_the_first_record(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--sweep", "2:100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("designgap: budget exceeded: --sweep")
        # the cap itself still runs
        top = 2 * cli.SWEEP_RECORD_CAP
        code, out, _ = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--sweep", f"2:{top}"])
        assert code == 0
        assert len(records(out)) == cli.SWEEP_RECORD_CAP

    def test_graph_keys_wider_than_int64_are_refused(self, capsys):
        code, out, err = run_cli(capsys, ["graph", "--group", "matchgate", "--n", "40", "--balls"])
        assert code == 2
        assert out == ""
        assert "budget" in err and "n <= 31" in err

    def test_validation_failure_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--n", "5"])
        assert code == 1
        assert "even n" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["bounds", "--formula", "pauli-compatible", "--r", "abc"], "--r"),
            (["bounds", "--formula", "pauli-compatible", "--r", "1/0"], "--r"),
            (["bounds", "--formula", "matchgate-depth", "--sweep", "2:x"], "--sweep"),
            (["bounds", "--formula", "matchgate-depth", "--sweep", "2:8:0"], "--sweep"),
            (["bounds", "--formula", "matchgate-depth", "--n", "4", "--threads", "0"], "--threads"),
            (["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3",
              "--samples", "10", "--threads", "-3"], "--threads"),
            (["bounds", "--formula", "matchgate-depth", "--sweep", "8:2"], "--sweep"),
            (["graph", "--group", "matchgate", "--n", "3", "--r-region", "0,a"], "--r-region"),
            (["moments", "--quantity", "second-moment-trace", "--n", "3", "--samples", "5",
              "--region", ""], "--region"),
            (["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3",
              "--samples", "5", "--region", ","], "--region"),
            (["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "4",
              "--samples", "5", "--adjacency", "ring"], "--adjacency"),
            # (0, 2) and (1, 3) are not Jordan-Wigner neighbors; depth 1 uses only (0, 1), (2, 3)
            (["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "4",
              "--adjacency", "grid 2x2", "--depth", "1"], "--adjacency"),
            (["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "4",
              "--adjacency", "grid 2x2", "--depth", "2"], "--adjacency"),
        ],
    )
    def test_malformed_values_name_their_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert flag in err
        assert "Traceback" not in err

    def test_region_ratio_support_error_names_its_flags(self, capsys):
        argv = ["graph", "--group", "matchgate", "--n", "4", "--r-region", "0,1", "--vertex", "XXXX"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--vertex XXXX" in err and "--r-region '0,1'" in err and "inside the region" in err

    @pytest.mark.parametrize("subcommand", ["graph --census", "moments --quantity spread-uniformity --samples 5"])
    @pytest.mark.parametrize("group", ["orthogonal", "symplectic", "unitary"])
    def test_full_generator_set_is_refused_off_matchgates(self, capsys, subcommand, group):
        name, *flags = subcommand.split()
        argv = [name, "--group", group, "--n", "2", "--generator-set", "full", *flags]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--generator-set full applies to the matchgate group only" in err

    @pytest.mark.parametrize(
        "group,default", [("matchgate", "full"), ("orthogonal", "standard"), ("unitary", "standard")]
    )
    def test_spread_generator_set_default_depends_on_the_group(self, capsys, group, default):
        argv = ["moments", "--quantity", "spread-uniformity", "--group", group, "--n", "2", "--samples", "70"]
        code, implicit, _ = run_cli(capsys, argv)
        assert code == 0
        code, explicit, _ = run_cli(capsys, [*argv, "--generator-set", default])
        assert code == 0
        assert implicit == explicit

    @pytest.mark.parametrize(
        "sampler,drifted,argv",
        [
            ("haar_symplectic", lambda n, streams: np.stack([1j * np.eye(1 << n)] * len(streams)),
             ["--group", "symplectic", "--n", "2"]),
            # the matchgate Haar side draws its rotations a block of streams at a time
            ("haar_special_orthogonal", lambda d, streams: np.stack([1.01 * np.eye(d)] * len(streams)),
             ["--group", "matchgate", "--n", "4"]),
        ],
    )
    def test_broken_invariant_is_exit_three(self, capsys, monkeypatch, sampler, drifted, argv):
        # a sampler that leaves its group must stop the run with a diagnosis
        monkeypatch.setattr(groups, sampler, drifted)
        code, out, err = run_cli(
            capsys, ["discriminate", "--experiment", "depth", *argv, "--samples", "4"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("designgap: invariant violated: ")
        assert len(err.strip().splitlines()) == 1


class TestRecordSchema:
    def test_bound_record(self, capsys):
        code, out, err = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--n", "4"])
        assert code == 0
        recs = records(out)
        assert all(r.get("schema") == "v1" for r in recs)
        (rec,) = [r for r in recs if r.get("type") == "bound"]
        assert rec["exact"] == "9/7"
        assert rec["value"] == pytest.approx(9 / 7)
        assert rec["reference"] == "depth-bound/matchgate"

    def test_floats_render_seventeen_digits(self, capsys):
        _, out, _ = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--n", "4"])
        assert "1.2857142857142858" in out

    def test_manifest_goes_to_stderr_only(self, capsys):
        _, out, err = run_cli(capsys, ["bounds", "--formula", "matchgate-depth", "--n", "4"])
        assert "manifest" not in out
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["manifest"] is True
        assert manifest["subcommand"] == "bounds"
        assert manifest["wall_time_s"] >= 0

    def test_discriminate_record_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["discriminate", "--experiment", "depth", "--group", "matchgate",
             "--n", "2", "--samples", "20", "--seed", "5"],
        )
        assert code == 0
        (rec,) = records(out)
        for field in ("experiment", "group", "n", "params", "p_shallow", "p_shallow_stderr",
                      "p_haar", "p_haar_stderr", "mc_bound", "analytic_bound",
                      "analytic_ref", "seed"):
            assert field in rec
        assert rec["params"]["perturbation"] == "XI"
        assert rec["params"]["lightcone_confined"] is True
        assert rec["p_shallow"] == pytest.approx(1.0)

    def test_census_records(self, capsys):
        code, out, _ = run_cli(capsys, ["graph", "--group", "matchgate", "--n", "2", "--census"])
        assert code == 0
        recs = [r for r in records(out) if r.get("type") == "component"]
        sizes = [r["size"] for r in recs]
        assert sizes == [1, 4, 6, 4, 1]
        assert [r["majorana_count"] for r in recs] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("n,which", [(4, "standard"), (3, "full")])
    def test_census_builds_no_sorted_keys(self, capsys, monkeypatch, n, which):
        # the records are ordered by Majorana count and root, as by smallest key
        S = groups.matchgate_standard_set(n) if which == "standard" else groups.matchgate_full_set(n)
        comps = sorted(cgraph.census(S), key=lambda c: (pauli.majorana_count(c.representative), int(c.keys[0])))
        want = [(pauli.majorana_count(c.representative), c.size, pauli.to_text(c.representative)) for c in comps]

        def refuse(self):
            raise AssertionError("the census built a component's sorted keys")

        monkeypatch.setattr(cgraph.Component, "keys", property(refuse))
        argv = ["graph", "--group", "matchgate", "--n", str(n), "--generator-set", which, "--census"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert [(r["majorana_count"], r["size"], r["representative"]) for r in records(out)] == want

    def test_graph_needs_a_task(self, capsys):
        code, _, err = run_cli(capsys, ["graph", "--group", "matchgate", "--n", "2"])
        assert code == 1
        assert "nothing to do" in err

    def test_weingarten_check_record(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--quantity", "weingarten-check", "--group", "orthogonal",
             "--n", "2", "--samples", "400", "--seed", "9"],
        )
        assert code == 0
        (rec,) = records(out)
        assert (rec["alpha"], rec["beta"], rec["gamma"]) == ("-1/9", "2/9", "2/9")
        assert rec["entrywise_pass"] is True

    def test_mixed_unitary_alias(self, capsys):
        code, out, _ = run_cli(capsys, ["mixed-unitary", "--n", "2", "--samples", "20", "--seed", "5"])
        assert code == 0
        (rec,) = records(out)
        assert rec["experiment"] == "mixed-unitary"
        assert rec["analytic_bound"] == pytest.approx(1.6)


class TestOutputModes:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--formula", "matchgate-depth", "--n", "4", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["exact"] == "9/7"
        assert float(rows[0]["value"]) == pytest.approx(9 / 7)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "bounds.jsonl"
        code, out, err = run_cli(
            capsys, ["bounds", "--formula", "orthogonal", "--d", "8", "--dL", "4",
                     "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        recs = records(target.read_text())
        assert recs[0]["exact"] == "52/35"
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["out"] == str(target)


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"formula": "matchgate-depth", "n": 4}))
        code, out, _ = run_cli(capsys, ["bounds", "--config", str(cfg)])
        assert code == 0
        assert records(out)[0]["exact"] == "9/7"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"formula": "matchgate-depth", "n": 6}))
        code, out, _ = run_cli(capsys, ["bounds", "--config", str(cfg), "--n", "4"])
        assert code == 0
        assert records(out)[0]["exact"] == "9/7"

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"formula": "matchgate-depth", "n": 4, "bogus": 1}))
        code, _, err = run_cli(capsys, ["bounds", "--config", str(cfg)])
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "values,flag",
        [
            ({"samples": [3]}, "--samples"),
            ({"samples": 2.5}, "--samples"),
            ({"shot_mode": "yes"}, "--shot-mode"),
            ({"group": "nonesuch"}, "--group"),
        ],
    )
    def test_config_values_checked_like_flags(self, capsys, tmp_path, values, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3",
                "--config", str(cfg)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert flag in err
        assert "Traceback" not in err

    def test_config_values_take_flag_types(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": "20", "shot_mode": True, "seed": 4}))
        base = ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3"]
        code, out, _ = run_cli(capsys, base + ["--config", str(cfg)])
        assert code == 0
        _, want, _ = run_cli(capsys, base + ["--samples", "20", "--shot-mode", "--seed", "4"])
        assert out == want

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, ["bounds", "--config", str(cfg)])
        assert code == 1


def _benchmark_argvs() -> list[list[str]]:
    """The argv of every command of every benchmark workload, at two benchmark seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [list(c.argv) for w in workloads.WORKLOADS for seed in (0, 7) for c in workloads.commands(w, seed)]


class TestParserPerSubcommand:
    """``main`` builds only the invoked subcommand's flags; the parse is the same."""

    @pytest.mark.parametrize("argv", _benchmark_argvs(), ids=" ".join)
    def test_one_subparser_parses_as_the_full_parser(self, argv):
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
    def test_every_subcommand_keeps_its_name_and_help(self, name):
        full, one = cli.build_parser(), cli.build_parser(name)
        assert one.format_help() == full.format_help()
        assert one.format_usage() == full.format_usage()
        (full_sub,) = full._subparsers._group_actions
        (one_sub,) = one._subparsers._group_actions
        assert list(one_sub.choices) == list(full_sub.choices)
        assert one_sub.choices[name].format_help() == full_sub.choices[name].format_help()

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nope", "--n", "4"], ["disc"], ["-x"]])
    def test_an_argv_that_names_no_subcommand_reads_as_with_the_full_parser(self, capsys, argv):
        outputs = []
        for parser in (cli.build_parser(argv[0] if argv else None), cli.build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            outputs.append((exc.value.code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_config_applies_to_the_one_subparser(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "samples": 7, "shot_mode": True}))
        argv = ["discriminate", "--experiment", "depth", "--group", "matchgate", "--config", str(cfg)]
        parsed = []
        for parser in (cli.build_parser("discriminate"), cli.build_parser()):
            cli._apply_config_file(parser, argv)
            parsed.append(parser.parse_args(argv))
        assert parsed[0] == parsed[1]
        assert (parsed[0].n, parsed[0].samples, parsed[0].shot_mode) == (4, 7, True)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert records(out)[0]["params"]["samples"] == 7


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        argv = ["discriminate", "--experiment", "depth", "--group", "matchgate",
                "--n", "2", "--samples", "32", "--seed", "5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_threads_do_not_change_bytes(self, capsys):
        base = ["discriminate", "--experiment", "gate-count", "--n", "2",
                "--samples", "32", "--seed", "7"]
        _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
        _, out2, _ = run_cli(capsys, base + ["--threads", "3"])
        assert out1 == out2

    def test_different_seeds_differ(self, capsys):
        base = ["discriminate", "--experiment", "depth", "--group", "matchgate",
                "--n", "2", "--samples", "32"]
        _, out1, _ = run_cli(capsys, base + ["--seed", "5"])
        _, out2, _ = run_cli(capsys, base + ["--seed", "6"])
        assert out1 != out2


class TestReproduce:
    def test_unknown_target_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["reproduce", "--id", "unknown-target"])
        assert code == 1
        assert "propC5" in err

    def test_cheap_target_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--id", "propC5"])
        assert code == 0
        recs = records(out)
        summary = recs[-1]
        assert summary["check"] == "all"
        assert summary["pass"] is True
        assert summary["checks"] == len(recs) - 1
        assert all(r["pass"] for r in recs[:-1])

    def test_checks_carry_predictions(self, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--id", "cor4"])
        assert code == 0
        for rec in records(out)[:-1]:
            assert "predicted" in rec and "measured" in rec
            assert rec["pass"] is True


class TestModuleEntryPoint:
    def test_python_dash_m_separates_streams(self):
        proc = subprocess.run(
            [sys.executable, "-m", "designgap.cli", "bounds",
             "--formula", "matchgate-depth", "--n", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert all(json.loads(line).get("manifest") is None for line in proc.stdout.splitlines())
        assert json.loads(proc.stderr.strip().splitlines()[-1])["manifest"] is True

    def test_start_up_leaves_numpy_random_unloaded(self):
        # importing numpy.random takes about 14 ms; rng builds its first generator on first use
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, designgap.cli; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
