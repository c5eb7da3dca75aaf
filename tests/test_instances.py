import json
import random
import subprocess
import sys

import pytest

from ffactors.graph import DegreeSpec, constant_spec, cycle
from ffactors.instances import (
    instance_digest,
    parse_instance,
    random_connected_graph,
    random_degree_spec,
    random_graph,
    serialize_instance,
)
from ffactors.reports import (
    build_report,
    factor_certificate,
    recheck_report,
    strip_timing,
    verdicts_of,
    violating_pair_certificate,
)
from ffactors.solver import find_f_factor
from ffactors.tutte import deficiency
from ffactors.graph import complete_graph


class TestParseInstance:
    def test_k2(self):
        g, f = parse_instance("p ffactor 2 1\ne 0 1\nf 0 1\nf 1 1\n")
        assert g.n == 2 and g.m == 1
        assert f.values == (1, 1)

    def test_default_f(self):
        g, f = parse_instance("p ffactor 3 2\ne 0 1\ne 1 2\ndefault-f 2\nf 0 1\n")
        assert f.values == (1, 2, 2)

    def test_comments_and_blank_lines(self):
        g, f = parse_instance("c hi\n\np ffactor 2 1\ne 0 1\ndefault-f 1\n")
        assert g.m == 1

    def test_out_of_range_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_instance("p ffactor 2 1\ne 0 5\ndefault-f 1\n")

    def test_duplicate_f_rejected(self):
        with pytest.raises(ValueError, match="duplicate f"):
            parse_instance("p ffactor 2 1\ne 0 1\nf 0 1\nf 0 2\nf 1 1\n")

    def test_missing_f_rejected(self):
        with pytest.raises(ValueError, match="no target degree"):
            parse_instance("p ffactor 2 1\ne 0 1\nf 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="declares m"):
            parse_instance("p ffactor 3 5\ne 0 1\ndefault-f 1\n")

    @pytest.mark.parametrize("line", [
        "e 0 1 7", "e 0", "f 0 1 9", "f 0", "default-f 1 2", "default-f",
        "p ffactor 2 1 0",
    ])
    def test_wrong_field_count_names_line(self, line):
        text = f"p ffactor 2 1\ne 0 1\nf 0 1\nf 1 1\n{line}\n"
        if line.startswith("p"):
            text = f"{line}\ne 0 1\nf 0 1\nf 1 1\n"
        with pytest.raises(ValueError, match=r"^line \d: expected '"):
            parse_instance(text)


class TestRoundTrip:
    def test_corpus(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng.randrange(2**31))
            f = DegreeSpec(tuple(rng.randint(0, 4) for _ in range(n)))
            a = rng.randint(0, 3)
            for spec in (f, random_degree_spec(g, a, a + 1, rng.randrange(2**31))):
                text = serialize_instance(g, spec)
                g2, f2 = parse_instance(text)
                assert g2 == g and f2 == spec
                assert serialize_instance(g2, f2) == text

    def test_digest_stable(self):
        g = cycle(4)
        f = constant_spec(g, 2)
        assert instance_digest(g, f) == instance_digest(g, f)


class TestRandomGeneration:
    def test_p_one_is_complete(self):
        g = random_graph(5, 1.0, 7)
        assert g.m == 10

    def test_p_zero_connected_errors(self):
        with pytest.raises(ValueError, match="no connected sample"):
            random_connected_graph(5, 0.0, 7)

    def test_seed_determinism(self):
        assert random_graph(8, 0.5, 3) == random_graph(8, 0.5, 3)
        assert random_connected_graph(8, 0.5, 3) == random_connected_graph(8, 0.5, 3)

    def test_degree_spec_no_repair_needed(self):
        g = complete_graph(4)
        f = random_degree_spec(g, 1, 1, 0)
        assert f.values == (1, 1, 1, 1)

    def test_degree_spec_parity_repaired(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng.randint(2, 8), 0.5, rng.randrange(2**31))
            f = random_degree_spec(g, 1, 3, rng.randrange(2**31))
            assert f.total() % 2 == 0
            assert all(1 <= v <= 3 for v in f.values)

    def test_unrepairable_parity(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="parity"):
            random_degree_spec(g, 1, 1, 0)


class TestReports:
    def test_factor_certificate_rechecks(self):
        g = cycle(4)
        f = constant_spec(g, 2)
        factor = find_f_factor(g, f)
        doc = build_report("solve", {}, None, (g, f),
                           {"factor_exists": True},
                           [factor_certificate(factor)])
        assert recheck_report(doc) == []

    def test_tampered_factor_fails(self):
        g = cycle(4)
        f = constant_spec(g, 2)
        factor = find_f_factor(g, f)
        doc = build_report("solve", {}, None, (g, f), {"factor_exists": True},
                           [factor_certificate(factor)])
        doc["certificates"][0]["edges"] = doc["certificates"][0]["edges"][:-1]
        assert recheck_report(doc)

    def test_pair_certificate_rechecks(self):
        g = cycle(4)
        f = DegreeSpec((2, 2, 2, 4))
        rep = deficiency(g, [], [3], f)
        assert rep.delta < 0
        certs = [violating_pair_certificate(rep)]
        doc = build_report("audit", {}, 0, (g, f), verdicts_of("audit", g.n, {}, certs), certs)
        assert recheck_report(doc) == []

    def test_tampered_pair_fails(self):
        g = cycle(4)
        f = DegreeSpec((2, 2, 2, 4))
        rep = deficiency(g, [], [3], f)
        certs = [violating_pair_certificate(rep)]
        doc = build_report("audit", {}, 0, (g, f), verdicts_of("audit", g.n, {}, certs), certs)
        doc["certificates"][0]["delta"] = -99
        # the tamper is the only failure
        assert recheck_report(doc) == [
            f"certificate 0: recomputed delta={rep.delta} != recorded -99"]

    def test_strip_timing(self):
        doc = build_report("solve", {}, None, None, {}, [])
        assert "timing" not in strip_timing(doc)


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ffactors.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


class TestCLI:
    def test_solve_exit_codes(self, tmp_path):
        inst = tmp_path / "c4.inst"
        inst.write_text(serialize_instance(cycle(4), constant_spec(cycle(4), 2)))
        proc = run_cli(["solve", str(inst)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verdicts"]["factor_exists"] is True
        assert len(doc["certificates"][0]["edges"]) == 4

        inst.write_text(serialize_instance(cycle(4), constant_spec(cycle(4), 3)))
        assert run_cli(["solve", str(inst)]).returncode == 1

    def test_solve_error_exit(self, tmp_path):
        bad = tmp_path / "bad.inst"
        bad.write_text("garbage\n")
        assert run_cli(["solve", str(bad)]).returncode == 2

    def test_gen_then_solve_g1(self, tmp_path):
        inst = tmp_path / "g1.inst"
        gen = run_cli(["gen", "g1", "--a", "1", "--b", "3", "--r", "2",
                       "--delta", "5", "--alpha", "2", "--out", str(inst)])
        assert gen.returncode == 0
        solve = run_cli(["solve", str(inst)])
        assert solve.returncode == 1
        audit = run_cli(["audit", str(inst)])
        assert audit.returncode == 0
        doc = json.loads(audit.stdout)
        cert = doc["certificates"][0]
        assert cert["s"] == [0, 1, 2, 3]
        assert cert["t"] == [4, 5, 6, 7]
        assert cert["delta"] == -4

    def test_audit_report_rechecks(self, tmp_path):
        inst = tmp_path / "g1.inst"
        report = tmp_path / "audit.json"
        run_cli(["gen", "g1", "--a", "1", "--b", "3", "--r", "2",
                 "--delta", "5", "--alpha", "2", "--out", str(inst)])
        run_cli(["audit", str(inst), "--out", str(report)])
        proc = run_cli(["recheck", str(report)])
        assert proc.returncode == 0
        assert "all certificates verified" in proc.stdout

    def test_recheck_catches_tampering(self, tmp_path):
        inst = tmp_path / "g1.inst"
        report = tmp_path / "audit.json"
        run_cli(["gen", "g1", "--a", "1", "--b", "3", "--r", "2",
                 "--delta", "5", "--alpha", "2", "--out", str(inst)])
        run_cli(["audit", str(inst), "--out", str(report)])
        doc = json.loads(report.read_text())
        doc["certificates"][0]["delta"] = -1
        report.write_text(json.dumps(doc))
        assert run_cli(["recheck", str(report)]).returncode == 1

    def test_invariants_subcommand(self, tmp_path):
        inst = tmp_path / "c6.inst"
        inst.write_text(serialize_instance(cycle(6), constant_spec(cycle(6), 2)))
        proc = run_cli(["invariants", str(inst), "--alpha", "--kappa",
                        "--toughness"])
        doc = json.loads(proc.stdout)
        assert doc["verdicts"]["alpha"] == 3
        assert doc["verdicts"]["kappa"] == 2
        assert doc["verdicts"]["toughness"] == "1"

    def test_invariants_cap_refusal_and_force(self, tmp_path):
        g = random_connected_graph(22, 0.4, 1)
        inst = tmp_path / "big.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        assert run_cli(["invariants", str(inst), "--toughness"]).returncode == 2
        inst.write_text(serialize_instance(cycle(8), constant_spec(cycle(8), 2)))
        argv = ["invariants", str(inst), "--toughness", "--toughness-max-n"]
        assert run_cli([*argv, "6"]).returncode == 2
        proc = run_cli([*argv, "8"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["parameters"]["toughness_max_n"] == 8
        assert doc["verdicts"]["toughness"] == "1"

    def test_verify_theorem_subcommand(self, tmp_path):
        g = complete_graph(5)
        inst = tmp_path / "k5.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 2)))
        proc = run_cli(["verify-theorem", "main", str(inst), "--a", "2",
                        "--b", "2", "--confirm"])
        doc = json.loads(proc.stdout)
        assert doc["verdicts"]["hypotheses_met"] is True
        assert doc["verdicts"]["confirmation"] == "confirmed"

    def test_fuzz_exit_zero(self, tmp_path):
        proc = run_cli(["fuzz", "main", "--trials", "10", "--seed", "42"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verdicts"]["discrepancy_count"] == 0

    def test_reports_byte_identical_modulo_timing(self, tmp_path):
        inst = tmp_path / "g1.inst"
        run_cli(["gen", "g1", "--a", "1", "--b", "3", "--r", "2",
                 "--delta", "5", "--alpha", "2", "--out", str(inst)])
        a = json.loads(run_cli(["audit", str(inst)]).stdout)
        b = json.loads(run_cli(["audit", str(inst)]).stdout)
        assert strip_timing(a) == strip_timing(b)

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]).returncode == 2
