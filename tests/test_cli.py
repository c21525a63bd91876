"""Tests for the repro-lock command-line tool (full shell workflow)."""

import io
import json

import pytest

from repro.bench.iscas import S27_BENCH
from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    design = tmp_path / "s27.bench"
    design.write_text(S27_BENCH)
    return {
        "design": str(design),
        "locked": str(tmp_path / "locked.bench"),
        "key": str(tmp_path / "s27.key"),
        "tmp": tmp_path,
    }


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestLockCommand:
    def test_lock_writes_outputs(self, workspace):
        code, text = run_cli([
            "lock", workspace["design"], "--kappa-s", "1",
            "--s-pairs", "4", "--out", workspace["locked"],
            "--key-out", workspace["key"]])
        assert code == 0
        assert "key (2 cycles x 4 bits)" in text
        payload = json.loads(open(workspace["key"]).read())
        assert payload["format"] == "trilock-key-v2"
        assert payload["cycles"] == 2 and payload["width"] == 4
        assert payload["scheme"].startswith("trilock?")
        assert "kappa_s=1" in payload["scheme"]
        assert "s_pairs=4" in payload["scheme"]

    def test_v1_key_files_still_read(self, workspace):
        """Key files written before the scheme spec existed keep working."""
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        payload = json.loads(open(workspace["key"]).read())
        payload["format"] = "trilock-key-v1"
        del payload["scheme"]
        with open(workspace["key"], "w") as handle:
            json.dump(payload, handle)
        code, text = run_cli([
            "verify", workspace["design"], workspace["locked"],
            workspace["key"]])
        assert code == 0 and "PASS" in text

    def test_lock_via_scheme_spec(self, workspace):
        code, text = run_cli([
            "lock", workspace["design"], "--scheme", "harpoon?kappa=2",
            "--out", workspace["locked"], "--key-out", workspace["key"]])
        assert code == 0
        assert "harpoon?kappa=2" in text
        payload = json.loads(open(workspace["key"]).read())
        assert payload["scheme"].startswith("harpoon?")
        code, text = run_cli([
            "verify", workspace["design"], workspace["locked"],
            workspace["key"]])
        assert code == 0 and "PASS" in text

    def test_scheme_spec_excludes_flags(self, workspace):
        code, text = run_cli([
            "lock", workspace["design"], "--scheme", "trilock?kappa_s=1",
            "--alpha", "0.3", "--out", workspace["locked"],
            "--key-out", workspace["key"]])
        assert code == 2
        assert "--alpha" in text

    def test_unknown_scheme_is_actionable(self, workspace):
        code, text = run_cli([
            "lock", workspace["design"], "--scheme", "sarlok",
            "--out", workspace["locked"], "--key-out", workspace["key"]])
        assert code == 2
        assert "sarlok" in text and "sarlock" in text

    def test_locked_file_is_valid_bench(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        from repro.netlist import load_bench

        locked = load_bench(workspace["locked"])
        assert locked.inputs == ("G0", "G1", "G2", "G3")


class TestVerifyCommand:
    def test_verify_passes_for_genuine_pair(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--s-pairs", "3", "--out", workspace["locked"],
                 "--key-out", workspace["key"]])
        code, text = run_cli([
            "verify", workspace["design"], workspace["locked"],
            workspace["key"], "--depth", "5"])
        assert code == 0
        assert "PASS" in text

    def test_verify_fails_for_wrong_key(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        payload = json.loads(open(workspace["key"]).read())
        payload["key_int"] ^= 1  # flip one key bit
        with open(workspace["key"], "w") as handle:
            json.dump(payload, handle)
        code, text = run_cli([
            "verify", workspace["design"], workspace["locked"],
            workspace["key"], "--depth", "5"])
        assert code == 1
        assert "counterexample" in text

    def test_bad_key_file(self, workspace):
        bogus = workspace["tmp"] / "bogus.key"
        bogus.write_text("{}")
        code, text = run_cli([
            "verify", workspace["design"], workspace["design"],
            str(bogus)])
        assert code == 2
        assert "error" in text


class TestAttackCommand:
    def test_attack_recovers_key(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--seed", "3", "--out", workspace["locked"],
                 "--key-out", workspace["key"]])
        payload = json.loads(open(workspace["key"]).read())
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--kappa", "2", "--depth", "1"])
        assert code == 0
        assert "key recovered" in text
        assert payload["key"] in text

    def test_attack_budget_exhausted(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--kappa", "2", "--depth", "1", "--max-dips", "1"])
        assert code == 1
        assert "max_dips" in text

    def test_attack_engine_flags(self, workspace, native_engine):
        """--dip-batch/--solver reach the attack and still recover the
        key."""
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--seed", "3", "--out", workspace["locked"],
                 "--key-out", workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--kappa", "2", "--depth", "1", "--dip-batch", "2",
            "--solver", "native"])
        assert code == 0
        assert "key recovered" in text

    def test_unknown_solver_lists_the_registered_ones(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--kappa", "2", "--depth", "1",
            "--solver", "minisat-classic"])
        assert code == 2
        assert "error" in text and "unknown solver backend" in text
        assert "known: cdcl, native" in text

    def test_race_flags_are_gone(self, workspace):
        for flags in (["--attack-jobs", "2"], ["--portfolio", "race"]):
            with pytest.raises(SystemExit):
                run_cli(["attack", workspace["design"], workspace["design"],
                         "--kappa", "2", *flags])

    def test_attack_recovers_kappa_from_key_file(self, workspace):
        """--key replaces --kappa/--depth re-typing (the footgun fix)."""
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--seed", "3", "--out", workspace["locked"],
                 "--key-out", workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--key", workspace["key"]])
        assert code == 0
        assert "key recovered" in text
        assert "depth 1" in text  # b* = kappa_s recovered from the spec

    def test_attack_kappa_mismatch_rejected(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"],
            "--kappa", "3", "--key", workspace["key"]])
        assert code == 2
        assert "contradicts" in text

    def test_attack_without_kappa_or_key(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--out", workspace["locked"], "--key-out",
                 workspace["key"]])
        code, text = run_cli([
            "attack", workspace["design"], workspace["locked"]])
        assert code == 2
        assert "--kappa" in text and "--key" in text


class TestReportCommand:
    def test_report_contains_all_sections(self, workspace):
        run_cli(["lock", workspace["design"], "--kappa-s", "1",
                 "--s-pairs", "4", "--out", workspace["locked"],
                 "--key-out", workspace["key"]])
        code, text = run_cli([
            "report", workspace["design"], workspace["locked"],
            workspace["key"], "--fc-samples", "200"])
        assert code == 0
        assert "scheme: trilock?" in text
        assert "SAT resilience" in text
        assert "functional corruptibility" in text
        assert "removal resilience" in text
        assert "overhead" in text


class TestRegistryListings:
    def test_schemes_listing(self):
        code, text = run_cli(["schemes"])
        assert code == 0
        for name in ("trilock", "naive", "harpoon", "sink"):
            assert name in text
        assert "kappa_s:int=2" in text  # schema with defaults

    def test_attacks_listing(self):
        code, text = run_cli(["attacks"])
        assert code == 0
        for name in ("seq-sat", "comb-sat", "bmc", "removal", "stg",
                     "key-space"):
            assert name in text
        assert "dip_batch:int=1" in text

    def test_schemes_json_listing(self):
        code, text = run_cli(["schemes", "--json"])
        assert code == 0
        listing = json.loads(text)
        by_name = {entry["name"]: entry for entry in listing}
        assert "trilock" in by_name and "harpoon" in by_name
        trilock = by_name["trilock"]
        assert trilock["description"]
        assert trilock["params"]["kappa_s"]["kind"] == "int"
        assert trilock["params"]["kappa_s"]["default"] == 2
        assert trilock["params"]["kappa_s"]["doc"]

    def test_attacks_json_listing(self):
        code, text = run_cli(["attacks", "--json"])
        assert code == 0
        listing = json.loads(text)
        by_name = {entry["name"]: entry for entry in listing}
        assert "seq-sat" in by_name
        params = by_name["seq-sat"]["params"]
        assert params["dip_batch"]["default"] == 1
        assert params["solver"] == {
            "kind": "str", "default": "cdcl",
            "doc": params["solver"]["doc"]}


class TestMatrixCommand:
    def test_grid_runs_and_caches(self, workspace):
        cache = str(workspace["tmp"] / "matrix-cache")
        argv = ["matrix", "--circuit", "s27",
                "--scheme", "trilock?kappa_s=1", "--scheme",
                "harpoon?kappa=2",
                "--attack", "seq-sat", "--attack", "removal",
                "--cache-dir", cache, "--max-dips", "40"]
        code, text = run_cli(argv)
        assert code == 0
        lines = [line for line in text.splitlines() if line.startswith("s27")]
        assert len(lines) == 4  # 2 schemes x 2 attacks
        assert "0 hits, 4 misses" in text
        code, text = run_cli(argv)
        assert code == 0
        assert "4 hits, 0 misses" in text
        assert text.count("hit") >= 4

    def test_gridded_scheme_expansion(self, workspace):
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=1..2",
            "--attack", "removal", "--no-cache"])
        assert code == 0
        rows = [line for line in text.splitlines()
                if line.startswith("s27")]
        assert len(rows) == 2

    def test_failed_cell_is_reported_not_fatal(self, workspace):
        # key-space on a huge key space fails inside the cell; the
        # matrix renders the failure and exits non-zero.
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=4",
            "--attack", "key-space", "--no-cache"])
        assert code == 1
        assert "failed" in text
        assert "AttackError" in text

    def test_explicit_pool_backend_runs(self, workspace):
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=1",
            "--attack", "removal", "--no-cache",
            "--backend", "pool", "--jobs", "2"])
        assert code == 0
        assert "done" in text

    def test_scheduler_flags_require_distributed_backend(self, workspace):
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=1",
            "--attack", "removal", "--no-cache",
            "--workers", "2"])
        assert code == 2
        assert "--backend distributed" in text
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=1",
            "--attack", "removal", "--no-cache",
            "--bind", "127.0.0.1:7764"])
        assert code == 2
        assert "--backend distributed" in text

    def test_distributed_backend_rejects_jobs(self, workspace):
        # Same misconfiguration rejection as the library API: the
        # distributed backend's concurrency comes from workers.
        code, text = run_cli([
            "matrix", "--scheme", "trilock?kappa_s=1",
            "--attack", "removal", "--no-cache",
            "--backend", "distributed", "--jobs", "8"])
        assert code == 2
        assert "drop --jobs" in text


class TestWorkerCommand:
    def test_bad_scheduler_address_is_a_clean_error(self):
        code, text = run_cli(["worker", "--connect", "nonsense"])
        assert code == 2
        assert "HOST:PORT" in text

    def test_unreachable_scheduler_is_a_clean_error(self):
        # Port 1 on localhost refuses immediately; no retries wanted.
        code, text = run_cli(["worker", "--connect", "127.0.0.1:1",
                              "--retry-for", "0"])
        assert code == 2
        assert "cannot reach scheduler" in text
