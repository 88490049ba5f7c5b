"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.io import catalog_to_dict, policy_to_dict, save_json
from repro.workloads.medical import generate_instances, medical_catalog, medical_policy

PAPER_SQL = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDescribe:
    def test_describe_medical(self):
        code, text = run_cli("describe")
        assert code == 0
        assert "Insurance(Holder, Plan" in text
        assert "15 explicit rules" in text


class TestPlan:
    def test_plan_paper_query(self):
        code, text = run_cli("plan", "--sql", PAPER_SQL)
        assert code == 0
        assert "Find_candidates" in text
        assert "[S_H, S_N]" in text
        assert "exposure:" in text

    def test_plan_infeasible(self):
        code, text = run_cli(
            "plan",
            "--sql",
            "SELECT Physician, Treatment FROM Disease_list "
            "JOIN Hospital ON Illness = Disease",
        )
        assert code == 2
        assert "infeasible" in text

    def test_plan_without_closure(self):
        code, text = run_cli("--no-closure", "plan", "--sql", PAPER_SQL)
        assert code == 0


class TestExecute:
    def test_execute_generates_instances(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--citizens", "40", "--seed", "3"
        )
        assert code == 0
        assert "rows at S_H" in text
        assert "0 violations" in text

    def test_execute_with_recipient(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--recipient", "S_H", "--citizens", "30"
        )
        assert code == 0

    def test_execute_json_workload_needs_instances(self, tmp_path):
        catalog_path = str(tmp_path / "catalog.json")
        policy_path = str(tmp_path / "policy.json")
        save_json(catalog_to_dict(medical_catalog()), catalog_path)
        save_json(policy_to_dict(medical_policy()), policy_path)
        code, text = run_cli(
            "--catalog",
            catalog_path,
            "--policy",
            policy_path,
            "execute",
            "--sql",
            PAPER_SQL,
        )
        assert code == 2
        assert "--instances" in text

    def test_execute_json_workload_with_instances(self, tmp_path):
        catalog_path = str(tmp_path / "catalog.json")
        policy_path = str(tmp_path / "policy.json")
        instances_path = str(tmp_path / "instances.json")
        save_json(catalog_to_dict(medical_catalog()), catalog_path)
        save_json(policy_to_dict(medical_policy()), policy_path)
        save_json(generate_instances(seed=5, citizens=25), instances_path)
        code, text = run_cli(
            "--catalog",
            catalog_path,
            "--policy",
            policy_path,
            "execute",
            "--sql",
            PAPER_SQL,
            "--instances",
            instances_path,
        )
        assert code == 0
        assert "rows at S_H" in text


class TestSuggest:
    def test_suggest_for_infeasible(self):
        code, text = run_cli(
            "suggest",
            "--sql",
            "SELECT Physician, Treatment FROM Disease_list "
            "JOIN Hospital ON Illness = Disease",
        )
        assert code == 0
        assert "grants to add" in text
        assert "feasible under the augmented policy" in text

    def test_suggest_for_feasible(self):
        code, text = run_cli("suggest", "--sql", PAPER_SQL)
        assert code == 0
        assert "no grants needed" in text


class TestExplain:
    def test_explain_feasible(self):
        code, text = run_cli("explain", "--sql", PAPER_SQL)
        assert code == 0
        assert "ALLOW" in text
        assert "covered by" in text
        assert "feasible: True" in text

    def test_explain_infeasible(self):
        code, text = run_cli(
            "explain",
            "--sql",
            "SELECT Physician, Treatment FROM Disease_list "
            "JOIN Hospital ON Illness = Disease",
        )
        assert code == 2
        assert "infeasible" in text
        assert "feasible: False" in text


class TestThirdPartyRescueViaJson:
    def test_coalition_blocked_query_rescued(self, tmp_path):
        """Full CLI round trip: serialize the coalition workload to
        JSON, add clearing-house grants, and plan the blocked
        berth-to-client query with --third-party."""
        from repro.core.authorization import Authorization
        from repro.workloads.coalition import (
            coalition_catalog,
            coalition_policy,
        )

        catalog_path = str(tmp_path / "catalog.json")
        policy_path = str(tmp_path / "policy.json")
        save_json(catalog_to_dict(coalition_catalog()), catalog_path)
        policy = coalition_policy().copy()
        policy.add(Authorization({"Vessel", "Berth", "Eta"}, None, "S_clearing"))
        policy.add(
            Authorization(
                {"Manifest_id", "Ship", "Container_count", "Client"},
                None,
                "S_clearing",
            )
        )
        save_json(policy_to_dict(policy), policy_path)
        sql = "SELECT Berth, Client FROM Arrivals JOIN Manifests ON Vessel = Ship"
        # Without the third party: infeasible.
        code, text = run_cli(
            "--catalog", catalog_path, "--policy", policy_path, "plan", "--sql", sql
        )
        assert code == 2
        # With it: planned, coordinated at the clearing house.
        code, text = run_cli(
            "--catalog",
            catalog_path,
            "--policy",
            policy_path,
            "--third-party",
            "S_clearing",
            "plan",
            "--sql",
            sql,
        )
        assert code == 0
        assert "S_clearing" in text


class TestCheck:
    def test_check_allowed(self):
        code, text = run_cli(
            "check", "--server", "S_I", "--attributes", "Holder", "Plan"
        )
        assert code == 0
        assert "True" in text

    def test_check_denied_with_explanation(self):
        code, text = run_cli(
            "check",
            "--server",
            "S_D",
            "--attributes",
            "Illness",
            "Treatment",
            "--join",
            "Illness=Disease",
        )
        assert code == 1
        assert "join path mismatch" in text

    def test_check_bad_join_syntax(self):
        code, text = run_cli(
            "check", "--server", "S_I", "--attributes", "Plan", "--join", "nope"
        )
        assert code == 2

    def test_third_party_flag(self):
        code, text = run_cli(
            "--third-party",
            "S_T",
            "check",
            "--server",
            "S_T",
            "--attributes",
            "Plan",
        )
        assert code == 1  # S_T holds no rules; denied, but system built fine


class TestExecuteFaults:
    def test_execute_with_drop_rate(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--citizens", "40",
            "--drop-rate", "0.3", "--fault-seed", "3",
        )
        assert code == 0
        assert "failovers" in text
        assert "audit clean" in text
        assert "FaultInjector(seed=3" in text

    def test_execute_fault_runs_are_deterministic(self):
        argv = (
            "execute", "--sql", PAPER_SQL, "--citizens", "40",
            "--drop-rate", "0.4", "--fault-seed", "11",
        )
        first = run_cli(*argv)
        assert first == run_cli(*argv)

    def test_execute_degrades_on_eternal_crash(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--citizens", "30",
            "--crash", "S_N:0", "--max-failovers", "1",
        )
        assert code == 3
        assert "degraded" in text

    def test_execute_survives_transient_crash(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--citizens", "30",
            "--crash", "S_N:0:1",
        )
        assert code == 0
        assert "audit clean" in text

    def test_execute_rejects_bad_crash_spec(self):
        code, text = run_cli(
            "execute", "--sql", PAPER_SQL, "--crash", "S_N", "--citizens", "30"
        )
        assert code == 2
        assert "bad crash spec" in text

    def test_execute_summary_line_present(self):
        code, text = run_cli("execute", "--sql", PAPER_SQL, "--citizens", "40")
        assert code == 0
        assert "result:" in text
        assert "0 retries | 0 failovers" in text


class TestServe:
    """The ``serve`` subcommand: exit codes, drain, and export flushes."""

    def _workload(self, tmp_path, records):
        import json

        path = tmp_path / "workload.json"
        path.write_text(json.dumps(records))
        return str(path)

    def test_serve_clean_drain_exit_0(self, tmp_path):
        workload = self._workload(
            tmp_path, [{"sql": PAPER_SQL, "repeat": 4}]
        )
        metrics_path = tmp_path / "serve.prom"
        trace_path = tmp_path / "serve.trace.json"
        code, text = run_cli(
            "serve",
            "--workload", workload,
            "--citizens", "40",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        )
        assert code == 0
        assert "served: 4 submitted / 4 admitted" in text
        assert "4 ok" in text
        assert "latency: p50=" in text
        assert "plan cache:" in text
        # Exports flushed on the way out.
        assert "repro_service_requests_total" in metrics_path.read_text()
        assert trace_path.exists()

    def test_serve_with_tenants_file(self, tmp_path):
        import json

        workload = self._workload(
            tmp_path,
            [
                {"sql": PAPER_SQL, "tenant": "gold", "repeat": 2},
                {"sql": PAPER_SQL, "tenant": "bronze"},
            ],
        )
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps([
            {"name": "gold", "priority": 2, "rate": 100.0, "burst": 50},
            {"name": "bronze", "priority": 0, "rate": 100.0, "burst": 50},
        ]))
        code, text = run_cli(
            "serve",
            "--workload", workload,
            "--tenants", str(tenants),
            "--citizens", "40",
        )
        assert code == 0
        assert "3 ok" in text

    def test_serve_bad_workload_not_a_list_exit_2(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text('{"sql": "SELECT"}')
        code, text = run_cli("serve", "--workload", str(path))
        assert code == 2
        assert "must be a JSON list" in text

    def test_serve_workload_entry_missing_sql_exit_2(self, tmp_path):
        workload = self._workload(tmp_path, [{"tenant": "gold"}])
        code, text = run_cli("serve", "--workload", workload)
        assert code == 2
        assert "needs 'sql'" in text

    def test_serve_unreadable_workload_exit_2(self, tmp_path):
        code, text = run_cli(
            "serve", "--workload", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot read workload" in text

    def test_serve_bad_tenants_exit_2(self, tmp_path):
        workload = self._workload(tmp_path, [{"sql": PAPER_SQL}])
        tenants = tmp_path / "tenants.json"
        tenants.write_text('[{"priority": 1}]')
        code, text = run_cli(
            "serve", "--workload", workload, "--tenants", str(tenants)
        )
        assert code == 2
        assert "bad tenant config" in text

    def test_serve_zero_capacity_sheds_everything(self, tmp_path):
        workload = self._workload(tmp_path, [{"sql": PAPER_SQL, "repeat": 5}])
        code, text = run_cli(
            "serve",
            "--workload", workload,
            "--capacity-bytes", "0",
            "--citizens", "40",
        )
        # Shedding is not a failure: the service answered every request
        # with a structured rejection and drained cleanly.
        assert code == 0
        assert "5 shed" in text
        assert "0 ok" in text


class TestServeSignals:
    """SIGINT smoke test against a real subprocess (satellite 6)."""

    def test_sigint_drains_and_flushes_metrics(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps([{"sql": PAPER_SQL, "repeat": 200}]))
        metrics_path = tmp_path / "serve.prom"
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--workload", str(workload),
                "--citizens", "40",
                "--pace", "0.05",
                "--metrics-out", str(metrics_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            time.sleep(2.0)  # let it admit a few paced requests
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        # One SIGINT = graceful: stop submitting, drain, flush, exit 0.
        assert proc.returncode == 0, f"stdout={stdout!r} stderr={stderr!r}"
        assert "interrupt: draining admitted work..." in stdout
        assert "served:" in stdout
        assert "never submitted" in stdout
        assert "repro_service_requests_total" in metrics_path.read_text()


class TestExitCodeTables:
    """Each subcommand's exit codes are one table: its ``--help``
    epilog, which README's table repeats cell for cell."""

    @staticmethod
    def _tables():
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        tables = {}
        for name, parser in commands.choices.items():
            codes, last = {}, None
            for line in parser.epilog.splitlines()[1:]:
                code, _, meaning = line.strip().partition("  ")
                if code.isdigit():
                    last = int(code)
                    codes[last] = meaning
                else:
                    codes[last] += " " + line.strip()
            tables[name] = codes
        return tables

    def test_every_subcommand_has_a_table_with_the_config_error(self):
        tables = self._tables()
        assert len(tables) == 10
        for name, codes in tables.items():
            assert 0 in codes and "configuration error" in codes[2], name

    def test_readme_repeats_every_table(self):
        import pathlib

        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
                rows[cells[0].strip("`")] = cells[1:]
        for name, codes in self._tables().items():
            assert rows[name] == [codes.get(code, "—") for code in range(5)], name

    def test_unreadable_input_files_are_configuration_errors(self, tmp_path):
        """A missing catalog or a malformed checkpoint file leaves
        through the one handler — ``error: ...``, exit 2 — not as a
        traceback."""
        code, text = run_cli("--catalog", str(tmp_path / "nope.json"), "describe")
        assert code == 2 and text.startswith("error: cannot read catalog")
        journal = tmp_path / "journal.json"
        journal.write_text("not json")
        code, text = run_cli("execute", "--sql", PAPER_SQL, "--resume", str(journal))
        assert code == 2 and text.startswith("error: bad checkpoint file")
