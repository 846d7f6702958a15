"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["apsp"])
        # --algo defaults to None and resolves at dispatch time (2eps
        # unweighted, near-additive weighted); params come from the
        # variant's schema.
        assert args.algo is None
        assert args.eps is None and args.r is None
        assert args.family == "er_sparse"

    def test_bad_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "--algo", "nope"])

    def test_registry_drives_choices(self):
        from repro import variants

        apsp_action = next(
            a for a in build_parser()._subparsers._group_actions[0]
            .choices["apsp"]._actions if a.dest == "algo"
        )
        assert set(apsp_action.choices) == {
            s.name for s in variants.cli_algo_variants()
        }

    def test_bad_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "--family", "nope"])


class TestMain:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "er_sparse" in out and "grid" in out

    def test_emulator(self, capsys):
        assert main(["emulator", "--n", "60", "--family", "path"]) == 0
        out = capsys.readouterr().out
        assert "emulator:" in out
        assert "total rounds" in out

    def test_emulator_deterministic(self, capsys):
        assert main(
            ["emulator", "--n", "60", "--family", "grid", "--deterministic"]
        ) == 0
        assert "emulator:" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["near-additive", "3eps", "exact", "spanner"])
    def test_apsp_algos(self, capsys, algo):
        assert main(["apsp", "--algo", algo, "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "sound" in out
        assert "True" in out

    def test_apsp_2eps(self, capsys):
        assert main(["apsp", "--algo", "2eps", "--n", "60"]) == 0
        assert "(2+eps)" in capsys.readouterr().out

    def test_mssp(self, capsys):
        assert main(["mssp", "--n", "70", "--num-sources", "5"]) == 0
        assert "MSSP" in capsys.readouterr().out

    def test_weighted_apsp(self, capsys):
        assert main(["apsp", "--n", "40", "--max-weight", "3"]) == 0
        out = capsys.readouterr().out
        assert "weights: random integers in [1, 3]" in out
        assert "True" in out

    def test_out_of_range_eps_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--eps", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "2eps" in err and "0 < eps < 1" in err

    def test_param_the_variant_does_not_take_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--algo", "exact",
                     "--eps", "0.5"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_weighted_unsupported_algo_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--algo", "2eps",
                     "--max-weight", "3"]) == 2
        assert "unweighted-only" in capsys.readouterr().err

    def test_weighted_mssp(self, capsys):
        assert main(
            ["mssp", "--n", "40", "--num-sources", "3", "--max-weight", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "weighted" in out

    def test_serve_rejects_backend_mount_option(
        self, capsys, monkeypatch, tmp_path
    ):
        # A mount takes no options: `,backend=csr` is read as part of a
        # path that holds no artifact, so `serve` fails at mount time
        # with exit 2 and never starts a server.
        from repro import telemetry
        from repro.oracle import service

        started = []
        monkeypatch.setattr(
            service, "AsyncOracleServer", lambda *a, **k: started.append(a)
        )
        # Keep the process-wide `repro` logger as the other tests see it.
        monkeypatch.setattr(telemetry, "configure_logging", lambda *a: None)
        mount = f"es={tmp_path},backend=csr"
        assert main(["serve", "--artifact", mount, "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not an oracle artifact" in err
        assert started == []


@pytest.fixture(scope="module")
def query_artifacts(tmp_path_factory):
    """Grid n=64 artifacts of a matrix kind (``exact``) and a bunches
    kind (``tz``, whose certificates carry a witness)."""
    root = tmp_path_factory.mktemp("query")
    paths = {}
    for variant in ("exact", "tz"):
        paths[variant] = str(root / variant)
        assert main([
            "build-oracle", "--family", "grid", "--n", "64",
            "--variant", variant, "--out", paths[variant],
        ]) == 0
    return paths


class TestQuery:
    @pytest.mark.parametrize("variant", ["exact", "tz"])
    def test_local_and_remote_print_the_same_answers(
        self, query_artifacts, variant, capsys
    ):
        from repro.oracle import DistanceOracle, start_async_server

        path = query_artifacts[variant]
        handle = start_async_server(DistanceOracle.load(path))
        try:
            host, port = handle.server_address
            url = f"http://{host}:{port}"
            capsys.readouterr()
            for args in (
                ["--u", "0", "--v", "63", "--cert", "--path"],
                ["--pairs", "0:5,1:7"],
            ):
                assert main(["query", "--artifact", path] + args) == 0
                header, local = capsys.readouterr().out.split("\n", 1)
                assert header.startswith("artifact: ")
                assert main(["query", "--url", url] + args) == 0
                assert capsys.readouterr().out == local
                if variant == "tz" and "--cert" in args:
                    assert "witness=None" not in local
        finally:
            handle.drain_and_shutdown()

    @pytest.mark.parametrize("args, message", [
        (["--u", "0", "--v", "999"], "returned 400: query .*out of range"),
        (["--pairs", "0:999"], "returned 400: query .*out of range"),
        (["--u", "0", "--v", "1", "--timeout-ms", "0"], "returned 504"),
    ])
    def test_local_rejected_query_exits_2(
        self, query_artifacts, args, message, capsys
    ):
        rc = main(["query", "--artifact", query_artifacts["exact"]] + args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and re.search(message, err)
        assert "Traceback" not in err
