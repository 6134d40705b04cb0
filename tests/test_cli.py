"""The command-line interface — repro.cli."""

import pytest

from repro import cli
from repro.cli import main, parse_edges, parse_query
from repro.core.catalog import rst_query
from repro.core.clauses import Clause
from repro.service.protocol import OP_PARAMS


class TestParseQuery:
    def test_rst(self):
        assert parse_query("(R|S1)(S1|T)") == rst_query()

    def test_middle(self):
        q = parse_query("(S1|S2)")
        assert q.clauses == (Clause.middle("S1", "S2"),)

    def test_full(self):
        q = parse_query("(R|S|T)")
        assert q.clauses[0].side == "full"

    def test_type2(self):
        q = parse_query("(L: S1 ; S2)(S1|S3)(R: S3 ; S4)")
        assert q.clauses
        sides = {c.side for c in q.clauses}
        assert sides == {"left", "middle", "right"}

    def test_no_clauses_exits_friendly(self):
        with pytest.raises(SystemExit, match="no clauses found"):
            parse_query("S1")

    def test_empty_clause_exits_friendly(self):
        with pytest.raises(SystemExit, match="bad clause"):
            parse_query("()")


class TestParseEdges:
    def test_basic(self):
        assert parse_edges("0-1,1-2") == [(0, 1), (1, 2)]

    def test_empty_parts_skipped(self):
        assert parse_edges("0-1,") == [(0, 1)]

    def test_dangling_edge_exits_friendly(self):
        with pytest.raises(SystemExit, match="bad edge '0-'"):
            parse_edges("0-")

    def test_missing_dash_exits_friendly(self):
        with pytest.raises(SystemExit, match="bad edge '3'"):
            parse_edges("3")

    def test_non_integer_exits_friendly(self):
        with pytest.raises(SystemExit, match="integers"):
            parse_edges("a-b")


class TestCommands:
    def test_classify(self, capsys):
        assert main(["classify", "(R|S1)(S1|T)"]) == 0
        out = capsys.readouterr().out
        assert "safe:    False" in out
        assert "final:   True" in out

    def test_classify_safe(self, capsys):
        assert main(["classify", "(R|S1)(S1|S2)"]) == 0
        assert "safe:    True" in capsys.readouterr().out

    def test_census(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "H0" in out
        assert "unsafe" in out and "safe" in out

    def test_reduce(self, capsys):
        assert main(["reduce", "--edges", "0-1", "--vars", "2",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "#Phi = 3" in out
        assert "match" in out

    def test_h0(self, capsys):
        assert main(["h0", "--left", "1", "--right", "1",
                     "--edges", "0-0", "--check"]) == 0
        out = capsys.readouterr().out
        assert "#PP2CNF = 3" in out

    @pytest.mark.parametrize("argv,message", [
        (["--edges", "", "--vars", "-2"], "negative variable count"),
        (["--edges", "0-2", "--vars", "2"], "edge off-range"),
        (["--edges", "0-1,1-0", "--vars", "2"], "duplicate edge"),
        (["--edges", "1-1", "--vars", "2"], "self-loop"),
        (["--edges", "0-1", "--vars", "2", "--length", "0"],
         "length >= 1"),
    ], ids=["negative-vars", "off-range", "duplicate", "self-loop",
            "length-0"])
    def test_reduce_bad_instance_exits_friendly(self, capsys, argv,
                                                message):
        with pytest.raises(SystemExit, match=f"^repro: .*{message}"):
            main(["reduce", *argv])
        assert "#Phi" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--left", "-1", "--right", "0", "--edges", ""],
         "negative side size"),
        (["--left", "1", "--right", "1", "--edges", "0-1"],
         "edge off-range"),
        (["--left", "1", "--right", "1", "--edges", "0-0,0-0"],
         "duplicate edge"),
    ], ids=["negative-left", "off-range", "duplicate"])
    def test_h0_bad_instance_exits_friendly(self, capsys, argv, message):
        with pytest.raises(SystemExit, match=f"^repro: .*{message}"):
            main(["h0", *argv])
        assert "#PP2CNF" not in capsys.readouterr().out

    def test_reduce_non_final_query_exits_friendly(self, monkeypatch):
        """A query the reduction refuses (here, a non-final one standing
        in for the path query) exits with its ValueError's message."""
        from repro.core import catalog

        monkeypatch.setattr(catalog, "path_query",
                            lambda length: catalog.intro_example())
        with pytest.raises(SystemExit, match="^repro: .*final"):
            main(["reduce", "--edges", "0-1", "--vars", "2"])

    def test_compile(self, capsys):
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "circuit size" in out
        assert "Pr(Q) at block weights" in out

    def test_compile_save_load_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "circuit.ddnnf")
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--save", path]) == 0
        saved = capsys.readouterr().out
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--load", path]) == 0
        loaded = capsys.readouterr().out
        assert f"loaded from {path}" in loaded
        # Bit-identical report modulo provenance lines.
        strip = [l for l in saved.splitlines()
                 if not l.startswith(("circuit:", "saved:"))]
        strip_loaded = [l for l in loaded.splitlines()
                        if not l.startswith("circuit:")]
        assert strip == strip_loaded

    def test_compile_load_wrong_lineage_exits(self, tmp_path):
        path = str(tmp_path / "circuit.ddnnf")
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--save", path]) == 0
        with pytest.raises(SystemExit, match="different lineage"):
            main(["compile", "(R|S2)(S2|T)", "--p", "2",
                  "--load", path])

    def test_compile_load_subset_lineage_exits(self, tmp_path):
        """A circuit whose variables are a proper *subset* of the
        target lineage's must be rejected too (set equality, not just
        no-extras) — it would silently compute the wrong query."""
        path = str(tmp_path / "circuit.ddnnf")
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--save", path]) == 0
        with pytest.raises(SystemExit, match="absent"):
            main(["compile", "(R|S1)(S1|S2)(S2|T)", "--p", "2",
                  "--load", path])

    def test_compile_load_corrupt_exits(self, tmp_path):
        path = tmp_path / "bad.ddnnf"
        path.write_bytes(b"not a circuit")
        with pytest.raises(SystemExit, match="not a serialized"):
            main(["compile", "(R|S1)(S1|T)", "--p", "2",
                  "--load", str(path)])

    def test_sweep(self, capsys):
        assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                     "--grid", "4"]) == 0
        out = capsys.readouterr().out
        assert "4-vector endpoint sweep" in out
        assert "compilations:" in out

    def test_sweep_without_endpoints_exits_friendly(self):
        """A query with no R/T atoms has nothing for the endpoint
        sweep to vary — refuse rather than print a constant grid."""
        with pytest.raises(SystemExit, match="neither endpoint"):
            main(["sweep", "(S1|S2)", "--p", "2", "--grid", "3"])

    def test_sweep_with_store_skips_recompilation(self, capsys,
                                                  tmp_path):
        from repro.tid import wmc

        store_dir = str(tmp_path / "store")
        try:
            wmc.clear_circuit_cache()  # cold start: populate the store
            assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                         "--grid", "4", "--store", store_dir]) == 0
            capsys.readouterr()
            wmc.clear_circuit_cache()  # cold memory, warm disk
            assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                         "--grid", "4", "--store", store_dir]) == 0
            out = capsys.readouterr().out
            assert "compilations: 0" in out
            assert "disk hits: 1" in out
        finally:
            wmc.set_circuit_store(None)
            wmc.clear_circuit_cache()

    def test_estimate(self, capsys):
        assert main(["estimate", "(R|S1)(S1|T)", "--p", "2",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "engine:     estimate" in out
        assert "interval:" in out
        assert "inside the interval" in out

    def test_estimate_deterministic_given_seed(self, capsys):
        assert main(["estimate", "(R|S1)(S1|T)", "--p", "2",
                     "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["estimate", "(R|S1)(S1|T)", "--p", "2",
                     "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_estimate_adaptive_engine(self, capsys):
        # B_7's probability is ~0.0025, so the Bernoulli variance is
        # tiny and the sequential estimator stops well short of the
        # 18445-draw Hoeffding worst case.
        assert main(["estimate", "(R|S1)(S1|T)", "--p", "7",
                     "--engine", "adaptive", "--epsilon", "1/100",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "engine:     adaptive" in out
        assert "early stop saved" in out
        assert "inside the interval" in out

    def test_estimate_relative_error_implies_adaptive(self, capsys):
        assert main(["estimate", "(R|S1)(S1|T)", "--p", "2",
                     "--epsilon", "1/50",
                     "--relative-error", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "engine:     adaptive" in out
        assert "relative:" in out

    @pytest.mark.parametrize("verb", ["estimate", "sweep", "compile"])
    @pytest.mark.parametrize("flag,value", [("--epsilon", "0"),
                                            ("--delta", "2")])
    def test_accuracy_flags_must_be_in_the_unit_interval(self, verb,
                                                         flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "(R|S1)(S1|T)", "--p", "2", flag, value])
        assert str(excinfo.value) == \
            f"repro: {flag} must be in (0, 1), got {value}"

    def test_estimate_relative_error_must_be_positive(self):
        with pytest.raises(SystemExit, match="relative-error"):
            main(["estimate", "(R|S1)(S1|T)", "--p", "2",
                  "--relative-error=-1/2"])

    def test_compile_budget_degrades_to_estimate(self, capsys):
        from repro.tid import wmc

        wmc.clear_circuit_cache()
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "exceeded 2 nodes" in out
        assert "samples:" in out

    @pytest.mark.parametrize("budget", [[], ["--budget", "2"]])
    def test_compile_refuses_bad_relative_error(self, budget):
        """The estimator flags are checked whether or not compilation
        stays under budget (before, an exact compile ignored them)."""
        with pytest.raises(SystemExit, match="relative-error must be "
                                             "positive, got 0"):
            main(["compile", "(R|S1)(S1|T)", "--p", "3",
                  "--relative-error", "0"] + budget)

    def test_sweep_budget_degrades_to_estimate(self, capsys):
        from repro.tid import wmc

        wmc.clear_circuit_cache()
        assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                     "--grid", "3", "--budget", "2",
                     "--epsilon", "1/10"]) == 0
        out = capsys.readouterr().out
        assert "engine:  estimate" in out
        assert "budget aborts: 1" in out

    def test_sweep_budget_adaptive_engine(self, capsys):
        from repro.tid import wmc

        wmc.clear_circuit_cache()
        assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                     "--grid", "3", "--budget", "2",
                     "--engine", "adaptive",
                     "--epsilon", "1/10"]) == 0
        out = capsys.readouterr().out
        assert "engine:  adaptive" in out
        assert "samples per vector" in out

    def test_sweep_budget_exact_when_under(self, capsys):
        assert main(["sweep", "(R|S1)(S1|T)", "--p", "2",
                     "--grid", "3", "--budget", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "engine:  exact" in out

    def test_compile_budget_save_fails_loudly(self, capsys, tmp_path):
        """--save with a blown budget must exit non-zero: the
        requested artifact was never produced."""
        from repro.tid import wmc

        wmc.clear_circuit_cache()
        path = str(tmp_path / "never.ddnnf")
        assert main(["compile", "(R|S1)(S1|T)", "--p", "2",
                     "--budget", "2", "--save", path]) == 1
        err = capsys.readouterr().err
        assert "--save" in err and "skipped" in err
        import os
        assert not os.path.exists(path)


Q = "(R|S1)(S1|T)"
#: Every `repro query` flag that sets a param, away from its default.
ALL_FLAGS = ["--p", "6", "--ps", "2,3", "--grid", "5", "--float",
             "--k", "3", "--method", "wmc", "--budget", "500",
             "--epsilon", "1/10", "--delta", "1/100", "--seed", "7",
             "--engine", "importance", "--relative-error", "1/2"]
#: The params `repro query <op> Q` sent when it listed each op's params
#: by hand: with no flags, and with ALL_FLAGS.
QUERY_PARAMS = {
    "compile": (
        {"query": Q, "p": 4},
        {"query": Q, "p": 6, "budget_nodes": 500}),
    "evaluate": (
        {"query": Q, "p": 4, "epsilon": "1/20", "delta": "1/20",
         "seed": 0},
        {"query": Q, "p": 6, "method": "wmc", "budget_nodes": 500,
         "epsilon": "1/10", "delta": "1/100", "seed": 7,
         "estimator": "importance", "relative_error": "1/2"}),
    "evaluate_batch": (
        None,  # exits: needs --ps
        {"query": Q, "ps": [2, 3], "method": "wmc", "budget_nodes": 500,
         "epsilon": "1/10", "delta": "1/100", "seed": 7,
         "estimator": "importance", "relative_error": "1/2"}),
    "sweep": (
        {"query": Q, "p": 4, "grid": 8, "epsilon": "1/20",
         "delta": "1/20", "seed": 0},
        {"query": Q, "p": 6, "grid": 5, "numeric": "float",
         "budget_nodes": 500, "epsilon": "1/10", "delta": "1/100",
         "seed": 7, "estimator": "importance", "relative_error": "1/2"}),
    "estimate": (
        {"query": Q, "p": 4, "epsilon": "1/20", "delta": "1/20",
         "seed": 0},
        {"query": Q, "p": 6, "epsilon": "1/10", "delta": "1/100",
         "seed": 7, "estimator": "importance", "relative_error": "1/2"}),
    "sample": (
        {"query": Q, "p": 4, "k": 1, "seed": 0},
        {"query": Q, "p": 6, "k": 3, "seed": 7, "budget_nodes": 500}),
    "top_k": (
        {"query": Q, "p": 4, "k": 1},
        {"query": Q, "p": 6, "k": 3, "budget_nodes": 500}),
    "stats": ({}, {}),
    "metrics": ({}, {}),
    "trace": ({}, {}),
    "ping": ({}, {}),
}


class TestQuerySends:
    """`repro query` derives what it sends from the op's OP_PARAMS row;
    it sends what it sent when it named each op's params by hand."""

    @pytest.fixture()
    def sent(self, monkeypatch):
        calls = []

        class Client:
            def call(self, op, **params):
                calls.append((op, params))
                return {}

            def shutdown(self):
                calls.append(("shutdown", None))
                return {}

        monkeypatch.setattr(cli, "_call_service",
                            lambda args, call, hint="": call(Client()))
        return calls

    @pytest.mark.parametrize("op", sorted(QUERY_PARAMS))
    @pytest.mark.parametrize("flags", [[], ALL_FLAGS],
                             ids=["no-flags", "all-flags"])
    def test_params_of_each_op(self, sent, capsys, op, flags):
        expected = QUERY_PARAMS[op][1 if flags else 0]
        if expected is None:
            with pytest.raises(SystemExit, match="needs --ps"):
                main(["query", op, Q, *flags])
            assert sent == []
            return
        assert main(["query", op, Q, *flags]) == 0
        assert sent == [(op, expected)]
        assert set(expected) <= set(OP_PARAMS[op])

    def test_ops_without_a_query_ignore_it(self, sent, capsys):
        for op in ("stats", "metrics", "trace", "ping"):
            assert main(["query", op]) == 0
        assert sent == [(op, {}) for op in ("stats", "metrics",
                                            "trace", "ping")]

    def test_shutdown_and_the_refusals(self, sent, capsys):
        assert main(["query", "shutdown", *ALL_FLAGS]) == 0
        assert sent == [("shutdown", None)]
        with pytest.raises(SystemExit, match="repro ctl store-gc"):
            main(["query", "store_gc"])
        with pytest.raises(SystemExit, match="'sweep' needs a query"):
            main(["query", "sweep", *ALL_FLAGS])
        with pytest.raises(SystemExit, match="bad --ps"):
            main(["query", "evaluate_batch", Q, "--ps", "a,b"])
        assert len(sent) == 1
