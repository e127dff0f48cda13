"""CLI subcommands, exit codes, and output determinism.

The exact output of the calls that CI also runs through the installed entry
points is kept in tests/cli_pins.txt, one entry per call; test_entry_point_pins
runs each entry here in process, and tests/cli_pins.py loads the file.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ktaquin import cli
from ktaquin import coefficients, equivalence, schur, suites
from ktaquin.cli import EXIT_INTERNAL
from ktaquin.cli import EXIT_DISAGREEMENT, EXIT_OK, EXIT_USAGE, main
from ktaquin.coefficients import DisagreementError, expand_product
from ktaquin.jdt import InternalInvariantError
from ktaquin.shapes import AmbientRectangle, format_partition, parse_partition, partitions_in_rectangle, star

import cli_pins
from helpers import drop_the_all_corners_strip


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoeffCommand:
    def test_splitting_with_checks(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]", "--check"
        )
        assert code == EXIT_OK
        assert "= -2" in out and "buch:ok" in out and "identity:ok" in out

    def test_f_checked_through_d_routes(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "F", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]", "--check"
        )
        assert code == EXIT_OK
        assert out.strip() == "F[2],[2,1]->[3,1] = -2  [buch:ok identity:ok]"

    @pytest.mark.parametrize(
        "kind, lam, mu, nu, line",
        [
            # equal factors: the swap would read the same memo entry, so no symmetry check
            ("C", "[1]", "[1]", "[2,1]", "C[1],[1]->[2,1] = -1  [buch:ok]"),
            ("C", "[2,1]", "[2,1]", "[3,2,1]", "C[2,1],[2,1]->[3,2,1] = 2  [buch:ok classical:ok]"),
            ("E", "[1]", "[1]", "[2,1]", "E[1],[1]->[2,1] = -3  [rook-strip:ok]"),
        ],
        ids=["C-k-theory", "C-classical", "E"],
    )
    def test_checked_product_lines(self, capsys, kind, lam, mu, nu, line):
        code, out, _ = run(capsys, "coeff", kind, "--lambda", lam, "--mu", mu, "--nu", nu, "--check")
        assert code == EXIT_OK
        assert out.strip() == line

    @pytest.mark.parametrize("kind", ["C", "D", "E", "F", "c"])
    @pytest.mark.parametrize(
        "lam, mu, nu", [("[2]", "[2,1]", "[3,1]"), ("[2,1]", "[1]", "[3,1]"), ("[1]", "[1]", "[2,1]")]
    )
    def test_check_prints_the_unchecked_value(self, capsys, kind, lam, mu, nu):
        argv = ["coeff", kind, "--lambda", lam, "--mu", mu, "--nu", nu]
        code, plain, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, checked, _ = run(capsys, *argv, "--check")
        assert code == EXIT_OK
        assert checked.startswith(plain.rstrip("\n") + "  [")

    def test_ideal_sheaf_value(self, capsys):
        code, out, _ = run(capsys, "coeff", "E", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2,1]")
        assert code == EXIT_OK
        assert "= -3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "--json", "coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == -2

    @pytest.mark.parametrize(
        "kind, lam, mu, nu, value",
        [
            ("C", "[1]", "[1]", "[2,1]", -1),
            ("D", "[2]", "[2,1]", "[3,1]", -2),
            ("E", "[1]", "[1]", "[2,1]", -3),
            ("F", "[2]", "[2,1]", "[3,1]", -2),
            ("c", "[2,1]", "[2,1]", "[3,2,1]", 2),
        ],
    )
    def test_every_kind_without_checks(self, capsys, kind, lam, mu, nu, value):
        code, out, _ = run(capsys, "coeff", kind, "--lambda", lam, "--mu", mu, "--nu", nu)
        assert code == EXIT_OK
        assert out.strip() == f"{kind}{lam},{mu}->{nu} = {value}"

    @pytest.mark.parametrize(
        "kind, check",
        [("C", True), ("E", True), ("c", True), ("D", False), ("F", False)],
        ids=["C-check", "E-check", "c-check", "D", "F"],
    )
    def test_frame_outside_the_identity_check(self, capsys, kind, check):
        argv = ["coeff", kind, "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--frame", "1,3,1,3"]
        code, out, err = run(capsys, *argv, *(["--check"] if check else []))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --frame applies to coeff D and F with --check only\n"

    def test_empty_frame_is_refused(self, capsys):
        argv = ["coeff", "D", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--check", "--frame", ""]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: bad frame ''")

    def test_frame_with_no_second_factor_names_the_fault(self, capsys):
        argv = ["coeff", "D", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--check", "--frame", "3,3,1,2"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: need 0 < k1 < n1 and 0 < k2 < n2, got DirectSumFrame(k1=3, n1=3, k2=1, n2=2)\n"

    @pytest.mark.parametrize("kind", ["D", "F"])
    def test_frame_for_the_identity_check(self, capsys, kind):
        argv = ["coeff", kind, "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]", "--frame", "1,4,2,4"]
        code, out, _ = run(capsys, *argv, "--check")
        assert code == EXIT_OK
        assert out.strip() == f"{kind}[2],[2,1]->[3,1] = -2  [buch:ok identity:ok]"

    def test_identity_never_reads_d_own_row_in_a_user_frame(self, capsys, monkeypatch):
        # in frame 1,3,2,5 the first rectangle is lambda[0] wide and the second has
        # len(mu) rows, so read there the identity's C shape would be star(lambda, mu)
        reads = []
        count = coefficients._memoized_count

        def spy(kind, lam, mu, nu):
            reads.append((kind, lam, mu, nu))
            return count(kind, lam, mu, nu)

        monkeypatch.setattr(coefficients, "_memoized_count", spy)
        argv = ["coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]", "--frame", "1,3,2,5"]
        code, out, _ = run(capsys, *argv, "--check")
        assert code == EXIT_OK
        assert out.strip() == "D[2],[2,1]->[3,1] = -2  [buch:ok identity:ok]"
        c_shapes = [(outer, inner) for kind, inner, _, outer in reads if kind == "C"]
        own = star((2,), (2, 1))
        assert len(c_shapes) == 1 and c_shapes[0] != (own.outer, own.inner)

    def test_a_failed_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(coefficients, "coeff_E_via_C", lambda lam, mu, nu: 0)
        code, out, err = run(capsys, "coeff", "E", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2,1]", "--check")
        assert code == EXIT_DISAGREEMENT and err == ""
        assert out == "E[1],[1]->[2,1] = -3  [rook-strip:DISAGREE]\n"

    @pytest.mark.parametrize("check", [(), ("--check",)], ids=["plain", "checked"])
    def test_a_computed_value_of_the_wrong_sign_exits_3(self, capsys, monkeypatch, check):
        # the shapes are valid and the engine is wrong: an invariant violation, not a usage error
        real = coefficients._COUNTS["D"]
        monkeypatch.setitem(coefficients._COUNTS, "D", lambda *shapes: abs(real(*shapes)))
        coefficients._memo.clear()
        try:
            code, out, err = run(capsys, "coeff", "D", "--lambda", "[2]", "--mu", "[2]", "--nu", "[3]", *check)
        finally:
            coefficients._memo.clear()  # no later test reads the mutant's count
        assert code == EXIT_INTERNAL and out == ""
        verdicts = "; checks run: buch:DISAGREE identity:DISAGREE" if check else ""
        assert err == (
            "internal invariant violation: D coefficient 1 violates the predicted sign for (2,), (2,) -> (3,)"
            f"{verdicts}\n"
        )

    def test_a_cached_value_of_the_wrong_sign_is_a_cache_error(self, capsys, tmp_path):
        # outside input, so it keeps exit 2 while a computed one exits 3
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"kind": "D", "lambda": [2], "mu": [2], "nu": [3], "value": 1}) + "\n")
        code, out, err = run(capsys, "coeff", "D", "--lambda", "[2]", "--mu", "[2]", "--nu", "[3]", "--cache", str(path))
        assert code == EXIT_DISAGREEMENT and out == ""
        assert err == f"cache error: {path}:1: D coefficient 1 violates the predicted sign for (2,), (2,) -> (3,)\n"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "coeff", "D", "--lambda", "oops", "--mu", "[]", "--nu", "[]")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_cache_append_and_conflict(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        code, _, _ = run(
            capsys, "coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]",
            "--cache", path,
        )
        assert code == EXIT_OK
        with open(path, "a") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "D", "lambda": [2], "mu": [2, 1], "nu": [3, 1],
                        "value": -4, "method": "jdt", "checks": [],
                        "timestamp": 0, "version": "x",
                    }
                )
                + "\n"
            )
        code, _, err = run(
            capsys, "coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]",
            "--cache", path,
        )
        assert code == EXIT_DISAGREEMENT
        assert "disagreement" in err


    def test_json_output_is_the_cache_line_without_provenance(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        code, out, _ = run(
            capsys, "--json", "coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]",
            "--check", "--cache", str(path),
        )
        assert code == EXIT_OK
        line = json.loads(path.read_text())
        assert line.pop("timestamp") and line.pop("version")
        assert json.loads(out) == line

    def test_cache_torn_final_line(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        argv = ("coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--cache", path)
        assert run(capsys, *argv)[0] == EXIT_OK
        with open(path, "a") as fh:
            fh.write('{"kind": "C", "lambda"')
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DISAGREEMENT
        assert f"{path}:2: malformed JSON" in err and "Traceback" not in err
        with open(path) as fh:
            last = fh.read().splitlines()[-1]
        assert json.loads(last)["kind"] == "C"  # the new record is on a line of its own

    def test_cache_missing_field(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "C", "lambda": [1], "mu": [1], "value": 1}) + "\n")
        code, _, err = run(
            capsys, "coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--cache", path
        )
        assert code == EXIT_DISAGREEMENT
        assert f"{path}:1: missing field 'nu'" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unusable_cache_path(self, capsys, tmp_path, where):
        path = str(tmp_path / "absent" / "c.jsonl") if where == "missing-directory" else str(tmp_path)
        code, out, err = run(
            capsys, "coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--cache", path
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot use the cache:") and path in err
        assert out == ""  # a failed call prints no value


class TestCacheEnvVar:
    def test_env_default_path(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "env-cache.jsonl")
        monkeypatch.setenv("KTAQUIN_CACHE", path)
        code, _, _ = run(capsys, "coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]")
        assert code == EXIT_OK
        with open(path) as fh:
            assert '"kind": "C"' in fh.read()


class TestExpandCommand:
    def test_product(self, capsys):
        code, out, _ = run(
            capsys, "--json", "expand", "--op", "product", "--lambda", "[1]", "--mu", "[1]",
            "--ambient", "2,4",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"[1,1]": 1, "[2]": 1, "[2,1]": -1}

    def test_coproduct(self, capsys):
        code, out, _ = run(
            capsys, "--json", "expand", "--op", "coproduct", "--nu", "[1]", "--frame", "1,2,1,2"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"[]|[1]": 1, "[1]|[]": 1, "[1]|[1]": -1}

    def test_every_product_table_passes_the_euler_characteristic_gate(self, capsys):
        sums = set()
        for k, n in [(2, 4), (3, 5)]:
            parts = list(partitions_in_rectangle(k, n - k))
            for lam in parts:
                for mu in parts:
                    code, out, err = run(
                        capsys, "--json", "expand", "--op", "product", "--lambda", format_partition(lam),
                        "--mu", format_partition(mu), "--ambient", f"{k},{n}",
                    )
                    assert (code, err) == (EXIT_OK, ""), (lam, mu, k, n)
                    sums.add(sum(json.loads(out).values()))
        assert sums == {0, 1}  # both sides of the rule are met

    @pytest.mark.parametrize(
        "lam, mu, change",
        [("[1]", "[1]", {(2, 1): 0}), ("[2,2]", "[1]", {(2, 2): 1}), ("[2]", "[2]", {(2, 2): 2})],
        ids=["zeroed-term", "term-beyond-the-dual", "wrong-value"],
    )
    def test_a_wrong_product_table_is_refused(self, capsys, monkeypatch, lam, mu, change):
        # a mutant C: the library's gate raises, for Python callers and the CLI alike
        real = coefficients.coeff_C

        def mutant(a, b, nu):
            return change.get(nu, real(a, b, nu))

        monkeypatch.setattr(coefficients, "coeff_C", mutant)
        with pytest.raises(DisagreementError, match="the Euler characteristic rule gives"):
            expand_product(parse_partition(lam), parse_partition(mu), AmbientRectangle(2, 4))
        code, out, err = run(
            capsys, "expand", "--op", "product", "--lambda", lam, "--mu", mu, "--ambient", "2,4"
        )
        assert code == EXIT_DISAGREEMENT and out == ""
        assert err.startswith(f"disagreement: the structure-sheaf table of {lam} x {mu} in 2,4 sums to")
        assert "the Euler characteristic rule gives" in err

    def test_a_wrong_ideal_sheaf_table_is_refused(self, capsys, monkeypatch):
        drop_the_all_corners_strip(monkeypatch)
        code, out, err = run(
            capsys, "expand", "--op", "product", "--basis", "ideal-sheaf",
            "--lambda", "[2]", "--mu", "[1]", "--ambient", "2,4",
        )
        assert code == EXIT_DISAGREEMENT and out == ""
        assert err.startswith(
            "disagreement: the ideal-sheaf table of [2] x [1] in 2,4 has 0 at the full rectangle, "
            "but the duality of the two bases gives -1"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--op", "product", "--mu", "[1]", "--ambient", "2,4"),
            ("--op", "product", "--lambda", "[1]", "--ambient", "2,4"),
            ("--op", "product", "--lambda", "[1]", "--mu", "[1]"),
            ("--op", "coproduct", "--frame", "1,3,2,4"),
            ("--op", "coproduct", "--nu", "[1]"),
        ],
        ids=["product-lambda", "product-mu", "product-ambient", "coproduct-nu", "coproduct-frame"],
    )
    def test_missing_option(self, capsys, argv):
        code, _, err = run(capsys, "expand", *argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {argv[1]} expansion needs")

    def test_ambient_with_k_equal_n_names_the_fault(self, capsys):
        argv = ["expand", "--op", "product", "--lambda", "[1]", "--mu", "[1]", "--ambient", "3,3"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: need 0 < k < n, got k=3, n=3\n"

    def test_malformed_ambient(self, capsys):
        argv = ["expand", "--op", "product", "--lambda", "[1]", "--mu", "[1]", "--ambient", "3"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: bad ambient '3': expected k,n\n"

    @pytest.mark.parametrize(
        "argv, stray",
        [
            (("--op", "product", "--lambda", "[1]", "--mu", "[1]", "--ambient", "2,4", "--nu", "[5]"),
             "--nu"),
            (("--op", "product", "--lambda", "[1]", "--mu", "[1]", "--ambient", "2,4",
              "--nu", "[5]", "--frame", "1,2,1,2"), "--nu, --frame"),
            (("--op", "coproduct", "--nu", "[1]", "--frame", "1,2,1,2", "--lambda", "[1]"), "--lambda"),
            (("--op", "coproduct", "--nu", "[1]", "--frame", "1,2,1,2", "--mu", "[1]"), "--mu"),
            (("--op", "coproduct", "--nu", "[1]", "--frame", "1,2,1,2", "--ambient", "2,4"), "--ambient"),
        ],
        ids=["product-nu", "product-nu-frame", "coproduct-lambda", "coproduct-mu", "coproduct-ambient"],
    )
    def test_option_of_the_other_op(self, capsys, argv, stray):
        code, out, err = run(capsys, "expand", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {argv[1]} expansion does not take {stray}\n"


class TestVerifyCommand:
    def test_named_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "star-groups")
        assert code == EXIT_OK
        assert "[ok] star-groups" in out

    def test_json_output_is_one_document(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "products")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [(r["name"], r["ok"]) for r in doc] == [("products", True)]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == EXIT_USAGE

    def test_seeded_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "random-equivalence", "--seed", "3")
        assert code == EXIT_OK
        assert "seed=3" in out

    def test_seed_for_an_unseeded_suite(self, capsys):
        code, out, err = run(capsys, "verify", "star-groups", "--seed", "3")
        assert code == EXIT_USAGE and out == ""
        assert "star-groups" in err
        assert all(name in err for name in suites.SEEDED_SUITES)


class TestOtherCommands:
    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert out.startswith("usage: ktaquin")

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        def broken(t, order):
            raise InternalInvariantError("adjacent bullets at (1, 1), (1, 2)")

        monkeypatch.setattr(cli, "krect", broken)
        code, out, err = run(capsys, "rectify", "--tableau", ". 1\n1")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal invariant violation: adjacent bullets at (1, 1), (1, 2)\n"

    def test_schur_residual_exits_3(self, capsys, monkeypatch):
        # a Schur table that gains a constant term leaves monomials that no peel removes
        real = schur._schur_monomials
        monkeypatch.setattr(schur, "_schur_monomials", lambda lam, nvars, base: {**real(lam, nvars, base), 0: 1})
        code, out, err = run(
            capsys, "coeff", "c", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", "[3,2,1]", "--check"
        )
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal invariant violation: polynomial is not a nonnegative-length Schur combination\n"

    @pytest.mark.parametrize(
        "argv", [["counterexample", "--lambda", "[2,1]"], ["verify", "sharpness"]], ids=["counterexample", "verify"]
    )
    def test_witness_search_that_runs_dry_exits_3(self, capsys, monkeypatch, argv):
        # the theorem gives every non-rectangle a witness, so finding none is an engine fault
        monkeypatch.setattr(equivalence, "_seed_instance", lambda lam: None)
        monkeypatch.setattr(equivalence, "_search_candidates", lambda lam: iter(()))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal invariant violation: no divergent instance found over (2, 1)\n"

    def test_an_unexpected_exception_exits_3(self, capsys, monkeypatch):
        # no traceback leaves the CLI: a fault of a type main does not name is an engine fault too
        def broken(lam, mu, nu):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(coefficients.KINDS, "C", broken)
        code, out, err = run(capsys, "coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal error: TypeError: unsupported operand\n"

    def test_faulty_sharpness_search_exits_3(self, capsys, monkeypatch):
        # the fault hits one inner shape of the sweep, not the golden instances after it
        real = equivalence.krect

        def faulty(t, order=None):
            if t.inner == (3, 1):
                raise InternalInvariantError("adjacent bullets at (1, 1), (1, 2)")
            return real(t, order)

        monkeypatch.setattr(equivalence, "krect", faulty)
        code, out, err = run(capsys, "verify", "sharpness")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal invariant violation: adjacent bullets at (1, 1), (1, 2)\n"

    def test_module_entry_point(self):
        # ``python -m ktaquin`` runs the same main as the installed script
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "ktaquin", "--help"], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True,
        )
        assert out.returncode == EXIT_OK
        assert out.stdout.startswith("usage:") and "coeff" in out.stdout

    def test_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "--json", "enumerate", "--outer", "[4,3,2]", "--inner", "[2,2]",
            "--max-entry", "3",
        )
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 15

    def test_enumerate_set_valued(self, capsys):
        code, out, _ = run(
            capsys, "--json", "enumerate", "--outer", "[3,1]", "--kind", "set-valued", "--content", "2,2,1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 4

    def test_enumerate_augmented_as_text(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--outer", "[2,1]", "--inner", "[1]", "--kind", "augmented", "--max-entry", "1"
        )
        assert code == EXIT_OK
        assert out == "3 tableaux\n. 1\n1\n\n. X\n1\n\n. 1\nX\n"

    def test_enumerate_set_valued_needs_content(self, capsys):
        code, out, err = run(capsys, "enumerate", "--outer", "[2]", "--kind", "set-valued")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: set-valued enumeration needs --content a,b,c\n"

    def test_enumerate_negative_content(self, capsys):
        code, out, err = run(capsys, "enumerate", "--outer", "[2]", "--kind", "set-valued", "--content=-1,2,1")
        assert code == EXIT_USAGE and out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize(
        "option, kind_args",
        [
            ("--inner", ["--kind", "set-valued", "--content", "1,1"]),
            ("--content", ["--kind", "increasing"]),
            ("--content", ["--kind", "augmented"]),
        ],
        ids=["set-valued-inner", "increasing-content", "augmented-content"],
    )
    def test_enumerate_option_of_another_kind(self, capsys, option, kind_args):
        value = "[1]" if option == "--inner" else "1,1"
        code, out, err = run(capsys, "enumerate", "--outer", "[2]", *kind_args, option, value)
        assert code == EXIT_USAGE and out == ""
        assert option in err

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("augmented", ["--surjective"]),
            ("set-valued", ["--surjective"]),
            ("set-valued", ["--max-entry", "1"]),
            ("set-valued", ["--surjective", "--max-entry", "1"]),
        ],
        ids=["augmented-surjective", "set-valued-surjective", "set-valued-max-entry", "set-valued-both"],
    )
    def test_enumerate_flag_of_another_kind(self, capsys, kind, extra):
        content = ["--content", "1,1"] if kind == "set-valued" else []
        code, out, err = run(capsys, "--json", "enumerate", "--outer", "[2]", "--kind", kind, *content, *extra)
        assert code == EXIT_USAGE and out == ""
        assert extra[0] in err

    def test_enumerate_content_that_is_not_an_integer(self, capsys):
        code, out, err = run(capsys, "enumerate", "--outer", "[2]", "--kind", "set-valued", "--content", "1,x")
        assert code == EXIT_USAGE and out == ""
        assert "--content" in err and "invalid literal" not in err

    def test_enumerate_negative_limit(self, capsys):
        code, out, err = run(capsys, "enumerate", "--outer", "[2,1]", "--limit", "-1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --limit must be nonnegative, got -1\n"

    def test_enumerate_zero_limit_prints_the_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--outer", "[2,1]", "--limit", "0")
        assert code == EXIT_OK
        assert out == "14 tableaux\n\n"

    def test_enumerate_default_max_entry(self, capsys):
        code, out, _ = run(capsys, "--json", "enumerate", "--outer", "[1]")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 4

    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--lambda", "[2,1]")
        assert code == EXIT_OK
        assert "[3,3,2]" in out

    def test_product_ops(self, capsys):
        code, out, _ = run(
            capsys, "product", "--op", "diamond", "--left", "1 2 3\n2 4 5", "--right", "1 2"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["1 2 3", "2 3 5", "4"]
        code, out, _ = run(capsys, "product", "--op", "insert", "--left", "1", "--right", "2")
        assert code == EXIT_OK
        assert out.strip() == "1 2"

    @pytest.mark.parametrize(
        "op, left, right",
        [("odot", "1 X", "1"), ("diamond", "1 2", "{1,2}"), ("insert", "{1,2}", "3")],
        ids=["odot-marked", "diamond-set-valued", "insert-set-valued"],
    )
    def test_product_refuses_other_tableau_types(self, capsys, op, left, right):
        code, out, err = run(capsys, "product", "--op", op, "--left", left, "--right", right)
        assert code == EXIT_USAGE and out == ""
        assert "must be an increasing tableau" in err and "Traceback" not in err

    def test_insert_letter_that_is_not_an_integer(self, capsys):
        code, out, err = run(capsys, "product", "--op", "insert", "--left", "1", "--right", "x")
        assert code == EXIT_USAGE and out == ""
        assert "--right" in err and "invalid literal" not in err

    def test_rectify_with_order(self, capsys):
        code, out, _ = run(
            capsys, "rectify", "--tableau", ". . 2\n. 1 4\n1 3", "--order", "1 3\n2"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["1 2 4", "3 4"]

    def test_determinism(self, capsys):
        args = ("--json", "expand", "--op", "product", "--lambda", "[2,1]", "--mu", "[1]",
                "--ambient", "3,6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


@pytest.mark.parametrize("pin", cli_pins.load(), ids=lambda pin: pin.args)
def test_entry_point_pins(capsys, monkeypatch, tmp_path, pin):
    # each entry of tests/cli_pins.txt, which CI runs through the installed entry points
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    cache = pin.cache_at(tmp_path / "cache.jsonl")
    code, out, err = run(capsys, *pin.argv(cache))
    assert (code, out.splitlines(), err.splitlines()) == pin.expected(cache)


@pytest.mark.parametrize(
    "text, fault",
    [
        ("", ": no pins"),
        ("# a comment only\n", ": no pins"),
        ("$ --help\n= 0\n", ":2: a pin line starts with"),
        ("$ --help\n>no space\n", ":2: a pin line starts with"),
        ("> a line\n$ --help\n", ":1: > line before the first $ line"),
        ("! a line\n$ --help\n", ":1: ! line before the first $ line"),
        ("? 1\n$ --help\n", ":1: ? line before the first $ line"),
        ("< a line\n$ --help\n", ":1: < line before the first $ line"),
        ("$ --help\n? x\n", ":2: one exit code per entry"),
        ("$ --help\n? 1\n? 1\n", ":3: one exit code per entry"),
        ("$ product --left '1\n", ":1: No closing quotation"),
    ],
    ids=["empty", "comment-only", "unknown-prefix", "no-space", "out-first", "err-first", "code-first",
         "cache-first", "non-integer-code", "second-code", "open-quote"],
)
def test_a_bad_pin_file_is_refused_naming_the_line(tmp_path, text, fault):
    # a typo must never drop a pin, and an empty file would leave the test above with no cases
    path = tmp_path / "pins.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}{fault}")):
        cli_pins.load(path)
