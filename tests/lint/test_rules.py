"""Golden-file tests: each rule fires with exact IDs and line numbers."""

from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.hot import hot_kernel, hot_kernels, is_hot
from repro.lint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    violations, checked = lint_paths([str(FIXTURES / name)])
    assert checked == 1
    return [(v.rule, v.line) for v in violations]


class TestGoldenFixtures:
    def test_good_fixture_clean(self):
        assert lint_fixture("good_soa.py") == []

    def test_r001_exact_line(self):
        assert lint_fixture("bad_r001.py") == [("R001", 8)]

    def test_r002_exact_lines(self):
        assert lint_fixture("bad_r002.py") == [
            ("R002", 8), ("R002", 9), ("R002", 11)]

    def test_r003_exact_lines(self):
        assert lint_fixture("bad_r003.py") == [("R003", 9), ("R003", 10)]

    def test_r004_exact_lines(self):
        assert lint_fixture("bad_r004.py") == [("R004", 11), ("R004", 12)]

    def test_r005_exact_lines(self):
        assert lint_fixture("bad_r005.py") == [
            ("R005", 9), ("R005", 10), ("R005", 11)]

    def test_noqa_suppresses_named_rule(self):
        assert lint_fixture("suppressed.py") == []

    def test_r006_exact_lines(self):
        assert lint_fixture("bad_r006.py") == [
            ("R006", 11), ("R006", 12), ("R006", 13)]

    def test_r006_clean(self):
        assert lint_fixture("good_r006.py") == []

    def test_r007_exact_lines(self):
        assert lint_fixture("bad_r007.py") == [("R007", 8), ("R007", 10)]

    def test_r007_clean(self):
        assert lint_fixture("good_r007.py") == []

    def test_r008_exact_lines(self):
        assert lint_fixture("bad_r008.py") == [
            ("R008", 7), ("R008", 8), ("R008", 9),
            ("R008", 13), ("R008", 14)]

    def test_r008_clean(self):
        assert lint_fixture("good_r008.py") == []

    def test_r009_exact_lines(self):
        assert lint_fixture("bad_r009.py") == [("R009", 10), ("R009", 13)]

    def test_r009_clean(self):
        assert lint_fixture("good_r009.py") == []

    def test_r010_exact_lines(self):
        assert lint_fixture("bad_r010.py") == [
            ("R010", 10), ("R010", 11), ("R010", 12), ("R010", 13)]

    def test_r010_clean(self):
        assert lint_fixture("good_r010.py") == []

    def test_r012_exact_lines(self):
        assert lint_fixture("bad_r012.py") == [("R012", 10), ("R012", 12)]

    def test_r012_clean(self):
        assert lint_fixture("good_r012.py") == []

    def test_r012_cold_scope_quiet(self):
        src = (
            "def bench(backend, xs, n):\n"
            "    for k in range(n):\n"
            "        backend.det_ratio(xs, xs, k)\n"
        )
        assert lint_source(src, "x.py", ALL_RULES) == []

    def test_w002_flags_stale_suppression(self):
        assert lint_fixture("stale_noqa.py") == [("W002", 9)]


class TestScopeResolution:
    def test_decorator_marks_scope_hot(self):
        src = (
            "import numpy as np\n"
            "from repro.lint.hot import hot_kernel\n"
            "@hot_kernel\n"
            "def kernel(r):\n"
            "    return np.asarray(r, dtype=np.float64)\n"
        )
        hits = [(v.rule, v.line) for v in lint_source(src, "x.py", ALL_RULES)]
        assert hits == [("R002", 5)]

    def test_cold_pragma_overrides_hot_module(self):
        src = (
            "# repro: hot\n"
            "import numpy as np\n"
            "def setup(r):  # repro: cold\n"
            "    return np.asarray(r, dtype=np.float64)\n"
        )
        assert lint_source(src, "x.py", ALL_RULES) == []

    def test_bare_noqa_suppresses_rules_but_warns(self):
        src = (
            "# repro: hot\n"
            "import numpy as np\n"
            "def kernel(r):\n"
            "    return np.asarray(r, dtype=np.float64)  # repro: noqa\n"
        )
        hits = [(v.rule, v.line) for v in lint_source(src, "x.py", ALL_RULES)]
        assert hits == [("W001", 4)]

    def test_scoped_noqa_emits_no_warning(self):
        src = (
            "# repro: hot\n"
            "import numpy as np\n"
            "def kernel(r):\n"
            "    return np.asarray(r, dtype=np.float64)  # repro: noqa R002\n"
        )
        assert lint_source(src, "x.py", ALL_RULES) == []

    def test_unmarked_module_is_cold(self):
        src = (
            "import numpy as np\n"
            "def kernel(r):\n"
            "    return np.asarray(r, dtype=np.float64)\n"
        )
        assert lint_source(src, "x.py", ALL_RULES) == []

    def test_syntax_error_reported_as_e999(self):
        hits = lint_source("def broken(:\n", "x.py", ALL_RULES)
        assert [v.rule for v in hits] == ["E999"]


class TestHotRegistry:
    def test_decorator_is_transparent_and_registers(self):
        @hot_kernel
        def fn():
            return 42

        assert fn() == 42
        assert is_hot(fn)
        assert any(name.endswith("fn") for name in hot_kernels())

    def test_class_decoration_marks_instances(self):
        from repro.jastrow.j2 import TwoBodyJastrowOtf

        assert is_hot(TwoBodyJastrowOtf)

    def test_repo_kernels_are_registered(self):
        from repro.splines.bspline3d import BSpline3D

        assert is_hot(BSpline3D.multi_v)
        assert is_hot(BSpline3D.multi_vgh)
