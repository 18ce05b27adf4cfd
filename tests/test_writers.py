"""The block writers against the row-at-a-time formatting in ``reference``,
byte for byte: trace CSV lines, certificate CSV and report, SVG polyline
points and scatter circles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lyapcert import (HB, KINDS, TMM, MethodSpec, analyze, certificate_csv_text,
                      certificate_report_text, optimal_hyperparams)
from lyapcert import _g17, svgplot
from lyapcert import trace as trace_module
from lyapcert.cli import main
from lyapcert.spectral import SpectralCertificate
from lyapcert.trace import _csv_chunks
import reference

# every value class a double can hold, plus ones whose 17-digit forms need all
# 17 digits (0.1, 1/3) or switch between fixed and exponent notation
EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                 math.inf, -math.inf, math.nan, 1.0, -1.0 / 3.0, 0.1, 1e-5,
                 1e-4, 1e16, 1e17, 123456789.12345679, -2.5])


def rolled(shift: int) -> np.ndarray:
    return np.roll(EDGE, shift)


def assert_same_text(got: str, want: str):
    """Equal texts; a difference is named by its first line (pytest's diff of
    two long texts takes minutes)."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"line {i}: {g!r} != {w!r}")


def _csv_lines(k0, gap, dist, lyap):
    return "".join(_csv_chunks(k0, gap, dist, lyap))


class TestTraceCsvLines:
    @pytest.mark.parametrize("k0", [0, 1, 2, 1027, 10 ** 6])
    def test_every_value_in_every_column(self, k0):
        # V runs through NaN in the middle of the block, and each column
        # meets every edge value once
        for shift in range(3):
            gap, dist, lyap = rolled(shift), rolled(shift + 7), rolled(shift + 13)
            assert_same_text(_csv_lines(k0, gap, dist, lyap),
                             reference.trace_csv_lines(k0, gap, dist, lyap))

    def test_first_rows_without_v(self, rng):
        gap, dist = rng.standard_normal(512) ** 2, rng.random(512)
        lyap = np.concatenate([[math.nan, math.nan], rng.standard_normal(510)])
        text = _csv_lines(0, gap, dist, lyap)
        assert_same_text(text, reference.trace_csv_lines(0, gap, dist, lyap))
        assert text.startswith(f"0,{gap[0]:.17g},{dist[0]:.17g},\n1,")

    def test_nan_v_in_the_middle(self):
        ones = np.ones(5)
        lyap = np.array([1.0, 2.0, math.nan, 3.0, math.nan])
        assert _csv_lines(40, ones, ones, lyap) == "40,1,1,1\n41,1,1,2\n42,1,1,\n43,1,1,3\n44,1,1,\n"

    @pytest.mark.parametrize("v", [math.nan, 0.5])
    @pytest.mark.parametrize("m", [0, 1])
    def test_tiny_blocks(self, m, v):
        gap, dist, lyap = np.full(m, 0.1), np.full(m, 1e-300), np.full(m, v)
        assert_same_text(_csv_lines(7, gap, dist, lyap),
                         reference.trace_csv_lines(7, gap, dist, lyap))


def edge_certificate(n: int) -> SpectralCertificate:
    cols = [rolled(j)[:n] for j in range(7)]
    conj = np.arange(n) % 3 != 1
    return SpectralCertificate(
        method=MethodSpec(TMM, alpha=0.1, beta=0.5, gamma=0.25),
        per_coordinate=np.rec.fromarrays(
            cols + [conj], names="lambda_w,a,b,re,im,re2,rate,conjugate_pair"),
        spectral_radius=1.0, eligible=False, equal_start_monotone=False)


def assert_certificate_parity(cert):
    assert_same_text(certificate_csv_text(cert), reference.certificate_csv_text(cert))
    assert_same_text(certificate_report_text(cert), reference.certificate_report_text(cert))


class TestCertificateText:
    @pytest.mark.parametrize("n", [1, 2, len(EDGE)])
    def test_every_value_in_every_column(self, n):
        assert_certificate_parity(edge_certificate(n))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 10001])
    def test_tuned_certificates(self, kind, n):
        # 10001 coordinates: the index outgrows its 4-wide column; TMM's
        # grids carry real-split rows
        grid = np.linspace(1.0, 1000.0, n) if n > 1 else np.array([1.0])
        cert = analyze(optimal_hyperparams(kind, 1.0, 1000.0), grid)
        assert_certificate_parity(cert)
        if kind == TMM:
            assert not cert.per_coordinate.conjugate_pair.all()
        if n == 10001:
            assert "\n10000 1000 " in certificate_report_text(cert)

    def test_flag_column(self):
        cert = analyze(optimal_hyperparams(HB, 1.0, 4.0), np.array([0.0, 1.0]))
        rows = certificate_csv_text(cert).splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["0", "1"]


class TestBlockSizes:
    """The bytes do not depend on how many rows the trace driver advances at
    a time or how many rows ``csv_rows`` formats at a time."""

    @pytest.fixture
    def run_csv(self, tmp_path, capsys):
        def run():
            path = tmp_path / "t.csv"
            assert main(["run", "--method", "nag", "--optimal", "--dim", "300", "--mu", "1",
                         "--L", "1e4", "--iters", "2000", "--out", str(path)]) == 0
            capsys.readouterr()
            return path.read_bytes()
        return run

    def test_run_csv(self, monkeypatch, run_csv):
        want = run_csv()
        assert want.count(b"\n") == 2001
        # a block of at most _ROWS rows is formatted in one piece, so the
        # pairs with rows > chunk repeat the pair (chunk, chunk)
        for chunk, rows in itertools.product([1, 3, 512, 5000], [1, 7, 512]):
            if rows > chunk:
                continue
            monkeypatch.setattr(trace_module, "_CHUNK", chunk)
            monkeypatch.setattr(_g17, "_ROWS", rows)
            assert run_csv() == want, (chunk, rows)

    def test_certificate_csv(self, monkeypatch):
        cert = analyze(optimal_hyperparams(TMM, 1.0, 1000.0), np.linspace(1.0, 1000.0, 2000))
        want = certificate_csv_text(cert)
        for rows in (1, 7, 512):
            monkeypatch.setattr(_g17, "_ROWS", rows)
            assert certificate_csv_text(cert) == want, rows


BOX = (64, 28, 446, 300)


class TestSvgPoints:
    @pytest.mark.parametrize("lo, hi, xmax", [(-16, 0, 1999.0), (-324, 309, 1.0),
                                              (-3, -2, 1e-300)])
    def test_polyline_points(self, lo, hi, xmax):
        # log10 needs y > 0; NaN and inf still format as the reference does
        y = EDGE[~(EDGE <= 0.0)]
        for x in (np.arange(y.shape[0], dtype=float), np.roll(EDGE, 3)[:y.shape[0]]):
            with np.errstate(over="ignore", invalid="ignore"):
                got = svgplot._polyline_points(x, y, BOX, lo, hi, xmax)
                want = reference.svg_polyline_points(x, y, BOX, lo, hi, xmax)
            assert_same_text(got.replace(" ", "\n"), want.replace(" ", "\n"))

    def test_polyline_of_no_points(self):
        empty = np.array([])
        assert svgplot._polyline_points(empty, empty, BOX, -16, 0, 1.0) == ""

    @pytest.mark.parametrize("scale", [80.0, 1e-300, 0.0])
    def test_circles(self, scale):
        for shift in range(3):
            x, y = rolled(shift), rolled(shift + 5)
            with np.errstate(over="ignore", invalid="ignore"):
                got = svgplot._circles(x, y, 255.0, 164.0, scale, "#1f77b4")
                want = reference.svg_circles(x, y, 255.0, 164.0, scale, "#1f77b4")
            assert_same_text(got, "\n".join(want))


def g17_text(x: float) -> str:
    return bytes(_g17.g17_fields(x)).replace(b"\0", b"").decode("ascii")


class TestG17Property:
    """``g17_fields`` against Python's ``'%.17g'`` on drawn values, beyond the
    fixed ``EDGE`` ones: any double, integers (zero-padded digits) and
    fractions in [1e-5, 1) (the ``0.000`` prefix slots)."""

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_any_double(self, x):
        assert g17_text(x) == "%.17g" % x

    @given(st.integers(-10 ** 17 + 1, 10 ** 17 - 1))
    def test_integers_below_1e17(self, n):
        assert g17_text(float(n)) == "%.17g" % float(n)

    @given(st.floats(1e-5, 1.0, exclude_max=True))
    def test_fixed_notation_below_one(self, x):
        assert g17_text(x) == "%.17g" % x
