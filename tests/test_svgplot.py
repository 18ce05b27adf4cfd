import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lyapcert import Panel, Series, render_svg, svgplot
import reference


def render_text(panels, path, **kw):
    render_svg(panels, path, **kw)
    return path.read_text(encoding="utf-8")


class TestLinePanels:
    def test_single_constant_series(self, tmp_path):
        panel = Panel(title="gap", series=[Series("HB", np.ones(10))])
        text = render_text([panel], tmp_path / "a.svg")
        assert text.count("<polyline") == 1
        assert text.count('<g class="panel"') == 1
        assert "gap" in text
        assert "HB" in text

    def test_polyline_per_series(self, tmp_path):
        series = [Series(f"s{j}", np.geomspace(1.0, 10.0 ** -j, 30))
                  for j in range(1, 5)]
        text = render_text([Panel(title="t", series=series)], tmp_path / "a.svg")
        assert text.count("<polyline") == 4
        for j in range(1, 5):
            assert f">s{j}</text>" in text

    def test_four_panel_grid(self, tmp_path):
        panels = [Panel(title=f"p{i}", series=[Series("x", np.ones(5))])
                  for i in range(4)]
        text = render_text(panels, tmp_path / "a.svg")
        assert text.count('<g class="panel"') == 4
        assert 'width="920"' in text
        assert 'height="680"' in text

    def test_single_panel_width(self, tmp_path):
        text = render_text([Panel(title="p", series=[Series("x", np.ones(5))])],
                           tmp_path / "a.svg")
        assert 'width="460"' in text

    def test_zero_values_clip_to_floor(self, tmp_path):
        panel = Panel(title="t", series=[Series("v", np.array([1.0, 0.0, 0.0]))])
        text = render_text([panel], tmp_path / "a.svg")
        assert text.count("<polyline") == 1
        assert "1e-16" in text
        assert "nan" not in text.lower()


class TestNonFiniteValues:
    """NaN and inf points are left out of the drawing and the axis ranges;
    each series keeps its one polyline."""

    @staticmethod
    def polyline_points(text):
        start = text.index('points="') + len('points="')
        pts = text[start:text.index('"', start)]
        return pts.split(" ") if pts else []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_point_is_skipped(self, tmp_path, bad):
        panel = Panel(title="t", series=[Series("v", np.array([bad, 1.0, 1e-3, 1e-6]))])
        path = tmp_path / "a.svg"
        text = render_text([panel], path)
        ET.parse(path)
        assert text.count("<polyline") == 1
        assert "nan" not in text.lower() and "inf" not in text.lower()
        assert len(self.polyline_points(text)) == 3
        # the range is the finite one, 1e-6..1, not the 1e-16..1 fallback
        assert ">1e-6</text>" in text and ">1e0</text>" in text
        assert ">1e-16</text>" not in text

    def test_same_as_the_finite_points_alone(self, tmp_path):
        x = np.arange(6.0)
        y = np.array([1.0, np.nan, 0.1, np.inf, 1e-2, 1e-4])
        keep = np.isfinite(y)
        with_bad = render_text([Panel(title="t", series=[Series("v", y, x=x)])],
                               tmp_path / "a.svg")
        finite = render_text([Panel(title="t", series=[Series("v", y[keep], x=x[keep])])],
                             tmp_path / "b.svg")
        assert with_bad == finite

    def test_all_nan_falls_back_to_floor(self, tmp_path):
        panel = Panel(title="t", series=[Series("v", np.full(4, np.nan))])
        text = render_text([panel], tmp_path / "a.svg")
        assert text.count("<polyline") == 1
        assert self.polyline_points(text) == []
        assert ">1e-16</text>" in text and ">1e0</text>" in text

    def test_nan_series_beside_a_finite_one(self, tmp_path):
        panel = Panel(title="t", series=[Series("a", np.geomspace(1.0, 1e-4, 5)),
                                         Series("b", np.full(3, np.nan))])
        text = render_text([panel], tmp_path / "a.svg")
        assert text.count("<polyline") == 2
        assert ">1e-4</text>" in text and "nan" not in text.lower()

    def test_scatter_skips_bad_points(self, tmp_path):
        panel = Panel(title="s", kind="scatter", series=[
            Series("a", x=np.array([0.5, np.nan, np.inf, 0.1]),
                   y=np.array([0.2, 0.0, 0.3, -np.inf])),
            Series("b", x=np.array([np.nan]), y=np.array([1.0]))])
        path = tmp_path / "a.svg"
        text = render_text([panel], path)
        ET.parse(path)
        assert text.count('<circle class="pt"') == 1
        assert "nan" not in text.lower() and "inf" not in text.lower()
        finite = Panel(title="s", kind="scatter", series=[
            Series("a", x=np.array([0.5]), y=np.array([0.2])),
            Series("b", x=np.array([]), y=np.array([]))])
        assert text == render_text([finite], tmp_path / "b.svg")

    def test_unequal_lengths_are_named(self, tmp_path):
        panel = Panel(title="t", series=[Series("v", np.ones(3), x=np.arange(4.0))])
        with pytest.raises(ValueError, match="as many x values"):
            render_svg([panel], tmp_path / "a.svg")


class TestScatterPanels:
    def test_points_and_unit_circle(self, tmp_path):
        panel = Panel(
            title="spectrum", kind="scatter", unit_circle=True, xlabel="Re",
            ylabel="Im",
            series=[
                Series("HB", x=np.array([0.1, 0.2, 0.3]), y=np.array([0.5, -0.5, 0.0])),
                Series("NAG", x=np.array([-0.1, 0.0]), y=np.array([0.2, -0.2])),
            ])
        text = render_text([panel], tmp_path / "a.svg")
        assert text.count('<circle class="pt"') == 5
        assert text.count('<circle class="ref"') == 1

    def test_no_circle_without_flag(self, tmp_path):
        panel = Panel(title="s", kind="scatter",
                      series=[Series("a", x=np.array([2.0]), y=np.array([1.0]))])
        text = render_text([panel], tmp_path / "a.svg")
        assert '<circle class="ref"' not in text
        assert text.count('<circle class="pt"') == 1

    def test_scatter_requires_x(self, tmp_path):
        panel = Panel(title="s", kind="scatter", series=[Series("a", np.ones(3))])
        with pytest.raises(ValueError, match="x values"):
            render_svg([panel], tmp_path / "a.svg")


class TestValidation:
    def test_rejects_no_panels(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg([], tmp_path / "a.svg")

    def test_rejects_all_empty(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg([Panel(title="t", series=[])], tmp_path / "a.svg")

    def test_rejects_unknown_kind(self, tmp_path):
        panel = Panel(title="t", kind="pie", series=[Series("a", np.ones(2))])
        with pytest.raises(ValueError, match="kind"):
            render_svg([panel], tmp_path / "a.svg")


    LINE = Panel(title="ok", series=[Series("a", np.ones(3))])
    # panel lists render_svg refuses, each with its message; the later cases
    # are refused only after a panel that renders
    REJECTED = {
        "no-panels": ([], "at least one panel required"),
        "no-series": ([Panel(title="t", series=[])], "at least one series required"),
        "kind": ([LINE, Panel(title="t", kind="pie", series=[Series("a", np.ones(2))])],
                 "unknown panel kind 'pie'"),
        "x-length": ([LINE, Panel(title="t", series=[Series("v", np.ones(3), x=np.arange(4.0))])],
                     "as many x values"),
        "scatter-x": ([LINE, Panel(title="s", kind="scatter", series=[Series("a", np.ones(3))])],
                      "scatter series need explicit x values"),
        "not-numbers": ([LINE, Panel(title="t", series=[Series("a", np.array(["1", "x"]))])],
                        "could not convert"),
    }

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_panels_leave_no_file(self, tmp_path, case, existing):
        panels, message = self.REJECTED[case]
        path = tmp_path / "a.svg"
        if existing:
            path.write_text("before", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            render_svg(panels, path)
        assert os.listdir(tmp_path) == (["a.svg"] if existing else [])
        if existing:
            assert path.read_text(encoding="utf-8") == "before"


class TestWellFormedOutput:
    def test_parses_as_xml(self, tmp_path):
        panels = [
            Panel(title="lines <&>", series=[Series("a<b", np.geomspace(1, 1e-8, 50)),
                                             Series("c&d", np.geomspace(2, 1e-4, 50))]),
            Panel(title="pts", kind="scatter", unit_circle=True,
                  series=[Series("e", x=np.array([0.3, -0.3]), y=np.array([0.4, -0.4]))]),
        ]
        path = tmp_path / "a.svg"
        render_svg(panels, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:polyline", ns)) == 2
        assert len(root.findall(".//svg:g[@class='panel']", ns)) == 2


BOX = (64, 28, 446, 300)  # the plot box of a line-log panel
COLUMNS = 383  # its pixel columns, 64..446


def random_series(rng, n, explicit_x):
    """y spanning the floor with ties, NaN and inf; x unset, or explicit and
    non-monotone with NaN and inf of its own."""
    y = 10.0 ** rng.uniform(-22.0, 3.0, n)
    ties = rng.random(n) < 0.3
    y[ties] = rng.choice([0.0, -1.0, 1e-16, 1e-3, 1.0], size=int(ties.sum()))
    y[rng.random(n) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
    if not explicit_x:
        return y, None
    x = np.cumsum(rng.normal(0.3, 1.0, n))
    x[rng.random(n) < 0.05] = rng.choice([np.nan, np.inf])
    return y, x


def drawn(y, x):
    """The points a line-log panel of this one series draws, before the
    column rule, and the panel's decades and x range."""
    x = np.arange(y.shape[0], dtype=float) if x is None else x
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], np.maximum(y[keep], 1e-16)
    if not y.size:
        return x, y, -16, 0, 1.0
    lo = math.floor(math.log10(y.min()))
    hi = max(math.ceil(math.log10(y.max())), lo + 1)
    return x, y, lo, hi, max(1.0, float(x.max()))


def kept(x, y, xmax):
    cols = np.floor(svgplot._px(x, BOX, xmax))
    return cols, svgplot._m4(cols, y)


def polyline(text):
    start = text.index('points="') + len('points="')
    return text[start:text.index('"', start)]


def runs(cols):
    """Lengths of the maximal runs of equal consecutive values."""
    if not cols.size:
        return np.array([], dtype=int)
    starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    return np.diff(np.r_[starts, cols.size])


CASES = [(seed, n, explicit) for seed in range(4) for n in (0, 3, 50, 700, 5000)
         for explicit in (False, True)]


class TestPixelColumns:
    """A line keeps the first, lowest, highest and last point of each run of
    consecutive points in one pixel column (M4)."""

    @pytest.mark.parametrize("seed, n, explicit", CASES)
    def test_same_as_the_reference(self, tmp_path, seed, n, explicit):
        y, x = random_series(np.random.default_rng(seed), n, explicit)
        dx, dy, lo, hi, xmax = drawn(y, x)
        want = reference.svg_m4(dx.tolist(), dy.tolist(), BOX, xmax)
        assert kept(dx, dy, xmax)[1].tolist() == want
        text = render_text([Panel(title="t", series=[Series("v", y, x=x)])],
                           tmp_path / "a.svg")
        assert polyline(text) == reference.svg_polyline_points(
            dx[want], dy[want], BOX, lo, hi, xmax)

    def test_ties_keep_the_first(self):
        cols = np.zeros(8)
        y = np.array([3.0, 1.0, 5.0, 1.0, 5.0, 2.0, 1.0, 4.0])
        assert svgplot._m4(cols, y).tolist() == [0, 1, 2, 7]
        assert reference.svg_m4([0.0] * 8, y.tolist(), BOX, 1e6) == [0, 1, 2, 7]

    @pytest.mark.parametrize("n", [383, 1000, 1500])
    def test_four_per_column_keeps_every_point(self, tmp_path, n):
        y, _ = random_series(np.random.default_rng(n), n, False)
        dx, dy, lo, hi, xmax = drawn(y, None)
        assert runs(kept(dx, dy, xmax)[0]).max() <= 4
        text = render_text([Panel(title="t", series=[Series("v", y)])], tmp_path / "a.svg")
        assert polyline(text) == reference.svg_polyline_points(dx, dy, BOX, lo, hi, xmax)

    @pytest.mark.parametrize("seed, n, explicit", CASES)
    def test_column_extents_are_kept(self, seed, n, explicit):
        y, x = random_series(np.random.default_rng(seed), n, explicit)
        dx, dy, lo, hi, xmax = drawn(y, x)
        cols, keep = kept(dx, dy, xmax)
        py = svgplot._py(dy, BOX, lo, hi)
        for c in np.unique(cols):
            every, left = py[cols == c], py[keep][cols[keep] == c]
            assert (left.min(), left.max()) == (every.min(), every.max())

    @pytest.mark.parametrize("seed, n, explicit", CASES)
    def test_at_most_four_per_column(self, seed, n, explicit):
        y, x = random_series(np.random.default_rng(seed), n, explicit)
        dx, dy, _, _, xmax = drawn(y, x)
        cols, keep = kept(dx, dy, xmax)
        # each run keeps at most 4 of its points, all of them when it has no more
        every, left = runs(cols), runs(cols[keep])
        assert every.shape == left.shape
        assert (left <= np.minimum(every, 4)).all()
        assert (left == every)[every <= 4].all()
        if not explicit:  # over its index, a column is one run
            assert np.unique(cols[keep], return_counts=True)[1].max(initial=0) <= 4

    def test_points_bounded_whatever_the_length(self, tmp_path):
        rng = np.random.default_rng(7)
        series = [Series(f"s{j}", 10.0 ** rng.uniform(-20.0, 2.0, 200_000)) for j in range(2)]
        text = render_text([Panel(title="t", series=series)], tmp_path / "a.svg")
        lines = [line for line in text.splitlines() if line.startswith("<polyline")]
        assert len(lines) == 2
        for line in lines:
            assert 2 * COLUMNS <= len(polyline(line).split(" ")) <= 4 * COLUMNS


class TestDrawOnce:
    """``panel_paths`` gives each panel a file of its own beside the file of
    all panels; each panel is drawn one time for both."""

    PANELS = [Panel(title="lines", series=[Series("a", np.geomspace(1.0, 1e-9, 3000))]),
              Panel(title="pts", kind="scatter", unit_circle=True,
                    series=[Series("b", x=np.array([0.3, -0.3]), y=np.array([0.4, -0.4]))]),
              Panel(title="more", series=[Series("c", np.geomspace(2.0, 1e-3, 40))])]

    def test_each_file_as_rendered_alone(self, tmp_path, monkeypatch):
        drawn_titles = []
        for name in ("_line_log_panel", "_scatter_panel"):
            def draw(p, w, h, real=getattr(svgplot, name)):
                drawn_titles.append(p.title)
                return real(p, w, h)
            monkeypatch.setattr(svgplot, name, draw)
        own = [tmp_path / f"{i}.svg" for i in range(3)]
        render_svg(self.PANELS, tmp_path / "all.svg", own)
        assert drawn_titles == ["lines", "pts", "more"]
        alone = render_text(self.PANELS, tmp_path / "b.svg")
        assert (tmp_path / "all.svg").read_text(encoding="utf-8") == alone
        for path, panel in zip(own, self.PANELS):
            assert path.read_text(encoding="utf-8") == render_text([panel], tmp_path / "c.svg")

    def test_one_path_per_panel(self, tmp_path):
        with pytest.raises(ValueError, match="one path per panel"):
            render_svg(self.PANELS, tmp_path / "all.svg", [tmp_path / "0.svg"])
        assert os.listdir(tmp_path) == []
