import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from doasim.config import SweepResult
from doasim.estimators import Pseudospectrum, azimuth_grid
from doasim.svgplot import escape, render_plot


def _result(params, rmses) -> SweepResult:
    n = len(params)
    return SweepResult(params=tuple(params), rmse_deg=tuple(rmses),
                       trials=(10,) * n, fill_counts=(0,) * n)


def _render(data, **kw) -> str:
    buf = io.StringIO()
    render_plot(data, buf, **kw)
    return buf.getvalue()


def test_sweep_plot_is_valid_svg(tmp_path):
    res = _result((-10.0, -5.0, 0.0, 5.0), (1.0, 0.3, 0.05, 0.01))
    path = tmp_path / "curve.svg"
    render_plot(res, path, title="accuracy")
    text = path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "polyline" in text
    assert "RMSE (deg)" in text
    assert "accuracy" in text


def test_log_axis_has_decade_labels():
    res = _result((0.0, 1.0, 2.0, 3.0), (1.0, 0.1, 0.01, 0.001))
    text = _render(res)
    assert ">0.1<" in text
    assert ">0.01<" in text


def test_multi_series_legend():
    a = _result((1.0, 2.0), (0.5, 0.1))
    b = _result((1.0, 2.0), (0.4, 0.2))
    text = _render({"ula8": a, "mra8": b})
    assert "ula8" in text and "mra8" in text
    assert text.count("<polyline") == 2


def test_pseudospectrum_plot_in_db():
    grid = azimuth_grid(0.01)
    vals = 1.0 / (1.0 + (grid / 30.0) ** 2)
    ps = Pseudospectrum(grid, vals)
    text = _render(ps, marks=(12.5,))
    assert "power (dB rel. peak)" in text
    assert "stroke-dasharray" in text
    ET.fromstring(text)


def test_large_spectrum_is_decimated():
    grid = azimuth_grid(0.01)
    vals = np.full(grid.size, 1e-6)
    vals[9000] = 1.0  # single sharp peak must survive thinning
    text = _render(Pseudospectrum(grid, vals))
    poly = text.split('<polyline points="')[1].split('"')[0]
    assert len(poly.split()) <= 2000
    root = ET.fromstring(text)
    assert root is not None
    # the dB peak (0 dB) appears as the topmost polyline point
    ys = [float(p.split(",")[1]) for p in poly.split()]
    assert min(ys) < 100  # near the top margin, so the peak was kept
    assert max(ys) > 350  # while the flat floor stays near the bottom


def test_meta_comment_embedded():
    res = _result((1.0, 2.0), (0.5, 0.1))
    text = _render(res, meta="fingerprint=deadbeef seed=7")
    assert "<!-- fingerprint=deadbeef seed=7 -->" in text


def test_empty_or_degenerate_input_rejected():
    with pytest.raises(ValueError):
        _render({})
    with pytest.raises(ValueError):
        _render(_result((1.0, 2.0), (0.0, -1.0)))  # nothing positive to log
    with pytest.raises(ValueError):
        _render(42)
    with pytest.raises(ValueError, match="series 'a' is not a SweepResult"):
        _render({"a": 42})


def test_label_escaping():
    res = _result((1.0, 2.0), (0.5, 0.1))
    text = _render({"a<b & c": res})
    assert "a&lt;b &amp; c" in text
    ET.fromstring(text)


def test_escape_matches_saxutils():
    for text in ("", "plain", "a<b & c>d", "&amp; &lt;&gt;", "\"quoted\" and 'single'",
                 "<<&&>>"):
        assert escape(text) == sax_escape(text)


def test_cold_start_loads_no_network_modules():
    # importing the package and parsing a config is the set-up of every CLI
    # call; it must not pull in the standard library's network stack
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; import doasim; from doasim.config import parse_config; "
            f"parse_config({str(root / 'configs' / 'angle_sweep.conf')!r}); "
            "print(' '.join(m for m in ('urllib.request', 'http.client', 'email', "
            "'ssl', 'socket') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert out.stdout.strip() == ""
