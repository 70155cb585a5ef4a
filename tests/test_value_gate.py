"""The value-level comparison helper, and the gate it gives the
pair-local scattering and the Householder transverse basis: audit
outputs under the library's forms and under the projection-form
oracles agree to 1e-12 relative."""
import csv
import json

import numpy as np
import pytest
from conftest import (assert_values_close, ref_scatter_pre,
                      ref_transverse_basis)

from hardtorus import cli, hyperbolic
from hardtorus.config import parse_config
from hardtorus.tangent import CollisionFrame

REF = {"summary": {"rate": 1.25, "ok": True, "n": 24, "label": "sufficient",
                   "rows": [[0.5, 1e-15], [2.0, -3.0]]},
       "series": {"Q": np.array([8.7e-15, 1.1e-14, -0.25])}}


def moved(**changes):
    """A deep copy of REF with the named leaves replaced."""
    out = json.loads(json.dumps(REF["summary"]))
    out.update(changes)
    return {"summary": out, "series": {"Q": REF["series"]["Q"].copy()}}


class TestAssertValuesClose:
    def test_one_ulp_passes(self):
        got = moved(rate=float(np.nextafter(1.25, 2.0)))
        got["series"]["Q"][0] = np.nextafter(8.7e-15, 1.0)
        assert_values_close(REF, got, rel=1e-12)

    @pytest.mark.parametrize("where", ["leaf", "nested", "array"])
    def test_relative_1e9_fails(self, where):
        got = moved()
        if where == "leaf":
            got["summary"]["rate"] = 1.25 * (1.0 + 1e-9)
        elif where == "nested":
            got["summary"]["rows"][0][1] = 1e-15 * (1.0 + 1e-9)
        else:
            got["series"]["Q"][2] *= 1.0 + 1e-9
        with pytest.raises(AssertionError):
            assert_values_close(REF, got, rel=1e-12)

    def test_flipped_bool_fails(self):
        with pytest.raises(AssertionError, match="summary.ok"):
            assert_values_close(REF, moved(ok=False), rel=1e-12)

    def test_non_floats_must_be_equal(self):
        for change in ({"n": 25}, {"label": "undecidable"}, {"n": 24.5}):
            with pytest.raises(AssertionError):
                assert_values_close(REF, moved(**change), rel=1e-12)
        got = moved()
        del got["summary"]["label"]
        with pytest.raises(AssertionError, match="keys"):
            assert_values_close(REF, got, rel=1e-12)

    def test_only_free_paths_may_differ(self):
        got = moved(rate=3.0)
        assert_values_close(REF, got, rel=1e-12, free=("summary.rate",))
        got["summary"]["n"] = 25
        with pytest.raises(AssertionError, match="summary.n"):
            assert_values_close(REF, got, rel=1e-12, free=("summary.rate",))


AUDIT = """\
[system]
masses = 1, 1.3, 0.7
radius = 0.1
[run]
seed = {seed}
t_max = 20
[analysis]
l0 = 1, 0
"""

# q_evolution_audit's roundoff residuals: they measure rounding, so they
# may move, but stay far below the criteria's bounds
RESIDUALS = ("max_flight_residual", "max_midpoint_residual", "max_jump_defect")


def audit_outputs(out_dir, seed):
    cli.run("audit", parse_config(AUDIT.format(seed=seed)), out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "series.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    columns = dict(zip(header, np.array(rows, dtype=float).T))
    return {"summary": summary, "series": columns}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_audit_matches_projection_form(tmp_path, monkeypatch, seed):
    got = audit_outputs(tmp_path / "pair_local", seed)
    # the transverse basis reaches only the curvature operators, whose
    # eigenvalues do not depend on it: no path is free
    monkeypatch.setattr(hyperbolic, "transverse_basis", ref_transverse_basis)
    assert_values_close(audit_outputs(tmp_path / "qr_svd", seed), got,
                        rel=1e-12)
    # the projection-form scattering reaches the Q audit; the curvature
    # reads scatter_amplitude, which the rank-one identity of
    # test_hyperbolic.py ties to both forms
    monkeypatch.setattr(CollisionFrame, "scatter_pre", lambda f, x:
                        ref_scatter_pre(f, x, f._table.params))
    ref = audit_outputs(tmp_path / "projection", seed)
    assert got["summary"]["q_audit"]["n_jumps"] > 0
    assert_values_close(ref, got, rel=1e-12,
                        free=tuple(f"summary.q_audit.{k}" for k in RESIDUALS))
    for out in (ref, got):
        for key in RESIDUALS:
            assert out["summary"]["q_audit"][key] <= 1e-8
