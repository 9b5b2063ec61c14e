"""The mixture picks its component sizes from its provider.

``mixture_predictor(provider, prior)`` conditions on the first ``prior.j_max``
sizes up to the provider's horizon whose target mass is exactly nonzero, the
rule ``mixture_gap_series`` applies to its central masses. The unwindowed
``first_feasible_sizes`` stays the reference for those sizes. A paths game
asks it for the first feasible size n_1 only and builds its provider to
j_max * n_1 or past: multiples of a feasible size are feasible, so the
j_max-th feasible size is at most j_max * n_1.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    SumTableProvider,
    experiments,
    first_feasible_sizes,
    mixture_gap_series,
    mixture_predictor,
    rissanen_prior,
)
from maxent_lab.cli import main
from maxent_lab.errors import ValidationError

from test_window import problems

ROOT = Path(__file__).resolve().parents[1]


def _paths_game():
    """The paths game that ``tools/compare_outputs.py`` runs."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATHS_GAME


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 6), st.integers(1, 10))
def test_components_are_the_first_feasible_sizes(problem, j_max, horizon):
    space, constraint, measure, mode = problem
    provider = SumTableProvider(space, constraint, horizon, measure=measure,
                                mode=mode)
    sizes = first_feasible_sizes(space, constraint, j_max, n_cap=horizon)
    if not sizes:
        with pytest.raises(ValidationError):
            mixture_predictor(provider, rissanen_prior(j_max))
        return
    mixture = mixture_predictor(provider, rissanen_prior(j_max))
    assert [c.horizon for c in mixture.components] == sizes


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 6), st.integers(1, 10), st.data())
def test_both_game_modes_pick_the_same_sizes(problem, j_max, horizon, data):
    space, constraint, _, _ = problem
    # only the sizes are compared; the projection enters the gaps through its
    # entropy alone, so none is solved for (many drawn targets lie on the hull)
    projection = SimpleNamespace(closed_entropy_bits=0.0)
    prior = rissanen_prior(j_max)
    provider = SumTableProvider(space, constraint, horizon)
    sizes = first_feasible_sizes(space, constraint, j_max, n_cap=horizon)
    if not sizes:
        for build in (lambda: mixture_predictor(provider, prior),
                      lambda: mixture_gap_series(space, constraint, projection,
                                                 prior, horizon, horizon)):
            with pytest.raises(ValidationError):
                build()
        return
    n_max = data.draw(st.integers(sizes[0], horizon))
    mixture = mixture_predictor(provider, prior)
    records = mixture_gap_series(space, constraint, projection, prior,
                                 n_max=n_max, horizon=horizon)
    assert [(r.n, r.component) for r in records] == \
        [(c.horizon, j) for j, c in enumerate(mixture.components, start=1)
         if c.horizon <= n_max]


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 8))
def test_the_j_max_th_size_is_within_j_max_times_the_first(problem, j_max):
    space, constraint, _, _ = problem
    first = first_feasible_sizes(space, constraint, 1, n_cap=12)
    assume(first)
    sizes = first_feasible_sizes(space, constraint, j_max,
                                 n_cap=j_max * first[0])
    assert len(sizes) == j_max and sizes[0] == first[0]


def test_paths_game_csv_bytes(tmp_path):
    # the six mixture sizes end at 10; the provider reaches 18
    path = tmp_path / "paths.json"
    path.write_text(json.dumps(_paths_game()))
    out = tmp_path / "out"
    assert main(["run", "-c", str(path), "-o", str(out)]) == 0
    assert (out / "00_game_game.csv").read_bytes() == (
        b"n,predictor,codelength_bits,gap_vs_maxent_bits\n"
        b"3,maxent,3.2916854059199823,0.0\n"
        b"3,conditioned,1.5849625007211563,-1.706722905198826\n"
        b"3,mixture,1.9404746682001912,-1.351210737719791\n"
        b"5,maxent,5.486142343199971,0.0\n"
        b"5,conditioned,2.3219280948873626,-3.164214248312608\n"
        b"5,mixture,4.949962985076555,-0.536179358123416\n"
        b"8,maxent,8.777827749119952,0.0\n"
        b"8,conditioned,5.807354922057605,-2.9704728270623475\n"
        b"8,mixture,10.702479879721436,1.9246521306014834\n"
        b"9,maxent,9.875056217759946,0.0\n"
        b"9,conditioned,6.39231742277876,-3.482738794981186\n"
        b"9,mixture,11.919010587748382,2.0439543699884357\n")


def test_paths_game_asks_for_the_first_size_only(tmp_path, monkeypatch):
    counts = []

    def spy(space, constraint, count, *args, **kwargs):
        counts.append(count)
        return first_feasible_sizes(space, constraint, count, *args, **kwargs)

    monkeypatch.setattr(experiments, "first_feasible_sizes", spy)
    experiments.run_config(_paths_game(), tmp_path / "out")
    assert counts == [1]
