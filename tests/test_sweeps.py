"""One DP sweep per walk model: each command and check reads every count
it needs from a single pass of ``walks._layers``."""

import hashlib
import json

import pytest

from conewalks import closedforms, decompose, engine, identities, walks
from conewalks.cli import _closed_forms, main
from conewalks.walks import Frontier
from test_walks import replace


def record(monkeypatch, entry):
    """``entry(model, n)`` for every DP sweep started, in order, with the
    sweep memo and the pipeline caches empty so that every sweep a check
    needs is seen."""
    decompose.pipeline.cache_clear()
    walks.sweep.cache_clear()
    seen = []
    layers = walks._layers

    def counted(model, n):
        seen.append(entry(model, n))
        return layers(model, n)

    monkeypatch.setattr(walks, "_layers", counted)
    return seen


@pytest.fixture
def sweeps(monkeypatch):
    """The length of every DP sweep started, in order."""
    return record(monkeypatch, lambda model, n: n)


@pytest.fixture
def swept(monkeypatch):
    """The model and length of every DP sweep started, in order."""
    return record(monkeypatch, lambda model, n: (model, n))


def run(capsys, *argv):
    code = main(list(argv))
    capsys.readouterr()
    return code


@pytest.fixture
def bfile(tmp_path):
    def write(text):
        path = tmp_path / "b.txt"
        path.write_text(text)
        return str(path)

    return write


def test_series_sweeps_once_for_totals_and_for_an_endpoint(capsys, sweeps):
    assert run(capsys, "series", "--order", "9") == 0
    assert run(capsys, "series", "--order", "9", "--endpoint", "0,0") == 0
    assert sweeps == [8, 8]


@pytest.mark.parametrize("endpoint", [[], ["--endpoint", "0,0"]])
class TestOneSweepPerCommand:
    def test_count(self, capsys, sweeps, endpoint):
        assert run(capsys, "count", "--n", "5", *endpoint) == 0
        assert sweeps == [5]

    def test_oeis(self, capsys, sweeps, bfile, endpoint):
        path = bfile("0 1\n1 4\n2 14\n3 54\n4 212\n5 849\n")
        run(capsys, "oeis", "--bfile", path, "--n", "4", *endpoint)
        assert sweeps == [4]


def test_oeis_sweeps_to_its_last_index(capsys, sweeps, bfile):
    path = bfile("0 1\n1 4\n2 14\n")
    assert run(capsys, "oeis", "--bfile", path, "--n", "100000") == 0
    assert sweeps == [2]
    # An index past --n is not compared, so nothing is swept for it.
    assert run(capsys, "oeis", "--bfile", bfile("7 1\n"), "--n", "6") == 0
    assert sweeps == [2]


def catalog_models():
    """The walk model of each closed-form catalog entry, by key."""
    return {key: entry.model for key, entry in closedforms.catalog().items()}


def test_closed_forms_sweep_once_per_model(capsys, swept):
    """The 11 catalog entries read their endpoints from one sweep of each
    of their 5 distinct walk models."""
    assert run(capsys, "verify", "--suite", "closed-forms",
               "--order", "6") == 0
    assert [n for _, n in swept] == [12] * 5
    models = [model for model, _ in swept]
    assert len(set(models)) == 5
    assert set(models) == set(catalog_models().values())


def test_swapped_closed_form_endpoints_fail_with_their_own_values(
        capsys, monkeypatch):
    """Two entries of one model with their endpoints swapped both fail, at
    the first n where the counts at the two endpoints differ, and each
    reports its own formula against the count at its new endpoint: each
    entry reads its own column of the shared sweep."""
    cat = dict(closedforms.catalog())
    a, b = "diag-origin-m2-0", "diag-origin-m4-0"
    cat[a], cat[b] = (replace(cat[a], end=cat[b].end),
                      replace(cat[b], end=cat[a].end))
    monkeypatch.setattr(closedforms, "catalog", lambda: cat)
    order = 6
    tables = walks.count_walks_upto(catalog_models()[a], 2 * order)
    assert main(["verify", "--suite", "closed-forms", "--order", str(order),
                 "--format", "json"]) == 1
    reports = {r["id"]: r for r in json.loads(capsys.readouterr().out)}
    assert {key for key, r in reports.items() if r["verdict"] != "pass"} == {
        a, b}
    for key in (a, b):
        entry = cat[key]
        column = [table.counts.get(entry.end, 0) for table in tables[::2]]
        n = next(n for n in range(order + 1) if entry.count(n) != column[n])
        assert reports[key]["first_failure"] == [
            n, str(entry.count(n)), str(column[n])]
    assert reports[a]["first_failure"] != reports[b]["first_failure"]


def test_orbit_endpoint_reads_the_pipelines(sweeps):
    assert identities.orbit_endpoint(12) == []
    assert 0 < len(sweeps) <= 8


def test_identities_sweep_each_model_once(capsys, swept):
    """7 distinct models: the four cone models, the two quadrant models
    (shared by the origin and shifted pipelines) and the wedge model."""
    assert run(capsys, "verify", "--suite", "identities", "--order", "8") == 0
    models = [model for model, _ in swept]
    assert len(models) == len(set(models)) == 7


def test_memoised_frontiers_equal_a_fresh_sweep(capsys, swept):
    """No reader changes a shared frontier: after a run, each memo entry
    still equals a fresh pass of the DP."""
    assert run(capsys, "verify", "--suite", "identities", "--order", "8") == 0
    misses = walks.sweep.cache_info().misses
    for model, n in list(swept):
        assert walks.sweep(model, n) == tuple(walks._layers(model, n))
    assert walks.sweep.cache_info().misses == misses


# The checks that no count of the walk oracle can fail: the quartic at the
# hypergeometric sum (base-T), the solver's own equations (base-Y-*), the
# hypergeometric side of base-Z-hyper, the bookkeeping of the
# three-quadrant split (split-*) and the negative check no-kernel-factor-sq.
ORACLE_BLIND = {"base-T", "base-Y-square", "base-Y-diagonal", "base-Z-hyper",
                "no-kernel-factor-sq", "split-A-sq", "split-C-sq-shift",
                "split-A-diag-shift"}


# The checks that no mutation of the paper's formula data can fail: none.
FORMULA_BLIND = set()

SECTIONS = ("bivariate", "z_rationals")

# The order of the formula-side mutations, above the 9 that the catalog
# entry sq-shift-below-axis-x needs.
MUTATION_ORDER = 12


def _bumped_top(terms):
    """A term list with the coefficient of its highest-degree term + 1."""
    top = max(range(len(terms)), key=lambda k: sum(terms[k][1].values()))
    return [[c + (k == top), exps] for k, (c, exps) in enumerate(terms)]


def _catalog_survivors(monkeypatch):
    """The catalog ids that still pass with the coefficient of the
    highest-degree term of their numerator or denominator raised by 1."""
    load = engine._param_data
    data = load()
    survivors = set()
    for section in SECTIONS:
        for key, entry in data[section].items():
            for side in ("num", "den"):
                wrong = {**entry, side: _bumped_top(entry[side])}
                mutated = {**data, section: {**data[section], key: wrong}}
                monkeypatch.setattr(engine, "_param_data",
                                    lambda m=mutated: m)
                table = engine.catalog_checks(section)
                report = engine.run_check(table, key, MUTATION_ORDER)
                if report["verdict"] == "pass":
                    survivors.add(key)
    monkeypatch.setattr(engine, "_param_data", load)
    return survivors


def _closed_form_survivors():
    """The closed forms that still pass with the coefficient of their
    first ``HypTerm`` doubled."""
    survivors = set()
    for key, entry in closedforms.catalog().items():
        first, *rest = entry.terms
        doubled = replace(first, coeff=2 * first.coeff)
        mutated = {key: replace(entry, terms=(doubled, *rest))}
        [report] = _closed_forms(mutated, MUTATION_ORDER // 2)
        if report["verdict"] == "pass":
            survivors.add(key)
    return survivors


def _quartic_survivors(monkeypatch):
    """The quartic checks that still pass with t^2 added to their
    residual."""
    survivors = set()
    for which, quartic in list(engine._QUARTICS.items()):
        monkeypatch.setitem(engine._QUARTICS, which,
                            lambda G, t, t2, f=quartic: f(G, t, t2) + t2)
        key = f"quartic-{which}"
        report = engine.run_check(engine.QUARTIC_CHECKS, key, MUTATION_ORDER)
        if report["verdict"] == "pass":
            survivors.add(key)
        monkeypatch.setitem(engine._QUARTICS, which, quartic)
    return survivors


def test_a_wrong_formula_fails_its_own_check(monkeypatch):
    """One mutation per formula datum fails the check that reads it: the
    top coefficient of each catalog numerator and denominator, the first
    ``HypTerm`` coefficient of each closed form and each quartic.  The
    oracle side is not touched, so no memo needs clearing.  The same
    checks of the unmutated data pass."""
    unmutated = [
        *(engine.run_check(engine.catalog_checks(section), key, MUTATION_ORDER)
          for section in SECTIONS for key in engine._param_data()[section]),
        *_closed_forms(closedforms.catalog(), MUTATION_ORDER // 2),
        *(engine.run_check(engine.QUARTIC_CHECKS, key, MUTATION_ORDER)
          for key in engine.QUARTIC_CHECKS)]
    assert {report["verdict"] for report in unmutated} == {"pass"}
    survivors = (_catalog_survivors(monkeypatch) | _closed_form_survivors()
                 | _quartic_survivors(monkeypatch))
    assert survivors == FORMULA_BLIND


# The sha256 of the perturbed run's ``verify --suite all --order 12 --format
# json`` output: it pins where each failing check first fails, not only
# which checks pass.
PERTURBED_SHA256 = (
    "69c7181b69f2f17165d0b49800c5f40843f8ec58adfef7d6c77f1b18c781b355")


def verify_all(capsys, order):
    """The exit code, the ids that pass and the sha256 of the JSON output."""
    code = main(["verify", "--suite", "all", "--order", str(order),
                 "--format", "json"])
    out = capsys.readouterr().out
    reports = json.loads(out)
    return (code, {r["id"] for r in reports if r["verdict"] == "pass"},
            hashlib.sha256(out.encode()).hexdigest())


def test_a_perturbed_oracle_fails_every_check_that_reads_it(capsys,
                                                            monkeypatch):
    """Adding 1 to every stored count of layers 1-4 fails every check except
    the declared ORACLE_BLIND ones, each at the position pinned by
    PERTURBED_SHA256.  The unperturbed run warms every memo first, so the
    perturbed run also shows that no memo but ``walks.sweep`` and
    ``decompose.pipeline`` keeps an oracle count."""
    code, passed, _ = verify_all(capsys, 12)
    assert code == 0 and len(passed) == 112
    walks.sweep.cache_clear()
    decompose.pipeline.cache_clear()
    layers = walks._layers

    def plus_one(frontier):
        return Frontier({j: (i0, [c + 1 for c in counts])
                         for j, (i0, counts) in frontier.rows.items()},
                        frontier.turned)

    def perturbed(model, n):
        for k, frontier in enumerate(layers(model, n)):
            yield plus_one(frontier) if 1 <= k <= 4 else frontier

    monkeypatch.setattr(walks, "_layers", perturbed)
    try:
        code, passed, digest = verify_all(capsys, 12)
    finally:
        walks.sweep.cache_clear()
        decompose.pipeline.cache_clear()
    assert code == 1 and passed == ORACLE_BLIND
    assert digest == PERTURBED_SHA256
