"""Figure 5 — group consolidation (tree III → tree IV).

"Whenever a failure occurs in either ses or str, it will force a restart of
both, yielding a recovery time proportional to max(MTTR_ses, MTTR_str),
instead of MTTR_ses + MTTR_str.  ... with tree III it took on average 9.50
and 9.76 seconds ...; with tree IV the system recovers in 6.25 and 6.11
seconds."
"""

import pytest
from conftest import print_banner

from repro.core.render import render_side_by_side, render_tree
from repro.core.transformations import consolidate_groups
from repro.experiments.recovery import measure_recovery
from repro.experiments.runner import PAPER_TABLE4
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii


def test_fig5(trials):
    before = tree_iii()
    after = consolidate_groups(before, ["R_ses", "R_str"], "R_ses_str", name="tree-IV")
    print_banner("Figure 5: group consolidation gives tree IV")
    print(render_side_by_side(render_tree(before), render_tree(after)))

    assert after.get_cell("R_ses_str").is_leaf

    paper_iii = PAPER_TABLE4[("III", "perfect")]
    paper_iv = PAPER_TABLE4[("IV", "perfect")]
    ses_iii = measure_recovery(before, "ses", trials=trials, seed=330).mean
    str_iii = measure_recovery(before, "str", trials=trials, seed=331).mean
    ses_iv = measure_recovery(after, "ses", trials=trials, seed=332).mean
    str_iv = measure_recovery(after, "str", trials=trials, seed=333).mean
    print()
    for name, iii, iv in (("ses", ses_iii, ses_iv), ("str", str_iii, str_iv)):
        print(f"{name} failure: {iii:.2f}s (III, paper {paper_iii[name]:.2f}) -> "
              f"{iv:.2f}s (IV, paper {paper_iv[name]:.2f})")

    assert ses_iv == pytest.approx(paper_iv["ses"], abs=0.6)
    assert str_iv == pytest.approx(paper_iv["str"], abs=0.6)
    assert ses_iv < ses_iii and str_iv < str_iii

    # The deeper claim: under tree III the lone restart *induces* a peer
    # failure (f_ses,str ≈ 1), so total downtime is sum-shaped; tree IV's
    # joint restart removes the induced episode entirely.
    def induced_and_total(tree, seed):
        station = MercuryStation(tree=tree, seed=seed)
        station.boot()
        t0 = station.kernel.now
        failure = station.injector.inject_simple("ses")
        station.run_until_recovered(failure)
        station.run_until_quiescent()
        induced = len(station.trace.filter(kind="failure_induced", since=t0))
        restarts = len(station.trace.filter(kind="restart_ordered", since=t0))
        return induced, restarts

    induced_iii, restarts_iii = induced_and_total(before, 334)
    induced_iv, restarts_iv = induced_and_total(after, 335)
    print(f"induced peer failures per ses episode: {induced_iii} (III) vs {induced_iv} (IV)")
    print(f"restart actions per ses episode:       {restarts_iii} (III) vs {restarts_iv} (IV)")
    assert (induced_iii, restarts_iii) == (1, 2)
    assert (induced_iv, restarts_iv) == (0, 1)
