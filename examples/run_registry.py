"""Run registry walkthrough: record, compare, and gate campaigns.

Runs two small campaigns through the evaluation service, records each
outcome into a persistent :class:`~repro.store.runstore.RunStore` with
:meth:`~repro.store.runstore.RunStore.record_response` (as
``repro campaign --store`` does), pins the first as the ``main``
baseline, compares the two fronts (hypervolume, epsilon-indicator,
coverage, diff, knee drift), and finally shows the regression gate
failing on an artificially degraded front.

Run with: ``PYTHONPATH=src python examples/run_registry.py``
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config
from repro.reporting import comparison_markdown, run_report_markdown
from repro.service import CampaignConfig, run_campaign
from repro.service.api import CampaignResponse, FrontierPoint
from repro.store import RunStore, check_regression, compare_runs


def main() -> None:
    with TemporaryDirectory() as tmp:
        store = RunStore(Path(tmp) / "runs.sqlite")
        specs = [DcimSpec(wstore=4096, precision=p) for p in ("INT4", "INT8")]
        labels = ["4096:INT4", "4096:INT8"]
        config = CampaignConfig(nsga2=NSGA2Config(population_size=16,
                                                  generations=6))

        # 1. Run the same campaign twice and record what each returned.
        first, second = (
            store.record_response(
                run_campaign(specs, config).to_response(),
                specs=labels, name=name,
            )
            for name in ("nightly-1", "nightly-2")
        )
        store.set_baseline("main", first.run_id)
        print(f"recorded {first.run_id} (baseline 'main') and "
              f"{second.run_id}; registry holds {len(store)} runs\n")

        # 2. Cross-run comparison: identical seeds => identical fronts.
        comparison = compare_runs(store, "main", second.run_id)
        print(comparison.describe(), "\n")

        # 3. The regression gate passes for the twin run ...
        report = check_regression(store, second.run_id, "main")
        print(f"gate on twin run: "
              f"{'PASS' if report.passed else 'FAIL'}\n")

        # 4. ... and fails on an artificially degraded front (every
        # objective 20% worse, half the points dropped).
        good_front = store.front(first.run_id)
        degraded = [
            FrontierPoint(
                precision=p.precision, n=p.n, h=p.h, l=p.l, k=p.k,
                objectives=tuple(o + abs(o) * 0.2 for o in p.objectives),
            )
            for p in good_front[::2]
        ]
        bad = store.record_response(
            CampaignResponse(frontier=tuple(degraded)),
            specs=["degraded"], name="degraded",
        )
        report = check_regression(store, bad.run_id, "main")
        print(report.describe())
        assert not report.passed

        # 5. Markdown artifacts for sharing.
        print("\n--- run report (markdown, truncated) ---")
        markdown = run_report_markdown(store.get_run(first.run_id), good_front)
        print("\n".join(markdown.splitlines()[:12]))
        print("\n--- comparison report (markdown) ---")
        print(comparison_markdown(comparison))

        store.close()


if __name__ == "__main__":
    main()
