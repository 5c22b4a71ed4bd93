"""The recorded benchmark outputs, guarded in tier-1: config seed 0 of every
benchmark workload reproduces the output hashes in `bench/reference.json`
(`scripts/check_reference.py` checks all 100 seeds). Reads `bench/`, writes
nothing there."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "check_reference.py"


def test_config_seed_0_of_every_workload_reproduces_the_recorded_outputs():
    spec = importlib.util.spec_from_file_location("check_reference", SCRIPT)
    check_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_reference)
    run = check_reference.run
    reference = run.load_reference().get("workloads", {})
    problems = {
        name: check_reference.check(name, workload, 0, reference)
        for name, workload in sorted(run.WORKLOADS.items())
    }
    assert problems == {name: [] for name in run.WORKLOADS}
    assert len(problems) == 3  # desk, bank-runs, rates-noiseless
