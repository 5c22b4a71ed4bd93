"""The recorded benchmark outputs, guarded in tier-1: config seed 0 of every
benchmark workload, and seeds 0-9 of the noiseless one, reproduce the
output hashes in `bench/reference.json` (`scripts/check_reference.py`
checks all 100 seeds). Reads `bench/`, writes nothing there."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "check_reference.py"


def _check_reference():
    spec = importlib.util.spec_from_file_location("check_reference", SCRIPT)
    check_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_reference)
    return check_reference, check_reference.run.load_reference().get("workloads", {})


def test_config_seed_0_of_every_workload_reproduces_the_recorded_outputs():
    check_reference, reference = _check_reference()
    run = check_reference.run
    problems = {
        name: check_reference.check(name, workload, 0, reference)
        for name, workload in sorted(run.WORKLOADS.items())
    }
    assert problems == {name: [] for name in run.WORKLOADS}
    assert len(problems) == 3  # desk, bank-runs, rates-noiseless


def test_ten_noiseless_config_seeds_reproduce_the_recorded_outputs():
    """Noiseless traces are where the clean path's rounding shows most:
    nothing covers it up."""
    check_reference, reference = _check_reference()
    workload = check_reference.run.WORKLOADS["rates-noiseless"]
    problems = {
        seed: check_reference.check("rates-noiseless", workload, seed, reference)
        for seed in range(10)
    }
    assert problems == {seed: [] for seed in range(10)}
