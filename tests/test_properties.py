"""Randomized invariant sweep: conservation, collision-freedom, FIFO order and
portion purity over >= 10^3 generated configurations."""
import numpy as np

from pushpull_mac import ObservationModel, RcsPopulation, mac_rcs

from _invariants import check_cff_run, check_rcs_frame, check_rcs_run, random_cff_config, random_rcs_case

N_CFF_CONFIGS = 600
N_RCS_FRAMES = 500
N_RCS_RUNS = 60


def test_cff_invariants_randomized():
    rng = np.random.default_rng(2024)
    for i in range(N_CFF_CONFIGS):
        config = random_cff_config(rng)
        try:
            check_cff_run(config, rng)
        except AssertionError as exc:
            raise AssertionError(f"config #{i} violated an invariant: {config}") from exc


def test_rcs_invariants_randomized():
    rng = np.random.default_rng(4048)
    for i in range(N_RCS_FRAMES):
        config, population, query = random_rcs_case(rng)
        try:
            check_rcs_frame(config, population, query, rng)
        except AssertionError as exc:
            raise AssertionError(
                f"case #{i} violated an invariant: {config}, pull={population.n_pull_devices}, "
                f"push={population.n_push_devices}, query=[{query.lo}, {query.hi}]"
            ) from exc


def test_rcs_runs_match_frame_loop():
    # run lengths around the kernel's block size cross block ends, and some
    # populations pin their observations, so those frames draw no doubles
    rng = np.random.default_rng(8096)
    block = mac_rcs._FRAMES_PER_BLOCK
    for i in range(N_RCS_RUNS):
        config, population, query = random_rcs_case(rng)
        if rng.random() < 0.2:
            fixed = tuple(float(x) for x in rng.random(population.n_pull_devices))
            population = RcsPopulation(
                population.n_pull_devices, population.n_push_devices, population.trigger, ObservationModel(fixed)
            )
        n_frames = int(rng.choice([1, 2, block - 1, block, block + 1, 2 * block + 1, int(rng.integers(3, 700))]))
        seed = int(rng.integers(0, 2**32))
        try:
            check_rcs_run(config, population, query, n_frames, seed)
        except AssertionError as exc:
            raise AssertionError(
                f"run #{i} ({n_frames} frames, seed {seed}) differs from the frame loop: {config}, "
                f"pull={population.n_pull_devices}, push={population.n_push_devices}, "
                f"query=[{query.lo}, {query.hi}]"
            ) from exc
