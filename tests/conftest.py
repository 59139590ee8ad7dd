import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acadsearch.corpus import SynthConfig, generate_synthetic


@pytest.fixture(scope="session")
def small_synth():
    """A small but structured corpus shared across module tests."""
    cfg = SynthConfig(n_docs=1500, n_authors=250, n_venues=16, n_affiliations=40,
                      n_topics=8, vocab_size=1600)
    corpus, authors = generate_synthetic(cfg, seed=13)
    return cfg, corpus, authors


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, then stop the child."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    if alive:
        pytest.fail(f"child processes left running: {alive}")
