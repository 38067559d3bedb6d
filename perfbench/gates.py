"""Correctness gates applied to every request of every run.

Each gate returns a list of problems; an empty list means the output
passed.  A request with any problem counts as failed, and one failed
request makes the whole run incorrect.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

#: ``(design signature, predicted cycles)`` of one search's best design.
Best = Tuple[object, float]


def _same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def check_same_best(
    exhaustive: Mapping[str, Best], tiered: Mapping[str, Best]
) -> List[str]:
    """Tiered search must return the exhaustive best, bitwise.

    Both maps go from a result label (a design kind, or ``"program"``)
    to the best design's signature and predicted cycles.
    """
    problems = []
    if set(exhaustive) != set(tiered):
        return [
            f"result labels differ: {sorted(exhaustive)} vs {sorted(tiered)}"
        ]
    for label in sorted(exhaustive):
        sig_e, cycles_e = exhaustive[label]
        sig_t, cycles_t = tiered[label]
        if sig_e != sig_t:
            problems.append(f"{label}: tiered best signature differs")
        if not _same_float(cycles_e, cycles_t):
            problems.append(
                f"{label}: tiered best cycles {cycles_t!r} != "
                f"exhaustive {cycles_e!r}"
            )
    return problems


def check_bitwise_equal(
    outputs: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray]
) -> List[str]:
    """Every output field must equal the reference bit for bit."""
    if set(outputs) != set(reference):
        return [f"fields differ: {sorted(outputs)} vs {sorted(reference)}"]
    problems = []
    for name in sorted(reference):
        got, want = np.asarray(outputs[name]), np.asarray(reference[name])
        if got.dtype != want.dtype or got.shape != want.shape:
            problems.append(
                f"{name}: {got.dtype}{got.shape} vs {want.dtype}{want.shape}"
            )
        elif got.tobytes() != want.tobytes():
            differing = int(
                np.count_nonzero(
                    got.view(np.uint8).reshape(got.size, -1)
                    != want.view(np.uint8).reshape(want.size, -1)
                )
            )
            problems.append(f"{name}: {differing} byte(s) differ")
    return problems


def check_backend(active_backend: str, resolved_backend: str) -> List[str]:
    """No silent numpy fallback when the default backend is the JIT."""
    if resolved_backend == "jit" and active_backend != "jit":
        return [f"silent fallback: ran on {active_backend!r}, not 'jit'"]
    return []


def check_job_done(state: str) -> List[str]:
    """A service job must finish in the ``done`` state."""
    return [] if state == "done" else [f"job ended in state {state!r}"]


def check_repeat_payload(
    seen: Dict[str, bytes], signature: str, payload: bytes
) -> List[str]:
    """A repeated signature must return a byte-identical payload.

    The first payload for a signature is remembered in ``seen``.
    """
    first = seen.setdefault(signature, payload)
    if first != payload:
        return [f"payload for repeated signature {signature[:16]} differs"]
    return []
