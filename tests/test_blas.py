import sys
import threading

import pytest

from wignerlab import blas


def counts():
    return [get() for get, _ in blas._controls()]


requires_openblas = pytest.mark.skipif(not blas._controls(), reason="no bundled OpenBLAS found")


@requires_openblas
def test_phase_pins_one_thread_and_restores():
    before = counts()
    for _, set_ in blas._controls():
        set_(2)
    try:
        with blas.single_blas_thread():
            assert counts() == [1] * len(before)
        assert counts() == [2] * len(before)
        with pytest.raises(RuntimeError):
            with blas.single_blas_thread():
                raise RuntimeError("phase failed")
        assert counts() == [2] * len(before)
    finally:
        for (_, set_), count in zip(blas._controls(), before):
            set_(count)


@requires_openblas
def test_concurrent_phases_share_one_pin():
    """More phases than cores enter and leave at once; none sees the count restored early."""
    before = counts()
    seen, errors = [], []
    start = threading.Barrier(8)

    def phase():
        try:
            start.wait(timeout=10)
            for _ in range(200):
                with blas.single_blas_thread():
                    seen.append(counts())
        except Exception as exc:  # noqa: BLE001 - surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=phase) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors
    assert len(seen) == 8 * 200
    assert all(c == [1] * len(before) for c in seen)
    assert counts() == before

