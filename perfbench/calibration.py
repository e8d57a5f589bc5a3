"""Fixed probes that tell how fast the machine runs right now.

The two CPUs of the benchmark machine are shared, and their speed moves by
up to a third within a minute.  A run therefore times a fixed probe right
after each of its operations and reports each operation's time at the
probe's reference speed: wall time x reference / (median of the five probes
around it).  The factor cancels what the machine's speed does to both and
keeps what the program does.

Each probe does the kind of work its workload does, because the machine's
speed does not move every kind of work alike:

- series_loop_time() follows every operation of kernel-points: a three-term
  recurrence on one-element NumPy arrays, as the kernel's series loop runs.
- array_loop_time() follows every operation of transforms: interpreted
  Python, NumPy calls on 500-element arrays and a pass over 2 MB.
- spawn_time() follows every command of cli-cold and every set-up: a fresh
  interpreter that imports NumPy, that is process start and a cold import.

The loops allocate no large array, so the allocator's state does not change
their time, and an untimed first pass warms the caches, so the operation
before them does not count.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# Median probe times on the machine the bounds were set on (2 shared CPUs).
SERIES_REFERENCE_S = 1.85e-3
ARRAY_REFERENCE_S = 1.2e-3
SPAWN_REFERENCE_S = 0.2

_ONE = np.array([0.3])
_TWO = np.array([0.7])
_SMALL = np.arange(500.0)
_SMALL_OUT = np.empty_like(_SMALL)
_STREAM = np.linspace(0.0, 1.0, 250_000)
_STREAM_OUT = np.empty_like(_STREAM)


def _stream():
    for _ in range(2):
        np.multiply(_STREAM, 1.0000001, out=_STREAM_OUT)
        np.add(_STREAM_OUT, 0.5, out=_STREAM_OUT)


def _series_loop():
    a, b, c = _ONE, _TWO, _ONE
    for _ in range(300):
        a, c = c, 2.0 * b * c - a
    s = 0.0
    for j in range(2000):
        s += j * 0.5
    _stream()


def _array_loop():
    s = 0.0
    for j in range(5000):
        s += j * 0.5
    for _ in range(25):
        np.multiply(_SMALL, _SMALL, out=_SMALL_OUT)
        np.add(_SMALL_OUT, 1.0, out=_SMALL_OUT)
        np.sqrt(_SMALL_OUT, out=_SMALL_OUT)
    _stream()


def _timed_second_pass(loop):
    loop()
    t = time.perf_counter()
    loop()
    return time.perf_counter() - t


def series_loop_time():
    return _timed_second_pass(_series_loop)


def array_loop_time():
    return _timed_second_pass(_array_loop)


def spawn_time(env=None):
    """Wall time of `python -c "import numpy"` in a fresh process."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - t


PROBES = {
    "kernel-points": (series_loop_time, SERIES_REFERENCE_S),
    "transforms": (array_loop_time, ARRAY_REFERENCE_S),
    "cli-cold": (spawn_time, SPAWN_REFERENCE_S),
}


def factor(samples, reference):
    """Multiply a wall time measured among these probe times by this to get
    the time at the reference speed."""
    return reference / statistics.median(samples)


def scaled(times, probes, reference):
    """Each time at the reference speed.  Probe i ran right after time i;
    time i is scaled by the median of probes i-2 .. i+2, which is how fast
    the machine ran around it."""
    return [t * factor(probes[max(0, i - 2):i + 3], reference) for i, t in enumerate(times)]
