"""Firing and non-firing fixture snippets for every reprolint rule.

Each rule gets at least one positive (violating) and one negative (clean)
fixture, exercised through the full engine so scoping, name resolution,
and location reporting are all covered.
"""

from __future__ import annotations

import pytest

from tests.lint.util import codes, lint_snippet

# ----------------------------------------------------------------------
# RL001 — no global RNG state
# ----------------------------------------------------------------------

RL001_FIRING = [
    ("repro/model/workload.py", "import random\nx = random.random()\n"),
    ("repro/model/workload.py", "import random\nrandom.seed(3)\n"),
    ("repro/sim/thing.py", "from random import seed as s\ns(1)\n"),
    ("repro/policies/p.py", "import numpy as np\nv = np.random.uniform()\n"),
    ("repro/policies/p.py", "import numpy.random\nnumpy.random.seed(0)\n"),
    (
        "repro/queueing/q.py",
        "from numpy import random as npr\nnpr.shuffle([1, 2])\n",
    ),
]

RL001_CLEAN = [
    # Constructing an owned stream is exactly the fix RL001 demands.
    ("repro/sim/rng2.py", "import random\nstream = random.Random(7)\n"),
    # Method calls on a stream object are fine.
    (
        "repro/model/workload.py",
        "def draw(rng):\n    return rng.random() + rng.expovariate(1.0)\n",
    ),
    ("repro/policies/p.py", "import numpy as np\ng = np.random.default_rng(3)\n"),
    # A local variable that happens to be called `random` is not the module.
    ("repro/sim/x.py", "def f(random):\n    return random.slice(1)\n"),
]


@pytest.mark.parametrize("relative, source", RL001_FIRING)
def test_rl001_fires(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL001"])
    assert codes(result) == ["RL001"], result.violations


@pytest.mark.parametrize("relative, source", RL001_CLEAN)
def test_rl001_clean(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL001"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL002 — no wall clock in core simulation code
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "from time import monotonic\nt = monotonic()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
        "import datetime\nd = datetime.date.today()\n",
    ],
)
def test_rl002_fires_in_core(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/sim/clocky.py", source, select=["RL002"])
    assert codes(result) == ["RL002"]


def test_rl002_reports_location(tmp_path):
    source = "import time\n\n\nt = time.time()\n"
    result = lint_snippet(tmp_path, "repro/model/m.py", source, select=["RL002"])
    (violation,) = result.violations
    assert violation.line == 4
    assert violation.path.endswith("repro/model/m.py")


def test_rl002_allows_experiments_layer(tmp_path):
    source = "import time\nstarted = time.perf_counter()\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/timing.py", source, select=["RL002"]
    )
    assert codes(result) == []


def test_rl002_allows_simulated_time(tmp_path):
    source = "def f(sim):\n    return sim.now\n"
    result = lint_snippet(tmp_path, "repro/sim/ok.py", source, select=["RL002"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL003 — no unordered iteration in core simulation code
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "for site in {3, 1, 2}:\n    print(site)\n",
        "for site in set(range(4)):\n    pass\n",
        "for site in frozenset([1, 2]):\n    pass\n",
        "def f(a, b):\n    for s in a.union(b):\n        pass\n",
        "def f(a, b):\n    return [s for s in a.intersection(b)]\n",
        "for s in list(set([1, 2])):\n    pass\n",
        "def f(xs):\n    return {x for x in set(xs)}\n",
    ],
)
def test_rl003_fires(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/sim/agg.py", source, select=["RL003"])
    assert "RL003" in codes(result)


@pytest.mark.parametrize(
    "source",
    [
        "for site in sorted({3, 1, 2}):\n    pass\n",
        "for site in sorted(set(range(4))):\n    pass\n",
        "def f(a, b):\n    for s in sorted(a.union(b)):\n        pass\n",
        "for site in [3, 1, 2]:\n    pass\n",
        "def f(d):\n    for k in d.items():\n        pass\n",
    ],
)
def test_rl003_clean(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/sim/agg.py", source, select=["RL003"])
    assert codes(result) == []


def test_rl003_out_of_scope_in_experiments(tmp_path):
    source = "for x in {1, 2}:\n    pass\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/e.py", source, select=["RL003"]
    )
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL004 — aggregation must use math.fsum
# ----------------------------------------------------------------------


def test_rl004_fires_in_aggregation_module(tmp_path):
    source = "def avg(xs):\n    return sum(xs) / len(xs)\n"
    result = lint_snippet(tmp_path, "repro/sim/stats.py", source, select=["RL004"])
    assert codes(result) == ["RL004"]


def test_rl004_clean_with_fsum(tmp_path):
    source = "import math\n\ndef avg(xs):\n    return math.fsum(xs) / len(xs)\n"
    result = lint_snippet(tmp_path, "repro/sim/stats.py", source, select=["RL004"])
    assert codes(result) == []


def test_rl004_out_of_scope_module(tmp_path):
    # sum() is fine outside the aggregation modules (e.g. config checks).
    source = "def total(xs):\n    return sum(xs)\n"
    result = lint_snippet(tmp_path, "repro/model/config.py", source, select=["RL004"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL005 — no mutable default arguments
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "def f(xs=[]):\n    return xs\n",
        "def f(m={}):\n    return m\n",
        "def f(s=set()):\n    return s\n",
        "def f(*, xs=list()):\n    return xs\n",
        "import collections\ndef f(d=collections.defaultdict(list)):\n    return d\n",
        "g = lambda xs=[]: xs\n",
    ],
)
def test_rl005_fires(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/analysis/a.py", source, select=["RL005"])
    assert codes(result) == ["RL005"]


@pytest.mark.parametrize(
    "source",
    [
        "def f(xs=None):\n    return xs or []\n",
        "def f(xs=()):\n    return xs\n",
        "def f(name='x', n=3):\n    return name * n\n",
    ],
)
def test_rl005_clean(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/analysis/a.py", source, select=["RL005"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL007 — no environment reads in core simulation code
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "import os\nv = os.environ.get('HOME')\n",
        "import os\nv = os.getenv('HOME')\n",
        "import platform\np = platform.system()\n",
        "import getpass\nu = getpass.getuser()\n",
        "from os import environ\nv = environ['HOME']\n",
    ],
)
def test_rl007_fires_in_core(tmp_path, source):
    result = lint_snippet(tmp_path, "repro/queueing/env.py", source, select=["RL007"])
    assert codes(result) == ["RL007"]


def test_rl007_allows_experiments_layer(tmp_path):
    source = "import os\nv = os.environ.get('REPRO_CACHE_DIR')\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/cache2.py", source, select=["RL007"]
    )
    assert codes(result) == []


def test_rl007_allows_os_path_in_core(tmp_path):
    source = "import os\np = os.path.join('a', 'b')\n"
    result = lint_snippet(tmp_path, "repro/sim/io.py", source, select=["RL007"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL008 — no bare except / swallowed kernel exceptions
# ----------------------------------------------------------------------


def test_rl008_bare_except_fires_anywhere(tmp_path):
    source = "try:\n    x = 1\nexcept:\n    x = 2\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/h.py", source, select=["RL008"]
    )
    assert codes(result) == ["RL008"]


def test_rl008_swallowed_exception_fires_in_kernel(tmp_path):
    source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
    result = lint_snippet(tmp_path, "repro/sim/engine2.py", source, select=["RL008"])
    assert codes(result) == ["RL008"]


def test_rl008_swallow_allowed_outside_kernel(tmp_path):
    # Outside repro.sim, except-with-pass is tolerated (e.g. cache misses).
    source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/c.py", source, select=["RL008"]
    )
    assert codes(result) == []


def test_rl008_handled_exception_clean_in_kernel(tmp_path):
    source = (
        "try:\n"
        "    x = 1\n"
        "except ValueError as err:\n"
        "    raise RuntimeError('bad') from err\n"
    )
    result = lint_snippet(tmp_path, "repro/sim/engine2.py", source, select=["RL008"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL009 — no print() in core simulation code
# ----------------------------------------------------------------------


def test_rl009_fires_in_core(tmp_path):
    source = "def f():\n    print('debug')\n"
    result = lint_snippet(tmp_path, "repro/model/site2.py", source, select=["RL009"])
    assert codes(result) == ["RL009"]


def test_rl009_allows_experiments_output(tmp_path):
    source = "def report(t):\n    print(t.render())\n"
    result = lint_snippet(
        tmp_path, "repro/experiments/r.py", source, select=["RL009"]
    )
    assert codes(result) == []


def test_rl009_docstring_mention_is_clean(tmp_path):
    source = '"""Example::\n\n    print(monitor.summary())\n"""\nX = 1\n'
    result = lint_snippet(tmp_path, "repro/model/b.py", source, select=["RL009"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL010 — directory listings must be sorted
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "import os\nfor name in os.listdir('.'):\n    pass\n",
        "import glob\nfor name in glob.glob('*.json'):\n    pass\n",
        "def f(root):\n    for p in root.iterdir():\n        pass\n",
        "def f(root):\n    return [p for p in root.glob('*.json')]\n",
        "def f(root):\n    for p in list(root.rglob('*.py')):\n        pass\n",
    ],
)
def test_rl010_fires(tmp_path, source):
    result = lint_snippet(
        tmp_path, "repro/experiments/files.py", source, select=["RL010"]
    )
    assert "RL010" in codes(result)


@pytest.mark.parametrize(
    "source",
    [
        "import os\nfor name in sorted(os.listdir('.')):\n    pass\n",
        "def f(root):\n    for p in sorted(root.glob('*.json')):\n        pass\n",
        "def f(names):\n    for n in names:\n        pass\n",
    ],
)
def test_rl010_clean(tmp_path, source):
    result = lint_snippet(
        tmp_path, "repro/experiments/files.py", source, select=["RL010"]
    )
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL011 — fault-schedule randomness must use named sim.rng streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        # Owned streams are fine elsewhere (RL001 allows them) but not in
        # the fault layer: the schedule must derive from (seed, plan).
        "import random\nrng = random.Random(42)\n",
        "import random\n\ndef chain(spec):\n    return random.Random(spec.site)\n",
        "import numpy as np\ng = np.random.default_rng(3)\n",
        "def f(rng):\n    rng.seed(0)\n    return rng.random()\n",
    ],
)
def test_rl011_fires(tmp_path, source):
    result = lint_snippet(
        tmp_path, "repro/faults/injector2.py", source, select=["RL011"]
    )
    assert "RL011" in codes(result)


@pytest.mark.parametrize(
    "relative, source",
    [
        # Named streams are the blessed spelling.
        (
            "repro/faults/injector2.py",
            "def chain(sim, i, s):\n"
            "    rng = sim.rng.stream(f'faults.outage{i}.s{s}')\n"
            "    return rng.expovariate(1.0)\n",
        ),
        # Drawing from a stream object is fine.
        (
            "repro/faults/net.py",
            "def drop(rng, p):\n    return rng.random() < p\n",
        ),
        # Outside repro.faults the rule never applies.
        (
            "repro/model/other.py",
            "import random\nrng = random.Random(42)\n",
        ),
    ],
)
def test_rl011_clean(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL011"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL012 — event-list internals stay inside repro.sim.events
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "relative, source",
    [
        (
            "repro/sim/scheduler2.py",
            "import heapq\n\ndef pick(entries):\n    return heapq.heappop(entries)\n",
        ),
        (
            "repro/sim/scheduler3.py",
            "from heapq import heappush\n\ndef add(h, e):\n    heappush(h, e)\n",
        ),
        (
            "repro/model/peek.py",
            "def next_time(sim):\n    return sim._queue._heap[0][0]\n",
        ),
        (
            "repro/faults/drain.py",
            "def drain(queue):\n    queue._buckets.clear()\n    queue._keys.clear()\n",
        ),
        (
            "repro/sim/pool.py",
            "def reuse(queue):\n    return queue._free.pop()\n",
        ),
    ],
)
def test_rl012_fires(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL012"])
    assert "RL012" in codes(result)


@pytest.mark.parametrize(
    "relative, source",
    [
        # The one implementation home is exempt.
        (
            "repro/sim/events.py",
            "import heapq\n\ndef pick(h):\n    return heapq.heappop(h)\n",
        ),
        # The public queue API is the blessed spelling everywhere else.
        (
            "repro/sim/resources2.py",
            "from repro.sim.events import heap_pop, heap_push\n\n"
            "def build():\n"
            "    heap = []\n"
            "    heap_push(heap, (1.0, 0))\n"
            "    return heap_pop(heap)\n",
        ),
        (
            "repro/sim/engine2.py",
            "def drive(sim):\n"
            "    event = sim._queue.pop_due(10.0)\n"
            "    return event\n",
        ),
    ],
)
def test_rl012_clean(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL012"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL019 — hot-path bus.emit must sit behind a wants()/active guard
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "relative, source",
    [
        # A bare emit constructs an event even when telemetry is off.
        (
            "repro/model/emitter.py",
            "def f(bus, ev):\n    bus.emit(ev)\n",
        ),
        # Aliasing the bound method does not launder the call.
        (
            "repro/model/alias.py",
            "def f(bus, ev):\n    emit = bus.emit\n    emit(ev)\n",
        ),
        # A non-guard condition is not a guard.
        (
            "repro/sim/loop2.py",
            "def f(bus, ev, x):\n    if x > 0:\n        bus.emit(ev)\n",
        ),
        # A guard that falls through (no early exit) protects nothing
        # after it.
        (
            "repro/model/fallthrough.py",
            "def f(bus, ev):\n"
            "    if not bus.active:\n"
            "        pass\n"
            "    bus.emit(ev)\n",
        ),
        # Names of bus attributes that no longer exist guard nothing.
        (
            "repro/model/stale.py",
            "def f(bus, ev, T):\n"
            "    if bus.trace_wanted or bus.wants_type(T):\n"
            "        bus.emit(ev)\n",
        ),
    ],
)
def test_rl019_fires(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL019"])
    assert "RL019" in codes(result)


@pytest.mark.parametrize(
    "relative, source",
    [
        # The canonical guarded-emit idiom.
        (
            "repro/model/guarded.py",
            "def f(bus, ev, T):\n"
            "    if bus.active and bus.wants(T):\n"
            "        bus.emit(ev)\n",
        ),
        # Any test that mentions ``active`` guards, whatever else it
        # calls.
        (
            "repro/model/optin.py",
            "def f(bus, ev, T):\n"
            "    if bus.active and bus.wants_type(T):\n"
            "        bus.emit(ev)\n",
        ),
        # The LoadBoard._announce shape: an early-return guard covers the
        # rest of the suite.
        (
            "repro/model/announce.py",
            "def f(bus, ev, T):\n"
            "    if bus is None or not bus.active or not bus.wants(T):\n"
            "        return\n"
            "    bus.emit(ev)\n",
        ),
        # An alias emit in the else-branch of an ``active`` test, nested
        # in a loop.
        (
            "repro/sim/engine3.py",
            "def drive(bus, ev):\n"
            "    if not bus.active:\n"
            "        pass\n"
            "    else:\n"
            "        emit = bus.emit\n"
            "        while True:\n"
            "            emit(ev)\n",
        ),
        # Deeper statements inherit the guard.
        (
            "repro/model/nested.py",
            "def f(bus, ev, T):\n"
            "    if bus.wants(T):\n"
            "        for _ in range(3):\n"
            "            bus.emit(ev)\n",
        ),
        # Outside the kernel/model scope the bus is free to emit.
        (
            "repro/telemetry/replayer.py",
            "def f(bus, ev):\n    bus.emit(ev)\n",
        ),
    ],
)
def test_rl019_clean(tmp_path, relative, source):
    result = lint_snippet(tmp_path, relative, source, select=["RL019"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# Engine behaviour around rule selection
# ----------------------------------------------------------------------


def test_select_runs_only_requested_rules(tmp_path):
    source = "import time\nt = time.time()\nfor x in {1, 2}:\n    pass\n"
    result = lint_snippet(tmp_path, "repro/sim/multi.py", source, select=["RL002"])
    assert codes(result) == ["RL002"]


def test_unknown_rule_code_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown rule code"):
        lint_snippet(tmp_path, "repro/sim/x.py", "X = 1\n", select=["RL999"])


def test_syntax_error_is_reported_not_raised(tmp_path):
    result = lint_snippet(tmp_path, "repro/sim/broken.py", "def f(:\n")
    assert result.exit_code == 2
    assert any("syntax error" in message for message in result.errors)
