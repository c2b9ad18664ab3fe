"""Fixture corpus for the whole-program flow rules (RL013–RL018).

Each rule gets (at least) one seeded violation that only a cross-module /
cross-function analysis can see, plus the same fixture with a
suppression pragma proving the pragma machinery reaches flow findings.
"""

from __future__ import annotations

from tests.lint.util import codes, lint_tree

# ----------------------------------------------------------------------
# RL013 — single-owner stream discipline
# ----------------------------------------------------------------------

RL013_SPLIT_OWNER = {
    "repro/sim/thinker.py": """
        def think_delay(sim):
            rng = sim.rng.stream("workload.think")
            return rng.expovariate(1.0)
    """,
    "repro/sim/router.py": """
        def route(sim, count):
            rng = sim.rng.stream("workload.think")
            return rng.randrange(count)
    """,
}


def test_rl013_flags_stream_drawn_from_two_functions(tmp_path):
    result = lint_tree(tmp_path, RL013_SPLIT_OWNER, select=["RL013"])
    assert codes(result) == ["RL013"]
    (violation,) = result.violations
    # The lexicographically-first qualname (router.route) owns; the
    # other drawing function is flagged.
    assert violation.path.endswith("thinker.py")
    assert "workload.think" in violation.message
    assert "route" in violation.message


def test_rl013_flags_one_shot_stream_drawn_from_two_functions(tmp_path):
    # ``once`` fetches a stream just as ``stream`` does: a one-shot name
    # drawn from two functions couples them all the same.
    files = {
        "repro/model/demand.py": """
            def cpu_burst(sim, qid):
                rng = sim.rng.once(f"query.n{qid}")
                return rng.expovariate(1.0)
        """,
        "repro/model/disks.py": """
            def pick_disk(sim, qid, count):
                rng = sim.rng.once(f"query.n{qid}")
                return rng.randrange(count)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL013"])
    assert codes(result) == ["RL013"]
    (violation,) = result.violations
    assert violation.path.endswith("disks.py")
    assert "query.n{}" in violation.message
    assert "cpu_burst" in violation.message


def test_rl013_single_function_owner_is_clean(tmp_path):
    files = {
        "repro/sim/only.py": """
            def think(sim):
                rng = sim.rng.stream("workload.think")
                a = rng.expovariate(1.0)
                b = rng.random()
                return a + b
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL013"])
    assert codes(result) == []


def test_rl013_stream_passed_down_is_one_call_path(tmp_path):
    # The owner fetches once and hands the stream to a callee: that is
    # one call path, not two owners.
    files = {
        "repro/sim/owner.py": """
            def sample_pair(sim, dist):
                rng = sim.rng.stream("workload.demand")
                return dist.sample(rng), dist.sample(rng)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL013"])
    assert codes(result) == []


def test_rl013_pragma_suppresses(tmp_path):
    files = dict(RL013_SPLIT_OWNER)
    files["repro/sim/thinker.py"] = """
        def think_delay(sim):
            rng = sim.rng.stream("workload.think")
            return rng.expovariate(1.0)  # reprolint: disable=RL013
    """
    result = lint_tree(tmp_path, files, select=["RL013"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL014 — RNG construction only inside the registry
# ----------------------------------------------------------------------

RL014_ROGUE_RNG = {
    "repro/model/shuffler.py": """
        import random

        def shuffled(items):
            rng = random.Random(42)
            out = list(items)
            rng.shuffle(out)
            return out
    """,
}


def test_rl014_flags_random_construction_outside_registry(tmp_path):
    result = lint_tree(tmp_path, RL014_ROGUE_RNG, select=["RL014"])
    assert codes(result) == ["RL014"]
    (violation,) = result.violations
    assert "random.Random" in violation.message
    assert violation.line == 5


def test_rl014_registry_module_is_exempt(tmp_path):
    files = {
        "repro/sim/rng.py": """
            import random

            def make(seed):
                return random.Random(seed)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL014"])
    assert codes(result) == []


def test_rl014_pragma_suppresses(tmp_path):
    files = {
        "repro/model/shuffler.py": """
            import random

            def shuffled(items):
                rng = random.Random(42)  # reprolint: disable=RL014
                out = list(items)
                rng.shuffle(out)
                return out
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL014"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL015 — observer dunders must not reach a draw
# ----------------------------------------------------------------------

RL015_DRAWING_REPR = {
    "repro/model/probe.py": """
        class Probe:
            def __init__(self, sim):
                self.sim = sim

            def _peek(self):
                rng = self.sim.rng.stream("probe.peek")
                return rng.random()

            def __repr__(self):
                return f"<probe {self._peek()}>"
    """,
}


def test_rl015_flags_draw_reachable_from_repr(tmp_path):
    result = lint_tree(tmp_path, RL015_DRAWING_REPR, select=["RL015"])
    assert codes(result) == ["RL015"]
    (violation,) = result.violations
    assert "__repr__" in violation.message
    # Flagged at the dunder definition, not the (innocent) helper.
    assert violation.line == 10


def test_rl015_pure_repr_is_clean(tmp_path):
    files = {
        "repro/model/probe.py": """
            class Probe:
                def __init__(self, count):
                    self.count = count

                def __repr__(self):
                    return f"<probe {self.count}>"
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL015"])
    assert codes(result) == []


def test_rl015_pragma_suppresses(tmp_path):
    files = {
        "repro/model/probe.py": """
            class Probe:
                def __init__(self, sim):
                    self.sim = sim

                def _peek(self):
                    rng = self.sim.rng.stream("probe.peek")
                    return rng.random()

                def __repr__(self):  # reprolint: disable=RL015
                    return f"<probe {self._peek()}>"
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL015"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL016 — policy select() purity
# ----------------------------------------------------------------------

RL016_MUTATING_POLICY = {
    "repro/policies/greedy.py": """
        from repro.policies.base import AllocationPolicy

        class GreedyPolicy(AllocationPolicy):
            def select(self, query, view):
                view.loads[0] = 0.0
                return 0
    """,
}


def test_rl016_flags_view_mutation(tmp_path):
    result = lint_tree(tmp_path, RL016_MUTATING_POLICY, select=["RL016"])
    assert codes(result) == ["RL016"]
    (violation,) = result.violations
    assert "view.loads" in violation.message


def test_rl016_flags_helper_mediated_mutation(tmp_path):
    # The mutation happens two calls away — only the propagated summary
    # can see it from select().
    files = {
        "repro/policies/sneaky.py": """
            from repro.policies.base import AllocationPolicy

            def _tweak(view):
                view.estimates.clear()

            class SneakyPolicy(AllocationPolicy):
                def select(self, query, view):
                    self._rebalance(view)
                    return 0

                def _rebalance(self, view):
                    _tweak(view)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL016"])
    assert codes(result) == ["RL016"]
    (violation,) = result.violations
    assert "view.estimates" in violation.message
    assert "helper" in violation.message


def test_rl016_private_policy_state_is_allowed(tmp_path):
    files = {
        "repro/policies/scan.py": """
            from repro.policies.base import AllocationPolicy

            class ScanPolicy(AllocationPolicy):
                def select(self, query, view):
                    self._view = view
                    self._scan_offset = self._scan_offset + 1
                    return self._scan_offset % len(view.candidates)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL016"])
    assert codes(result) == []


def test_rl016_scheduling_from_select_is_flagged(tmp_path):
    files = {
        "repro/policies/pusher.py": """
            from repro.policies.base import AllocationPolicy

            class PushPolicy(AllocationPolicy):
                def select(self, query, view):
                    self.system.sim.schedule(0.0, self._poke)
                    return 0

                def _poke(self):
                    pass
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL016"])
    assert "RL016" in codes(result)


def test_rl016_pragma_suppresses(tmp_path):
    files = {
        "repro/policies/greedy.py": """
            from repro.policies.base import AllocationPolicy

            class GreedyPolicy(AllocationPolicy):
                def select(self, query, view):  # reprolint: disable=RL016
                    view.loads[0] = 0.0
                    return 0
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL016"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL017 — subscriber purity
# ----------------------------------------------------------------------

RL017_SCHEDULING_SUBSCRIBER = {
    "repro/telemetry/spy.py": """
        class Spy:
            def __init__(self, sim, bus):
                self.sim = sim
                bus.subscribe_all(self._on_event)

            def _on_event(self, event):
                self.sim.schedule(0.0, self._noop)

            def _noop(self):
                pass
    """,
}


def test_rl017_flags_subscriber_that_schedules(tmp_path):
    result = lint_tree(
        tmp_path, RL017_SCHEDULING_SUBSCRIBER, select=["RL017"]
    )
    assert codes(result) == ["RL017"]
    (violation,) = result.violations
    assert "_on_event" in violation.message
    # Flagged at the subscribe site, where the contract is entered.
    assert violation.line == 5


def test_rl017_accumulating_subscriber_is_clean(tmp_path):
    files = {
        "repro/telemetry/counter.py": """
            class EventCounter:
                def __init__(self, bus):
                    self.counts = {}
                    bus.subscribe_all(self._on_event)

                def _on_event(self, event):
                    self.counts[event.name] = self.counts.get(event.name, 0) + 1
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL017"])
    assert codes(result) == []


def test_rl017_flags_subscriber_mutating_the_event(tmp_path):
    files = {
        "repro/telemetry/marker.py": """
            class Marker:
                def __init__(self, bus):
                    bus.subscribe_all(self._on_event)

                def _on_event(self, event):
                    event.seen = True
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL017"])
    assert codes(result) == ["RL017"]
    assert "mutates the event" in result.violations[0].message


def test_rl017_pragma_suppresses(tmp_path):
    files = {
        "repro/telemetry/spy.py": """
            class Spy:
                def __init__(self, sim, bus):
                    self.sim = sim
                    bus.subscribe_all(self._on_event)  # reprolint: disable=RL017

                def _on_event(self, event):
                    self.sim.schedule(0.0, self._noop)

                def _noop(self):
                    pass
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL017"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL018 — unordered iteration feeding scheduling / draws
# ----------------------------------------------------------------------

RL018_SET_SCHEDULING = {
    "repro/faults/armer.py": """
        def arm_all(sim, sites):
            for site in set(sites):
                sim.schedule(1.0, site.crash)
    """,
}


def test_rl018_flags_set_iteration_that_schedules(tmp_path):
    result = lint_tree(tmp_path, RL018_SET_SCHEDULING, select=["RL018"])
    assert codes(result) == ["RL018"]
    (violation,) = result.violations
    assert "schedules simulation events" in violation.message
    assert violation.line == 3


def test_rl018_flags_callee_mediated_draw(tmp_path):
    # The draw happens inside a local helper the loop calls.
    files = {
        "repro/model/jitter.py": """
            def _jitter(sim):
                rng = sim.rng.stream("ext.jitter")
                return rng.random()

            def apply_all(sim, names):
                out = {}
                for name in set(names):
                    out[name] = _jitter(sim)
                return out
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL018"])
    assert codes(result) == ["RL018"]
    assert "draws from an RNG stream" in result.violations[0].message


def test_rl018_sorted_iteration_is_clean(tmp_path):
    files = {
        "repro/faults/armer.py": """
            def arm_all(sim, sites):
                for site in sorted(set(sites)):
                    sim.schedule(1.0, site.crash)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL018"])
    assert codes(result) == []


def test_rl018_effect_free_set_loop_is_clean(tmp_path):
    files = {
        "repro/faults/tally.py": """
            def tally(sites):
                total = 0
                for site in set(sites):
                    total += 1
                return total
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL018"])
    assert codes(result) == []


def test_rl018_pragma_suppresses(tmp_path):
    files = {
        "repro/faults/armer.py": """
            def arm_all(sim, sites):
                for site in set(sites):  # reprolint: disable=RL018
                    sim.schedule(1.0, site.crash)
        """,
    }
    result = lint_tree(tmp_path, files, select=["RL018"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# Gating: flow rules run only under flow=True (or explicit select)
# ----------------------------------------------------------------------


def test_flow_rules_do_not_run_by_default(tmp_path):
    result = lint_tree(tmp_path, RL014_ROGUE_RNG)
    assert "RL014" not in codes(result)


def test_flow_rules_run_under_flow_flag(tmp_path):
    result = lint_tree(tmp_path, RL014_ROGUE_RNG, flow=True)
    assert "RL014" in codes(result)
