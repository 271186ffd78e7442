"""Batch policies, commit flow, rule accounting, and the three strategy rows."""

import copy

import pytest

from vnesim.controller import (
    BATCHED,
    COUNT_ONLY,
    PER_REQUEST,
    SPLITTING,
    STRATEGIES,
    TIME_ONLY,
    WHICHEVER_FIRST,
    BatchPolicy,
    StrategyRow,
    make_controller,
)
from vnesim.metrics import MetricsLog
from vnesim.netmodel import UnknownRequestError, VirtualNetworkRequest
from vnesim.simulator import Engine, to_ticks

from conftest import make_net
from reference import longest_wait, request_state, residual_capacity, indexed_parts

COMMITTED = "committed"
DEPARTED = "departed"
REJECTED = "rejected"
CANCELLED = "rejected-at-commit"


def u(units):
    return to_ticks(units)


def mk(rid, nodes, links, arrival=1, lifetime=100):
    return VirtualNetworkRequest(rid, nodes, links, u(arrival), u(lifetime))


def drive(substrate, policy, requests, strategy="batched", split_paths=2, horizon=None):
    ctl = make_controller(strategy, substrate, policy, None, split_paths)
    ctl.log = MetricsLog(ctl.view)
    engine = Engine(ctl, requests, horizon=horizon, check_invariants=True)
    engine.run()
    return ctl, engine


class TestBatchPolicy:
    def test_count_only_needs_no_window(self):
        p = BatchPolicy(5, None, COUNT_ONLY)
        assert p.counts and not p.timed

    def test_timed_modes_require_a_window(self):
        with pytest.raises(ValueError, match="window"):
            BatchPolicy(5, None, TIME_ONLY)
        with pytest.raises(ValueError, match="window"):
            BatchPolicy(5, None, WHICHEVER_FIRST)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            BatchPolicy(0, u(5), WHICHEVER_FIRST)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown batch mode"):
            BatchPolicy(5, u(5), "sometimes")

    def test_whichever_first_both_counts_and_times(self):
        p = BatchPolicy(5, u(5), WHICHEVER_FIRST)
        assert p.counts and p.timed


class TestRuleAccounting:
    def test_commit_books_rules_once_and_departure_frees_them_without_a_write(self):
        # the ledger's rule load is the one record of installed rules; the
        # log counts each write once, and a departure writes nothing.
        # Switch 2 cannot host a node of 5, so the nodes sit on 1 and 3 and
        # the one virtual link's rules go on all three switches
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={1: 10, 2: 3, 3: 10})
        ctl = make_controller(BATCHED, net, BatchPolicy(1, None, COUNT_ONLY), None)
        ctl.log = MetricsLog(ctl.view)
        engine = Engine(ctl, [])
        base = ctl.view.base
        loads, left = dict(base.rule_load), list(ctl.view.capacity_left)
        assert (loads, left) == ({1: 0, 2: 0, 3: 0}, [10, 3, 10])
        ctl.on_arrival(engine, mk(0, {0: 5, 1: 5}, {(0, 1): 2}))  # a batch of one
        assert request_state(ctl, 0) == COMMITTED
        assert base.committed[0].rule_units == {0: 1, 1: 1, 2: 1}
        assert base.rule_load == {1: 1, 2: 1, 3: 1}
        assert ctl.view.capacity_left == [4, 2, 4]
        assert ctl.log.rule_writes == 3
        ctl.on_departure(engine, 0)
        assert request_state(ctl, 0) == DEPARTED
        assert (base.rule_load, ctl.view.capacity_left) == (loads, left)
        assert ctl.log.rule_writes == 3
        assert ctl.view.conservation_violations() == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rules_alias_is_the_ledgers_rule_load(self, strategy):
        # bench/ reads `rules.installed` by name; it must be the ledger's
        # dict itself, not a copy that could drift from it
        net = make_net([1, 2], [(1, 2)])
        ctl = make_controller(strategy, net, BatchPolicy(5, u(25), WHICHEVER_FIRST), None)
        assert ctl.rules.installed is ctl.view.base.rule_load


def six_cycle():
    """Ring of six switches; odd ones roomy, even ones with 5 memory units."""
    links = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    return make_net(
        [1, 2, 3, 4, 5, 6], links,
        caps={1: 60, 3: 60, 5: 60, 2: 5, 4: 5, 6: 5},
    )


def triangle_requests(n, arrival_gap=1, lifetime=100):
    """n identical requests: 3 nodes of demand 6 (odd switches only), a full
    triangle of demand-1 virtual links, arriving one time unit apart."""
    return [
        mk(
            rid,
            {0: 6, 1: 6, 2: 6},
            {(0, 1): 1, (0, 2): 1, (1, 2): 1},
            arrival=1 + rid * arrival_gap,
            lifetime=lifetime,
        )
        for rid in range(n)
    ]


class TestBatchedCommit:
    def test_count_trigger_fires_inside_the_filling_arrival(self):
        ctl, engine = drive(
            six_cycle(),
            BatchPolicy(5, None, COUNT_ONLY),
            triangle_requests(5),
            horizon=u(10),
        )
        assert ctl.commit_events == 1
        assert all(request_state(ctl, r) == COMMITTED for r in range(5))
        # each request writes 9 rules: three 2-hop paths over three switches
        assert ctl.log.rule_writes == 45
        assert ctl.view.base.rule_load == {1: 10, 3: 10, 5: 10, 2: 5, 4: 5, 6: 5}
        # the five even-switch units are exactly spent: 5 rules in cap 5
        assert residual_capacity(ctl.view, 2) == 0
        assert engine.events_dispatched == 5  # five arrivals, no trigger

    def test_departures_free_rule_memory_but_not_writes(self):
        ctl, engine = drive(
            six_cycle(),
            BatchPolicy(5, None, COUNT_ONLY),
            triangle_requests(5),
        )
        assert all(request_state(ctl, r) == DEPARTED for r in range(5))
        assert ctl.log.rule_writes == 45
        assert ctl.view.base.rule_load == {sw: 0 for sw in [1, 2, 3, 4, 5, 6]}
        assert ctl.view.base.committed == {}
        assert ctl.view.conservation_violations() == []

    def test_per_request_same_writes_more_commit_events(self):
        batched, _ = drive(
            six_cycle(), BatchPolicy(5, None, COUNT_ONLY), triangle_requests(5)
        )
        per_req, _ = drive(
            six_cycle(),
            BatchPolicy(5, None, COUNT_ONLY),
            triangle_requests(5),
            strategy="per-request",
        )
        assert per_req.log.rule_writes == batched.log.rule_writes == 45
        assert batched.commit_events == 1
        assert per_req.commit_events == 5

    def test_window_trigger_commits_a_partial_batch(self):
        net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        reqs = [
            mk(0, {0: 10, 1: 10}, {(0, 1): 5}, arrival=1),
            mk(1, {0: 10, 1: 10}, {(0, 1): 5}, arrival=2),
        ]
        ctl, engine = drive(net, BatchPolicy(5, u(10), WHICHEVER_FIRST), reqs)
        assert ctl.commit_events == 1
        assert {r: request_state(ctl, r) for r in (0, 1)} == {0: DEPARTED, 1: DEPARTED}
        commit_rows = [r for r in ctl.log.rows if r.event_kind == "commit"]
        # the window opened at the first tentative success (t=1) and fired
        # ten units later
        assert [r.time for r in commit_rows] == [u(11), u(11)]
        assert longest_wait(ctl.log) == u(10)

    def test_stale_window_trigger_is_ignored_after_count_commit(self):
        ctl, engine = drive(
            six_cycle(),
            BatchPolicy(5, u(50), WHICHEVER_FIRST),
            triangle_requests(5),
        )
        # the batch filled at the fifth arrival; the pending window trigger
        # still dispatches later but must not double-commit
        assert ctl.commit_events == 1
        assert ctl.log.committed == 5

    def test_time_only_ignores_the_count(self):
        net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        reqs = [
            mk(rid, {0: 1, 1: 1}, {(0, 1): 1}, arrival=1 + rid) for rid in range(3)
        ]
        ctl, _ = drive(net, BatchPolicy(1, u(10), TIME_ONLY), reqs)
        # size 1 would have committed each instantly in a counting mode;
        # time-only holds all three for the single window trigger
        assert ctl.commit_events == 1
        commit_times = {r.time for r in ctl.log.rows if r.event_kind == "commit"}
        assert commit_times == {u(11)}

    def test_commit_then_departure_on_the_same_tick(self):
        net = make_net([1, 2], [(1, 2)])
        r = mk(0, {0: 1, 1: 1}, {(0, 1): 1}, arrival=1, lifetime=2)
        ctl, engine = drive(net, BatchPolicy(5, u(10), TIME_ONLY), [r])
        # the request expired (t=3) before its window trigger (t=11): it is
        # committed at t=11 and departs in the immediately following event
        assert request_state(ctl, 0) == DEPARTED
        assert [(row.event_kind, row.time) for row in ctl.log.rows] == [
            ("arrival", u(1)),
            ("commit", u(11)),
            ("departure", u(11)),
        ]

    def test_rejected_arrival_does_not_open_the_window(self):
        net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        reqs = [
            mk(0, {0: 999}, {}, arrival=1),  # no switch fits this
            mk(1, {0: 1, 1: 1}, {(0, 1): 1}, arrival=5),
        ]
        ctl, engine = drive(net, BatchPolicy(9, u(10), TIME_ONLY), reqs)
        assert request_state(ctl, 0) == REJECTED
        commit_rows = [r for r in ctl.log.rows if r.event_kind == "commit"]
        # window ran from t=5 (first tentative success), not from t=1
        assert [r.time for r in commit_rows] == [u(15)]
        assert engine.events_dispatched == 4  # arrivals, trigger, departure

    def test_horizon_flushes_the_pending_batch(self):
        net = make_net([1, 2], [(1, 2)])
        r = mk(0, {0: 1, 1: 1}, {(0, 1): 1}, arrival=1, lifetime=2)
        ctl, engine = drive(
            net, BatchPolicy(9, u(1000), TIME_ONLY), [r], horizon=u(10)
        )
        assert engine.now == u(10)
        assert request_state(ctl, 0) == DEPARTED
        commit_rows = [row for row in ctl.log.rows if row.event_kind == "commit"]
        assert [row.time for row in commit_rows] == [u(10)]

    def test_rule_shortage_at_commit_cancels_and_releases(self):
        # switch 2 is the only one able to host the squatter, which then
        # leaves no memory for the victim's transit rule
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={1: 10, 2: 100, 3: 10})
        reqs = [
            mk(0, {0: 100}, {}, arrival=1),
            mk(1, {0: 5, 1: 5}, {(0, 1): 2}, arrival=2),
        ]
        ctl, engine = drive(net, BatchPolicy(1, None, COUNT_ONLY), reqs)
        assert request_state(ctl, 0) == DEPARTED  # lived its full life committed
        assert request_state(ctl, 1) == CANCELLED
        assert ctl.log.cancelled == 1
        assert ctl.view.tentative == {}
        assert ctl.log.rule_writes == 0  # squatter had no links, victim died
        assert ctl.commit_events == 2
        row = next(r for r in ctl.log.rows if r.outcome == CANCELLED)
        assert row.request_id == 1
        assert row.cost is None
        assert ctl.view.conservation_violations() == []

    def test_departure_of_uncommitted_request_raises(self):
        net = make_net([1, 2], [(1, 2)])
        ctl, engine = drive(net, BatchPolicy(1, None, COUNT_ONLY), [])
        with pytest.raises(UnknownRequestError):
            ctl.on_departure(engine, 404)

    def test_departure_of_tentative_request_raises_and_changes_nothing(self):
        # release alone would drop a tentative request; the departure guard
        # accepts only a committed one
        net = make_net([1, 2], [(1, 2)])
        ctl = make_controller(BATCHED, net, BatchPolicy(5, None, COUNT_ONLY), None)
        ctl.log = MetricsLog(ctl.view)
        engine = Engine(ctl, [])
        ctl.on_arrival(engine, mk(0, {0: 5, 1: 5}, {(0, 1): 2}))
        assert request_state(ctl, 0) == "tentative"
        view = ctl.view
        tentative = dict(view.tentative)
        flat = [list(v) for v in (view.capacity_left, view.bandwidth_left,
                                  view.switch_util, view.link_util)]
        with pytest.raises(UnknownRequestError):
            ctl.on_departure(engine, 0)
        assert view.tentative == tentative and view.tentative[0] is tentative[0]
        assert [view.capacity_left, view.bandwidth_left, view.switch_util, view.link_util] == flat
        assert view.base.committed == {}


class TestRemapThroughTheEngine:
    def blocker_net(self):
        return make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            caps={1: 100, 2: 100, 3: 4},
        )

    def scenario(self):
        return [
            # blocker: fills the direct (1, 2) link, departs at t=3
            mk(0, {0: 1, 1: 1}, {(0, 1): 95}, arrival=1, lifetime=2),
            # companion whose arrival fills the first batch of two
            mk(1, {0: 1}, {}, arrival=1.5),
            # victim: must detour at arrival, remaps after the blocker leaves
            mk(2, {0: 5, 1: 5}, {(0, 1): 10}, arrival=2),
        ]

    def test_batched_remap_adopts_the_freed_direct_path(self):
        ctl, engine = drive(
            self.blocker_net(),
            BatchPolicy(2, u(10), WHICHEVER_FIRST),
            self.scenario(),
            horizon=u(13),
        )
        assert ctl.log.remapped_links == 1
        assert ctl.commit_events == 2
        # the victim committed on the direct path at its window trigger
        res = ctl.view.base.committed[2]
        assert res.link_paths == indexed_parts(ctl.view, {(0, 1): (((2, 1), 10),)})
        victim_commit = next(
            r for r in ctl.log.rows
            if r.event_kind == "commit" and r.request_id == 2
        )
        assert victim_commit.time == u(12)
        assert victim_commit.cost == 20  # 5 + 5 node units + 10 on one link
        assert ctl.view.base.rule_load[3] == 0  # no rules left on the detour

    def test_per_request_commits_instantly_and_never_moves_a_link(self):
        ctl, engine = drive(
            self.blocker_net(),
            BatchPolicy(2, u(10), WHICHEVER_FIRST),
            self.scenario(),
            strategy="per-request",
            horizon=u(13),
        )
        # committed within the arrival event, so the blocker was still there:
        # the victim keeps its detour and pays for two links
        assert ctl.log.remapped_links == 0
        assert ctl.commit_events == 3
        res = ctl.view.base.committed[2]
        assert res.link_paths == indexed_parts(ctl.view, {(0, 1): (((2, 3, 1), 10),)})
        victim_commit = next(
            r for r in ctl.log.rows
            if r.event_kind == "commit" and r.request_id == 2
        )
        assert victim_commit.time == u(2)
        assert victim_commit.cost == 30
        assert longest_wait(ctl.log) == 0


class TestSplittingStrategy:
    def split_net(self):
        return make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            caps={1: 100, 2: 90, 3: 10},
            bws={(1, 2): 60, (1, 3): 40, (2, 3): 40},
        )

    def test_splits_commit_with_per_path_rules(self):
        r = mk(0, {0: 20, 1: 15}, {(0, 1): 100}, arrival=1)
        ctl, engine = drive(
            self.split_net(),
            BatchPolicy(5, u(10), WHICHEVER_FIRST),
            [r],
            strategy="splitting",
            horizon=u(12),
        )
        assert request_state(ctl, 0) == COMMITTED
        assert ctl.row.policy.mode == TIME_ONLY  # forced regardless of input
        # 60 units direct plus 40 units around: rules on 1 and 2 for each
        # path, on 3 for the detour only
        assert ctl.view.base.rule_load == {1: 2, 2: 2, 3: 1}
        assert ctl.log.rule_writes == 5
        assert ctl.log.remapped_links == 0
        commit = next(row for row in ctl.log.rows if row.event_kind == "commit")
        assert commit.cost == 175
        assert commit.time == u(11)

    def test_splitting_never_runs_the_remap_pass(self):
        # a split reservation would make remap_pass raise; surviving the
        # window trigger proves the splitting controller skips it
        r = mk(0, {0: 20, 1: 15}, {(0, 1): 100}, arrival=1)
        ctl, _ = drive(
            self.split_net(),
            BatchPolicy(5, u(10), WHICHEVER_FIRST),
            [r],
            strategy="splitting",
        )
        assert request_state(ctl, 0) == DEPARTED
        assert ctl.log.remapped_links == 0

    def test_single_path_budget_rejects_what_needs_a_split(self):
        r = mk(0, {0: 20, 1: 15}, {(0, 1): 100}, arrival=1)
        ctl, _ = drive(
            self.split_net(),
            BatchPolicy(5, u(10), WHICHEVER_FIRST),
            [r],
            strategy="splitting",
            split_paths=1,
        )
        assert request_state(ctl, 0) == REJECTED


class TestStrategySelection:
    def test_make_controller_picks_the_classes(self):
        net = make_net([1, 2], [(1, 2)])
        policy = BatchPolicy(5, u(25), WHICHEVER_FIRST)
        assert make_controller(BATCHED, net, policy, None).row == StrategyRow(1, policy, True)
        assert make_controller(PER_REQUEST, net, policy, None).row == StrategyRow(
            1, BatchPolicy(1, None, COUNT_ONLY), False)
        assert make_controller(SPLITTING, net, policy, None, split_paths=3).row == StrategyRow(
            3, BatchPolicy(5, u(25), TIME_ONLY), False)

    def test_only_batched_runs_the_remap_pass(self, monkeypatch):
        import vnesim.controller

        calls = []
        real = vnesim.controller.remap_pass

        def counting(view):
            calls.append(len(view.tentative))
            return real(view)

        monkeypatch.setattr(vnesim.controller, "remap_pass", counting)
        requests = [mk(i, {0: 5, 1: 5}, {(0, 1): 3}, arrival=1 + i) for i in range(4)]
        for strategy, expected in ((PER_REQUEST, []), (SPLITTING, []), (BATCHED, [2, 2])):
            calls.clear()
            drive(make_net([1, 2, 3], [(1, 2), (2, 3)]), BatchPolicy(2, u(50), WHICHEVER_FIRST),
                  requests, strategy=strategy)
            assert calls == expected, strategy

    def test_only_batched_records_blocking_links(self, monkeypatch):
        # per-request and splitting never pay for the sets; batched hands
        # them to its remap pass, which clears them
        import vnesim.controller

        reserved, at_remap = [], []
        real_reserve, real_remap = vnesim.controller.reserve, vnesim.controller.remap_pass

        def spy_reserve(*args):
            reserved.append(real_reserve(*args))
            return reserved[-1]

        def spy_remap(view):
            at_remap.extend(res.blocked for res in view.tentative.values())
            return real_remap(view)

        monkeypatch.setattr(vnesim.controller, "reserve", spy_reserve)
        monkeypatch.setattr(vnesim.controller, "remap_pass", spy_remap)
        requests = [mk(i, {0: 5, 1: 5}, {(0, 1): 20 + 10 * i}, arrival=1 + i) for i in range(4)]
        for strategy in (PER_REQUEST, SPLITTING, BATCHED):
            reserved.clear()
            net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)], bws={(1, 2): 50})
            drive(net, BatchPolicy(2, u(50), WHICHEVER_FIRST), requests, strategy=strategy)
            assert len(reserved) == 4, strategy
            assert all(res.blocked is None for res in reserved), strategy
        # the 50-unit link 1-2 (id 0) could not carry the 40- and 50-unit links
        assert at_remap == [{}, {}, {(0, 1): (0,)}, {(0, 1): (0,)}]

    @pytest.mark.parametrize("strategy", [BATCHED, SPLITTING])
    def test_the_staged_record_is_the_one_embed_built(self, monkeypatch, strategy):
        # on_arrival stages the reservation embed returned, not a copy, and
        # sets no field on it afterwards
        import vnesim.controller

        built = []
        real_embed = vnesim.controller.embed

        def spy_embed(*args):
            outcome = real_embed(*args)
            built.append((outcome.reservation, copy.deepcopy(outcome.reservation)))
            return outcome

        monkeypatch.setattr(vnesim.controller, "embed", spy_embed)
        net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)], bws={(1, 2): 50})
        ctl = make_controller(strategy, net, BatchPolicy(5, u(50), WHICHEVER_FIRST), None)
        ctl.log = MetricsLog(ctl.view)
        engine = Engine(ctl, [])
        for i in range(3):
            r = mk(i, {0: 5, 1: 5}, {(0, 1): 20 + 10 * i}, arrival=1 + i)
            ctl.on_arrival(engine, r)
            res, as_built = built[-1]
            assert ctl.view.tentative[r.request_id] is res
            assert res == as_built
        assert ctl.pending == 3

    def test_unknown_strategy_is_rejected(self):
        net = make_net([1, 2], [(1, 2)])
        with pytest.raises(ValueError, match="unknown strategy"):
            make_controller("psychic", net, BatchPolicy(5, u(25), WHICHEVER_FIRST), None)

    def test_per_request_forces_singleton_count_policy(self):
        net = make_net([1, 2], [(1, 2)])
        ctl = make_controller(PER_REQUEST, net, BatchPolicy(7, u(25), WHICHEVER_FIRST), None)
        assert ctl.row.policy == BatchPolicy(1, None, COUNT_ONLY)

    def test_splitting_keeps_the_window_but_drops_the_count(self):
        net = make_net([1, 2], [(1, 2)])
        ctl = make_controller(SPLITTING, net, BatchPolicy(7, u(25), WHICHEVER_FIRST), None)
        assert ctl.row.policy == BatchPolicy(7, u(25), TIME_ONLY)
