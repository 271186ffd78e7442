"""The mapping controller and the strategy rows that configure it.

Every strategy runs one pipeline: embed each arrival (up to ``k`` paths per
virtual link) into a reservation, stage that same record as tentative until
the commit trigger of its batch policy fires, optionally run one
weight-ordered remap pass over the batch, then write every surviving
mapping's flow rules in a single commit event. A strategy is a row
``(k, policy, remap)``:

* batched: k = 1, the policy as given (n successes or a window T), remap on;
* per-request: k = 1, a singleton count-only policy, remap off. Each accepted
  request commits inside its own arrival, one commit event each; a remap of
  a singleton batch could never adopt a path: right after the embed no link
  that blocked a virtual link's route has gained units, so by the lemma in
  ``weights`` every link's search returns its incumbent;
* splitting: k = ``split_paths``, a pure time window of the given size and
  length, remap off.

The pending batch is the view's tentative overlay, in arrival order; the
controller keeps no copy of it, the remap pass reads the batch from that
overlay, and the controller writes the ledger only through the view
(``SubstrateView.commit`` and ``.release``).

Rule accounting: committing a mapping installs one flow rule per
(virtual link, hosting path, transited switch); each rule consumes one unit
of switch memory and one write. The ledger's ``rule_load``, booked by the
view's commit and release, is the one record of installed rules; the log
counts the writes. Removal at departure frees the memory but is not counted
as a write. A tentative request can fail at commit only because some switch
lacks rule-memory headroom; it is then cancelled and its resources are
released.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .embedder import embed
from .netmodel import UnknownRequestError, SubstrateView, reserve
from .weights import remap_pass

# Two aliases exist only because bench/ reads them by name: bench/tracing.py
# wraps `splitting_embed` (the one embedder), and bench/run.py and
# bench/selftest.py read a controller's `rules.installed`, which is the
# ledger's `rule_load` dict itself, set in `Controller.__init__`. Nothing in
# src/ reads either; ROADMAP item 2's benchmark change removes both.
splitting_embed = embed

COUNT_ONLY = "count-only"
TIME_ONLY = "time-only"
WHICHEVER_FIRST = "whichever-first"
_MODES = (COUNT_ONLY, TIME_ONLY, WHICHEVER_FIRST)

BATCHED = "batched"
PER_REQUEST = "per-request"
SPLITTING = "splitting"
STRATEGIES = (BATCHED, PER_REQUEST, SPLITTING)


@dataclass(frozen=True)
class BatchPolicy:
    """When to commit the pending batch: after ``size`` tentative successes,
    after ``window`` ticks from the first one, or whichever comes first."""

    size: int = 5
    window: int = None  # ticks
    mode: str = WHICHEVER_FIRST

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown batch mode {self.mode!r}")
        if self.size < 1:
            raise ValueError("batch size must be at least 1")
        if self.mode != COUNT_ONLY and (self.window is None or self.window <= 0):
            raise ValueError("window must be a positive tick count")

    @property
    def counts(self) -> bool:
        return self.mode != TIME_ONLY

    @property
    def timed(self) -> bool:
        return self.mode != COUNT_ONLY


@dataclass(frozen=True)
class StrategyRow:
    """What a strategy sets in the one pipeline: the path budget per virtual
    link, the commit trigger, and whether the batch is remapped."""

    k: int
    policy: BatchPolicy
    remap: bool


class Controller:
    """Event handlers and state of the pipeline, configured by a strategy row.

    A request's state is kept once: tentative or committed by the ledger
    (``view.tentative``, ``view.base.committed``), every count and final
    outcome by the log. Each batch member became tentative in its own arrival
    event, so its wait at commit is ``now - request.arrival``. A window
    trigger carries the count of commit events when its batch opened, so one
    whose batch a count trigger or flush already committed is ignored.
    """

    def __init__(self, substrate, row: StrategyRow, log):
        self.view = SubstrateView(substrate)
        self.row = row
        self.log = log
        self.rules = SimpleNamespace(installed=substrate.rule_load)  # bench/ alias, see splitting_embed

    @property
    def commit_events(self) -> int:
        return self.log.commit_events

    # -- arrivals ----------------------------------------------------------

    def on_arrival(self, engine, request):
        rid = request.request_id
        row = self.row
        # only the remap pass reads the links that blocked each route, as
        # each route's search reported them
        outcome = embed(self.view, request, row.k, {} if row.remap else None)
        if not outcome.accepted:
            self.log.record_arrival(engine.now, rid, accepted=False)
            return
        res = reserve(self.view, outcome.reservation)
        if self.pending == 1 and row.policy.timed:  # this member opened the batch
            engine.schedule_trigger(engine.now + row.policy.window, self.commit_events)
        self.log.record_arrival(engine.now, rid, accepted=True, cost=res.cost)
        # the count trigger fires inside the arrival that fills the batch,
        # so the batch can never hold more than `size` tentative requests
        if row.policy.counts and self.pending >= row.policy.size:
            self.commit_batch(engine)

    # -- triggers ----------------------------------------------------------

    def on_window_trigger(self, engine, epoch):
        if epoch != self.commit_events:
            return  # a count trigger or flush already committed this batch
        self.commit_batch(engine)

    def commit_batch(self, engine):
        batch = list(self.view.tentative.values())
        if not batch:
            return
        remapped = remap_pass(self.view) if self.row.remap else 0
        self.log.record_commit_event(remapped)
        for res in batch:
            self._commit_one(engine, res)

    def _commit_one(self, engine, res):
        request, rid = res.request, res.request_id
        if self.view.commit(rid):
            hops = [len(ids) for parts in res.link_paths.values() for _p, _u, ids in parts]
            mean_hops = sum(hops) / len(hops) if hops else 0.0
            self.log.record_commit(
                engine.now, rid, cost=res.cost, mean_hops=mean_hops,
                wait=engine.now - request.arrival, rules_written=sum(res.rule_units.values()),
            )
            engine.schedule_departure(max(engine.now, request.departure), rid)
        else:
            self.view.release(rid)
            self.log.record_cancel(engine.now, rid)

    def flush(self, engine):
        """Commit whatever is still pending (end of simulation)."""
        self.commit_batch(engine)

    @property
    def pending(self) -> int:
        return len(self.view.tentative)

    # -- departures --------------------------------------------------------

    def on_departure(self, engine, request_id):
        # release alone would also drop a tentative request of this id
        if request_id not in self.view.base.committed:
            raise UnknownRequestError(f"departure for request {request_id}, which is not committed")
        self.view.release(request_id)
        self.log.record_departure(engine.now, request_id)


def strategy_row(strategy, policy, split_paths=2) -> StrategyRow:
    """The row of the named strategy, from the configured batch policy."""
    if strategy == BATCHED:
        return StrategyRow(1, policy, True)
    if strategy == PER_REQUEST:
        # per-request commit ignores count/window settings entirely
        return StrategyRow(1, BatchPolicy(1, None, COUNT_ONLY), False)
    if strategy == SPLITTING:
        return StrategyRow(split_paths, BatchPolicy(policy.size, policy.window, TIME_ONLY), False)
    raise ValueError(f"unknown strategy {strategy!r}; pick one of {', '.join(STRATEGIES)}")


def make_controller(strategy, substrate, policy, log, split_paths=2) -> Controller:
    """The one controller, configured by the row of the named strategy."""
    return Controller(substrate, strategy_row(strategy, policy, split_paths), log)
