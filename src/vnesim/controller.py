"""The mapping controller and the strategy rows that configure it.

Every strategy runs one pipeline: embed each arrival (up to ``k`` paths per
virtual link) and hold it as a tentative reservation until the commit
trigger of its batch policy fires, optionally run one weight-ordered remap
pass over the batch, then write every surviving mapping's flow rules in a
single commit event. A strategy is a row ``(k, policy, remap)``:

* batched: k = 1, the policy as given (n successes or a window T), remap on;
* per-request: k = 1, a singleton count-only policy, remap off. Each accepted
  request commits inside its own arrival, one commit event each; a remap of
  a singleton batch could never adopt a path, since right after the embed
  each link's cheapest feasible path is still its incumbent;
* splitting: k = ``split_paths``, a pure time window of the given size and
  length, remap off.

Rule accounting: committing a mapping installs one flow rule per
(virtual link, hosting path, transited switch); each rule consumes one unit
of switch memory and one write. Removal at departure frees the memory but is
not counted as a write. A tentative request can fail at commit only because
some switch lacks rule-memory headroom; it is then cancelled and its
resources are released.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedder import embed
from .netmodel import UnknownRequestError, SubstrateView, mapping_cost, reserve
from .weights import remap_pass

# The controller calls only `embed`; bench/tracing.py wraps this module's
# `splitting_embed` by name, so the name stays bound to the one embedder.
splitting_embed = embed

COUNT_ONLY = "count-only"
TIME_ONLY = "time-only"
WHICHEVER_FIRST = "whichever-first"
_MODES = (COUNT_ONLY, TIME_ONLY, WHICHEVER_FIRST)

TENTATIVE = "tentative"
COMMITTED = "committed"
REJECTED = "rejected"
CANCELLED = "rejected-at-commit"
DEPARTED = "departed"

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


@dataclass
class BatchEntry:
    request: object
    accepted_at: int  # tick of the tentative acceptance


@dataclass
class PendingBatch:
    """Tentative successes waiting for the next commit trigger."""

    entries: list = field(default_factory=list)
    window_open: int = None
    epoch: int = 0

    def __len__(self):
        return len(self.entries)

    def reset(self):
        self.entries = []
        self.window_open = None
        self.epoch += 1


class RuleTable:
    """Installed flow rules per switch plus the monotone write counter."""

    def __init__(self, switches):
        self.installed = {u: 0 for u in switches}
        self.writes = 0

    def install(self, rule_units: dict):
        for u, n in rule_units.items():
            self.installed[u] += n
        self.writes += sum(rule_units.values())

    def remove(self, rule_units: dict):
        # departures free memory but never count as writes
        for u, n in rule_units.items():
            self.installed[u] -= n


@dataclass(frozen=True)
class StrategyRow:
    """What a strategy sets in the one pipeline: the path budget per virtual
    link, the commit trigger, and whether the batch is remapped."""

    k: int
    policy: BatchPolicy
    remap: bool


class Controller:
    """Event handlers and state of the pipeline, configured by a strategy row."""

    def __init__(self, substrate, row: StrategyRow, log):
        self.view = SubstrateView(substrate)
        self.row = row
        self.log = log
        self.batch = PendingBatch()
        self.rules = RuleTable(substrate.switches)
        self.status = {}
        self.commit_events = 0
        self.remapped_links = 0
        self.max_wait = 0  # largest tentative wait seen at commit, in ticks

    # -- arrivals ----------------------------------------------------------

    def on_arrival(self, engine, request):
        rid = request.request_id
        row = self.row
        outcome = embed(self.view, request, row.k)
        if not outcome.accepted:
            self.status[rid] = REJECTED
            self.log.record_arrival(engine.now, rid, accepted=False)
            return
        reserve(self.view, request, outcome.mapping, tentative=True)
        self.status[rid] = TENTATIVE
        if not self.batch.entries:
            self.batch.window_open = engine.now
            if row.policy.timed:
                engine.schedule_trigger(engine.now + row.policy.window, self.batch.epoch)
        self.batch.entries.append(BatchEntry(request, engine.now))
        self.log.record_arrival(engine.now, rid, accepted=True, cost=outcome.cost)
        # the count trigger fires inside the arrival that fills the batch,
        # so the batch can never hold more than `size` tentative requests
        if row.policy.counts and len(self.batch) >= row.policy.size:
            self.commit_batch(engine)

    # -- triggers ----------------------------------------------------------

    def on_window_trigger(self, engine, epoch):
        if epoch != self.batch.epoch:
            return  # a count trigger or flush already committed this batch
        self.commit_batch(engine)

    def commit_batch(self, engine):
        if not self.batch.entries:
            return
        if self.row.remap:
            self.remapped_links += remap_pass(
                self.view, [e.request for e in self.batch.entries]
            )
        self.commit_events += 1
        self.log.record_commit_event(self.remapped_links)
        for entry in self.batch.entries:
            self._commit_one(engine, entry)
        self.batch.reset()

    def _commit_one(self, engine, entry):
        request = entry.request
        rid = request.request_id
        res = self.view.tentative_reservation(rid)
        if self.view.commit(rid):
            self.rules.install(res.rule_units)
            self.status[rid] = COMMITTED
            wait = engine.now - entry.accepted_at
            self.max_wait = max(self.max_wait, wait)
            cost = mapping_cost(self.view.base, request, res)
            paths = res.hosting_paths()
            mean_hops = (
                sum(len(p) - 1 for p in paths) / len(paths) if paths else 0.0
            )
            self.log.record_commit(
                engine.now, rid, committed=True, cost=cost,
                mean_hops=mean_hops, wait=wait,
                rules_written=sum(res.rule_units.values()),
            )
            engine.schedule_departure(max(engine.now, request.departure), rid)
        else:
            self.view.release(rid)
            self.status[rid] = CANCELLED
            self.log.record_commit(engine.now, rid, committed=False)

    def flush(self, engine):
        """Commit whatever is still pending (end of simulation)."""
        self.commit_batch(engine)

    @property
    def pending(self) -> int:
        return len(self.batch)

    # -- departures --------------------------------------------------------

    def on_departure(self, engine, request_id):
        status = self.status.get(request_id)
        if status != COMMITTED:
            raise UnknownRequestError(
                f"departure for request {request_id} in state {status!r}"
            )
        res = self.view.base.committed[request_id]
        self.rules.remove(res.rule_units)
        self.view.release(request_id)
        self.status[request_id] = DEPARTED
        self.log.record_departure(engine.now, request_id)


def make_controller(strategy, substrate, policy, log, split_paths=2) -> Controller:
    """The one controller, configured by the row of the named strategy."""
    if strategy == BATCHED:
        row = StrategyRow(1, policy, True)
    elif strategy == PER_REQUEST:
        # per-request commit ignores count/window settings entirely
        row = StrategyRow(1, BatchPolicy(1, None, COUNT_ONLY), False)
    elif strategy == SPLITTING:
        row = StrategyRow(split_paths, BatchPolicy(policy.size, policy.window, TIME_ONLY), False)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {', '.join(STRATEGIES)}")
    return Controller(substrate, row, log)
